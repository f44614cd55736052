"""Dump the solver's outputs on a fixed case list, and compare two dumps.

Usage, from the repository root::

    python3 tools/compare_outputs.py dump --src DIR OUT.pkl
    python3 tools/compare_outputs.py compare A.pkl B.pkl

``dump`` imports ``apdiff`` from ``DIR/src`` (a checkout of any commit, this
one included), runs every case of :func:`cases` and pickles every output
field as plain data: dataclasses become dicts, arrays stay arrays, and
``IterationRecord.seconds`` is zeroed.  A case-data case builds one
manufactured case and dumps every field of its problem, ``exact_field()``
and the sample of its ``initial_guess``.  A study case runs one small config
of a CLI experiment and dumps its report and the text of every file
``write_outputs`` writes, with the ``runtime_ms`` of its rows and sweep and
the ``seconds`` of its iteration records zeroed before it writes them.
Run one ``dump`` per tree, each in its own process.

``compare`` prints one line per case: ``bytes`` when every value is equal
byte for byte, ``array_equal`` when some differ in bytes only in ways
``np.array_equal`` forgives (a signed zero), or the largest relative
difference and the path of the value it was found in.  That verdict covers
the solution; the diagnostics, which sit at rounding level and so move by
up to their own size when the solution moves by a rounding error (stage
residuals, the ghost fill's ``constraint_defect``, ``mean_gradient_l2``),
get a second clause, ``; diagnostics ...``, printed when they differ.
Study files are compared value by value: each CSV row and the JSON summary
are parsed before the comparison.  ``compare`` exits non-zero on any
difference beyond ``np.array_equal``, diagnostics included, and on a case
that only one dump holds.  Compare only dumps this tool wrote: loading a
pickle can run code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np

LINEAR = [(64, 0.1), (64, 0.0), (64, 1000.0), (101, 0.1), (200, 10.0)]
# (cells, degrees); M100 at 3 and 88 degrees are the angle sweep's fills whose
# inverse iteration runs past its first convergence test, and the last two
# fills keep a deflated singular value, 1.75e-6 and 3.0e-6, above the cutoff
# GHOST_RCOND * sqrt(2), and add it back one by one
ANGLE = [(100, 0), (100, 3), (100, 21), (100, 45), (100, 88), (100, 90), (16, 21), (64, 5)]
ANGLE_EPS = 1e-3
GUMMEL = [(64, 10.0), (64, 1.0), (64, 0.1), (64, 0.0), (200, 0.1), (200, 1e-3), (200, 0.0)]
NAIVE_CELLS, NAIVE_EPS, NAIVE_SEED = 20, [1.0, 1e-3, 1e-6], 3
CASE_DATA_CELLS = 16
# each builder of ``problems`` and its arguments after the grid, for its case data
CASE_DATA = {"case_linear_variable": (0.1,), "case_angle": (1e-3, math.radians(21)),
             "case_nonlinear": (0.1,), "case_ap_limit": (1e-2,)}
STUDIES = {
    "convergence": {"meshes": [8, 16, 32], "eps_list": [0.1, 0.0]},
    "angle": {"meshes": [16], "eps_list": [1e-3], "alphas": [0.0, 0.5, math.pi / 2]},
    "gummel": {"meshes": [16, 32], "eps_list": [0.1, 0.0]},
    "eps-limit": {"meshes": [16, 32], "eps_list": [1e-3, 1e-2, 0.1, 0.0]},
    "conditioning": {"meshes": [16]},
}


def _plain(value):
    """``value`` as dicts, lists and arrays, with every iteration record's seconds zeroed."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
        if type(value).__name__ == "IterationRecord":
            fields["seconds"] = 0.0
        return fields
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, np.ndarray):
        return value.copy()
    return value


def study_outputs(report) -> dict:
    """``report`` and the text of each file it writes, timings zeroed before it writes them."""
    for entry in report.rows + report.extras.get("sweep", []):
        entry["runtime_ms"] = 0.0
    for history in report.histories.values():
        for rec in history:
            rec.seconds = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        report.write_outputs(tmp)
        files = {path.name: path.read_text() for path in sorted(Path(tmp).iterdir())}
    return {"report": report, "files": files}


def cases():
    """``(name, run)`` of every case; ``run()`` returns the case's outputs."""
    from apdiff import cli, experiments, naive, problems
    from apdiff.apcore import solve_linear_ap
    from apdiff.grid import sample_node
    from apdiff.gummel import gummel_solve

    grid = experiments.unit_square_grid
    out = []
    for cells, eps in LINEAR:
        out.append((f"linear-variable M{cells} eps {eps:g}", lambda cells=cells, eps=eps:
                    solve_linear_ap(problems.case_linear_variable(grid(cells), eps).problem)))
    for cells, degrees in ANGLE:
        out.append((f"angle M{cells} eps {ANGLE_EPS:g} {degrees} deg",
                    lambda cells=cells, degrees=degrees: solve_linear_ap(problems.case_angle(
                        grid(cells), ANGLE_EPS, math.radians(degrees)).problem)))

    def gummel(cells, eps):
        case = problems.case_nonlinear(grid(cells), eps)
        p0 = sample_node(case.initial_guess, case.grid)
        p, state = gummel_solve(case.problem, p0, exact=case.exact_field())
        return {"p": p, "state": state}

    for cells, eps in GUMMEL:
        out.append((f"gummel nonlinear-spline M{cells} eps {eps:g}",
                    lambda cells=cells, eps=eps: gummel(cells, eps)))

    def baseline(eps):
        problem = problems.case_linear_variable(grid(NAIVE_CELLS), eps).problem
        cond = naive.naive_condition(naive.assemble_naive(problem), seed=NAIVE_SEED)
        p, report = naive.solve_naive(problem)
        return {"cond": cond, "p": p, "report": report}

    for eps in NAIVE_EPS:
        out.append((f"naive M{NAIVE_CELLS} eps {eps:g}", lambda eps=eps: baseline(eps)))

    def case_data(builder, args):
        case = getattr(problems, builder)(grid(CASE_DATA_CELLS), *args)
        fields = {f.name: getattr(case.problem, f.name) for f in dataclasses.fields(case.problem)}
        guess = None if case.initial_guess is None else sample_node(case.initial_guess, case.grid)
        return {"problem": {name: value for name, value in fields.items() if not callable(value)},
                "exact": case.exact_field(), "initial_guess": guess}

    for builder, args in CASE_DATA.items():
        out.append((f"case data {builder} M{CASE_DATA_CELLS}",
                    lambda builder=builder, args=args: case_data(builder, args)))
    for name, data in STUDIES.items():
        out.append((f"study {name}", lambda name=name, data=data: study_outputs(
            cli.EXPERIMENTS[name](experiments.study_config(name, data)))))
    return out


def dump(src: Path, path: Path) -> None:
    sys.path.insert(0, str(src.resolve() / "src"))
    import apdiff

    if not Path(apdiff.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"apdiff imported from {apdiff.__file__}, not from {src}")
    outputs = {name: _plain(run()) for name, run in cases()}
    with open(path, "wb") as fh:
        pickle.dump(outputs, fh)


def _leaves(value, path=""):
    """``(path, leaf)`` of every value in a nested dict or list."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def _same_bytes(a, b) -> bool:
    if isinstance(a, (np.ndarray, np.generic, float)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def _relative_difference(a, b) -> float:
    """Largest ``|a - b|`` over the largest ``|b|``; inf where they cannot be subtracted."""
    try:
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape != b.shape:
            return math.inf
        with np.errstate(invalid="ignore"):
            diff = np.abs(a - b)
        diff[np.isnan(a) & np.isnan(b)] = 0.0
        if not diff.size:
            return 0.0
        scale = np.max(np.abs(b[np.isfinite(b)]), initial=0.0)
        worst = float(np.max(diff))
        return worst / scale if scale > 0.0 else worst
    except (TypeError, ValueError):
        return math.inf


# Leaves whose path holds one of these are diagnostics, not solution values.
DIAGNOSTICS = ("residual", "constraint_defect", "mean_gradient_l2")


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parsed(outputs):
    """``outputs`` with the text of each study file parsed: CSV into rows, JSON into data."""
    if not (isinstance(outputs, dict) and isinstance(outputs.get("files"), dict)):
        return outputs
    files = {name: json.loads(text) if name.endswith(".json") else
             [{key: _number(item) for key, item in row.items()}
              for row in csv.DictReader(io.StringIO(text))]
             for name, text in outputs["files"].items()}
    return {**outputs, "files": files}


def compare_case(a, b) -> tuple[str, bool]:
    """The verdict on one case's outputs, and whether it is within ``np.array_equal``."""
    left, right = dict(_leaves(_parsed(a))), dict(_leaves(_parsed(b)))
    if left.keys() != right.keys():
        return f"fields differ: {sorted(left.keys() ^ right.keys())}", False
    # per kind, False for the solution and True for the diagnostics
    verdicts = {False: "bytes", True: "bytes"}
    worst = {False: (0.0, ""), True: (0.0, "")}
    for path, x in left.items():
        y = right[path]
        if _same_bytes(x, y):
            continue
        kind = any(name in path for name in DIAGNOSTICS)
        if isinstance(x, (np.ndarray, float, int, bool)) and np.array_equal(x, y, equal_nan=True):
            verdicts[kind] = "array_equal"
            continue
        rel = _relative_difference(x, y)
        if rel >= worst[kind][0]:
            worst[kind] = rel, path
    for kind, (rel, where) in worst.items():
        if where:
            verdicts[kind] = f"max relative difference {rel:.3e} at {where}"
    ok = all(verdict in ("bytes", "array_equal") for verdict in verdicts.values())
    if verdicts[True] == "bytes":
        return verdicts[False], ok
    return f"{verdicts[False]}; diagnostics {verdicts[True]}", ok


def compare(a_path: Path, b_path: Path) -> int:
    with open(a_path, "rb") as fh:
        a = pickle.load(fh)
    with open(b_path, "rb") as fh:
        b = pickle.load(fh)
    failed = 0
    for name in list(a) + [name for name in b if name not in a]:
        if name not in a or name not in b:
            verdict, ok = f"only in {a_path if name in a else b_path}", False
        else:
            verdict, ok = compare_case(a[name], b[name])
        failed += not ok
        print(f"{name}: {verdict}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    dump_parser = commands.add_parser("dump", help="run the cases and pickle their outputs")
    dump_parser.add_argument("--src", type=Path, required=True,
                             help="checkout whose src/ holds the apdiff to run")
    dump_parser.add_argument("out", type=Path)
    compare_parser = commands.add_parser("compare", help="compare two dumps case by case")
    compare_parser.add_argument("a", type=Path)
    compare_parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
