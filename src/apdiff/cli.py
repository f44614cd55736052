"""Command-line experiment runner.

Usage:

    apdiff <experiment> [--config FILE] [--out DIR]

with experiments ``convergence``, ``angle``, ``gummel``, ``eps-limit`` and
``conditioning``.  The JSON config file carries the keys of
``ExperimentConfig`` (``meshes``, ``eps_list``, ``alphas``, ``eta``,
``mu``, ``tol_rel``, ``n_max``, ``solver``, ``thresholds``), where
``solver`` holds the one key ``tol`` (relative residual of every linear
solve); omitted keys fall back to the experiment's defaults.  Outputs are one CSV of result
rows, per-run iteration histories where applicable, and a JSON summary with
pass/fail checks.  The exit code is 0 only if every threshold check passed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    ExperimentConfig,
    angle_sweep,
    conditioning_study,
    convergence_study,
    epsilon_limit_study,
    gummel_study,
    study_config,
)

EXPERIMENTS = {
    "convergence": convergence_study,
    "angle": angle_sweep,
    "gummel": gummel_study,
    "eps-limit": epsilon_limit_study,
    "conditioning": conditioning_study,
}


def _load_config(experiment: str, path: str | None) -> ExperimentConfig | None:
    if path is None:
        return None
    with open(path) as fh:
        return study_config(experiment, json.load(fh))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="apdiff", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=sorted(EXPERIMENTS))
    parser.add_argument("--config", help="JSON file with ExperimentConfig keys")
    parser.add_argument("--out", default="apdiff-out", help="output directory")
    args = parser.parse_args(argv)

    config = _load_config(args.experiment, args.config)
    report = EXPERIMENTS[args.experiment](config)
    report.write_outputs(Path(args.out))

    for check in report.checks:
        mark = "PASS" if check["passed"] else "FAIL"
        print(f"[{mark}] {check['name']}: {check['value']} (limit {check['limit']})")
    print(f"{'PASSED' if report.passed else 'FAILED'}: {args.experiment} "
          f"({len(report.rows)} rows -> {args.out})")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
