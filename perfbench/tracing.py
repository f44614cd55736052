"""Spans around the library's public functions, patched in from outside the program.

The modules of ``apdiff`` bind each other's functions by name at import
(``from .linsolve import DirectFactor``), so a function is wrapped where it
is looked up: in the calling module.  :meth:`Tracer.installed` swaps the
wrappers in and restores the originals on exit.  Spans are kept in memory
with a name, a start, an end and the index of their parent span; the caller
writes them out when the run ends.

Span names are ``<layer>.<what>``; a layer is a module of ``src/apdiff``.
``experiments`` and ``cli`` only orchestrate and are not measured; the
benchmark's own spans use the layer ``bench``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from apdiff import apcore, gummel, linsolve, naive, operators, problems

LAYERS = ("problems", "operators", "linsolve", "apcore", "gummel", "naive")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.info]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except Exception as exc:
            rec.info["raised"] = type(exc).__name__
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, note=None):
        """``fn`` inside a span; ``note(span, result)`` records attributes after it ends."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if note is not None:
                note(rec.info, result)
            return result

        return traced

    def _factor_class(self):
        tracer = self

        class TracedFactor(linsolve.DirectFactor):
            def __init__(self, *args, **kwargs):
                with tracer.span("linsolve.factor") as rec:
                    super().__init__(*args, **kwargs)
                # exact count; building L and U costs time outside the span
                lu = self._lu
                rec.info["nnz"] = int(lu.L.nnz + lu.U.nnz)

            def solve(self, rhs):
                with tracer.span("linsolve.solve") as rec:
                    report = super().solve(rhs)
                rec.info["residual"] = float(report.residual)
                return report

        return TracedFactor

    def _patches(self):
        w = self.wrap
        ops = {n: getattr(operators, n) for n in ("apply_dh", "apply_dh_star", "compose_second_order")}
        yield apcore, "DirectFactor", self._factor_class()
        for module in (apcore, gummel, naive):
            for n, fn in ops.items():
                if hasattr(module, n):
                    yield module, n, w(fn, f"operators.{n}")
        for n in ("case_linear_variable", "case_angle", "case_nonlinear"):
            yield problems, n, w(getattr(problems, n), "problems.build")
        yield apcore, "assemble", w(apcore.assemble, "linsolve.assemble")
        yield naive, "estimate_condition", w(naive.estimate_condition, "linsolve.condition")
        for module in (apcore, gummel):
            yield module, "solve_linear_ap", w(apcore.solve_linear_ap, "apcore.solve")
            yield module, "fill_ghost", w(apcore.fill_ghost, "apcore.ghost", _note_ghost)
        yield apcore, "solve_L", w(apcore.solve_L, "apcore.solve_L")
        yield apcore, "reconstruct_pi", w(apcore.reconstruct_pi, "apcore.reconstruct")
        yield apcore, "reconstruct_q", w(apcore.reconstruct_q, "apcore.reconstruct")
        yield gummel, "gummel_solve", w(gummel.gummel_solve, "gummel.solve", _note_gummel)
        yield gummel, "linearize", w(gummel.linearize, "gummel.linearize", _note_linearize)
        yield naive, "assemble_naive", w(naive.assemble_naive, "naive.assemble")
        yield naive, "naive_condition", w(naive.naive_condition, "naive.condition")
        yield naive, "solve_naive", w(naive.solve_naive, "naive.solve")

    @contextmanager
    def installed(self):
        saved = []
        # built in full first: later wrappers must wrap the originals
        patches = list(self._patches())
        try:
            for module, attr, replacement in patches:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, replacement)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def _note_ghost(info, result):
    _, report = result
    info["unknowns"] = report.n_unknowns
    info["rank_deficient"] = bool(report.rank_deficient)


def _note_gummel(info, result):
    _, state = result
    info["iterations"] = state.n_iterations


def _note_linearize(info, lp):
    info["slope_floored"] = int(getattr(lp, "_slope_floored", 0))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Spans come from one thread and nest, so children never overlap and
    their covered part is the sum of their durations.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], phases: int) -> dict:
    """Per-layer figures, per timed phase (sums and counts divided by ``phases``).

    Counts repeat exactly from phase to phase, so they stay whole numbers.
    """

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name)) / phases

    def count(name):
        return len(named(name)) // phases

    def info_values(name, key):
        return [s.info[key] for s in named(name) if key in s.info]

    factors = named("linsolve.factor")
    retries = sum(1 for s in factors if "raised" in s.info)
    iterations = sum(info_values("gummel.solve", "iterations"))
    operator_spans = [s for s in spans if s.name.startswith("operators.")]
    m = {
        "problems.build_s": total("problems.build"),
        "operators.calls": len(operator_spans) // phases,
        "operators.s": sum(s.duration for s in operator_spans) / phases,
        "linsolve.assemble_calls": count("linsolve.assemble"),
        "linsolve.assemble_s": total("linsolve.assemble"),
        "linsolve.factor_calls": count("linsolve.factor"),
        "linsolve.factor_s": total("linsolve.factor"),
        "linsolve.factor_nnz": max(info_values("linsolve.factor", "nnz"), default=0),
        "linsolve.factor_retries": retries // phases,
        # share of attempted factorizations that succeeded; 1 when none ran
        "linsolve.factor_ok_ratio": (len(factors) - retries) / len(factors) if factors else 1.0,
        "linsolve.solve_calls": count("linsolve.solve"),
        "linsolve.solve_s": total("linsolve.solve"),
        "linsolve.residual_max": max(info_values("linsolve.solve", "residual"), default=0.0),
        "linsolve.condition_s": total("linsolve.condition"),
        "naive.assemble_s": total("naive.assemble"),
        "naive.condition_s": total("naive.condition"),
        "naive.solve_s": total("naive.solve"),
        "apcore.solve_calls": count("apcore.solve"),
        "apcore.solve_s": total("apcore.solve"),
        "apcore.solve_L_s": total("apcore.solve_L"),
        "apcore.reconstruct_s": total("apcore.reconstruct"),
        "apcore.ghost_calls": count("apcore.ghost"),
        "apcore.ghost_s": total("apcore.ghost"),
        "apcore.ghost_unknowns": max(info_values("apcore.ghost", "unknowns"), default=0),
        "apcore.ghost_rank_deficient": sum(info_values("apcore.ghost", "rank_deficient")) // phases,
        "gummel.iterations": iterations // phases,
        # mean wall time of one Gummel iteration
        "gummel.iteration_s": sum(s.duration for s in named("gummel.solve")) / iterations
        if iterations else 0.0,
        "gummel.linearize_s": total("gummel.linearize"),
        "gummel.slope_floored": sum(info_values("gummel.linearize", "slope_floored")) // phases,
    }
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in zip(spans, own)
                                   if s.name.split(".")[0] == layer) / phases
    return m
