"""One benchmark run in a fresh process: set up, time, check, and report.

``run.py`` starts it as ``python3 -m perfbench.worker --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root, with ``src`` on the path
and the BLAS thread count set, and reads the JSON record it prints last.
A fresh process per run keeps ``ru_maxrss`` (the peak resident memory) to
this one workload.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time

import numpy as np
import scipy

from perfbench.tracing import Tracer, layer_metrics
from perfbench.workloads import WORKLOADS, load_reference

# Set-ups timed before each timed phase; they are spread over the run, so
# that the median of set_up samples does not hang on one moment's load.
SETUPS_PER_PHASE = 3

# Typical length of one timed phase on a 2-vCPU x86 VM.  A run repeats the
# phase round(seconds / nominal) times, at least once, so the amount of work
# depends on --seconds only, never on how fast the program under test is.
NOMINAL_PHASE_S = {
    "linear-m400": 7.0,
    "gummel-m200": 11.0,
    "angle-sweep-m100": 4.5,
    "conditioning-m100": 6.5,
}


def repeats(workload: str, seconds: float, per_repeat: int = 1) -> int:
    return max(1, round(seconds / (per_repeat * NOMINAL_PHASE_S[workload])))


def measure(workload: str, seed: int, seconds: float, trace: bool, cells: int | None = None) -> dict:
    """Run one workload and return its samples, outcomes and (traced) layer figures.

    ``cells`` overrides the workload's mesh; the tests use it to run small.
    Without tracing the timed phase runs ``repeats`` times.  With tracing,
    untraced and traced phases alternate, so that the difference of their
    medians is the tracing overhead.
    """
    wl = WORKLOADS[workload]
    cells = cells or wl.cells
    reference = load_reference()[workload][str(cells)]
    params = wl.draw(np.random.default_rng(seed))

    setup_s, outcomes = [], []

    def timed() -> float:
        for _ in range(SETUPS_PER_PHASE):
            t0 = time.perf_counter()
            inputs = wl.setup(cells, params)
            setup_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        outputs = wl.run(inputs)
        elapsed = time.perf_counter() - t0
        outcomes.extend(wl.check(inputs, outputs, reference))
        return elapsed

    record = {"workload": workload, "seed": seed, "cells": cells, "params": params,
              "setup_s": setup_s}
    if not trace:
        record["solve_s"] = [timed() for _ in range(repeats(workload, seconds))]
    else:
        tracer = Tracer()
        untraced, traced = [], []
        pairs = repeats(workload, seconds, per_repeat=2)
        for _ in range(pairs):
            untraced.append(timed())
            with tracer.installed():
                with tracer.span("bench.setup"):
                    traced_inputs = wl.setup(cells, params)
                with tracer.span("bench.phase") as phase:
                    outputs = wl.run(traced_inputs)
            traced.append(phase.duration)
            outcomes.extend(wl.check(traced_inputs, outputs, reference))
        record.update(solve_s=untraced, traced_solve_s=traced,
                      layers=layer_metrics(tracer.spans, pairs),
                      spans=[s.as_list() for s in tracer.spans])

    errors = [o.error for o in outcomes if math.isfinite(o.error)]
    record.update(
        attempted=len(outcomes),
        failures=[o.failure for o in outcomes if o.failure],
        rel_l2_error=max(errors) if errors else None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        scipy=scipy.__version__,
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
