"""Record the values the workload gates compare against into ``reference.json``.

Run from the repository root, on the commit whose accuracy the gates pin::

    PYTHONPATH=src:. python3 -m perfbench.record_reference

For every workload, at its benchmark mesh and at the test mesh, it stores the
relative l2 error of every input the seed can draw, and for the conditioning
entries also the condition estimate from power-iteration start seed 0.
"""

from __future__ import annotations

import json
import subprocess

from apdiff.experiments import rel_error
from perfbench import workloads as W


def _linear(cells):
    wl = W.WORKLOADS["linear-m400"]
    out = {}
    for eps in W.LINEAR_EPS:
        inputs = wl.setup(cells, {"eps": eps})
        (dec,) = wl.run(inputs)
        out[W.eps_key(eps)] = rel_error(inputs["exact"], dec.p, 2)
    return out


def _gummel(cells):
    wl = W.WORKLOADS["gummel-m200"]
    inputs = wl.setup(cells, {"eps": [*W.GUMMEL_EPS, 0.0]})
    return {W.eps_key(r["eps"]): rel_error(r["exact"], p, 2)
            for r, (p, _state) in zip(inputs["runs"], wl.run(inputs))}


def _angle(cells):
    wl = W.WORKLOADS["angle-sweep-m100"]
    inputs = wl.setup(cells, {"degrees": list(range(91))})
    return {str(r["degrees"]): rel_error(r["exact"], dec.p, 2)
            for r, dec in zip(inputs["runs"], wl.run(inputs))}


def _conditioning(cells):
    wl = W.WORKLOADS["conditioning-m100"]
    inputs = wl.setup(cells, {"cond_seed": 0})
    return {W.eps_key(r["eps"]): {"cond": cond, "error": rel_error(r["exact"], p, 2)}
            for r, (cond, p) in zip(inputs["runs"], wl.run(inputs))}


RECORDERS = {"linear-m400": _linear, "gummel-m200": _gummel,
             "angle-sweep-m100": _angle, "conditioning-m100": _conditioning}


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    ref = {"recorded_on": commit or None}
    for name, wl in W.WORKLOADS.items():
        ref[name] = {str(c): RECORDERS[name](c) for c in (W.TEST_CELLS, wl.cells)}
        print(name, "recorded", flush=True)
    W.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
