"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T0 --out DIR [--trace] [--short]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; the clock is system-wide, so set-up time counts interpreter
start and imports.  BLAS is pinned to one thread through the same variables
as the ``comptonsim`` command line, before numpy is imported.  Prints one
JSON object as its last line.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pin_blas() -> dict[str, str]:
    """Pin numerical libraries to one thread; returns the variables set."""
    from comptonsim import cli

    for var in [k for k in os.environ if k.endswith("_NUM_THREADS")]:
        del os.environ[var]
    os.environ["THREADS"] = "1"
    cli._cap_threads()
    return {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}


def run(workload: str, seed: int, spawned: float, out_dir: str, traced: bool, short: bool) -> dict:
    started = time.monotonic()
    blas = pin_blas()
    import numpy
    import scipy

    import workloads
    from comptonsim.full_solver import StepCollapse
    from comptonsim.kernel import NonConvergence
    from comptonsim.reduced_solver import NonContraction, NotConverged
    from spans import ENTRY, Tracer

    imported = time.monotonic()

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    prepared = workloads.setup(workload, seed, short)
    os.makedirs(out_dir, exist_ok=True)
    call = functools.partial(tracer.call, ENTRY) if tracer else (lambda fn, *a, **k: fn(*a, **k))
    entry = time.monotonic()
    error = None
    try:
        result = workloads.solve(workload, prepared, out_dir, call)
    except (StepCollapse, NonContraction, NotConverged, NonConvergence) as e:
        # a solver error fails one check; the repetition still reports its times
        result = None
        error = f"{type(e).__name__}: {e}"
    returned = time.monotonic()
    if tracer is not None:
        tracer.restore()

    if result is None:
        outcome = workloads.Outcome()
        outcome.check("solver_error", False, error)
    else:
        outcome = workloads.check(workload, prepared, result, out_dir)
    for c in outcome.checks:
        c["known"] = workloads.KNOWN_FAILURES.get((workload, c["name"]), "")
    layers = {}
    if tracer is not None:
        layers = tracer.report()
        layers["setup.import_s"] = imported - started
        layers["harness.bytes_written"] = outcome.bytes_written
    return {
        "wall_s": returned - spawned,
        "setup_s": entry - spawned,
        "solve_s": returned - entry,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "traced": traced,
        "checks": outcome.checks,
        "digests": outcome.digests,
        "layers": layers,
        "env": {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": blas},
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--short", action="store_true")
    a = p.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(run(a.workload, a.seed, a.spawned, a.out, a.trace, a.short)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
