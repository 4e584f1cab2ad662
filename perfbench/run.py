"""The comptonsim benchmark: one workload, repeated for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--short]

Run from the root of a checkout.  Each repetition is a fresh process
(``worker.py``) so that set-up time is what a user of the command line
pays: interpreter start, imports, ``load_config`` and the initial data.
Repetitions run until ``--seconds`` is spent (at least ``MIN_REPS``); the
end-to-end metrics are their medians.  With ``--trace 1`` untraced and
traced repetitions alternate, and the per-layer metrics are the medians
over the traced ones (``spans.py``); the tracing overhead is the traced
minus the untraced median wall time.

Every check the workload makes (the run manifest's assertions, or the
workload's own checks) is counted once in ``attempted``, and once in
``failed`` if it failed on any repetition; a solver error is one failed
check.  Output digests must repeat between repetitions.  The run is ``correct`` when every failed check is a known
defect listed in ``workloads.KNOWN_FAILURES``.  A record with the
environment, digests and every repetition goes to
``.perfbench/records/``; the last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("full-default", "reduced-both")

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}


def _stats(prefix: str, stats: str) -> dict[str, str]:
    units = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_us": "us", "p99_us": "us"}
    return {f"{prefix}.{s}": units[s] for s in stats.split()}


ALL = "calls busy_s self_s p50_us p99_us"

# Per-layer metrics, grouped by the end-to-end metric and workloads each
# group should move.  Functions a workload never reaches read 0.
PER_LAYER = {
    # solve_s: both workloads (the Picard rate matrix on reduced-both)
    **_stats("kernel.eval_kernel", ALL),
    "kernel.eval_kernel.max_err_ratio": "ratio",
    **_stats("truncation.eval_cutoff", ALL),
    **_stats("truncation.kernel_bound_constant", "busy_s"),
    # solve_s: full-default
    **_stats("full_solver.RegularizedKernel.build", "busy_s self_s"),
    "full_solver.table.pairs": "count",
    "full_solver.table.fill": "ratio",
    # solve_s: full-default; none on reduced-both
    **_stats("full_solver.step", "calls busy_s p50_us p99_us"),
    "full_solver.step.rejections": "count",
    **_stats("full_solver.collision_rhs", ALL),
    "full_solver.collision_rhs.bytes_computed": "B",
    # solve_s: full-default
    **_stats("full_solver.entropy_dissipation", ALL),
    **_stats("full_solver.origin_mass_estimate", ALL),
    **_stats("measure.MomentReport.of", ALL),
    **_stats("full_solver.run_full", "self_s"),
    # solve_s: reduced-both (its atom half) only
    **_stats("reduced_solver.AtomSystemState.from_physical", "busy_s"),
    **_stats("reduced_solver.atom_ode_rhs", ALL),
    **_stats("reduced_solver.run_atoms", "self_s"),
    # solve_s: reduced-both (its Picard half) only
    **_stats("reduced_solver.picard_solve", "busy_s self_s"),
    "reduced_solver.picard.windows": "count",
    "reduced_solver.picard.iterations": "count",
    # solve_s: reduced-both (limit classification of the atoms)
    **_stats("reduced_solver.classify_limit", "busy_s"),
    **_stats("reduced_solver.lyapunov_check", "busy_s"),
    **_stats("measure.bl_distance", ALL),
    **_stats("measure.components", ALL),
    # setup_s: every workload
    **_stats("harness.load_config", "busy_s"),
    "setup.import_s": "s",
    # solve_s: both workloads
    **_stats("harness.run_full_experiment", "self_s"),
    **_stats("harness.run_reduced_experiment", "self_s"),
    "harness.bytes_written": "B",
    # the traced-run report: self time per module, the share of solve_s
    # under the entry function's callees, and traced minus untraced wall_s
    **{f"{m}.self_s": "s" for m in ("kernel", "truncation", "measure", "full_solver", "reduced_solver", "harness")},
    "trace.top_coverage": "ratio",
    "trace.overhead_s": "s",
}

MIN_REPS = 3  # untraced repetitions, however short --seconds is
REP_TIMEOUT = 150.0  # seconds; one repetition takes under 15
BUDGET = 160.0  # no repetition starts after this many seconds


def _spawn(workload: str, seed: int, k: int, traced: bool, short: bool) -> dict:
    out = os.path.join(SCRATCH, "out", f"{workload}-{seed}-{os.getpid()}-{k}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), "--out", out]
    cmd += ["--trace"] * traced + ["--short"] * short
    spawned = time.monotonic()
    cmd += ["--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {REP_TIMEOUT} s", "traced": traced, "elapsed": time.monotonic() - spawned}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    elapsed = time.monotonic() - spawned
    if proc.returncode != 0:
        return {"crashed": proc.stderr[-2000:], "traced": traced, "elapsed": elapsed}
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed"] = elapsed
    return rep


def repeat(workload: str, seed: int, seconds: float, trace: bool, short: bool) -> list[dict]:
    """Repetitions until ``seconds`` is spent; traced ones alternate in."""
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(_spawn(workload, seed, len(reps), traced, short))
        untraced = sum(not r["traced"] for r in reps)
        enough = untraced >= (1 if trace else MIN_REPS) and (not trace or len(reps) >= 2)
        now = time.monotonic() - start
        typical = statistics.median(r["elapsed"] for r in reps)
        if now + typical > BUDGET or (enough and now + typical > seconds):
            return reps


def _checks(reps: list[dict]) -> list[dict]:
    """Each check once, failed if it failed on any repetition.

    An operation is one check of the workload, not one check of one
    repetition, so ``attempted`` and ``failed`` do not depend on how many
    repetitions fit into ``--seconds``.  Two checks belong to the run: every
    repetition completed, and every one wrote the first one's output digests.
    """
    first = next((r["digests"] for r in reps if "crashed" not in r), None)
    merged: dict[str, dict] = {}
    for k, rep in enumerate(reps):
        done = "crashed" not in rep
        own = [{"name": "repetition_completed", "passed": done, "detail": rep.get("crashed", ""), "known": ""}]
        if done:
            same = rep["digests"] == first
            own += rep["checks"]
            own.append({"name": "digests_repeat", "passed": same, "detail": "differ from the first repetition's", "known": ""})
        for c in own:
            kept = merged.setdefault(c["name"], {**c, "passed": True, "detail": "", "failed_on": []})
            if not c["passed"]:
                kept["passed"] = False
                kept["failed_on"].append(k)
                kept["detail"] = kept["detail"] or c["detail"]
    return list(merged.values())


def _llc_bytes() -> int | None:
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = None
    try:
        for index in [d for d in os.listdir(base) if d.startswith("index")]:
            with open(os.path.join(base, index, "level")) as f:
                level = int(f.read())
            with open(os.path.join(base, index, "size")) as f:
                size = f.read().strip()
            value = int(size[:-1]) * {"K": 1024, "M": 1024**2}[size[-1]] if size[-1] in "KM" else int(size)
            if best is None or level > best[0]:
                best = (level, value)
    except (OSError, ValueError):
        return None
    return best[1] if best else None


def _git_sha() -> str:
    # the ceiling keeps git from searching directories above the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarize(workload: str, seed: int, trace: bool, reps: list[dict]) -> tuple[dict, dict]:
    """The result line and the record of one run."""
    checks = _checks(reps)
    failed = [c for c in checks if not c["passed"]]
    done = [r for r in reps if "crashed" not in r]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if trace:
        metrics = {}
        for name, unit in PER_LAYER.items():
            if name == "trace.overhead_s":
                value = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in plain)
            else:
                value = statistics.median(r["layers"].get(name, 0) for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit} for name, unit in END_TO_END.items()}
    result = {
        "correct": all(c["known"] for c in failed),
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }
    env = dict(done[0]["env"])
    env.update(
        nproc=os.cpu_count(),
        python=platform.python_version(),
        llc_bytes=_llc_bytes(),
        git_sha=_git_sha(),
        workload=workload,
        seed=seed,
    )
    record = {
        "env": env,
        "fail_ratio": len(failed) / len(checks),
        "failed_checks": failed,
        "digests": done[0]["digests"],
        "repetitions": [{k: v for k, v in r.items() if k not in ("checks", "digests", "env")} for r in reps],
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="smoke-test sizes")
    a = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "comptonsim", "__init__.py")):
        print(f"no comptonsim source under {ROOT}/src; run from a checkout of the repository", file=sys.stderr)
        return 2

    reps = repeat(a.workload, a.seed, a.seconds, bool(a.trace), a.short)
    kinds = {r["traced"] for r in reps if "crashed" not in r}
    if kinds != ({False, True} if a.trace else {False}):
        for r in reps:
            print(r.get("crashed", ""), file=sys.stderr)
        print("no repetition completed", file=sys.stderr)
        return 1
    result, record = summarize(a.workload, a.seed, bool(a.trace), reps)

    os.makedirs(os.path.join(SCRATCH, "records"), exist_ok=True)
    path = os.path.join(SCRATCH, "records", f"{a.workload}-seed{a.seed}-trace{a.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    for k, r in enumerate(reps):
        kind = "traced" if r["traced"] else "untraced"
        status = "crashed" if "crashed" in r else f"wall_s {r['wall_s']:.4f} setup_s {r['setup_s']:.4f} solve_s {r['solve_s']:.4f}"
        print(f"repetition {k} ({kind}): {status}")
    for c in record["failed_checks"]:
        known = f" (known defect: {c['known']})" if c["known"] else ""
        print(f"FAIL {c['name']} on repetitions {c['failed_on']}: {c['detail']}{known}")
    print(f"{'fail_ratio':44s} {record['fail_ratio']:.4f} ratio ({result['failed']}/{result['attempted']} checks)")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
