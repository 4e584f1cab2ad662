"""The benchmark's workloads: seeded inputs, the entry call and its checks.

Each workload draws its variable inputs from the seed, builds its configs
through ``harness.load_config`` (set-up), then makes one entry call
(solve) and checks the outputs.  ``short=True`` shrinks every workload to
a smoke-test size for the benchmark's own tests.

Why these two: ``full-default`` is the default ``simulate-full`` run,
which reaches the kernel table, RK4 stepping and the per-step dissipation
and origin diagnostics; ``reduced-both`` solves the reduced equation both
ways, on frozen atoms (atom ODE and limit classification, ~120 kernel
pairs) and by the Picard fixed point (the per-pair rate matrix), and never
steps the full equation.  Each bypasses what the other exercises most.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field

import numpy as np

from comptonsim import harness

# Checks that fail on the current code for a reason outside the run's
# outputs; they still count as failed, but do not make the run incorrect.
KNOWN_FAILURES = {
    ("reduced-both", "atoms:moment_dissipation_balance"): (
        "the check's finite difference over 20001 records to t = 5e4 is too coarse: "
        "about 3e-3 against 1e-4, but about 3e-9 for the same atoms recorded to t = 50"
    ),
}


@dataclass
class Outcome:
    """What one entry call produced: checks, digests and bytes written."""

    checks: list[dict] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    bytes_written: int = 0

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    def manifest(self, manifest, prefix: str = "") -> None:
        for a in manifest.assertions:
            self.check(prefix + a["name"], a["passed"], a["detail"])

    def digest(self, out_dir: str) -> None:
        """sha256 of every output file except the manifest (it holds a timestamp)."""
        for base, _, files in sorted(os.walk(out_dir)):
            for name in sorted(files):
                path = os.path.join(base, name)
                self.bytes_written += os.path.getsize(path)
                if name != "manifest.json":
                    with open(path, "rb") as f:
                        self.digests[os.path.relpath(path, out_dir)] = hashlib.sha256(f.read()).hexdigest()


def _atoms(rng: np.random.Generator) -> list[list[float]]:
    # two blocks on jittered lattices, decoupled from each other (cone ratio
    # 1.35/2.9 < theta = 0.5), so every seed converges to two limit atoms
    # within t = 5e4 and the ODE cost varies little between seeds
    locs = []
    for lo, hi, k in ((1.05, 1.35, 8), (2.9, 3.5, 8)):
        lattice = np.linspace(lo, hi, k)
        locs.append(lattice + rng.uniform(-0.05, 0.05, k) * (hi - lo) / (k - 1))
    locs = np.concatenate(locs)
    masses = rng.uniform(0.9, 1.1, locs.size) / locs.size
    return [[float(x), float(m)] for x, m in zip(locs, masses)]


def setup(name: str, seed: int, short: bool = False) -> dict:
    """Configs and initial data of a workload; this is the timed set-up."""
    rng = np.random.default_rng(seed)
    if name == "full-default":
        data = {"initial": {"preset": "planck_mu", "mu": float(rng.uniform(-1.5, -0.5))}, "seed": seed}
        if short:
            data["grid"] = {"min": 0.02, "max": 22.0, "n": 48}
            data["solver"] = {"t_end": 0.01}
        return {"cfg": harness.load_config(data=data, equation="full")}
    if name == "reduced-both":
        atoms = {
            "initial": {"preset": "atoms", "atoms": _atoms(rng)},
            "reduced": {"t_end": 500.0 if short else 5e4, "stationarity_window": 50.0},
            "seed": seed,
        }
        if short:
            atoms["reduced"]["n_record"] = 2001
        picard = {
            "grid": {"min": 0.5, "max": 30.0, "n": 32 if short else 128},
            "initial": {"preset": "truncated_planck", "mu": float(rng.uniform(-0.5, 0.0)), "support_min": 0.5},
            "reduced": {"t_end": 0.1 if short else 4.0, "dt": 1e-3, "limit_tol": 1e-8, "stationarity_window": 0.5},
            "diagnostics": {"eta": 0.3},
            "seed": seed,
        }
        picard_cfg = harness.load_config(data=picard, equation="reduced")
        return {
            "atoms": harness.load_config(data=atoms, equation="reduced"),
            "picard": picard_cfg,
            "u0": picard_cfg.initial_measure(),
        }
    raise KeyError(name)


def _reduced_both_ways(prepared: dict, out_dir: str) -> tuple:
    atoms = harness.run_reduced_experiment(prepared["atoms"], os.path.join(out_dir, "atoms"), mode="atoms")
    picard = harness.run_reduced_experiment(
        prepared["picard"], os.path.join(out_dir, "picard"), mode="picard", classify=False
    )
    return atoms, picard


def solve(name: str, prepared: dict, out_dir: str, call) -> object:
    """The entry call; ``call(fn, *args, **kwargs)`` runs it (traced or not)."""
    if name == "full-default":
        return call(harness.run_full_experiment, prepared["cfg"], out_dir)
    if name == "reduced-both":
        return call(_reduced_both_ways, prepared, out_dir)
    raise KeyError(name)


def check(name: str, prepared: dict, result, out_dir: str) -> Outcome:
    """Output checks and digests of one entry call's result."""
    outcome = Outcome()
    if name == "full-default":
        outcome.manifest(result[0])
    else:
        (atoms_manifest, _), (picard_manifest, traj) = result
        outcome.manifest(atoms_manifest, "atoms:")
        outcome.manifest(picard_manifest, "picard:")
        env = traj.pointwise_envelope(len(traj.times) - 1, prepared["u0"].density)
        outcome.check(
            "picard:pointwise_flatness_envelope",
            bool(np.all(traj.states[-1] <= env * (1.0 + 1e-9))),
            "u(T) <= u0 exp(T C0 / x^{3/2})",
        )
    outcome.digest(out_dir)
    return outcome
