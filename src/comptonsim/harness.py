"""Experiment configuration, presets, reproducible runs, and output files.

A JSON config fully determines a run: physical and truncation parameters,
grid, initial data, solver controls, and diagnostics.  Loading validates
every field against the admissible parameter windows and reports
violations by field path.  Runs write delimited time series plus JSON
snapshots and a manifest recording the config hash, derived constants,
output files, and per-assertion results, so every inequality checked can
be audited from artifacts alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .kernel import (
    PhysicalParams,
    diagonal_closed_form,
    eval_kernel,
    eval_kernel_batch,
    eval_majorant,
    peak_bound,
    verify_antidiagonal_monotonicity,
)
from .full_solver import (
    RegularizedKernel,
    SolverConfig,
    TrajectoryRecord,
    entropy_balance_check,
    exp_moment_rate,
    run_full,
)
from .measure import Grid, HybridMeasure, planck_density, save_measure
from .reduced_solver import (
    AtomSystemState,
    NotConverged,
    classify_limit,
    lyapunov_check,
    picard_solve,
    run_atoms,
)
from .truncation import TruncationParams, gamma1, gamma2, solve_rho

__all__ = [
    "ParseError",
    "ValidationError",
    "UnknownPreset",
    "ExperimentConfig",
    "RunManifest",
    "load_config",
    "run_preset",
    "preset_names",
    "verify_suite",
    "write_kernel_table",
    "write_region_dump",
    "run_full_experiment",
    "run_reduced_experiment",
]


class ParseError(ValueError):
    """Config file is not syntactically valid JSON or misses a field."""


class ValidationError(ValueError):
    """Config violates an admissibility condition; names the condition."""


class UnknownPreset(KeyError):
    pass


_DEFAULTS: dict = {
    "physical": {"beta": 1.0, "m": 1.0},
    "truncation": {"theta": 0.5, "delta_star": 1.0, "theta1": 0.8},
    "grid": {"min": 0.02, "max": 22.0, "n": 192},
    "initial": {"preset": "planck_mu", "mu": -1.0},
    "solver": {
        "t_end": 1.0,
        "dt_init": 1e-3,
        "dt_min": 1e-8,
        "mass_tolerance": 1e-10,
        "record_every": 1,
    },
    "reduced": {
        "t_end": 200.0,
        "n_record": 20001,
        "dt": 1e-3,
        "limit_tol": 1e-8,
        "stationarity_window": 1.0,
        "rate_table": None,
    },
    "diagnostics": {
        "eta": None,  # default picked inside the admissible window
        "regularization_index": 20,
    },
    "seed": 20240801,
}


@dataclass(frozen=True)
class ExperimentConfig:
    physical: PhysicalParams
    truncation: TruncationParams
    grid: Grid
    initial: HybridMeasure  # built once, and so validated, by load_config
    solver: SolverConfig
    reduced: dict  # each value converted and checked by load_config
    eta: float
    regularization_index: int
    raw: dict

    def initial_measure(self) -> HybridMeasure:
        return self.initial


def _merged(user: dict) -> dict:
    out = json.loads(json.dumps(_DEFAULTS))
    for section, value in user.items():
        if section not in out:
            raise ParseError(f"unknown config section '{section}'")
        if section == "initial":
            # free-form: schema depends on the chosen preset
            if not isinstance(value, dict) or "preset" not in value:
                raise ParseError("section 'initial' must be an object with a 'preset' field")
            out[section] = value
        elif isinstance(out[section], dict):
            if not isinstance(value, dict):
                raise ParseError(f"section '{section}' must be an object")
            for key, v in value.items():
                if key not in out[section]:
                    raise ParseError(f"unknown field '{section}.{key}'")
                out[section][key] = v
        else:
            out[section] = value
    return out


def build_initial(recipe: dict, grid: Grid) -> HybridMeasure:
    """Initial data presets shared by the solvers and the CLI."""
    kind = recipe.get("preset")
    if kind == "planck_mu":
        return HybridMeasure(atoms=[], grid=grid, density=planck_density(grid, recipe.get("mu", -1.0)))
    if kind == "scaled_planck":
        dens = recipe.get("factor", 2.0) * planck_density(grid, recipe.get("mu", -1.0))
        return HybridMeasure(atoms=[], grid=grid, density=dens)
    if kind == "bump":
        dens = planck_density(grid, recipe.get("mu", 0.0))
        amp = recipe.get("amplitude", 1.2)
        center = recipe.get("center", 3.0)
        width = recipe.get("width", 0.6)
        dens = dens + amp * np.exp(-((grid.nodes - center) / width) ** 2)
        return HybridMeasure(atoms=[], grid=grid, density=dens)
    if kind == "atoms":
        return HybridMeasure(atoms=[tuple(a) for a in recipe["atoms"]])
    if kind == "truncated_planck":
        dens = planck_density(grid, recipe.get("mu", 0.0))
        lo = recipe.get("support_min", grid.nodes[0])
        dens = np.where(grid.nodes >= lo, dens, 0.0)
        return HybridMeasure(atoms=[], grid=grid, density=dens)
    raise ValidationError(f"unknown initial-data preset '{kind}'")


@contextlib.contextmanager
def _section(name: str):
    """Report a wrongly typed or inadmissible value of config section or
    field ``name`` (a ``TypeError``, ``ValueError`` or ``OverflowError``) as
    a ValidationError that names it; a ValidationError passes unchanged."""
    try:
        yield
    except ValidationError:
        raise
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"{name}: {e}") from None


def load_config(path: str | None = None, data: dict | None = None, equation: str = "full") -> ExperimentConfig:
    """Parse and validate a config; raises with field-precise messages.

    ``equation`` ('full' or 'reduced') selects which admissible window the
    exponential-moment rate eta is validated against: the full equation
    needs eta in ((1 - theta)/2, 1/2), the reduced one only
    eta > (1 - theta)/2.
    """
    if equation not in ("full", "reduced"):
        raise ValueError(f"equation must be 'full' or 'reduced'; got {equation!r}")
    if (path is None) == (data is None):
        raise ParseError("provide exactly one of path or data")
    if path is not None:
        try:
            with open(path) as f:
                data = json.load(f)
        except FileNotFoundError:
            raise ParseError(f"config file not found: {path}")
        except json.JSONDecodeError as e:
            raise ParseError(f"config is not valid JSON: {e}")
    cfg = _merged(data)

    phys = cfg["physical"]
    with _section("physical"):
        pp = PhysicalParams(beta=float(phys["beta"]), m=float(phys["m"]))

    tr = cfg["truncation"]
    with _section("truncation"):
        theta, theta1 = float(tr["theta"]), float(tr["theta1"])
        if not (0.0 < theta < 1.0):
            raise ValidationError("truncation.theta: theta must lie in (0, 1)")
        if not (theta < theta1 < 1.0):
            raise ValidationError("truncation.theta1: theta1 must lie in (theta, 1)")
        tp = TruncationParams.solve(theta, float(tr["delta_star"]), theta1)

    g = cfg["grid"]
    with _section("grid"):
        grid = Grid.log_spaced(float(g["min"]), float(g["max"]), int(g["n"]))
    try:
        with _section("initial"):
            initial = build_initial(cfg["initial"], grid)
    except KeyError as e:
        raise ValidationError(f"initial: preset '{cfg['initial']['preset']}' needs the field {e}")

    diag = cfg["diagnostics"]
    with _section("diagnostics"):
        eta_lo = 0.5 * (1.0 - theta)
        eta = diag["eta"]
        if eta is None:
            eta = 0.5 * (eta_lo + 0.5)
        eta = float(eta)
        if equation == "full":
            if not (eta_lo < eta < 0.5):
                raise ValidationError(
                    f"diagnostics.eta: the full equation requires eta in ((1-theta)/2, 1/2) "
                    f"= ({eta_lo}, 0.5); got {eta}"
                )
        else:
            if not (eta > eta_lo):
                raise ValidationError(
                    f"diagnostics.eta: the reduced equation requires eta > (1-theta)/2 = {eta_lo}; got {eta}"
                )
        n_reg = int(diag["regularization_index"])
        if n_reg < 1:
            raise ValidationError("diagnostics.regularization_index: must be >= 1")

    sol = cfg["solver"]
    with _section("solver"):
        times = {key: float(sol[key]) for key in ("t_end", "dt_init", "dt_min", "mass_tolerance")}
        record_every = int(sol["record_every"])
    try:
        solver = SolverConfig(**times, record_every=record_every, eta=eta)
    except ValueError as e:
        raise ValidationError(f"solver.{e}")

    # the checks picard_solve, run_atoms and classify_limit would make, by
    # field; run_reduced_experiment checks rate_table against the atoms
    red = cfg["reduced"]
    reduced = {"rate_table": red["rate_table"]}
    for key in ("t_end", "dt", "limit_tol", "stationarity_window"):
        with _section(f"reduced.{key}"):
            reduced[key] = float(red[key])
        if not 0.0 < reduced[key] < math.inf:
            raise ValidationError(f"reduced.{key}: must be positive and finite; got {red[key]}")
    with _section("reduced.n_record"):
        reduced["n_record"] = int(red["n_record"])
    if reduced["n_record"] < 2:
        raise ValidationError(f"reduced.n_record: must be >= 2; got {red['n_record']}")

    return ExperimentConfig(
        physical=pp,
        truncation=tp,
        grid=grid,
        initial=initial,
        solver=solver,
        reduced=reduced,
        eta=eta,
        regularization_index=n_reg,
        raw=cfg,
    )


@dataclass
class RunManifest:
    """Audit record of one run; ``telemetry`` holds what the numerics did."""

    config_hash: str
    version: str
    created_utc: str
    derived_constants: dict = field(default_factory=dict)
    telemetry: dict = field(default_factory=dict)
    outputs: list[str] = field(default_factory=list)
    assertions: list[dict] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(a["passed"] for a in self.assertions)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append({"name": name, "passed": bool(passed), "detail": detail})

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as f:
            json.dump(asdict(self), f, indent=1)
        return path


def _manifest_for(cfg_raw: dict) -> RunManifest:
    canonical = json.dumps(cfg_raw, sort_keys=True).encode()
    return RunManifest(
        config_hash=hashlib.sha256(canonical).hexdigest(),
        version=__version__,
        created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def _write_csv(path: str, header: list[str], columns) -> None:
    """Equal-length numeric columns as CSV, each value as repr(float(v)).

    Writes the bytes of ``csv.writer`` (its default dialect ends rows with
    CRLF and quotes none of these fields).  Each column is formatted once
    per distinct bit pattern (:func:`_column_strings`), which pays off on
    the long runs of repeated values of a converged trajectory, and the
    strings are joined into rows afterwards.
    """
    table = np.column_stack(columns).astype(float, copy=False)
    strings = [_column_strings(np.ascontiguousarray(col)) for col in table.T]
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(",".join(row) + "\r\n" for row in zip(*strings))


def _column_strings(col: np.ndarray) -> np.ndarray:
    """repr(float(v)) of each value of a float column, as an object array,
    calling repr once per distinct bit pattern.

    Grouping by bits keeps 0.0 and -0.0 apart; it uses an argsort,
    not np.unique, whose masked-array check imports numpy.ma.
    """
    bits = col.view(np.uint64)
    order = np.argsort(bits)
    sorted_bits = bits[order]
    first = np.ones(col.size, dtype=bool)  # the first of each run of equal bits
    np.not_equal(sorted_bits[1:], sorted_bits[:-1], out=first[1:])
    distinct = np.array(list(map(repr, col[order[first]].tolist())), dtype=object)
    out = np.empty(col.size, dtype=object)
    out[order] = distinct[np.cumsum(first) - 1]
    return out


def write_kernel_table(
    pp: PhysicalParams,
    grid_min: float,
    grid_max: float,
    grid_points: int,
    tol: float,
    path: str,
) -> None:
    """Log-spaced kernel table as CSV with columns x, y, B, err."""
    xs = np.geomspace(grid_min, grid_max, grid_points)
    x, y = np.repeat(xs, xs.size), np.tile(xs, xs.size)
    B, err = eval_kernel_batch(pp, x, y, tol)
    _write_csv(path, ["x", "y", "B", "err"], (x, y, B, err))


def write_region_dump(
    tp: TruncationParams,
    grid_min: float,
    grid_max: float,
    grid_points: int,
    path: str,
) -> None:
    """Boundary curves of the coupling region and the inner plateau."""
    inner = TruncationParams(
        theta=tp.theta1,
        delta_star=tp.delta_star,
        theta1=0.5 * (tp.theta1 + 1.0),
        rho_star=tp.rho1,
        rho1=solve_rho(0.5 * (tp.theta1 + 1.0), tp.delta_star),
    )
    xs = np.geomspace(grid_min, grid_max, grid_points)
    x = xs.tolist()
    columns = (
        xs,
        [gamma1(tp, v) for v in x],
        [gamma2(tp, v) for v in x],
        [gamma1(inner, v) for v in x],
        [gamma2(inner, v) for v in x],
    )
    _write_csv(path, ["x", "gamma1", "gamma2", "d1_lower", "d1_upper"], columns)


def run_full_experiment(cfg: ExperimentConfig, out_dir: str) -> tuple[RunManifest, TrajectoryRecord]:
    """Full-equation run: trajectory.csv, manifest, and snapshots of the
    initial and the last recorded state, named by their times (and record
    indices when the two stamps coincide, on horizons below 5e-7).

    A run whose mass drift exceeds ``solver.mass_tolerance`` still writes
    every output; its manifest records ``mass_conservation`` as FAIL.
    """
    u0 = cfg.initial_measure()
    if u0.density is None:
        raise ValidationError("initial: the full equation needs a density initial state")
    os.makedirs(out_dir, exist_ok=True)
    manifest = _manifest_for(cfg.raw)
    kern = RegularizedKernel.build(cfg.physical, cfg.truncation, cfg.grid, cfg.regularization_index)
    c_eta = exp_moment_rate(cfg.truncation, kern.bound_constant, cfg.eta)
    manifest.derived_constants = {
        "rho_star": cfg.truncation.rho_star,
        "rho1": cfg.truncation.rho1,
        "C_star": kern.bound_constant,
        "C_eta": c_eta,
        "eta": cfg.eta,
    }
    traj = run_full(u0, kern, cfg.solver)

    columns = [traj.times, traj.M0, traj.X_eta, traj.H, traj.entropy_dissipation, traj.origin_mass_series]
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ["t", "M0", "X_eta", "H", "D_total", "alpha_est"], columns)
    manifest.outputs.append("trajectory.csv")

    last = len(traj.times) - 1
    stamps = [f"{traj.times[0]:.6f}", f"{traj.times[last]:.6f}"]
    for i, stamp, density in zip((0, last), stamps, (u0.density, traj.final)):
        name = f"snapshot_{stamp}.json" if stamps[0] != stamps[1] else f"snapshot_{stamp}_{i}.json"
        save_measure(HybridMeasure(atoms=u0.atoms, grid=cfg.grid, density=density), os.path.join(out_dir, name))
        manifest.outputs.append(name)

    manifest.check(
        "mass_conservation",
        traj.max_mass_drift() <= cfg.solver.mass_tolerance,
        f"max drift {traj.max_mass_drift():.3e}",
    )
    bounded = traj.exp_moment_bound > 0.0  # a massless run has bound 0: no ratio, not 0/0
    manifest.check(
        "exp_moment_growth_bound",
        bool(np.all(traj.X_eta <= (1.0 + 1e-6) * traj.exp_moment_bound)),
        f"max X_eta/bound {np.max(traj.X_eta[bounded] / traj.exp_moment_bound[bounded], initial=0.0):.6f}",
    )
    balance = entropy_balance_check(traj)
    manifest.check(
        "dissipation_nonnegative", balance.dissipation_nonnegative, f"min D {min(traj.entropy_dissipation):.3e}"
    )
    manifest.check(
        "entropy_monotone_nondecreasing", balance.entropy_monotone, f"Delta H {balance.entropy_change:.6e}"
    )
    manifest.check(
        "entropy_dissipation_balance",
        balance.residual <= balance.tolerance,
        f"residual {balance.residual:.3e} tol {balance.tolerance:.3e}",
    )
    manifest.write(out_dir)
    return manifest, traj


def run_reduced_experiment(cfg: ExperimentConfig, out_dir: str, mode: str, classify: bool = True) -> tuple[RunManifest, object]:
    """Reduced-equation run in 'atoms' or 'picard' mode.

    The atom state, and with it an explicit ``reduced.rate_table``, is
    checked before the output directory is made.
    """
    u0 = cfg.initial_measure()
    red = cfg.reduced
    if mode == "atoms":
        if u0.density is not None or not u0.atoms:
            raise ValidationError("initial: atoms mode needs a purely atomic initial state")
        locs = np.array([x for x, _ in u0.atoms])
        masses = np.array([m for _, m in u0.atoms])
        if red["rate_table"] is None:
            state = AtomSystemState.from_physical(cfg.physical, cfg.truncation, locs, masses)
        else:
            with _section("reduced.rate_table"):
                state = AtomSystemState.from_table(locs, masses, red["rate_table"])
    elif mode == "picard":
        if u0.density is None:
            raise ValidationError("initial: picard mode needs a density initial state")
    else:
        raise ValidationError("mode must be 'atoms' or 'picard'")
    os.makedirs(out_dir, exist_ok=True)
    manifest = _manifest_for(cfg.raw)
    manifest.derived_constants = {
        "rho_star": cfg.truncation.rho_star,
        "rho1": cfg.truncation.rho1,
        "eta": cfg.eta,
    }

    if mode == "atoms":
        traj = run_atoms(state, red["t_end"], n_record=red["n_record"])
        manifest.telemetry["dop853_nfev"] = traj.nfev
    else:
        traj = picard_solve(u0, cfg.physical, cfg.truncation, t_end=red["t_end"], eta=cfg.eta, dt=red["dt"])
        manifest.derived_constants["C_0"] = traj.growth_constant

    m0 = traj.mass_series()
    m1 = traj.moment_series(1.0)
    m2 = traj.moment_series(2.0)
    x_eta = traj.exp_moment_series(cfg.eta)
    d2 = traj.dissipation_series(2.0)
    columns = (traj.times, m0, m1, m2, x_eta, d2)
    _write_csv(os.path.join(out_dir, "trajectory.csv"), ["t", "M0", "M1", "M2", "X_eta", "D_2"], columns)
    manifest.outputs.append("trajectory.csv")

    mass_scale = abs(m0[0]) if m0[0] != 0.0 else 1.0
    drift = float(np.max(np.abs(m0 - m0[0])) / mass_scale)
    tol = 1e-12 if mode == "atoms" else 1e-10
    manifest.check("mass_conservation", drift <= tol, f"max rel drift {drift:.3e}")
    rep = lyapunov_check(traj, eta=cfg.eta)
    manifest.check(
        "moments_nonincreasing", all(rep.monotone.values()) and rep.exp_moment_monotone,
        f"monotone {rep.monotone}",
    )
    manifest.check(
        "moment_dissipation_balance", rep.balance_ok,
        f"max rel balance error {max(rep.max_balance_error.values(), default=0.0):.3e}",
    )

    limit_payload: dict = {"mode": mode}
    if not classify:
        limit_payload.update(skipped="classification disabled for this run", error="classification disabled")
    else:
        try:
            cls = classify_limit(
                traj, cfg.truncation, limit_tol=red["limit_tol"], stationarity_window=red["stationarity_window"]
            )
        except NotConverged as e:
            limit_payload["error"] = str(e)
            manifest.check("limit_structure", False, str(e))
        else:
            limit_payload.update(asdict(cls))  # tuples dump as lists
            manifest.check("limit_structure", cls.passed, f"atoms {cls.atoms}")
    with open(os.path.join(out_dir, "limit.json"), "w") as f:
        json.dump(limit_payload, f, indent=1)
    manifest.outputs.append("limit.json")
    if u0.density is not None:
        name = f"snapshot_{traj.times[-1]:.6f}.json"
        save_measure(HybridMeasure(atoms=[], grid=cfg.grid, density=traj.states[-1]), os.path.join(out_dir, name))
        manifest.outputs.append(name)
    manifest.write(out_dir)
    return manifest, traj


# ---------------------------------------------------------------------------
# presets


def _preset_equilibrium(out_dir: str, seed: int) -> RunManifest:
    cfg = load_config(data={
        "grid": {"min": 0.02, "max": 22.0, "n": 128},
        "initial": {"preset": "planck_mu", "mu": -1.0},
        "solver": {"t_end": 1.0, "dt_init": 1e-3, "record_every": 20},
    })
    manifest, traj = run_full_experiment(cfg, out_dir)
    u0 = cfg.initial_measure()
    drift_l1 = float(np.dot(cfg.grid.weights, np.abs(traj.final - u0.density)))
    manifest.check("equilibrium_stationarity", drift_l1 <= 1e-5, f"L1 drift {drift_l1:.3e}")
    manifest.write(out_dir)
    return manifest


def _preset_over_planck(out_dir: str, seed: int) -> RunManifest:
    cfg = load_config(data={
        "grid": {"min": 0.02, "max": 22.0, "n": 128},
        "initial": {"preset": "scaled_planck", "factor": 2.0, "mu": -1.0},
        "solver": {"t_end": 1.0, "dt_init": 1e-3, "record_every": 20},
    })
    manifest, traj = run_full_experiment(cfg, out_dir)
    h = traj.H
    manifest.check(
        "entropy_rises_toward_saturation",
        bool(h[-1] > h[0] and np.all(np.diff(h) >= -1e-12 * abs(h[0]))),
        f"H {h[0]:.6f} -> {h[-1]:.6f}",
    )
    manifest.write(out_dir)
    return manifest


EXAMPLE51 = {
    "locations": [1.0, 1.5, 2.4],
    "masses": [0.6, 0.2, 0.2],
    "table": [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
}


def _preset_example51(out_dir: str, seed: int) -> RunManifest:
    cfg = load_config(data={
        "initial": {"preset": "atoms", "atoms": [[x, m] for x, m in zip(EXAMPLE51["locations"], EXAMPLE51["masses"])]},
        "reduced": {"t_end": 200.0, "n_record": 20001, "rate_table": EXAMPLE51["table"]},
    }, equation="reduced")
    manifest, traj = run_reduced_experiment(cfg, out_dir, mode="atoms")
    final = traj.final_masses()
    z_floor = 0.2 * math.exp(-1.0) - 1e-9
    manifest.check("middle_atom_extinct", final[1] <= 1e-16, f"y(200) = {final[1]:.3e}")
    manifest.check("right_atom_floor", final[2] >= z_floor, f"z(200) = {final[2]:.9f} >= {z_floor:.9f}")
    survivors = [x for x, m in zip(EXAMPLE51["locations"], final) if m > 1e-12]
    manifest.check("survivors_are_endpoints", survivors == [1.0, 2.4], f"{survivors}")
    manifest.write(out_dir)
    return manifest


def _preset_flat_picard(out_dir: str, seed: int) -> RunManifest:
    cfg = load_config(data={
        "grid": {"min": 0.5, "max": 30.0, "n": 128},
        "initial": {"preset": "truncated_planck", "mu": 0.0, "support_min": 0.5},
        "reduced": {"t_end": 1.0, "dt": 1e-3, "limit_tol": 1e-8, "stationarity_window": 0.5},
        "diagnostics": {"eta": 0.3},
    }, equation="reduced")
    manifest, traj = run_reduced_experiment(cfg, out_dir, mode="picard", classify=False)
    u0 = cfg.initial_measure()
    env = traj.pointwise_envelope(len(traj.times) - 1, u0.density)
    ok = bool(np.all(traj.states[-1] <= env * (1.0 + 1e-9)))
    manifest.check("pointwise_flatness_envelope", ok, "u(T) <= u0 exp(T C0 / x^{3/2})")
    manifest.write(out_dir)
    return manifest


def _preset_kernel_verify(out_dir: str, seed: int) -> RunManifest:
    os.makedirs(out_dir, exist_ok=True)
    cfg = load_config(data={})
    manifest = _manifest_for({"preset": "kernel-verify", "seed": seed})
    pp = cfg.physical
    rng = np.random.default_rng(seed)

    worst = 0.0
    for x in (0.1, 1.0, 10.0):
        q = eval_kernel(pp, x, x, tol=1e-10, force_quadrature=True).value
        c = diagonal_closed_form(pp, x)
        worst = max(worst, abs(q - c) / c)
    manifest.check("diagonal_oracle", worst <= 1e-8, f"max rel err {worst:.3e}")

    samples = [tuple(rng.uniform(0.05, 10.0, 2)) for _ in range(100)]
    samples = [(x, y) if x != y else (x, y + 0.1) for x, y in samples]
    B, err = eval_kernel_batch(pp, *np.array(samples).T)
    bad_major = 0
    for (x, y), b, e in zip(samples, B.tolist(), err.tolist()):
        if b > eval_majorant(pp, x, y) + e or eval_majorant(pp, x, y) > peak_bound(pp, x, y) * (1 + 1e-12):
            bad_major += 1
    manifest.check("majorant_domination", bad_major == 0, f"{bad_major} violations of 100")
    sign = verify_antidiagonal_monotonicity(pp, samples)
    manifest.check("antidiagonal_sign", sign.passed, f"{len(sign.violations)} violations of {sign.checked}")

    x_hi = 100.0
    tail = diagonal_closed_form(pp, x_hi) * x_hi**2 * math.exp(-x_hi) / math.sqrt(pp.beta)
    target = 2.0 * math.sqrt(2.0 * math.pi * pp.m * pp.beta)
    manifest.check("large_energy_asymptote", abs(tail / target - 1.0) <= 0.01, f"ratio {tail / target:.6f}")
    rem = [
        diagonal_closed_form(pp, x) / math.sqrt(pp.beta) - (44.0 / 15.0) * (1.0 / x + 1.0)
        for x in (1e-2, 1e-3)
    ]
    order = math.log10(abs(rem[0] / rem[1]))
    manifest.check("small_energy_remainder_order", 0.9 <= order <= 1.1, f"measured order {order:.4f}")

    for theta, ds in ((0.3, 1.0), (0.5, 1.0), (0.5, 0.1), (0.8, 5.0)):
        tp = TruncationParams.solve(theta, ds, 0.5 * (1.0 + theta))
        r1 = abs(gamma1(tp, ds * (1 - 1e-14)) - theta * ds)
        r2 = abs(gamma2(tp, theta * ds * (1 - 1e-14)) - ds)
        manifest.check(
            f"boundary_continuity_theta={theta}_delta={ds}",
            r1 <= 1e-12 * ds and r2 <= 1e-10,
            f"residuals {r1:.2e}, {r2:.2e}",
        )
    manifest.write(out_dir)
    return manifest


_PRESETS = {
    "equilibrium": _preset_equilibrium,
    "over-planck": _preset_over_planck,
    "example51": _preset_example51,
    "flat-picard": _preset_flat_picard,
    "kernel-verify": _preset_kernel_verify,
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def run_preset(name: str, out_dir: str, seed: int | None = None) -> RunManifest:
    """Run a named scenario; outputs land in out_dir, manifest summarizes."""
    if name not in _PRESETS:
        raise UnknownPreset(f"unknown preset '{name}'; known: {', '.join(preset_names())}")
    return _PRESETS[name](out_dir, _DEFAULTS["seed"] if seed is None else seed)


def verify_suite(seed: int = 7, out_dir: str | None = None) -> list[dict]:
    """Condensed invariant battery across all modules; returns check dicts."""
    import tempfile

    results: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        base = out_dir or tmp
        for name in preset_names():
            manifest = run_preset(name, os.path.join(base, name.replace("-", "_")), seed)
            for a in manifest.assertions:
                results.append({"name": f"{name}:{a['name']}", "passed": a["passed"], "detail": a["detail"]})
    return results
