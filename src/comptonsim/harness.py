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
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import __version__
from .kernel import (
    PhysicalParams,
    _bisect_batch,
    diagonal_closed_form,
    eval_kernel_batch,
    eval_majorant,
    peak_bound,
    verify_antidiagonal_monotonicity,
)
from .full_solver import (
    RegularizedKernel,
    SolverConfig,
    TrajectoryRecord,
    _growth_bound,
    entropy_balance_check,
    exp_moment_rate,
    run_full,
)
from .measure import Grid, atom_arrays, check_exp_rate, grid_density, planck_density, relative_drift, save_snapshot
from .reduced_solver import AtomSystemState, NotConverged, classify_limit, lyapunov_check, run_atoms, run_density
from .truncation import TruncationParams, gamma1, gamma2

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


class InitialState(NamedTuple):
    """The initial data of a config as plain arrays: ``atoms``, sorted
    locations and their masses, or ``density``, its values on the config's
    grid; the other is None."""

    atoms: tuple[np.ndarray, np.ndarray] | None
    density: np.ndarray | None


@dataclass(frozen=True)
class ExperimentConfig:
    physical: PhysicalParams
    truncation: TruncationParams
    grid: Grid
    initial: InitialState  # built once, and so validated, by load_config
    solver: SolverConfig
    reduced: dict  # each value converted and checked by load_config
    eta: float
    regularization_index: int
    raw: dict

    def initial_measure(self) -> InitialState:
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


def build_initial(recipe: dict, grid: Grid) -> InitialState:
    """Initial data presets shared by the solvers and the CLI."""
    kind = recipe.get("preset")
    if kind == "atoms":
        return InitialState(atoms=atom_arrays([tuple(a) for a in recipe["atoms"]]), density=None)
    if kind == "planck_mu":
        dens = planck_density(grid, recipe.get("mu", -1.0))
    elif kind == "scaled_planck":
        dens = recipe.get("factor", 2.0) * planck_density(grid, recipe.get("mu", -1.0))
    elif kind == "bump":
        dens = planck_density(grid, recipe.get("mu", 0.0))
        amp = recipe.get("amplitude", 1.2)
        center = recipe.get("center", 3.0)
        width = recipe.get("width", 0.6)
        dens = dens + amp * np.exp(-((grid.nodes - center) / width) ** 2)
    elif kind == "truncated_planck":
        dens = planck_density(grid, recipe.get("mu", 0.0))
        lo = recipe.get("support_min", grid.nodes[0])
        dens = np.where(grid.nodes >= lo, dens, 0.0)
    else:
        raise ValidationError(f"unknown initial-data preset '{kind}'")
    return InitialState(atoms=None, density=grid_density(grid, dens))


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


def _integer(name: str, value) -> int:
    """Integer config field ``name``: int() would read 48.9 as 48 and true as
    1, so a boolean or a finite number with a fractional part is refused by
    the field's name; an integral float such as 192.0 is its int."""
    if isinstance(value, bool) or (isinstance(value, float) and math.isfinite(value) and not value.is_integer()):
        raise ValidationError(f"{name}: must be an integer; got {json.dumps(value)}")
    return int(value)


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
        grid = Grid.log_spaced(float(g["min"]), float(g["max"]), _integer("grid.n", g["n"]))
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
        n_reg = _integer("diagnostics.regularization_index", diag["regularization_index"])
        if n_reg < 1:
            raise ValidationError("diagnostics.regularization_index: must be >= 1")
    # the exponential moments of both equations weight the top grid node of
    # a density and the largest location of atoms
    with _section("grid.max" if initial.density is not None else "initial"):
        check_exp_rate(grid.nodes if initial.density is not None else initial.atoms[0], eta)

    sol = cfg["solver"]
    with _section("solver"):
        times = {key: float(sol[key]) for key in ("t_end", "dt_init", "mass_tolerance")}
        record_every = _integer("solver.record_every", sol["record_every"])
    try:
        solver = SolverConfig(**times, record_every=record_every, eta=eta)
    except ValueError as e:
        raise ValidationError(f"solver.{e}")

    # the checks run_density, run_atoms and classify_limit would make, by
    # field; run_reduced_experiment checks rate_table against the atoms
    red = cfg["reduced"]
    reduced = {"rate_table": red["rate_table"]}
    for key in ("t_end", "dt", "limit_tol", "stationarity_window"):
        with _section(f"reduced.{key}"):
            reduced[key] = float(red[key])
        if not 0.0 < reduced[key] < math.inf:
            raise ValidationError(f"reduced.{key}: must be positive and finite; got {red[key]}")
    with _section("reduced.n_record"):
        reduced["n_record"] = _integer("reduced.n_record", red["n_record"])
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

    def write(self, out_dir: str) -> None:
        with open(os.path.join(out_dir, "manifest.json"), "w") as f:
            json.dump(asdict(self), f, indent=1)


def _integrator_telemetry(traj) -> dict:
    """The DOP853 counts of a run: evaluations, accepted and rejected steps."""
    return {"dop853_nfev": traj.nfev, "dop853_steps": traj.steps, "dop853_rejected": traj.rejected}


_CSV_ROWS = 512  # rows formatted and written at a time


def _write_csv(path: str, header: list[str], columns) -> None:
    """Equal-length numeric columns as CSV, each value as repr(float(v)).

    Writes the bytes of ``csv.writer`` (its default dialect ends rows with
    CRLF and quotes none of these fields), ``_CSV_ROWS`` rows at a time, so
    the strings in memory are one block's.  Within a block each column is
    formatted once per distinct bit pattern (:func:`_column_strings`),
    which pays off on the long runs of repeated values of a converged
    trajectory, and the strings are joined into rows afterwards.
    """
    cols = [np.asarray(col, dtype=float) for col in columns]
    n = len(cols[0]) if cols else 0
    if any(len(col) != n for col in cols):
        raise ValueError("columns must have equal lengths")
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\r\n")
        for lo in range(0, n, _CSV_ROWS):
            strings = [_column_strings(col[lo:lo + _CSV_ROWS]) for col in cols]
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


def _table_points(grid_min: float, grid_max: float, grid_points: int) -> np.ndarray:
    """The log-spaced points of a table command; a bad argument raises ValueError."""
    if not (0.0 < grid_min < math.inf and 0.0 < grid_max < math.inf):
        raise ValueError(f"grid_min and grid_max must be positive and finite; got {grid_min}, {grid_max}")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1; got {grid_points}")
    return np.geomspace(grid_min, grid_max, grid_points)


def write_kernel_table(
    pp: PhysicalParams,
    grid_min: float,
    grid_max: float,
    grid_points: int,
    tol: float,
    path: str,
) -> None:
    """Log-spaced kernel table as CSV with columns x, y, B, err."""
    xs = _table_points(grid_min, grid_max, grid_points)
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
    inner = TruncationParams.solve(tp.theta1, tp.delta_star, 0.5 * (tp.theta1 + 1.0))
    xs = _table_points(grid_min, grid_max, grid_points)
    x = xs.tolist()
    columns = (
        xs,
        [gamma1(tp, v) for v in x],
        [gamma2(tp, v) for v in x],
        [gamma1(inner, v) for v in x],
        [gamma2(inner, v) for v in x],
    )
    _write_csv(path, ["x", "gamma1", "gamma2", "d1_lower", "d1_upper"], columns)


class _Run(NamedTuple):
    """What a run hands the experiment pipeline: ``traj`` for the caller, the
    manifest's ``constants`` and ``telemetry``, trajectory.csv's ``columns``
    by name (``t`` first), the ``snapshots`` it kept (record index to
    density on the grid), and a reduced run's limit.json payload ``limit``
    and ``limit_structure`` assertion ``verdict``."""

    traj: object
    constants: dict
    telemetry: dict
    columns: dict
    snapshots: dict
    limit: dict | None = None
    verdict: tuple[str, bool, str] | None = None


def _experiment(cfg: ExperimentConfig, run, checks, out_dir: str) -> tuple[RunManifest, object]:
    """The one experiment pipeline: ``run(cfg)`` refuses a config it cannot
    run (``ValidationError``) before it computes, and returns a
    :class:`_Run`; each of ``checks`` (the equation's, then a preset's) maps
    the config and the run to assertions ``(name, passed, detail)``.  Only
    then is the output directory made, so a config error or a
    ``StepCollapse`` leaves none.  A snapshot is named by its record time,
    and index when two times print alike (horizons below 5e-7).  A failed
    check is a FAIL in manifest.json, written last and once."""
    canonical = json.dumps(cfg.raw, sort_keys=True).encode()
    manifest = RunManifest(config_hash=hashlib.sha256(canonical).hexdigest(), version=__version__,
                           created_utc=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    out = run(cfg)
    manifest.derived_constants.update(out.constants)
    manifest.telemetry.update(out.telemetry)
    for check in checks:
        for assertion in check(cfg, out):
            manifest.check(*assertion)

    os.makedirs(out_dir, exist_ok=True)
    if out.columns:
        _write_csv(os.path.join(out_dir, "trajectory.csv"), list(out.columns), out.columns.values())
        manifest.outputs.append("trajectory.csv")
    if out.limit is not None:
        with open(os.path.join(out_dir, "limit.json"), "w") as f:
            json.dump(out.limit, f, indent=1)
        manifest.outputs.append("limit.json")
    stamps = [f"{out.columns['t'][i]:.6f}" for i in out.snapshots]
    for (i, density), stamp in zip(out.snapshots.items(), stamps):
        name = f"snapshot_{stamp}.json" if len(set(stamps)) == len(stamps) else f"snapshot_{stamp}_{i}.json"
        save_snapshot(cfg.grid, density, os.path.join(out_dir, name))
        manifest.outputs.append(name)
    manifest.write(out_dir)
    return manifest, out.traj


def run_full_experiment(cfg: ExperimentConfig, out_dir: str) -> tuple[RunManifest, TrajectoryRecord]:
    """Full-equation run: trajectory.csv, manifest, and snapshots of the
    initial and the last recorded state.

    A run whose mass drift exceeds ``solver.mass_tolerance`` still writes
    every output; its manifest records ``mass_conservation`` as FAIL.  The
    growth-rate constant C_eta is computed once, by the run: the manifest
    records it, and the ``exp_moment_growth_bound`` check holds X_eta at
    every record under e^{C_eta t} X_eta(0), with X_eta(0) the first
    recorded value.  The telemetry records the run's evaluation count, its
    accepted and rejected steps, and its one-sided pair count, the pairs the
    recorded dissipation leaves out.
    """
    return _experiment(cfg, _full, [_full_checks], out_dir)


def _full(cfg: ExperimentConfig) -> _Run:
    u0 = cfg.initial_measure()
    if u0.density is None:
        raise ValidationError("initial: the full equation needs a density initial state")
    tp = cfg.truncation
    kern = RegularizedKernel.build(cfg.physical, tp, cfg.grid, cfg.regularization_index)
    c_eta = exp_moment_rate(tp, kern.bound_constant, cfg.eta)
    traj = run_full(u0.density, kern, cfg.solver)
    return _Run(
        traj,
        {"rho_star": tp.rho_star, "rho1": tp.rho1, "C_star": kern.bound_constant, "C_eta": c_eta, "eta": cfg.eta},
        {**_integrator_telemetry(traj), "one_sided_pairs": traj.one_sided_pairs},
        {"t": traj.times, "M0": traj.M0, "X_eta": traj.X_eta, "H": traj.H, "D_total": traj.entropy_dissipation,
         "alpha_est": traj.origin_mass_series},
        {0: u0.density, len(traj.times) - 1: traj.final},
    )


def _full_checks(cfg: ExperimentConfig, run: _Run) -> list[tuple[str, bool, str]]:
    traj = run.traj
    drift = relative_drift(traj.M0)
    x0 = float(traj.X_eta[0])
    bound = np.array([_growth_bound(run.constants["C_eta"], t, x0) for t in traj.times.tolist()])
    bounded = bound > 0.0  # a massless run has bound 0: no ratio, not 0/0
    balance = entropy_balance_check(traj)
    return [
        ("mass_conservation", drift <= cfg.solver.mass_tolerance, f"max drift {drift:.3e}"),
        ("exp_moment_growth_bound", bool(np.all(traj.X_eta <= (1.0 + 1e-6) * bound)),
         f"max X_eta/bound {np.max(traj.X_eta[bounded] / bound[bounded], initial=0.0):.6f}"),
        ("dissipation_nonnegative", balance.dissipation_nonnegative, f"min D {min(traj.entropy_dissipation):.3e}"),
        ("entropy_monotone_nondecreasing", balance.entropy_monotone, f"Delta H {balance.entropy_change:.6e}"),
        ("entropy_dissipation_balance", balance.residual <= balance.tolerance,
         f"residual {balance.residual:.3e} tol {balance.tolerance:.3e}"),
    ]


def run_reduced_experiment(cfg: ExperimentConfig, out_dir: str, mode: str, classify: bool = True) -> tuple[RunManifest, object]:
    """Reduced-equation run in 'atoms' or 'picard' mode.

    The run checks its own input: a ``ValueError`` of the atom state
    (``reduced.rate_table`` for an explicit table) or of ``run_density``
    (the flatness certificate, the kernel's domain) is a config error of
    that section.  The run reduces its records as it goes; ``trajectory.csv``
    holds its columns t, M0, M1, M2, X_eta and D_2, and the Lyapunov check
    reads them with M3 and D_3.  With ``classify`` the run also reduces the
    classifier's windows (over ``reduced.stationarity_window``), and
    ``limit.json`` holds the verdict.  A density run's telemetry also holds
    the flatness integrals of its initial density.
    """
    return _experiment(cfg, lambda cfg: _reduced(cfg, mode, classify), [_reduced_checks], out_dir)


def _reduced(cfg: ExperimentConfig, mode: str, classify: bool) -> _Run:
    u0 = cfg.initial_measure()
    red, tp = cfg.reduced, cfg.truncation
    window = red["stationarity_window"] if classify else None
    constants, telemetry, snapshots = {"rho_star": tp.rho_star, "rho1": tp.rho1, "eta": cfg.eta}, {}, {}
    if mode == "atoms":
        if u0.atoms is None or u0.atoms[0].size == 0:
            raise ValidationError("initial: atoms mode needs a purely atomic initial state")
        locs, masses = u0.atoms
        if red["rate_table"] is None:
            with _section("initial"):
                state = AtomSystemState.from_physical(cfg.physical, tp, locs, masses)
        else:
            with _section("reduced.rate_table"):
                state = AtomSystemState.from_table(locs, masses, red["rate_table"])
        traj = run_atoms(state, red["t_end"], n_record=red["n_record"], eta=cfg.eta, stationarity_window=window)
    elif mode == "picard":
        if u0.density is None:
            raise ValidationError("initial: picard mode needs a density initial state")
        with _section("initial"):
            traj = run_density(cfg.grid, u0.density, cfg.physical, tp, t_end=red["t_end"],
                               eta=cfg.eta, dt=red["dt"], stationarity_window=window)
        constants["C_0"] = traj.growth_constant
        telemetry.update(flatness_integral=traj.flatness[0], tail_integral=traj.flatness[1])
        snapshots[len(traj.times) - 1] = traj.states[-1]
    else:
        raise ValidationError("mode must be 'atoms' or 'picard'")
    telemetry.update(_integrator_telemetry(traj))

    limit, verdict = {"mode": mode}, None
    if not classify:
        limit.update(skipped="classification disabled for this run", error="classification disabled")
    else:
        try:
            cls = classify_limit(traj, tp, limit_tol=red["limit_tol"])
        except NotConverged as e:
            limit["error"] = str(e)
            verdict = ("limit_structure", False, str(e))
        else:
            limit.update(asdict(cls))  # tuples dump as lists
            verdict = ("limit_structure", cls.passed, f"atoms {cls.atoms}")
    columns = {"t": traj.times, "M0": traj.M0, "M1": traj.M1, "M2": traj.M2, "X_eta": traj.X_eta, "D_2": traj.D_2}
    return _Run(traj, constants, telemetry, columns, snapshots, limit, verdict)


def _reduced_checks(cfg: ExperimentConfig, run: _Run) -> list[tuple[str, bool, str]]:
    rep = lyapunov_check(run.traj)
    drift = relative_drift(run.traj.M0)
    tol = 1e-12 if run.limit["mode"] == "atoms" else 1e-10
    return [
        ("mass_conservation", drift <= tol, f"max rel drift {drift:.3e}"),
        ("moments_nonincreasing", all(rep.monotone.values()) and rep.exp_moment_monotone, f"monotone {rep.monotone}"),
        ("moment_dissipation_balance", rep.balance_ok,
         f"max rel balance error {max(rep.max_balance_error.values(), default=0.0):.3e}"),
    ] + ([run.verdict] if run.verdict else [])


# ---------------------------------------------------------------------------
# presets: each is a config, a run, and the run's checks with its own


# the equilibrium and over-planck runs differ only in their initial data and their own check
_FULL_PRESET = {"grid": {"min": 0.02, "max": 22.0, "n": 128},
                "solver": {"t_end": 1.0, "dt_init": 1e-3, "record_every": 20}}


def _preset_equilibrium(seed: int) -> tuple:
    def stationary(cfg, run):
        drift_l1 = float(np.dot(cfg.grid.weights, np.abs(run.traj.final - cfg.initial_measure().density)))
        return [("equilibrium_stationarity", drift_l1 <= 1e-5, f"L1 drift {drift_l1:.3e}")]

    cfg = load_config(data={**_FULL_PRESET, "initial": {"preset": "planck_mu", "mu": -1.0}})
    return cfg, _full, [_full_checks, stationary]


def _preset_over_planck(seed: int) -> tuple:
    def saturating(cfg, run):
        h = run.traj.H
        return [("entropy_rises_toward_saturation", bool(h[-1] > h[0] and np.all(np.diff(h) >= -1e-12 * abs(h[0]))),
                 f"H {h[0]:.6f} -> {h[-1]:.6f}")]

    cfg = load_config(data={**_FULL_PRESET, "initial": {"preset": "scaled_planck", "factor": 2.0, "mu": -1.0}})
    return cfg, _full, [_full_checks, saturating]


EXAMPLE51 = {
    "locations": [1.0, 1.5, 2.4],
    "masses": [0.6, 0.2, 0.2],
    "table": [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
}


def _preset_example51(seed: int) -> tuple:
    def chain(cfg, run):
        final = run.traj.final_masses()
        z_floor = 0.2 * math.exp(-1.0) - 1e-9
        survivors = [x for x, m in zip(EXAMPLE51["locations"], final) if m > 1e-12]
        return [("middle_atom_extinct", final[1] <= 1e-16, f"y(200) = {final[1]:.3e}"),
                ("right_atom_floor", final[2] >= z_floor, f"z(200) = {final[2]:.9f} >= {z_floor:.9f}"),
                ("survivors_are_endpoints", survivors == [1.0, 2.4], f"{survivors}")]

    cfg = load_config(data={
        "initial": {"preset": "atoms", "atoms": [[x, m] for x, m in zip(EXAMPLE51["locations"], EXAMPLE51["masses"])]},
        "reduced": {"t_end": 200.0, "n_record": 20001, "rate_table": EXAMPLE51["table"]},
    }, equation="reduced")
    return cfg, lambda cfg: _reduced(cfg, "atoms", True), [_reduced_checks, chain]


def _preset_flat_picard(seed: int) -> tuple:
    def enveloped(cfg, run):
        env = run.traj.pointwise_envelope(len(run.traj.times) - 1, cfg.initial_measure().density)
        ok = bool(np.all(run.traj.states[-1] <= env * (1.0 + 1e-9)))
        return [("pointwise_flatness_envelope", ok, "u(T) <= u0 exp(T C0 / x^{3/2})")]

    cfg = load_config(data={
        "grid": {"min": 0.5, "max": 30.0, "n": 128},
        "initial": {"preset": "truncated_planck", "mu": 0.0, "support_min": 0.5},
        "reduced": {"t_end": 1.0, "dt": 1e-3, "limit_tol": 1e-8, "stationarity_window": 0.5},
        "diagnostics": {"eta": 0.3},
    }, equation="reduced")
    return cfg, lambda cfg: _reduced(cfg, "picard", False), [_reduced_checks, enveloped]


def _preset_kernel_verify(seed: int) -> tuple:
    def checks(cfg, run):
        pp = cfg.physical
        rng = np.random.default_rng(seed)

        # the quadrature itself on the diagonal, which eval_kernel_batch hands
        # to the closed form
        xs = np.array([0.1, 1.0, 10.0])
        quadrature, _ = _bisect_batch(pp, xs, xs, 1e-10)
        worst = 0.0
        for x, q in zip(xs.tolist(), quadrature.tolist()):
            c = diagonal_closed_form(pp, x)
            worst = max(worst, abs(q - c) / c)
        yield "diagonal_oracle", worst <= 1e-8, f"max rel err {worst:.3e}"

        samples = [tuple(rng.uniform(0.05, 10.0, 2)) for _ in range(100)]
        samples = [(x, y) if x != y else (x, y + 0.1) for x, y in samples]
        B, err = eval_kernel_batch(pp, *np.array(samples).T)
        bad_major = 0
        for (x, y), b, e in zip(samples, B.tolist(), err.tolist()):
            if b > eval_majorant(pp, x, y) + e or eval_majorant(pp, x, y) > peak_bound(pp, x, y) * (1 + 1e-12):
                bad_major += 1
        yield "majorant_domination", bad_major == 0, f"{bad_major} violations of 100"
        sign = verify_antidiagonal_monotonicity(pp, samples)
        yield "antidiagonal_sign", sign.passed, f"{len(sign.violations)} violations of {sign.checked}"

        x_hi = 100.0
        tail = diagonal_closed_form(pp, x_hi) * x_hi**2 * math.exp(-x_hi) / math.sqrt(pp.beta)
        target = 2.0 * math.sqrt(2.0 * math.pi * pp.m * pp.beta)
        yield "large_energy_asymptote", abs(tail / target - 1.0) <= 0.01, f"ratio {tail / target:.6f}"
        rem = [
            diagonal_closed_form(pp, x) / math.sqrt(pp.beta) - (44.0 / 15.0) * (1.0 / x + 1.0)
            for x in (1e-2, 1e-3)
        ]
        order = math.log10(abs(rem[0] / rem[1]))
        yield "small_energy_remainder_order", 0.9 <= order <= 1.1, f"measured order {order:.4f}"

        for theta, ds in ((0.3, 1.0), (0.5, 1.0), (0.5, 0.1), (0.8, 5.0)):
            tp = TruncationParams.solve(theta, ds, 0.5 * (1.0 + theta))
            r1 = abs(gamma1(tp, ds * (1 - 1e-14)) - theta * ds)
            r2 = abs(gamma2(tp, theta * ds * (1 - 1e-14)) - ds)
            yield (f"boundary_continuity_theta={theta}_delta={ds}", r1 <= 1e-12 * ds and r2 <= 1e-10,
                   f"residuals {r1:.2e}, {r2:.2e}")

    # no run and no output but the manifest, which hashes only the preset and its seed
    cfg = replace(load_config(data={}), raw={"preset": "kernel-verify", "seed": seed})
    return cfg, lambda cfg: _Run(None, {}, {}, {}, {}), [checks]


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
        raise UnknownPreset(f"unknown preset '{name}'; available presets: {', '.join(preset_names())}")
    return _experiment(*_PRESETS[name](_DEFAULTS["seed"] if seed is None else seed), out_dir)[0]


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
