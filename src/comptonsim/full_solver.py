"""Time integration of the regularized full collision equation.

The state is a density on a grid.  It evolves under the quadratic-plus-linear
collision operator with the kernel tapered to a compact energy window
(index n); the taper vanishes at zero energy, so the run carries no atom.
Mass is conserved by pairwise antisymmetric flux assembly, so the drift
over a run is pure floating-point roundoff.  Diagnostics cover the
exponential moment and its growth-rate constant, the entropy/dissipation
balance, and the mass in the smallest window [0, 2 x_min) at the origin.
The collision rate and the dissipation run over one list of in-support
grid pairs, built once with the kernel table by one screened batch
(``kernel.screened_pairs``, shared with the reduced rates): a vectorized
cutoff picks the supported pairs, and one batch evaluation fills them in.
The semi-discrete system is integrated by ``_dop853.integrate``, the run
driver of both equations, which streams the recorded states in blocks and
raises ``StepCollapse`` (exported here).  A run writes the node columns
of a block (mass, exponential moment, entropy, origin-window mass) as one
row-wise dot each, and its dissipation in passes of a few states over the
pair list; it keeps only the last state and the count of pairs left out of
the dissipation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._dop853 import StepCollapse, integrate
from .kernel import PhysicalParams, screened_pairs
from .measure import Grid, check_exp_rate
from .truncation import TruncationParams

# states per dissipation pass (the node columns take a whole streamed block):
# its rows x pairs temporaries stay below 128 KiB up to 4k pairs.  At 6 or 8
# rows a fresh process's first solve of the default config (2293 pairs) could
# take 9k to 12k minor page faults instead of 14, and half again as long.
_BLOCK_ROWS = 4

__all__ = [
    "StepCollapse",
    "SolverConfig",
    "RegularizedKernel",
    "TrajectoryRecord",
    "BalanceReport",
    "taper",
    "collision_rhs",
    "entropy_balance_check",
    "exp_moment_rate",
    "run_full",
]


@dataclass(frozen=True)
class SolverConfig:
    """Controls of a full run: the horizon ``t_end``, the record spacing
    ``record_every`` * ``dt_init`` (the run records at these multiples of
    ``dt_init`` and at ``t_end``; DOP853 chooses its own steps), the rate
    ``eta`` of the recorded exponential moment, and ``mass_tolerance``, the
    bound the caller checks the finished run's mass drift against."""

    t_end: float
    dt_init: float = 1e-3
    mass_tolerance: float = 1e-10
    record_every: int = 1
    eta: float = 0.3

    def __post_init__(self) -> None:
        if not (0.0 < self.dt_init < math.inf):
            raise ValueError("dt_init: must be positive and finite")
        if not (0.0 < self.t_end < math.inf):
            raise ValueError("t_end: must be positive and finite")
        if self.record_every < 1:
            raise ValueError("record_every: must be >= 1")


def taper(n: int, x) -> np.ndarray | float:
    """Compactly supported regularizer bounded by 1/x.

    Equals 1/x on [1/n, n], is supported on [1/(n+1), n+1], and ramps
    linearly to zero on the two flanks (each flank stays below 1/x, with
    equality only at the plateau edge).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x_arr = np.asarray(x, dtype=float)
    lo_out, lo_in = 1.0 / (n + 1), 1.0 / n
    hi_in, hi_out = float(n), float(n + 1)
    with np.errstate(divide="ignore"):
        plateau = np.where(x_arr > 0.0, 1.0 / np.where(x_arr > 0.0, x_arr, 1.0), 0.0)
    left = n * (x_arr - lo_out) / (lo_in - lo_out)
    right = (hi_out - x_arr) / n
    out = np.where(
        (x_arr >= lo_in) & (x_arr <= hi_in),
        plateau,
        np.where(
            (x_arr > lo_out) & (x_arr < lo_in),
            left,
            np.where((x_arr > hi_in) & (x_arr < hi_out), right, 0.0),
        ),
    )
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RegularizedKernel:
    """Tapered kernel table on a grid, with its in-support pair list.

    ``table[i, j]`` holds cutoff * B * taper(x_i) * taper(x_j), symmetric
    and zero off the energy window [1/(n+1), n+1].  ``kernel.screened_pairs``
    evaluates it on the pairs i <= j where the tapers and the cutoff are
    nonzero, and ``bound_constant`` is calibrated on exactly those pairs.
    ``pair_i`` < ``pair_j`` list the nonzero entries of the strict upper
    triangle in row-major order, and ``pair_c`` their quadrature-weighted
    coupling table[i, j] w_i w_j: the collision rate and the diagnostics
    run over these pairs only (the diagonal exchanges nothing).
    """

    grid: Grid
    table: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_c: np.ndarray
    bound_constant: float

    @property
    def coupling(self) -> np.ndarray:
        # dense quadrature-weighted table, built and cached on first use
        cached = getattr(self, "_coupling", None)
        if cached is None:
            w = self.grid.weights
            cached = self.table * np.outer(w, w)
            object.__setattr__(self, "_coupling", cached)
        return cached

    @classmethod
    def build(cls, pp: PhysicalParams, tp: TruncationParams, grid: Grid, n: int) -> "RegularizedKernel":
        # the candidates are the pairs i <= j inside both tapers' supports
        xs = grid.nodes
        tx = np.asarray(taper(n, xs))
        i, j, phi_b, c_star = screened_pairs(pp, tp, xs, True, tx != 0.0)
        vals = phi_b * tx[i] * tx[j]
        table = np.zeros((xs.size, xs.size))
        table[i, j] = vals
        table[j, i] = vals
        off = (i != j) & (vals != 0.0)
        pair_i, pair_j = i[off], j[off]
        pair_c = vals[off] * (grid.weights[pair_i] * grid.weights[pair_j])
        return cls(grid=grid, table=table, pair_i=pair_i, pair_j=pair_j, pair_c=pair_c, bound_constant=c_star)


def _gain_factors(xs: np.ndarray, u: np.ndarray) -> np.ndarray:
    return (xs * xs + u) * np.exp(-xs)


def collision_rhs(u: np.ndarray, kern: RegularizedKernel) -> np.ndarray:
    """Density rate of change from pairwise exchange.

    Each in-support pair i < j of the kernel's pair list exchanges
    f = c_ij (A_i u_j - A_j u_i); node i gains f and node j loses the same
    float, so the quadrature-weighted rate sums to zero up to accumulation
    roundoff.
    """
    u = np.asarray(u, dtype=float)
    A = _gain_factors(kern.grid.nodes, u)
    i, j = kern.pair_i, kern.pair_j
    f = kern.pair_c * (A.take(i) * u.take(j) - A.take(j) * u.take(i))
    return (np.bincount(i, f, u.size) - np.bincount(j, f, u.size)) / kern.grid.weights


def _j(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    # (a - b)(log a - log b) straight on the arguments, and the count of the
    # entries where exactly one argument is positive.  Only a zero, negative
    # or non-finite argument (or an overflowing product) makes an entry
    # non-finite, so the masks are built only then: an entry where not both
    # arguments are positive becomes 0 (a single vanishing argument gives
    # +inf, which is flagged and excluded); one where both are keeps its float.
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.log(a)
        vals -= np.log(b)
        vals *= a - b
    if np.isfinite(vals).all():
        return vals, 0
    both = (a > 0.0) & (b > 0.0)
    vals[~both] = 0.0
    return vals, int(np.count_nonzero((a > 0.0) ^ (b > 0.0)))


def _pair_dissipation(kern: RegularizedKernel, rows: np.ndarray) -> tuple[np.ndarray, int]:
    # 2 sum c_ij J(A_i g_j, A_j g_i) >= 0 per density row g over the pair list,
    # and the count of pairs whose J is infinite (exactly one argument
    # vanishes), flagged and left out of the sum rather than poisoning it;
    # take(..., axis=-1) keeps gathered rows C-contiguous (rows[:, i] would not)
    A = _gain_factors(kern.grid.nodes, rows)
    i, j = kern.pair_i, kern.pair_j
    a, b = A.take(i, axis=-1), A.take(j, axis=-1)
    a *= rows.take(j, axis=-1)
    b *= rows.take(i, axis=-1)
    vals, flags = _j(a, b)
    return 2.0 * np.vecdot(vals, kern.pair_c), flags


def _entropy_integrand(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    # h(x, s) = (x^2+s) log(x^2+s) - s log s - x^2 log x^2 - s x,
    # with the s log s -> 0 limit at s = 0; the entropy of a density g is
    # the sum of w_i h(x_i, g_i), maximal at a given mass exactly on the
    # equilibrium (chemical-potential) family
    x2 = x * x
    with np.errstate(divide="ignore", invalid="ignore"):
        slogs = np.where(s > 0.0, s * np.log(s), 0.0)
    return (x2 + s) * np.log(x2 + s) - slogs - x2 * np.log(x2) - s * x


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics of the recorded states of a run, one float64 column each.

    Record k is the state at ``times[k]``: ``M0`` its mass, ``X_eta`` its
    exponential moment, ``H`` its entropy, ``entropy_dissipation`` its
    dissipation D and ``origin_mass_series`` its mass on the origin window
    [0, 2 x_min).  ``final`` is the last recorded density; no
    other state is kept.  ``nfev`` counts the right-hand-side evaluations
    of the integration (SciPy's ``nfev``), ``steps`` and ``rejected`` its
    accepted and rejected DOP853 steps, and ``one_sided_pairs`` the pairs
    left out of D, summed over the records: those where exactly one of the
    two densities vanishes, whose J is infinite.  The a-priori bound
    e^{C_eta t} X_eta(0) is not a column: the caller, which holds C_eta,
    builds it from ``X_eta[0]`` with :func:`_growth_bound`.
    """

    times: np.ndarray
    M0: np.ndarray
    X_eta: np.ndarray
    H: np.ndarray
    entropy_dissipation: np.ndarray
    origin_mass_series: np.ndarray
    final: np.ndarray
    nfev: int
    one_sided_pairs: int
    steps: int = 0
    rejected: int = 0


@dataclass(frozen=True)
class BalanceReport:
    """Entropy change against the time-integrated dissipation."""

    entropy_change: float
    integrated_dissipation: float
    residual: float
    tolerance: float
    entropy_monotone: bool
    dissipation_nonnegative: bool


def entropy_balance_check(traj: TrajectoryRecord, rel_tolerance: float = 1e-4) -> BalanceReport:
    """Check H(t2) - H(t1) = integral of the dissipation (trapezoid in time).

    The dissipation is nonnegative, so the entropy is nondecreasing along
    the flow and grows toward its constrained maximum at equilibrium.
    """
    if len(traj.times) < 2 or len(traj.entropy_dissipation) != len(traj.times):
        raise ValueError("trajectory must record dissipation at every recorded time")
    t, d, h = traj.times, traj.entropy_dissipation, traj.H
    integral = float(np.trapezoid(d, t))
    change = float(h[-1] - h[0])
    return BalanceReport(
        entropy_change=change,
        integrated_dissipation=integral,
        residual=abs(change - integral),
        tolerance=rel_tolerance * abs(h[0]),
        entropy_monotone=bool(np.all(np.diff(h) >= -1e-12 * max(1.0, abs(h[0])))),
        dissipation_nonnegative=bool(np.all(d >= 0.0)),
    )


def exp_moment_rate(tp: TruncationParams, c_star: float, eta: float) -> float:
    """Growth-rate constant of the exponential moment along the full flow."""
    th = tp.theta
    if not ((1.0 - th) / 2.0 < eta < 0.5):
        raise ValueError("eta must lie in ((1 - theta)/2, 1/2)")
    return c_star / (2.0 * th * th) * (1.0 - th) / (1.0 + th) * eta / (0.5 - eta)


def _record_times(cfg: SolverConfig) -> np.ndarray:
    # k dt_init for every record_every-th k below the step count of a
    # dt_init grid that reaches t_end, then t_end; the slop keeps a t_end
    # that is a multiple of dt_init up to roundoff from adding a step
    steps = math.ceil(cfg.t_end * (1.0 - 1e-12) / cfg.dt_init)
    return np.append(np.arange(0, steps, cfg.record_every) * cfg.dt_init, cfg.t_end)


def _growth_bound(c_eta: float, t: float, x0: float) -> float:
    # e^{c_eta t} X_eta(0) at one time; past c_eta t ~ 709.78 math.exp overflows and the bound is infinite
    try:
        return math.exp(c_eta * t) * x0
    except OverflowError:
        return math.inf if x0 > 0.0 else 0.0


def run_full(u0: np.ndarray, kern: RegularizedKernel, cfg: SolverConfig) -> TrajectoryRecord:
    """Integrate the regularized equation from a density u0 on the kernel's grid.

    The kernel fixes the grid, the truncation and the regularization.  The
    state is the density alone: the tapered kernel cannot move mass at zero
    energy, and no atom elsewhere lies on the grid.  A ``cfg.eta`` at which
    e^{eta x} nears overflow on the grid raises OverflowError
    (``check_exp_rate``) before anything runs.
    The run driver ``_dop853.integrate`` records the grid system at every
    ``record_every``-th multiple of ``cfg.dt_init`` and at ``cfg.t_end``,
    in blocks held to the floor on the node masses w_i u_i and clipped.  A
    block's mass, exponential moment, entropy and origin-window mass are
    one row-wise ``np.vecdot`` against the weights each, into preallocated
    columns, and its dissipation is filled in passes of ``_BLOCK_ROWS``
    states, whose one-sided pair counts are summed.  Take gathers and
    prefix slices keep every row C-contiguous, so each value has the bits
    of the one-state dot product.  Only the last state is kept.

    A stalled step, a node mass below the floor and a rate that is not
    finite (reported with its time, before any record made from it reaches
    the diagnostics) raise :class:`StepCollapse`.  The run judges nothing:
    the caller compares the relative drift of ``M0`` with
    ``cfg.mass_tolerance`` and builds the growth bound from C_eta and
    ``X_eta[0]``.
    """
    if np.shape(u0) != kern.grid.nodes.shape:
        raise ValueError("the density must be on the kernel grid")
    xs, w = kern.grid.nodes, kern.grid.weights
    check_exp_rate(xs, cfg.eta)

    times = _record_times(cfg)
    M0, X_eta, H, D, origin = columns = np.empty((5, times.size))
    exp_eta = np.exp(cfg.eta * xs)
    k = int(np.searchsorted(xs, xs[0] * 2.0))  # nodes in the origin window [0, 2 x_min)
    final = None
    one_sided = 0

    def rate(t, u: np.ndarray) -> np.ndarray:
        out = collision_rhs(u, kern) if u.ndim == 1 else np.array([collision_rhs(row, kern) for row in u])
        bad = ~np.isfinite(out)
        if bad.any():
            at = t if out.ndim == 1 else t[bad.any(axis=1)][0]
            raise StepCollapse(f"non-finite density rate at t={at}")
        return out

    def reduce(rows: np.ndarray, lo: int, hi: int) -> None:
        nonlocal final, one_sided
        for a in range(0, hi - lo, _BLOCK_ROWS):
            d, flags = _pair_dissipation(kern, rows[a:a + _BLOCK_ROWS])
            np.multiply(0.5, d, out=D[lo:hi][a:a + _BLOCK_ROWS])
            one_sided += flags
        np.vecdot(rows, w, out=M0[lo:hi])
        np.vecdot(rows * exp_eta, w, out=X_eta[lo:hi])
        np.vecdot(_entropy_integrand(xs, rows), w, out=H[lo:hi])
        np.vecdot(rows[:, :k], w[:k], out=origin[lo:hi])
        final = rows[-1].copy()

    counts = integrate(rate, u0, times, w, reduce)
    return TrajectoryRecord(times, *columns, final=final, nfev=counts.nfev, one_sided_pairs=one_sided,
                            steps=counts.steps, rejected=counts.rejected)
