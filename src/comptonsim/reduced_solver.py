"""The reduced quadratic equation: du/dt = u * (rate kernel paired with u).

Two solvers share one location-based rate matrix, ``rate_matrix``, which
evaluates the physical kernel only at the cutoff-supported pairs.  The
atom solver evolves finitely many point masses at frozen locations by
DOP853 (the in-repo port of SciPy's stepper in ``_dop853``); the Picard
solver evolves an integrable density, whose grid nodes are the locations,
through the exponential fixed-point representation on contraction
windows, with cumulative Simpson weights computed once per window by
``_cumulative_simpson``.  Both conserve mass by antisymmetry, decrease
every power moment of order >= 1, and converge to a sum of decoupled
point masses whose structure is checked by the limit classifier through
the exact bounded-Lipschitz distance.  Nothing here imports SciPy; the tests hold both ports to it bit
for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from ._dop853 import StepSizeTooSmall, dop853
from .kernel import PhysicalParams, eval_kernel_batch
from .measure import ComponentPartition, Grid, HybridMeasure, _partition, bl_distance, components
from .truncation import TruncationParams, eval_cutoff, kernel_bound_constant

__all__ = [
    "FlatnessViolation",
    "NonContraction",
    "NotConverged",
    "AtomStepCollapse",
    "NegativeAtomMass",
    "rate_matrix",
    "AtomSystemState",
    "AtomTrajectory",
    "PicardTrajectory",
    "LimitClassification",
    "atom_ode_rhs",
    "run_atoms",
    "picard_solve",
    "lyapunov_check",
    "LyapunovReport",
    "classify_limit",
    "flatness_certificate",
    "pointwise_growth_constant",
]


# Numerical guards, one value each: DOP853's relative and absolute
# tolerances on the atom masses, the Picard fixed-point tolerance, its
# flatness exponent r, its first window length and the iterations per window
# before it counts as not contracting, the moment orders and the tolerance of
# the moment balance, and classify_limit's tolerances on a block's mass
# (relative to the total mass) and on a location (relative to max(1, x)).
_ATOM_RTOL = 1e-12
_ATOM_ATOL = 1e-20
_PICARD_TOL = 1e-12
_FLAT_R = 1.0
_FIRST_WINDOW = 0.25
_MAX_ITERATIONS = 200
_MOMENT_ORDERS = (1.0, 2.0, 3.0)
_BALANCE_TOLERANCE = 1e-4
_LIMIT_MASS_TOL = 1e-8
_LIMIT_LOCATION_TOL = 1e-9
# recorded states per block of the moment dissipation; its temporaries are
# a few blocks of rows, not copies of the whole trajectory
_BLOCK_ROWS = 512


class FlatnessViolation(RuntimeError):
    """Initial data is not flat enough near the origin for the regular solver."""


class NonContraction(RuntimeError):
    """The fixed-point iteration failed to contract even on minimal windows."""


class NotConverged(RuntimeError):
    """The trajectory did not reach the stationarity criterion in time."""


class AtomStepCollapse(RuntimeError):
    """DOP853 needed a step below the float spacing at the current time."""


class NegativeAtomMass(RuntimeError):
    """An atom mass fell below zero by more than integrator noise."""


def rate_matrix(pp: PhysicalParams, tp: TruncationParams, locations) -> tuple[np.ndarray, float]:
    """Physical rate matrix at sorted locations, and its bound constant.

    R[i, j] = cutoff * B(x_i, x_j)/(x_i x_j) * (e^{-x_i} - e^{-x_j}) for
    i < j and R[j, i] = -R[i, j], so R is exactly antisymmetric.  One
    vectorized cutoff call picks the pairs of distinct locations where the
    cutoff is nonzero; only those reach the kernel, at the default
    tolerance of ``eval_kernel_batch`` (1e-10), and the bound constant
    C_star is calibrated on them.
    """
    x = np.asarray(locations, dtype=float)
    if np.any(np.diff(x) < 0.0):
        raise ValueError("locations must be sorted")
    i, j = np.triu_indices(x.size, 1)
    phi = eval_cutoff(tp, x[i], x[j])
    on = (phi != 0.0) & (x[i] != x[j])
    i, j, phi = i[on], j[on], phi[on]
    B, _ = eval_kernel_batch(pp, x[i], x[j])
    # math.exp, not np.exp: the two differ in the last bit at some nodes
    e = np.array([math.exp(-v) for v in x.tolist()])
    R = np.zeros((x.size, x.size))
    R[i, j] = phi * B / (x[i] * x[j]) * (e[i] - e[j])
    R[j, i] = -R[i, j]
    return R, kernel_bound_constant(x[i], x[j], B)


@dataclass(frozen=True)
class AtomSystemState:
    """Point masses at frozen locations with their precomputed rate matrix.

    The matrix is physical (:meth:`from_physical`) or a synthetic table
    (:meth:`from_table`, which makes the atom dynamics testable apart from
    the kernel quadrature); the limit classifier reads the coupling of the
    atoms off it, and the dissipation reads all of it.  It must be exactly
    antisymmetric.  The state keeps a read-only copy and is frozen, because
    the atom RHS reads a slot list built from the matrix once, here: each
    nonzero upper entry R_ij (i < j) gives a gain slot on row i holding
    (i, j, +R_ij) and a loss slot on row j holding (i, j, -R_ij), and the
    slots are sorted by (row, partner), partner being the other atom of the
    pair.  ``_slots`` is (row, i, j, signed rate) in that order.
    """

    locations: np.ndarray
    masses: np.ndarray
    rate_matrix: np.ndarray
    _slots: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        locations = np.asarray(self.locations, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        rate = np.array(self.rate_matrix, dtype=float)
        if np.any(np.diff(locations) <= 0.0):
            raise ValueError("locations must be strictly increasing")
        if np.any(locations < 0.0) or np.any(masses < 0.0):
            raise ValueError("locations and masses must be nonnegative")
        n = locations.size
        if masses.shape != (n,) or rate.shape != (n, n):
            raise ValueError("shape mismatch between locations, masses and rate matrix")
        if not np.array_equal(rate, -rate.T):
            raise ValueError("rate matrix must be exactly antisymmetric")
        rate.setflags(write=False)
        i, j = np.nonzero(np.triu(rate, 1))
        r = rate[i, j]
        row, partner = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((partner, row))
        slots = (row, np.concatenate([i, i]), np.concatenate([j, j]), np.concatenate([r, -r]))
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "rate_matrix", rate)
        object.__setattr__(self, "_slots", tuple(a[order] for a in slots))

    @classmethod
    def from_physical(cls, pp: PhysicalParams, tp: TruncationParams, locations, masses) -> "AtomSystemState":
        locations = np.asarray(locations, dtype=float)
        return cls(locations=locations, masses=masses, rate_matrix=rate_matrix(pp, tp, locations)[0])

    @classmethod
    def from_table(cls, locations, masses, table) -> "AtomSystemState":
        return cls(locations=locations, masses=masses, rate_matrix=table)


def atom_ode_rhs(state: AtomSystemState, masses: np.ndarray | None = None) -> np.ndarray:
    """Mass rates dm_i/dt = m_i sum_j R(x_i, x_j) m_j, assembled pairwise.

    Each pair i < j with R_ij != 0 exchanges f = (R_ij m_i) m_j: atom i
    gains f and atom j loses the same float (negation is exact), so the
    rates cancel in exact arithmetic; what survives in floats is
    accumulation roundoff only.  The state's slots give one term per slot,
    and ``np.bincount`` adds each row's terms left to right in partner
    order.  That is the order in which the loop over pairs (i, j) adds them
    (``out[i] += f; out[j] -= f``), and the order of a left-to-right sum of
    row i of the masked F - F^T, so the floats are theirs.  The zero terms
    the slots leave out change no sum: a partial sum here starts at +0.0
    and is never -0.0.  ``masses`` may be a (..., N) stack, as the deferred
    dense output of ``_dop853`` passes it: the stack flattens to k rows
    whose keys are offset by N per row, so each row of the result is the
    1-D call's bit for bit.
    """
    m = state.masses if masses is None else np.asarray(masses, dtype=float)
    row, a, b, r = state._slots
    if row.size == 0:  # bincount of no terms would be integer zeros
        return np.zeros(m.shape)
    n = m.shape[-1]
    if m.ndim == 1:
        w = r * m[a]
        w *= m[b]
        return np.bincount(row, w, n)
    flat = m.reshape(-1, n)
    w = r * flat[:, a]
    w *= flat[:, b]
    keys = row + n * np.arange(len(flat))[:, None]
    return np.bincount(keys.ravel(), w.ravel(), flat.size).reshape(m.shape)


@dataclass
class AtomTrajectory:
    """Recorded atom masses over time, with the system they evolve in, and
    the number of right-hand-side evaluations the integration took (SciPy's
    ``nfev``: a stacked call of the dense output counts one per row)."""

    state0: AtomSystemState
    times: np.ndarray
    masses: np.ndarray  # shape (len(times), n_atoms)
    nfev: int

    @property
    def locations(self) -> np.ndarray:
        return self.state0.locations

    def final_masses(self) -> np.ndarray:
        return self.masses[-1]

    def state_at(self, idx: int) -> HybridMeasure:
        return HybridMeasure(atoms=list(zip(self.locations, self.masses[idx])))

    def mass_series(self) -> np.ndarray:
        return self.masses.sum(axis=1)

    def moment_series(self, alpha: float) -> np.ndarray:
        return self.masses @ self.locations**alpha

    def exp_moment_series(self, eta: float) -> np.ndarray:
        return self.masses @ np.exp(eta * self.locations)

    def dissipation_series(self, alpha: float) -> np.ndarray:
        """Moment dissipation of every recorded state, block by block; see
        :func:`_dissipation`."""
        return _dissipation(self.state0.rate_matrix, self.locations, self.masses, alpha)

    def window_mass_series(self, lo: float, hi: float = math.inf) -> np.ndarray:
        """Mass on lo <= x <= hi of every recorded state.

        The locations are sorted, so the window is a range of columns, added
        left to right in place: the order in which numpy sums a column-major
        copy of them, so the bits are that copy's (for two or more records).
        """
        x = self.locations
        a, b = int(np.searchsorted(x, lo, side="left")), int(np.searchsorted(x, hi, side="right"))
        if a >= b:
            return np.zeros(len(self.masses))
        out = self.masses[:, a].copy()
        for j in range(a + 1, b):
            out += self.masses[:, j]
        return out


def run_atoms(
    state: AtomSystemState,
    t_end: float,
    rtol: float = _ATOM_RTOL,
    n_record: int = 2001,
) -> AtomTrajectory:
    """Integrate the atom system with DOP853 (relative tolerance ``rtol``,
    by default ``_ATOM_RTOL`` = 1e-12; absolute tolerance ``_ATOM_ATOL`` =
    1e-20) and record n_record equally spaced states by its dense output.

    The stepper is the in-repo port of SciPy's (``_dop853``), so the
    records are those of ``solve_ivp(..., method="DOP853", t_eval=...)``
    bit for bit.  Masses remain in [0, M0]; negative undershoot within
    integrator noise is clipped to zero, anything worse raises
    NegativeAtomMass.  A step size below the float spacing raises
    AtomStepCollapse.  Total mass is conserved to roundoff by the pairwise
    right-hand side.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if n_record < 2:
        raise ValueError("n_record must be >= 2: the records run from t = 0 to t_end")
    m0 = state.masses.copy()
    total = float(m0.sum())

    def rhs(_t: float, m: np.ndarray) -> np.ndarray:
        return atom_ode_rhs(state, m)

    try:
        times, masses, nfev = dop853(rhs, 0.0, t_end, m0, np.linspace(0.0, t_end, n_record), rtol, _ATOM_ATOL)
    except StepSizeTooSmall as e:
        raise AtomStepCollapse(f"atom integration failed: {e}") from None
    low = masses.min()
    if low < -1e-12 * max(total, 1.0):
        raise NegativeAtomMass(f"mass positivity violated beyond integrator noise: {low}")
    np.clip(masses, 0.0, None, out=masses)
    return AtomTrajectory(state0=state, times=times, masses=masses, nfev=nfev)


def _dissipation(
    R: np.ndarray, x: np.ndarray, U: np.ndarray, alpha: float, weights: np.ndarray | None = None
) -> np.ndarray:
    """Quadratic form sum_ij R_ij (x_i^alpha - x_j^alpha) V_i V_j of each
    row V of the stack of states U, or of U * weights when node weights are
    given (point masses at the locations x).

    A matrix product with W and a row-wise dot: the work of a matvec per
    state, instead of a three-operand contraction.  The stack goes through
    in blocks of ``_BLOCK_ROWS`` rows into one output array, so temporaries
    stay at a block's size.  The last block takes the remainder: BLAS sums
    a product of one or two rows in another order, while longer blocks
    give each row the bits of the product over all rows.
    """
    W = R * (x[:, None] ** alpha - x[None, :] ** alpha)
    bounds = [k * _BLOCK_ROWS for k in range(max(len(U) // _BLOCK_ROWS, 1))] + [len(U)]
    out = np.empty(len(U))
    for lo, hi in itertools.pairwise(bounds):
        V = U[lo:hi] if weights is None else U[lo:hi] * weights
        np.einsum("ti,ti->t", V @ W, V, out=out[lo:hi])
    return out


@dataclass(frozen=True)
class LyapunovReport:
    """Monotonicity and balance checks of the moment functionals, and the
    series they were made on: the moments and dissipations by order, and
    the exponential moment, one value per recorded state each."""

    monotone: dict[float, bool]
    max_balance_error: dict[float, float]
    exp_moment_monotone: bool
    balance_tolerance: float
    moments: dict[float, np.ndarray]
    dissipation: dict[float, np.ndarray]
    exp_moment: np.ndarray

    @property
    def balance_ok(self) -> bool:
        return all(err <= self.balance_tolerance for err in self.max_balance_error.values())

    @property
    def passed(self) -> bool:
        return all(self.monotone.values()) and self.exp_moment_monotone and self.balance_ok


def lyapunov_check(traj, eta: float) -> LyapunovReport:
    """Verify the Lyapunov structure along a recorded trajectory.

    The moments of the orders ``_MOMENT_ORDERS`` (1, 2 and 3) and the
    exponential moment must be nonincreasing, and for alpha > 1 the moment
    must change by the time integral of half the dissipation:
    M(t_{k+1}) - M(t_{k-1}) against the three-point Simpson rule for unequal
    spacing over [t_{k-1}, t_{k+1}], whose error is O(h^4) (a centred
    difference is O(h^2)).  The balance error is the mismatch relative to
    (t_{k+1} - t_{k-1}) |D_k / 2|, taken only where |D_k / 2| is at least
    1 % of its peak, and must not exceed ``_BALANCE_TOLERANCE`` (1e-4).
    Each series (M1, M2, M3, X_eta, D_2 and D_3) is computed once, here,
    and the report carries them, so a caller writes them out from it.
    """
    t = np.asarray(traj.times)
    h1, h2 = np.diff(t)[:-1], np.diff(t)[1:]
    span = h1 + h2
    moments: dict[float, np.ndarray] = {}
    dissipation: dict[float, np.ndarray] = {}
    monotone: dict[float, bool] = {}
    balance: dict[float, float] = {}
    for alpha in _MOMENT_ORDERS:
        moment = moments[alpha] = traj.moment_series(alpha)
        scale = max(abs(moment[0]), 1e-300)
        monotone[alpha] = bool(np.all(np.diff(moment) <= 1e-12 * scale))
        if alpha > 1.0:
            dissipation[alpha] = traj.dissipation_series(alpha)
            half_d = 0.5 * dissipation[alpha]
            left, mid, right = half_d[:-2], half_d[1:-1], half_d[2:]
            simpson = span / 6.0 * ((2.0 - h2 / h1) * left + span * span / (h1 * h2) * mid + (2.0 - h1 / h2) * right)
            change = moment[2:] - moment[:-2]
            size = np.abs(mid)
            peak = np.max(size) if size.size else 0.0
            if peak > 0.0:
                active = size >= 0.01 * peak
                err = np.abs(change[active] - simpson[active]) / (span[active] * size[active])
                balance[alpha] = float(np.max(err)) if err.size else 0.0
            else:
                balance[alpha] = float(np.max(np.abs(change / span))) if change.size else 0.0
    x_series = traj.exp_moment_series(eta)
    exp_monotone = bool(np.all(np.diff(x_series) <= 1e-12 * abs(x_series[0])))
    return LyapunovReport(
        monotone=monotone,
        max_balance_error=balance,
        exp_moment_monotone=exp_monotone,
        balance_tolerance=_BALANCE_TOLERANCE,
        moments=moments,
        dissipation=dissipation,
        exp_moment=x_series,
    )


def flatness_certificate(
    grid: Grid, density: np.ndarray, r: float, eta: float
) -> tuple[float, float]:
    """Weighted integrals certifying flatness near the origin.

    Returns the integrals of the density against e^{r / x^{3/2}} and
    e^{eta x}; raises FlatnessViolation when the origin weight overflows
    where the density is positive.
    """
    x = grid.nodes
    expo = r / x**1.5
    if np.any((expo > 700.0) & (density > 0.0)):
        raise FlatnessViolation("density has mass where e^{r/x^{3/2}} overflows")
    origin_weight = np.where(density > 0.0, np.exp(np.minimum(expo, 700.0)), 0.0)
    flat_integral = float(np.dot(grid.weights, density * origin_weight))
    tail_integral = float(np.dot(grid.weights, density * np.exp(eta * x)))
    if not (math.isfinite(flat_integral) and math.isfinite(tail_integral)):
        raise FlatnessViolation("flatness integrals are not finite")
    return flat_integral, tail_integral


def pointwise_growth_constant(
    tp: TruncationParams, c_star: float, x_eta_initial: float
) -> float:
    """Constant C0 in the pointwise envelope u(t,x) <= u0(x) e^{t C0 / x^{3/2}}."""
    return tp.rho_star * c_star * x_eta_initial / math.sqrt(tp.theta * (1.0 + tp.theta))


@dataclass
class PicardTrajectory:
    """Density snapshots of the exponential-representation solution."""

    grid: Grid
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n_nodes)
    rate_grid: np.ndarray
    growth_constant: float
    window_count: int
    iterations_total: int

    def state_at(self, idx: int) -> HybridMeasure:
        return HybridMeasure(atoms=[], grid=self.grid, density=self.states[idx])

    def mass_series(self) -> np.ndarray:
        return self.states @ self.grid.weights

    def moment_series(self, alpha: float) -> np.ndarray:
        return self.states @ (self.grid.weights * self.grid.nodes**alpha)

    def exp_moment_series(self, eta: float) -> np.ndarray:
        return self.states @ (self.grid.weights * np.exp(eta * self.grid.nodes))

    def dissipation_series(self, alpha: float) -> np.ndarray:
        """Moment dissipation of every recorded density, its node values
        weighted into point masses one block of rows at a time; see
        :func:`_dissipation`."""
        return _dissipation(self.rate_grid, self.grid.nodes, self.states, alpha, self.grid.weights)

    def window_mass_series(self, lo: float, hi: float = math.inf) -> np.ndarray:
        """Mass on lo <= x <= hi of every recorded density, by its node weights."""
        x = self.grid.nodes
        sel = (lo <= x) & (x <= hi)
        return self.states[:, sel] @ self.grid.weights[sel]

    def pointwise_envelope(self, idx: int, u0: np.ndarray) -> np.ndarray:
        t = self.times[idx]
        return u0 * np.exp(np.minimum(self.growth_constant * t / self.grid.nodes**1.5, 700.0))


def picard_solve(
    u0: HybridMeasure,
    pp: PhysicalParams,
    tp: TruncationParams,
    t_end: float,
    eta: float,
    iter_tol: float = _PICARD_TOL,
    dt: float = 1e-3,
) -> PicardTrajectory:
    """Solve the reduced equation for flat integrable data by fixed point.

    On each time window, the first ``_FIRST_WINDOW`` (0.25) long, the
    exponential representation u(t) = u(t0) * exp(cumulative integral of
    the paired rate) is iterated to ``iter_tol`` (by default
    ``_PICARD_TOL`` = 1e-12) in the origin-weighted L1 norm, for at most
    ``_MAX_ITERATIONS`` (200) iterations; windows are halved on
    non-contraction (NonContraction below a minimal window).  The flatness
    certificate (exponent ``_FLAT_R`` = 1) is checked up front, mass is
    conserved by antisymmetry, and the pointwise growth envelope holds with
    the calibrated constants.  ``t_end`` and ``dt`` must be positive and
    finite.  A window iterates in buffers allocated once for it, and each
    accepted window writes its rows into one preallocated array of states,
    sized for windows of the first length (at most t_end/dt rows plus one
    per window) and grown when halved windows need more, so no list of
    per-window iterates is kept and no second copy of the states is made.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if u0.density is None or u0.atoms:
        raise ValueError("the fixed-point solver evolves a pure density")
    if eta <= 0.5 * (1.0 - tp.theta):
        raise ValueError("eta must exceed (1 - theta)/2")
    grid = u0.grid
    _, x_eta0 = flatness_certificate(grid, u0.density, _FLAT_R, eta)
    rate_grid, c_star = rate_matrix(pp, tp, grid.nodes)
    c0 = pointwise_growth_constant(tp, c_star, x_eta0)

    w = grid.weights
    norm_weight = w * (1.0 + grid.nodes**-1.5)  # origin-sensitive L1 weight
    paired = rate_grid * w[None, :]  # paired[i, j] u_j = rate of log-growth at i

    def rows_left(t_left: float, window: float) -> int:
        # a window of length L adds max(1, ceil(L/dt)) <= L/dt + 1 rows
        return math.ceil(t_left / dt) + math.ceil(t_left / window) + 1

    t0 = 0.0
    u_start = u0.density.copy()
    window_count = 0
    iter_total = 0
    min_window = max(4.0 * dt, t_end * 1e-6)
    current_window = min(_FIRST_WINDOW, t_end)
    times = np.empty(1 + rows_left(t_end, current_window))
    states = np.empty((times.size, grid.n))
    times[0] = 0.0
    states[0] = u0.density
    count = 1
    while t0 < t_end - 1e-12 * t_end:
        length = min(current_window, t_end - t0)
        n_nodes = max(2, int(math.ceil(length / dt)) + 1)
        local_t = np.linspace(0.0, length, n_nodes)
        cumulative = _cumulative_simpson(local_t)
        # window-sized buffers, made once per window: glibc serves each
        # same-sized temporary an iteration frees with a fresh mmap, whose
        # pages fault again on every iteration
        iterate = np.tile(u_start, (n_nodes, 1))
        new, rates, exponents = np.empty_like(iterate), np.empty_like(iterate), np.empty_like(iterate)
        converged = False
        prev_err = math.inf
        for _ in range(_MAX_ITERATIONS):
            np.matmul(iterate, paired.T, out=rates)  # W(s_j, x_i)
            cumulative(rates, out=exponents)
            # cap keeps a diverging iterate finite so divergence is detected
            # by the error growth instead of overflow noise
            np.minimum(exponents, 700.0, out=exponents)
            np.multiply(u_start[None, :], np.exp(exponents, out=exponents), out=new)
            diff = np.abs(np.subtract(new, iterate, out=rates), out=rates)
            err = float(np.max(diff @ norm_weight))
            iterate, new = new, iterate
            iter_total += 1
            if err <= iter_tol:
                converged = True
                break
            if not math.isfinite(err) or (err > 4.0 * prev_err and err > 1.0):
                break  # diverging; shrink the window
            prev_err = err
        if not converged:
            if length <= min_window:
                raise NonContraction(
                    f"fixed point failed to contract on window {length:.3e} at t={t0:.6f}"
                )
            current_window = 0.5 * length
            continue
        end = count + n_nodes - 1
        if end > times.size:  # halved windows outran the estimate: grow both
            size = end + rows_left(t_end - t0 - length, current_window)
            times = np.concatenate([times[:count], np.empty(size - count)])
            states = np.concatenate([states[:count], np.empty((size - count, grid.n))])
        times[count:end] = t0 + local_t[1:]
        states[count:end] = iterate[1:]
        count = end
        u_start = iterate[-1].copy()
        t0 += length
        window_count += 1
    return PicardTrajectory(
        grid=grid,
        times=times[:count],
        states=states[:count],
        rate_grid=rate_grid,
        growth_constant=c0,
        window_count=window_count,
        iterations_total=iter_total,
    )


def _cumulative_simpson(t: np.ndarray):
    """``y -> cumulative_simpson(y, x=t, axis=0, initial=0.0)`` for a fixed
    increasing t, bit for bit, with its weights computed once.

    Interval i is integrated over (t_i, t_{i+1}, t_{i+2}) when i is even and
    not the last interval, else over (t_{i+1}, t_i, t_{i-1}): SciPy's
    interleaving of its h1 and h2 sub-integrals, with its unequal-interval
    coefficients in its order of operations (SciPy, BSD-3-Clause; the
    notice is in ``_dop853``).  Two nodes take SciPy's trapezoid branch.
    ``cumulative(y, out)`` writes into ``out`` when given, and the
    sub-integrals go through ``out`` and one scratch array kept between
    calls, term by term in SciPy's order, so a call allocates nothing the
    size of y.
    """
    dx = np.diff(t)
    if dx.size == 1:
        def parts(y, out):
            np.multiply(dx, np.add(y[1:], y[:-1], out=out), out=out)
            out /= 2.0
    else:
        i = np.arange(dx.size)
        first = (i % 2 == 0) & (i < dx.size - 1)
        x21, x32 = dx, dx[np.where(first, i + 1, i - 1)]
        x21_x31 = x21 / (x21 + x32)
        q = x21_x31 * (x21 / x32)
        a, c1, c2, c3 = (c[:, None] for c in (x21 / 6, 3 - x21_x31, 3 + q + x21_x31, -q))
        i1, i2, i3 = np.where(first, i, i + 1), np.where(first, i + 1, i), np.where(first, i + 2, i - 1)

        scratch = {}  # one term array per shape of out

        def parts(y, out):
            # a * (c1 y[i1] + c2 y[i2] + c3 y[i3]); "clip" takes skip the
            # buffer "raise" makes, and these indices are in range
            if out.shape not in scratch:
                scratch[out.shape] = np.empty(out.shape)
            term = scratch[out.shape]
            np.multiply(c1, np.take(y, i1, axis=0, out=out, mode="clip"), out=out)
            out += np.multiply(c2, np.take(y, i2, axis=0, out=term, mode="clip"), out=term)
            out += np.multiply(c3, np.take(y, i3, axis=0, out=term, mode="clip"), out=term)
            np.multiply(a, out, out=out)

    def cumulative(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.empty(y.shape) if out is None else out
        out[0] = 0.0
        parts(y, out[1:])
        np.cumsum(out[1:], axis=0, out=out[1:])
        out[1:] += 0.0  # SciPy adds the initial value: -0.0 becomes +0.0
        return out

    return cumulative


@dataclass(frozen=True)
class LimitClassification:
    """Structure of the long-time limit against the initial data."""

    atoms: tuple[tuple[float, float], ...]
    initial_component_masses: tuple[float, ...]
    initial_component_minima: tuple[float, ...]
    component_mass_table: tuple[tuple[float, float], ...]  # (initial, limit) per block
    in_initial_support: bool
    pairwise_decoupled: bool
    mass_sums_ok: bool
    leftmost_ok: bool
    component_conservation_ok: bool
    queue_monotone: bool
    stationarity_gap: float

    @property
    def passed(self) -> bool:
        return (
            self.in_initial_support
            and self.pairwise_decoupled
            and self.mass_sums_ok
            and self.leftmost_ok
            and self.component_conservation_ok
            and self.queue_monotone
        )


def classify_limit(
    traj,
    tp: TruncationParams,
    limit_tol: float = 1e-8,
    stationarity_window: float = 1.0,
) -> LimitClassification:
    """Extract the limit atoms of a trajectory and check their structure.

    Stationarity requires the bounded-Lipschitz distance between states one
    window apart to fall below ``limit_tol`` at the end of the run; then the
    surviving mass clusters are read as atoms and checked against the
    initial state: atoms sit in the initial support, are pairwise
    decoupled, reproduce each initial block's mass, and include the
    leftmost point of every block with positive minimum.  Per-block mass
    conservation and tail-mass monotonicity are checked at every record,
    by one ``window_mass_series`` per initial block and per tail threshold
    (an empty initial support has none), and ``passed`` requires all six
    flags.  An atom trajectory reads its blocks and couplings off its rate
    table, and its limit atoms are its surviving atoms; a density trajectory
    reads both off the cutoff geometry, with one limit atom per block of the
    final support.  A block's
    mass matches to ``_LIMIT_MASS_TOL`` (1e-8) of the total mass, and a
    location to ``_LIMIT_LOCATION_TOL`` (1e-9) relative to max(1, x).
    """
    t = np.asarray(traj.times)
    if t[-1] - t[0] < stationarity_window:
        raise NotConverged("trajectory shorter than the stationarity window")
    idx_prev = int(np.searchsorted(t, t[-1] - stationarity_window))
    idx_prev = min(idx_prev, len(t) - 2)
    final = traj.state_at(len(t) - 1)
    gap = bl_distance(traj.state_at(idx_prev), final)
    if gap >= limit_tol:
        raise NotConverged(
            f"bounded-Lipschitz stationarity gap {gap:.3e} >= {limit_tol:.1e} at t={t[-1]}"
        )

    initial = traj.state_at(0)
    total0 = initial.total_mass
    state0 = getattr(traj, "state0", None)
    if state0 is not None:
        # atoms never leave their locations: the initial blocks are the table's,
        # each surviving atom is a limit atom, and the table says which couple
        parts0 = _table_components(initial, state0)
        limit_atoms = final.support_points()
        at = np.searchsorted(state0.locations, [x for x, _ in limit_atoms])
        pairwise = not np.any(state0.rate_matrix[np.ix_(at, at)])
    else:
        parts0 = components(initial, tp)
        limit_atoms = []
        for comp in components(final, tp).components:
            pts, ms = np.asarray(comp.points), np.asarray(comp.masses)
            if pts.size == 1:
                limit_atoms.append((comp.points[0], comp.mass))
            else:
                limit_atoms.append((float(np.dot(pts, ms) / ms.sum()), float(ms.sum())))
        pairwise = all(eval_cutoff(tp, a[0], c[0]) == 0.0 for a, c in itertools.combinations(limit_atoms, 2))

    support0 = [x for x, _ in initial.support_points()]
    span = max(support0) if support0 else 1.0

    def near_support(x: float) -> bool:
        if initial.density is not None:
            spacing = np.max(np.diff(initial.grid.nodes))
            tol = max(_LIMIT_LOCATION_TOL * max(1.0, x), 1.5 * spacing)
        else:
            tol = _LIMIT_LOCATION_TOL * max(1.0, span)
        return any(abs(x - s) <= tol for s in support0)

    in_support0 = all(near_support(x) for x, _ in limit_atoms)

    # per-initial-block bookkeeping, each block padded on both sides
    comps = parts0.components
    gaps = [math.inf, *(b.min_point - a.max_point for a, b in itertools.pairwise(comps)), math.inf]
    pads = [
        (_block_pad(initial, c.min_point, gaps[k]), _block_pad(initial, c.max_point, gaps[k + 1]))
        for k, c in enumerate(comps)
    ]
    mass_table = []
    mass_ok = True
    leftmost_ok = True
    for comp, (pad_lo, pad_hi) in zip(comps, pads):
        lo = comp.min_point
        hi = comp.max_point
        slack_lo = pad_lo + _LIMIT_LOCATION_TOL * max(1.0, lo)
        slack_hi = pad_hi + _LIMIT_LOCATION_TOL * max(1.0, hi)
        in_block = [(x, m) for x, m in limit_atoms if lo - slack_lo <= x <= hi + slack_hi]
        limit_mass = math.fsum(m for _, m in in_block)
        mass_table.append((comp.mass, limit_mass))
        if abs(limit_mass - comp.mass) > _LIMIT_MASS_TOL * max(total0, 1e-300):
            mass_ok = False
        if lo > 0.0 and comp.mass > _LIMIT_MASS_TOL * max(total0, 1e-300):
            if not any(abs(x - lo) <= slack_lo for x, _ in in_block):
                leftmost_ok = False

    # conservation of each initial block along the way
    conservation_ok = True
    for comp, (pad_lo, pad_hi) in zip(comps, pads):
        series = traj.window_mass_series(comp.min_point - pad_lo, comp.max_point + pad_hi)
        if np.any(np.abs(series - comp.mass) > 10.0 * _LIMIT_MASS_TOL * max(total0, 1e-300)):
            conservation_ok = False

    # tail masses nonincreasing for a ladder of thresholds
    r_values = _quantiles(support0, np.linspace(0.05, 0.95, 10)) if support0 else ()
    queue_ok = True
    for r in r_values:
        series = traj.window_mass_series(float(r))
        if np.any(np.diff(series) > 1e-12 * max(total0, 1.0)):
            queue_ok = False

    return LimitClassification(
        atoms=tuple(limit_atoms),
        initial_component_masses=parts0.masses,
        initial_component_minima=parts0.min_points,
        component_mass_table=tuple(mass_table),
        in_initial_support=in_support0,
        pairwise_decoupled=pairwise,
        mass_sums_ok=mass_ok,
        leftmost_ok=leftmost_ok,
        component_conservation_ok=conservation_ok,
        queue_monotone=queue_ok,
        stationarity_gap=gap,
    )


def _table_components(u: HybridMeasure, state: AtomSystemState) -> ComponentPartition:
    """Blocks of an atom state's support under its rate table, cut by the
    splitter of :func:`components`: the gap between consecutive support atoms
    p < q splits the support when no table entry links a support atom <= p
    to one >= q (on a physical table, the gamma1 rule of :func:`components`)."""
    pts = u.support_points()
    idx = np.searchsorted(state.locations, [x for x, _ in pts])
    linked = state.rate_matrix[np.ix_(idx, idx)] != 0.0
    return _partition(pts, lambda a: not linked[:a, a:].any())


def _quantiles(points, q: np.ndarray) -> np.ndarray:
    """np.quantile(points, q) by its default 'linear' method, bit for bit,
    for finite points and q in [0, 1].

    numpy's arithmetic in numpy's order: the virtual index (n - 1) q, both
    neighbours pinned to the last point at or past it, and the lerp that
    works from the nearer end.  np.quantile itself reaches np.unique, whose
    masked-array check imports numpy.ma (about 10 ms).
    """
    s = np.sort(np.asarray(points, dtype=float))
    virtual = (s.size - 1) * q
    prev = np.floor(virtual).astype(np.intp)
    above = virtual >= s.size - 1
    prev[above] = -1
    a, b = s[prev], s[np.where(above, -1, prev + 1)]
    t = virtual - prev
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _block_pad(initial: HybridMeasure, x: float, gap: float) -> float:
    # density supports are resolved to a grid cell, atoms are exact; the pad
    # stays below half the gap to the neighbouring block, so a block's windows
    # never take in that block's carriers or limit atoms
    if initial.density is None:
        return 0.0
    nodes = initial.grid.nodes
    i = int(np.argmin(np.abs(nodes - x)))
    left = nodes[i] - nodes[i - 1] if i > 0 else nodes[1] - nodes[0]
    right = nodes[i + 1] - nodes[i] if i < nodes.size - 1 else left
    return min(max(left, right), 0.49 * gap)
