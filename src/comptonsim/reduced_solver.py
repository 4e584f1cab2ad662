"""The reduced quadratic equation: du/dt = u * (rate kernel paired with u).

One location-based list of rate pairs, ``rate_pairs``, made by the pair
builder of both equations (``kernel.screened_pairs``), and one integrator,
``_dop853.integrate`` (the run driver of both equations), evolve it.  An
atom run evolves finitely many point masses at frozen locations; a density
run is the same system at the grid nodes, with masses m_j = w_j u_j (node
weights w), after the flatness certificate has admitted the data.  Both
conserve mass by antisymmetry, decrease every power moment of order >= 1,
and converge to a sum of decoupled point masses whose structure is checked
by the limit classifier through the exact bounded-Lipschitz distance.  A
run keeps no array of its records: one reducer takes each block of them as
the integrator streams it and leaves what the outputs read, the columns of
the mass, the moments and the dissipations, the extremes of the
classifier's window masses, and three states.  The paper's fixed-point
construction of the flat solutions is a test oracle
(``tests/oracles.py``), not a second solver.  Nothing here imports SciPy;
the tests hold the port to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._dop853 import integrate
from .kernel import PhysicalParams, screened_pairs
from .measure import Component, Grid, _partition, atom_carriers, bl_distance, node_carriers, support
from .truncation import TruncationParams, eval_cutoff

__all__ = [
    "FlatnessViolation",
    "NonContraction",
    "NotConverged",
    "rate_pairs",
    "AtomSystemState",
    "AtomTrajectory",
    "PicardTrajectory",
    "LimitClassification",
    "atom_ode_rhs",
    "run_atoms",
    "run_density",
    "lyapunov_check",
    "LyapunovReport",
    "classify_limit",
    "flatness_certificate",
    "pointwise_growth_constant",
]


# Numerical guards, one value each: the flatness exponent r of a density
# run, the tolerance of the moment balance, and classify_limit's tolerances
# on a block's mass (relative to the total mass) and on a location
# (relative to max(1, x)).  DOP853's tolerances are the package's pair,
# ``_dop853.RTOL`` and ``ATOL``.
_FLAT_R = 1.0
_BALANCE_TOLERANCE = 1e-4
_LIMIT_MASS_TOL = 1e-8
_LIMIT_LOCATION_TOL = 1e-9


class FlatnessViolation(ValueError):
    """Initial data is not flat enough near the origin for the regular solver."""


class NonContraction(RuntimeError):
    """The fixed-point iteration failed to contract even on minimal windows
    (raised by the test oracle's fixed point; kept here by name for callers
    that catch it)."""


class NotConverged(RuntimeError):
    """The trajectory did not reach the stationarity criterion in time."""


def rate_pairs(pp: PhysicalParams, tp: TruncationParams, locations) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The physical rates at sorted locations as pairs (i, j, R_ij), and C_star.

    R_ij = cutoff * B(x_i, x_j)/(x_i x_j) * (e^{-x_i} - e^{-x_j}) and
    R_ji = -R_ij on the pairs i < j of distinct locations that
    ``kernel.screened_pairs`` keeps (C_star is calibrated on all of them);
    those with R_ij != 0 are returned, in row-major order.
    """
    x = np.asarray(locations, dtype=float)
    i, j, phi_b, c_star = screened_pairs(pp, tp, x, False)
    # math.exp, not np.exp: the two differ in the last bit at some nodes
    e = np.array([math.exp(-v) for v in x.tolist()])
    r = phi_b / (x[i] * x[j]) * (e[i] - e[j])
    return i[r != 0.0], j[r != 0.0], r[r != 0.0], c_star


@dataclass(frozen=True)
class AtomSystemState:
    """Point masses at frozen locations with their precomputed rate pairs.

    The rates are physical (:meth:`from_physical`) or a synthetic table
    (:meth:`from_table`).  The state holds the antisymmetric R as read-only
    pairs (``pair_i``, ``pair_j``, ``pair_r``) = (i, j, R_ij), i < j and
    R_ij != 0, in row-major order.  Locations and masses must be finite and
    nonnegative, the locations strictly increasing.  The state is frozen,
    because the atom RHS reads a slot list built from the pairs once: each
    pair gives a gain slot on row i holding (i, j, +R_ij) and a loss slot
    on row j holding (i, j, -R_ij), sorted by (row, partner), partner being
    the other atom of the pair; ``_slots`` is (row, i, j, signed rate).
    """

    locations: np.ndarray
    masses: np.ndarray
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_r: np.ndarray
    _slots: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        locations = np.asarray(self.locations, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        for name, values in (("locations", locations), ("masses", masses)):
            if not np.isfinite(values).all():
                raise ValueError(f"atom {name} must be finite")
        if np.any(np.diff(locations) <= 0.0):
            raise ValueError("locations must be strictly increasing")
        if np.any(locations < 0.0) or np.any(masses < 0.0):
            raise ValueError("locations and masses must be nonnegative")
        if masses.shape != (locations.size,):
            raise ValueError("shape mismatch between locations and masses")
        i, j = (np.array(a, dtype=np.intp) for a in (self.pair_i, self.pair_j))
        r = np.array(self.pair_r, dtype=float)
        for a in (i, j, r):
            a.setflags(write=False)
        row, partner = np.concatenate([i, j]), np.concatenate([j, i])
        order = np.lexsort((partner, row))
        slots = (row, np.concatenate([i, i]), np.concatenate([j, j]), np.concatenate([r, -r]))
        values = (locations, masses, i, j, r, tuple(a[order] for a in slots))
        for name, value in zip(("locations", "masses", "pair_i", "pair_j", "pair_r", "_slots"), values):
            object.__setattr__(self, name, value)

    @classmethod
    def from_physical(cls, pp: PhysicalParams, tp: TruncationParams, locations, masses) -> "AtomSystemState":
        points = cls(locations, masses, (), (), ())  # checked before the kernel sees them
        return cls(points.locations, points.masses, *rate_pairs(pp, tp, points.locations)[:3])

    @classmethod
    def from_table(cls, locations, masses, table) -> "AtomSystemState":
        """The state of a finite, exactly antisymmetric (N, N) rate table."""
        rate = np.asarray(table, dtype=float)
        n = np.size(locations)
        if np.shape(masses) != (n,) or rate.shape != (n, n):
            raise ValueError("shape mismatch between locations, masses and rate matrix")
        i, j = np.triu_indices(n, 1)
        r = rate[i, j]
        if np.any(np.diagonal(rate)) or not np.array_equal(r, -rate[j, i]):
            raise ValueError("rate matrix must be exactly antisymmetric")
        if not np.isfinite(r).all():
            raise ValueError("rate matrix must be finite")
        return cls(locations, masses, i[r != 0.0], j[r != 0.0], r[r != 0.0])


def atom_ode_rhs(state: AtomSystemState, masses: np.ndarray | None = None) -> np.ndarray:
    """Mass rates dm_i/dt = m_i sum_j R(x_i, x_j) m_j, assembled pairwise.

    Each pair exchanges f = (R_ij m_i) m_j: atom i gains f and atom j
    loses the same float, so only accumulation roundoff survives.  The
    state's slots give one term each, and ``np.bincount`` adds each row's
    terms in partner order, the order of the loop over pairs (i, j) that
    does ``out[i] += f; out[j] -= f``, so the floats are that loop's; the
    zero terms left out change no sum (a partial sum starts at +0.0 and is
    never -0.0).  ``masses`` may be a (..., N) stack, as ``_dop853``'s
    dense output passes it: its k rows get keys offset by N per row.
    """
    m = state.masses if masses is None else np.asarray(masses, dtype=float)
    row, a, b, r = state._slots
    if row.size == 0:  # bincount of no terms would be integer zeros
        return np.zeros(m.shape)
    n = m.shape[-1]
    flat = m.reshape(-1, n)
    w = r * flat[:, a]
    w *= flat[:, b]
    keys = row + n * np.arange(len(flat))[:, None]
    return np.bincount(keys.ravel(), w.ravel(), flat.size).reshape(m.shape)


class _Reducer:
    """The reduction of a run's records as ``_dop853.integrate`` streams them.

    A record is a row of masses at the points x (a density's node masses,
    for node weights w), checked and clipped at zero by the driver.  Each
    block is reduced in place, in DOP853's fixed blocks of at least 3
    records (BLAS sums a product of one or two rows in another order), its
    rows divided by w, and each column is written for its records:

    - ``M0``, ``M1``, ``M2``, ``M3`` and ``X_eta`` are the row sums
      ``np.sum(rows * c, axis=1)`` against c = w x^alpha (w e^{eta x}),
      a factor that is absent counting as 1;
    - ``D_2`` and ``D_3`` are the quadratic forms
      sum_ij R_ij (x_i^alpha - x_j^alpha) V_i V_j of the rows V = rows * w:
      ``V @ W`` and a row-wise dot, with W built once per run from the
      package's one dense R, filled from the state's pairs.

    The rows at the indices ``keep`` are copied out, and the window masses
    of the classifier's ``limit`` (:class:`_LimitWindows`), when given,
    reduce into their extremes block by block.
    """

    def __init__(self, state: AtomSystemState, n_record: int, weights: np.ndarray | None,
                 eta: float, keep: tuple[int, ...], limit: _LimitWindows | None = None) -> None:
        self.w, self.keep, self.limit = weights, keep, limit
        x, i, j = state.locations, state.pair_i, state.pair_j
        R = np.zeros((x.size, x.size))
        R[i, j] = state.pair_r
        R[j, i] = -R[i, j]
        self.kept: list[np.ndarray] = []
        c = (lambda f: f) if weights is None else (lambda f: weights * f)
        # M0's factor is w itself: the product rows * w is V, made once per block
        self.factors = {"M1": c(x ** 1.0), "M2": c(x ** 2.0), "M3": c(x ** 3.0), "X_eta": c(np.exp(eta * x))}
        self.forms = {f"D_{a:g}": R * (x[:, None] ** a - x[None, :] ** a) for a in (2.0, 3.0)}
        self.columns = {name: np.empty(n_record) for name in ("M0", *self.factors, *self.forms)}

    def reduce(self, U: np.ndarray, lo: int, hi: int) -> None:
        if self.w is not None:
            U /= self.w
        self.kept += [U[k - lo].copy() for k in self.keep if lo <= k < hi]
        V = U if self.w is None else U * self.w
        cols = self.columns
        np.sum(V, axis=1, out=cols["M0"][lo:hi])
        for name, c in self.factors.items():
            np.sum(U * c, axis=1, out=cols[name][lo:hi])
        for name, W in self.forms.items():
            np.einsum("ti,ti->t", V @ W, V, out=cols[name][lo:hi])
        if self.limit is not None:
            self.limit.reduce(V)


@dataclass
class _LimitWindows:
    """The classifier's view of a run, taken as its records stream.

    ``blocks`` are the blocks of the initial state (record 0), each with
    its ``masses`` and the ``pads`` of its window [min - pad_lo, max +
    pad_hi]; each tail threshold r has the window [r, inf).  Every record's
    mass on each window is reduced at once into ``drift``, the largest
    |block window mass - the block's mass at record 0|, and ``rise``, the
    largest rise of a tail mass between consecutive records (-inf where
    there is none).  NaN is
    passed over, as a comparison with it is false.  ``previous`` is the
    record one ``stationarity_window`` before the last.
    """

    stationarity_window: float
    previous: int
    blocks: tuple[Component, ...]
    pads: tuple[tuple[float, float], ...]
    columns: list[tuple[int, int]]  # the column range of each block's window, then each tail's
    masses: list[float]
    state: AtomSystemState = field(repr=False, compare=False)  # the run's: its pairs cut the final blocks too
    last: np.ndarray | None = None  # each tail's mass at the last record reduced, as a column
    drift: float = -math.inf
    rise: float = -math.inf

    @classmethod
    def of(cls, state: AtomSystemState, initial, pad, stationarity_window: float, previous: int) -> "_LimitWindows":
        """Windows of the blocks of the ``initial`` carriers under the pairs of
        ``state``, each padded on both sides by ``pad(edge, gap to the
        neighbouring block)``, and of the ten tail thresholds at the 5 % to
        95 % quantiles of the initial support (none when it is empty); the
        state's sorted points make a window a range of columns."""
        blocks, support0, x = _table_components(initial, state), support(*initial)[0], state.locations
        def window(lo: float, hi: float) -> tuple[int, int]:
            return int(np.searchsorted(x, lo, side="left")), int(np.searchsorted(x, hi, side="right"))

        pads = []
        for k, comp in enumerate(blocks):
            lo, hi = comp.min_point, comp.max_point
            pads.append((pad(lo, lo - blocks[k - 1].max_point if k > 0 else math.inf),
                         pad(hi, blocks[k + 1].min_point - hi if k + 1 < len(blocks) else math.inf)))
        tails = _quantiles(support0, np.linspace(0.05, 0.95, 10)) if support0.size else ()
        columns = [window(c.min_point - a, c.max_point + b) for c, (a, b) in zip(blocks, pads)]
        columns += [window(float(r), math.inf) for r in tails]
        return cls(stationarity_window, previous, blocks, tuple(pads), columns, [c.mass for c in blocks], state)

    def reduce(self, V: np.ndarray) -> None:
        """Fold a block of records, as point masses V, into the extremes."""
        sums = np.empty((len(self.columns), len(V)))
        for k, (a, b) in enumerate(self.columns):
            np.sum(V[:, a:b], axis=1, out=sums[k])
        blocks, tails = sums[:len(self.masses)], sums[len(self.masses):]
        drift = np.abs(blocks - np.array(self.masses)[:, None])
        rises = np.diff(tails if self.last is None else np.concatenate([self.last, tails], axis=1), axis=1)
        self.drift = np.fmax.reduce(drift, axis=None, initial=self.drift)
        self.rise = np.fmax.reduce(rises, axis=None, initial=self.rise)
        self.last = tails[:, -1:].copy()


@dataclass
class _ReducedRun:
    """The columns of a reduced run, one float per record each: the mass
    ``M0``, the power moments ``M1``, ``M2`` and ``M3``, the exponential
    moment ``X_eta`` and the dissipations ``D_2`` and ``D_3``.  ``states``
    holds the rows of the records ``records`` (0, the classifier's
    ``limit.previous`` when there is a ``limit``, and the last), and no
    other state is kept.  ``nfev``, ``steps`` and ``rejected`` are the
    DOP853 counts (SciPy's ``nfev``: a stacked call of the dense output
    counts one per row)."""

    times: np.ndarray
    M0: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    M3: np.ndarray
    X_eta: np.ndarray
    D_2: np.ndarray
    D_3: np.ndarray
    records: tuple[int, ...]
    states: np.ndarray
    limit: _LimitWindows | None
    nfev: int
    steps: int
    rejected: int

    def _row(self, idx: int) -> np.ndarray:
        return self.states[self.records.index(idx)]


@dataclass
class AtomTrajectory(_ReducedRun):
    """An atom run as a column record (:class:`_ReducedRun`): its columns,
    the masses it kept at the atoms' ``locations``, and the system they
    evolve in, whose rate pairs the limit classifier reads."""

    state0: AtomSystemState

    @property
    def locations(self) -> np.ndarray:
        return self.state0.locations

    def final_masses(self) -> np.ndarray:
        return self.states[-1]

    def state_at(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """The carriers of kept record ``idx``: its atoms of positive mass."""
        return atom_carriers(self.locations, self._row(idx))


def _reduced_run(state: AtomSystemState, t_end: float, n_record: int, eta: float, window: float | None,
                 grid: Grid | None = None) -> dict:
    """Integrate ``state`` to t_end (``_dop853.integrate``, its floor on the
    masses) and reduce its n_record records (see :class:`_Reducer`), which
    are densities on ``grid`` when one is given.  With a stationarity
    ``window`` the classifier's windows are those of the initial state
    (record 0 as DOP853 emits it, clipped), cut by the state's rate pairs;
    the run kind picks the carriers (atoms of positive mass, or every node)
    and the pads (none, or :func:`_block_pad`).  Returns the fields of
    :class:`_ReducedRun`."""
    m0 = state.masses.copy()
    times = np.linspace(0.0, t_end, n_record)
    keep, limit = (0, n_record - 1), None
    weights = None if grid is None else grid.weights
    if window is not None:
        previous = min(int(np.searchsorted(times, times[-1] - window)), n_record - 2)
        keep = tuple(sorted({0, previous, n_record - 1}))
        row0 = np.clip(m0, 0.0, None)
        if grid is None:
            initial, pad = atom_carriers(state.locations, row0), lambda x, gap: 0.0
        else:
            initial, pad = node_carriers(grid, row0 / weights), lambda x, gap: _block_pad(grid.nodes, x, gap)
        limit = _LimitWindows.of(state, initial, pad, window, previous)
    reducer = _Reducer(state, n_record, weights, eta, keep, limit)
    row, a, b, r = state._slots
    slotless = row.size == 0

    def rhs(_t: float, m: np.ndarray) -> np.ndarray:
        if slotless or m.ndim != 1:
            return atom_ode_rhs(state, m)
        w = r * m.take(a)
        w *= m.take(b)
        return np.bincount(row, w, m.size)

    counts = integrate(rhs, m0, times, None, reducer.reduce)
    return dict(reducer.columns, times=times, records=keep, states=np.array(reducer.kept), limit=limit,
                nfev=counts.nfev, steps=counts.steps, rejected=counts.rejected)


def run_atoms(state: AtomSystemState, t_end: float, eta: float, n_record: int = 2001,
              stationarity_window: float | None = None) -> AtomTrajectory:
    """Integrate the atom system with ``_dop853.integrate`` (DOP853 at the
    package's ``RTOL`` = 1e-12 and ``ATOL`` = 1e-20) and reduce n_record
    equally spaced records of its dense output into columns.

    The stepper is the in-repo port of SciPy's (``_dop853``), so the
    records are those of ``solve_ivp(..., method="DOP853", t_eval=...)``
    bit for bit.  No (n_record, N) array is made: the records are reduced
    as they stream (:class:`_Reducer`), and the masses at t = 0 and t_end
    are kept.  A ``stationarity_window`` makes the run ready for
    :func:`classify_limit` (it also keeps the masses one window before the
    end and reduces the windows of the blocks of the rate pairs and of the
    tail thresholds).  Negative undershoot within integrator noise is
    clipped to zero; a worse one or a step size below the float spacing
    raises ``StepCollapse``.  Mass is conserved to roundoff by the pairwise
    right-hand side: a stage's 1-D call is :func:`atom_ode_rhs`'s one row
    inlined, and a stacked call of the dense output is
    :func:`atom_ode_rhs`.  A state with no atoms is refused
    (``ValueError``), as a bad ``t_end`` or ``n_record`` is.
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if n_record < 2:
        raise ValueError("n_record must be >= 2: the records run from t = 0 to t_end")
    if state.masses.size == 0:
        raise ValueError("the atom system has no atoms to integrate")
    return AtomTrajectory(**_reduced_run(state, t_end, n_record, eta, stationarity_window), state0=state)


@dataclass(frozen=True)
class LyapunovReport:
    """Monotonicity and balance checks of the moment functionals of a run."""

    monotone: dict[float, bool]
    max_balance_error: dict[float, float]
    exp_moment_monotone: bool
    balance_tolerance: float

    @property
    def balance_ok(self) -> bool:
        return all(err <= self.balance_tolerance for err in self.max_balance_error.values())


def lyapunov_check(traj) -> LyapunovReport:
    """Verify the Lyapunov structure along a reduced run's columns.

    The moments ``M1``, ``M2``, ``M3`` and the exponential moment
    ``X_eta`` must be nonincreasing, and for alpha = 2 and 3 the moment
    must change by the time integral of half the dissipation ``D_alpha``:
    M(t_{k+1}) - M(t_{k-1}) against the three-point Simpson rule for
    unequal spacing over [t_{k-1}, t_{k+1}], whose error is O(h^4) (a
    centred difference is O(h^2)).  The balance error is the mismatch
    relative to (t_{k+1} - t_{k-1}) |D_k / 2|, taken only where |D_k / 2|
    is at least 1 % of its peak, and must not exceed
    ``_BALANCE_TOLERANCE`` (1e-4).
    """
    t = traj.times
    monotone: dict[float, bool] = {}
    balance: dict[float, float] = {}
    for alpha, moment, dissipation in ((1.0, traj.M1, None), (2.0, traj.M2, traj.D_2), (3.0, traj.M3, traj.D_3)):
        monotone[alpha] = _nonincreasing(moment, 1e-12 * max(abs(moment[0]), 1e-300))
        if dissipation is not None:
            balance[alpha] = _balance_error(t, moment, dissipation)
    return LyapunovReport(
        monotone=monotone,
        max_balance_error=balance,
        exp_moment_monotone=_nonincreasing(traj.X_eta, 1e-12 * abs(traj.X_eta[0])),
        balance_tolerance=_BALANCE_TOLERANCE,
    )


def _nonincreasing(series: np.ndarray, tol: float) -> bool:
    """No step of the series rises by more than tol."""
    return bool(np.all(np.diff(series) <= tol))


def _balance_error(t: np.ndarray, moment: np.ndarray, dissipation: np.ndarray) -> float:
    """The largest relative mismatch of :func:`lyapunov_check`'s Simpson
    balance over the interior records k.  With no positive peak of
    |D_k / 2| the error is the largest |M(t_{k+1}) - M(t_{k-1})| /
    (t_{k+1} - t_{k-1}).  Two records have no interior: 0."""
    h = np.diff(t)
    h1, h2 = h[:-1], h[1:]
    span = h1 + h2
    half_d = 0.5 * dissipation
    left, mid, right = half_d[:-2], half_d[1:-1], half_d[2:]
    change = moment[2:] - moment[:-2]
    size = np.abs(mid)
    peak = np.max(size) if size.size else 0.0
    if not peak > 0.0:
        return float(np.max(np.abs(change / span))) if change.size else 0.0
    simpson = span / 6.0 * ((2.0 - h2 / h1) * left + span * span / (h1 * h2) * mid + (2.0 - h1 / h2) * right)
    active = size >= 0.01 * peak
    return float(np.max(np.abs(change[active] - simpson[active]) / (span[active] * size[active])))


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
class PicardTrajectory(_ReducedRun):
    """A flat density run as a column record (:class:`_ReducedRun`): its
    columns (of the densities), the densities it kept on its ``grid``, the
    constant C0 of the pointwise envelope u(t, x) <= u0(x) e^{t C0 /
    x^{3/2}}, and the initial density's ``flatness`` integrals (those of
    :func:`flatness_certificate`); ``states[-1]`` is the density at t_end."""

    grid: Grid
    growth_constant: float
    flatness: tuple[float, float]

    def state_at(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """The carriers of kept record ``idx``: every node with its mass w u."""
        return node_carriers(self.grid, self._row(idx))

    def pointwise_envelope(self, idx: int, u0: np.ndarray) -> np.ndarray:
        t = self.times[idx]
        return u0 * np.exp(np.minimum(self.growth_constant * t / self.grid.nodes**1.5, 700.0))


def run_density(
    grid: Grid, u0: np.ndarray, pp: PhysicalParams, tp: TruncationParams, t_end: float, eta: float,
    dt: float = 1e-3, stationarity_window: float | None = None,
) -> PicardTrajectory:
    """Solve the reduced equation for flat integrable data u0 on ``grid``.

    On the grid the equation du_i/dt = u_i sum_j R_ij w_j u_j is the atom
    system with masses m_j = w_j u_j at the nodes, on the rate pairs at the
    nodes, integrated and reduced as :func:`run_atoms` does; each record is
    divided by w into a density.  The records are equally spaced at about
    ``dt`` (``ceil(t_end/dt) + 1`` of them, at least 2).  A
    ``stationarity_window`` keeps the density one window before the end
    and reduces the windows of the initial density's blocks, each padded by
    :func:`_block_pad`, and of the tail thresholds.  ``t_end`` and ``dt``
    must be positive and finite, u0 on the grid and eta above (1 - theta)/2;
    the flatness certificate (exponent ``_FLAT_R`` = 1) and the kernel's
    domain are checked before anything runs (``ValueError``).
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if np.shape(u0) != grid.nodes.shape:
        raise ValueError("the density must be on the grid")
    if eta <= 0.5 * (1.0 - tp.theta):
        raise ValueError("eta must exceed (1 - theta)/2")
    flatness = flatness_certificate(grid, u0, _FLAT_R, eta)
    i, j, r, c_star = rate_pairs(pp, tp, grid.nodes)
    state = AtomSystemState(grid.nodes, u0 * grid.weights, i, j, r)
    n_record = max(2, math.ceil(t_end / dt) + 1)
    fields = _reduced_run(state, t_end, n_record, eta, stationarity_window, grid)
    return PicardTrajectory(**fields, grid=grid, growth_constant=pointwise_growth_constant(tp, c_star, flatness[1]),
                            flatness=flatness)


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


def classify_limit(traj, tp: TruncationParams, limit_tol: float = 1e-8) -> LimitClassification:
    """Extract the limit atoms of a trajectory and check their structure.

    The trajectory must come from a run given a ``stationarity_window``
    (its ``limit``).  The bounded-Lipschitz distance between the kept
    states one window apart must fall below ``limit_tol``; then the
    surviving mass clusters are read as atoms that must sit in the initial
    support, be pairwise decoupled, reproduce each initial block's mass and
    include the leftmost point of every block with positive minimum.  An
    atom trajectory's total mass is the ``math.fsum`` of its masses, its
    surviving atoms are the limit atoms, and its rate pairs couple them; a
    density trajectory's is the ``np.vecdot`` with the node weights, it
    takes one mass-weighted limit atom per final block (cut as the initial
    ones are), couples by the cutoff and widens the support by 1.5 grid
    cells.  The run's initial blocks (padded by :func:`_block_pad` for a density) are checked to
    ``_LIMIT_MASS_TOL`` (1e-8) of the total mass, a location to
    ``_LIMIT_LOCATION_TOL`` (1e-9) relative to max(1, x).  Every block
    window's mass must stay within ten times the block tolerance of the
    block's mass, and no tail mass may rise by more than 1e-12 of the total
    mass between consecutive records.  ``passed`` needs all six flags.
    """
    windows = traj.limit
    if windows is None:
        raise ValueError("the run kept no classifier windows: give it a stationarity_window")
    t = traj.times
    if t[-1] - t[0] < windows.stationarity_window:
        raise NotConverged("trajectory shorter than the stationarity window")
    final = traj.state_at(len(t) - 1)
    stationarity_gap = bl_distance(traj.state_at(windows.previous), final)
    if stationarity_gap >= limit_tol:
        raise NotConverged(
            f"bounded-Lipschitz stationarity gap {stationarity_gap:.3e} >= {limit_tol:.1e} at t={t[-1]}"
        )

    initial = traj.state_at(0)
    support0 = support(*initial)[0].tolist()
    if isinstance(traj, AtomTrajectory):
        # atoms never leave their locations: each surviving atom is a limit
        # atom, and they are pairwise decoupled when each is a block alone
        total0 = math.fsum(initial[1])
        limit_atoms = list(zip(*(a.tolist() for a in support(*final))))
        pairwise = len(_table_components(final, traj.state0)) == len(limit_atoms)
        tols = [_LIMIT_LOCATION_TOL * max(1.0, max(support0, default=1.0))] * len(limit_atoms)
    else:
        total0 = float(np.vecdot(traj._row(0), traj.grid.weights))
        limit_atoms = [
            (c.points[0], c.mass) if len(c.points) == 1
            else (float(np.dot(c.points, c.masses) / np.sum(c.masses)), float(np.sum(c.masses)))
            for c in _table_components(final, windows.state)
        ]
        locs = np.array([x for x, _ in limit_atoms])
        i, j = np.triu_indices(locs.size, 1)
        pairwise = not np.any(eval_cutoff(tp, locs[i], locs[j]))
        cell = 1.5 * np.max(np.diff(traj.grid.nodes))
        tols = [max(_LIMIT_LOCATION_TOL * max(1.0, x), cell) for x, _ in limit_atoms]

    in_support0 = all(any(abs(x - s) <= tol for s in support0) for (x, _), tol in zip(limit_atoms, tols))

    # one pass over the initial blocks, each padded on both sides
    mass_scale = max(total0, 1e-300)
    mass_tol = _LIMIT_MASS_TOL * mass_scale
    mass_table = []
    minima = []
    mass_ok = leftmost_ok = True
    for comp, (pad_lo, pad_hi), mass in zip(windows.blocks, windows.pads, windows.masses):
        lo, hi = comp.min_point, comp.max_point
        slack_lo = pad_lo + _LIMIT_LOCATION_TOL * max(1.0, lo)
        slack_hi = pad_hi + _LIMIT_LOCATION_TOL * max(1.0, hi)
        in_block = [(x, m) for x, m in limit_atoms if lo - slack_lo <= x <= hi + slack_hi]
        limit_mass = math.fsum(m for _, m in in_block)
        mass_table.append((mass, limit_mass))
        minima.append(lo)
        if abs(limit_mass - mass) > mass_tol:
            mass_ok = False
        if lo > 0.0 and mass > mass_tol and not any(abs(x - lo) <= slack_lo for x, _ in in_block):
            leftmost_ok = False

    return LimitClassification(
        atoms=tuple(limit_atoms),
        initial_component_masses=tuple(m for m, _ in mass_table),
        initial_component_minima=tuple(minima),
        component_mass_table=tuple(mass_table),
        in_initial_support=in_support0,
        pairwise_decoupled=pairwise,
        mass_sums_ok=mass_ok,
        leftmost_ok=leftmost_ok,
        component_conservation_ok=not windows.drift > 10.0 * _LIMIT_MASS_TOL * mass_scale,
        queue_monotone=not windows.rise > 1e-12 * max(total0, 1.0),
        stationarity_gap=stationarity_gap,
    )


def _table_components(u, state: AtomSystemState) -> tuple[Component, ...]:
    """The one block rule of both run kinds: blocks of the support of
    carriers u (points, masses) at the state's locations under its rate
    pairs.  The gap between consecutive support points p < q splits the
    support when no pair of support points spans it, i.e. when the prefix
    maximum of j over those pairs (i, j) with i <= p is below q (on physical
    pairs, where the cutoff vanishes at (p, q), but for two points whose
    e^{-x} round to one float)."""
    x, m = support(*u)
    idx = np.searchsorted(state.locations, x)
    inside = np.zeros(state.locations.size, dtype=bool)
    inside[idx] = True
    linked = inside[state.pair_i] & inside[state.pair_j]
    reach = np.full(state.locations.size, -1)
    np.maximum.at(reach, state.pair_i[linked], state.pair_j[linked])
    return _partition(x, m, np.maximum.accumulate(reach)[idx[:-1]] < idx[1:])


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


def _block_pad(nodes: np.ndarray, x: float, gap: float) -> float:
    # a density support is resolved to a grid cell: a block edge at x is padded
    # by the wider cell next to its nearest node, but by less than half the gap
    # to the neighbouring block, so a block's windows never take in its carriers
    i = int(np.argmin(np.abs(nodes - x)))
    return min(np.max(np.diff(nodes[max(i - 1, 0):i + 2])), 0.49 * gap)
