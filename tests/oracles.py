"""Scalar reference paths and paper facts that only the tests state.

The package evaluates the kernel through one batched adaptive quadrature,
``kernel.eval_kernel_batch``.  :func:`eval_kernel` here runs the same
global adaptive bisection of Gauss panels one pair at a time, with the
package's integrand, panel rules and panel budget (``kernel._MAX_PANELS``,
read at call time so a test can shrink it); the batch must give every pair
its bits.  :func:`moment` and :func:`exp_moment` are the power and
exponential moments of atoms or of a density, as a full run records them
for a density, :func:`signed_point_masses` merges the carriers of two
measures as the package did by a loop, and :func:`growth_bound` builds, for a full run made
without the harness, the bound that the harness's
``exp_moment_growth_bound`` check builds.  The
other functions state facts of the paper that no command reaches: the
large-beta concentration of the majorant onto the diagonal, the
beta-scaling maps, the three-way classification of the coupling region,
the decoupling gap and the truncated collision rate.

:func:`kernel_table` and :func:`rate_matrix` are the two screened batches
that the full kernel table and the dense reduced rate matrix ran before
both equations shared one pair builder (``kernel.screened_pairs``), and
:func:`slots` the atom slot list and :func:`table_components` the block
splitter as they were built on the dense matrix.
:func:`dense_rates` is the one place where a test turns an atom state's
rate pairs back into a dense matrix.

:func:`diagonal_series_coefficients` derives the package's literal
diagonal series from exact rationals, and :func:`diagonal_series_value`
and :func:`solve_rho` are the numpy-scalar forms of the diagonal series
and of the band-constant bisection that the package computes on Python
floats, bit for bit.

:func:`picard_solve` is the paper's fixed-point construction of the
regular solutions of the reduced equation for data flat near the origin,
on contraction windows with cumulative Simpson weights
(:func:`_cumulative_simpson`, SciPy's ``cumulative_simpson`` bit for bit).
The package integrates the same node system with DOP853
(``reduced_solver.run_density``), and the tests hold the two together.

:func:`step` and :func:`rk4_run` are the positivity-guarded fixed-step RK4
scheme that integrated the full equation before DOP853 did: every step asks
for ``dt_init``, and a step with a negative density is retried at half the
step, down to ``dt_min``.  The tests hold ``full_solver.run_full`` to it.

:class:`Recorded` keeps every record of a reduced run as one array and
reduces it as the package did before its runs reduced their records as
they streamed: the row sums and :func:`dissipation` in blocks of 512
records, :func:`lyapunov_verdicts` on whole series and
:func:`classify_recorded` with one window mass series per block and per
tail threshold.  :func:`replaying` makes a run reduce given records
instead of integrating, :func:`spying` hands a test the records a run's
reducer was given, and :func:`reduced_columns` feeds records to the
reducer through the run driver alone.
"""

from __future__ import annotations

import contextlib
import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import numpy as np

from comptonsim import _dop853, full_solver, kernel, measure, reduced_solver, truncation
from comptonsim._dop853 import Counts
from comptonsim.kernel import PhysicalParams, diagonal_closed_form, eval_majorant
from comptonsim.reduced_solver import (
    _FLAT_R,
    AtomSystemState,
    NonContraction,
    flatness_certificate,
    pointwise_growth_constant,
)
from comptonsim.truncation import (
    NoRoot,
    TruncationParams,
    _band_ratio,
    _cone_ratio,
    _gamma1_curved,
    eval_cutoff,
    gamma1,
)


def kernel_table(pp: PhysicalParams, tp: TruncationParams, grid, n: int) -> dict:
    """``RegularizedKernel.build`` as it was before the pair builder was
    shared: the pairs i <= j where both tapers are nonzero, screened by one
    cutoff call and evaluated by one ``kernel.eval_kernel_batch`` call.
    Returns the screened ``i``, ``j`` and table values ``vals``, the dense
    ``table``, the kernel's ``pair_i``, ``pair_j`` and ``pair_c``, and
    ``c_star``."""
    xs = grid.nodes
    tx = np.asarray(full_solver.taper(n, xs))
    i, j = np.triu_indices(xs.size)
    on = (tx[i] != 0.0) & (tx[j] != 0.0)
    i, j = i[on], j[on]
    phi = eval_cutoff(tp, xs[i], xs[j])
    on = phi != 0.0
    i, j, phi = i[on], j[on], phi[on]
    B, _ = kernel.eval_kernel_batch(pp, xs[i], xs[j])
    vals = phi * B * tx[i] * tx[j]
    table = np.zeros((xs.size, xs.size))
    table[i, j] = vals
    table[j, i] = vals
    off = (i != j) & (vals != 0.0)
    pair_i, pair_j = i[off], j[off]
    w = grid.weights
    pair_c = vals[off] * (w[pair_i] * w[pair_j])
    c_star = truncation.kernel_bound_constant(xs[i], xs[j], B)
    return dict(i=i, j=j, vals=vals, table=table, pair_i=pair_i, pair_j=pair_j, pair_c=pair_c, c_star=c_star)


def rate_matrix(pp: PhysicalParams, tp: TruncationParams, locations) -> tuple[np.ndarray, float]:
    """The dense physical rate matrix at sorted locations, and its bound
    constant, as the reduced solver built it before its rates became pairs.

    R[i, j] = cutoff * B(x_i, x_j)/(x_i x_j) * (e^{-x_i} - e^{-x_j}) for
    i < j and R[j, i] = -R[i, j], so R is exactly antisymmetric.  One
    vectorized cutoff call picks the pairs of distinct locations where the
    cutoff is nonzero; only those reach ``kernel.eval_kernel_batch``, and
    C_star is calibrated on them.
    """
    x = np.asarray(locations, dtype=float)
    if np.any(np.diff(x) < 0.0):
        raise ValueError("locations must be sorted")
    i, j = np.triu_indices(x.size, 1)
    phi = eval_cutoff(tp, x[i], x[j])
    on = (phi != 0.0) & (x[i] != x[j])
    i, j, phi = i[on], j[on], phi[on]
    B, _ = kernel.eval_kernel_batch(pp, x[i], x[j])
    e = np.array([math.exp(-v) for v in x.tolist()])
    R = np.zeros((x.size, x.size))
    R[i, j] = phi * B / (x[i] * x[j]) * (e[i] - e[j])
    R[j, i] = -R[i, j]
    return R, truncation.kernel_bound_constant(x[i], x[j], B)


def dense_rates(state) -> np.ndarray:
    """An atom state's rate pairs as the dense antisymmetric matrix R,
    filled as the reduced runs' reducer fills it: zeros, then R_ij at each
    pair and R_ji = -R_ij."""
    x, i, j = state.locations, state.pair_i, state.pair_j
    R = np.zeros((x.size, x.size))
    R[i, j] = state.pair_r
    R[j, i] = -R[i, j]
    return R


def table_components(u, locations, R) -> tuple[measure.Component, ...]:
    """The blocks of the support of atom carriers u under the dense rate
    matrix R at ``locations``, as the splitter cut them before the rates
    became pairs: the gap after support atom a splits when the boolean
    submatrix of the support's links has no entry in ``linked[:a, a:]``."""
    x, m = measure.support(*u)
    idx = np.searchsorted(locations, x)
    linked = R[np.ix_(idx, idx)] != 0.0
    return measure._partition(x, m, np.array([not linked[:a, a:].any() for a in range(1, x.size)], dtype=bool))


def slots(R: np.ndarray) -> tuple[np.ndarray, ...]:
    """An atom state's slot list as it was built from the dense R: the
    nonzero upper entries R_ij give a gain slot (row i) and a loss slot
    (row j), sorted by (row, partner); (row, i, j, signed rate)."""
    i, j = np.nonzero(np.triu(R, 1))
    r = R[i, j]
    row, partner = np.concatenate([i, j]), np.concatenate([j, i])
    order = np.lexsort((partner, row))
    return tuple(a[order] for a in (row, np.concatenate([i, i]), np.concatenate([j, j]), np.concatenate([r, -r])))


def step(u: np.ndarray, kern, dt: float, dt_min: float = 1e-8) -> tuple[np.ndarray, float]:
    """One positivity-guarded RK4 step of the full equation; returns (state,
    dt actually used).

    A step producing any negative density is retried with dt halved, down
    to dt_min; persistent negativity raises ``full_solver.StepCollapse``.
    A NaN or infinity in any stage reaches the stepped state, which raises
    ``StepCollapse`` at once instead of being retried.
    """
    u = np.asarray(u, dtype=float)
    rhs = full_solver.collision_rhs
    while True:
        k1 = rhs(u, kern)
        k2 = rhs(u + 0.5 * dt * k1, kern)
        k3 = rhs(u + 0.5 * dt * k2, kern)
        k4 = rhs(u + dt * k3, kern)
        u_next = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(u_next)):
            raise full_solver.StepCollapse(f"non-finite density after a step of dt={dt}")
        if np.all(u_next >= 0.0):
            return u_next, dt
        if dt <= dt_min:
            raise full_solver.StepCollapse(f"negative density persists at dt_min={dt_min}")
        dt = max(0.5 * dt, dt_min)


def rk4_run(u0: np.ndarray, kern, cfg) -> full_solver.TrajectoryRecord:
    """The full run on :func:`step`: the state at t = 0, after every
    ``record_every``-th step of ``dt_init`` (cut to the horizon) and after
    the last, the step times summed as they go.  The columns are computed
    from the recorded densities, 64 states at a time: the mass, X_eta, H
    and the mass on [0, 2 x_min) as dots against the weights, D and the
    one-sided pair count by the run's pair pass; ``nfev`` is 0 (the oracle
    does not count its evaluations)."""
    g, t, steps = u0.copy(), 0.0, 0
    horizon = cfg.t_end * (1.0 - 1e-12)
    times, states = [0.0], [g]
    while t < horizon:
        g, used = step(g, kern, min(cfg.dt_init, cfg.t_end - t))
        t += used
        steps += 1
        if steps % cfg.record_every == 0 or t >= horizon:
            times.append(t)
            states.append(g)
    xs, w = kern.grid.nodes, kern.grid.weights
    window = xs < 2.0 * xs[0]
    columns, one_sided = [], 0
    for lo in range(0, len(states), 64):
        rows = np.array(states[lo:lo + 64])
        d, flags = full_solver._pair_dissipation(kern, rows)
        one_sided += flags
        columns.append((
            rows @ w,
            (rows * np.exp(cfg.eta * xs)) @ w,
            full_solver._entropy_integrand(xs, rows) @ w,
            0.5 * d,
            rows[:, window] @ w[window],
        ))
    columns = (np.concatenate(col, dtype=float) for col in zip(*columns))
    return full_solver.TrajectoryRecord(np.array(times), *columns, final=g, nfev=0, one_sided_pairs=one_sided)


def moment(u, rho: float) -> float:
    """Power moment of order rho of atoms u = (locations, masses), the
    ``math.fsum`` of x^rho m on Python floats (so an atom at the origin has
    mass at order 0, and raises ZeroDivisionError at a negative order), or
    of a density u = (grid, values), the ``np.vecdot`` of u x^rho with the
    node weights: at order 0 the mass of either kind as the package sums it."""
    if isinstance(u[0], measure.Grid):
        grid, density = u
        return float(np.vecdot(density * grid.nodes**rho, grid.weights))
    return math.fsum(x**rho * m for x, m in zip(np.asarray(u[0]).tolist(), np.asarray(u[1]).tolist()))


def exp_moment(u, eta: float) -> float:
    """Exponential moment of atoms or a density (as :func:`moment` takes
    them) with rate eta >= 0; equals the mass at eta = 0, and raises
    OverflowError where ``measure.check_exp_rate`` does."""
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    if eta == 0.0:
        return moment(u, 0.0)
    if isinstance(u[0], measure.Grid):
        grid, density = u
        measure.check_exp_rate(grid.nodes, eta)
        return float(np.vecdot(density * np.exp(eta * grid.nodes), grid.weights))
    measure.check_exp_rate(u[0], eta)
    return math.fsum(m * math.exp(eta * x) for x, m in zip(np.asarray(u[0]).tolist(), np.asarray(u[1]).tolist()))


def signed_point_masses(u, v) -> tuple[np.ndarray, np.ndarray]:
    """``measure._signed_point_masses`` as a loop over the sorted carriers of
    u and of v (v's masses negated), each point within
    ``measure.LOCATION_EPSILON`` of its group's first point added into it."""
    locs = [*np.asarray(u[0]).tolist(), *np.asarray(v[0]).tolist()]
    masses = [*np.asarray(u[1]).tolist(), *(-np.asarray(v[1])).tolist()]
    order = np.argsort(locs)
    keep_locs: list[float] = []
    keep_mass: list[float] = []
    for x, m in zip(np.asarray(locs)[order].tolist(), np.asarray(masses)[order].tolist()):
        if keep_locs and abs(x - keep_locs[-1]) < measure.LOCATION_EPSILON * max(1.0, x):
            keep_mass[-1] += m
        else:
            keep_locs.append(x)
            keep_mass.append(m)
    return np.asarray(keep_locs), np.asarray(keep_mass)


def growth_bound(traj, c_eta: float) -> np.ndarray:
    """e^{C_eta t} X_eta(0) at every record of a full run, with X_eta(0) the
    first recorded X_eta, by the harness's formula (``_growth_bound``)."""
    x0 = float(traj.X_eta[0])
    return np.array([full_solver._growth_bound(c_eta, t, x0) for t in traj.times.tolist()])


@dataclass(frozen=True)
class KernelSample:
    """One kernel evaluation with its quadrature error bound."""

    x: float
    y: float
    value: float
    abs_error_estimate: float


def _panel(a: float, b: float, x: float, y: float, beta: float, m: float) -> tuple[float, float]:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    d2, c = (x - y) ** 2, 2.0 * x * y
    hi_nodes, hi_weights = kernel._GL_HI
    lo_nodes, lo_weights = kernel._GL_LO
    hi = half * float(np.dot(hi_weights, kernel._integrand(mid + half * hi_nodes, d2, c, beta, m)))
    lo = half * float(np.dot(lo_weights, kernel._integrand(mid + half * lo_nodes, d2, c, beta, m)))
    return hi, abs(hi - lo)


def eval_kernel(
    params: PhysicalParams,
    x: float,
    y: float,
    tol: float = 1e-10,
    force_quadrature: bool = False,
) -> KernelSample:
    """Evaluate B(x, y) by adaptive bisection with Gauss panels.

    ``tol`` is a relative tolerance; the returned ``abs_error_estimate``
    satisfies ``abs_error_estimate <= tol * value`` on success.  Raises
    NonConvergence when the budget of ``kernel._MAX_PANELS`` panels does
    not reach it.
    Points with |x - y| < 1e-8 (x + y) are delegated to the diagonal
    closed form unless ``force_quadrature`` is set (the quadrature path is
    regular there too; the flag lets the two paths cross-check each other).
    """
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be positive")
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tol must lie in (0, 1e-3]")
    if not force_quadrature and abs(x - y) < 1e-8 * (x + y):
        value = diagonal_closed_form(params, 0.5 * (x + y))
        return KernelSample(x, y, value, 4.0 * np.finfo(float).eps * value)

    beta, m = params.beta, params.m
    root2 = kernel._SQRT2
    prefactor = math.sqrt(beta) * math.exp(0.5 * (x + y))
    panels: list[tuple[float, float, float, float]] = []
    for a, b in ((0.0, 0.5 * root2), (0.5 * root2, root2)):
        val, err = _panel(a, b, x, y, beta, m)
        panels.append((a, b, val, err))

    while len(panels) < kernel._MAX_PANELS:
        total = sum(p[2] for p in panels)
        total_err = sum(p[3] for p in panels)
        if total_err <= tol * abs(total) or total_err == 0.0:
            return KernelSample(x, y, prefactor * total, prefactor * total_err)
        worst = max(range(len(panels)), key=lambda i: panels[i][3])
        a, b, _, _ = panels.pop(worst)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            val, err = _panel(lo, hi, x, y, beta, m)
            panels.append((lo, hi, val, err))
    raise kernel.NonConvergence(
        f"kernel quadrature at (x={x}, y={y}) did not reach tol={tol} "
        f"within {kernel._MAX_PANELS} panels"
    )


def diagonal_series_coefficients(n_terms: int = 28) -> list[float]:
    """Power series in a = x^2/(4 m beta) of the bracket of
    ``kernel.diagonal_closed_form``, divided by sqrt(2), lowest power
    first: 44/15 - (184/105) a + ...  Each coefficient is an exact rational
    rounded once, so the cancellation between the erf and exp parts stays
    out of it; ``kernel._DIAGONAL_SERIES`` holds these floats in Horner
    order."""
    def erf_part(k: int) -> Fraction:
        if k < 0:
            return Fraction(0)
        return Fraction((-2) ** k, math.factorial(k) * (2 * k + 1))

    def exp_part(k: int) -> Fraction:
        return Fraction((-2) ** k, math.factorial(k))

    out = []
    for n in range(n_terms):
        k = n + 2
        p = 8 * erf_part(k - 2) - 4 * erf_part(k - 1) + 3 * erf_part(k) - 3 * exp_part(k)
        out.append(float(p / 2))
    return out


def diagonal_series_value(params: PhysicalParams, x: float) -> float:
    """The series branch of ``kernel.diagonal_closed_form`` as numpy-scalar
    Horner over :func:`diagonal_series_coefficients`: the package's Python
    float loop must give its bits."""
    a = x * x / (4.0 * params.m * params.beta)
    acc = 0.0
    for c in np.array(diagonal_series_coefficients())[::-1]:
        acc = acc * a + c
    return float(math.sqrt(params.beta) * (math.exp(x) / x) * acc)


def solve_rho(theta: float, delta_star: float) -> float:
    """``truncation.solve_rho`` with its residual on numpy 0-d arrays
    (``truncation._gamma1_curved``) under one ``np.errstate``: the
    package's Python float bisection must give its bits and refuse the
    same inputs with the same messages, for 0 < theta < 1 and
    delta_star > 0."""

    def residual(rho: float) -> float:
        r = float(_gamma1_curved(delta_star, rho)) - theta * delta_star
        if not math.isfinite(r):
            raise NoRoot(f"the band-constant residual overflows at delta_star={delta_star:g}")
        return r

    lo = 0.0
    hi = 1.0 / math.sqrt(delta_star)
    grow = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while residual(hi) > 0.0:
            hi *= 2.0
            grow += 1
            if grow > 60:
                raise NoRoot(f"no band constant for theta={theta}, delta_star={delta_star}")
        if residual(lo) <= 0.0:
            raise NoRoot("residual not positive at rho=0; configuration inconsistent")
        for _ in range(truncation._BISECTION_ITERATIONS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if residual(mid) > 0.0:
                lo = mid
            else:
                hi = mid
    return hi


@dataclass(frozen=True)
class ConcentrationRow:
    beta: float
    integral: float
    limit: float

    @property
    def ratio(self) -> float:
        return self.integral / self.limit


def diagonal_profile(params: PhysicalParams, z: float) -> float:
    """On-diagonal majorant profile: eval_majorant(z/2, z/2) / sqrt(beta).

    This is the density (88/15) e^{z/2} / z that weights the
    diagonal-concentration limit.
    """
    if not (z > 0.0):
        raise ValueError("z must be positive")
    return (88.0 / 15.0) * math.exp(0.5 * z) / z


def scale_to_dimensionless(
    params: PhysicalParams, t_phys: float, k_phys: float, f_value: float
) -> tuple[float, float, float]:
    """Map physical (t, k, f) to scaled (tau, x, u) with tau = beta^3 t,
    x = beta k, u = x^2 f."""
    beta = params.beta
    tau = beta**3 * t_phys
    x = beta * k_phys
    return tau, x, x * x * f_value


def scale_from_dimensionless(
    params: PhysicalParams, tau: float, x: float, u_value: float
) -> tuple[float, float, float]:
    """Exact inverse of scale_to_dimensionless."""
    beta = params.beta
    k = x / beta
    return tau / beta**3, k, u_value / (x * x)


def scale_measure(
    params: PhysicalParams, k_nodes: np.ndarray, v_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Push a grid density v(k) dk forward to the scaled axis x = beta k.

    The Jacobian factor 1/beta makes the particle number a shared invariant
    of the two grids: trapezoid quadrature of the result on beta*k equals
    the quadrature of v on k identically.
    """
    k_nodes = np.asarray(k_nodes, dtype=float)
    v_values = np.asarray(v_values, dtype=float)
    return params.beta * k_nodes, v_values / params.beta


def concentration_limit(params: PhysicalParams, phi, support: tuple[float, float]) -> float:
    """Target value of the diagonal-concentration integral as beta -> infinity:

        (88/15) sqrt(m pi / 2) erf(1) * int phi(z/2, z/2) e^{z/2} dz,

    by a 400-point Gauss-Legendre rule.
    """
    zs, wz = np.polynomial.legendre.leggauss(400)
    lo, hi = 2.0 * support[0], 2.0 * support[1]
    z = 0.5 * (hi + lo) + 0.5 * (hi - lo) * zs
    vals = np.array([phi(0.5 * zz, 0.5 * zz) for zz in z])
    integral = 0.5 * (hi - lo) * float(np.dot(wz, vals * np.exp(0.5 * z)))
    return (88.0 / 15.0) * math.sqrt(params.m * math.pi / 2.0) * math.erf(1.0) * integral


def diagonal_concentration_check(
    params: PhysicalParams,
    phi,
    beta_list: list[float],
    support: tuple[float, float],
) -> list[ConcentrationRow]:
    """Large-beta concentration of the majorant onto the diagonal.

    For each beta, integrates phi(x, y) * cutoff * majorant over the band
    where the Gaussian variable z1 = sqrt(beta m / 2) (x - y)/(x + y) lies
    in [-1, 1], and reports the value against concentration_limit.  The
    unit window in z1 is what produces the erf(1) factor of the limit.
    Ratios must approach 1 from below as beta grows.  Both integrals use
    200-point Gauss-Legendre rules.
    """
    if sorted(beta_list) != list(beta_list):
        raise ValueError("beta_list must be increasing")
    m = params.m
    zeta_nodes, zeta_w = xi_nodes, xi_w = np.polynomial.legendre.leggauss(200)
    lo, hi = 2.0 * support[0], 2.0 * support[1]

    rows = []
    for beta in beta_list:
        p = PhysicalParams(beta=beta, m=m)
        zeta = 0.5 * (hi + lo) + 0.5 * (hi - lo) * zeta_nodes
        total = 0.0
        for zz, wz in zip(zeta, zeta_w):
            half_width = math.sqrt(2.0 / (beta * m)) * zz
            xi = half_width * xi_nodes
            vals = 0.0
            for xx, wx in zip(xi, xi_w):
                xv = 0.5 * (zz + xx)
                yv = 0.5 * (zz - xx)
                if xv <= 0.0 or yv <= 0.0:
                    continue
                f = phi(xv, yv)
                if f != 0.0:
                    vals += wx * f * eval_majorant(p, xv, yv)
            # 1/2 from dx dy = (1/2) dxi dzeta
            total += wz * 0.5 * half_width * vals
        total *= 0.5 * (hi - lo)
        rows.append(ConcentrationRow(beta=beta, integral=total, limit=concentration_limit(p, phi, support)))
    return rows


class Region(enum.Enum):
    INSIDE_D1 = "inside_d1"
    TRANSITION = "transition"
    OUTSIDE = "outside"


def z_gap(tp: TruncationParams, x):
    """Minimal separation x - gamma1(x) enforced between decoupled sets.

    Strictly increasing from z_gap(0) = 0.
    """
    return x - gamma1(tp, x)


def in_support(tp: TruncationParams, x: float, y: float) -> Region:
    """Classify a point against the cutoff's plateau and support.

    INSIDE_D1 means the cutoff equals 1; OUTSIDE means the point lies
    strictly outside the closed support; TRANSITION covers the rest,
    including the support boundary where the cutoff is 0.
    """
    if x < 0.0 or y < 0.0:
        raise ValueError("energies must be nonnegative")
    in_box = x <= tp.delta_star and y <= tp.delta_star
    if in_box:
        s = float(_band_ratio(x, y))
        if s <= tp.rho1:
            return Region.INSIDE_D1
        if s <= tp.rho_star:
            return Region.TRANSITION
        return Region.OUTSIDE
    r = float(_cone_ratio(x, y))
    if r >= tp.theta1:
        return Region.INSIDE_D1
    if r >= tp.theta:
        return Region.TRANSITION
    return Region.OUTSIDE


def truncated_kernel(
    pp: PhysicalParams,
    tp: TruncationParams,
    x: float,
    y: float,
    tol: float = 1e-10,
) -> float:
    """Collision rate density cutoff * B(x, y) / (x y).

    Returns 0 without evaluating the kernel when (x, y) is outside the
    cutoff support.
    """
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be positive")
    phi = eval_cutoff(tp, x, y)
    if phi == 0.0:
        return 0.0
    return phi * eval_kernel(pp, x, y, tol).value / (x * y)


# The fixed point's tolerance, its first window length and the iterations
# per window before it counts as not contracting; read at call time, so a
# test can change them.
_PICARD_TOL = 1e-12
_FIRST_WINDOW = 0.25
_MAX_ITERATIONS = 200


@dataclass
class FixedPointTrajectory:
    """A fixed-point run's recorded densities on its grid, the rate matrix
    at the nodes, the constant C0 of the pointwise envelope, and its number
    of accepted windows."""

    grid: object
    times: np.ndarray
    states: np.ndarray  # shape (len(times), n_nodes)
    rate_grid: np.ndarray
    growth_constant: float
    window_count: int


def picard_solve(
    grid: measure.Grid,
    u0: np.ndarray,
    pp: PhysicalParams,
    tp: TruncationParams,
    t_end: float,
    eta: float,
    dt: float = 1e-3,
) -> FixedPointTrajectory:
    """Solve the reduced equation for flat integrable data by fixed point.

    On each time window, the first ``_FIRST_WINDOW`` (0.25) long, the
    exponential representation u(t) = u(t0) * exp(cumulative integral of
    the paired rate) is iterated to ``_PICARD_TOL`` (1e-12) in the
    origin-weighted L1 norm, for at most ``_MAX_ITERATIONS`` (200)
    iterations; windows are halved on non-contraction (NonContraction
    below a minimal window).  The flatness
    certificate is checked up front, as ``run_density`` checks it.  A
    window iterates in buffers allocated once for it, and each accepted
    window writes its rows into one preallocated array of states, grown
    when halved windows need more rows.
    """
    for name, value in (("t_end", t_end), ("dt", dt)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")
    if np.shape(u0) != grid.nodes.shape:
        raise ValueError("the density must be on the grid")
    if eta <= 0.5 * (1.0 - tp.theta):
        raise ValueError("eta must exceed (1 - theta)/2")
    _, x_eta0 = flatness_certificate(grid, u0, _FLAT_R, eta)
    rate_grid, c_star = rate_matrix(pp, tp, grid.nodes)
    c0 = pointwise_growth_constant(tp, c_star, x_eta0)

    w = grid.weights
    norm_weight = w * (1.0 + grid.nodes**-1.5)  # origin-sensitive L1 weight
    paired = rate_grid * w[None, :]  # paired[i, j] u_j = rate of log-growth at i

    def rows_left(t_left: float, window: float) -> int:
        # a window of length L adds max(1, ceil(L/dt)) <= L/dt + 1 rows
        return math.ceil(t_left / dt) + math.ceil(t_left / window) + 1

    t0 = 0.0
    u_start = u0.copy()
    window_count = 0
    min_window = max(4.0 * dt, t_end * 1e-6)
    current_window = min(_FIRST_WINDOW, t_end)
    times = np.empty(1 + rows_left(t_end, current_window))
    states = np.empty((times.size, grid.n))
    times[0] = 0.0
    states[0] = u0
    count = 1
    while t0 < t_end - 1e-12 * t_end:
        length = min(current_window, t_end - t0)
        n_nodes = max(2, int(math.ceil(length / dt)) + 1)
        local_t = np.linspace(0.0, length, n_nodes)
        cumulative = _cumulative_simpson(local_t)
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
            if err <= _PICARD_TOL:
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
    return FixedPointTrajectory(
        grid=grid,
        times=times[:count],
        states=states[:count],
        rate_grid=rate_grid,
        growth_constant=c0,
        window_count=window_count,
    )


def _cumulative_simpson(t: np.ndarray):
    """``y -> cumulative_simpson(y, x=t, axis=0, initial=0.0)`` for a fixed
    increasing t, bit for bit, with its weights computed once.

    Interval i is integrated over (t_i, t_{i+1}, t_{i+2}) when i is even and
    not the last interval, else over (t_{i+1}, t_i, t_{i-1}): SciPy's
    interleaving of its h1 and h2 sub-integrals, with its unequal-interval
    coefficients in its order of operations (SciPy, BSD-3-Clause; the
    notice is in ``comptonsim._dop853``).  Two nodes take SciPy's trapezoid
    branch.  ``cumulative(y, out)`` writes into ``out`` when given, and the
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


# ---------------------------------------------------------------------------
# a reduced run's record array, and its reductions as they were made on it


class Recorded:
    """Every record of a reduced run as one (n_record, N) array, and the
    series and verdicts as the package computed them from it before its
    runs reduced their records as they streamed.

    ``U`` holds the clipped records: masses at the locations ``x`` for
    atoms (``w`` None), densities at the grid nodes for a density run
    (``w`` the node weights).  ``R`` is the rate matrix at x; an atom run
    also has its ``state0``, a density run its ``grid``.
    """

    _ROWS = 512

    def __init__(self, times, U, x, R, w=None, state0=None, grid=None):
        self.times, self.U, self.x, self.R, self.w = times, U, x, R, w
        self.state0, self.grid = state0, grid

    @classmethod
    def of_records(cls, times, records, state0, grid=None):
        """From raw records of masses, as DOP853 emits them: clipped at
        zero, and divided by the node weights for a density run."""
        U = np.clip(records, 0.0, None)
        if grid is None:
            return cls(times, U, state0.locations, dense_rates(state0), state0=state0)
        return cls(times, U / grid.weights, grid.nodes, dense_rates(state0), w=grid.weights, grid=grid)

    def _row_sums(self, f=None, a=0, b=None):
        U, w = self.U, self.w
        c = w if f is None else (f if w is None else w * f)
        out = np.empty(len(U))
        for lo in range(0, len(U), self._ROWS):
            rows = U[lo:lo + self._ROWS, a:b]
            np.sum(rows if c is None else rows * c[a:b], axis=1, out=out[lo:lo + self._ROWS])
        return out

    def mass_series(self):
        return self._row_sums()

    def moment_series(self, alpha):
        return self._row_sums(self.x ** alpha)

    def exp_moment_series(self, eta):
        return self._row_sums(np.exp(eta * self.x))

    def dissipation_series(self, alpha):
        return dissipation(self.R, self.x, self.U, alpha, self.w)

    def window_mass_series(self, lo, hi=math.inf):
        x = self.x
        return self._row_sums(a=int(np.searchsorted(x, lo, side="left")), b=int(np.searchsorted(x, hi, side="right")))

    def state_at(self, idx):
        if self.grid is None:
            return measure.atom_carriers(self.x, self.U[idx])
        return measure.node_carriers(self.grid, self.U[idx])


def dissipation(R, x, U, alpha, weights=None):
    """sum_ij R_ij (x_i^alpha - x_j^alpha) V_i V_j of each row V of U (or of
    U * weights) in blocks of 512 rows, the last one taking the remainder."""
    rows = Recorded._ROWS
    W = R * (x[:, None] ** alpha - x[None, :] ** alpha)
    bounds = [k * rows for k in range(max(len(U) // rows, 1))] + [len(U)]
    out = np.empty(len(U))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        V = U[lo:hi] if weights is None else U[lo:hi] * weights
        np.einsum("ti,ti->t", V @ W, V, out=out[lo:hi])
    return out


def lyapunov_verdicts(t, moments, dissipations, x_series):
    """The Lyapunov check on whole series, with every temporary the size
    of a series: (monotone by order, max balance error by order, whether
    the exponential moment is nonincreasing)."""
    h1, h2 = np.diff(t)[:-1], np.diff(t)[1:]
    span = h1 + h2
    monotone, balance = {}, {}
    for alpha, moment in moments.items():
        scale = max(abs(moment[0]), 1e-300)
        monotone[alpha] = bool(np.all(np.diff(moment) <= 1e-12 * scale))
        if alpha in dissipations:
            half_d = 0.5 * dissipations[alpha]
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
    exp_monotone = bool(np.all(np.diff(x_series) <= 1e-12 * abs(x_series[0])))
    return monotone, balance, exp_monotone


def classify_recorded(rec: Recorded, tp, limit_tol=1e-8, stationarity_window=1.0):
    """``classify_limit`` as it was on the record array: the stationarity
    gap, the limit atoms and one window mass series per initial block and
    per tail threshold."""
    rs = reduced_solver
    t = np.asarray(rec.times)
    if t[-1] - t[0] < stationarity_window:
        raise rs.NotConverged("trajectory shorter than the stationarity window")
    idx_prev = min(int(np.searchsorted(t, t[-1] - stationarity_window)), len(t) - 2)
    final = rec.state_at(len(t) - 1)
    stationarity_gap = measure.bl_distance(rec.state_at(idx_prev), final)
    if stationarity_gap >= limit_tol:
        raise rs.NotConverged(
            f"bounded-Lipschitz stationarity gap {stationarity_gap:.3e} >= {limit_tol:.1e} at t={t[-1]}"
        )
    initial = rec.state_at(0)
    total0 = math.fsum(initial[1]) if rec.grid is None else float(np.vecdot(rec.U[0], rec.w))
    support0 = measure.support(*initial)[0].tolist()
    if rec.grid is None:
        blocks = table_components(initial, rec.x, rec.R)
        limit_atoms = list(zip(*(a.tolist() for a in measure.support(*final))))
        at = np.searchsorted(rec.x, [x for x, _ in limit_atoms])
        pairwise = not np.any(rec.R[np.ix_(at, at)])
        tols = [rs._LIMIT_LOCATION_TOL * max(1.0, max(support0, default=1.0))] * len(limit_atoms)
        pad = lambda x, gap: 0.0
    else:
        blocks = measure.components(initial, tp)
        limit_atoms = [
            (c.points[0], c.mass) if len(c.points) == 1
            else (float(np.dot(c.points, c.masses) / np.sum(c.masses)), float(np.sum(c.masses)))
            for c in measure.components(final, tp)
        ]
        locs = np.array([x for x, _ in limit_atoms])
        i, j = np.triu_indices(locs.size, 1)
        pairwise = not np.any(eval_cutoff(tp, locs[i], locs[j]))
        nodes = rec.grid.nodes
        cell = 1.5 * np.max(np.diff(nodes))
        tols = [max(rs._LIMIT_LOCATION_TOL * max(1.0, x), cell) for x, _ in limit_atoms]
        pad = lambda x, gap: rs._block_pad(nodes, x, gap)
    in_support0 = all(any(abs(x - s) <= tol for s in support0) for (x, _), tol in zip(limit_atoms, tols))
    mass_scale = max(total0, 1e-300)
    mass_tol = rs._LIMIT_MASS_TOL * mass_scale
    drift_tol = 10.0 * rs._LIMIT_MASS_TOL * mass_scale
    mass_table, minima = [], []
    mass_ok = leftmost_ok = conservation_ok = True
    for k, comp in enumerate(blocks):
        lo, hi, mass = comp.min_point, comp.max_point, comp.mass
        pad_lo = pad(lo, lo - blocks[k - 1].max_point if k > 0 else math.inf)
        pad_hi = pad(hi, blocks[k + 1].min_point - hi if k + 1 < len(blocks) else math.inf)
        slack_lo = pad_lo + rs._LIMIT_LOCATION_TOL * max(1.0, lo)
        slack_hi = pad_hi + rs._LIMIT_LOCATION_TOL * max(1.0, hi)
        in_block = [(x, m) for x, m in limit_atoms if lo - slack_lo <= x <= hi + slack_hi]
        limit_mass = math.fsum(m for _, m in in_block)
        mass_table.append((mass, limit_mass))
        minima.append(lo)
        if abs(limit_mass - mass) > mass_tol:
            mass_ok = False
        if lo > 0.0 and mass > mass_tol and not any(abs(x - lo) <= slack_lo for x, _ in in_block):
            leftmost_ok = False
        series = rec.window_mass_series(lo - pad_lo, hi + pad_hi)
        if np.any(np.abs(series - mass) > drift_tol):
            conservation_ok = False
    r_values = rs._quantiles(support0, np.linspace(0.05, 0.95, 10)) if support0 else ()
    queue_ok = not any(np.any(np.diff(rec.window_mass_series(float(r))) > 1e-12 * max(total0, 1.0)) for r in r_values)
    return rs.LimitClassification(
        atoms=tuple(limit_atoms),
        initial_component_masses=tuple(m for m, _ in mass_table),
        initial_component_minima=tuple(minima),
        component_mass_table=tuple(mass_table),
        in_initial_support=in_support0,
        pairwise_decoupled=pairwise,
        mass_sums_ok=mass_ok,
        leftmost_ok=leftmost_ok,
        component_conservation_ok=conservation_ok,
        queue_monotone=queue_ok,
        stationarity_gap=stationarity_gap,
    )


def dense_blocks(n_record: int, n: int) -> list[tuple[int, int]]:
    """The (lo, hi) record ranges of the blocks in which ``dop853`` emits
    n_record records of n floats: max(3, ``_DENSE_FLOATS`` // n) records
    each, the last block taking the remainder."""
    rows = max(3, _dop853._DENSE_FLOATS // n)
    bounds = [k * rows for k in range(max(n_record // rows, 1))] + [n_record]
    return list(zip(bounds[:-1], bounds[1:]))


def emitting(records):
    """A stand-in for ``dop853`` that integrates nothing: it hands
    ``records`` (one row of masses per requested time) to ``emit`` in
    dop853's blocks (:func:`dense_blocks`), each through a buffer that the
    next block overwrites, and returns no step counts.  Record 0 is the
    initial state y0, as DOP853 emits it."""
    def fake(fun, t0, t_bound, y0, t_eval, rtol, atol, emit):
        assert len(records) == t_eval.size
        blocks = dense_blocks(*np.shape(records))
        buf = np.empty((blocks[-1][1] - blocks[-1][0], np.shape(records)[1]))
        for lo, hi in blocks:
            rows = buf[:hi - lo]
            rows[...] = records[lo:hi]
            if lo == 0:
                rows[0] = y0
            emit(t_eval[lo:hi], rows)
        return Counts(0, 0, 0)
    return fake


@contextlib.contextmanager
def replaying(records):
    """Runs inside the block reduce ``records`` instead of integrating
    (:func:`emitting`)."""
    with mock.patch.object(_dop853, "dop853", emitting(records)):
        yield


def replayed_atoms(state0, records, t_end=None, **kwargs):
    """``run_atoms`` of ``records`` at equally spaced times to t_end (by
    default len(records) - 1)."""
    t_end = float(len(records) - 1) if t_end is None else t_end
    with replaying(records):
        return reduced_solver.run_atoms(state0, t_end, n_record=len(records), **kwargs)


def replayed_density(grid, u0, pp, tp, densities, **kwargs):
    """``run_density`` from u0 on ``grid`` of records whose densities are
    ``densities``, one a unit of time apart (the records are their node masses)."""
    records = np.asarray(densities) * grid.weights
    with replaying(records):
        return reduced_solver.run_density(grid, u0, pp, tp, t_end=float(len(records) - 1), dt=1.0, **kwargs)


@contextlib.contextmanager
def spying():
    """The records a run's reducer is handed, joined after the run: the
    list holds one (n_record, N) array of masses, as DOP853 emitted them."""
    blocks, joined = [], []
    real = _dop853.dop853

    def spy(fun, t0, t_bound, y0, t_eval, rtol, atol, emit):
        def keep(t, y):
            blocks.append(y.copy())
            emit(t, y)
        counts = real(fun, t0, t_bound, y0, t_eval, rtol, atol, keep)
        joined.append(np.concatenate(blocks))
        return counts

    with mock.patch.object(_dop853, "dop853", spy):
        yield joined


def reduced_columns(x, R, records, eta, weights=None) -> dict:
    """The columns a run's reducer makes of ``records`` (rows of masses at
    the points x, with the rate matrix R), handed to it by the run driver
    in ``dop853``'s blocks; the columns of densities when node ``weights``
    are given."""
    state = AtomSystemState.from_table(x, np.zeros(len(x)), R)
    reducer = reduced_solver._Reducer(state, len(records), weights, eta, ())
    with replaying(records):
        _dop853.integrate(None, records[0], np.arange(float(len(records))), None, reducer.reduce)
    return reducer.columns
