"""Scalar reference paths and paper facts that only the tests state.

The package evaluates the kernel through one batched adaptive quadrature,
``kernel.eval_kernel_batch``.  :func:`eval_kernel` here runs the same
global adaptive bisection of Gauss panels one pair at a time, with the
package's integrand, panel rules and panel budget (``kernel._MAX_PANELS``,
read at call time so a test can shrink it); the batch must give every pair
its bits.  :func:`exp_moment` is the one-measure form of the exponential
moment that a full run records per block of states, and
:func:`growth_bound` builds, for a full run made without the harness, the
bound that the harness's ``exp_moment_growth_bound`` check builds.  The
other functions state facts of the paper that no command reaches: the
large-beta concentration of the majorant onto the diagonal, the
beta-scaling maps, the three-way classification of the coupling region,
the decoupling gap and the truncated collision rate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from comptonsim import full_solver, kernel, measure
from comptonsim.kernel import PhysicalParams, diagonal_closed_form, eval_majorant
from comptonsim.truncation import TruncationParams, _band_ratio, _cone_ratio, eval_cutoff, gamma1


def exp_moment(u, eta: float) -> float:
    """Exponential moment of one measure with rate eta >= 0; equals the mass at eta = 0."""
    return float(measure._exp_moment_rows(u.atoms, u.grid, u.density, eta))


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
