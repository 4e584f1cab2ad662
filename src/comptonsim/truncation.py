"""Truncation geometry: the coupling region, its boundary curves, the cutoff.

The kernel is cut to zero outside a closed region of the (x, y) quadrant
made of a curved band |x - y| <= rho * sqrt(x y (x + y)) inside the box
[0, delta_star]^2 and a cone theta x <= y <= x/theta outside it.  The band
constant rho is solved so the two boundary pieces join continuously.  The
cutoff function is 1 on a strictly smaller region of the same shape
(parameters theta1, rho1), ramps linearly to 0 at the region boundary, and
is symmetric and continuous away from the origin.

Stronger small-energy truncations (bands shrinking like the square of the
energy rather than like energy^{3/2}) would fit the same interface; only
the band-plus-cone geometry above is implemented.

The module does not evaluate the kernel.  The pair builder of both
equations, ``kernel.screened_pairs``, screens pairs with one vectorized
:func:`eval_cutoff` call, evaluates B only where the cutoff is nonzero, and
calibrates the kernel bound on those values with
:func:`kernel_bound_constant`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoRoot",
    "TruncationParams",
    "solve_rho",
    "gamma1",
    "gamma2",
    "eval_cutoff",
    "kernel_bound_constant",
]


class NoRoot(ValueError):
    """The band-constant solve found no admissible root: the truncation
    parameters are invalid input, refused like any other bad value."""


_BISECTION_ITERATIONS = 200


def _gamma1_curved(x, rho: float):
    # Lower branch of |x - y| = rho sqrt(x y (x + y)), rationalized so it
    # stays stable through rho^2 x = 1 and exact at x = 0.
    x = np.asarray(x, dtype=float)
    root = rho * x**1.5 * np.sqrt(rho * rho * x + 8.0)
    with np.errstate(invalid="ignore"):
        out = np.where(x > 0.0, 2.0 * x * x / (2.0 * x + rho * rho * x * x + root), 0.0)
    return out


def solve_rho(theta: float, delta_star: float) -> float:
    """Band constant making the curved and cone boundaries continuous.

    Bisection on the residual gamma1(delta_star; rho) - theta*delta_star,
    which is strictly decreasing in rho; the bracket is expanded upward
    until the residual changes sign.  Raises NoRoot if the bracket cannot
    be established, the residual is not monotone across it, or it is not
    finite (a delta_star from about 1e154 on, or a subnormal one).

    The residual is ``_gamma1_curved``'s formula on Python floats, with the
    same operations in the same order, so rho gets the bits of the numpy
    version.  Its one power, delta_star ** 1.5, is numpy's and taken once:
    numpy's power and libm's ``pow`` round differently on some arguments.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    if not (delta_star > 0.0):
        raise ValueError("delta_star must be positive")
    x = float(delta_star)
    with np.errstate(over="ignore"):  # a residual that overflows is refused below
        x15 = float(np.asarray(x) ** 1.5)
    target = theta * x

    def residual(rho: float) -> float:
        root = rho * x15 * math.sqrt(rho * rho * x + 8.0)
        r = 2.0 * x * x / (2.0 * x + rho * rho * x * x + root) - target
        if not math.isfinite(r):
            raise NoRoot(f"the band-constant residual overflows at delta_star={delta_star:g}")
        return r

    lo = 0.0
    hi = 1.0 / math.sqrt(x)
    grow = 0
    while residual(hi) > 0.0:
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise NoRoot(f"no band constant for theta={theta}, delta_star={delta_star}")
    if residual(lo) <= 0.0:
        raise NoRoot("residual not positive at rho=0; configuration inconsistent")
    for _ in range(_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if residual(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class TruncationParams:
    """Region parameters with the solved band constants.

    Use :meth:`solve` to construct from (theta, delta_star, theta1); the
    direct constructor expects already-consistent rho values.
    """

    theta: float
    delta_star: float
    theta1: float
    rho_star: float
    rho1: float

    def __post_init__(self) -> None:
        if not (0.0 < self.theta < self.theta1 < 1.0):
            raise ValueError("need 0 < theta < theta1 < 1")
        if not (self.delta_star > 0.0):
            raise ValueError("delta_star must be positive")
        if not (self.rho1 < self.rho_star):  # eval_cutoff's band ramp divides by rho_star - rho1
            raise ValueError(f"need rho1 < rho_star; got rho1={self.rho1:g}, rho_star={self.rho_star:g}")
        # The upper curved branch is used on [0, theta*delta_star]; its
        # denominator must stay positive there.
        if not (self.rho_star**2 * self.theta * self.delta_star < 1.0):
            raise ValueError("rho_star^2 * theta * delta_star must be < 1")
        for rho, th in ((self.rho_star, self.theta), (self.rho1, self.theta1)):
            resid = abs(float(_gamma1_curved(self.delta_star, rho)) - th * self.delta_star)
            if resid > 1e-10 * self.delta_star:
                raise ValueError("band constants do not join the boundary curves continuously")

    @classmethod
    def solve(cls, theta: float, delta_star: float, theta1: float) -> "TruncationParams":
        if not (0.0 < theta < theta1 < 1.0):
            raise ValueError("need 0 < theta < theta1 < 1")
        return cls(
            theta=theta,
            delta_star=delta_star,
            theta1=theta1,
            rho_star=solve_rho(theta, delta_star),
            rho1=solve_rho(theta1, delta_star),
        )


def gamma1(tp: TruncationParams, x):
    """Lower boundary of the coupling region."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > tp.delta_star, tp.theta * x, _gamma1_curved(x, tp.rho_star))
    return float(out) if out.ndim == 0 else out


def gamma2(tp: TruncationParams, x):
    """Upper boundary of the coupling region."""
    x = np.asarray(x, dtype=float)
    rho = tp.rho_star
    cut = tp.theta * tp.delta_star
    xc = np.minimum(x, cut)  # keep the curved formula's denominator positive
    root = rho * xc**1.5 * np.sqrt(rho * rho * xc + 8.0)
    curved = np.where(
        xc > 0.0,
        (2.0 * xc + rho * rho * xc * xc + root) / (2.0 * (1.0 - rho * rho * xc)),
        0.0,
    )
    out = np.where(x > cut, x / tp.theta, curved)
    return float(out) if out.ndim == 0 else out


def _band_ratio(x, y):
    # |x - y| / sqrt(x y (x + y)); +inf on the axes, 0 at the origin corner
    # handled by callers.
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    prod = x * y * (x + y)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.abs(x - y) / np.sqrt(prod)
    return np.where(prod > 0.0, s, np.where(np.abs(x - y) > 0.0, np.inf, 0.0))


def _cone_ratio(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    hi = np.maximum(x, y)
    with np.errstate(invalid="ignore"):
        r = np.minimum(x, y) / hi
    return np.where(hi > 0.0, r, 1.0)


def eval_cutoff(tp: TruncationParams, x, y):
    """Continuous symmetric cutoff: 1 on the inner region, 0 off the support.

    Two linear ramps, one in the band ratio |x-y|/sqrt(xy(x+y)) and one in
    the cone ratio min/max, are combined by a pointwise minimum.  Each ramp
    alone matches the required plateau and support inside its own region;
    the minimum glues them continuously across the box boundary.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if np.any((x_arr == 0.0) & (y_arr == 0.0)):
        raise ValueError("cutoff is undefined at the origin")
    s = _band_ratio(x_arr, y_arr)
    band = np.clip((tp.rho_star - s) / (tp.rho_star - tp.rho1), 0.0, 1.0)
    r = _cone_ratio(x_arr, y_arr)
    cone = np.clip((r - tp.theta) / (tp.theta1 - tp.theta), 0.0, 1.0)
    out = np.minimum(band, cone)
    return float(out) if out.ndim == 0 else out


def kernel_bound_constant(table_x, table_y, table_B) -> float:
    """Calibrate the constant bounding B(x,y) (x+y) e^{-(x+y)/2} over a table.

    The theory only asserts existence of such a constant; numerically it is
    taken as the empirical supremum over the evaluated pairs, so the bound
    it enters holds on those pairs by construction.
    """
    s = np.asarray(table_x, dtype=float) + np.asarray(table_y, dtype=float)
    vals = np.asarray(table_B, dtype=float) * s * np.exp(-0.5 * s)
    return float(np.max(vals)) if vals.size else 0.0
