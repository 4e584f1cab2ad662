"""Photon redistribution kernel: evaluation, bounds, antidiagonal sign.

The kernel B(x, y) gives the rate density at which a photon of energy x is
redistributed to energy y by scattering off a thermal electron bath with
inverse temperature beta and electron mass m (both dimensionless after
scaling).  It is defined by an angular integral over the scattering angle;
this module evaluates it by adaptive Gauss quadrature, and provides the
exact error-function closed form on the diagonal, pointwise majorants and
the antidiagonal sign structure.

:func:`eval_kernel_batch`, which every pair list and CSV dump uses,
integrates each pair by global adaptive bisection of Gauss panels, running
the bisection of many pairs side by side with one vectorized integrand
call per round.  It is the package's one quadrature; the tests hold a
scalar loop over the same panels as its reference.  :func:`screened_pairs`
is the pair builder of both equations' kernel table and rate pairs.

The Gauss-Legendre rules and the diagonal series coefficients are literal
floats, so importing the module computes neither: it loads no
``numpy.polynomial`` or ``fractions`` and makes no LAPACK call.  The tests
hold the rules to ``leggauss`` and derive the coefficients from exact
rationals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .truncation import TruncationParams, eval_cutoff, kernel_bound_constant

__all__ = [
    "PhysicalParams",
    "MonotonicityReport",
    "NonConvergence",
    "eval_kernel_batch",
    "screened_pairs",
    "diagonal_closed_form",
    "eval_majorant",
    "peak_bound",
    "verify_antidiagonal_monotonicity",
]


class NonConvergence(RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget."""


@dataclass(frozen=True)
class PhysicalParams:
    """Inverse temperature and electron mass entering the kernel."""

    beta: float = 1.0
    m: float = 1.0

    def __post_init__(self) -> None:
        if not (self.beta > 0.0):
            raise ValueError("beta must be positive")
        if not (self.m > 0.0):
            raise ValueError("m must be positive")


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of the antidiagonal sign check over a sample set."""

    checked: int
    violations: list[tuple[float, float, float]]

    @property
    def passed(self) -> bool:
        return not self.violations


# Gauss-Legendre panel rules, (nodes, weights): the values that
# np.polynomial.legendre.leggauss(10) and (20) return, written out so that
# no import loads numpy.polynomial or makes its eigenvalue call.  The
# coarse rule gives the error estimate.
_GL_LO = (
    np.array([
        -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
        -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
        0.8650633666889845, 0.9739065285171717,
    ]),
    np.array([
        0.06667134430868814, 0.1494513491505804, 0.219086362515982, 0.2692667193099965,
        0.2955242247147528, 0.2955242247147528, 0.2692667193099965, 0.219086362515982,
        0.1494513491505804, 0.06667134430868814,
    ]),
)
_GL_HI = (
    np.array([
        -0.993128599185095, -0.9639719272779138, -0.912234428251326, -0.8391169718222188,
        -0.7463319064601508, -0.636053680726515, -0.5108670019508271, -0.37370608871541955,
        -0.22778585114164507, -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
        0.37370608871541955, 0.5108670019508271, 0.636053680726515, 0.7463319064601508,
        0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095,
    ]),
    np.array([
        0.017614007139150893, 0.040601429800386446, 0.06267204833410879, 0.08327674157670471,
        0.1019301198172407, 0.1181945319615186, 0.1316886384491769, 0.1420961093183824,
        0.14917298647260424, 0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
        0.1420961093183824, 0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
        0.08327674157670471, 0.06267204833410879, 0.040601429800386446, 0.017614007139150893,
    ]),
)

_SQRT2 = math.sqrt(2.0)

# Threshold on a = x^2/(4 m beta) below which the diagonal closed form
# switches from the erf expression (cancellation-prone as a -> 0) to its
# power series.  Both branches agree to ~1e-15 at the seam.
_DIAGONAL_SERIES_CUTOFF = 0.25

# Power series in a of the bracket in diagonal_closed_form, divided by
# sqrt(2): 28 coefficients, highest power first (Horner order), ending
# 44/15 - (184/105) a.  Each is the float nearest an exact rational, so the
# heavy cancellation between the erf and exp parts stays out of the
# coefficients themselves; tests/oracles.py derives them from fractions.
_DIAGONAL_SERIES = (
    -8.378029929629641e-22, 1.1709443418588703e-20, -1.577920020451412e-19, 2.0473232825068595e-18,
    -2.5538259438130274e-17, 3.0577138889046406e-16, -3.5078415016380783e-15, 3.848478129438273e-14,
    -4.029343061725647e-13, 4.016762164983196e-12, -3.802869678564686e-11, 3.409701295589658e-10,
    -2.8861925570212446e-09, 2.298292151643184e-08, -1.7148362131585375e-07, 1.1934436228462055e-06,
    -7.706748232781513e-06, 4.5897736442940035e-05, -0.00025029985438252485, 0.0012393261398126502,
    -0.005514439694006257, 0.021773085302497067, -0.07508935508935509, 0.22170422170422172,
    -0.5464165464165465, 1.092063492063492, -1.7523809523809524, 2.933333333333333,
)
# The diagonal closed form's error bound, relative to its value.
_DIAGONAL_REL_ERR = 4.0 * float(np.finfo(float).eps)


def _integrand(s: np.ndarray, d2, c, beta: float, m: float) -> np.ndarray:
    # Angular integrand after the substitution s = sqrt(1 - cos(angle)),
    # which removes the integrable spike at s = 0 when x ~ y.  It takes
    # d2 = (x - y)^2 and c = 2 x y: Python floats for one pair (the tests'
    # scalar reference), or (panels, 1) columns for a batch of panels; the
    # elementwise operations are the same either way.
    r2 = d2 + c * s * s
    t = 1.0 - s * s
    expo = -beta * (m * d2 + r2 * r2 / (4.0 * m * beta * beta)) / (2.0 * r2)
    return (1.0 + t * t) * 2.0 * s / np.sqrt(r2) * np.exp(expo)


# The largest x + y the kernel takes, 2 ln(max float) = 1419.57...: above it
# the factor e^{(x + y)/2} of the quadrature and the closed form overflows.
_MAX_PAIR_SUM = 2.0 * math.log(sys.float_info.max)

# Panels per pair before the quadrature gives up, read at call time (the
# tests' scalar reference reads it too, and shrinks it to test the budget).
_MAX_PANELS = 4000


def eval_kernel_batch(
    params: PhysicalParams,
    x: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """B and its quadrature error bound at the point pairs (x[k], y[k]).

    ``x`` and ``y`` are 1-d arrays of equal length.  This is the one place
    where the kernel is evaluated over many pairs: every pair list
    (:func:`screened_pairs`) and CSV dump takes its values from here.
    ``tol`` is a relative tolerance in (0, 1e-3]: every returned error
    satisfies ``err <= tol * value``, and a pair that does not reach it within
    ``_MAX_PANELS`` (4000) panels raises NonConvergence.  The domain is
    x, y > 0 and x + y <= 2 ln(max float) (1419.57...): a pair outside it
    raises a ``ValueError`` that names it.

    B is symmetric bit for bit, so each unordered pair is integrated once.
    Pairs with |x - y| < 1e-8 (x + y) take the diagonal closed form, with
    error 4 eps times the value.  The others run a global adaptive
    bisection of Gauss panels (a 20-point rule, with the 10-point rule for
    the error estimate) side by side: each round, every pair that misses
    ``tol`` bisects its worst panel, and the children of all those pairs
    go through one vectorized integrand call.  Each pair gets the bits of
    the scalar loop over one pair's panel list that the tests keep as the
    reference: the integrand elementwise, each panel's weighted sum through
    the BLAS dot that ``np.dot`` calls, the panel totals left to right in
    the order of the panel list, the first maximum as the worst panel, and
    ``(x - y) ** 2`` and the prefactor in Python floats.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if not np.all((x > 0.0) & (y > 0.0)):
        raise ValueError("x and y must be positive")
    if not (0.0 < tol <= 1e-3):
        raise ValueError("tol must lie in (0, 1e-3]")
    if x.size == 0:
        return np.zeros(0), np.zeros(0)
    k = int(np.argmax(x + y)) if x.max() + y.max() > _MAX_PAIR_SUM else 0  # x + y only when a pair may be outside
    if x[k] + y[k] > _MAX_PAIR_SUM:
        raise ValueError(f"kernel overflows at (x={float(x[k])!r}, y={float(y[k])!r}): "
                         f"x + y > 2 ln(max float) = {_MAX_PAIR_SUM:.2f}")
    # each unordered pair once: (min, max) viewed as one complex key
    keys = np.stack([np.minimum(x, y), np.maximum(x, y)], axis=1).view(complex).ravel()
    keys, inverse = np.unique(keys, return_inverse=True)
    lo, hi = keys.real, keys.imag
    values = np.empty(lo.size)
    errors = np.empty(lo.size)
    diag = np.abs(lo - hi) < 1e-8 * (lo + hi)
    for k in np.flatnonzero(diag).tolist():
        value = diagonal_closed_form(params, 0.5 * (float(lo[k]) + float(hi[k])))
        values[k] = value
        errors[k] = _DIAGONAL_REL_ERR * value
    off = np.flatnonzero(~diag)
    values[off], errors[off] = _bisect_batch(params, lo[off], hi[off], tol)
    return values[inverse], errors[inverse]


def screened_pairs(
    params: PhysicalParams, tp: TruncationParams, x: np.ndarray, diagonal: bool, inside: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The pairs (i, j) of sorted points x where the cutoff is nonzero, in
    row-major order, cutoff * B at each, and C_star on exactly them.  The
    candidates, made here so no caller holds them while the kernel runs, are
    the pairs i < j of distinct points (and i = j with ``diagonal``) with
    both points ``inside`` (a mask; all when None).  One ``eval_cutoff`` call
    screens; one :func:`eval_kernel_batch` call (tolerance 1e-10) evaluates."""
    i, j = np.triu_indices(x.size, 0 if diagonal else 1)
    if inside is not None:
        on = inside[i] & inside[j]
        i, j = i[on], j[on]
    on = (i == j) | (x[i] != x[j])
    i, j = i[on], j[on]
    phi = eval_cutoff(tp, x[i], x[j])
    on = phi != 0.0
    i, j, phi = i[on], j[on], phi[on]
    B, _ = eval_kernel_batch(params, x[i], x[j])
    return i, j, phi * B, kernel_bound_constant(x[i], x[j], B)


# Panels per vectorized integrand call: bounds the batch's temporaries.
_CHUNK = 256
# Both rules' nodes, so one integrand call serves both.
_NODES = np.concatenate([_GL_HI[0], _GL_LO[0]])


def _bisect_batch(
    params: PhysicalParams, x: np.ndarray, y: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    # The adaptive loop for many pairs at once (on the diagonal too, where
    # the integrand is regular; kernel-verify checks the closed form there).
    # panels[r] is the panel list (a, b, value, error) of pair act[r]: the
    # worst panel leaves its place and its two halves are appended.  Every
    # active pair holds the same number of panels.
    beta, m = params.beta, params.m
    xs, ys = x.tolist(), y.tolist()
    d2 = np.array([(p - q) ** 2 for p, q in zip(xs, ys)])
    c = 2.0 * x * y
    root_beta = math.sqrt(beta)
    prefactor = np.array([root_beta * math.exp(0.5 * (p + q)) for p, q in zip(xs, ys)])
    values = np.empty(x.size)
    errors = np.empty(x.size)
    act = np.arange(x.size)
    h = 0.5 * _SQRT2
    panels = _panels(np.tile([0.0, h, h, _SQRT2], x.size), act, d2, c, beta, m)
    while act.size:
        width = panels.shape[1]
        if width >= _MAX_PANELS:
            k = act[0]
            raise NonConvergence(
                f"kernel quadrature at (x={xs[k]}, y={ys[k]}) did not reach tol={tol} "
                f"within {_MAX_PANELS} panels"
            )
        total = np.add.accumulate(panels[:, :, 2], axis=1)[:, -1]
        total_err = np.add.accumulate(panels[:, :, 3], axis=1)[:, -1]
        done = (total_err <= tol * np.abs(total)) | (total_err == 0.0)
        k = act[done]
        values[k] = prefactor[k] * total[done]
        errors[k] = prefactor[k] * total_err[done]
        act, panels = act[~done], panels[~done]
        rows = np.arange(act.size)
        worst = np.argmax(panels[:, :, 3], axis=1)
        a, b = panels[rows, worst, 0], panels[rows, worst, 1]
        mid = 0.5 * (a + b)
        kept = np.ones(panels.shape[:2], dtype=bool)
        kept[rows, worst] = False
        halves = _panels(np.stack([a, mid, mid, b], axis=1).ravel(), act, d2, c, beta, m)
        panels = np.concatenate([panels[kept].reshape(act.size, width - 1, 4), halves], axis=1)
    return values, errors


def _panels(
    bounds: np.ndarray, act: np.ndarray, d2: np.ndarray, c: np.ndarray, beta: float, m: float
) -> np.ndarray:
    # Two panels per pair act[r], with bounds[4 r : 4 r + 4] =
    # (a1, b1, a2, b2); returns the (pairs, 2, 4) rows (a, b, value, error)
    out = np.empty((2 * act.size, 4))
    out[:, :2] = bounds.reshape(-1, 2)
    a, b = out[:, 0], out[:, 1]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    owner = np.repeat(act, 2)
    n_hi = _GL_HI[0].size
    for start in range(0, out.shape[0], _CHUNK):
        k = slice(start, start + _CHUNK)
        s = mid[k, None] + half[k, None] * _NODES
        f = _integrand(s, d2[owner[k], None], c[owner[k], None], beta, m)
        # np.vecdot makes the BLAS dot call of np.dot once per panel, as
        # the scalar reference does; a matrix product would sum in another
        # order
        hi = half[k] * np.vecdot(_GL_HI[1], f[:, :n_hi])
        lo = half[k] * np.vecdot(_GL_LO[1], f[:, n_hi:])
        out[k, 2] = hi
        out[k, 3] = np.abs(hi - lo)
    return out.reshape(act.size, 2, 4)


def diagonal_closed_form(params: PhysicalParams, x: float) -> float:
    """Exact B(x, x) via the error function, with a series branch near 0.

    The erf expression suffers catastrophic cancellation as
    a = x^2/(4 m beta) -> 0, so below a fixed threshold the value is
    computed from the power series of the same bracket.
    """
    if not (x > 0.0):
        raise ValueError("x must be positive")
    beta, m = params.beta, params.m
    a = x * x / (4.0 * m * beta)
    if a < _DIAGONAL_SERIES_CUTOFF:
        acc = 0.0
        for c in _DIAGONAL_SERIES:
            acc = acc * a + c
        return math.sqrt(beta) * (math.exp(x) / x) * acc
    bracket = (
        math.sqrt(math.pi) * math.erf(math.sqrt(2.0 * a)) * (8.0 * a * a - 4.0 * a + 3.0) / (4.0 * a**2.5)
        - 1.5 * math.sqrt(2.0) * math.exp(-2.0 * a) / (a * a)
    )
    return math.sqrt(0.5 * beta) * (math.exp(x) / x) * bracket


def eval_majorant(params: PhysicalParams, x: float, y: float) -> float:
    """Pointwise upper bound for B(x, y): Gaussian factor times the peak envelope."""
    if not (x > 0.0 and y > 0.0):
        raise ValueError("x and y must be positive")
    beta, m = params.beta, params.m
    p = x + y
    q = abs(x - y)
    envelope = 8.0 * math.exp(0.5 * p) * (10.0 * (p + q) ** 2 + (p - q) ** 2) / (15.0 * (p + q) ** 3)
    expo = -beta * (m * q * q + q**4 / (4.0 * m * beta * beta)) / (2.0 * p * p)
    return math.sqrt(beta) * math.exp(expo) * envelope


def peak_bound(params: PhysicalParams, x: float, y: float) -> float:
    """Crude envelope: the majorant without its Gaussian factor."""
    hi = max(x, y)
    lo = min(x, y)
    return (
        math.sqrt(params.beta)
        * 4.0
        * (10.0 * hi * hi + lo * lo)
        / (15.0 * hi**3)
        * math.exp(0.5 * (x + y))
    )


# Central-difference step of the antidiagonal sign check, relative to min(x, y).
_SIGN_STEP = 1e-4


def verify_antidiagonal_monotonicity(
    params: PhysicalParams, samples: list[tuple[float, float]]
) -> MonotonicityReport:
    """Check the sign of the directional derivative of B along (1, -1).

    The kernel increases toward the diagonal: the derivative is positive
    for y > x and negative for x > y.  Central differences with step
    h = ``_SIGN_STEP`` * min(x, y) = 1e-4 min(x, y), on kernel values at
    the quadrature tolerance 1e-10.
    """
    for x, y in samples:
        if not (x > 0.0 and y > 0.0) or x == y:
            raise ValueError("samples must have x > 0, y > 0, x != y")
    xs, ys = np.array(samples, dtype=float).reshape(-1, 2).T
    hs = _SIGN_STEP * np.minimum(xs, ys)
    B, _ = eval_kernel_batch(params, np.concatenate([xs + hs, xs - hs]), np.concatenate([ys - hs, ys + hs]))
    plus, minus = np.split(B, 2)
    violations: list[tuple[float, float, float]] = []
    for (x, y), h, p, q in zip(samples, hs.tolist(), plus.tolist(), minus.tolist()):
        derivative = (p - q) / (2.0 * h)
        expected_sign = 1.0 if y > x else -1.0
        if derivative * expected_sign <= 0.0:
            violations.append((x, y, derivative))
    return MonotonicityReport(checked=len(samples), violations=violations)
