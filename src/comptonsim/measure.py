"""Nonnegative measures as points and masses, with their functionals.

A state of either solver is plain arrays: atoms (point masses) are sorted
locations with their masses, and a density is its values on a fixed
log-spaced ``Grid`` with trapezoid weights w.  The functionals read a state
as its carriers, points with their masses: the atoms of positive mass
(:func:`atom_carriers`), or every node of a density with its mass w u
(:func:`node_carriers`).  This module checks config input into these
arrays, and provides the overflow guard of the exponential moment, the
bounded-Lipschitz distance, the partition of the support into decoupled
blocks, and the JSON snapshot writer, whose floats read back bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .truncation import TruncationParams, eval_cutoff

__all__ = [
    "Grid",
    "Component",
    "atom_arrays",
    "grid_density",
    "atom_carriers",
    "node_carriers",
    "support",
    "relative_drift",
    "check_exp_rate",
    "bl_distance",
    "components",
    "planck_density",
    "save_snapshot",
]

# Relative threshold below which a node's mass does not count as support;
# guards against floating-point zeros opening spurious gaps.
MASS_EPSILON = 1e-14

# Atoms closer than this (relative to max(1, x)) are merged; time
# integration can collapse distinct atoms numerically.
LOCATION_EPSILON = 1e-12


@dataclass(frozen=True)
class Grid:
    """Strictly increasing positive nodes with trapezoid weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not (nodes[0] > 0.0 and np.all(np.diff(nodes) > 0.0)):
            raise ValueError("nodes must be positive and strictly increasing")
        if weights.shape != nodes.shape or not np.all(weights > 0.0):
            raise ValueError("weights must be positive and match the nodes")

    @classmethod
    def log_spaced(cls, lo: float, hi: float, n: int) -> "Grid":
        if not (0.0 < lo < hi) or n < 2:
            raise ValueError("need 0 < lo < hi and n >= 2")
        nodes = np.geomspace(lo, hi, n)
        weights = np.empty(n)
        weights[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
        weights[0] = 0.5 * (nodes[1] - nodes[0])
        weights[-1] = 0.5 * (nodes[-1] - nodes[-2])
        return cls(nodes=nodes, weights=weights)

    @property
    def n(self) -> int:
        return int(self.nodes.size)


def _merge_atoms(atoms: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for x, m in sorted(atoms):
        if merged and abs(x - merged[-1][0]) < LOCATION_EPSILON * max(1.0, x):
            px, pm = merged[-1]
            merged[-1] = ((px * pm + x * m) / (pm + m), pm + m)
        else:
            merged.append((x, m))
    return merged


def atom_arrays(atoms) -> tuple[np.ndarray, np.ndarray]:
    """(location, mass) pairs as sorted locations and their masses.

    Locations and masses must be finite (a NaN mass would otherwise be
    dropped silently) and nonnegative; zero masses are dropped and
    near-coincident atoms merged mass-weighted."""
    for x, m in atoms:
        if not (math.isfinite(x) and math.isfinite(m)):
            raise ValueError("atom locations and masses must be finite")
        if x < 0.0:
            raise ValueError("atom locations must be nonnegative")
        if m < 0.0:
            raise ValueError("atom masses must be nonnegative")
    merged = _merge_atoms([(float(x), float(m)) for x, m in atoms if m > 0.0])
    return np.array([x for x, _ in merged], dtype=float), np.array([m for _, m in merged], dtype=float)


def grid_density(grid: Grid, density) -> np.ndarray:
    """A density on ``grid`` as a float array, which must match the grid's
    shape and be finite and nonnegative."""
    density = np.asarray(density, dtype=float)
    if density.shape != grid.nodes.shape:
        raise ValueError("density shape must match the grid")
    if np.any(density < 0.0) or not np.all(np.isfinite(density)):
        raise ValueError("density must be finite and nonnegative")
    return density


def atom_carriers(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The carriers of atoms at sorted locations x with masses m: those of
    positive mass (a zero-mass point would split a gap of :func:`bl_distance`)."""
    on = m > 0.0
    return x[on], m[on]


def node_carriers(grid: Grid, density: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The carriers of a density on ``grid``: every node, a zero node
    included, with its mass w u."""
    return grid.nodes, grid.weights * density


def support(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The carriers (sorted points x, masses m) above ``MASS_EPSILON`` of their
    ``math.fsum`` total: a carrier below it (e.g. an atom drained to
    integrator noise) must not bridge a decoupling gap."""
    on = m > MASS_EPSILON * math.fsum(m)
    return x[on], m[on]


def relative_drift(series: np.ndarray) -> float:
    """Largest departure of a recorded series from its first value, relative
    to the size of that value (absolute when it is 0): the mass drift both
    equations' ``mass_conservation`` checks bound."""
    scale = abs(series[0]) if series[0] != 0.0 else 1.0
    return float(np.max(np.abs(series - series[0])) / scale)


def check_exp_rate(points, eta: float) -> None:
    """Raise OverflowError when eta times the largest of the ``points`` the
    exponential moment weights (atom locations, or grid nodes) exceeds 700,
    where e^{eta x} comes near overflow."""
    top = float(np.max(points, initial=0.0))
    if eta * top > 700.0:
        raise OverflowError(f"exp moment overflows: eta * max support = {eta:g} * {top:g} = {eta * top:.3g} > 700")


def _signed_point_masses(u, v) -> tuple[np.ndarray, np.ndarray]:
    """The carriers of u and of v, v's masses negated, sorted, with each
    point within ``LOCATION_EPSILON`` of the one before merged into it, so
    the support has distinct points."""
    x = np.concatenate((u[0], v[0]))
    m = np.concatenate((u[1], -v[1]))
    order = np.argsort(x)
    x, m = x[order], m[order]
    first = np.ones(x.size, dtype=bool)
    first[1:] = x[1:] - x[:-1] >= LOCATION_EPSILON * np.maximum(1.0, x[1:])
    starts = np.flatnonzero(first)
    return x[starts], np.add.reduceat(m, starts)


def bl_distance(u, v) -> float:
    """Bounded-Lipschitz distance between two measures given as carriers
    (points, masses).

    Exact dual by concave value functions: on the merged support x_1 < ... < x_n
    with signed masses mu = u - v, maximize sum mu_i phi_i subject to
    |phi_i| <= 1 and |phi_i - phi_{i+1}| <= x_{i+1} - x_i.  The best partial
    sum with phi_k = p is concave and piecewise linear in p, kept as knots and
    values from V_1(p) = mu_1 p on [-1, 1]; each gap g takes the
    sup-convolution with [-g, g] (knots left of the argmax move by -g, those
    right of it by +g), clips to [-1, 1] and adds mu_{k+1} p.  Exact for
    purely atomic measures; first-order accurate in the grid spacing
    otherwise.
    """
    pts, mu = _signed_point_masses(u, v)
    if pts.size == 0:
        return 0.0
    knots = np.array([-1.0, 1.0])
    vals = mu[0] * knots
    for g, m in zip(np.diff(pts), mu[1:]):
        k = int(np.argmax(vals))
        knots = np.concatenate((knots[: k + 1] - g, knots[k:] + g))
        vals = np.concatenate((vals[: k + 1], vals[k:]))
        ends = np.interp((-1.0, 1.0), knots, vals)
        inside = (knots > -1.0) & (knots < 1.0)
        knots = np.concatenate(((-1.0,), knots[inside], (1.0,)))
        vals = np.concatenate((ends[:1], vals[inside], ends[1:])) + m * knots
    return max(0.0, float(vals.max()))


@dataclass(frozen=True)
class Component:
    """One maximal coupled block of the support."""

    points: tuple[float, ...]
    masses: tuple[float, ...]

    @property
    def min_point(self) -> float:
        return self.points[0]

    @property
    def max_point(self) -> float:
        return self.points[-1]

    @property
    def mass(self) -> float:
        return math.fsum(self.masses)


def _partition(x: np.ndarray, m: np.ndarray, splits: np.ndarray) -> tuple[Component, ...]:
    """Cut sorted carriers (points x, masses m) into a tuple of blocks: a new
    block starts at each carrier a >= 1 with ``splits[a - 1]`` true (the gap
    before it decouples, by the caller's rule); no carriers, no blocks."""
    bounds = [0, *(np.flatnonzero(splits) + 1).tolist(), x.size] if x.size else []
    x, m = x.tolist(), m.tolist()
    return tuple(Component(points=tuple(x[a:b]), masses=tuple(m[a:b])) for a, b in zip(bounds, bounds[1:]))


def components(u, tp: TruncationParams) -> tuple[Component, ...]:
    """Partition the :func:`support` of carriers u (points, masses) into a
    left-to-right tuple of blocks separated by decoupling gaps.

    A gap between consecutive support carriers p < q splits the support
    exactly when the cutoff vanishes at (p, q).  The cutoff's support shrinks
    as a pair widens, so then no pair across the gap couples.  This is the
    rule gamma1(q) >= p read off the cutoff itself: the two can disagree for
    a p within rounding of gamma1(q), and the cutoff is what the rate tables
    see.  Consecutive blocks are then separated by q - gamma1(q), the
    decoupling gap at the right block's minimum q, up to that rounding.
    """
    x, m = support(*u)
    return _partition(x, m, eval_cutoff(tp, x[:-1], x[1:]) == 0.0)


def planck_density(grid: Grid, mu: float = 0.0) -> np.ndarray:
    """Equilibrium density x^2 / (e^{x - mu} - 1) sampled on the grid."""
    if not mu <= 0.0:
        raise ValueError(f"chemical potential must be <= 0; got {mu}")
    x = grid.nodes
    with np.errstate(over="ignore"):  # e^{x - mu} = inf far out gives the density's limit 0
        return x * x / np.expm1(x - mu)


def save_snapshot(grid: Grid, density: np.ndarray, path) -> None:
    """A density on ``grid`` as JSON with no atoms; ``Grid.log_spaced(min, max,
    n)`` rebuilds the nodes, and the floats round-trip bit-exactly via repr."""
    snapshot = {
        "atoms": [],
        "grid": {"min": float(grid.nodes[0]), "max": float(grid.nodes[-1]), "n": grid.n, "spacing": "log"},
        "density": np.asarray(density, dtype=float).tolist(),
    }
    with open(path, "w") as f:
        json.dump(snapshot, f, indent=1)
