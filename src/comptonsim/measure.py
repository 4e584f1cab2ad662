"""Nonnegative measures as atoms plus a grid density, with their functionals.

The universal state of both solvers is a hybrid measure: finitely many
atoms (point masses, possibly one at the origin) together with a density
sampled on a fixed log-spaced grid with trapezoid quadrature weights.
This module provides moments, exponential moments, the physical entropy,
the bounded-Lipschitz distance, the partition of the support into
decoupled blocks, and a lossless JSON serialization.

Known representational limit: a family of ever-smaller atoms accumulating
at zero energy is indistinguishable from mass placed exactly at the
origin once locations fall below the grid and merging resolution; no
attempt is made to resolve such supports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .truncation import TruncationParams, gamma1

__all__ = [
    "DomainError",
    "Grid",
    "HybridMeasure",
    "Component",
    "moment",
    "relative_drift",
    "check_exp_rate",
    "bl_distance",
    "components",
    "planck_density",
    "measure_to_dict",
    "measure_from_dict",
    "save_measure",
]

# Relative threshold below which a node's mass does not count as support;
# guards against floating-point zeros opening spurious gaps.
MASS_EPSILON = 1e-14

# Atoms closer than this (relative to max(1, x)) are merged; time
# integration can collapse distinct atoms numerically.
LOCATION_EPSILON = 1e-12


class DomainError(ValueError):
    """A functional was applied outside its domain of definition."""


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


@dataclass
class HybridMeasure:
    """Atoms plus an optional grid density; all masses nonnegative.

    Atoms are kept sorted with pairwise distinct locations (near-coincident
    atoms are merged mass-weighted on construction); zero-mass atoms are
    dropped.  An atom at location 0 carries the origin mass.  Locations and
    masses must be finite: a NaN mass would otherwise be dropped silently.
    """

    atoms: list[tuple[float, float]] = field(default_factory=list)
    grid: Grid | None = None
    density: np.ndarray | None = None

    def __post_init__(self) -> None:
        for x, m in self.atoms:
            if not (math.isfinite(x) and math.isfinite(m)):
                raise ValueError("atom locations and masses must be finite")
            if x < 0.0:
                raise ValueError("atom locations must be nonnegative")
            if m < 0.0:
                raise ValueError("atom masses must be nonnegative")
        self.atoms = _merge_atoms([(float(x), float(m)) for x, m in self.atoms if m > 0.0])
        if (self.grid is None) != (self.density is None):
            raise ValueError("grid and density must be supplied together")
        if self.density is not None:
            self.density = np.asarray(self.density, dtype=float)
            if self.density.shape != self.grid.nodes.shape:
                raise ValueError("density shape must match the grid")
            if np.any(self.density < 0.0) or not np.all(np.isfinite(self.density)):
                raise ValueError("density must be finite and nonnegative")

    @property
    def origin_mass(self) -> float:
        return next((m for x, m in self.atoms if x == 0.0), 0.0)

    @property
    def total_mass(self) -> float:
        return moment(self, 0.0)

    def node_masses(self) -> np.ndarray:
        if self.density is None:
            return np.array([])
        return self.grid.weights * self.density

    def support_points(self) -> list[tuple[float, float]]:
        """Sorted (location, mass) carriers above ``MASS_EPSILON`` of the total mass.

        Applies to atoms and nodes alike: a carrier below the threshold
        (e.g. an atom drained to integrator noise) must not bridge a
        decoupling gap.
        """
        node_masses = self.node_masses()
        total = float(math.fsum(node_masses) + math.fsum(m for _, m in self.atoms))
        cut = MASS_EPSILON * total
        pts = [(x, m) for x, m in self.atoms if m > cut]
        if self.density is not None:
            for x, m in zip(self.grid.nodes, node_masses):
                if m > cut:
                    pts.append((float(x), float(m)))
        return sorted(pts)


# The density parts below are row-wise dots against the weights, for one density
# or each row of a (B, n) block; for C-contiguous rows np.vecdot gives np.dot's bits.


def moment(u: HybridMeasure, rho: float) -> float:
    """Power moment of order rho: sum of x^rho against the measure."""
    return float(_moment_rows(u.atoms, u.grid, u.density, rho))


def _moment_rows(atoms, grid, rows, rho):
    terms = []
    for x, m in atoms:
        if x == 0.0:
            if rho < 0.0:
                raise DomainError("negative-order moment of an atom at the origin")
            if rho == 0.0:
                terms.append(m)
        else:
            terms.append(x**rho * m)
    total = math.fsum(terms)
    if rows is not None:
        total = total + np.vecdot(rows * grid.nodes**rho, grid.weights)
    return total


def relative_drift(series: np.ndarray) -> float:
    """Largest departure of a recorded series from its first value, relative
    to the size of that value (absolute when it is 0): the mass drift both
    equations' ``mass_conservation`` checks bound."""
    scale = abs(series[0]) if series[0] != 0.0 else 1.0
    return float(np.max(np.abs(series - series[0])) / scale)


def check_exp_rate(atoms, grid, rows, eta: float) -> None:
    """Raise OverflowError when eta times the largest point the exponential
    moment weights, the largest atom location or, with density ``rows``, the
    top grid node, exceeds 700, where e^{eta x} comes near overflow."""
    top = max((x for x, _ in atoms), default=0.0)
    if rows is not None:
        top = max(top, float(grid.nodes[-1]))
    if eta * top > 700.0:
        raise OverflowError(f"exp moment overflows: eta * max support = {eta:g} * {top:g} = {eta * top:.3g} > 700")


def _exp_moment_rows(atoms, grid, rows, eta):
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    if eta == 0.0:
        return _moment_rows(atoms, grid, rows, 0.0)
    check_exp_rate(atoms, grid, rows, eta)
    total = math.fsum(m * math.exp(eta * x) for x, m in atoms)
    if rows is not None:
        total = total + np.vecdot(rows * np.exp(eta * grid.nodes), grid.weights)
    return total


def _entropy_integrand(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    # h(x, s) = (x^2+s) log(x^2+s) - s log s - x^2 log x^2 - s x,
    # with the s log s -> 0 limit at s = 0.
    x2 = x * x
    with np.errstate(divide="ignore", invalid="ignore"):
        slogs = np.where(s > 0.0, s * np.log(s), 0.0)
    return (x2 + s) * np.log(x2 + s) - slogs - x2 * np.log(x2) - s * x


def _entropy_rows(atoms, grid, rows):
    """Physical entropy: density part through h, atoms through -x * mass.

    The origin atom contributes nothing.  Among all states of a given mass
    the entropy is maximal exactly at the equilibrium family (a chemical-
    potential density plus an optional origin atom).
    """
    total = -math.fsum(x * m for x, m in atoms)
    if rows is not None:
        total = total + np.vecdot(_entropy_integrand(grid.nodes, rows), grid.weights)
    return total


def _signed_point_masses(u: HybridMeasure, v: HybridMeasure) -> tuple[np.ndarray, np.ndarray]:
    locs: list[float] = []
    masses: list[float] = []
    for w, sign in ((u, 1.0), (v, -1.0)):
        for x, m in w.atoms:
            locs.append(x)
            masses.append(sign * m)
        if w.density is not None:
            for x, m in zip(w.grid.nodes, w.node_masses()):
                locs.append(float(x))
                masses.append(sign * float(m))
    order = np.argsort(locs)
    locs_arr = np.asarray(locs)[order]
    mass_arr = np.asarray(masses)[order]
    # merge coincident points so the support has distinct nodes
    keep_locs: list[float] = []
    keep_mass: list[float] = []
    for x, m in zip(locs_arr, mass_arr):
        if keep_locs and abs(x - keep_locs[-1]) < LOCATION_EPSILON * max(1.0, x):
            keep_mass[-1] += m
        else:
            keep_locs.append(float(x))
            keep_mass.append(float(m))
    return np.asarray(keep_locs), np.asarray(keep_mass)


def bl_distance(u: HybridMeasure, v: HybridMeasure) -> float:
    """Bounded-Lipschitz distance between two hybrid measures.

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


def _partition(pts: list[tuple[float, float]], splits) -> tuple[Component, ...]:
    """Cut sorted (location, mass) carriers into a tuple of blocks: a new
    block starts at each carrier a >= 1 for which ``splits(a)`` holds, i.e.
    where the gap between carriers a - 1 and a decouples.  The splitting
    rule is the caller's; no carriers give the empty tuple."""
    blocks: list[list[tuple[float, float]]] = []
    for a, p in enumerate(pts):
        if a == 0 or splits(a):
            blocks.append([])
        blocks[-1].append(p)
    return tuple(Component(points=tuple(x for x, _ in b), masses=tuple(m for _, m in b)) for b in blocks)


def components(u: HybridMeasure, tp: TruncationParams) -> tuple[Component, ...]:
    """Partition the support (carriers above ``MASS_EPSILON`` of the total
    mass) into a left-to-right tuple of blocks separated by decoupling gaps.

    A gap between consecutive support carriers p < q splits the support
    exactly when gamma1(q) >= p, i.e. when no pair across the gap lies in
    the coupling region.  Consecutive blocks are then separated by at least
    q - gamma1(q), the decoupling gap at the right block's minimum q.
    """
    pts = u.support_points()
    return _partition(pts, lambda a: gamma1(tp, pts[a][0]) >= pts[a - 1][0])


def planck_density(grid: Grid, mu: float = 0.0) -> np.ndarray:
    """Equilibrium density x^2 / (e^{x - mu} - 1) sampled on the grid."""
    if not mu <= 0.0:
        raise ValueError(f"chemical potential must be <= 0; got {mu}")
    x = grid.nodes
    with np.errstate(over="ignore"):  # e^{x - mu} = inf far out gives the density's limit 0
        return x * x / np.expm1(x - mu)


def measure_to_dict(u: HybridMeasure) -> dict:
    """JSON-ready form; floats round-trip bit-exactly via repr."""
    out: dict = {"atoms": [[x, m] for x, m in u.atoms]}
    if u.grid is not None:
        out["grid"] = {
            "min": float(u.grid.nodes[0]),
            "max": float(u.grid.nodes[-1]),
            "n": u.grid.n,
            "spacing": "log",
        }
        out["density"] = [float(g) for g in u.density]
    return out


def measure_from_dict(d: dict) -> HybridMeasure:
    atoms = [(float(x), float(m)) for x, m in d.get("atoms", [])]
    grid = None
    density = None
    if "grid" in d:
        g = d["grid"]
        if g.get("spacing", "log") != "log":
            raise ValueError("only log-spaced grids are supported")
        grid = Grid.log_spaced(g["min"], g["max"], g["n"])
        density = np.asarray(d["density"], dtype=float)
    return HybridMeasure(atoms=atoms, grid=grid, density=density)


def save_measure(u: HybridMeasure, path) -> None:
    with open(path, "w") as f:
        json.dump(measure_to_dict(u), f, indent=1)
