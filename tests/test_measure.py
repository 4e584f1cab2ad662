"""Hybrid measures: moments, entropy, distance, components, serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from comptonsim.measure import (
    DomainError,
    Grid,
    HybridMeasure,
    _entropy_rows,
    _signed_point_masses,
    bl_distance,
    components,
    measure_from_dict,
    measure_to_dict,
    moment,
    planck_density,
)
from comptonsim.truncation import TruncationParams, eval_cutoff
from oracles import exp_moment, z_gap

TP = TruncationParams.solve(0.5, 1.0, 0.8)

ZETA3 = 1.2020569031595943


def atom(x, m):
    return HybridMeasure(atoms=[(x, m)])


class TestGrid:
    def test_log_spacing_and_weights(self):
        g = Grid.log_spaced(0.1, 10.0, 5)
        assert g.nodes[0] == pytest.approx(0.1) and g.nodes[-1] == pytest.approx(10.0)
        # trapezoid weights integrate a constant to the span exactly
        assert float(np.sum(g.weights)) == pytest.approx(g.nodes[-1] - g.nodes[0], rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid.log_spaced(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            Grid(nodes=np.array([1.0, 0.5]), weights=np.array([1.0, 1.0]))


class TestHybridMeasure:
    def test_atom_normalization(self):
        u = HybridMeasure(atoms=[(2.0, 1.0), (1.0, 0.5), (3.0, 0.0)])
        assert u.atoms == [(1.0, 0.5), (2.0, 1.0)]

    def test_near_coincident_atoms_merge(self):
        u = HybridMeasure(atoms=[(1.0, 1.0), (1.0 + 1e-14, 2.0)])
        assert len(u.atoms) == 1
        assert u.atoms[0][1] == 3.0

    def test_origin_mass(self):
        u = HybridMeasure(atoms=[(0.0, 0.25), (1.0, 1.0)])
        assert u.origin_mass == 0.25

    def test_density_needs_grid(self):
        with pytest.raises(ValueError):
            HybridMeasure(atoms=[], grid=None, density=np.ones(3))

    def test_negative_density_rejected(self):
        g = Grid.log_spaced(0.1, 1.0, 4)
        with pytest.raises(ValueError):
            HybridMeasure(atoms=[], grid=g, density=np.array([1.0, -1.0, 0.0, 0.0]))


class TestMoments:
    def test_single_atom_powers(self):
        assert moment(atom(1.0, 1.0), 7.0) == 1.0
        assert moment(atom(2.0, 3.0), 2.0) == 12.0

    def test_planck_mass_series_oracle(self):
        # sum 2/n^3 = 2 zeta(3), independently of the quadrature path
        g = Grid.log_spaced(1e-5, 60.0, 8000)
        u = HybridMeasure(atoms=[], grid=g, density=planck_density(g, 0.0))
        assert moment(u, 0.0) == pytest.approx(2.0 * ZETA3, rel=1e-6)

    def test_origin_atom_negative_order(self):
        with pytest.raises(DomainError):
            moment(HybridMeasure(atoms=[(0.0, 1.0)]), -0.5)

    def test_exp_moment_examples(self):
        assert exp_moment(atom(1.0, 2.0), 0.25) == pytest.approx(2.0 * math.exp(0.25), rel=1e-15)
        assert exp_moment(HybridMeasure(atoms=[(0.0, 0.7)]), 3.0) == 0.7
        u = atom(1.5, 2.0)
        assert exp_moment(u, 0.0) == moment(u, 0.0)

    def test_exp_moment_overflow_flagged(self):
        with pytest.raises(OverflowError):
            exp_moment(atom(1000.0, 1.0), 1.0)

    def test_exp_dominates_mass(self):
        rng = np.random.default_rng(41)
        g = Grid.log_spaced(0.05, 10.0, 60)
        for _ in range(20):
            u = HybridMeasure(atoms=[], grid=g, density=rng.uniform(0.0, 1.0, 60))
            eta = rng.uniform(0.0, 0.5)
            assert exp_moment(u, eta) >= moment(u, 0.0)


class TestEntropy:
    """The entropy of the full-equation record, ``_entropy_rows`` of one state."""

    def test_zero_measure(self):
        assert _entropy_rows([], None, None) == 0.0

    def test_pure_atom(self):
        assert _entropy_rows([(2.0, 5.0)], None, None) == -10.0

    def test_origin_atom_contributes_nothing(self):
        g = Grid.log_spaced(0.05, 30.0, 200)
        dens = planck_density(g, -1.0)
        base = HybridMeasure(atoms=[], grid=g, density=dens)
        with_origin = HybridMeasure(atoms=[(0.0, 2.0)], grid=g, density=dens)
        assert _entropy_rows(with_origin.atoms, g, dens) == _entropy_rows(base.atoms, g, dens)

    def test_equilibrium_maximizes_at_fixed_mass(self):
        g = Grid.log_spaced(1e-3, 40.0, 600)
        dens = planck_density(g, -1.0)
        u = HybridMeasure(atoms=[], grid=g, density=dens)
        h_star = _entropy_rows([], g, dens)
        mass = moment(u, 0.0)
        rng = np.random.default_rng(42)
        for _ in range(10):
            bumpy = dens * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, g.n))
            bumpy = np.clip(bumpy, 0.0, None)
            v = HybridMeasure(atoms=[], grid=g, density=bumpy)
            scale = mass / moment(v, 0.0)
            assert _entropy_rows([], g, bumpy * scale) < h_star


def lp_oracle_uniform_grid(pts, masses_u, masses_v, n_grid=1200):
    """Independent dual formulation: test functions sampled on a uniform
    grid covering the support (superset of the kink locations)."""
    lo, hi = min(pts), max(pts)
    grid = np.unique(np.concatenate([np.linspace(lo, hi, n_grid), np.asarray(pts)]))
    mu = np.zeros(grid.size)
    for p, m_u, m_v in zip(pts, masses_u, masses_v):
        mu[np.argmin(np.abs(grid - p))] += m_u - m_v
    n = grid.size
    rows = []
    rhs = []
    for i in range(n - 1):
        row = np.zeros(n)
        row[i], row[i + 1] = 1.0, -1.0
        rows.append(row.copy())
        rhs.append(grid[i + 1] - grid[i])
        rows.append(-row)
        rhs.append(grid[i + 1] - grid[i])
    res = linprog(-mu, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=[(-1, 1)] * n, method="highs")
    return -res.fun


class TestBoundedLipschitz:
    def test_identical_measures(self):
        u = atom(1.0, 1.0)
        assert bl_distance(u, u) == 0.0

    def test_close_atoms_slope_limited(self):
        assert bl_distance(atom(1.0, 1.0), atom(1.5, 1.0)) == pytest.approx(0.5, abs=1e-12)

    def test_far_atoms_sup_limited(self):
        assert bl_distance(atom(1.0, 1.0), atom(9.0, 1.0)) == pytest.approx(2.0, abs=1e-12)

    def test_against_uniform_grid_lp_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            pts = np.sort(rng.uniform(0.0, 6.0, 5))
            mu_u = rng.uniform(0.0, 1.0, 5)
            mu_v = rng.uniform(0.0, 1.0, 5)
            u = HybridMeasure(atoms=list(zip(pts, mu_u)))
            v = HybridMeasure(atoms=list(zip(pts, mu_v)))
            oracle = lp_oracle_uniform_grid(pts, mu_u, mu_v)
            assert bl_distance(u, v) == pytest.approx(oracle, abs=1e-9)

    def test_metric_properties_random(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            pts = np.sort(rng.uniform(0.0, 5.0, 4))
            ms = [rng.uniform(0.1, 1.0, 4) for _ in range(3)]
            us = [HybridMeasure(atoms=list(zip(pts, m))) for m in ms]
            d01 = bl_distance(us[0], us[1])
            d10 = bl_distance(us[1], us[0])
            d12 = bl_distance(us[1], us[2])
            d02 = bl_distance(us[0], us[2])
            assert d01 == pytest.approx(d10, abs=1e-12)
            assert d02 <= d01 + d12 + 1e-12

    def test_zero_iff_equal_discretized(self):
        u = atom(1.0, 1.0)
        v = atom(1.0, 1.0 + 1e-6)
        assert bl_distance(u, v) > 0.0

    def test_mixed_atom_density(self):
        g = Grid.log_spaced(0.5, 2.0, 50)
        u = HybridMeasure(atoms=[], grid=g, density=np.ones(50))
        v = HybridMeasure(atoms=[(1.0, moment(u, 0.0))])
        d = bl_distance(u, v)
        assert 0.0 < d <= 2.0 * moment(u, 0.0)


def rescaled_lp(pts: np.ndarray, mu: np.ndarray) -> float:
    """The dual LP by HiGHS on mu rescaled to unit total variation.

    HiGHS works to absolute tolerances of about 1e-7, so on masses far from
    unit scale it must see them rescaled to be an oracle at all.
    """
    total = float(np.abs(mu).sum())
    if pts.size == 1 or total == 0.0:
        return abs(float(mu.sum()))
    n = pts.size
    diff = np.zeros((n - 1, n))
    diff[np.arange(n - 1), np.arange(n - 1)] = 1.0
    diff[np.arange(n - 1), np.arange(1, n)] = -1.0
    gaps = np.diff(pts)
    res = linprog(-mu / total, A_ub=np.vstack([diff, -diff]), b_ub=np.concatenate([gaps, gaps]),
                  bounds=[(-1.0, 1.0)] * n, method="highs")
    assert res.success
    return max(0.0, -res.fun * total)


def assert_matches_rescaled_lp(u: HybridMeasure, v: HybridMeasure) -> None:
    pts, mu = _signed_point_masses(u, v)
    assert abs(bl_distance(u, v) - rescaled_lp(pts, mu)) <= 1e-12 * np.abs(mu).sum()


@st.composite
def signed_atoms(draw):
    """Atoms of u and v at 1 to 80 sorted points: O(1) masses, or a zero-net-mass
    difference of size 1e-12 to 1e-6, with some of v's atoms within the merging
    distance of u's."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 80))
    span = draw(st.sampled_from([0.01, 1.0, 10.0, 30.0]))
    pts = np.unique(0.5 + rng.uniform(0.0, span, n))
    if draw(st.booleans()):
        delta = rng.normal(size=pts.size) * 10.0 ** draw(st.floats(-12.0, -6.0))
        delta -= delta.mean()
        mu_u, mu_v = np.maximum(delta, 0.0), np.maximum(-delta, 0.0)
    else:
        mu_u, mu_v = rng.uniform(0.0, 1.0, pts.size), rng.uniform(0.0, 1.0, pts.size)
    pts_v = pts.copy()
    if draw(st.booleans()):  # nudged below LOCATION_EPSILON: merged with u's point
        near = rng.random(pts.size) < 0.5
        pts_v[near] += 0.3e-12 * np.maximum(1.0, pts[near])
    u = HybridMeasure(atoms=list(zip(pts, mu_u)))
    v = HybridMeasure(atoms=list(zip(pts_v, mu_v)))
    return u, v


class TestBoundedLipschitzAgainstRescaledLP:
    @settings(max_examples=150, deadline=None)
    @given(pair=signed_atoms())
    def test_atomic_measures(self, pair):
        assert_matches_rescaled_lp(*pair)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 60),
        n_atoms=st.integers(0, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mixed_atom_density_measures(self, n, n_atoms, seed):
        rng = np.random.default_rng(seed)
        g = Grid.log_spaced(0.5, float(rng.uniform(1.0, 30.0)), n)
        atoms = [(float(x), float(m)) for x, m in zip(rng.uniform(0.0, 30.0, n_atoms), rng.uniform(0.0, 1.0, n_atoms))]
        u = HybridMeasure(atoms=atoms, grid=g, density=rng.uniform(0.0, 1.0, n))
        v = HybridMeasure(atoms=[(float(g.nodes[k]), 0.1) for k in rng.integers(0, n, 3)] + atoms[:1])
        assert_matches_rescaled_lp(u, v)

    def test_zero_net_mass_below_lp_tolerance(self):
        # 256 points on [0.5, 30] with masses of about 1e-8: HiGHS on the
        # unscaled problem works to ~1e-7 and cannot see a gap this size
        rng = np.random.default_rng(1)
        pts = np.sort(rng.uniform(0.5, 30.0, 256))
        delta = rng.normal(0.0, 1e-8, 256)
        delta -= delta.mean()
        u = HybridMeasure(atoms=list(zip(pts, np.maximum(delta, 0.0))))
        v = HybridMeasure(atoms=list(zip(pts, np.maximum(-delta, 0.0))))
        assert_matches_rescaled_lp(u, v)
        assert bl_distance(u, v) > 1e-7


class TestComponents:
    def test_two_far_atoms_split(self):
        u = HybridMeasure(atoms=[(0.1, 1.0), (10.0, 2.0)])
        parts = components(u, TP)
        assert len(parts) == 2
        assert tuple(c.mass for c in parts) == (1.0, 2.0)
        assert tuple(c.min_point for c in parts) == (0.1, 10.0)

    def test_connected_density_single_block(self):
        g = Grid.log_spaced(1.0, 2.0, 80)
        u = HybridMeasure(atoms=[], grid=g, density=np.ones(80))
        parts = components(u, TP)
        assert len(parts) == 1

    def test_three_atom_example(self):
        # gamma1(2.4) = 1.2 so 1.5 couples to 2.4; gamma1(1.5) = 0.75 > 0.5
        u = HybridMeasure(atoms=[(0.5, 0.2), (1.5, 0.3), (2.4, 0.5)])
        parts = components(u, TP)
        assert [c.points for c in parts] == [(0.5,), (1.5, 2.4)]
        assert tuple(c.mass for c in parts) == (0.2, 0.8)

    def test_masses_sum_to_total_exactly_for_atoms(self):
        rng = np.random.default_rng(45)
        locs = np.sort(rng.uniform(0.05, 20.0, 12))
        ms = rng.uniform(0.1, 1.0, 12)
        u = HybridMeasure(atoms=list(zip(locs, ms)))
        parts = components(u, TP)
        # one flat correctly rounded sum over every carrier is the measure's own mass path
        assert math.fsum(m for c in parts for m in c.masses) == moment(u, 0.0)

    def test_masses_sum_mixed(self):
        g = Grid.log_spaced(0.5, 1.5, 60)
        u = HybridMeasure(atoms=[(20.0, 0.4)], grid=g, density=planck_density(g, 0.0))
        parts = components(u, TP)
        assert math.fsum(m for c in parts for m in c.masses) == pytest.approx(moment(u, 0.0), rel=1e-14)

    def test_cross_pairs_decoupled(self):
        rng = np.random.default_rng(46)
        locs = np.sort(rng.uniform(0.05, 30.0, 10))
        u = HybridMeasure(atoms=[(float(x), 1.0) for x in locs])
        parts = components(u, TP)
        for i, ci in enumerate(parts):
            for j, cj in enumerate(parts):
                if i == j:
                    continue
                for a in ci.points:
                    for c in cj.points:
                        assert eval_cutoff(TP, a, c) == 0.0

    def test_separation_respects_gap_function(self):
        u = HybridMeasure(atoms=[(0.5, 1.0), (1.5, 1.0), (6.0, 1.0)])
        comps = components(u, TP)
        assert len(comps) >= 2
        for left, right in zip(comps, comps[1:]):
            x_right = right.min_point
            dist = x_right - left.max_point
            assert dist >= z_gap(TP, x_right) - 1e-12


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@st.composite
def hybrid_measures(draw):
    """Random atoms (the origin included) with or without a random
    log-grid density; masses and densities span many decades."""
    value = st.floats(0.0, 1e3) | st.floats(0.0, 1e-300)
    atoms = draw(st.lists(st.tuples(st.just(0.0) | st.floats(0.0, 60.0), value), max_size=6))
    if not draw(st.booleans()):
        return HybridMeasure(atoms=atoms)
    lo = draw(st.floats(1e-4, 1.0))
    n = draw(st.integers(2, 40))
    grid = Grid.log_spaced(lo, lo * draw(st.floats(1.5, 1e4)), n)
    density = draw(st.lists(value, min_size=n, max_size=n))
    return HybridMeasure(atoms=atoms, grid=grid, density=np.array(density))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(47)
        g = Grid.log_spaced(0.02, 22.0, 40)
        u = HybridMeasure(
            atoms=[(0.0, rng.uniform()), (rng.uniform(1, 2), rng.uniform())],
            grid=g,
            density=rng.uniform(0.0, 1.0, 40),
        )
        payload = json.dumps(measure_to_dict(u))
        v = measure_from_dict(json.loads(payload))
        assert v.atoms == u.atoms
        assert np.array_equal(v.grid.nodes, u.grid.nodes)
        assert np.array_equal(v.density, u.density)

    @settings(max_examples=50, deadline=None)
    @given(u=hybrid_measures())
    def test_round_trip_bit_exact_on_random_measures(self, u):
        v = measure_from_dict(json.loads(json.dumps(measure_to_dict(u))))
        assert np.array_equal(bits(v.atoms), bits(u.atoms))
        assert (v.grid is None) == (u.grid is None)
        if u.grid is not None:
            assert np.array_equal(bits(v.grid.nodes), bits(u.grid.nodes))
            assert np.array_equal(bits(v.grid.weights), bits(u.grid.weights))
            assert np.array_equal(bits(v.density), bits(u.density))

    def test_atoms_only_round_trip(self):
        u = HybridMeasure(atoms=[(1.0, 0.1)])
        v = measure_from_dict(json.loads(json.dumps(measure_to_dict(u))))
        assert v.atoms == u.atoms and v.grid is None

    def test_schema_fields(self):
        g = Grid.log_spaced(0.1, 1.0, 8)
        d = measure_to_dict(HybridMeasure(atoms=[(1.0, 2.0)], grid=g, density=np.zeros(8)))
        assert d["grid"] == {"min": 0.1, "max": 1.0, "n": 8, "spacing": "log"}
        assert d["atoms"] == [[1.0, 2.0]]


class TestPlanck:
    def test_positive_mu_rejected(self):
        g = Grid.log_spaced(0.1, 1.0, 8)
        with pytest.raises(ValueError):
            planck_density(g, 0.5)

    def test_values(self):
        g = Grid.log_spaced(1.0, 2.0, 3)
        d = planck_density(g, 0.0)
        assert d[0] == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
