"""States as points and masses: input checks, moments, entropy, distance,
components, serialization."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from comptonsim.full_solver import _entropy_integrand
from comptonsim.harness import build_initial
from comptonsim.measure import (
    Grid,
    _signed_point_masses,
    atom_arrays,
    atom_carriers,
    bl_distance,
    components,
    grid_density,
    node_carriers,
    planck_density,
    save_snapshot,
)
from comptonsim.truncation import TruncationParams, eval_cutoff
from oracles import exp_moment, moment, signed_point_masses, z_gap

TP = TruncationParams.solve(0.5, 1.0, 0.8)

ZETA3 = 1.2020569031595943


def atom(x, m):
    return atom_arrays([(x, m)])


def pairs(u) -> list[tuple[float, float]]:
    return list(zip(u[0].tolist(), u[1].tolist()))


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
    """Config input as state arrays: atoms sorted, merged and without zero
    masses, and a density finite, nonnegative and on its grid."""

    def test_atom_normalization(self):
        u = atom_arrays([(2.0, 1.0), (1.0, 0.5), (3.0, 0.0)])
        assert pairs(u) == [(1.0, 0.5), (2.0, 1.0)]

    def test_near_coincident_atoms_merge(self):
        x, m = atom_arrays([(1.0, 1.0), (1.0 + 1e-14, 2.0)])
        assert len(x) == 1
        assert m[0] == 3.0

    def test_density_needs_grid(self):
        with pytest.raises(ValueError, match="density shape must match the grid"):
            grid_density(Grid.log_spaced(0.1, 1.0, 4), np.ones(3))

    def test_negative_density_rejected(self):
        g = Grid.log_spaced(0.1, 1.0, 4)
        with pytest.raises(ValueError):
            grid_density(g, np.array([1.0, -1.0, 0.0, 0.0]))


class TestMoments:
    def test_single_atom_powers(self):
        assert moment(atom(1.0, 1.0), 7.0) == 1.0
        assert moment(atom(2.0, 3.0), 2.0) == 12.0

    def test_planck_mass_series_oracle(self):
        # sum 2/n^3 = 2 zeta(3), independently of the quadrature path
        g = Grid.log_spaced(1e-5, 60.0, 8000)
        assert moment((g, planck_density(g, 0.0)), 0.0) == pytest.approx(2.0 * ZETA3, rel=1e-6)

    def test_origin_atom_negative_order(self):
        with pytest.raises(ZeroDivisionError):
            moment(atom(0.0, 1.0), -0.5)

    def test_exp_moment_examples(self):
        assert exp_moment(atom(1.0, 2.0), 0.25) == pytest.approx(2.0 * math.exp(0.25), rel=1e-15)
        assert exp_moment(atom(0.0, 0.7), 3.0) == 0.7
        u = atom(1.5, 2.0)
        assert exp_moment(u, 0.0) == moment(u, 0.0)

    def test_exp_moment_overflow_flagged(self):
        with pytest.raises(OverflowError):
            exp_moment(atom(1000.0, 1.0), 1.0)

    def test_exp_dominates_mass(self):
        rng = np.random.default_rng(41)
        g = Grid.log_spaced(0.05, 10.0, 60)
        for _ in range(20):
            u = (g, rng.uniform(0.0, 1.0, 60))
            eta = rng.uniform(0.0, 0.5)
            assert exp_moment(u, eta) >= moment(u, 0.0)


def entropy(g: Grid, density: np.ndarray) -> float:
    """The entropy H that a full run records for a density."""
    return float(np.vecdot(_entropy_integrand(g.nodes, density), g.weights))


class TestEntropy:
    """The entropy of the full-equation record, from its integrand."""

    def test_zero_measure(self):
        g = Grid.log_spaced(0.05, 30.0, 200)
        assert entropy(g, np.zeros(g.n)) == 0.0

    def test_equilibrium_maximizes_at_fixed_mass(self):
        g = Grid.log_spaced(1e-3, 40.0, 600)
        dens = planck_density(g, -1.0)
        h_star = entropy(g, dens)
        mass = moment((g, dens), 0.0)
        rng = np.random.default_rng(42)
        for _ in range(10):
            bumpy = dens * (1.0 + 0.3 * rng.uniform(-1.0, 1.0, g.n))
            bumpy = np.clip(bumpy, 0.0, None)
            scale = mass / moment((g, bumpy), 0.0)
            assert entropy(g, bumpy * scale) < h_star


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
            u = atom_arrays(list(zip(pts, mu_u)))
            v = atom_arrays(list(zip(pts, mu_v)))
            oracle = lp_oracle_uniform_grid(pts, mu_u, mu_v)
            assert bl_distance(u, v) == pytest.approx(oracle, abs=1e-9)

    def test_metric_properties_random(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            pts = np.sort(rng.uniform(0.0, 5.0, 4))
            ms = [rng.uniform(0.1, 1.0, 4) for _ in range(3)]
            us = [atom_arrays(list(zip(pts, m))) for m in ms]
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
        mass = moment((g, np.ones(50)), 0.0)
        d = bl_distance(node_carriers(g, np.ones(50)), atom(1.0, mass))
        assert 0.0 < d <= 2.0 * mass


def rescaled_lp(pts: np.ndarray, mu: np.ndarray) -> float:
    """The dual LP by HiGHS on mu rescaled to unit total variation.

    HiGHS works to absolute tolerances of about 1e-7, so on masses far from
    unit scale it must see them rescaled to be an oracle at all.  Its
    feasibility tolerances are tightened from 1e-7 to 1e-10: at the
    defaults some 80-point measures within 0.01 of each other came out
    up to 8.4e-9 off the exact distance, against the 1e-12 relative that
    the comparison allows.
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
                  bounds=[(-1.0, 1.0)] * n, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return max(0.0, -res.fun * total)


def assert_matches_rescaled_lp(u, v) -> None:
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
    return atom_arrays(list(zip(pts, mu_u))), atom_arrays(list(zip(pts_v, mu_v)))


class TestBoundedLipschitzAgainstRescaledLP:
    @settings(max_examples=150, deadline=None)
    @given(pair=signed_atoms())
    def test_atomic_measures(self, pair):
        assert_matches_rescaled_lp(*pair)

    @settings(max_examples=100, deadline=None)
    @given(pair=signed_atoms())
    def test_merged_carriers_are_the_loop_merge(self, pair):
        # the vectorized merge joins a point to the one before it, the loop to
        # its group's first point: the same where no group spans two gaps
        got, want = _signed_point_masses(*pair), signed_point_masses(*pair)
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(got, want))

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
        # the atoms' carriers and the density's, unsorted: bl_distance sorts the union
        nodes = node_carriers(g, rng.uniform(0.0, 1.0, n))
        u = tuple(np.concatenate(c) for c in zip(atom_arrays(atoms), nodes))
        v = atom_arrays([(float(g.nodes[k]), 0.1) for k in rng.integers(0, n, 3)] + atoms[:1])
        assert_matches_rescaled_lp(u, v)

    @pytest.mark.parametrize("seed", [171, 198, 354, 614, 1068])
    def test_close_atoms_at_the_oracle_default_tolerances(self, seed):
        # signed_atoms' construction for 80 points within 0.01 (v's points
        # nudged when the seed is odd): HiGHS at its default feasibility
        # tolerances missed these distances by 5.5e-10 to 8.4e-9
        rng = np.random.default_rng(seed)
        pts = np.unique(0.5 + rng.uniform(0.0, 0.01, 80))
        mu_u, mu_v = rng.uniform(0.0, 1.0, pts.size), rng.uniform(0.0, 1.0, pts.size)
        pts_v = pts.copy()
        if seed % 2:
            near = rng.random(pts.size) < 0.5
            pts_v[near] += 0.3e-12 * np.maximum(1.0, pts[near])
        assert_matches_rescaled_lp(atom_arrays(list(zip(pts, mu_u))), atom_arrays(list(zip(pts_v, mu_v))))

    def test_zero_net_mass_below_lp_tolerance(self):
        # 256 points on [0.5, 30] with masses of about 1e-8: HiGHS on the
        # unscaled problem works to ~1e-7 and cannot see a gap this size
        rng = np.random.default_rng(1)
        pts = np.sort(rng.uniform(0.5, 30.0, 256))
        delta = rng.normal(0.0, 1e-8, 256)
        delta -= delta.mean()
        u = atom_arrays(list(zip(pts, np.maximum(delta, 0.0))))
        v = atom_arrays(list(zip(pts, np.maximum(-delta, 0.0))))
        assert_matches_rescaled_lp(u, v)
        assert bl_distance(u, v) > 1e-7


class TestCarrierRule:
    """Which points carry a state in ``bl_distance``, held bit for bit to
    recorded floats: an atom state's atoms of positive mass only, and every
    node of a density, zero nodes included.  A zero-mass carrier more or
    fewer splits or joins a gap and moves the last bits, as the second
    assertion of each case shows."""

    def test_atoms_with_zero_masses(self):
        x = np.array([0.2355480863263285, 0.8428172509761384, 1.6030002220806325, 1.973877609677713,
                      2.189696403133573, 2.2185884660139172, 2.289371242535702, 2.381626734927714])
        mu = np.array([0.09039216663351417, 0.0, 0.07655450278016605, 0.19333305971758943,
                       0.012748340393111837, 0.2062149769304068, 0.0, 0.11807521064635361])
        mv = np.array([0.0, 0.0, 0.26709373997618435, 0.0, 0.0, 9.579743151075502e-05, 0.06978587517292094,
                       0.0015633910816964054])
        assert bl_distance(atom_carriers(x, mu), atom_carriers(x, mv)) == 0.4343857859715713
        assert bl_distance((x, mu), (x, mv)) == 0.4343857859715712

    def test_densities_with_zero_nodes(self):
        g = Grid.log_spaced(0.2, 10.0, 16)
        u = build_initial({"preset": "truncated_planck", "mu": -0.1, "support_min": 2.0}, g).density
        v = build_initial({"preset": "truncated_planck", "mu": -0.4, "support_min": 1.5}, g).density
        assert np.count_nonzero(u == 0.0) == 9 and np.count_nonzero(v == 0.0) == 8
        assert bl_distance(node_carriers(g, u), node_carriers(g, v)) == 0.33523679466020107
        on_u, on_v = u > 0.0, v > 0.0
        dropped = (g.nodes[on_u], (g.weights * u)[on_u]), (g.nodes[on_v], (g.weights * v)[on_v])
        assert bl_distance(*dropped) == 0.335236794660201


class TestComponents:
    def test_two_far_atoms_split(self):
        u = atom_arrays([(0.1, 1.0), (10.0, 2.0)])
        parts = components(u, TP)
        assert len(parts) == 2
        assert tuple(c.mass for c in parts) == (1.0, 2.0)
        assert tuple(c.min_point for c in parts) == (0.1, 10.0)

    def test_connected_density_single_block(self):
        g = Grid.log_spaced(1.0, 2.0, 80)
        u = node_carriers(g, np.ones(80))
        parts = components(u, TP)
        assert len(parts) == 1

    def test_three_atom_example(self):
        # gamma1(2.4) = 1.2 so 1.5 couples to 2.4; gamma1(1.5) = 0.75 > 0.5
        u = atom_arrays([(0.5, 0.2), (1.5, 0.3), (2.4, 0.5)])
        parts = components(u, TP)
        assert [c.points for c in parts] == [(0.5,), (1.5, 2.4)]
        assert tuple(c.mass for c in parts) == (0.2, 0.8)

    def test_masses_sum_to_total_exactly_for_atoms(self):
        rng = np.random.default_rng(45)
        locs = np.sort(rng.uniform(0.05, 20.0, 12))
        ms = rng.uniform(0.1, 1.0, 12)
        u = atom_arrays(list(zip(locs, ms)))
        parts = components(u, TP)
        # one flat correctly rounded sum over every carrier is the measure's own mass path
        assert math.fsum(m for c in parts for m in c.masses) == moment(u, 0.0)

    def test_masses_sum_mixed(self):
        g = Grid.log_spaced(0.5, 1.5, 60)
        # the density's carriers, then an atom right of the grid
        dens = planck_density(g, 0.0)
        u = tuple(np.concatenate(c) for c in zip(node_carriers(g, dens), atom(20.0, 0.4)))
        parts = components(u, TP)
        assert math.fsum(m for c in parts for m in c.masses) == pytest.approx(0.4 + moment((g, dens), 0.0), rel=1e-14)

    def test_cross_pairs_decoupled(self):
        rng = np.random.default_rng(46)
        locs = np.sort(rng.uniform(0.05, 30.0, 10))
        u = atom_arrays([(float(x), 1.0) for x in locs])
        parts = components(u, TP)
        for i, ci in enumerate(parts):
            for j, cj in enumerate(parts):
                if i == j:
                    continue
                for a in ci.points:
                    for c in cj.points:
                        assert eval_cutoff(TP, a, c) == 0.0

    def test_separation_respects_gap_function(self):
        u = atom_arrays([(0.5, 1.0), (1.5, 1.0), (6.0, 1.0)])
        comps = components(u, TP)
        assert len(comps) >= 2
        for left, right in zip(comps, comps[1:]):
            x_right = right.min_point
            dist = x_right - left.max_point
            assert dist >= z_gap(TP, x_right) - 1e-12


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@st.composite
def densities(draw):
    """A random log grid with a density on it; the values span many decades."""
    value = st.floats(0.0, 1e3) | st.floats(0.0, 1e-300)
    lo = draw(st.floats(1e-4, 1.0))
    n = draw(st.integers(2, 40))
    grid = Grid.log_spaced(lo, lo * draw(st.floats(1.5, 1e4)), n)
    return grid, np.array(draw(st.lists(value, min_size=n, max_size=n)))


def read_snapshot(grid: Grid, density: np.ndarray, path):
    """Parse what ``save_snapshot`` writes for a density on ``grid``: the
    atoms as (x, m) tuples, and the grid rebuilt by ``Grid.log_spaced(min,
    max, n)`` with the density."""
    save_snapshot(grid, density, path)
    with open(path) as f:
        d = json.load(f)
    g = d["grid"]
    assert g["spacing"] == "log"
    return [tuple(a) for a in d["atoms"]], Grid.log_spaced(g["min"], g["max"], g["n"]), np.array(d["density"])


class TestSerialization:
    """A snapshot file holds its floats bit for bit."""

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(47)
        g = Grid.log_spaced(0.02, 22.0, 40)
        u = rng.uniform(0.0, 1.0, 40)
        atoms, grid, density = read_snapshot(g, u, tmp_path / "snapshot.json")
        assert atoms == []
        assert np.array_equal(grid.nodes, g.nodes)
        assert np.array_equal(density, u)

    @settings(max_examples=50, deadline=None)
    @given(state=densities())
    def test_round_trip_bit_exact_on_random_measures(self, tmp_path_factory, state):
        g, u = state
        atoms, grid, density = read_snapshot(g, u, tmp_path_factory.getbasetemp() / "snapshot.json")
        assert atoms == []
        assert np.array_equal(bits(grid.nodes), bits(g.nodes))
        assert np.array_equal(bits(grid.weights), bits(g.weights))
        assert np.array_equal(bits(density), bits(u))

    def test_schema_fields(self, tmp_path):
        g = Grid.log_spaced(0.1, 1.0, 8)
        save_snapshot(g, np.zeros(8), tmp_path / "snapshot.json")
        text = (tmp_path / "snapshot.json").read_text()
        d = json.loads(text)
        assert list(d) == ["atoms", "grid", "density"]
        assert d["grid"] == {"min": 0.1, "max": 1.0, "n": 8, "spacing": "log"}
        assert d["atoms"] == []
        assert text == json.dumps(d, indent=1)


class TestPlanck:
    def test_positive_mu_rejected(self):
        g = Grid.log_spaced(0.1, 1.0, 8)
        with pytest.raises(ValueError):
            planck_density(g, 0.5)

    def test_values(self):
        g = Grid.log_spaced(1.0, 2.0, 3)
        d = planck_density(g, 0.0)
        assert d[0] == pytest.approx(1.0 / (math.e - 1.0), rel=1e-14)
