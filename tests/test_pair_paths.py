"""Pair-list fast paths against their dense and looped reference forms.

The collision rate, the dissipation, the origin flux and the atom RHS are
computed from the kernel's list of in-support pairs (or, for atoms, from
the upper triangle of the rate matrix).  The reference forms below are
the dense n x n and pairwise-loop versions they replaced; they stay here
only as oracles.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptonsim.full_solver import (
    RegularizedKernel,
    _gain_factors,
    _j,
    collision_rhs,
    entropy_dissipation,
    origin_mass_estimate,
)
from comptonsim.kernel import PhysicalParams
from comptonsim.measure import Grid, HybridMeasure, planck_density
from comptonsim.reduced_solver import AtomSystemState, atom_ode_rhs
from comptonsim.truncation import TruncationParams

PP = PhysicalParams()
TP = TruncationParams.solve(0.5, 1.0, 0.8)
EPS_LADDER = [1.0, 0.3, 0.08]


def dense_collision_rhs(u, kern):
    A = _gain_factors(kern.grid.nodes, u)
    P = kern.coupling * np.outer(A, u)
    F = P - P.T
    return F.sum(axis=1) / kern.grid.weights


def dense_density_dissipation(g, kern):
    """Density-density dissipation over all ordered pairs, and its flags
    restricted to the pairs where the kernel is nonzero."""
    A = _gain_factors(kern.grid.nodes, g)
    a = np.outer(A, g)
    vals, _ = _j(a, a.T)
    one = ((a > 0.0) ^ (a.T > 0.0)) & (kern.table != 0.0)
    return float(np.sum(kern.coupling * vals)), int(np.count_nonzero(one))


def dense_origin_fluxes(g, kern, eps_list):
    xs = kern.grid.nodes
    w = kern.grid.weights
    out = []
    for eps in eps_list:
        s = np.clip(xs / eps, 0.0, 1.0)
        phi = (1.0 - s * s) ** 2
        diff = phi[:, None] - phi[None, :]
        rate = np.exp(-xs)[:, None] - np.exp(-xs)[None, :]
        coupling = kern.table * np.outer(w * g, w * g)
        out.append(0.5 * float(np.sum(coupling * rate * diff)))
    return out


def loop_atom_ode_rhs(R, m):
    n = m.size
    out = np.zeros(n)
    for i in range(n):
        for j in range(i + 1, n):
            f = R[i, j] * m[i] * m[j]
            out[i] += f
            out[j] -= f
    return out


def holey_state(rng, n):
    g = rng.uniform(0.0, 2.0, n) * rng.uniform(0.0, 1.0) ** 2
    g[rng.random(n) < 0.15] = 0.0
    return g


def gross_rate(u, kern):
    # rate with every exchange taken in absolute value: the roundoff scale
    A = _gain_factors(kern.grid.nodes, u)
    i, j = kern.pair_i, kern.pair_j
    f = kern.pair_c * (A[i] * u[j] + A[j] * u[i])
    return (np.bincount(i, f, u.size) + np.bincount(j, f, u.size)) / kern.grid.weights


@pytest.fixture(scope="module", params=[48, 128])
def kern(request) -> RegularizedKernel:
    return RegularizedKernel.build(PP, TP, Grid.log_spaced(0.02, 22.0, request.param), n=20)


class TestPairList:
    def test_pairs_are_the_upper_support(self, kern):
        i, j = kern.pair_i, kern.pair_j
        assert np.all(i < j)
        assert i.size == np.count_nonzero(np.triu(kern.table, 1))
        assert np.array_equal(kern.pair_c, kern.coupling[i, j])


class TestAgainstDense:
    def test_collision_rate(self, kern):
        rng = np.random.default_rng(11)
        for _ in range(5):
            u = holey_state(rng, kern.grid.n)
            ref = dense_collision_rhs(u, kern)
            assert np.max(np.abs(collision_rhs(u, kern) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_dissipation(self, kern):
        rng = np.random.default_rng(12)
        for _ in range(5):
            g = holey_state(rng, kern.grid.n)
            parts = entropy_dissipation(HybridMeasure(atoms=[], grid=kern.grid, density=g), kern)
            d_ref, flags_ref = dense_density_dissipation(g, kern)
            assert parts.density_density == pytest.approx(d_ref, rel=1e-12, abs=0.0)
            assert parts.infinite_flags == flags_ref
            assert flags_ref > 0

    def test_origin_fluxes(self, kern):
        rng = np.random.default_rng(13)
        for _ in range(5):
            g = holey_state(rng, kern.grid.n)
            rep = origin_mass_estimate(HybridMeasure(atoms=[], grid=kern.grid, density=g), kern, EPS_LADDER)
            ref = dense_origin_fluxes(g, kern, EPS_LADDER)
            assert rep.flux_values == pytest.approx(ref, rel=1e-12, abs=0.0)


class TestAtomRhsAgainstLoop:
    @pytest.mark.parametrize("n_atoms", [0, 1, 2, 5, 16, 40])
    def test_bitwise(self, n_atoms):
        rng = np.random.default_rng(100 + n_atoms)
        locs = np.cumsum(rng.uniform(0.05, 0.3, n_atoms)) + 1.0
        upper = np.triu(rng.normal(size=(n_atoms, n_atoms)), 1)
        upper[rng.random((n_atoms, n_atoms)) < 0.3] = 0.0
        R = upper - upper.T
        state = AtomSystemState(locations=locs, masses=rng.uniform(0.0, 1.0, n_atoms), rate_matrix=R)
        assert np.array_equal(atom_ode_rhs(state), loop_atom_ode_rhs(R, state.masses))
        # integrator undershoot: small negative and zero masses
        m = state.masses.copy()
        m[rng.random(n_atoms) < 0.3] = -1e-14
        m[rng.random(n_atoms) < 0.2] = 0.0
        fast, ref = atom_ode_rhs(state, m), loop_atom_ode_rhs(R, m)
        assert np.array_equal(fast, ref)
        assert np.array_equal(np.signbit(fast), np.signbit(ref))

    def test_physical_rates(self):
        locs = np.array([1.0, 1.2, 1.45, 1.7, 2.6, 3.1])
        masses = np.array([0.3, 0.1, 0.25, 0.05, 0.2, 0.1])
        state = AtomSystemState.from_physical(PP, TP, locs, masses)
        assert np.array_equal(atom_ode_rhs(state), loop_atom_ode_rhs(state.rate_matrix, masses))


@st.composite
def grids(draw):
    lo = draw(st.floats(0.01, 0.2))
    hi = draw(st.floats(8.0, 30.0))
    return Grid.log_spaced(lo, hi, draw(st.integers(12, 40)))


@st.composite
def kernels(draw):
    return RegularizedKernel.build(PP, TP, draw(grids()), n=draw(st.sampled_from([3, 8, 20])))


PROPERTY = settings(max_examples=15, deadline=None)


class TestProperties:
    @PROPERTY
    @given(kern=kernels(), seed=st.integers(0, 2**32 - 1))
    def test_weighted_rate_sums_to_roundoff(self, kern, seed):
        u = holey_state(np.random.default_rng(seed), kern.grid.n)
        w = kern.grid.weights
        total = math.fsum(w * collision_rhs(u, kern))
        assert abs(total) <= 1e-14 * float(np.dot(w, gross_rate(u, kern)))

    @PROPERTY
    @given(kern=kernels(), seed=st.integers(0, 2**32 - 1))
    def test_dissipation_and_fluxes_nonnegative(self, kern, seed):
        g = holey_state(np.random.default_rng(seed), kern.grid.n)
        u = HybridMeasure(atoms=[], grid=kern.grid, density=g)
        parts = entropy_dissipation(u, kern)
        assert parts.density_density >= 0.0
        assert parts.total >= 0.0
        eps = kern.grid.nodes[0] * np.array([32.0, 8.0, 2.0])
        assert all(f >= 0.0 for f in origin_mass_estimate(u, kern, list(eps)).flux_values)

    @PROPERTY
    @given(kern=kernels(), mu=st.floats(-3.0, 0.0))
    def test_planck_is_fixed_point(self, kern, mu):
        g = planck_density(kern.grid, mu)
        rate = collision_rhs(g, kern)
        assert np.all(np.abs(rate) <= 1e-13 * gross_rate(g, kern))
        parts = entropy_dissipation(HybridMeasure(atoms=[], grid=kern.grid, density=g), kern)
        assert parts.infinite_flags == 0
