"""Pair-list fast paths against their dense and looped reference forms.

The collision rate, the dissipation, the origin flux and the atom RHS are
computed from the kernel's list of in-support pairs (or, for atoms, from
the state's slot list, built from the upper triangle of the rate matrix).  The kernel table and the
physical rate matrix are filled by one screened batch: a vectorized cutoff
picks the pairs, one batch call evaluates them.  The reduced equation's
moment dissipation, the CSV writer and the Picard states go through row
blocks or a preallocated array, and must keep the bits of the whole-array
forms and of the list of per-window rows.  The full solver's recorded diagnostics are
whole-array passes over blocks of recorded states, against a per-record
run that evaluates the per-state density formulas one record at a time.
The reference forms below are the dense n x n, scalar per-pair,
pairwise-loop, three-operand-contraction, ``csv.writer`` and per-record versions they
replaced; they stay here only as oracles and must match bit for bit where
the new path only reorganizes the loop.  The seed-7 benchmark trajectories
also hold the moment balance of ``lyapunov_check`` to its tolerance.
"""

from __future__ import annotations

import contextlib
import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptonsim._dop853 import _DENSE_CHUNK
from comptonsim import full_solver as full_solver_module
from comptonsim import kernel as kernel_module
from comptonsim import reduced_solver as reduced_solver_module
from comptonsim.full_solver import (
    _BLOCK_ROWS,
    RegularizedKernel,
    SolverConfig,
    _gain_factors,
    _j,
    _pair_dissipation,
    collision_rhs,
    exp_moment_rate,
    origin_mass_estimate,
    run_full,
    taper,
)
from comptonsim.harness import _CSV_ROWS, _write_csv, build_initial, load_config, run_reduced_experiment
from comptonsim.kernel import PhysicalParams, eval_kernel_batch
from comptonsim.measure import (
    Grid,
    HybridMeasure,
    _entropy_integrand,
    _entropy_rows,
    moment,
    planck_density,
)
from comptonsim.reduced_solver import (
    AtomSystemState,
    AtomTrajectory,
    PicardTrajectory,
    _cumulative_simpson,
    _dissipation,
    atom_ode_rhs,
    lyapunov_check,
    picard_solve,
    rate_matrix,
    run_atoms,
)
from comptonsim.truncation import (
    TruncationParams,
    eval_cutoff,
    gamma1,
    gamma2,
    kernel_bound_constant,
)

import oracles

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


def triu_atom_ode_rhs(R, m):
    """The atom RHS with the triangle rebuilt by np.triu on every call."""
    if m.size == 0:
        return np.zeros(0)
    F = np.triu((R * m[:, None]) * m[None, :], 1)
    return np.add.accumulate(F - F.T, axis=1)[:, -1]


def einsum_dissipation(R, x, U, alpha):
    """Moment dissipation of each row of U as one three-operand einsum."""
    W = R * (x[:, None] ** alpha - x[None, :] ** alpha)
    return np.einsum("ij,ti,tj->t", W, U, U)


def assert_dissipation_matches(new, R, x, U, alpha):
    """Within 1e-12 of the sum of |terms| of the einsum oracle, row by row."""
    U = np.atleast_2d(U)
    W = R * (x[:, None] ** alpha - x[None, :] ** alpha)
    scale = np.einsum("ij,ti,tj->t", np.abs(W), np.abs(U), np.abs(U))
    assert np.all(np.abs(new - einsum_dissipation(R, x, U, alpha)) <= 1e-12 * scale)


def csv_writer_rows(path, header, rows):
    """The CSV as csv.writer wrote it, one repr(float(v)) per value."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def loop_table_build(pp, tp, grid, n, tol=1e-10):
    """The scalar double loop: gamma window, then cutoff, then kernel, per pair."""
    xs = grid.nodes
    size = xs.size
    tap = np.asarray(taper(n, xs))
    table = np.zeros((size, size))
    raw_x, raw_y, raw_B = [], [], []
    for i in range(size):
        if tap[i] == 0.0:
            continue
        lo = gamma1(tp, xs[i])
        hi = gamma2(tp, xs[i])
        for j in range(i, size):
            if xs[j] < lo or xs[j] > hi or tap[j] == 0.0:
                continue
            phi = eval_cutoff(tp, xs[i], xs[j])
            if phi == 0.0:
                continue
            B = oracles.eval_kernel(pp, xs[i], xs[j], tol).value
            table[i, j] = phi * B * tap[i] * tap[j]
            table[j, i] = table[i, j]
            raw_x.append(xs[i])
            raw_y.append(xs[j])
            raw_B.append(B)
    pair_i, pair_j = np.nonzero(np.triu(table, 1))
    w = grid.weights
    pair_c = table[pair_i, pair_j] * (w[pair_i] * w[pair_j])
    return table, pair_i, pair_j, pair_c, kernel_bound_constant(raw_x, raw_y, raw_B)


def scalar_rate(pp, tp, x, y, tol=1e-10):
    """The per-pair physical rate R(x, y), canonically ordered, and B(x, y)
    (None when the pair never reached the kernel)."""
    if x == y:
        return 0.0, None
    lo, hi = (x, y) if x < y else (y, x)
    phi = eval_cutoff(tp, lo, hi)
    if phi == 0.0:
        return 0.0, None
    B = oracles.eval_kernel(pp, lo, hi, tol).value
    value = phi * B / (lo * hi) * (math.exp(-lo) - math.exp(-hi))
    return (value if x < y else -value), B


def loop_rate_matrix(pp, tp, locs, tol=1e-10):
    """R from scalar_rate over the upper triangle, and C_star over the pairs
    that reached the kernel."""
    n = len(locs)
    R = np.zeros((n, n))
    raw = []
    for i in range(n):
        for j in range(i + 1, n):
            x, y = float(locs[i]), float(locs[j])
            R[i, j], B = scalar_rate(pp, tp, x, y, tol)
            R[j, i] = -R[i, j]
            if B is not None:
                raw.append((x, y, B))
    c_star = kernel_bound_constant(*zip(*raw)) if raw else 0.0
    return R, c_star


@contextlib.contextmanager
def kernel_calls():
    """Record the (x, y, tol) of every pair handed to the kernel inside the
    block: each pair of the batches that the consumers pass to
    eval_kernel_batch, and each call of the scalar eval_kernel that the
    oracles make."""
    seen = []
    real_scalar = oracles.eval_kernel
    real_batch = kernel_module.eval_kernel_batch

    def scalar(pp, x, y, tol=1e-10, *args, **kwargs):
        seen.append((x, y, tol))
        return real_scalar(pp, x, y, tol, *args, **kwargs)

    def batch(pp, x, y, tol=1e-10, *args, **kwargs):
        seen.extend((a, b, tol) for a, b in zip(np.asarray(x).tolist(), np.asarray(y).tolist()))
        return real_batch(pp, x, y, tol, *args, **kwargs)

    patched = [(oracles, "eval_kernel", scalar)]
    patched += [(mod, "eval_kernel_batch", batch) for mod in (full_solver_module, reduced_solver_module)]
    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in patched]
    for mod, name, fn in patched:
        setattr(mod, name, fn)
    try:
        yield seen
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


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
            d, flags = _pair_dissipation(kern, g)
            d_ref, flags_ref = dense_density_dissipation(g, kern)
            assert d == pytest.approx(d_ref, rel=1e-12, abs=0.0)
            assert 2 * flags == flags_ref  # the pair list holds each unordered pair once
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


@st.composite
def truncations(draw):
    theta = draw(st.floats(0.1, 0.85))
    theta1 = draw(st.floats(theta + 0.02, 0.97))
    return TruncationParams.solve(theta, draw(st.floats(0.05, 5.0)), theta1)


PROPERTY = settings(max_examples=15, deadline=None)


def rhs_cases(n_atoms):
    """A sparse random antisymmetric system of n_atoms and mass vectors
    with 0.0, -0.0 and -1e-14 (integrator undershoot) entries."""
    rng = np.random.default_rng(300 + n_atoms)
    locs = np.cumsum(rng.uniform(0.05, 0.3, n_atoms)) + 1.0
    upper = np.triu(rng.normal(size=(n_atoms, n_atoms)), 1)
    upper[rng.random((n_atoms, n_atoms)) < 0.3] = 0.0
    R = upper - upper.T
    state = AtomSystemState(locations=locs, masses=rng.uniform(0.0, 1.0, n_atoms), rate_matrix=R)
    undershoot = state.masses.copy()
    undershoot[rng.random(n_atoms) < 0.3] = -1e-14
    undershoot[rng.random(n_atoms) < 0.2] = 0.0
    undershoot[rng.random(n_atoms) < 0.1] = -0.0
    return state, R, (state.masses, undershoot, np.zeros(n_atoms), np.full(n_atoms, -0.0))


class TestAtomRhsAgainstTriu:
    @pytest.mark.parametrize("n_atoms", range(41))
    def test_bitwise_with_zero_and_negative_masses(self, n_atoms):
        state, R, masses = rhs_cases(n_atoms)
        for m in masses:
            fast, ref = atom_ode_rhs(state, m), triu_atom_ode_rhs(R, m)
            assert np.array_equal(fast, ref)
            assert np.array_equal(np.signbit(fast), np.signbit(ref))
        assert np.array_equal(state.rate_matrix, R)  # the state is only read

    @pytest.mark.parametrize("n_atoms", range(41))
    def test_stacked_rows_are_the_1d_calls(self, n_atoms):
        state, R, masses = rhs_cases(n_atoms)
        stack = np.stack(masses)
        for shaped in (stack, stack.reshape(2, 2, n_atoms), stack[1:2]):
            rates = atom_ode_rhs(state, shaped)
            assert rates.shape == shaped.shape
            for idx in np.ndindex(shaped.shape[:-1]):
                row, one = rates[idx], atom_ode_rhs(state, shaped[idx])
                assert np.array_equal(row, one)
                assert np.array_equal(np.signbit(row), np.signbit(one))
        assert np.array_equal(state.rate_matrix, R)


@st.composite
def slot_cases(draw):
    """A random sparse antisymmetric table of 0 to 40 atoms (all zero in
    some draws, with -0.0 upper entries where a normal draw was masked off)
    and a stack of 1 to ``_DENSE_CHUNK`` mass vectors holding 0.0, -0.0 and
    -1e-14 (integrator undershoot) entries."""
    n = draw(st.integers(0, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.05, 0.3, 1.0]))
    upper = np.triu(rng.normal(size=(n, n)), 1) * (rng.random((n, n)) < density)
    R = upper - upper.T
    state = AtomSystemState(locations=np.cumsum(rng.uniform(0.05, 0.3, n)) + 1.0,
                            masses=rng.uniform(0.0, 1.0, n), rate_matrix=R)
    stack = rng.uniform(0.0, 1.0, (draw(st.integers(1, _DENSE_CHUNK)), n))
    kind = rng.random(stack.shape)
    stack[kind < 0.15] = 0.0
    stack[(kind >= 0.15) & (kind < 0.3)] = -0.0
    stack[(kind >= 0.3) & (kind < 0.45)] = -1e-14
    return state, R, stack


class Poisoned:
    """Stands in for a state's rate matrix that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"rate_matrix.{name} read")

    def __array__(self, *args, **kwargs):
        raise AssertionError("rate_matrix read as an array")


class TestAtomRhsOverSlots:
    """The RHS over the state's slot list, against the pairwise loop."""

    @settings(max_examples=40, deadline=None)
    @given(case=slot_cases())
    def test_bitwise_against_the_loop_in_1d_and_stacked_calls(self, case):
        state, R, stack = case
        rates = atom_ode_rhs(state, stack)
        assert rates.shape == stack.shape and rates.dtype == np.float64
        for m, stacked in zip(stack, rates):
            one, ref = atom_ode_rhs(state, m), loop_atom_ode_rhs(R, m)
            for got in (one, stacked):
                assert got.dtype == np.float64
                assert np.array_equal(got, ref)
                assert np.array_equal(np.signbit(got), np.signbit(ref))

    def test_never_reads_the_rate_matrix(self):
        state, _, masses = rhs_cases(16)
        stack = np.stack(masses)
        before = [atom_ode_rhs(state), atom_ode_rhs(state, stack)]
        object.__setattr__(state, "rate_matrix", Poisoned())
        after = [atom_ode_rhs(state), atom_ode_rhs(state, stack)]
        for a, b in zip(before, after):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    def test_seed7_evaluation_count(self, seed7_trajectories):
        # the step sequence of the benchmark's atom run, as it was over the
        # dense RHS: 17 177 calls, of which the stacked ones count one per row
        assert seed7_trajectories[0].nfev == 21068


def seed7_reduced_inputs():
    """The benchmark's reduced-both inputs at seed 7: sixteen atoms on two
    jittered lattices decoupled from each other, then mu of the truncated
    Planck density of the Picard run, drawn in that order."""
    rng = np.random.default_rng(7)
    locs = []
    for lo, hi, k in ((1.05, 1.35, 8), (2.9, 3.5, 8)):
        locs.append(np.linspace(lo, hi, k) + rng.uniform(-0.05, 0.05, k) * (hi - lo) / (k - 1))
    locs = np.concatenate(locs)
    masses = rng.uniform(0.9, 1.1, locs.size) / locs.size
    return locs, masses, float(rng.uniform(-0.5, 0.0))


@pytest.fixture(scope="module")
def seed7_trajectories():
    locs, masses, mu = seed7_reduced_inputs()
    atoms = run_atoms(AtomSystemState.from_physical(PP, TP, locs, masses), 5e4, n_record=20001)
    grid = Grid.log_spaced(0.5, 30.0, 128)
    u0 = build_initial({"preset": "truncated_planck", "mu": mu, "support_min": 0.5}, grid)
    picard = picard_solve(u0, PP, TP, t_end=4.0, dt=1e-3, eta=0.3)
    return atoms, picard


def atom_form(traj):
    return traj.state0.rate_matrix, traj.locations, traj.masses


def picard_form(traj):
    return traj.rate_grid, traj.grid.nodes, traj.states * traj.grid.weights


@st.composite
def admissible_rates(draw):
    """Sorted locations and an antisymmetric rate matrix that moves mass
    toward lower energy (R_ij >= 0 for i < j): the physical one of a random
    truncation, or a random sparse one."""
    grid = draw(grids())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        R = rate_matrix(PP, draw(truncations()), grid.nodes)[0]
    else:
        upper = np.triu(rng.exponential(size=(grid.n, grid.n)), 1)
        upper[rng.random(upper.shape) < 0.5] = 0.0
        R = upper - upper.T
    U = rng.uniform(0.0, 2.0, (draw(st.integers(1, 30)), grid.n))
    U[rng.random(U.shape) < 0.2] = 0.0
    return grid, R, U


class TestDissipationAgainstEinsum:
    """U @ W and a row-wise dot against the three-operand einsum."""

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_seed7_benchmark_trajectories(self, seed7_trajectories, alpha):
        atoms, picard = seed7_trajectories
        for traj, form in ((atoms, atom_form), (picard, picard_form)):
            d = traj.dissipation_series(alpha)
            assert d.shape == traj.times.shape
            assert_dissipation_matches(d, *form(traj), alpha)
            assert np.all(d <= 0.0) and np.min(d) < 0.0

    @PROPERTY
    @given(data=admissible_rates(), alpha=st.sampled_from([1.5, 2.0, 3.0]))
    def test_random_grids_rates_and_states(self, data, alpha):
        grid, R, U = data
        x = grid.nodes
        atoms = AtomTrajectory(
            state0=AtomSystemState(locations=x, masses=U[0], rate_matrix=R),
            times=np.arange(len(U), dtype=float),
            masses=U,
            nfev=0,
        )
        picard = PicardTrajectory(
            grid=grid, times=atoms.times, states=U / grid.weights, rate_grid=R,
            growth_constant=0.0, window_count=0, iterations_total=0,
        )
        for traj, form in ((atoms, atom_form), (picard, picard_form)):
            d = traj.dissipation_series(alpha)
            assert_dissipation_matches(d, *form(traj), alpha)
            assert np.all(d <= 0.0)
        for m in U[:3]:
            d = _dissipation(R, x, m[None, :], alpha)  # one state, as a one-row stack
            assert_dissipation_matches(d, R, x, m, alpha)
            assert d.shape == (1,) and d[0] <= 0.0

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_exactly_zero_when_decoupled(self, alpha):
        # mass only on grid nodes that are pairwise decoupled, while the
        # empty nodes between them couple to every one of them
        grid = Grid.log_spaced(0.5, 30.0, 64)
        x = grid.nodes
        R = rate_matrix(PP, TP, x)[0]
        support = [0]
        for k in range(1, x.size):
            if x[k] > gamma2(TP, x[support[-1]]):
                support.append(k)
        assert len(support) >= 3 and not np.any(R[np.ix_(support, support)])
        U = np.zeros((5, x.size))
        U[:, support] = np.random.default_rng(14).uniform(0.1, 1.0, (5, len(support)))
        atoms = AtomTrajectory(AtomSystemState(locations=x, masses=U[0], rate_matrix=R), np.arange(5.0), U, 0)
        assert np.all(atoms.dissipation_series(alpha) == 0.0)
        assert np.all(einsum_dissipation(R, x, U, alpha) == 0.0)
        assert _dissipation(R, x, U[:1], alpha).tolist() == [0.0]


def whole_dissipation(R, x, U, alpha):
    """The moment dissipation as one matrix product over all rows."""
    W = R * (x[:, None] ** alpha - x[None, :] ** alpha)
    return np.einsum("...i,...i->...", U @ W, U)


DISSIPATION_ROWS = reduced_solver_module._BLOCK_ROWS


class TestBlockedDissipation:
    """_dissipation goes through blocks of rows, the last one taking the
    remainder, and keeps the bits of the product over all rows."""

    @pytest.mark.parametrize("rows", [DISSIPATION_ROWS - 1, DISSIPATION_ROWS, DISSIPATION_ROWS + 1,
                                      2 * DISSIPATION_ROWS + 3])
    @pytest.mark.parametrize("n", [16, 128])
    def test_bits_of_the_whole_product(self, rows, n):
        rng = np.random.default_rng(rows * n)
        x = np.sort(rng.uniform(0.5, 30.0, n))
        upper = np.triu(rng.exponential(size=(n, n)), 1)
        upper[rng.random(upper.shape) < 0.5] = 0.0
        R = upper - upper.T
        U = rng.uniform(0.0, 2.0, (rows, n))
        U[rng.random(U.shape) < 0.2] = 0.0
        w = rng.uniform(0.1, 1.0, n)
        for alpha in (2.0, 3.0):
            assert np.array_equal(_dissipation(R, x, U, alpha), whole_dissipation(R, x, U, alpha))
            assert np.array_equal(_dissipation(R, x, U, alpha, w), whole_dissipation(R, x, U * w, alpha))

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_seed7_benchmark_trajectories(self, seed7_trajectories, alpha):
        atoms, picard = seed7_trajectories
        assert np.array_equal(atoms.dissipation_series(alpha), whole_dissipation(*atom_form(atoms), alpha))
        assert np.array_equal(picard.dissipation_series(alpha), whole_dissipation(*picard_form(picard), alpha))


def list_picard_solve(u0, t_end, eta, dt):
    """picard_solve's windows as they were: each accepted window's rows
    appended to lists, and the arrays made by np.asarray at the end."""
    grid = u0.grid
    w = grid.weights
    omega = 1.0 + grid.nodes**-1.5
    paired = rate_matrix(PP, TP, grid.nodes)[0] * w[None, :]
    times, states = [0.0], [u0.density.copy()]
    t0, u_start = 0.0, u0.density.copy()
    current = min(reduced_solver_module._FIRST_WINDOW, t_end)
    while t0 < t_end - 1e-12 * t_end:
        length = min(current, t_end - t0)
        local_t = np.linspace(0.0, length, max(2, int(math.ceil(length / dt)) + 1))
        cumulative = _cumulative_simpson(local_t)
        iterate = np.tile(u_start, (local_t.size, 1))
        prev_err = math.inf
        for _ in range(reduced_solver_module._MAX_ITERATIONS):
            new = u_start[None, :] * np.exp(np.minimum(cumulative(iterate @ paired.T), 700.0))
            err = float(np.max(np.abs(new - iterate) @ (w * omega)))
            iterate = new
            if err <= reduced_solver_module._PICARD_TOL:
                break
            if not math.isfinite(err) or (err > 4.0 * prev_err and err > 1.0):
                iterate = None
                break
            prev_err = err
        else:
            iterate = None
        if iterate is None:
            current = 0.5 * length
            continue
        times.extend((t0 + local_t[1:]).tolist())
        states.extend(iterate[1:])
        u_start = iterate[-1].copy()
        t0 += length
    return np.asarray(times), np.asarray(states)


class TestPicardStates:
    """picard_solve writes each window's rows into one preallocated array,
    grown when halved windows need more rows than windows of the first
    length add; the states and times are those of the list of rows."""

    @pytest.mark.parametrize("scale, dt, grows", [(1.0, 1e-3, False), (50.0, 0.013, False), (200.0, 0.013, True)])
    def test_against_the_list_of_rows(self, scale, dt, grows):
        grid = Grid.log_spaced(0.5, 10.0, 24)
        u0 = HybridMeasure(atoms=[], grid=grid, density=scale * planck_density(grid, 0.0))
        traj = picard_solve(u0, PP, TP, t_end=1.0, eta=0.3, dt=dt)
        times, states = list_picard_solve(u0, 1.0, 0.3, dt)
        assert np.array_equal(traj.times, times) and np.array_equal(traj.states, states)
        first = math.ceil(1.0 / reduced_solver_module._FIRST_WINDOW)
        assert (traj.window_count > first) is (scale > 1.0)  # the heavier densities halve their windows
        # windows of the first length add at most 1/dt rows plus one per window
        assert (len(times) > 1 + math.ceil(1.0 / dt) + first + 1) is grows


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """A reduced run holds its records and about one block besides, not
    whole-trajectory copies (those made the peaks 3.19 and 3.98 times)."""

    def test_picard_run(self, tmp_path):
        mu = seed7_reduced_inputs()[2]
        cfg = load_config(data={
            "grid": {"min": 0.5, "max": 30.0, "n": 128},
            "initial": {"preset": "truncated_planck", "mu": mu, "support_min": 0.5},
            "reduced": {"t_end": 4.0, "dt": 1e-3},
            "diagnostics": {"eta": 0.3},
        }, equation="reduced")
        (_, traj), peak = traced_peak(run_reduced_experiment, cfg, str(tmp_path), mode="picard", classify=False)
        assert len(traj.times) == 4001
        assert peak <= 2.2 * traj.states.nbytes

    def test_atom_run(self, tmp_path):
        locs, masses, _ = seed7_reduced_inputs()
        cfg = load_config(data={
            "initial": {"preset": "atoms", "atoms": [[x, m] for x, m in zip(locs.tolist(), masses.tolist())]},
            "reduced": {"t_end": 5e4, "stationarity_window": 50.0},
        }, equation="reduced")
        (_, traj), peak = traced_peak(run_reduced_experiment, cfg, str(tmp_path), mode="atoms")
        assert traj.masses.shape == (20001, 16)
        assert peak <= 3.0 * traj.masses.nbytes


class TestMomentBalanceOnSeed7:
    """lyapunov_check's moment balance on the benchmark's trajectories: 20 001
    atom records to t = 5e4, where a centred difference of M misses D/2 by
    about 3e-3, and the Picard run; the Simpson balance holds them to 1e-4
    and still sees D off by 1e-3."""

    @pytest.mark.parametrize("scale, passes", [(1.0, True), (1.0 + 1e-3, False)])
    def test_balance_holds_and_sees_a_scaled_dissipation(self, seed7_trajectories, monkeypatch, scale, passes):
        for traj, eta in zip(seed7_trajectories, (0.25, 0.3)):
            with monkeypatch.context() as m:
                m.setattr(traj, "dissipation_series", lambda alpha, d=traj.dissipation_series: scale * d(alpha))
                rep = lyapunov_check(traj, eta=eta)
            assert rep.balance_ok is passes, rep.max_balance_error
            assert all(rep.monotone.values()) and rep.exp_moment_monotone


SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
    1.0, -3.0, 2.0**53, 1e16, 123456789.0, 0.1, 1e-5, 1e-300, 2.5e-7,
]


# distinct bit patterns, some with equal repr: -nan and nan both print as nan
REPEATED_FLOATS = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.1, 1.0 / 3.0, -2.5, 1e300,
]


class TestCsvWriterAgainstCsvModule:
    """_write_csv takes columns and must write csv.writer's bytes."""

    def check(self, tmp_path, header, columns):
        _write_csv(str(tmp_path / "new.csv"), header, columns)
        csv_writer_rows(str(tmp_path / "ref.csv"), header, zip(*columns))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_special_values(self, tmp_path):
        col = np.array(SPECIAL_FLOATS)
        ints = list(range(-3, col.size - 3))  # integer-valued, written as floats
        self.check(tmp_path, ["a", "b", "c", "d"], (col, col[::-1], ints, list(reversed(SPECIAL_FLOATS))))

    def test_integer_columns_and_no_rows(self, tmp_path):
        self.check(tmp_path, ["i", "j"], ([1, 2, 3], np.array([-4, 0, 7])))
        self.check(tmp_path, ["t", "x"], (np.zeros(0), []))

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.tuples(st.floats(), st.floats(), st.floats(width=32)), max_size=40))
    def test_arbitrary_floats(self, tmp_path_factory, rows):
        columns = [np.array([r[k] for r in rows], dtype=float) for k in range(3)]
        self.check(tmp_path_factory.mktemp("csv"), ["x", "y", "z"], columns)

    def test_long_runs_of_repeated_values(self, tmp_path):
        # a converged trajectory repeats its values; the writer formats each bit pattern once
        rng = np.random.default_rng(17)
        pool = np.array(REPEATED_FLOATS)
        runs = np.repeat(pool[rng.integers(0, pool.size, 80)], rng.integers(1, 300, 80))
        columns = (runs, runs[::-1], rng.permutation(runs), np.full(runs.size, -0.0), np.arange(runs.size))
        self.check(tmp_path, ["a", "b", "c", "d", "i"], columns)

    @pytest.mark.parametrize("rows", [_CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 3])
    def test_row_blocks(self, tmp_path, rows):
        # the writer formats blocks of rows; runs of repeated values, 0.0 and
        # -0.0 cross the block boundaries
        rng = np.random.default_rng(rows)
        pool = np.array(REPEATED_FLOATS)
        runs = np.repeat(pool[rng.integers(0, pool.size, rows)], rng.integers(1, 600, rows))[:rows]
        signed_zeros = np.where(rng.random(rows) < 0.5, 0.0, -0.0)
        columns = (np.arange(rows) * 0.25, runs, signed_zeros, rng.standard_normal(rows), np.full(rows, 1.0 / 3.0))
        self.check(tmp_path, ["t", "a", "z", "r", "c"], columns)

    def test_columns_of_unequal_length(self, tmp_path):
        with pytest.raises(ValueError):
            _write_csv(str(tmp_path / "new.csv"), ["a", "b"], ([1.0, 2.0], [1.0]))

    @settings(max_examples=30, deadline=None)
    @given(rows=st.lists(st.tuples(*[st.sampled_from(REPEATED_FLOATS)] * 2, st.floats()), max_size=200))
    def test_repeated_special_floats(self, tmp_path_factory, rows):
        columns = [np.array([r[k] for r in rows], dtype=float) for k in range(3)]
        self.check(tmp_path_factory.mktemp("csv"), ["x", "y", "z"], columns)


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
        assert _pair_dissipation(kern, g)[0] >= 0.0
        eps = kern.grid.nodes[0] * np.array([32.0, 8.0, 2.0])
        assert all(f >= 0.0 for f in origin_mass_estimate(u, kern, list(eps)).flux_values)

    @PROPERTY
    @given(kern=kernels(), mu=st.floats(-3.0, 0.0))
    def test_planck_is_fixed_point(self, kern, mu):
        g = planck_density(kern.grid, mu)
        rate = collision_rhs(g, kern)
        assert np.all(np.abs(rate) <= 1e-13 * gross_rate(g, kern))
        assert _pair_dissipation(kern, g)[1] == 0


COLUMNS = ("times", "M0", "X_eta", "H", "entropy_dissipation", "origin_mass_series")


def per_record_run(u0, kern, cfg):
    """run_full as it was before the block pass: the same steps, and per
    record the per-state density formulas of ``parent_density_parts``, with
    the origin atom's terms added in front as the run adds them (its mass to
    M0, X_eta and the origin mass; -0 * mass to H; nothing to D, since the
    taper vanishes at 0).  Returns each column as a list of per-record
    values, every state, and the growth bound e^{C_eta t} X_eta(0) per record
    as the full run once recorded it, X_eta(0) from the initial measure."""
    c_eta = exp_moment_rate(TP, kern.bound_constant, cfg.eta)
    origin = [m for _, m in u0.atoms]  # run_full admits no atom but the origin's
    eps = float(u0.grid.nodes[0] * 2.0)
    x0 = oracles.exp_moment(u0, cfg.eta)
    ref = {name: [] for name in (*COLUMNS, "states", "growth_bound")}

    def snapshot(t, g):
        (m0, *_), x_eta, h, d_pairs, below = parent_density_parts(g, kern, eps, cfg.eta)
        ref["times"].append(t)
        ref["M0"].append(math.fsum(origin) + m0)
        ref["X_eta"].append(math.fsum(origin) + x_eta)
        ref["H"].append(-math.fsum(0.0 * m for m in origin) + h)
        ref["entropy_dissipation"].append(0.5 * d_pairs)
        ref["origin_mass_series"].append(math.fsum(origin) + below)
        ref["growth_bound"].append(math.exp(c_eta * t) * x0)
        ref["states"].append(g.copy())

    g = u0.density.copy()
    snapshot(0.0, g)
    t, steps = 0.0, 0
    horizon = cfg.t_end * (1.0 - 1e-12)
    while t < horizon:
        g, used = full_solver_module.step(g, kern, cfg, min(cfg.dt_init, cfg.t_end - t))
        t += used
        steps += 1
        if steps % cfg.record_every == 0 or t >= horizon:
            snapshot(t, g)
    return ref


def assert_same_records(traj, kern, cfg, ref):
    """Every column equal to the per-record values with ==, no tolerance,
    at every record, and so is the growth bound built from the record's
    X_eta(0); the final state bit for bit."""
    for name in COLUMNS:
        column = getattr(traj, name)
        assert column.dtype == np.float64 and column.tolist() == ref[name], name
    bound = oracles.growth_bound(traj, exp_moment_rate(TP, kern.bound_constant, cfg.eta))
    assert bound.dtype == np.float64 and bound.tolist() == ref["growth_bound"]
    assert np.array_equal(bits(traj.final), bits(ref["states"][-1]))


def parent_j(a, b):
    """J(a, b) = (a - b)(log a - log b) as one expression, as _j computed it
    before it worked in place, and its one-sided count."""
    both = (a > 0.0) & (b > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(both, (a - b) * (np.log(np.where(both, a, 1.0)) - np.log(np.where(both, b, 1.0))), 0.0)
    return vals, int(np.count_nonzero((a > 0.0) ^ (b > 0.0)))


def parent_density_parts(g, kern, eps, eta=0.3):
    """The per-state density formulas as written before the row helpers:
    the power moments of order 0 to 3, X_eta, H, the pair part of D and the
    grid mass below eps."""
    xs, w = kern.grid.nodes, kern.grid.weights
    A = _gain_factors(xs, g)
    i, j = kern.pair_i, kern.pair_j
    vals, _ = parent_j(A[i] * g[j], A[j] * g[i])
    return (
        [float(np.dot(w, xs**rho * g)) for rho in (0.0, 1.0, 2.0, 3.0)],
        float(np.dot(w, np.exp(eta * xs) * g)),
        float(np.dot(w, _entropy_integrand(xs, g))),
        2.0 * float(np.dot(kern.pair_c, vals)),
        float(np.dot(w[xs < eps], g[xs < eps])),
    )


@st.composite
def full_runs(draw):
    """A kernel on a random log grid, a density (Planck or random with holes)
    with or without an origin atom, and a config recording a given number of
    states: 1 at t = 0, then one per record_every steps, and the last step."""
    grid = Grid.log_spaced(draw(st.floats(0.01, 0.2)), draw(st.floats(8.0, 30.0)), draw(st.integers(8, 96)))
    kern = RegularizedKernel.build(PP, TP, grid, draw(st.sampled_from([3, 8, 20])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = planck_density(grid, draw(st.floats(-2.0, -0.1))) if draw(st.booleans()) else holey_state(rng, grid.n)
    atoms = [(0.0, draw(st.floats(0.01, 1.0)))] if draw(st.booleans()) else []
    every = draw(st.sampled_from([1, 3]))
    records = draw(st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 2]))
    steps = (records - 2) * every + draw(st.integers(1, every))  # the last group may be partial
    dt = 2.0**-10  # dyadic, so the step times sum exactly
    cfg = SolverConfig(t_end=steps * dt, dt_init=dt, record_every=every, mass_tolerance=1e-6)
    return HybridMeasure(atoms=atoms, grid=grid, density=g), kern, cfg, records


class TestBlockDiagnosticsAgainstPerRecord:
    """run_full's block pass against the per-record closure it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(run=full_runs())
    def test_every_field_equal(self, run):
        u0, kern, cfg, records = run
        ref = per_record_run(u0, kern, cfg)
        traj = run_full(u0, kern, cfg)
        assert len(traj.times) == records
        assert_same_records(traj, kern, cfg, ref)

    @pytest.mark.parametrize("atoms", [[], [(0.0, 0.3)]])
    def test_with_rejected_steps(self, kern, atoms, monkeypatch):
        asked_used = []
        real_step = full_solver_module.step

        def spy(u, kern, cfg, dt):
            u_next, used = real_step(u, kern, cfg, dt)
            asked_used.append((dt, used))
            return u_next, used

        monkeypatch.setattr(full_solver_module, "step", spy)
        u0 = HybridMeasure(atoms=atoms, grid=kern.grid, density=holey_state(np.random.default_rng(41), kern.grid.n))
        cfg = SolverConfig(t_end=24.0, dt_init=2.0, record_every=1, mass_tolerance=1e-6)
        traj = run_full(u0, kern, cfg)
        assert any(used < dt for dt, used in asked_used)
        assert len(traj.times) > _BLOCK_ROWS
        assert_same_records(traj, kern, cfg, per_record_run(u0, kern, cfg))

    @PROPERTY
    @given(kern=kernels(), seed=st.integers(0, 2**32 - 1), planck=st.booleans())
    def test_per_state_functions_keep_their_bits(self, kern, seed, planck):
        g = planck_density(kern.grid, -0.7) if planck else holey_state(np.random.default_rng(seed), kern.grid.n)
        u = HybridMeasure(atoms=[], grid=kern.grid, density=g)
        eps = float(kern.grid.nodes[0] * 2.0)
        moments, x_eta, h, d_pairs, below = parent_density_parts(g, kern, eps)
        assert [moment(u, rho) for rho in (0.0, 1.0, 2.0, 3.0)] == moments
        assert oracles.exp_moment(u, 0.3) == x_eta and _entropy_rows([], kern.grid, g) == h
        assert _pair_dissipation(kern, g)[0] == d_pairs
        assert origin_mass_estimate(u, kern, [4.0 * eps, eps]).mass_estimates[-1] == below

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(7,), (9, 9), (40, 40)]))
    def test_j_keeps_the_one_expression_bits(self, seed, shape):
        # zeros on both sides, one side, or neither; and an aliased call _j(a, a.T)
        rng = np.random.default_rng(seed)
        a, b = (rng.lognormal(0.0, 3.0, shape) * (rng.random(shape) < 0.7) for _ in range(2))
        for x, y in ((a, b), (b, a), (a, a.T)):
            before = x.copy(), y.copy()
            (got, got_flags), (want, want_flags) = _j(x, y), parent_j(x, y)
            assert np.array_equal(bits(got), bits(want)) and got_flags == want_flags
            assert np.array_equal(x, before[0]) and np.array_equal(y, before[1])


class TestScreenedBatchAgainstLoops:
    """The screened batch path against the scalar per-pair loops."""

    @PROPERTY
    @given(grid=grids(), n=st.integers(1, 25), tp=truncations())
    def test_table_pairs_and_bound_constant(self, grid, n, tp):
        with kernel_calls() as seen:
            kern = RegularizedKernel.build(PP, tp, grid, n)
        with kernel_calls() as ref:
            table, pair_i, pair_j, pair_c, c_star = loop_table_build(PP, tp, grid, n)
        assert seen == ref  # the same points reach the kernel, in order
        assert np.array_equal(kern.table, table)
        assert np.array_equal(kern.pair_i, pair_i) and np.array_equal(kern.pair_j, pair_j)
        assert np.array_equal(kern.pair_c, pair_c)
        assert kern.bound_constant == c_star

    @pytest.mark.parametrize("size", [128, 192])
    def test_table_on_benchmark_grids(self, size):
        grid = Grid.log_spaced(0.02, 22.0, size)
        kern = RegularizedKernel.build(PP, TP, grid, 20)
        table, _, _, pair_c, c_star = loop_table_build(PP, TP, grid, 20)
        assert np.array_equal(kern.table, table) and np.array_equal(kern.pair_c, pair_c)
        assert kern.bound_constant == c_star

    @PROPERTY
    @given(grid=grids(), tp=truncations())
    def test_rate_matrix_on_grids(self, grid, tp):
        with kernel_calls() as seen:
            R, c_star = rate_matrix(PP, tp, grid.nodes)
        with kernel_calls() as ref:
            R_ref, c_ref = loop_rate_matrix(PP, tp, grid.nodes, 1e-10)
        assert seen == ref
        assert np.array_equal(R, R_ref) and c_star == c_ref
        assert np.array_equal(R, -R.T)

    def test_rate_matrix_on_picard_grid(self):
        grid = Grid.log_spaced(0.5, 30.0, 128)
        R, c_star = rate_matrix(PP, TP, grid.nodes)
        R_ref, c_ref = loop_rate_matrix(PP, TP, grid.nodes)
        assert np.array_equal(R, R_ref) and c_star == c_ref

    @pytest.mark.parametrize("seed", range(20))
    def test_rate_matrix_on_atom_sets(self, seed):
        rng = np.random.default_rng(500 + seed)
        locs = np.sort(rng.uniform(0.05, 8.0, 16))
        state = AtomSystemState.from_physical(PP, TP, locs, np.full(16, 1.0 / 16))
        R_ref, _ = loop_rate_matrix(PP, TP, locs)
        assert np.array_equal(state.rate_matrix, R_ref)

    def test_repeated_location_does_not_couple(self):
        # an atom sitting on a grid node appears twice among the support points
        locs = [1.0, 1.2, 1.2, 1.5]
        with kernel_calls() as seen:
            R, _ = rate_matrix(PP, TP, locs)
        with kernel_calls() as ref:
            R_ref, _ = loop_rate_matrix(PP, TP, locs)
        assert R[1, 2] == 0.0 and R[2, 1] == 0.0
        assert np.array_equal(R, R_ref) and seen == ref

    def test_rate_matrix_needs_sorted_locations(self):
        with pytest.raises(ValueError, match="sorted"):
            rate_matrix(PP, TP, [1.2, 1.0])

    def test_batch_matches_scalar_kernel(self):
        x = np.array([0.1, 1.0, 2.0, 5.0])
        y = np.array([0.12, 1.0, 2.6, 4.0])
        values, errors = eval_kernel_batch(PP, x, y, 1e-9)
        for k in range(x.size):
            s = oracles.eval_kernel(PP, x[k], y[k], 1e-9)
            assert (values[k], errors[k]) == (s.value, s.abs_error_estimate)
        empty = eval_kernel_batch(PP, np.zeros(0), np.zeros(0))
        assert empty[0].shape == empty[1].shape == (0,)


class TestCutoffProperties:
    @PROPERTY
    @given(tp=truncations(), x=st.floats(1e-4, 50.0), y=st.floats(1e-4, 50.0))
    def test_symmetric_bitwise(self, tp, x, y):
        assert bits(eval_cutoff(tp, x, y)) == bits(eval_cutoff(tp, y, x))

    @PROPERTY
    @given(tp=truncations(), grid=grids())
    def test_vectorized_equals_scalar_bitwise(self, tp, grid):
        i, j = np.triu_indices(grid.n)
        x, y = grid.nodes[i], grid.nodes[j]
        vec = eval_cutoff(tp, x, y)
        scalar = [eval_cutoff(tp, float(a), float(b)) for a, b in zip(x, y)]
        assert np.array_equal(bits(vec), bits(scalar))
        assert np.array_equal(bits(vec), bits(eval_cutoff(tp, y, x)))
