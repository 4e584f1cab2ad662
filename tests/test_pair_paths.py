"""Pair-list fast paths against their dense and looped reference forms.

The collision rate, the dissipation and the atom RHS are
computed from the kernel's list of in-support pairs (or, for atoms, from
the state's slot list, built from the upper triangle of the rate matrix).  The kernel table and the
physical rate matrix are filled by one screened batch: a vectorized cutoff
picks the pairs, one batch call evaluates them.  The reduced equation's
moment dissipation, the CSV writer, the dense output and the oracle
fixed point's states go through row blocks or a preallocated array, and
must keep the bits of the whole-array forms and of the list of per-window
rows.  The full solver's recorded diagnostics are
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
import dataclasses
import json
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptonsim import _dop853
from comptonsim._dop853 import _DENSE_CHUNK, ATOL, RTOL
from comptonsim import full_solver as full_solver_module
from comptonsim import kernel as kernel_module
from comptonsim.full_solver import (
    _BLOCK_ROWS,
    RegularizedKernel,
    SolverConfig,
    _entropy_integrand,
    _gain_factors,
    _j,
    _pair_dissipation,
    collision_rhs,
    exp_moment_rate,
    run_full,
    taper,
)
from comptonsim.harness import (
    _CSV_ROWS,
    _write_csv,
    build_initial,
    load_config,
    run_full_experiment,
    run_reduced_experiment,
)
from comptonsim.kernel import PhysicalParams, eval_kernel_batch, screened_pairs
from comptonsim.measure import Grid, planck_density
from comptonsim.reduced_solver import (
    AtomSystemState,
    atom_ode_rhs,
    lyapunov_check,
    rate_pairs,
    run_atoms,
    run_density,
)
from comptonsim.truncation import (
    TruncationParams,
    eval_cutoff,
    gamma1,
    gamma2,
    kernel_bound_constant,
)

import oracles
from oracles import dense_rates, rate_matrix

PP = PhysicalParams()
TP = TruncationParams.solve(0.5, 1.0, 0.8)


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


def physical_rates(pp, tp, locs):
    """The package's physical rate pairs at sorted locs as the dense R that
    ``oracles.dense_rates`` fills, and C_star."""
    i, j, r, c_star = rate_pairs(pp, tp, locs)
    pairs = types.SimpleNamespace(locations=np.asarray(locs, dtype=float), pair_i=i, pair_j=j, pair_r=r)
    return dense_rates(pairs), c_star


@contextlib.contextmanager
def kernel_calls():
    """Record the (x, y, tol) of every pair handed to the kernel inside the
    block: each pair of the batches that the pair builder and the dense
    oracles pass to eval_kernel_batch (each looks it up in ``kernel`` when
    called), and each call of the scalar eval_kernel that the oracles
    make."""
    seen = []
    real_scalar = oracles.eval_kernel
    real_batch = kernel_module.eval_kernel_batch

    def scalar(pp, x, y, tol=1e-10, *args, **kwargs):
        seen.append((x, y, tol))
        return real_scalar(pp, x, y, tol, *args, **kwargs)

    def batch(pp, x, y, tol=1e-10, *args, **kwargs):
        seen.extend((a, b, tol) for a, b in zip(np.asarray(x).tolist(), np.asarray(y).tolist()))
        return real_batch(pp, x, y, tol, *args, **kwargs)

    patched = [(oracles, "eval_kernel", scalar), (kernel_module, "eval_kernel_batch", batch)]
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

class TestAtomRhsAgainstLoop:
    @pytest.mark.parametrize("n_atoms", [0, 1, 2, 5, 16, 40])
    def test_bitwise(self, n_atoms):
        rng = np.random.default_rng(100 + n_atoms)
        locs = np.cumsum(rng.uniform(0.05, 0.3, n_atoms)) + 1.0
        upper = np.triu(rng.normal(size=(n_atoms, n_atoms)), 1)
        upper[rng.random((n_atoms, n_atoms)) < 0.3] = 0.0
        R = upper - upper.T
        state = AtomSystemState.from_table(locs, rng.uniform(0.0, 1.0, n_atoms), R)
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
        assert np.array_equal(atom_ode_rhs(state), loop_atom_ode_rhs(dense_rates(state), masses))


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
    state = AtomSystemState.from_table(locs, rng.uniform(0.0, 1.0, n_atoms), R)
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
        assert np.array_equal(dense_rates(state), R)  # the state is only read

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
        assert np.array_equal(dense_rates(state), R)


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
    state = AtomSystemState.from_table(np.cumsum(rng.uniform(0.05, 0.3, n)) + 1.0, rng.uniform(0.0, 1.0, n), R)
    stack = rng.uniform(0.0, 1.0, (draw(st.integers(1, _DENSE_CHUNK)), n))
    kind = rng.random(stack.shape)
    stack[kind < 0.15] = 0.0
    stack[(kind >= 0.15) & (kind < 0.3)] = -0.0
    stack[(kind >= 0.3) & (kind < 0.45)] = -1e-14
    return state, R, stack


class Poisoned:
    """Stands in for a state's rate pairs, which must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"rate pairs .{name} read")

    def __array__(self, *args, **kwargs):
        raise AssertionError("rate pairs read as an array")


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
        for name in ("pair_i", "pair_j", "pair_r"):
            object.__setattr__(state, name, Poisoned())
        after = [atom_ode_rhs(state), atom_ode_rhs(state, stack)]
        for a, b in zip(before, after):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    def test_seed7_evaluation_count(self, seed7_trajectories):
        # the step sequence of the benchmark's atom run, as it was over the
        # dense RHS: 17 177 calls, of which the stacked ones count one per row
        assert seed7_trajectories[0].nfev == 21068


class Captured(Exception):
    pass


def stage_rate(state: AtomSystemState):
    """The rate function that run_atoms hands to dop853 for ``state``."""
    def capture(fun, *args):
        raise Captured(fun)

    with pytest.MonkeyPatch.context() as mp, pytest.raises(Captured) as got:
        mp.setattr(_dop853, "dop853", capture)
        run_atoms(state, 1.0, eta=0.3, n_record=2)
    return got.value.args[0]


class TestStageBufferContract:
    """dop853 passes every stage's state in one buffer that the next stage
    overwrites, so a rate function must leave its argument as it was."""

    @settings(max_examples=40, deadline=None)
    @given(case=slot_cases())
    def test_atom_rates_leave_their_argument_bitwise(self, case):
        state, _, stack = case
        rates = [lambda _t, m: atom_ode_rhs(state, m)]
        if state.masses.size:  # run_atoms refuses a state with no atoms before it builds its rate
            rates.append(stage_rate(state))
        for rate in rates:
            for arg in [*stack, stack]:  # each 1-D stage state, and a dense-output stack
                before = arg.copy()
                out = rate(0.0, arg)
                assert np.array_equal(bits(arg), bits(before))
                assert out.dtype == np.float64 and not np.shares_memory(out, arg)
        for m in stack:  # run_atoms's inlined 1-D rate is atom_ode_rhs's
            got, want = rates[-1](0.0, m), atom_ode_rhs(state, m)
            assert np.array_equal(bits(got), bits(want))

    @settings(max_examples=15, deadline=None)
    @given(kern=kernels(), seed=st.integers(0, 2**32 - 1))
    def test_collision_rate_leaves_its_argument_bitwise(self, kern, seed):
        rng = np.random.default_rng(seed)
        for u in (holey_state(rng, kern.grid.n), planck_density(kern.grid, -0.7)):
            before = u.copy()
            out = collision_rhs(u, kern)
            assert np.array_equal(bits(u), bits(before))
            assert out.dtype == np.float64 and not np.shares_memory(out, u)


class TestSeed7AtomRunAgainstSolveIvp:
    """The benchmark's atom run, the regime the lean step loop is for:
    1426 attempts of one 16-float state each, to t = 5e4, where some masses
    are subnormal."""

    @pytest.mark.parametrize("n_record", [2001, 20001])
    def test_records_and_evaluation_count(self, seed7_runs, n_record):
        from scipy.integrate import solve_ivp

        traj, records = seed7_runs[0]  # the benchmark's 20001 records
        state = traj.state0
        if n_record != traj.times.size:
            with oracles.spying() as seen:
                traj = run_atoms(state, 5e4, eta=0.3, n_record=n_record)
            records = seen[0]
        sol = solve_ivp(lambda _t, m: atom_ode_rhs(state, m), (0.0, 5e4), state.masses.copy(), method="DOP853",
                        rtol=RTOL, atol=ATOL, t_eval=np.linspace(0.0, 5e4, n_record))
        assert sol.success
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(records, sol.y.T)  # what the run's reducer was handed
        assert np.array_equal(traj.states, np.clip(sol.y.T, 0.0, None)[list(traj.records)])
        assert traj.nfev == sol.nfev
        tail = traj.final_masses()
        assert np.any((tail > 0.0) & (tail < np.finfo(float).tiny))


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
def seed7_runs():
    """The benchmark's seed-7 atom and density runs, each with the records
    of masses its reducer was handed."""
    locs, masses, mu = seed7_reduced_inputs()
    with oracles.spying() as seen:
        atoms = run_atoms(AtomSystemState.from_physical(PP, TP, locs, masses), 5e4, n_record=20001, eta=0.25)
    grid = Grid.log_spaced(0.5, 30.0, 128)
    u0 = build_initial({"preset": "truncated_planck", "mu": mu, "support_min": 0.5}, grid).density
    with oracles.spying() as seen_too:
        picard = run_density(grid, u0, PP, TP, t_end=4.0, dt=1e-3, eta=0.3)
    return (atoms, seen[0]), (picard, seen_too[0])


@pytest.fixture(scope="module")
def seed7_trajectories(seed7_runs):
    return tuple(traj for traj, _ in seed7_runs)


def atom_form(traj, records):
    """Rate matrix, points and the clipped records as point masses."""
    return dense_rates(traj.state0), traj.locations, np.clip(records, 0.0, None)


def picard_form(traj, records):
    R = rate_matrix(PP, TP, traj.grid.nodes)[0]
    return R, traj.grid.nodes, np.clip(records, 0.0, None) / traj.grid.weights * traj.grid.weights


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
    def test_seed7_benchmark_trajectories(self, seed7_runs, alpha):
        for (traj, records), form in zip(seed7_runs, (atom_form, picard_form)):
            d = getattr(traj, f"D_{alpha:g}")
            assert d.shape == traj.times.shape
            assert_dissipation_matches(d, *form(traj, records), alpha)
            assert np.all(d <= 0.0) and np.min(d) < 0.0

    @PROPERTY
    @given(data=admissible_rates(), alpha=st.sampled_from([2.0, 3.0]))
    def test_random_grids_rates_and_states(self, data, alpha):
        # the reducer of an atom run (rows of masses) and of a density run
        # (rows divided by the node weights, and weighted back into masses)
        grid, R, U = data
        x, w = grid.nodes, grid.weights
        for weights, V in ((None, U), (w, U / w * w)):
            d = oracles.reduced_columns(x, R, U, 0.3, weights)[f"D_{alpha:g}"]
            assert_dissipation_matches(d, R, x, V, alpha)
            assert np.all(d <= 0.0)
        for m in U[:3]:
            d = oracles.reduced_columns(x, R, m[None, :], 0.3)[f"D_{alpha:g}"]  # one state, as one record
            assert_dissipation_matches(d, R, x, m, alpha)
            assert d.shape == (1,) and d[0] <= 0.0

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
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
        name = f"D_{alpha:g}"
        assert np.all(oracles.reduced_columns(x, R, U, 0.3)[name] == 0.0)
        assert np.all(einsum_dissipation(R, x, U, alpha) == 0.0)
        assert oracles.reduced_columns(x, R, U[:1], 0.3)[name].tolist() == [0.0]


def whole_dissipation(R, x, U, alpha):
    """The moment dissipation as one matrix product over all rows."""
    W = R * (x[:, None] ** alpha - x[None, :] ** alpha)
    return np.einsum("...i,...i->...", U @ W, U)


class TestBlockedDissipation:
    """A run's reducer reduces the blocks the integrator hands it, max(3,
    8192 // N) records each with the last one taking the remainder, and
    keeps the bits of the product over all rows.  At N = 16 a block is 512
    records, so 511 to 1027 records give one or two blocks; at N = 128 it
    is 64 records, so they give 7 to 16 blocks."""

    @pytest.mark.parametrize("rows", [511, 512, 513, 1027])
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
        atoms = oracles.reduced_columns(x, R, U, 0.3)
        density = oracles.reduced_columns(x, R, U, 0.3, w)
        for alpha in (2.0, 3.0):
            name = f"D_{alpha:g}"
            assert np.array_equal(atoms[name], whole_dissipation(R, x, U, alpha))
            assert np.array_equal(density[name], whole_dissipation(R, x, U / w * w, alpha))

    @pytest.mark.parametrize("alpha", [2.0, 3.0])
    def test_seed7_benchmark_trajectories(self, seed7_runs, alpha):
        for (traj, records), form in zip(seed7_runs, (atom_form, picard_form)):
            assert np.array_equal(getattr(traj, f"D_{alpha:g}"), whole_dissipation(*form(traj, records), alpha))


class TestBlockedSeries:
    """The mass, moment and exponential-moment columns of both run kinds go
    through blocks of records, as an elementwise product and numpy's row
    sums (whose order the BLAS thread count cannot change), and keep the
    bits of those row sums over all records; so do a window's masses."""

    @pytest.mark.parametrize("rows", [1, 513, 1027])
    def test_bits_of_the_whole_row_sums(self, rows):
        rng = np.random.default_rng(rows)
        grid = Grid.log_spaced(0.5, 30.0, 40)
        x, w = grid.nodes, grid.weights
        U = rng.uniform(0.0, 2.0, (rows, x.size))
        U[rng.random(U.shape) < 0.2] = 0.0
        R = np.zeros((x.size, x.size))
        window = (x >= 2.0) & (x <= 10.0)
        for weights, dens, c in ((None, U, np.ones(x.size)), (w, U / w, w)):
            cols = oracles.reduced_columns(x, R, U, 0.3, weights)
            assert np.array_equal(cols["M0"], (dens * c).sum(axis=1))
            assert np.array_equal(cols["M2"], (dens * (c * x**2.0)).sum(axis=1))
            assert np.array_equal(cols["X_eta"], (dens * (c * np.exp(0.3 * x))).sum(axis=1))
            V = dens * c
            a, b = np.flatnonzero(window)[[0, -1]]
            assert np.array_equal(np.sum(V[:, a:b + 1], axis=1), np.ascontiguousarray(V[:, window]).sum(axis=1))


def list_picard_solve(grid, u0, t_end, eta, dt):
    """The oracle fixed point's windows as they were: each accepted window's
    rows appended to lists, and the arrays made by np.asarray at the end."""
    w = grid.weights
    omega = 1.0 + grid.nodes**-1.5
    paired = rate_matrix(PP, TP, grid.nodes)[0] * w[None, :]
    times, states = [0.0], [u0.copy()]
    t0, u_start = 0.0, u0.copy()
    current = min(oracles._FIRST_WINDOW, t_end)
    while t0 < t_end - 1e-12 * t_end:
        length = min(current, t_end - t0)
        local_t = np.linspace(0.0, length, max(2, int(math.ceil(length / dt)) + 1))
        cumulative = oracles._cumulative_simpson(local_t)
        iterate = np.tile(u_start, (local_t.size, 1))
        prev_err = math.inf
        for _ in range(oracles._MAX_ITERATIONS):
            new = u_start[None, :] * np.exp(np.minimum(cumulative(iterate @ paired.T), 700.0))
            err = float(np.max(np.abs(new - iterate) @ (w * omega)))
            iterate = new
            if err <= oracles._PICARD_TOL:
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
    """The oracle fixed point writes each window's rows into one preallocated array,
    grown when halved windows need more rows than windows of the first
    length add; the states and times are those of the list of rows."""

    @pytest.mark.parametrize("scale, dt, grows", [(1.0, 1e-3, False), (50.0, 0.013, False), (200.0, 0.013, True)])
    def test_against_the_list_of_rows(self, scale, dt, grows):
        grid = Grid.log_spaced(0.5, 10.0, 24)
        u0 = scale * planck_density(grid, 0.0)
        traj = oracles.picard_solve(grid, u0, PP, TP, t_end=1.0, eta=0.3, dt=dt)
        times, states = list_picard_solve(grid, u0, 1.0, 0.3, dt)
        assert np.array_equal(traj.times, times) and np.array_equal(traj.states, states)
        first = math.ceil(1.0 / oracles._FIRST_WINDOW)
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
    """A reduced run reduces its records as they stream and holds no array
    of them: its traced peak stays below the size of that array, n_record x
    N floats (it was 2.2 and 3.0 times that while the runs kept it)."""

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
        assert peak <= 0.75 * 4001 * 128 * 8

    def test_atom_run(self, tmp_path):
        locs, masses, _ = seed7_reduced_inputs()
        cfg = load_config(data={
            "initial": {"preset": "atoms", "atoms": [[x, m] for x, m in zip(locs.tolist(), masses.tolist())]},
            "reduced": {"t_end": 5e4, "stationarity_window": 50.0},
        }, equation="reduced")
        (_, traj), peak = traced_peak(run_reduced_experiment, cfg, str(tmp_path), mode="atoms")
        assert len(traj.times) == 20001 and traj.states.shape == (3, 16)
        assert peak <= 1.25 * 20001 * 16 * 8


class TestMomentBalanceOnSeed7:
    """lyapunov_check's moment balance on the benchmark's trajectories: 20 001
    atom records to t = 5e4, where a centred difference of M misses D/2 by
    about 3e-3, and the Picard run; the Simpson balance holds them to 1e-4
    and still sees D off by 1e-3."""

    @pytest.mark.parametrize("scale, passes", [(1.0, True), (1.0 + 1e-3, False)])
    def test_balance_holds_and_sees_a_scaled_dissipation(self, seed7_trajectories, scale, passes):
        for traj in seed7_trajectories:
            rep = lyapunov_check(dataclasses.replace(traj, D_2=scale * traj.D_2, D_3=scale * traj.D_3))
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

    # about one block, two and a remainder, and four to eight blocks
    @pytest.mark.parametrize("rows", [_CSV_ROWS - 1, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 3, 2047, 2048, 2049, 4099])
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
    def test_dissipation_nonnegative(self, kern, seed):
        g = holey_state(np.random.default_rng(seed), kern.grid.n)
        assert _pair_dissipation(kern, g)[0] >= 0.0

    @PROPERTY
    @given(kern=kernels(), mu=st.floats(-3.0, 0.0))
    def test_planck_is_fixed_point(self, kern, mu):
        g = planck_density(kern.grid, mu)
        rate = collision_rhs(g, kern)
        assert np.all(np.abs(rate) <= 1e-13 * gross_rate(g, kern))
        assert _pair_dissipation(kern, g)[1] == 0


COLUMNS = ("times", "M0", "X_eta", "H", "entropy_dissipation", "origin_mass_series")


def per_record_run(u0, kern, cfg):
    """run_full as it was before the streamed block pass: the states at the
    records from SciPy's ``solve_ivp`` DOP853 at the package's tolerances
    (the port gives them bit for bit), clipped at 0 as the run clips them,
    at the record times of the old step loop (t = 0, every record_every-th
    step of dt_init, and the last step, summed as they go), and per record
    the per-state density formulas of ``parent_density_parts``.  Returns each column as a list of per-record
    values, every state, and the growth bound e^{C_eta t} X_eta(0) per record
    as the full run once recorded it, X_eta(0) from the initial measure."""
    from scipy.integrate import solve_ivp

    c_eta = exp_moment_rate(TP, kern.bound_constant, cfg.eta)
    eps = float(kern.grid.nodes[0] * 2.0)
    x0 = oracles.exp_moment((kern.grid, u0), cfg.eta)
    ref = {name: [] for name in (*COLUMNS, "states", "growth_bound")}

    def snapshot(t, g):
        (m0, *_), x_eta, h, d_pairs, below = parent_density_parts(g, kern, eps, cfg.eta)
        ref["times"].append(t)
        ref["M0"].append(m0)
        ref["X_eta"].append(x_eta)
        ref["H"].append(h)
        ref["entropy_dissipation"].append(0.5 * d_pairs)
        ref["origin_mass_series"].append(below)
        ref["growth_bound"].append(math.exp(c_eta * t) * x0)
        ref["states"].append(g.copy())

    times, t, steps = [0.0], 0.0, 0
    horizon = cfg.t_end * (1.0 - 1e-12)
    while t < horizon:
        t += min(cfg.dt_init, cfg.t_end - t)
        steps += 1
        if steps % cfg.record_every == 0 or t >= horizon:
            times.append(t)
    sol = solve_ivp(
        lambda _t, u: collision_rhs(u, kern), (0.0, cfg.t_end), u0.copy(), method="DOP853",
        t_eval=times, rtol=RTOL, atol=ATOL,
    )
    for t, g in zip(times, np.clip(sol.y.T, 0.0, None)):
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
    and a config recording a given number of
    states: 1 at t = 0, then one per record_every steps of dt_init, and the
    last step."""
    grid = Grid.log_spaced(draw(st.floats(0.01, 0.2)), draw(st.floats(8.0, 30.0)), draw(st.integers(8, 96)))
    kern = RegularizedKernel.build(PP, TP, grid, draw(st.sampled_from([3, 8, 20])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = planck_density(grid, draw(st.floats(-2.0, -0.1))) if draw(st.booleans()) else holey_state(rng, grid.n)
    every = draw(st.sampled_from([1, 3]))
    records = draw(st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 2]))
    steps = (records - 2) * every + draw(st.integers(1, every))  # the last group may be partial
    dt = 2.0**-10  # dyadic, so the step times sum exactly
    cfg = SolverConfig(t_end=steps * dt, dt_init=dt, record_every=every, mass_tolerance=1e-6)
    return g, kern, cfg, records


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

    def test_with_rejected_steps(self, kern, monkeypatch):
        # DOP853 retries a rejected step from the same time; seed 44's state
        # makes it reject steps on both fixture grids
        started = []
        real_step = _dop853._rk_step

        def spy(fun, t, y, f, h, K, stages, dy, ys):
            started.append(t)
            return real_step(fun, t, y, f, h, K, stages, dy, ys)

        monkeypatch.setattr(_dop853, "_rk_step", spy)
        u0 = holey_state(np.random.default_rng(44), kern.grid.n)
        cfg = SolverConfig(t_end=24.0, dt_init=2.0, record_every=1, mass_tolerance=1e-6)
        traj = run_full(u0, kern, cfg)
        assert any(a == b for a, b in zip(started, started[1:]))
        assert len(traj.times) > _BLOCK_ROWS
        assert_same_records(traj, kern, cfg, per_record_run(u0, kern, cfg))

    @PROPERTY
    @given(kern=kernels(), seed=st.integers(0, 2**32 - 1), planck=st.booleans())
    def test_per_state_functions_keep_their_bits(self, kern, seed, planck):
        g = planck_density(kern.grid, -0.7) if planck else holey_state(np.random.default_rng(seed), kern.grid.n)
        u = (kern.grid, g)
        eps = float(kern.grid.nodes[0] * 2.0)
        moments, x_eta, _, d_pairs, _ = parent_density_parts(g, kern, eps)
        assert [oracles.moment(u, rho) for rho in (0.0, 1.0, 2.0, 3.0)] == moments
        assert oracles.exp_moment(u, 0.3) == x_eta
        assert _pair_dissipation(kern, g)[0] == d_pairs

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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(7,), (9, 9), (40, 40)]))
    def test_j_keeps_the_bits_on_positive_arguments(self, seed, shape):
        # every entry finite, so _j returns without building its masks
        rng = np.random.default_rng(seed)
        a, b = (rng.lognormal(0.0, 3.0, shape) for _ in range(2))
        for x, y in ((a, b), (b, a), (a, a.T)):
            (got, got_flags), (want, want_flags) = _j(x, y), parent_j(x, y)
            assert np.array_equal(bits(got), bits(want)) and got_flags == want_flags == 0

    def test_j_keeps_an_overflow_to_inf(self):
        # both arguments positive and J past the float range: +inf on both
        # paths, alone and next to a one-sided and a two-sided zero
        a = np.array([1e308, 1e-300, 2.0, 0.0, 0.0])
        b = np.array([1e-300, 1e308, 3.0, 1.0, 0.0])
        for x, y, one_sided in ((a[:3], b[:3], 0), (a, b, 1), (b, a, 1)):
            with np.errstate(over="ignore"):
                (got, got_flags), (want, want_flags) = _j(x, y), parent_j(x, y)
            assert np.array_equal(bits(got), bits(want)) and got_flags == want_flags == one_sided
            assert np.isposinf(got[:2]).all() and np.isfinite(got[2:]).all()

    def test_j_and_dissipation_keep_the_bits_when_products_underflow(self, kern):
        # positive densities of 1e-320 next to 1: a product A_i g_j of positive
        # factors underflows to 0 on one side of some pairs and on both sides of others
        rng = np.random.default_rng(23)
        rows = np.where(rng.random((3, kern.grid.n)) < 0.4, 1e-320, 1.0)
        xs, i, j = kern.grid.nodes, kern.pair_i, kern.pair_j
        got_d, got_flags = _pair_dissipation(kern, rows)
        want_flags = 0
        for g, d in zip(rows, got_d):
            A = _gain_factors(xs, g)
            a, b = A[i] * g[j], A[j] * g[i]
            (vals, flags), (ref, ref_flags) = _j(a, b), parent_j(a, b)
            assert np.array_equal(bits(vals), bits(ref)) and flags == ref_flags
            assert d == 2.0 * float(np.dot(kern.pair_c, ref))
            want_flags += ref_flags
        assert got_flags == want_flags > 0
        products = np.array([_gain_factors(xs, g)[i] * g[j] for g in rows])
        assert np.any((products == 0.0) & (rows[:, i] > 0.0) & (rows[:, j] > 0.0))

    def test_records_across_streamed_blocks(self, monkeypatch):
        # 400 records of 48 nodes: the dense output streams blocks of
        # 8192 // 48 = 170 states, the last taking the remainder, so the
        # node columns span a block of 170 states and one of 230
        grid = Grid.log_spaced(0.05, 20.0, 48)
        kern = RegularizedKernel.build(PP, TP, grid, 8)
        u0 = holey_state(np.random.default_rng(7), grid.n)
        cfg = SolverConfig(t_end=399 * 2.0**-10, dt_init=2.0**-10, mass_tolerance=1e-6)
        sizes = []
        real_entropy = full_solver_module._entropy_integrand
        monkeypatch.setattr(
            full_solver_module, "_entropy_integrand", lambda x, rows: sizes.append(len(rows)) or real_entropy(x, rows)
        )
        traj = run_full(u0, kern, cfg)
        assert len(traj.times) == 400 and sum(sizes) == 400
        assert sizes == [hi - lo for lo, hi in oracles.dense_blocks(400, grid.n)] == [170, 230]
        assert_same_records(traj, kern, cfg, per_record_run(u0, kern, cfg))
        assert traj.one_sided_pairs > 0


class TestOneSidedPairs:
    """The pairs the recorded dissipation leaves out reach the manifest."""

    @pytest.mark.parametrize("data", [{}, {"initial": {"preset": "truncated_planck", "support_min": 1.0}}],
                             ids=["default", "holey"])
    def test_manifest_counts_every_record(self, tmp_path, data):
        cfg = load_config(data=data, equation="full")
        manifest, traj = run_full_experiment(cfg, str(tmp_path))
        kern = RegularizedKernel.build(cfg.physical, cfg.truncation, cfg.grid, cfg.regularization_index)
        xs, i, j = kern.grid.nodes, kern.pair_i, kern.pair_j
        want = 0
        for g in per_record_run(cfg.initial_measure().density, kern, cfg.solver)["states"]:
            A = _gain_factors(xs, g)
            want += parent_j(A[i] * g[j], A[j] * g[i])[1]
        recorded = json.loads((tmp_path / "manifest.json").read_text())["telemetry"]["one_sided_pairs"]
        assert recorded == manifest.telemetry["one_sided_pairs"] == traj.one_sided_pairs == want
        assert (want > 0) == bool(data)


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
            R, c_star = physical_rates(PP, tp, grid.nodes)
        with kernel_calls() as ref:
            R_ref, c_ref = loop_rate_matrix(PP, tp, grid.nodes, 1e-10)
        assert seen == ref
        assert np.array_equal(R, R_ref) and c_star == c_ref
        assert np.array_equal(R, -R.T)

    def test_rate_matrix_on_picard_grid(self):
        grid = Grid.log_spaced(0.5, 30.0, 128)
        R, c_star = physical_rates(PP, TP, grid.nodes)
        R_ref, c_ref = loop_rate_matrix(PP, TP, grid.nodes)
        assert np.array_equal(R, R_ref) and c_star == c_ref

    @pytest.mark.parametrize("seed", range(20))
    def test_rate_matrix_on_atom_sets(self, seed):
        rng = np.random.default_rng(500 + seed)
        locs = np.sort(rng.uniform(0.05, 8.0, 16))
        state = AtomSystemState.from_physical(PP, TP, locs, np.full(16, 1.0 / 16))
        R_ref, _ = loop_rate_matrix(PP, TP, locs)
        assert np.array_equal(dense_rates(state), R_ref)

    def test_repeated_location_does_not_couple(self):
        # an atom sitting on a grid node appears twice among the support points
        locs = [1.0, 1.2, 1.2, 1.5]
        with kernel_calls() as seen:
            R, _ = physical_rates(PP, TP, locs)
        with kernel_calls() as ref:
            R_ref, _ = loop_rate_matrix(PP, TP, locs)
        assert R[1, 2] == 0.0 and R[2, 1] == 0.0
        assert np.array_equal(R, R_ref) and seen == ref

    def test_rate_matrix_needs_sorted_locations(self):
        # the rate pairs are built at the locations of a state, which must increase
        with pytest.raises(ValueError, match="strictly increasing"):
            AtomSystemState.from_physical(PP, TP, [1.2, 1.0], [0.5, 0.5])

    def test_batch_matches_scalar_kernel(self):
        x = np.array([0.1, 1.0, 2.0, 5.0])
        y = np.array([0.12, 1.0, 2.6, 4.0])
        values, errors = eval_kernel_batch(PP, x, y, 1e-9)
        for k in range(x.size):
            s = oracles.eval_kernel(PP, x[k], y[k], 1e-9)
            assert (values[k], errors[k]) == (s.value, s.abs_error_estimate)
        empty = eval_kernel_batch(PP, np.zeros(0), np.zeros(0))
        assert empty[0].shape == empty[1].shape == (0,)


@st.composite
def log_grids(draw):
    """A log-spaced grid of 2 to 200 nodes in [0.01, 40]."""
    return Grid.log_spaced(draw(st.floats(0.01, 0.5)), draw(st.floats(1.0, 40.0)), draw(st.integers(2, 200)))


@st.composite
def sorted_locations(draw):
    """0 to 40 sorted atom locations in [0, 12]; in some draws positive ones
    repeat (the dense oracle's cutoff call raises on a repeated origin)."""
    x = draw(st.lists(st.floats(0.0, 12.0), max_size=40, unique=True))
    if any(x) and draw(st.booleans()):
        x += draw(st.lists(st.sampled_from([v for v in x if v > 0.0]), max_size=3))
    return np.sort(np.array(x, dtype=float))


class TestPairBuilderAgainstOracles:
    """``kernel.screened_pairs`` through both of its candidate sets against
    the screened batch each caller ran before it was shared: the pairs
    i <= j inside the taper (``oracles.kernel_table``) and the pairs i < j
    of distinct locations (``oracles.rate_matrix``).  The same points reach
    the kernel in the same order, and the pairs, values, C_star and atom
    slots keep their bits."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(grid=log_grids(), atoms=sorted_locations(), tp=truncations(), n=st.integers(1, 30))
    def test_both_candidate_sets(self, grid, atoms, tp, n):
        xs = grid.nodes
        with kernel_calls() as seen:
            kern = RegularizedKernel.build(PP, tp, grid, n)
        with kernel_calls() as ref:
            old = oracles.kernel_table(PP, tp, grid, n)
        assert seen == ref
        for name in ("table", "pair_i", "pair_j", "pair_c"):
            assert np.array_equal(bits(getattr(kern, name)), bits(old[name]))
        assert kern.bound_constant == old["c_star"]
        tx = np.asarray(taper(n, xs))
        i, j, phi_b, c_star = screened_pairs(PP, tp, xs, True, tx != 0.0)
        assert np.array_equal(i, old["i"]) and np.array_equal(j, old["j"])
        assert np.array_equal(bits(phi_b * tx[i] * tx[j]), bits(old["vals"])) and c_star == old["c_star"]

        for x in (xs, atoms):
            with kernel_calls() as seen:
                i, j, r, c_star = rate_pairs(PP, tp, x)
            with kernel_calls() as ref:
                R, c_ref = rate_matrix(PP, tp, x)
            assert seen == ref and c_star == c_ref
            upper_i, upper_j = np.nonzero(np.triu(R, 1))
            assert np.array_equal(i, upper_i) and np.array_equal(j, upper_j)
            assert np.array_equal(bits(r), bits(R[i, j]))
            if np.all(np.diff(x) > 0.0):
                state = AtomSystemState(x, np.zeros(x.size), i, j, r)
                for got, want in zip(state._slots, oracles.slots(R), strict=True):
                    assert got.dtype == want.dtype and np.array_equal(bits(got), bits(want))
                assert np.array_equal(dense_rates(state), R)

    def test_a_rate_that_rounds_to_zero_is_no_pair(self):
        # e^{-x} rounds to one float at these two neighbouring floats, so the
        # screened pair reaches the kernel and C_star but has rate 0.0; the
        # dense oracle held it as 0.0 above the diagonal and -0.0 below
        x = [0.37933140325466697, math.nextafter(0.37933140325466697, 1.0)]
        with kernel_calls() as seen:
            i, j, r, c_star = rate_pairs(PP, TP, x)
        with kernel_calls() as ref:
            R, c_ref = rate_matrix(PP, TP, x)
        assert seen == ref and len(seen) == 1 and c_star == c_ref
        assert i.size == j.size == r.size == 0
        assert np.signbit(R[1, 0]) and not np.any(R)


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
