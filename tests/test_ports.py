"""The in-repo DOP853 stepper and the oracle's cumulative Simpson rule,
held to SciPy.

The package never imports SciPy; these tests use it only as the oracle and
require equality bit for bit (``np.array_equal``), not closeness.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, solve_ivp

from comptonsim import _dop853
from comptonsim._dop853 import _DENSE_CHUNK, _DENSE_FLOATS, ATOL, dop853
from comptonsim.kernel import PhysicalParams
from comptonsim.measure import Grid, planck_density
from comptonsim.reduced_solver import (
    AtomSystemState,
    _table_components,
    atom_ode_rhs,
    run_atoms,
    run_density,
)
from comptonsim.truncation import TruncationParams
import oracles
from oracles import _cumulative_simpson, components, dense_rates, rate_matrix, spying


def antisymmetric_state(rng, n: int, scale: float = 1.0) -> AtomSystemState:
    """Random masses with an exactly antisymmetric random rate table."""
    upper = np.triu(rng.normal(size=(n, n)) * scale, 1)
    locs = np.sort(rng.uniform(0.5, 30.0, n)) + np.arange(n) * 1e-3  # strictly increasing
    return AtomSystemState.from_table(locs, rng.uniform(0.1, 1.0, n), upper - upper.T)


def oracle(state: AtomSystemState, t_end: float, rtol: float, t_eval=None):
    def rhs(_t, m):
        return atom_ode_rhs(state, m)

    return solve_ivp(rhs, (0.0, t_end), state.masses.copy(), method="DOP853", rtol=rtol, atol=ATOL, t_eval=t_eval)


def ported(state: AtomSystemState, t_end: float, rtol: float, n_record: int):
    """The port's streamed records joined: (times, states, nfev, block sizes)."""
    def rhs(_t, m):
        return atom_ode_rhs(state, m)

    times, rows = [], []

    def keep(t, y):
        times.append(t.copy())
        rows.append(y.copy())

    nfev = dop853(rhs, 0.0, t_end, state.masses.copy(), np.linspace(0.0, t_end, n_record), rtol, ATOL, keep).nfev
    return np.concatenate(times), np.concatenate(rows), nfev, [len(t) for t in times]


def assert_same_run(state: AtomSystemState, t_end: float, rtol: float, n_record: int) -> None:
    sol = oracle(state, t_end, rtol, np.linspace(0.0, t_end, n_record))
    t, y, nfev, _ = ported(state, t_end, rtol, n_record)
    assert sol.success
    assert np.array_equal(t, sol.t)
    assert np.array_equal(y, sol.y.T)
    assert nfev == sol.nfev


class TestDop853AgainstSolveIvp:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 40),
        log_rtol=st.floats(-12.0, -6.0),
        n_record=st.sampled_from([2, 3, 2001]),
        t_end=st.floats(0.5, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_antisymmetric_tables(self, n, log_rtol, n_record, t_end, seed):
        assert_same_run(antisymmetric_state(np.random.default_rng(seed), n), t_end, 10.0**log_rtol, n_record)

    @staticmethod
    def stiff_state(trial: int) -> AtomSystemState:
        # six atoms with rates up to ~1e4: the controller rejects steps
        rng = np.random.default_rng(5)
        for _ in range(trial + 1):
            upper = np.triu(rng.normal(size=(6, 6)) * 10 ** rng.uniform(0, 4), 1)
            m0 = rng.uniform(0.0, 1.0, 6)
        return AtomSystemState.from_table(np.arange(1.0, 7.0), m0, upper - upper.T)

    @pytest.mark.parametrize("n_record", [2, 3, 2001])
    def test_run_with_rejected_steps(self, n_record):
        state = self.stiff_state(8)
        steps = oracle(state, 10.0, 1e-10)
        attempts, accepted = (steps.nfev - 2) // 12, steps.t.size - 1
        assert attempts > accepted  # the run rejects steps
        assert_same_run(state, 10.0, 1e-10, n_record)

    @pytest.mark.parametrize("n, t_end, log_rtol", [(1, 0.5, -6.0), (16, 20.0, -12.0), (40, 7.0, -9.0)])
    def test_many_records_per_step(self, n, t_end, log_rtol):
        state = antisymmetric_state(np.random.default_rng(n), n)
        steps = oracle(state, t_end, 10.0**log_rtol).t
        assert steps.size - 1 < 20001 // 10  # at least ten records per step on average
        assert_same_run(state, t_end, 10.0**log_rtol, 20001)

    @pytest.mark.parametrize("n_record", [300, 2001])
    def test_more_record_holding_steps_than_a_chunk(self, n_record):
        state = antisymmetric_state(np.random.default_rng(23), 8)
        t_end = 20.0
        steps = oracle(state, t_end, 1e-12).t
        # the step (steps[i-1], steps[i]] holds every record searchsorted sends to i; t = 0 is in step 1
        holding = np.unique(np.maximum(np.searchsorted(steps, np.linspace(0.0, t_end, n_record)), 1)).size
        assert holding > 2 * _DENSE_CHUNK and holding % _DENSE_CHUNK  # full chunks and a partial one
        assert_same_run(state, t_end, 1e-12, n_record)

    def test_failure_keeps_error_type_and_message(self, monkeypatch):
        state = self.stiff_state(5)
        sol = oracle(state, 10.0, 1e-10, np.linspace(0.0, 10.0, 2001))
        assert sol.status == -1
        monkeypatch.setattr(_dop853, "RTOL", 1e-10)  # the run driver reads it at call time
        with pytest.raises(RuntimeError, match=r"^integration failed: ") as err:
            run_atoms(state, 10.0, eta=0.3, n_record=2001)
        assert str(err.value) == f"integration failed: {sol.message}"

    def test_run_atoms_records_are_the_oracle_records(self):
        state = antisymmetric_state(np.random.default_rng(11), 16)
        with spying() as seen:
            traj = run_atoms(state, 50.0, eta=0.3, n_record=2001)
        sol = oracle(state, 50.0, 1e-12, np.linspace(0.0, 50.0, 2001))
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(seen[0], sol.y.T)  # what the run's reducer was handed
        assert np.array_equal(traj.states, np.clip(sol.y.T, 0.0, None)[list(traj.records)])

    def test_run_density_records_are_the_oracle_records(self):
        # a density run is the atom run of the node masses w u0, its records
        # divided by w: 1001 records in a few steps, so the interpolation of
        # one dense-output pass goes through several blocks of requested times
        grid = Grid.log_spaced(0.5, 30.0, 32)
        u0 = planck_density(grid, 0.0)
        pp, tp = PhysicalParams(), TruncationParams.solve(0.5, 1.0, 0.8)
        with spying() as seen:
            traj = run_density(grid, u0, pp, tp, t_end=1.0, eta=0.3)
        state = AtomSystemState.from_table(grid.nodes, u0 * grid.weights, rate_matrix(pp, tp, grid.nodes)[0])
        sol = oracle(state, 1.0, 1e-12, np.linspace(0.0, 1.0, 1001))
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(seen[0], sol.y.T)
        assert np.array_equal(traj.states, (np.clip(sol.y.T, 0.0, None) / grid.weights)[list(traj.records)])
        assert traj.nfev == sol.nfev

    def test_run_atoms_keeps_the_evaluation_count(self):
        state = antisymmetric_state(np.random.default_rng(11), 16)
        sol = oracle(state, 50.0, 1e-12, np.linspace(0.0, 50.0, 2001))
        assert run_atoms(state, 50.0, eta=0.3, n_record=2001).nfev == sol.nfev

    def test_tiny_rtol_is_clamped_with_scipy_warning(self):
        state = antisymmetric_state(np.random.default_rng(3), 4)
        with pytest.warns(UserWarning, match="rtol"):
            sol = oracle(state, 1.0, 1e-16, np.linspace(0.0, 1.0, 5))
        with pytest.warns(UserWarning, match="rtol"):
            t, y, nfev, _ = ported(state, 1.0, 1e-16, 5)
        assert np.array_equal(y, sol.y.T) and nfev == sol.nfev

    @pytest.mark.parametrize("n, floats, rows", [(16, _DENSE_FLOATS, 512), (192, _DENSE_FLOATS, 42), (16, 10, 3)])
    def test_records_stream_in_blocks_of_about_8k_floats(self, n, floats, rows, monkeypatch):
        # many records per step, in blocks of max(3, floats // n) records
        # that span dense-output passes, the last block taking the
        # remainder; the records keep SciPy's bits
        monkeypatch.setattr(_dop853, "_DENSE_FLOATS", floats)
        state = antisymmetric_state(np.random.default_rng(n), n, scale=1e-3)
        t, y, _, sizes = ported(state, 1.0, 1e-6, 1501)
        full = 1501 // rows - 1
        assert sizes == [rows] * full + [1501 - full * rows] and t.size == 1501
        assert np.array_equal(y, oracle(state, 1.0, 1e-6, t).y.T)


def handed_blocks(run, *args, **kwargs):
    """A reduced run and copies of the blocks of raw records that DOP853
    handed its reducer."""
    blocks = []
    real = _dop853.dop853

    def spy(fun, t0, t_bound, y0, t_eval, rtol, atol, emit):
        return real(fun, t0, t_bound, y0, t_eval, rtol, atol, lambda t, y: blocks.append(y.copy()) or emit(t, y))

    with mock.patch.object(_dop853, "dop853", spy):
        traj = run(*args, **kwargs)
    return traj, blocks


def as_bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


class TestRecordBlocksThroughTheIntegrator:
    """DOP853 decides a reduced run's record blocks: max(3, _DENSE_FLOATS
    // N) records, the last block taking the remainder.  The reducer
    reduces each block as it is handed, and record 0 is the initial state,
    from which the run takes its classifier windows before it steps."""

    @pytest.mark.parametrize("extra", [1, 2])  # the last block's remainder
    @pytest.mark.parametrize("kind, n", [("atoms", 16), ("density", 128)])
    def test_blocks_columns_and_record_0(self, kind, n, extra):
        rows = max(3, _DENSE_FLOATS // n)
        n_record = rows + extra
        rng = np.random.default_rng(n + extra)
        pp, tp = PhysicalParams(), TruncationParams.solve(0.5, 1.0, 0.8)
        if kind == "atoms":
            state = antisymmetric_state(rng, n, scale=0.1)
            state = AtomSystemState.from_table(state.locations, state.masses * (rng.random(n) > 0.3), dense_rates(state))
            traj, blocks = handed_blocks(run_atoms, state, 5.0, eta=0.3, n_record=n_record, stationarity_window=1.0)
            rec = oracles.Recorded.of_records(traj.times, np.concatenate(blocks), state)
            row0 = np.clip(state.masses, 0.0, None)
            assert traj.limit.blocks == _table_components(traj.state_at(0), state)
        else:
            grid = Grid.log_spaced(0.5, 30.0, n)
            density = planck_density(grid, -0.3) * (grid.nodes >= 3.0)  # nodes below 3 hold zero
            traj, blocks = handed_blocks(run_density, grid, density, pp, tp, t_end=(n_record - 1) / 64, eta=0.3,
                                         dt=1 / 64, stationarity_window=0.25)
            state = AtomSystemState.from_table(grid.nodes, density * grid.weights, rate_matrix(pp, tp, grid.nodes)[0])
            rec = oracles.Recorded.of_records(traj.times, np.concatenate(blocks), state, grid)
            row0 = np.clip(density * grid.weights, 0.0, None) / grid.weights
            assert traj.limit.blocks == components(traj.state_at(0), tp)
        sizes = [len(b) for b in blocks]
        assert sizes == [hi - lo for lo, hi in oracles.dense_blocks(n_record, n)] == [n_record]
        assert min(sizes) >= 3
        assert np.any(row0 == 0.0) and np.any(row0 > 0.0)
        assert np.array_equal(as_bits(rec.U[0]), as_bits(row0))
        assert np.array_equal(as_bits(traj.states[0]), as_bits(row0))
        want = {"M0": rec.mass_series(), "X_eta": rec.exp_moment_series(0.3)}
        want.update({f"M{a:g}": rec.moment_series(a) for a in (1.0, 2.0, 3.0)})
        want.update({f"D_{a:g}": rec.dissipation_series(a) for a in (2.0, 3.0)})
        for name, column in want.items():
            assert np.array_equal(as_bits(getattr(traj, name)), as_bits(column)), name


class TestCumulativeSimpsonAgainstScipy:
    @settings(max_examples=80, deadline=None)
    @given(
        n_nodes=st.integers(2, 300),
        start=st.floats(0.0, 10.0),
        length=st.floats(1e-6, 1e3),
        columns=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_linspace_grids(self, n_nodes, start, length, columns, seed):
        rng = np.random.default_rng(seed)
        t = np.linspace(start, start + length, n_nodes)
        y = rng.normal(size=(n_nodes, columns)) * 10.0 ** rng.uniform(-3, 3)
        y[rng.random(y.shape) < 0.2] = 0.0
        y[rng.random(y.shape) < 0.1] = -0.0
        want = cumulative_simpson(y, x=t, axis=0, initial=0.0)
        got = _cumulative_simpson(t)(y)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 5, 250, 251])
    def test_odd_and_even_counts_of_picard_windows(self, n_nodes):
        t = np.linspace(0.0, 0.25, n_nodes)
        y = np.random.default_rng(n_nodes).normal(size=(n_nodes, 128))
        want = cumulative_simpson(y, x=t, axis=0, initial=0.0)
        got = _cumulative_simpson(t)(y)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
