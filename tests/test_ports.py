"""The in-repo DOP853 stepper and cumulative Simpson rule, held to SciPy.

The package never imports SciPy; these tests use it only as the oracle and
require equality bit for bit (``np.array_equal``), not closeness.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson, solve_ivp

from comptonsim import reduced_solver
from comptonsim._dop853 import _DENSE_CHUNK, dop853
from comptonsim.reduced_solver import _ATOM_ATOL, AtomSystemState, _cumulative_simpson, atom_ode_rhs, run_atoms


def antisymmetric_state(rng, n: int, scale: float = 1.0) -> AtomSystemState:
    """Random masses with an exactly antisymmetric random rate table."""
    upper = np.triu(rng.normal(size=(n, n)) * scale, 1)
    locs = np.sort(rng.uniform(0.5, 30.0, n)) + np.arange(n) * 1e-3  # strictly increasing
    return AtomSystemState.from_table(locs, rng.uniform(0.1, 1.0, n), upper - upper.T)


def oracle(state: AtomSystemState, t_end: float, rtol: float, t_eval=None):
    def rhs(_t, m):
        return atom_ode_rhs(state, m)

    return solve_ivp(rhs, (0.0, t_end), state.masses.copy(), method="DOP853", rtol=rtol, atol=_ATOM_ATOL, t_eval=t_eval)


def ported(state: AtomSystemState, t_end: float, rtol: float, n_record: int):
    def rhs(_t, m):
        return atom_ode_rhs(state, m)

    return dop853(rhs, 0.0, t_end, state.masses.copy(), np.linspace(0.0, t_end, n_record), rtol, _ATOM_ATOL)


def assert_same_run(state: AtomSystemState, t_end: float, rtol: float, n_record: int) -> None:
    sol = oracle(state, t_end, rtol, np.linspace(0.0, t_end, n_record))
    t, y, nfev = ported(state, t_end, rtol, n_record)
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
        monkeypatch.setattr(reduced_solver, "_ATOM_RTOL", 1e-10)  # run_atoms reads it at call time
        with pytest.raises(RuntimeError, match=r"^atom integration failed: ") as err:
            run_atoms(state, 10.0, n_record=2001)
        assert str(err.value) == f"atom integration failed: {sol.message}"

    def test_run_atoms_records_are_the_oracle_records(self):
        state = antisymmetric_state(np.random.default_rng(11), 16)
        traj = run_atoms(state, 50.0, n_record=2001)
        sol = oracle(state, 50.0, 1e-12, np.linspace(0.0, 50.0, 2001))
        assert np.array_equal(traj.times, sol.t)
        assert np.array_equal(traj.masses, np.clip(sol.y.T, 0.0, None))

    def test_run_atoms_keeps_the_evaluation_count(self):
        state = antisymmetric_state(np.random.default_rng(11), 16)
        sol = oracle(state, 50.0, 1e-12, np.linspace(0.0, 50.0, 2001))
        assert run_atoms(state, 50.0, n_record=2001).nfev == sol.nfev

    def test_tiny_rtol_is_clamped_with_scipy_warning(self):
        state = antisymmetric_state(np.random.default_rng(3), 4)
        with pytest.warns(UserWarning, match="rtol"):
            sol = oracle(state, 1.0, 1e-16, np.linspace(0.0, 1.0, 5))
        with pytest.warns(UserWarning, match="rtol"):
            t, y, nfev = ported(state, 1.0, 1e-16, 5)
        assert np.array_equal(y, sol.y.T) and nfev == sol.nfev


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
