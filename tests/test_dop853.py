"""The DOP853 step loop's counts, and its message on a non-finite stall.

``dop853`` returns SciPy's ``nfev`` as an int that also carries the accepted
and rejected steps.  The count is kept by arithmetic, not by wrapping the
rate function: 2 evaluations before the first step, 12 per step attempt and
3 per accepted step that holds requested times.  SciPy's step list is the
oracle for the step counts and for which steps hold records.  A stall on
finite error estimates keeps SciPy's message (``tests/test_ports.py``).

``integrate``, the run driver of the full and both reduced runs, turns a
stall and a record below its positivity floor into ``StepCollapse``, and
clips a dip within the floor.  A first rate that overflows stops every run
at t = 0 with ``StepCollapse``, where SciPy's loop would never end.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from comptonsim import _dop853
from comptonsim._dop853 import ATOL, StepSizeTooSmall, dop853
from comptonsim.full_solver import RegularizedKernel, SolverConfig, StepCollapse, run_full
from comptonsim.kernel import PhysicalParams
from comptonsim.measure import Grid, planck_density
from comptonsim.reduced_solver import AtomSystemState, atom_ode_rhs, run_atoms, run_density
from comptonsim.truncation import TruncationParams

PP = PhysicalParams()
TP = TruncationParams.solve(0.5, 1.0, 0.8)
NODE = 1  # the node the tests dip below zero


def stiff_state(trial: int) -> AtomSystemState:
    # six atoms with rates up to ~1e4: the controller rejects steps at rtol 1e-10
    rng = np.random.default_rng(5)
    for _ in range(trial + 1):
        upper = np.triu(rng.normal(size=(6, 6)) * 10 ** rng.uniform(0, 4), 1)
        m0 = rng.uniform(0.0, 1.0, 6)
    return AtomSystemState.from_table(np.arange(1.0, 7.0), m0, upper - upper.T)


def rhs_of(state: AtomSystemState):
    return lambda _t, m: atom_ode_rhs(state, m)


@pytest.mark.parametrize("n_record", [2, 3, 300, 2001])
def test_evaluation_count_identity_with_rejected_steps(n_record):
    state, t_end, rtol = stiff_state(8), 10.0, 1e-10
    records = np.linspace(0.0, t_end, n_record)
    steps = solve_ivp(rhs_of(state), (0.0, t_end), state.masses.copy(), method="DOP853", rtol=rtol, atol=ATOL)
    accepted, attempts = steps.t.size - 1, (steps.nfev - 2) // 12
    # the step (t_{i-1}, t_i] holds every record searchsorted sends to i; t = 0 is in step 1
    holding = np.unique(np.maximum(np.searchsorted(steps.t, records), 1)).size

    counts = dop853(rhs_of(state), 0.0, t_end, state.masses.copy(), records, rtol, ATOL, lambda t, y: None)
    assert (counts.steps, counts.rejected) == (accepted, attempts - accepted)
    assert counts.rejected > 0
    assert counts.nfev == 2 + 12 * (counts.steps + counts.rejected) + 3 * holding
    sol = solve_ivp(rhs_of(state), (0.0, t_end), state.masses.copy(), method="DOP853", rtol=rtol, atol=ATOL,
                    t_eval=records)
    assert counts.nfev == sol.nfev


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_stall_on_a_non_finite_rate_names_its_time(bad):
    # the rate turns non-finite past t = 0.5: the steps close in on 0.5 until
    # every step the controller may take has a stage past it
    def rate(t, y):
        out = -y.copy()
        if np.max(t) > 0.5:
            out[0] = bad
        return out

    with np.errstate(invalid="ignore"), pytest.raises(StepSizeTooSmall) as err:
        dop853(rate, 0.0, 1.0, np.ones(3), np.array([0.0, 1.0]), 1e-6, ATOL, lambda t, y: None)
    message = str(err.value)
    prefix = "Required step size is less than spacing between numbers. (error estimate not finite since t="
    assert message.startswith(prefix) and message.endswith(")")
    since = float(message[len(prefix):-1])
    assert 0.0 < since <= 0.5


def run_of(kind: str):
    """A run of ``kind`` with 11 records to t = 0.01 or 1 as a callable, the
    weight that makes node NODE's record value its node mass, the run's
    positivity floor, and the last state of its result."""
    if kind == "atoms":
        table = np.array([[0.0, 0.5, 0.0], [-0.5, 0.0, 0.3], [0.0, -0.3, 0.0]])
        state = AtomSystemState.from_table([1.0, 2.0, 3.0], [0.6, 0.3, 0.2], table)
        return lambda: run_atoms(state, 1.0, eta=0.3, n_record=11), 1.0, 1.1e-12, lambda traj: traj.states[-1]
    if kind == "density":
        grid = Grid.log_spaced(1.0, 30.0, 16)
        u0 = planck_density(grid, 0.0)
        floor = 1e-12 * max(float(np.sum(u0 * grid.weights)), 1.0)
        # the records are the node masses; the kept states are densities
        return (lambda: run_density(grid, u0, PP, TP, t_end=0.01, eta=0.3, dt=1e-3), 1.0, floor,
                lambda traj: traj.states[-1])
    grid = Grid.log_spaced(0.05, 15.0, 32)
    kern = RegularizedKernel.build(PP, TP, grid, n=20)
    u0 = planck_density(grid, 0.0) + np.exp(-3.0 * (grid.nodes - 3.0) ** 2)
    floor = 1e-12 * max(float(np.sum(u0 * grid.weights)), 1.0)
    return lambda: run_full(u0, kern, SolverConfig(t_end=0.01)), grid.weights[NODE], floor, lambda traj: traj.final


def dipping(dips: dict[int, float], weight: float):
    """A ``dop853`` that integrates as the real one, but sets node NODE of
    the records ``dips`` (record index -> node mass) before they are
    emitted, and the times of those records, filled as they are emitted."""
    times = {}

    def fake(fun, t0, t_bound, y0, t_eval, rtol, atol, emit):
        def dip(t, rows):
            lo = int(np.searchsorted(t_eval, t[0]))
            for k, mass in dips.items():
                if lo <= k < lo + len(rows):
                    rows[k - lo, NODE] = mass / weight
                    times[k] = t[k - lo]
            emit(t, rows)
        return dop853(fun, t0, t_bound, y0, t_eval, rtol, atol, dip)

    return fake, times


@pytest.mark.parametrize("kind", ["full", "atoms", "density"])
def test_one_failure_type_and_one_floor(kind, monkeypatch):
    # every run reaches DOP853 through the run driver: a stall, a record
    # below the floor (at its block, naming the first such record's time)
    # and a dip within the floor are handled alike
    run, weight, floor, last = run_of(kind)

    def stall(*args):
        raise StepSizeTooSmall("Required step size is less than spacing between numbers.")

    monkeypatch.setattr(_dop853, "dop853", stall)
    with pytest.raises(StepCollapse) as err:
        run()
    assert str(err.value) == "integration failed: Required step size is less than spacing between numbers."

    fake, times = dipping({3: -2.0 * floor, 7: -4.0 * floor}, weight)
    monkeypatch.setattr(_dop853, "dop853", fake)
    with pytest.raises(StepCollapse) as err:
        run()
    prefix = f"negative node mass beyond integrator noise at t={times[3]}: "
    assert str(err.value).startswith(prefix)
    assert float(str(err.value)[len(prefix):]) < -floor

    fake, _ = dipping({10: -0.5 * floor}, weight)
    monkeypatch.setattr(_dop853, "dop853", fake)
    state = last(run())
    assert state[NODE] == 0.0 and np.all(state >= 0.0)


def overflowing_run(kind: str):
    """A run of ``kind`` from a state of masses near 1e300, whose first rate
    overflows: the full run's rate is not finite, and the atom system's
    pairwise sums of +inf and -inf are NaN."""
    if kind == "atoms":
        table = np.array([[0.0, 1.0, 1.0], [-1.0, 0.0, 1.0], [-1.0, -1.0, 0.0]])
        state = AtomSystemState.from_table([1.0, 1.1, 1.2], [1e300, 1e300, 1e300], table)
        return lambda: run_atoms(state, 5.0, eta=0.3, n_record=11)
    if kind == "density":
        grid = Grid.log_spaced(1.0, 30.0, 8)
        return lambda: run_density(grid, 1e300 * planck_density(grid, 0.0), PP, TP, t_end=1.0, eta=0.3)
    grid = Grid.log_spaced(0.02, 22.0, 16)
    kern = RegularizedKernel.build(PP, TP, grid, n=20)
    return lambda: run_full(1e300 * planck_density(grid, -1.0), kern, SolverConfig(t_end=0.01))


@pytest.mark.parametrize("kind, message", [
    ("full", "non-finite density rate at t=0.0"),
    ("atoms", "integration failed: initial step estimate is not finite at t=0.0: nan"),
    ("density", "integration failed: initial step estimate is not finite at t=0.0: nan"),
], ids=["full", "atoms", "density"])
def test_a_nan_first_rate_stops_at_t0(kind, message, monkeypatch):
    # SciPy's loop keeps a NaN initial step and attempts steps at t0 without
    # end; the rate here raises after 10 000 calls, so such a loop fails
    real, calls = _dop853.dop853, []

    def bounded(fun, *args):
        def rate(t, y):
            calls.append(t)
            if len(calls) > 10_000:
                raise RuntimeError("still integrating after 10 000 rate calls")
            return fun(t, y)
        return real(rate, *args)

    monkeypatch.setattr(_dop853, "dop853", bounded)
    run = overflowing_run(kind)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StepCollapse) as err:
        run()
    assert str(err.value) == message
    assert len(calls) <= 2  # the first rate and the initial step guess
