"""The DOP853 step loop's counts, and its message on a non-finite stall.

``dop853`` returns SciPy's ``nfev`` as an int that also carries the accepted
and rejected steps.  The count is kept by arithmetic, not by wrapping the
rate function: 2 evaluations before the first step, 12 per step attempt and
3 per accepted step that holds requested times.  SciPy's step list is the
oracle for the step counts and for which steps hold records.  A stall on
finite error estimates keeps SciPy's message (``tests/test_ports.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from comptonsim._dop853 import ATOL, StepSizeTooSmall, dop853
from comptonsim.reduced_solver import AtomSystemState, atom_ode_rhs


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
