"""Reduced quadratic dynamics: atoms, flat densities, Lyapunov structure."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import signal
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comptonsim import _dop853, reduced_solver
from comptonsim._dop853 import StepSizeTooSmall
from comptonsim.full_solver import StepCollapse
from comptonsim.harness import EXAMPLE51, build_initial
from comptonsim.kernel import PhysicalParams
from comptonsim.measure import Grid, components, planck_density, relative_drift
from comptonsim.reduced_solver import (
    AtomSystemState,
    AtomTrajectory,
    FlatnessViolation,
    NonContraction,
    NotConverged,
    PicardTrajectory,
    _LimitWindows,
    _quantiles,
    _table_components,
    atom_ode_rhs,
    classify_limit,
    flatness_certificate,
    lyapunov_check,
    run_atoms,
    run_density,
)
from comptonsim.truncation import TruncationParams, eval_cutoff, gamma2
import oracles
from oracles import dense_rates, eval_kernel, rate_matrix

PP = PhysicalParams()
TP = TruncationParams.solve(0.5, 1.0, 0.8)

# locations realizing the chain coupling a-b, b-c with a, c decoupled
A, B, C = 1.0, 1.5, 2.4
CHAIN_TABLE = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def chain_state(masses=(0.6, 0.2, 0.2)) -> AtomSystemState:
    return AtomSystemState.from_table([A, B, C], list(masses), CHAIN_TABLE)


def random_resolvable_state(rng, n_atoms: int = 4, margin: float = 0.04) -> AtomSystemState:
    """Random atoms whose pairwise couplings are decisively on or off.

    A pair whose cone ratio sits within ``margin`` of a ramp corner couples
    so weakly that extinction lies beyond any reachable horizon, so
    such configurations are resampled.  Locations stay above the band box.
    """
    while True:
        locs = np.sort(rng.uniform(1.05, 6.0, n_atoms))
        ratios = locs[:, None] / locs[None, :]
        ratios = np.minimum(ratios, 1.0 / ratios)[np.triu_indices(n_atoms, 1)]
        if np.min(np.diff(locs)) < 0.05:
            continue
        if np.all(np.abs(ratios - TP.theta) > margin) and np.all(np.abs(ratios - TP.theta1) > margin):
            return AtomSystemState.from_physical(PP, TP, locs, rng.uniform(0.1, 1.0, n_atoms))


@st.composite
def decoupled_blocks(draw):
    """Atoms in two or three blocks.  Neighbours inside a block lie within
    a factor 1.15 of each other and couple; each block starts beyond gamma2
    of the last atom before it, so no pair across blocks couples."""
    locs, masses = [], []
    start = draw(st.floats(0.3, 2.0))
    for _ in range(draw(st.integers(2, 3))):
        x = start
        for _ in range(draw(st.integers(2, 4))):
            locs.append(x)
            masses.append(draw(st.floats(0.05, 1.0)))
            x *= 1.0 + draw(st.floats(0.02, 0.15))
        start = float(gamma2(TP, locs[-1])) * (1.0 + draw(st.floats(0.01, 0.5)))
    return np.array(locs), np.array(masses)


FLAGS = ("in_initial_support", "pairwise_decoupled", "mass_sums_ok", "leftmost_ok",
         "component_conservation_ok", "queue_monotone")


def jump_trajectory(locations, before, after, links=()) -> AtomTrajectory:
    """Atoms whose masses jump from ``before`` to ``after`` between t = 0 and
    t = 1 and hold to t = 2, so the last window is stationary; the table
    links each pair of ``links`` and no other."""
    table = np.zeros((len(locations), len(locations)))
    for i, j in links:
        table[i, j], table[j, i] = 1.0, -1.0
    state = AtomSystemState.from_table(locations, before, table)
    return oracles.replayed_atoms(state, np.array([before, after, after]), eta=0.3, stationarity_window=1.0)


def spied(run, *args, **kwargs):
    """A run and its clipped records (a density run's divided by the node
    weights), taken from what its reducer was handed; the run's kept
    states must be those records."""
    with oracles.spying() as seen:
        traj = run(*args, **kwargs)
    records = np.clip(seen[0], 0.0, None)
    if isinstance(traj, PicardTrajectory):
        records /= traj.grid.weights
    assert np.array_equal(traj.states, records[list(traj.records)])
    return traj, records


# forty atoms from 3.0 up: with 42 support points every tail threshold lies above 3.0
RIGHT = list(np.arange(3.0, 43.0))


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail a call that does not return within ``seconds`` instead of hanging."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class PhysicalRates:
    """The physical R(x, y) read off ``rate_matrix``, with the cutoff as
    its coupling test (the classifier's test for Picard trajectories; for
    physical atoms it reads R, which vanishes where the cutoff does)."""

    def rate(self, x: float, y: float) -> float:
        R, _ = rate_matrix(PP, TP, sorted((x, y)))
        return R[0, 1] if x <= y else R[1, 0]

    def matrix(self, locs) -> np.ndarray:
        return rate_matrix(PP, TP, locs)[0]

    def coupled(self, x: float, y: float) -> bool:
        return eval_cutoff(TP, x, y) > 0.0


class TestRateKernel:
    def test_antisymmetry_bitwise(self):
        kern = PhysicalRates()
        rng = np.random.default_rng(61)
        for _ in range(30):
            x, y = rng.uniform(0.1, 6.0, 2)
            assert kern.rate(x, y) == -kern.rate(y, x)

    def test_sign_toward_lower_energy(self):
        kern = PhysicalRates()
        assert kern.rate(1.0, 1.4) > 0.0  # lower energy gains
        assert kern.rate(1.4, 1.0) < 0.0
        assert kern.rate(2.0, 2.0) == 0.0

    def test_zero_off_support(self):
        kern = PhysicalRates()
        assert kern.rate(1.0, 9.0) == 0.0
        assert not kern.coupled(1.0, 9.0)
        assert kern.coupled(1.0, 1.4)

    def test_matrix_antisymmetric(self):
        kern = PhysicalRates()
        locs = np.array([0.5, 0.8, 1.0, 2.2])
        R = kern.matrix(locs)
        assert np.array_equal(R, -R.T)

    def test_synthetic_validation(self):
        with pytest.raises(ValueError):
            AtomSystemState.from_table([1.0, 2.0], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]])

    def test_antisymmetry_is_exact(self):
        # the atom RHS reads only the upper triangle and the dissipation
        # both, so a table off by a single ulp is refused, not rounded
        ulp_off = [[0.0, 1.0], [-np.nextafter(1.0, 2.0), 0.0]]
        for table in (ulp_off, [[0.0, 1.0], [-1.000009, 0.0]]):
            with pytest.raises(ValueError, match="exactly antisymmetric"):
                AtomSystemState.from_table([1.0, 2.0], [0.5, 0.5], table)
            with pytest.raises(ValueError, match="exactly antisymmetric"):
                AtomSystemState.from_table([1.0, 2.0], [0.5, 0.5], np.array(table))
        state = AtomSystemState.from_table(EXAMPLE51["locations"], EXAMPLE51["masses"], EXAMPLE51["table"])
        R = dense_rates(state)
        assert np.array_equal(R, -R.T)

    def test_rate_matrix_is_a_read_only_copy_in_a_frozen_state(self):
        # the atom RHS reads slots built from the pairs once, so neither an
        # in-place write nor new pairs may reach a constructed state
        table = np.array(EXAMPLE51["table"], dtype=float)
        state = AtomSystemState.from_table(EXAMPLE51["locations"], EXAMPLE51["masses"], table)
        for name in ("pair_i", "pair_j", "pair_r"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(state, name)[0] = 2
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(state, name, np.zeros(1))
        table[0, 1] = 99.0  # the caller's table stays its own
        assert np.array_equal(dense_rates(state), np.array(EXAMPLE51["table"], dtype=float))

    @pytest.mark.parametrize("name, locations, masses", [
        ("locations", [1.0, math.nan, 3.0], [0.2, 0.3, 0.5]),
        ("locations", [1.0, 2.0, math.inf], [0.2, 0.3, 0.5]),
        ("masses", [1.0, 2.0, 3.0], [0.2, math.nan, 0.5]),
        ("masses", [1.0, 2.0, 3.0], [0.2, math.inf, 0.5]),
    ], ids=["nan-location", "inf-location", "nan-mass", "inf-mass"])
    def test_non_finite_atoms_are_refused(self, name, locations, masses):
        # NaN passed the increasing and nonnegative tests, since a comparison
        # with it is false: the run reported M1 = nan (inf at an infinite
        # location), and a NaN mass stopped only at DOP853's finite-y0 check
        with pytest.raises(ValueError, match=f"^atom {name} must be finite$"):
            AtomSystemState.from_table(locations, masses, np.zeros((3, 3)))
        with pytest.raises(ValueError, match=f"^atom {name} must be finite$"):
            AtomSystemState.from_physical(PP, TP, locations, masses)

    def test_chain_example_coupling_consistent_with_region(self):
        # the synthetic chain matches the geometry at these locations
        assert eval_cutoff(TP, A, B) > 0.0
        assert eval_cutoff(TP, B, C) > 0.0
        assert eval_cutoff(TP, A, C) == 0.0


class TestAtomRhs:
    def test_single_atom_inert(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0], [1.0])
        assert atom_ode_rhs(st) == pytest.approx([0.0])

    def test_decoupled_pair_inert(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0, 9.0], [0.5, 0.5])
        assert np.all(atom_ode_rhs(st) == 0.0)

    def test_chain_initial_rates(self):
        st = chain_state()
        assert np.allclose(atom_ode_rhs(st), [0.12, -0.08, -0.04], atol=1e-15)

    def test_rates_cancel_to_roundoff(self):
        rng = np.random.default_rng(62)
        locs = np.sort(rng.uniform(0.3, 3.0, 6))
        st = AtomSystemState.from_physical(PP, TP, locs, rng.uniform(0.1, 1.0, 6))
        rates = atom_ode_rhs(st)
        assert abs(math.fsum(rates)) <= 1e-15 * float(np.sum(np.abs(rates)))
        # a single exchange carries matched floats, so two atoms cancel exactly
        pair = AtomSystemState.from_physical(PP, TP, [1.0, 1.3], [0.4, 0.6])
        assert math.fsum(atom_ode_rhs(pair)) == 0.0

    def test_locations_must_increase(self):
        with pytest.raises(ValueError):
            AtomSystemState.from_table([2.0, 1.0], [0.5, 0.5], np.zeros((2, 2)))


class TestRunAtoms:
    def test_chain_long_time(self):
        traj = run_atoms(chain_state(), 200.0, eta=0.3, n_record=2001)
        final = traj.final_masses()
        assert final[1] <= 1e-16
        assert final[2] >= 0.2 * math.exp(-1.0) - 1e-9
        ms = traj.M0
        assert np.max(np.abs(ms - ms[0])) <= 1e-12 * ms[0]

    def test_decay_bound_along_the_way(self):
        # the middle mass obeys y(t) <= y0 e^{C t} with C = -0.2
        traj, masses = spied(run_atoms, chain_state(), 50.0, eta=0.3, n_record=501)
        bound = 0.2 * np.exp(-0.2 * traj.times)
        assert np.all(masses[:, 1] <= bound * (1.0 + 1e-9))

    def test_masses_stay_in_range(self):
        _, masses = spied(run_atoms, chain_state(), 100.0, eta=0.3, n_record=301)
        assert np.all(masses >= 0.0)
        assert np.all(masses <= 1.0 + 1e-12)

    def test_stationary_when_decoupled(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0, 9.0], [0.4, 0.6])
        _, masses = spied(run_atoms, st, 10.0, eta=0.3, n_record=51)
        assert np.allclose(masses, masses[0], atol=0.0)

    @settings(max_examples=10, deadline=None)
    @given(blocks=decoupled_blocks())
    def test_block_masses_invariant(self, blocks):
        locs, masses = blocks
        state = AtomSystemState.from_physical(PP, TP, locs, masses)
        parts = components((locs, masses), TP)
        assert len(parts) >= 2
        traj, records = spied(run_atoms, state, 20.0, eta=0.3, n_record=41)
        assert np.max(np.abs(traj.final_masses() - masses)) > 1e-6  # mass moves inside blocks
        total = float(masses.sum())
        for comp in parts:
            inside = np.isin(locs, comp.points)
            series = [math.fsum(row) for row in records[:, inside]]
            assert np.max(np.abs(np.array(series) - comp.mass)) <= 1e-12 * total

    @pytest.mark.parametrize("t_end, n_record, message", [
        (10.0, 1, "n_record must be >= 2"),
        (10.0, 0, "n_record must be >= 2"),
        (math.inf, 3, "t_end must be positive and finite"),
    ])
    def test_bad_controls_raise(self, t_end, n_record, message):
        # one record would hold t = 0 only, though the run goes on to t_end;
        # an infinite t_end used to step forever
        with time_limit(5.0), pytest.raises(ValueError, match=message):
            run_atoms(chain_state(), t_end, eta=0.3, n_record=n_record)

    def test_state_without_atoms_is_refused(self):
        # numpy's own "zero-size array to reduction operation minimum"
        # error came after the integration
        empty = AtomSystemState.from_table(np.zeros(0), np.zeros(0), np.zeros((0, 0)))
        with time_limit(5.0), pytest.raises(ValueError, match="^the atom system has no atoms to integrate$"):
            run_atoms(empty, 1.0, eta=0.3, n_record=3)

    def test_leftmost_mass_nondecreasing(self):
        _, masses = spied(run_atoms, chain_state(), 100.0, eta=0.3, n_record=1001)
        assert np.all(np.diff(masses[:, 0]) >= -1e-15)

    def test_step_collapse_is_named(self, monkeypatch):
        def collapse(*args):
            raise StepSizeTooSmall("Required step size is less than spacing between numbers.")

        monkeypatch.setattr(_dop853, "dop853", collapse)
        with pytest.raises(StepCollapse) as err:
            run_atoms(chain_state(), 1.0, eta=0.3, n_record=3)
        assert isinstance(err.value, RuntimeError)
        assert str(err.value) == "integration failed: Required step size is less than spacing between numbers."

    def test_negative_mass_is_named(self, monkeypatch):
        def undershoot(rhs, t0, t1, m0, t_eval, rtol, atol, emit):
            masses = np.tile(m0, (t_eval.size, 1))
            masses[-1, 0] = -1e-6
            emit(t_eval, masses)
            return 0

        monkeypatch.setattr(_dop853, "dop853", undershoot)
        with pytest.raises(StepCollapse) as err:
            run_atoms(chain_state(), 1.0, eta=0.3, n_record=3)
        assert isinstance(err.value, RuntimeError)
        assert str(err.value) == "negative node mass beyond integrator noise at t=1.0: -1e-06"


def one_state_dissipation(st: AtomSystemState, alpha: float) -> float:
    """The moment dissipation of the state's masses as one record: the
    reducer's column for the orders 2 and 3 it computes, which must be the
    formula's bits (``oracles.dissipation``); the formula for any other."""
    (d,) = oracles.dissipation(dense_rates(st), st.locations, st.masses[None, :], alpha)
    if alpha in (2.0, 3.0):
        columns = oracles.reduced_columns(st.locations, dense_rates(st), st.masses[None, :], 0.3)
        assert np.array_equal(as_bits(columns[f"D_{alpha:g}"]), as_bits([d]))
    return d


def as_bits(a) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.uint64)


class TestDissipation:
    """The moment dissipation of one atom state, as a run's reducer
    computes it per record."""

    def test_single_atom_zero(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0], [1.0])
        assert one_state_dissipation(st, 2.0) == 0.0

    def test_decoupled_pair_zero_exactly(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0, 9.0], [0.5, 0.5])
        assert one_state_dissipation(st, 2.0) == 0.0

    def test_coupled_pair_strictly_negative_with_oracle(self):
        x, y, mx, my = 1.0, 1.2, 0.5, 0.5
        st = AtomSystemState.from_physical(PP, TP, [x, y], [mx, my])
        val = one_state_dissipation(st, 2.0)
        # direct two-atom double sum: 2 R(x,y) (x^a - y^a) m_x m_y
        rate = (
            eval_cutoff(TP, x, y)
            * eval_kernel(PP, x, y).value
            / (x * y)
            * (math.exp(-x) - math.exp(-y))
        )
        oracle = 2.0 * rate * (x**2 - y**2) * mx * my
        assert val < 0.0
        assert val == pytest.approx(oracle, rel=1e-12)

    def test_nonpositive_random(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            locs = np.sort(rng.uniform(0.3, 4.0, 5))
            st = AtomSystemState.from_physical(PP, TP, locs, rng.uniform(0.1, 1.0, 5))
            for alpha in (1.5, 2.0, 3.0):
                assert one_state_dissipation(st, alpha) <= 0.0


class TestLyapunov:
    def test_chain_trajectory(self):
        traj = run_atoms(chain_state(), 200.0, n_record=20001, eta=0.25)
        rep = lyapunov_check(traj)
        assert all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok
        assert all(err <= 1e-4 for err in rep.max_balance_error.values())

    def test_m2_strictly_decreasing_then_flat(self):
        traj = run_atoms(chain_state(), 200.0, eta=0.3, n_record=2001)
        m2 = traj.M2
        early = traj.times < 20.0
        assert np.all(np.diff(m2[early]) < 0.0)
        late = traj.times > 150.0
        assert np.max(np.abs(np.diff(m2[late]))) <= 1e-12

    def test_stationary_for_decoupled(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0, 9.0], [0.4, 0.6])
        traj = run_atoms(st, 5.0, n_record=101, eta=0.25)
        rep = lyapunov_check(traj)
        assert all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok
        assert np.all(traj.D_2 == 0.0)
        assert np.all(traj.M2 == traj.M2[0])


@pytest.fixture(scope="module")
def flat_setup():
    grid = Grid.log_spaced(0.5, 30.0, 96)
    u0 = planck_density(grid, 0.0)
    return grid, u0


class TestPicard:
    def test_zero_initial_data(self):
        grid = Grid.log_spaced(0.5, 10.0, 32)
        u0 = np.zeros(32)
        _, densities = spied(run_density, grid, u0, PP, TP, t_end=0.2, eta=0.3, dt=1e-2)
        assert np.all(densities == 0.0)

    def test_mass_conservation(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(grid, u0, PP, TP, t_end=5.0, dt=1e-3, eta=0.3)
        ms = traj.M0
        assert np.max(np.abs(ms - ms[0])) <= 1e-10 * ms[0]

    def test_pointwise_envelope(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(grid, u0, PP, TP, t_end=1.0, dt=1e-3, eta=0.3)
        env = traj.pointwise_envelope(len(traj.times) - 1, u0)
        assert np.all(traj.states[-1] <= env * (1.0 + 1e-9))

    def test_support_constant_in_time(self, flat_setup):
        grid, u0 = flat_setup
        traj, densities = spied(run_density, grid, u0, PP, TP, t_end=0.5, dt=2e-3, eta=0.3)
        mask0 = u0 > 0.0
        for k in range(0, len(traj.times), 50):
            assert np.array_equal(densities[k] > 0.0, mask0)

    def test_moments_nonincreasing(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(grid, u0, PP, TP, t_end=1.0, dt=1e-3, eta=0.3)
        rep = lyapunov_check(traj)
        assert all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok

    def test_flatness_violation_raised(self):
        grid = Grid.log_spaced(1e-3, 10.0, 64)
        dens = planck_density(grid, 0.0)  # mass all the way to the origin
        with pytest.raises(FlatnessViolation):
            run_density(grid, dens, PP, TP, t_end=0.1, eta=0.3)

    def test_flatness_certificate_values(self):
        grid = Grid.log_spaced(0.5, 10.0, 64)
        dens = planck_density(grid, 0.0)
        flat, tail = flatness_certificate(grid, dens, r=1.0, eta=0.3)
        assert flat > 0.0 and tail > 0.0 and math.isfinite(flat)

    def test_non_contraction_raised(self, monkeypatch):
        grid = Grid.log_spaced(0.5, 10.0, 48)
        dens = 5e3 * planck_density(grid, 0.0)  # huge mass defeats contraction
        monkeypatch.setattr(oracles, "_MAX_ITERATIONS", 8)
        monkeypatch.setattr(oracles, "_FIRST_WINDOW", 1.0)
        with pytest.raises(NonContraction):
            oracles.picard_solve(grid, dens, PP, TP, t_end=1.0, eta=0.3, dt=0.05)

    def test_fixed_point_matches_independent_integrator(self, flat_setup):
        # the node system integrated as atoms must agree with direct adaptive
        # integration of the same semi-discrete system in density form
        from scipy.integrate import solve_ivp

        grid, u0 = flat_setup
        R, _ = rate_matrix(PP, TP, grid.nodes)
        traj, densities = spied(run_density, grid, u0, PP, TP, t_end=1.0, dt=1e-3, eta=0.3)
        # the run's dissipation is that of this matrix
        assert np.array_equal(traj.D_2, oracles.dissipation(R, grid.nodes, densities, 2.0, grid.weights))
        paired = R * grid.weights[None, :]
        ref = solve_ivp(
            lambda t, u: u * (paired @ u), (0.0, 1.0), u0, method="DOP853", rtol=1e-13, atol=1e-16
        )
        err = float(np.dot(grid.weights, np.abs(traj.states[-1] - ref.y[:, -1])))
        assert err <= 1e-11 * float(np.dot(grid.weights, u0))

    def test_flatness_propagates(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(grid, u0, PP, TP, t_end=1.0, dt=2e-3, eta=0.3)
        flat, tail = flatness_certificate(grid, traj.states[-1], r=1.0, eta=0.3)
        assert math.isfinite(flat) and math.isfinite(tail)

    @pytest.mark.parametrize("control", [
        {"t_end": -1.0}, {"t_end": 0.0}, {"t_end": math.inf}, {"dt": 0.0}, {"dt": -1e-3},
    ], ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()))
    def test_bad_controls_raise(self, flat_setup, control):
        # dt = 0 used to divide by it
        grid, u0 = flat_setup
        name = next(iter(control))
        with time_limit(5.0), pytest.raises(ValueError, match=f"{name} must be positive"):
            run_density(grid, u0, PP, TP, **{"t_end": 0.1, "eta": 0.3, **control})

    def test_atoms_rejected(self):
        grid = Grid.log_spaced(0.5, 10.0, 16)
        # the run takes a density on the grid: atoms (locations, masses) are refused
        u0 = (np.array([1.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="^the density must be on the grid$"):
            run_density(grid, u0, PP, TP, t_end=0.1, eta=0.3)


class TestDensityRunAgainstFixedPoint:
    """run_density integrates the node system with DOP853; the paper's fixed
    point (the oracle) iterates the exponential representation on windows.
    On the benchmark's Picard config (128 nodes to t = 4, with the mu that
    perfbench/workloads.py draws for seeds 7 and 311) and on the 4-node
    config of the command-line tests, both record at the same times, and
    every recorded density agrees to 1e-10 relative (7.1e-12 and 6.9e-12
    were observed; the four decoupled nodes agree exactly)."""

    @pytest.mark.parametrize("grid_args, initial, t_end", [
        ((0.5, 30.0, 128), {"preset": "truncated_planck", "mu": -0.49410298722874707, "support_min": 0.5}, 4.0),
        ((0.5, 30.0, 128), {"preset": "truncated_planck", "mu": -0.3200186242738902, "support_min": 0.5}, 4.0),
        ((1.0, 30.0, 4), {"preset": "truncated_planck", "mu": 0.0, "support_min": 1.0}, 1.0),
    ], ids=["benchmark-seed7", "benchmark-seed311", "cli-4-nodes"])
    def test_records_agree(self, grid_args, initial, t_end):
        grid = Grid.log_spaced(*grid_args)
        u0 = build_initial(initial, grid).density
        traj, states = spied(run_density, grid, u0, PP, TP, t_end=t_end, eta=0.3, dt=1e-3)
        ref = oracles.picard_solve(grid, u0, PP, TP, t_end=t_end, eta=0.3, dt=1e-3)
        assert states.shape == ref.states.shape
        np.testing.assert_allclose(traj.times, ref.times, rtol=0.0, atol=1e-15 * t_end)
        carried = ref.states > 0.0
        assert np.array_equal(states > 0.0, carried)
        assert np.max(np.abs(states[carried] - ref.states[carried]) / ref.states[carried]) <= 1e-10

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        n=st.integers(4, 64),
        grid_min=st.floats(0.3, 2.0),
        grid_max=st.floats(8.0, 40.0),
        support=st.floats(1.0, 3.0),
        mu=st.floats(-1.0, 0.0),
        log_scale=st.floats(-1.0, 1.5),
        t_end=st.floats(0.1, 2.0),
    )
    def test_flat_data_on_random_grids(self, n, grid_min, grid_max, support, mu, log_scale, t_end):
        # the support starts within three times the grid's lowest node, where
        # the run moves the moments by more than the balance can resolve
        # (data whose moments change by ~1e-10 over the run fail the balance
        # on both the oracle and this path: the check's own roundoff floor)
        grid = Grid.log_spaced(grid_min, grid_max, n)
        u0 = build_initial({"preset": "truncated_planck", "mu": mu, "support_min": support * grid_min}, grid)
        u0 = 10.0**log_scale * u0.density
        traj, states = spied(run_density, grid, u0, PP, TP, t_end=t_end, eta=0.3)
        assert relative_drift(traj.M0) <= 1e-10
        assert np.array_equal(states > 0.0, np.broadcast_to(u0 > 0.0, states.shape))
        for k in range(len(traj.times)):
            assert np.all(states[k] <= traj.pointwise_envelope(k, u0) * (1.0 + 1e-9))
        rep = lyapunov_check(traj)
        assert all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok


@st.composite
def sparse_tables(draw):
    """Up to 30 atoms with a random sparse antisymmetric table whose zeros
    are 0.0 or -0.0, masses with empty atoms among them, and a random
    increasing subset ``at`` of the atoms."""
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.normal(size=(n, n)), 1) * (rng.random((n, n)) < draw(st.sampled_from([0.0, 0.05, 0.2, 0.6])))
    R = upper - upper.T
    R[(R == 0.0) & (rng.random((n, n)) < 0.5)] = -0.0
    masses = rng.uniform(0.0, 1.0, n) * (rng.random(n) > 0.25)
    at = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.3, 0.7, 1.0])))
    return np.cumsum(rng.uniform(0.05, 1.0, n)) + 0.5, masses, R, at


class TestClassifyLimit:
    def test_chain_limit(self):
        traj = run_atoms(chain_state(), 200.0, eta=0.3, n_record=2001, stationarity_window=1.0)
        cls = classify_limit(traj, TP)
        assert len(cls.atoms) == 2
        (xa, ma), (xc, mc) = cls.atoms
        assert xa == A and xc == C
        assert ma == pytest.approx(0.8605551275463989, rel=1e-10)
        assert ma + mc == pytest.approx(1.0, rel=1e-12)
        assert cls.passed
        assert cls.component_conservation_ok and cls.queue_monotone
        assert cls.initial_component_masses == (1.0,)

    def test_decoupled_pair_limit_is_initial(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0, 9.0], [0.4, 0.6])
        traj = run_atoms(st, 5.0, eta=0.3, n_record=101, stationarity_window=1.0)
        cls = classify_limit(traj, TP)
        assert cls.atoms == ((1.0, 0.4), (9.0, 0.6))
        assert cls.passed

    def test_gap_below_lp_tolerance_is_not_converged(self):
        # The last window moves a zero-net-mass signed measure of 256 point
        # masses of about 1e-8 on [0.5, 30]: its bounded-Lipschitz size is
        # about 5.2e-7, far above limit_tol = 1e-8, but an LP solver working
        # to ~1e-7 (HiGHS on the unscaled problem) reports 0.0 for it.
        rng = np.random.default_rng(1)
        locs = np.sort(rng.uniform(0.5, 30.0, 256))
        delta = rng.normal(0.0, 1e-8, 256)
        delta -= delta.mean()
        base = np.full(256, 1.0 / 256)
        state = AtomSystemState.from_table(locs, base, np.zeros((256, 256)))
        traj = oracles.replayed_atoms(state, np.stack([base, base + delta, base]), eta=0.3, stationarity_window=1.0)
        with pytest.raises(NotConverged, match="stationarity gap 5.23"):
            classify_limit(traj, TP)

    @pytest.mark.parametrize("rate, decoupled", [(0.0, True), (1e-3, False)])
    def test_coupling_read_off_the_rate_matrix(self, rate, decoupled):
        # 1.0 and 9.0 are decoupled by the cutoff; only the table can couple them
        state = AtomSystemState.from_table([1.0, 9.0], [0.4, 0.6], [[0.0, rate], [-rate, 0.0]])
        traj = oracles.replayed_atoms(state, np.tile(state.masses, (3, 1)), eta=0.3, stationarity_window=1.0)
        cls = classify_limit(traj, TP)
        assert cls.atoms == ((1.0, 0.4), (9.0, 0.6))
        assert cls.pairwise_decoupled is decoupled

    @pytest.mark.parametrize("links, masses, blocks", [
        ([], [0.3, 0.3, 0.4], [[1.0], [1.2], [5.0]]),
        ([(0, 1)], [0.3, 0.3, 0.4], [[1.0, 1.2], [5.0]]),
        ([(0, 2)], [0.3, 0.3, 0.4], [[1.0, 1.2, 5.0]]),  # 1.0-5.0 crosses both gaps
        ([(0, 1), (1, 2)], [0.3, 0.0, 0.4], [[1.0], [5.0]]),  # the link runs through an empty atom
    ])
    def test_table_blocks_split_where_no_entry_crosses(self, links, masses, blocks):
        table = np.zeros((3, 3))
        for i, j in links:
            table[i, j], table[j, i] = 1.0, -1.0
        state = AtomSystemState.from_table([1.0, 1.2, 5.0], masses, table)
        parts = _table_components((state.locations, state.masses), state)
        assert [list(c.points) for c in parts] == blocks

    # each hand-built run breaks one flag of the verdict and keeps the other five
    @pytest.mark.parametrize("flag, traj", [
        # mass appears at 2.0, an empty atom between the linked support atoms 1.0 and 3.0
        ("in_initial_support", jump_trajectory([1.0, 2.0, 3.0], [0.5, 0.0, 0.5], [0.8, 0.2, 0.0], links=[(0, 2)])),
        # 5e-8 of the mass moves from the block {9.0} down to {1.0}: above the
        # block tolerance 1e-8, below the per-record bound 1e-7
        ("mass_sums_ok", jump_trajectory([1.0, 9.0], [0.4, 0.6], [0.4 + 5e-8, 0.6 - 5e-8])),
        # the block {1.0, 1.5} drains its leftmost atom; no tail threshold lies between the two
        ("leftmost_ok", jump_trajectory([1.0, 1.5, *RIGHT], [0.3, 0.2, *[0.01] * 40], [0.0, 0.5, *[0.01] * 40],
                                        links=[(0, 1)])),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_each_block_flag_fails_alone(self, flag, traj):
        cls = classify_limit(traj, TP)
        assert {f: getattr(cls, f) for f in FLAGS} == {f: f != flag for f in FLAGS}
        assert not cls.passed

    def test_density_block_mass_fails_alone(self):
        # four nodes a cell (x3.1) apart, each a decoupled block.  The block at
        # the second node moves its mass one cell down, inside its pad: only the
        # padded window and slack keep its mass, conservation and leftmost flags.
        # 5e-8 of the mass also moves from the top node to the third one.
        grid = Grid.log_spaced(1.0, 30.0, 4)
        w = grid.weights
        before = np.array([0.0, 1.0, 1.0, 1.0])
        moved = 5e-8 * float(before @ w)
        after = np.array([w[1] / w[0], 0.0, 1.0 + moved / w[2], 1.0 - moved / w[3]])
        traj = oracles.replayed_density(grid, before, PP, TP, [before, after, after], eta=0.3, stationarity_window=1.0)
        cls = classify_limit(traj, TP)
        assert {f: getattr(cls, f) for f in FLAGS} == {f: f != "mass_sums_ok" for f in FLAGS}
        assert not cls.passed
        assert cls.initial_component_minima == tuple(grid.nodes[1:])
        assert [x for x, _ in cls.atoms] == [grid.nodes[0], grid.nodes[2], grid.nodes[3]]
        gained = [limit - initial for initial, limit in cls.component_mass_table]
        assert gained == pytest.approx([0.0, moved, -moved], rel=1e-6, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(
        locs=st.lists(st.floats(0.3, 12.0), min_size=1, max_size=8, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_physical_table_blocks_are_the_cutoff_blocks(self, locs, seed):
        locs = np.sort(locs)
        assume(np.all(np.diff(locs) > 1e-6))
        rng = np.random.default_rng(seed)
        masses = rng.uniform(0.05, 1.0, locs.size) * (rng.random(locs.size) > 0.2)  # some atoms empty
        state = AtomSystemState.from_physical(PP, TP, locs, masses)
        assert _table_components((locs, masses), state) == components((locs, masses), TP)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(case=sparse_tables())
    def test_pairs_split_and_couple_as_the_dense_table(self, case):
        # the prefix maximum of j against linked[:a, a:] on the support and on
        # a subset of it; and classify_limit's coupling of limit atoms at
        # (each a block alone) against R[np.ix_(at, at)]
        locs, masses, R, at = case
        state = AtomSystemState.from_table(locs, masses, R)
        for u in ((locs, masses), (locs[at], masses[at])):
            assert _table_components(u, state) == oracles.table_components(u, locs, R)
        limit = (locs[at], np.ones(at.size))
        assert (len(_table_components(limit, state)) == at.size) == (not np.any(R[np.ix_(at, at)]))

    def test_not_converged_raised(self):
        traj = run_atoms(chain_state(), 3.0, eta=0.3, n_record=301, stationarity_window=1.0)
        with pytest.raises(NotConverged):
            classify_limit(traj, TP, limit_tol=1e-10)

    def test_classification_needs_the_run_windows(self):
        traj = run_atoms(chain_state(), 3.0, eta=0.3, n_record=301)
        assert traj.limit is None and traj.records == (0, 300)
        with pytest.raises(ValueError, match="stationarity_window"):
            classify_limit(traj, TP)

    def test_queue_monotone_series(self):
        traj, masses = spied(run_atoms, chain_state(), 50.0, eta=0.3, n_record=501)
        rec = oracles.Recorded(traj.times, masses, traj.locations, dense_rates(traj.state0))
        for r in (0.5, 1.2, 2.0, 3.0):
            series = rec.window_mass_series(r)
            assert np.all(np.diff(series) <= 1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lo=st.floats(0.0, 12.0),
        hi=st.one_of(st.just(math.inf), st.floats(0.0, 12.0)),  # hi < lo is an empty window
        split=st.integers(1, 6),
    )
    def test_window_extremes_are_those_of_the_per_record_sums(self, seed, lo, hi, split):
        # one window as a block of zero mass and as a tail threshold, its records in two blocks
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 1.0, (7, 12)) * (rng.random((7, 12)) > 0.3)  # some carriers empty
        x = np.sort(rng.uniform(0.3, 11.0, 12))
        a, b = int(np.searchsorted(x, lo, side="left")), int(np.searchsorted(x, hi, side="right"))
        windows = _LimitWindows(1.0, 5, (), (), [(a, b), (a, b)], [0.0])
        windows.reduce(rows[:split])
        windows.reduce(rows[split:])
        sums = [math.fsum(m for xi, m in zip(x, row) if lo <= xi <= hi) for row in rows]
        assert windows.drift == pytest.approx(max(sums), rel=1e-14, abs=0.0)
        assert windows.rise == pytest.approx(max(np.diff(sums)), rel=1e-12, abs=1e-14)  # sums are at most 12
        # the bits are those of the row sums of the window's columns
        want = np.ascontiguousarray(rows[:, a:b]).sum(axis=1)
        assert windows.drift == np.max(want) and windows.rise == np.max(np.diff(want))
        # no carrier sits between two neighbours: the window between them is empty
        mid = 0.5 * (x[4] + x[5])
        a, b = int(np.searchsorted(x, mid, side="left")), int(np.searchsorted(x, mid, side="right"))
        empty = _LimitWindows(1.0, 5, (), (), [(a, b)], [0.0])
        empty.reduce(rows)
        assert empty.drift == 0.0

    def test_classification_builds_no_measure_per_record(self, monkeypatch):
        # the block-conservation check once rebuilt a measure at every 64th record
        calls = []
        state_at = AtomTrajectory.state_at
        monkeypatch.setattr(AtomTrajectory, "state_at", lambda traj, idx: calls.append(idx) or state_at(traj, idx))
        traj = run_atoms(chain_state(), 200.0, eta=0.3, n_record=20001, stationarity_window=1.0)
        assert classify_limit(traj, TP).passed
        assert len(calls) <= 4

    def test_verdict_judges_block_conservation_and_tail_monotonicity(self):
        # at record 5 alone, 1e-6 moves from the atom at 5.0 to the one at 6.0:
        # a sample of every 31st record missed it, and the tail rise was not judged
        state = AtomSystemState.from_table([1.0, 1.2, 5.0, 6.0], [0.3, 0.2, 0.25, 0.25], np.zeros((4, 4)))
        masses = np.tile(state.masses, (2001, 1))
        masses[5, 2:] += (-1e-6, 1e-6)
        traj = oracles.replayed_atoms(state, masses, t_end=100.0, eta=0.3, stationarity_window=1.0)
        cls = classify_limit(traj, TP)
        assert cls.in_initial_support and cls.pairwise_decoupled and cls.mass_sums_ok and cls.leftmost_ok
        assert not cls.component_conservation_ok and not cls.queue_monotone
        assert not cls.passed
        held = dataclasses.replace(cls, component_conservation_ok=True, queue_monotone=True)
        assert held.passed
        for flag in ("component_conservation_ok", "queue_monotone"):
            assert not dataclasses.replace(held, **{flag: False}).passed

    @settings(max_examples=200, deadline=None)
    @given(
        points=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=80)  # ties
        ),
        q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    )
    def test_tail_thresholds_are_numpy_quantiles(self, points, q):
        for qs in (np.linspace(0.05, 0.95, 10), np.array(q)):  # the classifier's, then any
            got, want = _quantiles(points, qs), np.quantile(points, qs)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_random_systems_classify(self):
        rng = np.random.default_rng(64)
        for _ in range(3):
            st = random_resolvable_state(rng, n_atoms=4)
            traj = run_atoms(st, 5e4, eta=0.3, n_record=2001, stationarity_window=50.0)
            cls = classify_limit(traj, TP)
            assert cls.passed
            assert cls.mass_sums_ok and cls.component_conservation_ok


@st.composite
def streamed_runs(draw):
    """Records of masses for a run of N atoms (or N grid nodes), N in {1, 2,
    16, 128}: 2 or 3 records, or one record block of the integrator less,
    as many, one more, or two blocks and one.  Record 0 is the initial
    state.  Their first part moves, the rest holds the last state (so some
    runs are stationary), with 0.0, -0.0 and -1e-14 (integrator
    undershoot) entries after record 0, and in some draws an undershoot
    beyond the noise there."""
    n = draw(st.sampled_from([1, 2, 16, 128]))
    kind = "atoms" if n == 1 else draw(st.sampled_from(["atoms", "density"]))
    rows = max(3, _dop853._DENSE_FLOATS // n)
    n_record = draw(st.sampled_from([2, 3, rows - 1, rows, rows + 1, 2 * rows + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m0 = rng.uniform(0.0, 1.0, n) * (rng.random(n) > 0.2) / n
    # most runs hold still over their last half, which a window of at most half the run sees
    moving = draw(st.one_of(st.integers(1, n_record // 2 + 1), st.integers(1, n_record)))
    records = np.tile(m0, (n_record, 1))
    records[1:moving] += rng.normal(0.0, 1e-3 / n, (moving - 1, n)) * (rng.random((moving - 1, n)) > 0.5)
    later = records[1:]
    kinds = rng.random(later.shape)
    later[kinds < 0.05] = 0.0
    later[(kinds >= 0.05) & (kinds < 0.1)] = -0.0
    later[(kinds >= 0.1) & (kinds < 0.15)] = -1e-14
    if draw(st.booleans()):
        np.abs(later, out=later)
    records[moving:] = records[moving - 1]
    if draw(st.integers(0, 9)) == 0:
        records[rng.integers(1, n_record), rng.integers(n)] = -1e-6
    window = draw(st.sampled_from([None, 0.5, (n_record - 1) / 4, (n_record - 1) / 2]))
    return kind, records, window


class TestStreamedAgainstRecorded:
    """A run reduces its records as they stream, in the integrator's
    blocks.  Given the same records, its columns, kept states, Lyapunov
    verdicts and limit classification must be, bit for bit, what the
    reductions of the whole record array (``oracles.Recorded``) make of
    them."""

    @settings(max_examples=80, deadline=None)
    @given(run=streamed_runs())
    def test_columns_states_and_verdicts(self, run):
        kind, records, window = run
        n_record, n = records.shape
        t_end = float(n_record - 1)
        if kind == "atoms":
            rng = np.random.default_rng(n_record * n)
            x = np.sort(rng.uniform(0.3, 6.0, n)) + np.arange(n) * 1e-6
            upper = np.triu(rng.exponential(size=(n, n)), 1) * (rng.random((n, n)) < 0.3)
            state = AtomSystemState.from_table(x, records[0], upper - upper.T)
            start = lambda: run_atoms(state, t_end, n_record=n_record, eta=0.3, stationarity_window=window)
            rec = oracles.Recorded.of_records(np.linspace(0.0, t_end, n_record), records, state)
        else:
            grid = Grid.log_spaced(0.5, 30.0, n)
            u0 = records[0] / grid.weights
            start = lambda: run_density(grid, u0, PP, TP, t_end=t_end, eta=0.3, dt=1.0, stationarity_window=window)
            state0 = AtomSystemState.from_table(grid.nodes, u0 * grid.weights, rate_matrix(PP, TP, grid.nodes)[0])
            records[0] = state0.masses  # the node masses w (m / w), as the run starts from them
            rec = oracles.Recorded.of_records(np.linspace(0.0, t_end, n_record), records, state0, grid)
        low = records.min(axis=1)
        below = np.flatnonzero(low < -1e-12 * max(float(records[0].sum()), 1.0))
        with oracles.replaying(records):
            if below.size:  # the first record below the floor, a unit of time per record
                k = below[0]
                with pytest.raises(StepCollapse, match=f"^negative node mass beyond integrator noise at t={float(k)}: {low[k]}$"):
                    start()
                return
            traj = start()
        assert np.array_equal(as_bits(traj.times), as_bits(rec.times))
        want = {"M0": rec.mass_series(), "X_eta": rec.exp_moment_series(0.3)}
        want.update({f"M{a:g}": rec.moment_series(a) for a in (1.0, 2.0, 3.0)})
        want.update({f"D_{a:g}": rec.dissipation_series(a) for a in (2.0, 3.0)})
        for name, column in want.items():
            assert np.array_equal(as_bits(getattr(traj, name)), as_bits(column)), name
        kept = [0, n_record - 1]
        if window is not None:
            kept.append(min(int(np.searchsorted(rec.times, rec.times[-1] - window)), n_record - 2))
        assert traj.records == tuple(sorted(set(kept)))
        assert np.array_equal(as_bits(traj.states), as_bits(rec.U[list(traj.records)]))

        rep = lyapunov_check(traj)
        monotone, balance, exp_monotone = oracles.lyapunov_verdicts(
            rec.times, {a: rec.moment_series(a) for a in (1.0, 2.0, 3.0)},
            {a: rec.dissipation_series(a) for a in (2.0, 3.0)}, rec.exp_moment_series(0.3))
        assert rep.monotone == monotone and rep.exp_moment_monotone == exp_monotone
        assert {a: as_bits(e).item() for a, e in rep.max_balance_error.items()} == \
            {a: as_bits(e).item() for a, e in balance.items()}

        if window is None:
            assert traj.limit is None
            return
        outcomes = []
        for classify in (lambda: classify_limit(traj, TP), lambda: oracles.classify_recorded(rec, TP, 1e-8, window)):
            try:
                outcomes.append(classify())
            except NotConverged as e:
                outcomes.append(str(e))
        assert outcomes[0] == outcomes[1]

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from([2, 3, 4, 511, 512, 513, 1025, 1538]),
        seed=st.integers(0, 2**32 - 1),
        flat=st.sampled_from(["none", "dissipation", "both"]),
    )
    def test_lyapunov_blocks_keep_the_whole_series_bits(self, n, seed, flat):
        # the Simpson balance and the monotone flags against the oracle's formula
        # on whole series; some steps unequal, some D zero
        rng = np.random.default_rng(seed)
        t = np.cumsum(rng.uniform(0.5, 1.5, n)) * rng.choice([1e-3, 1.0, 50.0])
        t[0] = 0.0
        cols = {name: np.cumsum(-rng.exponential(size=n)) + n for name in ("M1", "M2", "M3", "X_eta")}
        for name in ("M1", "M2"):
            cols[name][rng.random(n) < 0.05] += 1e-3  # a rise now and then
        for name in ("D_2", "D_3"):
            cols[name] = -rng.exponential(size=n) * (rng.random(n) > 0.1)
            if flat != "none":
                cols[name][:] = 0.0
        if flat == "both":
            cols["M2"][:] = cols["M2"][0]
        traj = types.SimpleNamespace(times=t, **cols)
        rep = lyapunov_check(traj)
        monotone, balance, exp_monotone = oracles.lyapunov_verdicts(
            t, {1.0: cols["M1"], 2.0: cols["M2"], 3.0: cols["M3"]}, {2.0: cols["D_2"], 3.0: cols["D_3"]},
            cols["X_eta"])
        assert rep.monotone == monotone and rep.exp_moment_monotone == exp_monotone
        assert {a: as_bits(e).item() for a, e in rep.max_balance_error.items()} == \
            {a: as_bits(e).item() for a, e in balance.items()}
