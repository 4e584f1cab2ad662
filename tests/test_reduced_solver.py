"""Reduced quadratic dynamics: atoms, flat densities, Lyapunov structure."""

from __future__ import annotations

import contextlib
import dataclasses
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from comptonsim import reduced_solver
from comptonsim._dop853 import StepSizeTooSmall
from comptonsim.harness import EXAMPLE51, build_initial
from comptonsim.kernel import PhysicalParams
from comptonsim.measure import Grid, HybridMeasure, components, planck_density, relative_drift
from comptonsim.reduced_solver import (
    AtomStepCollapse,
    AtomSystemState,
    AtomTrajectory,
    FlatnessViolation,
    NegativeAtomMass,
    NonContraction,
    NotConverged,
    PicardTrajectory,
    _dissipation,
    _quantiles,
    _table_components,
    atom_ode_rhs,
    classify_limit,
    flatness_certificate,
    lyapunov_check,
    rate_matrix,
    run_atoms,
    run_density,
)
from comptonsim.truncation import TruncationParams, eval_cutoff, gamma2
import oracles
from oracles import eval_kernel

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
    masses = np.array([before, after, after])
    return AtomTrajectory(state0=state, times=np.array([0.0, 1.0, 2.0]), masses=masses, nfev=0)


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
                AtomSystemState(locations=[1.0, 2.0], masses=[0.5, 0.5], rate_matrix=np.array(table))
        state = AtomSystemState.from_table(EXAMPLE51["locations"], EXAMPLE51["masses"], EXAMPLE51["table"])
        assert np.array_equal(state.rate_matrix, -state.rate_matrix.T)

    def test_rate_matrix_is_a_read_only_copy_in_a_frozen_state(self):
        # the atom RHS reads slots built from the matrix once, so neither an
        # in-place write nor a new matrix may reach a constructed state
        table = np.array(EXAMPLE51["table"], dtype=float)
        state = AtomSystemState.from_table(EXAMPLE51["locations"], EXAMPLE51["masses"], table)
        with pytest.raises(ValueError, match="read-only"):
            state.rate_matrix[0, 1] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.rate_matrix = np.zeros_like(table)
        table[0, 1] = 99.0  # the caller's table stays its own
        assert np.array_equal(state.rate_matrix, np.array(EXAMPLE51["table"], dtype=float))

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
        traj = run_atoms(chain_state(), 200.0, n_record=2001)
        final = traj.final_masses()
        assert final[1] <= 1e-16
        assert final[2] >= 0.2 * math.exp(-1.0) - 1e-9
        ms = traj.mass_series()
        assert np.max(np.abs(ms - ms[0])) <= 1e-12 * ms[0]

    def test_decay_bound_along_the_way(self):
        # the middle mass obeys y(t) <= y0 e^{C t} with C = -0.2
        traj = run_atoms(chain_state(), 50.0, n_record=501)
        bound = 0.2 * np.exp(-0.2 * traj.times)
        assert np.all(traj.masses[:, 1] <= bound * (1.0 + 1e-9))

    def test_masses_stay_in_range(self):
        traj = run_atoms(chain_state(), 100.0, n_record=301)
        assert np.all(traj.masses >= 0.0)
        assert np.all(traj.masses <= 1.0 + 1e-12)

    def test_stationary_when_decoupled(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0, 9.0], [0.4, 0.6])
        traj = run_atoms(st, 10.0, n_record=51)
        assert np.allclose(traj.masses, traj.masses[0], atol=0.0)

    @settings(max_examples=10, deadline=None)
    @given(blocks=decoupled_blocks())
    def test_block_masses_invariant(self, blocks):
        locs, masses = blocks
        state = AtomSystemState.from_physical(PP, TP, locs, masses)
        parts = components(HybridMeasure(atoms=list(zip(locs, masses))), TP)
        assert len(parts) >= 2
        traj = run_atoms(state, 20.0, n_record=41)
        assert np.max(np.abs(traj.final_masses() - masses)) > 1e-6  # mass moves inside blocks
        total = float(masses.sum())
        for comp in parts:
            inside = np.isin(locs, comp.points)
            series = [math.fsum(row) for row in traj.masses[:, inside]]
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
            run_atoms(chain_state(), t_end, n_record=n_record)

    def test_state_without_atoms_is_refused(self):
        # numpy's own "zero-size array to reduction operation minimum"
        # error came after the integration
        empty = AtomSystemState(locations=np.zeros(0), masses=np.zeros(0), rate_matrix=np.zeros((0, 0)))
        with time_limit(5.0), pytest.raises(ValueError, match="^the atom system has no atoms to integrate$"):
            run_atoms(empty, 1.0, n_record=3)

    def test_leftmost_mass_nondecreasing(self):
        traj = run_atoms(chain_state(), 100.0, n_record=1001)
        assert np.all(np.diff(traj.masses[:, 0]) >= -1e-15)

    def test_step_collapse_is_named(self, monkeypatch):
        def collapse(*args):
            raise StepSizeTooSmall("Required step size is less than spacing between numbers.")

        monkeypatch.setattr(reduced_solver, "dop853", collapse)
        with pytest.raises(AtomStepCollapse) as err:
            run_atoms(chain_state(), 1.0, n_record=3)
        assert isinstance(err.value, RuntimeError)
        assert str(err.value) == "atom integration failed: Required step size is less than spacing between numbers."

    def test_negative_mass_is_named(self, monkeypatch):
        def undershoot(rhs, t0, t1, m0, t_eval, rtol, atol, emit):
            masses = np.tile(m0, (t_eval.size, 1))
            masses[-1, 0] = -1e-6
            emit(t_eval, masses)
            return 0

        monkeypatch.setattr(reduced_solver, "dop853", undershoot)
        with pytest.raises(NegativeAtomMass) as err:
            run_atoms(chain_state(), 1.0, n_record=3)
        assert isinstance(err.value, RuntimeError)
        assert str(err.value) == "mass positivity violated beyond integrator noise: -1e-06"


def one_state_dissipation(st: AtomSystemState, alpha: float) -> float:
    """``_dissipation`` of the state's masses, passed as a one-row stack."""
    (d,) = _dissipation(st.rate_matrix, st.locations, st.masses[None, :], alpha)
    return d


class TestDissipation:
    """The moment dissipation ``_dissipation`` of one atom state, as the
    trajectories' ``dissipation_series`` computes it per record."""

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
        traj = run_atoms(chain_state(), 200.0, n_record=20001)
        rep = lyapunov_check(traj, eta=0.25)
        assert all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok
        assert all(err <= 1e-4 for err in rep.max_balance_error.values())

    def test_m2_strictly_decreasing_then_flat(self):
        traj = run_atoms(chain_state(), 200.0, n_record=2001)
        m2 = traj.moment_series(2.0)
        early = traj.times < 20.0
        assert np.all(np.diff(m2[early]) < 0.0)
        late = traj.times > 150.0
        assert np.max(np.abs(np.diff(m2[late]))) <= 1e-12

    def test_stationary_for_decoupled(self):
        st = AtomSystemState.from_physical(PP, TP, [1.0, 9.0], [0.4, 0.6])
        traj = run_atoms(st, 5.0, n_record=101)
        rep = lyapunov_check(traj, eta=0.25)
        assert all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok
        assert np.all(traj.dissipation_series(2.0) == 0.0)
        assert np.all(traj.moment_series(2.0) == traj.moment_series(2.0)[0])


@pytest.fixture(scope="module")
def flat_setup():
    grid = Grid.log_spaced(0.5, 30.0, 96)
    u0 = HybridMeasure(atoms=[], grid=grid, density=planck_density(grid, 0.0))
    return grid, u0


class TestPicard:
    def test_zero_initial_data(self):
        grid = Grid.log_spaced(0.5, 10.0, 32)
        u0 = HybridMeasure(atoms=[], grid=grid, density=np.zeros(32))
        traj = run_density(u0, PP, TP, t_end=0.2, eta=0.3, dt=1e-2)
        assert np.all(traj.states == 0.0)

    def test_mass_conservation(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(u0, PP, TP, t_end=5.0, dt=1e-3, eta=0.3)
        ms = traj.mass_series()
        assert np.max(np.abs(ms - ms[0])) <= 1e-10 * ms[0]

    def test_pointwise_envelope(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(u0, PP, TP, t_end=1.0, dt=1e-3, eta=0.3)
        env = traj.pointwise_envelope(len(traj.times) - 1, u0.density)
        assert np.all(traj.states[-1] <= env * (1.0 + 1e-9))

    def test_support_constant_in_time(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(u0, PP, TP, t_end=0.5, dt=2e-3, eta=0.3)
        mask0 = u0.density > 0.0
        for k in range(0, len(traj.times), 50):
            assert np.array_equal(traj.states[k] > 0.0, mask0)

    def test_moments_nonincreasing(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(u0, PP, TP, t_end=1.0, dt=1e-3, eta=0.3)
        rep = lyapunov_check(traj, eta=0.3)
        assert all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok

    def test_flatness_violation_raised(self):
        grid = Grid.log_spaced(1e-3, 10.0, 64)
        dens = planck_density(grid, 0.0)  # mass all the way to the origin
        with pytest.raises(FlatnessViolation):
            run_density(HybridMeasure(atoms=[], grid=grid, density=dens), PP, TP, t_end=0.1, eta=0.3)

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
            oracles.picard_solve(HybridMeasure(atoms=[], grid=grid, density=dens), PP, TP, t_end=1.0, eta=0.3, dt=0.05)

    def test_fixed_point_matches_independent_integrator(self, flat_setup):
        # the node system integrated as atoms must agree with direct adaptive
        # integration of the same semi-discrete system in density form
        from scipy.integrate import solve_ivp

        grid, u0 = flat_setup
        R, _ = rate_matrix(PP, TP, grid.nodes)
        traj = run_density(u0, PP, TP, t_end=1.0, dt=1e-3, eta=0.3)
        assert np.array_equal(traj.rate_grid, R)
        paired = R * grid.weights[None, :]
        ref = solve_ivp(
            lambda t, u: u * (paired @ u), (0.0, 1.0), u0.density, method="DOP853", rtol=1e-13, atol=1e-16
        )
        err = float(np.dot(grid.weights, np.abs(traj.states[-1] - ref.y[:, -1])))
        assert err <= 1e-11 * float(np.dot(grid.weights, u0.density))

    def test_flatness_propagates(self, flat_setup):
        grid, u0 = flat_setup
        traj = run_density(u0, PP, TP, t_end=1.0, dt=2e-3, eta=0.3)
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
            run_density(u0, PP, TP, **{"t_end": 0.1, "eta": 0.3, **control})

    def test_atoms_rejected(self):
        grid = Grid.log_spaced(0.5, 10.0, 16)
        u0 = HybridMeasure(atoms=[(1.0, 0.5)], grid=grid, density=np.ones(16))
        with pytest.raises(ValueError):
            run_density(u0, PP, TP, t_end=0.1, eta=0.3)


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
        u0 = build_initial(initial, Grid.log_spaced(*grid_args))
        traj = run_density(u0, PP, TP, t_end=t_end, eta=0.3, dt=1e-3)
        ref = oracles.picard_solve(u0, PP, TP, t_end=t_end, eta=0.3, dt=1e-3)
        assert traj.states.shape == ref.states.shape
        np.testing.assert_allclose(traj.times, ref.times, rtol=0.0, atol=1e-15 * t_end)
        carried = ref.states > 0.0
        assert np.array_equal(traj.states > 0.0, carried)
        assert np.max(np.abs(traj.states[carried] - ref.states[carried]) / ref.states[carried]) <= 1e-10

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
        u0 = HybridMeasure(atoms=[], grid=grid, density=10.0**log_scale * u0.density)
        traj = run_density(u0, PP, TP, t_end=t_end, eta=0.3)
        assert relative_drift(traj.mass_series()) <= 1e-10
        assert np.array_equal(traj.states > 0.0, np.broadcast_to(u0.density > 0.0, traj.states.shape))
        for k in range(len(traj.times)):
            assert np.all(traj.states[k] <= traj.pointwise_envelope(k, u0.density) * (1.0 + 1e-9))
        rep = lyapunov_check(traj, eta=0.3)
        assert all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok


class TestClassifyLimit:
    def test_chain_limit(self):
        traj = run_atoms(chain_state(), 200.0, n_record=2001)
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
        traj = run_atoms(st, 5.0, n_record=101)
        cls = classify_limit(traj, TP, stationarity_window=1.0)
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
        traj = AtomTrajectory(state0=state, times=np.array([0.0, 1.0, 2.0]),
                              masses=np.stack([base, base + delta, base]), nfev=0)
        with pytest.raises(NotConverged, match="stationarity gap 5.23"):
            classify_limit(traj, TP)

    @pytest.mark.parametrize("rate, decoupled", [(0.0, True), (1e-3, False)])
    def test_coupling_read_off_the_rate_matrix(self, rate, decoupled):
        # 1.0 and 9.0 are decoupled by the cutoff; only the table can couple them
        state = AtomSystemState.from_table([1.0, 9.0], [0.4, 0.6], [[0.0, rate], [-rate, 0.0]])
        traj = AtomTrajectory(state0=state, times=np.array([0.0, 1.0, 2.0]), masses=np.tile(state.masses, (3, 1)), nfev=0)
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
        parts = _table_components(HybridMeasure(atoms=list(zip(state.locations, state.masses))), state)
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
        traj = PicardTrajectory(grid=grid, times=np.array([0.0, 1.0, 2.0]), states=np.array([before, after, after]),
                                rate_grid=np.zeros((4, 4)), growth_constant=0.0, nfev=0)
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
        u = HybridMeasure(atoms=list(zip(locs, masses)))
        assert _table_components(u, state) == components(u, TP)

    def test_not_converged_raised(self):
        traj = run_atoms(chain_state(), 3.0, n_record=301)
        with pytest.raises(NotConverged):
            classify_limit(traj, TP, stationarity_window=1.0, limit_tol=1e-10)

    def test_queue_monotone_series(self):
        traj = run_atoms(chain_state(), 50.0, n_record=501)
        for r in (0.5, 1.2, 2.0, 3.0):
            series = traj.window_mass_series(r)
            assert np.all(np.diff(series) <= 1e-14)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["atoms", "picard"]),
        seed=st.integers(0, 2**32 - 1),
        lo=st.floats(0.0, 12.0),
        hi=st.one_of(st.just(math.inf), st.floats(0.0, 12.0)),  # hi < lo is an empty window
    )
    def test_window_mass_series_is_the_per_record_sum(self, kind, seed, lo, hi):
        rng = np.random.default_rng(seed)
        rows = rng.uniform(0.0, 1.0, (7, 12)) * (rng.random((7, 12)) > 0.3)  # some carriers empty
        if kind == "atoms":
            x = np.sort(rng.uniform(0.3, 11.0, 12))
            state = AtomSystemState.from_table(x, rows[0], np.zeros((12, 12)))
            traj = AtomTrajectory(state0=state, times=np.arange(7.0), masses=rows, nfev=0)
            carriers = rows
        else:
            grid = Grid.log_spaced(0.3, 11.0, 12)
            x = grid.nodes
            traj = PicardTrajectory(grid=grid, times=np.arange(7.0), states=rows, rate_grid=np.zeros((12, 12)),
                                    growth_constant=0.0, nfev=0)
            carriers = rows * grid.weights
        got = traj.window_mass_series(lo, hi)
        want = [math.fsum(m for xi, m in zip(x, row) if lo <= xi <= hi) for row in carriers]
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        # no carrier sits between two neighbours: the window between them is empty
        mid = 0.5 * (x[4] + x[5])
        assert np.array_equal(traj.window_mass_series(mid, mid), np.zeros(7))
        # the default hi = inf selects the carriers a tail threshold selects, so the bits are
        # the row sums of their C-ordered copy (a boolean column index copies in column order)
        tail = np.ascontiguousarray((carriers if kind == "atoms" else rows * grid.weights)[:, x >= lo]).sum(axis=1)
        assert np.array_equal(traj.window_mass_series(lo), tail)

    def test_classification_builds_no_measure_per_record(self, monkeypatch):
        # the block-conservation check once rebuilt a measure at every 64th record
        calls = []
        state_at = AtomTrajectory.state_at
        monkeypatch.setattr(AtomTrajectory, "state_at", lambda traj, idx: calls.append(idx) or state_at(traj, idx))
        traj = run_atoms(chain_state(), 200.0, n_record=20001)
        assert classify_limit(traj, TP).passed
        assert len(calls) <= 4

    def test_verdict_judges_block_conservation_and_tail_monotonicity(self):
        # at record 5 alone, 1e-6 moves from the atom at 5.0 to the one at 6.0:
        # a sample of every 31st record missed it, and the tail rise was not judged
        state = AtomSystemState.from_table([1.0, 1.2, 5.0, 6.0], [0.3, 0.2, 0.25, 0.25], np.zeros((4, 4)))
        masses = np.tile(state.masses, (2001, 1))
        masses[5, 2:] += (-1e-6, 1e-6)
        traj = AtomTrajectory(state0=state, times=np.linspace(0.0, 100.0, 2001), masses=masses, nfev=0)
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
            traj = run_atoms(st, 5e4, n_record=2001)
            cls = classify_limit(traj, TP, stationarity_window=50.0)
            assert cls.passed
            assert cls.mass_sums_ok and cls.component_conservation_ok
