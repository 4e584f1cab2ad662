"""Regularized full equation: conservation, entropy structure, diagnostics."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from comptonsim import _dop853
from comptonsim import full_solver as full_solver_module
from comptonsim.full_solver import (
    RegularizedKernel,
    SolverConfig,
    StepCollapse,
    _pair_dissipation,
    collision_rhs,
    entropy_balance_check,
    exp_moment_rate,
    run_full,
    taper,
)
from comptonsim.harness import load_config
from comptonsim.kernel import PhysicalParams
from comptonsim.measure import Grid, planck_density, relative_drift
from comptonsim.truncation import TruncationParams
from oracles import growth_bound, moment, rk4_run, step

PP = PhysicalParams()
TP = TruncationParams.solve(0.5, 1.0, 0.8)


@pytest.fixture(scope="module")
def grid() -> Grid:
    return Grid.log_spaced(0.02, 22.0, 96)


@pytest.fixture(scope="module")
def kern(grid) -> RegularizedKernel:
    return RegularizedKernel.build(PP, TP, grid, n=20)


def bump_state(grid: Grid) -> np.ndarray:
    return planck_density(grid, 0.0) + 1.2 * np.exp(-3.0 * (grid.nodes - 3.0) ** 2)


class TestTaper:
    def test_plateau(self):
        assert taper(2, 1.0) == 1.0
        assert taper(5, 0.5) == 2.0

    def test_outside_window(self):
        assert taper(2, 4.0) == 0.0
        assert taper(2, 0.2) == 0.0

    def test_flank_value(self):
        v = taper(2, 2.5)
        assert 0.0 < v < 0.4

    def test_below_inverse_everywhere(self):
        x = np.linspace(1e-4, 4.0, 20_000)
        t = np.asarray(taper(2, x))
        assert np.all(t <= 1.0 / x + 1e-13)

    def test_continuity_at_edges(self):
        for edge in (1.0 / 3.0, 0.5, 2.0, 3.0):
            lo = taper(2, edge - 1e-12)
            hi = taper(2, edge + 1e-12)
            assert abs(lo - hi) <= 1e-9

    def test_index_validation(self):
        with pytest.raises(ValueError):
            taper(0, 1.0)


class TestRegularizedKernel:
    def test_symmetric_table(self, kern):
        assert np.array_equal(kern.table, kern.table.T)

    def test_zero_outside_energy_window(self, kern, grid):
        n = 20  # the fixture's regularization index
        outside = (grid.nodes < 1.0 / (n + 1)) | (grid.nodes > n + 1.0)
        assert np.all(kern.table[outside, :] == 0.0)

    def test_bounded_by_untapered_rate(self, kern, grid):
        from oracles import truncated_kernel

        rng = np.random.default_rng(51)
        idx = rng.integers(0, grid.n, size=(20, 2))
        for i, j in idx:
            x, y = float(grid.nodes[i]), float(grid.nodes[j])
            if kern.table[i, j] > 0.0:
                assert kern.table[i, j] <= truncated_kernel(PP, TP, x, y) * (1.0 + 1e-9)

    def test_bound_constant_positive(self, kern):
        assert kern.bound_constant > 0.0


class TestCollisionRhs:
    def test_zero_state(self, kern, grid):
        assert np.all(collision_rhs(np.zeros(grid.n), kern) == 0.0)

    def test_equilibrium_is_discrete_fixed_point(self, kern, grid):
        # pointwise detailed balance survives sampling: the rate is roundoff
        for mu in (0.0, -0.5, -2.0):
            g = planck_density(grid, mu)
            rate = collision_rhs(g, kern)
            dx = float(np.max(np.diff(grid.nodes)))
            mass = float(np.dot(grid.weights, g))
            assert np.max(np.abs(rate)) * dx <= 1e-3 * mass
            assert np.max(np.abs(rate)) <= 1e-10 * np.max(g)

    def test_mass_rate_cancels(self, kern, grid):
        rng = np.random.default_rng(52)
        for _ in range(5):
            u = rng.uniform(0.0, 2.0, grid.n)
            rate = collision_rhs(u, kern)
            total = abs(float(np.dot(grid.weights, rate)))
            scale = float(np.dot(grid.weights, np.abs(rate)))
            assert total <= 1e-14 * max(scale, 1e-300)


class TestStep:
    """The fixed-step RK4 oracle (``oracles.step``) that the full run is held to."""

    def test_zero_fixed_point(self, kern, grid):
        u, _ = step(np.zeros(grid.n), kern, dt=1e-3)
        assert np.all(u == 0.0)

    def test_mass_per_step(self, kern, grid):
        u = bump_state(grid)
        m0 = float(np.dot(grid.weights, u))
        u1, _ = step(u, kern, dt=1e-3)
        assert abs(float(np.dot(grid.weights, u1)) - m0) <= 1e-13 * m0

    def test_positivity_rejection_halves(self, kern, grid):
        u = bump_state(grid)
        _, used = step(u, kern, dt=50.0, dt_min=1e-6)
        assert used < 50.0

    def test_step_collapse(self, kern, grid):
        u = bump_state(grid)
        with pytest.raises(StepCollapse, match="negative density persists"):
            step(u, kern, dt=50.0, dt_min=40.0)

    def test_nan_state_reported_non_finite(self, kern, grid):
        u = bump_state(grid)
        u[grid.n // 3] = math.nan
        with pytest.raises(StepCollapse, match="non-finite density after a step of dt=0.001"):
            step(u, kern, dt=1e-3)

    def test_rk4_convergence_order(self, kern, grid):
        u0 = bump_state(grid)

        def advance(dt, t_final=0.1):
            u = u0.copy()
            for _ in range(round(t_final / dt)):
                u, _ = step(u, kern, dt)
            return u

        ref = advance(2.5e-3)
        mid = advance(5e-3)
        coarse = advance(1e-2)
        w = grid.weights
        e_coarse = float(np.dot(w, np.abs(coarse - mid)))
        e_mid = float(np.dot(w, np.abs(mid - ref)))
        assert e_coarse / e_mid >= 8.0

    def test_single_step_stays_near_equilibrium(self, kern, grid):
        g = planck_density(grid, -0.5)
        g1, _ = step(g, kern, dt=1e-3)
        assert float(np.dot(grid.weights, np.abs(g1 - g))) <= 1e-6


class TestCrossValidation:
    def test_rk4_trajectory_matches_independent_integrator(self, grid, kern):
        # the RK4 oracle's run and SciPy's DOP853 on the same semi-discrete
        # system; agreement is limited only by the two time discretizations
        from scipy.integrate import solve_ivp

        u0 = bump_state(grid)
        cfg = SolverConfig(t_end=0.5, dt_init=1e-3, record_every=100)
        traj = rk4_run(u0, kern, cfg)
        ref = solve_ivp(
            lambda t, u: collision_rhs(u, kern), (0.0, 0.5), u0, method="DOP853", rtol=1e-12, atol=1e-14
        )
        err = float(np.dot(grid.weights, np.abs(traj.final - ref.y[:, -1])))
        mass = float(np.dot(grid.weights, u0))
        assert err <= 1e-10 * mass


@pytest.fixture(scope="module")
def default_kernel():
    cfg = load_config(data={})
    return RegularizedKernel.build(cfg.physical, cfg.truncation, cfg.grid, cfg.regularization_index)


class TestAgainstRk4Oracle:
    """run_full (DOP853, dense output at the records) against the fixed-step
    RK4 run it replaced, at the records of the default config: the default
    Planck state, a bump relaxing to t = 10 and a scaled Planck state."""

    @pytest.mark.parametrize("data", [
        {},
        {"initial": {"preset": "bump"}, "solver": {"t_end": 10.0}},
        {"initial": {"preset": "scaled_planck"}},
    ], ids=["planck_mu", "bump", "scaled_planck"])
    def test_every_column_agrees(self, default_kernel, data):
        cfg = load_config(data=data, equation="full")
        u0 = cfg.initial_measure().density
        traj = run_full(u0, default_kernel, cfg.solver)
        ref = rk4_run(u0, default_kernel, cfg.solver)
        mass = float(ref.M0[0])
        for name in ("times", "M0", "X_eta", "H", "entropy_dissipation", "origin_mass_series"):
            got, want = getattr(traj, name), getattr(ref, name)
            assert got.shape == want.shape, name
            # relative to the column's scale, at least the mass: the
            # dissipation of a Planck state is roundoff (about 1e-32)
            scale = max(float(np.max(np.abs(want))), mass)
            assert float(np.max(np.abs(got - want))) <= 1e-9 * scale, name
        assert 0 < traj.nfev < 1000


class TestDissipation:
    """The dissipation D = _pair_dissipation / 2 that run_full records."""

    def test_equilibrium_vanishes(self, kern, grid):
        d = 0.5 * _pair_dissipation(kern, planck_density(grid, -0.5))[0]
        assert d >= 0.0
        assert d <= 1e-6

    def test_nonnegative_on_random_states(self, kern, grid):
        rng = np.random.default_rng(53)
        for _ in range(5):
            assert _pair_dissipation(kern, rng.uniform(0.0, 1.0, grid.n))[0] >= 0.0

    def test_flags_counted_not_poisoning(self, kern, grid):
        dens = planck_density(grid, -1.0)
        dens[grid.n // 2] = 0.0  # a hole makes one bracket argument vanish
        d, flags = _pair_dissipation(kern, dens)
        assert flags > 0
        assert math.isfinite(d)


class TestBalance:
    def test_stationary_balance_trivial(self, kern, grid):
        u0 = planck_density(grid, -1.0)
        cfg = SolverConfig(t_end=0.05, dt_init=1e-3)
        traj = run_full(u0, kern, cfg)
        rep = entropy_balance_check(traj)
        assert abs(rep.entropy_change) <= 1e-10
        assert abs(rep.integrated_dissipation) <= 1e-10
        assert rep.residual <= rep.tolerance and rep.entropy_monotone and rep.dissipation_nonnegative

    def test_bump_balance(self, kern, grid):
        u0 = bump_state(grid)
        cfg = SolverConfig(t_end=0.3, dt_init=1e-3)
        traj = run_full(u0, kern, cfg)
        rep = entropy_balance_check(traj)
        assert rep.dissipation_nonnegative
        assert rep.entropy_monotone  # entropy grows toward the constrained maximum
        assert rep.residual <= rep.tolerance
        assert rep.entropy_change > 0.0


class TestOriginMass:
    """The mass on the origin window [0, 2 x_min) that a run records."""

    def test_no_mass_below_window(self, kern, grid):
        # the taper (support from 1/21) vanishes on the window's nodes, so they exchange nothing
        dens = np.where(grid.nodes > 1.0, planck_density(grid, 0.0), 0.0)
        traj = run_full(dens, kern, SolverConfig(t_end=0.1, record_every=10))
        assert len(traj.times) == 11 and np.all(traj.origin_mass_series == 0.0)


class TestRunFull:
    def test_zero_initial_state(self, kern, grid):
        u0 = np.zeros(grid.n)
        cfg = SolverConfig(t_end=0.01, record_every=5)
        traj = run_full(u0, kern, cfg)
        assert np.all(traj.final == 0.0)
        bound = growth_bound(traj, exp_moment_rate(TP, kern.bound_constant, cfg.eta))
        assert np.all(traj.M0 == 0.0) and np.all(traj.X_eta == 0.0) and np.all(bound == 0.0)

    def test_positive_atoms_rejected(self, kern, grid):
        # the run takes a density on the kernel grid: atoms (locations, masses) are refused
        with pytest.raises(ValueError):
            run_full((np.array([1.0]), np.array([0.1])), kern, SolverConfig(t_end=0.01))

    def test_origin_atom_rejected(self, kern, grid):
        # the taper vanishes at zero energy: an origin atom never moves, so the run takes none
        with pytest.raises(ValueError, match="^the density must be on the kernel grid$"):
            run_full((np.array([0.0]), np.array([0.2])), kern, SolverConfig(t_end=0.01))

    def test_overflowing_exp_rate_rejected_before_integrating(self, kern, grid, monkeypatch):
        def never(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(_dop853, "dop853", never)
        u0 = planck_density(grid, -1.0)
        with pytest.raises(OverflowError, match="^exp moment overflows: eta \\* max support = 40 \\* 22 = 880 > 700$"):
            run_full(u0, kern, SolverConfig(t_end=0.01, eta=40.0))

    def test_growth_bound_and_mass(self, kern, grid):
        u0 = bump_state(grid)
        cfg = SolverConfig(t_end=0.5, dt_init=1e-3, record_every=10, eta=0.3)
        traj = run_full(u0, kern, cfg)
        assert relative_drift(traj.M0) <= 1e-12
        bound = growth_bound(traj, exp_moment_rate(TP, kern.bound_constant, cfg.eta))
        assert np.all(traj.X_eta <= (1.0 + 1e-6) * bound)

    def test_every_step_asks_for_dt_init(self, kern, grid):
        # the records lie on the dt_init grid: k dt_init, and t_end last
        u0 = bump_state(grid)
        cfg = SolverConfig(t_end=0.1, dt_init=1e-3)
        traj = run_full(u0, kern, cfg)
        assert len(traj.times) == 101
        assert traj.times.tolist() == [k * 1e-3 for k in range(100)] + [0.1]
        cfg = SolverConfig(t_end=0.0105, dt_init=1e-3, record_every=4)
        assert run_full(u0, kern, cfg).times.tolist() == [0.0, 4e-3, 8e-3, 0.0105]

    def test_mass_drift_trajectory_fills_the_last_partial_block(self, kern, grid):
        records = 3 * full_solver_module._BLOCK_ROWS + 2
        u0 = bump_state(grid)
        cfg = SolverConfig(t_end=(records - 1) * 2.0**-10, dt_init=2.0**-10, mass_tolerance=1e-18)
        traj = run_full(u0, kern, cfg)  # a finished run returns its record whatever its drift
        assert relative_drift(traj.M0) > cfg.mass_tolerance
        skip = ("final", "nfev", "one_sided_pairs", "steps", "rejected")  # not per-record columns
        columns = [f.name for f in dataclasses.fields(traj) if f.name not in skip]
        assert [len(getattr(traj, name)) for name in columns] == [records] * len(columns)
        passing = run_full(u0, kern, dataclasses.replace(cfg, mass_tolerance=1.0))
        for name in columns:
            assert getattr(traj, name).tolist() == getattr(passing, name).tolist(), name
        assert np.array_equal(traj.final, passing.final)

    @pytest.mark.parametrize("nan_step", [3, full_solver_module._BLOCK_ROWS, 21])
    def test_nan_state_raises_before_its_diagnostics(self, kern, grid, monkeypatch, nan_step):
        # dense-output passes of 2 record-holding steps (2 + 12 calls for the
        # first step, 12 for each further one, 6 per pass): the NaN comes in
        # the second step at nan_step 3, after the first pass at 4 and after
        # eight passes at 21.  Only full record blocks of 8192 // 96 = 85
        # states reach the diagnostics, none after the NaN: the first pass
        # leaves 25 records in the first block, and eight passes fill four
        monkeypatch.setattr(_dop853, "_DENSE_CHUNK", 2)
        calls = []
        real_rhs = full_solver_module.collision_rhs

        def rhs(u, kern):
            calls.append(1)
            rate = real_rhs(u, kern)
            return rate * math.nan if len(calls) > 12 * (nan_step - 1) else rate

        seen = []
        real_entropy = full_solver_module._entropy_integrand
        real_pairs = full_solver_module._pair_dissipation
        monkeypatch.setattr(full_solver_module, "collision_rhs", rhs)
        monkeypatch.setattr(
            full_solver_module, "_entropy_integrand", lambda x, rows: seen.append(rows.copy()) or real_entropy(x, rows)
        )
        monkeypatch.setattr(
            full_solver_module, "_pair_dissipation", lambda k, rows: seen.append(rows.copy()) or real_pairs(k, rows)
        )
        u0 = bump_state(grid)
        with pytest.raises(StepCollapse, match=r"^non-finite density rate at t=\d"):
            run_full(u0, kern, SolverConfig(t_end=10.0, dt_init=1e-2))  # 392 evaluations unpatched
        assert all(np.all(np.isfinite(rows)) for rows in seen)
        # each record once to the entropy and once to a dissipation pass
        assert sum(len(rows) for rows in seen) == 2 * {3: 0, 4: 0, 21: 4 * 85}[nan_step]

    def test_undershoot_is_clipped_within_noise_and_raises_beyond(self, kern, grid, monkeypatch):
        u0 = bump_state(grid)
        floor = 1e-12 * max(float(np.dot(grid.weights, u0)), 1.0)
        node = grid.n // 2
        real = _dop853.dop853

        def undershoot(by):
            def fake(fun, t0, t1, y0, t_eval, rtol, atol, emit):
                def dip(t, rows):
                    rows[-1, node] = -by / grid.weights[node]  # node mass -by
                    emit(t, rows)

                return real(fun, t0, t1, y0, t_eval, rtol, atol, dip)

            return fake

        monkeypatch.setattr(_dop853, "dop853", undershoot(0.5 * floor))
        traj = run_full(u0, kern, SolverConfig(t_end=0.01))
        assert traj.final[node] == 0.0 and np.all(traj.final >= 0.0)
        monkeypatch.setattr(_dop853, "dop853", undershoot(2.0 * floor))
        with pytest.raises(StepCollapse, match=r"^negative node mass beyond integrator noise at t=0.01: -"):
            run_full(u0, kern, SolverConfig(t_end=0.01))

    def test_step_size_collapse_is_named(self, kern, grid, monkeypatch):
        def collapse(*args):
            raise _dop853.StepSizeTooSmall("Required step size is less than spacing between numbers.")

        monkeypatch.setattr(_dop853, "dop853", collapse)
        u0 = bump_state(grid)
        with pytest.raises(StepCollapse) as err:
            run_full(u0, kern, SolverConfig(t_end=0.01))
        assert str(err.value) == "integration failed: Required step size is less than spacing between numbers."

    def test_truncated_planck_undershoot_is_clipped(self, kern, grid):
        # DOP853 undershoots zero by about 1e-25 next to the support's edge
        u0 = np.where(grid.nodes >= 1.0, planck_density(grid, 0.0), 0.0)
        traj = run_full(u0, kern, SolverConfig(t_end=1.0, record_every=100))
        assert np.all(traj.final >= 0.0)
        assert relative_drift(traj.M0) <= 1e-12

    def test_mass_columns_are_the_final_density_masses(self, kern, grid):
        u0 = planck_density(grid, -1.0)
        cfg = SolverConfig(t_end=0.02, record_every=5)
        traj = run_full(u0, kern, cfg)
        assert traj.M0[-1] == moment((grid, traj.final), 0.0) == float(np.dot(grid.weights, traj.final))
        window = grid.nodes < 2.0 * grid.nodes[0]
        assert traj.origin_mass_series[-1] == float(np.dot(grid.weights[window], traj.final[window])) > 0.0

    def test_growth_bound_is_inf_past_overflow(self):
        c_eta = 11.73
        for t in (0.0, 1.0, 60.0, 709.7 / c_eta):
            assert full_solver_module._growth_bound(c_eta, t, 2.5) == math.exp(c_eta * t) * 2.5
        assert full_solver_module._growth_bound(c_eta, 709.8 / c_eta, 2.5) == math.inf
        assert full_solver_module._growth_bound(c_eta, 709.8 / c_eta, 0.0) == 0.0

    @pytest.mark.parametrize("t_end", [0.0, -1.0, math.inf, math.nan])
    def test_t_end_must_be_positive_and_finite(self, t_end):
        with pytest.raises(ValueError, match="t_end: must be positive and finite"):
            SolverConfig(t_end=t_end)

    def test_eta_window_enforced(self, kern):
        with pytest.raises(ValueError):
            exp_moment_rate(TP, 1.0, 0.6)
        with pytest.raises(ValueError):
            exp_moment_rate(TP, 1.0, 0.25)

    def test_rate_constant_value(self):
        # C_eta = C* (1-theta) eta / (2 theta^2 (1+theta) (1/2 - eta))
        c = exp_moment_rate(TP, 2.0, 0.3)
        expect = 2.0 / (2 * 0.25) * (0.5 / 1.5) * (0.3 / 0.2)
        assert c == pytest.approx(expect, rel=1e-14)
