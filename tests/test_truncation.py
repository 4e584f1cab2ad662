"""Region geometry: band-constant solve, boundary curves, cutoff, rates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from comptonsim.kernel import PhysicalParams, diagonal_closed_form
from comptonsim.truncation import (
    NoRoot,
    TruncationParams,
    eval_cutoff,
    gamma1,
    gamma2,
    kernel_bound_constant,
    solve_rho,
)
from oracles import Region, eval_kernel, in_support, truncated_kernel, z_gap

PP = PhysicalParams()
TP = TruncationParams.solve(0.5, 1.0, 0.8)

PARAM_SETS = [(0.3, 1.0), (0.5, 1.0), (0.5, 0.1), (0.8, 5.0)]


def rho_closed_form(theta: float, delta_star: float) -> float:
    # eliminating the square root from the join condition gives
    # rho^2 delta = c^2 / (8 + 2 c) with c = 2 (1 - theta) / theta
    c = 2.0 * (1.0 - theta) / theta
    return math.sqrt(c * c / ((8.0 + 2.0 * c) * delta_star))


class TestSolveRho:
    @pytest.mark.parametrize("theta,delta", PARAM_SETS)
    def test_join_residual(self, theta, delta):
        rho = solve_rho(theta, delta)
        tp = TruncationParams(theta=theta, delta_star=delta, theta1=0.5 * (1 + theta),
                              rho_star=rho, rho1=solve_rho(0.5 * (1 + theta), delta))
        assert abs(gamma1(tp, delta * (1 - 1e-15)) - theta * delta) <= 1e-12 * delta

    @pytest.mark.parametrize("theta,delta", PARAM_SETS)
    def test_against_closed_form_oracle(self, theta, delta):
        assert solve_rho(theta, delta) == pytest.approx(rho_closed_form(theta, delta), rel=1e-13)

    def test_against_bisection_free_root_finder(self):
        for theta, delta in PARAM_SETS:
            def resid(rho):
                root = rho * delta**1.5 * math.sqrt(rho * rho * delta + 8.0)
                return 2.0 * delta * delta / (2.0 * delta + rho**2 * delta**2 + root) - theta * delta

            oracle = brentq(resid, 1e-9, 8.0 / math.sqrt(delta), xtol=1e-15)
            assert solve_rho(theta, delta) == pytest.approx(oracle, rel=1e-12)

    def test_wider_cone_needs_larger_constant(self):
        assert solve_rho(0.5, 1.0) > solve_rho(0.8, 1.0)

    def test_known_exact_values(self):
        # theta = 1/2: rho^2 delta = 1/3; theta = 4/5: rho^2 delta = 1/36
        assert solve_rho(0.5, 1.0) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-14)
        assert solve_rho(0.8, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_rho(1.5, 1.0)
        with pytest.raises(ValueError):
            solve_rho(0.5, -1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta_star", [1e154, 1e200, 1e300, math.inf, 5e-324])
    def test_overflowing_residual_is_refused(self, delta_star):
        # 1e300 returned rho_star == rho1 == 6.2e-211 after overflow warnings
        with pytest.raises(NoRoot, match="the band-constant residual overflows at delta_star="):
            TruncationParams.solve(0.5, delta_star, 0.8)

    @pytest.mark.parametrize("theta, delta_star, message", [
        (1e-300, 1.0, "no band constant for theta=1e-300"),
        (0.5, 1e-300, "residual not positive at rho=0"),
    ])
    def test_no_root_is_a_value_error(self, theta, delta_star, message):
        # NoRoot was a RuntimeError, so a config or an argument that met it ended in a traceback
        with pytest.raises(ValueError, match=message) as err:
            TruncationParams.solve(theta, delta_star, 0.8)
        assert isinstance(err.value, NoRoot)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta_star, rho_star, rho1", [
        (1e10, "0x1.8374055ef62dap-18", "0x1.bf647612f3691p-20"),
        (1e100, "0x1.147eefe21eb15p-167", "0x1.3f45187387ab9p-169"),
        (1e150, "0x1.0b690e5f7dc8fp-250", "0x1.34c7664b44c36p-252"),
    ])
    def test_large_finite_residual_keeps_its_bits(self, delta_star, rho_star, rho1):
        tp = TruncationParams.solve(0.5, delta_star, 0.8)
        assert (tp.rho_star, tp.rho1) == (float.fromhex(rho_star), float.fromhex(rho1))


class TestBoundaryCurves:
    def test_cone_branch(self):
        assert gamma1(TP, 2.0) == 1.0
        assert gamma2(TP, 2.0) == 4.0

    def test_origin(self):
        assert gamma1(TP, 0.0) == 0.0
        assert gamma2(TP, 0.0) == 0.0

    def test_cone_rays_invert(self):
        for x in (1.5, 3.0, 40.0):
            assert gamma2(TP, TP.theta * x) == pytest.approx(x, rel=1e-14)

    @pytest.mark.parametrize("theta,delta", PARAM_SETS)
    def test_continuity_at_joins(self, theta, delta):
        tp = TruncationParams.solve(theta, delta, 0.5 * (1 + theta))
        eps = 1e-13 * delta
        assert abs(gamma1(tp, delta - eps) - gamma1(tp, delta + eps)) <= 1e-10 * delta
        join2 = theta * delta
        assert abs(gamma2(tp, join2 - eps) - gamma2(tp, join2 + eps)) <= 1e-10 * delta

    def test_cone_envelope(self):
        rng = np.random.default_rng(21)
        x = rng.uniform(0.0, 50.0, 10_000)
        g1 = gamma1(TP, x)
        g2 = gamma2(TP, x)
        assert np.all(TP.theta * x <= g1 + 1e-15)
        assert np.all(g1 <= x) and np.all(x <= g2)
        assert np.all(g2 <= x / TP.theta + 1e-15)

    def test_gap_strictly_increasing_from_zero(self):
        x = np.linspace(0.0, 20.0, 2000)
        z = z_gap(TP, x)
        assert z[0] == 0.0
        assert np.all(np.diff(z) > 0.0)

    def test_band_boundary_stays_stable_through_denominator_zero(self):
        # theta = 0.3 forces rho^2 delta > 1; the curve must stay finite and
        # monotone across rho^2 x = 1
        tp = TruncationParams.solve(0.3, 1.0, 0.6)
        assert tp.rho_star**2 * tp.delta_star > 1.0
        x = np.linspace(1e-9, 1.0, 5000)
        g1 = gamma1(tp, x)
        assert np.all(np.isfinite(g1)) and np.all(np.diff(g1) > 0.0)


class TestRegions:
    def test_diagonal_inside_plateau(self):
        for tp in (TP, TruncationParams.solve(0.3, 2.0, 0.5)):
            assert in_support(tp, 1.0, 1.0) is Region.INSIDE_D1

    def test_cone_violation_outside(self):
        assert in_support(TP, 10.0, 4.0) is Region.OUTSIDE

    def test_boundary_is_transition(self):
        x = 2.0
        y = gamma1(TP, x)
        assert in_support(TP, x, y) is Region.TRANSITION
        assert eval_cutoff(TP, x, y) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            x, y = rng.uniform(0.0, 3.0, 2)
            assert in_support(TP, x, y) is in_support(TP, y, x)

    def test_nesting_matches_cutoff(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            x, y = rng.uniform(1e-3, 6.0, 2)
            region = in_support(TP, x, y)
            phi = eval_cutoff(TP, x, y)
            if region is Region.INSIDE_D1:
                assert phi == 1.0
            elif region is Region.OUTSIDE:
                assert phi == 0.0
            else:
                assert 0.0 <= phi <= 1.0


class TestCutoff:
    def test_plateau_and_support_examples(self):
        assert eval_cutoff(TP, 1.0, 1.0) == 1.0
        x = 3.0
        assert eval_cutoff(TP, x, 0.9 * gamma1(TP, x)) == 0.0

    def test_transition_interior_strictly_between(self):
        # midpoint of the transition band on a ray outside the box
        x = 3.0
        c = 0.5 * (TP.theta + TP.theta1)
        assert 0.0 < eval_cutoff(TP, x, c * x) < 1.0

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(33)
        for _ in range(300):
            x, y = rng.uniform(1e-4, 8.0, 2)
            assert eval_cutoff(TP, x, y) == eval_cutoff(TP, y, x)

    def test_sampled_continuity(self):
        rng = np.random.default_rng(34)
        h = 1e-9
        for _ in range(300):
            x, y = rng.uniform(0.05, 6.0, 2)
            base = eval_cutoff(TP, x, y)
            for dx, dy in ((h, 0.0), (0.0, h), (-h, 0.0), (0.0, -h)):
                assert abs(eval_cutoff(TP, x + dx, y + dy) - base) <= 1e-5

    def test_origin_undefined(self):
        with pytest.raises(ValueError):
            eval_cutoff(TP, 0.0, 0.0)

    def test_axes_outside_support(self):
        assert eval_cutoff(TP, 0.5, 0.0) == 0.0
        assert eval_cutoff(TP, 0.0, 3.0) == 0.0

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.3, 1.0, 2.0, 5.0])
        ys = np.array([0.31, 1.4, 0.8, 2.9])
        vec = eval_cutoff(TP, xs, ys)
        for i in range(xs.size):
            assert vec[i] == eval_cutoff(TP, float(xs[i]), float(ys[i]))


class TestTruncatedKernel:
    def test_outside_support_short_circuits(self):
        # an invalid tolerance would make the kernel evaluation raise, so
        # a zero return proves the kernel was never evaluated
        assert truncated_kernel(PP, TP, 10.0, 4.0, tol=math.nan) == 0.0

    def test_plateau_point_equals_kernel_over_xy(self):
        v = truncated_kernel(PP, TP, 1.0, 1.0)
        assert v == pytest.approx(diagonal_closed_form(PP, 1.0), rel=1e-12)

    def test_bound_with_calibrated_constant(self):
        xs = np.geomspace(0.02, 20.0, 50)
        pairs = [
            (float(x), float(y))
            for x in xs
            for y in xs
            if eval_cutoff(TP, float(x), float(y)) > 0.0
        ]
        table = [eval_kernel(PP, x, y).value for x, y in pairs]
        c_star = kernel_bound_constant([p[0] for p in pairs], [p[1] for p in pairs], table)
        # the bound must hold on fresh points with a small calibration slack
        rng = np.random.default_rng(35)
        for _ in range(300):
            x, y = rng.uniform(0.02, 20.0, 2)
            v = truncated_kernel(PP, TP, x, y)
            assert v * x * y * (x + y) * math.exp(-0.5 * (x + y)) <= c_star * (1.0 + 5e-3)

    def test_midpoint_chain(self):
        # B <= B(mid, mid) <= C e^{(x+y)/2}/(x+y) structure, no calibration
        rng = np.random.default_rng(36)
        for _ in range(50):
            x, y = rng.uniform(0.05, 8.0, 2)
            s = eval_kernel(PP, x, y)
            mid = diagonal_closed_form(PP, 0.5 * (x + y))
            assert s.value <= mid * (1.0 + 1e-9) + s.abs_error_estimate


class TestParams:
    def test_theta_ordering_enforced(self):
        with pytest.raises(ValueError):
            TruncationParams.solve(0.8, 1.0, 0.5)

    def test_inconsistent_rho_rejected(self):
        with pytest.raises(ValueError):
            TruncationParams(theta=0.5, delta_star=1.0, theta1=0.8, rho_star=0.3, rho1=0.1)

    def test_inner_band_constant_must_be_smaller(self):
        # the cutoff's band ramp divides by rho_star - rho1
        rho = solve_rho(0.5, 1.0)
        with pytest.raises(ValueError, match="need rho1 < rho_star"):
            TruncationParams(theta=0.5, delta_star=1.0, theta1=0.8, rho_star=rho, rho1=rho)

    def test_upper_branch_denominator_guard(self):
        tp = TruncationParams.solve(0.3, 1.0, 0.6)
        assert tp.rho_star**2 * tp.theta * tp.delta_star < 1.0

    def test_inner_region_is_smaller(self):
        assert TP.rho1 < TP.rho_star
