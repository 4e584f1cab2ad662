"""Kernel evaluation against independent quadrature, bounds, and scalings."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from comptonsim import harness
from comptonsim import kernel as kernel_module
from comptonsim.kernel import (
    NonConvergence,
    PhysicalParams,
    diagonal_closed_form,
    eval_kernel_batch,
    eval_majorant,
    peak_bound,
    verify_antidiagonal_monotonicity,
)
import oracles
from oracles import (
    ConcentrationRow,
    KernelSample,
    concentration_limit,
    diagonal_concentration_check,
    diagonal_profile,
    eval_kernel,
    scale_from_dimensionless,
    scale_measure,
    scale_to_dimensionless,
)

PP = PhysicalParams(beta=1.0, m=1.0)


def oracle_quad(pp: PhysicalParams, x: float, y: float) -> float:
    """Independent adaptive quadrature (Gauss-Kronrod via QUADPACK)."""
    d2 = (x - y) ** 2

    def f(s):
        r2 = d2 + 2.0 * x * y * s * s
        t = 1.0 - s * s
        expo = -pp.beta * (pp.m * d2 + r2 * r2 / (4.0 * pp.m * pp.beta**2)) / (2.0 * r2)
        return (1.0 + t * t) / math.sqrt(r2) * math.exp(expo) * 2.0 * s

    val, _ = quad(f, 0.0, math.sqrt(2.0), epsabs=1e-14, epsrel=1e-13, limit=200)
    return math.sqrt(pp.beta) * math.exp(0.5 * (x + y)) * val


class TestEvalKernel:
    def test_matches_independent_quadrature(self):
        for x, y in [(1.0, 1.0), (0.1, 0.1), (2.0, 3.0), (0.3, 0.5), (5.0, 7.0)]:
            s = eval_kernel(PP, x, y, tol=1e-10, force_quadrature=True)
            assert s.value == pytest.approx(oracle_quad(PP, x, y), rel=1e-9)
            assert s.abs_error_estimate <= 1e-10 * s.value

    def test_frozen_values(self):
        # frozen from the QUADPACK oracle
        assert eval_kernel(PP, 1.0, 1.0).value == pytest.approx(6.9472542325318924, rel=1e-12)
        assert eval_kernel(PP, 2.0, 3.0).value == pytest.approx(3.9408110988626524, rel=1e-9)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x, y = rng.uniform(0.05, 10.0, 2)
            assert eval_kernel(PP, x, y).value == eval_kernel(PP, y, x).value

    def test_diagonal_fast_path_consistent(self):
        x = 1.7
        near = eval_kernel(PP, x, x * (1.0 + 1e-9))
        assert near.value == pytest.approx(diagonal_closed_form(PP, x), rel=1e-7)

    def test_beta_decay_off_diagonal(self):
        values = [eval_kernel(PhysicalParams(beta=b, m=1.0), 1.0, 2.0).value for b in (1e2, 1e3, 1e4)]
        assert values[0] > values[1] > values[2] >= 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            eval_kernel(PP, -1.0, 1.0)
        with pytest.raises(ValueError):
            eval_kernel(PP, 1.0, 2.0, tol=1e-2)

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "_MAX_PANELS", 3)
        with pytest.raises(NonConvergence):
            eval_kernel(PhysicalParams(beta=1e4, m=1.0), 1.0, 2.0, tol=1e-10)

    def test_sample_fields(self):
        s = eval_kernel(PP, 2.0, 3.0)
        assert isinstance(s, KernelSample)
        assert s.x == 2.0 and s.y == 3.0 and s.value > 0.0


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@st.composite
def kernel_params(draw):
    return PhysicalParams(beta=draw(st.floats(0.2, 10.0)), m=draw(st.floats(0.2, 5.0)))


@st.composite
def point_pairs(draw):
    """Random pairs in [1e-3, 60]^2, some swapped or repeated, and pairs
    just inside or outside the diagonal seam |x - y| < 1e-8 (x + y)."""
    coord = st.floats(1e-3, 60.0)
    pairs = draw(st.lists(st.tuples(coord, coord), max_size=12))
    for x, d, flip in draw(st.lists(st.tuples(coord, st.floats(1.9e-8, 2.1e-8), st.booleans()), max_size=6)):
        pairs.append((x * (1.0 + d), x) if flip else (x, x * (1.0 + d)))
    if pairs:
        pairs += [(y, x) for x, y in draw(st.lists(st.sampled_from(pairs), max_size=3))]
    x, y = np.array(pairs, dtype=float).reshape(-1, 2).T
    return x, y


BATCH = settings(max_examples=30, deadline=None)


class TestBatchContract:
    """eval_kernel_batch gives every pair the bits of eval_kernel."""

    @BATCH
    @given(pp=kernel_params(), xy=point_pairs(), tol=st.floats(1e-13, 1e-3))
    def test_bitwise_equal_to_scalar(self, pp, xy, tol):
        x, y = xy
        values, errors = eval_kernel_batch(pp, x, y, tol)
        ref = [eval_kernel(pp, a, b, tol) for a, b in zip(x.tolist(), y.tolist())]
        assert np.array_equal(bits(values), bits([s.value for s in ref]))
        assert np.array_equal(bits(errors), bits([s.abs_error_estimate for s in ref]))
        assert np.all(errors <= tol * values)

    @BATCH
    @given(pp=kernel_params(), xs=st.lists(st.floats(1e-3, 60.0), max_size=8), tol=st.floats(1e-13, 1e-3))
    def test_diagonal_quadrature_bitwise_equal_to_scalar(self, pp, xs, tol):
        # kernel-verify's diagonal oracle runs the bisection at x == y,
        # which eval_kernel_batch hands to the closed form instead
        x = np.array(xs + [0.1, 1.0, 10.0])
        values, errors = kernel_module._bisect_batch(pp, x, x, tol)
        ref = [eval_kernel(pp, a, a, tol, force_quadrature=True) for a in x.tolist()]
        assert np.array_equal(bits(values), bits([s.value for s in ref]))
        assert np.array_equal(bits(errors), bits([s.abs_error_estimate for s in ref]))

    @BATCH
    @given(pp=kernel_params(), xy=point_pairs(), tol=st.floats(1e-13, 1e-3))
    def test_symmetric_bitwise(self, pp, xy, tol):
        x, y = xy
        forward = eval_kernel_batch(pp, x, y, tol)
        backward = eval_kernel_batch(pp, y, x, tol)
        assert np.array_equal(bits(forward), bits(backward))

    @pytest.mark.parametrize("x, y", [(0.3, 0.31), (5.0, 40.0), (1.0, 1.001)])
    def test_panel_budget_as_scalar(self, x, y, monkeypatch):
        # the smallest budget the scalar loop converges in is the batch's too
        def converges_within(n: int) -> bool:
            monkeypatch.setattr(kernel_module, "_MAX_PANELS", n)
            return _converges(lambda: eval_kernel(PP, x, y))

        budget = next(n for n in range(2, 4000) if converges_within(n))
        assert budget > 3
        monkeypatch.setattr(kernel_module, "_MAX_PANELS", budget)
        values, _ = eval_kernel_batch(PP, np.array([x]), np.array([y]))
        assert values[0] == eval_kernel(PP, x, y).value
        monkeypatch.setattr(kernel_module, "_MAX_PANELS", budget - 1)
        with pytest.raises(NonConvergence):
            eval_kernel_batch(PP, np.array([x, 2.0]), np.array([y, 2.5]))

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "_MAX_PANELS", 3)
        with pytest.raises(NonConvergence):
            eval_kernel_batch(PhysicalParams(beta=1e4, m=1.0), np.array([1.0]), np.array([2.0]))

    @pytest.mark.parametrize("x, y", [([1.0, -1.0], [1.0, 2.0]), ([1.0, 2.0], [0.0, 2.0]), ([np.nan], [1.0])])
    def test_rejects_non_positive_points(self, x, y):
        with pytest.raises(ValueError):
            eval_kernel_batch(PP, np.array(x), np.array(y))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, 2e-3, np.nan])
    def test_rejects_tolerance(self, tol):
        with pytest.raises(ValueError):
            eval_kernel_batch(PP, np.array([1.0]), np.array([2.0]), tol)

    def test_empty_batch(self):
        values, errors = eval_kernel_batch(PP, np.zeros(0), np.zeros(0))
        assert values.shape == errors.shape == (0,)

    def test_one_quadrature_per_unordered_pair(self, tmp_path, monkeypatch):
        counts = {"bisected": 0, "diagonal": 0}
        bisect, diagonal = kernel_module._bisect_batch, kernel_module.diagonal_closed_form

        def counted_bisect(pp, x, *args):
            counts["bisected"] += x.size
            return bisect(pp, x, *args)

        def counted_diagonal(*args):
            counts["diagonal"] += 1
            return diagonal(*args)

        monkeypatch.setattr(kernel_module, "_bisect_batch", counted_bisect)
        monkeypatch.setattr(kernel_module, "diagonal_closed_form", counted_diagonal)
        harness.write_kernel_table(PP, 0.1, 10.0, 40, 1e-10, str(tmp_path / "kernel.csv"))
        assert counts == {"bisected": 40 * 39 // 2, "diagonal": 40}


def _converges(run) -> bool:
    try:
        run()
    except NonConvergence:
        return False
    return True


class TestDiagonalClosedForm:
    def test_oracle_agreement(self):
        for x in (0.1, 1.0, 10.0):
            q = eval_kernel(PP, x, x, tol=1e-10, force_quadrature=True).value
            assert abs(q - diagonal_closed_form(PP, x)) / q <= 1e-8

    def test_branch_seam(self):
        # series and erf branches must agree where they hand over
        for a in (0.2, 0.25, 0.3):
            x = math.sqrt(4.0 * a)  # beta = m = 1
            up = diagonal_closed_form(PP, x * (1 + 1e-12))
            assert diagonal_closed_form(PP, x) == pytest.approx(up, rel=1e-11)

    def test_large_energy_asymptote(self):
        # B(x,x) x^2 e^{-x} / sqrt(beta) -> 2 sqrt(2 pi m beta)
        x = 100.0
        val = diagonal_closed_form(PP, x) * x * x * math.exp(-x)
        assert val == pytest.approx(2.0 * math.sqrt(2.0 * math.pi), rel=0.01)

    def test_large_energy_remainder_order(self):
        # the remainder of B x^2 e^{-x}/sqrt(beta) after the constant term is
        # bounded by 1/x; doubling x must at least halve it (in fact the next
        # coefficient vanishes and the measured decay is quadratic)
        def rem(x):
            return (
                diagonal_closed_form(PP, x) * x * x * math.exp(-x) / math.sqrt(PP.beta)
                - 2.0 * math.sqrt(2.0 * math.pi * PP.m * PP.beta)
            )

        order = math.log2(abs(rem(100.0) / rem(200.0)))
        assert order >= 0.9

    def test_small_energy_remainder_linear(self):
        def rem(x):
            return diagonal_closed_form(PP, x) - (44.0 / 15.0) * (1.0 / x + 1.0)

        orders = []
        x = 1e-2
        while x > 1.2e-3:
            orders.append(math.log2(abs(rem(x) / rem(0.5 * x))))
            x *= 0.5
        assert all(0.9 <= o <= 1.1 for o in orders)

    def test_beta_m_dependence(self):
        pp = PhysicalParams(beta=4.0, m=2.0)
        q = eval_kernel(pp, 0.7, 0.7, tol=1e-10, force_quadrature=True).value
        assert diagonal_closed_form(pp, 0.7) == pytest.approx(q, rel=1e-10)


class TestLiteralConstants:
    """The Gauss-Legendre rules and the diagonal series are literal floats."""

    @pytest.mark.parametrize("name, n", [("_GL_LO", 10), ("_GL_HI", 20)])
    def test_gauss_legendre_rules_are_leggauss(self, name, n):
        # within 2 ulp, not bitwise: leggauss's eigenvalue call may round
        # differently under another LAPACK
        nodes, weights = getattr(kernel_module, name)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_max_ulp(nodes, ref_nodes, maxulp=2)
        np.testing.assert_array_max_ulp(weights, ref_weights, maxulp=2)

    @pytest.mark.parametrize("name, n", [("_GL_LO", 10), ("_GL_HI", 20)])
    def test_gauss_legendre_rules_are_exact_to_degree_2n_minus_1(self, name, n):
        # 4e-15, not 1e-15: leggauss(20)'s floats themselves, summed in
        # exact rationals, miss the even moments by up to 3.4e-15
        nodes, weights = getattr(kernel_module, name)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(float(np.dot(weights, nodes**k)) - exact) <= 4e-15, k

    def test_series_is_the_exact_rationals_rounded(self):
        series = kernel_module._DIAGONAL_SERIES
        assert all(type(c) is float for c in series)
        assert bits(series).tolist() == bits(oracles.diagonal_series_coefficients()[::-1]).tolist()

    @settings(max_examples=300, deadline=None)
    @given(pp=kernel_params(), a=st.floats(0.0, 0.25, exclude_min=True, exclude_max=True))
    def test_series_branch_bitwise_equal_to_numpy_scalar_horner(self, pp, a):
        x = math.sqrt(4.0 * pp.m * pp.beta * a)
        assume(x > 0.0 and x * x / (4.0 * pp.m * pp.beta) < kernel_module._DIAGONAL_SERIES_CUTOFF)
        value = diagonal_closed_form(pp, x)
        assert type(value) is float
        assert value.hex() == oracles.diagonal_series_value(pp, x).hex()


class TestBounds:
    def test_majorant_dominates_kernel(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            x, y = rng.uniform(0.05, 10.0, 2)
            s = eval_kernel(PP, x, y)
            assert s.value <= eval_majorant(PP, x, y) + s.abs_error_estimate

    def test_domination_chain_on_log_grid(self):
        xs = np.geomspace(0.05, 10.0, 50)
        for x in xs:
            for y in xs:
                s = eval_kernel(PP, float(x), float(y), tol=1e-8)
                mj = eval_majorant(PP, float(x), float(y))
                assert s.value <= mj + s.abs_error_estimate
                assert mj <= peak_bound(PP, float(x), float(y)) * (1.0 + 1e-12)

    def test_peak_bound_dominates_majorant(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x, y = rng.uniform(0.01, 12.0, 2)
            assert eval_majorant(PP, x, y) <= peak_bound(PP, x, y) * (1.0 + 1e-12)

    def test_majorant_on_diagonal(self):
        # q = 0 collapses the majorant to (44/15) e^x / x times sqrt(beta)
        for x in (0.3, 1.0, 4.0):
            expect = math.sqrt(PP.beta) * (44.0 / 15.0) * math.exp(x) / x
            assert eval_majorant(PP, x, x) == pytest.approx(expect, rel=1e-13)
            assert peak_bound(PP, x, x) == pytest.approx(expect, rel=1e-13)

    def test_diagonal_profile_identity(self):
        for z in (0.5, 2.0, 7.0):
            assert eval_majorant(PP, z / 2, z / 2) / math.sqrt(PP.beta) == pytest.approx(
                diagonal_profile(PP, z), rel=1e-13
            )

    def test_midpoint_domination(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            x, y = rng.uniform(0.05, 8.0, 2)
            mid = 0.5 * (x + y)
            s = eval_kernel(PP, x, y)
            assert s.value <= diagonal_closed_form(PP, mid) * (1.0 + 1e-9) + s.abs_error_estimate


class TestAntidiagonalSign:
    def test_spec_points(self):
        rep = verify_antidiagonal_monotonicity(PP, [(1.0, 2.0), (2.0, 1.0)])
        assert rep.passed and rep.checked == 2

    def test_random_cloud(self):
        rng = np.random.default_rng(5)
        samples = []
        while len(samples) < 30:
            x, y = rng.uniform(0.1, 10.0, 2)
            if abs(x - y) > 1e-3:
                samples.append((x, y))
        assert verify_antidiagonal_monotonicity(PP, samples).passed

    def test_rejects_diagonal_sample(self):
        with pytest.raises(ValueError):
            verify_antidiagonal_monotonicity(PP, [(1.0, 1.0)])


class TestScaling:
    def test_forward_example(self):
        pp = PhysicalParams(beta=2.0, m=1.0)
        assert scale_to_dimensionless(pp, 1.0, 3.0, 5.0) == (8.0, 6.0, 180.0)

    def test_round_trip_bitwise(self):
        pp = PhysicalParams(beta=2.0, m=1.0)
        t, k, f = 0.25, 4.0, 0.5
        tau, x, u = scale_to_dimensionless(pp, t, k, f)
        assert scale_from_dimensionless(pp, tau, x, u) == (t, k, f)

    def test_measure_mass_invariant(self):
        pp = PhysicalParams(beta=3.0, m=1.0)
        k = np.geomspace(1e-2, 20.0, 300)
        v = k**2 / np.expm1(k)
        x, u = scale_measure(pp, k, v)
        w_k = np.gradient(k)
        w_x = np.gradient(x)
        before = float(np.dot(w_k, v))
        after = float(np.dot(w_x, u))
        assert after == pytest.approx(before, rel=1e-12)


def _bump(u: float, lo: float, hi: float) -> float:
    if u <= lo or u >= hi:
        return 0.0
    s = (u - lo) / (hi - lo)
    return math.exp(-1.0 / (s * (1.0 - s)))


def bump_phi(x: float, y: float) -> float:
    return _bump(x, 1.0, 2.0) * _bump(y, 1.0, 2.0)


class TestConcentration:
    def test_zero_test_function(self):
        rows = diagonal_concentration_check(PP, lambda x, y: 0.0, [10.0, 100.0], support=(1.0, 2.0))
        assert all(r.integral == 0.0 for r in rows)

    def test_ratio_trend(self):
        rows = diagonal_concentration_check(PP, bump_phi, [1e2, 1e3, 1e4], support=(1.0, 2.0))
        ratios = [r.ratio for r in rows]
        assert ratios[0] < ratios[1] < ratios[2] < 1.0
        assert abs(ratios[2] - 1.0) <= 0.05

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_against_2d_quadrature_oracle(self):
        # the cutoff indicator makes the oracle integrand discontinuous;
        # QUADPACK complains but converges well past the tolerance used
        beta = 400.0
        pp = PhysicalParams(beta=beta, m=1.0)

        def integrand(y, x):
            if bump_phi(x, y) == 0.0:
                return 0.0
            z1 = math.sqrt(beta * pp.m / 2.0) * (x - y) / (x + y)
            if abs(z1) > 1.0:
                return 0.0
            return bump_phi(x, y) * eval_majorant(pp, x, y)

        oracle, _ = dblquad(integrand, 1.0, 2.0, 1.0, 2.0, epsabs=1e-10, epsrel=1e-8)
        row = diagonal_concentration_check(pp, bump_phi, [beta], support=(1.0, 2.0))[0]
        assert row.integral == pytest.approx(oracle, rel=1e-4)

    def test_monotone_beta_list_required(self):
        with pytest.raises(ValueError):
            diagonal_concentration_check(PP, bump_phi, [100.0, 10.0], support=(1.0, 2.0))

    def test_limit_value_positive(self):
        assert concentration_limit(PP, bump_phi, (1.0, 2.0)) > 0.0

    def test_row_type(self):
        rows = diagonal_concentration_check(PP, bump_phi, [50.0], support=(1.0, 2.0))
        assert isinstance(rows[0], ConcentrationRow)
