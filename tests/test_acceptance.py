"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line per criterion alongside the pytest verdicts.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from comptonsim.full_solver import (
    RegularizedKernel,
    SolverConfig,
    collision_rhs,
    entropy_balance_check,
    exp_moment_rate,
    run_full,
)
from comptonsim.kernel import (
    PhysicalParams,
    diagonal_closed_form,
    eval_majorant,
    verify_antidiagonal_monotonicity,
)
from comptonsim.measure import Grid, planck_density, relative_drift
from comptonsim.reduced_solver import (
    AtomSystemState,
    classify_limit,
    lyapunov_check,
    run_atoms,
    run_density,
)
from comptonsim.truncation import TruncationParams, gamma1, gamma2
from oracles import diagonal_concentration_check, eval_kernel, growth_bound

PP = PhysicalParams(beta=1.0, m=1.0)
TP = TruncationParams.solve(0.5, 1.0, 0.8)

SEED = 20240801


def report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d} [{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"criterion {num}: {name}: {detail}"


def test_criterion_01_diagonal_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for x in (0.1, 1.0, 10.0):
        quadrature = eval_kernel(PP, x, x, tol=1e-10, force_quadrature=True).value
        closed = diagonal_closed_form(PP, x)
        worst = max(worst, abs(quadrature - closed) / closed)
    elapsed = time.monotonic() - t0
    report(
        1,
        "kernel oracle agreement",
        worst <= 1e-8 and elapsed < 1.0,
        f"max rel err {worst:.3e} at x in {{0.1, 1, 10}}, {elapsed:.3f}s",
    )


def test_criterion_02_diagonal_asymptotics():
    x_hi = 100.0
    tail = diagonal_closed_form(PP, x_hi) * x_hi**2 * math.exp(-x_hi) / math.sqrt(PP.beta)
    target = 2.0 * math.sqrt(2.0 * math.pi * PP.m * PP.beta)
    tail_ok = abs(tail / target - 1.0) <= 0.01

    def remainder(x: float) -> float:
        return diagonal_closed_form(PP, x) / math.sqrt(PP.beta) - (44.0 / 15.0) * (1.0 / x + 1.0)

    orders = []
    x = 1e-2
    while x / 2.0 >= 1e-3:
        orders.append(math.log2(abs(remainder(x) / remainder(x / 2.0))))
        x /= 2.0
    order_ok = all(0.9 <= o <= 1.1 for o in orders)
    report(
        2,
        "diagonal asymptotics",
        tail_ok and order_ok,
        f"large-x ratio {tail / target:.4f} (within 1%), small-x remainder orders "
        f"{[round(o, 3) for o in orders]} in [0.9, 1.1]",
    )


def test_criterion_03_majorant_and_sign_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    samples = []
    while len(samples) < 100:
        x, y = rng.uniform(0.0, 10.0, 2)
        if x > 0.0 and y > 0.0 and abs(x - y) > 1e-6:
            samples.append((float(x), float(y)))
    majorant_violations = 0
    for x, y in samples:
        s = eval_kernel(PP, x, y)
        if s.value > eval_majorant(PP, x, y) + s.abs_error_estimate:
            majorant_violations += 1
    sign = verify_antidiagonal_monotonicity(PP, samples)
    elapsed = time.monotonic() - t0
    report(
        3,
        "majorant and antidiagonal sign",
        majorant_violations == 0 and sign.passed and elapsed < 10.0,
        f"{majorant_violations} majorant and {len(sign.violations)} sign violations "
        f"over 100 seeded points, {elapsed:.2f}s",
    )


def test_criterion_04_truncation_continuity():
    worst1 = 0.0
    worst2 = 0.0
    for theta, delta in ((0.3, 1.0), (0.5, 1.0), (0.5, 0.1), (0.8, 5.0)):
        tp = TruncationParams.solve(theta, delta, 0.5 * (1.0 + theta))
        eps = delta * 1e-14
        worst1 = max(worst1, abs(gamma1(tp, delta - eps) - theta * delta) / delta)
        worst2 = max(worst2, abs(gamma2(tp, theta * delta - eps) - delta))
    report(
        4,
        "truncation continuity",
        worst1 <= 1e-12 and worst2 <= 1e-10,
        f"max |gamma1(delta-) - theta delta|/delta {worst1:.2e} <= 1e-12, "
        f"max |gamma2(theta delta-) - delta| {worst2:.2e} <= 1e-10",
    )


@pytest.fixture(scope="module")
def full_grid():
    return Grid.log_spaced(0.02, 22.0, 256)


@pytest.fixture(scope="module")
def full_kernel(full_grid):
    return RegularizedKernel.build(PP, TP, full_grid, n=20)


def _planck_bump(grid: Grid) -> np.ndarray:
    return planck_density(grid, 0.0) + 1.2 * np.exp(-((grid.nodes - 3.0) / 0.6) ** 2)


def test_criterion_05_full_conservation(full_grid, full_kernel):
    t0 = time.monotonic()
    u0 = _planck_bump(full_grid)
    cfg = SolverConfig(
        t_end=1.0,
        dt_init=1e-4,
        eta=0.3,
        record_every=1,
    )
    traj = run_full(u0, full_kernel, cfg)
    steps = len(traj.times) - 1
    drift = relative_drift(traj.M0)
    xs, bound = traj.X_eta, growth_bound(traj, exp_moment_rate(TP, full_kernel.bound_constant, cfg.eta))
    growth_ok = bool(np.all(xs <= (1.0 + 1e-6) * bound))
    elapsed = time.monotonic() - t0
    report(
        5,
        "full-solver conservation and growth bound",
        steps >= 10_000 and drift <= 1e-10 and growth_ok and elapsed < 120.0,
        f"{steps} RK4 steps at 256 nodes: mass drift {drift:.2e} <= 1e-10, "
        f"X_eta within e^(C_eta t) envelope at all {len(xs)} recorded times, {elapsed:.1f}s",
    )


def test_criterion_06_entropy_structure(full_grid, full_kernel):
    # the entropy is nondecreasing along the flow: its change over a window
    # equals the time integral of the nonnegative dissipation
    grid = Grid.log_spaced(0.02, 22.0, 128)
    kern = RegularizedKernel.build(PP, TP, grid, n=20)
    u0 = _planck_bump(grid)
    cfg = SolverConfig(t_end=1.0, dt_init=1e-3, eta=0.3, record_every=1)
    traj = run_full(u0, kern, cfg)
    balance = entropy_balance_check(traj, rel_tolerance=1e-4)
    d_ok = balance.dissipation_nonnegative
    report(
        6,
        "entropy structure",
        d_ok and balance.entropy_monotone and balance.residual <= balance.tolerance,
        f"D >= 0 at all {len(traj.times)} steps, H monotone, "
        f"|Delta H - int D dt| = {balance.residual:.2e} <= 1e-4 |H| = {balance.tolerance:.2e}",
    )


def test_criterion_07_equilibrium_residual():
    # the pairwise scheme satisfies discrete detailed balance exactly, so the
    # residual on sampled equilibria sits at the roundoff floor at every
    # resolution; the floor is accepted alongside a first-order decrease
    # because a residual of rounding noise has no measurable order
    details = []
    ok = True
    for mu in (0.0, -0.5, -2.0):
        res = {}
        for n in (128, 256):
            grid = Grid.log_spaced(0.02, 22.0, n)
            kern = RegularizedKernel.build(PP, TP, grid, n=20)
            g = planck_density(grid, mu)
            rate = collision_rhs(g, kern)
            mass = float(np.dot(grid.weights, g))
            res[n] = float(np.dot(grid.weights, np.abs(rate))) / mass
        at_floor = max(res.values()) <= 1e-13
        order = math.log2(res[128] / res[256]) if res[256] > 0.0 and not at_floor else math.inf
        ok = ok and (at_floor or order >= 0.9)
        details.append(f"mu={mu}: residual {res[128]:.1e} -> {res[256]:.1e}"
                       + (" (roundoff floor)" if at_floor else f" order {order:.2f}"))
    report(7, "equilibrium residual under refinement", ok, "; ".join(details))


CHAIN_LOCATIONS = [1.0, 1.5, 2.4]
CHAIN_TABLE = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])


def test_criterion_08_reduced_chain_example():
    t0 = time.monotonic()
    state = AtomSystemState.from_table(CHAIN_LOCATIONS, [0.6, 0.2, 0.2], CHAIN_TABLE)
    traj = run_atoms(state, 200.0, eta=0.3, n_record=2001, stationarity_window=1.0)
    final = traj.final_masses()
    ms = traj.M0
    drift = float(np.max(np.abs(ms - ms[0])) / ms[0])
    cls = classify_limit(traj, TP)
    locations = [x for x, _ in cls.atoms]
    z_floor = 0.2 * math.exp(-1.0) - 1e-9
    elapsed = time.monotonic() - t0
    passed = (
        final[1] <= 1e-16
        and final[2] >= z_floor
        and locations == [1.0, 2.4]
        and drift <= 1e-12
        and elapsed < 1.0
    )
    report(
        8,
        "three-atom chain long-time limit",
        passed,
        f"y(200) = {final[1]:.2e} <= 1e-16, z_inf = {final[2]:.9f} >= 0.2/e - 1e-9, "
        f"surviving atoms {locations}, mass drift {drift:.2e} <= 1e-12, {elapsed:.2f}s",
    )


def test_criterion_09_lyapunov_suite():
    state = AtomSystemState.from_table(CHAIN_LOCATIONS, [0.6, 0.2, 0.2], CHAIN_TABLE)
    atom_traj = run_atoms(state, 200.0, n_record=20001, eta=0.25)
    atom_rep = lyapunov_check(atom_traj)

    grid = Grid.log_spaced(0.5, 30.0, 128)
    u0 = planck_density(grid, 0.0)
    pic_traj = run_density(grid, u0, PP, TP, t_end=1.0, dt=1e-3, eta=0.3)
    pic_rep = lyapunov_check(pic_traj)

    err_a = max(atom_rep.max_balance_error.values())
    err_p = max(pic_rep.max_balance_error.values())
    report(
        9,
        "moment Lyapunov suite",
        all(
            all(rep.monotone.values()) and rep.exp_moment_monotone and rep.balance_ok
            for rep in (atom_rep, pic_rep)
        ),
        f"M_alpha nonincreasing (alpha = 1, 2, 3) on both runs; dM/dt vs D/2 rel err: "
        f"atoms {err_a:.2e}, density {err_p:.2e}, both <= 1e-4",
    )


def test_criterion_10_flatness_envelope():
    grid = Grid.log_spaced(0.5, 30.0, 128)
    u0 = planck_density(grid, 0.0)
    traj = run_density(grid, u0, PP, TP, t_end=1.0, dt=1e-3, eta=0.3)
    env = traj.pointwise_envelope(len(traj.times) - 1, u0)
    envelope_ok = bool(np.all(traj.states[-1] <= env * (1.0 + 1e-9)))
    ms = traj.M0
    drift = float(np.max(np.abs(ms - ms[0])) / ms[0])
    report(
        10,
        "density-run flatness envelope",
        envelope_ok and drift <= 1e-10,
        f"u(1, x) <= u0(x) exp(C0 / x^1.5) (1 + 1e-9) at all {grid.n} nodes, "
        f"mass drift {drift:.2e} <= 1e-10",
    )


def test_criterion_11_random_limit_classification():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst_time = 0.0
    details = []
    ok = True
    for trial in range(5):
        # resolvable couplings: ratios clear of the ramp corners so every
        # coupled pair dies on a reachable timescale
        while True:
            locs = np.sort(rng.uniform(1.05, 6.0, 4))
            ratios = (locs[:, None] / locs[None, :])[np.triu_indices(4, 1)]
            ratios = np.minimum(ratios, 1.0 / ratios)
            if np.min(np.diff(locs)) >= 0.05 and np.all(np.abs(ratios - TP.theta) > 0.04) and np.all(
                np.abs(ratios - TP.theta1) > 0.04
            ):
                break
        masses = rng.uniform(0.1, 1.0, 4)
        t_run = time.monotonic()
        state = AtomSystemState.from_physical(PP, TP, locs, masses)
        traj = run_atoms(state, 5e4, eta=0.3, n_record=2001, stationarity_window=50.0)
        cls = classify_limit(traj, TP)
        worst_time = max(worst_time, time.monotonic() - t_run)
        trial_ok = (
            cls.in_initial_support
            and cls.pairwise_decoupled
            and cls.mass_sums_ok
            and cls.leftmost_ok
        )
        ok = ok and trial_ok
        details.append(f"trial {trial}: {len(cls.atoms)} atoms, {'ok' if trial_ok else 'FAIL'}")
    report(
        11,
        "random four-atom limit classification",
        ok and worst_time < 10.0,
        f"{'; '.join(details)}; slowest run {worst_time:.2f}s < 10s "
        f"(support, decoupling, mass sums to 1e-8, leftmost survival)",
    )


def test_criterion_12_concentration_trend():
    t0 = time.monotonic()

    def bump(u: float, lo: float, hi: float) -> float:
        if u <= lo or u >= hi:
            return 0.0
        s = (u - lo) / (hi - lo)
        return math.exp(-1.0 / (s * (1.0 - s)))

    def phi(x: float, y: float) -> float:
        return bump(x, 1.0, 2.0) * bump(y, 1.0, 2.0)

    rows = diagonal_concentration_check(PP, phi, [1e2, 1e3, 1e4], support=(1.0, 2.0))
    ratios = [float(r.ratio) for r in rows]
    monotone = ratios[0] < ratios[1] < ratios[2] <= 1.0
    close = abs(ratios[-1] - 1.0) <= 0.05
    elapsed = time.monotonic() - t0
    report(
        12,
        "diagonal concentration trend",
        monotone and close and elapsed < 60.0,
        f"ratios at beta = 1e2, 1e3, 1e4: {[round(r, 4) for r in ratios]} "
        f"(monotone toward 1, final within 5%), {elapsed:.1f}s",
    )
