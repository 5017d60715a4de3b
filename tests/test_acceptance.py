"""Acceptance gate.

Ten numbered criteria, each with pinned tolerances. Every test records
one PASS/FAIL line (echoed in the terminal summary) so a reviewer can
read the outcome without digging through tracebacks.
"""

import time

import numpy as np
import pytest

from crsum import (ConstraintCase, FadingModel, PowerBudget, db_to_linear,
                   ellipsoid_solve, ergodic_capacity_bc, ergodic_capacity_mac,
                   ergodic_capacity_mac_tdma, fra_baseline_bc,
                   sample_bc_states, sample_mac_states)
from crsum import perstate_bc, perstate_mac
from crsum.fading import ChannelStateMac, bc_arrays, mac_arrays
from crsum.oracle import (case1_problem, case2_problem, case3_problem,
                          case4_problem, grid_state_oracle, saa_primal_oracle)

RESULTS = []
CASES = list(ConstraintCase)


def _record(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _draw_state(rng, K, M):
    return ChannelStateMac(h=rng.exponential(1.0, K),
                           g=rng.exponential(1.0, (K, M)))


# ---------------------------------------------------------------------------
# criteria 1 and 2 share one batch of random per-state instances


@pytest.fixture(scope="module")
def perstate_batch():
    """200 random instances per case, K <= 3, M <= 2: solver objective vs
    the grid oracle, plus the optimality-system residual of every
    returned solution."""
    rng = np.random.Generator(np.random.Philox(key=20260819))
    worst_obj = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
    worst_kkt = {1: 0.0, 2: 0.0, 3: 0.0, 4: 0.0}
    t0 = time.monotonic()
    for _ in range(200):
        K = int(rng.integers(1, 4))
        M = int(rng.integers(1, 3))
        s = _draw_state(rng, K, M)
        lam = rng.uniform(0.2, 2.0, K)
        mu = rng.uniform(0.2, 2.0, M)
        caps = rng.uniform(0.3, 3.0, K)
        gam = rng.uniform(0.5, 2.0, M)

        a, _ = perstate_mac.solve_state_case1(s, lam, mu)
        obj, up, hs = case1_problem(s, lam, mu)
        _, ov = grid_state_oracle(obj, up, hs, grid_step=1e-5)
        worst_obj[1] = max(worst_obj[1], abs(float(obj(a.p[None])[0]) - ov))
        worst_kkt[1] = max(worst_kkt[1], perstate_mac.kkt_report_case1(
            s.h, s.g, lam, mu, a.p).max_residual)

        a, rep = perstate_mac.solve_state_case2(s, lam, gam)
        obj, up, hs = case2_problem(s, lam, gam)
        _, ov = grid_state_oracle(obj, up, hs, grid_step=1e-5)
        worst_obj[2] = max(worst_obj[2], abs(float(obj(a.p[None])[0]) - ov))
        worst_kkt[2] = max(worst_kkt[2], perstate_mac.kkt_report_case2(
            s.h, s.g, lam, gam, a.p, rep.multipliers["mu"]).max_residual)

        out = perstate_mac.solve_state_case3(s, mu, caps)
        obj, up, hs = case3_problem(s, mu, caps)
        _, ov = grid_state_oracle(obj, up, hs, grid_step=1e-5)
        worst_obj[3] = max(worst_obj[3], abs(float(obj(out[0].p[None])[0]) - ov))
        worst_kkt[3] = max(worst_kkt[3], perstate_mac.kkt_report_case3(
            s.h, s.g, mu, caps, out[0].p).max_residual)

        a, rep = perstate_mac.solve_state_case4(s, caps, gam)
        obj, up, hs = case4_problem(s, caps, gam)
        _, ov = grid_state_oracle(obj, up, hs, grid_step=1e-5)
        worst_obj[4] = max(worst_obj[4], abs(float(obj(a.p[None])[0]) - ov))
        worst_kkt[4] = max(worst_kkt[4], perstate_mac.kkt_report_case4(
            s.h, s.g, caps, gam, a.p, rep.multipliers["lambda"],
            rep.multipliers["mu"]).max_residual)
    return worst_obj, worst_kkt, time.monotonic() - t0


def test_c01_perstate_matches_grid_oracle(perstate_batch):
    worst_obj, _, elapsed = perstate_batch
    peak = max(worst_obj.values())
    ok = peak <= 1e-4 and elapsed < 120.0
    _record(1, ok, f"800 instances, worst |objective diff| {peak:.2e} "
                   f"(tol 1e-4), {elapsed:.1f}s (limit 120s)")


def test_c02_kkt_residuals(perstate_batch):
    _, worst_kkt, _ = perstate_batch
    closed = max(worst_kkt[1], worst_kkt[3])
    enum = max(worst_kkt[2], worst_kkt[4])
    ok = closed <= 1e-10 and enum <= 1e-8
    _record(2, ok, f"worst residual closed forms {closed:.2e} (tol 1e-10), "
                   f"enumerated cases {enum:.2e} (tol 1e-8)")


def test_c03_structural_sparsity():
    n, K, M = 10_000, 4, 2
    states = sample_mac_states(FadingModel(K=K, M=M, n_states=n, seed=314))
    H, G = mac_arrays(states)
    rng = np.random.Generator(np.random.Philox(key=315))
    lam = rng.uniform(0.2, 1.0, K)
    mu = rng.uniform(0.2, 1.0, M)
    caps = rng.uniform(0.5, 2.0, K)
    tol = perstate_mac.ACTIVE_TOL

    P1 = perstate_mac.solve_states_case1(H, G, lam, mu)
    viol1 = int(((P1 > tol).sum(axis=1) > 1).sum())
    P2 = perstate_mac.solve_states_case2(H, G, lam, rng.uniform(0.5, 2.0, M))
    viol2 = int(((P2 > tol).sum(axis=1) > M + 1).sum())
    P3 = perstate_mac.solve_states_case3(H, G, mu, caps)
    interior = (P3 > tol) & (P3 < caps[None, :] - 1e-9)
    viol3 = int((interior.sum(axis=1) > 1).sum())
    ok = viol1 == 0 and viol2 == 0 and viol3 == 0
    _record(3, ok, f"{n} states: single-active violations {viol1}, "
                   f">M+1-active violations {viol2}, "
                   f">1-interior violations {viol3} (all must be 0)")


def test_c04_tdma_check_consistency():
    rng = np.random.Generator(np.random.Philox(key=41))
    tol = perstate_mac.ACTIVE_TOL
    mismatches = 0
    inconsistent_empties = 0
    positives = {2: 0, 3: 0, 4: 0}
    for _ in range(1000):
        K = int(rng.integers(2, 4))
        M = int(rng.integers(1, 3))
        s = _draw_state(rng, K, M)
        lam = rng.uniform(0.2, 2.0, K)
        mu = rng.uniform(0.2, 2.0, M)
        caps = rng.uniform(0.3, 3.0, K)
        gam = rng.uniform(0.5, 2.0, M)

        hit = perstate_mac.check_tdma_case2(s, lam, gam)
        a, _ = perstate_mac.solve_state_case2(s, lam, gam)
        if hit is not None:
            positives[2] += 1
            want = np.zeros(K)
            want[hit[0]] = hit[1]
            if not np.allclose(a.p, want, atol=1e-8):
                mismatches += 1
        elif int((a.p > tol).sum()) == 1:
            inconsistent_empties += 1

        hit = perstate_mac.check_tdma_case3(s, mu, caps)
        if hit is not None:
            positives[3] += 1
            out = perstate_mac.solve_state_case3(s, mu, caps)
            want = np.zeros(K)
            want[hit[0]] = hit[1]
            if not np.allclose(out[0].p, want, atol=1e-8):
                mismatches += 1

        hit = perstate_mac.check_tdma_case4(s, caps, gam)
        a, _ = perstate_mac.solve_state_case4(s, caps, gam)
        if hit is not None:
            positives[4] += 1
            want = np.zeros(K)
            want[hit[0]] = hit[1]
            if not np.allclose(a.p, want, atol=1e-8):
                mismatches += 1
        elif int((a.p > tol).sum()) == 1:
            inconsistent_empties += 1

    ok = mismatches == 0 and inconsistent_empties == 0
    _record(4, ok, f"1000 instances/case, positives {positives} all matched "
                   f"to 1e-8; {mismatches} mismatches, {inconsistent_empties} "
                   f"single-user optima missed by the checks")


def test_c05_duality_sandwich():
    budget = PowerBudget.symmetric(2, 1, 0.9, 0.7)
    worst_rel = 0.0
    worst_time = 0.0
    for seed in (30, 31, 32, 33, 34):
        states = sample_mac_states(FadingModel(K=2, M=1, n_states=8, seed=seed))
        for case in (ConstraintCase.I, ConstraintCase.II, ConstraintCase.III):
            t0 = time.monotonic()
            _, report, _, _ = ellipsoid_solve(states, case, budget,
                                              gap_tol=2e-4)
            _, lower = saa_primal_oracle(states, case, budget)
            worst_time = max(worst_time, time.monotonic() - t0)
            rel = (report.best_dual - lower) / max(report.best_dual, 1e-9)
            worst_rel = max(worst_rel, rel)
    ok = worst_rel <= 1e-3 and worst_time < 60.0
    _record(5, ok, f"15 instances (5 seeds x cases I-III, n=8, K=2, M=1): "
                   f"worst relative gap {worst_rel:.2e} (tol 1e-3), "
                   f"slowest {worst_time:.1f}s (limit 60s)")


# ---------------------------------------------------------------------------
# criteria 6 and 8 share one ensemble solved under every case and mode


@pytest.fixture(scope="module")
def ordering_runs():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=1000, seed=2026))
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.8)
    full = {c: ergodic_capacity_mac(states, c, budget) for c in CASES}
    tdma = {c: ergodic_capacity_mac_tdma(states, c, budget) for c in CASES}
    return budget, full, tdma


def test_c06_constraint_feasibility(ordering_runs):
    budget, full, tdma = ordering_runs
    worst_lt = 0.0
    worst_st = 0.0
    for res in list(full.values()) + list(tdma.values()):
        case = res.case
        P = res.alloc
        avg_tx = P.mean(axis=0)
        worst_tx = P.max(axis=0)
        if case.tpc_is_lt:
            worst_lt = max(worst_lt, float((avg_tx / budget.tpc - 1).max()))
        else:
            worst_st = max(worst_st, float((worst_tx / budget.tpc - 1).max()))
        lin = res.achieved_avg_interference
        lin_worst = res.achieved_worst_interference
        if case.ipc_is_lt:
            worst_lt = max(worst_lt, float((lin / budget.ipc - 1).max()))
        else:
            worst_st = max(worst_st, float((lin_worst / budget.ipc - 1).max()))
    ok = worst_lt <= 1e-3 and worst_st <= 1e-6
    _record(6, ok, f"worst LT overshoot {worst_lt:.2e} (tol 1e-3), "
                   f"worst ST overshoot {worst_st:.2e} (tol 1e-6) "
                   f"across 8 recovered policies")


def test_c07_bc_duality():
    states = sample_bc_states(FadingModel(K=5, M=2, n_states=1000, seed=2027))
    Hb, F = bc_arrays(states)
    budget = PowerBudget(tpc=np.zeros(0), ipc=np.full(2, 0.8), bs_tpc=1.5)
    worst_state = 0.0
    worst_ergodic = 0.0
    for case in CASES:
        def via_mac(H, G, point, case=case):
            lam = float(point.lam[0]) if point.lam.size else 0.0
            mu = point.mu if point.mu.size else np.zeros(2)
            return perstate_bc.solve_states_bc_via_mac(Hb, F, case, lam, mu,
                                                       budget)[0][:, None]
        direct = ergodic_capacity_bc(states, case, budget)
        via = ergodic_capacity_bc(states, case, budget, per_state_solver=via_mac)
        rel = abs(direct.ergodic_sum_rate - via.ergodic_sum_rate) \
            / max(direct.ergodic_sum_rate, 1e-9)
        worst_ergodic = max(worst_ergodic, rel)
        point = direct.dual_point
        lam = float(point.lam[0]) if point.lam.size else 0.0
        mu = point.mu if point.mu.size else np.zeros(2)
        qa, ua = perstate_bc.solve_states_bc(Hb, F, case, lam, mu, budget)
        qb, ub = perstate_bc.solve_states_bc_via_mac(Hb, F, case, lam, mu,
                                                     budget)
        worst_state = max(worst_state, float(np.max(np.abs(qa - qb))))
        assert (ua == ub).all()
    ok = worst_state <= 1e-8 and worst_ergodic <= 1e-6
    _record(7, ok, f"K=5, M=2, 1000 states, all cases: worst per-state "
                   f"|dq| {worst_state:.2e} (tol 1e-8), worst ergodic "
                   f"relative diff {worst_ergodic:.2e} (tol 1e-6)")


def test_c08_capacity_orderings(ordering_runs):
    _, full, tdma = ordering_runs
    r = {c: full[c].ergodic_sum_rate for c in CASES}
    t = {c: tdma[c].ergodic_sum_rate for c in CASES}
    tol = 1e-3 * max(r.values())
    chain = (r[ConstraintCase.IV] <= r[ConstraintCase.II] + tol
             and r[ConstraintCase.II] <= r[ConstraintCase.I] + tol
             and r[ConstraintCase.IV] <= r[ConstraintCase.III] + tol
             and r[ConstraintCase.III] <= r[ConstraintCase.I] + tol)
    restricted = all(t[c] <= r[c] + tol for c in CASES)
    c1 = ConstraintCase.I
    identical = abs(t[c1] - r[c1]) <= 1e-3 * max(r[c1], 1e-9)
    ok = chain and restricted and identical
    _record(8, ok, "IV<=II<=I and IV<=III<=I "
                   f"({', '.join(f'{c.value}={r[c]:.4f}' for c in CASES)}); "
                   f"tdma<=full all cases; fully-averaged tdma gap "
                   f"{abs(t[c1] - r[c1]):.1e} (tol 1e-3 rel)")


def test_c09_dynamic_vs_fixed_allocation_ratio():
    t0 = time.monotonic()
    ratios = {}
    for M in (1, 4):
        states = sample_bc_states(FadingModel(K=20, M=M, n_states=10_000,
                                              seed=2026))
        budget = PowerBudget(tpc=np.zeros(0), ipc=np.ones(M),
                             bs_tpc=db_to_linear(3.0))
        dra = ergodic_capacity_bc(states, ConstraintCase.I, budget)
        fra = fra_baseline_bc(states, budget)
        ratios[M] = dra.ergodic_sum_rate / fra.ergodic_sum_rate
    elapsed = time.monotonic() - t0
    ok = (2.5 <= ratios[1] <= 3.0 and 3.5 <= ratios[4] <= 4.2
          and elapsed < 300.0)
    _record(9, ok, f"K=20, 3dB, 10000 samples: adaptive/fixed ratio "
                   f"M=1 {ratios[1]:.3f} (window [2.5, 3.0]), "
                   f"M=4 {ratios[4]:.3f} (window [3.5, 4.2]), "
                   f"{elapsed:.0f}s (limit 300s)")


def test_c10_qualitative_curve_shapes():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=2000, seed=2026))
    p_dbs = [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
    rates = {}
    for case in CASES:
        rates[case] = [
            ergodic_capacity_mac(
                states, case,
                PowerBudget.symmetric(2, 1, db_to_linear(db), 1.0)
            ).ergodic_sum_rate
            for db in p_dbs]

    # saturation: every curve rises, and the final increment is a small
    # fraction of the first one
    saturated = True
    for case in CASES:
        r = rates[case]
        rising = all(r[i + 1] >= r[i] - 1e-3 * max(r[i], 1.0)
                     for i in range(len(r) - 1))
        flat = (r[-1] - r[-2]) <= 0.1 * (r[1] - r[0])
        saturated = saturated and rising and flat

    # the partially-averaged cases swap order across the power sweep
    lo_gap = rates[ConstraintCase.II][0] - rates[ConstraintCase.III][0]
    hi_gap = rates[ConstraintCase.II][-1] - rates[ConstraintCase.III][-1]
    crossover = lo_gap > 0.0 and hi_gap < 0.0

    # single-user restriction costs nothing at high power when M=1
    vanishing = True
    low_gap_iv = None
    for case in (ConstraintCase.II, ConstraintCase.IV):
        budget = PowerBudget.symmetric(2, 1, db_to_linear(25.0), 1.0)
        full = ergodic_capacity_mac(states, case, budget).ergodic_sum_rate
        tdma = ergodic_capacity_mac_tdma(states, case, budget).ergodic_sum_rate
        vanishing = vanishing and (full - tdma) / full <= 1e-3
        if case is ConstraintCase.IV:
            lowb = PowerBudget.symmetric(2, 1, db_to_linear(-5.0), 1.0)
            f0 = ergodic_capacity_mac(states, case, lowb).ergodic_sum_rate
            t0 = ergodic_capacity_mac_tdma(states, case, lowb).ergodic_sum_rate
            low_gap_iv = (f0 - t0) / f0

    # ... but persists with more receivers to protect
    wide = sample_mac_states(FadingModel(K=4, M=2, n_states=2000, seed=2026))
    budget = PowerBudget.symmetric(4, 2, db_to_linear(25.0), 1.0)
    full = ergodic_capacity_mac(wide, ConstraintCase.II, budget).ergodic_sum_rate
    tdma = ergodic_capacity_mac_tdma(wide, ConstraintCase.II,
                                     budget).ergodic_sum_rate
    persistent_gap = (full - tdma) / full
    ok = (saturated and crossover and vanishing and low_gap_iv > 0.05
          and persistent_gap > 0.01)
    _record(10, ok, f"saturation {saturated}; II-III gap {lo_gap:+.3f} at "
                    f"-5dB vs {hi_gap:+.3f} at 25dB; high-power tdma gap "
                    f"<=1e-3 (M=1) {vanishing} (low-power gap "
                    f"{low_gap_iv:.2f}); K=4, M=2 gap {persistent_gap:.3f} "
                    f"stays >1e-2")
