"""End-to-end ergodic capacity pipeline: orderings between constraint
cases, TDMA restriction, the fixed-allocation baseline, and the audit
fields carried on every result."""

import numpy as np
import pytest

from crsum import capacity, perstate_bc
from crsum import (ConstraintCase, Ensemble, FadingModel, PowerBudget,
                   ergodic_capacity_bc, ergodic_capacity_mac,
                   ergodic_capacity_mac_tdma, fra_baseline_bc,
                   fra_baseline_mac, sample_bc_states, sample_mac_states)
from crsum.constraints import LT_TOL, ST_TOL
from crsum.perstate_bc import as_one_user_mac
from crsum.perstate_mac import ACTIVE_TOL

CASES = list(ConstraintCase)


@pytest.fixture(scope="module")
def mac_results(small_mac_ensemble):
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.8)
    return {case: ergodic_capacity_mac(small_mac_ensemble, case, budget)
            for case in CASES}


def test_case_ordering(mac_results):
    """Tighter constraint classes can only lower the optimum."""
    r = {c: mac_results[c].ergodic_sum_rate for c in CASES}
    tol = 1e-6
    assert r[ConstraintCase.IV] <= r[ConstraintCase.II] + tol
    assert r[ConstraintCase.II] <= r[ConstraintCase.I] + tol
    assert r[ConstraintCase.IV] <= r[ConstraintCase.III] + tol
    assert r[ConstraintCase.III] <= r[ConstraintCase.I] + tol


def test_result_fields_audited(mac_results, small_mac_ensemble):
    n = len(small_mac_ensemble)
    for case, res in mac_results.items():
        assert res.channel == "mac"
        assert res.mode == "full"
        assert res.case is case
        assert res.n_states == n
        assert res.alloc.shape == (n, 2)
        assert res.active_count_histogram.sum() == n
        assert res.active_count_histogram.shape == (3,)
        assert res.feasibility.all_satisfied
        assert res.rate_stderr >= 0.0
        if case is ConstraintCase.IV:
            assert res.gap is not None and res.gap <= 1e-12
        else:
            assert res.gap is not None and res.gap >= -1e-12
            assert res.dual_value >= res.ergodic_sum_rate - 1e-12
        if case.tpc_is_lt:
            assert (res.achieved_avg_tx_power <= 1.0 + 1e-9).all()
        else:
            assert (res.achieved_worst_tx_power <= 1.0 + 1e-9).all()
        if case.ipc_is_lt:
            assert (res.achieved_avg_interference <= 0.8 + 1e-9).all()
        else:
            assert (res.achieved_worst_interference <= 0.8 + 1e-9).all()


def test_tdma_never_beats_full(small_mac_ensemble):
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.8)
    for case in CASES:
        full = ergodic_capacity_mac(small_mac_ensemble, case, budget)
        tdma = ergodic_capacity_mac_tdma(small_mac_ensemble, case, budget)
        assert tdma.mode == "tdma"
        assert tdma.ergodic_sum_rate <= full.ergodic_sum_rate + 1e-4
        # one user at most in every state
        assert (np.count_nonzero(tdma.alloc > 1e-9, axis=1) <= 1).all()


def test_tdma_exact_under_fully_averaged_constraints(small_mac_ensemble):
    """With both constraints long-term the optimum is one user per state,
    so the restriction costs nothing."""
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.8)
    full = ergodic_capacity_mac(small_mac_ensemble, ConstraintCase.I, budget)
    tdma = ergodic_capacity_mac_tdma(small_mac_ensemble, ConstraintCase.I,
                                     budget)
    assert abs(full.ergodic_sum_rate - tdma.ergodic_sum_rate) < 1e-9
    np.testing.assert_array_equal(full.alloc, tdma.alloc)


def test_fra_below_adaptive(small_mac_ensemble):
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.8)
    fra = fra_baseline_mac(small_mac_ensemble, budget)
    assert fra.mode == "fra"
    assert fra.feasibility.all_satisfied
    # round-robin: state t is owned by user t mod K, nobody else
    n = len(small_mac_ensemble)
    owners = np.arange(n) % 2
    others = 1 - owners
    assert (fra.alloc[np.arange(n), others] == 0).all()
    best = ergodic_capacity_mac(small_mac_ensemble, ConstraintCase.IV, budget)
    assert fra.ergodic_sum_rate <= best.ergodic_sum_rate + 1e-9


def test_bc_pipeline(small_bc_ensemble):
    budget = PowerBudget(tpc=np.zeros(0), ipc=np.full(2, 0.8),
                         bs_tpc=1.0)
    rates = {}
    for case in CASES:
        res = ergodic_capacity_bc(small_bc_ensemble, case, budget)
        assert res.channel == "bc"
        assert res.alloc.shape == (len(small_bc_ensemble),)
        assert res.feasibility.all_satisfied
        assert res.active_count_histogram.sum() == len(small_bc_ensemble)
        # downlink serves one user at a time
        assert res.active_count_histogram[2:].sum() == 0
        rates[case] = res.ergodic_sum_rate
    tol = 1e-6
    assert rates[ConstraintCase.IV] <= rates[ConstraintCase.II] + tol
    assert rates[ConstraintCase.II] <= rates[ConstraintCase.I] + tol
    assert rates[ConstraintCase.IV] <= rates[ConstraintCase.III] + tol
    assert rates[ConstraintCase.III] <= rates[ConstraintCase.I] + tol

    fra = fra_baseline_bc(small_bc_ensemble, budget)
    assert fra.ergodic_sum_rate <= rates[ConstraintCase.IV] + 1e-9


def test_modes_validated(small_mac_ensemble):
    from crsum import UsageError
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.8)
    with pytest.raises(UsageError):
        ergodic_capacity_mac(small_mac_ensemble, ConstraintCase.I, budget,
                             mode="round-robin")


@pytest.mark.parametrize("tpc,ipc", [([1.0], [0.8]), ([1.0] * 3, [0.8]), ([], [0.8]),
                                     ([1.0, 1.0], [0.8, 0.8])])
def test_budget_shape_checked_before_solving(small_mac_ensemble, tpc, ipc):
    """A budget for another K or M is a UsageError on every MAC entry
    point, the FRA baseline included (not a numpy indexing error)."""
    from crsum import UsageError
    budget = PowerBudget(tpc=tpc, ipc=ipc)
    for solve in (fra_baseline_mac,
                  lambda s, b: ergodic_capacity_mac(s, ConstraintCase.I, b)):
        with pytest.raises(UsageError, match="budget dimensions"):
            solve(small_mac_ensemble, budget)


def test_bc_zero_gain_state_stays_silent():
    """A state with every h_k = 0 gets no power in any case."""
    states = Ensemble("bc", [[1.0, 2.0], [0.0, 0.0], [0.5, 0.3]],
                      [[0.5], [0.7], [1.0]])
    budget = PowerBudget(tpc=np.zeros(0), ipc=[1.0], bs_tpc=1.0)
    for case in CASES:
        res = ergodic_capacity_bc(states, case, budget)
        assert res.alloc[1] == 0.0
        assert res.feasibility.all_satisfied
    fra = fra_baseline_bc(states, budget)
    assert fra.alloc.shape == (3,)
    assert fra.feasibility.all_satisfied


def test_bc_is_the_one_user_mac():
    """The BC equals the MAC whose single user has gain max_k h_k (and,
    for FRA, the round-robin user's gain) with the BC's f and q."""
    states = sample_bc_states(FadingModel(K=4, M=2, n_states=300, seed=31))
    H, F = states.H, states.F
    n, K = H.shape
    budget = PowerBudget(tpc=np.zeros(0), ipc=np.array([0.8, 1.2]),
                         bs_tpc=1.5)
    mac_budget = PowerBudget(tpc=[budget.bs_tpc], ipc=budget.ipc)
    best = Ensemble("mac", H.max(axis=1)[:, None], F[:, None, :])
    for case in CASES:
        bc = ergodic_capacity_bc(states, case, budget)
        mac = ergodic_capacity_mac(best, case, mac_budget, mode="full")
        assert bc.channel == "bc" and bc.mode == "full"
        assert bc.alloc.shape == (n,)
        assert bc.active_count_histogram.shape == (K + 1,)
        diff = abs(bc.ergodic_sum_rate - mac.ergodic_sum_rate)
        assert diff <= max(bc.gap, mac.gap) + 1e-12
        if case is ConstraintCase.IV:
            assert diff <= 1e-12
    rr = Ensemble("mac", H[np.arange(n), np.arange(n) % K][:, None],
                  F[:, None, :])
    bc, mac = fra_baseline_bc(states, budget), fra_baseline_mac(rr, mac_budget)
    assert bc.mode == "fra" and bc.alloc.shape == (n,)
    assert bc.active_count_histogram.shape == (K + 1,)
    assert abs(bc.ergodic_sum_rate - mac.ergodic_sum_rate) <= 1e-12


@pytest.mark.parametrize("via_mac", [False, True])
def test_bc_solves_through_the_auxiliary_mac_only_on_request(via_mac, monkeypatch,
                                                             small_bc_ensemble):
    """By default a BC point makes no auxiliary-MAC solve: that path is
    compared with the one-user path by `crsum verify --suite bc`. Passed
    as the `per_state_solver`, the auxiliary MAC runs in the loop."""
    calls = []

    def spy(*args):
        calls.append(args[2])
        return powers_via_mac(*args)
    powers_via_mac = perstate_bc.powers_via_mac
    monkeypatch.setattr(perstate_bc, "powers_via_mac", spy)
    Hb, F = small_bc_ensemble.H, small_bc_ensemble.F
    budget = PowerBudget(tpc=np.zeros(0), ipc=[0.8, 1.2], bs_tpc=1.5)
    for case in CASES:
        def solver(H, G, point, case=case):
            lam, mu = capacity._bc_prices(point, 2)
            return perstate_bc.solve_states_bc_via_mac(Hb, F, case, lam, mu, budget)[0][:, None]
        ergodic_capacity_bc(small_bc_ensemble, case, budget,
                            per_state_solver=solver if via_mac else None)
    assert bool(calls) is via_mac
    if via_mac:
        assert set(calls) == set(CASES)


def _mean(X):
    """Each column's sum / n, the dual loop's usage rule."""
    return np.array([X[:, k].sum() / len(X) for k in range(X.shape[1])])


def _two_pass_audit(P, G, case, budget):
    """The rows, the four achieved_* arrays and the histogram as the
    separate audit and assembly passes computed them, averaging as the
    dual loop does."""
    n, K, M = G.shape
    rows = []
    tpc = _mean(P) if case.tpc_is_lt else P.max(axis=0)
    kind, tol = ("LT", LT_TOL) if case.tpc_is_lt else ("ST", ST_TOL)
    for k in range(K):
        rows.append((f"tpc_{k + 1}", kind, float(tpc[k]), float(budget.tpc[k]),
                     bool(tpc[k] <= budget.tpc[k] * (1.0 + tol))))
    I = np.einsum("tk,tkm->tm", P, G)
    if M:
        ipc = _mean(I) if case.ipc_is_lt else I.max(axis=0)
        kind, tol = ("LT", LT_TOL) if case.ipc_is_lt else ("ST", ST_TOL)
        for m in range(M):
            rows.append((f"ipc_{m + 1}", kind, float(ipc[m]), float(budget.ipc[m]),
                         bool(ipc[m] <= budget.ipc[m] * (1.0 + tol))))
    fields = (_mean(P), P.max(axis=0), _mean(I), I.max(axis=0) if M else np.zeros(0))
    hist = np.bincount((P > ACTIVE_TOL).sum(axis=1), minlength=K + 1)
    return rows, fields, hist


def _bits(a):
    return np.asarray(a).dtype.str, np.shape(a), np.asarray(a).tobytes()


def test_one_audit_pass_matches_the_two_pass_formulas(small_mac_ensemble, small_bc_ensemble):
    """Rows, achieved_* fields and histogram equal the two-pass formulas
    bit for bit: MAC case I and case IV (the knapsack at M = 1, the
    simplex at M = 2), the BC as its one-user MAC, and M = 0."""
    wide = sample_mac_states(FadingModel(K=4, M=2, n_states=300, seed=7))
    no_caps = sample_mac_states(FadingModel(K=3, M=0, n_states=100, seed=5))
    runs = [(small_mac_ensemble, case, PowerBudget.symmetric(2, 1, 1.0, 0.8))
            for case in (ConstraintCase.I, ConstraintCase.IV)]
    runs += [(wide, ConstraintCase.IV, PowerBudget.symmetric(4, 2, 1.0, 0.8)),
             (no_caps, ConstraintCase.II, PowerBudget(tpc=np.ones(3), ipc=np.zeros(0)))]
    checked = []
    for states, case, budget in runs:
        res = ergodic_capacity_mac(states, case, budget)
        checked.append((res, res.alloc, states.G, case, budget, res.active_count_histogram))
    bc_budget = PowerBudget(tpc=np.zeros(0), ipc=np.full(2, 0.8), bs_tpc=1.0)
    res = ergodic_capacity_bc(small_bc_ensemble, ConstraintCase.I, bc_budget)
    _, G1, mac = as_one_user_mac(small_bc_ensemble.H, small_bc_ensemble.F, bc_budget)
    checked.append((res, res.alloc[:, None], G1, ConstraintCase.I, mac,
                    res.active_count_histogram[:2]))
    for res, P, G, case, budget, hist in checked:
        rows, fields, ref_hist = _two_pass_audit(P, G, case, budget)
        assert repr([(r.constraint_id, r.kind, r.achieved, r.threshold, r.satisfied)
                     for r in res.feasibility.rows]) == repr(rows)
        got = (res.achieved_avg_tx_power, res.achieved_worst_tx_power,
               res.achieved_avg_interference, res.achieved_worst_interference)
        assert [_bits(a) for a in got] == [_bits(a) for a in fields]
        assert _bits(hist) == _bits(ref_hist)
        for kind, got in (("LT", res.max_lt_violation), ("ST", res.max_st_violation)):
            assert got == max([0.0] + [(a - t) / t for _, k, a, t, _ in rows if k == kind])
