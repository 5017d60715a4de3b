"""Per-state power allocation for the secondary MAC.

Groups:
 1. Frozen instances, hand-derived and confirmed against the grid
    search, one per constraint case.
 2. KKT certificates on the frozen instances (exact closed forms).
 3. Structural properties under random channels (active-set sizes,
    feasibility, scalar/batch agreement) via hypothesis.
 4. Ties, degenerate prices, and unbounded subproblems.
 5. Single-user shortcut tests.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crsum import SolverFailureError, UnboundedSubproblemError, perstate_mac
from crsum.fading import ChannelStateMac
from crsum.perstate_mac import (ACTIVE_TOL, check_tdma_case2, check_tdma_case3,
                                check_tdma_case4, kkt_report_case1,
                                kkt_report_case2, kkt_report_case3,
                                kkt_report_case4, solve_state_case1,
                                solve_state_case2, solve_state_case3,
                                solve_state_case4, solve_states_case1,
                                solve_states_case2, solve_states_case3,
                                solve_states_case4)


def _state(h, g):
    return ChannelStateMac(h=np.asarray(h, float), g=np.asarray(g, float))


def _case3_order(s, mu):
    """Users in the stable order of falling ratio h_k / mu.g_k, the order
    in which case 3 fills their caps."""
    w = s.g @ mu
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s.h > 0.0, np.where(w > 0.0, s.h / w, np.inf), 0.0)
    return np.argsort(-ratio, kind="stable")


# ---------------------------------------------------------------------------
# Group 1: frozen instances


def test_case1_frozen_single_winner():
    """Highest ratio of gain to effective price wins; water-fill depth."""
    s = _state([3.0, 3.0], [[2.0], [1.0]])
    alloc, rep = solve_state_case1(s, np.array([1.0, 2.0]), np.array([0.5]))
    # prices are 1 + 0.5*2 = 2 and 2 + 0.5*1 = 2.5; user 1 wins on ratio
    assert alloc.active_set == (0,)
    np.testing.assert_allclose(alloc.p, [1.0 / 2.0 - 1.0 / 3.0, 0.0], atol=1e-15)
    assert rep.max_residual <= 1e-12


def test_case1_all_idle_when_prices_dominate():
    s = _state([1.0, 1.0], [[1.0], [1.0]])
    alloc, _ = solve_state_case1(s, np.array([2.0, 3.0]), np.array([0.5]))
    assert alloc.active_set == ()
    assert (alloc.p == 0).all()
    assert alloc.sum_rate_term == 0.0


def test_case2_frozen_two_active():
    """Both users share the single tight interference constraint."""
    s = _state([3.0, 4.5], [[1.0], [2.0]])
    alloc, rep = solve_state_case2(s, np.array([0.25, 0.125]), np.array([1.1]))
    np.testing.assert_allclose(alloc.p, [0.7, 0.2], atol=1e-12)
    np.testing.assert_allclose(rep.multipliers["mu"], [0.5], atol=1e-12)
    assert rep.max_residual <= 1e-10


def test_case2_frozen_single_active_tight_ipc():
    s = _state([3.0, 2.0], [[1.5], [0.5]])
    alloc, rep = solve_state_case2(s, np.array([0.2, 0.2]), np.array([0.8]))
    np.testing.assert_allclose(alloc.p, [0.0, 1.6], atol=1e-12)
    np.testing.assert_allclose(rep.multipliers["mu"], [58.0 / 105.0], atol=1e-12)


def test_case2_zero_transmit_price():
    """With free transmit power the interference budget is spent fully
    on the user with the best gain-per-interference ratio."""
    s = _state([4.0, 1.0], [[2.0], [1.0]])
    alloc, rep = solve_state_case2(s, np.zeros(2), np.array([1.0]))
    np.testing.assert_allclose(alloc.p, [0.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(rep.multipliers["mu"], [2.0 / 3.0], atol=1e-12)


def test_case2_slack_ipc_reduces_to_water_fill():
    s = _state([2.0, 1.0], [[5.0], [5.0]])
    alloc, rep = solve_state_case2(s, np.array([0.5, 0.8]), np.array([10.0]))
    np.testing.assert_allclose(alloc.p, [1.5, 0.0], atol=1e-12)
    np.testing.assert_allclose(rep.multipliers["mu"], [0.0], atol=1e-15)


def test_case3_frozen_partial_last_user():
    """Users enter in ratio order; the last one gets the leftover."""
    s = _state([4.0, 2.0], [[1.0], [1.0]])
    alloc, rep = solve_state_case3(s, np.array([0.5]), np.array([0.3, 1.0]))
    np.testing.assert_allclose(alloc.p, [0.3, 0.9], atol=1e-12)
    assert list(_case3_order(s, np.array([0.5]))) == [0, 1]
    assert alloc.active_set == (0, 1)
    assert rep.max_residual <= 1e-12


def test_case3_zero_price_fills_every_cap():
    s = _state([4.0, 2.0], [[1.0], [1.0]])
    alloc, _ = solve_state_case3(s, np.array([0.0]), np.array([0.7, 0.9]))
    np.testing.assert_allclose(alloc.p, [0.7, 0.9], atol=1e-15)


def test_case4_frozen_cap_then_interference():
    s = _state([4.0, 1.0], [[2.0], [1.0]])
    alloc, rep = solve_state_case4(s, np.array([0.4, 0.4]), np.array([1.0]))
    np.testing.assert_allclose(alloc.p, [0.4, 0.2], atol=1e-12)
    assert rep.max_residual <= 1e-8


def test_case4_loose_ipc_hits_caps():
    s = _state([4.0, 1.0], [[0.1], [0.1]])
    alloc, rep = solve_state_case4(s, np.array([0.4, 0.4]), np.array([10.0]))
    np.testing.assert_allclose(alloc.p, [0.4, 0.4], atol=1e-12)


# ---------------------------------------------------------------------------
# Group 2: KKT reports on externally supplied allocations


def test_kkt_report_flags_wrong_allocation():
    s = _state([3.0, 3.0], [[2.0], [1.0]])
    lam, mu = np.array([1.0, 2.0]), np.array([0.5])
    good, _ = solve_state_case1(s, lam, mu)
    rep_good = kkt_report_case1(s.h, s.g, lam, mu, good.p)
    bad = good.p * 1.05
    rep_bad = kkt_report_case1(s.h, s.g, lam, mu, bad)
    assert rep_good.max_residual <= 1e-12
    assert rep_bad.max_residual > 1e-4


def test_kkt_reports_cover_all_cases():
    s = _state([3.0, 4.5], [[1.0], [2.0]])
    lam = np.array([0.25, 0.125])
    gam = np.array([1.1])
    caps = np.array([0.3, 1.0])
    mu = np.array([0.5])

    a2, r2 = solve_state_case2(s, lam, gam)
    assert kkt_report_case2(s.h, s.g, lam, gam, a2.p,
                            r2.multipliers["mu"]).max_residual <= 1e-10
    a3, _ = solve_state_case3(s, mu, caps)
    assert kkt_report_case3(s.h, s.g, mu, caps, a3.p).max_residual <= 1e-10
    a4, r4 = solve_state_case4(s, caps, gam)
    assert kkt_report_case4(s.h, s.g, caps, gam, a4.p,
                            r4.multipliers["lambda"],
                            r4.multipliers["mu"]).max_residual <= 1e-8


# ---------------------------------------------------------------------------
# Group 3: randomized structural properties


finite_pos = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def _random_instance(draw, K, M):
    h = np.array([draw(finite_pos) for _ in range(K)])
    g = np.array([[draw(finite_pos) for _ in range(M)] for _ in range(K)])
    return _state(h, g)


@settings(deadline=None, max_examples=60, derandomize=True)
@given(data=st.data(), K=st.integers(1, 3), M=st.integers(1, 2))
def test_case1_at_most_one_active(data, K, M):
    s = _random_instance(data.draw, K, M)
    lam = np.array([data.draw(finite_pos) for _ in range(K)])
    mu = np.array([data.draw(finite_pos) for _ in range(M)])
    alloc, rep = solve_state_case1(s, lam, mu)
    assert (alloc.p > ACTIVE_TOL).sum() <= 1
    assert len(alloc.active_set) <= 1
    assert rep.max_residual <= 1e-10


@settings(deadline=None, max_examples=60, derandomize=True)
@given(data=st.data(), K=st.integers(1, 3), M=st.integers(1, 2))
def test_case2_active_bound_and_feasibility(data, K, M):
    s = _random_instance(data.draw, K, M)
    lam = np.array([data.draw(finite_pos) for _ in range(K)])
    gam = np.array([data.draw(finite_pos) for _ in range(M)])
    alloc, rep = solve_state_case2(s, lam, gam)
    assert (alloc.p > ACTIVE_TOL).sum() <= M + 1
    assert (s.g.T @ alloc.p <= gam * (1 + 1e-9)).all()
    assert (alloc.p >= 0).all()
    assert rep.max_residual <= 1e-8


@settings(deadline=None, max_examples=60, derandomize=True)
@given(data=st.data(), K=st.integers(1, 3), M=st.integers(1, 2))
def test_case3_at_most_one_interior(data, K, M):
    s = _random_instance(data.draw, K, M)
    mu = np.array([data.draw(finite_pos) for _ in range(M)])
    caps = np.array([data.draw(finite_pos) for _ in range(K)])
    alloc, rep = solve_state_case3(s, mu, caps)
    interior = (alloc.p > ACTIVE_TOL) & (alloc.p < caps - ACTIVE_TOL)
    assert interior.sum() <= 1
    assert (alloc.p <= caps * (1 + 1e-12)).all()
    assert rep.max_residual <= 1e-10
    # the included users must form a prefix of the ordering
    included = alloc.p[_case3_order(s, mu)] > ACTIVE_TOL
    if included.any():
        last = int(np.max(np.nonzero(included)[0]))
        assert included[:last + 1].all()


@settings(deadline=None, max_examples=60, derandomize=True)
@given(data=st.data(), K=st.integers(1, 3), M=st.integers(1, 2))
def test_case4_feasibility_and_certificate(data, K, M):
    s = _random_instance(data.draw, K, M)
    caps = np.array([data.draw(finite_pos) for _ in range(K)])
    gam = np.array([data.draw(finite_pos) for _ in range(M)])
    alloc, rep = solve_state_case4(s, caps, gam)
    assert (alloc.p >= 0).all()
    assert (alloc.p <= caps * (1 + 1e-9)).all()
    assert (s.g.T @ alloc.p <= gam * (1 + 1e-9)).all()
    assert rep.max_residual <= 1e-8


@settings(deadline=None, max_examples=40, derandomize=True)
@given(data=st.data(), n=st.integers(2, 6))
def test_scalar_and_batch_agree(data, n):
    K, M = 2, 1
    H = np.array([[data.draw(finite_pos) for _ in range(K)] for _ in range(n)])
    G = np.array([[[data.draw(finite_pos)] for _ in range(K)] for _ in range(n)])
    lam = np.array([data.draw(finite_pos) for _ in range(K)])
    mu = np.array([data.draw(finite_pos) for _ in range(M)])
    caps = np.array([data.draw(finite_pos) for _ in range(K)])
    gam = np.array([data.draw(finite_pos) for _ in range(M)])

    P1 = solve_states_case1(H, G, lam, mu)
    P2 = solve_states_case2(H, G, lam, gam)
    P3 = solve_states_case3(H, G, mu, caps)
    P4 = solve_states_case4(H, G, caps, gam)
    for t in range(n):
        s = _state(H[t], G[t])
        np.testing.assert_allclose(
            solve_state_case1(s, lam, mu)[0].p, P1[t], atol=1e-12)
        np.testing.assert_allclose(
            solve_state_case2(s, lam, gam)[0].p, P2[t], atol=1e-12)
        np.testing.assert_allclose(
            solve_state_case3(s, mu, caps)[0].p, P3[t], atol=1e-12)
        np.testing.assert_allclose(
            solve_state_case4(s, caps, gam)[0].p, P4[t], atol=1e-12)


# ---------------------------------------------------------------------------
# Group 4: ties, degeneracies, unbounded subproblems


def test_case1_tie_breaks_to_lowest_index():
    s = _state([2.0, 2.0], [[1.0], [1.0]])
    alloc, _ = solve_state_case1(s, np.array([1.0, 1.0]), np.array([0.0]))
    assert alloc.active_set == (0,)
    np.testing.assert_allclose(alloc.p, [0.5, 0.0], atol=1e-15)


def test_case3_tie_breaks_to_lowest_index():
    s = _state([2.0, 2.0], [[1.0], [1.0]])
    alloc, _ = solve_state_case3(s, np.array([0.8]), np.array([10.0, 10.0]))
    assert list(_case3_order(s, np.array([0.8]))) == [0, 1]
    assert alloc.p[0] > 0


def test_case1_unbounded_raises():
    H = np.array([[1.0, 2.0]])
    G = np.zeros((1, 2, 1))
    with pytest.raises(UnboundedSubproblemError):
        solve_states_case1(H, G, np.zeros(2), np.zeros(1))


def test_case2_unbounded_raises():
    H = np.array([[1.0, 2.0]])
    G = np.zeros((1, 2, 1))
    with pytest.raises(UnboundedSubproblemError):
        solve_states_case2(H, G, np.zeros(2), np.ones(1))


def test_case3_infinite_ratio_user_still_capped():
    """A zero interference price cannot unbound the problem because the
    per-user caps always bind."""
    s = _state([3.0, 1.0], [[0.0], [1.0]])
    alloc, _ = solve_state_case3(s, np.array([0.7]), np.array([2.0, 2.0]))
    assert alloc.p[0] == 2.0


def test_zero_gain_user_stays_silent():
    s = _state([0.0, 1.0], [[1.0], [1.0]])
    alloc, _ = solve_state_case1(s, np.array([0.5, 0.5]), np.array([0.2]))
    assert alloc.p[0] == 0.0


# ---------------------------------------------------------------------------
# Group 5: single-user shortcut checks


def test_tdma_check_case2_positive():
    """Strongest user also cheapest: single-user optimum is certified."""
    s = _state([5.0, 1.0], [[1.0], [1.0]])
    lam = np.array([0.2, 0.9])
    gam = np.array([10.0])
    hit = check_tdma_case2(s, lam, gam)
    assert hit is not None
    i, p = hit
    assert i == 0
    alloc, _ = solve_state_case2(s, lam, gam)
    want = np.zeros(2)
    want[i] = p
    np.testing.assert_allclose(alloc.p, want, atol=1e-8)


def test_tdma_check_case2_negative_on_shared_optimum():
    s = _state([3.0, 4.5], [[1.0], [2.0]])
    hit = check_tdma_case2(s, np.array([0.25, 0.125]), np.array([1.1]))
    assert hit is None


def test_tdma_check_case3():
    s = _state([4.0, 2.0], [[1.0], [1.0]])
    # partial-fill frozen instance has two users: the test must say no
    assert check_tdma_case3(s, np.array([0.5]), np.array([0.3, 1.0])) is None
    # tiny first cap leaves the threshold unmet for the runner-up
    hit = check_tdma_case3(s, np.array([0.5]), np.array([10.0, 1.0]))
    assert hit is not None
    i, p = hit
    alloc, _ = solve_state_case3(s, np.array([0.5]), np.array([10.0, 1.0]))
    want = np.zeros(2)
    want[i] = p
    np.testing.assert_allclose(alloc.p, want, atol=1e-10)


def test_tdma_check_case4():
    s = _state([5.0, 0.5], [[2.0], [1.0]])
    caps = np.array([10.0, 10.0])
    gam = np.array([1.0])
    hit = check_tdma_case4(s, caps, gam)
    assert hit is not None
    i, p = hit
    assert i == 0 and abs(p - 0.5) < 1e-12
    alloc, _ = solve_state_case4(s, caps, gam)
    want = np.zeros(2)
    want[i] = p
    np.testing.assert_allclose(alloc.p, want, atol=1e-10)


def test_tdma_check_case2_warns_on_multiple_satisfiers(caplog):
    """Two identical cap-limited users both satisfy the certificate;
    the lower index is returned and the ambiguity is logged."""
    s = _state([5.0, 5.0], [[1.0], [1.0]])
    lam = np.array([0.2, 0.2])
    with caplog.at_level(logging.WARNING, logger="crsum.perstate_mac"):
        hit = check_tdma_case2(s, lam, np.array([1.0]))
    assert hit is not None
    assert hit[0] == 0 and abs(hit[1] - 1.0) < 1e-12
    assert any("satisfy" in rec.message for rec in caplog.records)
    alloc, _ = solve_state_case2(s, lam, np.array([1.0]))
    np.testing.assert_allclose(alloc.p, [1.0, 0.0], atol=1e-10)


@pytest.mark.parametrize("part", range(7))
def test_a_nan_in_any_kkt_part_fails_certify(part, monkeypatch):
    """`_certify` reduces the case-4 KKT parts (need, three |multiplier *
    slack| arrays, three violations) in one pass; a NaN in any of them
    fails the audit."""
    rng = np.random.default_rng(part)
    H, G = rng.exponential(1.0, (5, 3)), rng.exponential(1.0, (5, 3, 2))
    solve_states_case4(H, G, np.ones(3), np.ones(2))      # clean: certified
    kkt = perstate_mac._kkt

    def poisoned(*args):
        need, cs, primal = kkt(*args)
        [need, *cs, *primal][part].flat[-1] = np.nan
        return need, cs, primal
    monkeypatch.setattr(perstate_mac, "_kkt", poisoned)
    with pytest.raises(SolverFailureError, match="KKT residual nan"):
        solve_states_case4(H, G, np.ones(3), np.ones(2))

