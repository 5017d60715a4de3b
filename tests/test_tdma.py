"""Single-user (time-sharing) per-state solvers.

The case-1 variant must coincide exactly with the unrestricted solver;
the others must never beat it and must agree with an exhaustive
per-user search.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crsum import (ConstraintCase, FadingModel, PowerBudget,
                   UnboundedSubproblemError, UsageError, sample_mac_states,
                   mac_arrays)
from crsum.fading import ChannelStateBc, ChannelStateMac
from crsum.perstate_bc import solve_state_bc, solve_states_bc
from crsum.perstate_mac import (solve_states_case1, solve_states_case2,
                                solve_states_case3, solve_states_case4)
from crsum.tdma import (solve_states, tdma_state_case2, tdma_state_case3,
                        tdma_state_case4, tdma_states_case2,
                        tdma_states_case3, tdma_states_case4)

finite_pos = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def _ensemble(n=40, K=3, M=2, seed=77):
    states = sample_mac_states(FadingModel(K=K, M=M, n_states=n, seed=seed))
    return mac_arrays(states)


def test_case1_restriction_is_free():
    """The unrestricted case-1 optimum is already single-user, so the
    TDMA mode must return bit-identical allocations."""
    H, G = _ensemble()
    lam = np.array([0.5, 0.7, 0.9])
    mu = np.array([0.3, 0.4])
    budget = PowerBudget.symmetric(3, 2, p=1.0, gamma=1.0)
    P_free = solve_states_case1(H, G, lam, mu)
    P_tdma = solve_states(ConstraintCase.I, H, G, lam, mu, budget,
                          tdma_mode=True)
    assert np.array_equal(P_free, P_tdma)


def _lagrangian(H, P, prices):
    return np.log1p((H * P).sum(axis=1)) - (P * prices).sum(axis=1)


def test_case2_never_beats_unrestricted():
    H, G = _ensemble(seed=78)
    lam = np.array([0.4, 0.4, 0.4])
    gam = np.array([0.8, 1.1])
    P_free = solve_states_case2(H, G, lam, gam)
    P_tdma = tdma_states_case2(H, G, lam, gam)
    assert ((P_tdma > 0).sum(axis=1) <= 1).all()
    v_free = _lagrangian(H, P_free, lam[None, :])
    v_tdma = _lagrangian(H, P_tdma, lam[None, :])
    assert (v_tdma <= v_free + 1e-9).all()
    # interference feasibility per state
    assert (np.einsum("nk,nkm->nm", P_tdma, G) <= gam[None, :] + 1e-9).all()


def test_case2_matches_exhaustive_single_user():
    H, G = _ensemble(n=60, seed=79)
    lam = np.array([0.3, 0.5, 0.2])
    gam = np.array([0.9, 0.7])
    P = tdma_states_case2(H, G, lam, gam)
    n, K = H.shape
    for t in range(n):
        best = 0.0
        for k in range(K):
            cap = np.min(np.where(G[t, k] > 0, gam / G[t, k], np.inf))
            if lam[k] > 0:
                p = min(max(1.0 / lam[k] - 1.0 / H[t, k], 0.0), cap)
            else:
                p = cap
            best = max(best, np.log1p(H[t, k] * p) - lam[k] * p)
        got = _lagrangian(H[t:t + 1], P[t:t + 1], lam[None, :])[0]
        assert got >= best - 1e-10


def test_case3_picks_best_single_user():
    H, G = _ensemble(n=60, seed=80)
    mu = np.array([0.25, 0.4])
    caps = np.array([0.8, 1.2, 0.5])
    P = tdma_states_case3(H, G, mu, caps)
    assert ((P > 0).sum(axis=1) <= 1).all()
    assert (P <= caps[None, :] + 1e-12).all()
    W = G @ mu
    n, K = H.shape
    for t in range(n):
        vals = []
        for k in range(K):
            if W[t, k] > 0:
                p = min(max(1.0 / W[t, k] - 1.0 / H[t, k], 0.0), caps[k])
            else:
                p = caps[k]
            vals.append(np.log1p(H[t, k] * p) - W[t, k] * p)
        got = np.log1p((H[t] * P[t]).sum()) - (W[t] * P[t]).sum()
        assert got >= max(vals) - 1e-10


def test_case4_picks_best_single_user():
    H, G = _ensemble(n=60, seed=81)
    caps = np.array([0.8, 1.2, 0.5])
    gam = np.array([1.0, 0.6])
    P = tdma_states_case4(H, G, caps, gam)
    assert ((P > 0).sum(axis=1) <= 1).all()
    n, K = H.shape
    for t in range(n):
        best = 0.0
        for k in range(K):
            cap = min(np.min(np.where(G[t, k] > 0, gam / G[t, k], np.inf)),
                      caps[k])
            best = max(best, np.log1p(H[t, k] * cap))
        assert np.log1p((H[t] * P[t]).sum()) >= best - 1e-10


def test_scalar_wrappers():
    s = ChannelStateMac(h=np.array([2.0, 3.0]), g=np.array([[1.0], [2.0]]))
    a2 = tdma_state_case2(s, np.array([0.5, 0.5]), np.array([1.0]))
    a3 = tdma_state_case3(s, np.array([0.5]), np.array([1.0, 1.0]))
    a4 = tdma_state_case4(s, np.array([1.0, 1.0]), np.array([1.0]))
    for a in (a2, a3, a4):
        assert (a.p >= 0).all()
        assert (a.p > 0).sum() <= 1
        assert len(a.active_set) <= 1
    # a zero per-state cap is refused, as by the unrestricted solvers
    for call in (lambda: tdma_state_case2(s, np.array([0.5, 0.5]), np.zeros(1)),
                 lambda: tdma_state_case3(s, np.array([0.5]), np.zeros(2)),
                 lambda: tdma_state_case4(s, np.zeros(2), np.ones(1)),
                 lambda: tdma_state_case4(s, np.ones(2), np.zeros(1))):
        with pytest.raises(UsageError, match="must be strictly positive"):
            call()


@settings(deadline=None, max_examples=40, derandomize=True)
@given(data=st.data())
def test_tdma_dominated_by_full_solver(data):
    """Restricted per-state value never exceeds the unrestricted one
    under the same prices (case 2) or caps (cases 3, 4)."""
    K, M = 3, 1
    H = np.array([[data.draw(finite_pos) for _ in range(K)]])
    G = np.array([[[data.draw(finite_pos)] for _ in range(K)]])
    lam = np.array([data.draw(finite_pos) for _ in range(K)])
    gam = np.array([data.draw(finite_pos)])
    caps = np.array([data.draw(finite_pos) for _ in range(K)])
    mu = np.array([data.draw(finite_pos)])

    f2 = _lagrangian(H, solve_states_case2(H, G, lam, gam), lam[None, :])[0]
    t2 = _lagrangian(H, tdma_states_case2(H, G, lam, gam), lam[None, :])[0]
    assert t2 <= f2 + 1e-9

    W = (G @ mu)
    P3f = solve_states_case3(H, G, mu, caps)
    P3t = tdma_states_case3(H, G, mu, caps)
    f3 = np.log1p((H * P3f).sum()) - (W * P3f).sum()
    t3 = np.log1p((H * P3t).sum()) - (W * P3t).sum()
    assert t3 <= f3 + 1e-9

    r4f = np.log1p((H * solve_states_case4(H, G, caps, gam)).sum())
    r4t = np.log1p((H * tdma_states_case4(H, G, caps, gam)).sum())
    assert r4t <= r4f + 1e-9


@pytest.mark.parametrize("case", list(ConstraintCase))
def test_ties_go_to_user_zero(case):
    """Users with identical gains, prices and caps tie in every case; the
    lone-user pick, and the BC's served user, is then user 0."""
    n, K, M = 5, 3, 2
    h = np.linspace(0.5, 4.0, n)
    H = np.repeat(h[:, None], K, axis=1)
    G = np.repeat(np.linspace(0.2, 1.5, n * M).reshape(n, 1, M), K, axis=1)
    budget = PowerBudget.symmetric(K, M, p=1.0, gamma=0.8, q=1.0)
    lam, mu = np.full(K, 0.3), np.array([0.2, 0.1])
    P = solve_states(case, H, G, lam, mu, budget, tdma_mode=True)
    assert (P[:, 0] > 0).all()
    assert not P[:, 1:].any()
    q, user = solve_states_bc(H, G[:, 0, :], case, 0.3, mu, budget)
    assert (q > 0).all()
    assert not user.any()
    assert solve_state_bc(ChannelStateBc(h=H[0], f=G[0, 0]), case, 0.3, mu,
                          budget).user == 0


@pytest.mark.parametrize("case", list(ConstraintCase))
def test_gainless_state_stays_silent(case):
    """A state without gain sends nothing, restricted or not, even at a
    zero price with positive caps (case IV), where every user ties."""
    H, G = _ensemble(n=6, seed=82)
    H = H.copy()
    H[[1, 4]] = 0.0
    H[2, 0] = 0.0
    budget = PowerBudget.symmetric(3, 2, p=1.0, gamma=0.8)
    lam, mu = np.full(3, 0.3), np.array([0.2, 0.1])
    for tdma_mode in (False, True):
        P = solve_states(case, H, G, lam, mu, budget, tdma_mode=tdma_mode)
        assert not P[[1, 4]].any() and P[2, 0] == 0.0


def test_zero_price_without_caps_is_unbounded():
    """Case II at M = 0 has no interference cap: a zero transmit price
    leaves any user with gain unbounded, and the error names the first
    such (state, user)."""
    H = np.array([[0.0, 0.0], [0.0, 2.0], [1.0, 3.0]])
    G = np.zeros((3, 2, 0))
    budget = PowerBudget.symmetric(2, 0, p=1.0, gamma=1.0)
    with pytest.raises(UnboundedSubproblemError) as exc:
        solve_states(ConstraintCase.II, H, G, np.zeros(2), np.zeros(0), budget,
                     tdma_mode=True)
    assert (exc.value.state_index, exc.value.user_index) == (1, 1)
