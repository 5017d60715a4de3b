"""Case-2 and case-4 solvers with one interference cap.

With M = 1, `solve_states_case2` is the parametric simplex sweep it
runs at every M, and `solve_states_case4` is a fractional knapsack.
Both are checked against the enumerations in `enum_oracles` called
here at M = 1, against their own KKT reports, and on degenerate
states.
"""

import numpy as np
import pytest

from crsum import UnboundedSubproblemError
from crsum.fading import ChannelStateMac
from crsum.perstate_mac import (ACTIVE_TOL, check_tdma_case2, kkt_report_case2,
                                kkt_report_case4, solve_state_case2,
                                solve_states_case2, solve_states_case4)
from enum_oracles import _case2_enumerate, _case4_enumerate


def _batch(seed, n, K):
    rng = np.random.Generator(np.random.Philox(key=seed))
    H = rng.exponential(1.0, (n, K))
    G = rng.exponential(1.0, (n, K, 1))
    return (H, G, rng.uniform(0.05, 1.5, K), rng.uniform(0.3, 3.0, K),
            rng.uniform(0.3, 2.0, 1))


def _case2_obj(H, P, lam):
    LAM = np.broadcast_to(lam, H.shape)
    return np.log1p(np.einsum("nk,nk->n", H, P)) - np.einsum("nk,nk->n", LAM, P)


def _worst_kkt2(H, G, lam, gamma, P, MU):
    LAM = np.broadcast_to(lam, H.shape)
    GAM = np.broadcast_to(gamma, (len(H), 1))
    return max(kkt_report_case2(H[i], G[i], LAM[i], GAM[i], P[i],
                                MU[i]).max_residual for i in range(len(H)))


def _worst_kkt4(H, G, p_st, gamma, P, LAM, MU):
    return max(kkt_report_case4(H[i], G[i], p_st, gamma, P[i], LAM[i],
                                MU[i]).max_residual for i in range(len(H)))


def _check_case2(H, G, lam, gamma):
    P, MU = solve_states_case2(H, G, lam, gamma, want_multipliers=True)
    P_ref, _ = _case2_enumerate(H, G, lam, gamma)
    np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(_case2_obj(H, P, lam), _case2_obj(H, P_ref, lam),
                               rtol=0, atol=1e-12)
    cap = np.broadcast_to(gamma, (len(H), 1))[:, 0]
    assert (np.einsum("nk,nk->n", P, G[:, :, 0]) <= cap * (1 + 1e-12)).all()
    assert ((P > ACTIVE_TOL).sum(axis=1) <= 2).all()
    assert _worst_kkt2(H, G, lam, gamma, P, MU) <= 1e-8


def _check_case4(H, G, p_st, gamma):
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    P_ref, _, _ = _case4_enumerate(H, G, p_st, gamma)
    np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-12)
    assert _worst_kkt4(H, G, p_st, gamma, P, LAM, MU) <= 1e-8


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_case2_matches_enumeration(K):
    H, G, lam, _, gamma = _batch(K, 500, K)
    _check_case2(H, G, lam, gamma)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_case4_matches_enumeration(K):
    H, G, _, p_st, gamma = _batch(100 + K, 500, K)
    _check_case4(H, G, p_st, gamma)


def test_per_state_prices_and_caps():
    H, G, _, _, _ = _batch(7, 500, 3)
    rng = np.random.Generator(np.random.Philox(key=8))
    _check_case2(H, G, rng.uniform(0.05, 1.5, (500, 3)),
                 rng.uniform(0.3, 2.0, (500, 1)))


def test_twenty_users():
    H, G, lam, p_st, gamma = _batch(2020, 200, 20)
    _check_case2(H, G, lam, gamma)
    _check_case4(H, G, p_st, gamma)


def _degenerate():
    """(H, G, lam, p_st, gamma): states where users tie, gains or
    prices vanish, or caps sit exactly at a water level."""
    ones = np.ones(3)
    G1 = np.ones((3, 3, 1))
    yield pytest.param(np.array([[1.0], [2.0], [0.5]]) * ones, G1,
                       0.3 * ones, ones, np.array([1.5]),
                       id="identical users")
    H = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
    G = np.array([[[1.0], [0.5], [2.0]]] * 3)
    yield pytest.param(H, G, 0.3 * ones, ones, np.array([1.5]),
                       id="zero direct gains")
    H = np.array([[2.0, 1.0, 3.0], [0.5, 4.0, 1.0]])
    G = np.array([[[0.0], [1.0], [2.0]], [[0.0], [0.5], [1.0]]])
    yield pytest.param(H, G, np.array([0.4, 0.2, 0.3]), ones,
                       np.array([1.0]), id="zero interference gain")
    H = np.array([[2.0, 1.0, 3.0], [0.5, 4.0, 1.0]])
    G = np.array([[[1.0], [1.0], [2.0]], [[2.0], [0.5], [1.0]]])
    yield pytest.param(H, G, np.array([0.0, 0.2, 0.3]), ones,
                       np.array([1.0]), id="zero price, capped")
    yield pytest.param(H, G, np.zeros(3), ones, np.array([1.0]),
                       id="all prices zero")
    # user 0 alone: 1/lam - 1/h = 2 - 0.5 = 1.5 = gamma / g
    H = np.array([[2.0, 0.5, 0.2], [2.0, 1.0, 1.5]])
    G = np.array([[[1.0], [1.0], [1.0]], [[1.0], [2.0], [0.5]]])
    yield pytest.param(H, G, np.array([0.5, 0.5, 0.5]), ones,
                       np.array([1.5]), id="cap at the water level")
    H, G, lam, p_st, _ = _batch(3, 200, 3)
    yield pytest.param(H, G, lam, p_st, np.array([1e6]), id="loose cap")
    yield pytest.param(H, G, lam, p_st, np.array([1e-6]), id="tight cap")
    yield pytest.param(H, 1e-7 * G, lam, p_st, np.array([1e3]),
                       id="tiny interference gains")


@pytest.mark.parametrize("H,G,lam,p_st,gamma", list(_degenerate()))
def test_degenerate_states(H, G, lam, p_st, gamma):
    _check_case2(H, G, lam, gamma)
    _check_case4(H, G, p_st, gamma)


def test_case4_zero_gain_user_stays_silent_and_free_user_fills():
    """h_k = 0 sends nothing; g_k = 0 with h_k > 0 sits at its cap."""
    H = np.array([[0.0, 1.0, 2.0]])
    G = np.array([[[0.0], [0.0], [1.0]]])
    P = solve_states_case4(H, G, np.array([1.0, 2.0, 3.0]), np.array([1.0]))
    np.testing.assert_allclose(P[0], [0.0, 2.0, 1.0], atol=1e-15)


def test_case2_free_user_is_unbounded():
    H = np.array([[1.0, 2.0]])
    G = np.array([[[0.0], [1.0]]])
    with pytest.raises(UnboundedSubproblemError) as info:
        solve_states_case2(H, G, np.array([0.0, 0.5]), np.array([1.0]))
    assert info.value.user_index == 0


def test_tdma_check_hits_exactly_single_user_optima():
    rng = np.random.Generator(np.random.Philox(key=42))
    hits = 0
    for _ in range(400):
        K = int(rng.integers(2, 5))
        s = ChannelStateMac(h=rng.exponential(1.0, K),
                            g=rng.exponential(1.0, (K, 1)))
        lam = rng.uniform(0.05, 1.5, K)
        gam = rng.uniform(0.3, 2.0, 1)
        alloc, _ = solve_state_case2(s, lam, gam)
        hit = check_tdma_case2(s, lam, gam)
        one = len(alloc.active_set) == 1
        assert (hit is not None and hit[1] > ACTIVE_TOL) == one
        if one:
            want = np.zeros(K)
            want[hit[0]] = hit[1]
            np.testing.assert_allclose(alloc.p, want, atol=1e-8)
            hits += 1
    assert 0 < hits < 400


def test_thousand_users_one_cap():
    """M = 1 needs no size guard: case 2 at K = 1000 is one sweep over
    a 1 x 1001 tableau per state."""
    H, G, lam, p_st, gamma = _batch(1000, 1, 1000)
    P, MU = solve_states_case2(H, G, lam, gamma, want_multipliers=True)
    assert (P > ACTIVE_TOL).sum() <= 2
    assert _worst_kkt2(H, G, lam, gamma, P, MU) <= 1e-8
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    assert _worst_kkt4(H, G, p_st, gamma, P, LAM, MU) <= 1e-8
