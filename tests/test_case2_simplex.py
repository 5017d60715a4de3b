"""Case-2 parametric simplex sweep against the KKT active-set enumeration.

At every M, `solve_states_case2` sweeps the rate slope t = 1/(1+h.p)
on the case-4 simplex pivot. It is checked against `_case2_enumerate`
(`enum_oracles`; exponential in K and M, so small instances only),
including the enumeration's M = 1 optimum on caps duplicated into
M = 2, against case 1 at M = 0, and against its own KKT report.
"""

import numpy as np
import pytest

from crsum import UnboundedSubproblemError
from crsum.perstate_mac import (kkt_report_case2, solve_states_case1,
                                solve_states_case2)
from enum_oracles import _case2_enumerate
from test_single_cap import _degenerate


def _batch(seed, n, K, M):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return (rng.exponential(1.0, (n, K)), rng.exponential(1.0, (n, K, M)),
            rng.uniform(0.05, 1.5, K), rng.uniform(0.3, 2.0, M))


def _objective(H, P, lam):
    return np.log1p(np.einsum("nk,nk->n", H, P)) - np.einsum(
        "nk,nk->n", np.broadcast_to(lam, H.shape), P)


def _solve_and_audit(H, G, lam, gamma):
    """The sweep's allocation, after its KKT report passes at 1e-8."""
    P, MU = solve_states_case2(H, G, lam, gamma, want_multipliers=True)
    LAM = np.broadcast_to(lam, H.shape)
    GAM = np.broadcast_to(gamma, (len(H), G.shape[2]))
    assert max(kkt_report_case2(H[i], G[i], LAM[i], GAM[i], P[i],
                                MU[i]).max_residual for i in range(len(H))) <= 1e-8
    return P


@pytest.mark.parametrize("K,M", [(1, 2), (2, 2), (3, 2), (4, 2), (6, 2),
                                 (2, 3), (3, 3), (5, 3), (6, 3),
                                 (1, 0), (3, 0), (6, 0)])
def test_matches_enumeration(K, M):
    """Random states have a unique optimum: P and the objective agree."""
    H, G, lam, gamma = _batch(700 + 10 * K + M, 300, K, M)
    P = _solve_and_audit(H, G, lam, gamma)
    P_ref, _ = _case2_enumerate(H, G, lam, gamma)
    np.testing.assert_allclose(_objective(H, P, lam), _objective(H, P_ref, lam),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(P, P_ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("H,G,lam,p_st,gamma", list(_degenerate()))
def test_degenerate_states_with_duplicated_cap(H, G, lam, p_st, gamma):
    """Each cap twice (M = 2): every pivot meets a ratio tie. The optimum
    may not be unique, so only the objective is compared, with the
    enumeration on the duplicated caps and on the original cap."""
    G2, gamma2 = np.concatenate([G, G], axis=2), np.concatenate([gamma, gamma])
    P = _solve_and_audit(H, G2, lam, gamma2)
    for P_ref in (_case2_enumerate(H, G2, lam, gamma2)[0],
                  _case2_enumerate(H, G, lam, gamma)[0]):
        np.testing.assert_allclose(_objective(H, P, lam), _objective(H, P_ref, lam),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("M", [0, 2, 3])
def test_user_without_gain_or_price_sends_nothing(M):
    """h_k = lam_k = 0 and g_k = 0: the user gains nothing from power."""
    H, G, lam, gamma = _batch(40 + M, 200, 4, M)
    H[:, 1], G[:, 1], lam[1] = 0.0, 0.0, 0.0
    P = _solve_and_audit(H, G, lam, gamma)
    assert np.all(P[:, 1] == 0.0)
    keep = [0, 2, 3]
    P_ref, _ = _case2_enumerate(H[:, keep], G[:, keep], lam[keep], gamma)
    np.testing.assert_allclose(P[:, keep], P_ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("K", [1, 2, 5, 20])
def test_no_caps_is_case1(K):
    """M = 0: the best h_k / lam_k user water-fills, as in case 1 at mu = 0."""
    H, G, lam, _ = _batch(60 + K, 500, K, 0)
    P = _solve_and_audit(H, G, lam, np.zeros(0))
    P1 = solve_states_case1(H, G, lam, np.zeros(0))
    np.testing.assert_array_equal(P > 0.0, P1 > 0.0)
    np.testing.assert_allclose(P, P1, rtol=0, atol=1e-12)


def test_unpriced_user_is_unbounded():
    """lam_k = 0 and g_k = 0 with h_k > 0: the rate grows without bound."""
    H, G, lam, gamma = _batch(5, 20, 3, 2)
    G[7, 2], lam[2] = 0.0, 0.0
    with pytest.raises(UnboundedSubproblemError) as info:
        solve_states_case2(H, G, lam, gamma)
    assert (info.value.state_index, info.value.user_index) == (7, 2)
