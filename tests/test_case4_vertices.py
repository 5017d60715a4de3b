"""Case-4 per-state solver against independent references.

The solver enumerates dual vertices of the linear program
max h.p s.t. 0 <= p <= p_st, G^T p <= gamma and derives the users at
cap from reduced-gain signs. It is checked against
 1. the exhaustive KKT active-set enumeration it replaced (every set
    of users at cap is tried; exponential in K, so small K only),
 2. scipy's linprog on the same linear program (skipped without scipy),
 3. its own KKT report, on random and on degenerate states.
"""

import itertools
import math

import numpy as np
import pytest

from crsum import UsageError
from crsum.perstate_mac import (_Pool, _rel_neg, _screened_solve,
                                kkt_report_case4, solve_states_case2,
                                solve_states_case4)


def exhaustive_case4(H, G, p_st, gamma):
    """Reference case-4 solver: enumerate binding caps A, fractional
    users B (|B| = |A|) and every subset U of the rest at cap."""
    n, K = H.shape
    M = G.shape[2]
    GAM = np.broadcast_to(np.asarray(gamma, dtype=float), (n, M))
    caps = np.broadcast_to(np.asarray(p_st, dtype=float), (n, K))
    pool = _Pool(n, K, M)

    P0 = np.where(H > 0.0, caps, 0.0)
    sumh0 = np.einsum("nk,nk->n", H, P0)
    over0 = np.maximum((np.einsum("nk,nkm->nm", P0, G) - GAM) / GAM,
                       0.0).max(axis=1)
    pool.offer(P0, np.zeros((n, M)), H / (1.0 + sumh0)[:, None], over0,
               np.log1p(sumh0))

    users = range(K)
    for a in range(1, min(K, M) + 1):
        for A in map(list, itertools.combinations(range(M), a)):
            for B in map(list, itertools.combinations(users, a)):
                rest = [k for k in users if k not in B]
                for U in (list(U) for r in range(len(rest) + 1)
                          for U in itertools.combinations(rest, r)):
                    Z = [k for k in rest if k not in U]
                    GBA = G[:, B][:, :, A]
                    rhs = GAM[:, A] - np.einsum("nk,nkm->nm", caps[:, U],
                                                G[:, U][:, :, A])
                    pB, bad = _screened_solve(np.swapaxes(GBA, 1, 2), rhs)
                    sumh = np.einsum("nk,nk->n", H[:, B], pB) \
                        + np.einsum("nk,nk->n", H[:, U], caps[:, U])
                    with np.errstate(divide="ignore", invalid="ignore"):
                        t = 1.0 / (1.0 + sumh)
                        mu_A, bad2 = _screened_solve(GBA, H[:, B] * t[:, None])
                    bad |= bad2
                    P = np.zeros((n, K))
                    P[:, B] = pB
                    P[:, U] = caps[:, U]
                    MU = np.zeros((n, M))
                    MU[:, A] = mu_A
                    price = np.einsum("nkm,nm->nk", G, MU)
                    LAM = np.zeros((n, K))
                    over = np.maximum((np.einsum("nk,nkm->nm", P, G) - GAM)
                                      / GAM, 0.0)
                    over[:, A] = 0.0
                    with np.errstate(invalid="ignore"):
                        LAM[:, U] = H[:, U] * t[:, None] - price[:, U]
                        viol = np.max(np.stack([
                            _rel_neg(pB), _rel_neg(caps[:, B] - pB),
                            _rel_neg(mu_A), _rel_neg(LAM[:, U]),
                            _rel_neg(price[:, Z] - H[:, Z] * t[:, None]),
                            over.max(axis=1)]), axis=0)
                        obj = np.log1p(np.maximum(sumh, -0.5))
                    viol = np.where(bad, np.inf, viol)
                    obj = np.where(bad | ~np.isfinite(obj), -np.inf, obj)
                    pool.offer(P, MU, LAM, viol, obj)
    P, MU, LAM = pool.resolve("exhaustive case-4")
    return np.minimum(P, caps), LAM, MU


def _batch(seed, n, K, M):
    rng = np.random.Generator(np.random.Philox(key=seed))
    H = rng.exponential(1.0, (n, K))
    G = rng.exponential(1.0, (n, K, M))
    return H, G, rng.uniform(0.3, 3.0, K), rng.uniform(0.5, 2.0, M)


def _rates(H, P):
    return np.log1p(np.einsum("nk,nk->n", H, P))


def _worst_kkt(H, G, p_st, gamma, P, LAM, MU):
    return max(kkt_report_case4(H[i], G[i], p_st, gamma, P[i], LAM[i],
                                MU[i]).max_residual for i in range(len(H)))


def _degenerate_batches():
    """States where reduced gains tie, gains vanish or caps meet."""
    ones = np.ones(3)
    yield pytest.param(np.array([[1.0], [2.0], [0.5]]) * ones,
                       np.ones((3, 3, 1)), ones, np.array([1.5]),
                       id="identical users")
    H = np.array([[2.0, 2.0, 1.0], [1.5, 1.5, 1.5]])
    G = np.array([[[1.0, 2.0], [1.0, 2.0], [0.5, 1.0]],
                  [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]])
    yield pytest.param(H, G, ones, np.array([1.5, 2.5]),
                       id="identical users, two caps")
    H = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
    G = np.array([[[1.0], [1.0], [1.0]]] * 3)
    yield pytest.param(H, G, ones, np.array([1.5]), id="zero gains")
    H = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]])
    G = np.array([[[0.0, 1.0], [0.0, 2.0], [0.0, 1.0]],
                  [[1.0, 0.0], [0.5, 0.0], [2.0, 0.0]]])
    yield pytest.param(H, G, ones, np.array([1.0, 1.0]), id="zero columns of G")
    H = np.array([[2.0, 1.0, 3.0]])
    G = np.array([[[1.0], [1.0], [2.0]]])
    yield pytest.param(H, G, ones, np.array([1.0]), id="cap ties a power cap")
    yield pytest.param(H, G, ones, np.array([4.0]), id="cap ties the full box")
    H = np.array([[1.0, 2.0, 1.0]])
    G = np.array([[[1.0, 0.5], [2.0, 1.0], [1.0, 0.5]]])
    yield pytest.param(H, G, ones, np.array([2.0, 1.0]), id="parallel caps")


# ---------------------------------------------------------------------------


@pytest.mark.parametrize("K,M", [(1, 1), (2, 1), (3, 2), (4, 2), (2, 3)])
def test_matches_exhaustive_enumeration(K, M):
    H, G, p_st, gamma = _batch(10 * K + M, 300, K, M)
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    P_ref, _, _ = exhaustive_case4(H, G, p_st, gamma)
    np.testing.assert_allclose(_rates(H, P), _rates(H, P_ref),
                               rtol=0, atol=1e-12)
    assert _worst_kkt(H, G, p_st, gamma, P, LAM, MU) <= 1e-8


@pytest.mark.parametrize("K,M", [(3, 1), (5, 2), (8, 2), (6, 3), (8, 3)])
def test_matches_linprog(K, M):
    optimize = pytest.importorskip("scipy.optimize")
    H, G, p_st, gamma = _batch(100 * K + M, 60, K, M)
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    for i in range(len(H)):
        lp = optimize.linprog(-H[i], A_ub=G[i].T, b_ub=gamma,
                              bounds=list(zip(np.zeros(K), p_st)),
                              method="highs")
        assert lp.status == 0
        assert abs(np.log1p(H[i] @ P[i]) - np.log1p(-lp.fun)) <= 1e-12
    assert _worst_kkt(H, G, p_st, gamma, P, LAM, MU) <= 1e-8


@pytest.mark.parametrize("H,G,p_st,gamma", list(_degenerate_batches()))
def test_degenerate_states(H, G, p_st, gamma):
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    P_ref, _, _ = exhaustive_case4(H, G, p_st, gamma)
    np.testing.assert_allclose(_rates(H, P), _rates(H, P_ref),
                               rtol=0, atol=1e-12)
    assert _worst_kkt(H, G, p_st, gamma, P, LAM, MU) <= 1e-8


def test_identical_users_fill_lowest_index_first():
    H = np.ones((1, 3))
    G = np.ones((1, 3, 1))
    P = solve_states_case4(H, G, np.ones(3), np.array([1.5]))
    np.testing.assert_allclose(P[0], [1.0, 0.5, 0.0], atol=1e-15)


def test_many_users_one_cap():
    """K=20, M=1 needs 20 vertices; the exhaustive search needs 10^7."""
    H, G, p_st, gamma = _batch(2020, 200, 20, 1)
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    assert _worst_kkt(H, G, p_st, gamma, P, LAM, MU) <= 1e-8
    # one cap: fill users by h_k / g_k until the cap binds
    for i in range(len(H)):
        order = np.argsort(-H[i] / G[i, :, 0], kind="stable")
        left, want = gamma[0], np.zeros(20)
        for k in order:
            want[k] = min(p_st[k], left / G[i, k, 0])
            left -= want[k] * G[i, k, 0]
        assert abs(np.log1p(H[i] @ P[i]) - np.log1p(H[i] @ want)) <= 1e-12


@pytest.mark.parametrize("solve", [
    lambda H, G: solve_states_case2(H, G, np.ones(H.shape[1]),
                                    np.ones(G.shape[2])),
    lambda H, G: solve_states_case4(H, G, np.ones(H.shape[1]),
                                    np.ones(G.shape[2])),
], ids=["case2", "case4"])
def test_size_guard_before_any_work(solve):
    K, M = 60, 12
    assert math.comb(K + M, M) > 10 ** 12
    with pytest.raises(UsageError, match="too large"):
        solve(np.ones((1, K)), np.ones((1, K, M)))
