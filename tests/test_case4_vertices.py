"""Case-4 per-state solver against independent references.

With M >= 2 the solver runs the bounded-variable simplex
`bounded_simplex` on the linear program
max h.p s.t. 0 <= p <= p_st, G^T p <= gamma (M = 1 is a fractional
knapsack). It is checked against
 1. the dual-vertex enumeration it replaced and the exhaustive KKT
    active-set enumeration before that (`enum_oracles`; exponential in
    K and M, so small instances only),
 2. scipy's linprog on the same linear program (skipped without scipy),
 3. its own KKT report, on random and on degenerate states.
No K, M is refused for case 4, nor for case 2, whose sweep pivots the
same tableau (`test_case2_simplex.py`).
"""

import numpy as np
import pytest

from crsum import (ConstraintCase, Ensemble, PowerBudget, SolverFailureError,
                   ergodic_capacity_mac)
from crsum.perstate_mac import (kkt_report_case2, kkt_report_case4,
                                solve_states_case2, solve_states_case4)
from enum_oracles import _case4_enumerate, exhaustive_case4


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


@pytest.mark.parametrize("K,M", [(3, 1), (5, 2), (8, 2), (6, 3), (8, 3), (20, 4)])
def test_matches_linprog(K, M):
    _check_linprog(*_batch(100 * K + M, 60, K, M))


@pytest.mark.parametrize("K,M", [(2, 2), (3, 2), (4, 2), (6, 2), (3, 3), (5, 3), (6, 3)])
def test_matches_vertex_enumeration(K, M):
    H, G, p_st, gamma = _batch(1000 + 10 * K + M, 300, K, M)
    P = solve_states_case4(H, G, p_st, gamma)
    np.testing.assert_allclose(P, _case4_enumerate(H, G, p_st, gamma)[0],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("H,G,p_st,gamma", list(_degenerate_batches()))
def test_degenerate_states(H, G, p_st, gamma):
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    for solve in (exhaustive_case4, _case4_enumerate):
        P_ref, _, _ = solve(H, G, p_st, gamma)
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


def _check_linprog(H, G, p_st, gamma):
    optimize = pytest.importorskip("scipy.optimize")
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    K = H.shape[1]
    for i in range(len(H)):
        lp = optimize.linprog(-H[i], A_ub=G[i].T, b_ub=gamma,
                              bounds=list(zip(np.zeros(K), p_st)),
                              method="highs")
        assert lp.status == 0
        assert abs(np.log1p(H[i] @ P[i]) - np.log1p(-lp.fun)) <= 1e-12
    assert _worst_kkt(H, G, p_st, gamma, P, LAM, MU) <= 1e-8


def _case2(H, G, p_st, gamma, **kw):
    """Case 2 on a `_batch`, with transmit prices 0.1 / p_st."""
    return solve_states_case2(H, G, 0.1 / p_st, gamma, **kw)


def test_no_size_guard():
    """K=60, M=12 (10^13 dual vertices, 10^14 case-2 active sets) and
    K=20, M=4 (10,625 and 53,129) solve, in cases IV and II."""
    H, G, p_st, gamma = _batch(2004, 2000, 20, 4)
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma, want_multipliers=True)
    assert _worst_kkt(H, G, p_st, gamma, P, LAM, MU) <= 1e-8
    K, M = 60, 12
    _check_linprog(np.ones((1, K)), np.ones((1, K, M)), np.ones(K), np.ones(M))
    for H, G, p_st, gamma in (_batch(2004, 2000, 20, 4), _batch(6012, 1, K, M)):
        P, MU = _case2(H, G, p_st, gamma, want_multipliers=True)
        assert max(kkt_report_case2(H[i], G[i], 0.1 / p_st, gamma, P[i],
                                    MU[i]).max_residual for i in range(len(H))) <= 1e-8


@pytest.mark.parametrize("solve", [_case2, solve_states_case4], ids=["case2", "case4"])
def test_pivot_cap_raises(monkeypatch, solve):
    monkeypatch.setattr("crsum.perstate_mac._MAX_PIVOTS", 1)
    H, G, p_st, gamma = _batch(42, 50, 4, 2)
    with pytest.raises(SolverFailureError, match="pivots"):
        solve(H, G, p_st, gamma)


def test_silent_user_without_gains():
    """h_k = 0 and g_k = 0: the user sends nothing and is not counted
    active (the dual-vertex enumeration gave it its full cap)."""
    H = np.array([[0.0, 1.0, 2.0]])
    G = np.array([[[0.0, 0.0], [0.5, 0.5], [4.0, 1.0]]])
    gamma = np.array([1.5, 1.0])
    P = solve_states_case4(H, G, np.ones(3), gamma)
    assert P[0, 0] == 0.0
    np.testing.assert_allclose(P[0], [0.0, 1.0, 0.25], rtol=0, atol=1e-15)
    res = ergodic_capacity_mac(Ensemble("mac", H, G), ConstraintCase.IV,
                               PowerBudget(tpc=np.ones(3), ipc=gamma))
    assert res.alloc[0, 0] == 0.0
    assert list(res.active_count_histogram) == [0, 0, 1, 0]
