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
same tableau (`test_case2_simplex.py`). The last three tests pin the
simplex's pricing (Dantzig's rule), its per-round drop of optimal
states and its fallback to Bland's rule on a stall.
"""

import numpy as np
import pytest

from crsum import (ConstraintCase, Ensemble, PowerBudget, SolverFailureError,
                   ergodic_capacity_mac, perstate_mac)
from crsum.perstate_mac import (bounded_simplex, kkt_report_case2, kkt_report_case4,
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


def test_empty_batch():
    P, LAM, MU = solve_states_case4(np.zeros((0, 4)), np.zeros((0, 4, 2)), np.ones(4),
                                    np.ones(2), want_multipliers=True)
    assert P.shape == LAM.shape == (0, 4) and MU.shape == (0, 2)


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


# Lockstep rounds of the case-4 simplex on a seeded K = 4, M = 2 batch of
# 1000 states at gamma = 1, P = -5..25 dB (fig6's case IV), as measured.
# Lowest-index entering takes (9, 8, 7, 6, 6, 6, 6).
SWEEP_ROUNDS = (6, 5, 5, 5, 5, 5, 5)


def _rounds(monkeypatch, *batch):
    """The least _MAX_PIVOTS at which case 4 solves `batch`: its rounds."""
    for cap in range(100):
        monkeypatch.setattr("crsum.perstate_mac._MAX_PIVOTS", cap)
        try:
            solve_states_case4(*batch)
            return cap
        except SolverFailureError as exc:
            assert "pivots" in str(exc)


def test_dantzig_pricing_pins_the_pivot_rounds(monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=6))
    H, G = rng.exponential(1.0, (1000, 4)), rng.exponential(1.0, (1000, 4, 2))
    rounds = tuple(_rounds(monkeypatch, H, G, np.full(4, 10.0 ** (p / 10)), np.ones(2))
                   for p in range(-5, 30, 5))
    assert rounds == SWEEP_ROUNDS


def test_a_state_leaves_the_batch_in_the_round_it_turns_optimal(monkeypatch):
    """States pivot independently, so round t of the batch holds exactly
    the states that need t or more rounds alone (Dantzig's `_first`
    call, on the float gains, runs once a round on the whole batch)."""
    H, G, p_st, gamma = _batch(19, 40, 4, 2)
    alone = [_rounds(monkeypatch, H[i:i + 1], G[i:i + 1], p_st, gamma) for i in range(40)]
    monkeypatch.undo()
    sizes, first = [], perstate_mac._first

    def spy(a, low):
        if a.dtype == float:
            sizes.append(a.shape[-1])
        return first(a, low)

    monkeypatch.setattr(perstate_mac, "_first", spy)
    solve_states_case4(H, G, p_st, gamma)
    assert sizes == [sum(r >= t for r in alone) for t in range(1, max(alone) + 1)]
    assert len(set(sizes)) > 2


# Beale's example in Chvatal's form (Linear Programming, 1983, ch. 3):
# Dantzig's rule with lowest-index leaving cycles through six degenerate
# bases at x = 0. The optimum is x = (1, 0, 1, 0), value 1.
BEALE = (np.array([10.0, -57.0, -9.0, -24.0]),
         np.array([[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]]),
         np.array([0.0, 0.0, 1.0]), np.full(4, np.inf))


def test_a_stalled_state_falls_back_to_blands_rule(monkeypatch):
    """Bland's entering rule is the `_first` call on the boolean mask of
    improving columns. A case-4 state whose caps meet at a vertex of the
    box, with two identical users, never stalls, alone or batched with
    Beale's cycling example; Beale's state stalls, falls back and reaches
    the optimum. Both match linprog, and the case-4 state the
    enumerations."""
    optimize = pytest.importorskip("scipy.optimize")
    bland = []
    first = perstate_mac._first

    def spy(a, low):
        if a.dtype == bool:
            bland.append(a)
        return first(a, low)

    monkeypatch.setattr(perstate_mac, "_first", spy)
    h, p_st = np.array([2.0, 2.0, 1.0, 1.0]), np.ones(4)
    g = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 0.5, 1.0], [1.0, 1.0, 0.5]])
    gamma = g.T @ np.array([1.0, 1.0, 0.0, 0.0])          # every cap is tight there
    alone = bounded_simplex(h[None], g.T[None], gamma[None], p_st[None])[0]
    assert not bland
    x = bounded_simplex(*(np.stack(pair) for pair in zip(BEALE, (h, g.T, gamma, p_st))))[0]
    assert bland
    np.testing.assert_array_equal(x[1], alone[0])
    c, A, b, u = BEALE
    lp = optimize.linprog(-c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
    assert lp.status == 0 and abs(c @ x[0] + lp.fun) <= 1e-12
    np.testing.assert_allclose(x[0], [1.0, 0.0, 1.0, 0.0], rtol=0, atol=1e-15)
    lp = optimize.linprog(-h, A_ub=g.T, b_ub=gamma, bounds=list(zip(np.zeros(4), p_st)),
                          method="highs")
    assert lp.status == 0 and abs(h @ x[1] + lp.fun) <= 1e-12
    for solve in (exhaustive_case4, _case4_enumerate):
        P_ref = solve(h[None], g[None], p_st, gamma)[0]
        assert abs(h @ x[1] - h @ P_ref[0]) <= 1e-12
