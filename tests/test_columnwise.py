"""The case-1 solver picks each state's user by one argmax of h / price
over the user axis, and the dual loop's rounding by one argmax of h q
(both `lone_user`); each matches its row-wise form in `dual_reference`
bit for bit. The dual evaluation sums one user or cap column at a time:
it is held against its row-wise form bit for bit where the arithmetic
is unchanged (one cap, one user), within a rounding tolerance where a
sum over several columns changed its order. The case-3 closed form
sweeps one sorted position at a time and matches `case3_reference` bit
for bit. The KKT system of every case runs states-last, within a
rounding tolerance of its einsum form."""

import numpy as np
import pytest

import case3_reference
import dual_reference
from crsum import (ConstraintCase, FadingModel, PowerBudget,
                   UnboundedSubproblemError, ellipsoid_solve, sample_bc_states)
from crsum.dual import _make_problem
from crsum.fading import Ensemble
from crsum.perstate_mac import (_kkt, lone_user, solve_states_case1,
                                solve_states_case3)


def _instance(seed, n, K, M, idle=0.2):
    """Gains with some zero direct gains, and prices around the level
    at which a winner turns on."""
    rng = np.random.default_rng(seed)
    H = rng.exponential(1.0, (n, K))
    H[rng.random((n, K)) < idle] = 0.0
    G = rng.exponential(1.0, (n, K, M))
    lam = rng.uniform(0.1, 1.5, K)
    mu = rng.uniform(0.1, 1.5, M)
    return H, G, lam, mu


def _lagrangian(H, G, lam, mu, P):
    """Per-state case-1 objective, priced the same way for both sides."""
    W = np.broadcast_to(lam, H.shape) + G @ mu
    return np.log1p((H * P).sum(axis=1)) - (W * P).sum(axis=1)


@pytest.mark.parametrize("K", [1, 2, 5, 20])
@pytest.mark.parametrize("M", [0, 1])
def test_case1_equals_reference(K, M):
    for seed in range(5):
        H, G, lam, mu = _instance(seed, 400, K, M)
        want = dual_reference.solve_states_case1(H, G, lam, mu)
        assert np.array_equal(solve_states_case1(H, G, lam, mu), want)
        # per-state transmit prices (n, K)
        LAM = lam * np.random.default_rng(seed).uniform(0.5, 2.0, H.shape)
        want = dual_reference.solve_states_case1(H, G, LAM, mu)
        assert np.array_equal(solve_states_case1(H, G, LAM, mu), want)


@pytest.mark.parametrize("K", [1, 2, 3, 5])
@pytest.mark.parametrize("M", [0, 1, 2])
def test_per_state_price_rows_equal_row_by_row_solves(K, M):
    """Case 1 with mu (n, M) and case 3 with mu (n, M) and p_st (n, K)
    equal one solve per state at that state's row, bit for bit: with
    zero gains (a whole state of them too), and on states whose caps
    all bind, at tiny caps and interference prices."""
    n = 60
    H, G, lam, _ = _instance(K * 10 + M, n, K, M)
    H[1] = 0.0
    rng = np.random.default_rng(K * 10 + M)
    MU = rng.uniform(0.1, 1.5, (n, M))
    caps = rng.uniform(0.1, 2.0, (n, K))
    MU[::3], caps[::3] = 1e-6, 1e-3
    P1 = solve_states_case1(H, G, lam, MU)
    P3 = solve_states_case3(H, G, MU, caps)
    for t in range(n):
        one = H[t:t + 1], G[t:t + 1]
        assert np.array_equal(P1[t], solve_states_case1(*one, lam, MU[t])[0])
        assert np.array_equal(P3[t], solve_states_case3(*one, MU[t], caps[t])[0])
    assert np.array_equal(P3[::3], np.where(H[::3] > 0.0, caps[::3], 0.0))
    assert not P1[1].any() and not P3[1].any()


@pytest.mark.parametrize("K", [1, 2, 5, 20])
@pytest.mark.parametrize("M", [2, 4])
def test_case1_lagrangian_matches_reference(K, M):
    """Several caps sum the interference price in another order, so a
    near-tie may pick another user; the per-state value must agree."""
    for seed in range(5):
        H, G, lam, mu = _instance(seed, 400, K, M)
        P = solve_states_case1(H, G, lam, mu)
        want = _lagrangian(H, G, lam, mu,
                           dual_reference.solve_states_case1(H, G, lam, mu))
        got = _lagrangian(H, G, lam, mu, P)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
        assert np.all((P > 0.0).sum(axis=1) <= 1)


def test_case1_degenerate_batches():
    n, K, M = 50, 4, 1
    H, G, lam, mu = _instance(3, n, K, M)
    cases = {
        # identical users: the lowest index wins every state
        "identical": (np.repeat(H[:, :1], K, axis=1), np.repeat(G[:, :1], K, axis=1),
                      np.full(K, lam[0]), mu),
        "no gain": (np.zeros((n, K)), G, lam, mu),
        "one gainless user": (np.where(np.arange(K) == 2, 0.0, H), G, lam, mu),
        "free gainless user": (np.where(np.arange(K) == 1, 0.0, H), G,
                               np.where(np.arange(K) == 1, 0.0, lam),
                               np.zeros(M)),
    }
    for name, (h, g, la, m) in cases.items():
        want = dual_reference.solve_states_case1(h, g, la, m)
        assert np.array_equal(solve_states_case1(h, g, la, m), want), name
    P = solve_states_case1(*cases["identical"])
    assert np.all(P[:, 1:] == 0.0) and np.any(P[:, 0] > 0.0)


def test_case1_zero_price_raises_like_reference():
    """A zero price with positive gain reports the first such state and
    the user the row-wise argmax picks there."""
    n, K, M = 30, 3, 1
    H, G, lam, mu = _instance(4, n, K, M, idle=0.0)
    LAM = np.broadcast_to(lam, (n, K)).copy()
    LAM[[7, 12], 2] = 0.0
    LAM[[7, 20], 1] = 0.0
    errors = []
    for solve in (dual_reference.solve_states_case1, solve_states_case1):
        with pytest.raises(UnboundedSubproblemError) as exc:
            solve(H, G, LAM, np.zeros(M))
        errors.append(exc.value)
    ref, new = errors
    assert str(new) == str(ref)
    assert (new.state_index, new.user_index) == (ref.state_index, ref.user_index) == (7, 1)


@pytest.mark.parametrize("K", [1, 2, 5, 20])
def test_rounding_equals_reference(K):
    """The dual loop's rounding, the lone-user rule at price 0 capped by
    the mixed powers, keeps the user of largest h q bit for bit as
    `dual_reference.one_user` does, on mixtures that leave gainless
    users silent as every column does: with exact ties in h q, all-zero
    rows and gainless users."""
    n = 3000
    H, _, _, _ = _instance(K, n, K, 0)
    rng = np.random.default_rng(K + 50)
    Q = rng.uniform(0.0, 2.0, (n, K)) * (rng.random((n, K)) < 0.7)
    if K > 1:
        H[1::4, 1], Q[1::4, 1] = Q[1::4, 0], H[1::4, 0]      # swapped: h q ties
        H[2::4, -1], Q[2::4, -1] = H[2::4, 0], Q[2::4, 0]    # identical users
    Q[3::8], H[5::8] = 0.0, 0.0             # no power, no gain
    Q[H == 0.0] = 0.0
    HQ = H * Q
    if K > 1:
        assert np.any((HQ[:, 0] == HQ[:, 1]) & (HQ[:, 0] > 0.0))
    assert np.any(H == 0.0) and np.any(~HQ.any(axis=1))
    assert np.array_equal(lone_user(H, 0.0, Q), dual_reference.one_user(H, Q))


def _case3_instances(n, K, M, seed):
    """Random prices and caps, some zero direct and interference gains
    (infinite ratios), then zero prices, ties, no gain at all and some
    infinite gains."""
    H, G, _, mu = _instance(seed, n, K, M)
    rng = np.random.default_rng(seed + 100)
    G[rng.random(G.shape) < 0.2] = 0.0
    caps = rng.uniform(0.05, 2.0, K)
    yield "random", H, G, mu, caps
    yield "strong", 20.0 * H, G, mu, caps
    yield "zero prices", H, G, np.zeros(M), caps
    # every odd user has twice user 0's gains: the same ratio, another fill
    Ht, Gt = H.copy(), G.copy()
    Ht[:, 1::2], Gt[:, 1::2] = 2.0 * H[:, :1], 2.0 * G[:, :1]
    yield "tied ratios", Ht, Gt, mu, caps
    yield "tied and equal caps", Ht, Gt, mu, np.full(K, caps[0])
    yield "no gain", np.zeros((n, K)), G, mu, caps
    Hi = H.copy()
    Hi[::3, 0] = np.inf             # an infinite fill: NaN water level, zero power
    yield "infinite gain", Hi, G, mu, caps


@pytest.mark.parametrize("n", [1, 7, 2500])
@pytest.mark.parametrize("M", [0, 1, 2, 3, 4])
def test_case3_equals_reference(n, M):
    for K in range(1, 21):
        for name, H, G, mu, caps in _case3_instances(n, K, M, seed=K):
            want = case3_reference.solve_states_case3(H, G, mu, caps)
            assert np.array_equal(solve_states_case3(H, G, mu, caps), want), (K, name)


def _problem(case, K, M, n=400, tdma_mode=False, seed=0, solver=None):
    H, G, _, _ = _instance(seed, n, K, M)
    budget = PowerBudget.symmetric(K, M, 1.0, 0.8)
    return _make_problem(Ensemble("mac", H, G), case, budget,
                         per_state_solver=solver, tdma_mode=tdma_mode)


@pytest.mark.parametrize("case", list(ConstraintCase))
@pytest.mark.parametrize("K,M,tdma_mode", [(1, 1, True), (1, 0, False), (1, 4, True),
                                            (2, 1, False), (2, 1, True), (4, 2, False),
                                            (5, 1, True)])
def test_evaluate_matches_reference(case, K, M, tdma_mode):
    problem = _problem(case, K, M, tdma_mode=tdma_mode)
    rng = np.random.default_rng(K * 10 + M)
    for _ in range(3):
        x = rng.uniform(0.2, 2.0, problem.n_lam + problem.n_mu)
        value, sg, P, usage, rate = problem.evaluate(x)[:5]
        r_value, r_sg, r_P, r_usage = dual_reference.evaluate(problem, x)
        assert np.array_equal(P, r_P)
        want_rate = problem.primal_value(P)
        if K == 1 and M <= 1:
            assert value == r_value and rate == want_rate
            assert np.array_equal(sg, r_sg) and np.array_equal(usage, r_usage)
        else:
            assert abs(value - r_value) <= 1e-13 * abs(r_value)
            assert abs(rate - want_rate) <= 1e-13 * abs(want_rate)
            np.testing.assert_allclose(usage, r_usage, rtol=1e-13, atol=0.0)
            scale = np.maximum(np.abs(problem.thresholds), np.abs(r_usage))
            assert np.all(np.abs(sg - r_sg) <= 1e-13 * scale)


def test_case1_evaluation_matches_reference_end_to_end():
    """Row-wise solver plus row-wise evaluation against the column-wise pair."""
    for K, M in ((1, 1), (2, 1), (4, 2)):
        problem = _problem(ConstraintCase.I, K, M, seed=K)
        reference = _problem(
            ConstraintCase.I, K, M, seed=K,
            solver=lambda H, G, pt: dual_reference.solve_states_case1(H, G, pt.lam, pt.mu))
        x = np.random.default_rng(K).uniform(0.2, 2.0, K + M)
        value, sg, P, usage, _ = problem.evaluate(x)[:5]
        r_value, r_sg, r_P, r_usage = dual_reference.evaluate(reference, x)
        if M <= 1:
            assert np.array_equal(P, r_P)
        assert abs(value - r_value) <= 1e-13 * abs(r_value)
        np.testing.assert_allclose(usage, r_usage, rtol=1e-13, atol=0.0)


def test_unscaled_policy_reports_its_own_rate():
    """The dual loop reports the returned policy's own rate, bit for bit
    at K = 1."""
    states = sample_bc_states(FadingModel(K=3, M=1, n_states=300, seed=8))
    budget = PowerBudget(tpc=np.zeros(0), ipc=np.array([0.8]), bs_tpc=1.5)
    for case in ConstraintCase:
        _, report, policy, _ = ellipsoid_solve(states, case, budget)
        problem = _make_problem(states, case, budget)
        assert report.best_primal == problem.primal_value(policy)


@pytest.mark.parametrize("n,K,M", [(1, 1, 0), (1, 3, 2), (7, 2, 1), (300, 4, 2), (50, 5, 3)])
@pytest.mark.parametrize("system", ["case1", "case2", "case4"])
def test_kkt_matches_einsum_reference(n, K, M, system):
    """`_kkt` against the einsum form, on allocations and multipliers
    near a KKT point (so need cancels) and off it, with broadcast prices
    and caps as `_certify` passes them. Each entry agrees within 1e-14
    of the magnitudes summed into it, about 45 float64 epsilons."""
    H, G, lam, mu = _instance(n * 10 + K, n, K, M)
    rng = np.random.default_rng(M)
    P = rng.exponential(0.5, (n, K)) * (rng.random((n, K)) < 0.6)
    LAM = np.broadcast_to(lam, (n, K))
    MU = rng.uniform(0.0, 1.0, (n, M))
    LAM = LAM + (H / (1.0 + (H * P).sum(axis=1))[:, None]
                 - np.einsum("nkm,nm->nk", G, MU)) * (rng.random((n, K)) < 0.5)
    GAM = np.broadcast_to(rng.uniform(0.5, 2.0, M), (n, M)) if system != "case1" else None
    caps = np.broadcast_to(rng.uniform(0.5, 2.0, K), (n, K)) if system == "case4" else None
    need, cs, primal = _kkt(H, G, P, LAM, MU, GAM, caps)
    r_need, r_cs, r_primal = dual_reference.kkt(H, G, P, LAM, MU, GAM, caps)
    gmu = np.einsum("nkm,nm->nk", G, np.abs(MU))
    scale = np.abs(LAM) + gmu + H / (1.0 + np.einsum("nk,nk->n", H, P))[:, None]
    assert need.shape == (n, K)
    assert np.all(np.abs(need - r_need) <= 1e-14 * scale)
    assert np.all(np.abs(cs[0].T - r_cs[0]) <= 1e-14 * scale * P)     # (K, n)
    assert np.array_equal(primal[0], r_primal[0])
    if GAM is not None:       # (M, n) here, (n, M) in the einsum form
        load = np.einsum("nk,nkm->nm", P, G) + GAM
        assert np.all(np.abs(primal[1].T - r_primal[1]) <= 1e-14 * load)
        assert np.all(np.abs(cs[1].T - r_cs[1]) <= 1e-14 * load * MU)
    if caps is not None:
        assert np.array_equal(primal[-1].T, r_primal[-1])
        assert np.array_equal(cs[-1].T, r_cs[-1])
    assert len(cs) == len(primal) == 1 + (GAM is not None) + (caps is not None)
