"""Independent verification machinery: the grid search and the direct
finite-sample convex solve must stand on their own, so they are tested
against analytic optima only."""

import numpy as np
import pytest

from crsum import (ConstraintCase, FadingModel, PowerBudget, UsageError,
                   grid_state_oracle, saa_primal_oracle, sample_mac_states)
from crsum.fading import ChannelStateMac
from crsum.oracle import (case1_problem, case2_problem, case3_problem,
                          case4_problem)


def test_grid_oracle_concave_quadratic():
    """Interior optimum of a separable concave quadratic."""
    target = np.array([0.31, 0.57])

    def obj(X):
        return -((X - target) ** 2).sum(axis=1)

    x, v = grid_state_oracle(obj, np.array([1.0, 1.0]), grid_step=1e-6)
    np.testing.assert_allclose(x, target, atol=1e-5)
    assert abs(v) < 1e-9


def test_grid_oracle_boundary_optimum():
    """Optimum on a halfspace boundary is found by the ray extension."""
    def obj(X):
        return X.sum(axis=1)

    halfspaces = [(np.array([1.0, 1.0]), 0.7)]
    x, v = grid_state_oracle(obj, np.array([1.0, 1.0]), halfspaces,
                             grid_step=1e-6)
    assert abs(v - 0.7) < 1e-9
    assert abs(x.sum() - 0.7) < 1e-9


def test_grid_oracle_log_water_fill():
    """1-D water-filling against the analytic interior point."""
    h, lam = 3.0, 0.4

    def obj(X):
        return np.log1p(h * X[:, 0]) - lam * X[:, 0]

    x, v = grid_state_oracle(obj, np.array([10.0]), grid_step=1e-7)
    p_star = 1.0 / lam - 1.0 / h
    assert abs(x[0] - p_star) < 1e-6
    assert abs(v - (np.log1p(h * p_star) - lam * p_star)) < 1e-12


def test_problem_builders_bound_the_feasible_set():
    s = ChannelStateMac(h=np.array([2.0, 1.0]), g=np.array([[1.0], [0.5]]))
    for builder, args in (
            (case1_problem, (s, np.array([0.5, 0.5]), np.array([0.2]))),
            (case2_problem, (s, np.array([0.5, 0.5]), np.array([1.0]))),
            (case3_problem, (s, np.array([0.2]), np.array([1.0, 1.0]))),
            (case4_problem, (s, np.array([1.0, 1.0]), np.array([1.0])))):
        obj, upper, halfspaces = builder(*args)
        assert (np.asarray(upper) > 0).all()
        vals = obj(np.zeros((1, 2)))
        assert np.isfinite(vals).all()


def test_saa_matches_two_state_water_filling():
    h = np.array([2.0, 0.5])
    states = [ChannelStateMac(h=np.array([h[t]]), g=np.zeros((1, 0)))
              for t in range(2)]
    budget = PowerBudget(tpc=np.array([1.0]), ipc=np.zeros(0))
    P, val = saa_primal_oracle(states, ConstraintCase.I, budget)

    lo, hi = 1e-9, 1e9
    for _ in range(200):
        nu = 0.5 * (lo + hi)
        p = np.maximum(1.0 / nu - 1.0 / h, 0.0)
        if p.mean() > 1.0:
            lo = nu
        else:
            hi = nu
    p_wf = np.maximum(1.0 / hi - 1.0 / h, 0.0)
    v_wf = float(np.mean(np.log1p(h * p_wf)))
    assert abs(val - v_wf) < 1e-7
    np.testing.assert_allclose(P.ravel(), p_wf, atol=1e-5)


def test_saa_zero_budget_limit():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=6, seed=3))
    budget = PowerBudget.symmetric(2, 1, 1e-9, 1e-9)
    _, val = saa_primal_oracle(states, ConstraintCase.I, budget)
    assert 0.0 <= val < 1e-6


def test_saa_feasibility_certified():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=12, seed=4))
    budget = PowerBudget.symmetric(2, 1, 0.7, 0.5)
    for case in ConstraintCase:
        P, val = saa_primal_oracle(states, case, budget)
        assert (P >= 0).all()
        H = np.array([s.h for s in states])
        G = np.stack([s.g for s in states])
        if case.tpc_is_lt:
            assert (P.mean(axis=0) <= budget.tpc + 1e-9).all()
        else:
            assert (P <= budget.tpc[None, :] + 1e-9).all()
        lin = np.einsum("nk,nkm->nm", P, G)
        if case.ipc_is_lt:
            assert (lin.mean(axis=0) <= budget.ipc + 1e-9).all()
        else:
            assert (lin <= budget.ipc[None, :] + 1e-9).all()
        assert val >= 0.0


def test_saa_rejects_large_instances():
    states = sample_mac_states(FadingModel(K=4, M=1, n_states=200, seed=5))
    budget = PowerBudget.symmetric(4, 1, 1.0, 1.0)
    with pytest.raises(UsageError):
        saa_primal_oracle(states, ConstraintCase.I, budget)
