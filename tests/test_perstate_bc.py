"""Downlink per-state power: the one-user MAC vs the auxiliary-MAC route."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crsum import ConstraintCase, PowerBudget, UsageError
from crsum.fading import ChannelStateBc
from crsum.perstate_bc import (as_one_user_mac, bc_via_dual_mac,
                               solve_state_bc, solve_states_bc,
                               solve_states_bc_via_mac)

finite_pos = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def _budget(M, gamma=1.0, q=1.0):
    return PowerBudget(tpc=np.zeros(0), ipc=np.full(M, gamma), bs_tpc=q)


def test_best_user_always_served():
    s = ChannelStateBc(h=np.array([1.0, 3.0, 2.0]), f=np.array([2.0]))
    for case in ConstraintCase:
        a = solve_state_bc(s, case, 0.5, np.array([0.25]), _budget(1))
        assert a.user == 1


def test_case1_frozen():
    """Water-fill against the combined transmit and interference price."""
    s = ChannelStateBc(h=np.array([1.0, 3.0, 2.0]), f=np.array([2.0]))
    a = solve_state_bc(s, ConstraintCase.I, 0.5, np.array([0.25]), _budget(1))
    # 1/(0.5 + 0.25*2) - 1/3 = 1 - 1/3
    assert abs(a.q - 2.0 / 3.0) < 1e-12
    assert abs(a.sum_rate_term - np.log1p(3.0 * a.q)) < 1e-15


def test_case2_frozen():
    """Interference caps clip the water level."""
    s = ChannelStateBc(h=np.array([1.0, 3.0, 2.0]), f=np.array([0.5, 4.0]))
    a = solve_state_bc(s, ConstraintCase.II, 0.5, np.zeros(2), _budget(2))
    # water level 1/0.5 - 1/3 = 5/3, caps are 1/0.5 = 2 and 1/4 = 0.25
    assert abs(a.q - 0.25) < 1e-12


def test_case3_frozen():
    s = ChannelStateBc(h=np.array([1.0, 3.0, 2.0]), f=np.array([0.5, 4.0]))
    a = solve_state_bc(s, ConstraintCase.III, 0.0, np.array([0.3, 0.1]), _budget(2))
    # 1/(0.15 + 0.4) - 1/3 ~ 1.485 clipped by Q = 1
    assert abs(a.q - 1.0) < 1e-12


def test_case4_frozen():
    s = ChannelStateBc(h=np.array([1.0, 3.0, 2.0]), f=np.array([0.5, 4.0]))
    a = solve_state_bc(s, ConstraintCase.IV, 0.0, np.zeros(2), _budget(2))
    assert abs(a.q - 0.25) < 1e-12


def test_zero_water_level_means_silence():
    s = ChannelStateBc(h=np.array([0.5]), f=np.array([1.0]))
    a = solve_state_bc(s, ConstraintCase.I, 5.0, np.array([1.0]), _budget(1))
    assert a.q == 0.0
    assert a.sum_rate_term == 0.0


@settings(deadline=None, max_examples=80, derandomize=True)
@given(data=st.data(), K=st.integers(1, 5), M=st.integers(1, 3),
       case=st.sampled_from(list(ConstraintCase)))
def test_closed_form_matches_auxiliary_mac(data, K, M, case):
    h = np.array([data.draw(finite_pos) for _ in range(K)])
    f = np.array([data.draw(finite_pos) for _ in range(M)])
    s = ChannelStateBc(h=h, f=f)
    budget = _budget(M, gamma=data.draw(finite_pos), q=data.draw(finite_pos))
    lam = data.draw(finite_pos)
    mu = np.array([data.draw(finite_pos) for _ in range(M)])
    a = solve_state_bc(s, case, lam, mu, budget)
    b = bc_via_dual_mac(s, case, lam, mu, budget)
    assert a.user == b.user
    assert abs(a.q - b.q) <= 1e-8
    assert abs(a.sum_rate_term - b.sum_rate_term) <= 1e-8


def test_batched_paths_agree():
    rng = np.random.Generator(np.random.Philox(key=5))
    n, K, M = 200, 4, 2
    H = rng.exponential(1.0, (n, K))
    F = rng.exponential(1.0, (n, M))
    budget = _budget(M, gamma=0.9, q=1.3)
    for case in ConstraintCase:
        lam = 0.4 if case.tpc_is_lt else 0.0
        mu = (np.array([0.2, 0.3]) if case.ipc_is_lt else np.zeros(M))
        Q1, users1 = solve_states_bc(H, F, case, lam, mu, budget)
        Q2, users2 = solve_states_bc_via_mac(H, F, case, lam, mu, budget)
        np.testing.assert_allclose(Q1, Q2, atol=1e-8)
        assert np.array_equal(users1, users2)


def test_st_constraints_respected_per_state():
    rng = np.random.Generator(np.random.Philox(key=6))
    n, K, M = 300, 3, 2
    H = rng.exponential(1.0, (n, K))
    F = rng.exponential(1.0, (n, M))
    budget = _budget(M, gamma=0.8, q=1.1)
    Q, _ = solve_states_bc(H, F, ConstraintCase.IV, 0.0, np.zeros(M), budget)
    assert (Q <= budget.bs_tpc + 1e-12).all()
    assert (Q[:, None] * F <= budget.ipc[None, :] + 1e-9).all()


def test_bc_requires_bs_budget_fields():
    s = ChannelStateBc(h=np.array([1.0]), f=np.array([1.0]))
    budget = PowerBudget(tpc=np.zeros(0), ipc=np.array([1.0]))
    with pytest.raises(UsageError):
        solve_state_bc(s, ConstraintCase.IV, 0.0, np.zeros(1), budget)


def test_one_user_mac_mapping():
    H = np.array([[1.0, 3.0, 2.0], [2.0, 2.0, 0.5]])
    F = np.array([[0.5, 4.0], [1.0, 2.0]])
    budget = _budget(2, gamma=0.7, q=1.3)
    H1, G1, mac = as_one_user_mac(H, F, budget)
    assert np.array_equal(H1, [[3.0], [2.0]])        # ties: lowest index
    assert np.array_equal(G1, F[:, None, :])
    assert mac.tpc.tolist() == [1.3] and np.array_equal(mac.ipc, budget.ipc)
    H1, _, _ = as_one_user_mac(H, F, budget, users=np.array([0, 2]))
    assert np.array_equal(H1, [[1.0], [0.5]])
    with pytest.raises(UsageError):
        as_one_user_mac(H, F, PowerBudget(tpc=np.zeros(0), ipc=[1.0, 1.0]))
    with pytest.raises(UsageError):
        as_one_user_mac(H, F, _budget(3))


def test_auxiliary_mac_without_interference_is_uncapped():
    """A state with f = 0 has no interference cap in case II: the
    auxiliary MAC water-fills it like the one-user path."""
    H = np.array([[1.0, 3.0, 2.0], [2.0, 0.5, 1.0]])
    F = np.array([[0.0, 0.0], [0.5, 4.0]])
    budget = _budget(2, gamma=0.7, q=1.3)
    for case in ConstraintCase:
        Q1, _ = solve_states_bc(H, F, case, 0.5, np.zeros(2), budget)
        Q2, _ = solve_states_bc_via_mac(H, F, case, 0.5, np.zeros(2), budget)
        np.testing.assert_allclose(Q1, Q2, rtol=0, atol=1e-12)
    Q, _ = solve_states_bc_via_mac(H, F, ConstraintCase.II, 0.5, np.zeros(2), budget)
    assert abs(Q[0] - (1.0 / 0.5 - 1.0 / 3.0)) <= 1e-12
