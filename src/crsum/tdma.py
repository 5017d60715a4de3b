r"""Per-state solvers under the single-transmitter (TDMA) restriction:
the lone-user rule `perstate_mac.lone_user` at price lam and the
interference caps in case 2, mu.g and p_st in case 3, no price and the
tighter of both caps in case 4. Case 1's unrestricted optimum is that
rule already, so `solve_states` (a case's solver, restricted or not) is
the same there in both modes. With one user the restricted solvers are
the BC's closed forms.
"""
from __future__ import annotations

import numpy as np

from .constraints import ConstraintCase
from .fading import ChannelStateMac
from .perstate_mac import (StateAllocation, _allocation, _cap, _interference_price,
                           _ipc_caps, _vec, lone_user, solve_states_case1,
                           solve_states_case2, solve_states_case3, solve_states_case4)


def _one_state(solve, state: ChannelStateMac, *args) -> StateAllocation:
    return _allocation(state.h, solve(state.h[None], state.g[None], *args)[0])


def tdma_states_case2(H, G, lam, gamma) -> np.ndarray:
    """Best single user under per-state interference caps and transmit
    prices lam; lam broadcasts from (K,), gamma from (M,)."""
    return lone_user(H, lam, _ipc_caps(G, gamma))


def tdma_state_case2(state: ChannelStateMac, lam, gamma_st) -> StateAllocation:
    return _one_state(tdma_states_case2, state, _vec(lam, state.K, "lam"),
                      _cap(gamma_st, state.M, "gamma_st"))


def tdma_states_case3(H, G, mu, p_st) -> np.ndarray:
    """Best single user under power caps and interference prices mu."""
    return lone_user(H, _interference_price(G, mu), p_st)


def tdma_state_case3(state: ChannelStateMac, mu, p_st) -> StateAllocation:
    return _one_state(tdma_states_case3, state, _vec(mu, state.M, "mu"),
                      _cap(p_st, state.K, "p_st"))


def tdma_states_case4(H, G, p_st, gamma) -> np.ndarray:
    """Best single user inside the per-state power polytope: each
    candidate transmits at its tightest cap, the largest h*p wins."""
    return lone_user(H, 0.0, np.minimum(p_st, _ipc_caps(G, gamma)))


def tdma_state_case4(state: ChannelStateMac, p_st, gamma_st) -> StateAllocation:
    return _one_state(tdma_states_case4, state, _cap(p_st, state.K, "p_st"),
                      _cap(gamma_st, state.M, "gamma_st"))


def solve_states(case: ConstraintCase, H, G, lam, mu, budget,
                 tdma_mode: bool = False) -> np.ndarray:
    """The per-state solver of `case`, single-user when `tdma_mode`:
    prices lam, mu for the long-term constraints, the budget's caps for
    the short-term ones."""
    full = not tdma_mode
    if case is ConstraintCase.I:
        return solve_states_case1(H, G, lam, mu)
    if case is ConstraintCase.II:
        return (solve_states_case2 if full else tdma_states_case2)(H, G, lam, budget.ipc)
    if case is ConstraintCase.III:
        return (solve_states_case3 if full else tdma_states_case3)(H, G, mu, budget.tpc)
    return (solve_states_case4 if full else tdma_states_case4)(H, G, budget.tpc, budget.ipc)
