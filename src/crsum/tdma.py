r"""Per-state solvers under the single-transmitter (TDMA) restriction.

Restricting every fading state to at most one transmitting user makes
each per-state subproblem a one-dimensional maximization per candidate
user, solved in closed form by `_single_user`; the best candidate wins
(`_lone_user`). The cases differ only in price and cap:
lam and the interference caps in case 2, mu.g and p_st in case 3, no
price and the tighter of both caps in case 4. Case 1 needs no
restriction at all: its unrestricted optimum is already single-user,
so the restricted and unrestricted ergodic problems coincide exactly.
`solve_states` picks a case's solver, restricted or not (case 1 is the
same in both modes); with one user the restricted solvers are the BC's
closed forms.
"""
from __future__ import annotations

import numpy as np

from .constraints import ConstraintCase
from .errors import UnboundedSubproblemError, UsageError
from .fading import ChannelStateMac
from .perstate_mac import (StateAllocation, _allocation, _interference_price,
                           _ipc_caps, _vec, solve_states_case1,
                           solve_states_case2, solve_states_case3,
                           solve_states_case4)


def _single_user(H, price, cap) -> np.ndarray:
    """Each user's best power when it transmits alone against `price`:
    min((1/price - 1/h)^+, cap), zero without gain."""
    with np.errstate(divide="ignore", invalid="ignore"):
        wf = 1.0 / price - 1.0 / H
    P = np.minimum(cap, np.where(price > 0.0, np.maximum(wf, 0.0), np.inf))
    unbounded = np.isinf(P) & (H > 0.0)
    if np.any(unbounded):
        t, k = np.argwhere(unbounded)[0]
        raise UnboundedSubproblemError(
            "user has positive gain but zero transmit and interference price",
            state_index=int(t), user_index=int(k))
    return np.where(H > 0.0, P, 0.0)


def _per_user_value(H, P, price):
    with np.errstate(invalid="ignore"):
        val = np.log1p(H * P) - price * P
    return np.where(np.isfinite(val), val, -np.inf)


def _lone_user(H, price, cap) -> np.ndarray:
    """Each state's best single user: every user at its `_single_user`
    power, the largest log(1+h p) - price p wins (ties to the lowest
    index) and transmits alone."""
    price = np.asarray(price, dtype=float)
    P = _single_user(H, price, cap)
    user = np.argmax(_per_user_value(H, P, price), axis=1)
    rows = np.arange(H.shape[0])
    out = np.zeros(H.shape)
    out[rows, user] = P[rows, user]
    return out


def tdma_states_case2(H, G, lam, gamma) -> np.ndarray:
    """Best single user under per-state interference caps and transmit
    prices lam; lam broadcasts from (K,), gamma from (M,)."""
    return _lone_user(H, lam, _ipc_caps(G, gamma))


def tdma_state_case2(state: ChannelStateMac, lam, gamma_st) -> StateAllocation:
    lam = _vec(lam, state.K, "lam")
    gamma_st = _vec(gamma_st, state.M, "gamma_st")
    P = tdma_states_case2(state.h[None], state.g[None], lam, gamma_st)
    return _allocation(state.h, P[0])


def tdma_states_case3(H, G, mu, p_st) -> np.ndarray:
    """Best single user under power caps and interference prices mu."""
    return _lone_user(H, _interference_price(G, mu), p_st)


def tdma_state_case3(state: ChannelStateMac, mu, p_st) -> StateAllocation:
    mu = _vec(mu, state.M, "mu")
    p_st = _vec(p_st, state.K, "p_st")
    P = tdma_states_case3(state.h[None], state.g[None], mu, p_st)
    return _allocation(state.h, P[0])


def tdma_states_case4(H, G, p_st, gamma) -> np.ndarray:
    """Best single user inside the per-state power polytope: each
    candidate transmits at its tightest cap, the largest h*p wins."""
    return _lone_user(H, 0.0, np.minimum(p_st, _ipc_caps(G, gamma)))


def tdma_state_case4(state: ChannelStateMac, p_st, gamma_st) -> StateAllocation:
    p_st = _vec(p_st, state.K, "p_st")
    gamma_st = _vec(gamma_st, state.M, "gamma_st")
    if np.any(p_st <= 0) or np.any(gamma_st <= 0):
        raise UsageError("p_st and gamma_st must be strictly positive")
    P = tdma_states_case4(state.h[None], state.g[None], p_st, gamma_st)
    return _allocation(state.h, P[0])


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
