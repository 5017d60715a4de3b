r"""Per-state solvers under the single-transmitter (TDMA) restriction.

Restricting every fading state to at most one transmitting user makes
each per-state subproblem a one-dimensional maximization per candidate
user, solved in closed form; the best candidate wins. Case 1 needs no
restriction at all: its unrestricted optimum is already single-user,
so the restricted and unrestricted ergodic problems coincide exactly.
`solve_states` picks a case's solver, restricted or not (case 1 is the
same in both modes); with one user the restricted solvers are the BC's
closed forms.
"""
from __future__ import annotations

import numpy as np

from .constraints import ConstraintCase
from .errors import UsageError
from .fading import ChannelStateMac
from .perstate_mac import (StateAllocation, _allocation, _interference_price,
                           _ipc_caps, _per_user_value, _single_user_case2, _vec,
                           solve_states_case1, solve_states_case2,
                           solve_states_case3, solve_states_case4)


def _pick(H, P, val):
    n, K = H.shape
    user = np.argmax(val, axis=1)
    rows = np.arange(n)
    out = np.zeros((n, K))
    out[rows, user] = P[rows, user]
    return out


def tdma_states_case2(H, G, lam, gamma) -> np.ndarray:
    """Best single user under per-state interference caps and transmit
    prices lam; lam broadcasts from (K,), gamma from (M,)."""
    n, K = H.shape
    M = G.shape[2]
    LAM = np.broadcast_to(np.asarray(lam, dtype=float), (n, K))
    GAM = np.broadcast_to(np.asarray(gamma, dtype=float), (n, M))
    P = _single_user_case2(H, G, LAM, GAM)
    return _pick(H, P, _per_user_value(H, P, LAM))


def tdma_state_case2(state: ChannelStateMac, lam, gamma_st) -> StateAllocation:
    lam = _vec(lam, state.K, "lam")
    gamma_st = _vec(gamma_st, state.M, "gamma_st")
    P = tdma_states_case2(state.h[None], state.g[None], lam, gamma_st)
    return _allocation(state.h, P[0])


def tdma_states_case3(H, G, mu, p_st) -> np.ndarray:
    """Best single user under power caps and interference prices mu."""
    n, K = H.shape
    W = _interference_price(G, mu)
    caps = np.broadcast_to(np.asarray(p_st, dtype=float), (n, K))
    with np.errstate(divide="ignore", invalid="ignore"):
        wf = 1.0 / W - 1.0 / H
    wf = np.where(H > 0.0, np.where(W > 0.0, np.maximum(wf, 0.0), np.inf), 0.0)
    P = np.minimum(caps, wf)
    return _pick(H, P, _per_user_value(H, P, W))


def tdma_state_case3(state: ChannelStateMac, mu, p_st) -> StateAllocation:
    mu = _vec(mu, state.M, "mu")
    p_st = _vec(p_st, state.K, "p_st")
    P = tdma_states_case3(state.h[None], state.g[None], mu, p_st)
    return _allocation(state.h, P[0])


def tdma_states_case4(H, G, p_st, gamma) -> np.ndarray:
    """Best single user inside the per-state power polytope: each
    candidate transmits at its tightest cap, the largest h*p wins."""
    n, K = H.shape
    M = G.shape[2]
    GAM = np.broadcast_to(np.asarray(gamma, dtype=float), (n, M))
    caps = np.broadcast_to(np.asarray(p_st, dtype=float), (n, K))
    P = np.where(H > 0.0, np.minimum(caps, _ipc_caps(G, GAM)), 0.0)
    return _pick(H, P, H * P)


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
