r"""Per-fading-state optimal BC power control, as a one-user MAC.

D-TDMA is optimal for the sum rate of the fading cognitive BC under
every LT/ST pair of constraints: in each state the base station serves
only the user with the largest direct gain (ties go to the lowest
index). The per-state BC problem is therefore exactly a one-user MAC
with direct gain h* = max_k h_k, interference gains f, and the base
station's transmit threshold in place of the user's. `as_one_user_mac`
is the only place that mapping is written down; every BC entry point
solves through it with the single-user (TDMA) MAC solvers, which at
K = 1 are the exact closed forms, e.g. q = (1/(lam + mu.f) - 1/h*)^+ in
case 1.

As an independent check, every case can also be solved through an
auxiliary MAC whose K "users" share the BC's direct gains, mapping the
BC constraint mix onto one of the full MAC per-state solvers
(`powers_via_mac`). The pipeline does not run it: `crsum verify
--suite bc` and the acceptance gate compare both paths' powers and
served users state by state at the final multipliers of real dual
solves.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constraints import ConstraintCase, PowerBudget
from .errors import UsageError
from .fading import ChannelStateBc
from .perstate_mac import _ipc_caps, solve_states_case1, solve_states_case2
from .tdma import solve_states


@dataclass(frozen=True)
class BcStateAllocation:
    """Scalar transmit power, the served user, and log(1 + h*q)."""

    q: float
    user: int
    sum_rate_term: float


def _served(Hb: np.ndarray) -> np.ndarray:
    # ties go to the lowest user index
    return np.argmax(Hb, axis=1)


def _one_state(solver, state: ChannelStateBc, case, lam, mu, budget) -> BcStateAllocation:
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    _require(mu.shape == (state.M,), "mu must have shape (M,)")
    _require(lam >= 0.0 and np.all(mu >= 0.0), "prices must be nonnegative")
    (q,), (user,) = solver(state.h[None], state.f[None], case, lam, mu, budget)
    return BcStateAllocation(q=float(q), user=int(user),
                             sum_rate_term=float(np.log1p(state.h[user] * q)))


def _require(cond: bool, msg: str):
    if not cond:
        raise UsageError(msg)


def as_one_user_mac(Hb: np.ndarray, F: np.ndarray, budget: PowerBudget,
                    users=None):
    """The BC states (Hb, F) as one-user MAC states and budget.

    State t serves `users[t]`, by default its best user. Returns
    H1 (n, 1), G1 (n, 1, M) and a budget whose single TPC is bs_tpc.
    """
    _require(budget.bs_tpc is not None, "BC problems need a bs_tpc threshold")
    _require(budget.M == F.shape[1], "budget dimensions do not match the ensemble")
    if users is None:
        users = _served(Hb)
    H1 = Hb[np.arange(Hb.shape[0]), users][:, None]
    return H1, F[:, None, :], PowerBudget(tpc=[budget.bs_tpc], ipc=budget.ipc)


def solve_states_bc(Hb: np.ndarray, F: np.ndarray, case: ConstraintCase,
                    lam: float, mu, budget: PowerBudget):
    """Vectorized BC solver through the one-user MAC. Returns (q, user)."""
    users = _served(Hb)
    H1, G1, mac = as_one_user_mac(Hb, F, budget, users)
    P = solve_states(case, H1, G1, np.array([lam], dtype=float),
                     np.asarray(mu, dtype=float), mac, tdma_mode=True)
    return P[:, 0], users


def solve_state_bc(state: ChannelStateBc, case: ConstraintCase,
                   lam: float, mu, budget: PowerBudget) -> BcStateAllocation:
    """Closed-form BC subproblem for one state."""
    return _one_state(solve_states_bc, state, case, lam, mu, budget)


def powers_via_mac(Hb: np.ndarray, F: np.ndarray, case: ConstraintCase,
                   lam: float, mu, budget: PowerBudget) -> np.ndarray:
    """The auxiliary MAC's per-user powers (n, K) for the BC states of
    the module docstring: at most one user is active in a state."""
    n, K = Hb.shape
    M = F.shape[1]
    mu = np.asarray(mu, dtype=float)
    if case is ConstraintCase.I:
        G = np.broadcast_to(F[:, None, :], (n, K, M))
        return solve_states_case1(Hb, G, np.full(K, lam), mu)
    if case is ConstraintCase.III:
        # a single synthetic constraint sum_k p_k <= q_st, with the
        # interference price folded into each user's transmit price
        G = np.ones((n, K, 1))
        LAM = np.broadcast_to((F @ mu)[:, None], (n, K))
        GAM = np.full((n, 1), budget.bs_tpc)
        return solve_states_case2(Hb, G, LAM, GAM)
    # every auxiliary user sees the same row f, so the M interference
    # caps collapse to sum_k p_k <= min_m gamma_m / f_m (none if f = 0)
    cap = _ipc_caps(F[:, None, :], budget.ipc)[:, 0]
    if case is ConstraintCase.IV:
        cap, lam = np.minimum(budget.bs_tpc, cap), 0.0
    capped = np.isfinite(cap)
    G = np.broadcast_to(capped[:, None, None].astype(float), (n, K, 1))
    GAM = np.where(capped, cap, 1.0)[:, None]
    return solve_states_case2(Hb, G, np.full(K, lam), GAM)


def solve_states_bc_via_mac(Hb: np.ndarray, F: np.ndarray, case: ConstraintCase,
                            lam: float, mu, budget: PowerBudget):
    """(q, user): the auxiliary MAC's power and its user (the best if q = 0)."""
    P = powers_via_mac(Hb, F, case, lam, mu, budget)
    q = P.sum(axis=1)
    return q, np.where(q > 0.0, P.argmax(axis=1), _served(Hb))


def bc_via_dual_mac(state: ChannelStateBc, case: ConstraintCase,
                    lam: float, mu, budget: PowerBudget) -> BcStateAllocation:
    """Scalar wrapper for the auxiliary-MAC path."""
    return _one_state(solve_states_bc_via_mac, state, case, lam, mu, budget)
