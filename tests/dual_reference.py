"""The case-1 solver and the dual evaluation as they were before they
ran column by column, kept as the reference that
`perstate_mac.solve_states_case1` and `dual._MacProblem.evaluate` must
match, and the dual loop's one-user rounding as it was before
`perstate_mac.lone_user` took it over.

All reduce along the short last axis of (n, K) and (n, K, M) arrays:
`np.argmax(..., axis=1)` with fancy-index gathers and a scatter for the
winner, `G @ mu` as a matmul, and einsums for the rate and the
interference.
"""
import numpy as np

from crsum import UnboundedSubproblemError
from crsum.dual import DualPoint


def solve_states_case1(H: np.ndarray, G: np.ndarray, lam, mu) -> np.ndarray:
    """Vectorized case-1 solver. lam is (K,) or (n,K); mu is (M,)."""
    n, K = H.shape
    mu = np.asarray(mu, dtype=float)
    W = np.broadcast_to(np.asarray(lam, dtype=float), H.shape) + G @ mu
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(H > 0.0, H / W, 0.0)
    sel = np.argmax(ratio, axis=1)
    rows = np.arange(n)
    rsel = ratio[rows, sel]
    if np.any(np.isinf(rsel)):
        t = int(np.flatnonzero(np.isinf(rsel))[0])
        raise UnboundedSubproblemError(
            "zero effective price for a user with positive gain",
            state_index=t, user_index=int(sel[t]))
    wsel = W[rows, sel]
    hsel = H[rows, sel]
    with np.errstate(divide="ignore"):
        psel = np.where(rsel > 1.0, 1.0 / wsel - 1.0 / hsel, 0.0)
    P = np.zeros_like(H)
    P[rows, sel] = psel
    return P


def one_user(H, Q):
    """Each state's user with the largest h_k q_k keeps its power; the
    others fall silent (ties to the lowest index)."""
    user = np.argmax(H * Q, axis=1)
    rows = np.arange(H.shape[0])
    out = np.zeros_like(Q)
    out[rows, user] = Q[rows, user]
    return out


def evaluate(problem, x: np.ndarray):
    """Dual value, subgradient, allocation, and LT usages at x."""
    self = problem
    point = DualPoint.from_vector(x, self.n_lam)
    P = self._solve(self.H, self.G, point)
    rates = np.log1p(np.einsum("tk,tk->t", self.H, P))
    usage = []
    terms = rates.copy()
    if self.case.tpc_is_lt:
        avg_p = P.mean(axis=0)
        usage.append(avg_p)
        terms -= P @ point.lam
    if self.case.ipc_is_lt:
        I = np.einsum("tk,tkm->tm", P, self.G)
        usage.append(I.mean(axis=0))
        terms -= I @ point.mu
    usage = np.concatenate(usage) if usage else np.zeros(0)
    value = float(terms.mean() + x @ self.thresholds)
    subgrad = self.thresholds - usage
    return value, subgrad, P, usage
