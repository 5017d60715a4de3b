"""The case-1 solver and the dual evaluation as they were before they
ran column by column, kept as the reference that
`perstate_mac.solve_states_case1` and `dual._MacProblem.evaluate` must
match, the dual loop's one-user rounding as it was before
`perstate_mac.lone_user` took it over, and the Dantzig-Wolfe master as
it was before it kept its columns in doubling storage and its prices
per pivot: `dual._Master` must match `Master` bit for bit. Last, the
per-state KKT system as it was before it ran states-last:
`perstate_mac._kkt` must match `kkt` to rounding.

All but the master reduce along the short last axis of (n, K) and
(n, K, M) arrays: `np.argmax(..., axis=1)` with fancy-index gathers and
a scatter for the winner, `G @ mu` as a matmul, and einsums for the
rate, the interference and the KKT sums.
"""
import numpy as np

from crsum import SolverFailureError, UnboundedSubproblemError
from crsum.dual import _PIV_TOL, _RC_TOL, PRICE_FLOOR, DualPoint


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


class Master:
    """The Dantzig-Wolfe master over the visited columns, warm-started.

    Rows are the LT budgets scaled to 1 and the convexity row, so the
    right-hand side is all ones and the basic weights are the row sums
    of the basis inverse. The slack of the last row is the zero
    policy's weight, and the slack basis starts the simplex. The basis
    and its inverse carry over from one solve to the next, and a solve
    pivots only while some column prices in (Dantzig's rule, Bland's
    after a run of degenerate pivots). The row prices y scale back to
    the multipliers x = y / thresholds: the minimizer over x >= 0 of
    the cutting-plane model b.x + max(0, max_j R_j - u_j.x) of the dual.
    """

    def __init__(self, thresholds, rates=(), usages=(), floors=()):
        """m slacks, then pooled columns and floors in one block."""
        m = thresholds.size + 1
        self.b = thresholds
        U = np.reshape(usages, (len(rates), m - 1)) / thresholds
        F = np.reshape(floors, (len(floors), m - 1)) / thresholds
        self.A = np.hstack([np.eye(m), np.vstack([U.T, np.ones(len(U))]),
                            np.vstack([F.T, np.zeros(len(F))])])
        self.c = np.concatenate([np.zeros(m), rates, PRICE_FLOOR * F.sum(axis=1)])
        # a visited policy's index in the pool, -1 on a slack or floor
        self.pool_index = np.concatenate([np.full(m, -1), np.arange(len(U)),
                                          np.full(len(F), -1)])
        self.basis = np.arange(m)
        self.Binv = np.eye(m)

    def _add(self, cost, col, pool_index) -> None:
        self.A = np.column_stack([self.A, col])
        self.c = np.append(self.c, cost)
        self.pool_index = np.append(self.pool_index, pool_index)

    def add_column(self, rate, usage) -> int:
        """A visited policy: mean rate, LT usage. Returns its pool index,
        that of an equal column already here if there is one: once the
        basis inverse drifts, two equal columns can swap on every pivot."""
        col = np.append(usage / self.b, 1.0)
        real = self.pool_index >= 0
        twin = np.flatnonzero(real & (self.c == rate) & (self.A == col[:, None]).all(axis=0))
        if twin.size:
            return int(self.pool_index[twin[0]])
        self._add(rate, col, np.count_nonzero(real))
        return int(self.pool_index[-1])

    def add_floor(self, a) -> None:
        """The cut a.x >= PRICE_FLOOR * a.x0 on a zero price a.x."""
        col = np.append(a / self.b, 0.0)
        self._add(PRICE_FLOOR * col.sum(), col, -1)

    def prices(self) -> np.ndarray:
        return self.c[self.basis] @ self.Binv

    @property
    def weights(self) -> np.ndarray:
        return np.maximum(self.Binv.sum(axis=1), 0.0)

    def _reduced_costs(self):
        """Reduced costs at the current prices (zero on the basis), and
        which columns price in."""
        rc = self.c - self.prices() @ self.A
        rc[self.basis] = 0.0
        return rc, rc > _RC_TOL * (1.0 + np.abs(self.c))

    def prices_in(self, j) -> bool:
        """Whether column j would enter the current basis."""
        return bool(self._reduced_costs()[1][j])

    def solve(self) -> None:
        """Pivot until no column prices in."""
        m = self.basis.size
        degenerate = 0
        for _ in range(1000 * m):
            rc, enter = self._reduced_costs()
            if not enter.any():
                return
            q = int(np.argmax(enter) if degenerate > m else np.argmax(rc))
            d = self.Binv @ self.A[:, q]
            ok = d > _PIV_TOL
            ratio = np.where(ok, self.weights / np.where(ok, d, 1.0), np.inf)
            ties = np.flatnonzero(ratio == ratio.min())
            r = int(ties[np.argmin(self.basis[ties])])
            degenerate = degenerate + 1 if ratio[r] <= 0.0 else 0
            row = self.Binv[r] / d[r]
            self.Binv -= np.outer(d, row)
            self.Binv[r] = row
            self.basis[r] = q
        raise SolverFailureError("master LP did not reach an optimal basis")

    def mixture(self):
        """(pool index, weight) of every visited policy in the basis."""
        return [(int(self.pool_index[j]), float(w)) for j, w in zip(self.basis, self.weights)
                if self.pool_index[j] >= 0 and w > 0.0]

    @property
    def value(self) -> float:
        """The mixture's guaranteed rate, sum_j w_j R_j over visited policies."""
        return float(sum(w * self.c[j] for j, w in zip(self.basis, self.weights)
                         if self.pool_index[j] >= 0))


def kkt(H, G, P, LAM, MU, GAM=None, caps=None):
    """The per-state KKT system of max log(1+h.p) - LAM.p - MU.(G^T p)
    over p >= 0 by einsums: need, the |multiplier * slack| arrays and the
    constraint violation arrays, the interference caps as one (n, M)
    array."""
    need = LAM + np.einsum("nkm,nm->nk", G, MU) \
        - H / (1.0 + np.einsum("nk,nk->n", H, P))[:, None]
    cs, primal = [np.abs(np.maximum(need, 0.0) * P)], [-P]
    if GAM is not None:
        slack = np.einsum("nk,nkm->nm", P, G) - GAM
        cs.append(np.abs(MU * slack))
        primal.append(slack)
    if caps is not None:
        cs.append(np.abs(LAM * (P - caps)))
        primal.append(P - caps)
    return need, cs, primal
