"""Enumerating case-2 and case-4 solvers, kept as references for the
simplex solvers that replaced them.

`_case2_enumerate` tries every case-2 KKT active set: binding caps A
and supports J with |J| in {|A|, |A| + 1}. `exhaustive_case4` tries
every case-4 KKT active set (binding caps A, fractional users B with
|B| = |A|, and every subset U of the rest at cap); `_case4_enumerate`
tries only the dual vertices (A, B) and derives the users at cap from
reduced-gain signs. All grow exponentially in K and M, so they serve
small instances only. `_Pool` keeps each state's best candidate.
"""

import itertools
import math

import numpy as np

from crsum import SolverFailureError, UnboundedSubproblemError, UsageError
from crsum.perstate_mac import _LOOSE

_DET_RTOL = 1e-12     # singularity screen for the active-set systems
_STRICT = 1e-9        # candidate accepted as an exact KKT point
_TIE_RTOL = 1e-12     # case-4 reduced gains this small count as ties


class _Pool:
    """Keeps, per state, the best strict KKT candidate (by objective)
    and the least-violating candidate overall (fallback)."""

    def __init__(self, n: int, K: int, M: int):
        self.strict_obj = np.full(n, -np.inf)
        self.strict_P = np.zeros((n, K))
        self.strict_MU = np.zeros((n, M))
        self.strict_LAM = np.zeros((n, K))
        self.loose_viol = np.full(n, np.inf)
        self.loose_P = np.zeros((n, K))
        self.loose_MU = np.zeros((n, M))
        self.loose_LAM = np.zeros((n, K))

    def offer(self, P, MU, LAM, viol, obj):
        strict = viol <= _STRICT
        take = strict & (obj > self.strict_obj)
        if np.any(take):
            self.strict_obj[take] = obj[take]
            self.strict_P[take] = P[take]
            self.strict_MU[take] = MU[take]
            self.strict_LAM[take] = LAM[take]
        take = viol < self.loose_viol
        if np.any(take):
            self.loose_viol[take] = viol[take]
            self.loose_P[take] = P[take]
            self.loose_MU[take] = MU[take]
            self.loose_LAM[take] = LAM[take]

    def resolve(self, what: str):
        have = np.isfinite(self.strict_obj)
        fallback = ~have
        if np.any(fallback):
            bad = self.loose_viol[fallback] > _LOOSE
            if np.any(bad):
                worst = float(np.min(self.loose_viol[fallback]))
                raise SolverFailureError(
                    f"{what}: no active set satisfied the KKT system "
                    f"(best violation {worst:.3e})", residual=worst)
            for arr, src in ((self.strict_P, self.loose_P),
                             (self.strict_MU, self.loose_MU),
                             (self.strict_LAM, self.loose_LAM)):
                arr[fallback] = src[fallback]
        np.maximum(self.strict_P, 0.0, out=self.strict_P)
        np.maximum(self.strict_MU, 0.0, out=self.strict_MU)
        np.maximum(self.strict_LAM, 0.0, out=self.strict_LAM)
        return self.strict_P, self.strict_MU, self.strict_LAM


def _screened_solve(Mat: np.ndarray, rhs: np.ndarray):
    """Batched linear solve with a determinant screen.

    Returns (x, bad): rows flagged bad were (near-)singular and their
    x is meaningless.
    """
    s = Mat.shape[-1]
    row_norms = np.sqrt((Mat * Mat).sum(axis=2))
    scale = row_norms.prod(axis=1)
    det = np.linalg.det(Mat)
    bad = ~(np.abs(det) > _DET_RTOL * scale)
    if np.any(bad):
        Mat = np.where(bad[:, None, None], np.eye(s), Mat)
    x = np.linalg.solve(Mat, rhs[..., None])[..., 0]
    bad |= ~np.all(np.isfinite(x), axis=1)
    return x, bad


def _rel_neg(x: np.ndarray) -> np.ndarray:
    """Per-row worst negativity of x, scaled by the row magnitude."""
    if x.shape[1] == 0:
        return np.zeros(x.shape[0])
    scale = 1.0 + np.max(np.abs(x), axis=1)
    return np.maximum(-x.min(axis=1), 0.0) / scale


def exhaustive_case4(H, G, p_st, gamma):
    """Reference case-4 solver: enumerate binding caps A, fractional
    users B (|B| = |A|) and every subset U of the rest at cap."""
    n, K = H.shape
    M = G.shape[2]
    GAM = np.broadcast_to(np.asarray(gamma, dtype=float), (n, M))
    caps = np.broadcast_to(np.asarray(p_st, dtype=float), (n, K))
    pool = _Pool(n, K, M)

    P0 = np.where(H > 0.0, caps, 0.0)
    sumh0 = np.einsum("nk,nk->n", H, P0)
    over0 = np.maximum((np.einsum("nk,nkm->nm", P0, G) - GAM) / GAM,
                       0.0).max(axis=1)
    pool.offer(P0, np.zeros((n, M)), H / (1.0 + sumh0)[:, None], over0,
               np.log1p(sumh0))

    users = range(K)
    for a in range(1, min(K, M) + 1):
        for A in map(list, itertools.combinations(range(M), a)):
            for B in map(list, itertools.combinations(users, a)):
                rest = [k for k in users if k not in B]
                for U in (list(U) for r in range(len(rest) + 1)
                          for U in itertools.combinations(rest, r)):
                    Z = [k for k in rest if k not in U]
                    GBA = G[:, B][:, :, A]
                    rhs = GAM[:, A] - np.einsum("nk,nkm->nm", caps[:, U],
                                                G[:, U][:, :, A])
                    pB, bad = _screened_solve(np.swapaxes(GBA, 1, 2), rhs)
                    sumh = np.einsum("nk,nk->n", H[:, B], pB) \
                        + np.einsum("nk,nk->n", H[:, U], caps[:, U])
                    with np.errstate(divide="ignore", invalid="ignore"):
                        t = 1.0 / (1.0 + sumh)
                        mu_A, bad2 = _screened_solve(GBA, H[:, B] * t[:, None])
                    bad |= bad2
                    P = np.zeros((n, K))
                    P[:, B] = pB
                    P[:, U] = caps[:, U]
                    MU = np.zeros((n, M))
                    MU[:, A] = mu_A
                    price = np.einsum("nkm,nm->nk", G, MU)
                    LAM = np.zeros((n, K))
                    over = np.maximum((np.einsum("nk,nkm->nm", P, G) - GAM)
                                      / GAM, 0.0)
                    over[:, A] = 0.0
                    with np.errstate(invalid="ignore"):
                        LAM[:, U] = H[:, U] * t[:, None] - price[:, U]
                        viol = np.max(np.stack([
                            _rel_neg(pB), _rel_neg(caps[:, B] - pB),
                            _rel_neg(mu_A), _rel_neg(LAM[:, U]),
                            _rel_neg(price[:, Z] - H[:, Z] * t[:, None]),
                            over.max(axis=1)]), axis=0)
                        obj = np.log1p(np.maximum(sumh, -0.5))
                    viol = np.where(bad, np.inf, viol)
                    obj = np.where(bad | ~np.isfinite(obj), -np.inf, obj)
                    pool.offer(P, MU, LAM, viol, obj)
    P, MU, LAM = pool.resolve("exhaustive case-4")
    return np.minimum(P, caps), LAM, MU


def _case4_vertices(K: int, M: int):
    for a in range(1, min(K, M) + 1):
        for A in itertools.combinations(range(M), a):
            for B in itertools.combinations(range(K), a):
                yield list(A), list(B)


def _perturbed_at_cap(GBA, GA, B, tied, up):
    """Sign tied reduced gains as if each h_k were raised by eps^(k+1).

    User k's gain becomes eps^(k+1) - sum_{j in B} w_kj eps^(j+1), with
    G_BA^T w_k = g_kA, signed by its lowest-index nonzero coefficient.
    An optimal basis of the perturbed program is optimal here too and
    has no zero reduced gain, so at its vertex the rule puts exactly
    the right users at cap. Identical users fill lowest index first.
    """
    rows = np.flatnonzero(tied.any(axis=1))
    coef = np.tile(np.eye(up.shape[1]), (len(rows), 1, 1))
    coef[:, :, B] -= np.swapaxes(np.linalg.solve(
        np.swapaxes(GBA[rows], 1, 2), np.swapaxes(GA[rows], 1, 2)), 1, 2)
    mag = np.abs(coef)
    lead = np.argmax(mag > _TIE_RTOL * mag.max(axis=2, keepdims=True), axis=2)
    sign = np.take_along_axis(coef, lead[..., None], axis=2)[..., 0]
    up[rows] = np.where(tied[rows], sign > 0.0, up[rows])
    return up


def _case4_enumerate(H, G, p_st, gamma):
    """Case 4 by dual-vertex enumeration. Returns (P, LAM, MU).

    A dual vertex pairs binding caps A with users B inside their caps,
    |A| = |B|; the prices nu = mu / t, t = 1 / (1 + h.p), solve
    h_B = G_BA nu_A, and any other user is at cap iff h_k - g_k.nu > 0
    (ties: _perturbed_at_cap). That is C(K+M, M) - 1 candidates plus
    the all-at-cap point.
    """
    n, K = H.shape
    M = G.shape[2]
    if math.comb(K + M, M) - 1 > 300_000:
        raise UsageError("case-4 dual-vertex enumeration too large for this K, M")
    p_st = np.asarray(p_st, dtype=float)
    GAM = np.broadcast_to(np.asarray(gamma, dtype=float), (n, M))
    caps = np.broadcast_to(p_st, (n, K))

    pool = _Pool(n, K, M)

    # no interference cap binding: every user with positive gain
    # transmits at full power, priced by its own cap multiplier
    P0 = np.where(H > 0.0, caps, 0.0)
    sumh0 = np.einsum("nk,nk->n", H, P0)
    I0 = np.einsum("nk,nkm->nm", P0, G)
    over0 = np.maximum((I0 - GAM) / GAM, 0.0).max(axis=1) if M else np.zeros(n)
    LAM0 = H / (1.0 + sumh0)[:, None]
    pool.offer(P0, np.zeros((n, M)), LAM0, over0, np.log1p(sumh0))

    for A, B in _case4_vertices(K, M):
        GA = G[:, :, A]                           # (n, K, a)
        GBA = GA[:, B]                            # (n, a, a)
        nu, bad = _screened_solve(GBA, H[:, B])
        r = H - np.einsum("nka,na->nk", GA, nu)
        r[:, B] = 0.0
        tied = np.abs(r) <= _TIE_RTOL * (H + np.einsum("nka,na->nk", GA, np.abs(nu)))
        tied[:, B] = False
        tied[bad] = False
        up = r > 0.0
        if np.any(tied):
            up = _perturbed_at_cap(GBA, GA, B, tied, up)

        P = np.where(up, caps, 0.0)
        pB, bad2 = _screened_solve(np.swapaxes(GBA, 1, 2),
                                   GAM[:, A] - np.einsum("nk,nka->na", P, GA))
        bad |= bad2
        P[:, B] = pB
        sumh = np.einsum("nk,nk->n", H, P)

        # lambda_U and the silent users' slack are nonnegative by the
        # sign rule; what remains is primal feasibility and nu_A >= 0
        over = np.maximum((np.einsum("nk,nkm->nm", P, G) - GAM) / GAM, 0.0)
        over[:, A] = 0.0
        viol = np.max(np.stack([_rel_neg(pB),
                                _rel_neg(caps[:, B] - pB),
                                _rel_neg(nu),
                                over.max(axis=1)]), axis=0)
        viol = np.where(bad, np.inf, viol)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = 1.0 / (1.0 + sumh)
            MU = np.zeros((n, M))
            MU[:, A] = nu * t[:, None]
            LAM = np.where(up, r * t[:, None], 0.0)
            obj = np.log1p(np.maximum(sumh, -0.5))
        obj = np.where(bad | ~np.isfinite(obj), -np.inf, obj)
        pool.offer(P, MU, LAM, viol, obj)

    P, MU, LAM = pool.resolve("case-4 state solver")
    np.minimum(P, caps, out=P)
    return P, LAM, MU


def _case2_structures(K: int, M: int):
    for a in range(M + 1):
        for A in itertools.combinations(range(M), a):
            for js in ((1,) if a == 0 else (a, a + 1)):
                for J in itertools.combinations(range(K), js):
                    yield list(A), list(J)


def _case2_enumerate(H, G, lam, gamma):
    """Case 2 by KKT active-set enumeration: every support J with
    binding caps A, |J| in {|A|, |A| + 1}. Returns (P, MU)."""
    n, K = H.shape
    M = G.shape[2]
    # K + sum_{a>=1} C(M,a) (C(K,a) + C(K,a+1)) structures (Vandermonde)
    if math.comb(K + M + 1, M + 1) - 1 > 300_000:
        raise UsageError("case-2 active-set enumeration too large for this K, M")
    LAM = np.broadcast_to(np.asarray(lam, dtype=float), (n, K))
    GAM = np.broadcast_to(np.asarray(gamma, dtype=float), (n, M))

    # Unbounded exactly when some user sees no price at all: lam_k = 0,
    # g_k = 0 across primaries, h_k > 0.
    free = (LAM <= 0.0) & (H > 0.0) & np.all(G <= 0.0, axis=2)
    if np.any(free):
        t, k = np.argwhere(free)[0]
        raise UnboundedSubproblemError(
            "user has positive gain but zero transmit and interference price",
            state_index=int(t), user_index=int(k))

    pool = _Pool(n, K, M)
    zero_MU = np.zeros((n, M))
    zero_LAM = np.zeros((n, K))

    # p = 0 candidate: needs lam_k >= h_k for every user (delta >= 0).
    viol0 = np.maximum((H - LAM).max(axis=1), 0.0) / (1.0 + np.max(LAM, axis=1))
    pool.offer(np.zeros((n, K)), zero_MU, zero_LAM, viol0, np.zeros(n))

    for A, J in _case2_structures(K, M):
        a, js = len(A), len(J)
        GJA = G[:, J][:, :, A]                      # (n, js, a)
        hJ = H[:, J]
        lamJ = LAM[:, J]

        if js == a + 1:
            # unknowns (mu_A, t): stationarity rows over J
            Mat = np.concatenate([GJA, -hJ[:, :, None]], axis=2)
            x, bad = _screened_solve(Mat, -lamJ)
            mu_A = x[:, :a]
            t = x[:, a]
            ok_t = (t > 1e-14) & (t <= 1.0 + 1e-9)
            # powers: interference tightness on A plus the sum-rate coupling
            Mat2 = np.concatenate([np.swapaxes(GJA, 1, 2), hJ[:, None, :]], axis=1)
            with np.errstate(divide="ignore", over="ignore"):
                rhs2 = np.concatenate(
                    [GAM[:, A], (1.0 / np.where(ok_t, t, 1.0) - 1.0)[:, None]], axis=1)
            pJ, bad2 = _screened_solve(Mat2, rhs2)
            bad |= bad2 | ~ok_t
        else:
            # |J| == |A| >= 1: powers pinned by tightness alone
            Mat2 = np.swapaxes(GJA, 1, 2)
            pJ, bad = _screened_solve(Mat2, GAM[:, A])
            t = 1.0 / (1.0 + np.einsum("nk,nk->n", hJ, pJ))
            mu_A, bad2 = _screened_solve(GJA, hJ * t[:, None] - lamJ)
            bad |= bad2

        P = np.zeros((n, K))
        P[:, J] = pJ
        MU = np.zeros((n, M))
        MU[:, A] = mu_A

        # dual feasibility for users off the support
        slack_need = LAM + np.einsum("nkm,nm->nk", G, MU) - H * t[:, None]
        slack_need[:, J] = 0.0
        dual_viol = np.maximum(-slack_need.min(axis=1), 0.0) \
            / (1.0 + np.max(LAM, axis=1) + np.abs(mu_A).sum(axis=1))
        # interference feasibility off the active primaries
        I = np.einsum("nk,nkm->nm", P, G)
        if M:
            over = np.maximum((I - GAM) / GAM, 0.0)
            if a:
                over[:, A] = 0.0
            feas_viol = over.max(axis=1)
        else:
            feas_viol = np.zeros(n)

        viol = np.max(np.stack([
            _rel_neg(pJ),
            _rel_neg(mu_A) if a else np.zeros(n),
            dual_viol,
            feas_viol,
        ]), axis=0)
        viol = np.where(bad, np.inf, viol)

        obj = np.log1p(np.einsum("nk,nk->n", hJ, np.maximum(pJ, 0.0))) \
            - np.einsum("nk,nk->n", lamJ, np.maximum(pJ, 0.0))
        obj = np.where(bad | ~np.isfinite(obj), -np.inf, obj)
        pool.offer(P, MU, zero_LAM, viol, obj)

    P, MU, _ = pool.resolve("case-2 state solver")
    return P, MU
