"""Enumerating case-4 solvers, kept as references for the simplex.

`exhaustive_case4` tries every KKT active set (binding caps A,
fractional users B with |B| = |A|, and every subset U of the rest at
cap); `_case4_enumerate` tries only the dual vertices (A, B) and
derives the users at cap from reduced-gain signs. Both grow
exponentially in K and M, so they serve small instances only.
"""

import itertools
import math

import numpy as np

from crsum import UsageError
from crsum.perstate_mac import _Pool, _rel_neg, _screened_solve

_TIE_RTOL = 1e-12     # case-4 reduced gains this small count as ties


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
