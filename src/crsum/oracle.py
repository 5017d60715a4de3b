r"""Brute-force oracles used to certify the analytic solvers.

`grid_state_oracle` maximizes an arbitrary (vectorized) objective over
{0 <= p <= upper, a_j.p <= b_j}. A coarse-to-fine grid handles interior
and box-face optima; grid points are additionally pushed outward along
their own ray to the first binding constraint, and infeasible points
are clipped back toward the incumbent. Optima sitting on oblique
constraint faces (or on the edge where two such faces meet) are
unreachable by axis-aligned grids, so every combination of active
halfspaces and box faces is also enumerated explicitly: each such face
is parameterized as a graph over its free coordinates and grid-searched
in those coordinates, where the constrained optimum is interior again.

`saa_primal_oracle` maximizes the sample-average sum rate directly over
the stacked per-state powers with an augmented-Lagrangian scheme: the
averaged halfspace constraints are priced into the objective, the inner
accelerated projected-gradient loop only ever projects onto the box,
and the final iterate is shrunk onto the worst constraint so the
returned value is evaluated at a certified-feasible point and
lower-bounds the true SAA optimum.
"""
from __future__ import annotations

import numpy as np

from .constraints import ConstraintCase, PowerBudget
from .errors import UnboundedSubproblemError, UsageError
from .fading import ChannelStateMac, mac_arrays

# ---------------------------------------------------------------------------
# grid oracle


def _ray_extend(pts, upper, halfspaces):
    """Scale each point along its ray to the first binding constraint."""
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.min(np.where(pts > 0.0, upper[None, :] / pts, np.inf), axis=1)
        for a, b in halfspaces:
            dot = pts @ a
            sigma = np.minimum(sigma, np.where(dot > 0.0, b / dot, np.inf))
    ok = np.isfinite(sigma) & (sigma > 0.0)
    return pts[ok] * sigma[ok, None] * (1.0 - 1e-13)


def _clip_toward(pts, anchor, halfspaces):
    """Pull infeasible points back to the boundary along the segment to
    a feasible anchor.

    Axis-aligned grids cannot land on an oblique constraint face, let
    alone on the edge where two faces meet; clipping each infeasible
    point toward the incumbent populates exactly those faces, so the
    refinement keeps making progress when the optimum is cornered.
    """
    if not halfspaces:
        return pts[:0]
    A = np.stack([a for a, _ in halfspaces])
    b = np.array([bb for _, bb in halfspaces])
    dots = pts @ A.T
    viol = dots > b[None, :]
    rows = viol.any(axis=1)
    if not rows.any():
        return pts[:0]
    X = pts[rows]
    da = A @ anchor
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (b[None, :] - da[None, :]) / (X @ A.T - da[None, :])
    t = np.where(viol[rows], ratio, np.inf).min(axis=1)
    t = np.clip(t, 0.0, 1.0) * (1.0 - 1e-12)
    return anchor[None, :] + t[:, None] * (X - anchor[None, :])


def _mesh(lo, hi, points_per_dim):
    axes = [np.linspace(lo[k], hi[k], points_per_dim) for k in range(len(lo))]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _face_candidates(objective, upper, halfspaces, grid_step, points_per_dim):
    """Best point over every face with at least one active halfspace.

    For each subset S of halfspaces and each fixing of some coordinates
    to a box face, |S| pivot coordinates are solved from the equalities
    and the remaining free coordinates are grid-searched over their box
    range. On such a face the optimum whose active set is exactly this
    combination is interior in the free coordinates, which is the
    geometry plain gridding handles well.
    """
    from itertools import combinations

    K = upper.shape[0]
    J = len(halfspaces)
    A = np.stack([a for a, _ in halfspaces])
    bvec = np.array([b for _, b in halfspaces])
    best_p, best_v = None, -np.inf

    def consider(X):
        nonlocal best_p, best_v
        if not len(X):
            return
        vals = objective(X)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v = float(vals[i])
            best_p = X[i].copy()

    coords = range(K)
    for r in range(1, min(J, K) + 1):
        for S in combinations(range(J), r):
            AS, bS = A[list(S)], bvec[list(S)]
            others = [j for j in range(J) if j not in S]
            for n_fix in range(0, K - r + 1):
                for fixed in combinations(coords, n_fix):
                    free = [k for k in coords if k not in fixed]
                    # pivot choice: the best-conditioned r columns
                    piv, det = None, 1e-12
                    for cand_piv in combinations(free, r):
                        d = abs(float(np.linalg.det(AS[:, list(cand_piv)])))
                        if d > det:
                            piv, det = list(cand_piv), d
                    if piv is None:
                        continue
                    ff = [k for k in free if k not in piv]
                    inv_piv = np.linalg.inv(AS[:, piv])
                    # every box-face assignment of the fixed coordinates
                    grids = _mesh(np.zeros(len(fixed)), np.ones(len(fixed)), 2) \
                        if fixed else np.zeros((1, 0))
                    for pattern in grids:
                        x_fix = pattern * upper[list(fixed)]
                        rhs0 = bS - (AS[:, list(fixed)] @ x_fix if fixed else 0.0)
                        W = -inv_piv @ AS[:, ff] if ff else np.zeros((r, 0))
                        c0 = inv_piv @ rhs0

                        def eval_batch(U):
                            X = np.empty((len(U), K))
                            if fixed:
                                X[:, list(fixed)] = x_fix
                            if ff:
                                X[:, ff] = U
                            Xp = c0[None, :] + (U @ W.T if ff else 0.0)
                            feas = ((Xp >= -1e-12).all(axis=1)
                                    & (Xp <= upper[piv] + 1e-12).all(axis=1))
                            X[:, piv] = np.clip(Xp, 0.0, upper[piv])
                            for j in others:
                                feas &= X @ A[j] <= bvec[j] * (1.0 + 1e-12)
                            return X[feas]

                        if not ff:
                            consider(eval_batch(np.zeros((1, 0))))
                            continue
                        up_ff = upper[ff]
                        lo = np.zeros(len(ff))
                        hi = up_ff.copy()
                        v_local, center = -np.inf, None
                        for _ in range(80):
                            X = eval_batch(_mesh(lo, hi, points_per_dim))
                            if len(X):
                                vals = objective(X)
                                i = int(np.argmax(vals))
                                if vals[i] > v_local:
                                    v_local = float(vals[i])
                                    center = X[i][ff].copy()
                                if vals[i] > best_v:
                                    best_v = float(vals[i])
                                    best_p = X[i].copy()
                            cell = (hi - lo) / (points_per_dim - 1)
                            if np.all(cell <= grid_step):
                                break
                            span = (hi - lo) / 2.0
                            c = center if center is not None \
                                else (lo + hi) / 2.0
                            lo = np.clip(c - span / 2.0, 0.0,
                                         np.maximum(up_ff - span, 0.0))
                            hi = np.minimum(lo + span, up_ff)
    return best_p, best_v


def grid_state_oracle(objective, upper, halfspaces=(), grid_step=1e-3,
                      points_per_dim=21, max_rounds=80):
    """Exhaustive coarse-to-fine grid maximization.

    objective: vectorized callable mapping (N, K) powers to (N,) values.
    upper: finite per-coordinate bounds enclosing the optimum.
    halfspaces: iterable of (a, b) with the constraint a.p <= b.
    Returns (p_best, value_best). The value is exact at p_best; p_best
    is within O(grid_step) of optimal for generic instances.
    """
    upper = np.asarray(upper, dtype=float)
    K = upper.shape[0]
    if K > 3:
        raise UsageError("grid oracle supports at most 3 users")
    if np.any(~np.isfinite(upper)) or np.any(upper < 0):
        raise UsageError("grid oracle needs finite nonnegative upper bounds")
    halfspaces = [(np.asarray(a, dtype=float), float(b)) for a, b in halfspaces]

    lo = np.zeros(K)
    hi = upper.copy()
    best_p = np.zeros(K)
    best_v = float(objective(best_p[None])[0])

    for _ in range(max_rounds):
        pts = _mesh(lo, hi, points_per_dim)
        feas = np.ones(len(pts), dtype=bool)
        for a, b in halfspaces:
            feas &= pts @ a <= b * (1.0 + 1e-12)
        cand = [pts[feas]]
        ext = _ray_extend(pts, upper, halfspaces)
        if len(ext):
            cand.append(ext)
        clipped = _clip_toward(pts[~feas], best_p, halfspaces)
        if len(clipped):
            cand.append(clipped)
        cand = np.concatenate(cand, axis=0)
        vals = objective(cand)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v = float(vals[i])
            best_p = cand[i].copy()
        cell = (hi - lo) / (points_per_dim - 1)
        if np.all(cell <= grid_step):
            break
        lo = np.maximum(best_p - 2.0 * cell, 0.0)
        hi = np.minimum(best_p + 2.0 * cell, upper)

    if halfspaces:
        fp, fv = _face_candidates(objective, upper, halfspaces,
                                  grid_step, points_per_dim)
        if fp is not None and fv > best_v:
            best_p, best_v = fp, fv
    return best_p, best_v


def _water_cap(h, price):
    """Safe per-user power bound (1/price - 1/h)^+ for positive price."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where((price > 0.0) & (h > 0.0), 1.0 / price - 1.0 / h, np.inf)
    return np.maximum(np.where(h > 0.0, cap, 0.0), 0.0)


def _ipc_bound(g, gamma):
    with np.errstate(divide="ignore"):
        b = np.where(g > 0.0, gamma[None, :] / g, np.inf)
    return b.min(axis=1) if g.shape[1] else np.full(g.shape[0], np.inf)


def _combine_bounds(h, *bounds):
    upper = np.minimum.reduce(bounds)
    if np.any(np.isinf(upper) & (h > 0.0)):
        raise UnboundedSubproblemError(
            "grid oracle: some user's power is unbounded")
    return np.where(np.isfinite(upper), upper, 0.0)


def case1_problem(state: ChannelStateMac, lam, mu):
    """(objective, upper, halfspaces) for the case-1 subproblem."""
    h, g = state.h, state.g
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    w = lam + g @ mu
    upper = _combine_bounds(h, _water_cap(h, w))

    def objective(P):
        return np.log1p(P @ h) - P @ w

    return objective, upper, []


def case2_problem(state: ChannelStateMac, lam, gamma_st):
    """(objective, upper, halfspaces) for the case-2 subproblem.

    A user's optimal power never exceeds its single-user water level
    (1/lam_k - 1/h_k)^+, and the caps bound it when lam_k = 0.
    """
    h, g = state.h, state.g
    lam = np.asarray(lam, dtype=float)
    gamma_st = np.asarray(gamma_st, dtype=float)
    upper = _combine_bounds(h, _water_cap(h, lam), _ipc_bound(g, gamma_st))
    halfspaces = [(g[:, m], gamma_st[m]) for m in range(state.M)]

    def objective(P):
        return np.log1p(P @ h) - P @ lam

    return objective, upper, halfspaces


def case3_problem(state: ChannelStateMac, mu, p_st):
    h, g = state.h, state.g
    mu = np.asarray(mu, dtype=float)
    p_st = np.asarray(p_st, dtype=float)
    w = g @ mu

    def objective(P):
        return np.log1p(P @ h) - P @ w

    return objective, p_st.copy(), []


def case4_problem(state: ChannelStateMac, p_st, gamma_st):
    h, g = state.h, state.g
    p_st = np.asarray(p_st, dtype=float)
    gamma_st = np.asarray(gamma_st, dtype=float)
    halfspaces = [(g[:, m], gamma_st[m]) for m in range(state.M)]

    def objective(P):
        return np.log1p(P @ h)

    return objective, p_st.copy(), halfspaces


# ---------------------------------------------------------------------------
# SAA primal oracle


def _saa_constraints(H, G, case, budget):
    """Constraint sets on the flattened (n*K,) power vector."""
    n, K = H.shape
    M = G.shape[2]
    nk = n * K
    box_hi = None
    halfspaces = []
    if case.tpc_is_lt:
        for k in range(K):
            a = np.zeros(nk)
            a[k::K] = 1.0 / n
            halfspaces.append((a, budget.tpc[k]))
    else:
        box_hi = np.tile(budget.tpc, n)
    if case.ipc_is_lt:
        for m in range(M):
            halfspaces.append((G[:, :, m].ravel() / n, budget.ipc[m]))
    else:
        for t in range(n):
            for m in range(M):
                a = np.zeros(nk)
                a[t * K:(t + 1) * K] = G[t, :, m]
                halfspaces.append((a, budget.ipc[m]))
    return box_hi, halfspaces


def saa_primal_oracle(states, case: ConstraintCase, budget: PowerBudget,
                      max_iter=6000):
    """Certified-feasible maximizer of the SAA ergodic sum rate.

    Returns (P, value): P is (n, K), value the sample-average sum rate
    at P in nats. Intended for small instances (n*K <= 256).
    """
    H, G = mac_arrays(states)
    n, K = H.shape
    if n * K > 256:
        raise UsageError("saa_primal_oracle is for small instances (n*K <= 256)")
    if budget.K != K or budget.M != G.shape[2]:
        raise UsageError("budget dimensions do not match the ensemble")

    box_hi, halfspaces = _saa_constraints(H, G, case, budget)
    if halfspaces:
        A = np.array([a for a, _ in halfspaces])
        bvec = np.array([b for _, b in halfspaces])
        norms = np.sqrt((A * A).sum(axis=1))
        A = A / norms[:, None]
        bvec = bvec / norms
    else:
        A = np.zeros((0, n * K))
        bvec = np.zeros(0)

    def clip_box(x):
        return np.clip(x, 0.0, box_hi) if box_hi is not None \
            else np.maximum(x, 0.0)

    def value(x):
        return float(np.mean(np.log1p(np.einsum("tk,tk->t", H, x.reshape(n, K)))))

    def grad_f(x):
        P = x.reshape(n, K)
        c = 1.0 + np.einsum("tk,tk->t", H, P)
        return (H / (n * c[:, None])).ravel()

    # multiplier-method ascent: the averaging constraints go into an
    # augmented Lagrangian, so each inner subproblem only needs the
    # trivial box projection
    rho = 4.0
    y_mul = np.zeros(A.shape[0])
    L_f = float(np.max((H * H).sum(axis=1))) / n
    L_in = L_f + rho * (float(np.linalg.norm(A, 2)) ** 2 if A.size else 0.0)
    step = 1.0 / max(L_in, 1e-12)
    x = clip_box(np.zeros(n * K))

    def grad_al(z):
        g = grad_f(z)
        if A.shape[0]:
            g = g - A.T @ np.maximum(0.0, y_mul + rho * (A @ z - bvec))
        return g

    outer = 30
    inner = max(max_iter // outer, 50)
    for it_out in range(outer):
        yv = x.copy()
        tk = 1.0
        x_in = x.copy()
        tol_in = max(1e-10, 1e-4 * (0.1 ** it_out))
        for _ in range(inner):
            x_new = clip_box(yv + step * grad_al(yv))
            if np.max(np.abs(x_new - x_in)) <= tol_in * step:
                x_in = x_new
                break
            tk_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            yv = x_new + ((tk - 1.0) / tk_new) * (x_new - x_in)
            tk = tk_new
            x_in = x_new
        x = x_in
        if A.shape[0]:
            resid = A @ x - bvec
            y_mul = np.maximum(0.0, y_mul + rho * resid)
            if float(np.max(resid)) <= 1e-11 and it_out >= 3:
                break
        else:
            break

    # certify feasibility by shrinking onto the worst constraint
    xb = np.maximum(x, 0.0)
    if box_hi is not None:
        xb = np.minimum(xb, box_hi)
    shrink = 0.0
    if A.shape[0]:
        shrink = max(shrink, float(np.max((A @ xb) / bvec)) - 1.0)
    if shrink > 0.0:
        xb = xb / (1.0 + shrink)
    return xb.reshape(n, K), value(xb)
