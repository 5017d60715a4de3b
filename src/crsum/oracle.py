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
Faces with as many free coordinates refine in lockstep, one objective
call per round; each keeps its own grid, center, span and stop test,
and leaves the batch when it stops. Points are C-contiguous (N, K)
arrays worked on column by column (numpy reduces and gathers along a
short last axis row by row).

`saa_primal_oracle` maximizes the sample-average sum rate directly over
the stacked per-state powers with an augmented-Lagrangian scheme: the
averaged halfspace constraints are priced into the objective, the inner
accelerated projected-gradient loop only ever projects onto the box,
and the final iterate is shrunk onto the worst constraint so the
returned value is evaluated at a certified-feasible point and
lower-bounds the true SAA optimum.
"""
from __future__ import annotations

from functools import reduce
from itertools import combinations, product

import numpy as np

from .constraints import ConstraintCase, PowerBudget, _check_dims
from .errors import UnboundedSubproblemError, UsageError
from .fading import ChannelStateMac, mac_arrays

# ---------------------------------------------------------------------------
# grid oracle

MAX_MESH_POINTS = 10**6   # largest points_per_dim ** K the grid oracle builds


def _ray_extend(pts, axes, upper, halfspaces, dots):
    """Scale each point of the grid `pts` over `axes` along its ray to the
    first binding constraint; dots[j] = pts @ a_j."""
    with np.errstate(divide="ignore", invalid="ignore"):
        box = np.where(axes > 0.0, upper / axes, np.inf)   # per grid line
        sigma = reduce(np.minimum.outer, box.T).ravel()
        for dot, (_, b) in zip(dots, halfspaces):
            sigma = np.minimum(sigma, np.where(dot > 0.0, b / dot, np.inf))
    ok = np.flatnonzero(np.isfinite(sigma) & (sigma > 0.0))
    out, s = pts.take(ok, axis=0), sigma.take(ok)
    for col in out.T:
        col *= s
    out *= 1.0 - 1e-13
    return out


def _clip_toward(pts, anchor, halfspaces):
    """Pull infeasible points back to the boundary along the segment to
    a feasible anchor.

    Axis-aligned grids cannot land on an oblique constraint face, let
    alone on the edge where two faces meet; clipping each infeasible
    point toward the incumbent populates exactly those faces, so the
    refinement keeps making progress when the optimum is cornered.
    """
    if not (halfspaces and len(pts)):
        return pts[:0]
    A = np.stack([a for a, _ in halfspaces])
    b = np.array([bb for _, bb in halfspaces])
    viol = [dots > bj for dots, bj in zip((pts @ A.T).T, b)]
    rows = np.flatnonzero(np.logical_or.reduce(viol))
    X = pts.take(rows, axis=0)
    da = A @ anchor
    t = np.full(len(rows), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, xa in enumerate((X @ A.T).T):
            ratio = (b[j] - da[j]) / (xa - da[j])
            t = np.minimum(t, np.where(viol[j].take(rows), ratio, np.inf))
    t = np.clip(t, 0.0, 1.0) * (1.0 - 1e-12)
    return anchor[None, :] + t[:, None] * (X - anchor[None, :])


def _mesh(lo, hi, n):
    """The ([F,] n**d, d) grid of the box [lo, hi] of ([F,] d) corners
    in meshgrid "ij" order, and its (n, [F,] d) axes."""
    *F, d = lo.shape
    axes = np.linspace(lo, hi, n)
    if not ((hi - lo) / (n - 1)).all():  # linspace's zero-step path rounds all columns
        axes = np.stack([np.linspace(a, b, n) for a, b in zip(lo.ravel(), hi.ravel())],
                        axis=1).reshape(axes.shape)
    mesh = np.empty((*F, *(n,) * d, d))
    for k in range(d):
        mesh[..., k] = axes[..., k].T.reshape((*F, *(1,) * k, n, *(1,) * (d - 1 - k)))
    return mesh.reshape(*F, n**d, d), axes


def _faces(upper, A, bvec):
    """(S, x0, free, pivots, W, c0) for each subset S of halfspaces and
    fixing of some coordinates to a box face, x0 holding their values:
    the |S| best-conditioned pivots solve the equalities as
    c0 + W @ p[free]."""
    K, J = len(upper), len(bvec)
    for r in range(1, min(J, K) + 1):
        for S in combinations(range(J), r):
            AS, bS = A[list(S)], bvec[list(S)]
            for n_fix in range(0, K - r + 1):
                for fixed in combinations(range(K), n_fix):
                    free = [k for k in range(K) if k not in fixed]
                    cands = list(combinations(free, r))
                    dets = np.abs(np.linalg.det(np.stack([AS[:, list(c)] for c in cands])))
                    if not dets.max() > 1e-12:
                        continue
                    piv = list(cands[int(np.argmax(dets))])
                    ff = [k for k in free if k not in piv]
                    inv_piv = np.linalg.inv(AS[:, piv])
                    W = -inv_piv @ AS[:, ff] if ff else np.zeros((r, 0))
                    for pattern in product((0.0, 1.0), repeat=n_fix):
                        x_fix = np.array(pattern) * upper[list(fixed)]
                        rhs0 = bS - (AS[:, list(fixed)] @ x_fix if fixed else 0.0)
                        x0 = np.zeros(K)
                        x0[list(fixed)] = x_fix
                        yield S, x0, ff, piv, W, inv_piv @ rhs0


def _refine_faces(objective, upper, A, bvec, faces, grid_step, n, max_rounds):
    """Grid-refine faces with equally many free coordinates in lockstep:
    each face's best value (-inf if none is feasible) and first point."""
    F, K, d = len(faces), len(upper), len(faces[0][2])
    r = max(len(f[3]) for f in faces)   # pivots, zero-padded (exact at K <= 3)
    W, c0, up_piv = np.zeros((F, r, d)), np.zeros((F, r)), np.zeros((F, r))
    x0, binds = np.array([f[1] for f in faces]), np.zeros((F, len(bvec)), dtype=bool)
    order = np.tile(np.arange(K), (F, 1))   # columns of [x0 | free | pivots] below
    for f, (S, _, ff, piv, Wf, c0f) in enumerate(faces):
        binds[f, list(S)] = True
        W[f, :len(piv)], c0[f, :len(piv)], up_piv[f, :len(piv)] = Wf, c0f, upper[piv]
        order[f, ff + piv] = K + np.arange(d + len(piv))
    up_ff, WT = upper[np.array([f[2] for f in faces], dtype=int)], W.transpose(0, 2, 1)
    v_face, p_face = np.full(F, -np.inf), np.zeros((F, K))
    live, lo, hi, center = np.arange(F), np.zeros((F, d)), up_ff, np.full((F, d), np.nan)
    for _ in range(max_rounds):
        U = _mesh(lo, hi, n)[0]
        F_, N = U.shape[:2]
        Xp = c0[:, None] + np.matmul(U, WT)
        feas = np.ones((F_, N), dtype=bool)
        for i in range(r):
            feas &= (Xp[..., i] >= -1e-12) & (Xp[..., i] <= up_piv[:, None, i] + 1e-12)
        X = np.concatenate([x0[:, None].repeat(N, axis=1), U,
                            np.clip(Xp, 0.0, up_piv[:, None])], axis=2)
        X = X[np.arange(F_)[:, None, None], np.arange(N)[:, None], order[:, None]]
        X = X.reshape(F_ * N, K)
        for j, (a, b) in enumerate(zip(A, bvec)):
            feas &= binds[:, j, None] | (X @ a <= b * (1.0 + 1e-12)).reshape(F_, N)
        vals = np.full(F_ * N, -np.inf)
        lone = feas.sum(axis=1) == 1
        rows = np.flatnonzero(feas & ~lone[:, None])
        if len(rows):
            vals[rows] = objective(X.take(rows, axis=0))
        # numpy takes a (1, K) @ (K,) product as a dot, which can round
        # unlike the same row in a batch; a face's lone point goes alone
        for i in np.flatnonzero(feas & lone[:, None]):
            vals[i] = objective(X[i:i + 1])[0]
        best = np.arange(0, F_ * N, N) + vals.reshape(F_, N).argmax(axis=1)
        up = np.flatnonzero(vals[best] > v_face[live])
        v_face[live[up]], p_face[live[up]] = vals[best[up]], X[best[up]]
        center[up] = U.reshape(F_ * N, d)[best[up]]
        keep = ((hi - lo) / (n - 1) > grid_step).any(axis=1)
        if not keep.all():   # drop the faces that stopped
            if not keep.any():
                break
            live, lo, hi, center, c0, WT, up_piv, x0, order, binds, up_ff = (
                z[keep] for z in (live, lo, hi, center, c0, WT, up_piv, x0, order,
                                  binds, up_ff))
        span = (hi - lo) / 2.0
        c = np.where(np.isnan(center), (lo + hi) / 2.0, center)
        lo = np.clip(c - span / 2.0, 0.0, np.maximum(up_ff - span, 0.0))
        hi = np.minimum(lo + span, up_ff)
    return v_face, p_face


def _face_candidates(objective, upper, halfspaces, grid_step, points_per_dim,
                     max_rounds):
    """Best point over every face of `_faces` (ties to the first face).
    An optimum with exactly that face's active set is interior in its
    free coordinates, which is the geometry plain gridding handles well.
    """
    A = np.stack([a for a, _ in halfspaces])
    bvec = np.array([b for _, b in halfspaces])
    faces = list(_faces(upper, A, bvec))
    sizes = [len(f[2]) for f in faces]   # free coordinates
    value, point = np.full(len(faces), -np.inf), np.zeros((len(faces), len(upper)))
    for size in sorted(set(sizes)):
        ids = [f for f, s in enumerate(sizes) if s == size]
        value[ids], point[ids] = _refine_faces(
            objective, upper, A, bvec, [faces[f] for f in ids], grid_step,
            points_per_dim, max_rounds)
    if not faces or value.max() == -np.inf:
        return None, -np.inf
    f = int(np.argmax(value))
    return point[f], float(value[f])


def grid_state_oracle(objective, upper, halfspaces=(), grid_step=1e-3,
                      points_per_dim=21, max_rounds=80):
    """Exhaustive coarse-to-fine grid maximization.

    objective: vectorized callable mapping (N, K) powers to (N,) values;
        it only receives C-contiguous (N, K) arrays, whose row products
        (P @ h) round alike in any batch of two or more rows.
    upper: finite per-coordinate bounds enclosing the optimum.
    halfspaces: iterable of (a, b) with the constraint a.p <= b.
    grid_step, points_per_dim, max_rounds: refinement of the box and of
        each face stops once a cell of the points_per_dim-point grid is
        grid_step fine, or after max_rounds rounds.
    Returns (p_best, value_best). The value is exact at p_best; p_best
    is within O(grid_step) of optimal for generic instances.
    Raises UsageError, before any grid is built, for K > 3, bounds not
    finite and nonnegative, points_per_dim < 2 or points_per_dim ** K >
    MAX_MESH_POINTS, grid_step not positive and finite, max_rounds < 1.
    """
    upper = np.asarray(upper, dtype=float)
    K = upper.shape[0]
    if K > 3:
        raise UsageError("grid oracle supports at most 3 users")
    if np.any(~np.isfinite(upper)) or np.any(upper < 0):
        raise UsageError("grid oracle needs finite nonnegative upper bounds")
    if not (2 <= points_per_dim and min(points_per_dim, MAX_MESH_POINTS + 1) ** K
            <= MAX_MESH_POINTS and 0.0 < grid_step < np.inf and max_rounds >= 1):
        raise UsageError(f"grid oracle needs 2 <= points_per_dim, points_per_dim ** K"
                         f" <= {MAX_MESH_POINTS}, 0 < grid_step < inf, max_rounds >= 1")
    halfspaces = [(np.asarray(a, dtype=float), float(b)) for a, b in halfspaces]

    lo = np.zeros(K)
    hi = upper.copy()
    best_p = np.zeros(K)
    best_v = float(objective(best_p[None])[0])

    for _ in range(max_rounds):
        pts, axes = _mesh(lo, hi, points_per_dim)
        dots = [pts @ a for a, _ in halfspaces]
        feas = np.ones(len(pts), dtype=bool)
        for dot, (_, b) in zip(dots, halfspaces):
            feas &= dot <= b * (1.0 + 1e-12)
        cand = np.concatenate([
            pts if feas.all() else pts.take(np.flatnonzero(feas), axis=0),
            _ray_extend(pts, axes, upper, halfspaces, dots),
            _clip_toward(pts.take(np.flatnonzero(~feas), axis=0), best_p, halfspaces)])
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
        fp, fv = _face_candidates(objective, upper, halfspaces, grid_step,
                                  points_per_dim, max_rounds)
        if fp is not None and fv > best_v:
            best_p, best_v = fp, fv
    return best_p, best_v


def _water_cap(h, price):
    """Safe per-user power bound (1/price - 1/h)^+ for positive price."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where((price > 0.0) & (h > 0.0), 1.0 / price - 1.0 / h, np.inf)
    return np.maximum(np.where(h > 0.0, cap, 0.0), 0.0)


def _ipc_bound(g, gamma):
    b = np.full(g.shape[0], np.inf)
    with np.errstate(divide="ignore"):
        for m, col in enumerate(g.T):
            b = np.minimum(b, np.where(col > 0.0, gamma[m] / col, np.inf))
    return b


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
    _check_dims(budget, K, G.shape[2])

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
