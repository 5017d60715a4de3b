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
`grid_state_oracles` refines many problems in lockstep: boxes, and faces,
of equal shape share each round's mesh; each problem keeps its own
objective calls and products. Points are C-contiguous (N, K) arrays
worked on column by column (numpy reduces and gathers along a short last
axis row by row).

`saa_primal_oracle` maximizes the sample-average sum rate directly over
the stacked per-state powers with an augmented-Lagrangian scheme: the
averaged halfspace constraints are priced into the objective, the inner
accelerated projected-gradient loop only ever projects onto the box,
and the final iterate is shrunk onto the worst constraint so the
returned value is evaluated at a certified-feasible point and
lower-bounds the true SAA optimum.
"""
from __future__ import annotations

from functools import cache, reduce
from itertools import combinations, groupby, islice, product

import numpy as np

from .constraints import ConstraintCase, PowerBudget, _check_dims
from .errors import UnboundedSubproblemError, UsageError
from .fading import ChannelStateMac, mac_arrays

# ---------------------------------------------------------------------------
# grid oracle

MAX_MESH_POINTS = 10**6   # largest points_per_dim ** K the grid oracle builds


def _clip_toward(pts, anchor, A, b):
    """Pull infeasible points back to the boundary along the segment to
    a feasible anchor.

    Axis-aligned grids cannot land on an oblique constraint face, let
    alone on the edge where two faces meet; clipping each infeasible
    point toward the incumbent populates exactly those faces, so the
    refinement keeps making progress when the optimum is cornered.
    """
    if not (len(b) and len(pts)):
        return pts[:0]
    XA = pts @ A.T
    viol = [dots > bj for dots, bj in zip(XA.T, b)]
    rows = np.flatnonzero(np.logical_or.reduce(viol))
    if len(rows) < len(pts):   # else the same product of the same rows
        pts, viol = pts.take(rows, axis=0), [v.take(rows) for v in viol]
        XA = pts @ A.T
    da, t = A @ anchor, np.full(len(rows), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, xa in enumerate(XA.T):
            t = np.minimum(t, np.where(viol[j], (b[j] - da[j]) / (xa - da[j]), np.inf))
    t, out = np.clip(t, 0.0, 1.0) * (1.0 - 1e-12), np.empty_like(pts)
    for col, x, a in zip(out.T, pts.T, anchor):   # anchor + t * (x - anchor)
        np.multiply(x - a, t, out=col)
        col += a
    return out


def _mesh(lo, hi, n):
    """The (F, n**d, d) grids of the boxes [lo, hi] of (F, d) corners in
    meshgrid "ij" order and their (n, F, d) axes, as np.linspace per box."""
    F, d = lo.shape
    i, step = np.arange(n)[:, None, None], (hi - lo) / (n - 1)
    axes = np.where(step == 0.0, i / (n - 1) * (hi - lo), i * step) + lo
    axes[-1] = hi
    mesh = np.empty((F, *(n,) * d, d))
    for k in range(d):
        mesh[..., k] = axes[..., k].T.reshape((F, *(1,) * k, n, *(1,) * (d - 1 - k)))
    return mesh.reshape(F, n**d, d), axes


def _faces(upper, A, bvec):
    """(x0, cols, W, c0, bound) for each subset S of halfspaces and
    fixing of some coordinates to a box face, x0 holding their values:
    cols lists the d free coordinates, the |S| best-conditioned pivots
    that solve the equalities as c0 + W @ p[free] and K as padding (W, c0
    padded with zeros); bound is bvec * (1 + 1e-12), inf on S."""
    K, J = len(upper), len(bvec)
    for r in range(1, min(J, K) + 1):
        subsets = list(combinations(range(K), r))
        for S in combinations(range(J), r):
            AS, bS = A[list(S)], bvec[list(S)]
            inv = cache(lambda c, AS=AS: np.linalg.inv(AS[:, list(subsets[c])]))
            dets = np.abs(np.linalg.det(np.stack([AS[:, list(c)] for c in subsets])))
            bound = np.where(np.isin(np.arange(J), S), np.inf, bvec * (1.0 + 1e-12))
            for n_fix in range(0, K - r + 1):
                for fixed in combinations(range(K), n_fix):
                    free = [k for k in range(K) if k not in fixed]
                    cands = [c for c, sub in enumerate(subsets) if set(sub) <= set(free)]
                    c = cands[int(np.argmax(dets[cands]))]
                    if not dets[c] > 1e-12:
                        continue
                    piv, fixed = list(subsets[c]), list(fixed)
                    ff = [k for k in free if k not in piv]
                    W = np.vstack([-inv(c) @ AS[:, ff], np.zeros((n_fix, len(ff)))])
                    for pattern in product((0.0, 1.0), repeat=n_fix):
                        x0, c0 = np.zeros(K), np.zeros(r + n_fix)
                        x0[fixed] = np.array(pattern) * upper[fixed]
                        c0[:r] = inv(c) @ (bS - AS[:, fixed] @ x0[fixed])
                        yield x0, (*ff, *piv, *[K] * n_fix), W, c0, bound


def _refine_boxes(probs, grid_step, n, max_rounds):
    """Best points and values on the boxes [0, upper] of problems (objective,
    upper, A, b) with as many users and halfspaces, gridded in lockstep from
    the origin; grid points are also pushed along their ray to the first
    binding constraint, and infeasible ones clipped toward the incumbent."""
    upper, bound = np.array([u for _, u, _, _ in probs]), np.array([b for *_, b in probs])
    (P, K), best_p = upper.shape, np.zeros(upper.shape)
    best_v = np.array([objective(best_p[:1])[0] for objective, *_ in probs])
    live, lo, hi = np.arange(P), np.zeros((P, K)), upper
    for _ in range(max_rounds):
        pts, axes = _mesh(lo, hi, n)
        (L, N), b = pts.shape[:2], bound[live].T[:, :, None]
        dots = np.zeros((len(b), L, N))
        for i, q in enumerate(live):
            for j, a in enumerate(probs[q][2]):
                np.matmul(pts[i], a, out=dots[j, i])
        feas = np.logical_and.reduce(dots <= b * (1.0 + 1e-12))
        with np.errstate(divide="ignore", invalid="ignore"):   # ray to the boundary
            box = np.where(axes > 0.0, upper[live] / axes, np.inf).T
            sigma = reduce(np.minimum, (col.reshape(L, *(1,) * k, n, *(1,) * (K - 1 - k))
                                        for k, col in enumerate(box))).reshape(L, N)
            sigma = np.minimum(sigma, np.where(dots > 0.0, b / dots, np.inf).min(
                axis=0, initial=np.inf))
        ok = np.flatnonzero(np.isfinite(sigma) & (sigma > 0.0))
        ext, sigma = pts.reshape(L * N, K).take(ok, axis=0), sigma.take(ok)
        for col in ext.T:
            col *= sigma
        ext *= 1.0 - 1e-13
        ext = np.split(ext, np.searchsorted(ok, np.arange(N, L * N, N)))
        del ok, sigma, dots   # only the candidates stay alive
        for i, q in enumerate(live):
            objective, _, A, bq = probs[q]
            cand = np.concatenate([
                pts[i] if feas[i].all() else pts[i].take(np.flatnonzero(feas[i]), axis=0),
                ext[i], _clip_toward(pts[i].take(np.flatnonzero(~feas[i]), axis=0),
                                     best_p[q], A, bq)])
            vals = objective(cand)
            k = int(np.argmax(vals))
            if vals[k] > best_v[q]:
                best_v[q], best_p[q] = vals[k], cand[k]
        cell = (hi - lo) / (n - 1)
        go = ~(cell <= grid_step).all(axis=1)   # a problem leaves once its cell is fine
        if not go.any():
            break
        live, cell = live[go], cell[go]
        lo = np.maximum(best_p[live] - 2.0 * cell, 0.0)
        hi = np.minimum(best_p[live] + 2.0 * cell, upper[live])
    return best_p, best_v


def _refine_faces(probs, faces, grid_step, n, max_rounds):
    """Grid-refine faces (q, x0, cols, W, c0, bound) of problems probs[q]
    in lockstep, all with as many coordinates, halfspaces and free
    coordinates, the faces of a problem next to each other: each face's
    best value (-inf if none is feasible) and first point."""
    prob, x0, cols, W, c0, bound = (np.array(z) for z in zip(*faces))
    (F, K), d = x0.shape, W.shape[2]
    up = np.take_along_axis(np.pad([probs[q][1] for q in prob], ((0, 0), (0, 1))), cols,
                            axis=1)   # a zero bound for the padding pivots
    up_ff, up_piv, WT = up[:, :d], up[:, d:], W.transpose(0, 2, 1)
    order = np.tile(np.arange(K + 1), (F, 1))   # columns of [x0 | free | pivots] below
    np.put_along_axis(order, cols, K + np.arange(K), axis=1)   # order[:, K] unused
    v_face, p_face = np.full(F, -np.inf), np.zeros((F, K))
    live, lo, hi, center = np.arange(F), np.zeros((F, d)), up_ff, np.full((F, d), np.nan)
    for _ in range(max_rounds):
        U = _mesh(lo, hi, n)[0]
        F_, N = U.shape[:2]
        Xp = c0[:, None] + np.matmul(U, WT)
        feas = np.ones((F_, N), dtype=bool)
        for i in range(K - d):
            feas &= (Xp[..., i] >= -1e-12) & (Xp[..., i] <= up_piv[:, None, i] + 1e-12)
        X = np.concatenate([x0[:, :, None].repeat(N, axis=2), U.transpose(0, 2, 1),
                            np.clip(Xp, 0.0, up_piv[:, None]).transpose(0, 2, 1)], axis=1)
        X = X[np.arange(F_)[:, None], order[:, :K]].swapaxes(1, 2).copy().reshape(-1, K)
        # each problem's first face, then F_: a problem's rows are X[s * N:e * N]
        seg = np.flatnonzero(np.diff(prob[live], prepend=-1, append=-1))
        dots = np.zeros((bound.shape[1], F_ * N))
        for s, e in zip(seg, seg[1:]):
            for j, a in enumerate(probs[prob[live[s]]][2]):
                np.matmul(X[s * N:e * N], a, out=dots[j, s * N:e * N])
        feas &= np.logical_and.reduce(dots.reshape(-1, F_, N) <= bound.T[:, :, None])
        vals = np.full(F_ * N, -np.inf)
        lone = feas.sum(axis=1) == 1
        rows = np.flatnonzero(feas & ~lone[:, None])
        X_rows, cut = X.take(rows, axis=0), np.searchsorted(rows, seg * N)
        for s, a, e in zip(seg, cut, cut[1:]):
            if e > a:
                vals[rows[a:e]] = probs[prob[live[s]]][0](X_rows[a:e])
        # numpy takes a (1, K) @ (K,) product as a dot, which can round
        # unlike the same row in a batch; a face's lone point goes alone
        for i in np.flatnonzero(feas & lone[:, None]):
            vals[i] = probs[prob[live[i // N]]][0](X[i:i + 1])[0]
        best = np.arange(0, F_ * N, N) + vals.reshape(F_, N).argmax(axis=1)
        up = np.flatnonzero(vals[best] > v_face[live])
        v_face[live[up]], p_face[live[up]] = vals[best[up]], X[best[up]]
        center[up] = U.reshape(F_ * N, d)[best[up]]
        keep = ((hi - lo) / (n - 1) > grid_step).any(axis=1)
        if not keep.all():   # drop the faces that stopped
            if not keep.any():
                break
            live, lo, hi, center, c0, WT, up_piv, x0, order, bound, up_ff = (
                z[keep] for z in (live, lo, hi, center, c0, WT, up_piv, x0, order,
                                  bound, up_ff))
        span = (hi - lo) / 2.0
        c = np.where(np.isnan(center), (lo + hi) / 2.0, center)
        lo = np.clip(c - span / 2.0, 0.0, np.maximum(up_ff - span, 0.0))
        hi = np.minimum(lo + span, up_ff)
    return v_face, p_face


def _batches(keys, n):
    """Indices of equal keys, last d, in runs of min(n**3, MAX_MESH_POINTS) // n**d."""
    for key, ids in groupby(sorted(range(len(keys)), key=keys.__getitem__),
                            key=keys.__getitem__):
        ids, step = list(ids), min(n ** 3, MAX_MESH_POINTS) // n ** key[-1]
        yield from (ids[s:s + step] for s in range(0, len(ids), step))


def _improve_on_faces(probs, best, grid_step, n, max_rounds):
    """Replace best[q] = (point, value) by problem q's best `_faces` point where
    higher, ties to the first face; an optimum with exactly a face's active set
    is interior in its free coordinates. Faces come in blocks, by problem shape."""
    order = sorted(range(len(probs)), key=lambda q: probs[q][2].shape)   # (J, K)
    faces = ((q, *f) for q in order for f in _faces(*probs[q][1:]))
    while block := list(islice(faces, min(n ** 3, MAX_MESH_POINTS) // n)):
        found = {}   # face -> (value, point)
        for ids in _batches([(len(f[5]), *f[3].shape) for f in block], n):   # J, K - d, d
            found.update(zip(ids, zip(*_refine_faces(
                probs, [block[i] for i in ids], grid_step, n, max_rounds))))
        for f, (q, *_) in enumerate(block):
            if found[f][0] > best[q][1]:
                best[q] = (found[f][1], float(found[f][0]))


def _face_candidates(objective, upper, halfspaces, grid_step, points_per_dim, max_rounds):
    """One problem's best face point and value, (None, -inf) if none is feasible."""
    best = [(None, -np.inf)]
    _improve_on_faces([(objective, upper, *map(np.array, zip(*halfspaces)))], best,
                      grid_step, points_per_dim, max_rounds)
    return best[0]


def grid_state_oracles(problems, grid_step=1e-3, points_per_dim=21, max_rounds=80):
    """`grid_state_oracle` of each (objective, upper, halfspaces) problem,
    bit for bit, at most min(points_per_dim ** 3, MAX_MESH_POINTS) grid
    rows a round. Every problem is checked before any objective call."""
    probs = []   # (objective, upper, A, b), each halfspace a row a of A with a.p <= b
    for objective, upper, halfspaces in problems:
        upper, hs = np.asarray(upper, dtype=float), list(halfspaces)
        if not 1 <= len(upper) <= 3:
            raise UsageError("grid oracle supports 1 to 3 users")
        if np.any(~np.isfinite(upper)) or np.any(upper < 0):
            raise UsageError("grid oracle needs finite nonnegative upper bounds")
        A = np.array([a for a, _ in hs], dtype=float).reshape(-1, len(upper))
        probs.append((objective, upper, A, np.array([b for _, b in hs], dtype=float)))
    K = max((len(u) for _, u, _, _ in probs), default=1)
    if not (2 <= points_per_dim and min(points_per_dim, MAX_MESH_POINTS + 1) ** K
            <= MAX_MESH_POINTS and 0.0 < grid_step < np.inf and max_rounds >= 1):
        raise UsageError(f"grid oracle needs 2 <= points_per_dim, points_per_dim ** K"
                         f" <= {MAX_MESH_POINTS}, 0 < grid_step < inf, max_rounds >= 1")
    best = [None] * len(probs)
    for ids in _batches([(*A.shape, A.shape[1]) for *_, A, _ in probs], points_per_dim):
        for q, p, v in zip(ids, *_refine_boxes([probs[q] for q in ids], grid_step,
                                               points_per_dim, max_rounds)):
            best[q] = (p, float(v))
    _improve_on_faces(probs, best, grid_step, points_per_dim, max_rounds)
    return best


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
    Raises UsageError, before any grid is built, for K outside 1..3,
    bounds not finite and nonnegative, points_per_dim < 2 or
    points_per_dim ** K > MAX_MESH_POINTS, grid_step not positive and
    finite, max_rounds < 1.
    """
    return grid_state_oracles([(objective, upper, halfspaces)], grid_step,
                              points_per_dim, max_rounds)[0]


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
