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
`grid_state_oracles` refines many problems in lockstep: boxes, and faces
(each listed once, built for all problems of a shape at once), of equal
shape share each round's mesh, which spans only axes of positive width
(no copies along a dead user's zero bound); each problem keeps its own
objective calls. A face whose box holds no acceptable point by exact
interval ranges is dropped, as it would make none, and box rounds
without halfspaces skip the clip. A box round evaluates a
problem's feasible mesh points, ray points and clipped points where they
lie, up to three calls, and the first maximum in that order wins; a
one-row block joins the others, since numpy takes a lone row's product
as a dot. Points are C-contiguous (N, K) arrays worked on column by
column (numpy reduces and gathers along a short last axis row by row).

`saa_primal_oracle` maximizes the sample-average sum rate directly over
the stacked per-state powers by a primal log-barrier method: Newton
steps on tau times the rate plus the log of every slack (powers above
0, the averaged or per-state halfspaces, the ST-TPC box), tau growing
50-fold a stage until the barrier's gap is 1e-11 of the rate. Every
iterate is strictly feasible, and the last is shrunk onto its worst
constraint against rounding, so the returned value is evaluated at a
certified-feasible point and lower-bounds the true SAA optimum.
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


def _rows(X, mask):
    """The rows of X that mask marks, X itself when it marks all."""
    return X if mask.all() else X.take(np.flatnonzero(mask), axis=0)


def _span(width):
    """Mesh axes: those of positive width, else the first (a one-row mesh rounds unlike copies)."""
    span = width > 0.0
    span[..., :1] |= ~span.any(axis=-1, keepdims=True)
    return span


def _mesh(lo, hi, n, span):
    """The (F, n**s, d) grids of the boxes [lo, hi] of (F, d) corners in "ij" order over
    the s axes span marks (0 on the others), and their (n, F, s) axes, as np.linspace."""
    (F, d), s, lo, hi = lo.shape, int(span.sum()), lo[:, span], hi[:, span]
    i, step = np.arange(n)[:, None, None], (hi - lo) / (n - 1)
    axes = np.where(step == 0.0, i / (n - 1) * (hi - lo), i * step) + lo
    axes[-1] = hi
    mesh = np.zeros((F, *(n,) * s, d))
    for j, k in enumerate(np.flatnonzero(span)):
        mesh[..., k] = axes[..., j].T.reshape((F, *(1,) * j, n, *(1,) * (s - 1 - j)))
    return mesh.reshape(F, n**s, d), axes


def _faces(upper, A, b):
    """Arrays (q, d, x0, cols, W, A, bound, up), a row per face of the problems {0 <= p <=
    upper[q], A[q] p <= b[q]} of one shape, each problem's in order of halfspace subset S,
    fixing of coordinates to a box face and pattern, but a 1 on a zero bound (it repeats
    the 0): d free coordinates; cols lists them, the |S| best-conditioned pivots that
    solve the equalities as x0[pivots] + W @ p[free] and K as padding; x0 holds the fixed
    values, up the bounds on cols; bound is b * (1 + 1e-12), inf on S."""
    (_, J, K), out, up = A.shape, [], np.pad(upper, ((0, 0), (0, 1)))
    for S, fixed in ((list(S), list(f)) for r in range(1, min(J, K) + 1)
                     for S in combinations(range(J), r) for n_fix in range(K - r + 1)
                     for f in combinations(range(K), n_fix)):
        r, AS, free = len(S), A[:, S], [k for k in range(K) if k not in fixed]
        pivots = list(combinations(free, r))   # in the order the reference tries them
        dets = np.abs(np.linalg.det(AS[:, :, pivots].swapaxes(1, 2)))
        patterns, bound = np.array(list(product((0.0, 1.0), repeat=len(fixed)))), b * (1 + 1e-12)
        bound[:, S] = np.inf
        for c in set(dets.argmax(axis=1).tolist()):   # the problems whose pivots are pivots[c]
            q = np.flatnonzero((dets.argmax(axis=1) == c) & (dets[:, c] > 1e-12))
            piv, ASq, fix_up = list(pivots[c]), AS[q], upper[q][:, None, fixed]
            ff, inv = [k for k in free if k not in piv], np.linalg.inv(ASq[:, :, piv])
            x0, W = np.zeros((len(q), len(patterns), K + 1)), np.zeros((len(q), K, K))
            x0[:, :, fixed], W[:, :r, :len(ff)] = patterns * fix_up, -inv @ ASq[:, :, ff]
            rhs = b[q][:, None, S] - (ASq[:, None][..., fixed] @ x0[:, :, fixed, None])[..., 0]
            x0[:, :, piv] = (inv[:, None] @ rhs[..., None])[..., 0]
            i, t = np.nonzero(~((patterns > 0.0) & (fix_up == 0.0)).any(axis=2))
            cols = np.array(ff + piv + [K] * len(fixed))
            out.append((q[i], np.full(len(i), len(ff)), x0[i, t], cols[None].repeat(len(i), 0),
                        W[i], A[q[i]], bound[q[i]], up[q[i]][:, cols]))
    order = np.argsort(np.concatenate([z[0] for z in out]), kind="stable")
    return [np.concatenate(z)[order] for z in zip(*out)]   # each problem's faces in order


def _refine_boxes(probs, grid_step, n, max_rounds):
    """Best points and values on the boxes [0, upper] of problems (objective,
    upper, A, b) of one shape and `_span`, gridded in lockstep from the origin;
    grid points are also pushed along their ray to the first binding
    constraint, and infeasible ones clipped toward the incumbent. A round
    calls each objective on up to three blocks (feasible, ray, clipped
    points), the first maximum in that order winning, as in one concatenation;
    a block of one row joins the others in one call."""
    upper, A, bound = (np.array([z[k] for z in probs]) for k in (1, 2, 3))
    (P, K), best_p, span = upper.shape, np.zeros(upper.shape), _span(upper[0])
    best_v = np.array([objective(best_p[:1])[0] for objective, *_ in probs])
    live, lo, hi, J = np.arange(P), np.zeros((P, K)), upper, A.shape[1]
    for _ in range(max_rounds):
        pts, axes = _mesh(lo, hi, n, span)
        L, N = pts.shape[:2]
        with np.errstate(divide="ignore", invalid="ignore"):   # ray to the boundary
            box = np.where(axes > 0.0, upper[live][:, span] / axes, np.inf).T
            sigma = reduce(np.minimum, (col.reshape(L, *(1,) * k, n, *(1,) * (len(box) - 1 - k))
                                        for k, col in enumerate(box))).reshape(L, N)
            if J:   # cases I and III have none: no products, masks, clips or halfspace term
                b = bound[live].T[:, :, None]
                dots = np.matmul(pts, A[live].transpose(1, 0, 2)[..., None])[..., 0]   # (J, L, N)
                feas = np.logical_and.reduce(dots <= b * (1.0 + 1e-12))
                sigma = np.minimum(sigma, np.where(dots > 0.0, b / dots, np.inf).min(axis=0))
                del dots
            ext = np.empty_like(pts)   # each point on its ray, kept where sigma is
            for col, x in zip(ext.transpose(2, 0, 1), pts.transpose(2, 0, 1)):
                np.multiply(x, sigma, out=col)
        ext *= 1.0 - 1e-13
        ok = np.isfinite(sigma) & (sigma > 0.0)
        del sigma   # only the candidates stay alive
        for i, q in enumerate(live):
            objective, _, Aq, bq = probs[q]
            blocks = [pts[i], _rows(ext[i], ok[i])]
            if J:   # the reference clips n ** K // N copies of each row: a lone row goes twice
                clip = _rows(pts[i], ~feas[i])
                clip = _clip_toward(clip.repeat(2, axis=0) if len(clip) == 1 < n ** K // N
                                    else clip, best_p[q], Aq, bq)[:len(clip)]
                blocks = [_rows(pts[i], feas[i]), blocks[1], clip]
            blocks = [X for X in blocks if len(X)]
            if any(len(X) == 1 for X in blocks):   # a lone row would be a dot: it joins
                blocks = [np.concatenate(blocks)]
            for X in blocks:   # the first maximum of the blocks in order wins
                vals = objective(X)
                k = int(np.argmax(vals))
                if vals[k] > best_v[q]:
                    best_v[q], best_p[q] = vals[k], X[k]
        cell = (hi - lo) / (n - 1)
        go = ~(cell <= grid_step).all(axis=1)   # a problem leaves once its cell is fine
        if not go.any():
            break
        live, cell = live[go], cell[go]
        lo = np.maximum(best_p[live] - 2.0 * cell, 0.0)
        hi = np.minimum(best_p[live] + 2.0 * cell, upper[live])
    return best_p, best_v


def _refine_faces(probs, prob, span, faces, grid_step, n, max_rounds):
    """Grid-refine `_faces` rows (x0, cols, W, A, bound, up) of problems probs[prob] in
    lockstep, all of one shape and `_span` of the d free coordinates, a problem's faces
    next to each other: each face's best value (-inf if none is feasible) and first point."""
    x0, cols, W, A, bound, up = faces
    (F, K), d = cols.shape, len(span)
    up_ff, up_piv, WT = up[:, :d], up[:, d:], W[:, :K - d, :d].transpose(0, 2, 1)
    c0 = np.take_along_axis(x0, cols[:, d:], axis=1)   # the pivots' values at p[free] = 0
    v_face, p_face = np.full(F, -np.inf), np.zeros((F, K))
    live, lo, hi, center = np.arange(F), np.zeros((F, d)), up_ff, np.full((F, d), np.nan)
    for _ in range(max_rounds):
        U = _mesh(lo, hi, n, span)[0]
        F_, N = U.shape[:2]
        Xp = c0[:, None] + np.matmul(U, WT)
        feas = np.ones((F_, N), dtype=bool)
        for i in range(K - d):
            feas &= (Xp[..., i] >= -1e-12) & (Xp[..., i] <= up_piv[:, None, i] + 1e-12)
        X = np.repeat(x0[:, None], N, axis=1)   # (F_, N, K + 1), the padding to column K
        for k, v in enumerate(np.dstack([U, np.clip(Xp, 0.0, up_piv[:, None])]).transpose(2, 0, 1)):
            X[np.arange(F_)[:, None], np.arange(N), cols[:, k:k + 1]] = v
        X = X[..., :K].reshape(-1, K)
        # each problem's first face, then F_: a problem's rows are X[s * N:e * N]
        seg = np.flatnonzero(np.diff(prob[live], prepend=-1, append=-1))
        dots = np.matmul(X.reshape(F_, N, K), A[live].transpose(1, 0, 2)[..., None])[..., 0]
        feas &= np.logical_and.reduce(dots <= bound.T[:, :, None])
        vals = np.full(F_ * N, -np.inf)
        lone = feas.sum(axis=1) * (n ** d // N) == 1   # times the reference's copies
        rows = np.flatnonzero(feas & ~lone[:, None])
        X_rows, cut = X.take(rows, axis=0), np.searchsorted(rows, seg * N)
        for s, a, e in zip(seg, cut, cut[1:]):   # a lone row here stands for its copies
            if e > a:
                Xq = X_rows[a:e] if e - a > 1 else X_rows[a:e].repeat(2, axis=0)
                vals[rows[a:e]] = probs[prob[live[s]]][0](Xq)[:e - a]
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
            live, lo, hi, center, c0, WT, up_piv, x0, cols, bound, up_ff = (
                z[keep] for z in (live, lo, hi, center, c0, WT, up_piv, x0, cols, bound, up_ff))
        width = (hi - lo) / 2.0
        c = np.where(np.isnan(center), (lo + hi) / 2.0, center)
        lo = np.clip(c - width / 2.0, 0.0, np.maximum(up_ff - width, 0.0))
        hi = np.minimum(lo + width, up_ff)
    return v_face, p_face


def _batches(key, s, n):
    """Index arrays of the equal entries of the int array key, stably sorted, in runs
    of min(n**3, MAX_MESH_POINTS) // n**s[i] (s[i] mesh axes an entry)."""
    order = np.argsort(key, kind="stable")
    cut = np.flatnonzero(np.diff(key[order], prepend=-1, append=-1))   # run starts, then the end
    for a, e in zip(cut, cut[1:]):
        step = min(n ** 3, MAX_MESH_POINTS) // n ** int(s[order[a]])
        yield from (order[i:min(i + step, e)] for i in range(a, e, step))


def _may_hold_points(d, x0, cols, W, A, bound, up):
    """Whether each `_faces` row's box [0, up_ff] may hold a point its rounds accept: the
    exact range of each coordinate's affine map over it (Moore, Interval Analysis, 1966),
    widened by 1e-9 of its terms' size, meets a pivot's band [-1e-12, up + 1e-12], and,
    clipped to [0, up], keeps the least a.X of every other halfspace within that margin."""
    K, pos = cols.shape[1], np.arange(cols.shape[1])
    free = pos < d[:, None]   # position k < d holds a free coordinate, else pivot k - d or padding
    W = np.take_along_axis(W, np.maximum(pos - d[:, None], 0)[..., None], axis=1)
    WU = np.where(free[..., None], np.eye(K), W) * np.where(free, up, 0.0)[:, None]
    c0 = np.take_along_axis(x0, cols, axis=1)
    tol = 1e-9 * (1.0 + np.abs(c0) + np.abs(WU).sum(axis=2))
    lo, hi = c0 + np.minimum(WU, 0.0).sum(axis=2) - tol, c0 + np.maximum(WU, 0.0).sum(axis=2) + tol
    X_lo, X_hi = x0.copy(), x0.copy()   # the coordinate box, fixed values as listed
    np.put_along_axis(X_lo, cols, np.clip(lo, 0.0, up), axis=1)
    np.put_along_axis(X_hi, cols, np.clip(hi, 0.0, up), axis=1)
    least = np.minimum(A * X_lo[:, None, :K], A * X_hi[:, None, :K]).sum(axis=2)
    size = np.abs(bound) + (np.abs(A) * X_hi[:, None, :K]).sum(axis=2)
    return (((hi >= -1e-12) & (lo <= up + 1e-12)).all(axis=1)
            & (least <= bound + 1e-9 * (1.0 + size)).all(axis=1))


def _improve_on_faces(probs, best, grid_step, n, max_rounds):
    """Replace best[q] = (point, value) by problem q's best `_faces` point where
    higher, ties to the first face; an optimum with exactly a face's active set
    is interior in its free coordinates. Faces are built n**2 problems of a shape
    at a time, and those `_may_hold_points` drops make no call."""
    shape = np.array([4 * len(b) + len(u) for _, u, _, b in probs], dtype=int)   # 4 J + K
    for qs in _batches(shape, np.ones_like(shape), n):
        J, K = probs[qs[0]][2].shape
        if not J:
            continue
        q, d, *faces = _faces(*(np.array([probs[i][k] for i in qs]) for k in (1, 2, 3)))
        keep = _may_hold_points(d, *faces)
        q, d, faces = q[keep], d[keep], [z[keep] for z in faces]
        free = np.arange(K) < d[:, None]
        span = _span(np.where(free, faces[-1], 0.0)) & free
        v, p = np.full(len(q), -np.inf), np.zeros((len(q), K))
        for ids in _batches(d << K | span @ (1 << np.arange(K)[::-1]), span.sum(axis=1), n):
            v[ids], p[ids] = _refine_faces(probs, qs[q[ids]], span[ids[0], :d[ids[0]]],
                                           [z[ids] for z in faces], grid_step, n, max_rounds)
        for i, qi in enumerate(qs[q]):   # each problem's faces in order
            if v[i] > best[qi][1]:
                best[qi] = (p[i], float(v[i]))


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
    shape = np.array([4 * len(b) + len(u) for _, u, _, b in probs], dtype=int)   # 4 J + K
    span = _span(np.array([[*u, 0.0, 0.0][:3] for _, u, _, _ in probs]).reshape(-1, 3))
    for ids in _batches(shape << 3 | span @ (4, 2, 1), span.sum(axis=1), points_per_dim):
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
                      max_iter=500):
    """Certified-feasible maximizer of the SAA ergodic sum rate.

    Returns (P, value): P is (n, K), value the sample-average sum rate
    at P in nats. Intended for small instances (n*K <= 256).

    A primal log-barrier method (Boyd & Vandenberghe, Convex
    Optimization, 11.3). From x = eps * 1, strictly inside every
    constraint, Newton steps maximize tau * rate(x) + sum(log(slack))
    over the m slacks of x > 0, of the normalized `_saa_constraints`
    halfspaces and, under an ST-TPC, of the box; each step solves one
    dense (n*K)-square system. A step is cut so that every slack keeps
    1% of its value, then halved until it gains 1% of what the squared
    Newton decrement predicts. A stage ends once that is at most 1e-2;
    tau then grows 50-fold, up to where the barrier's gap m / tau is
    1e-11 of the rate, the last stage. max_iter caps the Newton steps
    (about 60 at n = 8, K = 2); at the cap the current iterate,
    strictly feasible, is returned. The point is shrunk onto its worst
    halfspace against rounding, so the value is a certified lower bound
    on the SAA optimum, about m / tau below it at most.
    """
    H, G = mac_arrays(states)
    n, K = H.shape
    if n * K > 256:
        raise UsageError("saa_primal_oracle is for small instances (n*K <= 256)")
    _check_dims(budget, K, G.shape[2])

    box_hi, halfspaces = _saa_constraints(H, G, case, budget)
    A = np.array([a for a, _ in halfspaces]).reshape(-1, n * K)
    norms = np.sqrt((A * A).sum(axis=1))
    A, bvec = A / norms[:, None], np.array([b for _, b in halfspaces]).reshape(-1) / norms

    def value(x):
        return float(np.mean(np.log1p(np.einsum("tk,tk->t", H, x.reshape(n, K)))))

    # every term is log(q + R x): the n rates, weighted tau / n, then the m
    # slacks of x > 0, of the halfspaces and, under an ST-TPC, of the box
    eye, box = np.eye(n * K), [box_hi] if box_hi is not None else []
    R = np.vstack([np.kron(np.eye(n), np.ones(K)) * H.ravel(), eye, -A] + [-eye] * len(box))
    q = np.concatenate([np.ones(n), np.zeros(n * K), bvec] + box)
    x = np.full(n * K, 0.5 * np.min(q[n + n * K:] / -R[n + n * K:].sum(axis=1)))
    m, w, steps = len(q) - n, np.ones(len(q)), 0

    def tau_max(x):   # m / tau is 1e-11 of the rate, a rate below 1e-12 nats as 1e-12
        return m / (1e-11 * max(value(x), 1e-12))

    tau = m / 50.0
    while steps < max_iter and tau < tau_max(x):
        tau, lam2 = min(50.0 * tau, tau_max(x)), np.inf
        w[:n] = tau / n
        while steps < max_iter and lam2 > 1e-2:
            Ry = R / (q + R @ x)[:, None]
            g = w @ Ry
            dx = np.linalg.solve(Ry.T @ (Ry * w[:, None]), g)
            lam2, steps, dy = float(g @ dx), steps + 1, Ry @ dx
            alpha = 0.99 / max(0.99, float(-dy[n:].min()))
            while w @ np.log1p(alpha * dy) < 0.01 * alpha * lam2:
                alpha *= 0.5
            x = x + alpha * dx

    xb = np.clip(x, 0.0, box_hi)   # shrunk onto the worst halfspace against rounding
    xb = xb / max(1.0, float(np.max(A @ xb / bvec, initial=1.0)))
    return xb.reshape(n, K), value(xb)
