"""The coarse-to-fine grid oracle as it was before its face refinement
ran in lockstep, kept as the reference that `grid_state_oracle` must
match value for value.

Each (active halfspaces, fixed box face, pattern) face here refines
alone, with its own mesh and objective call per round, and every
reduction runs along the short last axis of an (N, K) point array.
"""
import numpy as np

from crsum import UsageError


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

