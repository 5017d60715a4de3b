"""The case-3 closed form as it was before it ran column by column, kept
as the reference that `perstate_mac.solve_states_case3` must match bit
for bit.

It sorts, gathers, sums and multiplies along the short last axis of
(n, K) arrays: `take_along_axis` for the sorted ratios, gains and caps,
`cumsum` for the running fill, `cumprod` for the run of users that
fill, row fancy-indexing for the last of them and `put_along_axis` to
scatter the sorted powers back.
"""
import numpy as np

from crsum.perstate_mac import _interference_price


def solve_states_case3(H: np.ndarray, G: np.ndarray, mu, p_st) -> np.ndarray:
    """Vectorized case-3 closed form (sorted-ratio cap sweep)."""
    n, K = H.shape
    p_st = np.asarray(p_st, dtype=float)
    W = _interference_price(G, mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(H > 0.0, np.where(W > 0.0, H / W, np.inf), 0.0)
    order = np.argsort(-ratio, axis=1, kind="stable")
    rs = np.take_along_axis(ratio, order, axis=1)
    hs = np.take_along_axis(H, order, axis=1)
    Ps = np.take_along_axis(np.broadcast_to(p_st, (n, K)), order, axis=1)
    filled = np.cumsum(hs * Ps, axis=1)
    prev = np.concatenate([np.zeros((n, 1)), filled[:, :-1]], axis=1)
    ok = rs > 1.0 + prev
    cnt = np.cumprod(ok, axis=1).sum(axis=1)

    rows = np.arange(n)
    last = np.clip(cnt - 1, 0, K - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        part = (rs[rows, last] - 1.0 - prev[rows, last]) / hs[rows, last]
    part = np.where(np.isnan(part), 0.0, part)
    p_sorted = np.where(np.arange(K)[None, :] < (cnt - 1)[:, None], Ps, 0.0)
    lastpos = (np.arange(K)[None, :] == (cnt - 1)[:, None]) & (cnt > 0)[:, None]
    p_sorted = p_sorted + np.where(lastpos, np.minimum(Ps, part[:, None]), 0.0)
    P = np.zeros((n, K))
    np.put_along_axis(P, order, p_sorted, axis=1)
    return P
