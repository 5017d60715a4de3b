r"""Per-fading-state optimal MAC power allocation.

Each constraint case turns, after dualizing whatever is long-term,
into a small concave program in the per-state power vector p >= 0:

  case 1:  max log(1+h.p) - lam.p - sum_m mu_m (g_m.p)      (no caps)
  case 2:  max log(1+h.p) - lam.p   s.t. g_m.p <= gamma_m
  case 3:  max log(1+h.p) - sum_m mu_m (g_m.p)  s.t. p <= p_st
  case 4:  max log(1+h.p)  s.t. p <= p_st, g_m.p <= gamma_m

Cases 1 and 3 have closed forms (`lone_user`, one user alone, which
the TDMA solvers share; a sorted-ratio cap-filling sweep).
Case 4 is the linear program max h.p over the power polytope: a
fractional knapsack in decreasing h_k/g_k with one interference cap
(M = 1), the lockstep bounded-variable simplex `bounded_simplex` with
several, at any K; it prices by Dantzig's rule, falls back to Bland's
on a run of degenerate pivots, and drops each state in the round it
turns optimal. Along a rising power cap a case-4 solve keeps the rows
of the last optimum that no power cap shaped (its `carry`). Case 2 is
the same simplex swept in the rate's slope t = 1/(1+h.p)
(`_case2_simplex`), at every M and with no limit on K.

The four cases are one first-order system (`_kkt`): the prices lam
and mu enter stationarity, and a per-state cap adds its rows with the
same symbol as its multiplier (mu for the interference caps, lam for
the power caps). Every case-2 and case-4 allocation returned is
certified against it (`_certify`); the programs are concave with
affine constraints, so a consistent candidate is the global optimum.
All solvers are vectorized across fading states; the scalar
operations wrap the batch with n = 1 and attach a KKT report, the same
system at n = 1, from the returned multipliers.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import SolverFailureError, UnboundedSubproblemError, UsageError
from .fading import ChannelStateMac

logger = logging.getLogger(__name__)

ACTIVE_TOL = 1e-9     # powers above this count as "user transmits"
_LOOSE = 1e-7         # KKT acceptance tolerance of `_certify`
_OPT_RTOL = 1e-12     # simplex: reduced costs below this times max |c| are zero
_PIV_RTOL = 1e-11     # simplex: pivots below this times their column's max are zero
_MAX_PIVOTS = 10_000  # simplex: a batch needing more pivots raises SolverFailureError
KEEP_SHARE = 0.25     # case 4: least share of free rows a carried solve keeps

# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class StateAllocation:
    """Optimal per-state powers plus bookkeeping.

    active_set holds the 0-based indices of users with p above
    ACTIVE_TOL; sum_rate_term is log(1 + h.p) in nats.
    """

    p: np.ndarray
    active_set: tuple[int, ...]
    sum_rate_term: float


@dataclass(frozen=True)
class KktReport:
    """First-order certificate computed from returned multipliers.

    stationarity_residual: worst violation of the stationarity
    equation after assigning each user its (clipped-nonnegative)
    inactivity multiplier; a wrong user selection shows up here.
    complementary_slackness_residual: worst |multiplier * slack|.
    primal_infeasibility: worst constraint violation of p itself.
    multipliers: the per-state multipliers by name ("delta" always;
    "mu" for per-state interference caps, "lambda" for power caps).
    """

    stationarity_residual: float
    complementary_slackness_residual: float
    primal_infeasibility: float
    multipliers: dict

    @property
    def max_residual(self) -> float:
        return max(self.stationarity_residual,
                   self.complementary_slackness_residual,
                   self.primal_infeasibility)


def _allocation(h: np.ndarray, p: np.ndarray) -> StateAllocation:
    p = np.asarray(p, dtype=float)
    active = tuple(int(k) for k in np.flatnonzero(p > ACTIVE_TOL))
    return StateAllocation(p=p, active_set=active,
                           sum_rate_term=float(np.log1p(h @ p)))


def _vec(x, size, name) -> np.ndarray:
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (size,):
        raise UsageError(f"{name} must have shape ({size},), got {v.shape}")
    if np.any(v < 0) or np.any(~np.isfinite(v)):
        raise UsageError(f"{name} must be finite and nonnegative")
    return v


def _cap(x, size, name) -> np.ndarray:
    """A per-state cap vector: `_vec`, and strictly positive."""
    v = _vec(x, size, name)
    if np.any(v <= 0):
        raise UsageError(f"{name} must be strictly positive")
    return v


# ---------------------------------------------------------------------------
# the per-state KKT system of every case


def _kkt(H, G, P, LAM, MU, GAM=None, caps=None):
    """The per-state KKT system of max log(1+h.p) - LAM.p - MU.(G^T p)
    over p >= 0, batched over states (MU is (n, M)).

    GAM adds the interference caps G^T p <= GAM, with MU their
    multipliers; caps adds the power caps p <= caps, with LAM theirs.
    Returns need = LAM + G MU - h / (1+h.p), whose positive part is the
    inactivity multiplier delta, the |multiplier * slack| arrays and the
    constraint violation arrays. Products run states-last, (K, n) or
    (K, M, n), summed over the leading axis: nothing steps per state.
    """
    PT, GT = P.T, G.transpose(1, 2, 0)
    S = np.multiply(H.T, PT, order="C").sum(axis=0) + 1.0
    need = np.divide(-H.T, S, order="C")
    need += LAM.T
    need += np.multiply(GT, MU.T, order="C").sum(axis=1)
    cs, primal = [np.abs(np.maximum(need, 0.0) * PT)], [-P]
    if GAM is not None:
        slack = np.multiply(PT[:, None], GT, order="C").sum(axis=0) - GAM.T
        cs.append(np.abs(MU.T * slack))
        primal.append(slack)
    if caps is not None:
        over = np.subtract(PT, caps.T, order="C")
        cs.append(np.abs(LAM.T * over))
        primal.append(over)
    return need.T, cs, primal


def _worst(parts) -> float:
    """The largest entry of the arrays `parts`, at least 0; NaN propagates.
    Up to 4096 entries the parts go end to end into one reduction, cheaper
    than one reduction per part; past that, copying them costs more."""
    if sum(x.size for x in parts) > 4096:
        return float(np.max([x.max(initial=0.0) for x in parts]))
    return float(np.concatenate([x.reshape(-1) for x in parts]).max(initial=0.0))


def _kkt_report(named, h, g, p, lam, mu, gamma=None, p_st=None) -> KktReport:
    """The KktReport of one state (h (K,)), or the worst of a batch (each
    argument with a leading state axis); `named`: multipliers besides delta."""
    lead = (None,) * (np.ndim(h) == 1)          # one state: `_kkt` at n = 1
    need, cs, primal = _kkt(*(None if x is None else np.asarray(x, dtype=float)[lead]
                              for x in (h, g, p, lam, mu, gamma, p_st)))
    return KktReport(stationarity_residual=_worst([-need]),
                     complementary_slackness_residual=_worst(cs),
                     primal_infeasibility=_worst(primal),
                     multipliers={"delta": np.maximum(need[0] if lead else need, 0.0), **named})


def _certify(what, H, G, P, LAM, MU, GAM, caps=None) -> None:
    """Batched KKT audit of a closed-form or simplex allocation: the
    largest residual of `_kkt` (caps None for case 2, LAM the transmit
    prices; else case 4, LAM the power-cap multipliers) must not exceed
    _LOOSE. A plain whole-array max: a reduction over the short K axis
    runs state by state."""
    need, cs, primal = _kkt(H, G, P, LAM, MU, GAM, caps)
    worst = _worst([-need, *cs, *primal])
    if not worst <= _LOOSE:
        raise SolverFailureError(f"{what}: KKT residual {worst:.3e} exceeds "
                                 "the acceptance tolerance", residual=worst)


# ---------------------------------------------------------------------------
# case 1 and TDMA: the lone-user rule


def _interference_price(G: np.ndarray, mu) -> np.ndarray:
    """Each user's interference price sum_m mu_m g_km, (n, K), for mu
    (M,) or (n, M), summed one cap column at a time from the first (a
    matmul over the short M axis runs state by state)."""
    mu = np.asarray(mu, dtype=float)
    mu = mu.T[:, :, None] if mu.ndim == 2 else mu     # rows: mu[m] is a column (n, 1)
    W = G[:, :, 0] * mu[0] if G.shape[2] else np.zeros(G.shape[:2])
    for m in range(1, G.shape[2]):
        W += G[:, :, m] * mu[m]
    return W


def lone_user(H: np.ndarray, price, cap=None) -> np.ndarray:
    """D-TDMA: each state's best user transmits alone. Each user with
    gain gets min((1/price - 1/h)^+, cap), and the largest
    log(1 + h p) - price p wins by one argmax over the user axis (ties
    to the lowest index); price and cap broadcast against H (n, K). With
    one user this is the one-user closed form. The first (state, user)
    in row order with positive gain, zero price and no cap raises
    UnboundedSubproblemError. Without a cap the largest h / price wins,
    at price 0 the largest h * cap: no log1p pass, and powers for the
    winners only. A price <= 0 or NaN or an infinite gain there falls
    back to the values."""
    n, K = H.shape
    price = np.asarray(price, dtype=float)
    if K > 1 and (cap is None or not price.any()):
        with np.errstate(divide="ignore", invalid="ignore"):
            key = H / price if cap is None else H * np.where(H > 0.0, cap, 0.0)
            at = key.argmax(axis=1) + np.arange(0, n * K, K)
            if key.min() >= 0.0 and np.isfinite(key.reshape(-1).take(at)).all():
                h = H.reshape(-1).take(at)
                won = np.broadcast_to(price if cap is None else cap, H.shape).reshape(-1).take(at)
                won = np.maximum(1.0 / won - 1.0 / h, 0.0) if cap is None else won
                del key         # freed before P: the peak is price and P
                P = np.zeros(n * K)
                P[at] = np.where(h > 0.0, won, 0.0)
                return P.reshape(n, K)
    with np.errstate(divide="ignore", invalid="ignore"):     # NaN: no gain, no price
        P = np.divide(1.0, price, out=np.full(H.shape, np.inf), where=price > 0.0)
        P -= 1.0 / H
    np.maximum(P, 0.0, out=P)
    if cap is not None:
        np.minimum(P, cap, out=P)
    np.copyto(P, 0.0, where=~(H > 0.0))
    if np.isinf(P).any():
        t, k = np.argwhere(np.isinf(P))[0]
        raise UnboundedSubproblemError(
            "zero effective price for a user with positive gain",
            state_index=int(t), user_index=int(k))
    if K == 1:
        return P
    cost = price * P
    del price       # a price array built for this call is freed before val
    val = np.multiply(H, P)
    with np.errstate(invalid="ignore"):
        np.log1p(val, out=val)
    val -= cost
    del cost
    np.copyto(val, -np.inf, where=~np.isfinite(val))
    at = np.argmax(val, axis=1) + np.arange(0, n * K, K)
    won = P.reshape(-1).take(at)
    P.fill(0.0)
    P.reshape(-1)[at] = won
    return P


def solve_states_case1(H: np.ndarray, G: np.ndarray, lam, mu) -> np.ndarray:
    """Vectorized case-1 solver, lam (K,) or (n,K), mu (M,) or (n,M): `lone_user`
    at the prices lam + mu.g, uncapped, so the best ratio h / price wins."""
    W = _interference_price(G, mu)
    W += lam
    return lone_user(H, W)


def kkt_report_case1(h, g, lam, mu, p) -> KktReport:
    return _kkt_report({}, h, g, p, lam, mu)


def solve_state_case1(state: ChannelStateMac, lam, mu):
    """Case-1 subproblem: at most one user transmits.

    The winner maximizes h_k / (lam_k + mu.g_k) and water-fills against
    its own aggregate price. Raises UnboundedSubproblemError when the
    winning user's price is exactly zero while its gain is positive.
    """
    lam = _vec(lam, state.K, "lam")
    mu = _vec(mu, state.M, "mu")
    H, G = state.h[None], state.g[None]
    p = solve_states_case1(H, G, lam, mu)[0]
    return _allocation(state.h, p), kkt_report_case1(state.h, state.g, lam, mu, p)


# ---------------------------------------------------------------------------
# case 2: water-filling under per-state interference caps


def solve_states_case2(H: np.ndarray, G: np.ndarray, lam, gamma,
                       want_multipliers: bool = False):
    """Vectorized case-2 solver.

    lam broadcasts from (K,) or (n,K); gamma from (M,) or (n,M). At
    every M, M = 0 included, this is the parametric simplex sweep
    `_case2_simplex`; at most M+1 users are active. With
    want_multipliers, also returns the cap multipliers mu (n, M).
    """
    n, K, M = G.shape
    LAM = np.broadcast_to(np.asarray(lam, dtype=float), (n, K))
    GAM = np.broadcast_to(np.asarray(gamma, dtype=float), (n, M))
    P, MU = _case2_simplex(H, G, LAM, GAM)
    return (P, MU) if want_multipliers else P


def _ipc_caps(G, GAM):
    """Per-user tightest interference cap, +inf when unconstrained; GAM
    is (M,) or (n, M)."""
    GAM = np.asarray(GAM, dtype=float)
    caps = np.full(G.shape[:2], np.inf)
    with np.errstate(divide="ignore"):
        for m in range(G.shape[2]):
            Gm = G[:, :, m]
            np.minimum(caps, np.where(Gm > 0.0, GAM[..., m, None] / Gm, np.inf), out=caps)
    return caps


@np.errstate(divide="ignore", invalid="ignore")
def _case2_simplex(H, G, LAM, GAM):
    """Case 2 by a parametric sweep on the case-4 simplex pivot.

    At its rate slope t = 1/(1+h.p) a state's optimum solves the LP
    max (t h - lam).p s.t. G^T p <= gamma, p >= 0, whose optimal S = h.p
    grows with t (Gass & Saaty's parametric objective). From t = 0, p = 0
    the sweep keeps the reduced costs d_h, d_lam of h and lam; column k
    enters at t_k = d_lam / d_h. At the first t_k (lowest k on ties) a
    state stops at its vertex if 1/(1+S) <= t_k, on the entering edge if
    h.p reaches 1/t_k - 1 first, else pivots on. A ray at t_k = 0 is a
    user nothing prices. The cap prices are d_lam - t d_h on the slacks.
    A state leaves the batch as it stops, before the next pivot.
    """
    n, K, M = G.shape
    N = K + M
    T, beta, basis, D = _slack_tableau(np.swapaxes(G, 1, 2), GAM, H, LAM)
    tol = _OPT_RTOL * D[0].max(axis=0, initial=0.0)
    x, y = np.zeros(N * n), np.zeros((2 * M + 1) * n)   # x; the slacks' d_h, d_lam; S
    idx, S, t, pivots = np.arange(n), np.zeros(n), np.zeros(n), 0
    rows_y = np.arange(0, 2 * M * n, n)[:, None]
    while True:
        m, s = idx.size, np.arange(idx.size)
        dh, dl = D[0], D[1]
        cross = np.where(dh > tol, np.maximum(dl / dh, t), np.inf)
        t = cross.min(axis=0)
        j = _first(cross, t)
        jm = j * m + s                              # flat index of (j, state)
        col = T.reshape(M, N * m).take(jm, axis=1)
        ratio = np.where(col > _PIV_RTOL * np.abs(col).max(axis=0, initial=0.0),
                         np.maximum(beta / col, 0.0), np.inf)
        step = ratio.min(axis=0, initial=np.inf)
        dhj = dh.reshape(-1).take(jm)
        # x_j where the state stops: on the edge, where h.p reaches
        # 1/t - 1, or 0 at its vertex once 1/(1+S) <= t
        edge = np.where(1.0 / (1.0 + S) > t, (1.0 / t - 1.0 - S) / dhj, 0.0)
        piv = edge > step
        step = np.where(piv, step, edge)
        beta -= step * col
        S += step * dhj
        if not piv.all():                           # the stopped states leave
            out = np.flatnonzero(~piv)
            at, e = idx.take(out), step.take(out)
            if e.max() == np.inf:
                u = out[np.isinf(e)][0]
                raise UnboundedSubproblemError(
                    "user has positive gain but zero transmit and interference price",
                    state_index=int(idx[u]), user_index=int(j[u]))
            x[j.take(out) * n + at] = e
            x[basis.take(out, axis=1) * n + at] = beta.take(out, axis=1)
            y[rows_y + at] = D[:, K:].take(out, axis=-1).reshape(2 * M, out.size)
            y[2 * M * n + at] = S.take(out)
            keep = np.flatnonzero(piv)
            if not keep.size:
                break
            idx, T, beta, basis, D, S, t, tol, j, col, ratio, step = (
                a.take(keep, axis=-1) for a in
                (idx, T, beta, basis, D, S, t, tol, j, col, ratio, step))
            m, s = keep.size, np.arange(keep.size)
        if pivots == _MAX_PIVOTS:
            raise SolverFailureError(f"simplex exceeded {_MAX_PIVOTS} pivots")
        pivots += 1
        leave = np.where(ratio == step, basis, N)
        r = _first(leave, leave.min(axis=0))
        beta.reshape(-1)[r * m + s] = step
        _pivot(T, D, basis, col, r, j, s)
    P, Y = np.maximum(x[:K * n].reshape(K, n).T, 0.0), y.reshape(2 * M + 1, n)
    MU = np.maximum(Y[M:2 * M] - Y[:M] / (1.0 + Y[2 * M]), 0.0).T
    _certify("case-2 state solver", H, G, P, LAM, MU, GAM)
    return P, MU


def kkt_report_case2(h, g, lam, gamma, p, mu_state) -> KktReport:
    return _kkt_report({"mu": mu_state}, h, g, p, lam, mu_state, gamma)


def solve_state_case2(state: ChannelStateMac, lam, gamma_st):
    """Case-2 subproblem: at most M+1 users transmit."""
    lam = _vec(lam, state.K, "lam")
    gamma_st = _cap(gamma_st, state.M, "gamma_st")
    H, G = state.h[None], state.g[None]
    P, MU = solve_states_case2(H, G, lam, gamma_st, want_multipliers=True)
    p, mu_state = P[0], MU[0]
    return (_allocation(state.h, p),
            kkt_report_case2(state.h, state.g, lam, gamma_st, p, mu_state))


def check_tdma_case2(state: ChannelStateMac, lam, gamma_st):
    """Single-user optimality test for case 2.

    Returns (user, power) when one user transmitting alone is provably
    optimal, else None. Condition set one covers the water-level-
    limited regime, set two the interference-limited regime. If several
    users satisfy set two (a boundary tie), the lowest index wins and
    the ambiguity is logged.
    """
    lam = _vec(lam, state.K, "lam")
    gamma_st = _vec(gamma_st, state.M, "gamma_st")
    h, g = state.h, state.g
    K, M = state.K, state.M

    with np.errstate(divide="ignore", invalid="ignore"):
        cap = np.where(g > 0.0, gamma_st[None, :] / g, np.inf).min(axis=1) \
            if M else np.full(K, np.inf)
        wf = np.where(h > 0.0, np.where(lam > 0.0, 1.0 / lam, np.inf)
                      - np.where(h > 0.0, 1.0 / h, np.inf), -np.inf)
        hl = np.where(lam > 0.0, h / lam, np.where(h > 0.0, np.inf, 0.0))

    # set one: water level within every cap, and best water-filling ratio
    i = int(np.argmax(hl))
    if np.isinf(wf[i]) and np.isinf(cap[i]):
        raise UnboundedSubproblemError(
            "user has positive gain but zero transmit and interference price",
            state_index=0, user_index=i)
    if wf[i] <= cap[i] and np.all(hl[i] >= hl):
        return i, float(max(wf[i], 0.0))

    # set two: the cap binds and undercuts every rival's price advantage
    winners = []
    for i in range(K):
        if M == 0 or not np.isfinite(cap[i]) or cap[i] <= 0:
            continue
        if not (wf[i] > cap[i]):
            continue
        m = int(np.argmin(np.where(g[i] > 0.0, gamma_st / g[i], np.inf)))
        gim = g[i, m]
        lhs = (h * gim - h[i] * g[:, m]) * gim / (gim + h[i] * gamma_st[m])
        rhs = lam * gim - lam[i] * g[:, m]
        mask = np.ones(K, dtype=bool)
        mask[i] = False
        if np.all(lhs[mask] <= rhs[mask] + 1e-12):
            winners.append((i, float(gamma_st[m] / gim)))
    if winners:
        if len(winners) > 1:
            logger.warning("check_tdma_case2: %d users satisfy the boundary "
                           "condition set; returning the lowest index",
                           len(winners))
        return winners[0]
    return None


# ---------------------------------------------------------------------------
# case 3: capped water-filling against interference prices


def solve_states_case3(H: np.ndarray, G: np.ndarray, mu, p_st) -> np.ndarray:
    """Vectorized case-3 closed form; mu is (M,) or (n, M), p_st (K,) or (n, K).

    Users fill their caps in each state's stable order of falling ratio
    h_k / mu.g_k while the ratio beats 1 plus the fill so far; the last
    of them water-fills, capped. The sweep runs one sorted position at
    a time, on n-vectors gathered through flat indices, with the fill
    summed in order and `run` the running product of the test.
    """
    n, K = H.shape
    W = _interference_price(G, mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(H > 0.0, np.where(W > 0.0, H / W, np.inf), 0.0)
    order = np.argsort(-ratio, axis=1, kind="stable")
    flat = (order + np.arange(0, n * K, K)[:, None]).T     # (K, n)
    R, Hf, caps = ratio.reshape(-1), H.reshape(-1), np.asarray(p_st, dtype=float)
    at = flat if caps.ndim == 2 else order.T        # each cap's (flat) index by its user
    Ps = np.zeros((K, n))
    fill, run = np.zeros(n), np.ones(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(K):
            r, h, c = R.take(flat[j]), Hf.take(flat[j]), caps.take(at[j])
            run &= r > 1.0 + fill
            if j:                   # the one before is full
                np.copyto(Ps[j - 1], c_prev, where=run)
            part = np.fmax((r - 1.0 - fill) / h, 0.0)      # NaN (h = inf) to 0
            np.minimum(c, part, out=Ps[j], where=run)
            fill += h * c
            c_prev = c
    P = np.zeros(n * K)
    P.put(flat, Ps)
    return P.reshape(n, K)


def kkt_report_case3(h, g, mu, p_st, p) -> KktReport:
    """The power-cap multipliers are derived: a capped user's rate slope
    above its interference price, else zero; per-state matmuls, as at n = 1."""
    w = np.matmul(g, np.asarray(mu, dtype=float)[..., None])[..., 0]
    capped = p >= p_st - 1e-12 * (1.0 + p_st)
    slope = h / (1.0 + np.matmul(h[..., None, :], p[..., :, None])[..., 0])
    lam_state = np.where(capped, np.maximum(slope - w, 0.0), 0.0)
    return _kkt_report({"lambda": lam_state}, h, g, p, lam_state, mu, p_st=p_st)


def solve_state_case3(state: ChannelStateMac, mu, p_st):
    """Case-3 subproblem: caps fill in ratio order, at most one user
    sits strictly inside its cap."""
    mu = _vec(mu, state.M, "mu")
    p_st = _cap(p_st, state.K, "p_st")
    H, G = state.h[None], state.g[None]
    p = solve_states_case3(H, G, mu, p_st)[0]
    return _allocation(state.h, p), kkt_report_case3(state.h, state.g, mu, p_st, p)


def check_tdma_case3(state: ChannelStateMac, mu, p_st):
    """Single-user optimality test for case 3 (needs K >= 2).

    Returns (user, power) when the best-ratio user alone is optimal:
    its filled cap must already price out the runner-up.
    """
    if state.K < 2:
        raise UsageError("check_tdma_case3 needs at least two users")
    mu = _vec(mu, state.M, "mu")
    p_st = _vec(p_st, state.K, "p_st")
    h, g = state.h, state.g
    w = g @ mu
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(h > 0.0, np.where(w > 0.0, h / w, np.inf), 0.0)
    pi = np.argsort(-ratio, kind="stable")
    first, second = int(pi[0]), int(pi[1])
    if 1.0 + h[first] * p_st[first] >= ratio[second]:
        with np.errstate(divide="ignore"):
            wf = (1.0 / w[first] if w[first] > 0 else np.inf) \
                - (1.0 / h[first] if h[first] > 0 else np.inf)
        return first, float(min(p_st[first], max(wf, 0.0)))
    return None


# ---------------------------------------------------------------------------
# case 4: rate maximization inside the per-state power polytope


def _slack_tableau(A, b, *costs):
    """The lockstep simplex at x = 0 with the slacks basic, for the rows
    A x + s = b (A (n, M, K), b (n, M)) and each cost vector (n, K).
    Returns, states last so that work over the short M and N axes runs
    along contiguous rows of n states, the tableau [A I] (M, N, n),
    beta (M, n), the basis (M, n) and the reduced-cost rows (C, N, n),
    one per cost."""
    n, M, K = A.shape
    T, D = np.zeros((M, K + M, n)), np.zeros((len(costs), K + M, n))
    T[:, :K], D[:, :K] = A.transpose(1, 2, 0), [c.T for c in costs]
    T[np.arange(M), np.arange(K, K + M)] = 1.0
    return T, b.T.copy(), np.repeat(np.arange(K, K + M)[:, None], n, axis=1), D


def _first(a, low):
    """Each column's first row of a (R, m) equal to low, else the last
    row: argmin along the short axis 0 without np.argmin's transposed copy."""
    if len(a) == 1:
        return np.zeros(low.shape, dtype=np.intp)
    past = a[0] != low
    j = past.astype(np.intp)
    for k in range(1, len(a) - 1):
        past &= a[k] != low
        j += past
    return j


def _pivot(T, D, basis, col, r, j, s, piv=None):
    """Pivot each state s = 0..m-1's tableau T (M, N, m) on row r, column
    j (col = T[:, j]), eliminating j from the reduced-cost rows
    D (C, N, m) too, by flat index: a fancy index over the short M and N
    axes costs more than the arithmetic. With piv, only the flagged
    states pivot. The caller sets the basic values."""
    M, N, m = T.shape
    rs, at = r * m + s, np.arange(N * m).reshape(N, m)
    at += r * (N * m)                                   # T[r, :, s]
    pr, dj = col.reshape(-1).take(rs), D.reshape(len(D), -1).take(j * m + s, axis=1)
    if piv is not None:                     # the others: a zero column, a unit pivot
        col, pr, dj = np.where(piv, col, 0.0), np.where(piv, pr, 1.0), np.where(piv, dj, 0.0)
        j = np.where(piv, j, basis.reshape(-1).take(rs))
    Tr = T.reshape(-1).take(at) / pr
    T -= col[:, None, :] * Tr
    D -= dj[:, None, :] * Tr
    T.reshape(-1)[at], basis.reshape(-1)[rs] = Tr, j


@np.errstate(divide="ignore", invalid="ignore")
def bounded_simplex(c, A, b, u):
    """Batched bounded-variable primal simplex: max c.x s.t. A x <= b,
    0 <= x <= u, state by state, for c, u (n, K), A (n, M, K), b (n, M) >= 0.

    Each state starts at x = 0 with the slacks basic and the n tableaux
    (`_slack_tableau`) pivot in lockstep; a state is dropped in the
    round it turns optimal, its basis, reduced costs and bounds written
    out at its batch index. A state enters the column with the largest
    |reduced cost| (Dantzig's rule, ties to the lowest index) and leaves
    by the lowest index among tied ratios; an entering variable whose
    own bound comes first flips to it instead. After more than K + M
    degenerate (zero-step) pivots in a row it enters by the lowest index
    (Bland's rule) until a step moves it. So it terminates: a moving
    step raises the objective, so no basis recurs across one, and
    Bland's rule cannot cycle among degenerate pivots (Bland, Math.
    Oper. Res. 1977). One batched solve with the final
    bases recomputes the basic values from the data. Returns x (n, K),
    the row prices y (n, M) >= 0, the upper-bound prices
    z (n, K) >= 0: c - A^T y - z <= 0, with equality where 0 < x < u,
    and whether each state reached an upper bound on its way (a flip
    or a leaving variable at u). A state that did not takes the same
    pivots, bit for bit, at any larger u: only those steps read u.
    """
    n, M, K = A.shape
    N = K + M
    ub = np.concatenate([np.broadcast_to(u, (n, K)), np.full((n, M), np.inf)], axis=1)
    b = np.broadcast_to(np.asarray(b, dtype=float), (n, M))
    if not n:
        return np.zeros((0, K)), np.zeros((0, M)), np.zeros((0, K)), np.zeros(0, dtype=bool)
    T, beta, basis, (d,) = _slack_tableau(A, b, c)
    upper = np.zeros((N, n), dtype=bool)                # nonbasic at its upper bound
    tol = _OPT_RTOL * np.abs(c).max(axis=1, initial=0.0)
    # each group of dropped states' batch index, basis, d and bounds, put
    # back in batch order at the end: no full-size copy beside the batch
    done = []
    idx, ubf, pivots, stall = np.arange(n), ub.reshape(-1), 0, np.zeros(n, dtype=np.intp)
    capped = np.zeros(n, dtype=bool)
    while True:
        gain = np.where(upper, -d, d)                   # per unit step of each column
        best = gain.max(axis=0)
        go = best > tol
        if not go.all():                            # drop the optimal states
            gone, keep = np.flatnonzero(~go), np.flatnonzero(go)
            done.append([a.take(gone, axis=-1) for a in (idx, basis, d, upper, capped)])
            T = T.take(keep, axis=-1)               # the largest two one at a time,
            gain = gain.take(keep, axis=-1)         # so old and new never all coexist
            idx, basis, d, upper, beta, tol, best, go, stall, capped = (
                a.take(keep, axis=-1) for a in
                (idx, basis, d, upper, beta, tol, best, go, stall, capped))
            if not idx.size:
                break
        if pivots == _MAX_PIVOTS:
            raise SolverFailureError(f"simplex exceeded {_MAX_PIVOTS} pivots")
        pivots += 1
        m, s = idx.size, np.arange(idx.size)
        j = _first(gain, best)                          # Dantzig: the largest gain
        if stall.max() > N:                             # Bland: the lowest improving index
            j = np.where(stall > N, _first(gain > tol, go), j)
        del gain                                        # not held through the pivot
        jm = j * m + s
        sign = np.where(upper.reshape(-1).take(jm), -1.0, 1.0)  # moves down from u
        col = T.reshape(M, N * m).take(jm, axis=1)
        alpha = col * sign                              # rate at which basics fall
        mag = np.abs(alpha)
        ratio = np.where(alpha > 0.0, beta, ubf.take(idx * N + basis) - beta) / mag
        ratio[mag <= _PIV_RTOL * mag.max(axis=0, initial=0.0)] = np.inf
        np.maximum(ratio, 0.0, out=ratio)
        step = ratio.min(axis=0, initial=np.inf)
        uj = ubf.take(idx * N + j)
        flip = uj <= step
        piv = ~flip
        step = np.minimum(step, uj)
        if np.isinf(step).any():
            raise SolverFailureError("simplex: the linear program is unbounded")
        stall = np.where(step == 0.0, stall + 1, 0)     # zero steps in a row
        beta -= step * alpha
        upper.reshape(-1)[jm] ^= flip
        capped |= flip
        if not piv.any():
            continue
        leave = np.where(ratio == step, basis, N)
        r = _first(leave, leave.min(axis=0))
        rs, up, bf = r * m + s, upper.reshape(-1), beta.reshape(-1)
        out = basis.reshape(-1).take(rs) * m + s        # the leaving variable
        at_u = piv & (alpha.reshape(-1).take(rs) < 0.0)     # leaves at its bound
        up[out] = np.where(piv, at_u, up.take(out))
        capped |= at_u
        up[jm] &= ~piv
        bf[rs] = np.where(piv, np.where(sign > 0.0, 0.0, uj) + sign * step, bf.take(rs))
        _pivot(T, d[None], basis, col, r, j, s, piv)
    at, *out = (np.concatenate(a, axis=-1) for a in zip(*done))
    order = np.empty(n, dtype=np.intp)
    order[at] = np.arange(n)            # `at` is a permutation: no sort inverts it
    basis_out, d_out, upper_out, capped = (a.take(order, axis=-1) for a in out)
    x = np.where(upper_out.T, ub, 0.0)
    full = np.concatenate([A, np.broadcast_to(np.eye(M), (n, M, M))], axis=2)  # [A I]
    rhs = b - np.einsum("nmk,nk->nm", full, x)
    B = np.take_along_axis(full, basis_out.T[:, None, :], axis=2)
    np.put_along_axis(x, basis_out.T, np.linalg.solve(B, rhs[..., None])[..., 0], axis=1)
    y = np.maximum(-d_out[K:].T, 0.0)
    z = np.where(upper_out[:K].T, np.maximum(d_out[:K].T, 0.0), 0.0)
    return np.clip(x[:, :K], 0.0, ub[:, :K]), y, z, capped


def solve_states_case4(H: np.ndarray, G: np.ndarray, p_st, gamma,
                       want_multipliers: bool = False, carry=None):
    """Vectorized case-4 solver.

    log(1+h.p) increases with h.p, so a state's optimum solves the LP
    max h.p over 0 <= p <= p_st, G^T p <= gamma: a fractional knapsack
    with one interference cap (M = 1), `bounded_simplex` otherwise.
    With want_multipliers, also returns the per-state power-cap
    multipliers lambda (n, K) and cap multipliers mu (n, M).

    carry, the [last, optimum] list a curve hands from solve to solve
    (None for a lone solve), keeps the free rows of last (`_case4`),
    used once, and receives this solve's (P, MU, free) as optimum. With
    fewer than KEEP_SHARE of last's rows free, last is dropped first and
    every state solved, which returns those rows too: the gathered rest
    beside last's arrays would lift the memory peak above a fresh solve's.
    """
    last = None
    if carry is not None:
        last, carry[0] = carry[0], None
        if last is not None and np.count_nonzero(last[2]) < KEEP_SHARE * len(H):
            last = None
    P, LAM, MU, free = _case4(H, G, p_st, gamma, last)
    if carry is not None:
        carry[1] = P, MU, free
    return (P, LAM, MU) if want_multipliers else P


def _case4(H, G, p_st, gamma, last=None):
    """`solve_states_case4` with its multipliers, certified as a batch,
    and `free`: whether each state's row is what the solver returns at
    any larger power caps, bit for bit. At M = 1 that is a row with no
    user at its cap; at M >= 2 one whose simplex never reached a cap.

    last = (P0, MU0, free0) is such a result on these states, at the
    same gamma and power caps no larger than p_st. Its free rows have
    power-cap multipliers 0, so their KKT points survive the larger
    caps (Boyd & Vandenberghe, Convex Optimization, 2004, sec. 5.5.3):
    they are kept, and only the other states are solved, into last's
    own arrays.
    """
    n, K, M = G.shape
    caps = np.broadcast_to(np.asarray(p_st, dtype=float), (n, K))
    GAM = np.broadcast_to(np.asarray(gamma, dtype=float), (n, M))
    solve = _case4_single_cap if M == 1 else _case4_simplex
    if last is None:
        P, LAM, MU, free = solve(H, G, caps, GAM)
    else:
        (P, MU, free), LAM = last, np.zeros((n, K))
        at = np.flatnonzero(~free)
        # the rows at of each argument; a view of a repeated row (a broadcast)
        P[at], LAM[at], MU[at], free[at] = solve(*(a[:at.size] if a.strides[0] == 0 else a[at]
                                                   for a in (H, G, caps, GAM)))
    _certify("case-4 state solver", H, G, P, LAM, MU, GAM, caps)
    return P, LAM, MU, free


def _case4_single_cap(H, G, caps, gam):
    """Case 4 with one interference cap: a fractional knapsack.

    Users with gain fill their power caps in decreasing h_k / g_k
    (stable sort, so ties fill lowest index first; g_k = 0 comes first)
    until the cap binds; user b, on whom it binds, sends the remainder.
    With nu = h_b / g_b (0 if the cap never binds) and t = 1 / (1 + h.p),
    mu = t nu and lambda_k = t (h_k - g_k nu) for the users at cap.
    """
    n, K = H.shape
    g = G[:, :, 0]
    rows = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(H > 0.0, np.where(g > 0.0, H / g, np.inf), -1.0)
    order = np.argsort(-ratio, axis=1, kind="stable")
    hs = np.take_along_axis(H, order, axis=1)
    gs = np.take_along_axis(g, order, axis=1)
    full = np.take_along_axis(np.where(H > 0.0, caps, 0.0), order, axis=1)
    used = np.cumsum(gs * full, axis=1)
    b = (used <= gam).sum(axis=1)           # users at cap, in sorted order
    at_cap = np.arange(K)[None, :] < b[:, None]
    Ps = np.where(at_cap, full, 0.0)
    binds = b < K
    fb = np.minimum(b, K - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        prev = np.where(b > 0, used[rows, np.maximum(b - 1, 0)], 0.0)
        rest = np.clip((gam[:, 0] - prev) / gs[rows, fb], 0.0, full[rows, fb])
        nu = np.where(binds, hs[rows, fb] / gs[rows, fb], 0.0)
    Ps[rows[binds], b[binds]] = rest[binds]
    t = 1.0 / (1.0 + np.einsum("nk,nk->n", hs, Ps))
    LAMs = np.where(at_cap, np.maximum(hs - gs * nu[:, None], 0.0) * t[:, None], 0.0)

    P = np.zeros((n, K))
    LAM = np.zeros((n, K))
    np.put_along_axis(P, order, Ps, axis=1)
    np.put_along_axis(LAM, order, LAMs, axis=1)
    free = (b == 0) & (rest < full[:, 0])       # the first user alone, below its cap
    return P, LAM, (t * nu)[:, None], free


def _case4_simplex(H, G, caps, GAM):
    """Case 4 with several interference caps, by `bounded_simplex`. Its
    LP prices are the multipliers over the rate's slope t = 1 / (1 + h.p).
    A user with no gain never has a positive reduced gain: it stays silent."""
    P, nu, lam, capped = bounded_simplex(H, np.swapaxes(G, 1, 2), GAM, caps)
    t = 1.0 / (1.0 + np.einsum("nk,nk->n", H, P))[:, None]
    return P, t * lam, t * nu, ~capped


def kkt_report_case4(h, g, p_st, gamma, p, lam_state, mu_state) -> KktReport:
    return _kkt_report({"lambda": lam_state, "mu": mu_state},
                       h, g, p, lam_state, mu_state, gamma, p_st)


def solve_state_case4(state: ChannelStateMac, p_st, gamma_st):
    """Case-4 subproblem: maximize the state's sum rate inside the box
    intersected with the interference caps."""
    p_st = _cap(p_st, state.K, "p_st")
    gamma_st = _cap(gamma_st, state.M, "gamma_st")
    H, G = state.h[None], state.g[None]
    P, LAM, MU = solve_states_case4(H, G, p_st, gamma_st, want_multipliers=True)
    p, lam_state, mu_state = P[0], LAM[0], MU[0]
    return (_allocation(state.h, p),
            kkt_report_case4(state.h, state.g, p_st, gamma_st, p,
                             lam_state, mu_state))


def check_tdma_case4(state: ChannelStateMac, p_st, gamma_st):
    """Single-user optimality test for case 4.

    User i transmitting alone at its tightest interference cap is
    optimal iff that cap undercuts its power cap and i carries the best
    gain ratio h_i / g_{i,m'} at its own critical primary m'.
    """
    p_st = _vec(p_st, state.K, "p_st")
    gamma_st = _vec(gamma_st, state.M, "gamma_st")
    h, g = state.h, state.g
    for i in range(state.K):
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(g[i] > 0.0, gamma_st / g[i], np.inf)
        m = int(np.argmin(ratios))
        if not np.isfinite(ratios[m]):
            continue
        power = float(ratios[m])
        if power > p_st[i] * (1.0 + 1e-12):
            continue
        gim = g[i, m]
        if np.all(h[i] / gim >= h / np.maximum(g[:, m], 1e-300) - 1e-12):
            return i, power
    return None
