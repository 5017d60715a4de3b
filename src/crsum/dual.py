r"""Lagrangian dual machinery for the long-term constraints.

Dualizing whatever constraints are long-term decouples the SAA problem
across fading states. The dual function

    g(x) = (1/n) sum_t  max_p L_t(p; x)  +  x . thresholds

is convex in the multipliers x = (lam, mu) and is minimized here by
cutting planes. Every evaluation at x_j yields one column: the
per-state maximizer P_j, its mean rate R_j and its long-term usage u_j.
The LP dual of the cutting-plane model is a Dantzig-Wolfe master over
those columns,

    max sum_j w_j R_j   s.t.  sum_j w_j u_j <= thresholds,
                              sum_j w_j <= 1,  w >= 0,

whose row prices are the next multipliers and whose weights mix the
columns into a feasible policy sum_j w_j P_j state by state. By
concavity that policy's rate is at least the master value, so the loop
stops once the best dual value is within `GAP_TOL` of the master; the
measured dual-primal gap certifies the answer.

The master's prices x_master minimize the cutting-plane model, and
Kelley's method evaluates there; that point can lie far from the best
point x_best so far, so Kelley zigzags. The loop uses in-out separation
(Wentges smoothing) instead: it evaluates at
alpha * x_best + (1 - alpha) * x_master. A cut from any point is
valid, so the stop test and the certificate are Kelley's. alpha starts
at 0 and follows the automatic rule of Pessoa, Sadykov, Uchoa and
Vanderbeck (INFORMS J. Comput. 2018): it shrinks while the dual still
falls toward x_master at the evaluated point and grows otherwise. A
smoothed evaluation mis-prices when its column does not price into the
master; the next evaluation is then at x_master itself, so the loop
converges as Kelley's does. One rule holds for every problem: alpha
follows that automatic rule while the master tolerance is the stop
tolerance, and is 0 once it tightens. Only a problem rounded to one
user per state by `perstate_mac.lone_user` (case I, and TDMA mode)
tightens, when the rounding reopens a closed gap; from then on every
evaluation is at x_master, as in Kelley's method. A problem that never
rounds never tightens, and case I follows one trajectory in both modes.

With zero dualized constraints (case 4) the loop is a single exact
evaluation. There is one problem adapter, the MAC's: a BC ensemble is
solved as the one-user TDMA MAC of `perstate_bc.as_one_user_mac`. With
one user the rounding returns the mixture, so BC points never tighten.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintCase, PowerBudget, _check_dims, _dot
from .errors import (ConvergenceFailureError, SolverFailureError,
                     UnboundedSubproblemError, UsageError)
from .fading import Ensemble, as_ensemble
from . import perstate_bc, tdma
from .perstate_mac import lone_user

GAP_TOL = 1e-3
# An unbounded evaluation adds the floor a.x >= PRICE_FLOOR * a.x0 on
# the zero price a.x, where x0 is the starting point 1/thresholds.
PRICE_FLOOR = 1e-6
# Lowest master tolerance, relative to gap_tol, that a one-user policy
# may ask for before its rounding gap is reported uncertified.
TIGHTEN_FLOOR = 1e-3


@dataclass(frozen=True)
class DualPoint:
    """Multipliers for the long-term constraints actually present.

    lam: per-user transmit multipliers (K,) for the MAC, a single
    entry for the BC base station, empty when the TPC is short-term.
    mu: per-primary interference multipliers, empty when the IPC is
    short-term.
    """

    lam: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float).reshape(-1))
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float).reshape(-1))

    @property
    def dimension(self) -> int:
        return self.lam.size + self.mu.size

    def vector(self) -> np.ndarray:
        return np.concatenate([self.lam, self.mu])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_lam: int) -> "DualPoint":
        vec = np.asarray(vec, dtype=float)
        return cls(lam=vec[:n_lam], mu=vec[n_lam:])


@dataclass
class ConvergenceReport:
    """Per-iteration trace of the dual loop.

    rows hold (iteration, dual_value, max_lt_violation, gap), one per
    bounded evaluation: the LT violation is that of the per-state
    allocation at the iterate, the gap is best-dual minus master value
    so far. best_primal is the rate of the returned policy; n_evals
    counts every evaluation, unbounded ones included, and mispriced the
    smoothed evaluations whose column did not price into the master.
    """

    params: dict
    rows: list = field(default_factory=list)
    stop_reason: str = ""
    best_dual: float = np.inf
    best_primal: float = -np.inf
    n_evals: int = 0
    mispriced: int = 0

    @property
    def n_iterations(self) -> int:
        return len(self.rows)

    @property
    def gap(self) -> float:
        return self.best_dual - self.best_primal

    def certified_at(self, gap_tol) -> bool:
        return bool(self.gap <= gap_tol * max(self.best_dual, 1e-9))

    @property
    def certified(self) -> bool:
        """Whether the returned policy is within GAP_TOL of the dual."""
        return self.certified_at(GAP_TOL)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "dual_value", "max_lt_violation", "gap"])
            for r in self.rows:
                w.writerow([r[0], repr(r[1]), repr(r[2]), repr(r[3])])


# ---------------------------------------------------------------------------
# problem adapters


class _MacProblem:
    def __init__(self, ensemble, case, budget, solver=None, tdma_mode=False):
        self.H, self.G = ensemble.H, ensemble.G
        n, K, M = self.G.shape
        _check_dims(budget, K, M)
        self.case, self.tdma_mode = case, tdma_mode
        self.n_lam = K if case.tpc_is_lt else 0
        self.n_mu = M if case.ipc_is_lt else 0
        self.thresholds = np.concatenate([
            budget.tpc if case.tpc_is_lt else np.zeros(0),
            budget.ipc if case.ipc_is_lt else np.zeros(0)])
        self.st_caps = np.concatenate([     # the caps that shape each ST set
            np.zeros(0) if case.tpc_is_lt else budget.tpc,
            np.zeros(0) if case.ipc_is_lt else budget.ipc])
        self._solve = solver or (lambda H, G, pt: tdma.solve_states(
            case, H, G, pt.lam, pt.mu, budget, tdma_mode=tdma_mode))

    def extends(self, old) -> bool:
        """Whether old has these states and every per-state ST set here
        contains old's, so old's columns are valid cuts and feasible
        columns of this problem. The states compare by value: a BC
        point builds its one-user arrays afresh."""
        return (old is not None and old.case is self.case and old.G.shape == self.G.shape
                and old.tdma_mode == self.tdma_mode and self.thresholds.size > 0
                and bool(np.all(self.st_caps >= old.st_caps))
                and np.array_equal(old.H, self.H) and np.array_equal(old.G, self.G))

    def allocation(self, x: np.ndarray) -> np.ndarray:
        """The per-state maximizer of the Lagrangian at x."""
        return self._solve(self.H, self.G, DualPoint.from_vector(x, self.n_lam))

    def _rates(self, P: np.ndarray) -> np.ndarray:
        return np.log1p(out := _dot(self.H, P), out=out)

    def _loads(self, P: np.ndarray) -> list:
        """Each LT constraint's load in every state, in the order of x."""
        return [P[:, k] for k in range(self.n_lam)] + [_dot(self.G[:, :, m], P)
                                                       for m in range(self.n_mu)]

    def onto_budgets(self, P: np.ndarray) -> np.ndarray:
        """P scaled onto the LT budget it overshoots most, if any: the
        master meets its budgets only up to the LP's rounding."""
        usage = np.array([a.sum() / P.shape[0] for a in self._loads(P)])
        return P / np.max(usage / self.thresholds, initial=1.0)

    def evaluate(self, x: np.ndarray):
        """Dual value, subgradient, allocation, usages, rate and Lagrangian mean at x.

        Every sum runs one user or cap column at a time over all states,
        in place from the first (einsums and matmuls over a short last
        axis run state by state); a mean is sum() / n, as .mean() rounds.
        """
        P = self._solve(self.H, self.G, DualPoint.from_vector(x, self.n_lam))
        n = P.shape[0]
        terms, loads = self._rates(P), self._loads(P)
        rate = float(terms.sum() / n)
        for a, price in zip(loads, x):
            terms -= a * price
        usage, mean = np.array([a.sum() / n for a in loads], dtype=float), terms.sum() / n
        return float(mean + x @ self.thresholds), self.thresholds - usage, P, usage, rate, mean

    def unbounded_cut(self, exc: UnboundedSubproblemError) -> np.ndarray:
        """Coefficients of the affine price w(x) that hit zero."""
        k, t = exc.user_index, exc.state_index
        coef = np.zeros(self.n_lam + self.n_mu)
        if self.case.tpc_is_lt:
            coef[k] = 1.0
        if self.case.ipc_is_lt:
            coef[self.n_lam:] = self.G[t, k]
        return coef

    def primal_value(self, alloc: np.ndarray) -> float:
        return float(self._rates(alloc).sum() / alloc.shape[0])


def _make_problem(states, case, budget, per_state_solver=None, tdma_mode=False):
    ensemble = as_ensemble(states)
    if ensemble.channel == "bc":
        H, G, budget = perstate_bc.as_one_user_mac(ensemble.H, ensemble.F, budget)
        ensemble, tdma_mode = Ensemble("mac", H, G), True
    return _MacProblem(ensemble, case, budget, solver=per_state_solver,
                       tdma_mode=tdma_mode)


def dual_value_and_subgradient(states, case: ConstraintCase, budget: PowerBudget,
                               point: DualPoint, per_state_solver=None):
    """Evaluate the SAA dual function and one subgradient at `point`.

    The subgradient components are threshold minus average usage, in
    the (lam..., mu...) order of the point's vector form.
    """
    problem = _make_problem(states, case, budget, per_state_solver=per_state_solver)
    if point.dimension != problem.n_lam + problem.n_mu:
        raise UsageError("dual point dimension does not match the case")
    if np.any(point.vector() < 0):
        raise UsageError("dual multipliers must be nonnegative")
    return problem.evaluate(point.vector())[:2]


# ---------------------------------------------------------------------------
# cutting-plane minimization of the dual

_RC_TOL = 1e-12         # a column prices in above this reduced cost (relative)
_PIV_TOL = 1e-12        # smallest pivot element the ratio test accepts
# The weight alpha of x_best in the evaluation point starts at 0 and
# moves by these steps, up to _ALPHA_MAX (see `_smoothing`).
_ALPHA_STEP = 0.3
_ALPHA_MAX = 0.99


def _smoothing(alpha, slope) -> float:
    """The next weight of the best point in the evaluation point.

    slope is the subgradient at the evaluated point along x_master -
    x_best. Negative, the dual still falls toward the master's point,
    so the weight shrinks; otherwise it grows (Pessoa et al. 2018).
    """
    if slope < 0.0:
        return max(0.0, alpha - _ALPHA_STEP)
    return min(_ALPHA_MAX, alpha + _ALPHA_STEP * (1.0 - alpha))


class _Master:
    """The Dantzig-Wolfe master over the visited columns, warm-started.

    Rows are the LT budgets scaled to 1 and the convexity row, so the
    right-hand side is all ones and the basic weights are the row sums
    of the basis inverse. The slack of the last row is the zero
    policy's weight, and the slack basis starts the simplex. The basis
    and its inverse carry over from one solve to the next, and a solve
    pivots only while some column prices in (Dantzig's rule, Bland's
    after a run of degenerate pivots), pricing once per pivot, with its
    columns in storage that doubles when full. The row prices y scale
    back to the multipliers x = y / thresholds: the minimizer over x >= 0
    of the cutting-plane model b.x + max(0, max_j R_j - u_j.x) of the dual.
    """

    def __init__(self, thresholds, rates=(), usages=(), floors=()):
        """m slacks, then pooled columns and floors in one block."""
        m = thresholds.size + 1
        self.b = thresholds
        U = np.reshape(usages, (len(rates), m - 1)) / thresholds
        F = np.reshape(floors, (len(floors), m - 1)) / thresholds
        self._A = np.hstack([np.eye(m), np.vstack([U.T, np.ones(len(U))]),
                             np.vstack([F.T, np.zeros(len(F))])])
        self.c = np.concatenate([np.zeros(m), rates, PRICE_FLOOR * F.sum(axis=1)])
        self._c, self._tol = self.c, _RC_TOL * (1.0 + np.abs(self.c))
        # a visited policy's index in the pool, -1 on a slack or floor
        self.pool_index = np.concatenate([np.full(m, -1), np.arange(len(U)),
                                          np.full(len(F), -1)])
        self.basis = np.arange(m)
        self.Binv = np.eye(m)
        self._priced()
        self.value = 0.0        # the mixture's guaranteed rate, set by each solve

    def _priced(self) -> None:
        """Prices and weights of the current basis."""
        self.y = self.c[self.basis] @ self.Binv
        self.weights = np.maximum(self.Binv.sum(axis=1), 0.0)
        self._rc = None

    def _add(self, cost, col, pool_index) -> None:
        j = self.c.size
        if j == self._c.size:       # full: double the storage (unused past c.size)
            self._A, self._c, self._tol, self.pool_index = (
                np.concatenate([a, np.zeros_like(a)], axis=-1)
                for a in (self._A, self._c, self._tol, self.pool_index))
        self._A[:, j], self._c[j], self.pool_index[j] = col, cost, pool_index
        self._tol[j], self.c, self._rc = _RC_TOL * (1.0 + abs(cost)), self._c[:j + 1], None

    def add_column(self, rate, usage) -> int:
        """A visited policy: mean rate, LT usage. Returns its pool index,
        that of an equal column already here if there is one: once the
        basis inverse drifts, two equal columns can swap on every pivot."""
        col = np.append(usage / self.b, 1.0)
        real = self.pool_index[:self.c.size] >= 0
        for j in np.flatnonzero(real & (self.c == rate)).tolist():
            if (self._A[:, j] == col).all():
                return int(self.pool_index[j])
        self._add(rate, col, np.count_nonzero(real))
        return int(self.pool_index[self.c.size - 1])

    def add_floor(self, a) -> None:
        """The cut a.x >= PRICE_FLOOR * a.x0 on a zero price a.x."""
        col = np.append(a / self.b, 0.0)
        self._add(PRICE_FLOOR * col.sum(), col, -1)

    def prices(self) -> np.ndarray:
        return self.y

    def _reduced_costs(self):
        """Reduced costs (zero on the basis) and which columns price in,
        computed once per basis and column set."""
        if self._rc is None:
            rc = self.c - self.y @ self._A[:, :self.c.size]
            rc[self.basis] = 0.0
            self._rc = rc, rc > self._tol[:self.c.size]
        return self._rc

    def prices_in(self, j) -> bool:
        """Whether column j would enter the current basis."""
        return bool(self._reduced_costs()[1][j])

    def solve(self) -> None:
        """Pivot until no column prices in."""
        m = self.basis.size
        degenerate = 0
        for _ in range(1000 * m):
            rc, enter = self._reduced_costs()
            if not enter.any():     # value: sum_j w_j R_j over visited policies
                real = self.pool_index[self.basis] >= 0
                self.value = float(sum((self.weights * self.c[self.basis])[real].tolist()))
                return
            q = int(np.argmax(enter) if degenerate > m else np.argmax(rc))
            d = self.Binv @ self._A[:, q]
            ratio = [w / di if di > _PIV_TOL else np.inf
                     for w, di in zip(self.weights.tolist(), d.tolist())]
            low, basis = min(ratio), self.basis.tolist()
            r = min((i for i in range(m) if ratio[i] == low), key=basis.__getitem__)
            degenerate = degenerate + 1 if low <= 0.0 else 0
            row = self.Binv[r] / d[r]
            self.Binv -= d[:, None] * row
            self.Binv[r] = row
            self.basis[r] = q
            self._priced()
        raise SolverFailureError("master LP did not reach an optimal basis")

    def mixture(self):
        """(pool index, weight) of every visited policy in the basis."""
        return [(i, w) for i, w in zip(self.pool_index[self.basis].tolist(),
                                       self.weights.tolist()) if i >= 0 and w > 0.0]


@dataclass
class ColumnPool:
    """The columns of the earlier points of one curve, for the next.

    columns holds (x_j, R_j, u_j, problem) per bounded evaluation: its
    multipliers, mean rate, LT usage and the problem it was solved
    under; means its Lagrangian mean, at maps x_j.tobytes() to j. kept
    maps a column's index in columns to its allocation P_j while the
    column is basic in the master, so at most d+1 are alive; a column
    that left the basis is re-solved under its own ST caps if it is
    mixed again. floors holds the a of each price floor, x the last
    point's best multipliers (a new pool may take another curve's) and
    problem the last point's problem.
    """

    columns: list = field(default_factory=list)
    means: list = field(default_factory=list)
    at: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)
    floors: list = field(default_factory=list)
    x: np.ndarray | None = None
    problem: _MacProblem | None = None

    def lookup(self, x, problem):
        """The column solved at exactly x under problem's ST sets, or None."""
        j = self.at.get(x.tobytes())
        same = j is not None and np.array_equal(self.columns[j][3].st_caps, problem.st_caps)
        return j if same else None


def cutting_plane_solve(states, case: ConstraintCase, budget: PowerBudget, *,
                        per_state_solver=None, tdma_mode=False,
                        gap_tol=GAP_TOL, max_iter=None, pool=None):
    """Minimize the SAA dual by cutting planes and mix a feasible policy.

    Returns (point, report, policy, weight): the evaluated dual point
    with the best dual value, the iteration trace, the feasible
    per-state policy mixed by the master, and the master's total weight
    on visited columns (the rest is the zero policy). The loop stops
    once the best dual value is within gap_tol of the master value and
    raises ConvergenceFailureError if max_iter evaluations pass first
    (or the master stops moving first, which no instance has shown).
    Raises UsageError, before any evaluation, for max_iter < 1.

    A policy whose per-state optimum is single-user (TDMA mode, and case
    I in either mode) is rounded by the lone-user rule at price 0 with
    the mixed powers as caps: each state's user of largest h q keeps
    its power (with one user, the mixture itself). That lowers
    every usage, so the policy stays feasible, but it can open the gap
    again: the master tolerance then tightens tenfold at a time down to
    gap_tol * TIGHTEN_FLOOR, or until the master stops moving, and alpha
    stays 0. If the gap is still open then, TDMA mode reports the
    one-user policy with stop reason "rounding" (`report.certified` is
    false), and case I in full mode returns the mixture, within the gap.
    The returned policy is scaled onto the LT budget it overshoots most
    (by the LP's rounding) before best_primal, its rate, is measured.

    A `ColumnPool` carries one curve's columns from point to point. The
    first evaluation is at its x (the last point's best multipliers) if
    it has d entries, the smoothing's centre until a better point is
    found; when every per-state ST set contains the last point's
    (`extends`) the master starts from all pooled columns and floors,
    and each column still basic after a master solve keeps its
    allocation for the mixture. An evaluation at a pooled column's x
    under equal ST sets (`lookup`) reads the column with no per-state
    solve, bit for bit. This point's columns join the pool; the dual
    value and n_evals (pooled answers too) come from its own evaluations.
    """
    if max_iter is not None and max_iter < 1:
        raise UsageError(f"max_iter must be at least 1, got {max_iter}")
    problem = _make_problem(states, case, budget,
                            per_state_solver=per_state_solver,
                            tdma_mode=tdma_mode)
    d = problem.n_lam + problem.n_mu
    n, K = problem.H.shape
    one_user = problem.tdma_mode or case is ConstraintCase.I
    max_iter = 100 * (d + 1) if max_iter is None else max_iter
    pool = ColumnPool() if pool is None else pool
    if not problem.extends(pool.problem):
        pool.columns, pool.means, pool.at, pool.kept, pool.floors = [], [], {}, {}, []
    x = pool.x if pool.x is not None and pool.x.size == d else 1.0 / problem.thresholds
    pool.problem = problem
    report = ConvergenceReport(params={
        "dimension": d, "start": x.tolist(),
        "gap_tol": gap_tol, "max_iter": max_iter})
    cols, kept = pool.columns, pool.kept
    master = _Master(problem.thresholds, [c[1] for c in cols], [c[2] for c in cols],
                     pool.floors)
    best_x, tol, policy = None, gap_tol, None
    alpha, centred, x_master = 0.0, False, x     # alpha moves once best_x is set
    for it in range(max_iter):
        report.n_evals += 1
        new = master.c.size         # the index of this evaluation's column, if added
        i = pool.lookup(x, problem)
        try:
            if i is None:
                value, subgrad, P, usage, rate, mean = problem.evaluate(x)
            else:                   # solved here before: no per-state solve
                (_, rate, usage, _), mean, P = cols[i], pool.means[i], kept.get(i)
                value, subgrad = float(mean + x @ problem.thresholds), problem.thresholds - usage
        except UnboundedSubproblemError as exc:
            pool.floors.append(problem.unbounded_cut(exc))
            master.add_floor(pool.floors[-1])
            usage = None
        else:
            if tol == gap_tol and best_x is not None:
                alpha = _smoothing(alpha, subgrad @ (x_master - best_x))
            if value < report.best_dual:
                report.best_dual, best_x = value, x
            i = master.add_column(rate, usage)
            if i == len(cols):
                cols.append((x, rate, usage, problem))
                pool.means.append(mean)
                pool.at[x.tobytes()] = i
            if P is not None:
                kept[i] = P
        mispriced = centred and not (master.c.size > new and master.prices_in(new))
        report.mispriced += mispriced
        master.solve()
        for i in kept.keys() - set(master.pool_index[master.basis].tolist()):
            del kept[i]
        gap = report.best_dual - master.value
        if usage is not None:       # with the worst relative LT violation
            viol = np.max((usage - problem.thresholds) / problem.thresholds, initial=0.0)
            report.rows.append((it, value, float(viol), gap))
        if gap <= tol * max(report.best_dual, 1e-9):
            mixed = np.zeros((n, K))
            for i, w in master.mixture():
                if i not in kept:           # it left the basis once
                    xi, _, _, owner = cols[i]
                    kept[i] = owner.allocation(xi)
                mixed = mixed + w * kept[i]
            policy = problem.onto_budgets(lone_user(problem.H, 0.0, mixed) if one_user else mixed)
            report.best_primal = problem.primal_value(policy)
            if report.certified_at(gap_tol):
                report.stop_reason = "gap"
                break
            report.stop_reason = "rounding"
            if tol <= gap_tol * TIGHTEN_FLOOR:
                break
            tol, alpha = tol / 10.0, 0.0        # on to the master's own points
        x_next = master.prices()[:d] / problem.thresholds
        if not centred and np.array_equal(x_next, x_master):
            break                   # the master did not move: x would repeat
        x_master = x_next
        centred = alpha > 0.0 and not mispriced
        x = alpha * best_x + (1.0 - alpha) * x_master if centred else x_master
    if policy is None:
        report.stop_reason = "max_iter" if report.n_evals == max_iter else "stall"
        raise ConvergenceFailureError(
            f"dual loop stopped ({report.stop_reason}) after {report.n_evals} "
            f"evaluations at d = {d} with relative gap "
            f"{gap / max(report.best_dual, 1e-9):.3e} above {gap_tol:.1e}",
            report=report)
    if report.stop_reason == "rounding" and not problem.tdma_mode:
        policy = problem.onto_budgets(mixed)    # case I in full mode needs no rounding
        report.best_primal = problem.primal_value(policy)
        if report.certified_at(gap_tol):
            report.stop_reason = "gap"
    pool.x = best_x
    point = DualPoint.from_vector(best_x, problem.n_lam)
    return point, report, policy, sum(w for _, w in master.mixture())


ellipsoid_solve = cutting_plane_solve     # the former name, the same object
