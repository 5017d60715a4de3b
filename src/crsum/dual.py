r"""Lagrangian dual machinery for the long-term constraints.

Dualizing whatever constraints are long-term decouples the SAA problem
across fading states. The dual function

    g(x) = (1/n) sum_t  max_p L_t(p; x)  +  x . thresholds

is convex in the multipliers x = (lam, mu) and is minimized here with
the ellipsoid method (central cuts from subgradients, deep cuts for
negativity, and affine domain cuts when a subproblem is unbounded).
Once the multipliers are near-optimal, a feasible primal policy is
recovered by scaling the per-state allocations onto the long-term
budget; the measured dual-primal gap certifies the answer. Each
evaluation sums one user or cap column at a time over all states, and
an allocation that needs no scaling keeps the rates it computed. With
zero dualized constraints (case 4) the "dual loop" is a single exact
evaluation. There is one problem adapter, the MAC's: a BC ensemble is
solved as the one-user TDMA MAC of `perstate_bc.as_one_user_mac`.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintCase, PowerBudget, _check_dims
from .errors import ConvergenceFailureError, UnboundedSubproblemError, UsageError
from .fading import Ensemble, as_ensemble
from . import perstate_bc, tdma

GAP_TOL = 1e-3
FEAS_TOL = 1e-3
VOL_TOL = 1e-12


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

    rows hold (iteration, dual_value, max_lt_violation, gap): the LT
    violation is that of the unscaled per-state allocation at the
    iterate, the gap is best-dual minus best-recovered-primal so far.
    """

    params: dict
    rows: list = field(default_factory=list)
    stop_reason: str = ""
    best_dual: float = np.inf
    best_primal: float = -np.inf

    @property
    def n_iterations(self) -> int:
        return len(self.rows)

    @property
    def gap(self) -> float:
        return self.best_dual - self.best_primal

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
        self.case = case
        self.budget = budget
        self.n_lam = K if case.tpc_is_lt else 0
        self.n_mu = M if case.ipc_is_lt else 0
        self.thresholds = np.concatenate([
            budget.tpc if case.tpc_is_lt else np.zeros(0),
            budget.ipc if case.ipc_is_lt else np.zeros(0)])
        self._solve = solver or (lambda H, G, pt: tdma.solve_states(
            case, H, G, pt.lam, pt.mu, budget, tdma_mode=tdma_mode))

    def initial_center(self) -> np.ndarray:
        return 1.0 / self.thresholds

    def evaluate(self, x: np.ndarray):
        """Dual value, subgradient, allocation, LT usages and mean rate at x.

        Every sum runs one user or cap column at a time over all states:
        the einsums and matmuls over a short last axis run state by state.
        """
        point = DualPoint.from_vector(x, self.n_lam)
        P = self._solve(self.H, self.G, point)
        K, M = self.G.shape[1:]
        terms = np.log1p(sum(self.H[:, k] * P[:, k] for k in range(K)))
        rate = float(terms.mean())
        usage = []
        if self.case.tpc_is_lt:
            for k in range(K):
                usage.append(P[:, k].mean())
                terms -= P[:, k] * point.lam[k]
        if self.case.ipc_is_lt:
            for m in range(M):
                I = sum(P[:, k] * self.G[:, k, m] for k in range(K))
                usage.append(I.mean())
                terms -= I * point.mu[m]
        usage = np.array(usage, dtype=float)
        value = float(terms.mean() + x @ self.thresholds)
        subgrad = self.thresholds - usage
        return value, subgrad, P, usage, rate

    def unbounded_cut(self, exc: UnboundedSubproblemError) -> np.ndarray:
        """Coefficients of the affine price w(x) that hit zero."""
        k = exc.user_index
        t = exc.state_index
        coef = np.zeros(self.n_lam + self.n_mu)
        if self.case.tpc_is_lt:
            coef[k] = 1.0
        if self.case.ipc_is_lt:
            coef[self.n_lam:] = self.G[t, k]
        return coef

    def primal_value(self, alloc: np.ndarray) -> float:
        return float(np.mean(np.log1p(np.einsum("tk,tk->t", self.H, alloc))))

    def rescale(self, alloc: np.ndarray, usage: np.ndarray):
        """Scale the allocation onto the LT budget; ST caps survive a
        shrink automatically. Returns (policy, scale)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(usage > 0.0, self.thresholds / usage, np.inf)
        scale = float(min(1.0, np.min(ratios, initial=np.inf)))
        return (alloc, scale) if scale == 1.0 else (alloc * scale, scale)


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
    value, subgrad, _, _, _ = problem.evaluate(point.vector())
    return value, subgrad


# ---------------------------------------------------------------------------
# ellipsoid minimization of the dual


def _deep_cut_update(x, A, a, alpha, d):
    """One deep-cut ellipsoid step; alpha in [0, 1) is the cut depth."""
    Aa = A @ a
    denom = float(np.sqrt(max(a @ Aa, 0.0)))
    if denom <= 0.0 or not np.isfinite(denom):
        return None
    b = Aa / denom
    x_new = x - (1.0 + d * alpha) / (d + 1.0) * b
    factor = d * d * (1.0 - alpha * alpha) / (d * d - 1.0)
    A_new = factor * (A - 2.0 * (1.0 + d * alpha)
                      / ((d + 1.0) * (1.0 + alpha)) * np.outer(b, b))
    A_new = 0.5 * (A_new + A_new.T)
    vol_factor = (d * (1.0 - alpha) / (d + 1.0)) * factor ** ((d - 1) / 2.0)
    return x_new, A_new, vol_factor


class _Tracker:
    """Keeps the best dual value and best recovered-feasible primal."""

    def __init__(self, problem):
        self.problem = problem
        self.best_dual = np.inf
        self.best_primal = -np.inf
        self.best_point = None
        self.best_policy = None
        self.best_scale = 1.0

    def visit(self, x, value, alloc, usage, rate):
        """rate is the mean rate of alloc itself, the primal value when
        the allocation needs no scaling."""
        self.best_dual = min(self.best_dual, value)
        policy, scale = self.problem.rescale(alloc, usage)
        primal = rate if scale == 1.0 else self.problem.primal_value(policy)
        if primal > self.best_primal:
            self.best_primal = primal
            self.best_point = x.copy()
            self.best_policy = policy
            self.best_scale = scale

    @property
    def gap(self) -> float:
        return self.best_dual - self.best_primal

    def gap_ok(self, gap_tol) -> bool:
        return np.isfinite(self.gap) and \
            self.gap <= gap_tol * max(self.best_dual, 1e-9)


def _lt_violation(problem, usage) -> float:
    if usage.size == 0:
        return 0.0
    return float(np.max((usage - problem.thresholds) / problem.thresholds, initial=0.0))


def ellipsoid_solve(states, case: ConstraintCase, budget: PowerBudget, *,
                    per_state_solver=None, tdma_mode=False,
                    gap_tol=GAP_TOL, feas_tol=FEAS_TOL, vol_tol=VOL_TOL,
                    max_iter=None, radius_scale=10.0):
    """Minimize the SAA dual and recover a feasible near-optimal policy.

    Returns (point, report, policy, scale): the dual point whose
    recovered policy achieved the best certified primal value, the
    iteration trace, the feasible per-state policy itself, and the
    scale factor that made it feasible. Raises ConvergenceFailureError
    if neither the gap criterion nor a clean volume exit is reached.
    """
    problem = _make_problem(states, case, budget,
                            per_state_solver=per_state_solver,
                            tdma_mode=tdma_mode)
    d = problem.n_lam + problem.n_mu
    tracker = _Tracker(problem)

    if d == 0:
        value, _, alloc, usage, rate = problem.evaluate(np.zeros(0))
        tracker.visit(np.zeros(0), value, alloc, usage, rate)
        report = ConvergenceReport(
            params={"dimension": 0}, stop_reason="gap",
            best_dual=tracker.best_dual, best_primal=tracker.best_primal)
        report.rows.append((0, value, _lt_violation(problem, usage), tracker.gap))
        return (DualPoint(lam=np.zeros(0), mu=np.zeros(0)), report,
                tracker.best_policy, tracker.best_scale)

    x0 = problem.initial_center()
    radius = radius_scale * float(np.max(x0))
    if max_iter is None:
        max_iter = 500 * d * d
    params = {"dimension": d, "center": x0.tolist(), "radius": radius,
              "gap_tol": gap_tol, "feas_tol": feas_tol, "vol_tol": vol_tol,
              "max_iter": max_iter}
    report = ConvergenceReport(params=params)

    def record(it, value, usage):
        report.rows.append((it, value, _lt_violation(problem, usage), tracker.gap))

    stop = None
    if d == 1:
        lo, hi = 0.0, x0[0] + radius
        width0 = hi - lo
        x = x0.copy()
        for it in range(max_iter):
            try:
                value, sg, alloc, usage, rate = problem.evaluate(x)
            except UnboundedSubproblemError:
                lo = x[0]
                x = np.array([0.5 * (lo + hi)])
                continue
            tracker.visit(x, value, alloc, usage, rate)
            record(it, value, usage)
            if tracker.gap_ok(gap_tol):
                stop = "gap"
                break
            if sg[0] > 0.0:
                hi = x[0]
            else:
                lo = x[0]
            x = np.array([0.5 * (lo + hi)])
            if (hi - lo) / width0 < vol_tol:
                stop = "volume"
                break
    else:
        x = x0.copy()
        A = radius * radius * np.eye(d)
        vol_ratio = 1.0
        for it in range(max_iter):
            cut = None
            depth_raw = 0.0
            if np.min(x) < 0.0:
                i = int(np.argmin(x))
                cut = np.zeros(d)
                cut[i] = -1.0
                depth_raw = -x[i]
            else:
                try:
                    value, sg, alloc, usage, rate = problem.evaluate(x)
                except UnboundedSubproblemError as exc:
                    coef = problem.unbounded_cut(exc)
                    cut = -coef
                else:
                    tracker.visit(x, value, alloc, usage, rate)
                    record(it, value, usage)
                    if tracker.gap_ok(gap_tol):
                        stop = "gap"
                        break
                    cut = sg
            norm = float(np.linalg.norm(cut))
            if norm <= 0.0 or not np.isfinite(norm):
                stop = "degenerate"
                break
            Aa = A @ cut
            width = float(np.sqrt(max(cut @ Aa, 0.0)))
            if width <= 0.0:
                stop = "degenerate"
                break
            alpha = min(max(depth_raw / width, 0.0), 1.0 - 1e-12)
            step = _deep_cut_update(x, A, cut, alpha, d)
            if step is None:
                stop = "degenerate"
                break
            x, A, vol_factor = step
            vol_ratio *= vol_factor
            if vol_ratio < vol_tol:
                stop = "volume"
                break
        else:
            stop = "max_iter"

    report.stop_reason = stop or "max_iter"
    report.best_dual = tracker.best_dual
    report.best_primal = tracker.best_primal
    if tracker.best_point is None:
        raise ConvergenceFailureError(
            "dual loop never produced a feasible policy", report=report)
    # A collapsed search region is a legitimate exit: the dual value is
    # then as sharp as the geometry allows. Only running out of
    # iterations with the gap still open counts as failure.
    if report.stop_reason == "max_iter" and not tracker.gap_ok(gap_tol):
        raise ConvergenceFailureError(
            f"iteration cap hit with relative gap "
            f"{tracker.gap / max(tracker.best_dual, 1e-9):.3e} above {gap_tol:.1e}",
            report=report)
    point = DualPoint.from_vector(tracker.best_point, problem.n_lam)
    return point, report, tracker.best_policy, tracker.best_scale
