r"""Ergodic sum-rate pipelines: DRA solvers and FRA baselines.

Each pipeline draws together a per-state solver family and the
cutting-plane dual loop, then audits the policy the loop's master mixed
against every constraint before reporting. A result is certified when
its dual-primal gap is within `dual.GAP_TOL` of the dual value; points
without a dual loop are exact. Rates are sample averages in nats.
There is one pipeline: the BC is solved, audited and assembled as the
one-user MAC of `perstate_bc.as_one_user_mac` and its result
relabelled as the BC's, one per-state pass per evaluation. The K-user
auxiliary MAC that checks the one-user path state by state runs in
`crsum verify --suite bc` and the acceptance gate, not here.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constraints import (ConstraintCase, ConstraintReport, PowerBudget,
                          _audit, _check_dims, _dot)
from .dual import ConvergenceReport, DualPoint, cutting_plane_solve
from .errors import SolverFailureError, UsageError
from .fading import Ensemble, as_ensemble
from .perstate_bc import as_one_user_mac
from .perstate_mac import ACTIVE_TOL, _ipc_caps


@dataclass(frozen=True)
class PolicyResult:
    """Everything measured about one computed power policy."""

    channel: str                 # "mac" or "bc"
    case: ConstraintCase
    mode: str                    # "full", "tdma", or "fra"
    ergodic_sum_rate: float      # nats per channel use
    rate_stderr: float
    gap: float | None            # dual minus primal, None without a dual
    dual_value: float | None
    dual_point: DualPoint | None
    certified: bool              # gap <= GAP_TOL * dual (always for exact points)
    n_evals: int                 # dual-function evaluations (0 for FRA)
    achieved_avg_tx_power: np.ndarray
    achieved_worst_tx_power: np.ndarray
    achieved_avg_interference: np.ndarray
    achieved_worst_interference: np.ndarray
    active_count_histogram: np.ndarray
    max_lt_violation: float      # worst relative overshoot of the LT rows
    max_st_violation: float      # and of the ST rows
    n_states: int
    alloc: np.ndarray            # (n, K) for MAC, (n,) for BC
    feasibility: ConstraintReport
    convergence: ConvergenceReport | None


def _rate_stats(rates: np.ndarray) -> tuple[float, float]:
    mean = float(rates.mean())
    stderr = float(rates.std(ddof=1) / np.sqrt(rates.size)) if rates.size > 1 else 0.0
    return mean, stderr


def _assemble_mac(ensemble, case, budget, P, *, mode, dual_point,
                  report) -> PolicyResult:
    H, G = ensemble.H, ensemble.G
    n, K = H.shape
    rates = np.log1p(_dot(H, P))
    rate, stderr = _rate_stats(rates)
    feas, (avg_p, worst_p, avg_i, worst_i) = _audit(P, G, case, budget)
    if not feas.all_satisfied:
        raise SolverFailureError("recovered policy failed its feasibility audit",
                                 residual=feas.max_relative_violation)
    active = np.zeros(n, dtype=np.intp)     # by columns, as the audit's maxima
    for k in range(K):
        active += P[:, k] > ACTIVE_TOL
    hist = np.bincount(active, minlength=K + 1)
    return PolicyResult(
        channel="mac", case=case, mode=mode,
        ergodic_sum_rate=rate, rate_stderr=stderr,
        gap=report.gap if report else None,
        dual_value=report.best_dual if report else None,
        dual_point=dual_point,
        certified=report.certified if report else True,
        n_evals=report.n_evals if report else 0,
        achieved_avg_tx_power=avg_p, achieved_worst_tx_power=worst_p,
        achieved_avg_interference=avg_i, achieved_worst_interference=worst_i,
        active_count_histogram=hist,
        max_lt_violation=feas.max_violation("LT"),
        max_st_violation=feas.max_violation("ST"),
        n_states=n, alloc=P, feasibility=feas, convergence=report)


def _as_bc(res: PolicyResult, K: int, mode: str) -> PolicyResult:
    """A one-user MAC result relabelled as that of the K-user BC."""
    hist = np.zeros(K + 1, dtype=res.active_count_histogram.dtype)
    hist[:2] = res.active_count_histogram
    return replace(res, channel="bc", mode=mode, alloc=res.alloc[:, 0],
                   active_count_histogram=hist)


def _capacity(ensemble, case, budget, mode, **dual_opts) -> PolicyResult:
    point, report, policy, _ = cutting_plane_solve(
        ensemble, case, budget, tdma_mode=(mode == "tdma"), **dual_opts)
    return _assemble_mac(ensemble, case, budget, policy, mode=mode,
                         dual_point=point, report=report)


def ergodic_capacity_mac(states, case: ConstraintCase, budget: PowerBudget,
                         *, mode: str = "full", **dual_opts) -> PolicyResult:
    """Ergodic sum capacity of the secondary MAC under `case`.

    mode "full" allows simultaneous transmission, "tdma" restricts each
    state to a single user. Long-term cases run the cutting-plane dual
    loop; case 4 is a single exact per-state pass.
    """
    if mode not in ("full", "tdma"):
        raise UsageError("mode must be 'full' or 'tdma'")
    return _capacity(as_ensemble(states, "mac"), case, budget, mode, **dual_opts)


def ergodic_capacity_mac_tdma(states, case: ConstraintCase, budget: PowerBudget,
                              **dual_opts) -> PolicyResult:
    """TDMA-restricted ergodic sum capacity of the secondary MAC."""
    return _capacity(as_ensemble(states, "mac"), case, budget, "tdma", **dual_opts)


def _bc_prices(point: DualPoint, M: int):
    """(lam, mu) of the BC per-state solvers at a one-user MAC dual point."""
    return (float(point.lam[0]) if point.lam.size else 0.0,
            point.mu if point.mu.size else np.zeros(M))


def ergodic_capacity_bc(states, case: ConstraintCase, budget: PowerBudget,
                        **dual_opts) -> PolicyResult:
    """Ergodic capacity of the secondary BC under `case`.

    The dual loop solves the one-user MAC of each state's best user (by
    `per_state_solver` if given). `crsum verify --suite bc` checks it
    against the K-user auxiliary MAC, each path reporting its own users.
    """
    ensemble = as_ensemble(states, "bc")
    H1, G1, mac = as_one_user_mac(ensemble.H, ensemble.F, budget)
    res = _capacity(Ensemble("mac", H1, G1), case, mac, "tdma", **dual_opts)
    return _as_bc(res, ensemble.H.shape[1], "full")


def _fra(ensemble, budget: PowerBudget) -> PolicyResult:
    H, G = ensemble.H, ensemble.G
    n, K = H.shape
    _check_dims(budget, K, G.shape[2])
    users = np.arange(n) % K
    rows = np.arange(n)
    P = np.zeros((n, K))
    P[rows, users] = np.minimum(budget.tpc, _ipc_caps(G, budget.ipc))[rows, users]
    return _assemble_mac(ensemble, ConstraintCase.IV, budget, P, mode="fra",
                         dual_point=None, report=None)


def fra_baseline_mac(states, budget: PowerBudget) -> PolicyResult:
    """Round-robin single-user baseline with a fixed per-state power.

    User (t mod K) transmits in state t at the largest power honoring
    its transmit cap and every interference cap; no channel knowledge
    is used beyond the instantaneous caps.
    """
    return _fra(as_ensemble(states, "mac"), budget)


def fra_baseline_bc(states, budget: PowerBudget) -> PolicyResult:
    """Round-robin BC baseline: serve user (t mod K) at the fixed power
    min(q_st, min_m gamma_m / f_m), the one-user MAC's FRA."""
    ensemble = as_ensemble(states, "bc")
    n, K = ensemble.H.shape
    H1, G1, mac = as_one_user_mac(ensemble.H, ensemble.F, budget,
                                  users=np.arange(n) % K)
    return _as_bc(_fra(Ensemble("mac", H1, G1), mac), K, "fra")
