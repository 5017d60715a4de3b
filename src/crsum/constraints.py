r"""Constraint cases, power budgets, and feasibility auditing.

A transmit-power constraint (TPC) and an interference-power constraint
(IPC) can each be imposed long-term (LT, on the fading average) or
short-term (ST, in every fading state), giving four cases:

    I   LT-TPC + LT-IPC
    II  LT-TPC + ST-IPC
    III ST-TPC + LT-IPC
    IV  ST-TPC + ST-IPC

The same enum labels both MAC budgets (per-user TPC vector) and BC
budgets (single base-station TPC). A BC policy is audited as the
one-user MAC it is, so its rows read tpc_1 and ipc_m.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigurationError, UsageError
from .fading import mac_arrays

ST_TOL = 1e-6   # relative slack allowed on per-state constraints
LT_TOL = 1e-3   # relative slack allowed on averaged constraints


class ConstraintCase(Enum):
    """Which of TPC / IPC are long-term averages vs per-state caps."""

    I = "I"
    II = "II"
    III = "III"
    IV = "IV"

    @property
    def tpc_is_lt(self) -> bool:
        return self in (ConstraintCase.I, ConstraintCase.II)

    @property
    def ipc_is_lt(self) -> bool:
        return self in (ConstraintCase.I, ConstraintCase.III)

    @classmethod
    def from_label(cls, label: str) -> "ConstraintCase":
        try:
            return cls(label.strip().upper())
        except ValueError:
            raise UsageError(f"unknown constraint case {label!r}") from None


@dataclass(frozen=True)
class PowerBudget:
    """Strictly positive thresholds for one experiment.

    tpc[k] is user k's transmit-power threshold (MAC), ipc[m] primary
    receiver m's interference threshold, and bs_tpc the base-station
    threshold used on the BC side (None for MAC-only budgets).
    Thresholds are linear scale; whether each acts LT or ST is decided
    by the ConstraintCase, not by the budget.
    """

    tpc: np.ndarray
    ipc: np.ndarray
    bs_tpc: float | None = None

    def __post_init__(self):
        tpc = np.atleast_1d(np.asarray(self.tpc, dtype=float))
        ipc = np.atleast_1d(np.asarray(self.ipc, dtype=float)) if np.size(self.ipc) else np.zeros(0)
        if tpc.ndim != 1 or ipc.ndim != 1:
            raise ConfigurationError("tpc and ipc must be vectors")
        if np.any(~np.isfinite(tpc)) or np.any(tpc <= 0):
            raise ConfigurationError("tpc thresholds must be finite and > 0")
        if ipc.size and (np.any(~np.isfinite(ipc)) or np.any(ipc <= 0)):
            raise ConfigurationError("ipc thresholds must be finite and > 0")
        if self.bs_tpc is not None and not (np.isfinite(self.bs_tpc) and self.bs_tpc > 0):
            raise ConfigurationError("bs_tpc must be finite and > 0")
        tpc.flags.writeable = False
        ipc.flags.writeable = False
        object.__setattr__(self, "tpc", tpc)
        object.__setattr__(self, "ipc", ipc)

    @property
    def K(self) -> int:
        return self.tpc.shape[0]

    @property
    def M(self) -> int:
        return self.ipc.shape[0]

    @classmethod
    def symmetric(cls, K: int, M: int, p: float, gamma: float,
                  q: float | None = None) -> "PowerBudget":
        """Equal thresholds across users and primary receivers."""
        return cls(tpc=np.full(K, float(p)),
                   ipc=np.full(M, float(gamma)),
                   bs_tpc=q)


def _check_dims(budget: PowerBudget, K: int, M: int) -> None:
    if budget.K != K or budget.M != M:
        raise UsageError("budget dimensions do not match the ensemble")


@dataclass(frozen=True)
class ConstraintRow:
    constraint_id: str
    kind: str          # "LT" or "ST"
    achieved: float
    threshold: float
    satisfied: bool


@dataclass(frozen=True)
class ConstraintReport:
    rows: tuple[ConstraintRow, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.rows)

    @property
    def max_relative_violation(self) -> float:
        """Largest (achieved - threshold)/threshold, 0 if all slack."""
        if not self.rows:
            return 0.0
        return max(0.0, max((r.achieved - r.threshold) / r.threshold for r in self.rows))

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["constraint_id", "kind", "achieved", "threshold", "satisfied"])
            for r in self.rows:
                w.writerow([r.constraint_id, r.kind, repr(r.achieved),
                            repr(r.threshold), int(r.satisfied)])


def _check(constraint_id, kind, achieved, threshold, tol) -> ConstraintRow:
    ok = achieved <= threshold * (1.0 + tol)
    return ConstraintRow(constraint_id, kind, float(achieved), float(threshold), bool(ok))


def _dot(A, P):
    """Each state's a.p, one user column at a time (an einsum runs per state)."""
    out = A[:, 0] * P[:, 0]
    for k in range(1, P.shape[1]):
        out += A[:, k] * P[:, k]
    return out


def _audit(P, G, case: ConstraintCase, budget: PowerBudget):
    """`feasibility_check` on the arrays P (n, K) and G (n, K, M). Also
    returns the four statistics it reads, from one pass: each user's
    average and worst transmit power and each primary receiver's
    average and worst interference."""
    n, K, M = G.shape
    if P.shape != (n, K):
        raise UsageError(f"alloc_ensemble has shape {P.shape}, expected {(n, K)}")
    _check_dims(budget, K, M)
    if np.any(P < -1e-12):
        raise UsageError("negative transmit powers in the policy")
    # by columns (a reduction over a short axis 1 runs state by state); a mean is
    # sum() / n, the dual loop's usage rule, where .mean(axis=0) sums row by row
    cols = ([P[:, k] for k in range(K)], [_dot(G[:, :, m], P) for m in range(M)])
    stats = [np.array([f(a) for a in c]) for c in cols for f in (lambda a: a.sum() / n, np.max)]
    rows = []
    for name, lt, threshold, avg, worst in (("tpc", case.tpc_is_lt, budget.tpc, *stats[:2]),
                                            ("ipc", case.ipc_is_lt, budget.ipc, *stats[2:])):
        ach, kind, tol = (avg, "LT", LT_TOL) if lt else (worst, "ST", ST_TOL)
        rows += [_check(f"{name}_{i + 1}", kind, ach[i], threshold[i], tol)
                 for i in range(threshold.size)]
    return ConstraintReport(rows=tuple(rows)), stats


def feasibility_check(alloc_ensemble, states,
                      case: ConstraintCase, budget: PowerBudget) -> ConstraintReport:
    """Audit a MAC power policy against every constraint of `case`.

    `alloc_ensemble` is (n, K): one power vector per fading state, in
    ensemble order. LT constraints are judged on the sample average, ST
    constraints on the worst state.
    """
    return _audit(np.asarray(alloc_ensemble, dtype=float), mac_arrays(states)[1],
                  case, budget)[0]


def db_to_linear(db: float) -> float:
    """Power ratio from decibels."""
    return float(10.0 ** (db / 10.0))
