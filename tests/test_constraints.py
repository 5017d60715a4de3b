"""Constraint cases, budgets, and the feasibility report."""

import csv

import numpy as np
import pytest

from crsum import (ConfigurationError, ConstraintCase, PowerBudget, UsageError,
                   db_to_linear, ergodic_capacity_bc, feasibility_check,
                   fra_baseline_bc, sample_bc_states, sample_mac_states,
                   FadingModel)


def test_case_labels_and_flags():
    assert ConstraintCase.from_label("I") is ConstraintCase.I
    assert ConstraintCase.from_label("iv") is ConstraintCase.IV
    assert ConstraintCase.I.tpc_is_lt and ConstraintCase.I.ipc_is_lt
    assert ConstraintCase.II.tpc_is_lt and not ConstraintCase.II.ipc_is_lt
    assert not ConstraintCase.III.tpc_is_lt and ConstraintCase.III.ipc_is_lt
    assert not ConstraintCase.IV.tpc_is_lt and not ConstraintCase.IV.ipc_is_lt
    with pytest.raises(UsageError):
        ConstraintCase.from_label("V")


def test_db_to_linear():
    assert db_to_linear(0.0) == 1.0
    assert abs(db_to_linear(3.0) - 10 ** 0.3) < 1e-15
    assert abs(db_to_linear(-10.0) - 0.1) < 1e-16


def test_budget_validation():
    PowerBudget(tpc=np.array([1.0, 2.0]), ipc=np.array([0.5]))
    with pytest.raises(ConfigurationError):
        PowerBudget(tpc=np.array([1.0, 0.0]), ipc=np.array([0.5]))
    with pytest.raises(ConfigurationError):
        PowerBudget(tpc=np.array([1.0]), ipc=np.array([-0.5]))
    with pytest.raises(ConfigurationError):
        PowerBudget(tpc=np.array([1.0]), ipc=np.array([1.0]), bs_tpc=0.0)
    b = PowerBudget.symmetric(3, 2, 1.5, 0.7)
    assert b.K == 3 and b.M == 2
    assert (b.tpc == 1.5).all() and (b.ipc == 0.7).all()


def test_feasibility_report_mac(small_mac_ensemble):
    n = len(small_mac_ensemble)
    alloc = np.full((n, 2), 0.1)
    budget = PowerBudget.symmetric(2, 1, 1.0, 10.0)
    report = feasibility_check(alloc, small_mac_ensemble, ConstraintCase.I, budget)
    assert report.all_satisfied
    ids = [row.constraint_id for row in report.rows]
    assert ids == ["tpc_1", "tpc_2", "ipc_1"]
    assert all(row.kind == "LT" for row in report.rows)


def test_feasibility_flags_violation(small_mac_ensemble):
    n = len(small_mac_ensemble)
    alloc = np.full((n, 2), 2.0)
    budget = PowerBudget.symmetric(2, 1, 1.0, 1000.0)
    report = feasibility_check(alloc, small_mac_ensemble, ConstraintCase.IV, budget)
    assert not report.all_satisfied
    bad = [r for r in report.rows if not r.satisfied]
    assert {r.constraint_id for r in bad} == {"tpc_1", "tpc_2"}
    assert report.max_relative_violation > 0.9


def test_st_vs_lt_semantics(small_mac_ensemble):
    """An allocation can satisfy an LT budget while violating its ST twin."""
    n = len(small_mac_ensemble)
    alloc = np.zeros((n, 2))
    alloc[0, 0] = n * 0.5  # single spike, small average
    budget = PowerBudget.symmetric(2, 1, 1.0, 1e9)
    lt = feasibility_check(alloc, small_mac_ensemble, ConstraintCase.I, budget)
    st = feasibility_check(alloc, small_mac_ensemble, ConstraintCase.III, budget)
    assert lt.all_satisfied
    assert not st.all_satisfied


def test_feasibility_report_bc(small_bc_ensemble):
    """A BC policy is audited as a one-user MAC: one TPC row, M IPC rows."""
    budget = PowerBudget(tpc=np.zeros(0), ipc=np.array([5.0, 5.0]), bs_tpc=1.0)
    for res, kind in ((ergodic_capacity_bc(small_bc_ensemble, ConstraintCase.I,
                                           budget), "LT"),
                      (fra_baseline_bc(small_bc_ensemble, budget), "ST")):
        report = res.feasibility
        assert report.all_satisfied
        assert [r.constraint_id for r in report.rows] == ["tpc_1", "ipc_1", "ipc_2"]
        assert {r.kind for r in report.rows} == {kind}
        assert report.rows[0].threshold == budget.bs_tpc


def test_report_csv_schema(tmp_path, small_mac_ensemble):
    alloc = np.full((len(small_mac_ensemble), 2), 0.1)
    budget = PowerBudget.symmetric(2, 1, 1.0, 10.0)
    report = feasibility_check(alloc, small_mac_ensemble, ConstraintCase.II, budget)
    path = tmp_path / "feas.csv"
    report.write_csv(path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["constraint_id", "kind", "achieved", "threshold", "satisfied"]
    assert len(rows) == 1 + len(report.rows)
    kinds = {r[1] for r in rows[1:]}
    assert kinds == {"LT", "ST"}


def test_dimension_mismatch_raises(small_mac_ensemble):
    alloc = np.full((len(small_mac_ensemble), 3), 0.1)
    budget = PowerBudget.symmetric(3, 1, 1.0, 1.0)
    with pytest.raises(UsageError):
        feasibility_check(alloc, small_mac_ensemble, ConstraintCase.I, budget)


def test_bc_budget_requires_bs_tpc(small_bc_ensemble):
    budget = PowerBudget(tpc=np.zeros(0), ipc=np.array([1.0, 1.0]))
    for case in ConstraintCase:
        with pytest.raises(UsageError):
            ergodic_capacity_bc(small_bc_ensemble, case, budget)
    with pytest.raises(UsageError):
        fra_baseline_bc(small_bc_ensemble, budget)
