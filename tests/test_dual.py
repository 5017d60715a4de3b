"""Dual decomposition: function evaluation, the cutting-plane loop, its
Dantzig-Wolfe master, and its convergence reporting."""

import numpy as np
import pytest

from crsum import (ConstraintCase, ConvergenceFailureError, FadingModel,
                   PowerBudget, UsageError, db_to_linear, ellipsoid_solve,
                   ergodic_capacity_bc, ergodic_capacity_mac,
                   ergodic_capacity_mac_tdma, sample_bc_states,
                   sample_mac_states, tdma)
from crsum import dual
from crsum.constraints import feasibility_check
from crsum.dual import (GAP_TOL, ColumnPool, DualPoint, _Master, _make_problem,
                        cutting_plane_solve, dual_value_and_subgradient)
from crsum.oracle import saa_primal_oracle

import dual_reference

WF_VALUE = 0.8109302162163288  # two-state water-filling, h=(2,0.5), avg P<=1


def _wf_states():
    from crsum.fading import ChannelStateMac
    return [ChannelStateMac(h=np.array([h]), g=np.zeros((1, 0)))
            for h in (2.0, 0.5)]


def test_water_filling_frozen_value():
    budget = PowerBudget(tpc=np.array([1.0]), ipc=np.zeros(0))
    point, report, policy, weight = ellipsoid_solve(
        _wf_states(), ConstraintCase.I, budget, gap_tol=1e-7)
    assert abs(report.best_dual - WF_VALUE) < 1e-6
    assert abs(report.best_primal - WF_VALUE) < 1e-6
    assert report.params["dimension"] == 1
    assert weight <= 1.0 + 1e-12
    # optimal allocation is (1.75, 0.25)
    np.testing.assert_allclose(np.asarray(policy).ravel(), [1.75, 0.25],
                               atol=1e-3)
    assert point.lam[0] > 0


def test_dual_subgradient_inequality():
    """g is convex: every subgradient must minorize it globally."""
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=40, seed=11))
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.5)
    rng = np.random.default_rng(7)
    pts = [DualPoint(lam=rng.uniform(0.2, 2.0, 2), mu=rng.uniform(0.2, 2.0, 1))
           for _ in range(4)]
    vals = []
    for p in pts:
        v, sg = dual_value_and_subgradient(states, ConstraintCase.I, budget, p)
        vals.append((p.vector(), v, sg))
    for x, vx, sg in vals:
        for y, vy, _ in vals:
            assert vy >= vx + sg @ (y - x) - 1e-9


def test_dual_point_validation():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=10, seed=12))
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.5)
    with pytest.raises(UsageError):
        dual_value_and_subgradient(states, ConstraintCase.I, budget,
                                   DualPoint(lam=np.array([1.0]), mu=np.zeros(1)))
    with pytest.raises(UsageError):
        dual_value_and_subgradient(states, ConstraintCase.I, budget,
                                   DualPoint(lam=np.array([-1.0, 1.0]),
                                             mu=np.ones(1)))


def test_report_csv_schema(tmp_path):
    budget = PowerBudget(tpc=np.array([1.0]), ipc=np.zeros(0))
    _, report, _, _ = ellipsoid_solve(_wf_states(), ConstraintCase.I, budget)
    out = tmp_path / "trace.csv"
    report.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iter,dual_value,max_lt_violation,gap"
    assert len(lines) == report.n_iterations + 1
    first = lines[1].split(",")
    assert int(first[0]) == 0
    float(first[1]), float(first[2]), float(first[3])


def test_generous_budget_drives_multipliers_to_zero():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=30, seed=13))
    budget = PowerBudget.symmetric(2, 1, 1e6, 1e6)
    point, report, _, _ = ellipsoid_solve(states, ConstraintCase.I, budget,
                                          gap_tol=1e-4)
    assert (point.lam < 1e-3).all()
    assert (point.mu < 1e-3).all()
    assert report.stop_reason == "gap"


def test_failure_on_iteration_cap():
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=60, seed=14))
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.5)
    with pytest.raises(ConvergenceFailureError) as exc:
        ellipsoid_solve(states, ConstraintCase.I, budget,
                        gap_tol=1e-12, max_iter=4)
    assert exc.value.report is not None
    assert exc.value.report.stop_reason == "max_iter"
    assert "stopped (max_iter) after 4 evaluations at d = 3 " in str(exc.value)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_iteration_cap_below_one_is_refused_before_any_evaluation(monkeypatch, max_iter):
    """The loop's cap is checked before the problem is built, directly and
    through the public capacity call."""
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=60, seed=14))
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.5)

    def never(*args, **kwargs):
        raise AssertionError("problem built")

    monkeypatch.setattr(dual, "_make_problem", never)
    for solve in (cutting_plane_solve, ergodic_capacity_mac):
        with pytest.raises(UsageError, match=f"max_iter must be at least 1, got {max_iter}"):
            solve(states, ConstraintCase.I, budget, max_iter=max_iter)


def test_case_without_averaged_constraints_is_direct():
    """ST-TPC + ST-IPC has no multipliers: a single exact evaluation."""
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=25, seed=15))
    budget = PowerBudget.symmetric(2, 1, 0.8, 0.6)
    point, report, _, weight = ellipsoid_solve(states, ConstraintCase.IV, budget)
    assert point.dimension == 0
    assert report.stop_reason == "gap"
    assert report.gap <= 1e-12
    assert weight == 1.0


@pytest.mark.parametrize("case", [ConstraintCase.I, ConstraintCase.II,
                                  ConstraintCase.III])
def test_weak_duality_against_direct_solve(case):
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=8, seed=16))
    budget = PowerBudget.symmetric(2, 1, 0.9, 0.7)
    _, report, _, _ = ellipsoid_solve(states, case, budget, gap_tol=1e-5)
    _, primal = saa_primal_oracle(states, case, budget)
    assert report.best_dual >= primal - 1e-9
    assert report.best_dual - primal <= 1e-3 * max(primal, 1e-9)


def test_master_matches_linprog():
    """Warm-started column by column, the master ends at the LP optimum
    with row prices that certify it."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(21)
    for d in (1, 3, 6):
        b = rng.uniform(0.5, 3.0, d)
        master = _Master(b)
        R, U = [], []
        for _ in range(12 * d):
            R.append(rng.uniform(0.0, 2.0))
            U.append(rng.uniform(0.0, 4.0, d))
            master.add_column(R[-1], U[-1])
            master.solve()
        R, U = np.array(R), np.array(U)
        lp = optimize.linprog(-R, A_ub=np.vstack([U.T, np.ones(R.size)]),
                              b_ub=np.append(b, 1.0), method="highs")
        assert abs(master.value - (-lp.fun)) <= 1e-9
        y = master.prices()
        x, z = y[:d] / b, y[d]
        assert (x >= -1e-12).all() and z >= -1e-12
        assert (U @ x + z >= R - 1e-9).all()          # dual feasible
        assert abs(b @ x + z - master.value) <= 1e-9  # no duality gap
        w = np.zeros(R.size)
        for j, wj in master.mixture():
            w[j] = wj
        assert (U.T @ w <= b + 1e-9).all() and w.sum() <= 1 + 1e-9


def test_master_keeps_one_copy_of_equal_columns():
    master = _Master(np.array([1.0, 2.0]))
    assert master.add_column(0.5, np.array([0.3, 0.4])) == 0
    assert master.add_column(0.5, np.array([0.3, 0.4])) == 0
    assert master.add_column(0.5, np.array([0.3, 0.5])) == 1
    assert master.c.size == 3 + 2


def _same_master(new, ref):
    assert new.basis.tobytes() == ref.basis.tobytes()
    assert new.prices().tobytes() == ref.prices().tobytes()
    assert new.weights.tobytes() == ref.weights.tobytes()
    assert new.value.hex() == ref.value.hex()
    assert repr(new.mixture()) == repr(ref.mixture())


@pytest.mark.parametrize("d", range(1, 7))
def test_master_replays_reference(d):
    """Random add_column, add_floor and solve sequences, from an empty
    or a pooled start, through the master and `dual_reference.Master`:
    the same basis, prices, weights, value and mixture bit for bit.
    Usages and rates on a coarse grid, repeated columns and zero
    weights make equal columns and tied ratio tests common."""
    rng = np.random.default_rng(40 + d)
    degenerate = 0
    for trial in range(25):
        b = rng.choice([0.5, 1.0, 2.0], d) if trial % 2 else rng.uniform(0.5, 3.0, d)

        def column():
            return 0.25 * rng.integers(0, 8), 0.5 * rng.integers(0, 6, d)

        def floor():
            a = rng.integers(0, 3, d).astype(float)
            a[rng.integers(d)] = 1.0
            return a

        pooled = [column() for _ in range(rng.integers(0, 3 * d) if trial % 3 else 0)]
        floors = [floor() for _ in range(rng.integers(0, 2) if trial % 3 else 0)]
        args = (b, [r for r, _ in pooled], [u for _, u in pooled], floors)
        new, ref = _Master(*args), dual_reference.Master(*args)
        _same_master(new, ref)
        seen = list(pooled)
        for _ in range(8 * d):
            if rng.random() < 0.1:
                a = floor()
                new.add_floor(a)
                ref.add_floor(a)
            else:
                rate, usage = seen[rng.integers(len(seen))] if seen and rng.random() < 0.2 \
                    else column()
                seen.append((rate, usage))
                assert new.add_column(rate, usage) == ref.add_column(rate, usage)
            j = ref.c.size - 1
            assert new.c.tobytes() == ref.c.tobytes()
            assert new.prices_in(j) == ref.prices_in(j)
            new.solve()
            ref.solve()
            _same_master(new, ref)
            degenerate += bool((ref.weights == 0.0).any())
    assert degenerate > 0


def test_saturated_curve_reaches_an_optimal_master():
    """fig7's K = 2 case-I curve at n = 20 (seed 1) evaluates one
    allocation twice at 20 dB. As two master columns, the copies swapped
    on every pivot once the basis inverse drifted, and the master LP
    never reached an optimal basis."""
    states = sample_mac_states(FadingModel(K=2, M=2, n_states=20, seed=1))
    pool = ColumnPool()
    for db in range(-5, 30, 5):
        budget = PowerBudget.symmetric(2, 2, db_to_linear(db), 1.0)
        assert ergodic_capacity_mac(states, ConstraintCase.I, budget, pool=pool).certified
    columns = [(rate, tuple(usage)) for _, rate, usage, _ in pool.columns]
    assert len(set(columns)) == len(columns)


def test_mixture_is_feasible_and_at_least_the_master_value():
    """The returned policy meets the LT budget and, by concavity, rates
    no lower than the master's guaranteed value."""
    states = sample_mac_states(FadingModel(K=3, M=2, n_states=300, seed=17))
    budget = PowerBudget.symmetric(3, 2, 1.5, 0.6)
    for case in (ConstraintCase.II, ConstraintCase.III):
        _, report, policy, weight = ellipsoid_solve(states, case, budget)
        problem = _make_problem(states, case, budget)
        if case.tpc_is_lt:
            assert (policy.mean(axis=0) <= budget.tpc * (1 + 1e-12)).all()
        else:
            assert (np.einsum("tk,tkm->m", policy, states.G) / 300
                    <= budget.ipc * (1 + 1e-12)).all()
        assert 0.0 < weight <= 1.0 + 1e-12
        assert report.stop_reason == "gap" and report.certified
        assert report.best_primal == problem.primal_value(policy)
        assert report.rows[-1][3] >= report.gap - 1e-12   # rate >= master value


@pytest.mark.parametrize("seed", [5, 31, 34])
def test_returned_policy_meets_its_budgets_so_the_gap_is_nonnegative(seed):
    """The master meets its LT budgets only up to the LP's rounding; at
    gap_tol 1e-10 that overshoot lifted the mixture's rate above the
    best dual value. Scaled onto its budgets, the policy meets each one
    and the dual value bounds its rate."""
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=8, seed=seed))
    budget = PowerBudget.symmetric(2, 1, 0.9, 0.7)
    _, report, policy, _ = cutting_plane_solve(states, ConstraintCase.I, budget,
                                               gap_tol=1e-10)
    assert report.gap >= 0.0
    for row in feasibility_check(policy, states, ConstraintCase.I, budget).rows:
        assert row.kind == "LT" and row.achieved <= row.threshold * (1 + 1e-15)


@pytest.mark.parametrize("case", [ConstraintCase.I, ConstraintCase.II, ConstraintCase.III])
def test_audit_reads_the_loops_usage(case):
    """The audit's LT achieved values are the usage `evaluate` reports for
    the same allocation, bit for bit: each column summed over all states,
    then divided by n (a mean over axis 0 sums row by row, and rounds
    otherwise), so the audit and the loop agree on which policy overshoots."""
    states = sample_mac_states(FadingModel(K=3, M=2, n_states=2000, seed=17))
    budget = PowerBudget.symmetric(3, 2, 1.5, 0.6)
    problem = _make_problem(states, case, budget)
    _, _, P, usage, _, _ = problem.evaluate(np.full(problem.thresholds.size, 0.4))
    rows = feasibility_check(P, states, case, budget).rows
    assert [r.achieved for r in rows if r.kind == "LT"] == usage.tolist()


def test_tdma_mixture_keeps_one_user_per_state():
    states = sample_mac_states(FadingModel(K=4, M=2, n_states=400, seed=18))
    budget = PowerBudget.symmetric(4, 2, db_to_linear(-5.0), 1.0)
    for case in (ConstraintCase.I, ConstraintCase.II, ConstraintCase.III):
        res = ergodic_capacity_mac_tdma(states, case, budget)
        assert (np.count_nonzero(res.alloc, axis=1) <= 1).all()
        assert res.feasibility.all_satisfied
        assert res.certified == (res.gap <= GAP_TOL * res.dual_value)
        assert res.convergence.stop_reason in {"gap", "rounding"}


# The three points the ellipsoid loop stopped on "volume" with the gap
# open, at every n tried between 1 and 1000 (seed 1): gap/dual 0.29-0.50,
# 0.68-0.76 and 0.11-0.28 in this order. (K, M, case, per-user power)
FORMERLY_UNCERTIFIED = {
    "fig7K4_I_full_25dB": (4, 2, ConstraintCase.I, 0.5 * db_to_linear(25.0)),
    "mac_K20_M4_I_10dB": (20, 4, ConstraintCase.I, db_to_linear(10.0)),
    "mac_K20_M1_II_10dB": (20, 1, ConstraintCase.II, db_to_linear(10.0)),
}


@pytest.mark.parametrize("name", sorted(FORMERLY_UNCERTIFIED))
def test_formerly_uncertified_points_close_the_gap(name):
    K, M, case, tpc = FORMERLY_UNCERTIFIED[name]
    states = sample_mac_states(FadingModel(K=K, M=M, n_states=20, seed=1))
    res = ergodic_capacity_mac(states, case, PowerBudget.symmetric(K, M, tpc, 1.0))
    assert res.certified
    assert 0.0 <= res.gap <= GAP_TOL * res.dual_value
    assert res.convergence.stop_reason == "gap"
    if (K, M) == (20, 4):
        assert res.n_evals <= 10 * (K + M)


def test_old_name_is_the_cutting_plane_loop():
    import crsum
    assert dual.ellipsoid_solve is cutting_plane_solve
    assert crsum.ellipsoid_solve is crsum.cutting_plane_solve is cutting_plane_solve


# ---------------------------------------------------------------------------
# in-out separation


def test_smoothing_beats_kelley_on_a_bc_point(monkeypatch):
    """BC case I, K = 8, M = 4, Q = 10 dB, n = 2000 (seed 1): the
    smoothed loop certifies in 20 evaluations, plain Kelley (alpha held
    at 0) in 46."""
    states = sample_bc_states(FadingModel(K=8, M=4, n_states=2000, seed=1))
    budget = PowerBudget(tpc=np.zeros(0), ipc=np.ones(4), bs_tpc=db_to_linear(10.0))
    res = ergodic_capacity_bc(states, ConstraintCase.I, budget)
    assert res.certified and res.convergence.stop_reason == "gap"
    assert res.n_evals == 20
    monkeypatch.setattr(dual, "_smoothing", lambda alpha, slope: 0.0)
    kelley = ergodic_capacity_bc(states, ConstraintCase.I, budget)
    assert kelley.certified and kelley.n_evals == 46
    assert abs(res.ergodic_sum_rate - kelley.ergodic_sum_rate) <= max(res.gap, kelley.gap)


def test_wide_case1_point_certifies():
    """MAC case I, K = 20, M = 1, 3 dB, n = 500 (seed 4), d = 21. Plain
    Kelley zigzagged to max_iter (2,200 evaluations) without closing the
    gap; the smoothed loop certifies in 319."""
    states = sample_mac_states(FadingModel(K=20, M=1, n_states=500, seed=4))
    res = ergodic_capacity_mac(states, ConstraintCase.I,
                               PowerBudget.symmetric(20, 1, db_to_linear(3.0), 1.0))
    assert res.certified and res.convergence.stop_reason == "gap"
    assert res.n_evals == 319


def test_mispriced_evaluation_falls_back_to_the_master_point(monkeypatch):
    """A smoothed evaluation whose column does not price in leaves the
    master where it was; the next evaluation is at the master's own
    point, and the loop still certifies."""
    evals, masters = [], []
    evaluate, solve = dual._MacProblem.evaluate, _Master.solve

    def recorded_evaluate(self, x):
        evals.append(x.copy())
        return evaluate(self, x)

    def recorded_solve(self):
        solve(self)
        masters.append(self.prices()[:-1] / self.b)

    monkeypatch.setattr(dual._MacProblem, "evaluate", recorded_evaluate)
    monkeypatch.setattr(_Master, "solve", recorded_solve)
    states = sample_mac_states(FadingModel(K=3, M=1, n_states=50, seed=4))
    res = ergodic_capacity_mac(states, ConstraintCase.II,
                               PowerBudget.symmetric(3, 1, db_to_linear(5.0), 1.0))
    assert res.certified and res.convergence.stop_reason == "gap"
    assert len(evals) == len(masters) == res.n_evals
    smoothed = [i for i in range(1, len(evals))
                if not np.array_equal(evals[i], masters[i - 1])]
    mispriced = [i for i in smoothed if np.array_equal(masters[i], masters[i - 1])]
    assert smoothed and len(mispriced) == res.convergence.mispriced == 1
    for i in mispriced:
        assert np.array_equal(evals[i + 1], masters[i])


def test_rounded_problems_smooth_until_the_tolerance_tightens(monkeypatch):
    """Case I rounds to one user per state. Before the first master
    close the loop smooths as any other; the rounding reopens the gap
    there, the tolerance tightens, and from then on every evaluation is
    at the master's own point. Both modes follow one trajectory."""
    log = []
    evaluate, solve = dual._MacProblem.evaluate, _Master.solve
    smoothing, lone_user = dual._smoothing, dual.lone_user

    def recorded_evaluate(self, x):
        log.append(("eval", x.copy()))
        return evaluate(self, x)

    def recorded_solve(self):
        solve(self)
        log.append(("master", self.prices()[:-1] / self.b))

    def recorded_smoothing(alpha, slope):
        log.append(("smoothing", alpha))
        return smoothing(alpha, slope)

    def recorded_lone_user(H, price, cap):
        log.append(("close", None))
        return lone_user(H, price, cap)

    monkeypatch.setattr(dual._MacProblem, "evaluate", recorded_evaluate)
    monkeypatch.setattr(_Master, "solve", recorded_solve)
    monkeypatch.setattr(dual, "_smoothing", recorded_smoothing)
    monkeypatch.setattr(dual, "lone_user", recorded_lone_user)
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=200, seed=3))
    budget = PowerBudget.symmetric(2, 1, db_to_linear(-5.0), 1.0)
    trajectories = []
    for mode in ("full", "tdma"):
        log.clear()
        res = ergodic_capacity_mac(states, ConstraintCase.I, budget, mode=mode)
        assert res.certified and res.convergence.stop_reason == "gap"
        kinds = [kind for kind, _ in log]
        first = kinds.index("close")
        assert kinds.count("close") > 1          # the first close tightened
        assert "smoothing" in kinds[:first] and "smoothing" not in kinds[first:]
        evals = [i for i in range(first, len(log)) if kinds[i] == "eval"]
        assert evals
        for i in evals:
            master = max(j for j in range(i) if kinds[j] == "master")
            assert np.array_equal(log[i][1], log[master][1])
        trajectories.append([x for kind, x in log if kind == "eval"])
    assert len(trajectories[0]) == len(trajectories[1])
    assert all(np.array_equal(a, b) for a, b in zip(*trajectories))


# ---------------------------------------------------------------------------
# one column pool per curve


def _sweep(states, case, dbs, pool, mode="full"):
    """One curve over `dbs`: P per user for the MAC (K = 2, M = 1), Q for
    the BC (M = 2), sharing `pool` (None solves each point afresh)."""
    out = []
    for db in dbs:
        if states.channel == "bc":
            budget = PowerBudget(tpc=np.zeros(0), ipc=np.ones(2),
                                 bs_tpc=db_to_linear(db))
            out.append(ergodic_capacity_bc(states, case, budget, pool=pool))
        else:
            budget = PowerBudget.symmetric(2, 1, db_to_linear(db), 1.0)
            out.append(ergodic_capacity_mac(states, case, budget, mode=mode,
                                            pool=pool))
    return out


POOL_SWEEPS = [(case, channel, mode)
               for case in (ConstraintCase.I, ConstraintCase.II, ConstraintCase.III)
               for channel, mode in (("mac", "full"), ("mac", "tdma"), ("bc", "full"))]


@pytest.mark.parametrize("case,channel,mode", POOL_SWEEPS)
def test_pooled_sweep_matches_fresh_with_fewer_evaluations(case, channel, mode):
    """A pooled curve is certified point by point, agrees with fresh
    solves within the larger of the two gaps, and costs fewer evaluations."""
    if channel == "bc":
        states = sample_bc_states(FadingModel(K=3, M=2, n_states=200, seed=3))
    else:
        states = sample_mac_states(FadingModel(K=2, M=1, n_states=200, seed=3))
    dbs = [-5.0, 5.0, 15.0, 25.0]
    fresh = _sweep(states, case, dbs, None, mode)
    pooled = _sweep(states, case, dbs, ColumnPool(), mode)
    for a, b in zip(fresh, pooled):
        assert a.certified and b.certified
        assert abs(a.ergodic_sum_rate - b.ergodic_sum_rate) <= max(a.gap, b.gap) + 1e-12
    assert sum(r.n_evals for r in pooled) < sum(r.n_evals for r in fresh)


def test_pool_resets_on_other_states(monkeypatch):
    """A pool handed to another ensemble of the same shape starts the
    master afresh; one handed to a redraw of the same states carries
    its columns. The states compare by value, not by identity."""
    started = []
    init = _Master.__init__

    def recorded_init(self, thresholds, rates=(), usages=(), floors=()):
        started.append(len(rates))
        init(self, thresholds, rates, usages, floors)

    monkeypatch.setattr(_Master, "__init__", recorded_init)
    budget = PowerBudget.symmetric(2, 1, db_to_linear(10.0), 1.0)

    def states(seed):
        return sample_mac_states(FadingModel(K=2, M=1, n_states=300, seed=seed))

    pool = ColumnPool()
    ergodic_capacity_mac(states(1), ConstraintCase.I, budget, pool=pool)
    res = ergodic_capacity_mac(states(2), ConstraintCase.I, budget, pool=pool)
    assert started == [0, 0]
    assert res.certified and res.feasibility.all_satisfied
    assert all(owner is pool.problem for _, _, _, owner in pool.columns)
    carried = len(pool.columns)
    ergodic_capacity_mac(states(2), ConstraintCase.I, budget, pool=pool)
    assert started[-1] == carried > 0


@pytest.mark.parametrize("channel", ["mac", "bc"])
def test_descending_case3_sweep_resets_the_pool(channel):
    """A smaller ST cap shrinks each per-state set: the columns of the
    25 dB point would break the 0 dB caps, so the pool must not carry
    them (the audit inside each call raises otherwise)."""
    if channel == "bc":
        states = sample_bc_states(FadingModel(K=3, M=2, n_states=300, seed=4))
    else:
        states = sample_mac_states(FadingModel(K=2, M=1, n_states=300, seed=4))
    pool = ColumnPool()
    results = _sweep(states, ConstraintCase.III, [25.0, 0.0, -5.0], pool)
    for r in results:
        assert r.feasibility.all_satisfied and r.certified
    assert all(owner is pool.problem for _, _, _, owner in pool.columns)
    assert set(pool.kept) <= set(range(len(pool.columns)))


def _counted_curve(case, states, dbs):
    """One pooled full-mode curve (K = 2, M = 1) whose per-state solver
    records each call as an evaluation or as the re-solve of a pooled
    column, and asserts that at most d+1 allocations are kept. Also
    returns the evaluations the pool answered without a solver call."""
    pool, calls, pooled = ColumnPool(), [], []
    lookup = pool.lookup

    def counted_lookup(x, problem):
        pooled.append(lookup(x, problem))
        return pooled[-1]

    pool.lookup = counted_lookup

    def solver_for(budget):
        def solve(H, G, pt):
            assert len(pool.kept) <= pt.dimension + 1
            x = pt.vector()
            resolve = [i for i, (xi, _, _, owner) in enumerate(pool.columns)
                       if owner._solve is solve and np.array_equal(xi, x)]
            assert all(i not in pool.kept for i in resolve)
            calls.append(bool(resolve))
            return tdma.solve_states(case, H, G, pt.lam, pt.mu, budget)
        return solve

    results = []
    for db in dbs:
        budget = PowerBudget.symmetric(2, 1, db_to_linear(db), 1.0)
        results.append(ergodic_capacity_mac(states, case, budget, pool=pool,
                                            per_state_solver=solver_for(budget)))
        assert len(pool.kept) <= results[-1].convergence.params["dimension"] + 1
    return results, calls, sum(i is not None for i in pooled)


# re-solves of columns mixed after they left the basis, evaluations, and
# evaluations answered from the pool, on the curve P = -5..25 dB in
# steps of 5 at n = 300 (seed 3)
KEPT_CURVE = {ConstraintCase.I: (1, 68, 6), ConstraintCase.II: (1, 37, 7),
              ConstraintCase.III: (0, 24, 0)}


@pytest.mark.parametrize("case", list(KEPT_CURVE))
def test_pooled_curve_keeps_basic_allocations(case):
    """A mixed column is re-solved only if it left the basis, and an
    evaluation at a pooled column's multipliers under equal per-state
    sets costs no solve: every solver call is one of the curve's other
    evaluations or such a re-solve."""
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=300, seed=3))
    results, calls, pooled = _counted_curve(case, states,
                                            [-5.0 + 5.0 * i for i in range(7)])
    assert all(r.certified for r in results)
    resolves, evals, from_pool = KEPT_CURVE[case]
    assert sum(r.n_evals for r in results) == evals
    assert pooled == from_pool
    assert sum(calls) == resolves
    assert len(calls) == evals - from_pool + resolves


@pytest.mark.parametrize("case", [ConstraintCase.I, ConstraintCase.II])
def test_pooled_evaluations_change_no_bit(case, monkeypatch):
    """Each point of a P sweep makes its first evaluation at the last
    point's best multipliers, under the same per-state sets, so the pool
    answers it without a solve: every solver call is an evaluation the
    pool did not answer or a re-solve. With the lookup off the curve is
    the same bit for bit."""
    states = sample_mac_states(FadingModel(K=2, M=1, n_states=300, seed=5))
    dbs = [-5.0 + 5.0 * i for i in range(7)]
    on, calls, pooled = _counted_curve(case, states, dbs)
    evals = sum(r.n_evals for r in on)
    assert pooled >= len(dbs) - 1
    assert len(calls) == evals - pooled + sum(calls)
    monkeypatch.setattr(ColumnPool, "lookup", lambda self, x, problem: None)
    off, calls, pooled = _counted_curve(case, states, dbs)
    assert pooled == 0 and len(calls) == evals + sum(calls)
    for a, b in zip(on, off):
        assert a.certified and a.n_evals == b.n_evals
        assert (a.ergodic_sum_rate, a.gap, a.dual_value) == (b.ergodic_sum_rate, b.gap,
                                                            b.dual_value)
        assert np.array_equal(a.dual_point.vector(), b.dual_point.vector())
        assert np.array_equal(a.alloc, b.alloc)


@pytest.mark.parametrize("channel", ["mac", "bc"])
def test_case3_sweep_never_answers_from_the_pool(channel, monkeypatch):
    """A rising case-III sweep grows each point's ST caps: the last
    point's best multipliers are pooled, but solved under smaller
    per-state sets, so each evaluation there is solved afresh."""
    repeats, hits = [], []
    lookup = ColumnPool.lookup

    def counted_lookup(self, x, problem):
        repeats.append(x.tobytes() in self.at)
        hits.append(lookup(self, x, problem))
        return hits[-1]

    monkeypatch.setattr(ColumnPool, "lookup", counted_lookup)
    if channel == "bc":
        states = sample_bc_states(FadingModel(K=3, M=2, n_states=300, seed=4))
    else:
        states = sample_mac_states(FadingModel(K=2, M=1, n_states=300, seed=4))
    results = _sweep(states, ConstraintCase.III, [-5.0, 5.0, 15.0, 25.0], ColumnPool())
    assert all(r.certified for r in results)
    assert sum(repeats) >= 3 and hits.count(None) == len(hits)


def test_pool_handed_to_another_user_count_starts_afresh():
    """A case-III pool handed from K = 2 to K = 3 states: the ST caps
    have K entries each, so the pool drops its columns on the ensemble's
    shape before it compares caps (at K = 3 they do not broadcast)."""
    pool = ColumnPool()
    for K in (2, 3):
        states = sample_mac_states(FadingModel(K=K, M=1, n_states=100, seed=1))
        budget = PowerBudget.symmetric(K, 1, 1.0, 1.0)
        res = ergodic_capacity_mac(states, ConstraintCase.III, budget, pool=pool)
        assert res.certified
        assert all(owner is pool.problem for _, _, _, owner in pool.columns)


def test_bc_k_sweep_starts_each_curve_where_the_last_stopped(tmp_path, monkeypatch):
    """`crsum run` starts each curve at the best multipliers of the last
    curve of its family. Along a BC K sweep (M = 4, case I) every curve
    has d = 5, on other states; it stays certified, within the larger
    gap of a run of each curve alone, in fewer evaluations."""
    from crsum import cli
    results = []

    def recorded(states, case, budget, **opts):
        results.append(ergodic_capacity_bc(states, case, budget, **opts))
        return results[-1]

    monkeypatch.setattr(cli, "ergodic_capacity_bc", recorded)

    def curves():
        return [cli._bc_curve(f"K{K}", ConstraintCase.I, "full", K, 4, 1.0, [3.0])
                for K in (4, 8, 12)]

    cli._run_curves(curves(), 2000, 1, tmp_path / "family")
    family = results[:]
    for curve in curves():
        cli._run_curves([curve], 2000, 1, tmp_path / "alone")
    alone = results[len(family):]
    for last, res in zip(family, family[1:]):
        assert res.convergence.params["start"] == last.dual_point.vector().tolist()
    for a, b in zip(family, alone):
        assert a.certified and b.certified
        assert abs(a.ergodic_sum_rate - b.ergodic_sum_rate) <= max(a.gap, b.gap)
    assert sum(r.n_evals for r in family) < sum(r.n_evals for r in alone)
