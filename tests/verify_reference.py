"""The `crsum verify` perstate and tdma suites as they were before they
batched each (K, M) shape, kept as the reference that the batched
suites must match line for line.

Each check here draws its state, then solves each case through the
scalar wrapper (`solve_state_case*`, n = 1) and audits it with its own
n = 1 KKT report; the tdma suite re-solves each positive alone. The
code is the old `crsum.cli` code, with the one relative import made
absolute.
"""
import numpy as np

from crsum import perstate_mac
from crsum.oracle import (case1_problem, case2_problem, case3_problem,
                          case4_problem, grid_state_oracles)


def _random_cases(rng, k_min):
    """A random MAC state with K in [k_min, 3], M in [1, 2], and per case
    its (solver key, solver, solver arguments, oracle problem, single-user
    check, KKT report, multipliers the report takes from the solver's)."""
    from crsum.fading import ChannelStateMac
    K = int(rng.integers(k_min, 4))
    M = int(rng.integers(1, 3))
    state = ChannelStateMac(h=rng.exponential(1.0, K),
                            g=rng.exponential(1.0, (K, M)))
    lam = rng.uniform(0.2, 2.0, K)
    mu = rng.uniform(0.2, 2.0, M)
    caps = rng.uniform(0.3, 3.0, K)
    gam = rng.uniform(0.5, 2.0, M)
    pm = perstate_mac
    return state, [
        ("case1", pm.solve_state_case1, (lam, mu), case1_problem, None,
         pm.kkt_report_case1, ()),
        ("case2", pm.solve_state_case2, (lam, gam), case2_problem,
         pm.check_tdma_case2, pm.kkt_report_case2, ("mu",)),
        ("case3", pm.solve_state_case3, (mu, caps), case3_problem,
         pm.check_tdma_case3, pm.kkt_report_case3, ()),
        ("case4", pm.solve_state_case4, (caps, gam), case4_problem,
         pm.check_tdma_case4, pm.kkt_report_case4, ("lambda", "mu")),
    ]


def _suite_perstate(scale, rng, n_checks):
    """Closed forms and simplex solvers vs the grid oracle, with KKT audits
    recomputed from the returned powers."""
    problems, values = [], []   # the oracle's problems, the solvers' objective values
    worst_obj = worst_kkt = 0.0
    for _ in range(n_checks):
        state, cases = _random_cases(rng, 1)
        for key, solver, args, problem, _, report, names in cases:
            out = solver(state, *args)
            p = scale[key] * out[0].p
            problems.append(problem(state, *args))
            values.append(float(problems[-1][0](p[None])[0]))
            worst_kkt = max(worst_kkt, report(
                state.h, state.g, *args, p,
                *(out[1].multipliers[m] for m in names)).max_residual)
    for value, (_, ov) in zip(values, grid_state_oracles(problems, grid_step=1e-4)):
        worst_obj = max(worst_obj, abs(value - ov))
    return [("perstate objective vs grid oracle", worst_obj <= 2e-4,
             f"worst |diff| = {worst_obj:.2e}"),
            ("perstate KKT residuals", worst_kkt <= 1e-8,
             f"worst residual = {worst_kkt:.2e}")]


def _suite_tdma(scale, rng, n_checks):
    """Single-user tests agree with the unrestricted solvers."""
    bad = 0
    checked = 0
    for _ in range(n_checks):
        state, cases = _random_cases(rng, 2)
        for key, solver, args, _, check, _, _ in cases[1:]:
            hit = check(state, *args)
            if hit is None:
                continue
            want = np.zeros(state.K)
            want[hit[0]] = hit[1]
            checked += 1
            bad += not np.allclose(scale[key] * solver(state, *args)[0].p, want, atol=1e-8)
    return [("tdma checks consistent with solvers", bad == 0,
             f"{checked} positives checked, {bad} mismatches")]
