r"""Command-line front end.

`crsum run` computes ergodic sum-rate curves (built-in presets or a
single custom sweep) and writes one CSV per curve; identical inputs
produce byte-identical files. `crsum verify` runs self-check suites
(closed forms vs. grid oracle, KKT certificates, structural sparsity,
TDMA consistency, BC path agreement at the optima of dual solves, a
small duality sandwich) and exits nonzero on any failure.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import sys
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .capacity import (_bc_prices, ergodic_capacity_bc, ergodic_capacity_mac,
                       fra_baseline_bc, fra_baseline_mac)
from .constraints import ConstraintCase, PowerBudget, db_to_linear
from .dual import ColumnPool, cutting_plane_solve
from .errors import (ConfigurationError, ConvergenceFailureError, CrsumError,
                     UsageError)
from .fading import FadingModel, check_ensemble_size, sample_bc_states, sample_mac_states
from .oracle import (case1_problem, case2_problem, case3_problem,
                     case4_problem, grid_state_oracles, saa_primal_oracle)
from . import perstate_bc, perstate_mac, tdma

DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 1


# ---------------------------------------------------------------------------
# run: curve specifications


@dataclass
class CurveSpec:
    stem: str
    channel: str            # "mac" or "bc"
    case: ConstraintCase
    mode: str               # "full", "tdma", or "fra"
    K: int
    M: int
    gamma: float
    # one entry per CSV row: display dBs plus the concrete budget
    points: list = field(default_factory=list)


def _number(text, key, kind=float):
    """text as a kind; anything else is a usage error that names key."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{key} = {text!r} is not "
                         f"{'an integer' if kind is int else 'a number'}") from None


def _grid(expr: str, key="grid") -> list[float]:
    """Parse 'start:stop:step' (inclusive, stop >= start) or a nonempty
    comma list, the value of key."""
    expr = expr.strip()
    if ":" in expr:
        parts = [_number(x, key) for x in expr.split(":")]
        if len(parts) != 3 or parts[2] <= 0 or parts[1] < parts[0]:
            raise UsageError(f"bad grid {expr!r}, want start:stop:step "
                             "with stop >= start and step > 0")
        start, stop, step = parts
        n = int(np.floor((stop - start) / step + 1e-9)) + 1
        return [start + i * step for i in range(n)]
    values = [_number(x, key) for x in expr.split(",") if x.strip()]
    if not values:
        raise UsageError(f"empty grid {expr!r}")
    return values


def _mac_curve(stem, case, mode, K, M, gamma, p_dbs, tpc_scale=1.0):
    c = CurveSpec(stem=stem, channel="mac", case=case, mode=mode,
                  K=K, M=M, gamma=gamma)
    for db in p_dbs:
        budget = PowerBudget.symmetric(K, M, tpc_scale * db_to_linear(db), gamma)
        c.points.append({"P_dB": db, "Q_dB": None, "budget": budget})
    return c


def _bc_curve(stem, case, mode, K, M, gamma, q_dbs):
    c = CurveSpec(stem=stem, channel="bc", case=case, mode=mode,
                  K=K, M=M, gamma=gamma)
    for db in q_dbs:
        budget = PowerBudget(tpc=np.zeros(0), ipc=np.full(M, gamma),
                             bs_tpc=db_to_linear(db))
        c.points.append({"P_dB": None, "Q_dB": db, "budget": budget})
    return c


def _preset_fig3(cfg):
    """MAC, K=2, M=1: the four constraint cases across transmit power."""
    p_dbs = _grid(cfg.get("p_db", "-5:25:5"), "p_db")
    gamma = _number(cfg.get("gamma", 1.0), "gamma")
    return [_mac_curve(f"fig3_{case.value}_full", case, "full", 2, 1, gamma, p_dbs)
            for case in ConstraintCase]


def _preset_fig4(cfg):
    """BC, K=5, M=2: the four constraint cases across base-station power."""
    q_dbs = _grid(cfg.get("q_db", "-5:25:5"), "q_db")
    gamma = _number(cfg.get("gamma", 1.0), "gamma")
    return [_bc_curve(f"fig4_{case.value}_full", case, "full", 5, 2, gamma, q_dbs)
            for case in ConstraintCase]


def _preset_tdma(fig, K, M):
    """The preset of `fig`: MAC with K users and M primary receivers,
    TDMA restriction vs full transmission in cases II-IV."""
    def preset(cfg):
        p_dbs = _grid(cfg.get("p_db", "-5:25:5"), "p_db")
        gamma = _number(cfg.get("gamma", 1.0), "gamma")
        return [_mac_curve(f"{fig}_{case.value}_{mode}", case, mode, K, M, gamma, p_dbs)
                for case in (ConstraintCase.II, ConstraintCase.III, ConstraintCase.IV)
                for mode in ("full", "tdma")]
    return preset


def _preset_fig7(cfg):
    """MAC DRA vs FRA at matched total power, K in {2, 4}, M=2.

    The K=4 per-user budget is halved so both systems spend the same
    sum power; the FRA transmitter gets a K-times larger cap since it
    transmits a 1/K fraction of the time.
    """
    p_dbs = _grid(cfg.get("p_db", "-5:25:5"), "p_db")
    gamma = _number(cfg.get("gamma", 1.0), "gamma")
    out = []
    for K, scale in ((2, 1.0), (4, 0.5)):
        out.append(_mac_curve(f"fig7K{K}_I_full", ConstraintCase.I, "full",
                              K, 2, gamma, p_dbs, tpc_scale=scale))
        out.append(_mac_curve(f"fig7K{K}_IV_fra", ConstraintCase.IV, "fra",
                              K, 2, gamma, p_dbs, tpc_scale=scale * K))
    return out


def _preset_fig8(cfg):
    """BC DRA vs FRA across the user count, Q fixed at 3 dB."""
    q_db = _number(cfg.get("q_db", 3.0), "q_db")
    gamma = _number(cfg.get("gamma", 1.0), "gamma")
    ks = [_number(k, "k_sweep", int)
          for k in cfg.get("k_sweep", "4,8,12,16,20").split(",")]
    out = []
    for M in (1, 4):
        for K in ks:
            out.append(_bc_curve(f"fig8M{M}_I_full_K{K:02d}", ConstraintCase.I,
                                 "full", K, M, gamma, [q_db]))
            out.append(_bc_curve(f"fig8M{M}_IV_fra_K{K:02d}", ConstraintCase.IV,
                                 "fra", K, M, gamma, [q_db]))
    return out


PRESETS = {
    "fig3": _preset_fig3,
    "fig4": _preset_fig4,
    "fig5": _preset_tdma("fig5", 2, 1),
    "fig6": _preset_tdma("fig6", 4, 2),
    "fig7": _preset_fig7,
    "fig8": _preset_fig8,
}


def _custom_curves(args):
    if not (args.channel and args.case and args.K):
        raise UsageError("custom runs need --channel, --case, and --K "
                         "(or use --preset)")
    case = ConstraintCase.from_label(args.case)
    gamma = args.gamma if args.gamma is not None else 1.0
    mode = args.mode or "full"
    K, M = args.K, args.M
    if args.channel == "mac":
        p_dbs = _grid(args.p_db or "0:20:5", "--P-dB")
        return [_mac_curve(f"custom_{case.value}_{mode}", case, mode,
                           K, M, gamma, p_dbs)]
    q_dbs = _grid(args.q_db or "0:20:5", "--Q-dB")
    return [_bc_curve(f"custom_{case.value}_{mode}", case, mode,
                      K, M, gamma, q_dbs)]


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


def _run_curves(curves, samples, seed, out_dir, dump_convergence=False,
                strict=False):
    for curve in curves:                # every ensemble, before any is drawn
        check_ensemble_size(curve.channel, curve.K, curve.M, samples)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ensembles, starts, written = {}, {}, []    # starts: each curve family's last x
    for curve in curves:
        key = (curve.channel, curve.K, curve.M, samples, seed)
        if key not in ensembles:
            model = FadingModel(K=curve.K, M=curve.M, n_states=samples, seed=seed)
            ensembles[key] = (sample_mac_states(model) if curve.channel == "mac"
                              else sample_bc_states(model))
        states, rows, last_result = ensembles[key], [], None
        family = (curve.channel, curve.case, curve.mode, curve.M)
        pool = ColumnPool(x=starts.get(family))     # where the family's last curve stopped
        for pt in curve.points:
            budget, mac = pt["budget"], curve.channel == "mac"
            if curve.mode == "fra":
                res = (fra_baseline_mac if mac else fra_baseline_bc)(states, budget)
            elif mac:
                res = ergodic_capacity_mac(states, curve.case, budget,
                                           mode=curve.mode, pool=pool)
            else:
                res = ergodic_capacity_bc(states, curve.case, budget, pool=pool)
            if strict and not res.certified:
                raise ConvergenceFailureError(f"{curve.stem} point {len(rows) + 1} is not "
                                              f"certified (gap {res.gap!r})", report=res.convergence)
            last_result = res
            hist = [str(int(v)) for v in res.active_count_histogram]
            rows.append([curve.case.value, _fmt(pt["P_dB"]), _fmt(pt["Q_dB"]),
                         repr(float(curve.gamma)), repr(res.ergodic_sum_rate),
                         repr(res.rate_stderr), _fmt(res.gap),
                         repr(res.max_lt_violation)] + hist
                        + [str(res.certified).lower(), str(res.n_evals),
                           res.convergence.stop_reason if res.convergence else ""])
        starts[family] = pool.x
        path = out_dir / f"{curve.stem}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["case", "P_dB", "Q_dB", "Gamma", "rate_nats",
                        "rate_stderr", "gap", "max_lt_viol"]
                       + [f"hist_{i}" for i in range(curve.K + 1)]
                       + ["certified", "n_evals", "stop_reason"])
            w.writerows(rows)
        written.append(path)
        if dump_convergence and last_result is not None \
                and last_result.convergence is not None:
            last_result.convergence.write_csv(out_dir / f"{curve.stem}_conv.csv")
        print(f"wrote {path} ({len(rows)} rows)")
    return written


def _cmd_run(args) -> int:
    cfg = {}
    if args.config:
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise UsageError(f"config file {args.config!r} not found")
        if args.preset and parser.has_section(args.preset):
            cfg.update({k: v for k, v in parser.items(args.preset)})
        if parser.has_section("run"):
            base = dict(parser.items("run"))
            if args.samples is None and "samples" in base:
                args.samples = _number(base["samples"], "[run] samples", int)
            if args.seed is None and "seed" in base:
                args.seed = _number(base["seed"], "[run] seed", int)
            args.out = args.out or base.get("out")
    samples = DEFAULT_SAMPLES if args.samples is None else args.samples
    if samples < 1:
        raise UsageError(f"samples must be at least 1, got {samples}")
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    out = args.out or "results"
    if args.p_db:
        cfg["p_db"] = args.p_db
    if args.q_db:
        cfg["q_db"] = args.q_db
    if args.gamma is not None:
        cfg["gamma"] = args.gamma

    if args.preset:
        if args.preset not in PRESETS:
            raise UsageError(f"unknown preset {args.preset!r}; "
                             f"choose from {sorted(PRESETS)}")
        curves = PRESETS[args.preset](cfg)
        if args.case:
            want = ConstraintCase.from_label(args.case)
            curves = [c for c in curves if c.case is want]
        if args.mode:
            curves = [c for c in curves if c.mode == args.mode]
        if not curves:
            raise UsageError("preset has no curves matching the filters")
    else:
        curves = _custom_curves(args)
    _run_curves(curves, samples, seed, out, dump_convergence=args.convergence,
                strict=args.strict)
    return 0


# ---------------------------------------------------------------------------
# verify: self-check suites


def _power_factors(perturb):
    """The factor each suite applies to the powers of each solver: 1.05
    on the one that `perturb` ("<key>_power", from --perturb) names, a
    deliberate 5% error the suites must catch, and 1.0 elsewhere."""
    keys = ("case1", "case2", "case3", "case4", "bc")
    if perturb not in (None, *(f"{k}_power" for k in keys)):
        raise UsageError(f"unknown perturbation {perturb!r}")
    return {k: 1.05 if perturb == f"{k}_power" else 1.0 for k in keys}


def _random_cases(rng, k_min):
    """A random MAC state, K in [k_min, 3], M in [1, 2], and per case its (solver
    key, batched solver, solver arguments, oracle problem, single-user check, KKT report)."""
    from .fading import ChannelStateMac
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
        ("case1", pm.solve_states_case1, (lam, mu), case1_problem, None,
         pm.kkt_report_case1),
        ("case2", partial(pm.solve_states_case2, want_multipliers=True), (lam, gam),
         case2_problem, pm.check_tdma_case2, pm.kkt_report_case2),
        ("case3", pm.solve_states_case3, (mu, caps), case3_problem,
         pm.check_tdma_case3, pm.kkt_report_case3),
        ("case4", partial(pm.solve_states_case4, want_multipliers=True), (caps, gam),
         case4_problem, pm.check_tdma_case4, pm.kkt_report_case4),
    ]


def _batches(draws, wanted):
    """The (draw, case) pairs `wanted` of the `_random_cases` draws, solved
    once per case and (K, M) in first-seen order: per group its draw
    indices, case index and case tuple, the stacked gains and arguments,
    the powers and the multipliers the case's KKT report takes."""
    groups = {}
    for i, c in wanted:
        groups.setdefault((*draws[i][0].g.shape, c), []).append(i)
    for (*_, c), ids in groups.items():
        H, G = (np.stack(a) for a in zip(*((draws[i][0].h, draws[i][0].g) for i in ids)))
        args = [np.stack(a) for a in zip(*(draws[i][1][c][2] for i in ids))]
        out = draws[ids[0]][1][c][1](H, G, *args)
        P, *multipliers = (out,) if isinstance(out, np.ndarray) else out
        yield ids, c, draws[ids[0]][1][c], H, G, args, P, multipliers


def _suite_perstate(scale, rng, n_checks):
    """Closed forms and simplex solvers vs the grid oracle, with KKT audits
    recomputed from the returned powers. Each case runs once per (K, M)
    of the draws."""
    draws = [_random_cases(rng, 1) for _ in range(n_checks)]
    # the oracle's problems, (draw i, case c) at 4 i + c, and the solvers' values
    problems = [problem(state, *args) for state, cases in draws
                for _, _, args, problem, _, _ in cases]
    values, worst_kkt = [0.0] * len(problems), 0.0
    for ids, c, (key, *_, report), H, G, args, P, multipliers in _batches(
            draws, [(i, c) for i in range(n_checks) for c in range(4)]):
        P = scale[key] * P
        worst_kkt = max(worst_kkt, report(H, G, *args, P, *multipliers).max_residual)
        for i, p in zip(ids, P):
            values[4 * i + c] = float(problems[4 * i + c][0](p[None])[0])
    del draws       # freed before the oracle's meshes
    worst_obj = 0.0
    for value, (_, ov) in zip(values, grid_state_oracles(problems, grid_step=1e-4)):
        worst_obj = max(worst_obj, abs(value - ov))
    return [("perstate objective vs grid oracle", worst_obj <= 2e-4,
             f"worst |diff| = {worst_obj:.2e}"),
            ("perstate KKT residuals", worst_kkt <= 1e-8,
             f"worst residual = {worst_kkt:.2e}")]


def _suite_sparsity(scale, rng, n_checks):
    """Structural sparsity of the per-state optima."""
    n = max(n_checks * 10, 500)
    K, M = 4, 2
    model = FadingModel(K=K, M=M, n_states=n, seed=int(rng.integers(1 << 31)))
    ensemble = sample_mac_states(model)
    H, G = ensemble.H, ensemble.G
    lam = rng.uniform(0.2, 1.0, K)
    mu = rng.uniform(0.2, 1.0, M)
    caps = rng.uniform(0.5, 2.0, K)
    gam = rng.uniform(0.5, 2.0, M)
    tol = perstate_mac.ACTIVE_TOL

    P1 = scale["case1"] * perstate_mac.solve_states_case1(H, G, lam, mu)
    ok1 = int(np.max((P1 > tol).sum(axis=1))) <= 1
    P2 = scale["case2"] * perstate_mac.solve_states_case2(H, G, lam, gam)
    ok2 = int(np.max((P2 > tol).sum(axis=1))) <= M + 1
    P3 = scale["case3"] * perstate_mac.solve_states_case3(H, G, mu, caps)
    interior = (P3 > tol) & (P3 < caps[None, :] - 1e-9)
    ok3 = int(np.max(interior.sum(axis=1))) <= 1
    return [
        ("case 1 single active user", ok1, f"checked {n} states"),
        ("case 2 at most M+1 active", ok2, f"checked {n} states"),
        ("case 3 at most one interior", ok3, f"checked {n} states"),
    ]


def _suite_tdma(scale, rng, n_checks):
    """Single-user tests agree with the unrestricted solvers, which run
    once per case and (K, M) on the positives."""
    draws = [_random_cases(rng, 2) for _ in range(n_checks)]
    hits = {}       # (draw, case) of each positive: the powers it wants
    for i, (state, cases) in enumerate(draws):
        for c, (_, _, args, _, check, _) in enumerate(cases[1:], 1):
            hit = check(state, *args)
            if hit is not None:
                hits[i, c] = np.where(np.arange(state.K) == hit[0], hit[1], 0.0)
    bad = 0
    for ids, c, (key, *_), *_, P, _ in _batches(draws, hits):
        want = np.stack([hits[i, c] for i in ids])
        bad += int((~np.isclose(scale[key] * P, want, atol=1e-8).all(axis=1)).sum())
    return [("tdma checks consistent with solvers", bad == 0,
             f"{len(hits)} positives checked, {bad} mismatches")]


def _suite_bc(scale, rng, n_checks):
    """The one-user BC path against the K-user auxiliary MAC at the final
    multipliers of real dual solves: three random (K, M), each with one
    ensemble and one budget, every case. Per state the powers and the
    served users must agree, and so must the rates, each of its own users."""
    n = max(200, 10 * n_checks)
    worst_q = worst_rate = 0.0
    users_differ = 0
    for _ in range(3):
        K = int(rng.integers(1, 6))
        M = int(rng.integers(1, 3))
        states = sample_bc_states(FadingModel(K=K, M=M, n_states=n,
                                              seed=int(rng.integers(1 << 31))))
        Hb, F = states.H, states.F
        budget = PowerBudget(tpc=np.zeros(0), ipc=rng.uniform(0.5, 2.0, M),
                             bs_tpc=float(rng.uniform(0.5, 3.0)))
        for case in ConstraintCase:
            lam, mu = _bc_prices(ergodic_capacity_bc(states, case, budget).dual_point, M)
            qa, ua = perstate_bc.solve_states_bc(Hb, F, case, lam, mu, budget)
            qb, ub = perstate_bc.solve_states_bc_via_mac(Hb, F, case, lam, mu, budget)
            qa = scale["bc"] * qa
            ra, rb = (float(np.mean(np.log1p(Hb[np.arange(n), u] * q)))
                      for q, u in ((qa, ua), (qb, ub)))
            worst_q = max(worst_q, float(np.max(np.abs(qa - qb))))
            worst_rate = max(worst_rate, abs(ra - rb) / max(abs(ra), 1e-12))
            users_differ += int(np.count_nonzero(ua != ub))
    ok = worst_q <= 1e-8 and worst_rate <= 1e-6 and users_differ == 0
    return [("bc one-user path matches auxiliary MAC at dual optima", ok,
             f"12 dual solves of {n} states, worst |dq| = {worst_q:.2e}, "
             f"worst ergodic rel diff = {worst_rate:.2e}, "
             f"{users_differ} served users differ")]


def _suite_dual(scale, rng, n_checks):
    """Small-instance duality sandwich: weak duality (the dual is no
    lower than the SAA primal optimum) and a gap of at most 2e-3. The
    loop runs to a 1e-6 gap, so a dual value that a broken solver
    biases low falls below the optimum instead of stopping above it."""
    model = FadingModel(K=2, M=1, n_states=8, seed=int(rng.integers(1 << 31)))
    states = sample_mac_states(model)
    budget = PowerBudget.symmetric(2, 1, 1.0, 0.8)
    results = []
    for key, case in zip(("case1", "case2", "case3"), ConstraintCase):
        factor = scale[key]
        solver = None if factor == 1.0 else (
            lambda H, G, pt, case=case, factor=factor: factor * tdma.solve_states(
                case, H, G, pt.lam, pt.mu, budget))
        point, report, policy, _ = cutting_plane_solve(states, case, budget,
                                                       per_state_solver=solver,
                                                       gap_tol=1e-6)
        _, lower = saa_primal_oracle(states, case, budget)
        gap = report.best_dual - lower
        rel = gap / max(report.best_dual, 1e-9)
        results.append((f"case {case.value} duality sandwich", -1e-6 <= rel <= 2e-3,
                        f"relative gap {rel:.2e}"))
    return results


SUITES = {
    "perstate": _suite_perstate,
    "sparsity": _suite_sparsity,
    "tdma": _suite_tdma,
    "bc": _suite_bc,
    "dual": _suite_dual,
}


def _cmd_verify(args) -> int:
    if args.checks < 1:
        raise UsageError(f"--checks must be at least 1, got {args.checks}")
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    scale = _power_factors(args.perturb)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UsageError(f"unknown suite {name!r}; choose from "
                             f"{sorted(SUITES)} or 'all'")
    failures = 0
    for name in names:
        for label, ok, detail in SUITES[name](scale, rng, args.checks):
            print(f"{'PASS' if ok else 'FAIL'} [{name}] {label}: {detail}")
            failures += 0 if ok else 1
    print(f"verify: {failures} failure(s)")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crsum",
        description="Ergodic sum-rate power control for spectrum-sharing "
                    "fading MAC/BC channels")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compute rate curves and write CSVs")
    run.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    run.add_argument("--config", help="INI file with [run] and per-preset sections")
    run.add_argument("--channel", choices=["mac", "bc"])
    run.add_argument("--case", help="constraint case I, II, III, or IV")
    run.add_argument("--mode", choices=["full", "tdma", "fra"], default=None)
    run.add_argument("--K", type=int, help="number of secondary users")
    run.add_argument("--M", type=int, default=1, help="number of primary receivers")
    run.add_argument("--P-dB", dest="p_db", help="TPC grid, e.g. -5:25:5 or 0,10")
    run.add_argument("--Q-dB", dest="q_db", help="BC TPC grid in dB")
    run.add_argument("--gamma", type=float, default=None,
                     help="interference threshold (linear)")
    run.add_argument("--samples", type=int, default=None,
                     help=f"fading states (default {DEFAULT_SAMPLES})")
    run.add_argument("--seed", type=int, default=None,
                     help=f"ensemble seed (default {DEFAULT_SEED})")
    run.add_argument("--out", help="output directory (default results/)")
    run.add_argument("--convergence", action="store_true",
                     help="also dump the dual-loop trace per curve")
    run.add_argument("--strict", action="store_true",
                     help="fail (exit 1) on any point that is not certified")
    run.set_defaults(func=_cmd_run)

    ver = sub.add_parser("verify", help="run self-check suites")
    ver.add_argument("--suite", default="all",
                     help=f"one of {sorted(SUITES)} or 'all'")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--checks", type=int, default=25,
                     help="random instances per suite")
    ver.add_argument("--perturb", help="scale one solver's powers by 1.05 "
                     "(case1_power .. case4_power or bc_power) in every "
                     "suite, to prove the suites catch it")
    ver.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CrsumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (UsageError, ConfigurationError)) else 1


if __name__ == "__main__":
    sys.exit(main())
