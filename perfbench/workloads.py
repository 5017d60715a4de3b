"""Workload definitions and the output check.

Each workload is one `crsum` command line; one pass runs it once,
closed loop, in the benchmark process. The check audits every returned
curve point independently of the program: it redraws the fading
ensemble from the seed, recomputes each rate, re-audits every power
constraint, requires rate <= dual value, and compares the CSV against a
stored reference where the seed has one.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

GAP_TOL = 1e-3          # a point is certified when gap <= GAP_TOL * dual
AUDIT_TOL = 1e-3        # constraint slack allowed by the program's own audit
RATE_RTOL = 1e-9        # recomputed rate vs. reported rate
EXACT_RTOL = 1e-9       # FRA and case-IV points vs. the reference
# result lines each `crsum verify` suite prints
SUITE_RESULTS = {"perstate": 2, "sparsity": 3, "tdma": 1, "bc": 1, "dual": 3}


@dataclass(frozen=True)
class Workload:
    argv: tuple          # crsum command line; a pass adds --seed (and --out)
    why: str
    fixed: tuple = ()    # optional command with its own seed, run first

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag, default=None):
        argv = list(self.argv)
        return argv[argv.index(flag) + 1] if flag in argv else default

    def commands(self, seed: int, out_dir) -> list:
        """The crsum command lines of one pass, in order."""
        seeded = list(self.argv) + ["--seed", str(seed)]
        if self.command == "run":
            seeded += ["--out", str(out_dir)]
        return ([list(self.fixed)] if self.fixed else []) + [seeded]


WORKLOADS = {
    "mac-k2-cases": Workload(
        ("run", "--preset", "fig3", "--samples", "2500"),
        "case-II enumeration repeated inside the dual loop"),
    "bc-k-sweep": Workload(
        ("run", "--preset", "fig8", "--samples", "5000"),
        "ensemble sampling, restacking and the BC dual loop; no enumeration"),
    "mac-k4-shortterm": Workload(
        ("run", "--preset", "fig6", "--case", "IV", "--samples", "4000"),
        "one-shot case-IV enumeration on wide states, no dual iterations"),
    # verify draws K and M for every check from its seed, so the cost of
    # `verify --checks 100` moves by about 15% between seeds. The bulk of
    # the pass therefore runs at a fixed verify seed and only a small
    # seeded part follows the benchmark's seed.
    "verify-scalar": Workload(
        ("verify", "--suite", "perstate", "--checks", "10"),
        "thousands of n=1 scalar calls and the grid and SAA oracles",
        fixed=("verify", "--checks", "100", "--seed", "0")),
}


def _verify_results(argv) -> int:
    argv = list(argv)
    suite = argv[argv.index("--suite") + 1] if "--suite" in argv else "all"
    return sum(SUITE_RESULTS.values()) if suite == "all" else SUITE_RESULTS[suite]


def build_specs(workload: Workload):
    """Import crsum and build the curve specs, drawing no ensemble.

    Returns the expected points as a list of (curve, point) pairs, or
    the number of expected result lines for `verify`.
    """
    from crsum import cli
    if workload.command == "verify":
        return sum(_verify_results(argv) for argv in workload.commands(0, ""))
    curves = cli.PRESETS[workload.option("--preset")]({})
    case = workload.option("--case")
    if case:
        curves = [c for c in curves
                  if c.case is cli.ConstraintCase.from_label(case)]
    return [(c, pt) for c in curves for pt in c.points]


# ---------------------------------------------------------------------------
# independent audit of returned points


def draw_ensemble(channel, K, M, n, seed):
    """The fading ensemble, redrawn as documented: i.i.d. Exp(1) gains
    from a Philox generator keyed by the seed, direct gains first."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=seed))
    H = rng.exponential(1.0, size=(n, K))
    other = (n, K, M) if channel == "mac" else (n, M)
    return H, rng.exponential(1.0, size=other)


def audit_point(res, curve, point, H, X):
    """Problems found in one returned PolicyResult (empty when sound)."""
    import numpy as np
    problems = []
    n, K = H.shape
    case = curve.case
    budget = point["budget"]
    tpc_lt = case.value in ("I", "II") and curve.mode != "fra"
    ipc_lt = case.value in ("I", "III") and curve.mode != "fra"
    alloc = np.asarray(res.alloc, dtype=float)
    if curve.channel == "mac":
        P = alloc.reshape(n, K)
        rate = float(np.log1p(np.einsum("tk,tk->t", H, P)).mean())
        power = P
        interference = np.einsum("tk,tkm->tm", P, X)
        tx_caps = np.asarray(budget.tpc)
    else:
        q = alloc.reshape(n)
        served = H[np.arange(n), np.arange(n) % K] if curve.mode == "fra" \
            else H.max(axis=1)
        rate = float(np.log1p(served * q).mean())
        power = q[:, None]
        interference = X * q[:, None]
        tx_caps = np.array([budget.bs_tpc])
    if np.any(power < -1e-12):
        problems.append("negative power")
    if abs(rate - res.ergodic_sum_rate) > RATE_RTOL * max(1.0, abs(rate)):
        problems.append(f"rate {res.ergodic_sum_rate!r} but policy gives {rate!r}")
    tx = power.mean(axis=0) if tpc_lt else power.max(axis=0)
    if np.any(tx > tx_caps * (1 + AUDIT_TOL)):
        problems.append("transmit-power constraint violated")
    if interference.shape[1]:
        ach = interference.mean(axis=0) if ipc_lt else interference.max(axis=0)
        if np.any(ach > np.asarray(budget.ipc) * (1 + AUDIT_TOL)):
            problems.append("interference constraint violated")
    dual = res.dual_value
    if dual is not None and res.ergodic_sum_rate > dual + 1e-12 * max(1.0, abs(dual)):
        problems.append(f"rate {res.ergodic_sum_rate!r} above dual value {dual!r}")
    return problems


def read_curves(out_dir: Path, expected):
    """CSV rows of every expected curve: {stem: [(rate, gap or None)]}."""
    rows = {}
    for curve, _ in expected:
        if curve.stem in rows:
            continue
        path = out_dir / f"{curve.stem}.csv"
        if not path.exists():
            rows[curve.stem] = []
            continue
        with open(path, newline="") as fh:
            rows[curve.stem] = [
                (float(r["rate_nats"]), float(r["gap"]) if r["gap"] else None)
                for r in csv.DictReader(fh)]
    return rows


def load_reference(workload_name: str, workload: Workload, seed: int):
    """Stored rows for this workload and seed, or None."""
    if not REFERENCE.exists():
        return None
    ref = json.loads(REFERENCE.read_text()).get(workload_name)
    if not ref or ref["argv"] != list(workload.argv):
        return None
    return ref["seeds"].get(str(seed))


def matches_reference(case, mode, got, want) -> bool:
    """A point matches when both rates lie within each other's gap.

    Both are feasible lower bounds on the same SAA optimum and each is
    within its own gap of it, so max(gap_ref, gap_new) bounds the
    difference exactly. Points with no dual loop must agree to
    EXACT_RTOL.
    """
    (rate, gap), (rate_ref, gap_ref) = got, want
    if mode == "fra" or case == "IV" or gap is None or gap_ref is None:
        return abs(rate - rate_ref) <= EXACT_RTOL * max(1.0, abs(rate_ref))
    return abs(rate - rate_ref) <= max(gap, gap_ref) + 1e-12


def check_run_pass(expected, results, out_dir, seed, reference):
    """Check one pass of a `run` workload.

    Returns (failed point count, problems, certification stats).
    Points never produced (an aborted run) count as failed.
    """
    rows = read_curves(out_dir, expected)
    ensembles = {}
    problems = []
    failed = 0
    uncertified = 0
    gap_rel_max = 0.0
    index = {}
    for i, (curve, point) in enumerate(expected):
        j = index.get(curve.stem, 0)
        index[curve.stem] = j + 1
        where = f"{curve.stem} row {j}"
        curve_rows = rows[curve.stem]
        if j >= len(curve_rows) or i >= len(results):
            failed += 1
            problems.append(f"{where}: not produced")
            continue
        rate, gap = curve_rows[j]
        res = results[i]
        key = (curve.channel, curve.K, curve.M)
        if key not in ensembles:
            ensembles[key] = draw_ensemble(curve.channel, curve.K, curve.M,
                                           res.n_states, seed)
        bad = audit_point(res, curve, point, *ensembles[key])
        if rate != res.ergodic_sum_rate:
            bad.append("CSV rate differs from the returned result")
        if gap is not None:
            if gap < 0:
                bad.append(f"negative gap {gap!r}")
            rel = gap / max(rate + gap, 1e-9)
            gap_rel_max = max(gap_rel_max, rel)
            uncertified += rel > GAP_TOL
        if reference is not None:
            want = reference[curve.stem][j]
            if not matches_reference(curve.case.value, curve.mode, (rate, gap),
                                     (want[0], want[1])):
                bad.append(f"rate {rate!r} does not match reference {want[0]!r}")
        if bad:
            failed += 1
            problems.extend(f"{where}: {b}" for b in bad)
    return failed, problems, {"uncertified": uncertified,
                              "gap_rel_max": gap_rel_max}


def check_verify_pass(expected, stdout: str, rc: int):
    """Check one pass of `crsum verify`: every result line must PASS."""
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS", "FAIL"))]
    fails = sum(ln.startswith("FAIL") for ln in lines)
    attempted = max(expected, len(lines))
    failed = fails + (attempted - len(lines))
    if rc != 0 and failed == 0:
        failed = attempted
    problems = [ln for ln in lines if ln.startswith("FAIL")]
    if len(lines) < attempted:
        problems.append(f"only {len(lines)} of {attempted} results printed")
    return attempted, failed, problems
