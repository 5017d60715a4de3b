"""Layered benchmark of crsum: one run of one workload.

    python3 perfbench/run.py --workload mac-k2-cases --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program is imported from `src/`, so
nothing needs installing. `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones, `--workload all` both for every
workload (see perfbench/README.md). Every pass's output is checked.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Details (environment, every
pass, spans) go to .bench_build/perfbench/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYER_COUNTS, LAYER_SECONDS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7        # fresh processes timed for setup_s
BLAS_THREADS = 1         # pinned; never more than nproc
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
COUNT_METRICS = LAYER_COUNTS + ("cli.csv_bytes",)
RATIO_METRICS = ("trace.overhead_frac", "machine.slowdown", "fail_frac",
                 "uncertified_frac", "gap_rel_max")
# per-layer metrics run.py computes itself, not the tracer
OWN_METRICS = ("trace.overhead_frac", "machine.slowdown", "raw.wall_s",
               "cli.csv_bytes")


def per_layer_units() -> dict:
    units = dict.fromkeys(LAYER_SECONDS + ("raw.wall_s",), "s")
    units["fading.raw_mb"] = "MiB"
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "ratio" for name in RATIO_METRICS})
    return units


def _worker_env(nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, nproc))
    return env


def _worker(args: list, env: dict) -> dict:
    """Run perfbench/worker.py; returns its last output line as JSON."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker {' '.join(args[:2])} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _environment(nproc: int, env: dict, run: dict) -> dict:
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": run["numpy"], "commit": _commit(),
            "src_sha256": _source_digest(),
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"])}


def _summarize(run: dict, setup: list, trace: int):
    passes = run["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    # same inputs must give byte-identical output on every pass
    first = passes[0]["digest"]
    failed += sum(p["attempted"] - p["failed"] for p in passes
                  if p["digest"] != first)
    cert = {"fail_frac": failed / attempted,
            "uncertified_frac": sum(p["uncertified"] for p in passes) / attempted,
            "gap_rel_max": max(p["gap_rel_max"] for p in passes)}
    untraced = [p for p in passes if not p["traced"]]
    if trace:
        untraced = untraced[1:]        # the first pass is the warm-up
    if trace == 0:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "cpu_s": statistics.median(p["cpu_s"] for p in untraced),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        traced = [p for p in passes if p["traced"]]
        layers = run["layers"]
        units = per_layer_units()
        metrics = {}
        for name in units:
            if name in cert or name in OWN_METRICS:
                continue
            vals = [layer[name] for layer in layers]
            metrics[name] = statistics.median(vals) if name not in COUNT_METRICS \
                else int(statistics.median(vals))
        metrics["cli.csv_bytes"] = traced[0]["csv_bytes"]
        raw = statistics.median(p["raw_wall_s"] for p in untraced)
        metrics["trace.overhead_frac"] = (
            statistics.median(p["raw_wall_s"] for p in traced) / raw - 1.0)
        metrics["raw.wall_s"] = raw
        metrics["machine.slowdown"] = statistics.median(
            p["slowdown"] for p in untraced)
        metrics.update(cert)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }, cert


def run_one(workload: str, seed: int, seconds: float, trace: int,
            nproc: int, env: dict) -> dict:
    """Set up, run and check one workload; prints its metric block."""
    out = ROOT / ".bench_build" / "perfbench" / \
        f"{workload}-seed{seed}-trace{trace}"
    out.mkdir(parents=True, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--out", str(out)]

    # the first import may compile bytecode; it is not timed
    first = _worker([*common, "--setup-only"], env)
    if not Path(first["crsum_file"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"imported crsum from {first['crsum_file']}, "
                           f"not from {SRC}")
    setup = []
    if trace == 0:
        setup = [_worker([*common, "--setup-only"], env)
                 for _ in range(SETUP_REPEATS)]
    run = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)],
                  env)
    result, cert = _summarize(run, setup, trace)

    e = _environment(nproc, env, run)
    detail = {"environment": e, "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace, "setup_s": setup,
              "run": run, "result": result}
    (out / "result.json").write_text(json.dumps(detail, indent=1))

    passes = run["passes"]
    print(f"# crsum benchmark  workload={workload} seed={seed} trace={trace}")
    print(f"# nproc={e['nproc']} python={e['python']} numpy={e['numpy']} "
          f"blas_threads={e['blas_threads']} commit={e['commit'][:12]} "
          f"src={e['src_sha256']}")
    walls = ", ".join(f"{p['wall_s']:.3f}/{p['raw_wall_s']:.3f}"
                      f"{'*' if p['traced'] else ''}" for p in passes)
    print(f"# {len(passes)} passes, wall_s scaled/raw each: {walls}"
          f"{'  (* traced: raw only, first is warm-up)' if trace else ''}")
    if setup:
        print("# setup_s samples scaled/raw: " + ", ".join(
            f"{s['setup_s']:.4f}/{s['setup_raw_s']:.4f}" for s in setup))
    if WORKLOADS[workload].command == "run":
        print("# reference rates: " + ("checked" if run["reference_used"]
                                       else "none stored for this seed"))
    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']}")
    if trace == 0:
        for name, value in cert.items():
            print(f"{name:28s} {value:>14.6g} ratio  (per-layer metric)")
    for p in passes:
        for problem in p["problems"]:
            print(f"# FAIL {problem}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload, untraced and traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "crsum" / "__init__.py").is_file():
        print(f"error: no crsum sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = _worker_env(nproc)
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace,
                         nproc, env)
        print(json.dumps(result))
        return 0
    results = {f"{w}/trace{t}": run_one(w, args.seed, args.seconds, t, nproc, env)
               for w in WORKLOADS for t in (0, 1)}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key}/{name}": m for key, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
