"""Self-test of the benchmark: determinism and layer attribution.

    python3 perfbench/selftest.py [--seed 3] [--seconds 10] [workload ...]

For each workload, makes two traced runs at one seed and requires
identical exact counts and byte-identical CSVs (or verify reports)
across every pass of both runs. It then checks the attribution the
workloads were chosen for:
  * mac-k2-cases: perstate_mac.case2_s is the largest self time;
  * bc-k-sweep: perstate_mac.case2_s and case4_s are zero;
  * mac-k4-shortterm: dual.evals equals the number of curve points.
Exits 1 if any check fails.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import LAYER_COUNTS, LAYER_SECONDS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

SELF_TIMES = [m for m in LAYER_SECONDS
              if m not in ("dual.solve_s", "capacity.crosscheck_s",
                           "capacity.fra_s")]


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py failed\n{proc.stderr[-2000:]}")
    detail = HERE.parent / ".bench_build" / "perfbench" / \
        f"{workload}-seed{seed}-trace1" / "result.json"
    return json.loads(detail.read_text())


def check(workload, seed, seconds):
    a, b = (traced_run(workload, seed, seconds) for _ in range(2))
    failures = []
    for run in (a, b):
        if not run["result"]["correct"]:
            failures.append("output check failed")
    layers = a["run"]["layers"] + b["run"]["layers"]
    for name in LAYER_COUNTS:
        values = {layer[name] for layer in layers}
        if len(values) != 1:
            failures.append(f"{name} differs between passes: {sorted(values)}")
    digests = {p["digest"] for run in (a, b) for p in run["run"]["passes"]}
    if len(digests) != 1:
        failures.append(f"output bytes differ ({len(digests)} digests)")
    m = {k: v["value"] for k, v in a["result"]["metrics"].items()}
    if workload == "mac-k2-cases":
        top = max(SELF_TIMES, key=lambda k: m[k])
        if top != "perstate_mac.case2_s":
            failures.append(f"largest self time is {top}, not perstate_mac.case2_s")
    elif workload == "bc-k-sweep":
        for name in ("perstate_mac.case2_s", "perstate_mac.case4_s"):
            if m[name] != 0:
                failures.append(f"{name} = {m[name]} on the bypass workload")
    elif workload == "mac-k4-shortterm":
        points = a["run"]["passes"][0]["attempted"]
        if m["dual.evals"] != points:
            failures.append(f"dual.evals = {m['dual.evals']}, points = {points}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    bad = 0
    for workload in args.workloads:
        failures = check(workload, args.seed, args.seconds)
        print(f"{'PASS' if not failures else 'FAIL'} {workload}")
        for f in failures:
            print(f"  {f}")
        bad += bool(failures)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
