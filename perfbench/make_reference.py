"""Record the reference rates the output check compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py 0-31

Runs every `run` workload once per seed, audits each point, and writes
perfbench/reference.json: per workload its argv and, per seed, each
curve's (rate_nats, gap) rows. Regenerate only when a workload's
command line changes, and only from a commit whose results are trusted.
"""
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import workloads as wl


def record(name, workload, seed, tmp: Path):
    from crsum import cli
    from tracer import capture_points
    expected = wl.build_specs(workload)
    out = tmp / f"{name}-{seed}"
    points = []
    patch = capture_points(points)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(workload.commands(seed, out)[-1])
    finally:
        patch.restore()
    failed, problems, _ = wl.check_run_pass(expected, points, out, seed, None)
    if rc != 0 or failed:
        raise SystemExit(f"{name} seed {seed}: {problems[:5]}")
    return wl.read_curves(out, expected)


def main() -> int:
    lo, _, hi = sys.argv[1].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    reference = {}
    scratch = wl.HERE.parent / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, workload in wl.WORKLOADS.items():
            if workload.command != "run":
                continue
            reference[name] = {"argv": list(workload.argv), "seeds": {
                str(s): record(name, workload, s, Path(tmp)) for s in seeds}}
            print(f"{name}: {len(seeds)} seeds", flush=True)
    wl.REFERENCE.write_text(dumps(reference))
    return 0


def dumps(reference) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for name, ref in reference.items():
        seeds = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(rows)}"
                           for seed, rows in ref["seeds"].items())
        blocks.append(f"{json.dumps(name)}: {{\"argv\": {json.dumps(ref['argv'])}, "
                      f"\"seeds\": {{\n{seeds}}}}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
