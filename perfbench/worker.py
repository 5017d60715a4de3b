"""One benchmark run of one workload, in a fresh process.

Started by run.py with BLAS threads pinned and `src/` on the path.
`--setup-only` times importing crsum and building the workload's specs
and prints the seconds. Otherwise the worker repeats passes of the
workload until `--seconds` is spent (at least MIN_PASSES), checks each
pass's output, and prints one JSON line with the per-pass figures.
Times are scaled to reference machine speed by the probe of probe.py,
run between pieces of work; the raw times are kept beside them.
With `--trace 1` an untraced warm-up pass is followed by alternating
traced and untraced passes, so the traced run can report its own
overhead; spans are written when the run ends.
"""
import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads as wl

MIN_PASSES = 3          # untraced run
MIN_TRACED_PASSES = 5   # traced run: warm-up, then two traced, two untraced
HARD_STOP_S = 120.0     # never start a pass after this much time
SETUP_PROBES = 40       # probes after a set-up, to scale it


def _setup_only(workload) -> None:
    c0 = time.process_time()
    t0 = time.perf_counter()
    import crsum  # noqa: F401
    wl.build_specs(workload)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    from probe import Probe   # numpy is imported by crsum, above
    probe = Probe()
    for _ in range(SETUP_PROBES):
        probe.run()
    print(json.dumps({"setup_s": wall / probe.slowdown()[0],
                      "setup_raw_s": wall,
                      "crsum_file": sys.modules["crsum"].__file__}))


def _digest(out_dir: Path, stdout: str) -> tuple:
    """(sha256, bytes) of every CSV written, or of the verify report."""
    h = hashlib.sha256()
    size = 0
    for path in sorted(out_dir.glob("*.csv")):
        data = path.read_bytes()
        h.update(path.name.encode() + b"\0" + data)
        size += len(data)
    if not size:
        h.update(stdout.encode())
    return h.hexdigest(), size


def _one_pass(workload, expected, seed, out_dir, tracer, reference, probe):
    """Run the workload once; returns the pass record."""
    from crsum import cli
    from tracer import capture_points
    shutil.rmtree(out_dir, ignore_errors=True)
    commands = workload.commands(seed, out_dir)
    points = [] if tracer is None else tracer.points
    points.clear()
    if tracer is not None:
        tracer.install()
    else:
        patch = capture_points(points)
    buf = io.StringIO()
    error = None
    gc.collect()
    probe.start(timer=tracer is None)
    c0 = time.process_time()
    t0 = time.perf_counter()
    rc = 0
    try:
        with contextlib.redirect_stdout(buf):
            for argv in commands:
                rc = cli.main(argv) or rc
    except Exception as exc:  # an aborted run still gets checked and reported
        rc, error = None, f"{type(exc).__name__}: {exc}"
    finally:
        probe.stop()
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if tracer is not None:
        tracer.restore()
    else:
        patch.restore()

    out_dir.mkdir(parents=True, exist_ok=True)
    digest, csv_bytes = _digest(out_dir, buf.getvalue())
    ref_wall, ref_cpu = probe.scale(wall, cpu)
    record = {"wall_s": ref_wall, "cpu_s": ref_cpu,
              "raw_wall_s": wall - probe.spent[0],
              "raw_cpu_s": cpu - probe.spent[1],
              "probes": len(probe.walls),
              "slowdown": probe.slowdown()[0],
              "traced": tracer is not None,
              "rc": rc, "digest": digest, "csv_bytes": csv_bytes,
              "uncertified": 0, "gap_rel_max": 0.0}
    if workload.command == "verify":
        attempted, failed, problems = wl.check_verify_pass(
            expected, buf.getvalue(), rc if rc is not None else 1)
    else:
        attempted = len(expected)
        failed, problems, stats = wl.check_run_pass(
            expected, points, out_dir, seed, reference)
        record.update(stats)
    if error:
        problems.insert(0, f"run aborted: {error}")
    record.update(attempted=attempted, failed=failed, problems=problems[:20])
    return record


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="output directory")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = wl.WORKLOADS[args.workload]
    if args.setup_only:
        _setup_only(workload)
        return 0

    expected = wl.build_specs(workload)
    reference = wl.load_reference(args.workload, workload, args.seed)
    out_root = Path(args.out)
    from probe import Probe
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    probe = Probe()
    passes = []
    layers = []
    t_run = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.trace_id = len(passes)
        rec = _one_pass(workload, expected, args.seed,
                        out_root / "pass", tracer if traced else None,
                        reference, probe)
        if traced:
            layers.append(layer_metrics(tracer.spans, tracer.trace_id))
        passes.append(rec)
        elapsed = time.perf_counter() - t_run
        need = MIN_TRACED_PASSES if args.trace else MIN_PASSES
        typical = statistics.median(p["raw_wall_s"] for p in passes)
        if len(passes) >= need and elapsed + typical > args.seconds:
            break
        if elapsed > HARD_STOP_S:
            break

    result = {
        "workload": args.workload, "seed": args.seed,
        "passes": passes, "layers": layers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reference_used": reference is not None,
        "numpy": sys.modules["numpy"].__version__,
        "run_s": time.perf_counter() - t_run,
    }
    if tracer is not None:
        spans_path = out_root / "spans.jsonl"
        with open(spans_path, "w") as fh:
            for name, parent, t0, t1, _, rows, error, info, tid in tracer.spans:
                fh.write(json.dumps({
                    "trace": tid, "name": name, "parent": parent,
                    "start": t0 - t_run, "end": t1 - t_run, "rows": rows,
                    "error": error, "info": info}) + "\n")
        result["spans_file"] = str(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
