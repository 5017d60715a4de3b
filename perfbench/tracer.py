"""Outside-in tracing of the crsum layers.

The program is not edited: functions are replaced by timing wrappers at
every `crsum` module attribute that holds them, so a function imported
by name into another module (`from .fading import mac_arrays`) is
traced at the call site too. Spans nest through a stack, so a layer's
self time is its duration minus the time of the spans it caused.
Wrappers re-raise every exception unchanged: the dual loop uses
`UnboundedSubproblemError` as control flow.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, span name). Names ending in ".batch" are the
# per-state solvers whose direct calls from the dual loop count as
# dual evaluations. Functions missing from the module are skipped.
TRACED = [
    ("fading", "sample_mac_states", "fading.sample"),
    ("fading", "sample_bc_states", "fading.sample"),
    ("fading", "mac_arrays", "fading.stack"),
    ("fading", "bc_arrays", "fading.stack"),
    *[("perstate_mac", f"solve_states_case{i}", f"perstate_mac.case{i}.batch")
      for i in (1, 2, 3, 4)],
    *[("perstate_mac", f"{f}{i}", "perstate_mac.scalar")
      for f in ("solve_state_case", "kkt_report_case") for i in (1, 2, 3, 4)],
    *[("perstate_mac", f"check_tdma_case{i}", "perstate_mac.scalar")
      for i in (2, 3, 4)],
    *[("tdma", f"tdma_states_case{i}", "tdma.batch") for i in (1, 2, 3, 4)],
    *[("tdma", f"tdma_state_case{i}", "tdma.scalar") for i in (1, 2, 3, 4)],
    ("perstate_bc", "solve_states_bc", "perstate_bc.closed.batch"),
    ("perstate_bc", "solve_state_bc", "perstate_bc.closed"),
    ("perstate_bc", "solve_states_bc_via_mac", "perstate_bc.via_mac.batch"),
    ("perstate_bc", "bc_via_dual_mac", "perstate_bc.via_mac"),
    ("dual", "ellipsoid_solve", "dual.solve"),
    ("dual", "dual_value_and_subgradient", "dual.solve"),
    ("constraints", "feasibility_check", "constraints.audit"),
    ("constraints", "feasibility_check_bc", "constraints.audit"),
    ("capacity", "ergodic_capacity_mac", "capacity.entry"),
    ("capacity", "ergodic_capacity_mac_tdma", "capacity.entry"),
    ("capacity", "ergodic_capacity_bc", "capacity.entry"),
    ("capacity", "fra_baseline_mac", "capacity.fra"),
    ("capacity", "fra_baseline_bc", "capacity.fra"),
    ("capacity", "_bc_agreement_check", "capacity.crosscheck"),
    ("oracle", "grid_state_oracle", "oracle.grid"),
    *[("oracle", f"case{i}_problem", "oracle.problem") for i in (1, 2, 3, 4)],
    ("oracle", "saa_primal_oracle", "oracle.saa"),
    ("cli", "main", "cli"),
]

# The public functions that return one curve point (a PolicyResult).
POINT_FUNCTIONS = [(m, f) for m, f, name in TRACED
                   if name in ("capacity.entry", "capacity.fra")]


def _lookup(module: str, func: str):
    mod = importlib.import_module(f"crsum.{module}")
    return getattr(mod, func, None)


class Patcher:
    """Swaps functions at every crsum module attribute that holds them."""

    def __init__(self):
        self._saved = []

    def install(self, wrappers: dict) -> None:
        """`wrappers` maps id(original function) -> (original, wrapper)."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or (mod_name != "crsum"
                               and not mod_name.startswith("crsum.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._saved.append((mod, attr, val))

    def restore(self) -> None:
        for mod, attr, val in reversed(self._saved):
            setattr(mod, attr, val)
        self._saved.clear()


def capture_points(sink: list) -> Patcher:
    """Append every PolicyResult the point functions return to `sink`.

    This is the only patch active during untraced passes: one call per
    curve point, so it does not disturb the timing.
    """
    wrappers = {}
    for module, func in POINT_FUNCTIONS:
        fn = _lookup(module, func)
        if fn is None:
            continue

        def make(fn):
            @functools.wraps(fn)
            def captured(*args, **kwargs):
                result = fn(*args, **kwargs)
                sink.append(result)
                return result
            return captured
        wrappers[id(fn)] = (fn, make(fn))
    patcher = Patcher()
    patcher.install(wrappers)
    return patcher


def _rows(args):
    """Number of fading states handed to a batch solver."""
    shape = getattr(args[0], "shape", None) if args else None
    return int(shape[0]) if shape else 0


def _sample_info(args):
    """(states, raw bytes) of the ensemble a sampler is asked to draw."""
    model = args[0]
    n, K, M = model.n_states, model.K, model.M
    return n, 8 * n * K * (1 + M)


def _sample_info_bc(args):
    model = args[0]
    n, K, M = model.n_states, model.K, model.M
    return n, 8 * n * (K + M)


def _report_of(result, exc):
    """(iterations, stop reason) from a ConvergenceReport, if one is found."""
    report = getattr(exc, "report", None) if exc is not None else (
        result[1] if isinstance(result, tuple) and len(result) > 1 else None)
    if report is None or not hasattr(report, "stop_reason"):
        return None
    return int(report.n_iterations), str(report.stop_reason)


class Tracer:
    """Records one span per traced call, in memory.

    A span is a list [name, parent, start, end, child_time, rows, error,
    info, trace_id]; `parent` is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self.points = []        # PolicyResults returned by point functions
        self.trace_id = 0
        self._stack = []
        self._patcher = Patcher()

    def install(self) -> None:
        wrappers = {}
        for module, func, name in TRACED:
            fn = _lookup(module, func)
            if fn is None or id(fn) in wrappers:
                continue
            wrappers[id(fn)] = (fn, self._wrap(name, func, fn))
        self._patcher.install(wrappers)

    def restore(self) -> None:
        self._patcher.restore()

    def _wrap(self, name, func, fn):
        spans, stack = self.spans, self._stack
        rows_of = _rows if name.endswith(".batch") else None
        info_in = {"sample_mac_states": _sample_info,
                   "sample_bc_states": _sample_info_bc}.get(func)
        is_dual = name == "dual.solve"
        is_point = name in ("capacity.entry", "capacity.fra")
        sink = self.points

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, parent, 0.0, 0.0, 0.0,
                    rows_of(args) if rows_of else 0, None,
                    info_in(args) if info_in else None, self.trace_id]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                span[6] = type(err).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += span[3] - span[2]
                if is_dual:
                    span[7] = _report_of(result, exc)
                if is_point and exc is None:
                    sink.append(result)

        return traced


# Per-layer metrics a traced pass yields (see README.md).
LAYER_SECONDS = (
    "fading.sample_s", "fading.stack_s", "perstate_mac.case1_s",
    "perstate_mac.case2_s", "perstate_mac.case3_s", "perstate_mac.case4_s",
    "perstate_mac.scalar_s", "tdma.solve_s", "perstate_bc.closed_s",
    "perstate_bc.via_mac_s", "dual.solve_s", "dual.self_s",
    "constraints.audit_s", "capacity.self_s", "capacity.crosscheck_s",
    "capacity.fra_s", "oracle.grid_s", "oracle.saa_s", "cli.self_s")
LAYER_COUNTS = (
    "fading.states", "fading.stack_calls", "perstate_mac.batch_calls",
    "perstate_mac.states_solved", "perstate_mac.scalar_calls",
    "tdma.states_solved", "perstate_bc.states_solved", "dual.evals",
    "dual.unbounded_evals", "dual.iterations", "dual.stop_gap",
    "dual.stop_volume", "dual.stop_max_iter", "dual.stop_other",
    "constraints.audit_calls", "oracle.grid_calls", "oracle.saa_calls")


def layer_metrics(spans, trace_id) -> dict:
    """Per-layer totals of the spans of one traced pass."""
    m = dict.fromkeys(LAYER_SECONDS, 0.0)
    m["fading.raw_mb"] = 0.0
    counts = dict.fromkeys(LAYER_COUNTS, 0)
    for name, parent, t0, t1, child, rows, error, info, tid in spans:
        if tid != trace_id:
            continue
        dur = t1 - t0
        self_s = dur - child
        layer = name.split(".", 1)[0]
        if name == "fading.sample":
            m["fading.sample_s"] += self_s
            counts["fading.states"] += info[0]
            m["fading.raw_mb"] += info[1] / 2**20
        elif name == "fading.stack":
            m["fading.stack_s"] += self_s
            counts["fading.stack_calls"] += 1
        elif name.startswith("perstate_mac.case"):
            m[f"perstate_mac.{name.split('.')[1]}_s"] += self_s
            counts["perstate_mac.batch_calls"] += 1
            counts["perstate_mac.states_solved"] += rows
        elif name == "perstate_mac.scalar":
            m["perstate_mac.scalar_s"] += self_s
            counts["perstate_mac.scalar_calls"] += 1
        elif layer == "tdma":
            m["tdma.solve_s"] += self_s
            counts["tdma.states_solved"] += rows
        elif layer == "perstate_bc":
            path = name.split(".")[1]
            m[f"perstate_bc.{path}_s"] += self_s
            counts["perstate_bc.states_solved"] += rows
        elif name == "dual.solve":
            m["dual.solve_s"] += dur
            m["dual.self_s"] += self_s
            if info is not None:
                counts["dual.iterations"] += info[0]
                key = f"dual.stop_{info[1]}"
                counts[key if key in counts else "dual.stop_other"] += 1
        elif name == "constraints.audit":
            m["constraints.audit_s"] += self_s
            counts["constraints.audit_calls"] += 1
        elif layer == "capacity":
            m["capacity.self_s"] += self_s
            if name == "capacity.crosscheck":
                m["capacity.crosscheck_s"] += dur
            elif name == "capacity.fra":
                m["capacity.fra_s"] += dur
        elif name in ("oracle.grid", "oracle.problem"):
            m["oracle.grid_s"] += self_s
            counts["oracle.grid_calls"] += name == "oracle.grid"
        elif name == "oracle.saa":
            m["oracle.saa_s"] += self_s
            counts["oracle.saa_calls"] += 1
        elif name == "cli":
            m["cli.self_s"] += self_s
        if name.endswith(".batch") and parent >= 0 \
                and spans[parent][0] == "dual.solve":
            counts["dual.evals"] += 1
            counts["dual.unbounded_evals"] += error == "UnboundedSubproblemError"
    m.update(counts)
    return m
