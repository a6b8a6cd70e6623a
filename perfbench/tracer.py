"""In-memory span tracer for the traced benchmark run.

``Tracer.enable`` replaces library functions at the module attribute their
callers look up (``mixedtraffic.harness.run_filter``,
``mixedtraffic.metanet.step_truth``, ...) with wrappers that time each call
and count work.  Only a ``--trace 1`` process uses it; the untraced runs that
give the end-to-end metrics never import this module.

A span's self time is its total minus the time of the spans it encloses.
Work done by the tracer itself (the after-call hooks that count bytes or
clamps) is excluded from every span's self time and from ``op_s``.
A target that no longer exists is recorded as absent rather than failing.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter

import numpy as np

# (module, attribute path, span name).  Attributes are those the callers look
# up at run time: harness imported the ltv and kalman functions by name.
TARGETS = (
    ("mixedtraffic.scenario", "load_scenario", "scenario.load"),
    ("mixedtraffic.harness", "run_experiment", "harness.run_experiment"),
    ("mixedtraffic.harness", "simulate_truth", "harness.simulate_truth"),
    ("mixedtraffic.metanet", "TruthSimulator.inputs_at", "metanet.inputs_at"),
    ("mixedtraffic.metanet", "observe", "metanet.observe"),
    ("mixedtraffic.metanet", "step_truth", "metanet.step_truth"),
    ("mixedtraffic.harness", "build_systems", "harness.build_systems"),
    ("mixedtraffic.harness", "build_system_measured", "ltv.build_system"),
    ("mixedtraffic.harness", "build_system_unmeasured_offramps", "ltv.build_system"),
    ("mixedtraffic.harness", "run_filter", "harness.run_filter"),
    ("mixedtraffic.harness", "filter_step", "kalman.filter_step"),
    ("mixedtraffic.harness", "output_measurement", "kalman.output_measurement"),
    ("mixedtraffic.harness", "reconstruct_totals", "kalman.reconstruct_totals"),
    ("mixedtraffic.harness", "performance_index", "harness.performance_index"),
    ("mixedtraffic.harness", "q_sweep", "harness.q_sweep"),
    ("mixedtraffic.harness", "observability_trace", "harness.observability_trace"),
    ("mixedtraffic.harness", "check_observability", "ltv.check_observability"),
    ("mixedtraffic.harness", "write_trajectory", "harness.write_trajectory"),
    ("mixedtraffic.harness", "write_metrics", "harness.write_metrics"),
    ("mixedtraffic.harness", "read_trajectory", "harness.read_trajectory"),
)


def nbytes_reachable(obj, _seen=None) -> int:
    """Sum of ``nbytes`` of every distinct array reachable from ``obj``
    through sequences, mappings and object attributes."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(nbytes_reachable(item, seen) for item in obj)
    if isinstance(obj, dict):
        return sum(nbytes_reachable(item, seen) for item in obj.values())
    fields = getattr(obj, "__dict__", None)
    if fields is None:
        return 0
    return sum(nbytes_reachable(item, seen) for item in fields.values())


class Tracer:
    """Per-span call count, total time and enclosed-span time, plus counters.

    Construction resolves every target and builds its wrapper; ``enable`` and
    ``disable`` swap the wrappers in and out, so untraced ops can alternate
    with traced ones in the same process.
    """

    def __init__(self):
        self.spans: dict[str, list[float]] = {}    # name -> [calls, total_s, child_s]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.hook_s = 0.0
        self._stack: list[float] = []             # enclosed time of each open span
        self._patches = []
        for module_name, attr_path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = attr_path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            self._patches.append((owner, attr, fn, self.wrap(fn, name, HOOKS.get(name))))

    def enable(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def disable(self) -> None:
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def reset(self) -> None:
        for record in self.spans.values():
            record[:] = [0, 0.0, 0.0]
        self.counters.clear()
        self.hook_s = 0.0

    def wrap(self, fn, name: str, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        spans.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                record = spans[name]
                record[0] += 1
                record[1] += dt
                record[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if after is not None:
                h0 = clock()
                try:
                    after(self, result, args, kwargs)
                except (AttributeError, TypeError, IndexError, KeyError, OSError):
                    self.counters["trace.hook_errors"] += 1
                h = clock() - h0
                self.hook_s += h
                if stack:
                    stack[-1] += h
            return result

        return traced

    def op(self, fn):
        """Run ``fn`` as the root span ``op`` and return its result."""
        return self.wrap(fn, "op")()

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        _, total, child = self.spans.get(name, (0, 0.0, 0.0))
        return total - child


# -- after-call hooks: counts taken at the layer boundary ---------------------

def _count_truth(tracer, truth, args, kwargs):
    if "metanet.truth_nbytes" not in tracer.counters:
        tracer.counters["metanet.truth_nbytes"] = nbytes_reachable(truth)


def _count_systems(tracer, systems, args, kwargs):
    if "ltv.systems_nbytes" not in tracer.counters:
        tracer.counters["ltv.systems_nbytes"] = nbytes_reachable(systems)


def _count_system(tracer, system, args, kwargs):
    tracer.counters["ltv.g_clamps"] += int(getattr(system, "n_clamped", 0))


def _count_z(tracer, result, args, kwargs):
    tracer.counters["kalman.z_fallbacks"] += int(bool(result[1]))


def _count_window(tracer, report, args, kwargs):
    tracer.counters["ltv.unobservable_windows"] += int(not getattr(report, "observable", True))


def _count_written(tracer, result, args, kwargs):
    tracer.counters["harness.csv_bytes_written"] += os.path.getsize(args[0])


def _count_read(tracer, result, args, kwargs):
    tracer.counters["harness.csv_bytes_read"] += os.path.getsize(args[0])


HOOKS = {
    "harness.simulate_truth": _count_truth,
    "harness.build_systems": _count_systems,
    "ltv.build_system": _count_system,
    "kalman.output_measurement": _count_z,
    "ltv.check_observability": _count_window,
    "harness.write_trajectory": _count_written,
    "harness.write_metrics": _count_written,
    "harness.read_trajectory": _count_read,
}


def per_layer_metrics(tracer: Tracer, n_ops: int, load_s: float,
                      overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit): times and counts per traced op,
    sizes of the largest object seen, ``scenario.load_s`` per set-up.

    ``op_s`` is the traced op time less the tracer's own hook time, so it
    equals the top-level spans' totals plus ``op.self_s``.
    """
    def per_op(x):
        return x / n_ops

    def t(name):
        return per_op(tracer.total(name)), "s"

    def own(name):
        return per_op(tracer.self_time(name)), "s"

    def n(name):
        return per_op(tracer.calls(name)), "count"

    def k(name, unit="count"):
        return per_op(tracer.counters[name]), unit

    return {
        "op_s": (per_op(tracer.total("op") - tracer.hook_s), "s"),
        "op.self_s": own("op"),
        "trace_overhead_frac": (overhead_frac, "frac"),
        "scenario.load_s": (load_s, "s"),
        "harness.simulate_truth_s": t("harness.simulate_truth"),
        "metanet.inputs_at_s": t("metanet.inputs_at"),
        "metanet.observe_s": t("metanet.observe"),
        "metanet.step_truth_s": t("metanet.step_truth"),
        "metanet.steps": n("metanet.step_truth"),
        "metanet.self_s": own("harness.simulate_truth"),
        "metanet.truth_nbytes": (tracer.counters["metanet.truth_nbytes"], "bytes"),
        "harness.build_systems_s": t("harness.build_systems"),
        "ltv.build_system_s": t("ltv.build_system"),
        "ltv.systems": n("ltv.build_system"),
        "ltv.g_clamps": k("ltv.g_clamps"),
        "ltv.systems_nbytes": (tracer.counters["ltv.systems_nbytes"], "bytes"),
        "harness.run_filter_s": t("harness.run_filter"),
        "harness.run_filter_self_s": own("harness.run_filter"),
        "kalman.filter_step_s": t("kalman.filter_step"),
        "kalman.output_measurement_s": t("kalman.output_measurement"),
        "kalman.reconstruct_totals_s": t("kalman.reconstruct_totals"),
        "kalman.filter_steps": n("kalman.filter_step"),
        "kalman.z_fallbacks": k("kalman.z_fallbacks"),
        "harness.q_sweep_s": t("harness.q_sweep"),
        "harness.q_sweep_self_s": own("harness.q_sweep"),
        "harness.observability_trace_s": t("harness.observability_trace"),
        "ltv.check_observability_s": t("ltv.check_observability"),
        "ltv.windows": n("ltv.check_observability"),
        "ltv.unobservable_windows": k("ltv.unobservable_windows"),
        "harness.write_trajectory_s": t("harness.write_trajectory"),
        "harness.write_metrics_s": t("harness.write_metrics"),
        "harness.csv_bytes_written": k("harness.csv_bytes_written", "bytes"),
        "harness.read_trajectory_s": t("harness.read_trajectory"),
        "harness.csv_bytes_read": k("harness.csv_bytes_read", "bytes"),
        "harness.performance_index_s": t("harness.performance_index"),
    }
