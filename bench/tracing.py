"""Span tracing installed from outside the program.

Each traced layer is wrapped at the name its callers look up (a module global
or a class attribute), so the package itself carries no timers. A span is one
wrapped call: name, start, end, parent span and op id, kept in flat arrays
and written out once at the end of a run. A layer's self time is its span's
duration minus the durations of its direct child spans.

Spans assume one thread: the parent of a span is the innermost open span.
That holds for every workload here (certify's thread pool runs its single
chunk inline); calls made in other threads or processes are not traced.
"""
from __future__ import annotations

import dataclasses
import os
import statistics
import time
from array import array

import numpy as np


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened while it is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")  # bytes written, or rows the filter corrected
        self.rows = array("d")  # rows the filter saw
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, measure=None):
        """``fn`` recording one span per call; ``measure(result) -> (value, rows)``."""
        nid = self._intern(name)
        clock = self.clock
        stack = self._stack
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, value, rows = self.start, self.end, self.value, self.rows

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op_id.append(self.op)
            end.append(0.0)
            value.append(0.0)
            rows.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if measure is not None:
                value[idx], rows[idx] = measure(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, make):
        """Replace ``owner.attr`` with ``make(original)`` until ``uninstall``."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        """Spans as numpy arrays plus the self time of each span."""
        n = len(self.name_id)
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": parent,
            "op_id": np.array(self.op_id, dtype=np.int64),
            "start": start,
            "end": end,
            "value": np.array(self.value, dtype=float),
            "rows": np.array(self.rows, dtype=float),
            "duration": dur,
            "self": dur - child,
        }

    def save(self, path):
        np.savez(path, **self.arrays())


def _bytes_written(path):
    return float(os.path.getsize(path)), 1.0


def _filter_rows(result):
    active = np.asarray(result[1], dtype=bool)
    return float(np.count_nonzero(active)), float(active.size)


def install(tracer: Tracer):
    """Wrap every traced layer of ``layersafe`` at each name its callers use."""
    from layersafe import (
        _io,
        barrier,
        certify,
        cli,
        controller,
        dynamics,
        harness,
        robustness,
        scenario,
    )

    def span(name, measure=None):
        return lambda fn: tracer.wrap(name, fn, measure)

    def traced_disturbance(make_disturbance):
        sig = span("robustness.disturbance")

        def make(*args, **kwargs):
            d = make_disturbance(*args, **kwargs)
            return dataclasses.replace(d, signal=sig(d.signal))

        return make

    for owner, attr, name, measure in [
        (cli, "main", "cli.main", None),
        (cli, "load_scenario", "scenario.load_scenario", None),
        (scenario, "load_scenario", "scenario.load_scenario", None),
        (scenario.Scenario, "digest", "scenario.digest", None),
        (controller, "desired_velocity", "controller.desired_velocity", None),
        (scenario, "desired_velocity", "controller.desired_velocity", None),
        (controller, "safe_velocity", "controller.safe_velocity", _filter_rows),
        (controller, "tracking_control", "controller.tracking_control", None),
        (barrier.BarrierFn, "value", "barrier.value", None),
        (barrier.BarrierFn, "value_and_gradient", "barrier.value_and_gradient", None),
        (dynamics, "rk4_step", "dynamics.rk4_step", None),
        (certify, "rk4_step", "dynamics.rk4_step", None),
        (dynamics, "integrate_batch", "dynamics.integrate_batch", None),
        (dynamics.Trajectory, "to_csv", "dynamics.to_csv", None),
        (certify, "certify_initial_set", "certify.certify_initial_set", None),
        (cli, "certify_initial_set", "certify.certify_initial_set", None),
        (certify, "_scan_chunk", "certify.scan_chunk", None),
        (certify.CertificateReport, "write", "certify.write", None),
        (certify.CertificateReport, "point_cloud_csv", "certify.point_cloud_csv", None),
        (harness, "run_simulate", "harness.run_simulate", None),
        (harness, "run_iss", "harness.run_iss", None),
        (harness, "check_rtf_recurrence", "recurrence.check_rtf_recurrence", None),
        (harness, "check_safety_chain", "recurrence.check_safety_chain", None),
        (harness, "check_exponential_envelope", "recurrence.check_exponential_envelope", None),
        (harness, "check_iss_envelope", "robustness.check_iss_envelope", None),
        (harness, "check_practical_rtf", "robustness.check_practical_rtf", None),
        (harness, "estimate_mu_gain", "robustness.estimate_mu_gain", None),
        (robustness, "estimate_mu_gain", "robustness.estimate_mu_gain", None),
        (_io, "atomic_write_text", "io.atomic_write_text", _bytes_written),
        (certify, "atomic_write_text", "io.atomic_write_text", _bytes_written),
        (dynamics, "atomic_write_text", "io.atomic_write_text", _bytes_written),
        (harness, "atomic_write_text", "io.atomic_write_text", _bytes_written),
    ]:
        tracer.patch(owner, attr, span(name, measure))
    tracer.patch(robustness, "make_disturbance", traced_disturbance)
    tracer.patch(scenario, "make_disturbance", traced_disturbance)


# -- per-layer metrics ------------------------------------------------------

# (metric, unit): every metric a traced run reports, in BENCHMARK.json order
LAYER_METRICS = (
    ("barrier.vg_calls_per_step", "count"),
    ("barrier.value_calls_per_step", "count"),
    ("barrier.self_us_per_call", "us"),
    ("controller.safe_velocity_calls_per_step", "count"),
    ("controller.safe_velocity.self_us_per_call", "us"),
    ("controller.desired_velocity.self_us_per_call", "us"),
    ("controller.tracking_control.self_us_per_call", "us"),
    ("controller.filter_active_ratio", "ratio"),
    ("dynamics.rk4_step.self_us_per_call", "us"),
    ("dynamics.record_self_s", "s"),
    ("dynamics.to_csv_s", "s"),
    ("dynamics.csv_bytes", "bytes"),
    ("recurrence.checks_s", "s"),
    ("robustness.estimate_mu_gain_s", "s"),
    ("robustness.calibration_steps", "count"),
    ("robustness.disturbance_calls_per_step", "count"),
    ("robustness.iss_checks_s", "s"),
    ("certify.self_s", "s"),
    ("certify.scan_self_s", "s"),
    ("certify.report_s", "s"),
    ("certify.report_bytes", "bytes"),
    ("certify.chunks", "count"),
    ("certify.cpu_util", "ratio"),
    ("scenario.load_s", "s"),
    ("scenario.digest_calls_per_op", "count"),
    ("harness.self_s", "s"),
    ("io.write_calls_per_op", "count"),
    ("io.bytes_per_op", "bytes"),
    ("io.write_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# counts repeat exactly for one seed: they come from the first traced op,
# whose inputs depend on the seed only; times are medians over traced ops
EXACT = {
    "barrier.vg_calls_per_step",
    "barrier.value_calls_per_step",
    "controller.safe_velocity_calls_per_step",
    "controller.filter_active_ratio",
    "dynamics.csv_bytes",
    "robustness.calibration_steps",
    "robustness.disturbance_calls_per_step",
    "certify.report_bytes",
    "certify.chunks",
    "scenario.digest_calls_per_op",
    "io.write_calls_per_op",
    "io.bytes_per_op",
}

_RECURRENCE_CHECKS = (
    "recurrence.check_rtf_recurrence",
    "recurrence.check_safety_chain",
    "recurrence.check_exponential_envelope",
)
_ISS_CHECKS = ("robustness.check_iss_envelope", "robustness.check_practical_rtf")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def op_metrics(sp: dict, op: int) -> dict:
    """Every per-layer value for one traced op, from the span arrays."""
    names = list(sp["names"])
    sel = sp["op_id"] == op
    nid = sp["name_id"]

    def mask(*span_names):
        ids = [names.index(n) for n in span_names if n in names]
        return sel & np.isin(nid, ids)

    def count(*span_names):
        return float(np.count_nonzero(mask(*span_names)))

    def total(field, *span_names):
        return float(np.sum(sp[field][mask(*span_names)]))

    def under(child, parent_name):
        """Sum of ``value`` over ``child`` spans whose parent is ``parent_name``."""
        m = mask(child)
        par = sp["parent"][m]
        ok = par >= 0
        pid = names.index(parent_name) if parent_name in names else -2
        return float(np.sum(sp["value"][m][ok][nid[par[ok]] == pid]))

    def descendants_of(child, ancestor):
        m = np.flatnonzero(mask(child))
        aid = names.index(ancestor) if ancestor in names else -2
        anc = sp["parent"][m]
        found = np.zeros(m.size, dtype=bool)
        while np.any(anc >= 0):
            live = anc >= 0
            found[live] |= nid[anc[live]] == aid
            anc = np.where(live, sp["parent"][np.maximum(anc, 0)], -1)
        return float(np.count_nonzero(found))

    steps = count("dynamics.rk4_step")
    barrier_calls = count("barrier.value", "barrier.value_and_gradient")
    sv = mask("controller.safe_velocity")
    return {
        "barrier.vg_calls_per_step": _ratio(count("barrier.value_and_gradient"), steps),
        "barrier.value_calls_per_step": _ratio(count("barrier.value"), steps),
        "barrier.self_us_per_call": 1e6
        * _ratio(total("self", "barrier.value", "barrier.value_and_gradient"), barrier_calls),
        "controller.safe_velocity_calls_per_step": _ratio(count("controller.safe_velocity"), steps),
        **{
            f"controller.{fn}.self_us_per_call": 1e6
            * _ratio(total("self", f"controller.{fn}"), count(f"controller.{fn}"))
            for fn in ("safe_velocity", "desired_velocity", "tracking_control")
        },
        "controller.filter_active_ratio": _ratio(
            float(np.sum(sp["value"][sv])), float(np.sum(sp["rows"][sv]))
        ),
        "dynamics.rk4_step.self_us_per_call": 1e6
        * _ratio(total("self", "dynamics.rk4_step"), steps),
        "dynamics.record_self_s": total("self", "dynamics.integrate_batch"),
        "dynamics.to_csv_s": total("duration", "dynamics.to_csv"),
        "dynamics.csv_bytes": under("io.atomic_write_text", "dynamics.to_csv"),
        "recurrence.checks_s": total("duration", *_RECURRENCE_CHECKS),
        "robustness.estimate_mu_gain_s": total("duration", "robustness.estimate_mu_gain"),
        "robustness.calibration_steps": descendants_of(
            "dynamics.rk4_step", "robustness.estimate_mu_gain"
        ),
        "robustness.disturbance_calls_per_step": _ratio(count("robustness.disturbance"), steps),
        "robustness.iss_checks_s": total("duration", *_ISS_CHECKS),
        "certify.self_s": total("self", "certify.certify_initial_set"),
        "certify.scan_self_s": total("self", "certify.scan_chunk"),
        "certify.report_s": total("duration", "certify.write"),
        "certify.report_bytes": under("io.atomic_write_text", "certify.write"),
        "certify.chunks": count("certify.scan_chunk"),
        "scenario.digest_calls_per_op": count("scenario.digest"),
        "harness.self_s": total("self", "harness.run_simulate", "harness.run_iss"),
        "io.write_calls_per_op": count("io.atomic_write_text"),
        "io.bytes_per_op": total("value", "io.atomic_write_text"),
        "io.write_s": total("duration", "io.atomic_write_text"),
        "cli.self_s": total("self", "cli.main"),
    }


def layer_report(tracer: Tracer, traced_ops: list, cpu_util: list, overhead: tuple) -> dict:
    """Per-layer metrics of a traced run, keyed as in ``LAYER_METRICS``."""
    sp = tracer.arrays()
    per_op = [op_metrics(sp, op) for op in traced_ops]
    out = {}
    for key in per_op[0]:
        vals = [m[key] for m in per_op]
        out[key] = vals[0] if key in EXACT else statistics.median(vals)
    names = list(sp["names"])
    load_id = names.index("scenario.load_scenario") if "scenario.load_scenario" in names else -1
    loads = sp["duration"][sp["name_id"] == load_id]
    out["scenario.load_s"] = float(np.mean(loads)) if loads.size else 0.0
    out["certify.cpu_util"] = statistics.median(cpu_util)
    out["trace.overhead_s"], out["trace.overhead_ratio"] = overhead
    units = dict(LAYER_METRICS)
    return {k: {"value": out[k], "unit": units[k]} for k, _u in LAYER_METRICS}
