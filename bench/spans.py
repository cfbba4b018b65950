"""Spans around the public functions of every dtqw layer, and their analysis.

The benchmark records spans from its own code: `Recorder.install` replaces
every binding of each public layer function (module attributes of every
``dtqw`` module, which covers ``from .walk import evolve`` and the package
namespace, plus module-level dict tables such as the named-coin table) with
a wrapper, and `Recorder.uninstall` puts the originals back.  A span holds
the function, start and end (``perf_counter_ns``), the enclosing span and
the op id.  Spans stay in memory and are written to one ``.npz`` file when
the run ends; `analyze` computes per-layer self time and counts from that
file alone.

Counters that a layer metric needs beyond calls and time are taken at the
same boundary from the call's arguments (for example ``steps`` of
``walk.evolve``) or from the returned object where the metric is defined on
it (``amps.nbytes``, the number of reconstructed sites).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("coins", "walk", "entanglement", "transport", "sequences", "tomography", "io", "cli")

# Public functions outside a module's __all__ that a layer metric names.
EXTRA_PUBLIC = {"cli": ("resolve_config",)}

# Per-value helpers: a span per call (one per CSV cell, recursively per JSON
# node) would cost more than the work it times.
NOT_WRAPPED = {"io.jsonable", "io.fmt_float"}

NO_OP = -1  # spans outside a timed op (checks, cleanup)
CHECK_OP = -2  # the once-per-run cross-check op (the sweep's workers=1 run)


def _csv_counts(a, result):
    rows = a["rows"]
    if hasattr(rows, "__len__"):
        n = len(rows)
    else:  # an iterator was consumed by the writer: count the data lines
        with open(a["path"], "rb") as fh:
            n = sum(1 for _ in fh) - 1
    return {"io.rows_written": n, "io.bytes_written": os.path.getsize(a["path"])}


# Counters taken at a function's boundary: name -> f(bound arguments, result).
HOOKS = {
    "walk.evolve": lambda a, r: {
        # light-cone widths 2t+1 of the states stepped from, t = 0 .. steps-1
        "walk.site_steps": a["steps"] ** 2,
        "walk.states_returned": len(r),
        "walk.amp_bytes_returned": sum(s.amps.nbytes for s in r),
    },
    "sequences.exhaustive_sweep": lambda a, r: {"sequences.walks_evaluated": 2 ** a["n"]},
    "sequences.sampled_sweep": lambda a, r: {"sequences.walks_evaluated": a["samples"]},
    "sequences.entropy_of_sequence": lambda a, r: {"sequences.walks_evaluated": 1},
    "tomography.tomographic_entropy": lambda a, r: {
        "tomography.sites_reconstructed": len(r.sites)
    },
    "io.write_csv": _csv_counts,
    "io.write_json": lambda a, r: {"io.bytes_written": os.path.getsize(a["path"])},
}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("q")
        self.op = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.raised = array("b")
        self.counters: dict[tuple[int, str], float] = {}
        self.op_id = NO_OP
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple[object, object]] = {}
        self._bindings: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None
        rec = self
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack
            idx = len(rec.fn)
            rec.fn.append(fid)
            rec.op.append(rec.op_id)
            rec.parent.append(stack[-1] if stack else -1)
            rec.end.append(0)
            rec.raised.append(0)
            stack.append(idx)
            rec.start.append(now())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.end[idx] = now()
                rec.raised[idx] = 1
                stack.pop()
                raise
            rec.end[idx] = now()
            stack.pop()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(bound.arguments, result).items():
                    slot = (rec.op_id, key)
                    rec.counters[slot] = rec.counters.get(slot, 0) + value
            return result

        return traced

    def _build(self) -> None:
        for layer in LAYERS:
            mod = sys.modules.get(f"dtqw.{layer}")
            if mod is None:  # layer not imported by this workload
                continue
            for attr in (*getattr(mod, "__all__", ()), *EXTRA_PUBLIC.get(layer, ())):
                obj = getattr(mod, attr, None)
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and name not in NOT_WRAPPED
                ):
                    self._wrappers[id(obj)] = (obj, self._wrap(name, obj))

    def install(self) -> None:
        """Replace every binding of every public layer function by its wrapper."""
        if self._bindings:
            return
        if not self._wrappers:
            self._build()
        modules = [
            m for key, m in list(sys.modules.items()) if key == "dtqw" or key.startswith("dtqw.")
        ]
        for mod in modules:
            space = vars(mod)
            tables = [v for v in space.values() if type(v) is dict]
            for table in (space, *tables):
                for key, value in list(table.items()):
                    hit = self._wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        table[key] = hit[1]
                        self._bindings.append((table, key, value))

    def uninstall(self) -> None:
        for table, key, value in reversed(self._bindings):
            table[key] = value
        self._bindings.clear()

    @contextlib.contextmanager
    def tracing(self, op_id: int):
        """Record spans under `op_id` for the duration of the block."""
        self.install()
        self.op_id = op_id
        try:
            yield
        finally:
            self.op_id = NO_OP
            self.uninstall()

    def save(self, path) -> int:
        keys = sorted(self.counters)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            fn=np.array(self.fn, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
            raised=np.array(self.raised, dtype=np.int8),
            counter_op=np.array([k[0] for k in keys], dtype=np.int64),
            counter_name=np.array([k[1] for k in keys], dtype=str),
            counter_value=np.array([self.counters[k] for k in keys], dtype=np.float64),
        )
        return len(self.fn)


# Every per-layer metric with its unit.  `.calls` is calls per traced op and
# `.self_s` self time per traced op; counters are per traced op too.
PER_LAYER = [
    ("coins.require_unitary.calls", "calls/op"),
    ("coins.require_unitary.self_s", "s/op"),
    ("coins.errors", "count"),
    ("walk.plan_coins.calls", "calls/op"),
    ("walk.plan_coins.self_s", "s/op"),
    ("walk.evolve.calls", "calls/op"),
    ("walk.evolve.self_s", "s/op"),
    ("walk.step.calls", "calls/op"),
    ("walk.step.self_s", "s/op"),
    ("walk.shift.self_s", "s/op"),
    ("walk.site_steps", "sites/op"),
    ("walk.ns_per_site_step", "ns"),
    ("walk.states_returned", "states/op"),
    ("walk.amp_bytes_returned", "B/op"),
    ("walk.errors", "count"),
    ("entanglement.state_entropy.calls", "calls/op"),
    ("entanglement.state_entropy.self_s", "s/op"),
    ("entanglement.reduced_coin_density.calls", "calls/op"),
    ("entanglement.reduced_coin_density.self_s", "s/op"),
    ("entanglement.von_neumann_entropy.self_s", "s/op"),
    ("entanglement.entropy_curve.self_s", "s/op"),
    ("entanglement.errors", "count"),
    ("transport.moment_series.self_s", "s/op"),
    ("transport.ensemble_moment_series.self_s", "s/op"),
    ("transport.position_distribution.self_s", "s/op"),
    ("transport.second_moment.calls", "calls/op"),
    ("transport.second_moment.self_s", "s/op"),
    ("transport.fit_power_law.calls", "calls/op"),
    ("transport.fit_power_law.self_s", "s/op"),
    ("transport.errors", "count"),
    ("sequences.exhaustive_sweep.self_s", "s/op"),
    ("sequences.exhaustive_sweep_w1_s", "s"),
    ("sequences.exhaustive_sweep_w2_s", "s"),
    ("sequences.parallel_speedup", "ratio"),
    ("sequences.walks_evaluated", "walks/op"),
    ("sequences.sampled_sweep.self_s", "s/op"),
    ("sequences.best_sequences.self_s", "s/op"),
    ("sequences.lz_complexity.calls", "calls/op"),
    ("sequences.lz_complexity.self_s", "s/op"),
    ("sequences.entropy_of_sequence.self_s", "s/op"),
    ("sequences.errors", "count"),
    ("tomography.tomographic_entropy.calls", "calls/op"),
    ("tomography.tomographic_entropy.self_s", "s/op"),
    ("tomography.simulate_counts.self_s", "s/op"),
    ("tomography.reconstruct_site.calls", "calls/op"),
    ("tomography.reconstruct_site.self_s", "s/op"),
    ("tomography.project_to_physical.calls", "calls/op"),
    ("tomography.fidelity.calls", "calls/op"),
    ("tomography.fidelity.self_s", "s/op"),
    ("tomography.sites_reconstructed", "sites/op"),
    ("tomography.errors", "count"),
    ("io.trajectory_rows.self_s", "s/op"),
    ("io.write_csv.calls", "calls/op"),
    ("io.write_csv.self_s", "s/op"),
    ("io.write_json.calls", "calls/op"),
    ("io.write_json.self_s", "s/op"),
    ("io.rows_written", "rows/op"),
    ("io.bytes_written", "B/op"),
    ("io.errors", "count"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s/op"),
    ("cli.resolve_config.self_s", "s/op"),
    ("cli.process_overhead_s", "s"),
    ("cli.errors", "count"),
    ("trace.overhead_s", "s"),
    ("trace.op_p50_traced_s", "s"),
    ("trace.op_p50_untraced_s", "s"),
    ("trace.spans_per_op", "spans/op"),
]


def analyze(path, traced_ops: list[int]) -> dict[str, float]:
    """Per-layer counts and self times, per traced op, from a span file.

    Returns calls and self time for every wrapped function, every counter,
    the derived metrics of PER_LAYER, and ``<layer>.errors``: spans that
    raised into a caller outside their own layer (or into the benchmark).
    Metrics of a layer the workload never called read 0.
    """
    data = np.load(path)
    names = [str(n) for n in data["names"]]
    fn, op, parent = data["fn"], data["op"], data["parent"]
    dur = (data["end"] - data["start"]).astype(np.float64) * 1e-9
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fn))
    self_time = dur - child

    n_ops = max(len(traced_ops), 1)
    in_op = np.isin(op, np.asarray(traced_ops, dtype=np.int64))
    calls = np.bincount(fn[in_op], minlength=len(names))
    selfs = np.bincount(fn[in_op], weights=self_time[in_op], minlength=len(names))

    out: dict[str, float] = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = calls[k] / n_ops
        out[f"{name}.self_s"] = selfs[k] / n_ops

    counter_in_op = np.isin(data["counter_op"], np.asarray(traced_ops, dtype=np.int64))
    totals: dict[str, float] = {}
    for name, value in zip(data["counter_name"][counter_in_op], data["counter_value"][counter_in_op]):
        totals[str(name)] = totals.get(str(name), 0.0) + float(value)
    out.update({name: total / n_ops for name, total in totals.items()})

    layer_of = np.array([n.split(".")[0] for n in names] + [""], dtype=object)
    span_layer = layer_of[fn]
    parent_layer = layer_of[np.where(has_parent, fn[np.maximum(parent, 0)], len(names))]
    crossed = (data["raised"] == 1) & (span_layer != parent_layer)
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(np.sum(crossed & (span_layer == layer)))

    site_steps = out.get("walk.site_steps", 0.0)
    kernel = sum(out.get(f"walk.{f}.self_s", 0.0) for f in ("evolve", "step", "shift"))
    out["walk.ns_per_site_step"] = kernel / site_steps * 1e9 if site_steps else 0.0

    sweep = names.index("sequences.exhaustive_sweep") if "sequences.exhaustive_sweep" in names else -1
    w1 = dur[(fn == sweep) & (op == CHECK_OP)]
    w2 = dur[(fn == sweep) & (op == (traced_ops[0] if traced_ops else NO_OP))]
    out["sequences.exhaustive_sweep_w1_s"] = float(w1[0]) if len(w1) else 0.0
    out["sequences.exhaustive_sweep_w2_s"] = float(w2[0]) if len(w2) else 0.0
    out["sequences.parallel_speedup"] = (
        float(w1[0] / w2[0]) if len(w1) and len(w2) else 0.0
    )
    out["trace.spans_per_op"] = float(np.sum(in_op)) / n_ops
    return out
