"""Spans around calls into nlbox's public entry points, from outside nlbox.

`Tracer.install` replaces each entry point below with a wrapper that
records a span: name, start, end, parent span, whether it raised, and an
amount of work (bits, design-matrix rows) where one is named. A function
is replaced under every name it is bound to in every loaded nlbox module,
so calls between nlbox modules are counted too. A class is timed through
its validating ``__post_init__``. Spans stay in memory; `layer_metrics`
turns them into per-layer numbers when the run ends.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

ENTRY_POINTS = {
    "qcore": ("DensityOperator", "Povm", "born_probabilities", "trace_distance", "tensor"),
    "preparations": ("Preparation", "classify_membership", "effective_density"),
    "steering": ("hjw_assemblage", "assemblage_from", "steer"),
    "boxes": ("apply_box", "deutsch_fixed_point"),
    "witness": ("StatsTable", "fit_linear_map"),
    "protocols": ("run_bb84_attack", "run_signaling_test",
                  "run_preparation_problem_demo", "run_verification"),
    "scenario": ("parse_scenario", "run_scenario", "emit_table", "write_report"),
}

_BOX_KINDS = {"BrunBoxConfig": "brun", "KentBoxConfig": "kent",
              "DeutschBoxConfig": "deutsch", "LinearBoxConfig": "linear"}

# Entry points split by a property of their arguments: (function, names).
VARIANTS = {
    "boxes.apply_box": (lambda box, *a, **k: _BOX_KINDS[type(box.config).__name__],
                        ("brun", "kent", "deutsch", "linear")),
    "boxes.deutsch_fixed_point": (lambda config, *a, **k: f"dc{config.ctc_dim}",
                                  ("dc2", "dc4", "dc8")),
    "witness.fit_linear_map": (lambda table, *a, **k: f"d{table.input_dim}", ("d2", "d3", "d4")),
}

# Work done per call, summed into `<span>.<unit>`.
AMOUNTS = {
    "protocols.run_bb84_attack": ("bits", lambda box, n_bits, *a, **k: int(n_bits)),
    "witness.fit_linear_map": ("rows", lambda table, *a, **k: sum(
        len(row) for row in table.probabilities.values())),
}


def span_names():
    """Every span name a layer metric is reported for, in a fixed order."""
    names = []
    for module, entries in ENTRY_POINTS.items():
        for entry in entries:
            name = f"{module}.{entry}"
            variants = VARIANTS.get(name, (None, (None,)))[1]
            names += [f"{name}.{v}" if v else name for v in variants]
    return names


class Tracer:
    def __init__(self):
        self.spans = []     # (name, start, end, parent index, failed, amount)
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        variant = VARIANTS.get(name, (None,))[0]
        amount = AMOUNTS.get(name, (None, None))[1]

        def traced(*args, **kwargs):
            full = f"{name}.{variant(*args, **kwargs)}" if variant else name
            work = amount(*args, **kwargs) if amount else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (full, start, end, parent, failed, work)

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "nlbox" or n.startswith("nlbox.")]
        for module, entries in ENTRY_POINTS.items():
            mod = importlib.import_module(f"nlbox.{module}")
            for entry in entries:
                obj = getattr(mod, entry)
                name = f"{module}.{entry}"
                if isinstance(obj, type):
                    self._patch(obj, "__post_init__", self._wrap(obj.__post_init__, name))
                    continue
                wrapper = self._wrap(obj, name)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is obj:
                            self._patch(m, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def layer_metrics(spans):
    """Per-layer calls, self time, failures and work from finished spans,
    as name -> (value, unit).

    Self time is a span's duration minus the durations of its direct
    children; spans nest, because every call is synchronous.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for (name, start, end, _, failed, work), covered in zip(spans, child):
        t = totals.setdefault(name, [0, 0.0, 0, 0])
        t[0] += 1
        t[1] += end - start - covered
        t[2] += failed
        t[3] += work
    metrics = {}
    for name in span_names():
        calls, self_s, failed, work = totals.get(name, (0, 0.0, 0, 0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_ms"] = (self_s * 1e3, "ms")
        metrics[f"{name}.failed"] = (failed, "count")
        for base, (unit, _) in AMOUNTS.items():
            if name.startswith(base):
                metrics[f"{name}.{unit}"] = (work, "count")
    calls, _, failed, _ = totals.get("steering.steer", (0, 0.0, 0, 0))
    metrics["steering.steer.useful_frac"] = ((calls - failed) / calls if calls else 0.0, "ratio")
    _, self_s, _, bits = totals.get("protocols.run_bb84_attack", (0, 0.0, 0, 0))
    metrics["protocols.bb84.us_per_bit"] = (self_s * 1e6 / bits if bits else 0.0, "us")
    return metrics
