"""Spans around the program's public callables, and the layer metrics.

:func:`install` replaces each traced callable by a wrapper at every place
the program looks it up (the defining module and each ``nondim`` module
that imported the name directly), so nothing under ``src/`` changes.  A
span is (name, start, end, parent); spans stay in memory until
:meth:`Tracer.save` writes them.  :func:`layer_metrics` derives counts,
per-call times and self times from a saved trace.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans kept in arrays allocated once, up front.

    Growing Python lists would free and reallocate blocks of megabytes,
    which raises glibc's mmap and trim thresholds and so changes how the
    program's own large temporaries are allocated: a traced PBE run would
    then time a different allocator state than an untraced one.
    """

    def __init__(self, capacity: int = 2**19):
        self.names: list[str] = []
        self.name_ids = np.zeros(capacity, dtype=np.int32)
        self.starts = np.zeros(capacity)
        self.ends = np.zeros(capacity)
        self.parents = np.zeros(capacity, dtype=np.int64)
        self.size = 0
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, attrs=None, cpu=False, first_only=False):
        """``fn`` recording a span per call; ``attrs(args, kwargs, result)``
        adds numbers to the span (on the first call only if ``first_only``)."""
        name_id = self._name_id(name)
        seen = []

        def traced(*args, **kwargs):
            idx = self.size
            if idx == len(self.starts):
                raise RuntimeError(f"more than {idx} spans; raise the tracer's capacity")
            self.size += 1
            self.name_ids[idx] = name_id
            self.parents[idx] = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            cpu0 = time.process_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.starts[idx], self.ends[idx] = t0, t1
            extra = {}
            if cpu:
                extra["cpu_s"] = time.process_time() - cpu0
            if attrs is not None and not (first_only and seen):
                extra.update(attrs(args, kwargs, result))
                seen.append(True)
            if extra:
                self.attrs[idx] = extra
            return result

        traced.__wrapped__ = fn
        return traced

    def save(self, path) -> None:
        n = self.size
        np.savez(
            path,
            name_id=self.name_ids[:n], start=self.starts[:n], end=self.ends[:n],
            parent=self.parents[:n],
            names=np.array(json.dumps(self.names)),
            attrs=np.array(json.dumps({str(k): v for k, v in self.attrs.items()})),
        )


def _array_bytes(obj) -> int:
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _agg_bytes(args, kwargs, result):
    ws, dist = args[0], args[1]
    return {"bytes": _array_bytes(ws) + dist.nbytes + sum(r.nbytes for r in result)}


def _anneal_evals(args, kwargs, result):
    config = args[2] if len(args) > 2 else kwargs.get("config")
    return {"evals": 100_000 if config is None else config.max_evaluations}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def install(tracer: Tracer) -> None:
    """Wrap the traced callables of the already-imported ``nondim`` modules."""
    from nondim import odes, pbe, runio, scaling, scenarios

    functions = [
        (pbe, "simulate", "pbe.simulate",
         dict(cpu=True, attrs=lambda a, k, r: {"steps": r.settings["steps"]})),
        (pbe, "fd4_derivative", "pbe.fd4", {}),
        (pbe, "error_series", "pbe.error_series", {}),
        (scenarios, "latex_scenario", "scenarios.build", {}),
        (scaling, "solve_euclidean", "scaling.euclid", {}),
        (scaling, "enumerate_traditional", "scaling.enumerate",
         dict(attrs=lambda a, k, r: {"subsets": r.total_subsets,
                                     "solvable": r.solvable_count})),
        (scaling, "anneal_minimize", "scaling.anneal", dict(attrs=_anneal_evals)),
        (odes, "rk4_integrate", "odes.rk4",
         dict(attrs=lambda a, k, r: {"steps": len(r.times) - 1})),
        (odes, "flow_field", "odes.flow_field", {}),
        (runio, "load_problem", "runio.load", {}),
        (runio, "load_lambda_config", "runio.load", {}),
    ]
    functions += [(runio, name, "runio.write", dict(attrs=_file_bytes))
                  for name in dir(runio) if name.startswith("write_")]
    modules = [m for n, m in sys.modules.items()
               if (n == "nondim" or n.startswith("nondim.")) and m is not None]
    for module, attr, span, options in functions:
        original = getattr(module, attr)
        traced = tracer.wrap(span, original, **options)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, traced)

    ws = pbe.GmocWorkspace
    ws.__init__ = tracer.wrap(
        "pbe.workspace", ws.__init__, first_only=True,
        attrs=lambda a, k, r: {"bytes": _array_bytes(a[0])})
    ws.aggregation = tracer.wrap("pbe.aggregation", ws.aggregation,
                                 attrs=_agg_bytes, first_only=True)


# ---------------------------------------------------------------------------
# derived metrics

#: Per-layer metrics, each with its unit (the order BENCHMARK.json lists them).
LAYER_UNITS = {
    "cli.import_s": "s",
    "scenarios.build_ms": "ms",
    "pbe.steps": "count",
    "pbe.step_ms": "ms",
    "pbe.agg_calls": "count",
    "pbe.agg_us": "us",
    "pbe.agg_share": "fraction",
    "pbe.agg_mb_computed": "MB",
    "pbe.workspace_ms": "ms",
    "pbe.workspace_mb_computed": "MB",
    "pbe.fd4_us": "us",
    "pbe.rhs_other_us": "us",
    "pbe.cpu_per_wall": "s/s",
    "pbe.error_series_ms": "ms",
    "scaling.euclid_us": "us",
    "scaling.enumerate_s": "s",
    "scaling.enumerate_subsets": "count",
    "scaling.enumerate_solvable": "count",
    "scaling.anneal_evals": "count",
    "scaling.anneal_us_per_eval": "us",
    "odes.rk4_us_per_step": "us",
    "odes.flow_field_ms": "ms",
    "runio.load_ms": "ms",
    "runio.write_ms": "ms",
    "runio.bytes_written": "bytes",
}

MIB = float(2**20)


def layer_metrics(path, import_s: float) -> dict[str, float]:
    """Per-layer figures of one traced round (0 where a layer never ran)."""
    with np.load(path) as data:
        name_id, start, end = data["name_id"], data["start"], data["end"]
        parent = data["parent"]
        names = json.loads(str(data["names"]))
        attrs = {int(k): v for k, v in json.loads(str(data["attrs"])).items()}
    duration = end - start
    child_time = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time

    count = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    for i, name in enumerate(names):
        mask = name_id == i
        count[name] = int(mask.sum())
        total[name] = float(duration[mask].sum())
        self_total[name] = float(self_time[mask].sum())

    def attr_sum(span, key):
        return sum(a.get(key, 0) for i, a in attrs.items() if names[name_id[i]] == span)

    def attr_first(span, key):
        return next((a[key] for i, a in sorted(attrs.items())
                     if names[name_id[i]] == span and key in a), 0)

    def per(numerator, denominator, scale=1.0):
        return numerator * scale / denominator if denominator else 0.0

    steps = attr_sum("pbe.simulate", "steps")
    agg_calls = count["pbe.aggregation"]
    sim_wall = total["pbe.simulate"]
    evals = attr_sum("scaling.anneal", "evals")
    return {
        "cli.import_s": import_s,
        "scenarios.build_ms": total["scenarios.build"] * 1e3,
        "pbe.steps": steps,
        "pbe.step_ms": per(sim_wall, steps, 1e3),
        "pbe.agg_calls": agg_calls,
        "pbe.agg_us": per(total["pbe.aggregation"], agg_calls, 1e6),
        "pbe.agg_share": per(total["pbe.aggregation"], sim_wall),
        "pbe.agg_mb_computed": attr_first("pbe.aggregation", "bytes") / MIB,
        "pbe.workspace_ms": total["pbe.workspace"] * 1e3,
        "pbe.workspace_mb_computed": attr_first("pbe.workspace", "bytes") / MIB,
        "pbe.fd4_us": per(total["pbe.fd4"], count["pbe.fd4"], 1e6),
        "pbe.rhs_other_us": per(self_total["pbe.simulate"], agg_calls / 2, 1e6),
        "pbe.cpu_per_wall": per(attr_sum("pbe.simulate", "cpu_s"), sim_wall),
        "pbe.error_series_ms": total["pbe.error_series"] * 1e3,
        "scaling.euclid_us": per(total["scaling.euclid"], count["scaling.euclid"], 1e6),
        "scaling.enumerate_s": per(total["scaling.enumerate"], count["scaling.enumerate"]),
        "scaling.enumerate_subsets": attr_sum("scaling.enumerate", "subsets"),
        "scaling.enumerate_solvable": attr_sum("scaling.enumerate", "solvable"),
        "scaling.anneal_evals": evals,
        "scaling.anneal_us_per_eval": per(total["scaling.anneal"], evals, 1e6),
        "odes.rk4_us_per_step": per(total["odes.rk4"], attr_sum("odes.rk4", "steps"), 1e6),
        "odes.flow_field_ms": per(total["odes.flow_field"], count["odes.flow_field"], 1e3),
        "runio.load_ms": total["runio.load"] * 1e3,
        "runio.write_ms": total["runio.write"] * 1e3,
        "runio.bytes_written": attr_sum("runio.write", "bytes"),
    }
