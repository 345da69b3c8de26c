"""Spans around the public functions of mcident, for the traced run.

The tracer replaces a traced function in every mcident module that binds it
(``mcident.identity.iid_generate``, ``mcident.cli.simulate``, ...), so calls
made inside the package are seen as well as the benchmark's own calls.
Spans (name, start, end, parent) and the counts taken at the same boundary
are kept in memory and written out when the run ends. The package itself is
not changed.

Per-layer figures are given per round of the workload, so runs of different
length and commits compare directly.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from math import ceil


def _simulate_counts(args, result):
    return {"steps": len(result)}


def _iid_generate_counts(args, result):
    return {"samples": 0 if result is None else len(result), "states_in": len(args["traj"])}


def _iid_test_counts(args, result):
    # The documented bootstrap size of iid_test: ceil(20 / delta) histograms.
    return {"samples_in": len(args["samples"]), "bootstrap_draws": ceil(20.0 / args["delta"])}


def _lazify_counts(args, result):
    return {"ticks_out": len(result)}


def _lp_counts(args, result):
    return {"nodes": len(result.I) - len(result.T) + (1 if result.T else 0)}


def _save_trajectory_counts(args, result):
    return {"bytes": os.path.getsize(args["path"])}


# Traced functions, named "<module>.<function>" after the module that defines
# them. Each maps to a function (bound arguments, result) -> counts, or None.
TRACED = {
    "sampling.simulate": _simulate_counts,
    "sampling.iid_generate": _iid_generate_counts,
    "iid_test.iid_test": _iid_test_counts,
    "metrics.induced_distribution": None,
    "metrics.chain_distance": None,
    "identity.identity_test": None,
    "identity.lazify_trajectory": _lazify_counts,
    "identity.property_suite": None,
    "partition.partition_states": None,
    "partition.solve_spccc_lp": _lp_counts,
    "partition.find_comp": None,
    "partition.bourgain_embed": None,
    "partition.round_to_cut": None,
    "simplex.solve_lp": None,
    "chain_core.stationary_distribution": None,
    "chain_core.matrix_power": None,
    "fileio.save_trajectory": _save_trajectory_counts,
    "fileio.load_trajectory": None,
    "fileio.write_report": None,
    "fileio.file_digest": None,
    "cli.main": None,
}

# Per-layer metrics: (name, unit, better). BENCHMARK.json lists the same.
PER_LAYER = [
    ("sampling.simulate.busy_s", "s", "lower"),
    ("sampling.simulate.steps", "count", "lower"),
    ("sampling.simulate.steps_per_s", "1/s", "higher"),
    ("sampling.iid_generate.busy_s", "s", "lower"),
    ("sampling.iid_generate.calls", "count", "lower"),
    ("sampling.iid_generate.samples", "count", "lower"),
    ("sampling.iid_generate.converted_ratio", "ratio", "higher"),
    ("iid_test.iid_test.busy_s", "s", "lower"),
    ("iid_test.iid_test.calls", "count", "lower"),
    ("iid_test.iid_test.samples_in", "count", "lower"),
    ("iid_test.iid_test.bootstrap_draws", "count", "lower"),
    ("metrics.induced_distribution.busy_s", "s", "lower"),
    ("identity.identity_test.busy_s", "s", "lower"),
    ("identity.identity_test.self_s", "s", "lower"),
    ("identity.lazify_trajectory.busy_s", "s", "lower"),
    ("identity.lazify_trajectory.ticks_out", "count", "lower"),
    ("identity.property_suite.self_s", "s", "lower"),
    ("partition.partition_states.busy_s", "s", "lower"),
    ("partition.partition_states.self_s", "s", "lower"),
    ("partition.partition_states.calls", "count", "lower"),
    ("partition.solve_spccc_lp.busy_s", "s", "lower"),
    ("partition.solve_spccc_lp.calls", "count", "lower"),
    ("partition.solve_spccc_lp.max_s", "s", "lower"),
    ("partition.solve_spccc_lp.nodes_max", "count", "lower"),
    ("simplex.solve_lp.busy_s", "s", "lower"),
    ("partition.find_comp.calls", "count", "lower"),
    ("partition.bourgain_embed.busy_s", "s", "lower"),
    ("partition.round_to_cut.busy_s", "s", "lower"),
    ("chain_core.stationary_distribution.calls", "count", "lower"),
    ("chain_core.stationary_distribution.busy_s", "s", "lower"),
    ("metrics.chain_distance.busy_s", "s", "lower"),
    ("metrics.chain_distance.calls", "count", "lower"),
    ("chain_core.matrix_power.busy_s", "s", "lower"),
    ("fileio.save_trajectory.busy_s", "s", "lower"),
    ("fileio.load_trajectory.busy_s", "s", "lower"),
    ("fileio.trajectory_bytes", "B", "lower"),
    ("fileio.write_report.busy_s", "s", "lower"),
    ("fileio.file_digest.busy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


class Tracer:
    """Records a span for every call of a traced function while enabled."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, counts]
        self.enabled = False
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "mcident" or n.startswith("mcident.")) and m is not None]
        for name, counter in TRACED.items():
            module, fn_name = name.split(".")
            orig = getattr(sys.modules[f"mcident.{module}"], fn_name)
            sig = inspect.signature(orig) if counter else None
            wrapper = self._wrap(name, orig, counter, sig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, name, fn, counter, sig):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[4] = counter(bound.arguments, result)
            return result

        return wrapper

    def write(self, path, header: dict) -> None:
        """Write the spans as one JSON document: header fields plus rows of
        [name, start, end, parent, counts]."""
        doc = dict(header, fields=["name", "start", "end", "parent", "counts"], spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple]] = {}
    for s in spans:
        if s[3] >= 0:
            children.setdefault(s[3], []).append((s[1], s[2]))
    out = []
    for k, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(k, [])):
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s[2] - s[1]) - covered)
    return out


def layer_metrics(spans: list[list], rounds: int, overhead_share: float) -> dict:
    """Per-layer metrics per round, from the spans of `rounds` traced rounds."""
    per = max(rounds, 1)
    busy: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    longest: dict[str, float] = {}
    counts: dict[str, float] = {}
    for s, self_s in zip(spans, self_times(spans)):
        name, dur = s[0], s[2] - s[1]
        busy[name] = busy.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + self_s
        calls[name] = calls.get(name, 0) + 1
        longest[name] = max(longest.get(name, 0.0), dur)
        for key, val in (s[4] or {}).items():
            k = f"{name}.{key}"
            if key == "nodes":
                counts[k] = max(counts.get(k, 0), val)
            else:
                counts[k] = counts.get(k, 0) + val

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for metric, _, _ in PER_LAYER:
        fn, stat = metric.rsplit(".", 1)
        if stat == "busy_s":
            values[metric] = busy.get(fn, 0.0) / per
        elif stat == "self_s":
            values[metric] = own.get(fn, 0.0) / per
        elif stat == "calls":
            values[metric] = calls.get(fn, 0) / per
        elif stat == "max_s":
            values[metric] = longest.get(fn, 0.0)
        elif stat == "nodes_max":
            values[metric] = counts.get(f"{fn}.nodes", 0)
        elif stat == "steps_per_s":
            values[metric] = ratio(counts.get(f"{fn}.steps", 0), busy.get(fn, 0.0))
        elif stat == "converted_ratio":
            values[metric] = ratio(counts.get(f"{fn}.samples", 0), counts.get(f"{fn}.states_in", 0))
        elif metric == "fileio.trajectory_bytes":
            values[metric] = counts.get("fileio.save_trajectory.bytes", 0) / per
        elif metric == "trace.spans":
            values[metric] = len(spans) / per
        elif metric == "trace.overhead_share":
            values[metric] = overhead_share
        else:
            values[metric] = counts.get(metric, 0) / per
    return values
