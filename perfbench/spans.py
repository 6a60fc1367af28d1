"""Span tracer that measures chamferlab's layers from outside the program.

``Tracer.install`` replaces each public function in TARGETS with a wrapper at
every ``chamferlab`` module attribute that binds it (``chamferlab.metrics``
imports ``nearest_neighbors`` from ``chamferlab.cloud``, so both bindings are
wrapped), and methods on their class. Each wrapper records one span: group,
start, end, parent span, op id and the work the call was given. Spans stay in
memory; ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import os
import sys
import time
from collections import defaultdict

PACKAGE = "chamferlab"

# group -> accounting layer. A span counts toward its group only when no
# ancestor span belongs to the same layer, so read_cloud -> read_xyz counts once
# and fidelity's inner cd_local counts as fidelity, while an NN pass inside a
# metric still counts as an NN pass.
GROUPS = {
    "nn": "cloud.nn",
    "index": "cloud.index",
    "points": "cloud.points",
    "read": "io",
    "write": "io",
    **{
        g: "metrics"
        for g in ("chamfer", "dcd", "fscore", "hausdorff", "fidelity", "emd_exact", "sinkhorn", "p2m")
    },
    **{g: "objective" for g in ("fcd", "grad", "uncertainty", "schedule")},
    "descent": "descent",
    "cli": "cli",
}


def _arg(fn, name):
    """Getter for argument ``name`` of ``fn`` from (args, kwargs), honouring defaults."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index(name)
    default = params[pos].default

    def get(args, kwargs):
        if len(args) > pos:
            return args[pos]
        value = kwargs.get(name, default)
        if value is inspect.Parameter.empty:
            raise KeyError(name)
        return value

    return get


def _rows(name):
    def make(fn):
        get = _arg(fn, name)
        return lambda args, kwargs, result: len(get(args, kwargs))

    return make


def _cells(fn):
    p, g = _arg(fn, "p"), _arg(fn, "g")
    return lambda args, kwargs, result: len(p(args, kwargs)) * len(g(args, kwargs))


def _cell_iters(fn):
    p, g, it = _arg(fn, "p"), _arg(fn, "g"), _arg(fn, "iterations")
    return lambda a, k, result: it(a, k) * len(p(a, k)) * len(g(a, k))


def _mesh_pairs(fn):
    p, mesh = _arg(fn, "p"), _arg(fn, "mesh")
    return lambda args, kwargs, result: len(p(args, kwargs)) * len(mesh(args, kwargs))


def _file_bytes(fn):
    path = _arg(fn, "path")
    return lambda args, kwargs, result: os.path.getsize(path(args, kwargs))


def _steps_records(fn):
    config = _arg(fn, "config")
    return lambda args, kwargs, result: (config(args, kwargs).steps, len(result[1].records))


# (module, attribute or Class.method, group, work extractor factory or None)
TARGETS = (
    ("cloud", "nearest_neighbors", "nn", _rows("queries")),
    ("cloud", "NNIndex.query_many", "nn", _rows("queries")),
    ("cloud", "nearest_hit_counts", "nn", _rows("queries")),
    ("cloud", "build_index", "index", None),
    ("cloud", "PointCloud.__post_init__", "points", None),
    ("io", "read_cloud", "read", _file_bytes),
    ("io", "read_xyz", "read", _file_bytes),
    ("io", "read_ply", "read", _file_bytes),
    ("io", "read_ply_mesh", "read", _file_bytes),
    ("io", "write_xyz", "write", None),
    ("metrics", "cd_local", "chamfer", None),
    ("metrics", "cd_global", "chamfer", None),
    ("metrics", "chamfer_l1", "chamfer", None),
    ("metrics", "chamfer_l2", "chamfer", None),
    ("metrics", "dcd", "dcd", None),
    ("metrics", "fscore", "fscore", None),
    ("metrics", "hausdorff", "hausdorff", None),
    ("metrics", "fidelity", "fidelity", None),
    ("metrics", "emd_exact", "emd_exact", _cells),
    ("metrics", "emd_approx", "sinkhorn", _cell_iters),
    ("metrics", "point_to_mesh", "p2m", _mesh_pairs),
    ("objective", "fcd", "fcd", None),
    ("objective", "fcd_gradient", "grad", None),
    ("objective", "dcd_gradient", "grad", None),
    ("objective", "uncertainty_loss", "uncertainty", None),
    ("objective", "schedule_weights", "schedule", None),
    ("descent", "optimize", "descent", _steps_records),
    ("cli", "main", "cli", None),
)

# (name, unit, better): every per-layer metric the traced run reports, per op
# unless the unit is "ratio"
PER_LAYER = (
    ("cloud.nn_passes", "count", "lower"),
    ("cloud.nn_rows", "count", "lower"),
    ("cloud.nn_s", "s", "lower"),
    ("cloud.index_builds", "count", "lower"),
    ("cloud.index_build_s", "s", "lower"),
    ("cloud.clouds_built", "count", "lower"),
    ("cloud.cloud_build_s", "s", "lower"),
    ("metrics.chamfer_s", "s", "lower"),
    ("metrics.dcd_s", "s", "lower"),
    ("metrics.fscore_s", "s", "lower"),
    ("metrics.hausdorff_s", "s", "lower"),
    ("metrics.fidelity_s", "s", "lower"),
    ("metrics.emd_exact_calls", "count", "lower"),
    ("metrics.emd_exact_cells", "count", "lower"),
    ("metrics.emd_exact_s", "s", "lower"),
    ("metrics.sinkhorn_calls", "count", "lower"),
    ("metrics.sinkhorn_cell_iters", "count", "lower"),
    ("metrics.sinkhorn_s", "s", "lower"),
    ("metrics.p2m_pairs", "count", "lower"),
    ("metrics.p2m_s", "s", "lower"),
    ("objective.fcd_calls", "count", "lower"),
    ("objective.fcd_s", "s", "lower"),
    ("objective.grad_calls", "count", "lower"),
    ("objective.grad_s", "s", "lower"),
    ("objective.uncertainty_s", "s", "lower"),
    ("objective.schedule_s", "s", "lower"),
    ("descent.steps", "count", "lower"),
    ("descent.records", "count", "lower"),
    ("descent.self_s", "s", "lower"),
    ("descent.nn_passes_per_step", "ratio", "lower"),
    ("io.read_calls", "count", "lower"),
    ("io.read_bytes", "B", "lower"),
    ("io.read_s", "s", "lower"),
    ("io.write_bytes", "B", "lower"),
    ("io.write_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_util", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# The per-layer metrics of the result line: a number on every workload. Counts
# are 0 where a workload never calls their functions; times are kept only where
# every workload spends some, plus the two layer totals, so the times that only
# some workloads have (Sinkhorn, p2m, objective, descent self time, ...) are
# reported in the detail line alone.
RESULT_LAYER = (
    ("cloud.nn_passes", "count", "lower"),
    ("cloud.nn_rows", "count", "lower"),
    ("cloud.nn_s", "s", "lower"),
    ("cloud.index_builds", "count", "lower"),
    ("cloud.clouds_built", "count", "lower"),
    ("cloud.cloud_build_s", "s", "lower"),
    ("metrics.total_s", "s", "lower"),
    ("metrics.chamfer_s", "s", "lower"),
    ("metrics.dcd_s", "s", "lower"),
    ("metrics.emd_exact_calls", "count", "lower"),
    ("metrics.emd_exact_cells", "count", "lower"),
    ("metrics.sinkhorn_calls", "count", "lower"),
    ("metrics.sinkhorn_cell_iters", "count", "lower"),
    ("metrics.p2m_pairs", "count", "lower"),
    ("objective.fcd_calls", "count", "lower"),
    ("objective.grad_calls", "count", "lower"),
    ("descent.steps", "count", "lower"),
    ("descent.records", "count", "lower"),
    ("io.total_s", "s", "lower"),
    ("io.read_calls", "count", "lower"),
    ("io.read_bytes", "B", "lower"),
    ("io.write_bytes", "B", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.cpu_util", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)
# layer totals of the result line -> the detail metrics they add up
TOTALS = {
    "metrics.total_s": tuple(m for m, u, _ in PER_LAYER if m.startswith("metrics.") and u == "s"),
    "io.total_s": ("io.read_s", "io.write_s"),
}

# metric -> (group, statistic) for the metrics read straight off the spans;
# statistic is "count", "time", "self" or an index into the work value
FROM_SPANS = {
    "cloud.nn_passes": ("nn", "count"),
    "cloud.nn_rows": ("nn", 0),
    "cloud.nn_s": ("nn", "time"),
    "cloud.index_builds": ("index", "count"),
    "cloud.index_build_s": ("index", "time"),
    "cloud.clouds_built": ("points", "count"),
    "cloud.cloud_build_s": ("points", "time"),
    "metrics.chamfer_s": ("chamfer", "time"),
    "metrics.dcd_s": ("dcd", "time"),
    "metrics.fscore_s": ("fscore", "time"),
    "metrics.hausdorff_s": ("hausdorff", "time"),
    "metrics.fidelity_s": ("fidelity", "time"),
    "metrics.emd_exact_calls": ("emd_exact", "count"),
    "metrics.emd_exact_cells": ("emd_exact", 0),
    "metrics.emd_exact_s": ("emd_exact", "time"),
    "metrics.sinkhorn_calls": ("sinkhorn", "count"),
    "metrics.sinkhorn_cell_iters": ("sinkhorn", 0),
    "metrics.sinkhorn_s": ("sinkhorn", "time"),
    "metrics.p2m_pairs": ("p2m", 0),
    "metrics.p2m_s": ("p2m", "time"),
    "objective.fcd_calls": ("fcd", "count"),
    "objective.fcd_s": ("fcd", "time"),
    "objective.grad_calls": ("grad", "count"),
    "objective.grad_s": ("grad", "time"),
    "objective.uncertainty_s": ("uncertainty", "time"),
    "objective.schedule_s": ("schedule", "time"),
    "descent.steps": ("descent", 0),
    "descent.records": ("descent", 1),
    "descent.self_s": ("descent", "self"),
    "io.read_calls": ("read", "count"),
    "io.read_bytes": ("read", 0),
    "io.read_s": ("read", "time"),
    "io.write_s": ("write", "time"),
    "cli.self_s": ("cli", "self"),
}

# the group whose functions must have run in a workload for each metric to be
# reported; io.write_bytes and cli.cpu_util are measured by the client around
# whole ops
GROUP_OF = {name: group for name, (group, _) in FROM_SPANS.items()}
GROUP_OF.update({"descent.nn_passes_per_step": "descent", "io.write_bytes": "write", "cli.cpu_util": "cli"})


class Tracer:
    """Wraps the TARGETS of an imported chamferlab and records their spans."""

    def __init__(self):
        # (group, start, end, parent index or -1, op id, work or None)
        self.spans: list[tuple] = []
        self.current = -1
        self.op = -1
        self.missing: list[str] = []  # TARGETS that no longer exist
        self._patches: list[tuple] = []

    def _wrap(self, fn, group, work):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current
            index = len(spans)
            spans.append(None)
            self.current = index
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.current = parent
                spans[index] = (group, start, end, parent, self.op, None)
            if work is not None:
                try:
                    amount = work(args, kwargs, result)
                except (LookupError, AttributeError, TypeError, ValueError, OSError):
                    amount = None  # the signature changed: report the work as absent
                spans[index] = (group, start, end, parent, self.op, amount)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]
        self.missing = []
        for module, attr, group, work in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = vars(owner).get(name) if owner is not None else None
            if not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            try:
                extractor = work(fn) if work is not None else None
            except (ValueError, TypeError):  # argument renamed or removed
                extractor = None
            wrapper = self._wrap(fn, group, extractor)
            owners = [owner] if owner_name else modules
            for target in owners:
                for binding, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, binding, wrapper)
                        self._patches.append((target, binding, fn))

    def uninstall(self) -> None:
        while self._patches:
            target, binding, fn = self._patches.pop()
            setattr(target, binding, fn)

    def write(self, path) -> None:
        """Write every span as gzip CSV: group,start,end,parent,op,work."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("group,start,end,parent,op,work\n")
            for s in self.spans:
                work = "" if s[5] is None else str(s[5]).replace(",", ";")
                fh.write(f"{s[0]},{s[1]!r},{s[2]!r},{s[3]},{s[4]},{work}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def op_metrics(spans: list[tuple], groups_present: set[str]) -> dict[str, float | None]:
    """Per-layer metrics of one op from its spans (indices are into ``spans``).

    A metric is None (absent) when none of its group's functions exist.
    """
    counted = []
    in_descent = []
    for s in spans:
        ancestors, p = set(), s[3]
        while p >= 0:
            ancestors.add(spans[p][0])
            p = spans[p][3]
        counted.append(all(GROUPS[a] != GROUPS[s[0]] for a in ancestors))
        in_descent.append("descent" in ancestors)
    selfs = self_times(spans)

    stats: dict[str, dict] = defaultdict(lambda: {"count": 0, "time": 0.0, "self": 0.0, 0: 0, 1: 0})
    for s, keep, own in zip(spans, counted, selfs):
        if not keep:
            continue
        st = stats[s[0]]
        st["count"] += 1
        st["time"] += s[2] - s[1]
        st["self"] += own
        work = s[5] if isinstance(s[5], tuple) else (s[5],)
        for k, amount in enumerate(work):
            st[k] = None if amount is None or st[k] is None else st[k] + amount
    out: dict[str, float | None] = {}
    for name, (group, stat) in FROM_SPANS.items():
        out[name] = stats[group][stat] if group in groups_present else None
    steps = out["descent.steps"]
    nn_in_descent = sum(1 for s, keep, d in zip(spans, counted, in_descent) if keep and d and s[0] == "nn")
    out["descent.nn_passes_per_step"] = (
        nn_in_descent / steps if steps and "nn" in groups_present else None
    )
    return out


def groups_present(missing: list[str]) -> set[str]:
    """Groups with at least one wrapped function, given the TARGETS that were missing."""
    return {group for module, attr, group, _ in TARGETS if f"{module}.{attr}" not in missing}
