"""Turning op records into the benchmark's metrics, and describing the machine."""

from __future__ import annotations

import math
import os
import platform
import statistics
from pathlib import Path

import numpy
import scipy

from . import spans

TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) of the highest nearest-rank
    percentile that still has TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples no percentile at or above the median
    qualifies; the median is reported and the returned count says how many
    samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n >= 2 * TAIL_BEYOND else math.ceil(n / 2)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(
    result: dict, setups: list[float], period: int, failed: int, attempted: int
) -> tuple[dict, dict]:
    """End-to-end metric values and the notes that qualify them."""
    ops = result["ops"]
    latencies = [op["end"] - op["start"] for op in ops]
    whole = len(ops) // period * period or len(ops)  # ops in whole rotation cycles
    wall = ops[whole - 1]["end"] - ops[0]["start"]
    tail_value, tail_pct, beyond = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": whole / wall,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "success_ratio": 1.0 - failed / attempted,
    }
    notes = {
        "samples": len(ops),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": beyond,
        "ops_per_s_ops": whole,
        "fail_ratio": failed / attempted,
        "setup_samples_s": setups,
    }
    return metrics, notes


def per_layer(traced: list[dict], weights: dict[str, float], overhead: float) -> tuple[dict, dict]:
    """Per-op layer metrics, averaged per op kind and weighted by the kind mix.

    A metric is None (absent) when the workload never called the functions it
    measures, or when they no longer exist.
    """
    groups_run = set().union(*(op["groups"] for op in traced))
    kinds: dict[str, list[dict]] = {}
    for op in traced:
        kinds.setdefault(op["kind"], []).append(op)
    total = sum(weights[k] for k in kinds)

    def mix(value) -> float | None:
        per_kind = {k: [value(op) for op in ops] for k, ops in kinds.items()}
        if any(v is None for vs in per_kind.values() for v in vs):
            return None
        return sum(weights[k] * statistics.fmean(vs) for k, vs in per_kind.items()) / total

    out = {}
    for name, _unit, _better in spans.PER_LAYER:
        if name == "trace.overhead_ratio":
            out[name] = overhead
        elif spans.GROUP_OF[name] in groups_run:
            out[name] = mix(lambda op: op["layers"][name])
        else:
            out[name] = None
    wall = mix(lambda op: op["end"] - op["start"])
    shares = {
        f"{name}/op_wall": out[name] / wall
        for name in ("cloud.nn_s", "metrics.sinkhorn_s", "metrics.p2m_s", "metrics.emd_exact_s", "io.read_s")
        if out[name] is not None
    }
    shares["traced_op_wall_s"] = wall
    return out, shares


def result_layer(layers: dict) -> dict[str, float]:
    """The result line's per-layer values: a number for every metric of
    ``spans.RESULT_LAYER``, 0 for work the workload never did."""
    out = {}
    for name, _unit, _better in spans.RESULT_LAYER:
        parts = [layers[m] for m in spans.TOTALS.get(name, (name,))]
        out[name] = float(sum(v for v in parts if v is not None))
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                out[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_rev(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(root: Path) -> dict:
    """The machine and software a result was measured on."""
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_rev": _git_rev(root),
    }
