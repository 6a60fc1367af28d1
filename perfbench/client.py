"""Closed-loop client: one fresh interpreter that runs a workload's ops in-process.

    python3 perfbench/client.py PLAN RESULT --seconds S --trace 0|1 [--probe] [--spans FILE]

It imports chamferlab from the checkout's ``src``, runs the plan's first op
once untimed, notes that moment as ``ready``, and then calls
``chamferlab.cli.main(argv)`` for op after op, each sent only when the previous
one has returned, until ``--seconds`` have passed. With ``--probe`` it stops at
``ready``. With ``--trace 1`` every op runs twice, untraced and then traced,
so the two can be compared. Outputs are collected for the caller to check;
the result is written as JSON to RESULT.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_op(cli, spec, op_id: int) -> dict:
    """Call main(argv) once and collect what the op printed and left behind."""
    out, err = io.StringIO(), io.StringIO()
    cpu0, start = time.process_time(), time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(spec.argv))
        except Exception:  # a crash is a failed op, not the end of the run
            rc = -1
            traceback.print_exc(file=err)
    end, cpu1 = time.monotonic(), time.process_time()
    artifacts = {}
    if spec.out_dir is not None and os.path.isdir(spec.out_dir):
        for path in sorted(Path(spec.out_dir).iterdir()):
            artifacts[path.name] = path.read_text(encoding="utf-8")
    return {
        "op": op_id,
        "kind": spec.kind,
        "rc": rc,
        "start": start,
        "end": end,
        "cpu": cpu1 - cpu0,
        "stdout": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
        "artifacts": artifacts,
        "write_bytes": sum(len(text.encode("utf-8")) for text in artifacts.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans here (gzip CSV)")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(ROOT))
    import chamferlab.cli as cli  # noqa: E402  (the import is part of set-up time)

    from perfbench.workloads import Plan

    plan_path = Path(args.plan).resolve()
    result_path = Path(args.result).resolve()
    plan = Plan.from_json(plan_path.read_text(encoding="utf-8"))
    os.chdir(plan_path.parent)

    warmup = run_op(cli, plan.ops[0], -1)
    ready = time.monotonic()
    result = {"ready": ready, "warmup_rc": warmup["rc"], "ops": [], "traced": []}
    if not args.probe:
        result.update(timed_loop(cli, plan, args.seconds, args.trace, args.spans))
    result["peak_rss_kib"] = peak_rss_kib()
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


def peak_rss_kib() -> int:
    """Peak resident memory of this interpreter, in KiB.

    ``ru_maxrss`` also covers the address space the process had before it
    exec'd, which for a spawned child is the spawning process's, so it is read
    only where the kernel's own high-water mark of this process (VmHWM) is not
    available.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def timed_loop(cli, plan, seconds: float, trace: int, spans_path: str | None) -> dict:
    from perfbench import spans

    tracer = spans.Tracer() if trace else None
    ops, traced = [], []
    deadline = time.monotonic() + seconds
    i = 0
    while not ops or time.monotonic() < deadline:
        spec = plan.ops[i % len(plan.ops)]
        ops.append(run_op(cli, spec, i))
        if tracer is not None:
            tracer.op = i
            tracer.install()
            try:
                traced.append(run_op(cli, spec, i))
            finally:
                tracer.uninstall()
        i += 1
    if tracer is None:
        return {"ops": ops}

    by_op: dict[int, list[tuple]] = {}
    for s in tracer.spans:
        by_op.setdefault(s[4], []).append(s)
    present = spans.groups_present(tracer.missing)
    for op in traced:
        op_spans = reindex(by_op.get(op["op"], []), tracer.spans)
        op["layers"] = spans.op_metrics(op_spans, present)
        op["layers"]["io.write_bytes"] = op["write_bytes"]
        op["layers"]["cli.cpu_util"] = op["cpu"] / (op["end"] - op["start"])
        op["groups"] = sorted({s[0] for s in op_spans})
    untraced_wall = sum(op["end"] - op["start"] for op in ops)
    traced_wall = sum(op["end"] - op["start"] for op in traced)
    if spans_path:
        tracer.write(spans_path)
    return {
        "ops": ops,
        "traced": traced,
        "overhead_ratio": traced_wall / untraced_wall,
        "missing": tracer.missing,
        "span_count": len(tracer.spans),
    }


def reindex(op_spans: list[tuple], all_spans: list[tuple]) -> list[tuple]:
    """An op's spans with parent pointers rewritten as indices into the op's own list."""
    position = {id(s): k for k, s in enumerate(op_spans)}
    out = []
    for s in op_spans:
        parent = position[id(all_spans[s[3]])] if s[3] >= 0 else -1
        out.append((s[0], s[1], s[2], parent, s[4], s[5]))
    return out


if __name__ == "__main__":
    sys.exit(main())
