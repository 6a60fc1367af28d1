"""chamferlab benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. For one workload it writes the inputs under
``.bench_work/``, times set-up in fresh interpreters, runs one closed-loop
client for ``--seconds``, checks every op's output against the benchmark's own
oracles, and prints a table, a ``detail:`` line and, as the last line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import oracles, spans, summary, workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
)
SETUP_PROBES = 2  # fresh interpreters timed besides the client itself
PROBE_TIMEOUT_S = 30
CLIENT_SLACK_S = 60  # time a client may run past --seconds before it is killed
WORK = ROOT / ".bench_work"


def spawn(plan: Path, result: Path, seconds: float, trace: int, probe: bool, spans_file: Path | None):
    """Run one client to completion; returns (its result, its set-up time)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "client.py"), str(plan), str(result)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        cmd.append("--probe")
    if spans_file is not None:
        cmd += ["--spans", str(spans_file)]
    timeout = PROBE_TIMEOUT_S if probe else seconds + CLIENT_SLACK_S
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"client exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    data = json.loads(result.read_text(encoding="utf-8"))
    return data, data["ready"] - started


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail)."""
    work = WORK / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = workloads.build(name, seed, work)
        plan_file = work / "plan.json"
        plan_file.write_text(plan.to_json(), encoding="utf-8")
        compileall.compile_dir(str(ROOT / "src" / "chamferlab"), quiet=1)  # as after a first run

        setups = []
        for k in range(SETUP_PROBES):
            _, setup = spawn(plan_file, work / f"probe{k}.json", seconds, 0, True, None)
            setups.append(setup)
        spans_file = WORK / f"{name}-seed{seed}-spans.csv.gz" if trace else None
        result, setup = spawn(plan_file, work / "client.json", seconds, trace, False, spans_file)
        setups.append(setup)

        checker = oracles.Checker(work)
        problems = []
        if result["warmup_rc"] != 0:
            problems.append(f"warm-up op: exit code {result['warmup_rc']}")
        failed = 0
        all_ops = result["ops"] + result["traced"]
        for op in all_ops:
            spec = plan.ops[op["op"] % len(plan.ops)]
            found = checker.check(spec, op["rc"], op["stdout"], op["artifacts"])
            if found:
                failed += 1
                problems += [f"op {op['op']} ({op['kind']}): {p}" for p in found[:3]]
                if op["stderr"]:
                    problems.append(op["stderr"][-500:])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e, notes = summary.end_to_end(result, setups, plan.period, failed, len(all_ops))
    detail = {
        "workload": name,
        "why": workloads.WHY[name],
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": summary.machine(ROOT),
        "end_to_end": e2e,
        **notes,
        "problems": problems[:20],
    }
    if trace:
        layers, shares = summary.per_layer(result["traced"], plan.weights, result["overhead_ratio"])
        detail.update(
            per_layer=layers,
            shares=shares,
            missing_functions=result["missing"],
            traced_ops=len(result["traced"]),
            span_count=result["span_count"],
            spans_file=str(spans_file.relative_to(ROOT)),
        )
        units = {m: u for m, u, _ in spans.RESULT_LAYER}
        metrics = {m: {"value": v, "unit": units[m]} for m, v in summary.result_layer(layers).items()}
    else:
        units = dict(END_TO_END)
        metrics = {m: {"value": e2e[m], "unit": units[m]} for m, _ in END_TO_END}
    line = {
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": metrics,
    }
    return line, detail


def table(line: dict, detail: dict) -> str:
    head = f"(seed {detail['seed']}, {detail['seconds']} s, trace {detail['trace']})"
    rows = [f"== {detail['workload']} {head}"]
    rows.append(f"   why: {detail['why']}")
    for name, m in line["metrics"].items():
        rows.append(f"   {name:<30} {m['value']:>14.6g} {m['unit']}")
    if not detail["trace"]:
        rows.append(f"   {'fail_ratio':<30} {detail['fail_ratio']:>14.6g} ratio")
        rows.append(
            f"   op_tail_s is p{detail['op_tail_percentile']:.4g} of {detail['samples']} ops, "
            f"{detail['op_tail_samples_beyond']} beyond it"
        )
    else:
        units = {m: u for m, u, _ in spans.PER_LAYER}
        for name, value in detail["per_layer"].items():
            if name not in line["metrics"]:
                shown = "absent" if value is None else f"{value:.6g}"
                rows.append(f"   {name:<30} {shown:>14} {units[name]}  (detail only)")
        for name, share in detail["shares"].items():
            rows.append(f"   share {name:<24} {share:>14.4g}")
    rows.append(f"   ops attempted {line['attempted']}, failed {line['failed']}, correct {line['correct']}")
    rows += [f"   problem: {p}" for p in detail["problems"]]
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "chamferlab" / "cli.py").is_file():
        print(f"error: no chamferlab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        line, detail = run_workload(name, args.seed, args.seconds, args.trace)
        print(table(line, detail))
        print("detail: " + json.dumps(detail))
        lines[name] = line
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{n}/{m}": v for n, l in lines.items() for m, v in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
