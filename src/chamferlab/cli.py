"""Command-line interface: metrics, schedule, sweep, optimize, batch, ambiguity."""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .analysis import build_ambiguity_pair, default_sweep_config, sweep, sweep_to_csv
from .cloud import PointCloud, _check_int
from .descent import (
    OBJECTIVE_KINDS,
    ObjectiveSpec,
    OptimizerConfig,
    clustered_grid_benchmark,
    optimize,
)
from .errors import InvalidInputError, NumericalError
from .io import read_cloud, read_ply_mesh, write_xyz
from .metrics import EMD_EXACT_MAX, MetricReport, report
from .objective import SCHEDULE_KINDS, FcdWeights, ScheduleSpec, UncertaintyState, schedule_weights

EXIT_OK = 0
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(args: argparse.Namespace, input_paths: list[str]) -> str:
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "config") and v is not None
    }
    payload = {
        "version": __version__,
        "command": args.command,
        "flags": flags,
        "seed": flags.get("seed"),
        "inputs": {p: _sha256(p) for p in sorted(input_paths)},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(path: Path, content: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def _emit(args: argparse.Namespace, content: str, inputs: list[str]) -> None:
    """Write content to --out plus a sibling manifest, or to stdout without --out."""
    if args.out:
        _write(Path(args.out), content)
        _write(Path(args.out).with_suffix(".manifest.json"), _manifest(args, inputs))
    else:
        sys.stdout.write(content)


def _emit_dir(args: argparse.Namespace, files: dict[str, str | PointCloud],
              inputs: list[str]) -> None:
    """Write each named artifact (text, or a cloud as XYZ), then manifest.json, into --out-dir."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if isinstance(content, PointCloud):
            write_xyz(out / name, content)
        else:
            _write(out / name, content)
    _write(out / "manifest.json", _manifest(args, inputs))


def _schedule_from_args(args: argparse.Namespace, kind: str) -> ScheduleSpec:
    """The schedule the --theta/--tau/--t/--T/--sigma flags describe for this kind."""
    return ScheduleSpec(kind=kind, theta=args.theta, tau=args.tau, t=args.t, T=args.T,
                        sigma=args.sigma)


def _report_from_args(args: argparse.Namespace, pred, gt, mesh=None, partial=None) -> MetricReport:
    """The report the --fscore-threshold/--dcd-temperature/--emd-* flags describe."""
    sinkhorn = (args.emd_iterations, args.emd_epsilon) if args.emd_approx else None
    return report(pred, gt, args.fscore_threshold, args.dcd_temperature, sinkhorn,
                  mesh=mesh, partial=partial)


def cmd_metrics(args: argparse.Namespace) -> int:
    pred = read_cloud(args.pred)
    gt = read_cloud(args.gt)
    mesh = read_ply_mesh(args.mesh) if args.mesh else None
    partial = read_cloud(args.partial_input) if args.partial_input else None
    result = _report_from_args(args, pred, gt, mesh=mesh, partial=partial)
    print(result.to_json())
    csv_text = result.csv_header() + "\n" + result.csv_row() + "\n"
    if args.csv:
        _write(Path(args.csv), csv_text)
    if args.out_dir:
        inputs = [args.pred, args.gt] + [p for p in (args.mesh, args.partial_input) if p]
        _emit_dir(args, {"report.json": result.to_json() + "\n", "report.csv": csv_text}, inputs)
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    spec = _schedule_from_args(args, args.kind)
    state = UncertaintyState.initial(spec.tau, spec.theta) if spec.kind == "uncertainty" else None
    lines = ["epoch,alpha,beta"]
    for epoch in range(spec.T + 1):
        w = schedule_weights(spec, epoch, state)
        lines.append(f"{epoch},{w.alpha!r},{w.beta!r}")
    _emit(args, "\n".join(lines) + "\n", [])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    weights = FcdWeights(args.alpha, args.beta)
    config = default_sweep_config(weights, args.x_min, args.x_max, args.x_step)
    _emit(args, sweep_to_csv(sweep(config), config), [])
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    if args.benchmark:
        if args.init or args.target:
            raise InvalidInputError("--benchmark builds both clouds; drop --init and --target")
        if args.benchmark != "clustered-grid":
            raise InvalidInputError(f"unknown benchmark {args.benchmark!r}")
        init, target = clustered_grid_benchmark(seed=args.seed)
        inputs: list[str] = []
    else:
        if not (args.init and args.target):
            raise InvalidInputError("pass --benchmark or both --init and --target")
        init = read_cloud(args.init)
        target = read_cloud(args.target)
        inputs = [args.init, args.target]

    # --alpha/--beta apply only to fcd without a schedule; elsewhere they go unchecked
    fixed_fcd = args.objective == "fcd" and args.schedule is None
    weights = FcdWeights(args.alpha, args.beta) if fixed_fcd else None
    objective = ObjectiveSpec(
        kind=args.objective, weights=weights, r=args.r, dcd_temperature=args.dcd_temperature
    )
    schedule = None if args.schedule is None else _schedule_from_args(args, args.schedule)
    config = OptimizerConfig(
        steps=args.steps,
        step_size=args.step_size,
        momentum_coeff=args.momentum if args.update_rule == "momentum" else 0.0,
        seed=args.seed,
        record_every=args.record_every,
    )
    try:
        pinned = [int(i) for i in args.pin.split(",")] if args.pin else None
    except ValueError as exc:
        raise InvalidInputError(f"--pin expects comma-separated integers, got {args.pin!r}") from exc
    final, trace = optimize(init, target, objective, config, schedule=schedule, pinned=pinned)
    _emit_dir(args, {"final.xyz": final, "trace.csv": trace.to_csv()}, inputs)
    return EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    _check_int("--parallelism", args.parallelism, 1)
    if not args.pred_suffix:
        raise InvalidInputError("--pred-suffix must not be empty")
    if args.gt_suffix == args.pred_suffix:  # each file would pair with itself
        raise InvalidInputError(f"--pred-suffix and --gt-suffix are equal ({args.pred_suffix!r})")
    root = Path(args.dir)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    pred_paths = sorted(root.glob(args.pred_glob))
    pairs = []
    for pred_path in pred_paths:
        head, found, tail = pred_path.name.rpartition(args.pred_suffix)
        if not found:
            raise InvalidInputError(
                f"{pred_path.name}: cannot derive ground-truth name "
                f"(suffix {args.pred_suffix!r} not found)"
            )
        gt_path = pred_path.with_name(head + args.gt_suffix + tail)  # only the last occurrence
        if not gt_path.exists():
            raise FileNotFoundError(f"missing ground truth for {pred_path.name}: {gt_path}")
        pairs.append((pred_path, gt_path))

    def row(pair: tuple[Path, Path]) -> str:
        result = _report_from_args(args, read_cloud(pair[0]), read_cloud(pair[1]))
        return f"{pair[0].name},{result.csv_row()}"

    lines = ["file," + MetricReport.csv_header()]
    with concurrent.futures.ThreadPoolExecutor(max_workers=args.parallelism) as pool:
        lines.extend(pool.map(row, pairs))  # map preserves input order
    _emit(args, "\n".join(lines) + "\n", [str(p) for pair in pairs for p in pair])
    return EXIT_OK


def cmd_ambiguity(args: argparse.Namespace) -> int:
    clustered, uniform, target, result = build_ambiguity_pair(
        args.n, args.seed, temperature=args.temperature
    )
    report_json = json.dumps(asdict(result), sort_keys=True, indent=2) + "\n"
    _emit_dir(args, {"clustered.xyz": clustered, "uniform.xyz": uniform, "target.xyz": target,
                     "report.json": report_json}, [])
    return EXIT_OK


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--theta", type=float, default=2.0, help="upper weight bound")
    parser.add_argument("--tau", type=float, default=1.0, help="lower weight bound")
    parser.add_argument("--t", type=int, default=200, help="transition epoch")
    parser.add_argument("--T", type=int, default=400, help="total epochs")
    parser.add_argument("--sigma", type=float, default=200.0, help="exponential decay rate")


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fscore-threshold", type=float, default=0.01)
    parser.add_argument("--dcd-temperature", type=float, default=1000.0)
    parser.add_argument("--emd-approx", action="store_true", help="allow the entropic EMD where "
                        f"exact EMD cannot run: unequal sizes, or over {EMD_EXACT_MAX} points")
    parser.add_argument("--emd-iterations", type=int, default=1000)
    parser.add_argument("--emd-epsilon", type=float, default=0.01)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chamferlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"chamferlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metrics", help="compare two point-cloud files")
    p.add_argument("pred")
    p.add_argument("gt")
    p.add_argument("--mesh", help="ASCII PLY mesh for point-to-mesh distance")
    p.add_argument("--partial-input", help="partial input cloud for the fidelity metric")
    _add_report_flags(p)
    p.add_argument("--csv", help="also write the report as a CSV file")
    p.add_argument("--out-dir", help="write report.json, report.csv, and a manifest here")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("schedule", help="dump (epoch, alpha, beta) rows for a schedule")
    p.add_argument("--kind", required=True, choices=SCHEDULE_KINDS)
    _add_schedule_flags(p)
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("sweep", help="free-point value/gradient sweep CSV")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--x-min", type=float, default=0.6)
    p.add_argument("--x-max", type=float, default=3.4)
    p.add_argument("--x-step", type=float, default=0.1)
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="gradient-descend a cloud onto a target")
    p.add_argument("--benchmark", help="named benchmark (clustered-grid)")
    p.add_argument("--init", help="initial cloud file")
    p.add_argument("--target", help="target cloud file")
    p.add_argument("--objective", default="fcd", choices=OBJECTIVE_KINDS)
    p.add_argument("--alpha", type=float, default=1.0, help="fcd weight, unused under --schedule")
    p.add_argument("--beta", type=float, default=2.0, help="fcd weight, unused under --schedule")
    p.add_argument("--r", type=int, default=1, choices=(1, 2),
                   help="fcd distance order, unused by cd-l1, cd-l2 and dcd-loss")
    p.add_argument("--dcd-temperature", type=float, default=1000.0,
                   help="the dcd-loss objective's temperature (the trace's dcd column uses 1000)")
    p.add_argument("--schedule", choices=SCHEDULE_KINDS, help="weight schedule for fcd")
    _add_schedule_flags(p)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--step-size", type=float, default=0.05)
    p.add_argument("--update-rule", default="plain", choices=("plain", "momentum"))
    p.add_argument("--momentum", type=float, default=0.0, help="only with --update-rule momentum")
    p.add_argument("--record-every", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--pin", help="comma-separated point indices to freeze")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("batch", help="metric table over a directory of cloud pairs")
    p.add_argument("--dir", required=True)
    p.add_argument("--pred-glob", default="*_pred.xyz")
    p.add_argument("--pred-suffix", default="_pred")
    p.add_argument("--gt-suffix", default="_gt")
    p.add_argument("--parallelism", type=int, default=1)
    _add_report_flags(p)
    p.add_argument("--out", help="CSV output path (stdout if omitted)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("ambiguity", help="build the equal-Chamfer clustered/uniform pair")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--temperature", type=float, default=None)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_ambiguity)

    for sp in sub.choices.values():
        sp.add_argument("--config", action=_ConfigAction,
                        help="JSON file of default flag values (flags win)")
    return parser


class _ConfigFound(Exception):
    """Stops the first parse at --config, before argparse checks required flags.
    Its args are the action and the path."""


class _ConfigAction(argparse.Action):
    """--config PATH. The subcommand's own parser resolves the flag, so a prefix
    means --config only where it means that to argparse (``--c`` is ambiguous in
    ``metrics``, which also has ``--csv``). Until the file's flags are in argv the
    action stops the parse; then it stores the path."""

    expanded = False

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            parser.error("--config may be given only once")
        if values and not self.expanded:  # an empty path names no file
            raise _ConfigFound(self, values)
        setattr(namespace, self.dest, values)


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv. Each --config entry becomes the flag it names, placed right after
    the subcommand, and argv is parsed again, so an entry parses like a typed flag,
    may supply a required one, and explicit flags win. ``true`` gives the bare flag;
    ``false`` and ``null`` give nothing."""
    try:
        return parser.parse_args(argv)
    except _ConfigFound as found:
        action, path = found.args
        with open(path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, dict):
            raise InvalidInputError("config file must hold a JSON object")
        flags = [
            "--" + key.replace("_", "-") + ("" if value is True else f"={value}")
            for key, value in entries.items()
            if value is not False and value is not None
        ]
        action.expanded = True
        return parser.parse_args(argv[:1] + flags + argv[1:])  # argv[0] is the subcommand


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.func(args)
    except (InvalidInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
