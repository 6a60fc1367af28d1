"""Workload definitions: input generation and the op rotation of each workload.

Inputs depend only on the workload seed, and the seed changes coordinates
only: every seed gives the same op mix, argv shapes and cloud sizes. The
program under test sees nothing but argv and the files written here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("descent-grid64", "report-uniform-4k", "report-full-lattice")

WHY = {
    "descent-grid64": (
        "the paper's stalemate experiment: 2000-step descent at n=64, dominated by "
        "per-step brute-force NN passes, gradients and PointCloud validation"
    ),
    "report-uniform-4k": (
        "4096 vs 3840 uniform 3D points: ten kd-tree NN passes do nearly all of a "
        "report, XYZ parsing the rest; unequal sizes skip EMD"
    ),
    "report-full-lattice": (
        "every report feature on tie-heavy lattice data: exact EMD, point-to-mesh and "
        "fidelity on 1024-point pairs, Sinkhorn on every fourth op"
    ),
}

# descent-grid64: the paper's A/B settings, cycled in this order
DESCENT_SETTINGS = (
    ("fcd-beta2", []),
    ("chamfer", ["--alpha", "1", "--beta", "1"]),
    ("uncertainty", ["--schedule", "uncertainty"]),
    ("dcd-loss", ["--objective", "dcd-loss"]),
)

UNIFORM_PRED, UNIFORM_GT, UNIFORM_POOL = 4096, 3840, 6

LATTICE_STEP = 1.0 / 32.0  # a power of two, so lattice squared distances are exact
LATTICE_DENSE, LATTICE_SMALL_PRED, LATTICE_SMALL_GT = 1024, 256, 224
LATTICE_DENSE_POOL, LATTICE_SMALL_POOL = 6, 2
MESH_SIDE = 23  # 22 x 22 quads -> 968 triangles


@dataclass
class OpSpec:
    """One entry of a workload's rotation."""

    kind: str
    argv: list[str]
    out_dir: str | None = None  # directory whose files the op leaves behind
    inputs: dict[str, str] = field(default_factory=dict)  # role -> file name


@dataclass
class Plan:
    """A workload's op rotation; op i of a run executes ops[i % len(ops)]."""

    workload: str
    seed: int
    ops: list[OpSpec]
    period: int  # ops per rotation cycle of the kind mix
    weights: dict[str, float]  # share of each op kind in one cycle

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        data = json.loads(text)
        data["ops"] = [OpSpec(**op) for op in data["ops"]]
        return cls(**data)


def write_cloud(path: Path, points: np.ndarray) -> None:
    """XYZ file with shortest round-trip reprs, so reading it back is exact."""
    lines = (" ".join(repr(c) for c in row) for row in points.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def height(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The smooth height field that the lattice workload samples."""
    return 0.25 * np.sin(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)


def write_height_mesh(path: Path) -> None:
    """ASCII PLY triangulation of the height field over the unit square."""
    axis = np.linspace(0.0, 1.0, MESH_SIDE)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    verts = np.column_stack([gx.ravel(), gy.ravel(), height(gx.ravel(), gy.ravel())])
    faces = []
    for i in range(MESH_SIDE - 1):
        for j in range(MESH_SIDE - 1):
            a, b = i * MESH_SIDE + j, (i + 1) * MESH_SIDE + j
            faces.append((a, b, b + 1))
            faces.append((a, b + 1, a + 1))
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(verts)}",
        "property float x",
        "property float y",
        "property float z",
        f"element face {len(faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    body = [" ".join(repr(c) for c in v) for v in verts.tolist()]
    body += [f"3 {a} {b} {c}" for a, b, c in faces]
    path.write_text("\n".join(header + body) + "\n", encoding="utf-8")


def lattice_points(rng: np.random.Generator, n: int, jitter: bool) -> np.ndarray:
    """n distinct lattice columns with heights snapped to the lattice.

    Coordinates are small multiples of a power of two, so many NN distances tie
    exactly. ``jitter`` moves each height by -1, 0 or +1 lattice steps.
    """
    axis = np.arange(33) * LATTICE_STEP
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    columns = np.column_stack([gx.ravel(), gy.ravel()])
    xy = columns[np.sort(rng.choice(len(columns), size=n, replace=False))]
    z = np.round(height(xy[:, 0], xy[:, 1]) / LATTICE_STEP) * LATTICE_STEP
    if jitter:
        z = z + LATTICE_STEP * rng.integers(-1, 2, size=n)
    return np.column_stack([xy, z])


def _descent(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    seeds = rng.integers(0, 2**31 - 1, size=len(DESCENT_SETTINGS)).tolist()
    ops = []
    for k, ((kind, flags), s) in enumerate(zip(DESCENT_SETTINGS, seeds)):
        out = f"out{k}"
        argv = ["optimize", "--benchmark", "clustered-grid", "--seed", str(s), *flags, "--out-dir", out]
        ops.append(OpSpec(kind=kind, argv=argv, out_dir=out))
    weights = {kind: 1.0 / len(DESCENT_SETTINGS) for kind, _ in DESCENT_SETTINGS}
    return Plan("descent-grid64", seed, ops, period=len(DESCENT_SETTINGS), weights=weights)


def _uniform(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(UNIFORM_POOL):
        pred, gt = f"u{k}_pred.xyz", f"u{k}_gt.xyz"
        write_cloud(work / pred, rng.random((UNIFORM_PRED, 3)))
        write_cloud(work / gt, rng.random((UNIFORM_GT, 3)))
        ops.append(OpSpec(kind="uniform", argv=["metrics", pred, gt], inputs={"pred": pred, "gt": gt}))
    return Plan("report-uniform-4k", seed, ops, period=1, weights={"uniform": 1.0})


def _lattice(seed: int, work: Path) -> Plan:
    rng = np.random.default_rng(seed)
    write_height_mesh(work / "surface.ply")

    def pair(name: str, n_pred: int, n_gt: int, kind: str) -> OpSpec:
        gt_pts = lattice_points(rng, n_gt, jitter=False)
        pred, gt, part = f"{name}_pred.xyz", f"{name}_gt.xyz", f"{name}_part.xyz"
        write_cloud(work / pred, lattice_points(rng, n_pred, jitter=True))
        write_cloud(work / gt, gt_pts)
        write_cloud(work / part, gt_pts[np.argsort(gt_pts[:, 0], kind="stable")[: n_gt // 2]])
        argv = ["metrics", pred, gt, "--mesh", "surface.ply", "--partial-input", part, "--emd-approx"]
        inputs = {"pred": pred, "gt": gt, "mesh": "surface.ply", "partial": part}
        return OpSpec(kind=kind, argv=argv, inputs=inputs)

    dense = [pair(f"d{k}", LATTICE_DENSE, LATTICE_DENSE, "dense") for k in range(LATTICE_DENSE_POOL)]
    small = [
        pair(f"s{k}", LATTICE_SMALL_PRED, LATTICE_SMALL_GT, "sinkhorn") for k in range(LATTICE_SMALL_POOL)
    ]
    ops = []
    for c in range(LATTICE_SMALL_POOL):  # three dense ops, then one Sinkhorn op
        ops += dense[3 * c : 3 * c + 3] + [small[c]]
    return Plan(
        "report-full-lattice", seed, ops, period=4, weights={"dense": 0.75, "sinkhorn": 0.25}
    )


def build(workload: str, seed: int, work: Path) -> Plan:
    """Write the workload's input files under ``work`` and return its plan."""
    builders = {"descent-grid64": _descent, "report-uniform-4k": _uniform, "report-full-lattice": _lattice}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    work.mkdir(parents=True, exist_ok=True)
    return builders[workload](seed, work)
