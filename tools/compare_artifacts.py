"""Compare the CLI artifacts of two chamferlab source trees, run by run.

Usage:
    python3 tools/compare_artifacts.py OLD_SRC NEW_SRC [--only NAME ...]

OLD_SRC and NEW_SRC are directories that hold the ``chamferlab`` package
(the ``src/`` directory of two checkouts). Each run of the set below is
executed once per tree, as ``python -m chamferlab.cli ARGV`` in a fresh
interpreter and a fresh temporary directory that holds the same input files.
Paths in argv are relative, so manifests can match byte for byte. The script
prints every difference in stdout, stderr, exit status or any file the run
leaves behind, and exits 1 if there is one, 0 otherwise. The streams are
compared byte for byte, with no rewriting: a warning or a traceback names the
source path of its tree, so it always reads as a difference. Each random input
cloud is drawn from a seed of its own file name, so an input added anywhere
moves no other input's draws. Standard library only: it must not depend on the
code it compares.
"""

from __future__ import annotations

import argparse
import difflib
import itertools
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEDULE_KINDS = ("static", "stair", "linear", "abridged-linear", "exponential", "uncertainty")
BENCH = ["optimize", "--benchmark", "clustered-grid"]

# perfbench's descent-grid64 ops at workload seed 7: (setting, run seed, flags)
DESCENT_GRID64_SEED7 = (
    ("fcd-beta2", 2029167940, []),
    ("chamfer", 1342382291, ["--alpha", "1", "--beta", "1"]),
    ("uncertainty", 1469265225, ["--schedule", "uncertainty"]),
    ("dcd-loss", 1926751965, ["--objective", "dcd-loss"]),
)
# the random 3D input clouds: file name -> point count
RANDOM_CLOUDS = {
    "pred.xyz": 40, "gt.xyz": 40, "a.xyz": 30, "b.xyz": 45,
    **{f"pairs/case{k}_{side}.xyz": 12 for k in range(3) for side in ("pred", "gt")},
    "c.xyz": 80, "d.xyz": 80, "e.xyz": 600, "f.xyz": 600, "big_p.xyz": 1025, "big_g.xyz": 1025,
    "pairs_suffix/x_predicted_pred.xyz": 12, "pairs_suffix/x_predicted_gt.xyz": 12,
    "g200_p.xyz": 200, "g200_g.xyz": 200, "huge_tree_g.xyz": 70,
}


def _runs() -> dict[str, list[str]]:
    runs = {
        "metrics-full": [
            "metrics", "pred.xyz", "gt.xyz", "--mesh", "mesh.ply", "--partial-input",
            "partial.xyz", "--csv", "report.csv", "--out-dir", "report",
        ],
        "metrics-emd-approx-unequal": ["metrics", "a.xyz", "b.xyz", "--emd-approx"],
        "metrics-missing-file": ["metrics", "missing.xyz", "gt.xyz"],
        # more than 64 points per side reach the kd-tree path and exact EMD; the
        # lattices tie exactly between up to 8 (3D) and 4 (2D) candidates
        "metrics-lattice-3d": [
            "metrics", "lattice3_p.xyz", "lattice3_g.xyz", "--out-dir", "report",
        ],
        # 100 against 81 points: unequal sizes take the Sinkhorn solver
        "metrics-lattice-2d-emd-approx": [
            "metrics", "lattice2_p.xyz", "lattice2_g.xyz", "--emd-approx",
        ],
        # 125 against 64 lattice points take the Sinkhorn solver; at this epsilon
        # its first half-step underflows and runs in the log domain
        "metrics-lattice-emd-approx-log-domain": [
            "metrics", "lattice3_p.xyz", "lattice4_g.xyz", "--emd-approx", "--emd-epsilon", "1e-4",
        ],
        # 600 points per side: the exact-EMD cost matrix is built in several row blocks
        "metrics-emd-exact-row-blocks": ["metrics", "e.xyz", "f.xyz"],
        # equal sizes over the exact-solver cap need --emd-approx: exit 3
        "metrics-over-cap-without-emd-approx": ["metrics", "big_p.xyz", "big_g.xyz"],
        "metrics-tree-random": ["metrics", "c.xyz", "d.xyz", "--csv", "report.csv"],
        # 64 points per side: one distance block serves both directions, with
        # exact ties between up to 8 candidates in each
        "metrics-lattice-scan": [
            "metrics", "lattice4_p.xyz", "lattice4_g.xyz", "--out-dir", "report",
        ],
        # 64 against 125 points: the 125 -> 64 direction searches a 64-point
        # target on the kd-tree, with exact ties between up to 8 candidates
        "metrics-lattice-mixed": [
            "metrics", "lattice4_p.xyz", "lattice3_g.xyz", "--out-dir", "report",
        ],
        # 200 height-field triangles against lattice points on their shared
        # vertices and edges and between them: kd-tree pruning and exact ties
        "metrics-mesh-lattice": [
            "metrics", "mesh_p.xyz", "mesh_g.xyz", "--mesh", "height.ply",
        ],
        # the mesh's header ends inside an element line that has no count
        "metrics-ply-truncated-header": [
            "metrics", "pred.xyz", "gt.xyz", "--mesh", "truncated.ply",
        ],
        # a binary PLY mesh is rejected at its format line
        "metrics-ply-binary": ["metrics", "pred.xyz", "gt.xyz", "--mesh", "binary.ply"],
        # a 1-point pred against 80 points: the 80 -> 1 direction searches a
        # 1-point kd-tree, where no query can tie
        "metrics-one-point-pred": ["metrics", "one.xyz", "c.xyz", "--out-dir", "report"],
        # argparse rejects --c as ambiguous here: metrics has --csv and --config
        "metrics-c-prefix": ["metrics", "pred.xyz", "gt.xyz", "--c", "x.csv"],
        # comments and blank lines between the rows of a valid cloud
        "metrics-xyz-comments": ["metrics", "commented.xyz", "gt.xyz", "--out-dir", "report"],
        # coordinate rows that the reader rejects, each at its file and line
        "metrics-xyz-non-numeric": ["metrics", "word.xyz", "gt.xyz"],
        "metrics-xyz-ragged": ["metrics", "ragged.xyz", "gt.xyz"],
        "metrics-xyz-nan": ["metrics", "nan.xyz", "gt.xyz"],
        "metrics-ply-mesh-nan-vertex": ["metrics", "pred.xyz", "gt.xyz", "--mesh", "nan_mesh.ply"],
        "metrics-ply-cloud-nan-vertex": ["metrics", "nan_cloud.ply", "gt.xyz"],
        # PLY rows longer than their header declares
        "metrics-ply-mesh-long-vertex-row": [
            "metrics", "pred.xyz", "gt.xyz", "--mesh", "long_vertex.ply",
        ],
        "metrics-ply-mesh-long-face-row": ["metrics", "pred.xyz", "gt.xyz", "--mesh", "long_face.ply"],
        # well-formed face rows that a triangle mesh cannot use
        "metrics-ply-mesh-quad-face": ["metrics", "pred.xyz", "gt.xyz", "--mesh", "quad.ply"],
        "metrics-ply-mesh-face-out-of-range": ["metrics", "pred.xyz", "gt.xyz", "--mesh", "oor.ply"],
        # whole files that the reader rejects, by name
        "metrics-xyz-4-columns": ["metrics", "wide.xyz", "gt.xyz"],
        "metrics-ply-no-vertices": ["metrics", "empty.ply", "gt.xyz"],
        # a second element of the same name is rejected at its header line
        "metrics-ply-mesh-duplicate-face-element": [
            "metrics", "pred.xyz", "gt.xyz", "--mesh", "dup_face.ply",
        ],
        # a face row after the last declared element: rejected at its line, not dropped
        "metrics-ply-mesh-rows-after-last-element": [
            "metrics", "q.xyz", "q.xyz", "--mesh", "extra.ply",
        ],
        # finite coordinates whose squared differences overflow: the first metric that is
        # not finite names itself
        "metrics-huge-coordinates-equal": ["metrics", "huge1.xyz", "huge2.xyz"],
        "metrics-huge-coordinates-unequal": ["metrics", "huge3.xyz", "huge2.xyz"],
        "metrics-huge-coordinates-unequal-emd-approx": [
            "metrics", "huge3.xyz", "huge2.xyz", "--emd-approx",
        ],
        # 70 points per side search the kd-tree, which finds no neighbour for a row
        # whose squared distances all overflow: it takes index 0 at inf, as a scan does
        "metrics-huge-coordinates-tree": ["metrics", "huge_tree_p.xyz", "huge_tree_g.xyz"],
        # one triangle whose centroid lies past the float range of squared distances,
        # and one whose radius does
        "metrics-mesh-far": ["metrics", "three_p.xyz", "three_p.xyz", "--mesh", "far_mesh.ply"],
        "metrics-mesh-wide": ["metrics", "three_p.xyz", "three_p.xyz", "--mesh", "wide_mesh.ply"],
        # squared edge lengths of about 1e161, whose product the interior projection takes
        "metrics-mesh-huge": ["metrics", "tilted_p.xyz", "tilted_p.xyz", "--mesh", "huge_mesh.ply"],
        # a thin triangle of positive area whose edges' cross product overflows
        "metrics-mesh-huge-thin": [
            "metrics", "tilted_p.xyz", "tilted_p.xyz", "--mesh", "thin_mesh.ply",
        ],
        # a point whose dot product with an edge, times a squared edge, overflows
        # though its squared distance to the triangle does not
        "metrics-mesh-far-point": ["metrics", "farpt.xyz", "farpt.xyz", "--mesh", "mid.ply"],
    }
    for kind in SCHEDULE_KINDS:
        runs[f"schedule-{kind}"] = ["schedule", "--kind", kind]
        runs[f"schedule-{kind}-out"] = ["schedule", "--kind", kind, "--out", "schedule.csv"]
    runs["schedule-invalid-bounds"] = ["schedule", "--kind", "linear", "--theta", "1", "--tau", "1"]
    runs["schedule-config"] = ["schedule", "--kind", "linear", "--config", "schedule.json"]
    # linear never reads t, so the default t=200 past T=100 is no error
    runs["schedule-linear-unused-t"] = ["schedule", "--kind", "linear", "--T", "100"]
    # a second --config is argparse's usage error, not silently ignored
    runs["schedule-second-config"] = [
        "schedule", "--kind", "static", "--T", "3", "--t", "1",
        "--config", "config_a.json", "--config", "config_b.json",
    ]
    runs["sweep"] = ["sweep"]
    runs["sweep-out"] = ["sweep", "--out", "sweep.csv"]
    runs["sweep-x-max-inf"] = ["sweep", "--x-max", "inf"]
    runs["sweep-x-step-nan"] = ["sweep", "--x-step", "nan"]
    runs["sweep-x-min-nan"] = ["sweep", "--x-min", "nan"]
    # the midpoint 2.0 falls on the grid and is dropped
    runs["sweep-midpoint-on-grid"] = ["sweep", "--x-min", "1.5", "--x-max", "2.5", "--x-step", "0.5"]
    # x_max lies short of the next step, which the sweep must not take: 0.7 in
    # the first, the far target 4.0 in the second
    runs["sweep-x-max-between-steps"] = [
        "sweep", "--x-min", "0.6", "--x-max", "0.66", "--x-step", "0.1",
    ]
    runs["sweep-x-max-short-of-target"] = [
        "sweep", "--x-min", "3.0", "--x-max", "3.96", "--x-step", "0.5",
    ]
    # an abscissa on the far target is rejected when the sweep is set up, naming x
    runs["sweep-x-at-far-target"] = ["sweep", "--x-min", "3.0", "--x-max", "4.5", "--x-step", "0.5"]
    # finite weights whose gradient overflows: a numerical failure, exit 4
    runs["sweep-gradient-overflow"] = ["sweep", "--alpha", "1.7e308"]
    # a step too small for the range: more than a million abscissae (2.8e12), or an
    # abscissa count that overflows to inf
    runs["sweep-x-step-1e-12"] = ["sweep", "--x-step", "1e-12"]
    runs["sweep-x-step-5e-324"] = ["sweep", "--x-step", "5e-324"]
    # only the exponential schedule reads sigma
    runs["schedule-linear-unused-sigma"] = [
        "schedule", "--kind", "linear", "--sigma", "-1", "--T", "2",
    ]
    runs["batch"] = ["batch", "--dir", "pairs"]
    runs["batch-out-parallel"] = [
        "batch", "--dir", "pairs", "--out", "table.csv", "--parallelism", "2",
    ]
    # the first rejected report parameter names its metric
    runs["batch-dcd-temperature-0"] = ["batch", "--dir", "pairs", "--dcd-temperature", "0"]
    # "_pred" occurs twice in the name; only the last occurrence becomes "_gt"
    runs["batch-pred-suffix-last-occurrence"] = ["batch", "--dir", "pairs_suffix"]
    # equal suffixes would pair each file with itself
    runs["batch-equal-suffixes"] = ["batch", "--dir", "pairs", "--gt-suffix", "_pred"]
    runs["batch-empty-dir"] = ["batch", "--dir", "empty"]
    runs["batch-huge-coordinates"] = ["batch", "--dir", "pairs_huge"]
    runs["ambiguity"] = ["ambiguity", "--out-dir", "ambiguity"]
    optimize = {
        "default": [],
        "cd": ["--alpha", "1", "--beta", "1"],
        "uncertainty": ["--schedule", "uncertainty"],
        "dcd-loss": ["--objective", "dcd-loss"],
        "cd-l2-momentum": [
            "--objective", "cd-l2", "--update-rule", "momentum", "--momentum", "0.9",
        ],
        "pinned-linear": ["--pin", "0,5,9,33", "--schedule", "linear"],
        "record-every-1": ["--record-every", "1"],
        "r2-stair": ["--r", "2", "--schedule", "stair"],
        # only fcd takes a schedule
        "dcd-loss-linear": ["--objective", "dcd-loss", "--schedule", "linear"],
        "cd-l1-static": ["--objective", "cd-l1", "--schedule", "static"],
    }
    for name, flags in optimize.items():
        runs[f"optimize-{name}"] = [*BENCH, *flags, "--out-dir", "run"]
    # 40 init points against 80 targets: more than 64 points on one side, so
    # both directions of every step's matching search the kd-tree
    runs["optimize-small-init-big-target"] = [
        "optimize", "--init", "pred.xyz", "--target", "c.xyz", "--steps", "300", "--out-dir", "run",
    ]
    # the uncertainty weights overflow within three steps of this size
    runs["optimize-uncertainty-diverges"] = [
        *BENCH, "--schedule", "uncertainty", "--step-size", "1000", "--steps", "3",
        "--out-dir", "run",
    ]
    # past about 1e154 the squared coordinates overflow while the points stay finite
    runs["optimize-uncertainty-diverges-far"] = [
        *BENCH, "--schedule", "uncertainty", "--step-size", "1e300", "--steps", "5",
        "--out-dir", "run",
    ]
    # a schedule leaves --alpha unused, so an invalid one is not an error
    runs["optimize-schedule-ignores-alpha"] = [
        *BENCH, "--schedule", "linear", "--alpha", "-1", "--steps", "5", "--out-dir", "run",
    ]
    # the benchmark builds both clouds, so a named --init is rejected, not ignored
    runs["optimize-benchmark-with-init"] = [
        *BENCH, "--init", "nonexist.xyz", "--steps", "5", "--out-dir", "run",
    ]
    # one step of this size drives exp(-s_global) below the float range
    runs["optimize-uncertainty-underflows"] = [
        *BENCH, "--schedule", "uncertainty", "--tau", "100", "--theta", "200", "--step-size", "20",
        "--steps", "3", "--out-dir", "run",
    ]
    # finite inputs and weights whose first gradient overflows
    runs["optimize-gradient-overflow"] = [
        "optimize", "--init", "far_p.xyz", "--target", "far_g.xyz", "--alpha", "1.7e308",
        "--beta", "1", "--r", "2", "--steps", "3", "--out-dir", "run",
    ]
    # --dcd-temperature is read only by dcd-loss, --momentum only by the momentum rule
    runs["optimize-fcd-unused-dcd-temperature"] = [
        *BENCH, "--steps", "3", "--dcd-temperature", "nan", "--out-dir", "run",
    ]
    runs["optimize-plain-unused-momentum"] = [
        *BENCH, "--steps", "3", "--update-rule", "plain", "--momentum", "5", "--out-dir", "run",
    ]
    # a zero coefficient takes the plain update
    runs["optimize-momentum-0"] = [
        *BENCH, "--update-rule", "momentum", "--momentum", "0", "--out-dir", "run",
    ]
    # the DCD kernel at a temperature that fits the grid's pitch: at the default
    # T = 1000 its gradient is about 0
    runs["optimize-dcd-loss-t10"] = [
        *BENCH, "--objective", "dcd-loss", "--dcd-temperature", "10", "--out-dir", "run",
    ]
    # the DCD kernel on the kd-tree path, where targets draw several matches
    runs["optimize-dcd-loss-tree"] = [
        "optimize", "--init", "pred.xyz", "--target", "c.xyz", "--objective", "dcd-loss",
        "--dcd-temperature", "10", "--steps", "300", "--out-dir", "run",
    ]
    runs["optimize-uncertainty-r2"] = [
        *BENCH, "--schedule", "uncertainty", "--r", "2", "--out-dir", "run",
    ]
    # one step of this size overflows the coordinates and the uncertainty state
    runs["optimize-uncertainty-state-overflows"] = [
        *BENCH, "--schedule", "uncertainty", "--tau", "10", "--theta", "20",
        "--step-size", "1e308", "--steps", "3", "--out-dir", "run",
    ]
    for name, seed, flags in DESCENT_GRID64_SEED7:
        runs[f"descent-grid64-{name}"] = [*BENCH, "--seed", str(seed), *flags, "--out-dir", "run"]
    # 200 points per side: the trace's emd is exact EMD on seeded 128-point subsamples
    runs["optimize-equal-200"] = [
        "optimize", "--init", "g200_p.xyz", "--target", "g200_g.xyz", "--steps", "2",
        "--record-every", "1", "--out-dir", "run",
    ]
    # a seed must be a non-negative integer wherever it is read
    runs["optimize-benchmark-negative-seed"] = [*BENCH, "--seed", "-1", "--out-dir", "run"]
    runs["optimize-files-negative-seed"] = [
        "optimize", "--init", "three_p.xyz", "--target", "three_g.xyz", "--steps", "2",
        "--seed", "-1", "--out-dir", "run",
    ]
    runs["ambiguity-negative-seed"] = ["ambiguity", "--seed", "-1", "--out-dir", "ambiguity"]
    # the descent rests on coinciding clouds, but the trace's EMD cost overflows
    runs["optimize-trace-emd-overflow"] = [
        "optimize", "--init", "far_apart.xyz", "--target", "far_apart.xyz", "--steps", "2",
        "--out-dir", "run",
    ]
    # the 2D descent on the kd-tree path, with one row past every target
    runs["optimize-huge-coordinates-tree"] = [
        "optimize", "--init", "huge_tree2_p.xyz", "--target", "huge_tree2_g.xyz", "--out-dir", "run",
    ]
    # the two-point stalemate with p1 pinned: the trace's grad_max is the gradient the step
    # applies, which is the free point's alone (0 under cd-l1, 0.5 under fcd (1, 2))
    for objective in ("cd-l1", "fcd"):
        runs[f"optimize-stalemate-pinned-{objective}"] = [
            "optimize", "--init", "stale_p.xyz", "--target", "stale_g.xyz", "--objective",
            objective, "--pin", "0", "--steps", "40", "--step-size", "0.01", "--record-every", "10",
            "--out-dir", "run",
        ]
    # a finite first gradient whose squares overflow in the trace's grad_max; the first
    # step throws the points past the divergence radius
    runs["optimize-huge-weight"] = [*BENCH, "--alpha", "1e200", "--steps", "3", "--out-dir", "run"]
    # the two-point overshoot grows each step until the guard stops it at step 4
    runs["optimize-divergence-guard"] = [
        "optimize", "--init", "guard_p.xyz", "--target", "guard_g.xyz", "--objective", "cd-l2",
        "--step-size", "50", "--steps", "200", "--out-dir", "run",
    ]
    return runs


def _cloud(name: str, n: int, dim: int = 3) -> str:
    """n random points, drawn from a seed of the file name alone."""
    rng = random.Random(f"20240901:{name}")
    return "".join(" ".join(repr(rng.random()) for _ in range(dim)) + "\n" for _ in range(n))


def _lattice(side: int, dim: int, shift: int) -> str:
    """Points k/32 of a side**dim grid, moved by shift/64 on every axis: exact in binary."""
    return "".join(
        " ".join(repr((2 * k + shift) / 64) for k in point) + "\n"
        for point in itertools.product(range(side), repeat=dim)
    )


def _ply(verts: list[str], faces: list[str]) -> str:
    """ASCII PLY with x/y/z vertex rows and, if there are any, triangle rows."""
    header = f"ply\nformat ascii 1.0\nelement vertex {len(verts)}\n"
    header += "property float x\nproperty float y\nproperty float z\n"
    if faces:
        header += f"element face {len(faces)}\nproperty list uchar int vertex_indices\n"
    return header + "end_header\n" + "".join(row + "\n" for row in verts + faces)


def _height_mesh(side: int) -> str:
    """ASCII PLY of a (side-1)^2-quad height field on the 1/8 grid, heights k/16."""
    verts = [(i / 8, j / 8, (i * j % 5) / 16) for i in range(side) for j in range(side)]
    faces = []
    for i in range(side - 1):
        for j in range(side - 1):
            a, b = i * side + j, (i + 1) * side + j
            faces += [(a, b, b + 1), (a, b + 1, a + 1)]
    return _ply([" ".join(repr(c) for c in v) for v in verts],
                [f"3 {a} {b} {c}" for a, b, c in faces])


def _height_lattice(side: int, shift: int) -> str:
    """Points on the 1/16 grid, heights k/32: on the mesh's vertices and edges and off them."""
    return "".join(
        f"{repr(i / 16)} {repr(j / 16)} {repr(((i * j + shift) % 7 - 1) / 32)}\n"
        for i in range(-1, side) for j in range(-1, side)
    )


def _write_inputs(root: Path) -> None:
    """The same input files, byte for byte, in every run directory."""
    files = {name: _cloud(name, n) for name, n in RANDOM_CLOUDS.items()}
    files |= {
        "partial.xyz": "".join(files["gt.xyz"].splitlines(keepends=True)[:10]),
        "mesh.ply": _ply(["0 0 0", "1 0 0", "1 1 0", "0 1 1"], ["3 0 1 2", "3 0 2 3"]),
        "schedule.json": json.dumps({"theta": 3.0, "T": 10, "t": 5}),
        "lattice3_p.xyz": _lattice(5, 3, 0),
        "lattice3_g.xyz": _lattice(5, 3, 1),
        "lattice2_p.xyz": _lattice(10, 2, 0),
        "lattice4_p.xyz": _lattice(4, 3, 0),
        "lattice4_g.xyz": _lattice(4, 3, 1),
        "height.ply": _height_mesh(11),
        "truncated.ply": "ply\nformat ascii 1.0\nelement vertex",
        "binary.ply": "ply\nformat binary_little_endian 1.0\nelement vertex 0\nend_header\n",
        "one.xyz": "0.25 0.5 0.75\n",
        "mesh_p.xyz": _height_lattice(22, 0),
        "mesh_g.xyz": _height_lattice(22, 3),
        "commented.xyz": "# pred\n\n0 0 0\n  \n# mid\n1 0.5 0.25\n0.75 1 0\n",
        "word.xyz": "0 0 0\n1 two 3\n",
        "ragged.xyz": "0 0 0\n1 2\n",
        "nan.xyz": "0 0 0\nnan 1 2\n",
        "wide.xyz": "0 0 0 0\n1 1 1 1\n",
        "nan_mesh.ply": _ply(["0 0 0", "1 0 nan", "0 1 0"], ["3 0 1 2"]),
        "nan_cloud.ply": _ply(["0 0 0", "1 nan 0"], []),
        "long_vertex.ply": _ply(["0 0 0", "1 0 0 9 9", "0 1 0"], ["3 0 1 2"]),
        "long_face.ply": _ply(["0 0 0", "1 0 0", "0 1 0"], ["3 0 1 2 7 7"]),
        "quad.ply": _ply(["0 0 0", "1 0 0", "0 1 0", "1 1 0"], ["4 0 1 3 2"]),
        "oor.ply": _ply(["0 0 0", "1 0 0", "0 1 0"], ["3 0 1 5"]),
        "empty.ply": _ply([], []),
    }
    files["lattice2_g.xyz"] = _lattice(9, 2, 1)
    face = "element face 1\nproperty list uchar int vertex_indices\n"
    files["dup_face.ply"] = _ply(["0 0 0", "1 0 0", "0 1 0"], ["3 0 1 2"]).replace(
        "end_header\n", face + "end_header\n") + "3 2 1 0\n"
    files["config_a.json"] = json.dumps({"theta": 3.0})
    files["config_b.json"] = json.dumps({"tau": 0.5})
    files["far_p.xyz"] = "0 0\n1 0\n"
    files["far_g.xyz"] = "100 0\n101 0\n"
    files["q.xyz"] = "0.9 0.9 0\n0.1 0.1 0\n"
    files["extra.ply"] = _ply(["0 0 0", "1 0 0", "0 1 0", "1 1 0"], ["3 0 1 2"]) + "3 1 3 2\n"
    files["huge1.xyz"] = "0 0 0\n1e200 0 0\n"
    files["huge2.xyz"] = "0 0 0\n1 0 0\n"
    files["huge3.xyz"] = files["huge1.xyz"] + "2 0 0\n"
    files["pairs_huge/far_pred.xyz"] = files["huge3.xyz"]
    files["pairs_huge/far_gt.xyz"] = files["huge2.xyz"]
    files["three_p.xyz"] = "0 0 0\n1 0 0\n0 1 0\n"
    files["three_g.xyz"] = "0.5 0 0\n1 1 0\n0 2 0\n"
    files["far_apart.xyz"] = "9e307 0\n0 0\n"
    files["stale_p.xyz"] = "0.5 0\n1 0\n"
    files["stale_g.xyz"] = "0 0\n4 0\n"
    files["huge_tree_p.xyz"] = "1e200 0 0\n" + _cloud("huge_tree_p.xyz", 69)
    files["huge_tree2_p.xyz"] = "1e200 0\n" + _cloud("huge_tree2_p.xyz", 69, 2)
    files["huge_tree2_g.xyz"] = _cloud("huge_tree2_g.xyz", 70, 2)
    files["far_mesh.ply"] = _ply(["1e200 0 0", "1e200 1 0", "1e200 0 1"], ["3 0 1 2"])
    files["wide_mesh.ply"] = _ply(["-1e200 -1e200 0", "1e200 -1e200 0", "0 2e200 0"], ["3 0 1 2"])
    files["tilted_p.xyz"] = "0 0 1\n1 0 0\n0 1 0\n"
    files["huge_mesh.ply"] = _ply(["-1e80 -1e80 0", "1e80 -1e80 0", "0 2e80 0"], ["3 0 1 2"])
    files["thin_mesh.ply"] = _ply(["0 0 0", "1e200 1e200 0", "1e200 1e200 1"], ["3 0 1 2"])
    files["farpt.xyz"] = "1e140 1e140 1e140\n"
    files["mid.ply"] = _ply(["0 0 0", "1e60 0 0", "0 1e60 0"], ["3 0 1 2"])
    files["guard_p.xyz"] = "0 0\n1 0\n"
    files["guard_g.xyz"] = "0.5 0\n3 0\n"
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    (root / "empty").mkdir()


def _run(src: Path, argv: list[str]) -> dict[str, bytes]:
    """Run one CLI invocation; return its streams, exit status and every file it leaves."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "chamferlab.cli", *argv], cwd=root, env=env, capture_output=True
        )
        result = {
            "exit status": str(proc.returncode).encode(),
            "stdout": proc.stdout,
            "stderr": proc.stderr,
        }
        for path in sorted(root.rglob("*")):
            if path.is_file():
                result[f"file {path.relative_to(root).as_posix()}"] = path.read_bytes()
        return result


def _describe(old: bytes | None, new: bytes | None) -> list[str]:
    limit = 12  # diff lines shown per difference
    if old is None or new is None:
        return ["      only in " + ("new" if old is None else "old")]
    try:
        a, b = old.decode().splitlines(), new.decode().splitlines()
    except UnicodeDecodeError:
        return [f"      binary contents differ ({len(old)} vs {len(new)} bytes)"]
    lines = list(difflib.unified_diff(a, b, "old", "new", lineterm="", n=1))
    shown = ["      " + line for line in lines[:limit]]
    if len(lines) > limit:
        shown.append(f"      ... {len(lines) - limit} more diff lines")
    return shown


def compare(old_src: Path, new_src: Path, names: list[str]) -> int:
    runs = _runs()
    differences = 0
    for name in names:
        old, new = _run(old_src, runs[name]), _run(new_src, runs[name])
        for item in sorted(set(old) | set(new)):
            if old.get(item) != new.get(item):
                differences += 1
                print(f"DIFF {name}: {item}")
                print("\n".join(_describe(old.get(item), new.get(item))))
    plural = "" if differences == 1 else "s"
    print(f"{len(names)} run(s) compared, {differences} difference{plural}")
    return 1 if differences else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--only", action="append", choices=sorted(_runs()), metavar="NAME",
                        help="compare only this run (repeatable); default: every run")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "chamferlab" / "cli.py").is_file():
            parser.error(f"{src} does not hold the chamferlab package")
    return compare(args.old_src.resolve(), args.new_src.resolve(), args.only or list(_runs()))


if __name__ == "__main__":
    sys.exit(main())
