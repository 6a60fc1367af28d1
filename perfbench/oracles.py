"""Reference values the benchmark computes itself, and the per-op output checks.

Nothing here imports chamferlab: every value is recomputed from the input
files with plain numpy and scipy.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from .workloads import OpSpec

REL_TOL = 1e-12  # Chamfer l1/l2, dcd, F-score, Hausdorff, fidelity, descent cd_l1
SOLVER_REL_TOL = 1e-9  # exact EMD and p2f: other algorithms, same exact quantity

# CLI defaults the report ops run at, and the size cap of its exact EMD solver
DCD_TEMPERATURE = 1000.0
FSCORE_THRESHOLD = 0.01
EMD_EXACT_MAX = 1024

REPORT_KEYS = ("cd_l1", "cd_l2", "dcd", "emd", "fscore", "hausdorff", "p2f", "fidelity")


def read_points(path: Path) -> np.ndarray:
    return np.loadtxt(path, dtype=np.float64, ndmin=2)


def read_mesh(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of an ASCII PLY file as written by the workloads."""
    lines = path.read_text(encoding="utf-8").splitlines()
    end = lines.index("end_header")
    counts = {ln.split()[1]: int(ln.split()[2]) for ln in lines[:end] if ln.startswith("element")}
    nv, nf = counts["vertex"], counts["face"]
    verts = np.array([ln.split() for ln in lines[end + 1 : end + 1 + nv]], dtype=np.float64)
    faces = np.array([ln.split()[1:4] for ln in lines[end + 1 + nv : end + 1 + nv + nf]], dtype=np.intp)
    return verts, faces


def nearest_both(p: np.ndarray, g: np.ndarray, chunk: int = 256):
    """Brute-force NN in both directions: (p->g idx, dist), (g->p idx, dist).

    Squared distances are dx*dx + dy*dy (+ dz*dz) in coordinate order, and ties
    go to the lowest index.
    """
    n, m = len(p), len(g)
    pg_idx = np.empty(n, dtype=np.intp)
    pg_sq = np.empty(n)
    gp_idx = np.zeros(m, dtype=np.intp)
    gp_sq = np.full(m, np.inf)
    for s in range(0, n, chunk):
        block = p[s : s + chunk]
        sq = (block[:, None, 0] - g[None, :, 0]) ** 2
        for axis in range(1, p.shape[1]):
            sq += (block[:, None, axis] - g[None, :, axis]) ** 2
        i = np.argmin(sq, axis=1)
        pg_idx[s : s + len(block)] = i
        pg_sq[s : s + len(block)] = sq[np.arange(len(block)), i]
        j = np.argmin(sq, axis=0)
        col = sq[j, np.arange(m)]
        better = col < gp_sq  # strict: an earlier chunk keeps ties
        gp_sq[better] = col[better]
        gp_idx[better] = j[better] + s
    return (pg_idx, np.sqrt(pg_sq)), (gp_idx, np.sqrt(gp_sq))


def _pair_cost(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    return np.sqrt(((p[:, None, :] - g[None, :, :]) ** 2).sum(axis=2))


def emd_exact(p: np.ndarray, g: np.ndarray) -> float:
    cost = _pair_cost(p, g)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / len(p)


def _closest_on_triangles(q: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared distance from each point (rows) to each triangle (columns).

    Vectorised Voronoi-region test (Ericson, Real-Time Collision Detection 5.1.5).
    """
    q = q[:, None, :]
    ab, ac = b - a, c - a
    ap = q - a
    d1, d2 = (ab * ap).sum(-1), (ac * ap).sum(-1)
    bp = q - b
    d3, d4 = (ab * bp).sum(-1), (ac * bp).sum(-1)
    cp = q - c
    d5, d6 = (ab * cp).sum(-1), (ac * cp).sum(-1)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = 1.0 / (va + vb + vc)
        v = vb * denom
        w = vc * denom
        closest = a + ab * v[..., None] + ac * w[..., None]  # face interior
        t_ab = d1 / (d1 - d3)
        t_ac = d2 / (d2 - d6)
        t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
    regions = [
        ((d1 <= 0) & (d2 <= 0), a + 0 * q),
        ((d3 >= 0) & (d4 <= d3), b + 0 * q),
        ((d6 >= 0) & (d5 <= d6), c + 0 * q),
        ((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + ab * t_ab[..., None]),
        ((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + ac * t_ac[..., None]),
        ((va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0), b + (c - b) * t_bc[..., None]),
    ]
    done = np.zeros(d1.shape, dtype=bool)
    for mask, point in regions:
        take = mask & ~done
        closest = np.where(take[..., None], point, closest)
        done |= take
    delta = q - closest
    return (delta * delta).sum(-1)


def point_to_mesh(p: np.ndarray, verts: np.ndarray, faces: np.ndarray, chunk: int = 64) -> float:
    """Mean distance from each point to its nearest triangle, all points x all triangles."""
    a, b, c = verts[faces[:, 0]], verts[faces[:, 1]], verts[faces[:, 2]]
    best = np.concatenate(
        [_closest_on_triangles(p[s : s + chunk], a, b, c).min(axis=1) for s in range(0, len(p), chunk)]
    )
    return float(np.mean(np.sqrt(best)))


def report_reference(pred: np.ndarray, gt: np.ndarray, mesh=None, partial=None, emd_approx=False) -> dict:
    """Expected report values; ``emd`` is None or the string "sinkhorn" with bounds."""
    (gi, gd), (pi, pd) = nearest_both(pred, gt)
    hits_g = np.bincount(gi, minlength=len(gt))
    hits_p = np.bincount(pi, minlength=len(pred))
    term_p = np.mean(1.0 - np.exp(-DCD_TEMPERATURE * gd) / hits_g[gi])
    term_g = np.mean(1.0 - np.exp(-DCD_TEMPERATURE * pd) / hits_p[pi])
    precision = float(np.mean(gd <= FSCORE_THRESHOLD))
    recall = float(np.mean(pd <= FSCORE_THRESHOLD))
    ref = {
        "cd_l1": 0.5 * (float(np.mean(gd)) + float(np.mean(pd))),
        "cd_l2": float(np.mean(gd * gd)) + float(np.mean(pd * pd)),
        "dcd": float(0.5 * (term_p + term_g)),
        "fscore": 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall),
        "hausdorff": float(max(gd.max(), pd.max())),
        "emd": None,
        "p2f": None,
        "fidelity": None,
    }
    if len(pred) == len(gt) and len(pred) <= EMD_EXACT_MAX:
        ref["emd"] = emd_exact(pred, gt)
    elif emd_approx:
        ref["emd"] = "sinkhorn"
        ref["emd_bounds"] = (max(float(np.mean(gd)), float(np.mean(pd))), float(_pair_cost(pred, gt).max()))
    if mesh is not None:
        ref["p2f"] = point_to_mesh(pred, *mesh)
    if partial is not None:
        (_, fd), _ = nearest_both(partial, pred)
        ref["fidelity"] = float(np.mean(fd))
    return ref


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _close(value, expected: float, rel: float) -> bool:
    return _finite(value) and abs(value - expected) <= rel * max(abs(value), abs(expected))


def check_report(report: dict, ref: dict) -> list[str]:
    """Problems with a printed report against its reference; empty when it is right."""
    problems = []
    for key in REPORT_KEYS:
        value, expected = report.get(key), ref[key]
        if expected is None:
            ok = value is None
        elif expected == "sinkhorn":
            lo, hi = ref["emd_bounds"]
            ok = _finite(value) and lo * (1 - REL_TOL) <= value <= hi * (1 + REL_TOL)
            expected = f"in [{lo!r}, {hi!r}]"
        else:
            ok = _close(value, expected, SOLVER_REL_TOL if key in ("emd", "p2f") else REL_TOL)
        if not ok:
            problems.append(f"{key}: got {value!r}, expected {expected!r}")
    return problems


def grid_target(n: int = 64) -> np.ndarray:
    """The clustered-grid benchmark's target: an n-point grid on the unit square."""
    side = math.isqrt(n)
    axis = np.linspace(0.0, 1.0, side)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def check_descent(artifacts: dict[str, str]) -> list[str]:
    """final.xyz is finite, and the last trace cd_l1 is its Chamfer value against the target."""
    problems = []
    missing = {"final.xyz", "trace.csv", "manifest.json"} - set(artifacts)
    if missing:
        return [f"missing artifacts: {sorted(missing)}"]
    final = np.loadtxt(io.StringIO(artifacts["final.xyz"]), ndmin=2)
    if final.shape != (64, 2) or not np.isfinite(final).all():
        problems.append(f"final.xyz: shape {final.shape} or non-finite values")
        return problems
    rows = list(csv.DictReader(io.StringIO(artifacts["trace.csv"])))
    if not rows or "cd_l1" not in rows[-1]:
        return problems + ["trace.csv: no cd_l1 column or no rows"]
    (_, gd), (_, pd) = nearest_both(final, grid_target())
    expected = 0.5 * (float(np.mean(gd)) + float(np.mean(pd)))
    last = float(rows[-1]["cd_l1"])
    if not _close(last, expected, REL_TOL):
        problems.append(f"trace.csv last cd_l1 {last!r} != oracle {expected!r}")
    try:
        json.loads(artifacts["manifest.json"])
    except ValueError:
        problems.append("manifest.json is not JSON")
    return problems


def digest(artifacts: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode() + b"\0" + artifacts[name].encode() + b"\0")
    return h.hexdigest()


class Checker:
    """Checks op results, computing each input's reference once."""

    def __init__(self, work: Path):
        self.work = work
        self._refs: dict[tuple, dict] = {}
        self._digests: dict[tuple, str] = {}

    def reference(self, spec: OpSpec) -> dict:
        key = tuple(sorted(spec.inputs.items()))
        if key not in self._refs:
            f = spec.inputs
            mesh = read_mesh(self.work / f["mesh"]) if "mesh" in f else None
            partial = read_points(self.work / f["partial"]) if "partial" in f else None
            self._refs[key] = report_reference(
                read_points(self.work / f["pred"]),
                read_points(self.work / f["gt"]),
                mesh=mesh,
                partial=partial,
                emd_approx="--emd-approx" in spec.argv,
            )
        return self._refs[key]

    def check(self, spec: OpSpec, rc: int, stdout: str, artifacts: dict[str, str]) -> list[str]:
        """Problems with one op's outputs; empty when the op is correct."""
        if rc != 0:
            return [f"exit code {rc}"]
        if spec.out_dir is not None:
            problems = check_descent(artifacts)
            current = digest(artifacts)
            if self._digests.setdefault(tuple(spec.argv), current) != current:
                problems.append("artifacts differ from an earlier run of the same argv")
            return problems
        try:
            report = json.loads(stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return [f"no JSON report on stdout: {stdout[-200:]!r}"]
        return check_report(report, self.reference(spec))
