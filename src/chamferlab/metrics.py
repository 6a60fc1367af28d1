"""Point-set similarity metrics: Chamfer family, density-aware distance, EMD,
F-score, Hausdorff, point-to-mesh, and fidelity."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import logsumexp

from .cloud import Matching, PointCloud, TriangleMesh, _check_int, _check_pair, _row_sq_dists
from .cloud import nearest_neighbors  # noqa: F401  (perfbench's tracer wraps this binding)
from .errors import InvalidInputError, NumericalError

EMD_EXACT_MAX = 1024
# emd_approx: a scaling-domain product outside [1/SCALING_RANGE, SCALING_RANGE]
# sends its half-step to the log domain
SCALING_RANGE = 1e100
# point_to_mesh: pruning slack per unit of the largest coordinate
P2M_SLACK = 2.0**-40
# the pairs (point-triangle, or cells of a dense EMD matrix) built at once
PAIR_CHUNK = 1 << 16
# the fixed (alpha, beta, r) of chamfer_l1 (halved), chamfer_l2 (unhalved) and dcd (halved)
_CD_L1 = (0.5, 0.5, 1)
_CD_L2 = (1.0, 1.0, 2)
_DCD = (0.5, 0.5, 1)


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < np.inf:
        raise InvalidInputError(f"{name} must be positive and finite, got {value}")


def _check_r(r: int) -> None:
    _check_int("r", r)
    if r not in (1, 2):
        raise InvalidInputError(f"distance order r must be 1 or 2, got {r}")


def _mean(x: np.ndarray) -> float:
    # np.mean's Python wrapper costs more than the sum on a descent step's
    # 64 elements; this is the same sum and division, so the same float
    return float(x.sum() / x.size)


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Slices that cover ``range(rows)``, each of at most PAIR_CHUNK pairs of
    ``cols`` columns (one row at least)."""
    step = max(1, PAIR_CHUNK // cols)
    return [slice(lo, lo + step) for lo in range(0, rows, step)]


def _pair_costs(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The (len(p), len(g)) Euclidean cost matrix, filled in row blocks: the
    same values as ``np.sqrt(_row_sq_dists(p[:, None], g[None]))`` without its
    full-size temporaries. NumericalError if a cost is not finite, which neither
    EMD solver can use."""
    cost = np.empty((len(p), len(g)))
    for blk in _row_blocks(len(p), len(g)):
        np.sqrt(_row_sq_dists(p[blk, None], g[None]), out=cost[blk])
    if not np.isfinite(cost).all():  # past about 1e154 apart, a squared difference overflows
        raise NumericalError("a pairwise distance is not finite")
    return cost


def _matched(p: PointCloud, g: PointCloud, matching: Matching | None) -> Matching:
    """The matching of (p, g): the one the caller already holds, or a new one."""
    if matching is None:
        return Matching(p, g)
    if matching.p is not p or matching.g is not g:
        raise InvalidInputError("matching was computed for a different cloud pair")
    return matching


def _terms(m: Matching, side: int, r: int = 1, temperature: float | None = None):
    """Per-row terms of m's p -> g (side 0) or g -> p (side 1) direction, and the factor on
    each row's gradient of d: d ** r and None, or, given a temperature T, DCD's
    1 - exp(-T d) / hits and T exp(-T d) / hits, hits being the frozen count of the match."""
    idx, d = m.g_to_p if side else m.p_to_g
    if temperature is None:
        return (d if r == 1 else d * d), None
    e = np.exp(-temperature * d)
    hits = (m.hits_on_p if side else m.hits_on_g)[idx]
    return 1.0 - e / hits, temperature * e / hits


def _weighted(m: Matching, alpha: float, beta: float, r: int = 1,
              temperature: float | None = None) -> float:
    """alpha times the mean of m's p -> g ``_terms`` plus beta times that of its g -> p terms."""
    local = _mean(_terms(m, 0, r, temperature)[0])
    return alpha * local + beta * _mean(_terms(m, 1, r, temperature)[0])


def cd_local(p: PointCloud, g: PointCloud, r: int = 1, *,
             matching: Matching | None = None) -> float:
    """Mean nearest-neighbor distance (order r) from predicted points to the target.

    Measures local precision: each predicted point only needs to sit close to
    some target point. ``matching`` reuses an existing matching of (p, g).
    """
    m = _matched(p, g, matching)
    _check_r(r)
    return _mean(_terms(m, 0, r)[0])


def cd_global(p: PointCloud, g: PointCloud, r: int = 1, *,
              matching: Matching | None = None) -> float:
    """Mean nearest-neighbor distance (order r) from target points to the prediction.

    Measures coverage: every target point must have a nearby predicted point.
    """
    m = _matched(p, g, matching)
    _check_r(r)
    return _mean(_terms(m, 1, r)[0])


def chamfer_l1(p: PointCloud, g: PointCloud, *, matching: Matching | None = None) -> float:
    """Symmetric Chamfer distance with Euclidean terms, halved."""
    return _weighted(_matched(p, g, matching), *_CD_L1)


def chamfer_l2(p: PointCloud, g: PointCloud) -> float:
    """Symmetric Chamfer distance with squared-Euclidean terms (no halving)."""
    return _weighted(Matching(p, g), *_CD_L2)


def dcd(p: PointCloud, g: PointCloud, temperature: float = 1000.0, *,
        matching: Matching | None = None) -> float:
    """Density-aware Chamfer distance, bounded to [0, 1].

    Each nearest-neighbor term is discounted by how many points share the same
    match, so locally over-dense predictions score worse than uniform ones
    with equal plain Chamfer distance. ``temperature`` scales the exponential
    distance kernel.
    """
    _check_positive("temperature", temperature)
    return _weighted(_matched(p, g, matching), *_DCD, temperature)


def emd_exact(p: PointCloud, g: PointCloud) -> float:
    """Earth Mover's Distance under the optimal one-to-one assignment.

    Requires equal-size clouds; solves the assignment exactly, so inputs are
    capped at EMD_EXACT_MAX points. Returns the mean matched distance.
    """
    _check_pair(p, g)
    if len(p) != len(g):
        raise InvalidInputError(f"EMD requires equal sizes, got {len(p)} vs {len(g)}")
    if len(p) > EMD_EXACT_MAX:
        raise InvalidInputError(
            f"exact EMD capped at {EMD_EXACT_MAX} points ({len(p)} given); use emd_approx"
        )
    # imported here, not at module top: only an exact assignment needs scipy.optimize
    from scipy.optimize import linear_sum_assignment
    cost = _pair_costs(p.points, g.points)
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / len(p)


def _in_range(s: np.ndarray) -> bool:
    """Whether every entry lies in the safe range of the scalings (NaN does not)."""
    return 1.0 / SCALING_RANGE <= s.min() and s.max() <= SCALING_RANGE


def emd_approx(
    p: PointCloud, g: PointCloud, iterations: int = 1000, epsilon: float = 0.01
) -> float:
    """Entropic-regularized transport cost approximating the Earth Mover's Distance.

    Sinkhorn iterations with uniform marginals; smaller ``epsilon`` tightens
    the approximation at the price of slower convergence. The plan is rounded
    to exact marginal feasibility before costing, so the result is an upper
    bound on the exact value and shrinks toward it as iterations grow. The
    value is a mean per unit mass, comparable to ``emd_exact``.

    The iterates are those of log-domain Sinkhorn (potentials f = h = 0, h
    updated first), run in the scaling domain: side 0 holds the rows (f, u),
    side 1 the columns (h, v), and the potentials are f + eps*log(u) and
    h + eps*log(v). Each iteration applies one half-step to side 1, then to
    side 0: one matrix-vector product of the kernel exp((f + h - C) / eps) with
    the other side's scaled mass. A half-step whose product leaves
    SCALING_RANGE runs in the log domain instead; the potentials then absorb
    the scalings and the kernel is rebuilt (Schmitzer 2019, "Stabilized sparse
    scaling algorithms for entropy regularized transport problems"). The cost
    and the kernel are the only (n, m) matrices: the kernel is rebuilt in place
    and becomes the plan by scaling in place.
    """
    _check_pair(p, g)
    _check_positive("epsilon", epsilon)
    _check_int("iterations", iterations, 1)
    n, m = len(p), len(g)
    cost = _pair_costs(p.points, g.points)
    mass = (1.0 / n, 1.0 / m)  # the uniform marginals, per point of each side
    pot = [np.zeros(n), np.zeros(m)]  # f, h
    scale = [np.ones(n), np.ones(m)]  # u, v
    kernel = np.empty((n, m))

    def fill_kernel():
        # exp((f + h - C) / eps), in place: one matrix besides the cost
        np.add.outer(pot[0], pot[1], out=kernel)
        np.subtract(kernel, cost, out=kernel)
        np.divide(kernel, epsilon, out=kernel)
        np.exp(kernel, out=kernel)

    fill_kernel()
    for _ in range(iterations):
        for side in (1, 0):
            other = 1 - side
            s = (kernel.T if side else kernel) @ (mass[other] * scale[other])
            if _in_range(s):
                scale[side] = 1.0 / s
            else:
                pot[other] = pot[other] + epsilon * np.log(scale[other])
                shift = np.expand_dims(pot[other], side)
                # each entry reduces only its own row (side 0) or column (side 1) of the
                # cost, so blocks of them give the same values with no full-size temporary
                for blk in _row_blocks(len(pot[side]), len(pot[other])):
                    part = cost[:, blk] if side else cost[blk]
                    pot[side][blk] = -epsilon * logsumexp(
                        (shift - part) / epsilon + np.log(mass[other]), axis=other)
                scale = [np.ones(n), np.ones(m)]
                fill_kernel()
    plan = kernel  # (mass*u) K (mass*v), scaled in place
    plan *= (mass[0] * scale[0])[:, None]
    plan *= mass[1] * scale[1]

    # round to a feasible plan: scale rows, then columns, down to their
    # marginals, then restore missing mass with a rank-one patch
    for axis in (1, 0):
        total = plan.sum(axis=axis)
        plan *= np.expand_dims(np.minimum(mass[1 - axis] / np.maximum(total, 1e-300), 1.0), axis)
    err_a = mass[0] - plan.sum(axis=1)
    err_b = mass[1] - plan.sum(axis=0)
    missing = err_a.sum()
    if missing > 0:
        for blk in _row_blocks(n, m):
            plan[blk] += np.outer(err_a[blk], err_b) / missing
    plan *= cost
    return float(plan.sum())


def fscore(p: PointCloud, g: PointCloud, threshold: float = 0.01) -> float:
    """Harmonic mean of precision and recall at a distance threshold."""
    _check_positive("threshold", threshold)
    m = Matching(p, g)
    precision = float(np.mean(m.p_to_g[1] <= threshold))
    recall = float(np.mean(m.g_to_p[1] <= threshold))
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def hausdorff(p: PointCloud, g: PointCloud) -> float:
    """Maximum nearest-neighbor mismatch over both directions."""
    m = Matching(p, g)
    return float(max(m.p_to_g[1].max(), m.g_to_p[1].max()))


def fidelity(partial_input: PointCloud, output: PointCloud) -> float:
    """Mean distance from each input point to its nearest output point."""
    return cd_local(partial_input, output, 1)


def _point_triangle_sqdists(q: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Exact squared distance from each row of q to the triangle (a, b, c) of that row."""

    def seg_sq(s0, s1):
        edge = s1 - s0
        t = np.einsum("ij,ij->i", q - s0, edge) / np.einsum("ij,ij->i", edge, edge)
        t = np.clip(t, 0.0, 1.0)
        delta = q - (s0 + t[:, None] * edge)
        return np.einsum("ij,ij->i", delta, delta)

    sq = np.minimum(seg_sq(a, b), np.minimum(seg_sq(b, c), seg_sq(c, a)))

    # interior of the triangle: barycentric projection onto its plane
    def barycentric(e0, e1, dp):
        d00 = np.einsum("ij,ij->i", e0, e0)
        d01 = np.einsum("ij,ij->i", e0, e1)
        d11 = np.einsum("ij,ij->i", e1, e1)
        det = d00 * d11 - d01 * d01
        d0p = np.einsum("ij,ij->i", e0, dp)
        d1p = np.einsum("ij,ij->i", e1, dp)
        return (d11 * d0p - d01 * d1p) / det, (d00 * d1p - d01 * d0p) / det

    # u and v are linear in dp, and a squared edge times a far point's dot product can
    # overflow where its squared distance does not: such rows take dp scaled by the
    # power of two that brings it to their edges' size, and their u and v scaled
    # back, both exact short of underflow. A u or v that is still not finite fails
    # the inside test, and its row keeps its edge distance.
    e0, e1, dp = b - a, c - a, q - a
    with np.errstate(over="ignore", invalid="ignore"):
        u, v = barycentric(e0, e1, dp)
        far = ~(np.isfinite(u) & np.isfinite(v))
        if far.any():
            size = np.maximum(np.abs(e0[far]).max(axis=1), np.abs(e1[far]).max(axis=1))
            shift = np.frexp(np.abs(dp[far]).max(axis=1))[1] - np.frexp(size)[1]
            near_u, near_v = barycentric(e0[far], e1[far], np.ldexp(dp[far], -shift[:, None]))
            u[far], v[far] = np.ldexp(near_u, shift), np.ldexp(near_v, shift)
        inside = (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
        proj = a + u[:, None] * e0 + v[:, None] * e1
    delta = q - proj
    plane_sq = np.einsum("ij,ij->i", delta, delta)
    return np.where(inside, np.minimum(sq, plane_sq), sq)


def point_to_mesh(p: PointCloud, mesh: TriangleMesh) -> float:
    """Mean exact distance from each point to the nearest mesh triangle.

    A kd-tree over triangle centroids prunes the scan exactly: the distance
    to the nearest centroid's triangle bounds each point's distance, and a
    triangle whose bounding sphere lies farther than that bound cannot hold
    the minimum. The survivors get the same per-triangle arithmetic as a scan
    of every triangle, so the result equals that scan's bit for bit.
    """
    if p.dim != 3:
        raise InvalidInputError("point-to-mesh distance requires 3D points")
    points = p.points
    corners = mesh.vertices[mesh.triangles]  # (triangles, corner, xyz)
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    centroids = corners.mean(axis=1)
    radii = np.sqrt(_row_sq_dists(corners, centroids[:, None]).max(axis=1))
    # the pruning test and the distances round by a few ulps of the largest
    # coordinate; this slack only ever keeps extra triangles
    slack = P2M_SLACK * max(np.abs(points).max(), np.abs(mesh.vertices).max())
    tree = cKDTree(centroids)

    with np.errstate(over="ignore"):  # the check below reports it
        e0, e1 = b - a, c - a
        gram = np.einsum("ij,ij->i", e0, e0) * np.einsum("ij,ij->i", e1, e1)

    _, first = tree.query(points)
    # past about 1e154 apart a squared distance overflows: the tree then finds no
    # centroid, or a radius is inf, and the per-triangle arithmetic would give NaN;
    # past edges of about 1e77 so does the product of two squared edge lengths,
    # which the interior projection takes
    if first.max() == len(mesh) or not (np.isfinite(radii).all() and np.isfinite(gram).all()):
        raise NumericalError("a squared distance to the mesh overflows")
    best = _point_triangle_sqdists(points, a[first], b[first], c[first])
    bound = np.sqrt(best) + slack
    # a block of points meets at most PAIR_CHUNK triangles: a ball holds at most all of them
    for blk in _row_blocks(len(points), len(mesh)):
        idx = np.arange(*blk.indices(len(points)))
        balls = tree.query_ball_point(points[idx], bound[idx] + radii.max() + slack)
        rows = np.repeat(idx, [len(ball) for ball in balls])
        tris = np.concatenate(balls).astype(np.intp)
        gap = np.sqrt(_row_sq_dists(points[rows], centroids[tris])) - radii[tris]
        keep = gap <= bound[rows]
        rows, tris = rows[keep], tris[keep]
        np.minimum.at(best, rows, _point_triangle_sqdists(points[rows], a[tris], b[tris], c[tris]))
    return float(np.mean(np.sqrt(best)))


@dataclass
class MetricReport:
    """A flat bundle of metric values; None marks a metric that was not computed."""

    cd_l1: float | None = None
    cd_l2: float | None = None
    dcd: float | None = None
    emd: float | None = None
    fscore: float | None = None
    hausdorff: float | None = None
    p2f: float | None = None
    fidelity: float | None = None

    def __post_init__(self):
        for name in ("dcd", "fscore"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value <= 1.0:
                raise InvalidInputError(f"{name} must lie in [0, 1], got {value}")
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not value >= 0.0:  # NaN fails too
                raise InvalidInputError(f"{f.name} must be non-negative, got {value}")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(f.name for f in fields(cls))

    def csv_row(self) -> str:
        return ",".join("" if v is None else repr(float(v)) for v in asdict(self).values())


def report(pred: PointCloud, gt: PointCloud, fscore_threshold: float, dcd_temperature: float,
           sinkhorn: tuple[int, float] | None = None, *, mesh: TriangleMesh | None = None,
           partial: PointCloud | None = None) -> MetricReport:
    """Every metric of pred against gt, in field order; p2f needs ``mesh``, fidelity
    ``partial``. EMD is exact for equal sizes of at most EMD_EXACT_MAX points, else
    ``emd_approx(pred, gt, *sinkhorn)``; without ``sinkhorn`` it is None for unequal
    sizes and an error for equal ones. InvalidInputError and NumericalError name the
    metric that raised them, and a value that is not finite is a NumericalError.
    """
    def emd() -> float | None:
        if len(pred) == len(gt) and len(pred) <= EMD_EXACT_MAX:
            return emd_exact(pred, gt)
        if sinkhorn is not None:
            return emd_approx(pred, gt, *sinkhorn)
        if len(pred) == len(gt):
            raise InvalidInputError(
                f"clouds exceed the exact-solver cap of {EMD_EXACT_MAX} points; "
                "pass sinkhorn=(iterations, epsilon), or --emd-approx on the command line"
            )
        return None  # sizes differ and no approximate solver requested

    metrics = {
        "cd_l1": lambda: chamfer_l1(pred, gt),
        "cd_l2": lambda: chamfer_l2(pred, gt),
        "dcd": lambda: dcd(pred, gt, dcd_temperature),
        "emd": emd,
        "fscore": lambda: fscore(pred, gt, fscore_threshold),
        "hausdorff": lambda: hausdorff(pred, gt),
        "p2f": None if mesh is None else lambda: point_to_mesh(pred, mesh),
        "fidelity": None if partial is None else lambda: fidelity(partial, pred),
    }
    values = {}
    for name, metric in metrics.items():
        try:
            values[name] = None if metric is None else metric()
        except (InvalidInputError, NumericalError) as exc:
            raise type(exc)(f"{name}: {exc}") from exc
        if values[name] is not None and not np.isfinite(values[name]):
            raise NumericalError(f"{name}: the value is not finite ({values[name]})")
    return MetricReport(**values)
