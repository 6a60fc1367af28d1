"""Point-cloud container, exact nearest-neighbor index, sampling, and meshes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import InvalidInputError

# When both clouds of a Matching have at most this many points, one (p x g)
# _row_sq_dists block serves both directions, since (g - p)**2 == (p - g)**2
# exactly; every other search runs on the kd-tree. The kd-tree, build included,
# catches up with such a block between 128 and 192 points (2 vCPUs, numpy 2.4,
# scipy 1.17); the value stays at 64 because no benchmarked workload has clouds
# between 65 and 191 points.
_BRUTE_FORCE_MAX = 64
# kd-tree candidates closer than this relative gap are settled exactly
_TIE_RTOL = 1e-9


def _as_points(points) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise InvalidInputError(f"points must be a (n, dim) array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InvalidInputError("point cloud must contain at least one point")
    if arr.shape[1] not in (2, 3):
        raise InvalidInputError(f"points must be 2- or 3-dimensional, got dim {arr.shape[1]}")
    if not np.isfinite(arr).all():
        raise InvalidInputError("points contain NaN or infinite coordinates")
    return arr


@dataclass(frozen=True)
class PointCloud:
    """An ordered, finite set of 2D or 3D points.

    Point order is preserved: the row index is a stable identifier used by
    nearest-neighbor queries, hit counts, and pinning.
    """

    points: np.ndarray

    def __post_init__(self):
        arr = _as_points(self.points)
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    @classmethod
    def _trusted(cls, points: np.ndarray) -> PointCloud:
        """A cloud over a read-only view of ``points``, with no copy and no check: only
        for finite float64 (n, 2 or 3) rows that the caller has checked itself."""
        cloud = object.__new__(cls)
        view = points.view()
        view.setflags(write=False)
        object.__setattr__(cloud, "points", view)
        return cloud

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return self.points.shape == other.points.shape and bool(
            (self.points == other.points).all()
        )


def _row_sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distances between broadcast rows of queries and points: the one kernel
    of the scan, the kd-tree's recheck and the EMD costs. Adding the squares per
    coordinate, (x*x + y*y) + z*z, is bit-identical to ``(diff * diff).sum(axis=-1)``
    and avoids numpy's slow reduction over an axis of length 2 or 3."""
    with np.errstate(over="ignore"):  # a square past the float range is inf; callers report it
        d = queries[..., 0] - points[..., 0]
        sq = np.multiply(d, d, out=d)
        for axis in range(1, queries.shape[-1]):
            d = queries[..., axis] - points[..., axis]
            sq += np.multiply(d, d, out=d)
    return sq


class NNIndex:
    """Exact nearest-neighbor index over a point cloud: the one kd-tree search.

    Backed by scipy's cKDTree. Immutable after construction and safe to query
    concurrently. Answers are identical to a brute-force scan, with distance
    ties broken toward the lowest point index. Every kd-tree search in this
    module is a ``query_many`` call.
    """

    def __init__(self, cloud: PointCloud):
        self.source = cloud
        self.tree = cKDTree(cloud.points)

    def query(self, q) -> tuple[int, float]:
        """Return (index, Euclidean distance) of the nearest source point to q."""
        idx, dists = self.query_many(np.reshape(q, (1, -1)))
        return int(idx[0]), float(dists[0])

    def query_many(self, queries) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized query of finite (m, dim) rows; returns (indices, distances) arrays."""
        queries = np.asarray(queries, dtype=np.float64)
        dim = self.source.dim
        if queries.ndim != 2 or queries.shape[1] != dim:
            raise InvalidInputError(f"queries must have shape (m, {dim}), got {queries.shape}")
        if not np.isfinite(queries).all():
            raise InvalidInputError("queries contain NaN or infinite coordinates")
        return _nearest_tree(self.tree, self.source.points, queries)


def build_index(cloud: PointCloud) -> NNIndex:
    """Build an exact nearest-neighbor index over a cloud."""
    return NNIndex(cloud)


def _nearest_in_block(sq: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest neighbors along ``axis`` of a (p x g) squared-distance block: axis 1
    gives each row's nearest column, axis 0 each column's nearest row."""
    idx = sq.argmin(axis=axis)  # first minimum = lowest index
    other = np.arange(sq.shape[1 - axis])
    return idx, np.sqrt(sq[other, idx] if axis == 1 else sq[idx, other])


def _nearest_tree(tree: cKDTree, sources: np.ndarray, queries: np.ndarray):
    """Exact nearest neighbors from a kd-tree, bit-identical to a brute-force scan.

    The tree proposes its two nearest candidates. Where their tree distances
    lie within a relative _TIE_RTOL, the tree's rounding may have ordered an
    exact tie (or a larger one, on lattices) arbitrarily: every source point
    within that reach is gathered with one ball query, and the row keeps the
    lowest index among the exact minima of _row_sq_dists. Elsewhere
    the first candidate is the unique nearest point and only its distance is
    recomputed. A 1-point tree pads the second candidate with an infinite
    distance, so none of its rows ties. A row whose every squared distance
    overflows gets no candidate from the tree: like the scan, it takes index 0
    at inf, and no ball query (which refuses an infinite radius).
    """
    dist, cand = tree.query(queries, k=2)
    finite = dist[:, 0] < np.inf
    indices = np.where(finite, cand[:, 0], 0)
    best = _row_sq_dists(queries, sources[indices])
    rows = np.flatnonzero(finite & (dist[:, 1] <= dist[:, 0] * (1.0 + _TIE_RTOL)))
    if rows.size:
        reach = np.nextafter(dist[rows, 1] * (1.0 + _TIE_RTOL), np.inf)
        found = tree.query_ball_point(queries[rows], reach)
        counts = np.fromiter(map(len, found), dtype=np.intp, count=len(rows))
        ids = np.concatenate(found).astype(np.intp)
        ball_sq = _row_sq_dists(queries[np.repeat(rows, counts)], sources[ids])
        starts = np.cumsum(counts) - counts
        row_min = np.minimum.reduceat(ball_sq, starts)
        exact = ball_sq == np.repeat(row_min, counts)
        indices[rows] = np.minimum.reduceat(np.where(exact, ids, len(sources)), starts)
        best[rows] = row_min
    return indices, np.sqrt(best)


def nearest_neighbors(queries, target: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Nearest target point for every query row: (indices, distances), equal bit for
    bit to a brute-force scan, lowest index on ties. It is
    ``build_index(target).query_many(queries)``."""
    return build_index(target).query_many(queries)


def _check_pair(p: PointCloud, g: PointCloud) -> None:
    if p.dim != g.dim:
        raise InvalidInputError(f"dimension mismatch: {p.dim} vs {g.dim}")


def _is_int(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_int(name: str, value, low: int | None = None) -> None:
    """InvalidInputError unless value is an integer (``_is_int``) of at least ``low``, if given."""
    if not _is_int(value):
        raise InvalidInputError(f"{name} must be an integer, got {value}")
    if low is not None and value < low:
        raise InvalidInputError(f"{name} must be >= {low}, got {value}")


def _check_seed(seed) -> None:
    """InvalidInputError unless seed is a non-negative integer (``_is_int``)."""
    if not _is_int(seed) or seed < 0:
        raise InvalidInputError(f"seed must be a non-negative integer, got {seed}")


def _whole_numbers(name: str, values) -> np.ndarray:
    """``values`` as an intp array; InvalidInputError unless each entry is a whole number."""
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"{name} must hold whole numbers, got {arr.dtype} entries")
    bad = arr[~(np.isfinite(arr) & (np.floor(arr) == arr))]
    if bad.size:
        raise InvalidInputError(f"{name} must hold whole numbers, got {bad[0]}")
    return arr.astype(np.intp)


class Matching:
    """Both nearest-neighbor directions between a prediction p and a target g.

    ``p_to_g`` holds (indices, distances) of the target point nearest each
    predicted point, ``g_to_p`` the reverse, and the hit counts say how many
    points select each point as their match. Every Chamfer-family value and
    gradient is a reduction over one matching. Each direction is searched on
    first use, so a caller that needs one direction pays for one pass. When
    both clouds have at most _BRUTE_FORCE_MAX points, the one (p x g)
    squared-distance block built here serves both directions: its rows for
    ``p_to_g`` and its columns for ``g_to_p``, read by ``_nearest_in_block``
    with no further check, since both clouds are checked and of one dimension.
    Otherwise each direction runs on the kd-tree through ``nearest_neighbors``.
    """

    def __init__(self, p: PointCloud, g: PointCloud):
        _check_pair(p, g)
        self.p = p
        self.g = g
        small = max(len(p), len(g)) <= _BRUTE_FORCE_MAX
        self._block = _row_sq_dists(p.points[:, None], g.points[None]) if small else None
        # plain memos: functools.cached_property takes a lock on every first read (3.11)
        self._p_to_g = self._g_to_p = self._hits_on_g = self._hits_on_p = None

    @property
    def p_to_g(self) -> tuple[np.ndarray, np.ndarray]:
        if self._p_to_g is None:
            self._p_to_g = (nearest_neighbors(self.p.points, self.g) if self._block is None
                            else _nearest_in_block(self._block, 1))
        return self._p_to_g

    @property
    def g_to_p(self) -> tuple[np.ndarray, np.ndarray]:
        if self._g_to_p is None:
            self._g_to_p = (nearest_neighbors(self.g.points, self.p) if self._block is None
                            else _nearest_in_block(self._block, 0))
        return self._g_to_p

    @property
    def hits_on_g(self) -> np.ndarray:
        if self._hits_on_g is None:
            self._hits_on_g = np.bincount(self.p_to_g[0], minlength=len(self.g))
        return self._hits_on_g

    @property
    def hits_on_p(self) -> np.ndarray:
        if self._hits_on_p is None:
            self._hits_on_p = np.bincount(self.g_to_p[0], minlength=len(self.p))
        return self._hits_on_p


def nearest_hit_counts(queries: PointCloud, index: NNIndex) -> np.ndarray:
    """How many query points select each indexed point as their nearest neighbor."""
    idx, _ = index.query_many(queries.points)
    return np.bincount(idx, minlength=len(index.source))


def subsample(cloud: PointCloud, n: int, method: str = "random", seed: int = 0) -> PointCloud:
    """Draw n points from a cloud, deterministically for a fixed seed.

    Both methods select n distinct indices. ``random`` samples without replacement;
    ``farthest-point`` starts from index 0 and then greedily takes the unselected
    point farthest from the selected ones, the lowest index on ties (so duplicate
    points are taken once all gaps are 0). Selected points are returned in ascending
    original-index order; n == len(cloud) returns the input itself.
    """
    _check_int("n", n)
    if not 1 <= n <= len(cloud):
        raise InvalidInputError(f"n must be in [1, {len(cloud)}], got {n}")
    if method == "random":
        _check_seed(seed)
    elif method != "farthest-point":
        raise InvalidInputError(f"unknown subsample method {method!r}")
    if n == len(cloud):
        return cloud
    if method == "random":
        chosen = np.random.default_rng(seed).choice(len(cloud), size=n, replace=False)
    else:
        pts = cloud.points
        chosen = np.empty(n, dtype=np.intp)
        chosen[0] = 0
        min_sq = _row_sq_dists(pts, pts[0])
        min_sq[0] = -1.0  # a selected row sits below every distance
        for k in range(1, n):
            nxt = int(np.argmax(min_sq))  # first maximum = lowest index on ties
            chosen[k] = nxt
            np.minimum(min_sq, _row_sq_dists(pts, pts[nxt]), out=min_sq)
            min_sq[nxt] = -1.0
    return PointCloud(cloud.points[np.sort(chosen)])


@dataclass(frozen=True)
class TriangleMesh:
    """A 3D triangle mesh; every triangle must have positive area."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=np.float64)
        tris = _whole_numbers("triangles", self.triangles)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise InvalidInputError(f"vertices must be (m, 3), got shape {verts.shape}")
        if not np.isfinite(verts).all():
            raise InvalidInputError("vertices contain NaN or infinite coordinates")
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise InvalidInputError(f"triangles must be (k, 3), got shape {tris.shape}")
        if tris.shape[0] < 1:
            raise InvalidInputError("mesh must contain at least one triangle")
        if tris.min(initial=0) < 0 or tris.max(initial=-1) >= verts.shape[0]:
            raise InvalidInputError("triangle indices out of vertex range")
        if not _positive_area(verts, tris).all():
            raise InvalidInputError("mesh contains degenerate (zero-area) triangles")
        verts = verts.copy()
        tris = tris.copy()
        verts.setflags(write=False)
        tris.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)

    def __len__(self) -> int:
        return self.triangles.shape[0]


def _positive_area(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Whether each triangle's edge cross product is nonzero. A triangle whose cross
    product overflows is judged again on its vertices scaled by the power of two
    that brings its largest coordinate below 2**510: the scaling is exact short of
    underflow, and no product of the scaled edges overflows."""
    corners = verts[tris]

    def normals(corners):
        return np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])

    with np.errstate(over="ignore", invalid="ignore"):  # an area past the float range is positive
        normal = normals(corners)
        huge = ~np.isfinite(normal).all(axis=1)
        if huge.any():
            exponent = np.frexp(np.abs(corners[huge]).max(axis=(1, 2)))[1]
            normal[huge] = normals(np.ldexp(corners[huge], (510 - exponent)[:, None, None]))
        return np.linalg.norm(normal, axis=1) > 0.0
