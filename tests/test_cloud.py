from __future__ import annotations

import gc
import warnings
import weakref

import numpy as np
import pytest
from scipy.spatial import cKDTree

from chamferlab import (
    InvalidInputError,
    PointCloud,
    TriangleMesh,
    build_index,
    nearest_hit_counts,
    subsample,
)
from chamferlab import cloud as cloud_module
from chamferlab.cloud import Matching, _nearest_tree, _row_sq_dists, nearest_neighbors

from conftest import brute_force_nearest, random_cloud


def _lattice(side: int, dim: int, shift: float = 0.0) -> np.ndarray:
    """A side**dim grid of step 1/32 moved by shift on every axis: exact in binary."""
    return np.indices((side,) * dim).reshape(dim, -1).T / 32.0 + shift


class TestPointCloud:
    def test_basic_properties(self):
        cloud = PointCloud([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        assert len(cloud) == 2
        assert cloud.dim == 3

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.empty((0, 3)))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(InvalidInputError):
            PointCloud([[0.0, np.nan, 0.0]])
        with pytest.raises(InvalidInputError):
            PointCloud([[np.inf, 0.0, 0.0]])

    def test_rejects_bad_dim(self):
        with pytest.raises(InvalidInputError):
            PointCloud([[1.0]])
        with pytest.raises(InvalidInputError):
            PointCloud([[1.0, 2.0, 3.0, 4.0]])

    def test_rejects_an_array_of_more_than_two_axes(self):
        with pytest.raises(InvalidInputError,
                           match=r"^points must be a \(n, dim\) array, got shape \(2, 2, 3\)$"):
            PointCloud(np.zeros((2, 2, 3)))

    def test_points_are_immutable(self):
        cloud = PointCloud([[0.0, 0.0]])
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0

    def test_a_single_row_is_one_point(self):
        cloud = PointCloud([1.0, 2.0, 3.0])
        assert cloud.points.shape == (1, 3)
        assert cloud == PointCloud([[1.0, 2.0, 3.0]])

    def test_a_cloud_is_not_equal_to_other_types(self):
        cloud = PointCloud([[0.0, 1.0]])
        assert (cloud == [[0.0, 1.0]]) is False
        assert cloud != "cloud"

    def test_order_preserved(self):
        pts = [[2.0, 0.0], [1.0, 0.0], [3.0, 0.0]]
        cloud = PointCloud(pts)
        assert (cloud.points == np.asarray(pts)).all()


class TestNearest:
    def test_single_candidate(self):
        idx = build_index(PointCloud([[0.0, 0.0, 0.0]]))
        i, d = idx.query([5.0, 5.0, 5.0])
        assert i == 0
        assert d == pytest.approx(np.sqrt(75.0))

    def test_strict_nearest(self):
        idx = build_index(PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        i, d = idx.query([0.4, 0.0, 0.0])
        assert (i, d) == (0, pytest.approx(0.4))

    def test_tie_breaks_to_lowest_index(self):
        idx = build_index(PointCloud([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
        q = np.array([1.0, 0.0, 0.0])
        assert idx.query(q) == brute_force_nearest(idx.source.points, q) == (0, 1.0)

    def test_query_on_source_point_is_zero(self, rng):
        cloud = random_cloud(rng, 40)
        idx = build_index(cloud)
        i, d = idx.query(cloud.points[17])
        assert i == 17
        assert d == 0.0

    def test_dimension_mismatch(self):
        idx = build_index(PointCloud([[0.0, 0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            idx.query([0.0, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("n", [10, 100], ids=["small-tree", "kd-tree"])
    def test_non_finite_query_is_rejected(self, rng, n, value):
        idx = build_index(random_cloud(rng, n))
        with pytest.raises(InvalidInputError, match="NaN or infinite"):
            idx.query_many([[value, 0.0, 0.0]])
        with pytest.raises(InvalidInputError, match="NaN or infinite"):
            idx.query([0.0, value, 0.0])

    @pytest.mark.parametrize("bad", ["wrong-dim", "nan"])
    @pytest.mark.parametrize(
        "search",
        [
            lambda q, target: build_index(target).query(q[0]),
            lambda q, target: build_index(target).query_many(q),
            lambda q, target: nearest_hit_counts(PointCloud(q), build_index(target)),
            lambda q, target: nearest_neighbors(q, target),
        ],
        ids=["query", "query_many", "nearest_hit_counts", "nearest_neighbors-tree"],
    )
    def test_one_query_contract(self, rng, search, bad):
        # every search entry point rejects the same queries on a 100-point target
        queries = {"wrong-dim": [[0.5, 0.5]], "nan": [[np.nan, 0.5, 0.5]]}[bad]
        with pytest.raises(InvalidInputError):
            search(np.array(queries), random_cloud(rng, 100))

    def test_matches_brute_force_on_random_clouds(self, rng):
        # the exact-NN contract: index and distance equal a brute-force scan, bit for bit
        for _ in range(20):
            n = int(rng.integers(1, 240))
            cloud = random_cloud(rng, n)
            idx = build_index(cloud)
            for q in rng.random((50, 3)):
                assert idx.query(q) == brute_force_nearest(cloud.points, q)

    def test_matches_brute_force_with_duplicates_and_grid_ties(self):
        pts = np.array(
            [[float(i), float(j)] for i in range(5) for j in range(5)]
            + [[2.0, 2.0], [2.0, 2.0]]
        )
        idx = build_index(PointCloud(pts))
        queries = np.array([[2.5, 2.5], [2.0, 2.0], [2.5, 2.0], [0.5, 0.5], [4.5, 4.5]])
        for q in queries:
            assert idx.query(q) == brute_force_nearest(pts, q)

    def test_query_many_matches_single_queries(self, rng):
        cloud = random_cloud(rng, 150)
        idx = build_index(cloud)
        queries = rng.random((30, 3))
        indices, dists = idx.query_many(queries)
        for k, q in enumerate(queries):
            assert (indices[k], dists[k]) == idx.query(q)

    def test_helper_brute_and_tree_paths_agree(self, rng):
        # a 1/32 lattice is exact in binary, so cell centres, face centres and
        # edge midpoints tie exactly between 8 (4 in 2D), 4 and 2 lattice points
        for dim, side in ((3, 7), (2, 18)):
            lattice = _lattice(side, dim)
            targets = (
                random_cloud(rng, 1, dim).points,  # every row ties with itself
                lattice[:2],
                random_cloud(rng, 30, dim).points,
                lattice[:64],  # as small as a Matching's shared block, searched on the tree
                random_cloud(rng, 300, dim).points,
                lattice[:65],
                lattice[:300],
                np.concatenate([lattice[:40], lattice[:25]]),  # duplicated source points
                np.concatenate([lattice[:150], lattice[:150]]),
            )
            half = 0.5 / 32.0
            lattice_queries = np.concatenate(
                [lattice + half * (np.arange(dim) < k) for k in range(dim, 0, -1)]
            )
            for pts in targets:
                queries = np.concatenate([rng.random((25, dim)), lattice_queries, pts])
                idx, dist = nearest_neighbors(queries, PointCloud(pts))
                for k, q in enumerate(queries):
                    assert (idx[k], dist[k]) == brute_force_nearest(pts, q)

    @pytest.mark.parametrize("n", [1, 30, 64])
    def test_small_targets_without_block_run_on_the_tree(self, rng, block_shapes, n):
        # only a Matching builds a (queries x target) block; a bare call
        # makes the tree's row-wise _row_sq_dists calls and no 2-D block
        queries, target = rng.random((50, 3)), random_cloud(rng, n)
        idx, dist = nearest_neighbors(queries, target)
        for k, q in enumerate(queries):
            assert (idx[k], dist[k]) == brute_force_nearest(target.points, q)
        assert block_shapes and all(len(shape) == 1 for shape in block_shapes)

    def test_tree_kernel_takes_one_and_two_point_targets(self, rng):
        # nearest_neighbors sends such targets here: a 1-point tree pads the
        # second candidate with an infinite distance, which never ties
        queries = rng.random((20, 3))
        for n in (1, 2):
            pts = rng.random((n, 3))
            idx, dist = _nearest_tree(cKDTree(pts), pts, queries)
            for k, q in enumerate(queries):
                assert (idx[k], dist[k]) == brute_force_nearest(pts, q)

    def test_one_point_target_makes_no_ball_query(self, rng):
        # a 1-point target's one candidate is the answer: there is no tie to
        # settle, while a 2-point target's exact tie still takes the ball query
        class RecordingTree:
            def __init__(self, pts):
                self.tree, self.ball_rows = cKDTree(pts), []

            def query(self, *args, **kwargs):
                return self.tree.query(*args, **kwargs)

            def query_ball_point(self, queries, *args, **kwargs):
                self.ball_rows.append(len(queries))
                return self.tree.query_ball_point(queries, *args, **kwargs)

        queries = np.concatenate([rng.random((200, 3)), [[0.5, 0.0, 0.0]]])
        pair = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])  # ties at the last query
        for pts, ball_rows in ((rng.random((1, 3)), []), (pair, [1])):
            tree = RecordingTree(pts)
            idx, dist = _nearest_tree(tree, pts, queries)
            assert tree.ball_rows == ball_rows
            for k, q in enumerate(queries):
                assert (idx[k], dist[k]) == brute_force_nearest(pts, q)

    @pytest.mark.parametrize("n", [1, 2, 70])
    def test_a_query_whose_every_distance_overflows_takes_index_0(self, rng, n, recwarn):
        # past about 1e154 from every source point each squared distance overflows: all
        # tie at inf, so the scan's lowest index wins, while the tree finds no neighbour
        pts = np.concatenate([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], rng.random((68, 3))])[:n]
        queries = np.array([[1e200, 0.0, 0.0], [0.5, 0.0, 0.0], [0.3, 0.2, 0.1],
                            [0.0, -1e200, 1.0]])  # the second ties for n >= 2
        idx, dist = build_index(PointCloud(pts)).query_many(queries)
        assert not recwarn.list
        with np.errstate(over="ignore"):
            assert [(i, d) for i, d in zip(idx, dist)] == [
                brute_force_nearest(pts, q) for q in queries]
        assert (idx[[0, 3]] == 0).all() and (dist[[0, 3]] == np.inf).all()

    def test_row_sq_dists_overflows_to_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sq = _row_sq_dists(np.array([[1e200, 0.0], [1.0, -1e200], [1.0, 1.0]]), np.zeros(2))
        assert sq.tolist() == [np.inf, np.inf, 2.0]

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_row_sq_dists_is_the_sum_reduction_bit_for_bit(self, rng, dim, scale):
        # the per-coordinate kernel must keep the reduction's (x*x + y*y) + z*z
        queries = scale * (rng.standard_normal((70, dim)) + 0.3)
        points = scale * rng.standard_normal((50, dim))

        def reduction(a, b):
            diff = a - b
            return (diff * diff).sum(axis=-1)

        def bits(a):
            return a.view(np.uint64)

        block = _row_sq_dists(queries[:, None, :], points[None, :, :])  # a Matching block
        assert block.shape == (70, 50)
        assert (bits(block) == bits(reduction(queries[:, None, :], points[None, :, :]))).all()
        # the reversed direction's block is the transpose, bit for bit
        assert (bits(_row_sq_dists(points[:, None, :], queries[None, :, :]).T) == bits(block)).all()
        rows = rng.integers(0, 50, size=70)  # the kd-tree's row-wise recheck
        assert (bits(_row_sq_dists(queries, points[rows]))
                == bits(reduction(queries, points[rows]))).all()
        assert (bits(_row_sq_dists(points, points[3])) == bits(reduction(points, points[3]))).all()


def _small_pairs(rng):
    """(name, p, g) pairs with at most 64 points per side: the shared-block path."""
    dup = np.concatenate([_lattice(4, 3)[:20], _lattice(4, 3)[:20]])
    yield "random-3d", rng.random((64, 3)), rng.random((64, 3))
    yield "random-2d", rng.random((40, 2)), rng.random((17, 2))
    # the shifted lattice sits on cell centres of the other: each point of
    # either cloud ties exactly between up to 8 (3D) or 4 (2D) points
    yield "lattice-3d", _lattice(4, 3), _lattice(4, 3, 1 / 64)
    yield "lattice-2d", _lattice(8, 2, 1 / 64), _lattice(8, 2)
    yield "duplicates", dup, dup[::-1].copy()
    yield "1x1", rng.random((1, 3)), rng.random((1, 3))
    yield "1x64", rng.random((1, 2)), rng.random((64, 2))
    yield "64x3", rng.random((64, 3)), rng.random((3, 3))


@pytest.fixture
def block_shapes(monkeypatch) -> list[tuple[int, ...]]:
    """Result shapes of the _row_sq_dists calls made by the cloud module."""
    shapes = []

    def counted(queries, points):
        out = _row_sq_dists(queries, points)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(cloud_module, "_row_sq_dists", counted)
    return shapes


class TestMatching:
    def test_shared_block_matches_brute_force(self, rng):
        for name, p, g in _small_pairs(rng):
            m = Matching(PointCloud(p), PointCloud(g))
            for (idx, dist), src, dst in ((m.p_to_g, p, g), (m.g_to_p, g, p)):
                for k, q in enumerate(src):
                    assert (idx[k], dist[k]) == brute_force_nearest(dst, q), name

    def test_both_directions_cost_one_block(self, rng, nn_calls, block_shapes):
        p, g = random_cloud(rng, 30), random_cloud(rng, 64)
        m = Matching(p, g)
        m.p_to_g, m.g_to_p
        assert block_shapes == [(30, 64)]
        assert nn_calls == [30, 64]

    @pytest.mark.parametrize("sizes", [(30, 64), (70, 90)], ids=["block", "tree"])
    def test_a_second_read_of_every_memo_does_no_work(self, rng, nn_calls, block_shapes, sizes):
        m = Matching(*(random_cloud(rng, n) for n in sizes))
        names = ("p_to_g", "g_to_p", "hits_on_g", "hits_on_p")
        first = [getattr(m, name) for name in names]
        calls, shapes = list(nn_calls), list(block_shapes)
        assert calls == list(sizes)
        for name, value in zip(names, first):
            assert getattr(m, name) is value, name
        assert (nn_calls, block_shapes) == (calls, shapes)

    @pytest.mark.parametrize("sizes", [(30, 64), (70, 90)], ids=["block", "tree"])
    @pytest.mark.parametrize("name, side", [("p_to_g", 0), ("hits_on_g", 0), ("g_to_p", 1),
                                            ("hits_on_p", 1)])
    def test_one_direction_alone_makes_one_pass(self, rng, nn_calls, sizes, name, side):
        m = Matching(*(random_cloud(rng, n) for n in sizes))
        getattr(m, name), getattr(m, name)
        assert nn_calls == [sizes[side]]

    def test_more_than_64_points_on_one_side_builds_no_block(self, rng, block_shapes):
        p, g = random_cloud(rng, 10), random_cloud(rng, 65)
        m = Matching(p, g)
        for (idx, dist), src, dst in ((m.p_to_g, p, g), (m.g_to_p, g, p)):
            for k, q in enumerate(src.points):
                assert (idx[k], dist[k]) == brute_force_nearest(dst.points, q)
        assert (10, 65) not in block_shapes

    def test_every_tree_search_is_one_query_many(self, rng, monkeypatch):
        counts = {"query_many": 0, "build_index": 0, "_nearest_tree": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, owner in (("query_many", cloud_module.NNIndex), ("build_index", cloud_module),
                            ("_nearest_tree", cloud_module)):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        p, g = random_cloud(rng, 70), random_cloud(rng, 90)
        m = Matching(p, g)
        m.p_to_g, m.g_to_p
        assert counts == {"query_many": 2, "build_index": 2, "_nearest_tree": 2}
        nearest_hit_counts(p, cloud_module.NNIndex(g))
        assert counts == {"query_many": 3, "build_index": 2, "_nearest_tree": 3}
        # a target and the index of another cloud can no longer be passed together
        with pytest.raises(TypeError):
            nearest_neighbors(p.points, g, cloud_module.NNIndex(p))

    def test_a_cloud_keeps_the_index_of_its_first_search(self, rng, index_builds, monkeypatch):
        searched = []
        query_many = cloud_module.NNIndex.query_many

        def recorded(self, queries):
            searched.append(self)
            return query_many(self, queries)

        monkeypatch.setattr(cloud_module.NNIndex, "query_many", recorded)
        target = random_cloud(rng, 90)
        for n in (5, 7):
            queries = random_cloud(rng, n).points
            idx, dist = nearest_neighbors(queries, target)
            assert list(zip(idx, dist)) == [brute_force_nearest(target.points, q) for q in queries]
        assert index_builds == [target]
        assert searched[0] is searched[1]  # the second search runs on the first one's index
        assert target == PointCloud(target.points) and repr(target).count("_index") == 0

    def test_a_searched_cloud_is_freed_without_the_cyclic_collector(self, rng):
        target = random_cloud(rng, 90)
        nearest_neighbors(random_cloud(rng, 5).points, target)
        refs = weakref.ref(target), weakref.ref(target._index)
        gc.disable()
        try:
            del target
            assert [ref() for ref in refs] == [None, None]  # no reference cycle holds them
        finally:
            gc.enable()

    @pytest.mark.parametrize("name", ["lattice-3d", "lattice-2d", "duplicates", "1x64", "64x3"])
    def test_g_to_p_is_a_column_scan_of_the_block(self, rng, name):
        # each g point's nearest p point is its column's first minimum in the
        # (p x g) reduction, index and distance bit for bit, on tie-heavy pairs
        p, g = next((p, g) for pair, p, g in _small_pairs(rng) if pair == name)
        diff = p[:, None] - g[None]
        block = (diff * diff).sum(axis=-1)
        idx, dist = Matching(PointCloud(p), PointCloud(g)).g_to_p
        for j in range(len(g)):
            column = block[:, j]
            first = int(np.flatnonzero(column == column.min())[0])
            assert (idx[j], dist[j].tobytes()) == (first, np.sqrt(column[first]).tobytes()), j


class TestHitCounts:
    def test_self_hits_are_all_one(self, rng):
        cloud = random_cloud(rng, 60)
        counts = nearest_hit_counts(cloud, build_index(cloud))
        assert (counts == 1).all()

    def test_clustered_queries(self):
        queries = PointCloud([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0]])
        idx = build_index(PointCloud([[0.0, 0.0, 0.0], [9.0, 9.0, 9.0]]))
        assert nearest_hit_counts(queries, idx).tolist() == [2, 0]

    def test_counts_sum_to_query_count(self, rng):
        queries = random_cloud(rng, 77)
        idx = build_index(random_cloud(rng, 13))
        counts = nearest_hit_counts(queries, idx)
        assert counts.sum() == 77
        assert (counts >= 0).all()

    def test_single_query(self, rng):
        queries = random_cloud(rng, 1)
        idx = build_index(random_cloud(rng, 2))
        assert nearest_hit_counts(queries, idx).sum() == 1


class TestSubsample:
    def test_full_size_is_identity(self, rng):
        cloud = random_cloud(rng, 12)
        for method in ("random", "farthest-point"):
            assert subsample(cloud, 12, method, seed=3) is cloud

    @pytest.mark.parametrize("seed", [-1, 2.5, "7", True])
    def test_random_seed_must_be_a_non_negative_integer(self, rng, seed):
        cloud = random_cloud(rng, 5)
        message = f"^seed must be a non-negative integer, got {seed}$"
        for n in (2, 5):
            with pytest.raises(InvalidInputError, match=message):
                subsample(cloud, n, "random", seed=seed)
        # farthest-point does not read the seed
        assert subsample(cloud, 2, "farthest-point", seed=seed) == subsample(cloud, 2, "farthest-point")

    def test_farthest_point_starts_at_index_zero(self, rng):
        cloud = random_cloud(rng, 9)
        out = subsample(cloud, 1, "farthest-point", seed=0)
        assert (out.points[0] == cloud.points[0]).all()

    def test_farthest_point_square_picks_diagonal(self):
        square = PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        out = subsample(square, 2, "farthest-point", seed=0)
        # starting corner plus the diagonally opposite one
        assert out.points.tolist() == [[0.0, 0.0], [1.0, 1.0]]

    def test_farthest_point_full_size_with_duplicates_is_identity(self):
        # once every unchosen distance is 0, no chosen point may be picked again
        for rows in ([[0, 0], [1, 0], [1, 0]], [[2, 2], [2, 2], [2, 2]],
                     [[0, 0], [0, 0], [5, 1], [5, 1], [0, 0]]):
            cloud = PointCloud(rows)
            assert subsample(cloud, len(cloud), "farthest-point") == cloud

    def test_farthest_point_selection_of_distinct_points(self, rng):
        def greedy(points, n):  # each pick: the lowest index of the largest gap to the picks
            chosen = [0]
            while len(chosen) < n:
                gaps = [-1.0 if i in chosen else min(((q - points[c]) ** 2).sum() for c in chosen)
                        for i, q in enumerate(points)]
                chosen.append(int(np.argmax(gaps)))
            return points[sorted(chosen)]

        lattice = np.array([[i, j, k] for i in range(3) for j in range(3) for k in range(2)], float)
        for points in (random_cloud(rng, 40).points, lattice):
            for n in (1, 5, 13, len(points)):
                out = subsample(PointCloud(points), n, "farthest-point")
                assert (out.points == greedy(points, n)).all()

    def test_random_is_deterministic_per_seed(self, rng):
        cloud = random_cloud(rng, 50)
        a = subsample(cloud, 20, "random", seed=11)
        b = subsample(cloud, 20, "random", seed=11)
        c = subsample(cloud, 20, "random", seed=12)
        assert a == b
        assert a != c

    def test_out_of_range_n(self, rng):
        cloud = random_cloud(rng, 5)
        with pytest.raises(InvalidInputError):
            subsample(cloud, 0, "random", seed=0)
        with pytest.raises(InvalidInputError):
            subsample(cloud, 6, "random", seed=0)

    def test_unknown_method(self, rng):
        for n in (2, 5):
            with pytest.raises(InvalidInputError, match="^unknown subsample method 'stratified'$"):
                subsample(random_cloud(rng, 5), n, "stratified", seed=0)

    def test_n_must_be_an_integer(self, rng):
        cloud = random_cloud(rng, 5)
        for method in ("random", "farthest-point"):
            with pytest.raises(InvalidInputError, match="^n must be an integer, got 2.5$"):
                subsample(cloud, 2.5, method)
            assert subsample(cloud, np.int64(2), method) == subsample(cloud, 2, method)

    def test_n_must_not_be_a_bool(self, rng):
        cloud = random_cloud(rng, 5)
        for method in ("random", "farthest-point"):
            with pytest.raises(InvalidInputError, match="^n must be an integer, got True$"):
                subsample(cloud, True, method)

    def test_output_points_come_from_input(self, rng):
        cloud = random_cloud(rng, 30)
        out = subsample(cloud, 10, "farthest-point", seed=0)
        rows = {tuple(p) for p in cloud.points}
        assert all(tuple(p) in rows for p in out.points)


class TestTriangleMesh:
    def test_valid_mesh(self):
        mesh = TriangleMesh([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        assert len(mesh) == 1

    def test_rejects_fractional_indices(self):
        verts = [[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]
        with pytest.raises(InvalidInputError, match="^triangles must hold whole numbers, got 2.9$"):
            TriangleMesh(verts, [[0, 1, 2.9]])
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="^triangles must hold whole numbers"):
                TriangleMesh(verts, [[0, 1, bad]])
        # whole numbers stored as floats name the same triangle
        assert (TriangleMesh(verts, [[0.0, 1.0, 2.0]]).triangles == [[0, 1, 2]]).all()

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(InvalidInputError):
            TriangleMesh([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])

    def test_rejects_degenerate_triangle(self):
        with pytest.raises(InvalidInputError):
            TriangleMesh([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])

    @pytest.mark.parametrize("vertices, triangles, message", [
        ([[0.0, 0], [1, 0], [0, 1]], [[0, 1, 2]], r"^vertices must be \(m, 3\), got shape \(3, 2\)$"),
        ([[0.0, 0, 0], [1, 0, np.nan], [0, 1, 0]], [[0, 1, 2]],
         "^vertices contain NaN or infinite coordinates$"),
        ([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1]],
         r"^triangles must be \(k, 3\), got shape \(1, 2\)$"),
        ([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], np.empty((0, 3), dtype=int),
         "^mesh must contain at least one triangle$"),
    ], ids=["2d-vertices", "nan-vertex", "pair-triangles", "no-triangles"])
    def test_rejects_malformed_arrays(self, vertices, triangles, message):
        with pytest.raises(InvalidInputError, match=message):
            TriangleMesh(vertices, triangles)
