from __future__ import annotations

import itertools
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp

from chamferlab import (
    FcdWeights,
    InvalidInputError,
    MetricReport,
    NumericalError,
    PointCloud,
    TriangleMesh,
    cd_global,
    cd_local,
    chamfer_l1,
    chamfer_l2,
    dcd,
    emd_approx,
    emd_exact,
    fcd,
    fidelity,
    fscore,
    hausdorff,
    point_to_mesh,
    report,
)
from chamferlab import metrics
from chamferlab.cloud import Matching, _row_sq_dists
from chamferlab.objective import dcd_gradient

from conftest import random_cloud

P2 = PointCloud([[0.5, 0.0], [1.0, 0.0]])
G2 = PointCloud([[0.0, 0.0], [4.0, 0.0]])


def brute_chamfer_l1(p: PointCloud, g: PointCloud) -> float:
    """Reference double loop, no spatial index."""
    d_pg = np.array([min(np.linalg.norm(q - t) for t in g.points) for q in p.points])
    d_gp = np.array([min(np.linalg.norm(t - q) for q in p.points) for t in g.points])
    return 0.5 * (d_pg.mean() + d_gp.mean())


def permutation_emd(p: PointCloud, g: PointCloud) -> float:
    """Exact EMD by enumerating every assignment; only viable for tiny clouds."""
    best = np.inf
    for perm in itertools.permutations(range(len(g))):
        total = sum(np.linalg.norm(p.points[i] - g.points[j]) for i, j in enumerate(perm))
        best = min(best, total)
    return best / len(p)


def norm_cost(p: PointCloud, g: PointCloud) -> np.ndarray:
    return np.linalg.norm(p.points[:, None, :] - g.points[None, :, :], axis=2)


def norm_cost_sinkhorn(p: PointCloud, g: PointCloud, iterations: int, epsilon: float) -> float:
    """Oracle: log-domain Sinkhorn and feasibility rounding over the norm cost."""
    cost = norm_cost(p, g)
    a, b = np.full(len(p), 1.0 / len(p)), np.full(len(g), 1.0 / len(g))
    f, h = np.zeros(len(p)), np.zeros(len(g))
    for _ in range(iterations):
        h = -epsilon * logsumexp((f[:, None] - cost) / epsilon + np.log(a)[:, None], axis=0)
        f = -epsilon * logsumexp((h[None, :] - cost) / epsilon + np.log(b)[None, :], axis=1)
    plan = np.exp((f[:, None] + h[None, :] - cost) / epsilon
                  + np.log(a)[:, None] + np.log(b)[None, :])
    return rounded_cost(plan, cost, a, b)


def norm_cost_scaling_sinkhorn(p: PointCloud, g: PointCloud, iterations: int,
                               epsilon: float) -> float:
    """Reference: emd_approx's scaling-domain Sinkhorn and rounding over the norm cost."""
    cost = norm_cost(p, g)
    a, b = np.full(len(p), 1.0 / len(p)), np.full(len(g), 1.0 / len(g))
    f, h = np.zeros(len(p)), np.zeros(len(g))
    u, v = np.ones(len(p)), np.ones(len(g))

    def kernel():
        return np.exp((f[:, None] + h[None, :] - cost) / epsilon)

    def safe(s):
        return 1.0 / metrics.SCALING_RANGE <= s.min() and s.max() <= metrics.SCALING_RANGE

    k = kernel()
    for _ in range(iterations):
        s = k.T @ (a * u)
        if safe(s):
            v = 1.0 / s
        else:
            f = f + epsilon * np.log(u)
            h = -epsilon * logsumexp((f[:, None] - cost) / epsilon + np.log(a)[:, None], axis=0)
            u, v, k = np.ones(len(p)), np.ones(len(g)), kernel()
        s = k @ (b * v)
        if safe(s):
            u = 1.0 / s
        else:
            h = h + epsilon * np.log(v)
            f = -epsilon * logsumexp((h[None, :] - cost) / epsilon + np.log(b)[None, :], axis=1)
            u, v, k = np.ones(len(p)), np.ones(len(g)), kernel()
    return rounded_cost((a * u)[:, None] * k * (b * v)[None, :], cost, a, b)


def rounded_cost(plan: np.ndarray, cost: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Cost of the plan after emd_approx's feasibility rounding."""
    plan = plan * np.minimum(a / np.maximum(plan.sum(axis=1), 1e-300), 1.0)[:, None]
    plan *= np.minimum(b / np.maximum(plan.sum(axis=0), 1e-300), 1.0)[None, :]
    err_a, err_b = a - plan.sum(axis=1), b - plan.sum(axis=0)
    if err_a.sum() > 0:
        plan = plan + np.outer(err_a, err_b) / err_a.sum()
    return float((plan * cost).sum())


@pytest.fixture
def log_domain_steps(monkeypatch) -> list[int]:
    """The reduced axis of each log-domain half-step emd_approx falls back to:
    0 updates the column potentials, 1 the row potentials."""
    calls: list[int] = []

    def counted(x, *args, **kwargs):
        calls.append(kwargs["axis"])
        return logsumexp(x, *args, **kwargs)

    monkeypatch.setattr(metrics, "logsumexp", counted)
    return calls


def scan_point_triangle_sqdists(q: np.ndarray, mesh: TriangleMesh) -> np.ndarray:
    """Reference: squared distance from one point to every mesh triangle."""
    verts, tris = mesh.vertices, mesh.triangles
    a, b, c = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]

    def seg_sq(s0, s1):
        edge = s1 - s0
        t = np.einsum("ij,ij->i", q - s0, edge) / np.einsum("ij,ij->i", edge, edge)
        t = np.clip(t, 0.0, 1.0)
        delta = q - (s0 + t[:, None] * edge)
        return np.einsum("ij,ij->i", delta, delta)

    sq = np.minimum(seg_sq(a, b), np.minimum(seg_sq(b, c), seg_sq(c, a)))
    e0, e1 = b - a, c - a
    d00 = np.einsum("ij,ij->i", e0, e0)
    d01 = np.einsum("ij,ij->i", e0, e1)
    d11 = np.einsum("ij,ij->i", e1, e1)
    det = d00 * d11 - d01 * d01
    dp = q - a
    d0p = np.einsum("ij,ij->i", e0, dp)
    d1p = np.einsum("ij,ij->i", e1, dp)
    u = (d11 * d0p - d01 * d1p) / det
    v = (d00 * d1p - d01 * d0p) / det
    inside = (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0)
    proj = a + u[:, None] * e0 + v[:, None] * e1
    delta = q - proj
    plane_sq = np.einsum("ij,ij->i", delta, delta)
    return np.where(inside, np.minimum(sq, plane_sq), sq)


def scan_point_to_mesh(p: PointCloud, mesh: TriangleMesh) -> float:
    """Reference: every point against every triangle, one point at a time."""
    dists = np.empty(len(p))
    for i, q in enumerate(p.points):
        dists[i] = np.sqrt(scan_point_triangle_sqdists(q, mesh).min())
    return float(np.mean(dists))


def height_mesh(side: int, offset: float = 0.0) -> TriangleMesh:
    """A (side-1)^2-quad triangulation of z = sin(2 pi x) cos(2 pi y) / 4 on the unit square."""
    axis = np.linspace(0.0, 1.0, side)
    gx, gy = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    verts = np.column_stack([gx, gy, 0.25 * np.sin(2 * np.pi * gx) * np.cos(2 * np.pi * gy)])
    faces = []
    for i in range(side - 1):
        for j in range(side - 1):
            a, b = i * side + j, (i + 1) * side + j
            faces += [(a, b, b + 1), (a, b + 1, a + 1)]
    return TriangleMesh(verts + offset, faces)


class TestChamferFamily:
    def test_identity_is_zero(self, rng):
        cloud = random_cloud(rng, 25)
        assert cd_local(cloud, cloud, 1) == 0.0
        assert cd_global(cloud, cloud, 2) == 0.0
        assert chamfer_l1(cloud, cloud) == 0.0
        assert chamfer_l2(cloud, cloud) == 0.0

    def test_hand_fixtures(self):
        assert cd_local(P2, G2, 1) == pytest.approx(0.75)
        assert cd_local(P2, G2, 2) == pytest.approx(0.625)
        assert cd_global(P2, G2, 1) == pytest.approx(1.75)
        assert chamfer_l1(P2, G2) == pytest.approx(1.25)
        assert chamfer_l2(P2, G2) == pytest.approx(5.25)

    def test_single_point_pair(self):
        p = PointCloud([[0.0, 0.0, 0.0]])
        g = PointCloud([[1.0, 0.0, 0.0]])
        assert chamfer_l1(p, g) == pytest.approx(1.0)
        assert chamfer_l2(p, g) == pytest.approx(2.0)

    def test_global_is_local_with_swapped_roles(self, rng):
        p, g = random_cloud(rng, 40), random_cloud(rng, 31)
        for r in (1, 2):
            assert cd_global(p, g, r) == cd_local(g, p, r)

    def test_symmetry(self, rng):
        for _ in range(5):
            p, g = random_cloud(rng, 30), random_cloud(rng, 45)
            assert chamfer_l1(p, g) == pytest.approx(chamfer_l1(g, p), abs=1e-12)
            assert chamfer_l2(p, g) == pytest.approx(chamfer_l2(g, p), abs=1e-12)

    def test_matches_brute_force_double_loop(self, rng):
        for _ in range(3):
            p, g = random_cloud(rng, 100), random_cloud(rng, 100)
            assert chamfer_l1(p, g) == pytest.approx(brute_chamfer_l1(p, g), abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            cd_local(random_cloud(rng, 3, dim=2), random_cloud(rng, 3, dim=3))

    def test_bad_r(self, rng):
        with pytest.raises(InvalidInputError):
            cd_local(random_cloud(rng, 3), random_cloud(rng, 3), 3)

    @pytest.mark.parametrize("r, message", [
        (True, "r must be an integer, got True"),
        (2.0, "r must be an integer, got 2.0"),
        (np.int64(3), "distance order r must be 1 or 2, got 3"),
    ])
    def test_r_must_be_the_integer_1_or_2(self, r, message):
        # True == 1 and 2.0 == 2: a membership test alone would take both
        for metric in (cd_local, cd_global, lambda p, g, r: fcd(p, g, FcdWeights(1, 2), r)):
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
                metric(P2, G2, r)
        assert cd_local(P2, G2, np.int64(2)) == cd_local(P2, G2, 2) == 0.625

    @pytest.mark.parametrize("n", [64, 70], ids=["block", "tree"])
    def test_an_overflowing_squared_distance_reads_inf_on_both_nn_paths(self, rng, n, recwarn):
        # one row past about 1e154 from every target point: its squared distances all
        # overflow, so it matches index 0 at inf, as a brute-force scan does
        points = rng.random((n, 3))
        points[0] = [1e200, 0.0, 0.0]
        p, g = PointCloud(points), random_cloud(rng, n)
        m = Matching(p, g)
        assert (m.p_to_g[0][0], m.p_to_g[1][0]) == (0, np.inf)
        assert np.isfinite(m.p_to_g[1][1:]).all() and np.isfinite(m.g_to_p[1]).all()
        assert chamfer_l1(p, g) == hausdorff(p, g) == np.inf
        assert dcd(p, g, 1e-3) > dcd(PointCloud(points[1:]), g, 1e-3)  # its term is 1
        assert fscore(p, g, 10.0) < 1.0  # a miss
        with pytest.raises(NumericalError, match=r"^cd_l1: the value is not finite \(inf\)$"):
            report(p, g, 0.01, 1000.0)
        assert not recwarn.list


class TestDcd:
    def test_identity_is_zero(self, rng):
        cloud = random_cloud(rng, 50)
        assert dcd(cloud, cloud) == 0.0

    def test_single_pair_closed_form(self):
        p = PointCloud([[0.0, 0.0, 0.0]])
        g = PointCloud([[0.001, 0.0, 0.0]])
        assert dcd(p, g, 1000.0) == pytest.approx(1.0 - np.exp(-1.0), abs=1e-12)

    def test_bounded_in_unit_interval(self, rng):
        for _ in range(20):
            p = random_cloud(rng, int(rng.integers(1, 60)))
            g = random_cloud(rng, int(rng.integers(1, 60)))
            value = dcd(p, g, float(rng.uniform(0.5, 2000.0)))
            assert 0.0 <= value <= 1.0

    def test_rejects_bad_temperature(self, rng):
        p, g = random_cloud(rng, 3), random_cloud(rng, 3)
        for fn in (dcd, dcd_gradient):
            for temperature in (0.0, -1.0, float("nan"), float("inf")):
                with pytest.raises(InvalidInputError, match="temperature"):
                    fn(p, g, temperature)

    def test_clustering_raises_dcd(self):
        # two predictions of the same 1D-grid target; pairs collapsed onto
        # half the target raise the density-aware distance
        g = PointCloud([[float(i), 0.0] for i in range(8)])
        uniform = PointCloud([[float(i) + 0.05, 0.0] for i in range(8)])
        clustered = PointCloud(
            [[2 * (i // 2) + 0.05 * (i % 2), 0.0] for i in range(8)]
        )
        assert dcd(clustered, g, 2.0) > dcd(uniform, g, 2.0)


class TestEmd:
    def test_identity(self, rng):
        cloud = random_cloud(rng, 12)
        assert emd_exact(cloud, cloud) == 0.0

    def test_two_point_fixture(self):
        p = PointCloud([[0.0, 0, 0], [1, 0, 0]])
        g = PointCloud([[0.0, 0, 0], [2, 0, 0]])
        assert emd_exact(p, g) == pytest.approx(0.5)

    def test_matches_permutation_oracle(self, rng):
        for _ in range(25):
            p, g = random_cloud(rng, 6), random_cloud(rng, 6)
            assert emd_exact(p, g) == pytest.approx(permutation_emd(p, g), abs=1e-12)

    def test_bit_identical_to_an_assignment_over_the_norm_cost(self, rng):
        for dim, n in ((2, 5), (3, 17), (2, 40), (3, 80)):
            p = random_cloud(rng, n, dim, scale=10.0)
            g = random_cloud(rng, n, dim, scale=10.0)
            cost = norm_cost(p, g)
            rows, cols = linear_sum_assignment(cost)
            assert emd_exact(p, g) == float(cost[rows, cols].sum()) / n

    def test_rejects_unequal_sizes(self, rng):
        with pytest.raises(InvalidInputError):
            emd_exact(random_cloud(rng, 3), random_cloud(rng, 4))

    def test_rejects_oversized_input(self, rng):
        big = PointCloud(rng.random((1025, 3)))
        with pytest.raises(InvalidInputError, match="emd_approx"):
            emd_exact(big, big)

    def test_overflowing_costs_are_a_numerical_error(self):
        # finite coordinates whose squared differences leave the float range
        far = PointCloud([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0]])
        with pytest.raises(NumericalError, match="^a pairwise distance is not finite$"):
            emd_exact(far, far)


class TestEmdApprox:
    def test_identity_is_tiny(self, rng):
        cloud = PointCloud(5.0 * rng.random((20, 3)))
        assert emd_approx(cloud, cloud, iterations=500, epsilon=0.005) <= 1e-6

    def test_close_to_exact_on_small_clouds(self, rng):
        for _ in range(10):
            p, g = random_cloud(rng, 6), random_cloud(rng, 6)
            exact = emd_exact(p, g)
            approx = emd_approx(p, g, iterations=2000, epsilon=0.002)
            assert abs(approx - exact) / exact < 0.05
            assert approx >= exact - 1e-6

    def test_non_increasing_in_iterations(self, rng):
        p, g = random_cloud(rng, 10), random_cloud(rng, 10)
        values = [emd_approx(p, g, iterations=k, epsilon=0.01) for k in (5, 20, 80, 320)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-9

    def test_large_cloud_smoke(self, rng):
        p = PointCloud(rng.random((512, 3)))
        g = PointCloud(rng.random((512, 3)))
        value = emd_approx(p, g, iterations=100, epsilon=0.01)
        assert np.isfinite(value) and value > 0

    def test_bit_identical_to_sinkhorn_over_the_norm_cost(self, rng):
        for dim, n, m in ((2, 6, 6), (3, 12, 12), (3, 20, 9)):
            p, g = random_cloud(rng, n, dim), random_cloud(rng, m, dim)
            assert emd_approx(p, g, 40, 0.01) == norm_cost_scaling_sinkhorn(p, g, 40, 0.01)
        # a pair whose first half-step already underflows takes the log-domain branch
        p, g = random_cloud(rng, 15, scale=100.0), random_cloud(rng, 11, scale=100.0)
        assert emd_approx(p, g, 40, 0.01) == norm_cost_scaling_sinkhorn(p, g, 40, 0.01)

    @pytest.mark.parametrize("epsilon", [0.01, 0.002])
    def test_agrees_with_the_log_domain_iteration(self, rng, epsilon, log_domain_steps):
        pairs = [(random_cloud(rng, n, dim), random_cloud(rng, m, dim))
                 for dim, n, m in ((2, 30, 30), (3, 64, 48), (3, 17, 90))]
        lattice = np.array(list(itertools.product(range(5), repeat=3))) / 32
        pairs.append((PointCloud(lattice), PointCloud(lattice[::2] + 1 / 64)))
        for p, g in pairs:
            value = emd_approx(p, g, 300, epsilon)
            oracle = norm_cost_sinkhorn(p, g, 300, epsilon)
            assert abs(value - oracle) <= 1e-12 * oracle
        if epsilon == 0.01:  # unit-scale data never leaves the scaling domain
            assert log_domain_steps == []

    @pytest.mark.parametrize("scale, epsilon", [(100.0, 0.01), (1000.0, 0.01), (1.0, 1e-4)])
    def test_stress_pairs_fall_back_to_the_log_domain(self, rng, scale, epsilon, log_domain_steps):
        p, g = random_cloud(rng, 40, scale=scale), random_cloud(rng, 33, scale=scale)
        value = emd_approx(p, g, 200, epsilon)
        assert set(log_domain_steps) == {0, 1}  # both sides take the log-domain step
        oracle = norm_cost_sinkhorn(p, g, 200, epsilon)
        assert abs(value - oracle) <= 1e-12 * oracle

    def test_rejects_bad_epsilon(self, rng):
        p, g = random_cloud(rng, 3), random_cloud(rng, 3)
        for epsilon in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match="epsilon"):
                emd_approx(p, g, epsilon=epsilon)

    def test_rejects_a_fractional_iteration_count(self, rng):
        p, g = random_cloud(rng, 3), random_cloud(rng, 3)
        with pytest.raises(InvalidInputError, match="^iterations must be an integer, got 2.5$"):
            emd_approx(p, g, iterations=2.5)
        assert emd_approx(p, g, iterations=np.int64(3)) == emd_approx(p, g, iterations=3)

    @pytest.mark.parametrize("iterations, message", [
        (0, "iterations must be >= 1, got 0"), (np.int64(-2), "iterations must be >= 1, got -2"),
        (True, "iterations must be an integer, got True"),
    ], ids=["zero", "negative", "bool"])
    def test_rejects_an_iteration_count_below_one_or_a_bool(self, rng, iterations, message):
        p, g = random_cloud(rng, 3), random_cloud(rng, 4)
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            emd_approx(p, g, iterations=iterations)

    def test_overflowing_costs_are_a_numerical_error(self):
        # the exact solver's rule: the cost builder both solvers share rejects them
        far = PointCloud([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [2.0, 0.0, 0.0]])
        near = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NumericalError, match="^a pairwise distance is not finite$"):
            emd_approx(far, near)

    @pytest.mark.parametrize("epsilon", [0.01, 1e-4])
    def test_row_blocks_keep_every_iterate(self, rng, monkeypatch, epsilon, log_domain_steps):
        # 300-pair blocks: several per cost matrix and per rank-one patch
        monkeypatch.setattr(metrics, "PAIR_CHUNK", 300)
        for dim, n, m in ((2, 40, 33), (3, 25, 61), (3, 7, 400)):
            p, g = random_cloud(rng, n, dim), random_cloud(rng, m, dim)
            assert emd_approx(p, g, 60, epsilon) == norm_cost_scaling_sinkhorn(p, g, 60, epsilon)
        assert bool(log_domain_steps) == (epsilon == 1e-4)


class TestPairCosts:
    @pytest.mark.parametrize("chunk", [1, 300, 5000, None], ids=["1", "300", "5000", "default"])
    def test_bit_identical_to_the_full_size_kernel(self, rng, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(metrics, "PAIR_CHUNK", chunk)
        # blocks of many rows, of one row (more columns than the chunk), and
        # clouds of fewer rows than one block
        for dim, n, m in ((2, 70, 50), (3, 130, 90), (3, 3, 40), (2, 40, 700), (3, 1, 1)):
            p = 10.0 * rng.random((n, dim)) - 5.0
            g = 10.0 * rng.random((m, dim)) - 5.0
            cost = metrics._pair_costs(p, g)
            assert cost.shape == (n, m)
            assert np.array_equal(cost, np.sqrt(_row_sq_dists(p[:, None], g[None])))


def traced_peak(fn) -> int:
    """Bytes that fn allocates at its peak, as tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestDenseMemory:
    """The dense EMD solvers hold only the matrices they use; each full-size
    temporary of the cost or kernel expressions adds a matrix to these peaks."""

    def test_exact_emd_holds_only_its_cost_matrix(self, rng):
        p, g = random_cloud(rng, 1024), random_cloud(rng, 1024)
        matrix = 1024 * 1024 * 8
        assert traced_peak(lambda: emd_exact(p, g)) <= 1.3 * matrix

    def test_sinkhorn_holds_only_its_cost_and_kernel(self, rng):
        p, g = random_cloud(rng, 512), random_cloud(rng, 512)
        matrix = 512 * 512 * 8
        # the cost and the kernel, one row block of the rank-one patch (a
        # quarter matrix at 512 points) and numpy's buffers: 2.34 matrices.
        # One more full-size temporary would make it 3 at least.
        assert traced_peak(lambda: emd_approx(p, g, 10)) <= 2.5 * matrix

    def test_log_domain_sinkhorn_fills_its_potentials_in_blocks(self, rng):
        # at this epsilon the half-steps fall back to the log domain; a full-size
        # log-sum-exp over the cost peaked at 8.13 matrices, its row or column
        # blocks at 2.39
        p, g = random_cloud(rng, 1024), random_cloud(rng, 1024)
        matrix = 1024 * 1024 * 8
        assert traced_peak(lambda: emd_approx(p, g, 10, 1e-4)) <= 3 * matrix


class TestFscore:
    def test_identity_is_one(self, rng):
        cloud = random_cloud(rng, 15)
        assert fscore(cloud, cloud, 1e-9) == 1.0

    def test_disjoint_is_zero(self):
        assert fscore(PointCloud([[0.0, 0, 0]]), PointCloud([[1.0, 0, 0]]), 0.01) == 0.0

    def test_half_and_half(self):
        p = PointCloud([[0.0, 0, 0], [1, 0, 0]])
        g = PointCloud([[0.0, 0, 0], [5, 0, 0]])
        assert fscore(p, g, 0.1) == pytest.approx(0.5)

    def test_monotone_in_threshold(self, rng):
        p, g = random_cloud(rng, 30), random_cloud(rng, 30)
        values = [fscore(p, g, t) for t in (0.01, 0.05, 0.2, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_rejects_bad_threshold(self, rng):
        p, g = random_cloud(rng, 3), random_cloud(rng, 3)
        for threshold in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidInputError, match="threshold"):
                fscore(p, g, threshold)

    def test_rejected_parameters_make_no_nn_pass(self, rng, nn_calls):
        p, g = random_cloud(rng, 100), random_cloud(rng, 90, dim=2)
        with pytest.raises(InvalidInputError, match="threshold"):
            fscore(p, g, -1.0)
        with pytest.raises(InvalidInputError, match="temperature"):
            dcd(p, g, float("nan"))
        with pytest.raises(InvalidInputError, match="temperature"):
            dcd_gradient(p, g, 0.0)
        assert nn_calls == []


class TestHausdorff:
    def test_fixtures(self):
        assert hausdorff(PointCloud([[0.0, 0, 0]]), PointCloud([[3.0, 0, 0]])) == 3.0
        p = PointCloud([[0.0, 0, 0], [1, 0, 0]])
        g = PointCloud([[0.0, 0, 0], [4, 0, 0]])
        assert hausdorff(p, g) == 3.0
        assert hausdorff(p, p) == 0.0

    def test_dominates_directional_means(self, rng):
        for _ in range(5):
            p, g = random_cloud(rng, 20), random_cloud(rng, 25)
            h = hausdorff(p, g)
            assert h >= cd_local(p, g, 1) - 1e-12
            assert h >= cd_global(p, g, 1) - 1e-12


class TestPointToMesh:
    UNIT_TRI = TriangleMesh([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])

    def test_vertex_coincidence(self):
        assert point_to_mesh(PointCloud([[1.0, 0, 0]]), self.UNIT_TRI) == 0.0

    def test_orthogonal_height_above_interior(self):
        assert point_to_mesh(PointCloud([[0.2, 0.2, 0.7]]), self.UNIT_TRI) == pytest.approx(0.7)

    def test_beyond_edge_matches_segment_distance(self):
        # below the hypotenuse-opposite edge: closest feature is the segment y=0
        assert point_to_mesh(PointCloud([[0.5, -1.0, 0.0]]), self.UNIT_TRI) == pytest.approx(1.0)

    def test_against_surface_sampling_oracle(self, rng):
        mesh = TriangleMesh(
            [[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 1]],
            [[0, 1, 2], [1, 2, 3]],
        )
        # ~1e4 lattice samples per triangle (regular barycentric grid)
        k = 140
        ii, jj = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        keep = (ii + jj) <= k
        u = (ii[keep] / k)[:, None]
        v = (jj[keep] / k)[:, None]
        chunks = []
        for t in range(len(mesh)):
            a = mesh.vertices[mesh.triangles[t, 0]]
            b = mesh.vertices[mesh.triangles[t, 1]]
            c = mesh.vertices[mesh.triangles[t, 2]]
            chunks.append(a + u * (b - a) + v * (c - a))
        samples = np.vstack(chunks)
        for q in rng.random((15, 3)) * 2 - 0.5:
            exact = point_to_mesh(PointCloud([q]), mesh)
            sampled = float(np.linalg.norm(samples - q, axis=1).min())
            assert exact <= sampled + 1e-12
            if exact >= 0.05:  # lattice resolution limits agreement very near the surface
                assert abs(exact - sampled) < 1e-3

    def test_rejects_2d_cloud(self, rng):
        with pytest.raises(InvalidInputError):
            point_to_mesh(random_cloud(rng, 3, dim=2), self.UNIT_TRI)

    @staticmethod
    def assert_scan_identical(points: np.ndarray, mesh: TriangleMesh) -> None:
        cloud = PointCloud(points)
        assert point_to_mesh(cloud, mesh) == scan_point_to_mesh(cloud, mesh)
        for q in points:
            one = PointCloud([q])
            assert point_to_mesh(one, mesh) == scan_point_to_mesh(one, mesh)

    def test_lattice_points_on_shared_edges_and_vertices(self):
        mesh = height_mesh(9)  # 128 triangles, edges 1/8 long
        corners = mesh.vertices[mesh.triangles]
        on_mesh = np.vstack([
            mesh.vertices,
            (corners + np.roll(corners, 1, axis=1)).reshape(-1, 3) / 2,  # shared edge midpoints
            corners.mean(axis=1),
        ])
        axis = np.arange(33) / 32
        gx, gy = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
        gz = np.round(8 * np.sin(2 * np.pi * gx) * np.cos(2 * np.pi * gy)) / 32
        lattice = np.column_stack([gx, gy, gz])
        points = np.vstack([on_mesh, on_mesh + [0, 0, 1 / 64], lattice[::3]])
        self.assert_scan_identical(points, mesh)

    def test_one_large_triangle_among_small_ones(self, rng):
        small = height_mesh(7)
        big = [[-4.0, -4.0, 0.5], [6.0, -4.0, 0.5], [0.5, 6.0, 0.5]]
        mesh = TriangleMesh(np.vstack([small.vertices, big]),
                            np.vstack([small.triangles, [[49, 50, 51]]]))
        # just under the big triangle: its centroid is far, the small ones' are near
        points = rng.random((60, 3)) * [1.0, 1.0, 0.2] + [0.0, 0.0, 0.3]
        self.assert_scan_identical(points, mesh)
        assert point_to_mesh(PointCloud([[0.5, 0.5, 0.49]]), mesh) == pytest.approx(0.01)

    def test_points_far_from_the_mesh(self, rng):
        directions = rng.normal(size=(40, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        points = 0.5 + directions * rng.uniform(10.0, 1e4, size=(40, 1))
        self.assert_scan_identical(points, height_mesh(6))

    def test_coordinates_offset_by_1e6(self, rng):
        mesh = height_mesh(8, offset=1e6)
        points = np.vstack([mesh.vertices[::3], 1e6 + rng.random((50, 3)) - [0, 0, 0.5]])
        self.assert_scan_identical(points, mesh)

    def test_one_triangle_mesh_and_one_point_cloud(self, rng):
        self.assert_scan_identical(rng.random((30, 3)) * 3 - 1, self.UNIT_TRI)
        mesh = height_mesh(10)
        for q in ([0.5, 0.5, 0.0], [0.25, 0.0, 0.25], [3.0, -2.0, 1.0]):
            one = PointCloud([q])
            assert point_to_mesh(one, mesh) == scan_point_to_mesh(one, mesh)

    def test_bounded_pair_chunks_give_the_same_value(self, rng, monkeypatch):
        mesh = height_mesh(9)
        cloud = PointCloud(rng.random((80, 3)) - [0, 0, 0.5])
        expected = scan_point_to_mesh(cloud, mesh)
        for chunk in (1, 300, 5000):
            monkeypatch.setattr(metrics, "PAIR_CHUNK", chunk)
            assert point_to_mesh(cloud, mesh) == expected

    def test_prunes_most_triangles(self, rng, monkeypatch):
        rows = []
        original = metrics._point_triangle_sqdists

        def counted(q, *corners):
            rows.append(len(q))
            return original(q, *corners)

        monkeypatch.setattr(metrics, "_point_triangle_sqdists", counted)
        mesh = height_mesh(23)  # 968 triangles
        cloud = PointCloud(rng.random((200, 3)) * [1, 1, 0.5] - [0, 0, 0.25])
        point_to_mesh(cloud, mesh)
        assert sum(rows) < len(cloud) * len(mesh) / 20
        # one large triangle widens every ball to the whole mesh; the
        # per-triangle bounding-sphere test still drops most of it
        rows.clear()
        small = height_mesh(7)
        big = [[-4.0, -4.0, 0.5], [6.0, -4.0, 0.5], [0.5, 6.0, 0.5]]
        mesh = TriangleMesh(np.vstack([small.vertices, big]),
                            np.vstack([small.triangles, [[49, 50, 51]]]))
        point_to_mesh(cloud, mesh)
        assert sum(rows) < len(cloud) * len(mesh) / 3


    @pytest.mark.parametrize("vertices", [
        [[1e200, 0, 0], [1e200, 1, 0], [1e200, 0, 1]],  # no centroid within a finite distance
        [[-1e200, -1e200, 0], [1e200, -1e200, 0], [0, 2e200, 0]],  # a radius that overflows
        # squared edge lengths whose product overflows
        [[-1e80, -1e80, 0], [1e80, -1e80, 0], [0, 2e80, 0]],
        # positive area, though the edges' cross product overflows
        [[0, 0, 0], [1e200, 1e200, 0], [1e200, 1e200, 1]],
        # an edge that overflows
        [[-1.7e308, 0, 0], [1.7e308, 0, 0], [0, 1, 0]],
    ], ids=["far", "wide", "huge", "huge-thin", "huge-edge"])
    def test_overflowing_squared_distances_are_a_numerical_error(self, vertices):
        cloud = PointCloud([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        message = "a squared distance to the mesh overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mesh = TriangleMesh(vertices, [[0, 1, 2]])
            with pytest.raises(NumericalError, match=f"^{message}$"):
                point_to_mesh(cloud, mesh)
            with pytest.raises(NumericalError, match=f"^p2f: {message}$"):
                report(cloud, cloud, 0.01, 1000.0, mesh=mesh)

    def test_a_point_far_from_a_mid_size_triangle_prints_no_warning(self):
        # a squared edge (1e120) times the point's dot product with an edge (1e200)
        # overflows, though every squared distance is finite; the in-plane projection
        # lies far outside, so the value is the edge distance
        mesh = TriangleMesh([[0.0, 0, 0], [1e60, 0, 0], [0, 1e60, 0]], [[0, 1, 2]])
        far = PointCloud([[1e140, 1e140, 1e140]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert point_to_mesh(far, mesh) == 1.7320508075688774e+140
            # a row beside it that projects inside keeps its plane distance
            rows = np.array([[1e140, 1e140, 1e140], [2.5e59, 2.5e59, 3.0]])
            corners = [np.repeat(vertex[None], 2, axis=0) for vertex in mesh.vertices]
            sq = metrics._point_triangle_sqdists(rows, *corners)
        assert np.sqrt(sq[0]) == 1.7320508075688774e+140 and sq[1] == 9.0


class TestFidelity:
    def test_subset_is_zero(self, rng):
        out = random_cloud(rng, 30)
        partial = PointCloud(out.points[:10])
        assert fidelity(partial, out) == 0.0

    def test_single_pair(self):
        assert fidelity(PointCloud([[0.0, 0, 0]]), PointCloud([[2.0, 0, 0]])) == 2.0

    def test_equals_local_term(self, rng):
        partial, out = random_cloud(rng, 20), random_cloud(rng, 35)
        assert fidelity(partial, out) == cd_local(partial, out, 1)


class TestSharedMatching:
    VALUES = {
        "fcd-r1": lambda p, g, **kw: fcd(p, g, FcdWeights(1.0, 2.0), 1, **kw),
        "fcd-r2": lambda p, g, **kw: fcd(p, g, FcdWeights(1.0, 2.0), 2, **kw),
        "chamfer_l1": chamfer_l1,
        "dcd": lambda p, g, **kw: dcd(p, g, 50.0, **kw),
        "cd_local": cd_local,
        "cd_global": cd_global,
    }

    def test_values_equal_fresh_matchings(self, rng, nn_calls):
        # the kd-tree path, then one distance block for both directions
        for n, k in ((90, 70), (40, 30)):
            p, g = random_cloud(rng, n), random_cloud(rng, k)
            for name, value in self.VALUES.items():
                m = Matching(p, g)
                shared = value(p, g, matching=m)
                assert shared == value(p, g), name
                nn_calls.clear()
                assert value(p, g, matching=m) == shared, name  # its searches are done
                assert nn_calls == [], name

    def test_rejects_a_matching_of_another_pair(self, rng):
        p, g = random_cloud(rng, 5), random_cloud(rng, 6)
        with pytest.raises(InvalidInputError):
            chamfer_l1(g, p, matching=Matching(p, g))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(InvalidInputError):
            Matching(random_cloud(rng, 3, dim=2), random_cloud(rng, 3, dim=3))


class TestReport:
    """``report`` holds each standalone metric's value, bit for bit, under every EMD rule."""

    @staticmethod
    def standalone(pred, gt, emd, mesh=None, partial=None) -> MetricReport:
        return MetricReport(
            cd_l1=chamfer_l1(pred, gt),
            cd_l2=chamfer_l2(pred, gt),
            dcd=dcd(pred, gt, 30.0),
            emd=emd,
            fscore=fscore(pred, gt, 0.2),
            hausdorff=hausdorff(pred, gt),
            p2f=None if mesh is None else point_to_mesh(pred, mesh),
            fidelity=None if partial is None else fidelity(partial, pred),
        )

    @pytest.mark.parametrize("sinkhorn", [None, (50, 0.05)])
    def test_equal_sizes_under_the_cap_take_exact_emd(self, rng, sinkhorn):
        pred, gt, partial = random_cloud(rng, 40), random_cloud(rng, 40), random_cloud(rng, 15)
        mesh = height_mesh(5)
        got = report(pred, gt, 0.2, 30.0, sinkhorn, mesh=mesh, partial=partial)
        assert got == self.standalone(pred, gt, emd_exact(pred, gt), mesh, partial)

    def test_unequal_sizes_take_sinkhorn(self, rng):
        pred, gt = random_cloud(rng, 40), random_cloud(rng, 55)
        got = report(pred, gt, 0.2, 30.0, (50, 0.05))
        assert got == self.standalone(pred, gt, emd_approx(pred, gt, 50, 0.05))

    def test_equal_sizes_over_the_cap_take_sinkhorn(self, rng):
        n = metrics.EMD_EXACT_MAX + 1
        pred, gt = random_cloud(rng, n), random_cloud(rng, n)
        got = report(pred, gt, 0.2, 30.0, (2, 0.05))
        assert got == self.standalone(pred, gt, emd_approx(pred, gt, 2, 0.05))

    def test_unequal_sizes_without_sinkhorn_have_no_emd(self, rng):
        pred, gt = random_cloud(rng, 40), random_cloud(rng, 55)
        assert report(pred, gt, 0.2, 30.0) == self.standalone(pred, gt, None)

    def test_equal_sizes_over_the_cap_without_sinkhorn_are_an_error(self, rng):
        n = metrics.EMD_EXACT_MAX + 1
        pred, gt = random_cloud(rng, n), random_cloud(rng, n)
        # the library argument is named, not only the CLI flag
        cap = r"^emd: clouds exceed the exact-solver cap .*\bsinkhorn\b"
        with pytest.raises(InvalidInputError, match=cap):
            report(pred, gt, 0.2, 30.0)

    def test_first_rejected_parameter_names_its_metric(self, rng):
        pred, gt = random_cloud(rng, 4), random_cloud(rng, 6)
        with pytest.raises(InvalidInputError, match=r"^dcd: temperature"):
            report(pred, gt, -1.0, float("nan"), (10, 0.0))
        with pytest.raises(InvalidInputError, match=r"^emd: epsilon"):
            report(pred, gt, -1.0, 30.0, (10, 0.0))

    def test_a_value_that_is_not_finite_names_its_metric(self):
        far = PointCloud([[0.0, 0.0, 0.0], [1e200, 0.0, 0.0], [2.0, 0.0, 0.0]])
        near = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(NumericalError, match=r"^cd_l1: the value is not finite \(inf\)$"):
            report(far, near, 0.2, 30.0)
        # every nearest-neighbour distance is 0, but not every pairwise one
        pair = PointCloud(far.points[:2])
        with pytest.raises(NumericalError, match="^emd: a pairwise distance is not finite$"):
            report(pair, pair, 0.2, 30.0)

    @pytest.mark.parametrize("with_partial, passes", [(False, 10), (True, 11)])
    def test_one_matching_per_metric(self, rng, nn_calls, with_partial, passes):
        pred, gt = random_cloud(rng, 90), random_cloud(rng, 80)
        partial = random_cloud(rng, 20) if with_partial else None
        report(pred, gt, 0.2, 30.0, partial=partial)
        assert len(nn_calls) == passes


class TestMetricReport:
    def test_json_and_csv_round_trip(self):
        report = MetricReport(cd_l1=1.25, dcd=0.5, fscore=1.0)
        data = json.loads(report.to_json())
        assert data["cd_l1"] == 1.25
        assert data["emd"] is None
        header = MetricReport.csv_header()
        assert header == "cd_l1,cd_l2,dcd,emd,fscore,hausdorff,p2f,fidelity"
        row = report.csv_row()
        assert row.split(",")[0] == "1.25"
        assert row.split(",")[3] == ""  # absent metric stays empty

    def test_validates_ranges(self):
        with pytest.raises(InvalidInputError):
            MetricReport(dcd=1.5)
        with pytest.raises(InvalidInputError):
            MetricReport(cd_l1=-0.1)
        for name in ("cd_l1", "dcd", "emd", "fscore"):
            with pytest.raises(InvalidInputError, match=name):
                MetricReport(**{name: float("nan")})
