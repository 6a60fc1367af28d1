"""Acceptance gate: every criterion at its stated tolerance, one line per result.

Lines are written straight to the real stdout so they stay visible under
pytest's capture. Runtime limits are asserted where the criterion states one.
"""

from __future__ import annotations

import functools
import itertools
import shutil
import statistics
import sys
import time

import numpy as np
import pytest

from chamferlab import (
    FcdWeights,
    ObjectiveSpec,
    OptimizerConfig,
    PointCloud,
    ScheduleSpec,
    UncertaintyState,
    build_ambiguity_pair,
    build_index,
    chamfer_l1,
    chamfer_l2,
    closed_form_gradients,
    clustered_grid_benchmark,
    dcd,
    default_sweep_config,
    emd_exact,
    fcd,
    fcd_gradient,
    optimize,
    schedule_weights,
    sweep,
    uncertainty_loss,
)
from chamferlab.analysis import sweep_to_csv
from chamferlab.cli import main as cli_main
from chamferlab.objective import _direction

# evaluation temperature for the benchmark comparison: the exponential kernel
# must stay sensitive at the grid pitch (~0.14), far coarser than the
# normalized-scan scale the 1000 default is calibrated for
BENCHMARK_DCD_TEMPERATURE = 30.0


def criterion(number: int, description: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                sys.__stdout__.write(f"ACCEPTANCE {number:2d} FAIL  {description}\n")
                raise
            sys.__stdout__.write(f"ACCEPTANCE {number:2d} PASS  {description}\n")

        return run

    return wrap


@criterion(1, "distance-gradient identities vs finite differences (1,000 pairs, <1s)")
def test_criterion_01_lemma_gradients():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    p = rng.standard_normal((1000, 3))
    g = rng.standard_normal((1000, 3))
    diff = p - g
    dist = np.linalg.norm(diff, axis=1)
    assert dist.min() > 1e-3  # pairs are well separated

    grad_d = _direction(diff, dist, 1)
    grad_sq = _direction(diff, dist, 2)
    assert np.abs(np.linalg.norm(grad_d, axis=1) - 1.0).max() <= 1e-12
    assert (grad_sq == 2.0 * diff).all()

    step = 1e-6
    for j in range(3):
        e = np.zeros(3)
        e[j] = step
        fd_d = (
            np.linalg.norm(p + e - g, axis=1) - np.linalg.norm(p - e - g, axis=1)
        ) / (2 * step)
        fd_sq = (
            ((p + e - g) ** 2).sum(axis=1) - ((p - e - g) ** 2).sum(axis=1)
        ) / (2 * step)
        denom_d = np.maximum(np.abs(fd_d), 1.0)
        denom_sq = np.maximum(np.abs(fd_sq), 1.0)
        assert (np.abs(grad_d[:, j] - fd_d) / denom_d).max() <= 1e-5
        assert (np.abs(grad_sq[:, j] - fd_sq) / denom_sq).max() <= 1e-5

    # the same identities drive the objective gradient on singleton clouds
    for k in range(10):
        pc, gc = PointCloud([p[k]]), PointCloud([g[k]])
        assert np.abs(fcd_gradient(pc, gc, FcdWeights(0.5, 0.5), 1)[0] - grad_d[k]).max() <= 1e-15
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "two-point stalemate gradient fixtures, analytic and closed-form")
def test_criterion_02_fixture_gradients():
    p = PointCloud([[0.5, 0.0], [1.0, 0.0]])
    g = PointCloud([[0.0, 0.0], [4.0, 0.0]])
    cases = [
        (FcdWeights(1, 1), 1, np.array([0.0, 0.0])),
        (FcdWeights(1, 2), 1, np.array([-0.5, 0.0])),
        (FcdWeights(1, 1), 2, np.array([-2.0, 0.0])),
        (FcdWeights(1, 2), 2, np.array([-5.0, 0.0])),
    ]
    for weights, r, expected in cases:
        grad = fcd_gradient(p, g, weights, r)[1]
        if (expected == 0.0).all():
            assert (grad == 0.0).all()
        else:
            assert np.abs(grad - expected).max() <= 1e-12
    closed = closed_form_gradients([1.0, 0.0], [0.0, 0.0], [4.0, 0.0], [0.5, 0.0], FcdWeights(1, 2))
    assert (closed.cd_l1 == 0.0).all()
    assert np.abs(closed.fcd_l1 - [-0.5, 0.0]).max() <= 1e-12
    assert np.abs(closed.cd_l2 - [-2.0, 0.0]).max() <= 1e-12
    assert np.abs(closed.fcd_l2 - [-5.0, 0.0]).max() <= 1e-12


@criterion(3, "sweep CSV: vanishing CD-l1 gradient, constant FCD-l1 gradient, exact values (<1s)")
def test_criterion_03_sweep_reproduction():
    start = time.perf_counter()
    config = default_sweep_config()
    csv_text = sweep_to_csv(sweep(config), config)
    lines = csv_text.strip().split("\n")
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[2:]]
    assert len(rows) == 28
    pre = [row for row in rows if 0.6 <= row["x"] < 2.0]
    assert len(pre) == 14
    assert all(row["grad_cd_l1_x"] == 0.0 for row in pre)
    assert all(row["grad_fcd_l1_x"] == -0.5 for row in pre)
    for row in rows:
        x = row["x"]
        local1 = 0.5 * (0.5 + min(x, 4.0 - x))
        global1 = 0.5 * (0.5 + (4.0 - x))
        local2 = 0.5 * (0.25 + min(x, 4.0 - x) ** 2)
        global2 = 0.5 * (0.25 + (4.0 - x) ** 2)
        assert abs(row["cd_l1"] - (local1 + global1)) <= 1e-12
        assert abs(row["fcd_l1"] - (local1 + 2.0 * global1)) <= 1e-12
        assert abs(row["cd_l2"] - (local2 + global2)) <= 1e-12
        assert abs(row["fcd_l2"] - (local2 + 2.0 * global2)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(4, "descent stalemate: CD stalls / reaches midpoint, FCD escapes (<5s)")
def test_criterion_04_stalemate_escape():
    start = time.perf_counter()
    g = PointCloud([[0.0, 0.0], [4.0, 0.0]])
    p = PointCloud([[0.5, 0.0], [1.0, 0.0]])
    far = np.array([4.0, 0.0])
    mid = np.array([2.0, 0.0])

    cfg_l1 = OptimizerConfig(steps=1000, step_size=5e-4, record_every=1000)
    final, _ = optimize(p, g, ObjectiveSpec("cd-l1"), cfg_l1, pinned=[0])
    assert np.linalg.norm(final.points[1] - p.points[1]) < 1e-6

    cfg_fcd1 = OptimizerConfig(steps=8000, step_size=5e-4, record_every=8000)
    final, _ = optimize(p, g, ObjectiveSpec("fcd", FcdWeights(1, 2), r=1), cfg_fcd1, pinned=[0])
    assert np.linalg.norm(final.points[1] - far) < 1e-3

    cfg_l2 = OptimizerConfig(steps=6000, step_size=1e-3, record_every=6000)
    final, _ = optimize(p, g, ObjectiveSpec("cd-l2"), cfg_l2, pinned=[0])
    assert np.linalg.norm(final.points[1] - mid) < 1e-3
    final, _ = optimize(p, g, ObjectiveSpec("fcd", FcdWeights(1, 2), r=2), cfg_l2, pinned=[0])
    assert np.linalg.norm(final.points[1] - far) < 1e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


@criterion(5, "ambiguity pair: Chamfer matched to 1%, density gap > 0.02 (<5s)")
def test_criterion_05_ambiguity():
    start = time.perf_counter()
    clustered, uniform, target, report = build_ambiguity_pair(64, 42)
    rel = abs(report.cd_clustered - report.cd_uniform) / report.cd_uniform
    assert rel <= 0.01
    assert report.dcd_clustered - report.dcd_uniform > 0.02
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.3f}s"


@criterion(6, "clustered-grid benchmark: coverage-weighted run wins on density and EMD (<60s)")
def test_criterion_06_direction_of_effect():
    start = time.perf_counter()
    init, target = clustered_grid_benchmark(64, seed=42)
    config = OptimizerConfig(steps=2000, step_size=0.05, seed=42, record_every=500)
    cd_final, _ = optimize(init, target, ObjectiveSpec("fcd", FcdWeights(1, 1), r=1), config)
    fcd_final, _ = optimize(init, target, ObjectiveSpec("fcd", FcdWeights(1, 2), r=1), config)

    dcd_cd = dcd(cd_final, target, BENCHMARK_DCD_TEMPERATURE)
    dcd_fcd = dcd(fcd_final, target, BENCHMARK_DCD_TEMPERATURE)
    emd_cd = emd_exact(cd_final, target)
    emd_fcd = emd_exact(fcd_final, target)
    cd_l1_cd = chamfer_l1(cd_final, target)
    cd_l1_fcd = chamfer_l1(fcd_final, target)

    assert dcd_fcd < dcd_cd, f"dcd {dcd_fcd:.4f} !< {dcd_cd:.4f}"
    assert emd_fcd < emd_cd, f"emd {emd_fcd:.4f} !< {emd_cd:.4f}"
    assert cd_l1_fcd <= 1.10 * cd_l1_cd, f"cd_l1 {cd_l1_fcd:.4f} > 1.1x {cd_l1_cd:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.3f}s"


@criterion(7, "schedule boundary values exact; uncertainty init and state gradients")
def test_criterion_07_schedules():
    assert schedule_weights(ScheduleSpec("static"), 0) == FcdWeights(1.0, 2.0)
    assert schedule_weights(ScheduleSpec("static"), 400) == FcdWeights(1.0, 2.0)
    assert schedule_weights(ScheduleSpec("stair"), 199).beta == 2.0
    assert schedule_weights(ScheduleSpec("stair"), 200).beta == 1.0
    assert schedule_weights(ScheduleSpec("linear"), 0).beta == 2.0
    assert schedule_weights(ScheduleSpec("linear"), 200).beta == 1.5
    assert schedule_weights(ScheduleSpec("linear"), 400).beta == 1.0
    assert schedule_weights(ScheduleSpec("abridged-linear"), 200).beta == 2.0
    assert schedule_weights(ScheduleSpec("abridged-linear"), 300).beta == 1.5
    assert schedule_weights(ScheduleSpec("abridged-linear"), 400).beta == 1.0
    assert schedule_weights(ScheduleSpec("exponential"), 0).beta == 2.0
    assert abs(schedule_weights(ScheduleSpec("exponential"), 200).beta - (np.exp(-1) + 1)) <= 1e-12

    state = UncertaintyState.initial(1.0, 2.0)
    weights = state.weights()
    assert abs(weights.alpha - 1.0) <= 1e-15
    assert abs(weights.beta - 2.0) <= 1e-15

    rng = np.random.default_rng(7)
    step = 1e-7
    for _ in range(50):
        s = UncertaintyState(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
        losses = (float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
        _, grads = uncertainty_loss(*losses, s)
        fd_local = (
            uncertainty_loss(*losses, UncertaintyState(s.s_local + step, s.s_global))[0]
            - uncertainty_loss(*losses, UncertaintyState(s.s_local - step, s.s_global))[0]
        ) / (2 * step)
        fd_global = (
            uncertainty_loss(*losses, UncertaintyState(s.s_local, s.s_global + step))[0]
            - uncertainty_loss(*losses, UncertaintyState(s.s_local, s.s_global - step))[0]
        ) / (2 * step)
        assert abs(grads[0] - fd_local) <= 1e-6
        assert abs(grads[1] - fd_global) <= 1e-6


@criterion(8, "metric oracles: assignment EMD, exact NN, density bounds, symmetry")
def test_criterion_08_metric_oracles():
    rng = np.random.default_rng(808)

    # exact EMD against full permutation enumeration
    for _ in range(100):
        p = PointCloud(rng.random((6, 3)))
        g = PointCloud(rng.random((6, 3)))
        best = min(
            sum(np.linalg.norm(p.points[i] - g.points[j]) for i, j in enumerate(perm))
            for perm in itertools.permutations(range(6))
        )
        assert abs(emd_exact(p, g) - best / 6) <= 1e-12

    # tree queries equal the brute-force scan exactly
    checked = 0
    while checked < 1000:
        cloud = PointCloud(rng.random((int(rng.integers(2, 300)), 3)))
        index = build_index(cloud)
        for q in rng.random((25, 3)):
            sq = ((cloud.points - q) ** 2).sum(axis=1)
            expected = (int(np.argmin(sq)), float(np.sqrt(sq.min())))
            assert index.query(q) == expected
            checked += 1

    # density-aware distance bounds and self-identity
    for _ in range(100):
        p = PointCloud(rng.random((int(rng.integers(1, 40)), 3)))
        g = PointCloud(rng.random((int(rng.integers(1, 40)), 3)))
        value = dcd(p, g, float(rng.uniform(1.0, 1500.0)))
        assert 0.0 <= value <= 1.0
        assert dcd(p, p) == 0.0

    # Chamfer symmetry
    for _ in range(25):
        p = PointCloud(rng.random((30, 3)))
        g = PointCloud(rng.random((40, 3)))
        assert abs(chamfer_l1(p, g) - chamfer_l1(g, p)) <= 1e-12
        assert abs(chamfer_l2(p, g) - chamfer_l2(g, p)) <= 1e-12


@criterion(9, "weighted and plain Chamfer evaluation cost parity on 8,192-point clouds")
def test_criterion_09_cost_parity():
    rng = np.random.default_rng(909)
    p = PointCloud(rng.random((8192, 3)))
    g = PointCloud(rng.random((8192, 3)))
    weights = FcdWeights(1.0, 2.0)
    chamfer_l1(p, g)
    fcd(p, g, weights, 1)  # warm-up both paths

    # one ratio per adjacent pair of calls, so host jitter that spans a pair
    # cancels; the side that runs first alternates, so an advantage of going
    # first or second favours neither side
    calls = {"fcd": lambda: fcd(p, g, weights, 1), "chamfer_l1": lambda: chamfer_l1(p, g)}
    ratios = []
    for k in range(15):
        elapsed = {}
        for name in sorted(calls, reverse=k % 2 == 1):
            start = time.perf_counter()
            calls[name]()
            elapsed[name] = time.perf_counter() - start
        ratios.append(elapsed["fcd"] / elapsed["chamfer_l1"])
    ratio = statistics.median(ratios)
    assert abs(ratio - 1.0) <= 0.05, f"cost ratio {ratio:.4f}"


@criterion(10, "CLI determinism: identical manifests give byte-identical artifacts")
def test_criterion_10_cli_determinism(tmp_path, capsys):
    runs = {
        "optimize": [
            "optimize", "--benchmark", "clustered-grid", "--objective", "fcd",
            "--schedule", "static", "--steps", "60", "--record-every", "20",
            "--out-dir", str(tmp_path / "opt"),
        ],
        "ambiguity": ["ambiguity", "--n", "16", "--seed", "9", "--out-dir", str(tmp_path / "amb")],
    }
    for name, argv in runs.items():
        out = tmp_path / argv[-1].split("/")[-1]
        assert cli_main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        assert cli_main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second, f"{name} artifacts differ between identical runs"
    capsys.readouterr()
