from __future__ import annotations

import numpy as np
import pytest

from chamferlab import (
    DivergenceError,
    FcdWeights,
    HierarchySpec,
    InvalidInputError,
    Matching,
    ObjectiveSpec,
    OptimizerConfig,
    PointCloud,
    ScheduleSpec,
    UncertaintyState,
    cd_global,
    cd_local,
    clustered_grid_benchmark,
    dcd,
    fcd,
    fcd_gradient,
    optimize,
    optimize_hierarchical,
    subsample,
    support_pinning,
    uncertainty_loss,
)
from chamferlab import schedule_weights as schedule_weights_fn
from chamferlab.cloud import nearest_neighbors
from chamferlab.descent import _Loss

from conftest import StageLossSpec, multi_stage_loss, random_cloud

G_STALE = PointCloud([[0.0, 0.0], [4.0, 0.0]])
P_STALE = PointCloud([[0.5, 0.0], [1.0, 0.0]])


def test_identity_start_is_fixed_point(rng):
    target = random_cloud(rng, 12)
    config = OptimizerConfig(steps=20, step_size=0.05, record_every=5)
    final, trace = optimize(target, target, ObjectiveSpec("cd-l1"), config)
    assert final == target
    assert all(rec.objective == 0.0 for rec in trace.records)


class TestStalemate:
    def test_cd_l1_leaves_free_point_stuck(self):
        config = OptimizerConfig(steps=1000, step_size=5e-4, record_every=500)
        final, _ = optimize(P_STALE, G_STALE, ObjectiveSpec("cd-l1"), config, pinned=[0])
        assert np.linalg.norm(final.points[1] - P_STALE.points[1]) < 1e-6

    def test_fcd_l1_escapes_to_far_target(self):
        config = OptimizerConfig(steps=8000, step_size=5e-4, record_every=2000)
        spec = ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), r=1)
        final, _ = optimize(P_STALE, G_STALE, spec, config, pinned=[0])
        assert np.linalg.norm(final.points[1] - np.array([4.0, 0.0])) < 1e-3

    def test_cd_l2_converges_to_midpoint(self):
        config = OptimizerConfig(steps=6000, step_size=1e-3, record_every=2000)
        final, _ = optimize(P_STALE, G_STALE, ObjectiveSpec("cd-l2"), config, pinned=[0])
        assert np.linalg.norm(final.points[1] - np.array([2.0, 0.0])) < 1e-3

    def test_fcd_l2_crosses_midpoint(self):
        config = OptimizerConfig(steps=6000, step_size=1e-3, record_every=2000)
        spec = ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), r=2)
        final, _ = optimize(P_STALE, G_STALE, spec, config, pinned=[0])
        assert np.linalg.norm(final.points[1] - np.array([4.0, 0.0])) < 1e-3

    def test_pinned_point_never_moves(self):
        config = OptimizerConfig(steps=500, step_size=1e-3, record_every=100)
        spec = ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), r=1)
        final, _ = optimize(P_STALE, G_STALE, spec, config, pinned=[0])
        assert (final.points[0] == P_STALE.points[0]).all()
        assert not (final.points[1] == P_STALE.points[1]).all()


class TestPinning:
    def test_pin_all_freezes_everything(self, rng):
        init, target = random_cloud(rng, 8), random_cloud(rng, 8)
        config = OptimizerConfig(steps=50, step_size=0.05, record_every=10)
        final, _ = optimize(init, target, ObjectiveSpec("cd-l1"), config, pinned=range(8))
        assert final == init

    def test_pin_none_matches_unconstrained(self, rng):
        init, target = random_cloud(rng, 8), random_cloud(rng, 8)
        config = OptimizerConfig(steps=50, step_size=0.05, record_every=10)
        a, _ = optimize(init, target, ObjectiveSpec("cd-l1"), config, pinned=[])
        b, _ = optimize(init, target, ObjectiveSpec("cd-l1"), config)
        assert a == b

    def test_out_of_range_index(self, rng):
        with pytest.raises(InvalidInputError):
            support_pinning(random_cloud(rng, 4), [4])


def test_deterministic_traces(rng):
    init, target = clustered_grid_benchmark(16, seed=7)
    config = OptimizerConfig(steps=120, step_size=0.05, seed=7, record_every=30)
    spec = ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), r=1)
    final_a, trace_a = optimize(init, target, spec, config)
    final_b, trace_b = optimize(init, target, spec, config)
    assert final_a == final_b
    assert trace_a.to_csv() == trace_b.to_csv()


@pytest.mark.parametrize(
    "objective, schedule",
    [
        (ObjectiveSpec("cd-l1"), None),
        (ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), r=2), None),
        (ObjectiveSpec("fcd"), ScheduleSpec("uncertainty")),
        (ObjectiveSpec("dcd-loss"), None),
    ],
)
def test_each_evaluation_and_snapshot_matches_once(rng, nn_calls, objective, schedule):
    init, target = random_cloud(rng, 70), random_cloud(rng, 80)
    _Loss(objective, schedule).value_grad(Matching(init, target), 0)
    assert nn_calls == [70, 80]
    nn_calls.clear()
    # a trace snapshot reuses the matching of the evaluation it records
    config = OptimizerConfig(steps=4, step_size=1e-3, record_every=2)
    optimize(init, target, objective, config, schedule=schedule)
    assert len(nn_calls) == 2 * (config.steps + 1)


def test_objective_decreases_without_assignment_switches(rng):
    # a gently perturbed copy keeps every match stable, so plain descent is
    # monotone at every step
    target = random_cloud(rng, 20)
    init = PointCloud(target.points + 0.01 * rng.standard_normal(target.points.shape))
    config = OptimizerConfig(steps=200, step_size=1e-3, record_every=1)
    _, trace = optimize(init, target, ObjectiveSpec("cd-l2"), config)
    values = [rec.objective for rec in trace.records]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_objective_decrease_except_at_switches():
    # mirror the descent loop while tracking assignment signatures: every
    # objective increase must coincide with a nearest-neighbor switch
    init, target = clustered_grid_benchmark(16, seed=3)
    weights = FcdWeights(1.0, 2.0)
    config = OptimizerConfig(steps=400, step_size=1e-3, record_every=1)
    spec = ObjectiveSpec("fcd", weights, r=1)
    _, trace = optimize(init, target, spec, config)
    values = [rec.objective for rec in trace.records]

    x = init.points.copy()
    signatures = []
    for _ in range(config.steps + 1):
        gi, _ = nearest_neighbors(x, target)
        pi, _ = nearest_neighbors(target.points, PointCloud(x))
        signatures.append((gi.tobytes(), pi.tobytes()))
        x = x - config.step_size * fcd_gradient(PointCloud(x), target, weights, 1)

    for k in range(len(values) - 1):
        if values[k + 1] > values[k] + 1e-15:
            assert signatures[k + 1] != signatures[k], f"increase without switch at step {k}"


@pytest.mark.parametrize(
    "objective",
    [ObjectiveSpec("cd-l1"), ObjectiveSpec("fcd", FcdWeights(1.0, 2.0))],
    ids=["cd-l1", "fcd"],
)
def test_near_converged_two_cycle_is_not_divergence(objective):
    # a start 1e-12 from the target settles into a bounded 2-cycle of about
    # the step size; its objective grows by orders of magnitude but stays small
    _, target = clustered_grid_benchmark(64, seed=42)
    noise = 1e-12 * np.random.default_rng(0).standard_normal(target.points.shape)
    config = OptimizerConfig(steps=200, step_size=0.05, record_every=50)
    final, trace = optimize(PointCloud(target.points + noise), target, objective, config)
    assert np.abs(final.points - target.points).max() < config.step_size
    assert trace.records[-1].cd_l1 < config.step_size


def test_divergence_guard():
    init = PointCloud([[0.0, 0.0], [1.0, 0.0]])
    target = PointCloud([[0.5, 0.0], [3.0, 0.0]])
    config = OptimizerConfig(steps=200, step_size=50.0, record_every=200)
    with pytest.raises(DivergenceError):
        optimize(init, target, ObjectiveSpec("cd-l2"), config)


def test_overflowing_uncertainty_weights_are_divergence():
    # one step of this size drives s_local near -950, where exp(-s_local) overflows
    init, target = clustered_grid_benchmark(64, seed=42)
    config = OptimizerConfig(steps=3, step_size=1000.0)
    with pytest.raises(DivergenceError, match="at step 1$"):
        optimize(init, target, ObjectiveSpec("fcd"), config, schedule=ScheduleSpec("uncertainty"))


def test_momentum_converges_on_easy_problem(rng):
    target = random_cloud(rng, 10)
    init = PointCloud(target.points + 0.05 * rng.standard_normal((10, 3)))
    config = OptimizerConfig(
        steps=300, step_size=1e-3, update_rule="momentum", momentum_coeff=0.8, record_every=100
    )
    _, trace = optimize(init, target, ObjectiveSpec("cd-l2"), config)
    assert trace.records[-1].objective < trace.records[0].objective


def test_dcd_loss_descends(rng):
    init, target = clustered_grid_benchmark(16, seed=5)
    config = OptimizerConfig(steps=80, step_size=0.5, record_every=20)
    _, trace = optimize(init, target, ObjectiveSpec("dcd-loss", dcd_temperature=10.0), config)
    assert trace.records[-1].objective < trace.records[0].objective


def test_schedule_drives_weights_and_clamps_past_total(rng):
    init, target = clustered_grid_benchmark(16, seed=9)
    schedule = ScheduleSpec("linear", t=50, T=100)
    config = OptimizerConfig(steps=150, step_size=0.01, record_every=50)
    spec = ObjectiveSpec("fcd", r=1)
    _, trace = optimize(init, target, spec, config, schedule=schedule)
    betas = [rec.beta for rec in trace.records]
    assert betas[0] == 2.0
    assert betas[-1] == 1.0  # epochs past T hold the decayed endpoint
    assert all(rec.alpha == 1.0 for rec in trace.records)


def test_uncertainty_schedule_adapts_weights(rng):
    init, target = clustered_grid_benchmark(16, seed=11)
    schedule = ScheduleSpec("uncertainty")
    config = OptimizerConfig(steps=60, step_size=0.05, record_every=20)
    _, trace = optimize(init, target, ObjectiveSpec("fcd", r=1), config, schedule=schedule)
    first, last = trace.records[0], trace.records[-1]
    assert (first.alpha, first.beta) == pytest.approx((1.0, 2.0))
    assert (last.alpha, last.beta) != (first.alpha, first.beta)


@pytest.mark.parametrize("kind", ["cd-l1", "dcd-loss"])
def test_only_fcd_takes_a_schedule(rng, kind):
    init, target = random_cloud(rng, 6), random_cloud(rng, 6)
    config = OptimizerConfig(steps=2, step_size=1e-3)
    with pytest.raises(InvalidInputError, match="does not take a schedule"):
        optimize(init, target, ObjectiveSpec(kind), config, schedule=ScheduleSpec("static"))


def test_fcd_without_weights_or_schedule_is_rejected(rng):
    init, target = random_cloud(rng, 6), random_cloud(rng, 6)
    config = OptimizerConfig(steps=2, step_size=1e-3)
    with pytest.raises(InvalidInputError, match="needs explicit weights"):
        optimize(init, target, ObjectiveSpec("fcd"), config)


@pytest.mark.parametrize(
    "objective, weights",
    [
        (ObjectiveSpec("cd-l1"), (0.5, 0.5)),
        (ObjectiveSpec("cd-l2"), (1.0, 1.0)),
        (ObjectiveSpec("fcd", FcdWeights(1.0, 2.0)), (1.0, 2.0)),
        (ObjectiveSpec("dcd-loss"), (0.5, 0.5)),
    ],
    ids=["cd-l1", "cd-l2", "fcd", "dcd-loss"],
)
def test_trace_reports_each_objectives_fixed_weights(rng, objective, weights):
    init, target = random_cloud(rng, 6), random_cloud(rng, 6)
    config = OptimizerConfig(steps=4, step_size=1e-3, record_every=2)
    _, trace = optimize(init, target, objective, config)
    assert [(rec.alpha, rec.beta) for rec in trace.records] == [weights] * 3


def test_trace_csv_layout(rng):
    init, target = random_cloud(rng, 6), random_cloud(rng, 6)
    config = OptimizerConfig(steps=10, step_size=1e-3, record_every=3)
    _, trace = optimize(init, target, ObjectiveSpec("cd-l1"), config)
    lines = trace.to_csv().strip().split("\n")
    assert lines[0] == "epoch,objective,alpha,beta,cd_l1,dcd,emd,grad_max"
    epochs = [int(line.split(",")[0]) for line in lines[1:]]
    assert epochs == [0, 3, 6, 9, 10]
    for line in lines[1:]:
        assert all(np.isfinite(float(cell)) for cell in line.split(","))


def test_snapshot_emd_subsamples_unequal_sizes(rng):
    init, target = random_cloud(rng, 10), random_cloud(rng, 25)
    config = OptimizerConfig(steps=5, step_size=1e-3, record_every=5)
    _, trace = optimize(init, target, ObjectiveSpec("cd-l1"), config)
    assert np.isfinite(trace.records[-1].emd)


class TestHierarchical:
    def test_perfect_start_stays_put(self, rng):
        target = random_cloud(rng, 12)
        hierarchy = HierarchySpec(children_per_coarse=1, offset_scale=0.0)
        schedule = ScheduleSpec("static")
        config = OptimizerConfig(steps=20, step_size=0.05, seed=0, record_every=5)
        fine, coarse, trace = optimize_hierarchical(target, hierarchy, target, schedule, config)
        assert fine == target
        assert coarse == target
        assert all(rec.objective == 0.0 for rec in trace.records)

    def test_single_stage_matches_summed_objective_oracle(self, rng):
        # one coarse point per fine point with frozen zero offsets: the fine
        # cloud is the skeleton, descended on the sum of both stage losses
        target = random_cloud(rng, 16, dim=2)
        init = random_cloud(rng, 8, dim=2)
        hierarchy = HierarchySpec(children_per_coarse=1, offset_scale=0.0)
        plain = OptimizerConfig(steps=40, step_size=0.01, seed=13, record_every=10)
        momentum = OptimizerConfig(
            steps=40, step_size=0.01, update_rule="momentum", momentum_coeff=0.9, seed=13,
            record_every=10,
        )
        cases = [
            (ScheduleSpec("linear", t=25, T=50), plain),
            (ScheduleSpec("static", t=25, T=50), plain),
            (ScheduleSpec("uncertainty", t=25, T=50), plain),
            (ScheduleSpec("linear", t=25, T=50), momentum),
        ]
        for schedule, config in cases:
            case = f"{schedule.kind}/{config.update_rule}"
            fine, coarse, trace = optimize_hierarchical(
                init, hierarchy, target, schedule, config, r=1, freeze_offsets=True
            )

            coarse_target = subsample(target, 8, "farthest-point", config.seed)
            static = FcdWeights(schedule.tau, schedule.theta)
            uncertain = schedule.kind == "uncertainty"
            state = UncertaintyState.initial(schedule.tau, schedule.theta) if uncertain else None
            x = init.points.copy()
            velocity = np.zeros_like(x)
            objectives = []
            for step in range(config.steps + 1):
                p = PointCloud(x)
                epoch = min(step, schedule.T)
                stages = StageLossSpec(((p, coarse_target),), (p, target), epoch)
                objective = multi_stage_loss(stages, schedule, 1, state)
                if uncertain:
                    objective += state.s_local + state.s_global
                objectives.append(objective)
                if step == config.steps:
                    break
                fine_weights = schedule_weights_fn(schedule, epoch, state)
                grad = fcd_gradient(p, coarse_target, static, 1) + fcd_gradient(
                    p, target, fine_weights, 1
                )
                if config.update_rule == "momentum":
                    velocity = config.momentum_coeff * velocity + grad
                    x = x - config.step_size * velocity
                else:
                    x = x - config.step_size * grad
                if uncertain:  # the state descends on the losses before the step
                    losses = cd_local(p, target), cd_global(p, target)
                    _, state_grad = uncertainty_loss(*losses, state)
                    state = UncertaintyState(
                        state.s_local - config.step_size * state_grad[0],
                        state.s_global - config.step_size * state_grad[1],
                    )
            assert np.array_equal(coarse.points, x), case
            assert np.array_equal(fine.points, x), case
            for rec in trace.records:
                expected = objectives[rec.epoch]
                if uncertain:
                    assert abs(rec.objective - expected) <= 1e-12, case
                else:
                    assert rec.objective == expected, case

    def test_clustered_coarse_expands_toward_grid(self, rng):
        _, target = clustered_grid_benchmark(64, seed=42)
        init_coarse = PointCloud(0.05 * rng.standard_normal((16, 2)))
        hierarchy = HierarchySpec(children_per_coarse=4)
        schedule = ScheduleSpec("static")
        config = OptimizerConfig(steps=600, step_size=0.05, seed=42, record_every=200)
        fine, _, _ = optimize_hierarchical(init_coarse, hierarchy, target, schedule, config)
        expanded = PointCloud(
            np.repeat(init_coarse.points, 4, axis=0)
            + 1e-3 * np.random.default_rng(42).standard_normal((64, 2))
        )
        assert dcd(fine, target, 30.0) < dcd(expanded, target, 30.0)

    @pytest.mark.parametrize("kind", ["static", "uncertainty"])
    def test_each_stage_matches_once_per_evaluation(self, rng, nn_calls, kind):
        target = random_cloud(rng, 90)
        init_coarse = random_cloud(rng, 20)
        hierarchy = HierarchySpec(children_per_coarse=4)
        config = OptimizerConfig(steps=4, step_size=1e-3, record_every=2)
        optimize_hierarchical(init_coarse, hierarchy, target, ScheduleSpec(kind), config)
        assert len(nn_calls) == 4 * (config.steps + 1)

    def test_overflowing_uncertainty_weights_are_divergence(self, rng):
        _, target = clustered_grid_benchmark(64, seed=42)
        init_coarse = PointCloud(0.05 * rng.standard_normal((16, 2)))
        hierarchy = HierarchySpec(children_per_coarse=4)
        config = OptimizerConfig(steps=3, step_size=1000.0)
        schedule = ScheduleSpec("uncertainty")
        with pytest.raises(DivergenceError, match="at step 1$"):
            optimize_hierarchical(init_coarse, hierarchy, target, schedule, config)

    def test_size_validation(self, rng):
        target = random_cloud(rng, 8)
        with pytest.raises(InvalidInputError, match="more coarse points than target points"):
            optimize_hierarchical(
                random_cloud(rng, 9),
                HierarchySpec(children_per_coarse=1),
                target,
                ScheduleSpec("static"),
                OptimizerConfig(steps=1, step_size=0.1),
            )
        for scale in (float("nan"), float("inf"), -1.0):
            with pytest.raises(InvalidInputError, match="offset_scale"):
                HierarchySpec(children_per_coarse=2, offset_scale=scale)
        with pytest.raises(InvalidInputError, match="children_per_coarse"):
            HierarchySpec(children_per_coarse=0)
