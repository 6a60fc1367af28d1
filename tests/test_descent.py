from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from chamferlab import (
    DivergenceError,
    FcdWeights,
    HierarchySpec,
    InvalidInputError,
    Matching,
    NumericalError,
    ObjectiveSpec,
    OptimizerConfig,
    PointCloud,
    ScheduleSpec,
    UncertaintyState,
    cd_global,
    cd_local,
    chamfer_l1,
    chamfer_l2,
    clustered_grid_benchmark,
    dcd,
    emd_exact,
    fcd,
    fcd_gradient,
    optimize,
    optimize_hierarchical,
    subsample,
    support_pinning,
    uncertainty_loss,
)
from chamferlab import cloud as cloud_module
from chamferlab import descent
from chamferlab import schedule_weights as schedule_weights_fn
from chamferlab.cloud import nearest_neighbors
from chamferlab.descent import _Loss
from chamferlab.objective import dcd_gradient

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

    @pytest.mark.parametrize("objective, grad_max", [
        (ObjectiveSpec("cd-l1"), 0.0), (ObjectiveSpec("fcd", FcdWeights(1.0, 2.0)), 0.5),
    ], ids=["cd-l1", "fcd"])
    def test_grad_max_is_the_applied_gradient(self, objective, grad_max):
        # the pinned p1 feels a pull that no step applies: under cd-l1 the free point's
        # gradient, and so the trace's, is exactly 0, which is the stalemate
        config = OptimizerConfig(steps=4, step_size=5e-4, record_every=2)
        _, trace = optimize(P_STALE, G_STALE, objective, config, pinned=[0])
        assert [rec.grad_max for rec in trace.records] == [grad_max] * 3

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

    def test_fractional_index(self, rng):
        cloud = random_cloud(rng, 4)
        with pytest.raises(InvalidInputError, match="^pinned must hold whole numbers, got 0.7$"):
            support_pinning(cloud, [0.7, 3.2])
        assert support_pinning(cloud, np.array([3.0, 1.0])).tolist() == [1, 3]
        assert support_pinning(cloud, []).size == 0

    def test_non_numeric_index(self, rng):
        with pytest.raises(InvalidInputError, match="^pinned must hold whole numbers, got <U1 entries$"):
            support_pinning(random_cloud(rng, 4), ["a"])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OptimizerConfig(steps=2.5, step_size=0.05), "steps must be an integer, got 2.5"),
        (lambda: OptimizerConfig(steps=10, step_size=0.05, record_every=2.5),
         "record_every must be an integer, got 2.5"),
        (lambda: HierarchySpec(2.5), "children_per_coarse must be an integer, got 2.5"),
    ],
    ids=["steps", "record_every", "children_per_coarse"],
)
def test_integer_settings_reject_fractions(build, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OptimizerConfig(steps=True, step_size=0.05), "steps must be an integer, got True"),
        (lambda: OptimizerConfig(steps=10, step_size=0.05, record_every=True),
         "record_every must be an integer, got True"),
        (lambda: HierarchySpec(True), "children_per_coarse must be an integer, got True"),
    ],
    ids=["steps", "record_every", "children_per_coarse"],
)
def test_integer_settings_reject_bools(build, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: OptimizerConfig(steps=0, step_size=0.05), "steps must be >= 1, got 0"),
        (lambda: OptimizerConfig(steps=10, step_size=0.05, record_every=np.int64(-3)),
         "record_every must be >= 1, got -3"),
        (lambda: HierarchySpec(0), "children_per_coarse must be >= 1, got 0"),
    ],
    ids=["steps", "record_every", "children_per_coarse"],
)
def test_integer_settings_below_one_are_rejected(build, message):
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        build()


def test_benchmark_size_is_a_whole_perfect_square():
    for n in (4.0, True):
        with pytest.raises(InvalidInputError, match=f"^n must be an integer, got {n}$"):
            clustered_grid_benchmark(n)
    with pytest.raises(InvalidInputError, match="^benchmark size must be a perfect square, got 10$"):
        clustered_grid_benchmark(10)
    for n in (0, -4):
        with pytest.raises(InvalidInputError, match=f"^n must be >= 1, got {n}$"):
            clustered_grid_benchmark(n)
    init, target = clustered_grid_benchmark(np.int64(4))
    assert len(init) == len(target) == 4


def test_unknown_objective_kind_is_rejected():
    with pytest.raises(InvalidInputError, match="^unknown objective kind 'hypercd'$"):
        ObjectiveSpec("hypercd")


@pytest.mark.parametrize("r", [True, 2.0])
def test_distance_order_must_be_an_integer(r):
    with pytest.raises(InvalidInputError, match=f"^r must be an integer, got {r}$"):
        ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), r=r)


@pytest.mark.parametrize("seed", [-1, 2.5, "7", None, True])
def test_seed_must_be_a_non_negative_integer(seed):
    message = f"^seed must be a non-negative integer, got {seed}$"
    with pytest.raises(InvalidInputError, match=message):
        OptimizerConfig(steps=2, step_size=0.01, seed=seed)
    with pytest.raises(InvalidInputError, match=message):
        clustered_grid_benchmark(16, seed=seed)
    assert OptimizerConfig(steps=2, step_size=0.01, seed=np.int64(3)).seed == 3


def test_integer_settings_take_numpy_integers():
    config = OptimizerConfig(steps=np.int64(4), step_size=0.05, record_every=np.int32(2))
    assert HierarchySpec(np.int64(2)).children_per_coarse == 2
    init, target = clustered_grid_benchmark(16, seed=7)
    _, trace = optimize(init, target, ObjectiveSpec("cd-l1"), config)
    assert [rec.epoch for rec in trace.records] == [0, 2, 4]


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


def _lattice(side: int, shift: float) -> PointCloud:
    axis = 0.25 * (np.arange(side) + shift)
    return PointCloud(np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3))


LOSS_PAIRS = {
    # 64 points per side: one distance block serves both directions
    "grid64": clustered_grid_benchmark(64, seed=42),
    # 125 against 64 points: the kd-tree path, each target tied between 8 points
    "lattice": (_lattice(5, 0.0), _lattice(4, 0.5)),
}


@pytest.mark.parametrize("pair", list(LOSS_PAIRS))
@pytest.mark.parametrize(
    "objective, schedule, weights, r",
    [
        (ObjectiveSpec("cd-l1"), None, FcdWeights(0.5, 0.5), 1),
        (ObjectiveSpec("cd-l2"), None, FcdWeights(1.0, 1.0), 2),
        (ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), r=1), None, FcdWeights(1.0, 2.0), 1),
        (ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), r=2), None, FcdWeights(1.0, 2.0), 2),
        (ObjectiveSpec("fcd"), ScheduleSpec("uncertainty"), None, 1),
        (ObjectiveSpec("dcd-loss", dcd_temperature=10.0), None, FcdWeights(0.5, 0.5), 1),
        (ObjectiveSpec("dcd-loss", dcd_temperature=1000.0), None, FcdWeights(0.5, 0.5), 1),
    ],
    ids=["cd-l1", "cd-l2", "fcd-r1", "fcd-r2", "uncertainty", "dcd-loss-t10", "dcd-loss-t1000"],
)
def test_loss_is_the_public_value_and_gradient(nn_calls, pair, objective, schedule, weights, r):
    p, g = LOSS_PAIRS[pair]
    state_grad = None
    if objective.kind == "dcd-loss":
        temp = objective.dcd_temperature
        value, grad = dcd(p, g, temp), dcd_gradient(p, g, temp)
    elif schedule is not None:
        state = UncertaintyState.initial(schedule.tau, schedule.theta)
        weights = state.weights()
        value, state_grad = uncertainty_loss(cd_local(p, g, r), cd_global(p, g, r), state)
        grad = fcd_gradient(p, g, weights, r)
    else:
        value, grad = fcd(p, g, weights, r), fcd_gradient(p, g, weights, r)
    nn_calls.clear()
    got = _Loss(objective, schedule).value_grad(Matching(p, g), 0)
    assert len(nn_calls) == 2
    assert got[0] == value
    assert np.array_equal(got[1], grad)
    assert got[2] == weights and got[3] == state_grad


@pytest.mark.parametrize("pair", list(LOSS_PAIRS))
@pytest.mark.parametrize(
    "objective, metric",
    [
        (ObjectiveSpec("cd-l1"), chamfer_l1),
        (ObjectiveSpec("cd-l2"), chamfer_l2),
        (ObjectiveSpec("dcd-loss", dcd_temperature=10.0), lambda p, g: dcd(p, g, 10.0)),
        (ObjectiveSpec("dcd-loss", dcd_temperature=1000.0), lambda p, g: dcd(p, g, 1000.0)),
    ],
    ids=["cd-l1", "cd-l2", "dcd-loss-t10", "dcd-loss-t1000"],
)
def test_fixed_kinds_descend_the_metric_value(pair, objective, metric):
    p, g = LOSS_PAIRS[pair]
    assert _Loss(objective, None).value_grad(Matching(p, g), 0)[0] == metric(p, g)


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
    # the stepped points overshoot by a growing factor until one passes 1e6 x the radius
    with pytest.raises(DivergenceError, match=r"^a point lies 5\.202e\+07 .* at step 4$"):
        optimize(init, target, ObjectiveSpec("cd-l2"), config)


def test_a_huge_weight_diverges_without_a_warning():
    # the first gradient is finite but its squares overflow in the trace's grad_max,
    # and the first step throws the points past the divergence radius
    objective = ObjectiveSpec("fcd", FcdWeights(1e200, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=r"^a point lies 7\.813e\+196 .* at step 1$"):
            optimize(*clustered_grid_benchmark(64, 42), objective,
                     OptimizerConfig(steps=3, step_size=0.05))


@pytest.mark.parametrize("step_size, message", [
    (1e305, "^uncertainty state left the float range at step 0$"),
    (1e304, r"^a point lies 2\.062e\+304 from the target centroid, .* at step 1$"),
])
def test_the_uncertainty_state_is_checked_before_the_guard(step_size, message):
    # at 1e305 the stepped points are finite and beyond reach, but the state's
    # step leaves the float range first; at 1e304 the state stays finite
    rng = np.random.default_rng(0)
    init = PointCloud(0.05 * rng.standard_normal((16, 2)))
    target = PointCloud(1000 + rng.random((16, 2)))
    config = OptimizerConfig(steps=3, step_size=step_size)
    with pytest.raises(DivergenceError, match=message):
        optimize(init, target, ObjectiveSpec("fcd"), config, schedule=ScheduleSpec("uncertainty"))


def test_overflowing_uncertainty_weights_are_divergence():
    # one step of this size drives s_local near -950, where exp(-s_local) overflows
    init, target = clustered_grid_benchmark(64, seed=42)
    config = OptimizerConfig(steps=3, step_size=1000.0)
    with pytest.raises(DivergenceError, match="at step 1$"):
        optimize(init, target, ObjectiveSpec("fcd"), config, schedule=ScheduleSpec("uncertainty"))


def test_underflowing_uncertainty_weights_are_divergence():
    # one step of this size drives s_global to about 2800, where exp(-s_global) rounds to 0
    init, target = clustered_grid_benchmark(64, seed=42)
    config = OptimizerConfig(steps=3, step_size=20.0)
    schedule = ScheduleSpec("uncertainty", tau=100.0, theta=200.0)
    with pytest.raises(DivergenceError, match="^uncertainty weights underflowed at step 1$"):
        optimize(init, target, ObjectiveSpec("fcd"), config, schedule=schedule)


def test_overflowing_uncertainty_step_is_divergence(recwarn):
    # a step of 1e308 overflows the coordinates at step 0; with every point pinned
    # the coordinates stay, and the stepped state alone leaves the float range
    init, target = clustered_grid_benchmark(64, seed=42)
    config = OptimizerConfig(steps=3, step_size=1e308)
    schedule = ScheduleSpec("uncertainty", tau=10.0, theta=20.0)
    with pytest.raises(DivergenceError, match="^coordinates became non-finite at step 0$"):
        optimize(init, target, ObjectiveSpec("fcd"), config, schedule=schedule)
    with pytest.raises(DivergenceError, match="^uncertainty state left the float range at step 0$"):
        optimize(init, target, ObjectiveSpec("fcd"), config, schedule=schedule, pinned=range(64))
    assert not recwarn.list
    # a state that a caller builds is still checked as input
    with pytest.raises(InvalidInputError, match="must be finite"):
        UncertaintyState(math.inf, 0.0)


@pytest.mark.parametrize("n", [64, 70], ids=["block", "tree"])
def test_a_point_whose_squared_distances_all_overflow_is_divergence(rng, n, recwarn):
    # the far row matches index 0 at inf on either nearest-neighbour path
    points = rng.random((n, 2))
    points[0] = [1e200, 0.0]
    config = OptimizerConfig(steps=3, step_size=0.05)
    objective = ObjectiveSpec("fcd", FcdWeights(1.0, 2.0))
    with pytest.raises(DivergenceError, match="^objective became non-finite at step 0$"):
        optimize(PointCloud(points), random_cloud(rng, n, dim=2), objective, config)
    assert not recwarn.list


def test_non_finite_gradient_is_divergence():
    # finite inputs and weights whose gradient overflows at the first evaluation
    init, target = PointCloud([[0.0, 0.0], [1.0, 0.0]]), PointCloud([[100.0, 0.0], [101.0, 0.0]])
    objective = ObjectiveSpec("fcd", FcdWeights(1.7e308, 1.0), r=2)
    with pytest.raises(DivergenceError, match="^gradient contains non-finite entries at step 0$"):
        optimize(init, target, objective, OptimizerConfig(steps=3, step_size=0.05))


def test_momentum_converges_on_easy_problem(rng):
    target = random_cloud(rng, 10)
    init = PointCloud(target.points + 0.05 * rng.standard_normal((10, 3)))
    config = OptimizerConfig(steps=300, step_size=1e-3, momentum_coeff=0.8, record_every=100)
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


def test_dcd_temperature_is_checked_only_by_dcd_loss():
    ObjectiveSpec("fcd", FcdWeights(1.0, 2.0), dcd_temperature=float("nan"))
    with pytest.raises(InvalidInputError, match="dcd_temperature"):
        ObjectiveSpec("dcd-loss", dcd_temperature=float("nan"))


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


@pytest.mark.parametrize("sizes", [(200, 200), (1024, 1024), (150, 300)],
                         ids=["equal-200", "equal-1024", "unequal"])
def test_snapshot_emd_is_exact_on_seeded_subsamples(rng, sizes):
    # one rule at every size: exact EMD on seeded subsamples of min(128, n, m) points
    init, target = random_cloud(rng, sizes[0]), random_cloud(rng, sizes[1])
    config = OptimizerConfig(steps=1, step_size=1e-3, seed=17)
    final, trace = optimize(init, target, ObjectiveSpec("cd-l1"), config)
    for cloud, rec in zip([init, final], trace.records):
        draws = [subsample(c, 128, "random", 17) for c in (cloud, target)]
        assert rec.emd == emd_exact(*draws)


@pytest.mark.parametrize("n", [5, 64, 128])
def test_snapshot_emd_of_small_equal_pairs_is_full_cloud_emd(rng, n):
    init, target = random_cloud(rng, n), random_cloud(rng, n)
    config = OptimizerConfig(steps=1, step_size=1e-3, seed=3)
    final, trace = optimize(init, target, ObjectiveSpec("cd-l1"), config)
    assert [rec.emd for rec in trace.records] == [emd_exact(init, target), emd_exact(final, target)]


def test_snapshot_emd_overflow_names_column_and_step():
    # the descent is at rest, but the square of the snapshot's pairwise distance 9e307 overflows
    cloud = PointCloud([[9e307, 0.0], [0.0, 0.0]])
    config = OptimizerConfig(steps=2, step_size=0.05)
    with pytest.raises(NumericalError, match="^emd at step 0: a pairwise distance is not finite$"):
        optimize(cloud, cloud, ObjectiveSpec("cd-l1"), config)


@pytest.fixture
def calls_in_descend(monkeypatch):
    """``count(owner, name)`` counts the calls of ``owner.name`` and returns the list of
    the counts made inside each ``descent._descend`` run."""
    calls, runs = [], []
    descend = descent._descend

    def counted_descend(*args):
        calls.clear()
        out = descend(*args)
        runs.append(len(calls))
        return out

    def count(owner, name: str) -> list[int]:
        original = getattr(owner, name)

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
        return runs

    monkeypatch.setattr(descent, "_descend", counted_descend)
    return count


def test_stage_clouds_are_checked_once_at_the_start(calls_in_descend):
    checks_in_descend = calls_in_descend(PointCloud, "__post_init__")
    init, target = clustered_grid_benchmark(64, seed=42)
    config = OptimizerConfig(steps=50, step_size=0.05, record_every=10)
    final, _ = optimize(init, target, ObjectiveSpec("fcd", FcdWeights(1.0, 2.0)), config)
    fine, coarse, _ = optimize_hierarchical(PointCloud(init.points[::4]), HierarchySpec(4), target,
                                            ScheduleSpec("static"), config)
    assert checks_in_descend == [1, 2]  # one per stage; each step's clouds are trusted
    for cloud in (final, fine, coarse):
        assert not cloud.points.flags.writeable
        with pytest.raises(ValueError):
            cloud.points[0, 0] = 1.0


def test_each_stepped_cloud_is_judged_in_one_pass(calls_in_descend):
    # two distance passes set the radius; each later stage cloud takes one, the start clouds none
    passes_in_descend = calls_in_descend(descent, "_row_sq_dists")
    init, target = clustered_grid_benchmark(64, seed=42)
    config = OptimizerConfig(steps=50, step_size=0.05, record_every=10)
    optimize(init, target, ObjectiveSpec("fcd", FcdWeights(1.0, 2.0)), config)
    optimize_hierarchical(PointCloud(init.points[::4]), HierarchySpec(4), target,
                          ScheduleSpec("static"), config)
    assert passes_in_descend == [2 + 50, 3 + 2 * 50]


def test_a_stage_target_builds_its_tree_once(calls_in_descend, rng):
    # 80 against 90 points search the kd-tree both ways: the target's tree once, then one
    # tree over each of the 51 evaluated clouds
    builds_in_descend = calls_in_descend(cloud_module, "build_index")
    init, target = PointCloud(rng.random((80, 2))), PointCloud(rng.random((90, 2)))
    optimize(init, target, ObjectiveSpec("cd-l1"), OptimizerConfig(steps=50, step_size=0.05))
    assert builds_in_descend == [1 + 51]


def test_a_step_enters_numpy_errstate_three_times(calls_in_descend):
    # the Matching block, the gradient and the stepped cloud's distance pass
    enters_in_descend = calls_in_descend(np.errstate, "__enter__")
    init, target = clustered_grid_benchmark(64, seed=42)
    for steps in (50, 51):  # both record steps 0 and the last
        optimize(init, target, ObjectiveSpec("fcd", FcdWeights(1.0, 2.0)),
                 OptimizerConfig(steps=steps, step_size=0.05, record_every=100))
    assert enters_in_descend[1] - enters_in_descend[0] == 3


class TestHierarchical:
    def test_overflowing_fine_cloud_is_divergence(self, recwarn):
        # theta stays finite, but a coarse point plus its child offset overflows
        init = PointCloud([[0.0, 0.0], [1.0, 0.0]])
        target = PointCloud([[-1.0, 0.0], [-2.0, 0.0], [-3.0, 0.0], [-4.0, 0.0]])
        config = OptimizerConfig(steps=3, step_size=3e307, record_every=100)
        with pytest.raises(DivergenceError, match="^coordinates became non-finite at step 0$"):
            optimize_hierarchical(init, HierarchySpec(2, offset_scale=0.0), target,
                                  ScheduleSpec("static"), config)
        assert not recwarn.list

    def test_an_overflowing_start_cloud_is_rejected_without_a_warning(self):
        # the start fine cloud's first point, 1.5e308 plus an offset, overflows: the checked
        # start cloud rejects it before any step, as it rejects every bad start
        init = PointCloud([[1.5e308, 0.0], [0.0, 1.0]])
        target = PointCloud([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError,
                               match="^points contain NaN or infinite coordinates$"):
                optimize_hierarchical(init, HierarchySpec(2, offset_scale=1e308), target,
                                      ScheduleSpec("static"), OptimizerConfig(steps=3, step_size=0.1))

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
            steps=40, step_size=0.01, momentum_coeff=0.9, seed=13, record_every=10,
        )
        cases = [
            (ScheduleSpec("linear", t=25, T=50), plain),
            (ScheduleSpec("static", t=25, T=50), plain),
            (ScheduleSpec("uncertainty", t=25, T=50), plain),
            (ScheduleSpec("linear", t=25, T=50), momentum),
        ]
        for schedule, config in cases:
            case = f"{schedule.kind}/momentum={config.momentum_coeff}"
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
                if config.momentum_coeff:
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
