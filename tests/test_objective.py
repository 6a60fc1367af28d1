from __future__ import annotations

import math

import numpy as np
import pytest

from chamferlab import (
    FcdWeights,
    InvalidInputError,
    PointCloud,
    ScheduleSpec,
    UncertaintyState,
    chamfer_l1,
    chamfer_l2,
    fcd,
    fcd_gradient,
    schedule_weights,
    uncertainty_loss,
)
from chamferlab.objective import _direction, dcd_gradient
from chamferlab import dcd as dcd_metric

from conftest import StageLossSpec, multi_stage_loss, random_cloud

P2 = PointCloud([[0.5, 0.0], [1.0, 0.0]])
G2 = PointCloud([[0.0, 0.0], [4.0, 0.0]])


def finite_difference(fn, points: np.ndarray, step: float) -> np.ndarray:
    grad = np.zeros_like(points)
    for i in range(points.shape[0]):
        for j in range(points.shape[1]):
            plus = points.copy()
            plus[i, j] += step
            minus = points.copy()
            minus[i, j] -= step
            grad[i, j] = (fn(plus) - fn(minus)) / (2 * step)
    return grad


def assignment_margin(p: PointCloud, g: PointCloud) -> float:
    """Smallest gap between best and second-best match over both directions."""
    margins = []
    for src, dst in ((p, g), (g, p)):
        if len(dst) < 2:
            continue
        d = np.linalg.norm(src.points[:, None, :] - dst.points[None, :, :], axis=2)
        d.sort(axis=1)
        margins.append(float((d[:, 1] - d[:, 0]).min()))
    return min(margins) if margins else np.inf


class TestFcdValue:
    def test_identity_is_zero(self, rng):
        cloud = random_cloud(rng, 20)
        for r in (1, 2):
            assert fcd(cloud, cloud, FcdWeights(3.0, 0.5), r) == 0.0

    def test_hand_fixture(self):
        assert fcd(P2, G2, FcdWeights(1.0, 2.0), 1) == pytest.approx(4.25)

    def test_unit_weights_squared_equals_chamfer_l2(self, rng):
        for _ in range(5):
            p, g = random_cloud(rng, 20), random_cloud(rng, 15)
            assert fcd(p, g, FcdWeights(1.0, 1.0), 2) == chamfer_l2(p, g)

    def test_half_weights_euclidean_equals_chamfer_l1(self, rng):
        p, g = random_cloud(rng, 20), random_cloud(rng, 15)
        assert fcd(p, g, FcdWeights(0.5, 0.5), 1) == pytest.approx(chamfer_l1(p, g), abs=1e-15)

    def test_rejects_non_positive_weights(self):
        with pytest.raises(InvalidInputError):
            FcdWeights(0.0, 1.0)
        with pytest.raises(InvalidInputError):
            FcdWeights(1.0, -2.0)
        for alpha, beta in [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)]:
            with pytest.raises(InvalidInputError, match="finite"):
                FcdWeights(alpha, beta)


class TestFcdGradient:
    def test_stalemate_fixture_values(self):
        cases = [
            (FcdWeights(1, 1), 1, [0.0, 0.0]),
            (FcdWeights(1, 2), 1, [-0.5, 0.0]),
            (FcdWeights(1, 1), 2, [-2.0, 0.0]),
            (FcdWeights(1, 2), 2, [-5.0, 0.0]),
        ]
        for weights, r, expected in cases:
            grad = fcd_gradient(P2, G2, weights, r)
            assert np.abs(grad[1] - np.asarray(expected)).max() <= 1e-12

    def test_matches_finite_differences(self, rng):
        step = 1e-6
        checked = 0
        while checked < 100:
            n, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            p, g = random_cloud(rng, n), random_cloud(rng, m)
            if assignment_margin(p, g) <= 10 * step:
                continue
            weights = FcdWeights(float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.2, 3.0)))
            r = int(rng.integers(1, 3))
            grad = fcd_gradient(p, g, weights, r)
            fd = finite_difference(lambda x: fcd(PointCloud(x), g, weights, r), p.points, step)
            scale = np.abs(fd).max()
            assert np.abs(grad - fd).max() <= 1e-5 * max(scale, 1.0)
            checked += 1

    def test_weight_scaling_is_exactly_linear(self, rng):
        p, g = random_cloud(rng, 12), random_cloud(rng, 17)
        base = FcdWeights(0.75, 1.5)
        for c in (2.0, 0.5, 4.0):  # powers of two keep the scaling exact in floats
            scaled = FcdWeights(c * base.alpha, c * base.beta)
            for r in (1, 2):
                assert fcd(p, g, scaled, r) == c * fcd(p, g, base, r)
                ga = fcd_gradient(p, g, scaled, r)
                gb = fcd_gradient(p, g, base, r)
                assert (ga == c * gb).all()
                na = np.linalg.norm(ga)
                assert np.allclose(ga / na, gb / np.linalg.norm(gb), atol=1e-15)

    def test_coincident_point_contributes_zero_under_r1(self):
        p = PointCloud([[0.0, 0.0], [3.0, 4.0]])
        g = PointCloud([[0.0, 0.0], [10.0, 0.0]])
        grad = fcd_gradient(p, g, FcdWeights(1.0, 1.0), 1)
        assert np.isfinite(grad).all()
        # first prediction coincides with its match and with g1's best match:
        # both of its unit-vector terms are defined as zero
        assert (grad[0] == 0.0).all()

    def test_direction_is_a_unit_vector_or_zero_under_r1(self, rng):
        diff = rng.standard_normal((9, 3))
        diff[[0, 4, 8]] = 0.0  # pairs that coincide
        dist = np.sqrt((diff * diff).sum(axis=1))
        out = _direction(diff, dist, 1)
        assert (out[[0, 4, 8]] == 0.0).all()
        moved = dist > 0.0
        assert (out[moved] == diff[moved] / dist[moved, None]).all()
        assert (_direction(diff, dist, 2) == 2.0 * diff).all()

    def test_coincident_points_under_both_orders(self):
        # p0 and p1 sit on g0 and g1 and match them both ways, so all their
        # terms have zero distance; p2 is pulled toward g2 by both terms
        p = PointCloud([[0.0, 0.0], [2.0, 1.0], [3.0, 4.0]])
        g = PointCloud([[0.0, 0.0], [2.0, 1.0], [3.0, 5.0]])
        for grad in (*(fcd_gradient(p, g, FcdWeights(1.0, 2.0), r) for r in (1, 2)),
                     dcd_gradient(p, g, 2.0)):
            assert (grad[:2] == 0.0).all()
            assert grad[2, 0] == 0.0 and grad[2, 1] < 0.0

    def test_gradient_shape_and_finiteness(self, rng):
        p, g = random_cloud(rng, 33, dim=2), random_cloud(rng, 21, dim=2)
        grad = fcd_gradient(p, g, FcdWeights(1.0, 2.0), 1)
        assert grad.shape == p.points.shape
        assert np.isfinite(grad).all()


class TestDcdGradient:
    def test_matches_finite_differences_with_frozen_counts(self, rng):
        # counts and assignments are locally constant, so central differences
        # of the metric match the analytic frozen-assignment gradient
        step = 1e-7
        checked = 0
        while checked < 20:
            p, g = random_cloud(rng, 6), random_cloud(rng, 6)
            if assignment_margin(p, g) <= 100 * step:
                continue
            temp = float(rng.uniform(0.5, 5.0))
            grad = dcd_gradient(p, g, temp)
            fd = finite_difference(
                lambda x: dcd_metric(PointCloud(x), g, temp), p.points, step
            )
            assert np.abs(grad - fd).max() <= 1e-4 * max(np.abs(fd).max(), 1.0)
            checked += 1


class TestSchedules:
    SPEC = ScheduleSpec("linear")

    def test_boundary_values(self):
        assert schedule_weights(ScheduleSpec("linear"), 0).beta == 2.0
        assert schedule_weights(ScheduleSpec("linear"), 400).beta == 1.0
        assert schedule_weights(ScheduleSpec("linear"), 200).beta == 1.5
        assert schedule_weights(ScheduleSpec("static"), 123).beta == 2.0
        assert schedule_weights(ScheduleSpec("stair"), 199).beta == 2.0
        assert schedule_weights(ScheduleSpec("stair"), 200).beta == 1.0
        assert schedule_weights(ScheduleSpec("abridged-linear"), 200).beta == 2.0
        assert schedule_weights(ScheduleSpec("abridged-linear"), 400).beta == 1.0
        expected = math.exp(-1.0) + 1.0
        assert schedule_weights(ScheduleSpec("exponential"), 200).beta == pytest.approx(
            expected, abs=1e-12
        )

    def test_alpha_pinned_to_tau(self):
        for kind in ("static", "stair", "linear", "abridged-linear", "exponential"):
            spec = ScheduleSpec(kind, theta=3.0, tau=0.5)
            for epoch in (0, 100, 200, 399, 400):
                assert schedule_weights(spec, epoch).alpha == 0.5

    def test_beta_never_below_alpha(self):
        for kind in ("static", "stair", "linear", "abridged-linear", "exponential"):
            spec = ScheduleSpec(kind)
            for epoch in range(0, 401, 7):
                w = schedule_weights(spec, epoch)
                assert w.beta >= w.alpha

    def test_continuity_and_stair_jump(self):
        # continuous kinds move by at most the per-epoch slope; stair has
        # exactly one jump, at the transition epoch
        for kind, bound in (("linear", 0.01), ("abridged-linear", 0.01), ("exponential", 0.01)):
            spec = ScheduleSpec(kind)
            betas = [schedule_weights(spec, e).beta for e in range(401)]
            steps = np.abs(np.diff(betas))
            assert steps.max() <= bound
        stair = [schedule_weights(ScheduleSpec("stair"), e).beta for e in range(401)]
        jumps = np.nonzero(np.abs(np.diff(stair)) > 1e-12)[0]
        assert jumps.tolist() == [199]  # the step from epoch 199 to epoch 200

    def test_epoch_out_of_range(self):
        with pytest.raises(InvalidInputError):
            schedule_weights(self.SPEC, -1)
        with pytest.raises(InvalidInputError):
            schedule_weights(self.SPEC, 401)

    def test_uncertainty_kind_reads_state(self):
        spec = ScheduleSpec("uncertainty")
        state = UncertaintyState.initial(spec.tau, spec.theta)
        w = schedule_weights(spec, 10, state)
        assert (w.alpha, w.beta) == pytest.approx((1.0, 2.0))
        with pytest.raises(InvalidInputError):
            schedule_weights(spec, 10)

    def test_invalid_specs(self):
        with pytest.raises(InvalidInputError):
            ScheduleSpec("warmup")
        with pytest.raises(InvalidInputError):
            ScheduleSpec("linear", theta=1.0, tau=1.0)
        with pytest.raises(InvalidInputError):
            ScheduleSpec("stair", t=400, T=400)
        with pytest.raises(InvalidInputError, match="T >= 1"):
            ScheduleSpec("linear", T=0)
        ScheduleSpec("linear", T=100)  # t is unused by linear
        with pytest.raises(InvalidInputError):
            ScheduleSpec("exponential", sigma=0.0)
        for name, value in [("theta", math.inf), ("tau", math.inf), ("theta", math.nan),
                            ("sigma", math.inf), ("sigma", math.nan)]:
            with pytest.raises(InvalidInputError, match=name):
                ScheduleSpec("exponential", **{name: value})


class TestUncertaintyLoss:
    def test_zero_state_unit_weights(self):
        total, grads = uncertainty_loss(1.0, 1.0, UncertaintyState(0.0, 0.0))
        assert total == pytest.approx(2.0)
        assert grads == pytest.approx((0.0, 0.0))

    def test_closed_form_with_doubled_global(self):
        state = UncertaintyState(s_local=0.0, s_global=-math.log(2.0))
        total, _ = uncertainty_loss(0.3, 0.7, state)
        assert total == pytest.approx(0.3 + 2.0 * 0.7 - math.log(2.0), abs=1e-12)

    def test_initialization_gives_bound_weights(self):
        w = UncertaintyState.initial(1.0, 2.0).weights()
        assert (w.alpha, w.beta) == pytest.approx((1.0, 2.0), abs=1e-15)

    def test_state_gradients_match_finite_differences(self, rng):
        step = 1e-7
        for _ in range(25):
            state = UncertaintyState(float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
            losses = (float(rng.uniform(0, 3)), float(rng.uniform(0, 3)))
            _, grads = uncertainty_loss(*losses, state)
            for k, name in enumerate(("s_local", "s_global")):
                plus = UncertaintyState(state.s_local, state.s_global)
                minus = UncertaintyState(state.s_local, state.s_global)
                object.__setattr__(plus, name, getattr(state, name) + step)
                object.__setattr__(minus, name, getattr(state, name) - step)
                fd = (uncertainty_loss(*losses, plus)[0] - uncertainty_loss(*losses, minus)[0]) / (
                    2 * step
                )
                assert grads[k] == pytest.approx(fd, abs=1e-6)

    def test_rejects_negative_losses(self):
        with pytest.raises(InvalidInputError):
            uncertainty_loss(-1.0, 0.0, UncertaintyState(0.0, 0.0))


class TestMultiStageLoss:
    SCHEDULE = ScheduleSpec("static")

    def test_perfect_stages_give_zero(self, rng):
        target = random_cloud(rng, 16)
        spec = StageLossSpec(
            coarse_pairs=((target, target),), fine_pair=(target, target), epoch=0
        )
        assert multi_stage_loss(spec, self.SCHEDULE, 1) == 0.0

    def test_no_coarse_stage_equals_fine_alone(self, rng):
        pred, target = random_cloud(rng, 10), random_cloud(rng, 14)
        spec = StageLossSpec(coarse_pairs=(), fine_pair=(pred, target), epoch=3)
        fine_weights = schedule_weights(self.SCHEDULE, 3)
        assert multi_stage_loss(spec, self.SCHEDULE, 1) == fcd(pred, target, fine_weights, 1)

    def test_two_stage_composition_oracle(self, rng):
        c1, c2 = random_cloud(rng, 6), random_cloud(rng, 8)
        t1, t2 = random_cloud(rng, 6), random_cloud(rng, 9)
        pred, target = random_cloud(rng, 12), random_cloud(rng, 16)
        schedule = ScheduleSpec("linear")
        epoch = 100
        spec = StageLossSpec(coarse_pairs=((c1, t1), (c2, t2)), fine_pair=(pred, target), epoch=epoch)
        static = FcdWeights(schedule.tau, schedule.theta)
        expected = (
            fcd(c1, t1, static, 2)
            + fcd(c2, t2, static, 2)
            + fcd(pred, target, schedule_weights(schedule, epoch), 2)
        )
        assert multi_stage_loss(spec, schedule, 2) == pytest.approx(expected, abs=1e-15)

    def test_uncertainty_schedule_uses_state(self, rng):
        pred, target = random_cloud(rng, 8), random_cloud(rng, 8)
        schedule = ScheduleSpec("uncertainty")
        state = UncertaintyState.initial(schedule.tau, schedule.theta)
        spec = StageLossSpec(coarse_pairs=(), fine_pair=(pred, target), epoch=0)
        value = multi_stage_loss(spec, schedule, 1, state=state)
        assert value == pytest.approx(fcd(pred, target, FcdWeights(1.0, 2.0), 1))
