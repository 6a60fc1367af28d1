from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from chamferlab import (
    ConstructionError,
    FcdWeights,
    InvalidInputError,
    MidpointAmbiguityError,
    PointCloud,
    SweepConfig,
    build_ambiguity_pair,
    chamfer_l1,
    closed_form_gradients,
    dcd,
    default_sweep_config,
    fcd,
    fcd_gradient,
    sweep,
)
from chamferlab import analysis
from chamferlab.analysis import sweep_to_csv

G1 = np.array([0.0, 0.0])
G2 = np.array([4.0, 0.0])
P1 = np.array([0.5, 0.0])


class TestClosedFormGradients:
    def test_pre_midpoint_fixtures(self):
        out = closed_form_gradients([1.0, 0.0], G1, G2, P1, FcdWeights(1.0, 2.0))
        assert np.allclose(out.cd_l1, [0.0, 0.0], atol=1e-15)
        assert np.allclose(out.fcd_l1, [-0.5, 0.0], atol=1e-15)
        assert np.allclose(out.cd_l2, [-2.0, 0.0], atol=1e-15)
        assert np.allclose(out.fcd_l2, [-5.0, 0.0], atol=1e-15)

    def test_post_midpoint_all_pull_toward_far_target(self):
        out = closed_form_gradients([3.0, 0.0], G1, G2, P1, FcdWeights(1.0, 2.0))
        for grad in (out.cd_l1, out.fcd_l1, out.cd_l2, out.fcd_l2):
            assert grad[0] < 0.0  # negative x-component points toward g2

    def test_agrees_with_full_cloud_gradient(self):
        weights = FcdWeights(1.0, 2.0)
        for x in (0.7, 1.3, 1.9, 2.1, 3.0, 3.3):
            p2 = np.array([x, 0.0])
            closed = closed_form_gradients(p2, G1, G2, P1, weights)
            p = PointCloud(np.stack([P1, p2]))
            g = PointCloud(np.stack([G1, G2]))
            assert np.abs(fcd_gradient(p, g, FcdWeights(1, 1), 1)[1] - closed.cd_l1).max() <= 1e-12
            assert np.abs(fcd_gradient(p, g, weights, 1)[1] - closed.fcd_l1).max() <= 1e-12
            assert np.abs(fcd_gradient(p, g, FcdWeights(1, 1), 2)[1] - closed.cd_l2).max() <= 1e-12
            assert np.abs(fcd_gradient(p, g, weights, 2)[1] - closed.fcd_l2).max() <= 1e-12

    def test_midpoint_is_ambiguous(self):
        with pytest.raises(MidpointAmbiguityError):
            closed_form_gradients([2.0, 0.0], G1, G2, P1)

    def test_validity_violations(self):
        with pytest.raises(InvalidInputError):
            closed_form_gradients([0.4, 0.0], G1, G2, P1)  # closer to g1 than p1 is
        with pytest.raises(InvalidInputError):
            closed_form_gradients([5.0, 0.0], G1, G2, P1)  # beyond g2

    def test_rejects_a_free_point_that_g2_does_not_match(self):
        # off the segment, p1 is nearer g2 than p2 is: g2's coverage pull goes to p1
        with pytest.raises(InvalidInputError, match=r"^p2=\(3\.9, 100\.0\) violates the "
                           r"validity condition \|p2-g2\| < \|p1-g2\|$"):
            closed_form_gradients([3.9, 100.0], G1, G2, P1, FcdWeights(1.0, 2.0))

    def test_accepted_configurations_match_the_full_cloud_gradient(self, rng):
        weights = FcdWeights(1.0, 2.0)
        g = PointCloud(np.stack([G1, G2]))
        cases = (("cd_l1", FcdWeights(1, 1), 1), ("fcd_l1", weights, 1),
                 ("cd_l2", FcdWeights(1, 1), 2), ("fcd_l2", weights, 2))
        accepted = 0
        for p2 in rng.uniform([-2.0, -5.0], [6.0, 5.0], size=(2000, 2)):
            try:
                closed = closed_form_gradients(p2, G1, G2, P1, weights)
            except InvalidInputError:
                continue
            accepted += 1
            p = PointCloud(np.stack([P1, p2]))
            for key, w, r in cases:
                full = fcd_gradient(p, g, w, r)[1]
                assert np.abs(full - getattr(closed, key)).max() <= 1e-12, (p2, key)
        assert accepted >= 400


class TestLemmaIdentities:
    def test_distance_gradients_at_random_pairs(self, rng):
        # 1,000 pairs: the Euclidean-distance gradient is the unit vector from
        # target to point, the squared-distance gradient is exactly 2*(p - g)
        half = FcdWeights(0.5, 0.5)  # on singleton clouds both terms share the pair
        for _ in range(1000):
            p = rng.standard_normal(3)
            g = rng.standard_normal(3)
            pc, gc = PointCloud([p]), PointCloud([g])
            grad_d = fcd_gradient(pc, gc, half, 1)[0]
            assert abs(np.linalg.norm(grad_d) - 1.0) <= 1e-12
            expected = (p - g) / np.linalg.norm(p - g)
            assert np.abs(grad_d - expected).max() <= 1e-12
            grad_sq = fcd_gradient(pc, gc, half, 2)[0]
            assert (grad_sq == 2.0 * (p - g)).all()


class TestSweep:
    def test_default_sweep_shape_and_gradients(self):
        config = default_sweep_config()
        rows = sweep(config)
        assert len(rows) == 28
        assert all(row.x != 2.0 for row in rows)
        pre = [row for row in rows if row.x < 2.0]
        assert all(row.grad_cd_l1_x == 0.0 for row in pre)
        assert all(row.grad_fcd_l1_x == -0.5 for row in pre)

    def test_cd_l1_values_flat_before_midpoint(self):
        rows = [row for row in sweep(default_sweep_config()) if row.x < 2.0]
        values = np.array([row.cd_l1 for row in rows])
        assert values.max() - values.min() <= 1e-12

    def test_values_match_closed_form_evaluation(self):
        # independent hand evaluation of each column on the 2x2 configuration
        config = default_sweep_config()
        a, b = config.weights.alpha, config.weights.beta
        for row in sweep(config):
            x = row.x
            d_p1 = 0.5
            d_p2 = min(x, 4.0 - x)
            local1 = 0.5 * (d_p1 + d_p2)
            global1 = 0.5 * (0.5 + (4.0 - x))
            local2 = 0.5 * (d_p1 ** 2 + d_p2 ** 2)
            global2 = 0.5 * (0.25 + (4.0 - x) ** 2)
            assert abs(row.cd_l1 - (local1 + global1)) <= 1e-12
            assert abs(row.fcd_l1 - (a * local1 + b * global1)) <= 1e-12
            assert abs(row.cd_l2 - (local2 + global2)) <= 1e-12
            assert abs(row.fcd_l2 - (a * local2 + b * global2)) <= 1e-12

    def test_fcd_l2_value_continuous_at_midpoint(self):
        weights = FcdWeights(1.0, 2.0)
        g = PointCloud(np.stack([G1, G2]))
        h = 1e-7
        below = fcd(PointCloud(np.stack([P1, [2.0 - h, 0.0]])), g, weights, 2)
        above = fcd(PointCloud(np.stack([P1, [2.0 + h, 0.0]])), g, weights, 2)
        assert abs(below - above) < 1e-5  # continuous value, kinked slope

    def test_rejects_bad_abscissae(self):
        base = default_sweep_config()
        with pytest.raises(InvalidInputError):
            SweepConfig(base.g1, base.g2, base.p1, np.array([1.0, 0.9]), base.weights)
        with pytest.raises(InvalidInputError):
            SweepConfig(base.g1, base.g2, base.p1, np.array([0.3, 1.0]), base.weights)
        with pytest.raises(InvalidInputError):
            SweepConfig(base.g1, base.g2, base.p1, np.array([1.0, 2.0]), base.weights)
        for xs in ([], [0.7, np.nan], [0.7, np.inf]):
            with pytest.raises(InvalidInputError, match="^xs must be a non-empty finite sequence$"):
                SweepConfig(base.g1, base.g2, base.p1, xs, base.weights)

    @pytest.mark.parametrize("name, point", [("g1", [np.nan, 0.0]), ("g2", [4.0, 0.0, 0.0]),
                                             ("p1", [np.inf, 0.0])])
    def test_rejects_a_point_that_is_not_finite_2d(self, name, point):
        base = default_sweep_config()
        points = {"g1": base.g1, "g2": base.g2, "p1": base.p1, name: point}
        with pytest.raises(InvalidInputError, match=f"^{name} must be a finite 2D point$"):
            SweepConfig(**points, xs=base.xs, weights=base.weights)

    def test_rejects_abscissae_at_or_past_the_far_target(self):
        base = default_sweep_config()
        with pytest.raises(InvalidInputError, match=r"^x=4\.0 does not lie strictly between"):
            SweepConfig(base.g1, base.g2, base.p1, [3.0, 4.0, 4.5], base.weights)
        with pytest.raises(InvalidInputError, match=r"^x=4\.5 "):
            SweepConfig(base.g1, base.g2, base.p1, [3.0, 4.5], base.weights)

    def test_rejects_abscissae_that_g2_does_not_match(self):
        # targets above the free point's line: up to about x=2.15, p1 is nearer g2 than p2 is
        g1, g2, p1 = [0.0, 1.0], [4.0, 1.0], [1.9, 1.0]
        with pytest.raises(InvalidInputError, match=r"^x=2\.1 violates the validity "
                           r"condition \|p2-g2\| < \|p1-g2\|$"):
            SweepConfig(g1, g2, p1, [2.1, 3.0], FcdWeights(1.0, 2.0))
        rows = sweep(SweepConfig(g1, g2, p1, [2.5, 3.0], FcdWeights(1.0, 2.0)))
        assert [row.x for row in rows] == [2.5, 3.0]

    def test_default_abscissae_are_steps_from_x_min(self):
        xs = 0.6 + 0.1 * np.arange(29)
        expected = xs[np.abs(xs - 2.0) > 1e-9]
        assert default_sweep_config().xs.tolist() == expected.tolist()

    @pytest.mark.parametrize("x_min, x_max, x_step, expected", [
        (0.6, 0.66, 0.1, [0.6]),
        (3.0, 3.96, 0.5, [3.0, 3.5]),
        (1.5, 2.5, 0.5, [1.5, 2.5]),  # the midpoint on the grid is dropped
        (0.6, 3.4, 2.8, [0.6, 3.4]),
    ])
    def test_abscissae_stop_at_x_max(self, x_min, x_max, x_step, expected):
        config = default_sweep_config(FcdWeights(1.0, 2.0), x_min, x_max, x_step)
        assert config.xs.tolist() == expected

    @pytest.mark.parametrize("x_min, x_max, x_step", [
        (3.0, 1.0, 0.1), (1.0, 1.0, 0.1), (0.6, 3.4, 0.0), (0.6, 3.4, -0.1),
        (0.6, np.inf, 0.1), (np.nan, 3.4, 0.1), (0.6, 3.4, np.nan),
    ])
    def test_rejects_invalid_range(self, x_min, x_max, x_step):
        with pytest.raises(InvalidInputError, match="^invalid sweep range: "):
            default_sweep_config(FcdWeights(1.0, 2.0), x_min, x_max, x_step)

    @pytest.mark.parametrize("x_step", [5e-324, 1e-12])
    def test_rejects_more_than_a_million_abscissae(self, x_step):
        # 2.8 / 5e-324 overflows to inf; 2.8 / 1e-12 would be 2.8e12 abscissae
        with pytest.raises(InvalidInputError, match=f"^invalid sweep range: x_min=0.6, x_max=3.4, "
                                                    f"x_step={x_step}$"):
            default_sweep_config(FcdWeights(1.0, 2.0), 0.6, 3.4, x_step)

    def test_numpy_scalar_range_prints_no_warning(self):
        # numpy would divide 2.8 by 5e-324 with an overflow warning; Python floats do not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="^invalid sweep range: "):
                default_sweep_config(x_max=np.float64(3.4), x_step=5e-324)
            config = default_sweep_config(x_min=np.float64(0.6), x_max=np.float64(3.4))
        assert config.xs.tolist() == default_sweep_config().xs.tolist()

    def test_gradient_cross_check_names_x_and_key(self, monkeypatch):
        original = analysis.closed_form_gradients

        def off_by_1e9(*args):
            closed = original(*args)
            return dataclasses.replace(closed, fcd_l2=closed.fcd_l2 + 1e-9)

        monkeypatch.setattr(analysis, "closed_form_gradients", off_by_1e9)
        message = r"^gradient cross-check failed at x=0.6 for fcd_l2: \|delta\|=1.000e-09$"
        with pytest.raises(ConstructionError, match=message):
            sweep(default_sweep_config())

    def test_csv_layout(self):
        config = default_sweep_config()
        text = sweep_to_csv(sweep(config), config)
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[1] == (
            "x,cd_l1,fcd_l1,cd_l2,fcd_l2,grad_cd_l1_x,grad_fcd_l1_x,grad_cd_l2_x,grad_fcd_l2_x"
        )
        assert len(lines) == 2 + 28
        assert "\r" not in text


class TestAmbiguityPair:
    def test_chamfer_matched_but_density_separates(self):
        clustered, uniform, target, report = build_ambiguity_pair(64, 42)
        rel = abs(report.cd_clustered - report.cd_uniform) / report.cd_uniform
        assert rel <= 0.01
        assert report.dcd_clustered - report.dcd_uniform > 0.02
        # report values are consistent with recomputation
        assert report.cd_clustered == chamfer_l1(clustered, target)
        assert report.dcd_uniform == dcd(uniform, target, report.temperature)

    def test_deterministic(self):
        a = build_ambiguity_pair(8, 123)
        b = build_ambiguity_pair(8, 123)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]
        assert a[3] == b[3]

    def test_seed_changes_clouds(self):
        a = build_ambiguity_pair(16, 1)
        b = build_ambiguity_pair(16, 2)
        assert a[1] != b[1]

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(InvalidInputError, match=f"^seed must be a non-negative integer, got {seed}$"):
            build_ambiguity_pair(16, seed)

    def test_cloud_sizes(self):
        clustered, uniform, target, _ = build_ambiguity_pair(18, 5)
        assert len(clustered) == len(uniform) == len(target) == 18

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInputError):
            build_ambiguity_pair(7, 0)
        with pytest.raises(InvalidInputError):
            build_ambiguity_pair(6, 0)

    @pytest.mark.parametrize("n", [8.0, True])
    def test_rejects_n_that_is_not_an_integer(self, n):
        with pytest.raises(InvalidInputError, match=f"^n must be an integer, got {n}$"):
            build_ambiguity_pair(n, 1)

    def test_unbracketed_chamfer_values_are_a_construction_error(self, monkeypatch):
        # the uniform prediction (the one call given a matching) scores 1, every clustered one 2
        monkeypatch.setattr(analysis, "chamfer_l1",
                            lambda p, g, matching=None: 1.0 if matching is not None else 2.0)
        with pytest.raises(ConstructionError, match="^cannot match Chamfer values: clustered "
                                                    "construction does not bracket the target$"):
            build_ambiguity_pair(16, 1)

    def test_bisection_stops_after_200_iterations(self, monkeypatch):
        # the clustered values alternate 0 and 2 about the uniform 1: never within 0.5%
        clustered_calls = []

        def chamfer(p, g, matching=None):
            if matching is not None:
                return 1.0
            clustered_calls.append(p)
            return 0.0 if len(clustered_calls) % 2 else 2.0

        monkeypatch.setattr(analysis, "chamfer_l1", chamfer)
        with pytest.raises(ConstructionError, match="^Chamfer matching bisection did not "
                                                    "converge in 200 iterations$"):
            build_ambiguity_pair(16, 1)
        assert len(clustered_calls) == 2 + 200
