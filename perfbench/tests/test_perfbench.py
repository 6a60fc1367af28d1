"""Tests of the benchmark's own code: oracles, span arithmetic, the tail rule,
seed handling and the tracer's wrapping."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import oracles, run, spans, summary, workloads  # noqa: E402


def _main(argv: list[str]) -> tuple[int, str]:
    from chamferlab import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


@pytest.fixture
def lattice_files(tmp_path):
    rng = np.random.default_rng(5)
    gt = workloads.lattice_points(rng, 96, jitter=False)
    workloads.write_cloud(tmp_path / "pred.xyz", workloads.lattice_points(rng, 96, jitter=True))
    workloads.write_cloud(tmp_path / "gt.xyz", gt)
    workloads.write_cloud(tmp_path / "part.xyz", gt[:40])
    workloads.write_height_mesh(tmp_path / "surface.ply")
    return tmp_path


class TestOracles:
    def _reference(self, d: Path, emd_approx: bool = False) -> dict:
        return oracles.report_reference(
            oracles.read_points(d / "pred.xyz"),
            oracles.read_points(d / "gt.xyz"),
            mesh=oracles.read_mesh(d / "surface.ply"),
            partial=oracles.read_points(d / "part.xyz"),
            emd_approx=emd_approx,
        )

    def _report(self, d: Path, *extra: str) -> dict:
        argv = ["metrics", str(d / "pred.xyz"), str(d / "gt.xyz"), "--mesh", str(d / "surface.ply")]
        rc, out = _main(argv + ["--partial-input", str(d / "part.xyz"), *extra])
        assert rc == 0
        return json.loads(out)

    def test_program_report_passes(self, lattice_files):
        assert oracles.check_report(self._report(lattice_files), self._reference(lattice_files)) == []

    @pytest.mark.parametrize("key", ["cd_l1", "cd_l2", "dcd", "hausdorff", "fidelity", "emd", "p2f"])
    def test_perturbed_value_is_flagged(self, lattice_files, key):
        report = self._report(lattice_files)
        ref = self._reference(lattice_files)
        report[key] *= 1 + 1e-8
        problems = oracles.check_report(report, ref)
        assert len(problems) == 1 and problems[0].startswith(key)

    def test_fscore_and_missing_values_are_flagged(self, lattice_files):
        ref = self._reference(lattice_files)
        report = self._report(lattice_files)
        report["fscore"] = ref["fscore"] + 1e-6
        report["emd"] = None
        assert [p.split(":")[0] for p in oracles.check_report(report, ref)] == ["emd", "fscore"]

    def test_sinkhorn_bounds(self, tmp_path, lattice_files):
        rng = np.random.default_rng(6)
        workloads.write_cloud(lattice_files / "pred.xyz", workloads.lattice_points(rng, 40, jitter=True))
        report = self._report(lattice_files, "--emd-approx", "--emd-iterations", "50")
        ref = self._reference(lattice_files, emd_approx=True)
        assert oracles.check_report(report, ref) == []
        lo, hi = ref["emd_bounds"]
        for bad in (lo * (1 - 1e-9), hi * (1 + 1e-9), float("nan")):
            report["emd"] = bad
            assert [p.split(":")[0] for p in oracles.check_report(report, ref)] == ["emd"]

    def test_nearest_both_matches_a_scan_with_lowest_index_ties(self):
        rng = np.random.default_rng(7)
        p = rng.integers(0, 4, size=(300, 3)) * 0.25
        g = rng.integers(0, 4, size=(270, 3)) * 0.25
        (gi, gd), (pi, pd) = oracles.nearest_both(p, g, chunk=64)
        for a, b, idx, dist in ((p, g, gi, gd), (g, p, pi, pd)):
            sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
            np.testing.assert_array_equal(idx, np.argmin(sq, axis=1))
            np.testing.assert_array_equal(dist, np.sqrt(sq.min(axis=1)))

    def test_descent_checks(self, tmp_path):
        argv = ["optimize", "--benchmark", "clustered-grid", "--steps", "30", "--out-dir", str(tmp_path)]
        rc, _ = _main(argv)
        assert rc == 0
        artifacts = {p.name: p.read_text() for p in tmp_path.iterdir()}
        assert oracles.check_descent(artifacts) == []
        lines = artifacts["trace.csv"].splitlines()
        cells = lines[-1].split(",")
        col = lines[0].split(",").index("cd_l1")
        cells[col] = repr(float(cells[col]) * (1 + 1e-9))
        artifacts["trace.csv"] = "\n".join(lines[:-1] + [",".join(cells)]) + "\n"
        assert len(oracles.check_descent(artifacts)) == 1


class TestSpans:
    def test_self_time_on_nested_tree(self):
        # root [0, 10] with children a [1, 4] and b [5, 7]; a has child c [2, 3]
        tree = [
            ("cli", 0.0, 10.0, -1, 0, None),
            ("descent", 1.0, 4.0, 0, 0, None),
            ("nn", 2.0, 3.0, 1, 0, None),
            ("read", 5.0, 7.0, 0, 0, None),
        ]
        assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]

    def test_overlapping_children_are_covered_once(self):
        tree = [("cli", 0.0, 10.0, -1, 0, None), ("nn", 1.0, 5.0, 0, 0, None), ("nn", 3.0, 12.0, 0, 0, None)]
        assert spans.self_times(tree)[0] == 1.0

    def test_counting_rule(self):
        tree = [
            ("cli", 0.0, 10.0, -1, 0, None),
            ("descent", 0.5, 5.5, 0, 0, (3, 2)),
            ("nn", 1.0, 2.0, 1, 0, (5,)),  # nearest_neighbors ...
            ("nn", 1.1, 1.9, 2, 0, (5,)),  # ... -> query_many: one pass
            ("index", 1.2, 1.3, 3, 0, None),  # a build inside a pass still counts
            ("chamfer", 3.0, 5.0, 1, 0, None),
            ("chamfer", 3.1, 4.0, 5, 0, None),  # chamfer_l1 -> cd_local: once
            ("nn", 3.2, 3.9, 6, 0, (4,)),
            ("fidelity", 6.0, 7.0, 0, 0, None),
            ("chamfer", 6.1, 6.9, 8, 0, None),  # fidelity's cd_local: not chamfer time
        ]
        out = spans.op_metrics(tree, set(spans.GROUPS))
        assert out["cloud.nn_passes"] == 2
        assert out["cloud.nn_rows"] == 9
        assert out["cloud.nn_s"] == pytest.approx(1.7)
        assert out["cloud.index_builds"] == 1
        assert out["metrics.chamfer_s"] == pytest.approx(2.0)
        assert out["metrics.fidelity_s"] == pytest.approx(1.0)
        assert out["descent.steps"] == 3 and out["descent.records"] == 2
        assert out["descent.nn_passes_per_step"] == pytest.approx(2 / 3)
        assert out["descent.self_s"] == pytest.approx(5.0 - 1.0 - 2.0)
        assert out["cli.self_s"] == pytest.approx(10.0 - 5.0 - 1.0)

    def test_tracer_wraps_every_binding_and_restores(self):
        import chamferlab.cli  # noqa: F401
        from chamferlab import cloud, metrics, objective

        original = cloud.nearest_neighbors
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert cloud.nearest_neighbors is not original
            assert metrics.nearest_neighbors is cloud.nearest_neighbors
            assert objective.nearest_neighbors is cloud.nearest_neighbors
            assert tracer.missing == []
        finally:
            tracer.uninstall()
        assert cloud.nearest_neighbors is original and metrics.nearest_neighbors is original

    def test_missing_function_is_absent_not_zero(self, monkeypatch, lattice_files):
        from chamferlab import metrics

        monkeypatch.delattr(metrics, "point_to_mesh")
        tracer = spans.Tracer()
        tracer.install()
        try:
            rc, _ = _main(["metrics", str(lattice_files / "pred.xyz"), str(lattice_files / "gt.xyz")])
        finally:
            tracer.uninstall()
        assert rc == 0
        assert tracer.missing == ["metrics.point_to_mesh"]
        out = spans.op_metrics(tracer.spans, spans.groups_present(tracer.missing))
        assert out["metrics.p2m_s"] is None and out["metrics.p2m_pairs"] is None
        assert out["cloud.nn_passes"] == 10 and out["io.read_calls"] == 2


def test_per_layer_weights_kinds_and_marks_unrun_groups_absent():
    def op(kind, nn, wall):
        layers = {name: 0 for name, _, _ in spans.PER_LAYER}
        layers["cloud.nn_passes"] = nn
        return {"kind": kind, "groups": ["cli", "nn"], "layers": layers, "start": 0.0, "end": wall}

    traced = [op("dense", 10, 1.0), op("dense", 12, 1.0), op("sinkhorn", 3, 2.0)]
    out, shares = summary.per_layer(traced, {"dense": 0.75, "sinkhorn": 0.25}, 1.05)
    assert out["cloud.nn_passes"] == pytest.approx(0.75 * 11 + 0.25 * 3)
    assert out["metrics.sinkhorn_s"] is None and out["descent.steps"] is None
    assert out["trace.overhead_ratio"] == 1.05
    assert shares["traced_op_wall_s"] == pytest.approx(1.25)


def test_result_line_layers_are_numbers_where_the_detail_is_absent():
    layers = {name: None for name, _, _ in spans.PER_LAYER}
    layers.update({"cloud.nn_passes": 10.0, "metrics.chamfer_s": 0.5, "metrics.p2m_s": 0.25, "io.read_s": 0.125})
    out = summary.result_layer(layers)
    assert list(out) == [name for name, _, _ in spans.RESULT_LAYER]
    assert all(isinstance(v, float) for v in out.values())
    assert out["cloud.nn_passes"] == 10.0 and out["descent.steps"] == 0.0
    assert out["metrics.total_s"] == 0.75 and out["io.total_s"] == 0.125


@pytest.mark.parametrize("n, percentile, value", [(20, 50.0, 10.0), (100, 90.0, 90.0), (25, 60.0, 15.0)])
def test_tail_rule(n, percentile, value):
    samples = [float(k) for k in range(n, 0, -1)]
    assert summary.tail(samples) == (value, percentile, 10)


def test_tail_rule_with_few_samples_falls_back_to_the_median():
    assert summary.tail([3.0, 1.0, 2.0, 4.0]) == (2.0, 50.0, 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_change_coordinates_only(tmp_path, name):
    a = workloads.build(name, 1, tmp_path / "a")
    b = workloads.build(name, 2, tmp_path / "b")
    assert [op.kind for op in a.ops] == [op.kind for op in b.ops]
    assert (a.period, a.weights) == (b.period, b.weights)
    seeds = []
    for op_a, op_b in zip(a.ops, b.ops):
        if "--seed" in op_a.argv:  # the program's --seed is drawn from the workload seed
            k = op_a.argv.index("--seed") + 1
            seeds.append((op_a.argv[k], op_b.argv[k]))
            op_b.argv[k] = op_a.argv[k]
        assert op_a.argv == op_b.argv
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    changed = False
    for f in files:
        text_a = (tmp_path / "a" / f).read_text()
        text_b = (tmp_path / "b" / f).read_text()
        assert len(text_a.splitlines()) == len(text_b.splitlines())
        changed |= text_a != text_b
    if files:
        assert changed
    else:  # descent-grid64 has no input files; its coordinates come from --seed
        assert seeds and all(x != y for x, y in seeds)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(m, u) for m, u, _ in spans.RESULT_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
