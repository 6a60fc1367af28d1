from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import chamferlab
from chamferlab import PointCloud, default_sweep_config, sweep
from chamferlab.analysis import sweep_to_csv
from chamferlab.cli import main
from chamferlab.io import read_cloud, write_xyz

from conftest import random_cloud

P2 = PointCloud([[0.5, 0.0], [1.0, 0.0]])
G2 = PointCloud([[0.0, 0.0], [4.0, 0.0]])


@pytest.fixture
def fixture_files(tmp_path):
    pred = tmp_path / "pred.xyz"
    gt = tmp_path / "gt.xyz"
    write_xyz(pred, P2)
    write_xyz(gt, G2)
    return pred, gt


class TestMetricsCommand:
    def test_identical_files(self, tmp_path, capsys, rng):
        cloud = random_cloud(rng, 10)
        path = tmp_path / "c.xyz"
        write_xyz(path, cloud)
        assert main(["metrics", str(path), str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cd_l1"] == 0.0
        assert report["cd_l2"] == 0.0
        assert report["dcd"] == 0.0
        assert report["emd"] == 0.0
        assert report["hausdorff"] == 0.0
        assert report["fscore"] == 1.0

    def test_two_point_fixture(self, fixture_files, capsys):
        pred, gt = fixture_files
        assert main(["metrics", str(pred), str(gt)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cd_l1"] == 1.25

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["metrics", str(tmp_path / "nope.xyz"), str(tmp_path / "nope.xyz")]) == 2

    def test_dimension_mismatch_exits_3_naming_metric(self, tmp_path, capsys, rng):
        a = tmp_path / "a.xyz"
        b = tmp_path / "b.xyz"
        write_xyz(a, random_cloud(rng, 4, dim=2))
        write_xyz(b, random_cloud(rng, 4, dim=3))
        assert main(["metrics", str(a), str(b)]) == 3
        assert "cd_l1" in capsys.readouterr().err

    def test_emd_cap_exits_3_naming_metric(self, tmp_path, capsys, rng):
        a = tmp_path / "a.xyz"
        b = tmp_path / "b.xyz"
        big_a = PointCloud(np.random.default_rng(0).random((1030, 3)))
        big_b = PointCloud(np.random.default_rng(1).random((1030, 3)))
        write_xyz(a, big_a)
        write_xyz(b, big_b)
        assert main(["metrics", str(a), str(b)]) == 3
        assert "emd" in capsys.readouterr().err

    def test_emd_iterations_below_one_exit_3_naming_metric(self, tmp_path, capsys, rng):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_xyz(a, random_cloud(rng, 2))
        write_xyz(b, random_cloud(rng, 3))
        assert main(["metrics", str(a), str(b), "--emd-approx", "--emd-iterations", "0"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: emd: iterations must be >= 1, got 0\n")

    def test_emd_skipped_on_unequal_sizes(self, tmp_path, capsys, rng):
        a = tmp_path / "a.xyz"
        b = tmp_path / "b.xyz"
        write_xyz(a, random_cloud(rng, 4))
        write_xyz(b, random_cloud(rng, 6))
        assert main(["metrics", str(a), str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["emd"] is None

    def test_emd_approx_covers_unequal_sizes(self, tmp_path, capsys, rng):
        a = tmp_path / "a.xyz"
        b = tmp_path / "b.xyz"
        write_xyz(a, random_cloud(rng, 4))
        write_xyz(b, random_cloud(rng, 6))
        assert main(["metrics", str(a), str(b), "--emd-approx"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["emd"] is not None and report["emd"] > 0

    def test_emd_approx_applies_only_where_exact_emd_cannot_run(self, tmp_path, capsys, rng):
        a, b, c = (tmp_path / name for name in ("a.xyz", "b.xyz", "c.xyz"))
        write_xyz(a, random_cloud(rng, 6))
        write_xyz(b, random_cloud(rng, 6))
        write_xyz(c, random_cloud(rng, 5))
        emd = {}
        for gt in (b, c):
            for flags in ([], ["--emd-approx"]):
                assert main(["metrics", str(a), str(gt), *flags]) == 0
                emd[gt.name, bool(flags)] = json.loads(capsys.readouterr().out)["emd"]
        # an equal pair under the cap takes exact EMD, with or without the flag
        assert emd["b.xyz", False] == emd["b.xyz", True] is not None
        # an unequal pair has an EMD only from the approximate solver
        assert emd["c.xyz", False] is None and emd["c.xyz", True] > 0

    @pytest.mark.parametrize(
        "pred, gt, flags, message",
        [
            ("big3", "big2", [], "cd_l1: the value is not finite (inf)"),
            ("big1", "big2", [], "cd_l1: the value is not finite (inf)"),
            ("big3", "big2", ["--emd-approx"], "cd_l1: the value is not finite (inf)"),
            ("big1", "big1", [], "emd: a pairwise distance is not finite"),
        ],
        ids=["unequal", "equal", "unequal-emd-approx", "emd-only"],
    )
    def test_overflowing_metric_exits_4_naming_it(self, tmp_path, capsys, pred, gt, flags,
                                                  message):
        # finite coordinates whose squared differences leave the float range
        for name, text in (("big3", "0 0 0\n1e200 0 0\n2 0 0\n"),
                           ("big1", "0 0 0\n1e200 0 0\n"), ("big2", "0 0 0\n1 0 0\n")):
            (tmp_path / f"{name}.xyz").write_text(text)
        csv, out = tmp_path / "report.csv", tmp_path / "out"
        argv = [str(tmp_path / f"{pred}.xyz"), str(tmp_path / f"{gt}.xyz"), *flags]
        assert main(["metrics", *argv, "--csv", str(csv), "--out-dir", str(out)]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not csv.exists() and not out.exists()

    @pytest.mark.parametrize("n", [64, 70], ids=["block", "tree"])
    def test_overflow_prints_one_error_line_on_both_nn_paths(self, tmp_path, rng, n):
        # each squared distance of the far row overflows; a fresh interpreter's stderr
        # would also show any numpy warning
        points = rng.random((n, 3))
        points[0] = [1e200, 0.0, 0.0]
        pred, gt = tmp_path / "pred.xyz", tmp_path / "gt.xyz"
        write_xyz(pred, PointCloud(points))
        write_xyz(gt, random_cloud(rng, n))
        proc = _fresh_python("-m", "chamferlab.cli", "metrics", str(pred), str(gt))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", "error: cd_l1: the value is not finite (inf)\n")

    @pytest.mark.parametrize("vertices", [
        "1e200 0 0\n1e200 1 0\n1e200 0 1\n",  # no centroid within a finite distance
        "-1e200 -1e200 0\n1e200 -1e200 0\n0 2e200 0\n",  # a radius that overflows
        "-1e80 -1e80 0\n1e80 -1e80 0\n0 2e80 0\n",  # squared edges whose product overflows
        "0 0 0\n1e200 1e200 0\n1e200 1e200 1\n",  # a cross product that overflows
        "-1.7e308 0 0\n1.7e308 0 0\n0 1 0\n",  # an edge that overflows
    ], ids=["far", "wide", "huge", "huge-thin", "huge-edge"])
    def test_overflowing_mesh_distances_exit_4(self, tmp_path, vertices):
        cloud, mesh = tmp_path / "a.xyz", tmp_path / "mesh.ply"
        cloud.write_text("0 0 0\n1 0 0\n0 1 0\n")
        mesh.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
            "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
            f"end_header\n{vertices}3 0 1 2\n"
        )
        proc = _fresh_python("-m", "chamferlab.cli", "metrics", str(cloud), str(cloud),
                             "--mesh", str(mesh))
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            4, "", "error: p2f: a squared distance to the mesh overflows\n")

    def test_out_dir_writes_report_and_manifest(self, fixture_files, tmp_path, capsys):
        pred, gt = fixture_files
        out = tmp_path / "out"
        assert main(["metrics", str(pred), str(gt), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "metrics"
        assert str(pred) in manifest["inputs"]

    def test_fidelity_and_mesh_flags(self, tmp_path, capsys, rng):
        pred = tmp_path / "pred.xyz"
        gt = tmp_path / "gt.xyz"
        partial = tmp_path / "partial.xyz"
        mesh = tmp_path / "mesh.ply"
        cloud = random_cloud(rng, 8)
        write_xyz(pred, cloud)
        write_xyz(gt, cloud)
        write_xyz(partial, PointCloud(cloud.points[:3]))
        mesh.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
            "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
        )
        assert main(
            ["metrics", str(pred), str(gt), "--mesh", str(mesh), "--partial-input", str(partial)]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fidelity"] == 0.0
        assert report["p2f"] is not None


class TestScheduleCommand:
    def test_static_rows(self, capsys):
        assert main(["schedule", "--kind", "static"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "epoch,alpha,beta"
        assert len(lines) == 1 + 401
        assert all(line.endswith(",1.0,2.0") for line in lines[1:])

    def test_stair_boundary(self, capsys):
        assert main(["schedule", "--kind", "stair"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[1 + 199].split(",")[2] == "2.0"
        assert lines[1 + 200].split(",")[2] == "1.0"

    def test_exponential_values(self, capsys):
        assert main(["schedule", "--kind", "exponential"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert float(lines[1].split(",")[2]) == 2.0
        assert float(lines[1 + 200].split(",")[2]) == pytest.approx(math.exp(-1) + 1, abs=1e-12)

    def test_csv_file_output(self, tmp_path, capsys):
        out = tmp_path / "sched.csv"
        assert main(["schedule", "--kind", "linear", "--out", str(out)]) == 0
        content = out.read_bytes()
        assert b"\r" not in content
        assert content.decode().startswith("epoch,alpha,beta\n")

    def test_invalid_bounds_exit_3(self, capsys):
        assert main(["schedule", "--kind", "linear", "--theta", "1.0", "--tau", "1.0"]) == 3

    def test_t_is_checked_only_where_it_is_read(self, capsys):
        # the default t=200 lies past T=100, but only stair and abridged-linear read t
        for kind in ("static", "linear", "exponential", "uncertainty"):
            assert main(["schedule", "--kind", kind, "--T", "100"]) == 0
            assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 101
        for kind in ("stair", "abridged-linear"):
            assert main(["schedule", "--kind", kind, "--T", "100"]) == 3
            assert "need 0 < t < T, got t=200, T=100" in capsys.readouterr().err
        assert main(["schedule", "--kind", "linear", "--T", "0"]) == 3
        assert "need T >= 1, got T=0" in capsys.readouterr().err

    def test_sigma_is_checked_only_where_it_is_read(self, capsys):
        assert main(["schedule", "--kind", "linear", "--sigma", "-1", "--T", "2"]) == 0
        assert capsys.readouterr().out == "epoch,alpha,beta\n0,1.0,2.0\n1,1.0,1.5\n2,1.0,1.0\n"
        assert main(["schedule", "--kind", "exponential", "--sigma", "-1", "--T", "2"]) == 3
        assert "sigma must be positive and finite, got -1.0" in capsys.readouterr().err


class TestSweepCommand:
    def test_default_sweep(self, capsys):
        assert main(["sweep"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("#")
        assert len(lines) == 2 + 28
        for line in lines[2:]:
            x = float(line.split(",")[0])
            grad_cd = float(line.split(",")[5])
            if x < 2.0:
                assert grad_cd == 0.0

    def test_default_sweep_is_the_library_default(self, capsys):
        assert main(["sweep"]) == 0
        config = default_sweep_config()
        assert capsys.readouterr().out == sweep_to_csv(sweep(config), config)

    def test_abscissa_at_far_target_exits_3_naming_it(self, capsys):
        assert main(["sweep", "--x-min", "3.0", "--x-max", "4.5", "--x-step", "0.5"]) == 3
        assert capsys.readouterr().err.startswith("error: x=4.0 does not lie strictly between")

    def test_invalid_range_exits_3(self, capsys):
        assert main(["sweep", "--x-min", "3.0", "--x-max", "1.0"]) == 3

    def test_range_outside_validity_exits_3(self, capsys):
        assert main(["sweep", "--x-min", "0.1", "--x-max", "0.4"]) == 3

    @pytest.mark.parametrize("flags", [
        ["--x-max", "inf"], ["--x-step", "nan"], ["--x-min", "nan"], ["--x-max", "nan"],
    ])
    def test_non_finite_range_exits_3(self, capsys, flags):
        assert main(["sweep", *flags]) == 3
        assert "invalid sweep range: " in capsys.readouterr().err

    @pytest.mark.parametrize("x_step", ["5e-324", "1e-12"])
    def test_more_than_a_million_abscissae_exit_3(self, capsys, x_step):
        assert main(["sweep", "--x-step", x_step]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: invalid sweep range: x_min=0.6, x_max=3.4, x_step={x_step}\n"
        assert captured.out == ""


class TestOptimizeCommand:
    def test_benchmark_run_emits_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "optimize",
                "--benchmark",
                "clustered-grid",
                "--objective",
                "fcd",
                "--schedule",
                "static",
                "--steps",
                "40",
                "--record-every",
                "10",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "final.xyz").exists()
        trace = (out / "trace.csv").read_text()
        assert trace.startswith("epoch,objective,alpha,beta,cd_l1,dcd,emd,grad_max\n")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 42

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = [
            "optimize", "--benchmark", "clustered-grid", "--steps", "30",
            "--record-every", "10", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_benchmark_defaults_complete_quickly(self, tmp_path, capsys):
        import time

        out = tmp_path / "bench"
        start = time.perf_counter()
        code = main(
            [
                "optimize", "--benchmark", "clustered-grid", "--objective", "fcd",
                "--schedule", "static", "--out-dir", str(out),
            ]
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 60.0
        trace_lines = (out / "trace.csv").read_text().strip().split("\n")
        assert len(trace_lines) == 1 + 2000 // 50 + 1

    def test_file_driven_run(self, fixture_files, tmp_path, capsys):
        pred, gt = fixture_files
        out = tmp_path / "run"
        code = main(
            [
                "optimize", "--init", str(pred), "--target", str(gt),
                "--objective", "cd-l1", "--steps", "20", "--step-size", "0.001",
                "--pin", "0", "--out-dir", str(out),
            ]
        )
        assert code == 0

    def test_divergence_exits_4(self, fixture_files, tmp_path, capsys):
        pred, gt = fixture_files
        code = main(
            [
                "optimize", "--init", str(pred), "--target", str(gt),
                "--objective", "cd-l2", "--steps", "200", "--step-size", "50.0",
                "--out-dir", str(tmp_path / "run"),
            ]
        )
        assert code == 4

    def test_overflowing_uncertainty_weights_exit_4(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            [
                "optimize", "--benchmark", "clustered-grid", "--schedule", "uncertainty",
                "--step-size", "1000", "--steps", "3", "--out-dir", str(out),
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(" at step 1\n")
        assert not out.exists()

    def test_underflowing_uncertainty_weights_exit_4(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["optimize", "--benchmark", "clustered-grid", "--schedule", "uncertainty",
                "--tau", "100", "--theta", "200", "--step-size", "20", "--steps", "3"]
        assert main([*argv, "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err == "error: uncertainty weights underflowed at step 1\n"
        assert not out.exists()

    def test_overflowing_uncertainty_step_exits_4(self, tmp_path, capsys, recwarn):
        out = tmp_path / "run"
        argv = ["optimize", "--benchmark", "clustered-grid", "--schedule", "uncertainty",
                "--tau", "10", "--theta", "20", "--step-size", "1e308", "--steps", "3"]
        assert main([*argv, "--out-dir", str(out)]) == 4
        assert capsys.readouterr().err == "error: coordinates became non-finite at step 0\n"
        assert not out.exists()
        assert not recwarn.list

    def test_non_finite_gradient_exits_4(self, tmp_path, capsys):
        # finite inputs whose gradient overflows at the first step, and in the sweep
        init, target, out = tmp_path / "init.xyz", tmp_path / "target.xyz", tmp_path / "run"
        write_xyz(init, PointCloud([[0.0, 0.0], [1.0, 0.0]]))
        write_xyz(target, PointCloud([[100.0, 0.0], [101.0, 0.0]]))
        argv = ["optimize", "--init", str(init), "--target", str(target), "--alpha", "1.7e308",
                "--beta", "1", "--r", "2", "--steps", "3", "--out-dir", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == "error: gradient contains non-finite entries at step 0\n"
        assert not out.exists()
        assert main(["sweep", "--alpha", "1.7e308"]) == 4
        assert capsys.readouterr().err == "error: gradient contains non-finite entries\n"

    @pytest.mark.parametrize("source", ["benchmark", "files"])
    def test_negative_seed_exits_3(self, tmp_path, capsys, source):
        init, target, out = tmp_path / "init.xyz", tmp_path / "target.xyz", tmp_path / "run"
        write_xyz(init, PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        write_xyz(target, PointCloud([[0.5, 0.0], [1.0, 1.0], [0.0, 2.0]]))
        clouds = (["--benchmark", "clustered-grid"] if source == "benchmark"
                  else ["--init", str(init), "--target", str(target)])
        argv = ["optimize", *clouds, "--steps", "2", "--seed", "-1", "--out-dir", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_overflowing_trace_emd_exits_4(self, tmp_path, capsys):
        # the clouds coincide, so the descent rests; the trace's EMD cost overflows
        cloud, out = tmp_path / "a.xyz", tmp_path / "run"
        cloud.write_text("9e307 0\n0 0\n")
        argv = ["optimize", "--init", str(cloud), "--target", str(cloud), "--steps", "2",
                "--out-dir", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.endswith("error: emd at step 0: a pairwise distance is not finite\n"), err
        assert not out.exists()

    def test_far_divergence_names_a_finite_distance(self, tmp_path, capsys):
        # the coordinates stay finite, but their squares pass the float range
        out = tmp_path / "run"
        code = main(
            [
                "optimize", "--benchmark", "clustered-grid", "--schedule", "uncertainty",
                "--step-size", "1e300", "--steps", "5", "--out-dir", str(out),
            ]
        )
        assert code == 4
        err = capsys.readouterr().err
        match = re.match(r"error: a point lies (\S+) from the target centroid", err)
        assert match, err
        assert 1e299 < float(match.group(1)) < math.inf
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--schedule", "linear"],
            ["--objective", "cd-l1"],
            ["--schedule", "exponential", "--T", "100"],
        ],
        ids=["linear", "cd-l1", "exponential-t-past-T"],
    )
    def test_unused_weights_are_not_validated(self, tmp_path, capsys, flags):
        # --alpha/--beta apply only to fcd without a schedule, and --t (200 by
        # default) only to the stair and abridged-linear schedules
        out = tmp_path / "run"
        argv = ["optimize", "--benchmark", "clustered-grid", "--steps", "5", *flags]
        assert main([*argv, "--alpha", "-1", "--beta", "nan", "--out-dir", str(out)]) == 0
        assert (out / "final.xyz").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--schedule", "linear", "--sigma", "-1"],
            ["--dcd-temperature", "nan"],
            ["--update-rule", "plain", "--momentum", "5"],
        ],
        ids=["linear-sigma", "fcd-dcd-temperature", "plain-momentum"],
    )
    def test_unused_flags_are_not_validated(self, tmp_path, capsys, flags):
        # --sigma applies only to exponential, --dcd-temperature only to
        # dcd-loss, and --momentum only to the momentum update rule
        out = tmp_path / "run"
        argv = ["optimize", "--benchmark", "clustered-grid", "--steps", "5", *flags]
        assert main([*argv, "--out-dir", str(out)]) == 0
        assert (out / "final.xyz").exists()

    def test_momentum_is_checked_under_the_momentum_rule(self, tmp_path, capsys):
        argv = ["optimize", "--benchmark", "clustered-grid", "--steps", "3",
                "--update-rule", "momentum", "--momentum", "5", "--out-dir", str(tmp_path / "x")]
        assert main(argv) == 3
        assert "momentum_coeff must lie in [0, 1), got 5.0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_r_is_unused_by_cd_l1(self, tmp_path, capsys):
        # cd-l1 fixes its own distance order, so --r changes no output
        argv = ["optimize", "--benchmark", "clustered-grid", "--steps", "20",
                "--record-every", "5", "--objective", "cd-l1"]
        runs = []
        for r in ("1", "2"):
            out = tmp_path / f"r{r}"
            assert main([*argv, "--r", r, "--out-dir", str(out)]) == 0
            runs.append({name: (out / name).read_bytes() for name in ("final.xyz", "trace.csv")})
        assert runs[0] == runs[1]

    def test_missing_inputs_exit_3(self, tmp_path, capsys):
        assert main(["optimize", "--out-dir", str(tmp_path / "x")]) == 3

    def test_unknown_benchmark_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["optimize", "--benchmark", "sphere", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: unknown benchmark 'sphere'\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, name", [("--steps", "steps"), ("--record-every", "record_every")])
    def test_counts_below_one_exit_3(self, tmp_path, capsys, flag, name):
        out = tmp_path / "x"
        assert main(["optimize", "--benchmark", "clustered-grid", flag, "0", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {name} must be >= 1, got 0\n"
        assert not out.exists()

    def test_non_finite_objective_exits_4(self, tmp_path, capsys):
        # 1e155 squared overflows: the objective is infinite while every coordinate is finite
        init, target, out = tmp_path / "h1.xyz", tmp_path / "h2.xyz", tmp_path / "run"
        init.write_text("0 0\n1e155 0\n")
        target.write_text("0 0\n1 0\n")
        argv = ["optimize", "--init", str(init), "--target", str(target), "--steps", "2",
                "--out-dir", str(out)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.endswith("error: objective became non-finite at step 0\n"), err
        assert not out.exists()

    def test_a_point_past_every_target_on_the_tree_path_exits_4(self, tmp_path, capsys, rng,
                                                                 recwarn):
        # 70 points per side search the kd-tree, where the far row's squared distances all
        # overflow: it matches index 0 at inf, as a scan does
        points = rng.random((70, 2))
        points[0] = [1e200, 0.0]
        init, target, out = tmp_path / "init.xyz", tmp_path / "target.xyz", tmp_path / "run"
        write_xyz(init, PointCloud(points))
        write_xyz(target, random_cloud(rng, 70, dim=2))
        argv = ["optimize", "--init", str(init), "--target", str(target), "--out-dir", str(out)]
        assert main(argv) == 4
        assert capsys.readouterr().err == "error: objective became non-finite at step 0\n"
        assert not out.exists()
        assert not recwarn.list

    @pytest.mark.parametrize("flag", ["--init", "--target"])
    def test_benchmark_with_an_input_file_exits_3(self, fixture_files, tmp_path, capsys, flag):
        # the benchmark builds both clouds, so a named file would go unread
        argv = ["optimize", "--benchmark", "clustered-grid", "--steps", "3"]
        for path in (fixture_files[0], tmp_path / "nonexist.xyz"):
            assert main([*argv, flag, str(path), "--out-dir", str(tmp_path / "x")]) == 3
            assert "--benchmark" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--step-size", "nan"], "step_size"),
            (["--step-size", "inf"], "step_size"),
            (["--objective", "dcd-loss", "--dcd-temperature", "nan"], "dcd_temperature"),
            (["--alpha", "inf"], "alpha=inf"),
            (["--beta", "inf"], "beta=inf"),
            (["--schedule", "static", "--theta", "inf"], "theta"),
            (["--schedule", "exponential", "--sigma", "nan"], "sigma"),
        ],
        ids=[
            "step-size-nan", "step-size-inf", "dcd-temperature-nan",
            "alpha-inf", "beta-inf", "theta-inf", "sigma-nan",
        ],
    )
    def test_non_finite_numbers_exit_3(self, tmp_path, capsys, flags, name):
        argv = ["optimize", "--benchmark", "clustered-grid", "--steps", "3", *flags]
        assert main([*argv, "--out-dir", str(tmp_path / "x")]) == 3
        assert name in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_bad_pin_exits_3(self, fixture_files, tmp_path, capsys):
        pred, gt = fixture_files
        code = main(
            [
                "optimize", "--init", str(pred), "--target", str(gt),
                "--pin", "0,zero", "--out-dir", str(tmp_path / "x"),
            ]
        )
        assert code == 3


class TestBatchCommand:
    def test_empty_dir(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", "--dir", str(empty)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines == ["file,cd_l1,cd_l2,dcd,emd,fscore,hausdorff,p2f,fidelity"]

    def _make_pairs(self, tmp_path, rng, count=3):
        d = tmp_path / "pairs"
        d.mkdir()
        for k in range(count):
            write_xyz(d / f"case{k}_pred.xyz", random_cloud(rng, 12))
            write_xyz(d / f"case{k}_gt.xyz", random_cloud(rng, 12))
        return d

    def test_rows_match_single_file_runs(self, tmp_path, capsys, rng):
        d = self._make_pairs(tmp_path, rng)
        assert main(["batch", "--dir", str(d)]) == 0
        batch_lines = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(batch_lines) == 3
        for line in batch_lines:
            name = line.split(",")[0]
            pred = d / name
            gt = d / name.replace("_pred", "_gt")
            assert main(["metrics", str(pred), str(gt)]) == 0
            single = json.loads(capsys.readouterr().out)
            assert f"{single['cd_l1']!r}" == line.split(",")[1]

    def test_parallelism_preserves_order_and_values(self, tmp_path, capsys, rng):
        d = self._make_pairs(tmp_path, rng, count=6)
        assert main(["batch", "--dir", str(d), "--parallelism", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["batch", "--dir", str(d), "--parallelism", "8"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_missing_ground_truth_exits_2(self, tmp_path, capsys, rng):
        d = tmp_path / "pairs"
        d.mkdir()
        write_xyz(d / "a_pred.xyz", random_cloud(rng, 4))
        assert main(["batch", "--dir", str(d)]) == 2

    def test_pred_suffix_is_replaced_at_its_last_occurrence(self, tmp_path, capsys, rng):
        d = tmp_path / "pairs"
        d.mkdir()
        pred, gt = d / "x_predicted_pred.xyz", d / "x_predicted_gt.xyz"
        write_xyz(pred, random_cloud(rng, 6))
        write_xyz(gt, random_cloud(rng, 6))
        assert main(["batch", "--dir", str(d)]) == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert main(["metrics", str(pred), str(gt)]) == 0
        single = json.loads(capsys.readouterr().out)
        assert row.split(",")[:2] == ["x_predicted_pred.xyz", repr(single["cd_l1"])]

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--pred-suffix", "_est"], "cannot derive ground-truth name"),
            (["--gt-suffix", "_pred"], "--pred-suffix and --gt-suffix are equal ('_pred')"),
            (["--pred-suffix", ""], "--pred-suffix must not be empty"),
        ],
        ids=["suffix-absent", "equal-suffixes", "empty-suffix"],
    )
    def test_underivable_ground_truth_exits_3(self, tmp_path, capsys, rng, flags, message):
        d = tmp_path / "pairs"
        d.mkdir()
        write_xyz(d / "a_pred.xyz", random_cloud(rng, 4))
        assert main(["batch", "--dir", str(d), *flags]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [[], ["--emd-approx", "--emd-iterations", "2"]])
    def test_emd_above_exact_cap_matches_metrics(self, tmp_path, capsys, flags):
        # both commands share one report path: same exit code, message and row
        d = tmp_path / "pairs"
        d.mkdir()
        pred, gt = d / "big_pred.xyz", d / "big_gt.xyz"
        write_xyz(pred, PointCloud(np.random.default_rng(0).random((1100, 3))))
        write_xyz(gt, PointCloud(np.random.default_rng(1).random((1100, 3))))
        code = main(["metrics", str(pred), str(gt), *flags])
        single = capsys.readouterr()
        assert main(["batch", "--dir", str(d), *flags]) == code
        batch = capsys.readouterr()
        assert batch.err == single.err
        if code == 0:
            report = json.loads(single.out)
            assert batch.out.strip().split("\n")[1].split(",")[4] == repr(report["emd"])
        else:
            assert code == 3 and "emd" in single.err

    def test_overflowing_metric_exits_4_naming_it(self, tmp_path, capsys):
        d = tmp_path / "pairs"
        d.mkdir()
        (d / "far_pred.xyz").write_text("0 0 0\n1e200 0 0\n2 0 0\n")
        (d / "far_gt.xyz").write_text("0 0 0\n1 0 0\n")
        table = tmp_path / "table.csv"
        assert main(["batch", "--dir", str(d), "--out", str(table)]) == 4
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: cd_l1: the value is not finite (inf)\n")
        assert not table.exists()

    def test_missing_dir_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["batch", "--dir", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: not a directory: {missing}\n"

    def test_bad_parallelism_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["batch", "--dir", str(empty), "--parallelism", "0"]) == 3
        assert capsys.readouterr().err == "error: --parallelism must be >= 1, got 0\n"


class TestAmbiguityCommand:
    def test_artifacts_and_determinism(self, tmp_path, capsys):
        out = tmp_path / "amb"
        argv = ["ambiguity", "--n", "16", "--seed", "3", "--out-dir", str(out)]
        assert main(argv) == 0
        report = json.loads((out / "report.json").read_text())
        assert list(report) == [
            "cd_clustered", "cd_uniform", "cluster_offset", "dcd_clustered", "dcd_uniform",
            "temperature",
        ]
        assert report["dcd_clustered"] > report["dcd_uniform"]
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        assert main(argv) == 0
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second

    def test_bad_n_exits_3(self, tmp_path, capsys):
        assert main(["ambiguity", "--n", "7", "--out-dir", str(tmp_path / "x")]) == 3

    def test_negative_seed_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["ambiguity", "--seed", "-1", "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
        assert not out.exists()


class TestConfigFile:
    def test_config_provides_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "static", "theta": 3.0, "T": 10, "t": 5}))
        # every spelling argparse accepts for the flag
        for spelling in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
            assert main(["schedule", "--kind", "static", *spelling]) == 0
            lines = capsys.readouterr().out.strip().split("\n")
            assert len(lines) == 1 + 11  # T from config
            assert lines[1].endswith(",1.0,3.0")  # theta from config
            assert main(["schedule", "--kind", "static", *spelling, "--theta", "5.0"]) == 0
            lines = capsys.readouterr().out.strip().split("\n")
            assert lines[1].endswith(",1.0,5.0")  # explicit flag beats config

    def test_config_prefixes_follow_the_subcommands_flags(self, tmp_path, capsys, rng):
        a, b, cfg = tmp_path / "a.xyz", tmp_path / "b.xyz", tmp_path / "cfg.json"
        write_xyz(a, random_cloud(rng, 4))
        write_xyz(b, random_cloud(rng, 6))
        cfg.write_text(json.dumps({"emd_approx": True, "emd_iterations": 5}))
        table = tmp_path / "table.csv"
        table.write_text("not,json\n")
        # metrics also has --csv, so --c is ambiguous there: argparse's usage
        # error, whether or not the file exists, and no file is read
        for path in (tmp_path / "missing.csv", table):
            for spelling in (["--c", str(path)], [f"--c={path}"]):
                with pytest.raises(SystemExit) as exc:
                    main(["metrics", str(a), str(b), *spelling])
                assert exc.value.code == 2
                assert "could match --csv, --config" in capsys.readouterr().err
        # a prefix that only --config has still finds the file
        assert main(["metrics", str(a), str(b), "--conf", str(cfg)]) == 0
        assert json.loads(capsys.readouterr().out)["emd"] is not None
        # schedule has no other --c flag, so --c is --config there
        cfg.write_text(json.dumps({"T": 10, "t": 5}))
        assert main(["schedule", "--kind", "static", "--c", str(cfg)]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 11

    def test_second_config_is_a_usage_error(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"T": 3}))
        b.write_text(json.dumps({"tau": 0.5}))
        argv = ["schedule", "--kind", "static", "--T", "3", "--t", "1"]
        for configs in ([f"--config={a}", f"--config={b}"], ["--config", str(a), "--conf", str(b)]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, *configs])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert "--config may be given only once" in captured.err
            assert captured.out == ""

    def test_malformed_config_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert main(["schedule", "--kind", "static", "--config", str(cfg)]) == 3

    def test_config_that_is_not_an_object_exits_3(self, tmp_path, capsys):
        cfg = tmp_path / "list.json"
        cfg.write_text("[1, 2]")
        assert main(["schedule", "--kind", "static", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: config file must hold a JSON object\n")

    @pytest.mark.parametrize(
        "entries, flags, code",
        [
            ({"theta": 3}, ["--theta", "3"], 0),
            ({"T": 12, "t": 5, "x_min": None}, ["--T", "12", "--t", "5"], 0),
            ({"T": 10.5, "t": 5}, ["--T", "10.5", "--t", "5"], 2),
            ({"func": "x"}, ["--func", "x"], 2),
            ({"theta": True}, ["--theta"], 2),
        ],
        ids=["int-for-float", "null-left-out", "float-for-int", "unknown-key", "true-is-bare"],
    )
    def test_config_entries_parse_like_flags(self, tmp_path, capsys, entries, flags, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))

        def run(extra):
            try:
                status = main(["schedule", "--kind", "static", *extra])
            except SystemExit as exc:  # argparse's usage error
                status = exc.code
            return status, capsys.readouterr().out

        assert run(["--config", str(cfg)]) == run(flags)
        assert run(flags)[0] == code

    @pytest.mark.parametrize(
        "argv, entries, typed",
        [
            (
                ["schedule", "--out", "OUT/k.csv"],
                {"kind": "static", "T": 4, "t": 2},
                ["--kind", "static", "--T", "4", "--t", "2"],
            ),
            (
                ["optimize", "--benchmark", "clustered-grid", "--steps", "5",
                 "--record-every", "1"],
                {"out_dir": "OUT"},
                ["--out-dir", "OUT"],
            ),
            (["ambiguity", "--n", "16"], {"out_dir": "OUT"}, ["--out-dir", "OUT"]),
        ],
        ids=["schedule-kind", "optimize-out-dir", "ambiguity-out-dir"],
    )
    def test_config_supplies_required_flags(self, tmp_path, capsys, argv, entries, typed):
        out = tmp_path / "out"

        def run(extra):
            out.mkdir()
            code = main([a.replace("OUT", str(out)) for a in [*argv, *extra]])
            files = {p.name: p.read_bytes() for p in out.iterdir()}
            shutil.rmtree(out)
            return code, capsys.readouterr().out, files

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({k: v.replace("OUT", str(out)) if isinstance(v, str) else v
                                   for k, v in entries.items()}))
        from_config = run(["--config", str(cfg)])
        assert from_config[0] == 0
        assert any(name.endswith("manifest.json") for name in from_config[2])
        assert from_config == run(typed)

    def test_config_true_gives_the_bare_flag(self, tmp_path, capsys, rng):
        a, b, cfg = tmp_path / "a.xyz", tmp_path / "b.xyz", tmp_path / "cfg.json"
        write_xyz(a, random_cloud(rng, 4))
        write_xyz(b, random_cloud(rng, 6))
        cfg.write_text(json.dumps({"emd_approx": True, "emd-iterations": 5}))
        assert main(["metrics", str(a), str(b), "--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert main(["metrics", str(a), str(b), "--emd-approx", "--emd-iterations", "5"]) == 0
        assert from_config == capsys.readouterr().out
        assert json.loads(from_config)["emd"] is not None


@pytest.mark.parametrize("command", ["schedule", "sweep", "batch"])
def test_out_writes_stdout_bytes_and_a_manifest(tmp_path, capsys, rng, command):
    pairs = tmp_path / "pairs"
    pairs.mkdir()
    for k in range(2):
        write_xyz(pairs / f"case{k}_pred.xyz", random_cloud(rng, 5))
        write_xyz(pairs / f"case{k}_gt.xyz", random_cloud(rng, 5))
    argv = {
        "schedule": ["schedule", "--kind", "linear", "--T", "8", "--t", "4"],
        "sweep": ["sweep", "--x-step", "0.2"],
        "batch": ["batch", "--dir", str(pairs)],
    }[command]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    out = tmp_path / "table.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == stdout.encode()
    manifest = json.loads((tmp_path / "table.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["flags"]["out"] == str(out)
    expected = {}
    if command == "batch":
        for path in sorted(pairs.iterdir()):
            expected[str(path)] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["inputs"] == expected


@pytest.mark.parametrize("command", ["metrics", "optimize", "ambiguity"])
def test_out_dir_manifest_names_the_command_and_its_inputs(
    fixture_files, tmp_path, capsys, command
):
    pred, gt = fixture_files
    out = tmp_path / "out"
    argv = {
        "metrics": ["metrics", str(pred), str(gt)],
        "optimize": ["optimize", "--init", str(pred), "--target", str(gt), "--steps", "3"],
        "ambiguity": ["ambiguity", "--n", "16"],
    }[command]
    assert main([*argv, "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["flags"]["out_dir"] == str(out)
    inputs = [] if command == "ambiguity" else [pred, gt]
    assert manifest["inputs"] == {
        str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs
    }


@pytest.mark.parametrize(
    "argv, names",
    [
        (["metrics", "A", "B", "--emd-approx", "--emd-epsilon", "nan"], ["emd", "epsilon"]),
        (["metrics", "A", "B", "--emd-approx", "--emd-epsilon", "inf"], ["emd", "epsilon"]),
        (["metrics", "A", "B", "--fscore-threshold", "nan"], ["fscore", "threshold"]),
        (["metrics", "A", "B", "--dcd-temperature", "inf"], ["dcd", "temperature"]),
        (["metrics", "A", "B", "--dcd-temperature", "nan"], ["dcd", "temperature"]),
        (["ambiguity", "--n", "16", "--temperature", "nan"], ["temperature"]),
    ],
    ids=[
        "emd-epsilon-nan", "emd-epsilon-inf", "fscore-threshold-nan",
        "dcd-temperature-inf", "dcd-temperature-nan", "ambiguity-temperature-nan",
    ],
)
def test_report_parameters_must_be_positive_and_finite(tmp_path, capsys, rng, argv, names):
    a, b, out = tmp_path / "a.xyz", tmp_path / "b.xyz", tmp_path / "out"
    write_xyz(a, random_cloud(rng, 4))
    write_xyz(b, random_cloud(rng, 6))
    argv = [{"A": str(a), "B": str(b)}.get(arg, arg) for arg in argv]
    assert main([*argv, "--out-dir", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    for name in names:
        assert name in captured.err
    assert not out.exists()


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    # the child interpreter finds the package where this one did, installed or not
    src = os.path.dirname(os.path.dirname(chamferlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}
    )


def test_module_entry_point_runs():
    proc = _fresh_python("-m", "chamferlab.cli", "schedule", "--kind", "static", "--T", "4", "--t", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("epoch,alpha,beta")


def test_console_script_available():
    exe = shutil.which("chamferlab")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "chamferlab" in proc.stdout


# runs `metrics` on two files in a fresh interpreter, then reports on stderr
# whether scipy.optimize was loaded (this interpreter has loaded it already)
_METRICS_THEN_MODULES = """
import sys
import chamferlab.cli
code = chamferlab.cli.main(["metrics", sys.argv[1], sys.argv[2]])
print(code, "scipy.optimize" in sys.modules, file=sys.stderr)
"""


class TestScipyOptimizeLoadedOnDemand:
    def test_unequal_pair_does_not_load_it(self, tmp_path, rng):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_xyz(a, random_cloud(rng, 12))
        write_xyz(b, random_cloud(rng, 10))
        proc = _fresh_python("-c", _METRICS_THEN_MODULES, str(a), str(b))
        assert proc.stderr == "0 False\n"
        assert json.loads(proc.stdout)["emd"] is None

    def test_equal_pair_loads_it_for_exact_emd(self, tmp_path, rng):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        write_xyz(a, random_cloud(rng, 12))
        write_xyz(b, random_cloud(rng, 12))
        proc = _fresh_python("-c", _METRICS_THEN_MODULES, str(a), str(b))
        assert proc.stderr == "0 True\n"
        p, g = read_cloud(a).points, read_cloud(b).points
        cost = np.sqrt(((p[:, None] - g[None]) ** 2).sum(axis=-1))
        rows, cols = linear_sum_assignment(cost)
        assert json.loads(proc.stdout)["emd"] == float(cost[rows, cols].sum()) / len(p)
