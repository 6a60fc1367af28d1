from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import chamferlab

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "compare_artifacts.py"
SRC = Path(chamferlab.__file__).resolve().parents[1]


def _compare(old: Path, new: Path, run: str = "schedule-linear-out") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--only", run],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_same_tree_has_no_difference():
    proc = _compare(SRC, SRC)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 run(s) compared, 0 differences"


def test_one_extra_line_is_one_difference(tmp_path):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "chamferlab", changed / "chamferlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "chamferlab" / "cli.py"
    text = cli.read_text()
    head = "from __future__ import annotations\n"
    cli.write_text(text.replace(head, head + "\nprint('one extra line')\n", 1))
    proc = _compare(SRC, changed)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("DIFF ")] == [
        "DIFF schedule-linear-out: stdout"
    ]
    assert "+one extra line" in [line.strip() for line in lines]
    assert lines[-1] == "1 run(s) compared, 1 difference"
    assert not list(changed.rglob("__pycache__"))  # the compared trees stay as they were


def _copy(tmp_path: Path) -> Path:
    copy = tmp_path / "src"
    shutil.copytree(SRC / "chamferlab", copy / "chamferlab",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def test_a_warning_that_names_its_tree_is_no_difference(tmp_path):
    # numpy's overflow warning on stderr names the source file of the tree that ran
    proc = _compare(SRC, _copy(tmp_path), "metrics-huge-coordinates-equal")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 run(s) compared, 0 differences"


def test_a_warning_whose_line_moved_is_no_difference(tmp_path):
    # a blank line at the top of cloud.py moves the overflow warning's line number
    copy = _copy(tmp_path)
    cloud = copy / "chamferlab" / "cloud.py"
    cloud.write_text("\n" + cloud.read_text())
    proc = _compare(SRC, copy, "metrics-huge-coordinates-equal")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "1 run(s) compared, 0 differences"


def test_a_warning_whose_source_line_changed_is_a_difference(tmp_path):
    # the warning echoes the line that raised it, which still counts
    copy = _copy(tmp_path)
    cloud = copy / "chamferlab" / "cloud.py"
    text = cloud.read_text()
    assert text.count("    sq = d * d\n") == 1
    cloud.write_text(text.replace("    sq = d * d\n", "    sq = (d * d)\n"))
    proc = _compare(SRC, copy, "metrics-huge-coordinates-equal")
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line for line in lines if line.startswith("DIFF ")] == [
        "DIFF metrics-huge-coordinates-equal: stderr"
    ]
    assert "+  sq = (d * d)" in [line.strip() for line in lines]
