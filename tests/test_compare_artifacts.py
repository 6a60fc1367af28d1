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


def test_a_warning_printed_by_one_tree_only_is_a_difference(tmp_path):
    # stderr is compared as it is, so the warning, which names its tree's file, is the difference
    copy = _copy(tmp_path)
    cli = copy / "chamferlab" / "cli.py"
    head = "from __future__ import annotations\n"
    cli.write_text(cli.read_text().replace(
        head, head + "\nimport warnings\n\nwarnings.warn('one tree only')\n", 1))
    proc = _compare(SRC, copy)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = [line.strip() for line in proc.stdout.splitlines()]
    assert [line for line in lines if line.startswith("DIFF ")] == [
        "DIFF schedule-linear-out: stderr"
    ]
    assert f"+{cli.resolve()}:7: UserWarning: one tree only" in lines
    assert lines[-1] == "1 run(s) compared, 1 difference"
