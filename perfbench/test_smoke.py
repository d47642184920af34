"""The benchmark's own test: smoke mode runs every workload at a tiny size,
traced and untraced, checks each op's output and matches the printed metric
names against BENCHMARK.json.

Run from the root of a source checkout: ``python3 -m pytest perfbench``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_passes():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, timeout=600)
    assert done.returncode == 0


def test_fails_without_sources(tmp_path):
    # a directory holding only the benchmark must fail fast and print no result
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work-*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trajectory", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout == ""
