"""Smoke runs of the stand-alone experiment scripts at one epoch."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, workdir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--workdir", str(workdir),
         "--epochs", "1"],
        capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("name, expected", [
    ("synthetic_pipeline.py", ["trained 1 epochs", "mAP"]),
    ("branch_ablation.py", ["full", "class-wise only", "class-agnostic only", "mil only"]),
])
def test_script_runs_one_epoch(tmp_path, name, expected):
    result = run_script(name, tmp_path)
    assert result.returncode == 0, result.stderr
    for text in expected:
        assert text in result.stdout
    assert (tmp_path / "data" / "manifest.json").exists()
