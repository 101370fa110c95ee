"""One-epoch runs of the experiment scripts, which drive the CLI stages over
configs/synthetic.json."""
import json
import os
import subprocess
import sys
from pathlib import Path

from wtal.model import load_checkpoint

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, workdir, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), "--workdir", str(workdir),
         "--epochs", "1", *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_pipeline_passes_set_to_the_run(tmp_path):
    stdout = run_script("synthetic_pipeline.py", tmp_path, "--set", "model.use_background=true")
    assert "1 epochs" in stdout and "mAP" in stdout
    _, config = load_checkpoint(tmp_path / "run" / "model.npz")
    assert config.use_background is True
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.0 <= report["average_map"] <= 1.0


def test_ablation_prints_the_average_map_of_each_report(tmp_path):
    stdout = run_script("branch_ablation.py", tmp_path)
    rows = [line.rsplit(None, 1) for line in stdout.splitlines()[1:]]
    assert [name.strip() for name, _ in rows] == [
        "full", "class-wise only", "class-agnostic only", "mil only"]
    for name, printed in rows:
        report = tmp_path / name.strip().replace(" ", "_") / "report.json"
        assert float(printed) == json.loads(report.read_text())["average_map"]
