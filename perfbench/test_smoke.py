"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced and checks the result
lines against BENCHMARK.json and against the metrics the benchmark was
specified with: each is reported with its unit or listed in ``DROPPED``.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

END_TO_END = {"setup_s": "s", "train_snippets_per_s": "snippets/s",
              "infer_snippets_per_s": "snippets/s", "avg_map": "fraction",
              "peak_rss_mb": "MB", "error_rate": "ratio"}
_OPS = ("temporal_conv", "cosine_rows", "softmax", "matmul", "other")
PER_LAYER = {
    "data.generate_synthetic_s": "s", "data.load_features_s": "s",
    "data.load_features_calls": "count", "data.load_features_mb": "MB",
    "data.parse_manifest_s": "s",
    **{f"autodiff.op_s.{op}": "s" for op in _OPS},
    **{f"autodiff.op_calls.{op}": "count" for op in _OPS},
    "autodiff.backward_s.p50": "s", "autodiff.backward_s.p90": "s",
    "autodiff.tape_nodes": "count", "autodiff.tape_mb.p50": "MB", "autodiff.tape_mb.max": "MB",
    "model.run_forward_self_s": "s", "model.forward_scores_s.p50": "s",
    "model.forward_scores_s.p90": "s", "model.save_checkpoint_s": "s",
    "model.load_checkpoint_s": "s", "losses.total_loss_s": "s",
    "training.train_epoch_s.first": "s", "training.train_epoch_s.steady_p50": "s",
    "training.adam_step_s.p50": "s", "training.adam_step_calls": "count",
    "training.save_train_state_s": "s", "training.videos_skipped": "count",
    "localization.localize_video_s.p50": "s", "localization.localize_video_s.p90": "s",
    "localization.candidates": "count", "localization.nms_s": "s",
    "localization.nms_kept": "count", "localization.nms_keep_ratio": "ratio",
    "localization.write_detections_s": "s", "localization.read_detections_s": "s",
    "evaluation.map_report_s": "s", "evaluation.average_precision_calls": "count",
    "evaluation.detections_scored": "count",
    **{f"cli.{stage}_s": "s" for stage in ("synth", "train", "localize", "eval")},
    "trace.overhead_s": "s",
}
DROPPED = {
    "avg_map": "0.0 on paper_train, whose untrained 20-class model hits no ground truth, "
               "and 0.036-0.12 across seeds on dense_localize; an end-to-end metric must "
               "never be 0 and must spread less than its bound. It is on the record line "
               "of every run, is the traced metric evaluation.average_map, and desk_fit "
               "gates it at >= 0.80 at the config seeds.",
    "error_rate": "0 on a healthy run, and an end-to-end metric must never be 0; the "
                  "result line carries it as failed / attempted.",
}
PROVENANCE = {"nproc", "python", "numpy", "blas", "blas_threads", "git_sha", "seed"}
SIZES = {"videos", "sum_t", "feature_dim", "embed_dims", "classes", "epochs", "batch_size"}


def run(*args, root=ROOT):
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_named_metric(workload, trace):
    out = run("--workload", workload, "--seed", "7", "--seconds", "0.5",
              "--trace", str(trace), "--tiny")
    assert out.returncode == 0, out.stderr[-3000:]
    record, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] == record["stages_attempted"] >= 4
    declared = BENCH["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for name, unit in (PER_LAYER if trace else END_TO_END).items():
        assert units.get(name) == unit or name in DROPPED, name
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert PROVENANCE <= set(record["provenance"])
    assert SIZES <= set(record["input_sizes"])
    assert record["detections"] >= 0 and 0.0 <= record["average_map"] <= 1.0
    if trace:
        assert result["metrics"]["autodiff.tape_nodes"]["value"] == 76
        assert result["metrics"]["trace.reconcile_error_s"]["value"] < 1e-6
        assert not record["samples"]["missing"]
        assert set(record["moves"]) == set(result["metrics"])


def test_benchmark_json_matches_the_tracer():
    assert [(m.name, m.unit, m.better) for m in tracing.PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]]
    assert all(m.moves and m.workload for m in tracing.PER_LAYER)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run("--workload", "desk_fit", "--seed", "1", "--seconds", "1", "--trace", "0",
              root=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_self_time_reconciles_only_nested_spans():
    tracer = tracing.Tracer()
    tracer.names = ["cli.train", "child"]
    tracer.name = array("i", [0, 1, 1])
    tracer.parent = array("i", [-1, 0, 0])
    tracer.start = array("d", [0.0, 1.0, 3.0])
    tracer.end = array("d", [10.0, 2.0, 5.0])
    self_time = tracing.self_times(tracer)
    assert list(self_time) == [7.0, 1.0, 2.0]
    assert tracing.reconcile(tracer, self_time) == 0.0
    tracer.end[2] = 12.0  # a child that outlives its stage
    assert tracing.reconcile(tracer, tracing.self_times(tracer)) == pytest.approx(2.0)
