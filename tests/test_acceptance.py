"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
The end-to-end criteria train real models with the CLI stages of
scripts/synthetic_pipeline.py on configs/synthetic.json; the whole module
takes a couple of minutes on a laptop-class CPU.
"""
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from wtal import autodiff as ad
from wtal.cli import gradcheck_cases, main as cli_main
from wtal.data import SynthConfig, generate_synthetic, ground_truth_instances, parse_manifest
from wtal.evaluation import ACTIVITYNET_GRID, THUMOS_GRID, map_report
from wtal.localization import nms
from wtal.model import ModelConfig, init_params, run_forward

from conftest import detections_table
from oracles import hybrid_reference, map_reference, nms_reference, tiou

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from branch_ablation import VARIANTS as ABLATION  # noqa: E402
from synthetic_pipeline import CONFIG, run as run_pipeline  # noqa: E402


def verdict(name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


# --- criterion 1: gradient correctness ------------------------------------

def test_gradient_correctness_20_random_instances():
    started = time.perf_counter()
    worst = 0.0
    for i, (label, params, f) in enumerate(gradcheck_cases(seed=202, instances=20)):
        result = ad.finite_diff_check(f, params.as_dict(), step=1e-5)
        assert result.max_rel_error != np.inf
        assert result.max_rel_error < 1e-4, (
            f"instance {i} ({label}): {result.max_rel_error} at {result.where}")
        worst = max(worst, result.max_rel_error)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    verdict("gradient-correctness",
            f"20 instances, worst rel err {worst:.2e}, {elapsed:.1f}s")


# --- criterion 2: reduction identities -------------------------------------

def test_reduction_identities():
    rng = np.random.default_rng(7)
    config = ModelConfig(num_classes=3, feature_dim=6, embed_dims=(5, 4),
                         temperatures=(1.0,))
    params = init_params(config, seed=1, dtype=np.float64)
    x = rng.normal(size=(6, 6))
    tape, out = run_forward(x, params, config)
    ref = hybrid_reference(tape.val(out.x_e), params.w_action, params.w_fore,
                           config.delta, config.temperatures)
    assert np.abs(tape.val(out.fore_logits) - ref["fore_logits"][0]).max() <= 1e-12
    assert np.abs(tape.val(out.mil_logits) - ref["mil_logits"][0]).max() <= 1e-12

    # one snippet: every head pools x_e itself, so each branch scores that snippet
    x1 = rng.normal(size=(1, 6))
    tape1, out1 = run_forward(x1, params, config)
    s_a, s_f = tape1.val(out1.s_a)[0], tape1.val(out1.s_f)[0]
    assert np.abs(tape1.val(out1.fore_logits) - s_f).max() <= 1e-12
    assert np.abs(tape1.val(out1.class_logits) - s_a).max() <= 1e-12
    assert np.abs(tape1.val(out1.mil_logits) - s_a).max() <= 1e-12
    verdict("reduction-identities", "tau={1.0} head and T=1 identities exact to 1e-12")


# --- criterion 3: normalization suite ---------------------------------------

def test_normalization_and_entropy_over_1000_inputs():
    rng = np.random.default_rng(99)
    config = ModelConfig(num_classes=3, feature_dim=5, embed_dims=(4, 4),
                         temperatures=(1.0, 5.0), dropout_rate=0.25)
    params = init_params(config, seed=0, dtype=np.float64)

    def entropy(p, axis=-1):
        return -(p * np.log(p)).sum(axis=axis)

    for i in range(1000):
        t = int(rng.integers(1, 9))
        x = rng.normal(size=(t, 5)) * float(rng.uniform(0.1, 10))
        tape, out = run_forward(x, params, config, dropout_seed=i if i % 4 == 0 else None)
        attn_class, attn_fore = tape.val(out.attn_class), tape.val(out.attn_fore)
        assert np.abs(attn_class.sum(axis=-1) - 1.0).max() < 1e-6
        assert np.abs(attn_fore.sum(axis=-1) - 1.0).max() < 1e-6
        for ref in (out.p_class_fore, out.p_video_class, out.p_mil):
            p = tape.val(ref)
            assert abs(p.sum() - 1.0) < 1e-6 and (p > 0).all()
        # temperatures (1.0, 5.0): entropy must not increase with tau
        h1, h5 = entropy(attn_class[0]), entropy(attn_class[1])
        assert (h5 <= h1 + 1e-9).all()
        assert entropy(attn_fore[1]) <= entropy(attn_fore[0]) + 1e-9
    verdict("normalization-suite",
            "1000 inputs: attention/probability sums within 1e-6, entropy ordered")


# --- criterion 4: scoring oracles -------------------------------------------

def test_scoring_oracles():
    rng = np.random.default_rng(404)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        triples = []
        for _ in range(n):
            start = float(rng.uniform(0, 30))
            triples.append((float(np.round(rng.random(), 3)), start,
                            start + float(rng.uniform(0.1, 12))))
        threshold = float(rng.uniform(0.1, 1.0))
        kept = nms(np.array([(0, s, e, q) for q, s, e in triples]), threshold)
        assert [(q, s, e) for _, s, e, q in kept.tolist()] == nms_reference(triples, threshold)

    from test_evaluation import random_micro_dataset
    for _ in range(200):
        gts, dets = random_micro_dataset(rng)
        report = map_report(detections_table(dets), gts, THUMOS_GRID, 3)
        ref_per_t, ref_avg = map_reference(
            [(d.video_id, d.class_id, d.score, d.start, d.end) for d in dets],
            [(g.video_id, g.class_id, g.start, g.end) for g in gts],
            THUMOS_GRID, 3)
        assert np.abs(np.array([report.map_at[t] for t in THUMOS_GRID])
                      - np.array(ref_per_t)).max() <= 1e-10
        assert abs(report.average_map - ref_avg) <= 1e-10

    assert tiou((0.0, 10.0), (5.0, 15.0)) == 1.0 / 3.0
    verdict("scoring-oracles",
            "NMS exact on 1000 sets, mAP within 1e-10 on 200 datasets, tiou exact")


# --- shared synthetic dataset + trained models -------------------------------

@pytest.fixture(scope="module")
def synthetic_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    assert cli_main(["synth", "--config", str(CONFIG), "--out", str(root)]) == 0
    return parse_manifest(root / "manifest.json")


@pytest.fixture(scope="module")
def e2e_full_run(tmp_path_factory):
    """Average mAP of the desk run (configs/synthetic.json through the CLI
    stages) and its wall time."""
    started = time.perf_counter()
    report = run_pipeline(tmp_path_factory.mktemp("run"), None, [])
    return json.loads(report.read_text())["average_map"], time.perf_counter() - started


SINGLES = ("class-wise only", "class-agnostic only", "mil only")
VARIANTS = {  # the --set overrides of each variant of the desk run
    **{name: ABLATION[name] for name in SINGLES},
    "class-wise with background": [*ABLATION["class-wise only"], "model.use_background=true"],
}


@pytest.fixture(scope="module")
def variant_maps(tmp_path_factory):
    """Average mAP of each variant, each run as its own
    scripts/synthetic_pipeline.py process with one BLAS thread, min(4, CPUs)
    at a time. Training is deterministic, so the runs are independent."""
    root = tmp_path_factory.mktemp("variants")
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}

    def average_map(workdir: Path, overrides) -> float:
        sets = [arg for item in overrides for arg in ("--set", item)]
        result = subprocess.run([sys.executable, str(ROOT / "scripts" / "synthetic_pipeline.py"),
                                 "--workdir", str(workdir), *sets],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        return json.loads((workdir / "report.json").read_text())["average_map"]

    workdirs = [root / f"variant{i}" for i in range(len(VARIANTS))]
    with ThreadPoolExecutor(min(4, os.cpu_count() or 1)) as pool:
        return dict(zip(VARIANTS, pool.map(average_map, workdirs, VARIANTS.values())))


# --- criterion 5: pipeline sanity --------------------------------------------

def test_pipeline_sanity_ground_truth_maps_to_one(synthetic_dataset):
    gts = ground_truth_instances(synthetic_dataset, "test")
    dets = detections_table((g.video_id, g.class_id, 1.0, g.start, g.end) for g in gts)
    for grid in (THUMOS_GRID, ACTIVITYNET_GRID):
        report = map_report(dets, gts, grid, len(synthetic_dataset.classes))
        assert all(v == 1.0 for v in report.map_at.values())
        assert report.average_map == 1.0
    verdict("pipeline-sanity", "ground truth as detections scores 1.000 on both grids")


# --- criterion 6: end-to-end desk-scale learning ------------------------------

def test_end_to_end_learning_clears_map_floor(e2e_full_run):
    average_map, elapsed = e2e_full_run
    # first passing run measured 0.923 average mAP; 0.80 is the frozen floor
    assert average_map >= 0.80, f"average mAP {average_map:.3f}"
    assert elapsed < 300.0
    verdict("end-to-end-learning",
            f"avg mAP {average_map:.3f} >= 0.80 in {elapsed:.0f}s")


# --- criterion 7: branch ablation direction -----------------------------------

def test_three_branch_model_dominates_single_branches(e2e_full_run, variant_maps):
    full_map, _ = e2e_full_run
    results = {name: variant_maps[name] for name in SINGLES}
    for name in results:
        assert full_map >= results[name], (
            f"{name} branch ({results[name]:.3f}) beat the full model ({full_map:.3f})")
    detail = ", ".join(f"{k} {v:.3f}" for k, v in results.items())
    verdict("branch-ablation-direction", f"full {full_map:.3f} >= {detail}")


def test_class_wise_alone_with_background_degrades(e2e_full_run, variant_maps):
    # with the auxiliary branch weights at zero and the background slot
    # enabled, the foreground scores lose their meaning; the run must still
    # complete and is only asserted to localize worse than the full model
    full_map, _ = e2e_full_run
    average_map = variant_maps["class-wise with background"]
    assert np.isfinite(average_map)
    assert average_map <= full_map
    verdict("background-ambiguity-degradation",
            f"class-wise-only with background {average_map:.3f} <= full {full_map:.3f}")


# --- criterion 8: dataset-scale numbers are out of scope ----------------------

def test_real_feature_import_path_documented(tmp_path, rng):
    # benchmark-scale results need the real backbone features, which are not
    # shipped; the import path for them must exist and be documented
    readme = Path(__file__).resolve().parents[1] / "README.md"
    assert "convert" in readme.read_text()
    blob = tmp_path / "i3d.bin"
    data = rng.normal(size=(12, 16)).astype("<f4")
    blob.write_bytes(data.tobytes())
    out = tmp_path / "i3d.facf"
    assert cli_main(["convert", "--input", str(blob), "--t", "12", "--d", "16",
                     "--output", str(out)]) == 0
    verdict("dataset-scale-out-of-scope",
            "import path for real backbone features works; no benchmark numbers asserted")


# --- criterion 9: training determinism ----------------------------------------

def test_training_determinism_bit_identical_checkpoints(tmp_path):
    data_dir = tmp_path / "data"
    generate_synthetic(SynthConfig(num_train=5, num_test=1, snippet_range=(20, 40),
                                   seed=21), data_dir)
    args = ["train", "--manifest", str(data_dir / "manifest.json"),
            "--set", "model.embed_dims=[16,16]",
            "--set", "train.epochs=3", "--set", "train.batch_size=2",
            "--set", "train.precision=64", "--set", "train.seed=11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    bytes_a = (out_a / "model.npz").read_bytes()
    bytes_b = (out_b / "model.npz").read_bytes()
    assert bytes_a == bytes_b
    verdict("determinism", "identical config and seed give bit-identical checkpoints")
