"""The benchmark's tracer (perfbench/tracing.py) wraps wtal functions by name.

A function it names that no longer exists is only listed as missing, and its
per-layer metrics read 0, so a rename in ``src/`` would go unnoticed there.
The same holds for a result whose ``len()`` stops counting what the tracer
counts with it. These tests load the tracer without changing anything under
``perfbench/`` and check both against the package.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from wtal import autodiff as ad
from wtal.evaluation import THUMOS_GRID, GroundTruthInstance, map_report
from wtal.localization import LocalizeConfig, fuse_scores, localize_video, upsample
from wtal.losses import LossWeights, total_loss
from wtal.model import ScoreSet, run_forward

from conftest import detections_table, tiny_model, video_entry
from oracles import propose_reference

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists(tracing):
    assert tracing.TRACED
    missing = [f"{module}.{name}" for module, name, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"wtal.{module}"), name,
                                       None))]
    assert missing == []


def test_localization_counters_count_candidates_and_kept_detections(tracing, rng):
    # localization.candidates sums len(propose(...)) and localization.nms_kept
    # sums len(nms(...)): they must read the distinct candidate intervals
    # and the detections that survive suppression
    config = LocalizeConfig()
    scores = ScoreSet(s_a=rng.normal(size=(40, 3)), s_f=rng.normal(size=40),
                      class_conf=np.array([0.6, 0.05, 0.4]))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        detections = localize_video(scores, video_entry(snippet_stride=4), config)
    frames = upsample(fuse_scores(scores.s_a, scores.s_f, config.fusion_weight), 4)
    distinct = sum(len(propose_reference(frames[:, c], config.proposal_thresholds, 25.0,
                                         float(scores.class_conf[c]), config.context_ratio))
                   for c in (0, 2))
    assert detections and tracer.missing == []
    assert tracer.counts["localization.candidates"] == distinct > len(detections)
    assert tracer.counts["localization.nms_kept"] == len(detections)


def test_ap_counter_counts_scored_detections(tracing):
    # evaluation.detections_scored sums len() of average_precision's first
    # argument: every detection is scored once per class call and threshold
    table = detections_table([("a", 0, 0.9, 0.0, 5.0), ("a", 1, 0.8, 1.0, 2.0),
                              ("b", 0, 0.7, 3.0, 4.0)])
    gts = [GroundTruthInstance("a", 0, 0.0, 5.0), GroundTruthInstance("b", 1, 1.0, 2.0)]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        map_report(table, gts, THUMOS_GRID, 2)
    assert tracer.counts["evaluation.average_precision_calls"] == 2 * len(THUMOS_GRID)
    assert tracer.counts["evaluation.detections_scored"] == 3 * len(THUMOS_GRID)


def test_tape_counter_reads_the_whole_tape_after_backward_into_a_buffer(tracing, rng):
    # autodiff.tape_nodes and tape_mb read every node's value and ctx arrays
    # once backward has returned: a backward that freed them would break the
    # benchmark's traced training, so it must fail here first
    config, params = tiny_model()
    acc = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tape, out = run_forward(rng.normal(size=(9, 6)), params, config, dropout_seed=2)
        loss_ref, _ = total_loss(tape, out, np.array([1.0, 0.0, 1.0]), LossWeights(),
                                 config.use_background)
        nbytes = sum(node.value.nbytes + sum(v.nbytes for v in node.ctx.values()
                                             if isinstance(v, np.ndarray))
                     for node in tape.nodes)
        ad.backward(tape, loss_ref, acc)
    assert tracer.missing == [] and np.abs(acc["conv1_w"]).max() > 0
    assert tracer.tapes == [(9, 41, nbytes)]
