import numpy as np
import pytest
from hypothesis import strategies as st

from wtal import autodiff as ad
from wtal.data import VideoEntry
from wtal.evaluation import Detections
from wtal.model import ModelConfig, init_params


# any JSON value, non-finite floats and integers beyond the float range included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64)
    | st.integers(min_value=2 ** 1024) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def tiny_config(**overrides) -> ModelConfig:
    base = dict(num_classes=3, feature_dim=6, embed_dims=(5, 4),
                kernel_size=3, delta=5.0, temperatures=(1.0, 2.0, 5.0),
                use_background=True, dropout_rate=0.5)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_model(seed=0, **overrides):
    config = tiny_config(**overrides)
    return config, init_params(config, seed=seed, dtype=np.float64)


def gradients(tape, loss_ref, corrupt_op=None) -> dict[str, np.ndarray]:
    """``backward`` added into a zero buffer for each named leaf of ``tape``: the
    gradient of ``loss_ref`` w.r.t. each, zeros where the loss does not reach."""
    grads = {node.name: np.zeros_like(node.value) for node in tape.nodes
             if node.op == "leaf" and node.name is not None}
    ad.backward(tape, loss_ref, grads, corrupt_op)
    return grads


def passthrough_model(width=4, **overrides):
    """A model whose embedding is the identity on non-negative features:
    kernel size 1, identity conv weights, zero biases. Feeding such features
    sets the embedding x_e exactly, so tests can probe the branches."""
    config = tiny_config(feature_dim=width, embed_dims=(width, width), kernel_size=1,
                         dropout_rate=0.0, **overrides)
    params = init_params(config, seed=0, dtype=np.float64)
    params.conv1_w, params.conv2_w = np.eye(width), np.eye(width)
    params.conv1_b[:] = 0.0
    params.conv2_b[:] = 0.0
    return config, params


def video_entry(snippet_stride=16, fps=25.0, video_id="v") -> VideoEntry:
    """A test video as a manifest lists it, without feature files."""
    return VideoEntry(video_id=video_id, split="test", fps=fps, snippet_stride=snippet_stride,
                      features={}, labels=[])


def detections_table(rows) -> Detections:
    """A table of (video_id, class_id, score, start, end) rows, videos in
    order of first appearance."""
    rows = list(rows)
    ids = {}
    video = [ids.setdefault(r[0], len(ids)) for r in rows]

    def column(k, dtype):
        return np.array([r[k] for r in rows], dtype=dtype)

    return Detections(tuple(ids), np.array(video, dtype=np.int64), column(1, np.int64),
                      column(3, np.float64), column(4, np.float64), column(2, np.float64))


def table_rows(table: Detections) -> list[tuple]:
    """The (video_id, class_id, score, start, end) rows of a table."""
    return [(table.video_ids[v], c, q, s, e) for v, c, q, s, e in zip(
        table.video.tolist(), table.class_id.tolist(), table.score.tolist(),
        table.start.tolist(), table.end.tolist())]
