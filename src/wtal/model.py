"""Snippet-sequence model: temporal-conv embedding plus three scoring branches.

All scores are scaled cosine similarities against two learned classifiers:
a per-class matrix (one extra row for background when enabled) and a single
foreground vector. Each branch pools snippet embeddings with a temperature
softmax over time; the hybrid attention stacks one softmax per configured
temperature and averages the resulting video-level logits before the final
softmax.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autodiff as ad
from .data import atomic_write, build_config, read_archive
from .errors import ConfigError, ContractError, FormatError


@dataclass
class ModelConfig:
    num_classes: int
    feature_dim: int
    embed_dims: tuple[int, int] = (1024, 1024)
    kernel_size: int = 3
    delta: float = 5.0
    temperatures: tuple[float, ...] = (1.0, 2.0, 5.0)
    use_background: bool = True
    dropout_rate: float = 0.5

    def __post_init__(self):
        self.embed_dims = tuple(int(d) for d in self.embed_dims)
        self.temperatures = tuple(float(t) for t in self.temperatures)
        if self.num_classes < 1:
            raise ConfigError("num_classes must be >= 1")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if len(self.embed_dims) != 2 or min(self.embed_dims) < 1:
            raise ConfigError("embed_dims must be two positive widths")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError("kernel_size must be odd and >= 1")
        if self.delta <= 0:
            raise ConfigError("delta must be positive")
        if not self.temperatures or min(self.temperatures) <= 0:
            raise ConfigError("temperatures must be a non-empty list of positives")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")

    @property
    def score_classes(self) -> int:
        """Number of scored classes: C, plus background slot when enabled."""
        return self.num_classes + (1 if self.use_background else 0)


@dataclass
class ModelParams:
    conv1_w: np.ndarray  # (k*D_in, d1), tap-major: row block i is tap i
    conv1_b: np.ndarray  # (d1,)
    conv2_w: np.ndarray  # (k*d1, d2), tap-major
    conv2_b: np.ndarray  # (d2,)
    w_action: np.ndarray  # (score_classes, d2)
    w_fore: np.ndarray  # (d2,)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def astype(self, dtype, copy: bool = True) -> "ModelParams":
        return ModelParams(**{k: v.astype(dtype, copy=copy) for k, v in self.as_dict().items()})


def tap_major(w: np.ndarray) -> np.ndarray:
    """Relay (d_out, d_in, k) conv weights into the stored (k*d_in, d_out) layout."""
    d_out, d_in, k = w.shape
    return np.ascontiguousarray(w.transpose(2, 1, 0).reshape(k * d_in, d_out))


def init_params(config: ModelConfig, seed: int, dtype=np.float64) -> ModelParams:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init for every tensor.

    Conv weights are drawn as (d_out, d_in, k) and then relaid, which keeps
    the random stream, and so every initial value, as it was when they were
    stored in that shape.
    """
    rng = np.random.default_rng(seed)
    d1, d2 = config.embed_dims
    k = config.kernel_size

    def uniform(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    return ModelParams(
        conv1_w=tap_major(uniform((d1, config.feature_dim, k), config.feature_dim * k)),
        conv1_b=uniform((d1,), config.feature_dim * k),
        conv2_w=tap_major(uniform((d2, d1, k), d1 * k)),
        conv2_b=uniform((d2,), d1 * k),
        w_action=uniform((config.score_classes, d2), d2),
        w_fore=uniform((d2,), d2),
    )


def check_params(tensors: dict, config: ModelConfig, error, dtype=None,
                 prefixes: tuple[str, ...] = ("",)) -> None:
    """Raise ``error(message)`` unless ``tensors`` holds, under each prefix,
    exactly the parameters of ``config``, each with its shape and, when
    ``dtype`` is given, that dtype."""
    d1, d2 = config.embed_dims
    k = config.kernel_size
    shapes = dict(conv1_w=(k * config.feature_dim, d1), conv1_b=(d1,),
                  conv2_w=(k * d1, d2), conv2_b=(d2,),
                  w_action=(config.score_classes, d2), w_fore=(d2,))
    expected = {prefix + name: shape for prefix in prefixes
                for name, shape in shapes.items()}
    if set(tensors) != set(expected):
        raise error(f"tensors {sorted(tensors)} != expected {sorted(expected)}")
    for key, shape in expected.items():
        actual = tensors[key]
        want = actual.dtype if dtype is None else np.dtype(dtype)
        if actual.shape != shape or actual.dtype != want:
            raise error(f"{key} is {actual.dtype}{list(actual.shape)}, "
                        f"expected {want}{list(shape)}")


@dataclass
class BranchOutputs:
    """Tape references for the branch intermediates; H temperatures, K classes."""
    x_e: int
    s_a: int           # (T, K) class activation scores
    s_f: int           # (T,) foreground activation scores
    attn_class: int    # (H, K, T) class-wise attention, one softmax per tau
    attn_fore: int     # (H, T) class-agnostic attention
    fore_logits: int   # (K,) mean over H
    p_class_fore: int  # softmax of the above
    class_logits: int
    p_video_class: int
    mil_logits: int
    p_mil: int


def run_forward(x_raw: np.ndarray, params: ModelParams, config: ModelConfig,
                dropout_seed=None) -> tuple[ad.Tape, BranchOutputs]:
    """Record one forward pass at the precision of ``params``, all H temperatures at once.

    The features are staged in the parameters' dtype (a copy only when the
    dtypes differ), so float32 weights, as a checkpoint stores them, run in
    float32 and float64 weights run in float64. They are the tape's first
    leaf, unnamed; each parameter is a leaf under its ``ModelParams`` name,
    recorded just before the first node that reads it, so ``backward``
    reaches it as soon as its gradient is complete.

    The embedding is two temporal conv layers, each one tape node: conv, dropout in
    train mode, ReLU. Train mode is a ``dropout_seed``: each layer draws its dropout
    mask from one stream seeded by it, each entry 0 or 1/keep in the layer's output
    dtype. One stacked softmax over time turns S_a and S_f into attention that pools
    the embedding; video-level logits are the mean over H before each final
    softmax. MIL logits are linear in the attention, so they take its mean.
    """
    check_params(params.as_dict(), config, ContractError)
    x = np.asarray(x_raw, dtype=params.conv1_w.dtype)
    if x.ndim != 2 or x.shape[1] != config.feature_dim:
        raise ContractError(
            f"embed input shape {x.shape} does not match feature_dim {config.feature_dim}")
    tape = ad.Tape()
    x_e = tape.leaf(x)
    keep = 1.0 - config.dropout_rate
    rng = None if dropout_seed is None or keep == 1.0 else np.random.default_rng(dropout_seed)
    for w, b in (("conv1_w", "conv1_b"), ("conv2_w", "conv2_b")):
        wv = getattr(params, w)
        mask = None if rng is None else (rng.random((x.shape[0], wv.shape[1])) < keep).astype(
            np.result_type(tape.val(x_e), wv)) / keep
        x_e = tape.temporal_conv(x_e, tape.leaf(wv, name=w),
                                 tape.leaf(getattr(params, b), name=b), mask, keep)
    h = len(config.temperatures)
    w_fore = tape.reshape(tape.leaf(params.w_fore, name="w_fore"), (1, params.w_fore.shape[0]))
    w_action = tape.leaf(params.w_action, name="w_action")
    s_a = tape.cosine_rows(x_e, w_action, config.delta)
    t, k = tape.val(s_a).shape
    s_f = tape.reshape(tape.cosine_rows(x_e, w_fore, config.delta), (t,))
    s_a_t = tape.transpose(s_a)

    def mean_over_heads(ref: int) -> int:
        return tape.mul_const(tape.sum(ref, axis=0), 1.0 / h)

    attn_class = tape.softmax(s_a_t, config.temperatures, axis=1)
    feat_class = tape.matmul(tape.reshape(attn_class, (h * k, t)), x_e)
    fore_heads = tape.cosine_rows(feat_class, w_fore, config.delta)
    fore_logits = mean_over_heads(tape.reshape(fore_heads, (h, k)))
    p_class_fore = tape.softmax(fore_logits, 1.0, axis=0)
    attn_fore = tape.softmax(s_f, config.temperatures, axis=0)
    feat_fore = tape.matmul(attn_fore, x_e)
    class_logits = mean_over_heads(tape.cosine_rows(feat_fore, w_action, config.delta))
    p_video_class = tape.softmax(class_logits, 1.0, axis=0)
    mil_logits = tape.sum(tape.mul(mean_over_heads(attn_class), s_a_t), axis=1)
    p_mil = tape.softmax(mil_logits, 1.0, axis=0)
    return tape, BranchOutputs(x_e, s_a, s_f, attn_class, attn_fore, fore_logits, p_class_fore,
                               class_logits, p_video_class, mil_logits, p_mil)


@dataclass
class ScoreSet:
    """The evaluation-mode scores of one video that localization reads, over
    its C action classes only: no background slot."""
    s_a: np.ndarray        # (T, C) snippet class scores
    s_f: np.ndarray        # (T,) snippet foreground scores
    class_conf: np.ndarray  # (C,) video-level class probabilities, class-agnostic branch


def forward_scores(x_raw: np.ndarray, params: ModelParams, config: ModelConfig) -> ScoreSet:
    """The ``ScoreSet`` of one video: the one place that drops the background slot."""
    tape, out = run_forward(x_raw, params, config)
    c = config.num_classes
    return ScoreSet(tape.val(out.s_a)[:, :c], tape.val(out.s_f), tape.val(out.p_video_class)[:c])


def save_checkpoint(path, params: ModelParams, config: ModelConfig) -> None:
    """An ``.npz`` archive: the config as JSON in the 0-d string ``config``,
    then each parameter in float32 under its ``ModelParams`` name.

    Written atomically: a failed write leaves any earlier file at ``path``.
    """
    check_params(params.as_dict(), config, ContractError)
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, config=json.dumps(asdict(config)),
                 **params.astype(np.float32, copy=False).as_dict())


def pop_config(arrays: dict[str, np.ndarray], where: str) -> ModelConfig:
    """Remove the ``config`` member that ``save_checkpoint`` writes from an archive's
    arrays and return it; ``FormatError`` after ``where`` unless it passes a config
    file's checks."""
    stored = arrays.pop("config", np.array(None))
    try:
        is_text = stored.shape == () and stored.dtype.kind == "U"
        doc = json.loads(stored.item()) if is_text else None
        if not isinstance(doc, dict):
            raise ValueError("config must be a 0-d string member holding a JSON object")
        return build_config(ModelConfig, doc)
    except (TypeError, ValueError) as exc:  # ConfigError and JSON errors; TypeError: a missing key
        raise FormatError(f"{where}{exc}") from None


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig]:
    """Read a ``save_checkpoint`` archive; ``FormatError`` naming the file unless its
    config passes a config file's checks and its tensors fit that config."""
    tensors = read_archive(path, "checkpoint")
    config = pop_config(tensors, f"{path}: checkpoint ")
    check_params(tensors, config, lambda message: FormatError(f"{path}: checkpoint {message}"),
                 np.float32)
    return ModelParams(**tensors), config
