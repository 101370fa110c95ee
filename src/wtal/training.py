"""Gradient-accumulating Adam training loop over variable-length videos."""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import atomic_write, read_archive
from .errors import ConfigError, ContractError, FormatError
from .losses import LossWeights, total_loss
from .model import (ModelConfig, ModelParams, check_params, pop_config, run_forward,
                    save_checkpoint)

LOSS_KEYS = (*(f.name for f in fields(LossWeights)), "total")  # EpochReport.losses, in order
HISTORY_COLUMNS = ("num_videos", "skipped", *LOSS_KEYS)  # the training state's history table


class NonFiniteGradientError(RuntimeError):
    def __init__(self, param_name: str, epoch: int):
        super().__init__(f"non-finite gradient for parameter {param_name!r} "
                         f"in epoch {epoch}; training stopped")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    epochs: int = 100
    batch_size: int = 16
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    max_snippets: int | None = None
    precision: int = 32  # 32 or 64

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not 0 <= self.beta1 < 1 or not 0 <= self.beta2 < 1:
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.adam_eps <= 0:
            raise ConfigError("adam_eps must be positive")
        if self.precision not in (32, 64):
            raise ConfigError("precision must be 32 or 64")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.max_snippets is not None and self.max_snippets < 1:
            raise ConfigError("max_snippets must be >= 1 when set")

    @property
    def dtype(self):
        return np.float32 if self.precision == 32 else np.float64


@dataclass
class OptimizerState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def init_optimizer(params: ModelParams) -> OptimizerState:
    zeros = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    return OptimizerState(m=zeros, v={k: v.copy() for k, v in zeros.items()})


def adam_step(params: ModelParams, grads: dict[str, np.ndarray],
              state: OptimizerState, config: TrainConfig) -> None:
    """Bias-corrected Adam update, in place, in a fixed parameter order.

    Parameters and both moments are updated in their own buffers; ``grads``
    is only read. Each tensor is updated whole, its update and denominator in
    two temporaries of its size.
    """
    tensors = params.as_dict()
    if set(grads) != set(tensors):
        raise ContractError(f"gradient keys {sorted(grads)} != parameter keys {sorted(tensors)}")
    state.step += 1
    b1, b2 = config.beta1, config.beta2
    bias1 = 1.0 - b1 ** state.step
    bias2 = 1.0 - b2 ** state.step
    for name, p in tensors.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        update, denom = np.empty_like(p), np.empty_like(p)
        m *= b1
        m += np.multiply(g, 1 - b1, out=update)
        v *= b2
        np.multiply(g, 1 - b2, out=update)
        v += np.multiply(update, g, out=update)
        np.divide(m, bias1, out=update)
        update *= config.learning_rate
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += config.adam_eps
        update /= denom
        p -= update


@dataclass
class EpochReport:
    """One epoch's record; its epoch is its index in the run's history."""
    losses: dict[str, float]  # LOSS_KEYS -> mean over the epoch's videos
    num_videos: int
    skipped: int


def _video_seed(base_seed: int, epoch: int, index: int) -> np.random.SeedSequence:
    # index -1 (shuffle stream) maps to 0; videos use 1-based slots
    return np.random.SeedSequence((base_seed, epoch, index + 1))


def _maybe_subsample(features: np.ndarray, limit: int | None,
                     seed: np.random.SeedSequence) -> np.ndarray:
    if limit is None or features.shape[0] <= limit:
        return features
    start = int(np.random.default_rng(seed).integers(0, features.shape[0] - limit + 1))
    return features[start:start + limit]


def add_video_gradients(acc: dict[str, np.ndarray], feats, labels, dropout_seed,
                        params: ModelParams, model_config: ModelConfig,
                        loss_weights: LossWeights, corrupt_op: str | None = None
                        ) -> dict[str, float]:
    """One video's training step: add its gradients into ``acc`` (``corrupt_op`` as in
    ``backward``) and return its losses, keyed by ``LOSS_KEYS``. Frees its tape."""
    tape, out = run_forward(feats, params, model_config, dropout_seed)
    loss_ref, parts = total_loss(tape, out, labels, loss_weights, model_config.use_background)
    losses = {key: float(tape.val(ref)) for key, ref in {**parts, "total": loss_ref}.items()}
    ad.backward(tape, loss_ref, acc, corrupt_op)
    return losses


def train_epoch(dataset, params: ModelParams, state: OptimizerState,
                model_config: ModelConfig, loss_weights: LossWeights,
                train_config: TrainConfig, epoch: int) -> EpochReport:
    """One pass over the dataset: accumulate per-video gradients within each
    batch, average, and apply a single optimizer step per batch. ``dataset`` is a
    sequence of ``VideoSample``s, such as a ``VideoSplit``; each video is
    indexed once, in the epoch's shuffled order."""
    order_rng = np.random.default_rng(_video_seed(train_config.seed, epoch, -1))
    order = order_rng.permutation(len(dataset))
    sums = dict.fromkeys(LOSS_KEYS, 0.0)
    processed = 0
    skipped = 0
    bs = train_config.batch_size
    acc = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    for start in range(0, len(order), bs):
        batch = order[start:start + bs]
        in_batch = 0
        for idx in batch:
            sample = dataset[idx]
            if sample.features.shape[0] == 0:
                skipped += 1
                continue
            seed = _video_seed(train_config.seed, epoch, int(idx))
            feats = _maybe_subsample(sample.features, train_config.max_snippets, seed)
            losses = add_video_gradients(acc, feats, sample.labels, seed.spawn(1)[0], params,
                                         model_config, loss_weights)
            del sample, feats  # the next video is read with none of this one's features held
            for key, value in losses.items():
                sums[key] += value
            in_batch += 1
            processed += 1
        if in_batch:
            for name, g in acc.items():  # in ModelParams order
                g /= in_batch
                if not np.isfinite(g).all():
                    raise NonFiniteGradientError(name, epoch)
            adam_step(params, acc, state, train_config)
            for g in acc.values():
                g.fill(0)
    if not processed:
        raise ConfigError("training dataset has no video with snippets")
    return EpochReport({key: total / processed for key, total in sums.items()},
                       num_videos=processed, skipped=skipped)


def write_history(path, history: list[EpochReport]) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *(f"loss_{key}" for key in LOSS_KEYS)])
        for epoch, rec in enumerate(history):
            writer.writerow([epoch, *map(repr, rec.losses.values())])


def save_train_state(path, params: ModelParams, state: OptimizerState,
                     history: list[EpochReport], model_config: ModelConfig) -> None:
    """Native-precision sidecar, written atomically, so a resumed run replays
    bit-identically; it goes on at epoch ``len(history)`` and keeps those records, and
    holds the model config as ``save_checkpoint`` does."""
    arrays = {f"param_{k}": v for k, v in params.as_dict().items()}
    arrays.update({f"m_{k}": v for k, v in state.m.items()})
    arrays.update({f"v_{k}": v for k, v in state.v.items()})
    table = np.array([[rec.num_videos, rec.skipped, *rec.losses.values()] for rec in history],
                     dtype=np.float64).reshape(-1, len(HISTORY_COLUMNS))
    with atomic_write(path, binary=True) as fh:
        np.savez(fh, step=state.step, next_epoch=len(history), history=table, **arrays,
                 config=json.dumps(asdict(model_config)))


def load_train_state(path, model_config: ModelConfig, train_config: TrainConfig
                     ) -> tuple[ModelParams, OptimizerState, list[EpochReport]]:
    """Read a ``save_train_state`` file, checked against the run's configs.

    The stored model config must equal ``model_config``, every tensor must be
    present under its expected name, with the shape the model config implies and
    the training precision's dtype, the two counters must be non-negative integer
    scalars and the history a finite float64 table of ``next_epoch`` rows whose
    two video counts are whole numbers >= 0;
    ``FormatError`` otherwise, ``OSError`` if it is missing.
    """
    arrays = read_archive(path, "training-state")
    stored, wanted = asdict(pop_config(arrays, f"{path}: ")), asdict(model_config)
    differ = [f"{k} {stored[k]!r} (this run: {v!r})" for k, v in wanted.items() if stored[k] != v]
    if differ:
        raise FormatError(f"{path}: trained with another model config: {', '.join(differ)}")
    counters = [arrays.pop(key, None) for key in ("step", "next_epoch")]
    table = arrays.pop("history", None)
    check_params(arrays, model_config, lambda message: FormatError(f"{path}: {message}"),
                 train_config.dtype, prefixes=("param_", "m_", "v_"))
    if any(c is None or c.shape != () or c.dtype.kind not in "iu" or c < 0 for c in counters):
        raise FormatError(f"{path}: step and next_epoch must be non-negative integer scalars")
    if table is None or table.dtype != np.float64 or not np.isfinite(table).all() \
            or table.shape != (int(counters[1]), len(HISTORY_COLUMNS)) \
            or (table[:, :2] < 0).any() or (table[:, :2] % 1).any():
        raise FormatError(f"{path}: history must be a finite float64 table, one row per epoch, "
                          f"its video counts whole numbers >= 0")

    def part(prefix: str) -> dict[str, np.ndarray]:
        return {f.name: arrays[prefix + f.name] for f in fields(ModelParams)}

    state = OptimizerState(m=part("m_"), v=part("v_"), step=int(counters[0]))
    history = [EpochReport(dict(zip(LOSS_KEYS, row[2:])), int(row[0]), int(row[1]))
               for row in table.tolist()]
    return ModelParams(**part("param_")), state, history


def fit(dataset, params: ModelParams, model_config: ModelConfig,
        loss_weights: LossWeights, train_config: TrainConfig,
        out_dir, checkpoint_interval: int = 0,
        state: OptimizerState | None = None, history: list[EpochReport] | None = None
        ) -> list[EpochReport]:
    """Train ``params`` in place on from ``history``, the earlier epochs' records, and
    return the records of every epoch. Into the existing directory out_dir it rewrites
    the history ``model_history.csv`` after each epoch, writes ``model_epochNNNN.npz``
    and the training state every ``checkpoint_interval`` epochs, and at the end the
    checkpoint ``model.npz`` and the state ``model_state.npz``. ``params`` must have
    the training dtype (``ContractError`` otherwise)."""
    check_params(params.as_dict(), model_config, ContractError, train_config.dtype)
    if state is None:
        state = init_optimizer(params)
    out_dir = Path(out_dir)
    history = list(history or [])
    for epoch in range(len(history), train_config.epochs):
        report = train_epoch(dataset, params, state, model_config, loss_weights,
                             train_config, epoch)
        history.append(report)
        write_history(out_dir / "model_history.csv", history)
        if checkpoint_interval and (epoch + 1) % checkpoint_interval == 0:
            save_checkpoint(out_dir / f"model_epoch{epoch + 1:04d}.npz",
                            params, model_config)
            save_train_state(out_dir / "model_state.npz", params, state, history,
                             model_config)
    save_checkpoint(out_dir / "model.npz", params, model_config)
    save_train_state(out_dir / "model_state.npz", params, state, history, model_config)
    return history
