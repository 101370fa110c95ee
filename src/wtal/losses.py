"""Video-level classification losses over the three branch outputs."""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ContractError, InputError
from .model import BranchOutputs


@dataclass
class LossWeights:
    """One weight per branch loss; the field names are the branch names."""
    class_wise: float = 1.0
    class_agnostic: float = 0.1
    mil: float = 0.1

    def __post_init__(self):
        if min(asdict(self).values()) < 0:
            raise ConfigError("loss weights must be non-negative")


def normalized_target(y: np.ndarray, background_value: int, use_background: bool) -> np.ndarray:
    """Ground-truth label vector extended with a background slot, then normalized.

    The class-wise and class-agnostic targets use background_value 0; the
    MIL target uses 1 since every video contains background snippets.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ContractError(f"label vector must be 1-d, got shape {y.shape}")
    if not ((y == 0) | (y == 1)).all():
        raise InputError("label vector entries must be 0 or 1")
    if y.sum() < 1:
        raise InputError("label vector must have at least one positive class")
    if background_value not in (0, 1):
        raise ContractError(f"background_value must be 0 or 1, got {background_value}")
    if use_background:
        y = np.concatenate([y, [float(background_value)]])
    return y / y.sum()


def total_loss(tape: ad.Tape, outputs: BranchOutputs, y: np.ndarray,
               weights: LossWeights, use_background: bool) -> tuple[int, dict[str, int]]:
    """Weighted sum of the three branch losses; returns (total, per-branch refs),
    the refs keyed by the ``LossWeights`` field names."""
    target_fg = normalized_target(y, 0, use_background)
    target_mil = normalized_target(y, 1, use_background)
    parts = {
        "class_wise": tape.nce(outputs.p_class_fore, target_fg),
        "class_agnostic": tape.nce(outputs.p_video_class, target_fg),
        "mil": tape.nce(outputs.p_mil, target_mil),
    }
    # (class_wise + class_agnostic) + mil, each term recorded just before its add
    total = reduce(tape.add, (tape.mul_const(ref, getattr(weights, name))
                              for name, ref in parts.items()))
    return total, parts
