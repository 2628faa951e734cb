"""Synthetic negative samples: label swaps plus Gaussian corner jitter."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .scenegraph import Frame, is_integer


@dataclass(frozen=True)
class CorruptionConfig:
    rho: int = 1  # max objects modified per frame
    jitter_sigma: float = 0.01  # corner noise std, normalized units
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("rho", "seed"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        sigma = self.jitter_sigma
        if isinstance(sigma, bool) or not isinstance(sigma, Real) or not 0.0 <= sigma < math.inf:
            raise ValueError(f"jitter_sigma must be finite and >= 0, got {sigma!r}")


def derive_seed(master_seed: int, name: str) -> int:
    """Stable 64-bit stream seed from a master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def frame_rng(cfg: CorruptionConfig, frame_id: str) -> np.random.Generator:
    """Independent per-frame stream so parallel corruption is order-free."""
    return np.random.default_rng(derive_seed(cfg.seed, f"corrupt/{frame_id}"))


def corrupt_frame(frame: Frame, cfg: CorruptionConfig, n_classes: int) -> Frame:
    """A copy of ``frame`` with up to rho objects corrupted, annotated
    against the frame's ``original_labels`` (its ``labels`` when it has
    none): an object is valid exactly when its label equals its original
    one, so chained calls keep the first frame's labels as the original ones.

    Draws from frame_rng(cfg, frame.frame_id) m ~ Uniform{1..min(rho, N)},
    picks m distinct objects, swaps each label to a different uniformly-drawn
    class and jitters the four corner coordinates with N(0, sigma^2) noise
    (re-ordered and clamped to [0, 1]). rho = 0 changes nothing.
    """
    n = len(frame.labels)
    if n == 0:
        raise ValueError(f"frame {frame.frame_id!r} has no objects")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")

    original = frame.labels if frame.original_labels is None else frame.original_labels
    labels, boxes = frame.labels, frame.boxes  # read-only, so shared when rho = 0
    if cfg.rho > 0:
        rng = frame_rng(cfg, frame.frame_id)
        m = int(rng.integers(1, min(cfg.rho, n) + 1))
        selected = rng.choice(n, size=m, replace=False)
        labels, boxes = labels.copy(), boxes.copy()
        for i in selected.tolist():
            old = int(labels[i])
            new = int(rng.integers(0, n_classes - 1))
            if new >= old:
                new += 1
            labels[i] = new
            if cfg.jitter_sigma > 0.0:
                noise = rng.normal(0.0, cfg.jitter_sigma, size=4)
                # (x_min, y_min) over (x_max, y_max): the sort orders each axis
                corners = np.sort((boxes[i] + noise).reshape(2, 2), axis=0).ravel()
                boxes[i] = np.clip(corners, 0.0, 1.0)
    return Frame.from_arrays(frame.frame_id, boxes, labels, labels == original, original)
