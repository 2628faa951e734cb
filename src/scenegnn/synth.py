"""Procedural static-scene dataset: rigid world layout, egocentric crop views.

The world is a wall in [0, 1]^2 holding one anchored object per class. Each
frame is an axis-aligned crop+zoom window onto the wall, so relative layout
between any two classes is identical across frames. Views are array
expressions over the layout's corners: one visible-fraction test per class
and one clip of the crop boxes per sampled window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrupt import derive_seed
from .scenegraph import Frame

DEFAULT_GRID = 7
MIN_VISIBLE_FRACTION = 0.30
MAX_RETRIES = 100


@dataclass(frozen=True, eq=False)
class LayoutTemplate:
    anchors: np.ndarray  # n_classes x 2 centers in world coords
    sizes: np.ndarray  # n_classes x 2 (w, h)
    n_classes: int
    seed: int


def gen_template(n_classes: int, seed: int, grid: int = DEFAULT_GRID) -> LayoutTemplate:
    """Jittered-grid placement: one object per class, min center separation
    of half a grid cell, log-uniform sizes."""
    if not 2 <= n_classes <= 64:
        raise ValueError("n_classes must be in [2, 64]")
    if n_classes > grid * grid:
        raise ValueError(f"{n_classes} classes exceed {grid}x{grid} grid capacity")
    rng = np.random.default_rng(derive_seed(seed, "template"))
    cell = 1.0 / grid
    cells = rng.permutation(grid * grid)[:n_classes]
    rows, cols = cells // grid, cells % grid
    centers = np.stack([(cols + 0.5) * cell, (rows + 0.5) * cell], axis=1)
    # jitter within +/- cell/4 keeps separation >= cell/2 between any two anchors
    anchors = centers + rng.uniform(-cell / 4, cell / 4, size=(n_classes, 2))
    sizes = np.exp(rng.uniform(math.log(0.04), math.log(0.14), size=(n_classes, 2)))
    return LayoutTemplate(anchors=anchors, sizes=sizes, n_classes=n_classes, seed=seed)


def render_views(
    template: LayoutTemplate,
    n_frames: int,
    view_jitter: tuple[float, float] = (1.5, 3.0),
    dropout_prob: float = 0.0,
    seed: int = 0,
) -> list[Frame]:
    """Egocentric views as seeded random crop windows onto the world wall.

    Objects with less than 30% of their area inside the window are dropped,
    survivors are dropped independently with dropout_prob, and frames with
    fewer than two surviving objects are re-sampled (bounded retries).
    """
    if not 0.0 <= dropout_prob <= 0.5:
        raise ValueError("dropout_prob must be in [0, 0.5]")
    zoom_lo, zoom_hi = view_jitter
    if not 1.0 <= zoom_lo <= zoom_hi:
        raise ValueError("view_jitter must satisfy 1 <= lo <= hi")

    lo = template.anchors - template.sizes / 2
    hi = template.anchors + template.sizes / 2
    area = (hi - lo)[:, 0] * (hi - lo)[:, 1]
    corners = np.hstack([lo, hi])
    frames: list[Frame] = []
    for i in range(n_frames):
        frame_id = f"frame_{i:05d}"
        rng = np.random.default_rng(derive_seed(seed, f"view/{frame_id}"))
        for _ in range(MAX_RETRIES):
            zoom = rng.uniform(zoom_lo, zoom_hi)
            size = 1.0 / zoom
            origin = np.array([rng.uniform(0.0, 1.0 - size), rng.uniform(0.0, 1.0 - size)])
            inter = np.maximum(np.minimum(hi, origin + size) - np.maximum(lo, origin), 0.0)
            kept = np.flatnonzero(inter[:, 0] * inter[:, 1] / area >= MIN_VISIBLE_FRACTION)
            if dropout_prob > 0.0:
                kept = kept[rng.random(kept.size) >= dropout_prob]
            if kept.size >= 2:
                break
        else:
            raise RuntimeError(
                f"could not render {frame_id}: retry budget exhausted "
                "(template/window parameters incompatible)"
            )
        crops = np.clip((corners[kept] - np.tile(origin, 2)) / size, 0.0, 1.0)
        frames.append(Frame.from_arrays(frame_id, crops, kept))
    return frames
