"""Axis-aligned bounding-box geometry in normalized image coordinates.

Coordinates live in [0, 1] with origin at the top-left corner, x pointing
right and y pointing down. Angles therefore increase clockwise on screen.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

# Largest size ratio reported, also when the reference box has zero area or
# so little that the ratio overflows; keeps features finite.
SIZE_RATIO_CAP = 1e6


@dataclass(frozen=True, slots=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if 0.0 <= self.x_min <= self.x_max <= 1.0 and 0.0 <= self.y_min <= self.y_max <= 1.0:
            return  # the common case; False for NaN, so the checks below find it
        for name in ("x_min", "y_min", "x_max", "y_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {name}={v!r}")
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"coordinate {name}={v} outside [0, 1]")
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError(
                f"inverted box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def corners(self) -> tuple[float, float, float, float]:
        return self.x_min, self.y_min, self.x_max, self.y_max

    @property
    def center(self) -> tuple[float, float]:
        return (self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0


def iou_corners(a: Sequence[float], b: Sequence[float]) -> float:
    """Intersection over union of two boxes given by their corners
    (x_min, y_min, x_max, y_max); 0 when the union has zero area."""
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    ix = min(ax1, bx1) - max(ax0, bx0)
    iy = min(ay1, by1) - max(ay0, by0)
    inter = max(0.0, ix) * max(0.0, iy)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union; 0 when the union has zero area."""
    return iou_corners(a.corners, b.corners)


@dataclass(frozen=True)
class EdgeGeometry:
    """Pairwise spatial relation directed from box a (node i) to box b (node j)."""

    dx: float
    dy: float
    dist: float
    theta_deg: float
    iou: float
    size_ratio: float

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.dx, self.dy, self.dist, self.theta_deg, self.iou, self.size_ratio)


def pairwise_geometry(a: BoundingBox, b: BoundingBox) -> EdgeGeometry:
    """Displacement, distance, angle (degrees), IoU and area ratio from a to b.

    The area ratio b/a is capped at SIZE_RATIO_CAP.

    theta is atan2(dy, dx) in degrees mapped into (-180, 180]; atan2(0, 0)
    is taken as 0 for coincident centers.
    """
    ax, ay = a.center
    bx, by = b.center
    dx = bx - ax
    dy = by - ay
    dist = math.hypot(dx, dy)
    if dx == 0.0 and dy == 0.0:
        theta = 0.0
    else:
        theta = math.degrees(math.atan2(dy, dx))
        if theta <= -180.0:
            theta += 360.0
    area_a = a.area
    ratio = min(b.area / area_a, SIZE_RATIO_CAP) if area_a > 0.0 else SIZE_RATIO_CAP
    return EdgeGeometry(dx, dy, dist, theta, iou(a, b), ratio)
