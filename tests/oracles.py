"""Reference implementations that the tests check the package against, and
inputs at the edges of what they accept."""

import math

import numpy as np
from hypothesis import strategies as st

from scenegnn.geometry import BoundingBox

# Coordinates on both sides of every bound a box check tests: NaN, infinities,
# signed zeros, subnormals and the nearest floats outside [0, 1].
EDGE_COORDS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 0.5,
    5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    math.nextafter(1.0, 2.0), math.nextafter(0.0, -1.0), -1e-300, 1.5, -0.25,
]


@st.composite
def corners_near_bounds(draw):
    """(x_min, y_min, x_max, y_max): a valid box, or one with a coordinate
    replaced by an edge value, or with swapped corners."""
    unit = st.sampled_from([0.0, -0.0, 5e-324, 1.0]) | st.floats(0.0, 1.0)
    x0, x1 = sorted((draw(unit), draw(unit)))
    y0, y1 = sorted((draw(unit), draw(unit)))
    row = [x0, y0, x1, y1]
    kind = draw(st.sampled_from(["valid", "edge", "inverted"]))
    if kind == "edge":
        row[draw(st.integers(0, 3))] = draw(st.sampled_from(EDGE_COORDS))
    elif kind == "inverted":
        axis = draw(st.integers(0, 1))
        row[axis], row[axis + 2] = row[axis + 2], row[axis]
    return tuple(row)


def edge_rows():
    """Every EDGE_COORDS value in every position of a valid box."""
    for i in range(4):
        for v in EDGE_COORDS:
            row = [0.25, 0.25, 0.75, 0.75]
            row[i] = v
            yield tuple(row)


def box_rejection(x_min: float, y_min: float, x_max: float, y_max: float) -> str | None:
    """The message ``BoundingBox`` raises for these corners, or None: each
    coordinate in turn must be finite and within [0, 1], then the corners
    must not be inverted. The reference for ``BoundingBox.__post_init__``."""
    for name, v in zip(("x_min", "y_min", "x_max", "y_max"), (x_min, y_min, x_max, y_max)):
        if not math.isfinite(v):
            return f"non-finite coordinate {name}={v!r}"
        if not 0.0 <= v <= 1.0:
            return f"coordinate {name}={v} outside [0, 1]"
    if x_min > x_max or y_min > y_max:
        return f"inverted box ({x_min}, {y_min}, {x_max}, {y_max})"
    return None


def clamp_box(x_min: float, y_min: float, x_max: float, y_max: float) -> BoundingBox:
    """Re-order corners and clamp them into [0, 1], one coordinate at a time:
    the reference for the row expressions of ``render_views`` and
    ``corrupt_frame``."""
    lo_x, hi_x = sorted((x_min, x_max))
    lo_y, hi_y = sorted((y_min, y_max))
    clip = lambda v: min(1.0, max(0.0, v))
    return BoundingBox(clip(lo_x), clip(lo_y), clip(hi_x), clip(hi_y))


def center_and_size(boxes: np.ndarray) -> np.ndarray:
    """[x_center, y_center, w, h] of each row of the N x 4 corner array
    ``boxes``, as one expression: the reference for ``scenegraph.box_features``
    and the box columns of a batch's ``x``."""
    return np.column_stack([(boxes[:, :2] + boxes[:, 2:]) / 2.0, boxes[:, 2:] - boxes[:, :2]])


def normalize_edge_features(edge_features: np.ndarray) -> np.ndarray:
    """Scale raw edge features before they enter a learned layer, all columns
    at once: the reference for ``scenegraph.normalize_edge_column``.

    Angle is mapped to (-1, 1] and the unbounded, never negative size ratio
    is squashed with log1p; the other components are already within
    [-1, sqrt(2)]. The input is not modified.
    """
    out = edge_features.copy()
    out[:, 3] /= 180.0
    np.log1p(out[:, 5], out=out[:, 5])
    return out


def edge_means(graph) -> np.ndarray:
    """Each node's mean normalised out-edge feature, added one edge at a time
    in edge order as value x (1 / out-degree); zero for a node without
    out-edges. The reference for ``SceneGraph.edge_mean``."""
    edges = graph.edges.tolist()
    degree = [0] * graph.n_nodes
    for i, _ in edges:
        degree[i] += 1
    sums = [[0.0] * 6 for _ in range(graph.n_nodes)]
    for (i, _), row in zip(edges, normalize_edge_features(graph.edge_features).tolist()):
        share = 1.0 / degree[i]
        for c in range(6):
            sums[i][c] += row[c] * share
    return np.array(sums).reshape(graph.n_nodes, 6)
