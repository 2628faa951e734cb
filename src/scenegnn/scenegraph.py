"""Per-frame spatial graphs read from one N x 4 box array: node features,
k-NN edges by one stable sort, and per-edge geometry."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import BoundingBox, pairwise_geometry

# Sentinel accepted wherever a neighbourhood size is expected.
ALL_NEIGHBORS = "all"

KOrAll = int | str


@dataclass(frozen=True)
class SceneObject:
    label_id: int
    bbox: BoundingBox


@dataclass(frozen=True)
class Frame:
    frame_id: str
    objects: tuple[SceneObject, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objects", tuple(self.objects))


@dataclass
class SceneGraph:
    """Graph view of one frame; node order follows the frame's object order."""

    node_features: np.ndarray  # N x 4: x_center, y_center, w, h
    edges: np.ndarray  # E x 2 (src, dst), directed
    edge_features: np.ndarray  # E x 6, raw pairwise geometry per directed edge
    validity: np.ndarray  # N bools, True = unmodified
    original_labels: np.ndarray  # N ints, pre-corruption ground truth
    current_labels: np.ndarray  # N ints, possibly corrupted / detector-predicted
    n_classes: int

    @property
    def n_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def check_k(k: KOrAll) -> KOrAll:
    """``k`` as a neighbourhood size: "all", or an int of at least 1."""
    if k == ALL_NEIGHBORS:
        return k
    if int(k) < 1:
        raise ValueError(f"k must be >= 1 or 'all', got {k}")
    return int(k)


def knn_edges(centers: np.ndarray, k: KOrAll) -> np.ndarray:
    """Directed k-NN edges over the N x 2 ``centers``, symmetrized by union of
    reverses and sorted by (src, dst).

    One stable sort per row ranks neighbours nearest first, so ties in
    distance break toward the lower node index. k = "all" yields every
    ordered pair; k < 1 is an error.
    """
    n = len(centers)
    if n == 0:
        raise ValueError("empty object list")
    k = check_k(k)
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    kk = n - 1 if k == ALL_NEIGHBORS else min(k, n - 1)
    linked = np.zeros((n, n), dtype=bool)
    linked[np.arange(n)[:, None], np.argsort(dist, axis=1, kind="stable")[:, :kk]] = True
    # symmetrize: undirected neighbourhoods, direction-specific features
    return np.argwhere(linked | linked.T)


def build_graph(frame: Frame, k: KOrAll, n_classes: int) -> SceneGraph:
    """Node features [x_center, y_center, w, h], k-NN edges and per-edge
    geometry, all read from one N x 4 box array."""
    if len(frame.objects) == 0:
        raise ValueError(f"frame {frame.frame_id!r} has no objects")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    labels = np.array([o.label_id for o in frame.objects], dtype=np.int64)
    out_of_range = labels[(labels < 0) | (labels >= n_classes)]
    if out_of_range.size:
        raise ValueError(f"label_id {out_of_range[0]} out of range for {n_classes} classes")
    bboxes = [o.bbox for o in frame.objects]
    boxes = np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in bboxes], dtype=np.float64)
    centers = (boxes[:, :2] + boxes[:, 2:]) / 2.0
    node_features = np.column_stack([centers, boxes[:, 2:] - boxes[:, :2]])
    edges = knn_edges(centers, k)
    # streamed, so that no per-edge Python tuples are held at once
    pairs = zip(edges[:, 0].tolist(), edges[:, 1].tolist())
    edge_features = np.fromiter(
        chain.from_iterable(pairwise_geometry(bboxes[i], bboxes[j]).as_tuple() for i, j in pairs),
        dtype=np.float64,
        count=6 * len(edges),
    ).reshape(-1, 6)
    return SceneGraph(
        node_features=node_features,
        edges=edges,
        edge_features=edge_features,
        validity=np.ones(len(frame.objects), dtype=bool),
        original_labels=labels.copy(),
        current_labels=labels,
        n_classes=n_classes,
    )


def normalize_edge_column(column: np.ndarray, c: int) -> np.ndarray:
    """Values ``column`` of raw edge feature ``c``, scaled to enter a
    learned layer: the angle (c = 3) is mapped to (-1, 1] and the unbounded,
    never negative size ratio (c = 5) is squashed with log1p; the other
    components are already within [-1, sqrt(2)]. The input is not modified."""
    if c == 3:
        return column / 180.0
    if c == 5:
        return np.log1p(column)
    return column
