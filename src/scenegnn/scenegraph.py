"""Per-frame spatial graphs: node features, directed k-NN edges, edge features."""

from __future__ import annotations

from dataclasses import dataclass

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

    node_features: np.ndarray  # N x F
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


def build_node_features(obj: SceneObject, n_classes: int) -> np.ndarray:
    """[label/(n_classes-1), x_center, y_center, w, h], all in [0, 1]."""
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    if not 0 <= obj.label_id < n_classes:
        raise ValueError(f"label_id {obj.label_id} out of range for {n_classes} classes")
    b = obj.bbox
    cx, cy = b.center
    return np.array(
        [obj.label_id / (n_classes - 1), cx, cy, b.width, b.height], dtype=np.float64
    )


def check_k(k: KOrAll) -> KOrAll:
    """``k`` as a neighbourhood size: "all", or an int of at least 1."""
    if k == ALL_NEIGHBORS:
        return k
    if int(k) < 1:
        raise ValueError(f"k must be >= 1 or 'all', got {k}")
    return int(k)


def knn_edges(objects: list[SceneObject] | tuple[SceneObject, ...], k: KOrAll) -> np.ndarray:
    """Directed k-NN edges over object centers, symmetrized by union of reverses.

    Ties in distance break toward the lower node index. k = "all" yields
    every ordered pair; k < 1 is an error.
    """
    n = len(objects)
    if n == 0:
        raise ValueError("empty object list")
    k = check_k(k)
    if n == 1:
        return np.zeros((0, 2), dtype=np.int64)
    centers = np.array([o.bbox.center for o in objects], dtype=np.float64)
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))

    kk = n - 1 if k == ALL_NEIGHBORS else min(k, n - 1)

    edge_set: set[tuple[int, int]] = set()
    idx = np.arange(n)
    for i in range(n):
        order = np.lexsort((idx, dist[i]))
        picked = 0
        for j in order:
            if j == i:
                continue
            edge_set.add((i, int(j)))
            picked += 1
            if picked == kk:
                break
    # symmetrize: undirected neighbourhoods, direction-specific features
    edge_set |= {(j, i) for (i, j) in edge_set}
    edges = np.array(sorted(edge_set), dtype=np.int64)
    return edges


def build_graph(frame: Frame, k: KOrAll, n_classes: int) -> SceneGraph:
    if len(frame.objects) == 0:
        raise ValueError(f"frame {frame.frame_id!r} has no objects")
    node_features = np.stack(
        [build_node_features(o, n_classes) for o in frame.objects]
    )
    edges = knn_edges(frame.objects, k)
    boxes = tuple(o.bbox for o in frame.objects)
    if edges.shape[0]:
        rows = [
            pairwise_geometry(boxes[i], boxes[j]).as_tuple() for i, j in edges
        ]
        edge_features = np.array(rows, dtype=np.float64)
    else:
        edge_features = np.zeros((0, 6), dtype=np.float64)
    labels = np.array([o.label_id for o in frame.objects], dtype=np.int64)
    return SceneGraph(
        node_features=node_features,
        edges=edges,
        edge_features=edge_features,
        validity=np.ones(len(frame.objects), dtype=bool),
        original_labels=labels.copy(),
        current_labels=labels,
        n_classes=n_classes,
    )


def normalize_edge_features(edge_features: np.ndarray) -> np.ndarray:
    """Scale raw edge features before they enter a learned layer.

    Angle is mapped to (-1, 1] and the unbounded, never negative size ratio
    is squashed with log1p; the other components are already within
    [-1, sqrt(2)]. The input is not modified.
    """
    out = edge_features.copy()
    out[:, 3] /= 180.0
    np.log1p(out[:, 5], out=out[:, 5])
    return out

