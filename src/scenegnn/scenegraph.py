"""Per-frame spatial graphs read from one N x 4 box array: k-NN edges by one
stable sort and each node's mean out-edge geometry. Node features and raw
edge geometry are derived from the boxes when read."""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
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


def _frozen(values, dtype) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: itself when it already is
    one that owns its data, else a copy."""
    if (
        type(values) is not np.ndarray or values.dtype != dtype
        or values.flags.writeable or not values.flags.owndata
    ):
        values = np.array(values, dtype=dtype)
        values.setflags(write=False)
    return values


def _check_boxes(boxes: np.ndarray) -> None:
    """Raise the ValueError that ``BoundingBox`` raises for the first row of
    the N x 4 corner array ``boxes`` that it rejects. One pass of array
    tests accepts exactly the rows ``BoundingBox`` accepts (min and max are
    NaN when any value is); only a rejected array is walked row by row."""
    if not (
        boxes.min(initial=0.0) >= 0.0
        and boxes.max(initial=1.0) <= 1.0
        and (boxes[:, :2] <= boxes[:, 2:]).all()
    ):
        for row in boxes.tolist():
            BoundingBox(*row)


@dataclass(frozen=True, init=False, eq=False, slots=True)
class Frame:
    """One view: ``boxes`` (N x 4 float64 corners x_min, y_min, x_max, y_max)
    and ``labels`` (N int64 class ids), all read-only, in object order. An
    annotated view also holds each object's ``validity`` (N bools, True =
    its label is right) and ``original_labels`` (N int64 true labels); a
    plain view holds None for both.

    ``Frame(frame_id, objects)`` converts a sequence of ``SceneObject``;
    ``Frame.from_arrays`` takes the arrays. Either way every box is checked
    once, as ``BoundingBox`` checks it. ``objects`` rebuilds the
    ``SceneObject`` tuple on each access and is not for hot paths.
    """

    frame_id: str
    boxes: np.ndarray
    labels: np.ndarray
    validity: np.ndarray | None
    original_labels: np.ndarray | None

    def __init__(self, frame_id: str, objects: Iterable[SceneObject]) -> None:
        objects = tuple(objects)
        self._set(
            frame_id,
            [o.bbox.corners for o in objects],
            [o.label_id for o in objects],
        )

    @classmethod
    def from_arrays(
        cls, frame_id: str, boxes, labels, validity=None, original_labels=None
    ) -> Frame:
        """A frame of ``boxes`` (N x 4) and ``labels`` (N), annotated when
        ``validity`` and ``original_labels`` (N each) are given, both or
        neither. A read-only array of the right dtype that owns its data is
        shared, since no frame writes it; anything else is copied."""
        frame = cls.__new__(cls)
        frame._set(frame_id, boxes, labels, validity, original_labels)
        return frame

    def _set(self, frame_id: str, boxes, labels, validity=None, original_labels=None) -> None:
        boxes, labels = _frozen(boxes, np.float64), _frozen(labels, np.int64)
        if boxes.size == 0:
            boxes = boxes.reshape(0, 4)
        if boxes.ndim != 2 or boxes.shape[1] != 4 or labels.shape != (len(boxes),):
            raise ValueError(
                f"expected N x 4 boxes and N labels, got shapes {boxes.shape} and {labels.shape}"
            )
        if (validity is None) != (original_labels is None):
            raise ValueError("validity and original_labels are given together or not at all")
        if validity is not None:
            validity, original_labels = _frozen(validity, bool), _frozen(original_labels, np.int64)
            if not validity.shape == original_labels.shape == labels.shape:
                raise ValueError(
                    f"expected {len(labels)} validity flags and original labels, "
                    f"got shapes {validity.shape} and {original_labels.shape}"
                )
        _check_boxes(boxes)
        object.__setattr__(self, "frame_id", frame_id)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "validity", validity)
        object.__setattr__(self, "original_labels", original_labels)

    @property
    def objects(self) -> tuple[SceneObject, ...]:
        return tuple(
            SceneObject(label, BoundingBox(*box))
            for label, box in zip(self.labels.tolist(), self.boxes.tolist())
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.frame_id == other.frame_id and all(
            # an absent annotation (None) equals only an absent one
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("boxes", "labels", "validity", "original_labels")
        )

    def __hash__(self) -> int:
        return hash(self.frame_id)


@dataclass(slots=True, eq=False)
class SceneGraph:
    """Graph view of one frame; node order follows the frame's object order.
    ``node_features`` is computed from ``boxes`` on each access and
    ``edge_features`` from ``boxes`` and ``edges`` on first access, so do not
    edit ``edges`` after the build."""

    edges: np.ndarray  # E x 2 int32 (src, dst), directed
    edge_mean: np.ndarray  # N x 6 mean normalised feature of each node's out-edges
    boxes: np.ndarray  # N x 4 the frame's read-only corners
    validity: np.ndarray  # N bools, True = unmodified
    original_labels: np.ndarray  # N ints, pre-corruption ground truth
    current_labels: np.ndarray  # N ints, possibly corrupted / detector-predicted
    n_classes: int
    _edge_features: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.boxes.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def node_features(self) -> np.ndarray:
        """N x 4 ``box_features`` of the boxes."""
        return box_features(self.boxes)

    @property
    def edge_features(self) -> np.ndarray:
        """E x 6 raw pairwise geometry per directed edge."""
        if self._edge_features is None:
            self._edge_features = edge_geometry(self.boxes, self.edges)
        return self._edge_features

    @edge_features.setter
    def edge_features(self, value: np.ndarray) -> None:
        self._edge_features = value


def box_features(boxes: np.ndarray) -> np.ndarray:
    """N x 4 x_center, y_center, w, h of each row of the N x 4 corners
    ``boxes``: the node features that the network reads."""
    return np.column_stack([(boxes[:, :2] + boxes[:, 2:]) / 2.0, boxes[:, 2:] - boxes[:, :2]])


def is_integer(value: object) -> bool:
    """An int or a numpy integer, never a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_k(k: KOrAll) -> KOrAll:
    """``k`` as a neighbourhood size: "all", or an integer of at least 1."""
    if k == ALL_NEIGHBORS:
        return k
    if not is_integer(k):
        raise ValueError(f"k must be 'all' or an integer, got {k!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1 or 'all', got {k}")
    return int(k)


def knn_edges(centers: np.ndarray, k: KOrAll) -> np.ndarray:
    """Directed k-NN edges (E x 2 int32) over the N x 2 ``centers``,
    symmetrized by union of reverses and sorted by (src, dst).

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
    return np.argwhere(linked | linked.T).astype(np.int32)


def edge_geometry(boxes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """E x 6 ``pairwise_geometry`` of each edge (i, j) over the N x 4
    ``boxes``, streamed, so that no per-edge Python tuples are held at once."""
    bboxes = [BoundingBox(*row) for row in boxes.tolist()]
    pairs = zip(edges[:, 0].tolist(), edges[:, 1].tolist())
    return np.fromiter(
        chain.from_iterable(pairwise_geometry(bboxes[i], bboxes[j]).as_tuple() for i, j in pairs),
        dtype=np.float64,
        count=6 * len(edges),
    ).reshape(-1, 6)


def build_graph(frame: Frame, k: KOrAll, n_classes: int) -> SceneGraph:
    """k-NN edges and each node's mean out-edge geometry, read from the
    frame's arrays, which the graph shares. A plain frame's nodes are all
    valid, with their own labels as the original ones."""
    labels = frame.labels
    if len(labels) == 0:
        raise ValueError(f"frame {frame.frame_id!r} has no objects")
    if n_classes < 2:
        raise ValueError("n_classes must be >= 2")
    for name, values in (("label_id", labels), ("original_label", frame.original_labels)):
        out_of_range = () if values is None else values[(values < 0) | (values >= n_classes)]
        if len(out_of_range):
            raise ValueError(f"{name} {out_of_range[0]} out of range for {n_classes} classes")
    boxes, n = frame.boxes, len(labels)
    edges = knn_edges((boxes[:, :2] + boxes[:, 2:]) / 2.0, k)
    edge_features, src = edge_geometry(boxes, edges), edges[:, 0]
    share = (1.0 / np.maximum(np.bincount(src, minlength=n), 1.0))[src]
    edge_mean = np.empty((n, 6))
    # one column at a time, so no E x 6 temporary; bincount adds each node's
    # terms in edge order, as a loop over out-edges does
    for c in range(6):
        terms = normalize_edge_column(edge_features[:, c], c) * share
        edge_mean[:, c] = np.bincount(src, terms, minlength=n)
    return SceneGraph(
        edges=edges,
        edge_mean=edge_mean,
        boxes=boxes,
        validity=np.ones(n, dtype=bool) if frame.validity is None else frame.validity,
        original_labels=labels if frame.original_labels is None else frame.original_labels,
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
