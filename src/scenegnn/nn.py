"""Dense neural-network kernels: GraphSAGE mean aggregation, heads, losses,
hand-written reverse-mode gradients and Adam. float64 throughout.

No ML framework. Mean aggregation is one batched matmul over a dense block per
graph, its row-normalised adjacency padded to the batch's largest graph. Every
batch is gathered from a PackedGraphs store: build_dataset fills one as it
builds, and make_batch packs a list it is given, such as one chunk of
predict's.

A training step allocates little beyond its activations: the forward adds the
bias and applies the ReLU in place, backward writes every gradient into views
of the AdamState's flat gradient buffer and runs the label head on the
CE-weighted rows only, and adam_step updates the flat parameters and moments
in place. Each of these keeps the bits of the plain expressions it replaces.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, fields, is_dataclass, replace
from itertools import accumulate, islice

import numpy as np

from .scenegraph import SceneGraph, box_features

LOG_EPS = 1e-12
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decay rates and denominator guard


class NumericalError(RuntimeError):
    """Non-finite value encountered where the math guarantees finiteness."""


# ---------------------------------------------------------------------------
# parameters


@dataclass(eq=False)
class SageLayer:
    w_self: np.ndarray  # out x in
    w_neigh: np.ndarray  # out x in_msg
    bias: np.ndarray  # out


@dataclass(eq=False)
class LinearHead:
    w: np.ndarray  # out x in
    b: np.ndarray  # out


@dataclass(eq=False)
class ModelParams:
    sage1: SageLayer
    sage2: SageLayer
    valid_head: LinearHead
    label_head: LinearHead


def param_items(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    """Every tensor of ``params``, named ``part.tensor``, in the order of the
    dataclass fields: the order of checkpoint blocks and Adam's buffers."""
    parts = ((p.name, getattr(params, p.name)) for p in fields(params))
    return [
        (f"{name}.{t.name}", getattr(part, t.name)) for name, part in parts for t in fields(part)
    ]


def _glorot(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def zero_params(in_dim: int, hidden_dim: int, n_classes: int) -> ModelParams:
    """A model of zeros: the one table of the tensors' shapes. Each layer's
    ``w_neigh`` reads the neighbour mean of its input, then the 6 columns of
    ``GraphBatch.edge_mean``."""
    h = hidden_dim
    return ModelParams(
        sage1=SageLayer(np.zeros((h, in_dim)), np.zeros((h, in_dim + 6)), np.zeros(h)),
        sage2=SageLayer(np.zeros((h, h)), np.zeros((h, h + 6)), np.zeros(h)),
        valid_head=LinearHead(np.zeros((1, h)), np.zeros(1)),
        label_head=LinearHead(np.zeros((n_classes, h)), np.zeros(n_classes)),
    )


def init_params(
    in_dim: int, hidden_dim: int, n_classes: int, rng: np.random.Generator
) -> ModelParams:
    """Zero biases and Glorot-uniform weights, drawn in param_items order."""
    params = zero_params(in_dim, hidden_dim, n_classes)
    for _, arr in param_items(params):
        if arr.ndim == 2:
            arr[...] = _glorot(rng, *arr.shape)
    return params


# ---------------------------------------------------------------------------
# batches


@dataclass(eq=False)
class GraphBatch:
    """Disjoint union of scene graphs prepared for forward/backward passes."""

    x: np.ndarray  # N x (C + 4): one-hot current label, then cx, cy, w, h
    adj: np.ndarray = field(repr=False)  # G x M x M, 1/|N(i)| at each neighbour j of i
    slot: np.ndarray = field(repr=False)  # N, each node's row g * M + i of the padded stack
    edge_mean: np.ndarray  # N x 6 mean normalized feature of each node's out-edges
    validity_gt: np.ndarray  # N bools
    label_gt: np.ndarray  # N ints (original labels)
    node_weights: np.ndarray  # per-node loss weights
    ce_weights: np.ndarray  # CE weights: node_weights on corrupted nodes, else 0

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]


def mean_aggregate(blocks: np.ndarray, slot: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``blocks[g] @ h`` per graph g, with each node's row of ``h`` at its
    ``slot`` of a zero G*M x F stack. A GraphBatch's ``adj`` averages each
    node's neighbours; ``adj.transpose(0, 2, 1)`` returns their gradients."""
    (g, m, _), f = blocks.shape, h.shape[1]
    padded = np.zeros((g * m, f))
    padded[slot] = h
    return (blocks @ padded.reshape(g, m, f)).reshape(g * m, f)[slot]


class PackedGraphs:
    """Compact store of a sequence of graphs, the one form in which the
    network reads graphs: make_batch gathers a batch of any of them.
    build_dataset fills one as it builds, and a list of graphs is packed
    into one where the network reads it.

    Per node it holds the corner boxes, current label, targets, degree and
    the mean normalised feature of the node's out-edges; per edge, the
    neighbour's index within its graph, grouped by source (a stable sort
    runs only when some graph's edges are not); per graph, node and edge
    offsets. The one-hot inputs, the box features and the adjacency blocks
    are built per batch.

    Indexing, slicing and iteration give read-only ``SceneGraph`` views, as
    a list gives its graphs; a view's ``edges`` are rebuilt from the degrees
    and neighbours.
    """

    # graphs whose node rows are copied in by one concatenation per array
    FILL_CHUNK = 64

    def __init__(
        self,
        graphs: Iterable[SceneGraph],
        sizes: list[int] | None = None,
        n_classes: int | None = None,
    ) -> None:
        """The store of ``graphs``: a list, or any iterable whose node
        counts ``sizes`` and ``n_classes`` are known before its graphs are
        built. Those are drawn a chunk at a time into node arrays allocated
        once, so only each chunk's neighbour list waits for the end."""
        if sizes is None:
            graphs = list(graphs)
            if not graphs:
                raise ValueError("need at least one graph to pack")
            sizes, n_classes = [g.n_nodes for g in graphs], graphs[0].n_classes
        self.n_classes = n_classes
        starts = [0, *accumulate(sizes)]
        self.graph_nodes = np.array(sizes, dtype=np.int64)
        self.node_start = np.array(starts, dtype=np.int64)
        n = starts[-1]
        self.boxes = np.empty((n, 4))
        self.current_labels = np.empty(n, dtype=np.int64)
        self.validity = np.empty(n, dtype=bool)
        self.original_labels = np.empty(n, dtype=np.int64)
        self.edge_mean = np.empty((n, 6))
        self.degree = np.empty(n, dtype=np.int32)
        neighbours, edge_counts = [], []
        graphs = iter(graphs)
        mismatch = f"graphs do not match the {len(sizes)} node counts given"
        for first in range(0, len(sizes), self.FILL_CHUNK):
            chunk = list(islice(graphs, self.FILL_CHUNK))
            last = first + len(chunk)
            if [g.n_nodes for g in chunk] != sizes[first: first + self.FILL_CHUNK]:
                raise ValueError(mismatch)
            if any(g.n_classes != n_classes for g in chunk):
                other = sorted({n_classes, *(g.n_classes for g in chunk)})
                raise ValueError(f"graphs built with different n_classes: {other}")
            a, b = starts[first], starts[last]
            for name in ("boxes", "current_labels", "validity", "original_labels", "edge_mean"):
                getattr(self, name)[a:b] = np.concatenate([getattr(g, name) for g in chunk])
            # graphs own disjoint, increasing ranges of the chunk's source
            # index, so one stable sort keeps each graph's edges in its range,
            # by source; build_graph's edges are already grouped, and need none
            counts = [g.n_edges for g in chunk]
            src = np.concatenate([g.edges[:, 0] for g in chunk], dtype=np.int32)
            src += np.repeat((self.node_start[first:last] - a).astype(np.int32), counts)
            self.degree[a:b] = np.bincount(src, minlength=b - a)
            neighbour = np.concatenate([g.edges[:, 1] for g in chunk], dtype=np.int32)
            if not (src[1:] >= src[:-1]).all():
                neighbour = neighbour[np.argsort(src, kind="stable")]
            neighbours.append(neighbour)
            edge_counts += counts
        if next(graphs, None) is not None:
            raise ValueError(mismatch)
        self.edge_start = np.array([0, *accumulate(edge_counts)], dtype=np.int64)
        self.neighbour = np.concatenate(neighbours) if neighbours else np.empty(0, np.int32)

    def __len__(self) -> int:
        return self.graph_nodes.shape[0]

    def __getitem__(self, index: int | slice) -> SceneGraph | list[SceneGraph]:
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        a, b = self.node_start[i], self.node_start[i + 1]
        edges = np.empty((self.edge_start[i + 1] - self.edge_start[i], 2), dtype=np.int32)
        edges[:, 0] = np.repeat(np.arange(b - a, dtype=np.int32), self.degree[a:b])
        edges[:, 1] = self.neighbour[self.edge_start[i]: self.edge_start[i + 1]]
        rows = {
            name: getattr(self, name)[a:b]
            for name in ("edge_mean", "boxes", "validity", "original_labels", "current_labels")
        }
        for arr in (edges, *rows.values()):
            arr.setflags(write=False)
        return SceneGraph(edges=edges, n_classes=self.n_classes, **rows)

    def __iter__(self) -> Iterator[SceneGraph]:
        return (self[i] for i in range(len(self)))


def make_batch(
    graphs: list[SceneGraph] | PackedGraphs,
    ids: Sequence[int] | np.ndarray | None = None,
) -> GraphBatch:
    """Union of graphs ``ids`` (default: all) of ``graphs``; node losses are
    averaged within each graph and then across graphs, and CE is weighted on
    corrupted nodes only.

    A list of graphs is packed first. Graph g of the batch gets block
    ``adj[g]``, zero-padded to the largest graph's M nodes, and node i of it
    the padded row ``slot = g * M + i``.
    """
    store = graphs if isinstance(graphs, PackedGraphs) else PackedGraphs(graphs)
    ids = np.arange(len(store)) if ids is None else np.asarray(ids, dtype=np.int64)
    sizes = store.graph_nodes[ids]
    n, m = int(sizes.sum()), int(sizes.max(initial=0))
    local = np.arange(n) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # index in its graph
    node = np.repeat(store.node_start[ids], sizes) + local
    slot = np.repeat(np.arange(len(ids)) * m, sizes) + local
    deg = store.degree[node]
    adj = np.zeros((len(ids) * m, m))
    # each edge's cell of the flat blocks, then its value: at most two
    # edge-long temporaries are alive at once
    cell = np.repeat(slot * m, deg)
    bounds = zip(store.edge_start[ids].tolist(), store.edge_start[ids + 1].tolist())
    cell += np.concatenate([store.neighbour[:0], *(store.neighbour[a:b] for a, b in bounds)])
    adj.reshape(-1)[cell] = np.repeat(1.0 / np.maximum(deg, 1), deg)
    nc = store.n_classes
    x = np.zeros((n, nc + 4))
    x[np.arange(n), store.current_labels[node]] = 1.0
    x[:, nc:] = box_features(store.boxes[node])
    validity = store.validity[node]
    weights = np.repeat(1.0 / (sizes * len(sizes)), sizes)
    return GraphBatch(
        x=x,
        adj=adj.reshape(len(ids), m, m),
        slot=slot,
        edge_mean=store.edge_mean[node],
        validity_gt=validity,
        label_gt=store.original_labels[node],
        node_weights=weights,
        ce_weights=weights * ~validity,
    )


# ---------------------------------------------------------------------------
# forward


def _layer_forward(
    layer: SageLayer, h: np.ndarray, batch: GraphBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (agg, output). agg is each node's neighbour mean of ``h``,
    the zero vector over an empty neighbourhood, then the mean feature of its
    out-edges. The ReLU runs in place, so the backward reads its mask from
    the output: output > 0 exactly where the pre-activation is."""
    agg = np.concatenate([mean_aggregate(batch.adj, batch.slot, h), batch.edge_mean], axis=1)
    out = h @ layer.w_self.T
    out += agg @ layer.w_neigh.T
    out += layer.bias
    return agg, np.maximum(out, 0.0, out=out)


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ez = np.exp(shifted)
    return ez / ez.sum(axis=1, keepdims=True)


def heads_forward(
    h: np.ndarray, valid_head: LinearHead, label_head: LinearHead
) -> tuple[np.ndarray, np.ndarray]:
    """Validity probabilities (sigmoid) and raw class logits."""
    v_logit = (h @ valid_head.w.T + valid_head.b)[:, 0]
    logits = h @ label_head.w.T
    logits += label_head.b
    return sigmoid(v_logit), logits


@dataclass(eq=False)
class ForwardCache:
    x: np.ndarray
    agg1: np.ndarray
    h1: np.ndarray
    agg2: np.ndarray
    h2: np.ndarray
    validity_prob: np.ndarray
    class_logits: np.ndarray


def full_forward(params: ModelParams, batch: GraphBatch) -> ForwardCache:
    agg1, h1 = _layer_forward(params.sage1, batch.x, batch)
    agg2, h2 = _layer_forward(params.sage2, h1, batch)
    v_prob, logits = heads_forward(h2, params.valid_head, params.label_head)
    return ForwardCache(batch.x, agg1, h1, agg2, h2, v_prob, logits)


# ---------------------------------------------------------------------------
# losses


def bce_terms(validity_prob: np.ndarray, validity_gt: np.ndarray) -> np.ndarray:
    p = np.clip(validity_prob, LOG_EPS, 1.0 - LOG_EPS)
    y = validity_gt.astype(np.float64)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def ce_terms(class_logits: np.ndarray, label_gt: np.ndarray) -> np.ndarray:
    shifted = class_logits - class_logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return log_z - shifted[np.arange(len(label_gt)), label_gt]


def loss_components(
    cache: ForwardCache, batch: GraphBatch
) -> tuple[float, float]:
    """(mean BCE, mean CE): BCE under the batch's node weights, CE under its
    CE weights. CE terms are computed on the CE-weighted rows only; the other
    rows' weight is zero."""
    bce = float(batch.node_weights @ bce_terms(cache.validity_prob, batch.validity_gt))
    wc, rows = batch.ce_weights, np.flatnonzero(batch.ce_weights)
    terms = np.zeros(batch.n_nodes)
    terms[rows] = ce_terms(cache.class_logits[rows], batch.label_gt[rows])
    return bce, float(wc @ terms)


# ---------------------------------------------------------------------------
# backward


def backward(
    params: ModelParams,
    cache: ForwardCache,
    batch: GraphBatch,
    lam_valid: float,
    lam_label: float,
    out: ModelParams | None = None,
) -> ModelParams:
    """Exact gradients of lam_valid * bce + lam_label * ce, the two terms of
    loss_components, for every parameter. Each neighbour receives 1/|N(i)|
    of the upstream gradient through the mean aggregation.

    Every gradient is written, never accumulated, into ``out`` (an
    AdamState's ``grads``, views of its flat gradient buffer), or into a new
    flat buffer. The label head's gradient comes from the CE-weighted rows
    only."""
    if out is None:
        out = _views(params, np.empty(sum(arr.size for _, arr in param_items(params))))
    w, n = batch.node_weights, batch.n_nodes
    wc, rows = batch.ce_weights, np.flatnonzero(batch.ce_weights)

    d_vlogit = lam_valid * w * (cache.validity_prob - batch.validity_gt)
    np.matmul(d_vlogit[None, :], cache.h2, out=out.valid_head.w)
    out.valid_head.b[0] = d_vlogit.sum()

    d_ce = softmax(cache.class_logits[rows])
    d_ce[np.arange(d_ce.shape[0]), batch.label_gt[rows]] -= 1.0
    d_ce *= lam_label * wc[rows][:, None]
    np.matmul(d_ce.T, cache.h2[rows], out=out.label_head.w)
    np.sum(d_ce, axis=0, out=out.label_head.b)
    d_logits = np.zeros((n, d_ce.shape[1]))
    d_logits[rows] = d_ce

    # on all rows: the product over the CE rows alone can take another BLAS
    # kernel, whose sums round differently
    d_h2 = d_vlogit[:, None] @ params.valid_head.w
    d_h2 += d_logits @ params.label_head.w

    def layer_backward(d_out, h_out, agg, h_in, g):
        d_pre = np.multiply(d_out, h_out > 0.0, out=d_out)
        np.matmul(d_pre.T, h_in, out=g.w_self)
        np.matmul(d_pre.T, agg, out=g.w_neigh)
        np.sum(d_pre, axis=0, out=g.bias)
        return d_pre

    d_pre2 = layer_backward(d_h2, cache.h2, cache.agg2, cache.h1, out.sage2)
    d_agg2 = d_pre2 @ params.sage2.w_neigh
    d_h1 = d_pre2 @ params.sage2.w_self
    d_h1 += mean_aggregate(
        np.ascontiguousarray(batch.adj.transpose(0, 2, 1)), batch.slot,
        d_agg2[:, :cache.h1.shape[1]],
    )
    # the input features take no gradient, so layer 1 stops at its weights
    layer_backward(d_h1, cache.h1, cache.agg1, cache.x, out.sage1)
    return out


# ---------------------------------------------------------------------------
# optimizer


def _views(params: ModelParams, flat: np.ndarray) -> ModelParams:
    """A model shaped like ``params`` whose tensors are consecutive views of
    ``flat``, in param_items order."""
    ends = list(accumulate(arr.size for _, arr in param_items(params)))
    views = iter(np.split(flat, ends[:-1]))

    def rebuild(obj):
        if not is_dataclass(obj):
            return next(views).reshape(obj.shape)
        return replace(obj, **{f.name: rebuild(getattr(obj, f.name)) for f in fields(obj)})

    return rebuild(params)


@dataclass(eq=False)
class AdamState:
    """Adam over flat float64 buffers: ``params``, ``grad``, ``m`` and ``v``
    each hold every tensor in param_items order. for_params rebinds the
    model's parts to views of ``params``, so one step updates them all;
    ``grads`` views ``grad``, for backward to write into."""

    params: np.ndarray
    grad: np.ndarray
    grads: ModelParams
    m: np.ndarray
    v: np.ndarray
    lr: float
    t: int = 0

    def __post_init__(self) -> None:
        # the step's two scratch vectors
        self._num = np.empty_like(self.params)
        self._den = np.empty_like(self.params)

    @classmethod
    def for_params(cls, params: ModelParams, lr: float) -> "AdamState":
        flat = np.concatenate([arr.ravel() for _, arr in param_items(params)], dtype=np.float64)
        vars(params).update(vars(_views(params, flat)))
        grad = np.zeros_like(flat)
        return cls(
            params=flat, grad=grad, grads=_views(params, grad),
            m=np.zeros_like(flat), v=np.zeros_like(flat), lr=lr,
        )


def adam_step(state: AdamState) -> None:
    """In-place bias-corrected Adam update of the model that ``state`` was
    made for, from the gradient that backward wrote into ``state.grads``; a
    non-finite gradient raises before anything changes."""
    g = state.grad
    if not np.isfinite(g).all():
        name = next(n for n, arr in param_items(state.grads) if not np.isfinite(arr).all())
        raise NumericalError(f"non-finite gradient in {name}")
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    m, v, num, den = state.m, state.v, state._num, state._den
    # the operations, in order, of
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
    # params -= lr (m / bc1) / (sqrt(v / bc2) + eps)
    m *= BETA1
    m += np.multiply(g, 1.0 - BETA1, out=num)
    v *= BETA2
    np.multiply(g, 1.0 - BETA2, out=num)
    v += np.multiply(num, g, out=num)
    np.divide(m, bc1, out=num)
    num *= state.lr
    np.divide(v, bc2, out=den)
    np.sqrt(den, out=den)
    den += EPS
    state.params -= np.divide(num, den, out=num)
