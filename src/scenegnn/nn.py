"""Dense neural-network kernels: GraphSAGE mean aggregation, heads, losses,
hand-written reverse-mode gradients and Adam. float64 throughout.

No ML framework. Mean aggregation is one scipy.sparse matrix per batch, the
row-normalised adjacency of the batch's disjoint union of graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .scenegraph import SceneGraph, normalize_edge_features, onehot_node_features

MSG_NODES = "nodes"
MSG_NODES_EDGES = "nodes+edges"

LOG_EPS = 1e-12


class NumericalError(RuntimeError):
    """Non-finite value encountered where the math guarantees finiteness."""


# ---------------------------------------------------------------------------
# parameters


@dataclass
class SageLayer:
    w_self: np.ndarray  # out x in
    w_neigh: np.ndarray  # out x in_msg
    bias: np.ndarray  # out


@dataclass
class LinearHead:
    w: np.ndarray  # out x in
    b: np.ndarray  # out


@dataclass
class ModelParams:
    sage1: SageLayer
    sage2: SageLayer
    valid_head: LinearHead
    label_head: LinearHead


# Fixed serialization / optimizer order for every tensor in the model.
PARAM_FIELDS: tuple[tuple[str, str], ...] = (
    ("sage1", "w_self"),
    ("sage1", "w_neigh"),
    ("sage1", "bias"),
    ("sage2", "w_self"),
    ("sage2", "w_neigh"),
    ("sage2", "bias"),
    ("valid_head", "w"),
    ("valid_head", "b"),
    ("label_head", "w"),
    ("label_head", "b"),
)


def param_items(params: ModelParams) -> list[tuple[str, np.ndarray]]:
    return [
        (f"{obj}.{attr}", getattr(getattr(params, obj), attr))
        for obj, attr in PARAM_FIELDS
    ]


def set_param(params: ModelParams, name: str, value: np.ndarray) -> None:
    obj, attr = name.split(".")
    setattr(getattr(params, obj), attr, value)


def _glorot(rng: np.random.Generator, out_dim: int, in_dim: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(out_dim, in_dim))


def init_params(
    in_dim: int,
    hidden_dim: int,
    n_classes: int,
    msg_mode: str,
    rng: np.random.Generator,
    edge_dim: int = 6,
) -> ModelParams:
    e = edge_dim if msg_mode == MSG_NODES_EDGES else 0
    return ModelParams(
        sage1=SageLayer(
            w_self=_glorot(rng, hidden_dim, in_dim),
            w_neigh=_glorot(rng, hidden_dim, in_dim + e),
            bias=np.zeros(hidden_dim),
        ),
        sage2=SageLayer(
            w_self=_glorot(rng, hidden_dim, hidden_dim),
            w_neigh=_glorot(rng, hidden_dim, hidden_dim + e),
            bias=np.zeros(hidden_dim),
        ),
        valid_head=LinearHead(w=_glorot(rng, 1, hidden_dim), b=np.zeros(1)),
        label_head=LinearHead(w=_glorot(rng, n_classes, hidden_dim), b=np.zeros(n_classes)),
    )


# ---------------------------------------------------------------------------
# batches


@dataclass
class GraphBatch:
    """Disjoint union of scene graphs prepared for forward/backward passes."""

    x: np.ndarray  # N x F node inputs
    adj: sp.csr_matrix = field(repr=False)  # N x N, 1/|N(i)| at each neighbour of i
    edge_mean: np.ndarray  # N x 6 mean normalized feature of each node's out-edges
    validity_gt: np.ndarray  # N bools
    label_gt: np.ndarray  # N ints (original labels)
    node_weights: np.ndarray  # per-node loss weights
    ce_weights: np.ndarray | None = None  # overrides node_weights for the CE term

    @property
    def n_nodes(self) -> int:
        return self.x.shape[0]


def node_inputs(graph: SceneGraph, label_encoding: str) -> np.ndarray:
    if label_encoding == "onehot":
        return onehot_node_features(graph)
    return graph.node_features


def make_batch(graphs: list[SceneGraph], label_encoding: str) -> GraphBatch:
    """Union of graphs; node losses are averaged within each graph and then
    across graphs.

    Edges are grouped by source with a stable sort, so each row of ``adj``
    lists its neighbours in edge order. For edges sorted by (src, dst), as
    build_graph makes them, ``adj @ h`` adds the same products in the same
    order as a mean over gathered per-edge messages.
    """
    xs, exs, srcs, dsts, vals, labs, wts = [], [], [], [], [], [], []
    offset = 0
    for g in graphs:
        xs.append(node_inputs(g, label_encoding))
        exs.append(normalize_edge_features(g.edge_features))
        srcs.append(g.edges[:, 0] + offset)
        dsts.append(g.edges[:, 1] + offset)
        vals.append(g.validity)
        labs.append(g.original_labels)
        wts.append(np.full(g.n_nodes, 1.0 / (g.n_nodes * len(graphs))))
        offset += g.n_nodes

    src = np.concatenate(srcs)
    n, e = offset, src.shape[0]
    order = np.argsort(src, kind="stable")
    deg = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    weights = (1.0 / np.maximum(deg, 1.0))[src[order]]
    adj = sp.csr_matrix((weights, np.concatenate(dsts)[order], indptr), shape=(n, n))
    edge_agg = sp.csr_matrix((weights, order, indptr), shape=(n, e))
    return GraphBatch(
        x=np.concatenate(xs),
        adj=adj,
        edge_mean=edge_agg @ np.concatenate(exs),
        validity_gt=np.concatenate(vals),
        label_gt=np.concatenate(labs),
        node_weights=np.concatenate(wts),
    )


# ---------------------------------------------------------------------------
# forward


def _layer_forward(
    layer: SageLayer, h: np.ndarray, batch: GraphBatch, msg_mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (agg, pre_activation, output); the mean over an empty
    neighbourhood is the zero vector."""
    agg = batch.adj @ h
    if msg_mode == MSG_NODES_EDGES:
        agg = np.concatenate([agg, batch.edge_mean], axis=1)
    pre = h @ layer.w_self.T + agg @ layer.w_neigh.T + layer.bias
    return agg, pre, np.maximum(pre, 0.0)


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
    logits = h @ label_head.w.T + label_head.b
    return sigmoid(v_logit), logits


@dataclass
class ForwardCache:
    x: np.ndarray
    agg1: np.ndarray
    pre1: np.ndarray
    h1: np.ndarray
    agg2: np.ndarray
    pre2: np.ndarray
    h2: np.ndarray
    validity_prob: np.ndarray
    class_logits: np.ndarray


def full_forward(params: ModelParams, batch: GraphBatch, msg_mode: str) -> ForwardCache:
    agg1, pre1, h1 = _layer_forward(params.sage1, batch.x, batch, msg_mode)
    agg2, pre2, h2 = _layer_forward(params.sage2, h1, batch, msg_mode)
    v_prob, logits = heads_forward(h2, params.valid_head, params.label_head)
    return ForwardCache(batch.x, agg1, pre1, h1, agg2, pre2, h2, v_prob, logits)


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
    """(mean BCE, mean CE) under the batch's node weights."""
    w = batch.node_weights
    wc = batch.ce_weights if batch.ce_weights is not None else w
    bce = float(w @ bce_terms(cache.validity_prob, batch.validity_gt))
    ce = float(wc @ ce_terms(cache.class_logits, batch.label_gt))
    return bce, ce


# ---------------------------------------------------------------------------
# backward


def backward(
    params: ModelParams,
    cache: ForwardCache,
    batch: GraphBatch,
    msg_mode: str,
    lam_valid: float = 1.0,
    lam_label: float = 1.0,
) -> ModelParams:
    """Exact gradients of lam_valid * bce + lam_label * ce, the two terms of
    loss_components, for every parameter. Each neighbour receives 1/|N(i)|
    of the upstream gradient through the mean aggregation."""
    w = batch.node_weights
    wc = batch.ce_weights if batch.ce_weights is not None else w
    n = batch.n_nodes

    d_vlogit = lam_valid * w * (cache.validity_prob - batch.validity_gt)
    probs = softmax(cache.class_logits)
    d_logits = probs.copy()
    d_logits[np.arange(n), batch.label_gt] -= 1.0
    d_logits *= lam_label * wc[:, None]

    g_valid = LinearHead(
        w=d_vlogit[None, :] @ cache.h2, b=np.array([d_vlogit.sum()])
    )
    g_label = LinearHead(w=d_logits.T @ cache.h2, b=d_logits.sum(axis=0))

    d_h2 = d_vlogit[:, None] @ params.valid_head.w + d_logits @ params.label_head.w

    def layer_backward(layer, d_out, pre, agg, h_in):
        d_pre = d_out * (pre > 0.0)
        g = SageLayer(
            w_self=d_pre.T @ h_in,
            w_neigh=d_pre.T @ agg,
            bias=d_pre.sum(axis=0),
        )
        d_agg = d_pre @ layer.w_neigh
        f_in = h_in.shape[1]
        d_h_in = d_pre @ layer.w_self + batch.adj.T @ d_agg[:, :f_in]
        return g, d_h_in

    g_sage2, d_h1raw = layer_backward(
        params.sage2, d_h2, cache.pre2, cache.agg2, cache.h1
    )
    g_sage1, _ = layer_backward(params.sage1, d_h1raw, cache.pre1, cache.agg1, cache.x)

    return ModelParams(
        sage1=g_sage1, sage2=g_sage2, valid_head=g_valid, label_head=g_label
    )


# ---------------------------------------------------------------------------
# optimizer


@dataclass
class AdamState:
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ModelParams, lr: float = 0.001, **kw) -> "AdamState":
        state = cls(lr=lr, **kw)
        for name, arr in param_items(params):
            state.m[name] = np.zeros_like(arr)
            state.v[name] = np.zeros_like(arr)
        return state


def adam_step(params: ModelParams, grads: ModelParams, state: AdamState) -> None:
    """In-place bias-corrected Adam update; rejects non-finite gradients."""
    for name, g in param_items(grads):
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in {name}")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for (name, p), (_, g) in zip(param_items(params), param_items(grads)):
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
