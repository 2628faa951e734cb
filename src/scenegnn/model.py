"""Multi-task network assembly, prediction, and checkpoint serialization."""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from .nn import ModelParams, param_items
from .scenegraph import SceneGraph, check_k, is_integer

CHECKPOINT_MAGIC = b"#scenegnn-checkpoint\n"
CHECKPOINT_VERSION = 1

# Node cap of one forward batch in predict. Several small frames share a
# batch, but a large input never holds all its activations at once: without
# the cap, peak memory rose by 20-50 MB when correcting 600 small frames or
# six 234-detection frames in one call. At 256 a 234-detection frame is still
# one batch of its own, and one desk validation pass (5,700 nodes) runs in 23
# batches and about 30 ms (at 64: 96 batches, about 42 ms). Validation
# gathers those batches from the store that build_dataset filled, and packs
# nothing.
PREDICT_CHUNK_NODES = 256


class CheckpointError(Exception):
    pass


class CheckpointFormatError(CheckpointError):
    """File is not a readable checkpoint (truncated, bad magic, bad header)."""


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointDimensionError(CheckpointError):
    pass


class ConfigMismatchError(ValueError):
    """Graph and checkpoint were built with incompatible settings."""


@dataclass
class ModelConfig:
    n_classes: int = 39
    hidden_dim: int = 64
    k: int | str = 5  # neighbourhood size or "all"
    rho: int = 1  # anomaly ratio used when building training data
    validity_threshold: float = 0.5
    lr: float = 0.001
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name, low in (
            ("n_classes", 2), ("hidden_dim", 1), ("rho", 0), ("epochs", 1), ("batch_size", 1),
            ("seed", 0),  # init_model seeds numpy with it
        ):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
            setattr(self, name, int(value))
        if not 0.0 < self.validity_threshold < 1.0:
            raise ValueError("validity_threshold must be in (0, 1)")
        if not 0.0 <= self.lr < float("inf"):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        self.k = check_k(self.k)

    @property
    def input_dim(self) -> int:
        """One-hot label plus the four box features."""
        return self.n_classes + 4


def init_model(config: ModelConfig, rng: np.random.Generator | None = None) -> ModelParams:
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return nn.init_params(config.input_dim, config.hidden_dim, config.n_classes, rng)


def _check_compatible(n_classes: int, config: ModelConfig) -> None:
    if n_classes != config.n_classes:
        raise ConfigMismatchError(
            f"graphs built with n_classes={n_classes}, "
            f"model expects {config.n_classes}"
        )


@dataclass(eq=False)
class Prediction:
    is_invalid: np.ndarray  # N bools
    corrected_label: np.ndarray  # N ints, argmax of the label head
    confidence: np.ndarray  # N floats, max class probability
    validity_prob: np.ndarray


def packed(graphs: nn.PackedGraphs | list[SceneGraph], config: ModelConfig) -> nn.PackedGraphs:
    """``graphs`` as one store, checked against ``config``: a store as it
    is, a list packed after each of its graphs is checked."""
    if isinstance(graphs, nn.PackedGraphs):
        _check_compatible(graphs.n_classes, config)
        return graphs
    return nn.PackedGraphs(_checked(graphs, config))


def chunked(items: Iterable, size: Callable[..., int] = lambda g: g.n_nodes) -> Iterator[list]:
    """Consecutive runs of ``items`` (graphs, by default), drawn one at a
    time, whose ``size`` adds up to at most PREDICT_CHUNK_NODES nodes; a
    larger item is a run of its own."""
    chunk, total = [], 0
    for item in items:
        n = size(item)
        if chunk and total + n > PREDICT_CHUNK_NODES:
            yield chunk
            chunk, total = [], 0
        chunk.append(item)
        total += n
    if chunk:
        yield chunk


def predict(
    graphs: nn.PackedGraphs | Iterable[SceneGraph], params: ModelParams, config: ModelConfig
) -> Prediction:
    """Flags, corrected labels and confidences for every node of ``graphs``,
    concatenated in graph order.

    The graphs are taken in batches of whole graphs capped at
    PREDICT_CHUNK_NODES nodes, and each batch is run and reduced to per-node
    values before the next is taken, so the N x C class probabilities of a
    large input are never held at once. A store's batches are gathered from
    it. Any other iterable is drawn lazily, one batch at a time, and each
    batch is packed, so a generator's graphs are never all held at once.
    """
    if isinstance(graphs, nn.PackedGraphs):
        _check_compatible(graphs.n_classes, config)
        ids = chunked(range(len(graphs)), graphs.graph_nodes.item)
        batches = (nn.make_batch(graphs, chunk) for chunk in ids)
    else:
        batches = (nn.make_batch(_checked(chunk, config)) for chunk in chunked(graphs))
    parts = []
    for batch in batches:
        cache = nn.full_forward(params, batch)
        class_probs = nn.softmax(cache.class_logits)
        parts.append((
            cache.validity_prob,
            np.argmax(class_probs, axis=1),  # ties: lowest index
            np.max(class_probs, axis=1),
        ))
    if not parts:
        raise ValueError("need at least one graph to predict")
    v_prob, labels, confidence = (np.concatenate(p) for p in zip(*parts))
    return Prediction(
        is_invalid=v_prob < config.validity_threshold,
        corrected_label=labels,
        confidence=confidence,
        validity_prob=v_prob,
    )


def _checked(graphs: list[SceneGraph], config: ModelConfig) -> list[SceneGraph]:
    for g in graphs:
        _check_compatible(g.n_classes, config)
    return graphs


# ---------------------------------------------------------------------------
# checkpoints


@dataclass(eq=False)
class Checkpoint:
    config: ModelConfig
    params: ModelParams
    metadata: dict = field(default_factory=dict)


def save_checkpoint(
    params: ModelParams,
    config: ModelConfig,
    path: str,
    metadata: dict | None = None,
) -> None:
    """Self-describing header followed by little-endian float64 blocks in
    param_items order; written atomically."""
    from .dataio import atomic_write_text  # here: model -> dataio -> metrics -> model is a cycle

    items = param_items(params)
    header = {
        "format_version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "metadata": metadata or {},
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in items],
    }
    atomic_write_text(path, b"".join([
        CHECKPOINT_MAGIC,
        json.dumps(header, sort_keys=True).encode() + b"\n",
        *(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in items),
    ]))


def load_checkpoint(path: str) -> Checkpoint:
    """The checkpoint at ``path``; a file that is not one that save_checkpoint
    could have written raises a CheckpointError naming the path."""
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointFormatError(f"{path}: not a scenegnn checkpoint")
    nl = blob.find(b"\n", len(CHECKPOINT_MAGIC))
    if nl < 0:
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[len(CHECKPOINT_MAGIC): nl].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointFormatError(f"{path}: header is not a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format_version {header.get('format_version')!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    fields = header.get("config")
    if not isinstance(fields, dict):
        raise CheckpointFormatError(f"{path}: config is not a JSON object")
    # options that older checkpoints record: each reads only at the one value
    # the network still has
    for key, supported in (
        ("label_encoding", "onehot"), ("msg_mode", "nodes+edges"), ("ce_invalid_only", True)
    ):
        value = fields.pop(key, supported)
        if type(value) is not type(supported) or value != supported:
            raise CheckpointFormatError(
                f"{path}: {key} {value!r} is not supported, only {supported!r}"
            )
    # training settings that older checkpoints record: inference never reads them
    for key in ("lam_valid", "lam_label", "jitter_sigma"):
        fields.pop(key, None)
    try:
        config = ModelConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad config: {exc}") from exc

    template = nn.zero_params(config.input_dim, config.hidden_dim, config.n_classes)
    items = param_items(template)
    tensors = header.get("tensors", [])
    if not isinstance(tensors, list) or not all(isinstance(t, dict) for t in tensors):
        raise CheckpointFormatError(f"{path}: tensors is not a list of JSON objects")
    if [t.get("name") for t in tensors] != [name for name, _ in items]:
        raise CheckpointDimensionError(f"{path}: unexpected tensor list")

    # the body as far as it reaches, one view per tensor; blocks are then
    # checked in file order
    body_len = len(blob) - (nl + 1)
    flat = np.zeros(sum(arr.size for _, arr in items))
    n = min(body_len // flat.itemsize, flat.size)
    flat[:n] = np.frombuffer(blob, dtype="<f8", count=n, offset=nl + 1)
    params = nn._views(template, flat)
    end = 0
    for t, (name, loaded) in zip(tensors, param_items(params)):
        if t.get("shape") != list(loaded.shape):
            raise CheckpointDimensionError(
                f"{path}: {name} has shape {t.get('shape')}, expected {list(loaded.shape)}"
            )
        end += loaded.nbytes
        if end > body_len:
            raise CheckpointFormatError(f"{path}: truncated parameter block {name}")
        if not np.all(np.isfinite(loaded)):
            raise CheckpointFormatError(f"{path}: non-finite values in {name}")
    if end != body_len:
        raise CheckpointFormatError(f"{path}: trailing bytes after parameters")
    return Checkpoint(config=config, params=params, metadata=header.get("metadata", {}))
