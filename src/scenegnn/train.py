"""Dataset splitting, clean/corrupted pairing, and the Adam training loop."""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .corrupt import CorruptionConfig, corrupt_frame, derive_seed
from .metrics import evaluate_graphs
from .model import ModelConfig, ModelParams, init_model, packed
from .scenegraph import Frame, SceneGraph, build_graph

# The training loss's weights of the validity BCE and the label CE, and the
# shares of frames that go to training and validation (the rest is test).
LAM_VALID, LAM_LABEL = 1.0, 2.0
TRAIN_SHARE, VAL_SHARE = 0.70, 0.15


def split_dataset(
    frames: list[Frame], seed: int
) -> tuple[list[Frame], list[Frame], list[Frame]]:
    """Seeded frame-level split; floor counts for train/val, remainder to test."""
    if len(frames) < 3:
        raise ValueError("need at least 3 frames to split")
    order = np.random.default_rng(derive_seed(seed, "split")).permutation(len(frames))
    n_train = int(len(frames) * TRAIN_SHARE)
    n_val = int(len(frames) * VAL_SHARE)
    shuffled = [frames[i] for i in order]
    return (
        shuffled[:n_train],
        shuffled[n_train: n_train + n_val],
        shuffled[n_train + n_val:],
    )


def build_dataset(frames: list[Frame], config: ModelConfig, seed: int) -> nn.PackedGraphs:
    """One clean graph plus one corrupted twin per frame (1:1), in that
    order, packed as they are built. Each frame's labels are taken as right;
    its annotation, if any, is not read.

    Corruption happens after splitting, so a frame's twin can never leak
    across splits.
    """
    cc = CorruptionConfig(rho=config.rho, seed=seed)

    def graphs():
        for frame in frames:
            clean = Frame.from_arrays(frame.frame_id, frame.boxes, frame.labels)
            yield build_graph(clean, config.k, config.n_classes)
            twin = corrupt_frame(clean, cc, config.n_classes)
            yield build_graph(twin, config.k, config.n_classes)

    sizes = [len(f.labels) for f in frames for _ in range(2)]
    return nn.PackedGraphs(graphs(), sizes, config.n_classes)


@dataclass
class EpochRecord:
    epoch: int
    total_loss: float
    bce: float
    ce: float
    val_validity_accuracy: float | None  # None without a validation set
    val_label_f1: float | None


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)

    def to_jsonable(self) -> list[dict]:
        return [vars(e) for e in self.epochs]


def train(
    train_graphs: nn.PackedGraphs | list[SceneGraph],
    config: ModelConfig,
    val_graphs: nn.PackedGraphs | list[SceneGraph] | None = None,
) -> tuple[ModelParams, ModelParams, TrainHistory]:
    """Fixed-epoch Adam training; returns (final, best-validation, history).

    Mini-batches are whole graphs; per-graph node-mean losses are averaged
    within each batch, the loss is LAM_VALID * BCE + LAM_LABEL * CE, and the
    label head's CE is weighted on corrupted nodes only. Every batch is
    gathered from the training store, and each epoch ends with
    evaluate_graphs on the validation store; a list of graphs is packed
    first. Without a validation set the best checkpoint is the final one.
    """
    if not train_graphs:
        raise ValueError("empty training set")
    train_set = packed(train_graphs, config)
    val_set = packed(val_graphs, config) if val_graphs else None
    rng = np.random.default_rng(derive_seed(config.seed, "train"))
    params = init_model(config, np.random.default_rng(derive_seed(config.seed, "init")))
    state = nn.AdamState.for_params(params, lr=config.lr)
    history = TrainHistory()
    best_acc = -1.0

    n = len(train_set)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        epoch_losses, epoch_bce, epoch_ce = [], [], []
        for start in range(0, n, config.batch_size):
            ids = order[start: start + config.batch_size]
            batch = nn.make_batch(train_set, ids)
            cache = nn.full_forward(params, batch)
            bce, ce = nn.loss_components(cache, batch)
            loss = LAM_VALID * bce + LAM_LABEL * ce
            if not np.isfinite(loss):
                raise nn.NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            nn.backward(params, cache, batch, LAM_VALID, LAM_LABEL, out=state.grads)
            nn.adam_step(state)
            epoch_losses.append(loss)
            epoch_bce.append(bce)
            epoch_ce.append(ce)

        val_acc = val_f1 = None
        if val_set:
            report = evaluate_graphs(val_set, params, config)
            val_acc, val_f1 = report.validity_accuracy, report.label.weighted_f1
        history.epochs.append(
            EpochRecord(
                epoch=epoch,
                total_loss=float(np.mean(epoch_losses)),
                bce=float(np.mean(epoch_bce)),
                ce=float(np.mean(epoch_ce)),
                val_validity_accuracy=val_acc,
                val_label_f1=val_f1,
            )
        )
        if not val_set or val_acc >= best_acc:
            best_acc = val_acc
            best_params = deepcopy(params)
    return params, best_params, history
