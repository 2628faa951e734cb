#!/usr/bin/env python3
"""SHA-256 of every output of the desk-scale pipeline, one line per output.

    PYTHONPATH=src python3 scripts/identity_hashes.py --seeds 0 1 > hashes.txt

It runs the `scripts/run_pipeline.py` settings (39 classes, 2000 views, k=5,
rho=3, 30 epochs) at each seed and prints the hash of the rendered frames
(boxes and labels), the training graphs (edges as int64, edge features, edge
means and node features), the final and best parameters, the training
history, the file that save_checkpoint writes for the best parameters, the
test EvalReport, mAP@50 before correction, and the corrected labels,
correction records and mAP@50 after correction at k=5 and k="all". Run it in
two checkouts and diff the outputs to check that a change keeps every byte.
Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np

from scenegnn.correct import correct_detections, simulate_detector
from scenegnn.corrupt import derive_seed
from scenegnn.metrics import evaluate_graphs, map50
from scenegnn.model import ModelConfig, save_checkpoint
from scenegnn.nn import param_items
from scenegnn.scenegraph import ALL_NEIGHBORS, box_features
from scenegnn.synth import gen_template, render_views
from scenegnn.train import build_dataset, split_dataset, train


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def params_hash(params) -> str:
    return sha(b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for _, a in param_items(params)))


def checkpoint_hash(params, config, metadata) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "best.ckpt"
        save_checkpoint(params, config, str(path), metadata=metadata)
        return sha(path.read_bytes())


def json_hash(obj) -> str:
    return sha(json.dumps(obj, sort_keys=True).encode())


def frames_hash(frames) -> str:
    return sha(b"".join(
        f.frame_id.encode() + f.boxes.astype("<f8").tobytes() + f.labels.astype("<i8").tobytes()
        for f in frames
    ))


def graphs_hash(graphs) -> str:
    return sha(b"".join(
        g.edges.astype("<i8").tobytes()
        + g.edge_features.astype("<f8").tobytes()
        + g.edge_mean.astype("<f8").tobytes()
        + box_features(g.boxes).astype("<f8").tobytes()
        for g in graphs
    ))


def seed_hashes(seed: int, n_classes: int, n_frames: int, epochs: int) -> dict[str, str]:
    template = gen_template(n_classes, derive_seed(seed, "synth"))
    frames = render_views(template, n_frames, dropout_prob=0.05, seed=derive_seed(seed, "views"))
    config = ModelConfig(n_classes=n_classes, k=5, rho=3, epochs=epochs, seed=seed)
    train_f, val_f, test_f = split_dataset(frames, seed=seed)
    train_g = build_dataset(train_f, config, derive_seed(seed, "train-data"))
    val_g = build_dataset(val_f, config, derive_seed(seed, "val-data"))
    final, best, history = train(train_g, config, val_g)
    test_g = build_dataset(test_f, config, derive_seed(seed, "test-data"))
    out = {
        "frames": frames_hash(frames),
        "train_graphs": graphs_hash(train_g),
        "final_params": params_hash(final),
        "best_params": params_hash(best),
        "history": json_hash(history.to_jsonable()),
        "checkpoint": checkpoint_hash(
            best, config, {"epochs_run": epochs, "final_loss": history.epochs[-1].total_loss}
        ),
        "eval_report": json_hash(evaluate_graphs(test_g, best, config).to_jsonable()),
    }
    dets = simulate_detector(test_f, n_classes, rho_det=3, sigma_det=0.01, seed=derive_seed(seed, "detector"))
    out["map50_before"] = json_hash(map50(dets, test_f))
    for k in (5, ALL_NEIGHBORS):
        fixed, records = correct_detections(dets, best, config, k=k)
        out[f"labels_k{k}"] = json_hash([d.class_id for d in fixed])
        out[f"records_k{k}"] = json_hash([astuple(r) for r in records])
        out[f"map50_k{k}"] = json_hash(map50(fixed, test_f))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    ap.add_argument("--classes", type=int, default=39)
    ap.add_argument("--frames", type=int, default=2000)
    ap.add_argument("--epochs", type=int, default=30)
    args = ap.parse_args()
    for seed in args.seeds:
        for name, digest in seed_hashes(seed, args.classes, args.frames, args.epochs).items():
            print(f"seed {seed} {name:<14} {digest}", flush=True)


if __name__ == "__main__":
    main()
