#!/usr/bin/env python3
"""End-to-end demo: synthesize a dataset, train, evaluate, and measure the
mAP@50 recovery from correcting a simulated detector's outputs.

    python3 scripts/run_pipeline.py --workdir /tmp/scenegnn-demo --seed 0

Each stage's line shows the elapsed time and the process's resident-memory
high-water mark so far; summary.json keeps the latter per stage as
``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time

from scenegnn.correct import correct_detections, simulate_detector
from scenegnn.corrupt import derive_seed
from scenegnn.dataio import atomic_write_text
from scenegnn.metrics import evaluate_graphs, map50
from scenegnn.model import ModelConfig, save_checkpoint
from scenegnn.synth import gen_template, render_views
from scenegnn.train import build_dataset, split_dataset, train


def correction_counts(truth: list[int], before: list[int], after: list[int]) -> dict[str, int]:
    """How correction changed each detection's label against its ground truth:
    ``fixed`` wrong to right, ``broke`` right to wrong, ``wrong_to_wrong``
    wrong to another wrong label, ``missed`` wrong and left as it was."""
    counts = dict.fromkeys(("fixed", "broke", "wrong_to_wrong", "missed"), 0)
    for gt, label_in, label_out in zip(truth, before, after, strict=True):
        if label_in == gt:
            counts["broke"] += label_out != gt
        elif label_out == gt:
            counts["fixed"] += 1
        elif label_out == label_in:
            counts["missed"] += 1
        else:
            counts["wrong_to_wrong"] += 1
    return counts


def peak_rss_mb() -> float:
    """The process's resident-memory high-water mark so far, in MB (Linux
    counts ``ru_maxrss`` in KB), as the benchmark reads ``peak_rss_mb``."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--classes", type=int, default=39)
    ap.add_argument("--frames", type=int, default=2000)
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--rho", type=int, default=3)
    ap.add_argument("--epochs", type=int, default=30)
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    t0 = time.perf_counter()
    peaks: dict[str, float] = {}

    def stage(name: str, message: str) -> None:
        peaks[name] = round(peak_rss_mb(), 1)
        print(f"[{time.perf_counter() - t0:6.1f}s {peaks[name]:6.1f} MB] {message}")

    template = gen_template(args.classes, derive_seed(args.seed, "synth"))
    frames = render_views(
        template, args.frames, dropout_prob=0.05, seed=derive_seed(args.seed, "views")
    )
    stage("synth", f"generated {len(frames)} frames")

    config = ModelConfig(
        n_classes=args.classes, k=args.k, rho=args.rho,
        epochs=args.epochs, seed=args.seed,
    )
    train_f, val_f, test_f = split_dataset(frames, seed=args.seed)
    train_g = build_dataset(train_f, config, derive_seed(args.seed, "train-data"))
    val_g = build_dataset(val_f, config, derive_seed(args.seed, "val-data"))
    _, best, history = train(train_g, config, val_g)
    stage(
        "train",
        f"trained {args.epochs} epochs, "
        f"loss {history.epochs[0].total_loss:.4f} -> {history.epochs[-1].total_loss:.4f}",
    )
    ckpt_path = os.path.join(args.workdir, "model.ckpt")
    save_checkpoint(best, config, ckpt_path)

    test_g = build_dataset(test_f, config, derive_seed(args.seed, "test-data"))
    report = evaluate_graphs(test_g, best, config)
    stage(
        "eval",
        f"test validity acc {report.validity_accuracy:.4f}, "
        f"weighted F1 {report.label.weighted_f1:.4f}",
    )

    dets = simulate_detector(
        test_f, args.classes, rho_det=3, sigma_det=0.01,
        seed=derive_seed(args.seed, "detector"),
    )
    _, before = map50(dets, test_f)
    fixed, _ = correct_detections(dets, best, config)
    _, after = map50(fixed, test_f)
    stage("correct", f"simulated detector mAP@50 {before:.4f} -> {after:.4f} (+{after - before:.4f})")
    # simulate_detector keeps every test frame's objects, in order
    counts = correction_counts(
        [label for frame in test_f for label in frame.labels.tolist()],
        [d.class_id for d in dets],
        [d.class_id for d in fixed],
    )
    print("corrections " + ", ".join(f"{name} {n}" for name, n in counts.items()))

    atomic_write_text(
        os.path.join(args.workdir, "summary.json"),
        json.dumps(
            {
                "validity_accuracy": report.validity_accuracy,
                "weighted_f1": report.label.weighted_f1,
                "map50_before": before,
                "map50_after": after,
                "corrections": counts,
                "checkpoint": ckpt_path,
                "peak_rss_mb": peaks,
            },
            indent=2,
        )
        + "\n",
    )


if __name__ == "__main__":
    main()
