"""Command-line pipeline: synth | corrupt | train | eval | correct | map."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import dataio
from .corrupt import CorruptionConfig, corrupt_frame, derive_seed
from .correct import correct_detections, resolve_tau
from .metrics import evaluate_graphs, map50
from .model import (
    CheckpointError,
    ModelConfig,
    load_checkpoint,
    save_checkpoint,
)
from .nn import NumericalError, PackedGraphs
from .scenegraph import ALL_NEIGHBORS, build_graph
from .synth import gen_template, render_views
from .train import build_dataset, split_dataset, train as run_training

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad usage instead of argparse's 2
        raise UsageError(f"{message}\n{self.format_usage()}")


def _parse_k(value: str):
    return ALL_NEIGHBORS if value == ALL_NEIGHBORS else int(value)


def build_parser() -> _Parser:
    parser = _Parser(prog="scenegnn", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="master seed for all stages")
    parser.add_argument("--strict", action="store_true", help="reject unknown input fields")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", parents=[], help="generate a synthetic static-scene dataset")
    p.add_argument("--classes", type=int, default=39)
    p.add_argument("--frames", type=int, default=2000)
    p.add_argument("--dropout", type=float, default=0.05)
    p.add_argument("--out", required=True)

    p = sub.add_parser("corrupt", help="emit corrupted copies of clean frames")
    p.add_argument("--data", required=True)
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--sigma", type=float, default=0.01)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train the anomaly detection/correction model")
    p.add_argument("--data", required=True)
    p.add_argument("--k", type=_parse_k, default=5)
    p.add_argument("--rho", type=int, default=1)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch", type=int, default=16)
    p.add_argument("--out", required=True, help="checkpoint path")

    p = sub.add_parser("eval", help="node-level metrics on a corrupted test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="frames JSONL with validity fields")
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--confusion-csv", help="optional confusion matrix CSV path")

    p = sub.add_parser("correct", help="post-process detector outputs")
    p.add_argument("--detections", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=_parse_k, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--audit", help="corrections audit JSONL path")

    p = sub.add_parser("map", help="mAP@50 of detections against ground truth")
    p.add_argument("--detections", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", help="report JSON path")
    return parser


def _cmd_synth(args) -> dict:
    template = gen_template(args.classes, derive_seed(args.seed, "synth"))
    frames = render_views(
        template,
        args.frames,
        dropout_prob=args.dropout,
        seed=derive_seed(args.seed, "views"),
    )
    dataio.write_frames(args.out, dataio.FrameDataset(args.classes, frames))
    template_path = args.out + ".template.json"
    dataio.atomic_write_text(
        template_path,
        json.dumps(
            {
                "n_classes": template.n_classes,
                "seed": template.seed,
                "anchors": template.anchors.tolist(),
                "sizes": template.sizes.tolist(),
            }
        )
        + "\n",
    )
    return {
        "command": "synth",
        "frames": len(frames),
        "n_classes": args.classes,
        "out": args.out,
        "template": template_path,
    }


def _cmd_corrupt(args) -> dict:
    dataset = dataio.parse_frames(args.data, strict=args.strict)
    cfg = CorruptionConfig(
        rho=args.rho, jitter_sigma=args.sigma, seed=derive_seed(args.seed, "corrupt")
    )
    frames = [corrupt_frame(f, cfg, dataset.n_classes) for f in dataset.frames]
    dataio.write_frames(args.out, dataio.FrameDataset(dataset.n_classes, frames))
    return {
        "command": "corrupt",
        "frames": len(frames),
        "invalid_nodes": sum(int((~f.validity).sum()) for f in frames),
        "rho": args.rho,
        "out": args.out,
    }


def _cmd_train(args) -> dict:
    dataset = dataio.parse_frames(args.data, strict=args.strict)
    config = ModelConfig(
        n_classes=dataset.n_classes,
        k=args.k,
        rho=args.rho,
        epochs=args.epochs,
        lr=args.lr,
        batch_size=args.batch,
        seed=args.seed,
    )
    train_frames, val_frames, _ = split_dataset(dataset.frames, seed=args.seed)
    train_graphs = build_dataset(train_frames, config, derive_seed(args.seed, "train-data"))
    val_graphs = build_dataset(val_frames, config, derive_seed(args.seed, "val-data"))
    final_params, best_params, history = run_training(train_graphs, config, val_graphs)

    meta = {
        "epochs_run": config.epochs,
        "final_loss": history.epochs[-1].total_loss,
    }
    save_checkpoint(final_params, config, args.out, metadata=meta)
    save_checkpoint(best_params, config, args.out + ".best", metadata=meta)
    dataio.atomic_write_text(
        args.out + ".history.json", json.dumps(history.to_jsonable(), indent=2) + "\n"
    )
    last = history.epochs[-1]
    return {
        "command": "train",
        "epochs": config.epochs,
        "final_loss": last.total_loss,
        "val_validity_accuracy": last.val_validity_accuracy,
        "val_label_f1": last.val_label_f1,
        "out": args.out,
    }


def _cmd_eval(args) -> dict:
    ckpt = load_checkpoint(args.checkpoint)
    dataset = dataio.parse_frames(args.data, strict=args.strict)
    if dataset.n_classes != ckpt.config.n_classes:
        raise UsageError(
            f"dataset has n_classes={dataset.n_classes}, "
            f"checkpoint expects {ckpt.config.n_classes}"
        )
    graphs = PackedGraphs(
        (build_graph(f, ckpt.config.k, dataset.n_classes) for f in dataset.frames),
        [len(f.labels) for f in dataset.frames],
        dataset.n_classes,
    )
    report = evaluate_graphs(graphs, ckpt.params, ckpt.config)
    payload = report.to_jsonable()
    if args.out:
        dataio.atomic_write_text(args.out, json.dumps(payload, indent=2) + "\n")
    if args.confusion_csv:
        rows = "\n".join(",".join(str(v) for v in row) for row in report.label.confusion)
        dataio.atomic_write_text(args.confusion_csv, rows + "\n")
    return {
        "command": "eval",
        "validity_accuracy": report.validity_accuracy,
        "weighted_f1": report.label.weighted_f1,
        "n_nodes": report.n_nodes,
        "n_evaluated_invalid": report.label.n_evaluated,
        "out": args.out,
    }


def _cmd_correct(args) -> dict:
    ckpt = load_checkpoint(args.checkpoint)
    detections = dataio.parse_detections(
        args.detections, strict=args.strict, n_classes=ckpt.config.n_classes
    )
    corrected, records = correct_detections(
        detections, ckpt.params, ckpt.config, k=args.k, tau=args.tau
    )
    dataio.write_detections(args.out, corrected)
    if args.audit:
        lines = "\n".join(json.dumps(dataclasses.asdict(r)) for r in records)
        dataio.atomic_write_text(args.audit, lines + ("\n" if lines else ""))
    tau = resolve_tau(ckpt.config, args.tau)
    return {
        "command": "correct",
        "frames": len({r.frame_id for r in records}),
        "passthrough_frames": sum(1 for r in records if r.note),
        "detections": len(detections),
        # a passthrough record scores 1.0, so it is never below tau
        "flagged": sum(1 for r in records if r.validity_score < tau),
        "applied_corrections": sum(1 for r in records if r.applied),
        "out": args.out,
    }


def _cmd_map(args) -> dict:
    detections = dataio.parse_detections(args.detections, strict=args.strict)
    gt = dataio.parse_frames(args.gt, strict=args.strict)
    per_class, mean_ap = map50(detections, gt.frames)
    payload = {
        "map50": mean_ap,
        "per_class_ap": {str(c): ap for c, ap in sorted(per_class.items())},
    }
    if args.out:
        dataio.atomic_write_text(args.out, json.dumps(payload, indent=2) + "\n")
    return {"command": "map", "map50": mean_ap, "classes": len(per_class), "out": args.out}


_COMMANDS = {
    "synth": _cmd_synth,
    "corrupt": _cmd_corrupt,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "correct": _cmd_correct,
    "map": _cmd_map,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage())
        summary = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except (dataio.FramesFileError, CheckpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if not args.quiet:
        print(json.dumps(summary))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
