"""Node-level metrics and detection mAP@50."""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .geometry import iou_corners
from .model import ModelConfig, packed, predict
from .nn import ModelParams, PackedGraphs
from .scenegraph import Detection, Frame, SceneGraph


def validity_accuracy(predicted: np.ndarray, gt: np.ndarray) -> float:
    """Fraction of agreement between predicted and ground-truth validity."""
    predicted = np.asarray(predicted, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if predicted.shape != gt.shape or predicted.size == 0:
        raise ValueError("validity arrays must be non-empty and aligned")
    return float(np.mean(predicted == gt))


@dataclass(eq=False)
class LabelMetrics:
    accuracy: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    confusion: np.ndarray  # rows = ground truth, cols = predicted
    n_evaluated: int
    zero_support_classes: list[int]
    no_invalid_nodes: bool = False


def label_metrics(
    pred_labels: np.ndarray,
    gt_labels: np.ndarray,
    mask: np.ndarray,
    n_classes: int,
) -> LabelMetrics:
    """Accuracy and support-weighted P/R/F1 over the masked nodes.

    Zero-support classes are excluded from the weighted averages; per-class
    precision with zero predicted positives counts as 0. An empty mask is
    reported rather than producing NaNs.
    """
    pred_labels = np.asarray(pred_labels)
    gt_labels = np.asarray(gt_labels)
    mask = np.asarray(mask, dtype=bool)
    if not (pred_labels.shape == gt_labels.shape == mask.shape):
        raise ValueError("label arrays and mask must be aligned")

    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    if not mask.any():
        return LabelMetrics(0.0, 0.0, 0.0, 0.0, confusion, 0, [], no_invalid_nodes=True)

    p = pred_labels[mask]
    g = gt_labels[mask]
    np.add.at(confusion, (g, p), 1)

    support = confusion.sum(axis=1).astype(np.float64)
    predicted = confusion.sum(axis=0).astype(np.float64)
    diag = np.diag(confusion).astype(np.float64)

    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(predicted > 0, diag / np.maximum(predicted, 1), 0.0)
        recall = np.where(support > 0, diag / np.maximum(support, 1), 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / np.maximum(denom, 1e-300), 0.0)

    present = support > 0
    weights = support[present] / support[present].sum()
    return LabelMetrics(
        accuracy=float(np.mean(p == g)),
        weighted_precision=float(weights @ precision[present]),
        weighted_recall=float(weights @ recall[present]),
        weighted_f1=float(weights @ f1[present]),
        confusion=confusion,
        n_evaluated=int(mask.sum()),
        zero_support_classes=[int(c) for c in np.where(~present)[0]],
    )


def average_precision(
    recalls: np.ndarray, precisions: np.ndarray
) -> float:
    """Area under the PR curve with precision made non-increasing from the
    right (all-point interpolation)."""
    r = np.concatenate([[0.0], recalls, [1.0]])
    p = np.concatenate([[0.0], precisions, [0.0]])
    for i in range(len(p) - 2, -1, -1):
        p[i] = max(p[i], p[i + 1])
    idx = np.where(r[1:] != r[:-1])[0]
    return float(np.sum((r[idx + 1] - r[idx]) * p[idx + 1]))


def map50(
    detections: list[Detection], ground_truth: list[Frame]
) -> tuple[dict[int, float], float]:
    """Per-class AP and mAP at IoU >= 0.5.

    Detections are ranked by descending confidence (ties: frame_id, then
    input order) and greedily matched per class to the unmatched same-frame
    ground-truth box of highest IoU. Classes absent from the ground truth
    are excluded from the mean.
    """
    gt_by_frame_class: dict[tuple[str, int], list[list[float]]] = defaultdict(list)
    n_gt: Counter[int] = Counter()
    gt_frame_ids = set()
    for frame in ground_truth:
        gt_frame_ids.add(frame.frame_id)
        for label, box in zip(frame.labels.tolist(), frame.boxes.tolist()):
            gt_by_frame_class[(frame.frame_id, label)].append(box)
            n_gt[label] += 1

    by_class: dict[int, list[tuple[float, str, int, Detection]]] = defaultdict(list)
    for order, det in enumerate(detections):
        if det.frame_id not in gt_frame_ids:
            raise ValueError(f"detection references unknown frame {det.frame_id!r}")
        by_class[det.class_id].append((-det.confidence, det.frame_id, order, det))

    per_class_ap: dict[int, float] = {}
    for cls in sorted(n_gt):
        dets = sorted(by_class.get(cls, []))
        matched: dict[str, set[int]] = defaultdict(set)
        tp = np.zeros(len(dets))
        fp = np.zeros(len(dets))
        for i, (_, fid, _, det) in enumerate(dets):
            boxes = gt_by_frame_class.get((fid, cls), [])
            corners = det.bbox.corners
            best_iou, best_j = 0.0, -1
            for j, box in enumerate(boxes):
                if j in matched[fid]:
                    continue
                v = iou_corners(corners, box)
                if v >= 0.5 and v > best_iou:
                    best_iou, best_j = v, j
            if best_j >= 0:
                matched[fid].add(best_j)
                tp[i] = 1.0
            else:
                fp[i] = 1.0
        if len(dets) == 0:
            per_class_ap[cls] = 0.0
            continue
        cum_tp = np.cumsum(tp)
        cum_fp = np.cumsum(fp)
        recalls = cum_tp / n_gt[cls]
        precisions = cum_tp / (cum_tp + cum_fp)
        per_class_ap[cls] = average_precision(recalls, precisions)

    mean_ap = float(np.mean(list(per_class_ap.values()))) if per_class_ap else 0.0
    return per_class_ap, mean_ap


@dataclass(eq=False)
class EvalReport:
    validity_accuracy: float
    label: LabelMetrics
    n_nodes: int

    def to_jsonable(self) -> dict:
        return {
            "validity_accuracy": self.validity_accuracy,
            "label_accuracy": self.label.accuracy,
            "weighted_precision": self.label.weighted_precision,
            "weighted_recall": self.label.weighted_recall,
            "weighted_f1": self.label.weighted_f1,
            "confusion_matrix": self.label.confusion.tolist(),
            "n_nodes": self.n_nodes,
            "n_evaluated_invalid": self.label.n_evaluated,
            "no_invalid_nodes": self.label.no_invalid_nodes,
            "zero_support_classes": self.label.zero_support_classes,
        }


def evaluate_graphs(
    graphs: PackedGraphs | list[SceneGraph], params: ModelParams, config: ModelConfig
) -> EvalReport:
    """Node-level report over a set of graphs with validity ground truth; a
    list is packed first.

    Label metrics follow the predicted-invalid mask: corrected labels are
    scored against original labels for nodes the model flags as invalid.
    """
    store = packed(graphs, config)
    p = predict(store, params, config)
    lm = label_metrics(p.corrected_label, store.original_labels, p.is_invalid, config.n_classes)
    return EvalReport(
        validity_accuracy=validity_accuracy(~p.is_invalid, store.validity),
        label=lm,
        n_nodes=int(store.validity.size),
    )
