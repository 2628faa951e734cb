"""The benchmark's own input generators: detector errors and input files.

They depend on the program only for the layout's anchors and sizes and the
rendered views, so a change to the program's detector simulator leaves these
inputs unchanged. Detections are plain (frame_id, class_id, box, confidence)
tuples with box a 4-tuple of floats in [0, 1].
"""

from __future__ import annotations

import json

import numpy as np


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _clip(v) -> float:
    return min(1.0, max(0.0, float(v)))


def _jitter(box, rng, sigma):
    x0, y0, x1, y1 = (_clip(v) for v in np.asarray(box) + rng.normal(0.0, sigma, 4))
    return (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))


def stream_detections(frames, n_classes: int, seed: int, max_swaps: int = 3, sigma: float = 0.01):
    """A detector that relabels m ~ U{1..max_swaps} objects per frame.

    Each relabelled object gets a different uniformly drawn class and corner
    jitter N(0, sigma^2); the rest are reported exactly. Confidences are
    U(0.5, 1). Returns (detections, ground-truth label per detection).
    """
    rng = _rng(seed, 1)
    dets, gt_labels = [], []
    for frame in frames:
        n = len(frame.objects)
        swapped = set(rng.choice(n, size=int(rng.integers(1, min(max_swaps, n) + 1)), replace=False).tolist())
        for i, obj in enumerate(frame.objects):
            b = obj.bbox
            box = (b.x_min, b.y_min, b.x_max, b.y_max)
            cls = obj.label_id
            if i in swapped:
                cls = int(rng.integers(0, n_classes - 1))
                cls += cls >= obj.label_id
                box = _jitter(box, rng, sigma)
            dets.append((frame.frame_id, cls, box, float(rng.uniform(0.5, 1.0))))
            gt_labels.append(obj.label_id)
    return dets, gt_labels


def wall_boxes(template) -> list[tuple[float, float, float, float]]:
    """Every object of the layout as seen in a view of the whole wall."""
    boxes = []
    for (cx, cy), (w, h) in zip(template.anchors, template.sizes):
        boxes.append(tuple(_clip(v) for v in (cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)))
    return boxes


def dense_detections(template, n_frames: int, copies: int, swap_rate: float, seed: int, sigma: float = 0.005):
    """Full-wall views as a low score threshold reports them.

    Each of the layout's objects is reported ``copies`` times, each copy with
    corner jitter N(0, sigma^2), its own confidence U(0.05, 1) and, with
    probability ``swap_rate``, a different uniformly drawn class. Detections of
    a frame come in a random order. Returns (detections, ground-truth label per
    detection, ground truth as frame_id -> [(class_id, box)]).
    """
    rng = _rng(seed, 2)
    n_classes = template.n_classes
    boxes = wall_boxes(template)
    dets, gt_labels, gt = [], [], {}
    for f in range(n_frames):
        fid = f"wall_{f:03d}"
        gt[fid] = list(enumerate(boxes))
        frame_dets = []
        for cls, box in enumerate(boxes):
            for _ in range(copies):
                label = cls
                if rng.random() < swap_rate:
                    label = int(rng.integers(0, n_classes - 1))
                    label += label >= cls
                det = (fid, label, _jitter(box, rng, sigma), float(rng.uniform(0.05, 1.0)))
                frame_dets.append((cls, det))
        for j in rng.permutation(len(frame_dets)):
            cls, det = frame_dets[j]
            dets.append(det)
            gt_labels.append(cls)
    return dets, gt_labels, gt


def write_detections_jsonl(path, dets) -> None:
    with open(path, "w") as f:
        for fid, cls, box, conf in dets:
            row = {"frame_id": fid, "class_id": cls, "bbox": list(box), "confidence": conf}
            f.write(json.dumps(row) + "\n")


def read_detections_jsonl(path) -> list[tuple]:
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return [(r["frame_id"], r["class_id"], tuple(r["bbox"]), r["confidence"]) for r in rows]


def write_frames_jsonl(path, n_classes: int, gt) -> None:
    with open(path, "w") as f:
        f.write(json.dumps({"n_classes": n_classes, "format_version": 1}) + "\n")
        for fid, objects in gt.items():
            objs = [{"class_id": cls, "bbox": list(box)} for cls, box in objects]
            f.write(json.dumps({"frame_id": fid, "objects": objs}) + "\n")
