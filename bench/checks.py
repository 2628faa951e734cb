"""Output checks computed apart from the program under test.

Every check returns a list of messages, empty when the output passes. None of
them compares with a stored copy of an earlier output: each recomputes the
answer from the inputs (mAP@50, k-NN edges) or tests a property the method
must have (geometry untouched, input order kept, labels changed only where the
validity score is below the threshold).
"""

from __future__ import annotations

import math
from collections import defaultdict

MAP_TOL = 1e-12
GEOMETRY_TOL = 1e-12
SCORE_TOL = 1e-9


# ---------------------------------------------------------------------------
# mAP@50, written from its definition


def _iou(a, b) -> float:
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(0.0, ix) * max(0.0, iy)
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union if union > 0.0 else 0.0


def mean_ap50(dets, gt) -> float:
    """VOC-style all-point mAP at IoU >= 0.5.

    ``dets`` is a list of (frame_id, class_id, box, confidence) with box a
    4-tuple; ``gt`` maps frame_id to a list of (class_id, box). Detections rank
    by descending confidence, then frame_id, then input order; each is matched
    to the unmatched same-class ground-truth box of highest IoU in its frame.
    The mean runs over the classes present in the ground truth.
    """
    gt_boxes: dict[tuple[str, int], list] = defaultdict(list)
    for fid, objects in gt.items():
        for cls, box in objects:
            gt_boxes[(fid, cls)].append(box)
    classes = sorted({cls for (_, cls) in gt_boxes})
    ranked = sorted(
        (-conf, fid, order, cls, box)
        for order, (fid, cls, box, conf) in enumerate(dets)
    )
    aps = []
    for cls in classes:
        n_gt = sum(len(v) for (f, c), v in gt_boxes.items() if c == cls)
        used: set[tuple[str, int]] = set()
        hits = []
        for _, fid, _, c, box in ranked:
            if c != cls:
                continue
            best, best_j = 0.0, -1
            for j, g in enumerate(gt_boxes.get((fid, cls), ())):
                if (fid, j) in used:
                    continue
                v = _iou(box, g)
                if v >= 0.5 and v > best:
                    best, best_j = v, j
            if best_j >= 0:
                used.add((fid, best_j))
            hits.append(best_j >= 0)
        # precision at each rank, made non-increasing from the right
        tp = 0
        recall, precision = [], []
        for i, hit in enumerate(hits, start=1):
            tp += hit
            recall.append(tp / n_gt)
            precision.append(tp / i)
        for i in range(len(precision) - 2, -1, -1):
            precision[i] = max(precision[i], precision[i + 1])
        ap, prev_r = 0.0, 0.0
        for r, p in zip(recall, precision):
            if r != prev_r:
                ap += (r - prev_r) * p
                prev_r = r
        aps.append(ap)
    return sum(aps) / len(aps) if aps else 0.0


def check_map(name: str, reported: float, dets, gt) -> list[str]:
    expected = mean_ap50(dets, gt)
    if not abs(reported - expected) <= MAP_TOL:
        return [f"{name}: program reports mAP@50 {reported!r}, recomputed {expected!r}"]
    return []


# ---------------------------------------------------------------------------
# graph construction


def knn_edge_list(boxes, k) -> list[tuple[int, int]]:
    """Brute-force k-NN over box centers: nearest first, lower index on ties,
    union with the reverse edges, sorted. ``k == "all"`` keeps every pair."""
    n = len(boxes)
    centers = [((b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0) for b in boxes]
    kk = n - 1 if k == "all" else min(int(k), n - 1)
    edges = set()
    for i, (xi, yi) in enumerate(centers):
        by_distance = sorted(
            (math.sqrt((xi - xj) ** 2 + (yi - yj) ** 2), j)
            for j, (xj, yj) in enumerate(centers) if j != i
        )
        for _, j in by_distance[:kk]:
            edges.add((i, j))
            edges.add((j, i))
    return sorted(edges)


def check_graph(name: str, graph, boxes, k, pairwise_geometry, bbox_objects) -> list[str]:
    """Edges equal the brute-force k-NN list; edge features equal the scalar
    geometry of each pair within GEOMETRY_TOL."""
    expected = knn_edge_list(boxes, k)
    got = [tuple(int(v) for v in e) for e in graph.edges]
    if got != expected:
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        return [
            f"{name}: {len(got)} edges, brute force gives {len(expected)} "
            f"(missing {missing}, extra {extra}, or order differs)"
        ]
    for row, (i, j) in zip(graph.edge_features, got):
        want = pairwise_geometry(bbox_objects[i], bbox_objects[j]).as_tuple()
        if any(not abs(a - b) <= GEOMETRY_TOL for a, b in zip(row, want)):
            return [f"{name}: edge ({i}, {j}) features {list(row)} != scalar {list(want)}"]
    return []


# ---------------------------------------------------------------------------
# correction invariants


def check_passthrough(name: str, before, after) -> list[str]:
    """Same detections in the same order with bit-identical boxes and
    confidences; each a (frame_id, class_id, box, confidence) tuple."""
    if len(before) != len(after):
        return [f"{name}: {len(before)} detections in, {len(after)} out"]
    for i, (b, a) in enumerate(zip(before, after)):
        if b[0] != a[0] or tuple(b[2]) != tuple(a[2]) or b[3] != a[3]:
            return [f"{name}: detection {i} changed frame, box or confidence: {b} -> {a}"]
    return []


def check_relabel_rule(name: str, before, after, scores, tau: float) -> list[str]:
    """A label may change only where the validity score is below tau."""
    for i, (b, a, s) in enumerate(zip(before, after, scores)):
        if a[1] != b[1] and not s < tau:
            return [f"{name}: detection {i} relabelled {b[1]}->{a[1]} with score {s} >= {tau}"]
    return []


def scores_in_input_order(dets, records) -> list[float]:
    """Validity score per detection, from correction records keyed by
    (frame_id, node_index); node_index counts within a frame in input order."""
    slots: dict[str, list[int]] = defaultdict(list)
    for i, d in enumerate(dets):
        slots[d[0]].append(i)
    scores = [math.nan] * len(dets)
    for r in records:
        scores[slots[r["frame_id"]][r["node_index"]]] = r["validity_score"]
    return scores


def check_same_correction(name: str, labels_a, scores_a, labels_b, scores_b) -> list[str]:
    """Identical labels and validity scores within SCORE_TOL."""
    if list(labels_a) != list(labels_b):
        return [f"{name}: labels differ: {list(labels_a)} vs {list(labels_b)}"]
    for sa, sb in zip(scores_a, scores_b):
        if not abs(sa - sb) <= SCORE_TOL:
            return [f"{name}: validity scores differ: {sa} vs {sb}"]
    return []


# ---------------------------------------------------------------------------
# quality of a correction against the generator's ground truth


def flag_accuracy(gt_labels, in_labels, scores, tau: float) -> float:
    """Share of detections flagged (score below tau) exactly when their input
    label differs from the ground truth."""
    hits = sum((s < tau) == (g != x) for g, x, s in zip(gt_labels, in_labels, scores))
    return hits / len(scores)


def weighted_f1(gt_labels, pred_labels) -> float:
    """Per-class F1 of predicted against ground-truth labels, averaged with
    each class weighted by its ground-truth support."""
    support: dict[int, int] = defaultdict(int)
    predicted: dict[int, int] = defaultdict(int)
    correct: dict[int, int] = defaultdict(int)
    for g, p in zip(gt_labels, pred_labels):
        support[g] += 1
        predicted[p] += 1
        correct[g] += g == p
    total = 0.0
    for cls, n in support.items():
        precision = correct[cls] / predicted[cls] if predicted[cls] else 0.0
        recall = correct[cls] / n
        if precision + recall:
            total += n * 2 * precision * recall / (precision + recall)
    return total / len(gt_labels)
