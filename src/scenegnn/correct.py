"""Post-processing of detector outputs: flag invalid labels, emit corrections."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .corrupt import CorruptionConfig, corrupt_frame, derive_seed
from .geometry import BoundingBox
from .metrics import Detection
from .model import ModelConfig, ModelParams, predict
from .scenegraph import Frame, build_graph, check_k


@dataclass(slots=True)
class CorrectionRecord:
    frame_id: str
    node_index: int
    original_class: int
    corrected_class: int
    validity_score: float
    applied: bool
    note: str = ""


def resolve_tau(config: ModelConfig, tau: float | None = None) -> float:
    """The validity threshold below which a detection is flagged: ``tau``, or
    the model's own when it is None."""
    tau = config.validity_threshold if tau is None else tau
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return tau


def correct_detections(
    detections: list[Detection],
    params: ModelParams,
    config: ModelConfig,
    k: int | str | None = None,
    tau: float | None = None,
) -> tuple[list[Detection], list[CorrectionRecord]]:
    """Replace the class of invalid-flagged detections with the label head's
    argmax; boxes and confidences pass through untouched.

    Single-detection frames pass through unchanged (degenerate graph). The
    other frames' graphs are built as predict draws them, so graphs and
    network activations are held for one chunk at a time.
    """
    k = config.k if k is None else check_k(k)
    tau = resolve_tau(config, tau)

    by_frame: dict[str, list[int]] = defaultdict(list)
    for idx, det in enumerate(detections):
        by_frame[det.frame_id].append(idx)
    multi = [(frame_id, idxs) for frame_id, idxs in by_frame.items() if len(idxs) > 1]
    predicted = iter(())
    if multi:
        graphs = (
            build_graph(
                Frame.from_arrays(
                    frame_id,
                    [detections[i].bbox.corners for i in idxs],
                    [detections[i].class_id for i in idxs],
                ),
                k,
                config.n_classes,
            )
            for frame_id, idxs in multi
        )
        pred = predict(graphs, params, config)
        predicted = zip(pred.validity_prob.tolist(), pred.corrected_label.tolist())

    corrected = list(detections)
    records: list[CorrectionRecord] = []
    for frame_id, idxs in by_frame.items():
        passthrough = len(idxs) == 1
        for node_index, idx in enumerate(idxs):
            det = detections[idx]
            out_class, score = det.class_id, 1.0
            if not passthrough:
                score, label = next(predicted)
                out_class = label if score < tau else det.class_id
            applied = out_class != det.class_id
            if applied:
                corrected[idx] = replace(det, class_id=out_class)
            records.append(
                CorrectionRecord(
                    frame_id=frame_id,
                    node_index=node_index,
                    original_class=det.class_id,
                    corrected_class=out_class,
                    validity_score=score,
                    applied=applied,
                    note="single-detection frame, passthrough" if passthrough else "",
                )
            )
    return corrected, records


def simulate_detector(
    frames: list[Frame],
    n_classes: int,
    rho_det: int = 3,
    sigma_det: float = 0.01,
    seed: int = 0,
) -> list[Detection]:
    """Detector-error stand-in: corrupt ground-truth frames and attach
    Uniform(0.5, 1) confidences."""
    cc = CorruptionConfig(rho=rho_det, jitter_sigma=sigma_det, seed=seed)
    detections: list[Detection] = []
    for frame in frames:
        noisy = corrupt_frame(frame, cc, n_classes)
        conf_rng = np.random.default_rng(
            derive_seed(seed, f"detconf/{frame.frame_id}")
        )
        for label, box in zip(noisy.labels.tolist(), noisy.boxes.tolist()):
            detections.append(
                Detection(
                    frame_id=frame.frame_id,
                    class_id=label,
                    bbox=BoundingBox(*box),
                    confidence=float(conf_rng.uniform(0.5, 1.0)),
                )
            )
    return detections
