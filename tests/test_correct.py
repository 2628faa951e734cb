"""Detection post-processing: flagging, label replacement, box preservation."""

from __future__ import annotations

import struct
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scenegnn.correct as correct_module
from scenegnn import nn
from scenegnn.correct import correct_detections, simulate_detector
from scenegnn.geometry import BoundingBox
from scenegnn.metrics import Detection
from scenegnn.model import ModelConfig, ModelParams, init_model, predict
from scenegnn.nn import param_items
from scenegnn.scenegraph import ALL_NEIGHBORS, Frame, SceneObject, build_graph
from scenegnn.synth import gen_template, render_views
from scenegnn.train import build_dataset, train


def _zero_model(config: ModelConfig) -> ModelParams:
    params = init_model(config, np.random.default_rng(0))
    for _, tensor in param_items(params):
        tensor[...] = 0.0
    return params


def _detections(seed: int = 0, n_frames: int = 3, per_frame: int = 4) -> list[Detection]:
    rng = np.random.default_rng(seed)
    dets = []
    for i in range(n_frames):
        for _ in range(per_frame):
            cx, cy = rng.uniform(0.2, 0.8, size=2)
            w, h = rng.uniform(0.02, 0.08, size=2)
            dets.append(
                Detection(
                    frame_id=f"f{i}",
                    class_id=int(rng.integers(0, 6)),
                    bbox=BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                    confidence=float(rng.uniform(0.5, 1.0)),
                )
            )
    return dets


class TestCorrectDetections:
    def test_all_valid_model_is_passthrough(self):
        # zero weights -> validity prob 0.5, not below the 0.5 threshold
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = _zero_model(config)
        dets = _detections()
        out, records = correct_detections(dets, params, config)
        assert [d.class_id for d in out] == [d.class_id for d in dets]
        assert not any(r.applied for r in records)

    def test_boxes_and_confidences_bit_identical(self):
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(config, np.random.default_rng(1))
        dets = _detections(seed=2)
        out, _ = correct_detections(dets, params, config)
        for before, after in zip(dets, out):
            assert after.bbox == before.bbox
            assert after.confidence == before.confidence
            assert after.frame_id == before.frame_id

    def test_order_preserved_with_interleaved_frames(self):
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(config, np.random.default_rng(1))
        dets = _detections(seed=3)
        interleaved = dets[::2] + dets[1::2]
        out, _ = correct_detections(interleaved, params, config)
        for before, after in zip(interleaved, out):
            assert after.frame_id == before.frame_id
            assert after.bbox == before.bbox

    def test_record_order_with_interleaved_and_single_frames(self):
        # enough frames to span several prediction chunks; records come per
        # frame in order of first appearance, passthrough frames in place
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(config, np.random.default_rng(1))
        multi = _detections(seed=9, n_frames=12, per_frame=9)
        dets = multi[::3] + multi[1::3] + multi[2::3]
        for i, pos in enumerate((0, 20, len(dets))):
            dets.insert(pos, Detection(f"solo{i}", 2, BoundingBox(0.1, 0.1, 0.2, 0.2), 0.8))

        frame_order = list(dict.fromkeys(d.frame_id for d in dets))
        per_frame = {fid: [d for d in dets if d.frame_id == fid] for fid in frame_order}
        out, records = correct_detections(dets, params, config)
        assert [(r.frame_id, r.node_index) for r in records] == [
            (fid, i) for fid in frame_order for i in range(len(per_frame[fid]))
        ]

        alone = {fid: correct_detections(per_frame[fid], params, config) for fid in frame_order}
        for r in records:
            ref = alone[r.frame_id][1][r.node_index]
            assert (r.original_class, r.corrected_class, r.applied, r.note) == (
                ref.original_class, ref.corrected_class, ref.applied, ref.note,
            )
            assert abs(r.validity_score - ref.validity_score) <= 1e-12
        slot = {fid: iter(alone[fid][0]) for fid in frame_order}
        assert out == [next(slot[d.frame_id]) for d in dets]

    def test_one_predict_call_draws_graphs_as_it_runs(self, monkeypatch):
        # 40 frames of 9 detections span several chunks of predict; the
        # graphs are built as predict draws them, one call for all frames
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(config, np.random.default_rng(1))
        dets = _detections(seed=4, n_frames=40, per_frame=9)
        dets.insert(9, Detection("solo", 2, BoundingBox(0.1, 0.1, 0.2, 0.2), 0.8))
        built, calls, ahead, predicts = [], [], [], []
        build_graph, full_forward = correct_module.build_graph, nn.full_forward

        def build(*args):
            built.append(build_graph(*args))
            return built[-1]

        def forward(params, batch):
            ahead.append(len(built) - sum(calls) - batch.adj.shape[0])
            calls.append(batch.adj.shape[0])
            return full_forward(params, batch)

        monkeypatch.setattr(correct_module, "build_graph", build)
        monkeypatch.setattr(nn, "full_forward", forward)
        monkeypatch.setattr(
            correct_module, "predict", lambda *a: predicts.append(a) or predict(*a)
        )
        out, records = correct_detections(dets, params, config)
        assert len(predicts) == 1 and len(built) == sum(calls) == 40
        assert len(calls) > 1 and max(ahead) <= 1
        assert len(out) == len(records) == len(dets)

    def test_single_detection_frame_passthrough(self):
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(config, np.random.default_rng(1))
        solo = Detection("only", 3, BoundingBox(0.1, 0.1, 0.2, 0.2), 0.9)
        out, records = correct_detections([solo], params, config)
        assert out[0] == solo
        assert records[0].note == "single-detection frame, passthrough"
        assert not records[0].applied
        # overrides are checked even when no graph is built
        with pytest.raises(ValueError, match="k must be >= 1"):
            correct_detections([solo], params, config, k=0)
        with pytest.raises(ValueError, match="tau must be in"):
            correct_detections([solo], params, config, tau=-0.5)

    def test_record_counts_match_detections(self):
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(config, np.random.default_rng(1))
        dets = _detections(seed=4)
        out, records = correct_detections(dets, params, config)
        assert len(out) == len(dets)
        assert len(records) == len(dets)
        applied = sum(r.applied for r in records)
        changed = sum(a.class_id != b.class_id for a, b in zip(out, dets))
        assert applied == changed

    def test_tau_one_flags_everything(self):
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = _zero_model(config)
        dets = _detections(seed=5)
        out, records = correct_detections(dets, params, config, tau=1.0)
        # zero model: every label head argmax is class 0
        assert all(d.class_id == 0 for d in out)

    def test_end_to_end_recovers_corrupted_labels(self):
        # train a small model on grid-like frames, then fix a corrupted copy
        rng = np.random.default_rng(0)
        anchors = [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8), (0.5, 0.5)]
        frames = []
        for i in range(60):
            objs = []
            for label, (cx, cy) in enumerate(anchors):
                dx, dy = rng.normal(0, 0.01, size=2)
                w = h = 0.08
                objs.append(
                    SceneObject(
                        label,
                        BoundingBox(
                            cx + dx - w / 2, cy + dy - h / 2, cx + dx + w / 2, cy + dy + h / 2
                        ),
                    )
                )
            frames.append(Frame(f"t{i}", tuple(objs)))
        config = ModelConfig(n_classes=5, hidden_dim=32, k=3, rho=1, epochs=60, seed=0)
        graphs = build_dataset(frames, config, seed=0)
        params, _, _ = train(graphs, config)

        holdout = [Frame(f"h{i}", frames[i].objects) for i in range(50, 60)]
        dets = simulate_detector(holdout, n_classes=5, rho_det=1, sigma_det=0.0, seed=9)
        gt_labels = {
            (f.frame_id, i): o.label_id for f in holdout for i, o in enumerate(f.objects)
        }
        wrong_before = sum(
            d.class_id != gt_labels[(d.frame_id, i % 5)]
            for i, d in enumerate(dets)
        )
        out, _ = correct_detections(dets, params, config)
        wrong_after = sum(
            d.class_id != gt_labels[(d.frame_id, i % 5)]
            for i, d in enumerate(out)
        )
        assert wrong_before == 10  # rho=1 per frame, 10 frames
        assert wrong_after <= 3

    def test_idempotent_on_already_corrected_output(self):
        config = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(config, np.random.default_rng(7))
        dets = _detections(seed=8, n_frames=10)
        once, _ = correct_detections(dets, params, config)
        twice, _ = correct_detections(once, params, config)
        same = sum(a.class_id == b.class_id for a, b in zip(once, twice))
        assert same / len(once) >= 0.95


# Dyadic grid: centres coincide exactly and widths reach zero.
GRID = [0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
N_CLASSES = 6


@st.composite
def detection_lists(draw):
    """Detections of 1-5 frames, shuffled so that frames (single-detection
    ones too) interleave: zero-area boxes, coincident centres, exact and
    near-duplicates, and frames of a single class."""
    coord = st.sampled_from(GRID) | st.floats(0, 1)
    dets = []
    for f in range(draw(st.integers(1, 5))):
        single = draw(st.none() | st.integers(0, N_CLASSES - 1))
        boxes = []
        for _ in range(draw(st.integers(1, 9))):
            if boxes and draw(st.booleans()):
                b = draw(st.sampled_from(boxes))
                nudge = draw(st.sampled_from([0.0, 1e-12, 1e-6]))
                box = BoundingBox(b.x_min, b.y_min, min(1.0, b.x_max + nudge), b.y_max)
            else:
                x0, x1 = sorted((draw(coord), draw(coord)))
                y0, y1 = sorted((draw(coord), draw(coord)))
                box = BoundingBox(x0, y0, x1, y1)
            boxes.append(box)
            label = draw(st.integers(0, N_CLASSES - 1)) if single is None else single
            dets.append(Detection(f"f{f}", label, box, draw(st.floats(0, 1))))
    return [dets[i] for i in draw(st.permutations(range(len(dets))))]


def _bits(det):
    return struct.pack("<5d", *astuple(det.bbox), det.confidence)


class TestCorrectionProperties:
    PARAMS = init_model(ModelConfig(n_classes=N_CLASSES, hidden_dim=8), np.random.default_rng(2))

    @given(
        dets=detection_lists(),
        k=st.sampled_from([1, 3, ALL_NEIGHBORS]),
        tau=st.sampled_from([0.0, 0.45, 0.5, 0.55, 1.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_only_class_changes_and_only_below_tau(self, dets, k, tau):
        config = ModelConfig(n_classes=N_CLASSES, hidden_dim=8)
        out, records = correct_detections(dets, self.PARAMS, config, k=k, tau=tau)
        assert len(out) == len(dets) and len(records) == len(dets)
        for before, after in zip(dets, out):
            assert (after.frame_id, _bits(after)) == (before.frame_id, _bits(before))
        # records come per frame in order of first appearance, one per detection
        positions = {}
        for i, d in enumerate(dets):
            positions.setdefault(d.frame_id, []).append(i)
        assert [(r.frame_id, r.node_index) for r in records] == [
            (fid, n) for fid, idx in positions.items() for n in range(len(idx))
        ]
        for r in records:
            i = positions[r.frame_id][r.node_index]
            assert r.original_class == dets[i].class_id
            assert out[i].class_id == r.corrected_class
            assert r.applied == (r.corrected_class != r.original_class)
            if r.applied:
                assert r.validity_score < tau


class TestMemoryBudget:
    # Traced peak of correcting one dense frame, per directed edge, against
    # the 56 B/edge that the finished graph holds (edges and edge features).
    BYTES_PER_EDGE = 150
    # Traced bytes that rendered views hold per object: boxes and labels
    # (40 B) plus each frame's arrays, id and object.
    BYTES_PER_OBJECT = 160
    # Traced bytes that build_dataset's store holds per graph at desk shapes
    # (about 9 nodes and 52 edges): node rows of boxes, labels, targets,
    # degree and edge means, and one neighbour index per edge, about 1.18 KB.
    # A list of slotted graphs held about 1.65 KB, and it peaked at about
    # 1.68 KB while it was built; the store peaks at about 1.53 KB, while its
    # neighbour lists wait for their one concatenation. A graph that also
    # held its node features and a __dict__ would hold about 2.2 KB, and one
    # that held its raw E x 6 edge geometry too about 4.4 KB.
    BYTES_PER_GRAPH = 1300
    PEAK_BYTES_PER_GRAPH = 1620
    # Traced bytes of one Detection with its BoundingBox and their five
    # floats: 248 B when both are slotted, about 288 B when either has a
    # __dict__ and 328 B when both have.
    BYTES_PER_DETECTION = 270

    def test_dense_frame_peak_per_edge(self):
        config = ModelConfig(n_classes=39, k=ALL_NEIGHBORS)
        params = init_model(config, np.random.default_rng(0))
        n = 150
        dets = _detections(seed=11, n_frames=1, per_frame=n)
        correct_detections(dets[:3], params, config)  # first-call allocations
        tracemalloc.start()
        try:
            out, _ = correct_detections(dets, params, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == n
        assert peak / (n * (n - 1)) < self.BYTES_PER_EDGE

    def test_rendered_views_bytes_per_object(self):
        template = gen_template(39, 0)
        render_views(template, 3, seed=1)  # first-call allocations
        tracemalloc.start()
        try:
            frames = render_views(template, 500, dropout_prob=0.05, seed=2)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_objects = sum(len(f.objects) for f in frames)
        assert n_objects > 4000
        assert held / n_objects < self.BYTES_PER_OBJECT

    def test_training_graphs_bytes_per_graph(self):
        frames = render_views(gen_template(39, 0), 300, dropout_prob=0.05, seed=2)
        config = ModelConfig(n_classes=39, k=5, rho=3)
        build_dataset(frames[:3], config, 0)  # first-call allocations
        tracemalloc.start()
        try:
            graphs = build_dataset(frames, config, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(graphs) == 600 and sum(g.n_edges for g in graphs) > 40 * len(graphs)
        assert held / len(graphs) < self.BYTES_PER_GRAPH
        assert peak / len(graphs) < self.PEAK_BYTES_PER_GRAPH

    def test_graphs_and_detections_have_no_instance_dict(self):
        frame = Frame("f", (SceneObject(1, BoundingBox(0.1, 0.1, 0.2, 0.2)),))
        graph = build_graph(frame, 5, 3)
        det = Detection("f", 1, frame.objects[0].bbox, 0.9)
        for obj in (graph, det, det.bbox):
            assert not hasattr(obj, "__dict__"), type(obj).__name__

    def test_detection_bytes(self):
        rng = np.random.default_rng(3)
        n = 2000
        low = rng.uniform(0.0, 0.5, (n, 2))
        boxes = np.hstack([low, low + rng.uniform(0.01, 0.4, (n, 2))])
        confidences = rng.uniform(0.5, 1.0, n)
        dets = [None] * n
        Detection("f", 3, BoundingBox(*boxes[0].tolist()), float(confidences[0]))  # first-call allocations
        tracemalloc.start()
        try:
            for i in range(n):
                # new floats for each detection, as parsing a file makes them
                dets[i] = Detection("f", 3, BoundingBox(*boxes[i].tolist()), float(confidences[i]))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held / n < self.BYTES_PER_DETECTION


class TestSimulateDetector:
    def test_confidence_range_and_count(self):
        frames = [
            Frame(
                "a",
                tuple(
                    SceneObject(i, BoundingBox(0.1 * i, 0.1, 0.1 * i + 0.05, 0.2))
                    for i in range(1, 5)
                ),
            )
        ]
        dets = simulate_detector(frames, n_classes=6, rho_det=2, sigma_det=0.0, seed=0)
        assert len(dets) == 4
        assert all(0.5 <= d.confidence < 1.0 for d in dets)

    def test_sigma_zero_preserves_boxes(self):
        frames = [
            Frame(
                "a",
                tuple(
                    SceneObject(i, BoundingBox(0.1 * i, 0.1, 0.1 * i + 0.05, 0.2))
                    for i in range(1, 5)
                ),
            )
        ]
        dets = simulate_detector(frames, n_classes=6, rho_det=2, sigma_det=0.0, seed=0)
        for det, obj in zip(dets, frames[0].objects):
            assert det.bbox == obj.bbox

    def test_deterministic(self):
        frames = [
            Frame(
                "a",
                tuple(
                    SceneObject(i, BoundingBox(0.1 * i, 0.1, 0.1 * i + 0.05, 0.2))
                    for i in range(1, 5)
                ),
            )
        ]
        a = simulate_detector(frames, n_classes=6, seed=3)
        b = simulate_detector(frames, n_classes=6, seed=3)
        assert a == b
