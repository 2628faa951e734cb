"""Dataset splitting and the training loop."""

from __future__ import annotations

import numpy as np
import pytest

from scenegnn import nn
from scenegnn.corrupt import CorruptionConfig, corrupt_frame, derive_seed
from scenegnn.geometry import BoundingBox
from scenegnn.metrics import evaluate_graphs
from scenegnn.model import (
    PREDICT_CHUNK_NODES, ConfigMismatchError, ModelConfig, init_model, predict,
)
from scenegnn.scenegraph import ALL_NEIGHBORS, Frame, SceneObject, box_features, build_graph
from scenegnn.train import build_dataset, split_dataset, train


def _frames(n: int, objects_per_frame: int = 4, seed: int = 0) -> list[Frame]:
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(n):
        objs = []
        for _ in range(objects_per_frame):
            cx, cy = rng.uniform(0.15, 0.85, size=2)
            w, h = rng.uniform(0.02, 0.1, size=2)
            objs.append(
                SceneObject(
                    label_id=int(rng.integers(0, 6)),
                    bbox=BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2),
                )
            )
        frames.append(Frame(f"f{i:04d}", tuple(objs)))
    return frames


class TestSplitDataset:
    def test_ratios_100(self):
        frames = _frames(100)
        tr, va, te = split_dataset(frames, seed=0)
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_ratios_10_remainder_to_test(self):
        frames = _frames(10)
        tr, va, te = split_dataset(frames, seed=0)
        assert (len(tr), len(va), len(te)) == (7, 1, 2)

    def test_partition_no_overlap(self):
        frames = _frames(23)
        tr, va, te = split_dataset(frames, seed=5)
        ids = [f.frame_id for part in (tr, va, te) for f in part]
        assert sorted(ids) == sorted(f.frame_id for f in frames)
        assert len(set(ids)) == len(frames)

    def test_deterministic_and_seed_sensitive(self):
        frames = _frames(40)
        a = split_dataset(frames, seed=1)
        b = split_dataset(frames, seed=1)
        c = split_dataset(frames, seed=2)
        assert [f.frame_id for f in a[0]] == [f.frame_id for f in b[0]]
        assert [f.frame_id for f in a[0]] != [f.frame_id for f in c[0]]

    def test_too_few_frames_rejected(self):
        with pytest.raises(ValueError):
            split_dataset(_frames(2), seed=0)


class TestBuildDataset:
    def test_one_to_one_clean_corrupted(self):
        frames = _frames(6)
        cfg = ModelConfig(n_classes=6, rho=1)
        graphs = build_dataset(frames, cfg, seed=0)
        assert len(graphs) == 12
        clean, corrupted = graphs[0::2], graphs[1::2]
        for g in clean:
            assert g.validity.all()
        # rho=1 corrupts exactly one node per frame
        for g in corrupted:
            assert int((~g.validity).sum()) == 1

    def test_corrupted_twin_keeps_original_labels(self):
        frames = _frames(4)
        cfg = ModelConfig(n_classes=6, rho=1)
        graphs = build_dataset(frames, cfg, seed=3)
        for clean, bad in zip(graphs[0::2], graphs[1::2]):
            np.testing.assert_array_equal(bad.original_labels, clean.current_labels)
            changed = bad.current_labels != bad.original_labels
            np.testing.assert_array_equal(changed, ~bad.validity)


    def test_store_rows_are_the_frames_arrays(self):
        frames = _frames(4)
        store = build_dataset(frames, ModelConfig(n_classes=6, rho=1), seed=3)
        rows = [slice(a, b) for a, b in zip(store.node_start[:-1], store.node_start[1:])]
        for frame, clean, bad in zip(frames, rows[0::2], rows[1::2]):
            for name, values in (("boxes", frame.boxes), ("current_labels", frame.labels),
                                 ("original_labels", frame.labels)):
                assert getattr(store, name)[clean].tobytes() == values.tobytes(), name
            assert store.original_labels[bad].tobytes() == frame.labels.tobytes()
            assert store.validity[clean].all()

    @pytest.mark.parametrize("k", [5, ALL_NEIGHBORS])
    def test_views_are_the_graphs_of_their_frames_bit_for_bit(self, k):
        single = Frame.from_arrays("single", [[0.2, 0.2, 0.4, 0.5]], [3])
        frames = _frames(5, objects_per_frame=8)
        frames.insert(2, single)
        store = build_dataset(frames, ModelConfig(n_classes=6, k=k, rho=2), seed=3)
        cc = CorruptionConfig(rho=2, seed=3)
        expected = []
        for f in frames:
            expected.append(build_graph(Frame.from_arrays(f.frame_id, f.boxes, f.labels), k, 6))
            expected.append(build_graph(corrupt_frame(f, cc, 6), k, 6))
        views = list(store)
        assert len(store) == len(views) == len(expected) == 12
        assert expected[4].n_edges == 0 and expected[4].n_nodes == 1
        for view, graph in zip(views, expected):
            assert view.n_classes == 6
            for name in ("edges", "edge_mean", "boxes", "current_labels", "validity", "original_labels"):
                got, want = getattr(view, name), getattr(graph, name)
                assert (got.dtype, got.shape) == (want.dtype, want.shape), name
                assert got.tobytes() == want.tobytes(), name
                assert not got.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            views[0].boxes[0, 0] = 0.5
        # an index, a negative index and a slice give the views iteration gives
        assert store[-1].edges.tobytes() == views[-1].edges.tobytes()
        assert [v.edge_mean.tobytes() for v in store[3:7]] == [
            v.edge_mean.tobytes() for v in views[3:7]
        ]
        with pytest.raises(IndexError):
            store[len(store)]

    def test_a_frames_annotation_is_not_read(self):
        frames = _frames(4)
        annotated = [
            Frame.from_arrays(
                f.frame_id, f.boxes, f.labels, np.zeros(len(f.labels), bool), (f.labels + 1) % 6
            )
            for f in frames
        ]
        cfg = ModelConfig(n_classes=6, rho=1)
        for a, b in zip(build_dataset(frames, cfg, seed=3), build_dataset(annotated, cfg, seed=3)):
            for name in ("edges", "edge_mean", "boxes", "validity", "original_labels", "current_labels"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


class TestTrain:
    def _small_config(self, **kw) -> ModelConfig:
        base = dict(
            n_classes=6, hidden_dim=8, k=3, rho=1, epochs=2, batch_size=8, seed=0
        )
        base.update(kw)
        return ModelConfig(**base)

    def test_a_store_and_the_list_of_its_views_give_the_same_bits(self):
        # the validation store spans two of predict's chunks
        cfg = self._small_config()
        store = build_dataset(_frames(12), cfg, seed=0)
        val = build_dataset(_frames(40, seed=9), cfg, seed=1)
        assert val.node_start[-1] > PREDICT_CHUNK_NODES
        final, best, history = train(store, cfg, val)
        as_list = train(list(store), cfg, list(val))
        for params, other in zip((final, best), as_list[:2]):
            for (name, a), (_, b) in zip(nn.param_items(params), nn.param_items(other)):
                assert a.tobytes() == b.tobytes(), name
        assert history.to_jsonable() == as_list[2].to_jsonable()
        a, b = predict(val, best, cfg), predict(list(val), best, cfg)
        for name in ("is_invalid", "corrected_label", "confidence", "validity_prob"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        report = evaluate_graphs(val, best, cfg).to_jsonable()
        assert report == evaluate_graphs(list(val), best, cfg).to_jsonable()

    def test_training_packs_nothing_and_validates_from_one_store(self, monkeypatch):
        cfg = self._small_config()
        store = build_dataset(_frames(12), cfg, seed=0)
        val = build_dataset(_frames(40, seed=9), cfg, seed=1)
        packs, sources = [], []
        pack, make_batch = nn.PackedGraphs.__init__, nn.make_batch

        def counting_pack(self, *args):
            packs.append(args)
            pack(self, *args)

        def recording_make_batch(graphs, ids=None):
            sources.append(graphs)
            return make_batch(graphs, ids)

        monkeypatch.setattr(nn.PackedGraphs, "__init__", counting_pack)
        monkeypatch.setattr(nn, "make_batch", recording_make_batch)
        train(store, cfg, val)
        assert packs == []
        assert all(s is store or s is val for s in sources)
        assert sum(s is val for s in sources) >= 2 * cfg.epochs

    def test_zero_lr_is_a_no_op(self):
        cfg = self._small_config(lr=0.0)
        graphs = build_dataset(_frames(8), cfg, seed=0)
        init = init_model(cfg, np.random.default_rng(derive_seed(cfg.seed, "init")))
        final, best, history = train(graphs, cfg)
        for field, tensor in nn.param_items(final):
            np.testing.assert_array_equal(tensor, dict(nn.param_items(init))[field])
        # constant parameters -> constant loss across epochs
        assert history.epochs[0].total_loss == pytest.approx(
            history.epochs[-1].total_loss, abs=1e-12
        )

    def test_loss_decreases_over_epochs(self):
        cfg = self._small_config(epochs=5)
        graphs = build_dataset(_frames(30), cfg, seed=0)
        _, _, history = train(graphs, cfg)
        assert history.epochs[-1].total_loss < history.epochs[0].total_loss

    def test_deterministic(self):
        cfg = self._small_config()
        graphs = build_dataset(_frames(12), cfg, seed=0)
        a, _, ha = train(graphs, cfg)
        b, _, hb = train(graphs, cfg)
        for (fa, ta), (fb, tb) in zip(nn.param_items(a), nn.param_items(b)):
            assert fa == fb
            np.testing.assert_array_equal(ta, tb)
        assert [e.total_loss for e in ha.epochs] == [e.total_loss for e in hb.epochs]

    def test_best_params_tracked_by_validation(self):
        cfg = self._small_config(epochs=3)
        train_graphs = build_dataset(_frames(20), cfg, seed=0)
        val_graphs = build_dataset(_frames(6, seed=99), cfg, seed=1)
        final, best, history = train(train_graphs, cfg, val_graphs)
        assert len(history.epochs) == 3
        assert all(np.isfinite(e.val_validity_accuracy) for e in history.epochs)

    def test_without_validation_best_is_final(self):
        cfg = self._small_config()
        graphs = build_dataset(_frames(10), cfg, seed=0)
        final, best, _ = train(graphs, cfg)
        for (_, ta), (_, tb) in zip(nn.param_items(final), nn.param_items(best)):
            np.testing.assert_array_equal(ta, tb)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train([], self._small_config())

    def test_graphs_of_another_class_count_rejected(self):
        cfg = self._small_config()
        graphs = build_dataset(_frames(6), cfg, seed=0)
        other = build_dataset(_frames(6), self._small_config(n_classes=10), seed=0)
        with pytest.raises(ConfigMismatchError, match="n_classes=10"):
            train(other, cfg)
        with pytest.raises(ConfigMismatchError, match="n_classes=10"):
            train(graphs, cfg, other)

    def test_validation_graphs_checked_before_the_first_step(self, monkeypatch):
        cfg = self._small_config()
        graphs = build_dataset(_frames(6), cfg, seed=0)
        other = build_dataset(_frames(2), self._small_config(n_classes=10), seed=0)

        def backward(*args, **kwargs):
            raise AssertionError("a training step ran")

        monkeypatch.setattr(nn, "backward", backward)
        with pytest.raises(ConfigMismatchError, match="n_classes=10"):
            train(graphs, cfg, graphs[:2] + list(other))

    def test_no_split_leakage_into_corruption(self):
        # corruption is applied after splitting: the test frames' graphs are
        # derivable from the test frames alone
        frames = _frames(20)
        cfg = self._small_config()
        _, _, test_frames = split_dataset(frames, seed=0)
        a = build_dataset(test_frames, cfg, seed=7)
        b = build_dataset(list(test_frames), cfg, seed=7)
        for ga, gb in zip(a, b):
            np.testing.assert_array_equal(box_features(ga.boxes), box_features(gb.boxes))
            np.testing.assert_array_equal(ga.current_labels, gb.current_labels)
            np.testing.assert_array_equal(ga.validity, gb.validity)

    def test_history_jsonable(self):
        cfg = self._small_config(epochs=1)
        graphs = build_dataset(_frames(6), cfg, seed=0)
        _, _, history = train(graphs, cfg)
        payload = history.to_jsonable()
        assert isinstance(payload, list) and payload[0]["epoch"] == 1
