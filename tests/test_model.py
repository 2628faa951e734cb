import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from scenegnn import nn
from scenegnn.geometry import BoundingBox
from scenegnn.metrics import evaluate_graphs
from scenegnn.model import (
    CHECKPOINT_MAGIC,
    PREDICT_CHUNK_NODES,
    Checkpoint,
    CheckpointError,
    ConfigMismatchError,
    ModelConfig,
    chunked,
    init_model,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from scenegnn.scenegraph import Frame, SceneObject, box_features, build_graph
from scenegnn.synth import gen_template

from oracles import normalize_edge_features


def fixed_graph(n=4, n_classes=6, k=2, seed=0):
    rng = np.random.default_rng(seed)
    objs = []
    for _ in range(n):
        x0, y0 = rng.uniform(0, 0.7, 2)
        w, h = rng.uniform(0.05, 0.25, 2)
        objs.append(
            SceneObject(
                int(rng.integers(n_classes)),
                BoundingBox(x0, y0, min(1, x0 + w), min(1, y0 + h)),
            )
        )
    return build_graph(Frame("fixed", tuple(objs)), k, n_classes)


def edit_header(path, edit):
    """Replace the JSON header of the checkpoint at ``path`` by
    ``edit(header)``, written as save_checkpoint writes headers."""
    blob = Path(path).read_bytes()
    nl = blob.index(b"\n", len(CHECKPOINT_MAGIC))
    header = edit(json.loads(blob[len(CHECKPOINT_MAGIC): nl]))
    Path(path).write_bytes(
        CHECKPOINT_MAGIC + json.dumps(header, sort_keys=True).encode() + blob[nl:]
    )


class TestModelForward:
    def test_zero_heads_give_half_and_uniform(self):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(cfg)
        params.valid_head.w[:] = 0.0
        params.valid_head.b[:] = 0.0
        params.label_head.w[:] = 0.0
        params.label_head.b[:] = 0.0
        g = fixed_graph()
        p = predict([g], params, cfg)
        np.testing.assert_array_equal(p.validity_prob, np.full(4, 0.5))
        np.testing.assert_allclose(p.confidence, np.full(4, 1 / 6))
        np.testing.assert_array_equal(p.corrected_label, np.zeros(4, dtype=int))

    def test_single_node_graph(self):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(cfg)
        g = build_graph(
            Frame("one", (SceneObject(3, BoundingBox(0.2, 0.2, 0.6, 0.6)),)), 5, 6
        )
        p = predict([g], params, cfg)
        assert p.validity_prob.shape == (1,) and p.confidence.shape == (1,)
        assert np.all(np.isfinite(p.validity_prob)) and np.all(np.isfinite(p.confidence))
        assert 0 <= p.corrected_label[0] < 6

    def test_reference_straight_line_evaluation(self):
        # independent re-implementation with plain loops over edges
        cfg = ModelConfig(n_classes=6, hidden_dim=8, seed=11)
        params = init_model(cfg)
        g = fixed_graph(seed=3)
        p = predict([g], params, cfg)
        cache = nn.full_forward(params, nn.make_batch([g]))
        probs = nn.softmax(cache.class_logits)

        x = np.hstack([np.eye(6)[g.current_labels], box_features(g.boxes)])
        ef = normalize_edge_features(g.edge_features)
        def layer(h, lay):
            out = np.zeros((g.n_nodes, lay.bias.size))
            for i in range(g.n_nodes):
                msgs = [
                    np.concatenate([h[j], ef[e]])
                    for e, (s, j) in enumerate(g.edges)
                    if s == i
                ]
                agg = np.mean(msgs, axis=0) if msgs else np.zeros(lay.w_neigh.shape[1])
                out[i] = np.maximum(lay.w_self @ h[i] + lay.w_neigh @ agg + lay.bias, 0)
            return out

        h2 = layer(layer(x, params.sage1), params.sage2)
        for i in range(g.n_nodes):
            z = (params.valid_head.w @ h2[i] + params.valid_head.b).item()
            assert p.validity_prob[i] == pytest.approx(1 / (1 + np.exp(-z)), abs=1e-12)
            logits = params.label_head.w @ h2[i] + params.label_head.b
            ref = np.exp(logits - logits.max())
            ref /= ref.sum()
            np.testing.assert_allclose(probs[i], ref, atol=1e-12)
            assert p.confidence[i] == pytest.approx(ref.max(), abs=1e-12)
            assert p.corrected_label[i] == np.argmax(ref)

    def test_n_classes_mismatch_rejected(self):
        cfg = ModelConfig(n_classes=10, hidden_dim=8)
        params = init_model(cfg)
        with pytest.raises(ConfigMismatchError):
            predict([fixed_graph(n_classes=6)], params, cfg)
        # in a later chunk of a generator too
        first = fixed_graph(n=PREDICT_CHUNK_NODES, n_classes=10, k=3)
        with pytest.raises(ConfigMismatchError, match="n_classes=6"):
            predict(iter([first, fixed_graph(n_classes=6)]), params, cfg)

    def test_empty_graph_list_rejected(self):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        for empty in ([], iter([])):
            with pytest.raises(ValueError, match="at least one graph"):
                predict(empty, init_model(cfg), cfg)


class TestPredict:
    def _with_forced_validity(self, v_value):
        cfg = ModelConfig(n_classes=6, hidden_dim=8, validity_threshold=0.5)
        params = init_model(cfg)
        params.valid_head.w[:] = 0.0
        params.valid_head.b[:] = np.log(v_value / (1 - v_value))
        params.sage1.bias[:] = 0.0
        return cfg, params

    def test_above_threshold_is_valid(self):
        cfg, params = self._with_forced_validity(0.7)
        p = predict([fixed_graph()], params, cfg)
        assert not p.is_invalid.any()

    def test_exactly_threshold_is_valid(self):
        cfg, params = self._with_forced_validity(0.5)
        # zero the whole encoder so the head bias is the exact logit
        for name, arr in nn.param_items(params):
            if name.startswith("sage"):
                arr[:] = 0.0
        p = predict([fixed_graph()], params, cfg)
        np.testing.assert_array_equal(p.validity_prob, np.full(4, 0.5))
        assert not p.is_invalid.any()  # strict inequality

    def test_argmax_tie_breaks_low_index(self):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(cfg)
        for name, arr in nn.param_items(params):
            arr[:] = 0.0  # all logits equal -> class 0 wins everywhere
        p = predict([fixed_graph()], params, cfg)
        np.testing.assert_array_equal(p.corrected_label, np.zeros(4, dtype=int))

    def test_constant_logit_shift_keeps_argmax(self):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        params = init_model(cfg)
        g = fixed_graph()
        before = predict([g], params, cfg).corrected_label
        params.label_head.b += 3.7
        after = predict([g], params, cfg).corrected_label
        np.testing.assert_array_equal(before, after)


class TestBatchedPredict:
    def test_many_graphs_equal_per_graph_predictions(self):
        # chunk boundaries fall between graphs, one graph exceeds the node cap
        # and one single-node graph sits inside a chunk, whatever the cap
        c = PREDICT_CHUNK_NODES
        sizes = [c // 2, c // 3, 1, c // 2, c + 6, c // 6, c // 2, 3]
        cfg = ModelConfig(n_classes=6, hidden_dim=8, seed=4)
        params = init_model(cfg)
        graphs = [fixed_graph(n=n, k=3, seed=i) for i, n in enumerate(sizes)]
        chunks = list(chunked(graphs))
        assert [len(c) for c in chunks] == [3, 1, 1, 3]
        assert any(len(c) == 1 and c[0].n_nodes > PREDICT_CHUNK_NODES for c in chunks)

        together = predict(graphs, params, cfg)
        alone = [predict([g], params, cfg) for g in graphs]
        np.testing.assert_array_equal(
            together.corrected_label, np.concatenate([p.corrected_label for p in alone])
        )
        np.testing.assert_array_equal(
            together.is_invalid, np.concatenate([p.is_invalid for p in alone])
        )
        np.testing.assert_allclose(
            together.validity_prob,
            np.concatenate([p.validity_prob for p in alone]),
            rtol=0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            together.confidence,
            np.concatenate([p.confidence for p in alone]),
            rtol=0,
            atol=1e-12,
        )

    def test_generator_is_drawn_one_chunk_at_a_time(self, monkeypatch):
        c = PREDICT_CHUNK_NODES
        sizes = [c // 2, c // 3, 1, c // 2, c + 6, c // 6, c // 2, 3]
        cfg = ModelConfig(n_classes=6, hidden_dim=8, seed=4)
        params = init_model(cfg)
        graphs = [fixed_graph(n=n, k=3, seed=i) for i, n in enumerate(sizes)]
        full_forward = nn.full_forward
        drawn = run = 0
        ahead = []

        def draw():
            nonlocal drawn
            for g in graphs:
                drawn += 1
                yield g

        def forward(params, batch):
            nonlocal run
            run += batch.adj.shape[0]  # one adjacency block per graph
            ahead.append(drawn - run)
            return full_forward(params, batch)

        monkeypatch.setattr(nn, "full_forward", forward)
        predict(draw(), params, cfg)
        assert run == len(graphs)
        assert len(ahead) == 4 and max(ahead) <= 1

    @pytest.mark.parametrize("k", [5, "all"])
    def test_generator_equals_list_bit_for_bit(self, k):
        c = PREDICT_CHUNK_NODES
        sizes = [c // 2, c // 3, 2, c // 2, c + 6, 7]
        cfg = ModelConfig(n_classes=6, hidden_dim=8, k=k, seed=3)
        params = init_model(cfg)
        graphs = [fixed_graph(n=n, k=k, seed=i) for i, n in enumerate(sizes)]
        from_list = predict(graphs, params, cfg)
        from_generator = predict((g for g in graphs), params, cfg)
        for field in ("is_invalid", "corrected_label", "confidence", "validity_prob"):
            assert getattr(from_list, field).tobytes() == getattr(from_generator, field).tobytes()

    def test_padding_never_reaches_real_nodes(self):
        # in one batch, the small graph's block is zero-padded to the larger's
        cfg = ModelConfig(n_classes=6, hidden_dim=8, seed=6)
        params = init_model(cfg)
        small, larger = fixed_graph(n=5, k=3, seed=1), fixed_graph(n=40, k=3, seed=2)
        assert len(list(chunked([small, larger]))) == 1
        alone = predict([small], params, cfg)
        padded = predict([small, larger], params, cfg)
        for field in ("is_invalid", "corrected_label"):
            np.testing.assert_array_equal(getattr(padded, field)[:5], getattr(alone, field))
        for field in ("validity_prob", "confidence"):
            np.testing.assert_allclose(
                getattr(padded, field)[:5], getattr(alone, field), rtol=1e-13, atol=0
            )


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        cfg = ModelConfig(n_classes=6, hidden_dim=8, seed=5)
        params = init_model(cfg)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(params, cfg, path, metadata={"epochs_run": 3})
        ckpt = load_checkpoint(path)
        assert ckpt.config == cfg
        assert ckpt.metadata == {"epochs_run": 3}
        g = fixed_graph()
        p1 = predict([g], params, cfg)
        p2 = predict([g], ckpt.params, ckpt.config)
        assert np.array_equal(p1.validity_prob, p2.validity_prob)
        assert np.array_equal(p1.confidence, p2.confidence)
        assert np.array_equal(p1.corrected_label, p2.corrected_label)

    def test_truncated_file_is_error(self, tmp_path):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(cfg), cfg, path)
        blob = Path(path).read_bytes()
        Path(path).write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: truncated parameter block sage1.w_neigh"

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "junk")
        Path(path).write_text("not a checkpoint\n")
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: not a scenegnn checkpoint"

    def test_version_mismatch(self, tmp_path):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(cfg), cfg, path)
        edit_header(path, lambda h: {**h, "format_version": 99})
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: format_version 99, expected 1"

    def test_dimension_mismatch(self, tmp_path):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(cfg), cfg, path)

        def first_tensor_3x3(header):
            header["tensors"][0]["shape"] = [3, 3]
            return header

        edit_header(path, first_tensor_3x3)
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: sage1.w_self has shape [3, 3], expected [8, 10]"

    def test_incompatible_graph_after_load(self, tmp_path):
        cfg = ModelConfig(n_classes=39, hidden_dim=8)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(cfg), cfg, path)
        ckpt = load_checkpoint(path)
        with pytest.raises(ConfigMismatchError):
            predict([fixed_graph(n_classes=10)], ckpt.params, ckpt.config)

    def test_load_makes_no_random_draws(self, tmp_path, monkeypatch):
        cfg = ModelConfig(n_classes=5, hidden_dim=3)
        params, path = init_model(cfg), str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)

        def no_draw(*args):
            raise AssertionError("load_checkpoint drew weights")

        monkeypatch.setattr(nn, "_glorot", no_draw)
        loaded = load_checkpoint(path).params
        for (name, a), (_, b) in zip(nn.param_items(params), nn.param_items(loaded)):
            assert a.tobytes() == b.tobytes(), name

    def test_init_draws_each_weight_in_turn(self):
        # the draws of the explicit initialiser, in its order: sage1, sage2,
        # validity head, label head; biases are zero
        in_dim, hidden, n_classes = 7, 4, 3
        params = nn.init_params(in_dim, hidden, n_classes, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        weights = [(hidden, in_dim), (hidden, in_dim + 6), (hidden, hidden), (hidden, hidden + 6),
                   (1, hidden), (n_classes, hidden)]
        limits = [np.sqrt(6.0 / sum(shape)) for shape in weights]
        expected = [rng.uniform(-lim, lim, size=shape) for lim, shape in zip(limits, weights)]
        items = nn.param_items(params)
        assert [a.tobytes() for _, a in items if a.ndim == 2] == [e.tobytes() for e in expected]
        biases = [a for _, a in items if a.ndim == 1]
        assert [a.shape for a in biases] == [(hidden,), (hidden,), (1,), (n_classes,)]
        assert not any(a.any() for a in biases)


# the three options that checkpoints written before their removal record, at
# the values those checkpoints were trained with
LEGACY_OPTIONS = {"label_encoding": "onehot", "msg_mode": "nodes+edges", "ce_invalid_only": True}
# Saved before the loss weights and the training jitter became constants: its
# config holds lam_valid 1.0, lam_label 2.0 and jitter_sigma 0.01, and its
# parameters come from two epochs of training on 12 rendered views.
TRAINING_KEYS_CKPT = Path(__file__).parent / "data" / "checkpoint_with_training_keys.ckpt"


class TestCheckpointHeader:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda h: [1, 2], "header is not a JSON object"),
            (lambda h: {**h, "config": [1, 2]}, "config is not a JSON object"),
            (lambda h: {"format_version": 1, "config": {}, "tensors": [1, 2]},
             "tensors is not a list of JSON objects"),
        ],
        ids=["header", "config", "tensors-entry"],
    )
    def test_part_that_is_not_a_json_object_is_format_error(self, tmp_path, edit, message):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(cfg), cfg, path)
        edit_header(path, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_tensor_entry_without_shape_is_dimension_error(self, tmp_path):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(cfg), cfg, path)
        edit_header(path, lambda h: {**h, "tensors": [{"name": t["name"]} for t in h["tensors"]]})
        with pytest.raises(CheckpointError, match="sage1.w_self has shape None"):
            load_checkpoint(path)

    def test_header_of_older_checkpoints_loads_bit_identically(self, tmp_path):
        cfg = ModelConfig(n_classes=6, hidden_dim=8, seed=5)
        params = init_model(cfg)
        new, old = str(tmp_path / "new.ckpt"), str(tmp_path / "old.ckpt")
        save_checkpoint(params, cfg, new)
        save_checkpoint(params, cfg, old)
        edit_header(old, lambda h: {**h, "config": {**h["config"], **LEGACY_OPTIONS}})
        assert b'"ce_invalid_only": true' in Path(old).read_bytes()
        a, b = load_checkpoint(new), load_checkpoint(old)
        assert a.config == b.config == cfg
        for (name, x), (_, y) in zip(nn.param_items(a.params), nn.param_items(b.params)):
            assert x.tobytes() == y.tobytes(), name
        g = fixed_graph()
        pa, pb = predict([g], a.params, a.config), predict([g], b.params, b.config)
        for field in ("is_invalid", "corrected_label", "confidence", "validity_prob"):
            assert getattr(pa, field).tobytes() == getattr(pb, field).tobytes(), field

    @pytest.mark.parametrize("lam_label", [2.0, 5.0])
    def test_checkpoint_with_training_keys_loads_bit_identically(self, tmp_path, lam_label):
        path = str(tmp_path / "old.ckpt")
        Path(path).write_bytes(TRAINING_KEYS_CKPT.read_bytes())
        edit_header(path, lambda h: {**h, "config": {**h["config"], "lam_label": lam_label}})
        header = json.loads(Path(path).read_bytes().split(b"\n")[1])
        assert {k: header["config"][k] for k in ("lam_valid", "lam_label", "jitter_sigma")} == {
            "lam_valid": 1.0, "lam_label": lam_label, "jitter_sigma": 0.01}
        old = load_checkpoint(path)
        assert old.config == ModelConfig(
            n_classes=4, hidden_dim=4, k=3, epochs=2, batch_size=4, seed=7
        )
        blob = b"".join(a.astype("<f8").tobytes() for _, a in nn.param_items(old.params))
        assert hashlib.sha256(blob).hexdigest() == (
            "d38655ca349e2bef82ce76d4ab883d1680b63108f143be3622158b425ff4417f"
        )
        # saved again, now without the three keys, it predicts the same bits
        new = str(tmp_path / "new.ckpt")
        save_checkpoint(old.params, old.config, new)
        assert b"lam_label" not in Path(new).read_bytes()
        again = load_checkpoint(new)
        g = fixed_graph(n=6, n_classes=4, k=3)
        pa, pb = predict([g], old.params, old.config), predict([g], again.params, again.config)
        for field in ("is_invalid", "corrected_label", "confidence", "validity_prob"):
            assert getattr(pa, field).tobytes() == getattr(pb, field).tobytes(), field

    @pytest.mark.parametrize(
        "key, value",
        [("label_encoding", "scalar"), ("msg_mode", "nodes"), ("ce_invalid_only", False),
         ("ce_invalid_only", 1)],
    )
    def test_older_option_of_another_value_names_the_key(self, tmp_path, key, value):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(cfg), cfg, path)
        options = {**LEGACY_OPTIONS, key: value}
        edit_header(path, lambda h: {**h, "config": {**h["config"], **options}})
        with pytest.raises(CheckpointError, match=f"{key} {value!r} is not supported"):
            load_checkpoint(path)


# Written by save_checkpoint before it wrote through dataio.atomic_write_text:
# two epochs of training on 10 rendered views (5 classes, hidden_dim 3, k=3,
# seed 11), with the metadata that `scenegnn train` records. Its config holds
# none of the older keys.
FORMAT_1_CKPT = Path(__file__).parent / "data" / "checkpoint_format_1.ckpt"
NAN, INF = np.float64(np.nan).tobytes(), np.float64(np.inf).tobytes()


class TestCheckpointCodec:
    def test_written_checkpoint_saves_again_byte_for_byte(self, tmp_path):
        ckpt = load_checkpoint(str(FORMAT_1_CKPT))
        assert ckpt.config == ModelConfig(
            n_classes=5, hidden_dim=3, k=3, epochs=2, batch_size=4, seed=11
        )
        assert set(ckpt.metadata) == {"epochs_run", "final_loss"}
        path = tmp_path / "again.ckpt"
        save_checkpoint(ckpt.params, ckpt.config, str(path), metadata=ckpt.metadata)
        assert path.read_bytes() == FORMAT_1_CKPT.read_bytes()

    def test_blocks_follow_the_tensor_list_and_the_adam_buffer(self, tmp_path):
        cfg = ModelConfig(n_classes=6, hidden_dim=5, seed=3)
        params = init_model(cfg)
        state = nn.AdamState.for_params(params, lr=0.01)
        before = state.params.copy()
        g = fixed_graph(n=6, n_classes=6, k=3)
        g.validity = np.array([True, False, True, True, False, True])
        batch = nn.make_batch([g])
        nn.backward(params, nn.full_forward(params, batch), batch, 1.0, 2.0, out=state.grads)
        nn.adam_step(state)
        assert (state.params != before).any()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, str(path))
        blob = path.read_bytes()
        nl = blob.index(b"\n", len(CHECKPOINT_MAGIC))
        tensors = json.loads(blob[len(CHECKPOINT_MAGIC): nl])["tensors"]
        assert [(t["name"], t["shape"]) for t in tensors] == [
            (name, list(arr.shape)) for name, arr in nn.param_items(params)
        ]
        assert blob[nl + 1:] == state.params.astype("<f8").tobytes()
        loaded = load_checkpoint(str(path)).params
        assert b"".join(a.tobytes() for _, a in nn.param_items(loaded)) == state.params.tobytes()


    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda head, body: head, "truncated header"),
            (lambda head, body: head + b"\n", "truncated parameter block sage1.w_self"),
            (lambda head, body: head + b"\n" + body[:-1], "truncated parameter block label_head.b"),
            (lambda head, body: head + b"\n" + body + b"x", "trailing bytes after parameters"),
            # sage1.w_self holds 8 x 10 values, so value 80 opens sage1.w_neigh
            (lambda head, body: head + b"\n" + body[:640] + NAN + body[648:],
             "non-finite values in sage1.w_neigh"),
            # each block is checked before the next one is read, its length first
            (lambda head, body: head + b"\n" + INF + body[8:-1],
             "non-finite values in sage1.w_self"),
            (lambda head, body: head + b"\n" + INF + body[8:100],
             "truncated parameter block sage1.w_self"),
        ],
        ids=["header", "no-body", "short-body", "trailing", "nan", "inf-then-short",
             "inf-in-short-block"],
    )
    def test_malformed_body_names_the_file_and_the_block(self, tmp_path, edit, message):
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(cfg), cfg, str(path))
        blob = path.read_bytes()
        nl = blob.index(b"\n", len(CHECKPOINT_MAGIC))
        path.write_bytes(edit(blob[:nl], blob[nl + 1:]))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(str(path))
        assert str(info.value) == f"{path}: {message}"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            {"n_classes": 1},
            {"hidden_dim": 0},
            {"validity_threshold": 0.0},
            {"validity_threshold": 1.0},
            {"k": 2.7},
            {"hidden_dim": 8.5},
            {"k": "most"},
            {"k": 0},
        ],
    )
    def test_bad_configs_rejected(self, kw):
        with pytest.raises(ValueError):
            ModelConfig(**kw)

    @pytest.mark.parametrize(
        "kw, field",
        [
            ({"epochs": 0}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"batch_size": -4}, "batch_size"),
            ({"lr": -1.0}, "lr"),
            ({"lr": float("nan")}, "lr"),
            ({"lr": float("inf")}, "lr"),
        ],
    )
    def test_bad_training_options_name_the_field(self, kw, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ModelConfig(**kw)

    @pytest.mark.parametrize(
        "kw, message",
        [
            ({"hidden_dim": 8.5}, "hidden_dim must be an integer, got 8.5"),
            ({"hidden_dim": True}, "hidden_dim must be an integer, got True"),
            ({"n_classes": 5.0}, "n_classes must be an integer, got 5.0"),
            ({"rho": "1"}, "rho must be an integer, got '1'"),
            ({"rho": -1}, "rho must be >= 0, got -1"),
            ({"epochs": 3.0}, "epochs must be an integer, got 3.0"),
            ({"batch_size": False}, "batch_size must be an integer, got False"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"k": 2.7}, "k must be 'all' or an integer, got 2.7"),
            ({"k": True}, "k must be 'all' or an integer, got True"),
            ({"k": "3"}, "k must be 'all' or an integer, got '3'"),
        ],
    )
    def test_non_integer_fields_name_the_field(self, kw, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelConfig(**kw)

    def test_numpy_integers_stored_as_int(self, tmp_path):
        cfg = ModelConfig(n_classes=np.int64(5), hidden_dim=np.int32(8), k=np.int16(3),
                          epochs=np.uint8(2), seed=np.int64(4))
        for name in ("n_classes", "hidden_dim", "k", "epochs", "seed"):
            assert type(getattr(cfg, name)) is int, name
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(init_model(cfg), cfg, path)
        assert load_checkpoint(path).config == cfg

    def test_zero_lr_allowed(self):
        assert ModelConfig(lr=0.0).lr == 0.0

    def test_input_dim(self):
        # one-hot label plus the four box features
        assert ModelConfig(n_classes=39).input_dim == 43
        assert ModelConfig(n_classes=2).input_dim == 6


class TestArrayHolders:
    ARRAY_HOLDERS = {
        "LayoutTemplate", "SceneGraph", "GraphBatch", "ForwardCache", "SageLayer", "LinearHead",
        "ModelParams", "AdamState", "Prediction", "Checkpoint", "LabelMetrics", "EvalReport",
    }

    @staticmethod
    def build() -> list:
        """One instance of each dataclass that holds an array."""
        cfg = ModelConfig(n_classes=6, hidden_dim=8)
        g = fixed_graph()
        g.validity = np.array([True, False, True, False])
        batch = nn.make_batch([g])
        params = init_model(cfg)
        report = evaluate_graphs([g], params, cfg)
        return [
            gen_template(5, 0), g, batch, nn.full_forward(params, batch), params.sage1,
            params.valid_head, params, nn.AdamState.for_params(init_model(cfg), cfg.lr),
            predict([g], params, cfg), Checkpoint(cfg, params), report.label, report,
        ]

    def test_compare_and_hash_by_identity(self):
        # a generated __eq__ compares the arrays, which raises, and a
        # generated __hash__ of a frozen class hashes them, which raises too
        pairs = list(zip(self.build(), self.build()))
        assert {type(a).__name__ for a, _ in pairs} == self.ARRAY_HOLDERS
        for a, b in pairs:
            assert a == a and a != b, type(a).__name__
            assert a in [b, a] and [b, a].index(a) == 1, type(a).__name__
            assert hash(a) == hash(a) and hash(a) != hash(b), type(a).__name__
