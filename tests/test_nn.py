import math

import numpy as np
import pytest

from scenegnn import nn
from scenegnn.geometry import BoundingBox
from scenegnn.model import PREDICT_CHUNK_NODES, ModelConfig, init_model
from scenegnn.scenegraph import ALL_NEIGHBORS, Frame, SceneObject, box_features, build_graph

from oracles import center_and_size, normalize_edge_features

N_CLASSES = 10
IN_DIM = N_CLASSES + 4  # one-hot label, then the four box features


def random_graph(n, rng, n_classes=N_CLASSES, k=3, corrupted=True):
    objs = []
    for _ in range(n):
        x0, y0 = rng.uniform(0, 0.8, 2)
        w, h = rng.uniform(0.05, 0.2, 2)
        objs.append(
            SceneObject(
                int(rng.integers(n_classes)),
                BoundingBox(x0, y0, min(1, x0 + w), min(1, y0 + h)),
            )
        )
    g = build_graph(Frame("g", tuple(objs)), k, n_classes)
    if corrupted:
        g.validity = rng.random(n) > 0.4
        g.original_labels = rng.integers(0, n_classes, n)
    return g


def loss_of(params, batch, lam_v=1.0, lam_l=1.0):
    bce, ce = nn.loss_components(nn.full_forward(params, batch), batch)
    return lam_v * bce + lam_l * ce


def sage_layer(layer, x, graph):
    """One GraphSAGE layer on one graph, through the batched path."""
    return nn._layer_forward(layer, x, nn.make_batch([graph]))[1]


def with_messages(batch, messages):
    """``batch`` as built for "nodes+edges"; for "nodes", its edge means
    zeroed, so that neighbours pass node messages only. The two values keep
    the test ids of the network's former message modes; both now run the one
    network."""
    if messages == "nodes":
        batch.edge_mean[:] = 0.0
    return batch


def finite_difference_check(params, batch, lam_v=1.0, lam_l=1.0, step=1e-5):
    cache = nn.full_forward(params, batch)
    grads = nn.backward(params, cache, batch, lam_v, lam_l)
    max_rel = 0.0
    for (name, arr), (_, g) in zip(nn.param_items(params), nn.param_items(grads)):
        flat, gflat = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_of(params, batch, lam_v, lam_l)
            flat[i] = orig - step
            down = loss_of(params, batch, lam_v, lam_l)
            flat[i] = orig
            fd = (up - down) / (2 * step)
            rel = abs(fd - gflat[i]) / max(1e-8, abs(fd), abs(gflat[i]))
            max_rel = max(max_rel, rel)
    return max_rel


class TestSageForward:
    def test_isolated_node_identity(self):
        g = build_graph(
            Frame("f", (SceneObject(2, BoundingBox(0.2, 0.2, 0.5, 0.5)),)),
            5,
            N_CLASSES,
        )
        layer = nn.SageLayer(
            w_self=np.eye(4), w_neigh=np.ones((4, 10)), bias=np.zeros(4)
        )
        x = box_features(g.boxes)
        out = sage_layer(layer, x, g)
        np.testing.assert_array_equal(out, x)  # both empty-neighbourhood means are zero

    def test_two_node_clique_mean(self):
        rng = np.random.default_rng(0)
        g = random_graph(2, rng, k=5, corrupted=False)
        f = 5
        x = np.zeros((2, f))
        x[0, 0] = 1.0
        x[1, 1] = 1.0
        # the edge-feature columns of w_neigh are zero: the node message alone
        w_neigh = np.hstack([np.eye(f), np.zeros((f, 6))])
        layer = nn.SageLayer(w_self=np.eye(f), w_neigh=w_neigh, bias=np.zeros(f))
        out = sage_layer(layer, x, g)
        np.testing.assert_allclose(out[0], np.maximum(x[0] + x[1], 0))

    def test_zero_inputs_zero_outputs(self):
        rng = np.random.default_rng(1)
        g = random_graph(4, rng)
        layer = nn.SageLayer(
            w_self=rng.normal(size=(6, 5)),
            w_neigh=rng.normal(size=(6, 11)),
            bias=np.zeros(6),
        )
        batch = nn.make_batch([g])
        batch.edge_mean[:] = 0.0  # zero edge messages too
        out = nn._layer_forward(layer, np.zeros((4, 5)), batch)[1]
        np.testing.assert_array_equal(out, np.zeros((4, 6)))

    def test_neighbor_order_invariance(self):
        rng = np.random.default_rng(2)
        g = random_graph(6, rng)
        perm = rng.permutation(g.n_edges)
        g2 = random_graph(6, np.random.default_rng(2))
        g2.edges = g.edges[perm]
        g2.edge_features = g.edge_features[perm]
        layer = nn.SageLayer(
            w_self=rng.normal(size=(4, 4)),
            w_neigh=rng.normal(size=(4, 10)),
            bias=rng.normal(size=4),
        )
        a = sage_layer(layer, box_features(g.boxes), g)
        b = sage_layer(layer, box_features(g2.boxes), g2)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_outputs_finite_for_bounded_inputs(self):
        rng = np.random.default_rng(3)
        g = random_graph(8, rng)
        for _ in range(20):
            layer = nn.SageLayer(
                w_self=rng.uniform(-1, 1, (7, 5)),
                w_neigh=rng.uniform(-1, 1, (7, 11)),
                bias=rng.uniform(-1, 1, 7),
            )
            x = rng.uniform(-10, 10, (8, 5))
            out = sage_layer(layer, x, g)
            assert np.all(np.isfinite(out))


class TestHeadsAndLosses:
    def test_zero_heads_give_half_and_uniform(self):
        h = np.random.default_rng(0).normal(size=(6, 8))
        valid = nn.LinearHead(w=np.zeros((1, 8)), b=np.zeros(1))
        label = nn.LinearHead(w=np.zeros((N_CLASSES, 8)), b=np.zeros(N_CLASSES))
        v, logits = nn.heads_forward(h, valid, label)
        np.testing.assert_array_equal(v, np.full(6, 0.5))
        np.testing.assert_allclose(nn.softmax(logits), np.full((6, N_CLASSES), 0.1))

    def test_hand_computed_sigmoid(self):
        h = np.array([[0.5, -1.0, 2.0]])
        valid = nn.LinearHead(w=np.array([[1.0, 2.0, 0.5]]), b=np.array([0.25]))
        v, _ = nn.heads_forward(h, valid, nn.LinearHead(np.zeros((2, 3)), np.zeros(2)))
        z = 0.5 - 2.0 + 1.0 + 0.25
        assert v[0] == pytest.approx(1 / (1 + math.exp(-z)))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        probs = nn.softmax(rng.normal(scale=20, size=(50, 7)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_perfect_predictions_near_zero_loss(self):
        v = np.array([1.0 - 1e-15, 1e-15])
        logits = np.array([[80.0, 0.0], [0.0, 80.0]])
        loss = np.mean(nn.bce_terms(v, np.array([True, False]))) + np.mean(
            nn.ce_terms(logits, np.array([0, 1]))
        )
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_bce_at_half_is_ln2(self):
        v = np.full(4, 0.5)
        loss = np.mean(nn.bce_terms(v, np.array([True, False, True, False])))
        assert loss == pytest.approx(math.log(2), abs=1e-9)

    def test_uniform_ce_is_ln39(self):
        logits = np.zeros((3, 39))
        loss = np.mean(nn.ce_terms(logits, np.array([0, 5, 38])))
        assert loss == pytest.approx(math.log(39), abs=1e-9)


class TestBackward:
    def test_zero_lambdas_zero_gradients(self):
        rng = np.random.default_rng(4)
        g = random_graph(5, rng)
        params = init_model(ModelConfig(n_classes=N_CLASSES, hidden_dim=8), rng)
        batch = nn.make_batch([g])
        grads = nn.backward(params, nn.full_forward(params, batch), batch, 0.0, 0.0)
        for _, garr in nn.param_items(grads):
            np.testing.assert_array_equal(garr, np.zeros_like(garr))

    @pytest.mark.parametrize("messages", ["nodes", "nodes+edges"])
    def test_finite_difference_oracle(self, messages):
        rng = np.random.default_rng(5)
        g = random_graph(6, rng)
        params = nn.init_params(IN_DIM, 8, N_CLASSES, rng)
        batch = with_messages(nn.make_batch([g]), messages)
        assert finite_difference_check(params, batch) < 1e-4

    @pytest.mark.parametrize("messages", ["nodes", "nodes+edges"])
    def test_finite_difference_oracle_multi_graph_batch(self, messages):
        # graphs of different sizes, one without edges, and CE on invalid nodes only
        rng = np.random.default_rng(12)
        graphs = [random_graph(n, rng) for n in (6, 1, 4, 3)]
        params = nn.init_params(IN_DIM, 8, N_CLASSES, rng)
        batch = with_messages(nn.make_batch(graphs), messages)
        assert finite_difference_check(params, batch, 1.0, 2.0) < 1e-4

    def test_duplicated_components_same_gradients_under_mean(self):
        rng = np.random.default_rng(6)
        g = random_graph(5, rng)
        params = nn.init_params(IN_DIM, 8, N_CLASSES, rng)
        single = nn.make_batch([g])
        double = nn.make_batch([g, g])
        g1 = nn.backward(params, nn.full_forward(params, single), single, 1.0, 1.0)
        g2 = nn.backward(params, nn.full_forward(params, double), double, 1.0, 1.0)
        for (_, a), (_, b) in zip(nn.param_items(g1), nn.param_items(g2)):
            np.testing.assert_allclose(b, a, rtol=0, atol=1e-12)

    def test_reused_gradient_buffer_equals_fresh_buffer(self):
        # backward must overwrite every gradient, never add to what a
        # previous batch left in the buffer
        rng = np.random.default_rng(16)
        params = nn.init_params(IN_DIM, 8, N_CLASSES, rng)
        state = nn.AdamState.for_params(params, lr=0.001)
        other = nn.make_batch([random_graph(n, rng) for n in (7, 3)])
        nn.backward(params, nn.full_forward(params, other), other, 1.0, 1.0, out=state.grads)
        assert np.count_nonzero(state.grad) > state.grad.size // 2
        batch = nn.make_batch([random_graph(n, rng) for n in (5, 4, 1)])
        cache = nn.full_forward(params, batch)
        reused = nn.backward(params, cache, batch, 1.0, 2.0, out=state.grads)
        fresh = nn.backward(params, cache, batch, 1.0, 2.0)
        assert reused is state.grads
        for (name, a), (_, b) in zip(nn.param_items(reused), nn.param_items(fresh)):
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("messages", ["nodes", "nodes+edges"])
    def test_batch_without_ce_weighted_nodes(self, messages):
        rng = np.random.default_rng(17)
        params = nn.init_params(IN_DIM, 8, N_CLASSES, rng)
        batch = with_messages(nn.make_batch([random_graph(n, rng) for n in (5, 3)]), messages)
        batch.ce_weights = np.zeros(batch.n_nodes)
        state = nn.AdamState.for_params(params, lr=0.001)
        state.grad.fill(1.0)  # stale values the label head must overwrite
        grads = nn.backward(
            params, nn.full_forward(params, batch), batch, 1.0, 2.0, out=state.grads
        )
        np.testing.assert_array_equal(grads.label_head.w, 0.0)
        np.testing.assert_array_equal(grads.label_head.b, 0.0)
        assert np.any(grads.sage1.w_self != 0.0)
        assert finite_difference_check(params, batch, 1.0, 2.0) < 1e-4


def write_grads(state, grads):
    """Copy ``grads`` into the state's gradient buffer, where backward writes."""
    for (_, dst), (_, src) in zip(nn.param_items(state.grads), nn.param_items(grads)):
        dst[...] = src


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        params = nn.ModelParams(
            sage1=nn.SageLayer(np.array([[2.0]]), np.array([[0.0]]), np.zeros(1)),
            sage2=nn.SageLayer(np.zeros((1, 1)), np.zeros((1, 1)), np.zeros(1)),
            valid_head=nn.LinearHead(np.zeros((1, 1)), np.zeros(1)),
            label_head=nn.LinearHead(np.zeros((2, 1)), np.zeros(2)),
        )
        state = nn.AdamState.for_params(params, lr=0.01)
        state.grads.sage1.w_self[0, 0] = 0.3
        nn.adam_step(state)
        assert params.sage1.w_self[0, 0] == pytest.approx(2.0 - 0.01, abs=1e-6)
        assert state.t == 1

    def test_zero_gradient_leaves_params(self):
        rng = np.random.default_rng(7)
        params = nn.init_params(5, 4, 3, rng)
        before = {n: a.copy() for n, a in nn.param_items(params)}
        state = nn.AdamState.for_params(params, lr=0.001)
        state.grad.fill(0.0)
        nn.adam_step(state)
        for name, arr in nn.param_items(params):
            np.testing.assert_array_equal(arr, before[name])

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(8)
            params = nn.init_params(5, 4, 3, rng)
            grads = nn.init_params(5, 4, 3, np.random.default_rng(9))
            state = nn.AdamState.for_params(params, lr=0.05)
            for _ in range(10):
                write_grads(state, grads)
                nn.adam_step(state)
            return {n: a.copy() for n, a in nn.param_items(params)}

        a, b = run(), run()
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_non_finite_gradient_aborts(self):
        for bad in ("sage1.bias", "label_head.b"):
            rng = np.random.default_rng(10)
            params = nn.init_params(5, 4, 3, rng)
            state = nn.AdamState.for_params(params, lr=0.001)
            write_grads(state, nn.init_params(5, 4, 3, rng))
            nn.adam_step(state)  # non-zero moments to protect
            before = {n: a.copy() for n, a in nn.param_items(params)}
            m, v = state.m.copy(), state.v.copy()
            dict(nn.param_items(state.grads))[bad][0] = np.nan
            with pytest.raises(nn.NumericalError, match=bad):
                nn.adam_step(state)
            for name, arr in nn.param_items(params):
                np.testing.assert_array_equal(arr, before[name])
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            assert state.t == 1

    def test_in_place_step_equals_one_line_update(self):
        # oracle: the update as one expression per moment and per parameter
        rng = np.random.default_rng(18)
        params = nn.init_params(5, 4, 3, rng)
        state = nn.AdamState.for_params(params, lr=0.01)
        p, m, v = state.params.copy(), np.zeros_like(state.params), np.zeros_like(state.params)
        b1, b2, lr, eps = nn.BETA1, nn.BETA2, state.lr, nn.EPS
        for t in range(1, 51):
            grads = nn.init_params(5, 4, 3, rng)
            for _, arr in nn.param_items(grads):
                arr *= 10.0 ** rng.integers(-8, 3)
            write_grads(state, grads)
            g = np.concatenate([arr.ravel() for _, arr in nn.param_items(grads)])
            nn.adam_step(state)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            assert state.t == t
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()
            assert state.params.tobytes() == p.tobytes()


def reference_batch(graphs, own_means=()):
    """The batch of ``graphs`` built from scratch over each raw edge list,
    without a store: one-hot inputs, edge means and the padded
    mean-adjacency blocks. A graph in ``own_means`` keeps its own edge
    means: its edges were permuted after build_graph summed them, and
    summing them again in the new order may round otherwise."""
    m = max(g.n_nodes for g in graphs)
    adj = np.zeros((len(graphs), m, m))
    xs, edge_means, slots, wts = [], [], [], []
    for b, g in enumerate(graphs):
        x = np.zeros((g.n_nodes, g.n_classes + 4))
        x[np.arange(g.n_nodes), g.current_labels] = 1.0
        x[:, g.n_classes:] = box_features(g.boxes)
        xs.append(x)
        src, dst = g.edges[:, 0], g.edges[:, 1]
        share = 1.0 / np.bincount(src, minlength=g.n_nodes)[src]
        adj[b, src, dst] = share
        # one term at a time in edge order, as the store's bincount adds them
        edge_mean = np.zeros((g.n_nodes, 6))
        np.add.at(edge_mean, src, share[:, None] * normalize_edge_features(g.edge_features))
        edge_means.append(g.edge_mean if g in own_means else edge_mean)
        slots.append(b * m + np.arange(g.n_nodes))
        wts.append(np.full(g.n_nodes, 1.0 / (g.n_nodes * len(graphs))))
    node_weights = np.concatenate(wts)
    validity = np.concatenate([g.validity for g in graphs])
    return nn.GraphBatch(
        x=np.concatenate(xs),
        adj=adj,
        slot=np.concatenate(slots),
        edge_mean=np.concatenate(edge_means),
        validity_gt=validity,
        label_gt=np.concatenate([g.original_labels for g in graphs]),
        node_weights=node_weights,
        ce_weights=np.where(validity, 0.0, node_weights),
    )


# The two halves of a batch, each compared bit for bit. The keys keep the
# test ids of the network's former label encodings; they name no encoding.
BATCH_FIELDS = {
    # the network's input, one-hot labels then box features, and the
    # neighbourhood it aggregates over
    "onehot": ("x", "adj", "slot", "edge_mean"),
    # the per-node targets and loss weights
    "scalar": ("validity_gt", "label_gt", "node_weights", "ce_weights"),
}


def assert_batches_identical(a, b, names):
    for name in names:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name, strict=True)


@pytest.fixture(scope="module")
def complete_graph():
    """A complete graph over predict's chunk cap, as dense correction packs.
    Building its 68,382 edges takes most of a second, so it is built once."""
    rng = np.random.default_rng(19)
    return random_graph(PREDICT_CHUNK_NODES + 6, rng, k=ALL_NEIGHBORS)


class TestPackedBatch:
    @pytest.mark.parametrize("fields", ["onehot", "scalar"])
    def test_gathered_batch_equals_batch_of_those_graphs(self, complete_graph, fields):
        rng = np.random.default_rng(13)
        graphs = [random_graph(int(n), rng) for n in rng.integers(2, 9, 30)]
        graphs[4] = random_graph(1, rng)
        # edges not sorted by source; one tuple, so that each feature row
        # follows its edge rather than being recomputed from permuted edges
        perm = rng.permutation(graphs[7].n_edges)
        graphs[7].edges, graphs[7].edge_features = graphs[7].edges[perm], graphs[7].edge_features[perm]
        graphs[9] = complete_graph
        store = nn.PackedGraphs(graphs)
        subsets = [rng.choice(len(graphs), size=int(k), replace=False) for k in (1, 5, 16, 30)]
        subsets += [[4], [7, 4], [3, 3], [9], [4, 9, 7], list(range(len(graphs)))]
        for ids in subsets:
            chosen = [graphs[i] for i in ids]
            expected = reference_batch(chosen, own_means=[graphs[7]])
            names = BATCH_FIELDS[fields]
            assert_batches_identical(nn.make_batch(store, ids), expected, names)
            assert_batches_identical(nn.make_batch(chosen), expected, names)

    @pytest.mark.parametrize("permuted", [False, True], ids=["grouped", "permuted"])
    def test_store_sorts_only_edges_not_grouped_by_source(self, monkeypatch, permuted):
        rng = np.random.default_rng(16)
        graphs = [random_graph(int(n), rng, k=k) for n, k in zip(rng.integers(1, 12, 20), [5, ALL_NEIGHBORS] * 10)]
        graphs[3] = random_graph(6, rng)
        if permuted:
            perm = rng.permutation(graphs[3].n_edges)
            graphs[3].edges, graphs[3].edge_features = graphs[3].edges[perm], graphs[3].edge_features[perm]
            assert (np.diff(graphs[3].edges[:, 0]) < 0).any()
        sorts, argsort = [], np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **kw: sorts.append(a) or argsort(*a, **kw))
        store = nn.PackedGraphs(graphs)
        monkeypatch.undo()
        assert len(sorts) == permuted
        # the reference sums a permuted graph's edge means in its new edge
        # order; the store passes on the graph's own
        names = [f for f in BATCH_FIELDS["onehot"] + BATCH_FIELDS["scalar"] if f != "edge_mean"]
        for ids in ([3], [0, 3], [5, 1, 3], list(range(len(graphs)))):
            chosen = [graphs[i] for i in ids]
            batch = nn.make_batch(store, ids)
            assert_batches_identical(batch, reference_batch(chosen), names)
            assert batch.edge_mean.tobytes() == np.concatenate([g.edge_mean for g in chosen]).tobytes()

    @pytest.mark.parametrize("k", [5, ALL_NEIGHBORS])
    def test_box_columns_derived_from_boxes_bit_for_bit(self, k):
        rng = np.random.default_rng(17)
        graphs = [random_graph(n, rng, k=k) for n in (9, 1, 40)]
        for chosen in ([graphs[1]], graphs):
            x = nn.make_batch(chosen).x
            boxes = np.concatenate([g.boxes for g in chosen])
            assert x[:, N_CLASSES:].tobytes() == center_and_size(boxes).tobytes()

    def test_graphs_of_different_class_counts_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="n_classes"):
            nn.PackedGraphs([random_graph(3, rng), random_graph(3, rng, n_classes=6)])

    def test_graphs_drawn_must_match_the_node_counts_given(self):
        rng = np.random.default_rng(18)
        graphs = [random_graph(int(n), rng) for n in rng.integers(1, 9, 70)]
        sizes = [g.n_nodes for g in graphs]
        store = nn.PackedGraphs(iter(graphs), sizes, N_CLASSES)
        assert store.graph_nodes.tolist() == sizes
        # one count off, one graph short in either chunk, one graph too many
        for drawn, counts in (
            (graphs, sizes[:-1] + [sizes[-1] + 1]), (graphs[:-1], sizes),
            (graphs[:63] + graphs[64:], sizes), (graphs, sizes[:-1]),
        ):
            with pytest.raises(ValueError, match="node counts"):
                nn.PackedGraphs(iter(drawn), counts, N_CLASSES)


class TestMeanAggregate:
    def test_equals_per_node_sums(self, complete_graph):
        # mixed sizes pad the blocks; a one-node graph has an empty
        # neighbourhood; a complete graph exceeds predict's chunk cap
        rng = np.random.default_rng(15)
        graphs = [random_graph(n, rng) for n in (7, 1, 3, 12)] + [complete_graph]
        batch = nn.make_batch(graphs)
        h = rng.uniform(0.5, 2.0, (batch.n_nodes, 9))
        forward = np.zeros_like(h)
        transposed = np.zeros_like(h)
        offset = 0
        for g in graphs:
            # node i sums h[j] / deg(i) over its edges (i, j), and
            # transposed, h[j] / deg(j) over the edges (j, i)
            src, dst = offset + g.edges[:, 0], offset + g.edges[:, 1]
            share = 1.0 / np.bincount(g.edges[:, 0], minlength=g.n_nodes)[g.edges[:, 0]]
            np.add.at(forward, src, h[dst] * share[:, None])
            np.add.at(transposed, dst, h[src] * share[:, None])
            offset += g.n_nodes
        np.testing.assert_allclose(
            nn.mean_aggregate(batch.adj, batch.slot, h), forward, rtol=1e-13, atol=0
        )
        np.testing.assert_allclose(
            nn.mean_aggregate(batch.adj.transpose(0, 2, 1), batch.slot, h),
            transposed, rtol=1e-13, atol=0,
        )
        one_node = batch.slot[graphs[0].n_nodes]
        np.testing.assert_array_equal(batch.adj.reshape(-1, batch.adj.shape[2])[one_node], 0.0)
