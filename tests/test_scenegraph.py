import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenegnn.geometry import BoundingBox, pairwise_geometry
from scenegnn.scenegraph import (
    ALL_NEIGHBORS,
    Frame,
    SceneObject,
    box_features,
    build_graph,
    knn_edges,
    normalize_edge_column,
)

from oracles import (
    center_and_size,
    corners_near_bounds,
    edge_means,
    edge_rows,
    normalize_edge_features,
)


def obj(label, x0, y0, x1, y1):
    return SceneObject(label, BoundingBox(x0, y0, x1, y1))


def point_obj(label, cx, cy, half=0.01):
    return obj(
        label,
        max(0.0, cx - half),
        max(0.0, cy - half),
        min(1.0, cx + half),
        min(1.0, cy + half),
    )


@st.composite
def frames(draw, n_classes=8):
    n = draw(st.integers(2, 10))
    objs = []
    for _ in range(n):
        x0, y0 = draw(st.floats(0, 0.8)), draw(st.floats(0, 0.8))
        w, h = draw(st.floats(0.01, 0.2)), draw(st.floats(0.01, 0.2))
        objs.append(
            obj(draw(st.integers(0, n_classes - 1)), x0, y0, min(1, x0 + w), min(1, y0 + h))
        )
    return Frame("f", tuple(objs))


# Coordinates on a coarse dyadic grid: centres and squared distances are
# exact in float64, so boxes coincide, distances tie and widths reach zero.
GRID = [0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0]


@st.composite
def adversarial_frames(draw):
    """(frame, n_classes): 1-9 objects with zero-area and duplicated boxes,
    coincident centres, exact distance ties, and sometimes one class only."""
    n_classes = draw(st.sampled_from([2, 3, 39]))
    single = draw(st.integers(0, n_classes - 1)) if draw(st.booleans()) else None
    coord = st.sampled_from(GRID) | st.floats(0, 1)
    objs = []
    for _ in range(draw(st.integers(1, 9))):
        if objs and draw(st.integers(0, 3)) == 0:
            objs.append(draw(st.sampled_from(objs)))
            continue
        x0, x1 = sorted((draw(coord), draw(coord)))
        y0, y1 = sorted((draw(coord), draw(coord)))
        label = draw(st.integers(0, n_classes - 1)) if single is None else single
        objs.append(obj(label, x0, y0, x1, y1))
    return Frame("f", tuple(objs)), n_classes


def reference_edges(frame, k):
    """Per node, the others sorted by (distance, index), the first k kept;
    union with the reverse edges; sorted."""
    centers = [o.bbox.center for o in frame.objects]
    n = len(centers)
    kk = n - 1 if k == ALL_NEIGHBORS else min(k, n - 1)
    edges = set()
    for i, (xi, yi) in enumerate(centers):
        ranked = sorted(
            (math.sqrt((xi - xj) * (xi - xj) + (yi - yj) * (yi - yj)), j)
            for j, (xj, yj) in enumerate(centers)
            if j != i
        )
        edges |= {(i, j) for _, j in ranked[:kk]} | {(j, i) for _, j in ranked[:kk]}
    return [list(e) for e in sorted(edges)]


def node_features(o, n_classes):
    """[x_center, y_center, w, h] of one object: its class is not among them."""
    return box_features(build_graph(Frame("f", (o,)), 1, n_classes).boxes)[0]


def centers(objs):
    return np.array([o.bbox.center for o in objs])


def assert_checked_as_bounding_box(rows):
    """Frame.from_arrays raises BoundingBox's message for the first row that
    BoundingBox rejects, and accepts the rows when it rejects none."""
    labels = list(range(len(rows)))
    for row in rows:
        try:
            BoundingBox(*row)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                Frame.from_arrays("f", rows, labels)
            assert str(info.value) == str(exc)
            return
    assert Frame.from_arrays("f", rows, labels).boxes.tolist() == [list(r) for r in rows]


class TestFrameArrays:
    @given(st.lists(corners_near_bounds(), max_size=6))
    @settings(max_examples=400)
    def test_accepts_and_rejects_exactly_as_bounding_box(self, rows):
        assert_checked_as_bounding_box(rows)

    def test_every_edge_value_in_every_position(self):
        for row in edge_rows():
            assert_checked_as_bounding_box([(0.1, 0.2, 0.3, 0.4), row])

    @given(adversarial_frames())
    def test_objects_round_trip_bit_for_bit(self, case):
        frame, _ = case
        objects = frame.objects
        assert np.array([o.bbox.corners for o in objects]).tobytes() == frame.boxes.tobytes()
        assert [o.label_id for o in objects] == frame.labels.tolist()
        assert all(type(o.label_id) is int for o in objects)
        back = Frame("f", objects)
        assert back.boxes.tobytes() == frame.boxes.tobytes()
        assert back.labels.tobytes() == frame.labels.tobytes()
        assert back == frame and back.objects == objects

    def test_signed_zero_and_subnormal_kept(self):
        row = [-0.0, 5e-324, 0.5, 1.0]
        (o,) = Frame.from_arrays("f", [row], [3]).objects
        assert np.array(o.bbox.corners).tobytes() == np.array(row).tobytes()

    def test_arrays_are_read_only_copies(self):
        boxes = np.array([[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.5, 0.6]])
        labels = np.array([4, 2])
        frame = Frame.from_arrays("f", boxes, labels)
        with pytest.raises(ValueError, match="read-only"):
            frame.boxes[0, 0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            frame.labels[0] = 1
        boxes[0, 0], labels[0] = 0.0, 1
        assert frame.boxes[0, 0] == 0.1 and frame.labels[0] == 4
        assert frame.boxes.dtype == np.float64 and frame.labels.dtype == np.int64

    def test_compares_by_value(self):
        rows, labels = [[0.1, 0.1, 0.2, 0.2]], [1]
        frame = Frame.from_arrays("f", rows, labels)
        assert frame == Frame("f", (obj(1, 0.1, 0.1, 0.2, 0.2),))
        assert frame != Frame.from_arrays("g", rows, labels)
        assert frame != Frame.from_arrays("f", rows, [2])
        assert frame != Frame.from_arrays("f", [[0.1, 0.1, 0.2, 0.3]], labels)

    @pytest.mark.parametrize(
        "boxes, labels",
        [([[0.1, 0.1, 0.2, 0.2]], [1, 2]), ([0.1, 0.1, 0.2, 0.2], [1]), ([[0.1, 0.2]], [1])],
    )
    def test_rejects_mismatched_shapes(self, boxes, labels):
        with pytest.raises(ValueError, match="expected N x 4 boxes and N labels"):
            Frame.from_arrays("f", boxes, labels)

    def test_annotation_comes_whole_and_at_length(self):
        rows, labels = [[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.5, 0.6]], [4, 2]
        for annotation in ({"validity": [True, False]}, {"original_labels": [4, 2]}):
            with pytest.raises(ValueError, match="given together or not at all"):
                Frame.from_arrays("f", rows, labels, **annotation)
        for validity, original in (([True], [4, 2]), ([True, False], [4, 2, 1]), ([], [])):
            with pytest.raises(ValueError, match="expected 2 validity flags and original labels"):
                Frame.from_arrays("f", rows, labels, validity, original)

    def test_annotation_is_read_only_and_compared(self):
        rows, labels = [[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.5, 0.6]], [4, 2]
        plain = Frame.from_arrays("f", rows, labels)
        assert plain.validity is None and plain.original_labels is None
        validity, original = np.array([True, False]), np.array([4, 1])
        frame = Frame.from_arrays("f", rows, labels, validity, original)
        for arr in (frame.validity, frame.original_labels):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[1]
        validity[0], original[0] = False, 0  # the frame holds copies
        assert frame.validity.tolist() == [True, False] and frame.original_labels.tolist() == [4, 1]
        assert frame.validity.dtype == bool and frame.original_labels.dtype == np.int64
        assert frame == Frame.from_arrays("f", rows, labels, [True, False], [4, 1])
        assert frame != plain and plain != frame
        assert frame != Frame.from_arrays("f", rows, labels, [True, True], [4, 1])
        assert frame != Frame.from_arrays("f", rows, labels, [True, False], [4, 2])

    def test_read_only_arrays_that_own_their_data_are_shared(self):
        frame = Frame.from_arrays("f", [[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.5, 0.6]], [4, 2])
        twin = Frame.from_arrays("g", frame.boxes, frame.labels, [True, True], frame.labels)
        assert twin.boxes is frame.boxes and twin.labels is frame.labels
        assert twin.original_labels is frame.labels
        view = frame.labels[::-1]  # read-only, but a view of another array's data
        assert Frame.from_arrays("h", frame.boxes, view).labels is not view

    def test_empty_frame(self):
        frame = Frame("e", ())
        assert frame.boxes.shape == (0, 4) and frame.labels.shape == (0,)
        assert frame.objects == () and frame == Frame.from_arrays("e", [], [])


class TestNodeFeatures:
    def test_full_frame_first_class(self):
        f = node_features(obj(0, 0, 0, 1, 1), 39)
        assert f.tolist() == [0.5, 0.5, 1.0, 1.0]

    def test_last_class(self):
        f = node_features(obj(38, 0.2, 0.2, 0.4, 0.6), 39)
        assert f == pytest.approx([0.3, 0.4, 0.2, 0.4])

    def test_middle_class_degenerate_box(self):
        f = node_features(obj(19, 0.5, 0.5, 0.5, 0.5), 39)
        assert f == pytest.approx([0.5, 0.5, 0.0, 0.0])

    def test_range(self):
        f = node_features(obj(3, 0.1, 0.2, 0.9, 0.95), 5)
        assert np.all((f >= 0) & (f <= 1))

    @pytest.mark.parametrize("k", [5, ALL_NEIGHBORS])
    @pytest.mark.parametrize("n", [1, 9, 40])
    def test_derived_from_boxes_bit_for_bit(self, n, k):
        rng = np.random.default_rng(n)
        objs = [point_obj(int(rng.integers(39)), *rng.uniform(0.05, 0.95, 2), rng.uniform(0, 0.05))
                for _ in range(n)]
        g = build_graph(Frame("f", tuple(objs)), k, 39)
        features = box_features(g.boxes)
        assert features.dtype == np.float64 and features.shape == (n, 4)
        assert features.tobytes() == center_and_size(g.boxes).tobytes()


class TestKnnEdges:
    def test_small_frame_complete(self):
        objs = [point_obj(0, 0.1, 0.1), point_obj(1, 0.5, 0.5), point_obj(2, 0.9, 0.1)]
        edges = {tuple(e) for e in knn_edges(centers(objs), 5)}
        assert edges == {(i, j) for i in range(3) for j in range(3) if i != j}

    def test_hand_sorted_k1(self):
        objs = [point_obj(0, 0.0, 0.05), point_obj(1, 0.0, 0.1), point_obj(2, 0.0, 0.9)]
        # use exact centers (0,0), (0,0.1), (0,0.9)
        objs = [
            SceneObject(0, BoundingBox(0, 0, 0, 0)),
            SceneObject(1, BoundingBox(0, 0.1, 0, 0.1)),
            SceneObject(2, BoundingBox(0, 0.9, 0, 0.9)),
        ]
        edges = {tuple(e) for e in knn_edges(centers(objs), 1)}
        assert edges == {(0, 1), (1, 0), (2, 1), (1, 2)}

    def test_single_node(self):
        assert knn_edges(centers([point_obj(0, 0.5, 0.5)]), 3).shape == (0, 2)

    def test_tie_break_lower_index(self):
        # nodes 1 and 2 equidistant from node 0, but nearest to each other,
        # so symmetrization cannot re-introduce (0, 2)
        # exactly representable coordinates so the tie is exact in float64
        objs = [
            SceneObject(0, BoundingBox(0.5, 0.0, 0.5, 0.0)),
            SceneObject(1, BoundingBox(0.25, 0.5, 0.25, 0.5)),
            SceneObject(2, BoundingBox(0.75, 0.5, 0.75, 0.5)),
        ]
        edges = {tuple(e) for e in knn_edges(centers(objs), 1)}
        assert edges == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_all_equals_complete(self):
        objs = [point_obj(i, 0.1 * (i + 1), 0.2 * (i + 1) % 1) for i in range(5)]
        assert np.array_equal(knn_edges(centers(objs), ALL_NEIGHBORS), knn_edges(centers(objs), 4))

    @pytest.mark.parametrize("k", [0, -2])
    def test_k_below_one_rejected(self, k):
        objs = [point_obj(i, 0.1 * (i + 1), 0.15 * (i + 1)) for i in range(6)]
        with pytest.raises(ValueError, match="k must be >= 1"):
            knn_edges(centers(objs), k)
        with pytest.raises(ValueError, match="k must be >= 1"):
            knn_edges(centers(objs[:1]), k)

    @given(frames())
    @settings(max_examples=50)
    def test_symmetrized(self, frame):
        edges = {tuple(e) for e in knn_edges(centers(frame.objects), 3)}
        assert all((j, i) in edges for (i, j) in edges)
        assert all(i != j for (i, j) in edges)


class TestBuildGraph:
    def test_rejects_empty_frame(self):
        with pytest.raises(ValueError):
            build_graph(Frame("e", ()), 5, 10)

    @pytest.mark.parametrize("label", [-1, 10])
    def test_rejects_out_of_range_label(self, label):
        frame = Frame("f", (point_obj(2, 0.2, 0.2), point_obj(label, 0.7, 0.7)))
        with pytest.raises(ValueError, match=f"label_id {label} out of range for 10 classes"):
            build_graph(frame, 5, 10)

    @pytest.mark.parametrize("original", [-1, 10])
    def test_rejects_out_of_range_original_label(self, original):
        plain = Frame("f", (point_obj(2, 0.2, 0.2), point_obj(3, 0.7, 0.7)))
        frame = Frame.from_arrays("f", plain.boxes, plain.labels, [True, False], [2, original])
        match = f"original_label {original} out of range for 10 classes"
        with pytest.raises(ValueError, match=match):
            build_graph(frame, 5, 10)

    @pytest.mark.parametrize("n_classes", [1, 0])
    def test_rejects_fewer_than_two_classes(self, n_classes):
        frame = Frame("f", (point_obj(0, 0.2, 0.2), point_obj(0, 0.7, 0.7)))
        with pytest.raises(ValueError, match="n_classes must be >= 2"):
            build_graph(frame, 5, n_classes)

    @given(adversarial_frames(), st.sampled_from([1, 3, ALL_NEIGHBORS]))
    @settings(max_examples=150)
    def test_adversarial_frames_match_scalar_reference(self, case, k):
        frame, n_classes = case
        g = build_graph(frame, k, n_classes)
        assert g.edges.dtype == np.int32 and g.edges.shape == (g.n_edges, 2)
        assert g.edges.tolist() == reference_edges(frame, k)
        expected = np.array(
            [
                [*o.bbox.center, o.bbox.width, o.bbox.height]
                for o in frame.objects
            ]
        )
        assert box_features(g.boxes).tobytes() == expected.tobytes()
        assert np.isfinite(box_features(g.boxes)).all() and np.isfinite(g.edge_features).all()
        # edge features bit for bit against the scalar geometry, (0, 6) for one object
        boxes = [o.bbox for o in frame.objects]
        expected_edges = [
            pairwise_geometry(boxes[i], boxes[j]).as_tuple() for i, j in reference_edges(frame, k)
        ]
        assert g.edge_features.dtype == np.float64 and g.edge_features.shape == (g.n_edges, 6)
        assert g.edge_features.tobytes() == np.array(expected_edges).reshape(-1, 6).tobytes()

    @given(adversarial_frames(), st.sampled_from([5, ALL_NEIGHBORS]))
    @settings(max_examples=150)
    def test_edge_mean_matches_scalar_oracle(self, case, k):
        frame, n_classes = case
        g = build_graph(frame, k, n_classes)
        assert g.edge_mean.dtype == np.float64 and g.edge_mean.shape == (g.n_nodes, 6)
        assert g.edge_mean.tobytes() == edge_means(g).tobytes()

    @pytest.mark.parametrize("k", [5, ALL_NEIGHBORS])
    def test_edge_mean_of_desk_sized_frames(self, k):
        rng = np.random.default_rng(21)
        for n in (1, 2, 9, 40):
            objs = [point_obj(int(rng.integers(39)), *rng.uniform(0.05, 0.95, 2)) for _ in range(n)]
            g = build_graph(Frame("f", tuple(objs)), k, 39)
            assert g.edge_mean.tobytes() == edge_means(g).tobytes()
            if n == 1:  # no out-edges: zero rows
                assert g.edge_features.shape == (0, 6) and g.edge_mean.tolist() == [[0.0] * 6]

    def test_edge_features_computed_once(self):
        g = build_graph(Frame("f", (point_obj(1, 0.2, 0.2), point_obj(3, 0.7, 0.7))), 5, 10)
        first = g.edge_features
        assert g.edge_features is first

    def test_graph_shares_the_frames_read_only_arrays(self):
        frame = Frame("f", (point_obj(1, 0.2, 0.2), point_obj(3, 0.7, 0.7)))
        g = build_graph(frame, 5, 10)
        assert g.boxes is frame.boxes
        assert g.current_labels is frame.labels and g.original_labels is frame.labels
        assert not g.current_labels.flags.writeable

    def test_graph_shares_an_annotated_frames_arrays(self):
        plain = Frame("f", (point_obj(1, 0.2, 0.2), point_obj(3, 0.7, 0.7)))
        frame = Frame.from_arrays("f", plain.boxes, plain.labels, [True, False], [1, 2])
        g = build_graph(frame, 5, 10)
        assert g.boxes is frame.boxes and g.current_labels is frame.labels
        assert g.validity is frame.validity and g.original_labels is frame.original_labels

    def test_two_object_frame(self):
        frame = Frame("f", (point_obj(1, 0.2, 0.2), point_obj(3, 0.7, 0.7)))
        g = build_graph(frame, 5, 10)
        assert g.n_nodes == 2 and g.n_edges == 2
        rows = {tuple(e): f for e, f in zip(map(tuple, g.edges), g.edge_features)}
        np.testing.assert_allclose(rows[(0, 1)][:2], -rows[(1, 0)][:2])

    def test_out_degree_at_least_k(self):
        rng = np.random.default_rng(5)
        objs = [point_obj(i, *rng.uniform(0.05, 0.95, 2)) for i in range(10)]
        g = build_graph(Frame("f", tuple(objs)), 5, 10)
        out_deg = np.bincount(g.edges[:, 0], minlength=10)
        assert np.all(out_deg >= 5)
        # brute-force: the 5 nearest neighbors of each node are all linked
        centers = np.array([o.bbox.center for o in objs])
        edge_set = {tuple(e) for e in g.edges}
        for i in range(10):
            d = np.linalg.norm(centers - centers[i], axis=1)
            d[i] = np.inf
            for j in np.argsort(d, kind="stable")[:5]:
                assert (i, int(j)) in edge_set

    def test_all_matches_n_minus_1(self):
        rng = np.random.default_rng(3)
        objs = [point_obj(i, *rng.uniform(0.1, 0.9, 2)) for i in range(6)]
        frame = Frame("f", tuple(objs))
        g_all = build_graph(frame, ALL_NEIGHBORS, 10)
        g_k = build_graph(frame, 5, 10)
        assert np.array_equal(g_all.edges, g_k.edges)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        objs = tuple(point_obj(i % 4, *rng.uniform(0.1, 0.9, 2)) for i in range(7))
        a = build_graph(Frame("f", objs), 3, 4)
        b = build_graph(Frame("f", objs), 3, 4)
        assert np.array_equal(box_features(a.boxes), box_features(b.boxes))
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.edge_features, b.edge_features)

    @given(frames())
    @settings(max_examples=30)
    def test_edge_features_match_recomputation(self, frame):
        g = build_graph(frame, 3, 8)
        boxes = [o.bbox for o in frame.objects]
        for (i, j), row in zip(g.edges, g.edge_features):
            expected = np.array(pairwise_geometry(boxes[i], boxes[j]).as_tuple())
            assert np.array_equal(row, expected)

    @given(frames())
    @settings(max_examples=30)
    def test_theta_and_distance_ranges(self, frame):
        g = build_graph(frame, 3, 8)
        if g.n_edges:
            assert np.all(g.edge_features[:, 3] > -180)
            assert np.all(g.edge_features[:, 3] <= 180)
            assert np.all(g.edge_features[:, 2] <= np.sqrt(2) + 1e-12)

    @given(frames(), st.randoms(use_true_random=False))
    @settings(max_examples=30)
    def test_permutation_isomorphism(self, frame, rnd):
        perm = list(range(len(frame.objects)))
        rnd.shuffle(perm)
        permuted = Frame("f", tuple(frame.objects[p] for p in perm))
        g1 = build_graph(frame, 3, 8)
        g2 = build_graph(permuted, 3, 8)
        # same multiset of (label, node feature row)
        rows = lambda g: sorted(zip(g.current_labels.tolist(), map(tuple, box_features(g.boxes))))
        assert rows(g1) == rows(g2)
        inv = {p: i for i, p in enumerate(perm)}
        mapped = {(inv[i], inv[j]) for i, j in g1.edges}
        assert mapped == {tuple(e) for e in g2.edges}


def normalized(raw):
    """All six columns of ``raw`` through ``normalize_edge_column``."""
    return np.column_stack([normalize_edge_column(raw[:, c], c) for c in range(6)])


class TestNormalization:
    def test_angle_and_ratio_scaling(self):
        raw = np.array([[0.5, -0.5, 0.7, 180.0, 0.3, np.e - 1.0]])
        out = normalized(raw)
        assert out[0, 3] == pytest.approx(1.0)
        assert out[0, 5] == pytest.approx(1.0)
        # untouched columns
        assert out[0, :3] == pytest.approx([0.5, -0.5, 0.7])
        # raw input not mutated
        assert raw[0, 3] == 180.0
        assert out.tobytes() == normalize_edge_features(raw).tobytes()

    def test_equals_sign_preserving_log1p_bit_for_bit(self):
        rng = np.random.default_rng(5)
        objs = [
            obj(0, x0, y0, x0 + w, y0 + h)
            for x0, y0, w, h in rng.uniform([0, 0, 0, 0], [0.8, 0.8, 0.2, 0.2], (12, 4))
        ]
        objs.append(obj(0, 0.4, 0.4, 0.4, 0.6))  # zero area: the ratio hits its cap
        raw = build_graph(Frame("f", tuple(objs)), ALL_NEIGHBORS, 2).edge_features
        expected = raw.copy()
        expected[:, 3] /= 180.0
        expected[:, 5] = np.sign(raw[:, 5]) * np.log1p(np.abs(raw[:, 5]))
        assert np.array_equal(normalized(raw), expected)
        assert np.array_equal(normalize_edge_features(raw), expected)
        assert normalized(np.zeros((0, 6))).shape == (0, 6)
