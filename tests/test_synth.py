import numpy as np
import pytest

from scenegnn.corrupt import derive_seed
from scenegnn.scenegraph import Frame, SceneObject
from scenegnn.synth import MAX_RETRIES, MIN_VISIBLE_FRACTION, gen_template, render_views

from oracles import clamp_box


def scalar_render_views(template, n_frames, view_jitter, dropout_prob, seed):
    """render_views one class at a time: the oracle for its array expressions
    and for the order in which it draws from each frame's generator."""
    frames = []
    for i in range(n_frames):
        frame_id = f"frame_{i:05d}"
        rng = np.random.default_rng(derive_seed(seed, f"view/{frame_id}"))
        for _ in range(MAX_RETRIES):
            size = 1.0 / rng.uniform(*view_jitter)
            ox = rng.uniform(0.0, 1.0 - size)
            oy = rng.uniform(0.0, 1.0 - size)
            objects = []
            for cls in range(template.n_classes):
                cx, cy = template.anchors[cls]
                w, h = template.sizes[cls]
                x0, y0, x1, y1 = cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2
                ix = max(0.0, min(x1, ox + size) - max(x0, ox))
                iy = max(0.0, min(y1, oy + size) - max(y0, oy))
                if (ix * iy) / ((x1 - x0) * (y1 - y0)) < MIN_VISIBLE_FRACTION:
                    continue
                if dropout_prob > 0.0 and rng.random() < dropout_prob:
                    continue
                box = clamp_box(
                    (x0 - ox) / size, (y0 - oy) / size, (x1 - ox) / size, (y1 - oy) / size
                )
                objects.append(SceneObject(cls, box))
            if len(objects) >= 2:
                break
        frames.append(Frame(frame_id, tuple(objects)))
    return frames


def frame_bits(frames):
    """Frame ids, labels, and the bytes of every box's four floats."""
    ids = [f.frame_id for f in frames]
    labels = [[o.label_id for o in f.objects] for f in frames]
    boxes = np.array(
        [[o.bbox.x_min, o.bbox.y_min, o.bbox.x_max, o.bbox.y_max] for f in frames for o in f.objects]
    )
    return ids, labels, boxes.tobytes()


class TestGenTemplate:
    def test_quadrant_cells(self):
        t = gen_template(4, seed=0, grid=2)
        quads = {(int(a[0] > 0.5), int(a[1] > 0.5)) for a in t.anchors}
        assert len(quads) == 4

    def test_deterministic(self):
        a = gen_template(10, seed=3)
        b = gen_template(10, seed=3)
        assert np.array_equal(a.anchors, b.anchors)
        assert np.array_equal(a.sizes, b.sizes)

    def test_separation_over_seeds(self):
        for seed in range(100):
            t = gen_template(39, seed=seed)
            d = np.linalg.norm(t.anchors[:, None] - t.anchors[None, :], axis=2)
            np.fill_diagonal(d, np.inf)
            assert d.min() > 0.0
            # jittered 7x7 grid guarantees half-cell separation
            assert d.min() >= 0.5 / 7 - 1e-12

    def test_sizes_in_range(self):
        t = gen_template(39, seed=1)
        assert np.all(t.sizes > 0) and np.all(t.sizes <= 0.5)

    def test_capacity_checks(self):
        with pytest.raises(ValueError):
            gen_template(50, seed=0, grid=7)
        with pytest.raises(ValueError):
            gen_template(1, seed=0)
        with pytest.raises(ValueError):
            gen_template(65, seed=0)


class TestRenderViews:
    def test_identity_window_full_view(self):
        t = gen_template(8, seed=0)
        frames = render_views(t, 5, view_jitter=(1.0, 1.0), dropout_prob=0.0, seed=0)
        for f in frames:
            assert len(f.objects) == 8
            for o in f.objects:
                cx, cy = o.bbox.center
                ax, ay = t.anchors[o.label_id]
                assert cx == pytest.approx(ax, abs=1e-9)
                assert cy == pytest.approx(ay, abs=1e-9)

    def test_half_window_excludes_far_objects(self):
        t = gen_template(16, seed=2, grid=4)
        # zoom exactly 2 with seeded window; objects fully outside cannot appear
        frames = render_views(t, 20, view_jitter=(2.0, 2.0), dropout_prob=0.0, seed=4)
        assert all(2 <= len(f.objects) <= 16 for f in frames)

    def test_determinism(self):
        t = gen_template(12, seed=5)
        a = render_views(t, 10, dropout_prob=0.0, seed=9)
        b = render_views(t, 10, dropout_prob=0.0, seed=9)
        assert a == b

    def test_frames_pass_invariants(self):
        t = gen_template(39, seed=0)
        frames = render_views(t, 200, dropout_prob=0.1, seed=1)
        ids = set()
        for f in frames:
            assert f.frame_id not in ids
            ids.add(f.frame_id)
            assert len(f.objects) >= 2
            for o in f.objects:
                assert 0 <= o.label_id < 39
                # BoundingBox construction enforces the rest

    def test_every_class_appears_in_default_render(self):
        t = gen_template(39, seed=0)
        frames = render_views(t, 2000, dropout_prob=0.05, seed=0)
        seen = {o.label_id for f in frames for o in f.objects}
        assert seen == set(range(39))

    def test_rigid_layout_sign_pattern(self):
        # for any two classes fully visible in two frames, the sign of the
        # center displacement never flips (axis-aligned similarity windows);
        # partially visible boxes are border-clamped and can shift centers,
        # so they are excluded here
        t = gen_template(20, seed=7)
        frames = render_views(t, 60, dropout_prob=0.0, seed=3)
        eps = 1e-9
        sign = lambda v: 0 if abs(v) < eps else (1 if v > 0 else -1)
        inside = lambda b: b.x_min > eps and b.y_min > eps and b.x_max < 1 - eps and b.y_max < 1 - eps
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        for f in frames:
            centers = {o.label_id: o.bbox.center for o in f.objects if inside(o.bbox)}
            classes = sorted(centers)
            for i, a in enumerate(classes):
                for b in classes[i + 1:]:
                    sx = sign(centers[b][0] - centers[a][0])
                    sy = sign(centers[b][1] - centers[a][1])
                    if (a, b) in seen:
                        px, py = seen[(a, b)]
                        assert sx * px >= 0 and sy * py >= 0
                    else:
                        seen[(a, b)] = (sx, sy)

    def test_parameter_validation(self):
        t = gen_template(8, seed=0)
        with pytest.raises(ValueError):
            render_views(t, 2, dropout_prob=0.9, seed=0)
        with pytest.raises(ValueError):
            render_views(t, 2, view_jitter=(3.0, 1.5), seed=0)

    @pytest.mark.parametrize("view_jitter", [(1.0, 1.0), (1.5, 3.0)])
    @pytest.mark.parametrize("dropout_prob", [0.0, 0.05, 0.5])
    def test_equals_scalar_oracle_bit_for_bit(self, dropout_prob, view_jitter):
        t = gen_template(39, seed=4)
        frames = render_views(t, 150, view_jitter, dropout_prob, seed=6)
        expected = scalar_render_views(t, 150, view_jitter, dropout_prob, seed=6)
        assert frame_bits(frames) == frame_bits(expected)
