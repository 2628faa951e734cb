import numpy as np
import pytest

from scenegnn.correct import simulate_detector
from scenegnn.corrupt import CorruptionConfig, corrupt_frame, derive_seed, frame_rng
from scenegnn.geometry import BoundingBox
from scenegnn.scenegraph import Frame, SceneObject

from oracles import clamp_box


def make_frame(n_objects, n_classes=10, seed=0):
    rng = np.random.default_rng(seed)
    objs = []
    for i in range(n_objects):
        x0, y0 = rng.uniform(0, 0.7, 2)
        w, h = rng.uniform(0.05, 0.25, 2)
        objs.append(
            SceneObject(
                int(rng.integers(n_classes)),
                BoundingBox(x0, y0, min(1, x0 + w), min(1, y0 + h)),
            )
        )
    return Frame("frame_0", tuple(objs))


def scalar_corrupt_frame(frame, cfg, n_classes):
    """corrupt_frame one object at a time, with clamp_box: the oracle for its
    row expression and for the order of its draws from the frame's stream."""
    rng = frame_rng(cfg, frame.frame_id)
    objects, validity = list(frame.objects), [True] * len(frame.objects)
    m = int(rng.integers(1, min(cfg.rho, len(objects)) + 1))
    for i in rng.choice(len(objects), size=m, replace=False).tolist():
        new = int(rng.integers(0, n_classes - 1))
        if new >= objects[i].label_id:
            new += 1
        bbox = objects[i].bbox
        if cfg.jitter_sigma > 0.0:
            noise = rng.normal(0.0, cfg.jitter_sigma, size=4).tolist()
            bbox = clamp_box(*(c + e for c, e in zip(bbox.corners, noise)))
        objects[i], validity[i] = SceneObject(new, bbox), False
    return Frame(frame.frame_id, tuple(objects)), validity


def test_rho_zero_is_noop():
    frame = make_frame(5)
    cfg = CorruptionConfig(rho=0, jitter_sigma=0.05, seed=1)
    out = corrupt_frame(frame, cfg, 10)
    annotated = Frame.from_arrays("frame_0", frame.boxes, frame.labels, [True] * 5, frame.labels)
    assert out == annotated
    assert out.boxes is frame.boxes and out.labels is frame.labels  # read-only, so shared
    assert out.validity.all() and out.original_labels is frame.labels


def test_rho_one_zero_jitter():
    frame = make_frame(6)
    cfg = CorruptionConfig(rho=1, jitter_sigma=0.0, seed=2)
    out = corrupt_frame(frame, cfg, 10)
    validity, original = out.validity, out.original_labels
    assert (~validity).sum() == 1
    i = int(np.where(~validity)[0][0])
    assert out.objects[i].label_id != frame.objects[i].label_id
    for a, b in zip(out.objects, frame.objects):
        assert a.bbox == b.bbox  # bit-identical geometry


def test_rho_exceeding_frame_size():
    frame = make_frame(3)
    counts = set()
    for trial in range(10_000):
        cfg = CorruptionConfig(rho=5, jitter_sigma=0.0, seed=trial)
        out = corrupt_frame(frame, cfg, 10)
        validity = out.validity
        m = int((~validity).sum())
        assert 1 <= m <= 3
        counts.add(m)
    assert counts == {1, 2, 3}


def test_swapped_label_never_equals_original():
    frame = make_frame(8, n_classes=3)
    for trial in range(500):
        cfg = CorruptionConfig(rho=4, jitter_sigma=0.02, seed=trial)
        out = corrupt_frame(frame, cfg, 3)
        validity, original = out.validity, out.original_labels
        for i in np.where(~validity)[0]:
            assert out.objects[i].label_id != original[i]
            assert 0 <= out.objects[i].label_id < 3
        for i in np.where(validity)[0]:
            assert out.objects[i] == frame.objects[i]


def test_determinism():
    frame = make_frame(7)
    cfg = CorruptionConfig(rho=3, jitter_sigma=0.05, seed=42)
    a = corrupt_frame(frame, cfg, 10)
    b = corrupt_frame(frame, cfg, 10)
    assert a == b  # annotation included


def test_corrupting_twice_keeps_the_clean_labels_as_original():
    clean = make_frame(8)
    for trial in range(50):
        once = corrupt_frame(clean, CorruptionConfig(rho=4, seed=2 * trial), 10)
        twice = corrupt_frame(once, CorruptionConfig(rho=4, seed=2 * trial + 1), 10)
        assert (twice.labels != once.labels).any()
        for out in (once, twice):
            assert np.array_equal(out.original_labels, clean.labels)
            assert np.array_equal(out.validity, out.labels == clean.labels)


def test_jittered_boxes_stay_valid():
    frame = make_frame(6)
    for trial in range(200):
        cfg = CorruptionConfig(rho=6, jitter_sigma=0.5, seed=trial)
        out = corrupt_frame(frame, cfg, 10)
        for o in out.objects:
            assert 0.0 <= o.bbox.x_min <= o.bbox.x_max <= 1.0
            assert 0.0 <= o.bbox.y_min <= o.bbox.y_max <= 1.0


def test_input_frame_bytes_unchanged():
    frame = make_frame(8)
    boxes, labels = frame.boxes.tobytes(), frame.labels.tobytes()
    cfg = CorruptionConfig(rho=5, jitter_sigma=0.05, seed=2)
    out = corrupt_frame(frame, cfg, 10)
    validity, original = out.validity, out.original_labels
    assert (~validity).any() and out.boxes.tobytes() != boxes
    assert frame.boxes.tobytes() == boxes and frame.labels.tobytes() == labels
    assert original is frame.labels and not original.flags.writeable  # shared, not copied
    assert not validity.flags.writeable


def test_empty_frame_rejected():
    cfg = CorruptionConfig(rho=1, seed=0)
    with pytest.raises(ValueError, match="frame 'e' has no objects"):
        corrupt_frame(Frame("e", ()), cfg, 10)


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        CorruptionConfig(rho=-1)
    for sigma in (-0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="^jitter_sigma must be finite and >= 0"):
            CorruptionConfig(jitter_sigma=sigma)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rho", 1.5, "rho must be an integer"),
        ("rho", True, "rho must be an integer"),
        ("rho", "2", "rho must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("seed", "x", "seed must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("seed", -1, "seed must be >= 0"),
        ("jitter_sigma", True, "jitter_sigma must be finite"),
        ("jitter_sigma", "0.1", "jitter_sigma must be finite"),
        ("jitter_sigma", None, "jitter_sigma must be finite"),
    ],
)
def test_values_of_another_kind_rejected(field, value, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        CorruptionConfig(**{field: value})


def test_numpy_scalars_accepted():
    cfg = CorruptionConfig(rho=np.int64(2), jitter_sigma=np.float32(0.0), seed=np.uint64(5))
    out = corrupt_frame(make_frame(4), cfg, 10)
    validity = out.validity
    assert (~validity).sum() in (1, 2)


def test_simulate_detector_checks_its_arguments():
    frames = [make_frame(3)]
    for kwargs in ({"rho_det": 1.5}, {"sigma_det": True}, {"seed": "x"}):
        with pytest.raises(ValueError):
            simulate_detector(frames, 10, **kwargs)


@pytest.mark.parametrize("sigma", [0.0, 0.01, 0.3, 2.0])
def test_matches_scalar_oracle(sigma):
    # the frame's stream decides every draw: ids and seeds vary them
    at_zero = at_one = 0
    for trial in range(150):
        frame = make_frame(6, seed=trial)
        frame = Frame.from_arrays(f"frame_{trial}", frame.boxes, frame.labels)
        cfg = CorruptionConfig(rho=4, jitter_sigma=sigma, seed=trial % 7)
        out = corrupt_frame(frame, cfg, 10)
        validity, original = out.validity, out.original_labels
        ref, ref_validity = scalar_corrupt_frame(frame, cfg, 10)
        assert out.boxes.tobytes() == ref.boxes.tobytes()
        assert out.labels.tobytes() == ref.labels.tobytes()
        assert validity.tolist() == ref_validity
        assert original.tobytes() == frame.labels.tobytes()
        at_zero += int((out.boxes[~validity] == 0.0).sum())
        at_one += int((out.boxes[~validity] == 1.0).sum())
    if sigma >= 0.3:  # clamped at both bounds
        assert at_zero > 0 and at_one > 0


def test_derive_seed_stable_and_distinct():
    assert derive_seed(7, "a") == derive_seed(7, "a")
    assert derive_seed(7, "a") != derive_seed(7, "b")
    assert derive_seed(7, "a") != derive_seed(8, "a")
