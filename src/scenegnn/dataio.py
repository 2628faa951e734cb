"""JSON-lines dataset formats and atomic file writing."""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import dataclass

from .geometry import BoundingBox
from .scenegraph import Detection, Frame

FRAMES_FORMAT_VERSION = 1

_FRAME_KEYS = {"frame_id", "objects"}
_OBJECT_KEYS = {"class_id", "bbox", "validity", "original_label"}
_DETECTION_KEYS = {"frame_id", "class_id", "bbox", "confidence"}


class FramesFileError(ValueError):
    """Malformed frames/detections file; message carries the line number."""


@dataclass
class FrameDataset:
    n_classes: int
    frames: list[Frame]


def atomic_write_text(path: str, data: str | bytes) -> None:
    """Write ``data`` via a temp file in the target's directory and a rename,
    so interrupted runs never truncate; the temp file goes on any failure. A
    symlink is written through: the temp file and the rename go beside the
    file it resolves to. An existing file keeps its mode; a new one gets the
    mode that ``open`` gives it, 0o666 less the umask."""
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as f:
            if os.path.exists(path):
                os.fchmod(f.fileno(), os.stat(path).st_mode & 0o7777)
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_float(value, name: str, line_no: int) -> float:
    """``value`` as a float: a JSON number, never a bool, a string or null."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise FramesFileError(f"line {line_no}: bad {name}: expected a number, got {value!r}")


def _bbox_corners(raw, line_no: int) -> list[float]:
    if not isinstance(raw, list) or len(raw) != 4:
        raise FramesFileError(f"line {line_no}: bbox must be a list of 4 floats")
    return [_json_float(v, "bbox", line_no) for v in raw]


def _parse_bbox(raw, line_no: int) -> BoundingBox:
    corners = _bbox_corners(raw, line_no)
    try:
        return BoundingBox(*corners)
    except ValueError as exc:
        raise FramesFileError(f"line {line_no}: invalid bbox: {exc}") from exc


def _json_str(value, name: str, line_no: int) -> str:
    """``value`` as it is: a JSON string, never a number or null."""
    if isinstance(value, str):
        return value
    raise FramesFileError(f"line {line_no}: bad {name}: expected a string, got {value!r}")


def _json_int(record: dict, key: str, line_no: int, default: int | None = None) -> int:
    """``record[key]`` as an int: a JSON integer or an integral number, never a
    bool or a string. A missing key gives ``default`` when there is one."""
    value = record.get(key, default)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if key not in record:
        raise FramesFileError(f"line {line_no}: missing field {key!r}")
    raise FramesFileError(f"line {line_no}: bad {key}: expected an integer, got {value!r}")


def _json_records(path: str) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file; a line
    that is not a JSON object is an error that names it."""
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # also an integer too long to convert
                raise FramesFileError(f"line {line_no}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise FramesFileError(f"line {line_no}: expected a JSON object")
            yield line_no, obj


def parse_frames(path: str, strict: bool = False) -> FrameDataset:
    """Read a frames JSONL file (header record first); errors carry line numbers."""
    frames: list[Frame] = []
    n_classes: int | None = None
    seen_ids: set[str] = set()
    for line_no, obj in _json_records(path):
        if line_no == 1:
            if "n_classes" not in obj:
                raise FramesFileError("line 1: missing header {n_classes, format_version}")
            if obj.get("format_version") != FRAMES_FORMAT_VERSION:
                raise FramesFileError(
                    f"line 1: unsupported format_version {obj.get('format_version')!r}"
                )
            n_classes = _json_int(obj, "n_classes", 1)
            if n_classes < 2:
                raise FramesFileError("line 1: n_classes must be >= 2")
            continue
        if n_classes is None:
            raise FramesFileError(f"line {line_no}: missing header on line 1")
        frames.append(_parse_frame_line(obj, line_no, n_classes, strict, seen_ids))
    if n_classes is None:
        raise FramesFileError("empty file: missing header record")
    return FrameDataset(n_classes=n_classes, frames=frames)


def _parse_frame_line(obj, line_no, n_classes, strict, seen_ids) -> Frame:
    if strict:
        extra = set(obj) - _FRAME_KEYS
        if extra:
            raise FramesFileError(f"line {line_no}: unknown fields {sorted(extra)}")
    try:
        frame_id, raw_objects = obj["frame_id"], obj["objects"]
    except KeyError as exc:
        raise FramesFileError(f"line {line_no}: missing field {exc}") from exc
    frame_id = _json_str(frame_id, "frame_id", line_no)
    if not isinstance(raw_objects, list):
        raise FramesFileError(f"line {line_no}: objects must be a list")
    if frame_id in seen_ids:
        raise FramesFileError(f"line {line_no}: duplicate frame_id {frame_id!r}")
    seen_ids.add(frame_id)

    boxes, labels, validity, original = [], [], [], []
    for o in raw_objects:
        if not isinstance(o, dict):
            raise FramesFileError(f"line {line_no}: each object must be a JSON object")
        if strict:
            extra = set(o) - _OBJECT_KEYS
            if extra:
                raise FramesFileError(f"line {line_no}: unknown object fields {sorted(extra)}")
        class_id = _json_int(o, "class_id", line_no)
        if not 0 <= class_id < n_classes:
            raise FramesFileError(
                f"line {line_no}: class_id {class_id} out of range [0, {n_classes})"
            )
        boxes.append(_bbox_corners(o.get("bbox"), line_no))
        labels.append(class_id)
        valid = o.get("validity", True)
        if not isinstance(valid, bool):
            raise FramesFileError(
                f"line {line_no}: bad validity: expected a boolean, got {valid!r}"
            )
        validity.append(valid)
        orig = _json_int(o, "original_label", line_no, default=class_id)
        if not 0 <= orig < n_classes:
            raise FramesFileError(f"line {line_no}: original_label {orig} out of range")
        original.append(orig)

    annotated = any("validity" in o or "original_label" in o for o in raw_objects)
    annotation = (validity, original) if annotated else ()
    try:
        return Frame.from_arrays(frame_id, boxes, labels, *annotation)
    except ValueError as exc:
        raise FramesFileError(f"line {line_no}: invalid bbox: {exc}") from exc


def frames_to_jsonl(dataset: FrameDataset) -> str:
    lines = [
        json.dumps({"n_classes": dataset.n_classes, "format_version": FRAMES_FORMAT_VERSION})
    ]
    for frame in dataset.frames:
        keys, columns = ["class_id", "bbox"], [frame.labels, frame.boxes]
        if frame.validity is not None:
            keys += ["validity", "original_label"]
            columns += [frame.validity, frame.original_labels]
        objs = [dict(zip(keys, values)) for values in zip(*(c.tolist() for c in columns))]
        lines.append(json.dumps({"frame_id": frame.frame_id, "objects": objs}))
    return "\n".join(lines) + "\n"


def write_frames(path: str, dataset: FrameDataset) -> None:
    atomic_write_text(path, frames_to_jsonl(dataset))


def parse_detections(
    path: str, strict: bool = False, n_classes: int | None = None
) -> list[Detection]:
    """Read a detections JSONL file; with ``n_classes``, a class_id outside
    [0, n_classes) is an error that names its line."""
    detections: list[Detection] = []
    for line_no, obj in _json_records(path):
        if strict:
            extra = set(obj) - _DETECTION_KEYS
            if extra:
                raise FramesFileError(f"line {line_no}: unknown fields {sorted(extra)}")
        bbox = _parse_bbox(obj.get("bbox"), line_no)
        class_id = _json_int(obj, "class_id", line_no)
        try:
            frame_id, confidence = obj["frame_id"], obj["confidence"]
        except KeyError as exc:
            raise FramesFileError(f"line {line_no}: missing field {exc}") from exc
        frame_id = _json_str(frame_id, "frame_id", line_no)
        confidence = _json_float(confidence, "confidence", line_no)
        try:
            det = Detection(frame_id=frame_id, class_id=class_id, bbox=bbox, confidence=confidence)
        except ValueError as exc:
            raise FramesFileError(f"line {line_no}: {exc}") from exc
        if n_classes is not None and not 0 <= det.class_id < n_classes:
            raise FramesFileError(
                f"line {line_no}: class_id {det.class_id} out of range [0, {n_classes})"
            )
        detections.append(det)
    return detections


def detections_to_jsonl(detections: list[Detection]) -> str:
    lines = [
        json.dumps(
            {
                "frame_id": d.frame_id,
                "class_id": int(d.class_id),
                "bbox": list(d.bbox.corners),
                "confidence": d.confidence,
            }
        )
        for d in detections
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_detections(path: str, detections: list[Detection]) -> None:
    atomic_write_text(path, detections_to_jsonl(detections))
