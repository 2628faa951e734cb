"""JSONL frame/detection files: round trips, validation, atomic writes."""

from __future__ import annotations

import json
import os
import stat

import numpy as np
import pytest

from scenegnn.dataio import (
    FrameDataset,
    FramesFileError,
    atomic_write_text,
    parse_detections,
    parse_frames,
    write_detections,
    write_frames,
)
from scenegnn.geometry import BoundingBox
from scenegnn.metrics import Detection
from scenegnn.scenegraph import Frame, SceneObject


def _dataset() -> FrameDataset:
    frames = [
        Frame(
            "a",
            (
                SceneObject(0, BoundingBox(0.1, 0.1, 0.3, 0.3)),
                SceneObject(2, BoundingBox(0.5, 0.5, 0.9, 0.7)),
            ),
        ),
        Frame("b", (SceneObject(1, BoundingBox(0.0, 0.0, 1.0, 1.0)),)),
    ]
    return FrameDataset(n_classes=3, frames=frames)


class TestFramesRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        path = str(tmp_path / "frames.jsonl")
        write_frames(path, _dataset())
        back = parse_frames(path)
        assert back.n_classes == 3
        assert [f.frame_id for f in back.frames] == ["a", "b"]
        assert back.frames == _dataset().frames

    def test_round_trip_with_validity(self, tmp_path):
        path = str(tmp_path / "frames.jsonl")
        ds = _dataset()
        a = ds.frames[0]
        ds.frames[0] = Frame.from_arrays("a", a.boxes, a.labels, [True, False], [0, 1])
        write_frames(path, ds)
        back = parse_frames(path)
        np.testing.assert_array_equal(back.frames[0].validity, [True, False])
        np.testing.assert_array_equal(back.frames[0].original_labels, [0, 1])
        assert back.frames[1].validity is None and back.frames[1].original_labels is None
        assert back.frames == ds.frames

    def test_detections_round_trip(self, tmp_path):
        path = str(tmp_path / "dets.jsonl")
        dets = [
            Detection("a", 1, BoundingBox(0.1, 0.2, 0.3, 0.4), 0.75),
            Detection("b", 0, BoundingBox(0.0, 0.0, 0.5, 0.5), 1.0),
        ]
        write_detections(path, dets)
        assert parse_detections(path) == dets

    def test_empty_detections_file(self, tmp_path):
        path = str(tmp_path / "dets.jsonl")
        write_detections(path, [])
        assert parse_detections(path) == []


class TestFramesValidation:
    def _write(self, tmp_path, lines: list[str]) -> str:
        path = str(tmp_path / "f.jsonl")
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def test_missing_header(self, tmp_path):
        path = self._write(tmp_path, ['{"frame_id": "a", "objects": []}'])
        with pytest.raises(FramesFileError, match="line 1"):
            parse_frames(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, [""])
        with pytest.raises(FramesFileError, match="empty file"):
            parse_frames(path)

    def test_header_only_gives_empty_dataset(self, tmp_path):
        path = self._write(tmp_path, ['{"n_classes": 5, "format_version": 1}'])
        ds = parse_frames(path)
        assert ds.n_classes == 5 and ds.frames == []

    def test_wrong_format_version(self, tmp_path):
        path = self._write(tmp_path, ['{"n_classes": 5, "format_version": 99}'])
        with pytest.raises(FramesFileError, match="format_version"):
            parse_frames(path)

    def test_class_id_out_of_range_reports_line(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"n_classes": 3, "format_version": 1}',
                '{"frame_id": "a", "objects": [{"class_id": 3, "bbox": [0.1, 0.1, 0.2, 0.2]}]}',
            ],
        )
        with pytest.raises(FramesFileError, match=r"line 2.*out of range"):
            parse_frames(path)

    def test_duplicate_frame_id(self, tmp_path):
        row = '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2]}]}'
        path = self._write(
            tmp_path, ['{"n_classes": 3, "format_version": 1}', row, row]
        )
        with pytest.raises(FramesFileError, match=r"line 3.*duplicate"):
            parse_frames(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = self._write(
            tmp_path, ['{"n_classes": 3, "format_version": 1}', "{not json"]
        )
        with pytest.raises(FramesFileError, match="line 2"):
            parse_frames(path)

    def test_bad_bbox(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"n_classes": 3, "format_version": 1}',
                '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.5, 0.5, 0.1]}]}',
            ],
        )
        with pytest.raises(FramesFileError, match="bbox"):
            parse_frames(path)

    def test_strict_rejects_unknown_fields(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"n_classes": 3, "format_version": 1}',
                '{"frame_id": "a", "objects": [], "extra": 1}',
            ],
        )
        parse_frames(path)  # lenient mode accepts
        with pytest.raises(FramesFileError, match="unknown fields"):
            parse_frames(path, strict=True)

    def test_strict_rejects_unknown_object_fields(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"n_classes": 3, "format_version": 1}',
                '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "score": 1}]}',
            ],
        )
        parse_frames(path)
        with pytest.raises(FramesFileError, match="unknown object fields"):
            parse_frames(path, strict=True)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("5", "line 2: expected a JSON object"),
            ("[1, 2]", "line 2: expected a JSON object"),
            ('{"frame_id": "a", "objects": 5}', "line 2: objects must be a list"),
            ('{"frame_id": "a", "objects": {"class_id": 0}}', "line 2: objects must be a list"),
            ('{"frame_id": "a", "objects": [7]}', "line 2: each object must be a JSON object"),
            (
                '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2],'
                ' "original_label": [1]}]}',
                "line 2: bad original_label",
            ),
            (
                '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2],'
                ' "validity": "false", "original_label": 1}]}',
                "line 2: bad validity",
            ),
            (
                '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2],'
                ' "validity": 0}]}',
                "line 2: bad validity",
            ),
            (
                '{"frame_id": "a", "objects": [{"class_id": true, "bbox": [0.1, 0.1, 0.2, 0.2]}]}',
                "line 2: bad class_id",
            ),
            (
                '{"frame_id": "a", "objects": [{"class_id": 2.7, "bbox": [0.1, 0.1, 0.2, 0.2]}]}',
                "line 2: bad class_id",
            ),
            (
                '{"frame_id": "a", "objects": [{"class_id": "1", "bbox": [0.1, 0.1, 0.2, 0.2]}]}',
                "line 2: bad class_id",
            ),
            (
                '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2],'
                ' "validity": false, "original_label": 1.5}]}',
                "line 2: bad original_label",
            ),
            (
                '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2],'
                ' "validity": false, "original_label": false}]}',
                "line 2: bad original_label",
            ),
        ],
        ids=[
            "number", "list", "objects-number", "objects-dict", "object-number", "label-list",
            "validity-string", "validity-number", "class-id-bool", "class-id-fraction",
            "class-id-string", "label-fraction", "label-bool",
        ],
    )
    def test_malformed_frame_records_report_line(self, tmp_path, line, message):
        path = self._write(tmp_path, ['{"n_classes": 3, "format_version": 1}', line])
        with pytest.raises(FramesFileError, match=message):
            parse_frames(path)

    @pytest.mark.parametrize("frame_id", ["null", "7", "7.5", "true", '["a"]', '{"id": "a"}'])
    def test_frame_id_must_be_a_string(self, tmp_path, frame_id):
        row = f'{{"frame_id": {frame_id}, "objects": [{{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2]}}]}}'
        path = self._write(tmp_path, ['{"n_classes": 3, "format_version": 1}', row])
        with pytest.raises(FramesFileError, match="^line 2: bad frame_id: expected a string, got "):
            parse_frames(path)

    def test_booleans_and_integral_numbers_read(self, tmp_path):
        row = (
            '{"frame_id": "a", "objects": [{"class_id": 2.0, "bbox": [0.1, 0.1, 0.2, 0.2],'
            ' "validity": false, "original_label": 1}]}'
        )
        path = self._write(tmp_path, ['{"n_classes": 3, "format_version": 1}', row])
        frame = parse_frames(path).frames[0]
        assert frame.objects[0].label_id == 2
        assert type(frame.objects[0].label_id) is int
        assert frame.validity.tolist() == [False] and frame.original_labels.tolist() == [1]

    @pytest.mark.parametrize("n_classes", ['"x"', "[3]", "null", "39.7", '"39"', "true"])
    def test_bad_header_n_classes_reports_line_1(self, tmp_path, n_classes):
        path = self._write(tmp_path, [f'{{"n_classes": {n_classes}, "format_version": 1}}'])
        with pytest.raises(FramesFileError, match="line 1: bad n_classes"):
            parse_frames(path)

    def test_integral_header_n_classes_reads(self, tmp_path):
        path = self._write(tmp_path, ['{"n_classes": 39.0, "format_version": 1}'])
        n_classes = parse_frames(path).n_classes
        assert n_classes == 39 and type(n_classes) is int

    @pytest.mark.parametrize("coord", ["true", "false", '"0.2"', "null", "[0.2]"])
    def test_bbox_coordinate_must_be_a_number(self, tmp_path, coord):
        row = f'{{"frame_id": "a", "objects": [{{"class_id": 0, "bbox": [0.1, 0.1, {coord}, 0.2]}}]}}'
        path = self._write(tmp_path, ['{"n_classes": 3, "format_version": 1}', row])
        with pytest.raises(FramesFileError, match="^line 2: bad bbox: expected a number"):
            parse_frames(path)

    def test_frame_before_header_reported(self, tmp_path):
        row = '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2]}]}'
        path = self._write(tmp_path, ["", row])
        with pytest.raises(FramesFileError, match="line 2: missing header on line 1"):
            parse_frames(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                '{"n_classes": 3, "format_version": 1}',
                "",
                '{"frame_id": "a", "objects": []}',
            ],
        )
        assert len(parse_frames(path).frames) == 1


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = str(tmp_path / "x.txt")
        atomic_write_text(path, "hello\n")
        with open(path) as f:
            assert f.read() == "hello\n"

    def test_overwrite_replaces_not_appends(self, tmp_path):
        path = str(tmp_path / "x.txt")
        atomic_write_text(path, "long old content\n")
        atomic_write_text(path, "new\n")
        with open(path) as f:
            assert f.read() == "new\n"

    def test_no_stray_temp_files(self, tmp_path):
        path = str(tmp_path / "x.txt")
        atomic_write_text(path, "data\n")
        assert os.listdir(tmp_path) == ["x.txt"]

    def test_failed_serialization_leaves_no_partial_file(self, tmp_path):
        # json.dumps fails before any bytes are written; target is untouched
        path = str(tmp_path / "x.json")
        atomic_write_text(path, "original\n")
        with pytest.raises(TypeError):
            atomic_write_text(path, json.dumps({"bad": object()}))
        with open(path) as f:
            assert f.read() == "original\n"


    @pytest.mark.parametrize("data", ["text\n", b"\x00\xffbytes"], ids=["str", "bytes"])
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, data):
        old = os.umask(0o027)
        try:
            atomic_write_text(str(tmp_path / "x"), data)
            with open(tmp_path / "y", "w"):
                pass
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("x", "y")]
        assert modes == [0o640, 0o640]
        mode = "rb" if isinstance(data, bytes) else "r"
        with open(tmp_path / "x", mode) as f:
            assert f.read() == data

    def test_rewrite_keeps_the_files_mode(self, tmp_path):
        path = tmp_path / "x"
        atomic_write_text(str(path), "old\n")
        os.chmod(path, 0o600)
        atomic_write_text(str(path), b"new\n")
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600 and path.read_text() == "new\n"

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "t").mkdir()
        (tmp_path / "l").mkdir()
        target, link = tmp_path / "t" / "x", tmp_path / "l" / "x.jsonl"
        target.write_text("old\n")
        os.chmod(target, 0o640)
        link.symlink_to(target)
        atomic_write_text(str(link), "new\n")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == "new\n" and stat.S_IMODE(os.stat(target).st_mode) == 0o640
        assert os.listdir(tmp_path / "t") == ["x"] and os.listdir(tmp_path / "l") == ["x.jsonl"]

    def test_failed_replace_through_a_symlink_leaves_the_target(self, tmp_path, monkeypatch):
        (tmp_path / "t").mkdir()
        target, link = tmp_path / "t" / "x", tmp_path / "x.jsonl"
        target.write_text("old\n")
        link.symlink_to(target)
        sources = []

        def failing_replace(src, dst):
            sources.append((os.path.dirname(src), dst))
            raise OSError("no room")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no room"):
            atomic_write_text(str(link), "new\n")
        assert sources == [(str(tmp_path / "t"), str(target))]
        assert os.listdir(tmp_path / "t") == ["x"] and target.read_text() == "old\n"
        assert sorted(os.listdir(tmp_path)) == ["t", "x.jsonl"]

    def test_failed_replace_removes_the_temp_file_beside_the_target(self, tmp_path, monkeypatch):
        sources = []

        def failing_replace(src, dst):
            sources.append(src)
            raise OSError("no room")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="no room"):
            atomic_write_text(str(tmp_path / "x.ckpt"), b"data")
        assert [os.path.dirname(src) for src in sources] == [str(tmp_path)]
        assert os.listdir(tmp_path) == []


class TestDetectionsValidation:
    @pytest.mark.parametrize(
        "line, message",
        [
            ("5", "line 2: expected a JSON object"),
            ("[1, 2]", "line 2: expected a JSON object"),
            ('{"frame_id": "f", "class_id": [1], "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": 0.9}', "line 2: "),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": null}', "line 2: "),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1], "confidence": 0.9}',
             "^line 2: bbox must be"),
            ('{"frame_id": "f", "class_id": true, "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": 0.9}', "^line 2: bad class_id"),
            ('{"frame_id": "f", "class_id": 2.7, "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": 0.9}', "^line 2: bad class_id"),
            ('{"frame_id": "f", "class_id": "1", "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": 0.9}', "^line 2: bad class_id"),
            ('{"frame_id": "f", "bbox": [0.1, 0.1, 0.2, 0.2], "confidence": 0.9}',
             "^line 2: missing field 'class_id'"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": "0.9"}', "^line 2: bad confidence: expected a number, got '0.9'"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": true}', "^line 2: bad confidence: expected a number, got True"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, 0.2, 0.2]}',
             "^line 2: missing field 'confidence'"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": 1.5}', r"^line 2: confidence 1.5 outside \[0, 1\]"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, true, 0.2, 0.2],'
             ' "confidence": 0.9}', "^line 2: bad bbox: expected a number, got True"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, "0.2", 0.2],'
             ' "confidence": 0.9}', "^line 2: bad bbox: expected a number, got '0.2'"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, 1e400, 0.2],'
             ' "confidence": 0.9}', "^line 2: invalid bbox: non-finite"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, 1' + "0" * 400 + ', 0.2],'
             ' "confidence": 0.9}', "^line 2: bad bbox: expected a number"),
            ('{"frame_id": "f", "class_id": 1, "bbox": [0.1, 0.1, 0.2, 0.2],'
             ' "confidence": 1' + "0" * 5000 + '}', "^line 2: malformed JSON"),
        ],
        ids=[
            "number", "list", "class-id-list", "confidence-null", "short-bbox",
            "class-id-bool", "class-id-fraction", "class-id-string", "class-id-missing",
            "confidence-string", "confidence-bool", "confidence-missing", "confidence-range",
            "bbox-bool", "bbox-string", "bbox-inf", "bbox-huge-int", "int-too-long",
        ],
    )
    def test_malformed_records_report_line(self, tmp_path, line, message):
        path = tmp_path / "d.jsonl"
        good = '{"frame_id": "f", "class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "confidence": 0.9}'
        path.write_text(good + "\n" + line + "\n")
        with pytest.raises(FramesFileError, match=message):
            parse_detections(str(path))

    @pytest.mark.parametrize(
        "frame_id, shown", [("null", "None"), ("7", "7"), ("false", "False"), ('["f"]', r"\['f'\]")]
    )
    def test_frame_id_must_be_a_string(self, tmp_path, frame_id, shown):
        path = tmp_path / "d.jsonl"
        path.write_text(
            f'{{"frame_id": {frame_id}, "class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "confidence": 0.9}}\n'
        )
        with pytest.raises(FramesFileError, match=f"^line 1: bad frame_id: expected a string, got {shown}$"):
            parse_detections(str(path))

    def test_integers_read_as_floats(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"frame_id": "f", "class_id": 0, "bbox": [0, 0, 1, 1], "confidence": 1}\n')
        (det,) = parse_detections(str(path))
        assert det.confidence == 1.0 and type(det.confidence) is float
        assert [type(v) for v in (det.bbox.x_min, det.bbox.x_max)] == [float, float]
