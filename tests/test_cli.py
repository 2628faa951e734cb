"""CLI contract: exit codes, JSON summaries, end-to-end pipeline."""

from __future__ import annotations

import ast
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scenegnn
from scenegnn.cli import EXIT_INPUT, EXIT_OK, main
from scenegnn.dataio import parse_detections, parse_frames, write_detections, write_frames
from scenegnn.geometry import BoundingBox
from scenegnn.metrics import Detection
from scenegnn.model import CHECKPOINT_MAGIC, ModelConfig, init_model, save_checkpoint
from scenegnn.scenegraph import Frame, SceneObject
from scenegnn.dataio import FrameDataset


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _small_gt(path):
    frames = [
        Frame(
            f"f{i}",
            (
                SceneObject(0, BoundingBox(0.1, 0.1, 0.3, 0.3)),
                SceneObject(1, BoundingBox(0.5, 0.5, 0.8, 0.8)),
                SceneObject(2, BoundingBox(0.2, 0.6, 0.4, 0.9)),
            ),
        )
        for i in range(3)
    ]
    write_frames(path, FrameDataset(3, frames))
    return frames


class TestUsageErrors:
    def test_no_arguments_exits_1(self, capsys):
        code, out, err = _run(capsys, [])
        assert code == EXIT_INPUT
        assert "usage" in err.lower()

    def test_unknown_flag_exits_1(self, capsys):
        code, _, err = _run(capsys, ["synth", "--bogus", "1", "--out", "x"])
        assert code == EXIT_INPUT

    def test_missing_required_argument_exits_1(self, capsys):
        code, _, _ = _run(capsys, ["synth"])
        assert code == EXIT_INPUT

    def test_missing_input_file_exits_1(self, capsys, tmp_path):
        code, _, err = _run(
            capsys,
            ["corrupt", "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o")],
        )
        assert code == EXIT_INPUT

    def test_malformed_data_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        code, _, err = _run(
            capsys, ["corrupt", "--data", str(bad), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_INPUT
        assert "line 1" in err


    @pytest.mark.parametrize("command", ["map", "corrupt"])
    def test_record_that_is_not_an_object_exits_1(self, capsys, tmp_path, command):
        gt_path = str(tmp_path / "gt.jsonl")
        _small_gt(gt_path)
        bad = tmp_path / "bad.jsonl"
        if command == "map":
            bad.write_text("[1, 2]\n")
            argv = ["map", "--detections", str(bad), "--gt", gt_path]
        else:
            bad.write_text(
                '{"n_classes": 3, "format_version": 1}\n{"frame_id": "a", "objects": 5}\n'
            )
            argv = ["corrupt", "--data", str(bad), "--out", str(tmp_path / "o")]
        code, _, err = _run(capsys, argv)
        assert code == EXIT_INPUT
        assert "line" in err and "internal error" not in err

    @pytest.mark.parametrize("command", ["map", "corrupt"])
    def test_field_of_wrong_json_type_exits_1(self, capsys, tmp_path, command):
        gt_path = str(tmp_path / "gt.jsonl")
        _small_gt(gt_path)
        bad = tmp_path / "bad.jsonl"
        if command == "map":
            bad.write_text(
                '{"frame_id": "a", "class_id": true, "bbox": [0.1, 0.1, 0.2, 0.2],'
                ' "confidence": 0.9}\n'
            )
            argv = ["map", "--detections", str(bad), "--gt", gt_path]
        else:
            bad.write_text(
                '{"n_classes": 3, "format_version": 1}\n{"frame_id": "a", "objects": [{"class_id":'
                ' 0, "bbox": [0.1, 0.1, 0.2, 0.2], "validity": "false"}]}\n'
            )
            argv = ["corrupt", "--data", str(bad), "--out", str(tmp_path / "o")]
        code, _, err = _run(capsys, argv)
        assert code == EXIT_INPUT
        assert "line 1: bad class_id" in err if command == "map" else "line 2: bad validity" in err


class TestNumberFields:
    """Coordinates, confidences and n_classes are JSON numbers, never strings or bools."""

    @pytest.mark.parametrize(
        "bbox, confidence, message",
        [
            ("[0.1, 0.1, 0.3, 0.3]", '"0.9"', "line 2: bad confidence"),
            ('[0.1, "0.1", 0.3, 0.3]', "0.9", "line 2: bad bbox"),
            ("[0.1, 0.1, true, 0.3]", "0.9", "line 2: bad bbox"),
            ("[false, 0.1, 0.3, 0.3]", "0.9", "line 2: bad bbox"),
            ("[0.1, 0.1, 0.3, 0.3]", "true", "line 2: bad confidence"),
        ],
        ids=["confidence-string", "coordinate-string", "coordinate-true", "coordinate-false",
             "confidence-true"],
    )
    @pytest.mark.parametrize("command", ["map", "correct"])
    def test_non_number_exits_1(self, capsys, tmp_path, command, bbox, confidence, message):
        frames = _small_gt(str(tmp_path / "gt.jsonl"))
        good = Detection("f0", 0, frames[0].objects[0].bbox, 0.9)
        det_path = tmp_path / "dets.jsonl"
        write_detections(str(det_path), [good])
        with det_path.open("a") as f:
            f.write(f'{{"frame_id": "f0", "class_id": 1, "bbox": {bbox}, "confidence": {confidence}}}\n')
        out_path = tmp_path / "fixed.jsonl"
        if command == "map":
            argv = ["map", "--detections", str(det_path), "--gt", str(tmp_path / "gt.jsonl")]
        else:
            config = ModelConfig(n_classes=3, hidden_dim=8)
            ckpt = str(tmp_path / "m.ckpt")
            save_checkpoint(init_model(config), config, ckpt)
            argv = ["correct", "--detections", str(det_path), "--checkpoint", ckpt,
                    "--out", str(out_path)]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_INPUT and out == ""
        assert message in err and "internal error" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("n_classes", ["39.7", '"39"', "true"])
    def test_header_n_classes_not_an_integer_exits_1(self, capsys, tmp_path, n_classes):
        frames = _small_gt(str(tmp_path / "gt.jsonl"))
        gt = tmp_path / "bad_gt.jsonl"
        lines = (tmp_path / "gt.jsonl").read_text().splitlines()
        gt.write_text("\n".join([f'{{"n_classes": {n_classes}, "format_version": 1}}', *lines[1:]]))
        det_path = str(tmp_path / "dets.jsonl")
        write_detections(det_path, [Detection("f0", 0, frames[0].objects[0].bbox, 0.9)])
        code, _, err = _run(capsys, ["map", "--detections", det_path, "--gt", str(gt)])
        assert code == EXIT_INPUT
        assert "line 1: bad n_classes" in err


class TestCorrectCommand:
    @pytest.mark.parametrize("tau", [None, "0.49"])
    def test_summary_counts_match_audit(self, capsys, tmp_path, tau):
        config = ModelConfig(n_classes=3, hidden_dim=8)
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(init_model(config, np.random.default_rng(3)), config, ckpt)
        frames = _small_gt(str(tmp_path / "gt.jsonl"))
        dets = [Detection(f.frame_id, o.label_id, o.bbox, 0.9) for f in frames for o in f.objects]
        # two single-detection frames, one of them between the detections of f1
        dets.insert(4, Detection("solo_a", 2, BoundingBox(0.4, 0.4, 0.5, 0.5), 0.8))
        dets.append(Detection("solo_b", 0, BoundingBox(0.1, 0.1, 0.2, 0.2), 0.7))
        det_path, audit = str(tmp_path / "dets.jsonl"), tmp_path / "audit.jsonl"
        write_detections(det_path, dets)
        argv = ["correct", "--detections", det_path, "--checkpoint", ckpt,
                "--out", str(tmp_path / "fixed.jsonl"), "--audit", str(audit)]
        code, out, err = _run(capsys, argv + (["--tau", tau] if tau else []))
        assert code == EXIT_OK, err
        summary = json.loads(out)
        records = [json.loads(line) for line in audit.read_text().splitlines()]
        passthrough = [r for r in records if r["note"]]
        graphed = [r for r in records if not r["note"]]
        threshold = config.validity_threshold if tau is None else float(tau)
        flagged = [r for r in graphed if r["validity_score"] < threshold]
        assert summary["frames"] == len({r["frame_id"] for r in records}) == 5
        assert summary["passthrough_frames"] == len(passthrough) == 2
        assert summary["detections"] == len(records) == len(dets) == 11
        assert summary["flagged"] == len(flagged) > 0
        assert summary["applied_corrections"] == sum(r["applied"] for r in records)
        assert summary["applied_corrections"] <= summary["flagged"]
        assert {r["frame_id"] for r in passthrough} == {"solo_a", "solo_b"}

    def test_class_id_out_of_range_names_line(self, capsys, tmp_path):
        config = ModelConfig(n_classes=39, hidden_dim=8)
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(init_model(config), config, ckpt)
        det_path = tmp_path / "dets.jsonl"
        det_path.write_text(
            '{"frame_id": "f", "class_id": 3, "bbox": [0.1, 0.1, 0.2, 0.2], "confidence": 0.9}\n'
            '{"frame_id": "f", "class_id": 45, "bbox": [0.3, 0.3, 0.4, 0.4], "confidence": 0.9}\n'
        )
        code, _, err = _run(
            capsys,
            [
                "correct", "--detections", str(det_path), "--checkpoint", ckpt,
                "--out", str(tmp_path / "fixed.jsonl"),
            ],
        )
        assert code == EXIT_INPUT
        assert "line 2" in err and "class_id 45" in err

    @pytest.mark.parametrize("frame_id, shown", [("null", "None"), ("7", "7")])
    def test_frame_id_not_a_string_exits_1(self, capsys, tmp_path, frame_id, shown):
        config = ModelConfig(n_classes=3, hidden_dim=8)
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(init_model(config), config, ckpt)
        det_path = tmp_path / "dets.jsonl"
        det_path.write_text(
            '{"frame_id": "f", "class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2], "confidence": 0.9}\n'
            f'{{"frame_id": {frame_id}, "class_id": 1, "bbox": [0.3, 0.3, 0.4, 0.4], "confidence": 0.9}}\n'
        )
        out_path = tmp_path / "fixed.jsonl"
        code, out, err = _run(
            capsys,
            ["correct", "--detections", str(det_path), "--checkpoint", ckpt, "--out", str(out_path)],
        )
        assert code == EXIT_INPUT and out == ""
        assert f"line 2: bad frame_id: expected a string, got {shown}" in err
        assert "internal error" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--k", "0", "k must be >= 1"), ("--tau", "1.5", "tau must be in")],
    )
    def test_bad_k_or_tau_override_exits_1(self, capsys, tmp_path, flag, value, message):
        config = ModelConfig(n_classes=3, hidden_dim=8)
        ckpt = str(tmp_path / "m.ckpt")
        save_checkpoint(init_model(config), config, ckpt)
        frames = _small_gt(str(tmp_path / "gt.jsonl"))
        det_path = str(tmp_path / "dets.jsonl")
        dets = [Detection(f.frame_id, o.label_id, o.bbox, 0.9) for f in frames for o in f.objects]
        write_detections(det_path, dets)
        out_path = tmp_path / "fixed.jsonl"
        code, _, err = _run(
            capsys,
            ["correct", "--detections", det_path, "--checkpoint", ckpt,
             "--out", str(out_path), flag, value],
        )
        assert code == EXIT_INPUT
        assert message in err
        assert not out_path.exists()


class TestCheckpointInput:
    @pytest.mark.parametrize(
        "header, message",
        [
            ("[1, 2]", "header is not a JSON object"),
            ('{"format_version": 1, "config": {}, "tensors": [1, 2]}',
             "tensors is not a list of JSON objects"),
            ('{"format_version": 1, "config": {"label_encoding": "scalar"}, "tensors": []}',
             "label_encoding 'scalar' is not supported"),
        ],
        ids=["header", "tensors-entry", "older-option"],
    )
    def test_bad_header_exits_1(self, capsys, tmp_path, header, message):
        ckpt = tmp_path / "m.ckpt"
        ckpt.write_bytes(CHECKPOINT_MAGIC + header.encode() + b"\n")
        frames = _small_gt(str(tmp_path / "gt.jsonl"))
        det_path = str(tmp_path / "dets.jsonl")
        write_detections(det_path, [Detection("f0", 0, frames[0].objects[0].bbox, 0.9)])
        out_path = tmp_path / "fixed.jsonl"
        code, out, err = _run(
            capsys,
            ["correct", "--detections", det_path, "--checkpoint", str(ckpt),
             "--out", str(out_path)],
        )
        assert code == EXIT_INPUT and out == ""
        assert message in err and "internal error" not in err
        assert not out_path.exists()


    @pytest.mark.parametrize(
        "key, value",
        [("hidden_dim", 8.5), ("n_classes", 5.0), ("hidden_dim", True), ("k", 2.7), ("k", "3"),
         ("seed", -1)],
    )
    def test_bad_config_value_exits_1(self, capsys, tmp_path, key, value):
        config = ModelConfig(n_classes=3, hidden_dim=8)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(config), config, str(ckpt))
        blob = ckpt.read_bytes()
        nl = blob.index(b"\n", len(CHECKPOINT_MAGIC))
        header = json.loads(blob[len(CHECKPOINT_MAGIC): nl])
        header["config"][key] = value
        ckpt.write_bytes(CHECKPOINT_MAGIC + json.dumps(header).encode() + blob[nl:])
        frames = _small_gt(str(tmp_path / "gt.jsonl"))
        det_path = str(tmp_path / "dets.jsonl")
        write_detections(det_path, [Detection("f0", 0, frames[0].objects[0].bbox, 0.9)])
        out_path = tmp_path / "fixed.jsonl"
        code, out, err = _run(
            capsys,
            ["correct", "--detections", det_path, "--checkpoint", str(ckpt),
             "--out", str(out_path)],
        )
        assert code == EXIT_INPUT and out == ""
        assert f"bad config: {key} must be" in err and "internal error" not in err
        assert not out_path.exists()


class TestTrainCommand:
    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--epochs", "0", "epochs"),
            ("--batch", "0", "batch_size"),
            ("--lr", "-1", "lr"),
            ("--lr", "nan", "lr"),
        ],
    )
    def test_bad_training_option_exits_1(self, capsys, tmp_path, flag, value, field):
        data = str(tmp_path / "data.jsonl")
        code, _, err = _run(capsys, ["synth", "--classes", "6", "--frames", "20", "--out", data])
        assert code == EXIT_OK, err
        ckpt = tmp_path / "m.ckpt"
        code, _, err = _run(capsys, ["train", "--data", data, "--out", str(ckpt), flag, value])
        assert code == EXIT_INPUT
        assert f"error: {field} must be" in err
        assert not ckpt.exists()

    def test_negative_seed_exits_1(self, capsys, tmp_path):
        # such a checkpoint could not be loaded: init_model seeds numpy with it
        data = str(tmp_path / "data.jsonl")
        code, _, err = _run(capsys, ["synth", "--classes", "4", "--frames", "12", "--out", data])
        assert code == EXIT_OK, err
        ckpt = tmp_path / "m.ckpt"
        code, _, err = _run(capsys, ["--seed", "-1", "train", "--data", data, "--out", str(ckpt)])
        assert code == EXIT_INPUT
        assert "error: seed must be >= 0, got -1" in err
        assert not ckpt.exists()

    def test_no_validation_frames_reported_as_null(self, capsys, tmp_path):
        # 3 frames split into 2 train, 0 validation and 1 test frame
        data = str(tmp_path / "data.jsonl")
        code, _, err = _run(capsys, ["synth", "--classes", "6", "--frames", "3", "--out", data])
        assert code == EXIT_OK, err
        ckpt = str(tmp_path / "m.ckpt")
        code, out, err = _run(capsys, ["train", "--data", data, "--epochs", "2", "--out", ckpt])
        assert code == EXIT_OK, err

        def reject(constant):
            raise ValueError(f"{constant} is not valid JSON")

        summary = json.loads(out, parse_constant=reject)
        history = json.loads(Path(ckpt + ".history.json").read_text(), parse_constant=reject)
        assert summary["val_validity_accuracy"] is None and summary["val_label_f1"] is None
        assert len(history) == 2
        for epoch in history:
            assert epoch["val_validity_accuracy"] is None and epoch["val_label_f1"] is None


class TestOutputFiles:
    def test_written_files_get_the_mode_open_gives(self, capsys, tmp_path):
        old = os.umask(0o022)
        try:
            data = str(tmp_path / "data.jsonl")
            code, _, err = _run(capsys, ["synth", "--classes", "4", "--frames", "12", "--out", data])
            assert code == EXIT_OK, err
            ckpt = str(tmp_path / "m.ckpt")
            code, _, err = _run(capsys, ["train", "--data", data, "--epochs", "1", "--out", ckpt])
            assert code == EXIT_OK, err
        finally:
            os.umask(old)
        names = ["data.jsonl", "data.jsonl.template.json", "m.ckpt", "m.ckpt.best",
                 "m.ckpt.history.json"]
        assert sorted(os.listdir(tmp_path)) == sorted(names)
        for name in names:
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644, name

    def test_rewritten_output_keeps_its_mode_and_its_symlink(self, capsys, tmp_path):
        data, link = tmp_path / "data.jsonl", tmp_path / "link.jsonl"
        synth = ["synth", "--classes", "4", "--frames", "12", "--out"]
        code, _, err = _run(capsys, [*synth, str(data)])
        assert code == EXIT_OK, err
        os.chmod(data, 0o600)
        link.symlink_to(data)
        code, _, err = _run(capsys, ["--seed", "1", *synth, str(link)])
        assert code == EXIT_OK, err
        assert link.is_symlink() and os.readlink(link) == str(data)
        assert stat.S_IMODE(os.stat(data).st_mode) == 0o600
        code, _, err = _run(capsys, ["--seed", "1", *synth, str(tmp_path / "fresh.jsonl")])
        assert code == EXIT_OK, err
        assert data.read_bytes() == (tmp_path / "fresh.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "command, flag", [("train", "--data"), ("train", "--out"), ("synth", "--out")]
    )
    def test_directory_as_path_exits_1(self, capsys, tmp_path, command, flag):
        data = str(tmp_path / "data.jsonl")
        synth = ["synth", "--classes", "4", "--frames", "12", "--out", data]
        code, _, err = _run(capsys, synth)
        assert code == EXIT_OK, err
        argv = {
            "synth": synth,
            "train": ["train", "--data", data, "--epochs", "1", "--out", str(tmp_path / "m.ckpt")],
        }[command]
        folder = tmp_path / "folder"
        folder.mkdir()
        argv[argv.index(flag) + 1] = str(folder)
        before = sorted(os.listdir(tmp_path))
        code, out, err = _run(capsys, argv)
        assert code == EXIT_INPUT
        assert err.startswith("error: ") and "internal error" not in err
        assert out == ""
        assert sorted(os.listdir(tmp_path)) == before and os.listdir(folder) == []


class TestCorruptCommand:
    def test_empty_frame_names_the_frame(self, capsys, tmp_path):
        data = tmp_path / "frames.jsonl"
        data.write_text(
            '{"n_classes": 3, "format_version": 1}\n'
            '{"frame_id": "a", "objects": [{"class_id": 0, "bbox": [0.1, 0.1, 0.2, 0.2]}]}\n'
            '{"frame_id": "b", "objects": []}\n'
        )
        out_path = tmp_path / "corrupt.jsonl"
        code, out, err = _run(capsys, ["corrupt", "--data", str(data), "--out", str(out_path)])
        assert code == EXIT_INPUT and out == ""
        assert "error: frame 'b' has no objects" in err
        assert not out_path.exists()


    def test_rho_zero_writes_an_all_valid_annotation(self, capsys, tmp_path):
        data = tmp_path / "data.jsonl"
        code, _, err = _run(capsys, ["synth", "--classes", "4", "--frames", "5", "--out", str(data)])
        assert code == EXIT_OK, err
        out_path = tmp_path / "corrupt.jsonl"
        argv = ["corrupt", "--data", str(data), "--rho", "0", "--out", str(out_path)]
        code, out, err = _run(capsys, argv)
        assert code == EXIT_OK, err
        assert json.loads(out)["invalid_nodes"] == 0
        clean = [json.loads(line) for line in data.read_text().splitlines()]
        rows = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert rows[0] == clean[0] and len(rows) == len(clean) == 6
        for row, frame in zip(rows[1:], clean[1:]):
            assert row["frame_id"] == frame["frame_id"]
            assert row["objects"] == [
                {**o, "validity": True, "original_label": o["class_id"]} for o in frame["objects"]
            ]

    def test_corrupting_an_annotated_file_keeps_its_annotation(self, capsys, tmp_path):
        # a second corruption over a corrupted file: every object's original
        # label stays the clean file's, and it is valid exactly when its
        # label is that original label
        clean, once, twice = (str(tmp_path / f"{name}.jsonl") for name in ("clean", "once", "twice"))
        for argv in (
            ["--seed", "4", "synth", "--classes", "6", "--frames", "40", "--out", clean],
            ["--seed", "4", "corrupt", "--data", clean, "--rho", "2", "--out", once],
            ["--seed", "5", "corrupt", "--data", once, "--rho", "1", "--out", twice],
        ):
            code, _, err = _run(capsys, argv)
            assert code == EXIT_OK, err

        def objects(path):
            return [o for line in Path(path).read_text().splitlines()[1:] for o in json.loads(line)["objects"]]

        truth = [o["class_id"] for o in objects(clean)]
        assert sum(not o["validity"] for o in objects(once)) >= 40
        for o, label in zip(objects(twice), truth, strict=True):
            assert o["original_label"] == label
            assert o["validity"] == (o["class_id"] == label)

    @pytest.mark.parametrize("sigma", ["inf", "nan"])
    def test_non_finite_sigma_exits_1(self, capsys, tmp_path, sigma):
        data = str(tmp_path / "data.jsonl")
        code, _, err = _run(capsys, ["synth", "--classes", "4", "--frames", "5", "--out", data])
        assert code == EXIT_OK, err
        out_path = tmp_path / "corrupt.jsonl"
        code, out, err = _run(
            capsys, ["corrupt", "--data", data, "--sigma", sigma, "--out", str(out_path)]
        )
        assert code == EXIT_INPUT and out == ""
        assert "error: jitter_sigma must be finite and >= 0" in err
        assert not out_path.exists()


class TestImports:
    def test_package_does_not_import_scipy(self):
        src = str(Path(scenegnn.__file__).resolve().parents[1])
        probe = (
            "import sys, scenegnn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert out.stdout.strip() == "[]"

    def test_package_imports_numpy_and_the_standard_library_only(self):
        package = Path(scenegnn.__file__).resolve().parent
        allowed = set(sys.stdlib_module_names) | {"numpy", "scenegnn"}
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:  # relative imports stay inside the package
                    continue
                for name in names:
                    assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno}: {name}"

    def test_no_unused_imports(self):
        # every name a module imports is read in it; __init__.py's __all__
        # re-exports count as reads
        package = Path(scenegnn.__file__).resolve().parent
        unused = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node.lineno
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            if path.name == "__init__.py":
                read |= set(scenegnn.__all__)
            unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]
        assert unused == []

    def test_no_import_inside_a_function_or_class(self):
        # module-level imports only, so an import cycle between the package's
        # modules fails at import time instead of hiding in a function body
        package = Path(scenegnn.__file__).resolve().parent
        scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        nested = set()
        for path in sorted(package.glob("*.py")):
            for scope in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(scope, scopes):
                    nested |= {
                        f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                        if isinstance(node, (ast.Import, ast.ImportFrom))
                    }
        assert sorted(nested) == []

    def test_project_depends_on_numpy_only(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        project = tomllib.loads(pyproject.read_text())["project"]
        names = [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["dependencies"]]
        assert names == ["numpy"]


class TestMapCommand:
    def test_perfect_detections_score_one(self, capsys, tmp_path):
        gt_path = str(tmp_path / "gt.jsonl")
        frames = _small_gt(gt_path)
        dets = [
            Detection(f.frame_id, o.label_id, o.bbox, 0.9)
            for f in frames
            for o in f.objects
        ]
        det_path = str(tmp_path / "dets.jsonl")
        write_detections(det_path, dets)
        code, out, _ = _run(capsys, ["map", "--detections", det_path, "--gt", gt_path])
        assert code == EXIT_OK
        summary = json.loads(out)
        assert summary["map50"] == pytest.approx(1.0)

    def test_report_file_written(self, capsys, tmp_path):
        gt_path = str(tmp_path / "gt.jsonl")
        frames = _small_gt(gt_path)
        dets = [
            Detection(f.frame_id, o.label_id, o.bbox, 0.9)
            for f in frames
            for o in f.objects
        ]
        det_path = str(tmp_path / "dets.jsonl")
        write_detections(det_path, dets)
        report = str(tmp_path / "report.json")
        code, _, _ = _run(
            capsys,
            ["map", "--detections", det_path, "--gt", gt_path, "--out", report],
        )
        assert code == EXIT_OK
        payload = json.loads(Path(report).read_text())
        assert set(payload) == {"map50", "per_class_ap"}


class TestQuietFlag:
    def test_quiet_suppresses_summary(self, capsys, tmp_path):
        gt_path = str(tmp_path / "gt.jsonl")
        frames = _small_gt(gt_path)
        det_path = str(tmp_path / "dets.jsonl")
        write_detections(
            det_path,
            [Detection(frames[0].frame_id, 0, frames[0].objects[0].bbox, 0.9)],
        )
        code, out, _ = _run(
            capsys, ["--quiet", "map", "--detections", det_path, "--gt", gt_path]
        )
        assert code == EXIT_OK
        assert out == ""


class TestFullPipeline:
    def test_synth_corrupt_train_eval_correct_map(self, capsys, tmp_path):
        data = str(tmp_path / "data.jsonl")
        code, out, err = _run(
            capsys,
            ["--seed", "3", "synth", "--classes", "8", "--frames", "80", "--out", data],
        )
        assert code == EXIT_OK, err
        assert json.loads(out)["frames"] == 80
        template = json.loads(Path(data + ".template.json").read_text())
        assert json.loads(out)["template"] == data + ".template.json"
        assert template["n_classes"] == 8 and isinstance(template["seed"], int)
        for key in ("anchors", "sizes"):
            assert np.asarray(template[key], dtype=float).shape == (8, 2)

        corrupted = str(tmp_path / "corrupted.jsonl")
        code, out, err = _run(
            capsys, ["--seed", "3", "corrupt", "--data", data, "--out", corrupted]
        )
        assert code == EXIT_OK, err
        assert json.loads(out)["invalid_nodes"] > 0

        ckpt = str(tmp_path / "model.ckpt")
        code, out, err = _run(
            capsys,
            [
                "--seed", "3", "train",
                "--data", data, "--k", "3", "--epochs", "4", "--out", ckpt,
            ],
        )
        assert code == EXIT_OK, err
        summary = json.loads(out)
        assert summary["command"] == "train"

        report = str(tmp_path / "eval.json")
        confusion = str(tmp_path / "confusion.csv")
        code, out, err = _run(
            capsys,
            [
                "eval", "--checkpoint", ckpt, "--data", corrupted,
                "--out", report, "--confusion-csv", confusion,
            ],
        )
        assert code == EXIT_OK, err
        payload = json.loads(Path(report).read_text())
        assert 0.0 <= payload["validity_accuracy"] <= 1.0
        lines = Path(confusion).read_text().splitlines()
        rows = [[int(v) for v in line.split(",")] for line in lines]
        assert rows == payload["confusion_matrix"]
        assert len(rows) == 8 and sum(map(sum, rows)) == payload["n_evaluated_invalid"]

        # detections = the corrupted frames with constant confidence
        ds = parse_frames(corrupted)
        dets = [
            Detection(f.frame_id, o.label_id, o.bbox, 0.9)
            for f in ds.frames
            for o in f.objects
        ]
        det_path = str(tmp_path / "dets.jsonl")
        write_detections(det_path, dets)
        fixed_path = str(tmp_path / "fixed.jsonl")
        audit = str(tmp_path / "audit.jsonl")
        code, out, err = _run(
            capsys,
            [
                "correct",
                "--detections", det_path, "--checkpoint", ckpt,
                "--out", fixed_path, "--audit", audit,
            ],
        )
        assert code == EXIT_OK, err
        fixed = parse_detections(fixed_path)
        assert len(fixed) == len(dets)
        for before, after in zip(dets, fixed):
            assert after.bbox == before.bbox  # boxes never change

        code, out, err = _run(
            capsys, ["map", "--detections", fixed_path, "--gt", data]
        )
        assert code == EXIT_OK, err
        assert 0.0 <= json.loads(out)["map50"] <= 1.0

    def test_eval_class_count_mismatch_exits_1(self, capsys, tmp_path):
        data = str(tmp_path / "data.jsonl")
        code, _, _ = _run(
            capsys, ["synth", "--classes", "8", "--frames", "30", "--out", data]
        )
        assert code == EXIT_OK
        ckpt = str(tmp_path / "m.ckpt")
        code, _, _ = _run(
            capsys, ["train", "--data", data, "--k", "3", "--epochs", "1", "--out", ckpt]
        )
        assert code == EXIT_OK
        other = str(tmp_path / "other.jsonl")
        code, _, _ = _run(
            capsys, ["synth", "--classes", "5", "--frames", "10", "--out", other]
        )
        assert code == EXIT_OK
        code, _, err = _run(capsys, ["eval", "--checkpoint", ckpt, "--data", other])
        assert code == EXIT_INPUT
        assert "n_classes" in err
