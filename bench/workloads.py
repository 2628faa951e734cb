"""The three workloads: set-up, one timed round, and the checks of a round.

A workload's ``setup`` makes every input from the seed; ``round`` is the timed
part and runs the same operations every time; ``finish`` reads back what the
round wrote and scores it (untimed); ``check`` tests the round's outputs
against computations made apart from the program (see checks.py).

The program is called through its module attributes (``P.train.train``), never
through names bound here, so the tracer sees every call the benchmark makes.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import inputs

P = SimpleNamespace(**{
    name: importlib.import_module(f"scenegnn.{name}")
    for name in ("cli", "correct", "corrupt", "dataio", "geometry", "metrics",
                 "model", "scenegraph", "synth", "train")
})

N_CLASSES = 39
K = 5
RHO = 3
# The desk is one static environment: its layout is the same for every seed,
# and the seed draws the views, splits, corruptions and detector errors.
LAYOUT_SEED = 0
# The correction workloads deploy one model of that environment, trained at
# set-up from the same views every time; the seed draws what it corrects.
CHECKPOINT_SEED = 0
GRAPH_SAMPLES = 8

SIZES = {
    "full": dict(desk_frames=2000, desk_epochs=30, ckpt_frames=800, ckpt_epochs=8,
                 stream_frames=600, dense_frames=6, dense_copies=6, dense_swap=0.1),
    "smoke": dict(desk_frames=400, desk_epochs=12, ckpt_frames=200, ckpt_epochs=4,
                  stream_frames=30, dense_frames=1, dense_copies=2, dense_swap=0.1),
}


@dataclass
class Round:
    ok: list[bool]  # per operation: completed without an exception or non-zero exit
    state: dict = field(default_factory=dict)
    frame_ms: list[float] = field(default_factory=list)  # per-frame correction latency
    dets: int = 0  # detections corrected
    correction_s: float = 0.0
    graph_epochs: int = 0  # training graphs x epochs, when the round trains
    train_s: float = 0.0
    quality: dict = field(default_factory=dict)
    fingerprint: object = None  # equal between rounds of one run


def det_tuple(d) -> tuple:
    b = d.bbox
    return (d.frame_id, d.class_id, (b.x_min, b.y_min, b.x_max, b.y_max), d.confidence)


def to_detection(t):
    return P.metrics.Detection(t[0], t[1], P.geometry.BoundingBox(*t[2]), t[3])


def gt_of(frames) -> dict:
    """frame_id -> [(class_id, box)], the ground truth checks.mean_ap50 takes."""
    return {
        f.frame_id: [(o.label_id, (o.bbox.x_min, o.bbox.y_min, o.bbox.x_max, o.bbox.y_max))
                     for o in f.objects]
        for f in frames
    }


def frame_of(dets):
    """The frame correct_detections builds from one frame's detections."""
    return P.scenegraph.Frame(dets[0].frame_id, tuple(
        P.scenegraph.SceneObject(d.class_id, d.bbox) for d in dets))


def record_dicts(records) -> list[dict]:
    return [{"frame_id": r.frame_id, "node_index": r.node_index,
             "validity_score": r.validity_score} for r in records]


def sampled(seq, n=GRAPH_SAMPLES):
    step = max(1, len(seq) // n)
    return list(seq)[::step][:n]


def graph_check(name, frame, graph, k) -> list[str]:
    boxes = [o.bbox for o in frame.objects]
    return checks.check_graph(
        name, graph, [(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes], k,
        P.geometry.pairwise_geometry, boxes,
    )


def correction_quality(ctx, labels, scores, tau) -> dict:
    """Flag accuracy, and label F1 of the corrected output over every detection."""
    return dict(
        validity_accuracy=checks.flag_accuracy(ctx.gt_labels, [t[1] for t in ctx.dets], scores, tau),
        weighted_f1=checks.weighted_f1(ctx.gt_labels, labels))


def report_exception(where: str) -> None:
    print(f"operation failed: {where}\n{traceback.format_exc()}", file=sys.stderr)


def layout():
    return P.synth.gen_template(N_CLASSES, P.corrupt.derive_seed(LAYOUT_SEED, "synth"))


def train_checkpoint(template, size: dict, path: Path) -> tuple[int, float]:
    """Train on views of the desk layout and save the best-validation model;
    returns (training graphs x epochs, seconds in train())."""
    derive, seed = P.corrupt.derive_seed, CHECKPOINT_SEED
    frames = P.synth.render_views(template, size["ckpt_frames"], dropout_prob=0.05,
                                  seed=derive(seed, "ckpt-views"))
    config = P.model.ModelConfig(n_classes=N_CLASSES, k=K, rho=RHO,
                                 epochs=size["ckpt_epochs"], seed=seed)
    train_f, val_f, _ = P.train.split_dataset(frames, seed=seed)
    train_g = P.train.build_dataset(train_f, config, derive(seed, "train-data"))
    val_g = P.train.build_dataset(val_f, config, derive(seed, "val-data"))
    t0 = perf_counter()
    _, best, _ = P.train.train(train_g, config, val_g)
    train_s = perf_counter() - t0
    P.model.save_checkpoint(best, config, str(path))
    return len(train_g) * config.epochs, train_s


class DeskTrain:
    """scripts/run_pipeline.py at desk scale, one stage per operation.

    Its one correct_detections call lasts about 0.5 s, too short a window on a
    machine whose speed drifts over tens of seconds. So ``finish``, outside the
    round's wall time, calls it again on the same input for ``probe_s``
    seconds; the correction metrics come from those calls, and each must return
    the pipeline's labels and scores. The other workloads take ``probe_s`` and
    ignore it.
    """

    name = "desk-train"
    OPS = ("render_views", "split_dataset", "build_dataset", "train", "save_checkpoint",
           "evaluate_graphs", "simulate_detector", "correct_detections", "map50")
    ops_per_round = len(OPS)

    def __init__(self, size: dict, seed: int, workdir: Path, probe_s: float):
        self.size, self.seed, self.workdir, self.probe_s = size, seed, workdir, probe_s

    def setup(self) -> SimpleNamespace:
        return SimpleNamespace(template=layout(), train_work=None)

    def _stages(self, ctx, s):
        derive, seed = P.corrupt.derive_seed, self.seed
        s["frames"] = P.synth.render_views(ctx.template, self.size["desk_frames"],
                                           dropout_prob=0.05, seed=derive(seed, "views"))
        yield
        s["config"] = config = P.model.ModelConfig(
            n_classes=N_CLASSES, k=K, rho=RHO, epochs=self.size["desk_epochs"], seed=seed)
        s["train_f"], s["val_f"], s["test_f"] = P.train.split_dataset(s["frames"], seed=seed)
        yield
        s["train_g"] = P.train.build_dataset(s["train_f"], config, derive(seed, "train-data"))
        s["val_g"] = P.train.build_dataset(s["val_f"], config, derive(seed, "val-data"))
        yield
        t0 = perf_counter()
        _, s["best"], _ = P.train.train(s["train_g"], config, s["val_g"])
        s["train_s"] = perf_counter() - t0
        yield
        P.model.save_checkpoint(s["best"], config, str(self.workdir / "desk.ckpt"))
        yield
        s["test_g"] = P.train.build_dataset(s["test_f"], config, derive(seed, "test-data"))
        s["report"] = P.metrics.evaluate_graphs(s["test_g"], s["best"], config)
        yield
        s["dets"] = P.correct.simulate_detector(
            s["test_f"], N_CLASSES, rho_det=3, sigma_det=0.01, seed=derive(seed, "detector"))
        yield
        t0 = perf_counter()
        s["fixed"], s["records"] = P.correct.correct_detections(s["dets"], s["best"], config)
        s["correct_s"] = [perf_counter() - t0]
        yield
        _, s["before"] = P.metrics.map50(s["dets"], s["test_f"])
        _, s["after"] = P.metrics.map50(s["fixed"], s["test_f"])
        summary = {k: s[k] for k in ("before", "after")}
        summary["validity_accuracy"] = s["report"].validity_accuracy
        P.dataio.atomic_write_text(str(self.workdir / "summary.json"), json.dumps(summary) + "\n")
        yield

    def round(self, ctx) -> Round:
        s: dict = {}
        ok: list[bool] = []
        stages = self._stages(ctx, s)
        for op in self.OPS:
            try:
                next(stages)
                ok.append(True)
            except Exception:
                report_exception(f"{self.name} stage {op}")
                ok.extend([False] * (len(self.OPS) - len(ok)))
                break
        return Round(ok=ok, state=s)

    def finish(self, ctx, r: Round) -> None:
        s = r.state
        if not all(r.ok):
            return
        r.graph_epochs, r.train_s = len(s["train_g"]) * s["config"].epochs, s["train_s"]
        s["repeats_differ"] = 0
        start = perf_counter()
        while perf_counter() - start < self.probe_s:
            t0 = perf_counter()
            fixed, records = P.correct.correct_detections(s["dets"], s["best"], s["config"])
            s["correct_s"].append(perf_counter() - t0)
            if ([d.class_id for d in fixed] != [d.class_id for d in s["fixed"]]
                    or [x.validity_score for x in records] != [x.validity_score for x in s["records"]]):
                s["repeats_differ"] += 1
        r.frame_ms = [1000.0 * t / len(s["test_f"]) for t in s["correct_s"]]
        r.dets, r.correction_s = len(s["dets"]), statistics.median(s["correct_s"])
        r.quality = dict(validity_accuracy=s["report"].validity_accuracy,
                         weighted_f1=s["report"].label.weighted_f1,
                         map50_after=s["after"], map50_before=s["before"])
        r.fingerprint = (sorted(r.quality.items()), [d.class_id for d in s["fixed"]])

    def check(self, ctx, r: Round) -> dict[int, list[str]]:
        s, out = r.state, {}
        config = s["config"]
        # build_dataset returns each frame's clean graph followed by its corrupted twin
        out["build_dataset"] = [
            m for i in sampled(range(len(s["train_f"])))
            for m in graph_check(f"train frame {i}", s["train_f"][i], s["train_g"][2 * i], K)
        ]
        valid = [bool(v) for g in s["test_g"] for v in g.validity]
        baseline = sum(valid) / len(valid)
        if not s["report"].validity_accuracy > baseline:
            out["evaluate_graphs"] = [
                f"validity accuracy {s['report'].validity_accuracy} not above "
                f"the all-valid baseline {baseline}"]
        before = [det_tuple(d) for d in s["dets"]]
        after = [det_tuple(d) for d in s["fixed"]]
        scores = checks.scores_in_input_order(before, record_dicts(s["records"]))
        msgs = checks.check_passthrough("correct_detections", before, after)
        msgs += checks.check_relabel_rule("correct_detections", before, after, scores,
                                          config.validity_threshold)
        if s["repeats_differ"]:
            msgs.append(f"{s['repeats_differ']} repeated correct_detections calls disagree with the first")
        if not s["after"] > s["before"]:
            msgs.append(f"mAP@50 after correction {s['after']} not above before {s['before']}")
        out["correct_detections"] = msgs
        gt = gt_of(s["test_f"])
        out["map50"] = (checks.check_map("map50 before", s["before"], before, gt)
                        + checks.check_map("map50 after", s["after"], after, gt))
        return {self.OPS.index(op): msgs for op, msgs in out.items() if msgs}


class StreamCorrect:
    """One client sends one frame per correct_detections call, closed loop."""

    name = "stream-correct"

    def __init__(self, size: dict, seed: int, workdir: Path, probe_s: float):
        self.size, self.seed, self.workdir = size, seed, workdir

    def setup(self) -> SimpleNamespace:
        template = layout()
        path = self.workdir / "stream.ckpt"
        train_work = train_checkpoint(template, self.size, path)
        ckpt = P.model.load_checkpoint(str(path))
        frames = P.synth.render_views(template, self.size["stream_frames"], dropout_prob=0.05,
                                      seed=P.corrupt.derive_seed(self.seed, "stream-views"))
        dets, gt_labels = inputs.stream_detections(frames, N_CLASSES, self.seed)
        per_frame: dict[str, list] = {}
        for t in dets:
            per_frame.setdefault(t[0], []).append(to_detection(t))
        return SimpleNamespace(
            ckpt=ckpt, frames=frames, dets=dets, gt_labels=gt_labels,
            per_frame=list(per_frame.values()), train_work=train_work)

    @property
    def ops_per_round(self) -> int:
        return self.size["stream_frames"]

    def round(self, ctx) -> Round:
        params, config = ctx.ckpt.params, ctx.ckpt.config
        ok, latency, fixed, records = [], [], [], []
        for frame_dets in ctx.per_frame:
            t0 = perf_counter()
            try:
                out, recs = P.correct.correct_detections(frame_dets, params, config)
            except Exception:
                report_exception(f"{self.name} frame {frame_dets[0].frame_id}")
                out, recs = None, None
            latency.append(1000.0 * (perf_counter() - t0))
            ok.append(out is not None)
            fixed.append(out)
            records.append(recs)
        corrected = [d for out in fixed if out is not None for d in out]
        _, after = P.metrics.map50(corrected, ctx.frames)
        return Round(ok=ok, state=dict(fixed=fixed, records=records, after=after),
                     frame_ms=latency, dets=len(ctx.dets), correction_s=sum(latency) / 1000.0)

    def finish(self, ctx, r: Round) -> None:
        s = r.state
        labels = [d.class_id for out in s["fixed"] if out is not None for d in out]
        scores = [rec.validity_score for recs in s["records"] if recs is not None for rec in recs]
        if len(labels) == len(ctx.dets):
            r.quality = correction_quality(ctx, labels, scores, ctx.ckpt.config.validity_threshold)
            r.quality["map50_after"] = s["after"]
        r.fingerprint = (s["after"], labels, scores)

    def quality_before(self, ctx) -> float:
        return checks.mean_ap50(ctx.dets, gt_of(ctx.frames))

    def check(self, ctx, r: Round) -> dict[int, list[str]]:
        s, out = r.state, {}
        params, config = ctx.ckpt.params, ctx.ckpt.config
        tau = config.validity_threshold
        batch_fixed, batch_records = P.correct.correct_detections(
            [d for frame in ctx.per_frame for d in frame], params, config)
        batch_scores = checks.scores_in_input_order(ctx.dets, record_dicts(batch_records))
        start = 0
        for i, frame_dets in enumerate(ctx.per_frame):
            n = len(frame_dets)
            before = ctx.dets[start: start + n]
            after = [det_tuple(d) for d in s["fixed"][i]]
            scores = checks.scores_in_input_order(before, record_dicts(s["records"][i]))
            name = f"frame {before[0][0]}"
            msgs = checks.check_passthrough(name, before, after)
            msgs += checks.check_relabel_rule(name, before, after, scores, tau)
            msgs += checks.check_same_correction(
                f"{name} alone vs in one multi-frame call",
                [t[1] for t in after], scores,
                [d.class_id for d in batch_fixed[start: start + n]], batch_scores[start: start + n])
            if msgs:
                out[i] = msgs
            start += n
        for i in sampled(range(len(ctx.per_frame))):
            frame = frame_of(ctx.per_frame[i])
            graph = P.scenegraph.build_graph(frame, config.k, config.n_classes)
            msgs = graph_check(f"stream frame {frame.frame_id}", frame, graph, config.k)
            if msgs:
                out.setdefault(i, []).extend(msgs)
        corrected = [det_tuple(d) for fx in s["fixed"] for d in fx]
        msgs = checks.check_map("stream map50", s["after"], corrected, gt_of(ctx.frames))
        if msgs:
            out.setdefault(len(ctx.per_frame) - 1, []).extend(msgs)
        return out


class DenseCorrect:
    """`scenegnn correct --k all` then `scenegnn map` on a dense detections file."""

    name = "dense-correct"
    OPS = ("correct", "map")
    ops_per_round = len(OPS)

    def __init__(self, size: dict, seed: int, workdir: Path, probe_s: float):
        self.size, self.seed, self.workdir = size, seed, workdir
        w = workdir
        self.paths = SimpleNamespace(
            ckpt=w / "dense.ckpt", dets=w / "dense.dets.jsonl", gt=w / "dense.gt.jsonl",
            out=w / "dense.fixed.jsonl", audit=w / "dense.audit.jsonl", map=w / "dense.map.json")

    def setup(self) -> SimpleNamespace:
        template = layout()
        train_work = train_checkpoint(template, self.size, self.paths.ckpt)
        dets, gt_labels, gt = inputs.dense_detections(
            template, self.size["dense_frames"], self.size["dense_copies"],
            self.size["dense_swap"], self.seed)
        inputs.write_detections_jsonl(self.paths.dets, dets)
        inputs.write_frames_jsonl(self.paths.gt, N_CLASSES, gt)
        return SimpleNamespace(dets=dets, gt_labels=gt_labels, gt=gt, train_work=train_work,
                               tau=P.model.ModelConfig().validity_threshold)

    def round(self, ctx) -> Round:
        p = self.paths
        t0 = perf_counter()
        rc_correct = P.cli.main([
            "--quiet", "correct", "--detections", str(p.dets), "--checkpoint", str(p.ckpt),
            "--k", "all", "--out", str(p.out), "--audit", str(p.audit)])
        correct_s = perf_counter() - t0
        rc_map = P.cli.main([
            "--quiet", "map", "--detections", str(p.out), "--gt", str(p.gt), "--out", str(p.map)])
        n_frames = self.size["dense_frames"]
        return Round(ok=[rc_correct == 0, rc_map == 0], frame_ms=[1000.0 * correct_s / n_frames],
                     dets=len(ctx.dets), correction_s=correct_s)

    def finish(self, ctx, r: Round) -> None:
        if not all(r.ok):
            return
        s = r.state
        s["fixed"] = inputs.read_detections_jsonl(self.paths.out)
        with open(self.paths.audit) as f:
            s["records"] = [json.loads(line) for line in f if line.strip()]
        with open(self.paths.map) as f:
            s["after"] = json.load(f)["map50"]
        s["scores"] = checks.scores_in_input_order(ctx.dets, s["records"])
        r.quality = correction_quality(ctx, [t[1] for t in s["fixed"]], s["scores"], ctx.tau)
        r.quality["map50_after"] = s["after"]
        r.fingerprint = (s["fixed"], s["scores"], s["after"])

    def quality_before(self, ctx) -> float:
        return checks.mean_ap50(ctx.dets, ctx.gt)

    def check(self, ctx, r: Round) -> dict[int, list[str]]:
        s, out = r.state, {}
        msgs = checks.check_passthrough("scenegnn correct", ctx.dets, s["fixed"])
        msgs += checks.check_relabel_rule("scenegnn correct", ctx.dets, s["fixed"], s["scores"], ctx.tau)
        frame = frame_of([to_detection(t) for t in ctx.dets if t[0] == ctx.dets[0][0]])
        graph = P.scenegraph.build_graph(frame, "all", N_CLASSES)
        msgs += graph_check(f"dense frame {frame.frame_id}", frame, graph, "all")
        out["correct"] = msgs
        out["map"] = checks.check_map("scenegnn map", s["after"], s["fixed"], ctx.gt)
        return {self.OPS.index(op): msgs for op, msgs in out.items() if msgs}


WORKLOADS = {w.name: w for w in (DeskTrain, StreamCorrect, DenseCorrect)}
