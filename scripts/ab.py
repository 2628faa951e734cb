#!/usr/bin/env python3
"""Paired A/B timing of two revisions of the package in one process.

    python3 scripts/ab.py PARENT CHANGE --workload train --seed 0 --rounds 6

PARENT and CHANGE are git revisions of this repository. Each side is the
revision's ``src/scenegnn``, taken with ``git archive`` into a temporary
directory and imported under its own package name (``scenegnn_a`` for
PARENT, ``scenegnn_b`` for CHANGE), so the checkout is untouched; the package
imports itself by relative imports only. Each side builds its own inputs from
the same seed.

A round runs each operation of the workload once on each side. An operation
is a run of steps (a frame's correction, a dataset's build), and the two
sides take turns step by step, parent first on even rounds and change first
on odd ones, so that the machine's drift, which skews separate benchmark
processes by 1.3-1.5x, reaches both sides alike. For each operation the
script prints both sides' median seconds per round, the median of the
per-round change/parent ratios with its quartiles, and the rounds in which
the change was faster. ``--profile`` adds one cProfile round per side after
the timed ones and prints the functions with the most self time on either
side, with each one's change/parent ratio.

Workloads:
  train   desk scale (39 classes, 2000 views, k=5, rho=3, 30 epochs, seeded
          as scripts/run_pipeline.py): build_dataset of the training and
          of the validation frames (two steps), train() with validation,
          and five correct_detections calls (one per step) over the test
          frames' simulated detections with the best parameters.
  stream  600 views' simulated detections, one correct_detections call per
          frame and step, as a closed-loop client makes them, with random
          weights.
  dense   4 full-wall views whose 39 objects are each reported 6 times (234
          detections per frame) in a shuffled order, corrected at k="all"
          one frame per step, with random weights.

Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("correct", "corrupt", "geometry", "metrics", "model", "nn", "synth", "train")
N_CLASSES, K, RHO = 39, 5, 3
END = object()


def load_side(rev: str, name: str, tmp: Path) -> SimpleNamespace:
    """The package of revision ``rev`` imported as ``name``: its modules
    as attributes, and ``dir``, the directory it was unpacked to."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev, "src/scenegnn"], capture_output=True, check=True
    ).stdout
    dest = tmp / name
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    pkg = dest / "src" / "scenegnn"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(
        dir=str(pkg), **{m: importlib.import_module(f"{name}.{m}") for m in MODULES}
    )


def random_model(P, k):
    config = P.model.ModelConfig(n_classes=N_CLASSES, k=k, seed=0)
    return P.model.init_model(config, np.random.default_rng(0)), config


class Train:
    OPS = ("build_dataset", "train", "correct_detections")
    CORRECT_CALLS = 5  # one call lasts about 0.1 s, too short to time alone

    def __init__(self, P, seed: int):
        derive = P.corrupt.derive_seed
        template = P.synth.gen_template(N_CLASSES, derive(seed, "synth"))
        frames = P.synth.render_views(template, 2000, dropout_prob=0.05, seed=derive(seed, "views"))
        self.P, self.seed = P, seed
        self.config = P.model.ModelConfig(n_classes=N_CLASSES, k=K, rho=RHO, epochs=30, seed=seed)
        self.train_f, self.val_f, test_f = P.train.split_dataset(frames, seed=seed)
        self.dets = P.correct.simulate_detector(
            test_f, N_CLASSES, rho_det=3, sigma_det=0.01, seed=derive(seed, "detector")
        )

    def build_dataset(self):
        derive, build = self.P.corrupt.derive_seed, self.P.train.build_dataset
        self.train_g = build(self.train_f, self.config, derive(self.seed, "train-data"))
        yield
        self.val_g = build(self.val_f, self.config, derive(self.seed, "val-data"))
        yield

    def train(self):
        _, self.best, _ = self.P.train.train(self.train_g, self.config, self.val_g)
        yield

    def correct_detections(self):
        for _ in range(self.CORRECT_CALLS):
            self.P.correct.correct_detections(self.dets, self.best, self.config)
            yield


class Stream:
    OPS = ("frames",)

    def __init__(self, P, seed: int):
        derive = P.corrupt.derive_seed
        template = P.synth.gen_template(N_CLASSES, derive(seed, "synth"))
        frames = P.synth.render_views(template, 600, dropout_prob=0.05, seed=derive(seed, "views"))
        dets = P.correct.simulate_detector(frames, N_CLASSES, seed=derive(seed, "detector"))
        per_frame: dict[str, list] = {}
        for d in dets:
            per_frame.setdefault(d.frame_id, []).append(d)
        self.P, self.per_frame = P, list(per_frame.values())
        self.params, self.config = random_model(P, K)

    def frames(self):
        for dets in self.per_frame:
            self.P.correct.correct_detections(dets, self.params, self.config)
            yield


class Dense:
    OPS = ("correct_detections",)
    FRAMES, COPIES = 4, 6

    def __init__(self, P, seed: int):
        template = P.synth.gen_template(N_CLASSES, P.corrupt.derive_seed(seed, "synth"))
        rng = np.random.default_rng([seed, 2])
        centres = np.repeat(template.anchors, self.COPIES, axis=0)
        half = np.repeat(template.sizes, self.COPIES, axis=0) / 2.0
        self.per_frame = []
        for f in range(self.FRAMES):
            boxes = np.hstack([centres - half, centres + half]) + rng.normal(0.0, 0.005, (len(centres), 4))
            # (x_min, y_min) over (x_max, y_max): the sort orders each axis
            boxes = np.clip(np.sort(boxes.reshape(-1, 2, 2), axis=1).reshape(-1, 4), 0.0, 1.0)
            labels = rng.integers(0, N_CLASSES, len(boxes))
            self.per_frame.append([
                P.metrics.Detection(
                    f"wall_{f:03d}", int(labels[i]), P.geometry.BoundingBox(*boxes[i].tolist()),
                    float(rng.uniform(0.05, 1.0)),
                )
                for i in rng.permutation(len(boxes)).tolist()
            ])
        self.P = P
        self.params, self.config = random_model(P, "all")

    def correct_detections(self):
        for dets in self.per_frame:
            self.P.correct.correct_detections(dets, self.params, self.config, k="all")
            yield


WORKLOADS = {"train": Train, "stream": Stream, "dense": Dense}


def alternate(steps: list, order: tuple[int, int]) -> list[float]:
    """Seconds that each side's steps (generators) took, run in turns in
    ``order``; the two sides take the same number of steps."""
    seconds = [0.0, 0.0]
    while True:
        ended = 0
        for side in order:
            t0 = perf_counter()
            ended += next(steps[side], END) is END
            seconds[side] += perf_counter() - t0
        if ended == 2:
            return seconds
        if ended:
            raise RuntimeError("the two sides took different numbers of steps")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def self_times(profile: cProfile.Profile, package_dir: str) -> dict[str, float]:
    """Self seconds per function, named ``file(function)`` with the
    package's files as ``scenegnn/...``, so that the two sides line up.
    Summed over the profiler's entries, since ``pstats`` keeps only one of
    the functions that share a file, line and name, such as every
    dataclass's generated ``__init__``."""
    out: dict[str, float] = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a built-in
            name = code
        else:
            path = code.co_filename
            if path.startswith(package_dir):
                path = "scenegnn" + path[len(package_dir):]
            elif path.startswith("/"):
                path = Path(path).name
            name = f"{path}({code.co_name})"
        out[name] = out.get(name, 0.0) + entry.inlinetime
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", help="git revision of side A")
    ap.add_argument("change", help="git revision of side B")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rounds", type=int, default=6)
    ap.add_argument("--profile", action="store_true", help="add cProfile self-time ratios")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        sides = [load_side(rev, name, Path(tmp)) for rev, name in
                 ((args.parent, "scenegnn_a"), (args.change, "scenegnn_b"))]
        workload = WORKLOADS[args.workload]
        runs = [workload(P, args.seed) for P in sides]
        times = {op: ([], []) for op in workload.OPS}
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for op in workload.OPS:
                for side, seconds in enumerate(alternate([getattr(run, op)() for run in runs], order)):
                    times[op][side].append(seconds)

        print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds; "
              f"A = {args.parent}, B = {args.change}")
        print(f"{'operation':<20}{'A median s':>12}{'B median s':>12}{'B/A':>8}{'q1':>8}{'q3':>8}  B faster")
        for op, (a, b) in times.items():
            q1, median, q3 = quartiles([tb / ta for ta, tb in zip(a, b)])
            wins = sum(tb < ta for ta, tb in zip(a, b))
            print(f"{op:<20}{statistics.median(a):>12.4f}{statistics.median(b):>12.4f}"
                  f"{median:>8.3f}{q1:>8.3f}{q3:>8.3f}  {wins}/{len(a)}")

        if args.profile:
            selfs = []
            for side, run in enumerate(runs):
                profile = cProfile.Profile()
                for op in workload.OPS:
                    profile.runcall(list, getattr(run, op)())
                selfs.append(self_times(profile, sides[side].dir))
            a, b = selfs
            print("\nself time of one profiled round per side (the 25 longest on either side)")
            print(f"{'A s':>9}{'B s':>9}{'B/A':>8}  function")
            for name in sorted(a.keys() | b.keys(), key=lambda n: -max(a.get(n, 0.0), b.get(n, 0.0)))[:25]:
                ta, tb = a.get(name, 0.0), b.get(name, 0.0)
                ratio = f"{tb / ta:8.3f}" if ta else f"{'-':>8}"
                print(f"{ta:9.4f}{tb:9.4f}{ratio}  {name}")


if __name__ == "__main__":
    main()
