#!/usr/bin/env python3
"""Benchmark of scenegnn: one workload per run, outputs checked, metrics printed.

    python3 bench/run.py --workload stream-correct --seed 1 --seconds 8 --trace 0

Run from the repository root; the program is imported from ``src/`` of the same
checkout. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The line before it records the environment. ``--smoke`` runs tiny inputs.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
IDENTITY_TOL_S = 1e-6
TAIL_WINDOW = 1000
MIN_TAIL_SAMPLES = 40


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["desk-train", "stream-correct", "dense-correct"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for trying the benchmark out")
    return ap.parse_args(argv)


def import_program():
    """Import scenegnn from this checkout's src/ and the workloads built on it."""
    sys.path.insert(0, str(SRC))
    import scenegnn
    import workloads

    if not Path(scenegnn.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"scenegnn imported from {scenegnn.__file__}, not from {SRC}")
    return workloads


def git_describe() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(args, workloads) -> dict:
    import numpy
    import scipy

    return {
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_describe": git_describe(),
        "workload": args.workload,
        "seed": args.seed,
        "layout_seed": workloads.LAYOUT_SEED,
        "size": "smoke" if args.smoke else "full",
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_rounds(wl, ctx, seconds: float, rounds: list | None = None) -> list:
    """Append whole rounds to ``rounds`` until ``seconds`` have passed; the
    list ends up holding at least one."""
    rounds = [] if rounds is None else rounds
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        w0, c0 = perf_counter(), process_time()
        r = wl.round(ctx)
        r.wall, r.cpu = perf_counter() - w0, process_time() - c0
        wl.finish(ctx, r)
        rounds.append(r)
    return rounds


def verify(wl, ctx, rounds) -> tuple[int, bool]:
    """(failed operations, outputs correct). The first round that completes is
    checked; every later one must reproduce its outputs exactly."""
    failed, correct, reference = 0, True, None
    for r in rounds:
        bad = {i for i, ok in enumerate(r.ok) if not ok}
        if not bad and reference is None:
            reference = r
            for op, msgs in sorted(wl.check(ctx, r).items()):
                for m in msgs:
                    print(f"check failed: {m}", file=sys.stderr)
                bad.add(op)
                correct = False
        elif not bad and r.fingerprint != reference.fingerprint:
            print("check failed: a round's outputs differ from the first round's", file=sys.stderr)
            bad = set(range(wl.ops_per_round))
            correct = False
        failed += len(bad)
    if reference is None:
        raise RuntimeError(f"{wl.name}: no round completed")
    return failed, correct


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def tail_ms(samples) -> float:
    """p99 within each consecutive window of TAIL_WINDOW samples (so at least
    ten lie beyond it), median over the windows; a burst of machine noise then
    moves one window, not the run. Below MIN_TAIL_SAMPLES there is no tail to
    report, and the median stands in for it."""
    import numpy as np

    if len(samples) < MIN_TAIL_SAMPLES:
        return float(np.median(samples))
    windows = [samples[i: i + TAIL_WINDOW] for i in range(0, len(samples), TAIL_WINDOW)]
    return float(np.median([np.percentile(w, 99) for w in windows if len(w) == TAIL_WINDOW]
                           or [np.percentile(samples, 99)]))


def end_to_end(wl, rounds, setups, import_s: float) -> dict:
    import numpy as np

    done = [r for r in rounds if all(r.ok)]
    frame_ms = np.array([x for r in done for x in r.frame_ms])
    # Training in the rounds (desk-train), else pooled over the set-ups' trainings.
    trained = [(r.graph_epochs, r.train_s) for r in done if r.graph_epochs] or [s[1] for s in setups]
    q = done[0].quality
    return {
        "setup_s": metric(import_s + statistics.median(s[0] for s in setups), "s"),
        "wall_s": metric(statistics.median(r.wall for r in done), "s"),
        "cpu_s": metric(statistics.median(r.cpu for r in done), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_graphs_per_s": metric(sum(g for g, _ in trained) / sum(t for _, t in trained), "graphs/s"),
        "dets_per_s": metric(statistics.median(r.dets / r.correction_s for r in done), "detections/s"),
        "frame_ms_p50": metric(np.percentile(frame_ms, 50), "ms"),
        "frame_ms_p99": metric(tail_ms(frame_ms), "ms"),
        "validity_accuracy": metric(q["validity_accuracy"], "fraction"),
        "weighted_f1": metric(q["weighted_f1"], "fraction"),
        "map50_after": metric(q["map50_after"], "mAP"),
    }


def timed_setup(wl):
    t0 = perf_counter()
    ctx = wl.setup()
    return ctx, perf_counter() - t0


def measure(wl, seconds: float, import_s: float) -> dict:
    """Each set-up is followed by its share of the measured time, so the rounds
    spread over the whole run and a change in the machine's speed during it
    weighs on the medians less. A round longer than a share (desk-train's
    pipeline) uses up the later shares too."""
    setups, rounds, measured = [], [], 0.0
    for i in range(SETUP_REPEATS):
        ctx, setup_s = timed_setup(wl)
        setups.append((setup_s, ctx.train_work))
        t0 = perf_counter()
        run_rounds(wl, ctx, seconds * (i + 1) / SETUP_REPEATS - measured, rounds)
        measured += perf_counter() - t0
    failed, correct = verify(wl, ctx, rounds)
    return {
        "correct": correct,
        "attempted": len(rounds) * wl.ops_per_round,
        "failed": failed,
        "metrics": end_to_end(wl, rounds, setups, import_s),
    }


def traced(wl, seconds: float, workdir: Path) -> dict:
    """Untraced rounds for ``seconds``, then one traced set-up and one traced
    round, so the per-layer figures always cover the same work."""
    from tracer import Tracer

    ctx, _ = timed_setup(wl)
    rounds = run_rounds(wl, ctx, seconds)
    untraced_round_s = statistics.median(r.wall for r in rounds if all(r.ok))

    tracer = Tracer()
    tracer.install()
    try:
        t0 = perf_counter()
        traced_ctx = wl.setup()
        w0 = perf_counter()
        r = wl.round(traced_ctx)
        traced_round_s = perf_counter() - w0
        traced_wall = perf_counter() - t0
    finally:
        tracer.uninstall()
    tracer.write(workdir / "spans.csv", t0)
    wl.finish(traced_ctx, r)
    rounds.append(r)
    failed, correct = verify(wl, ctx, rounds)

    metrics = {}
    total_self = 0.0
    for name, (self_s, calls) in tracer.self_times().items():
        metrics[f"{name}.self_s"] = metric(self_s, "s")
        metrics[f"{name}.calls"] = metric(calls, "count")
        total_self += self_s
    untraced_s = traced_wall - tracer.top_level_seconds()
    if not abs(total_self + untraced_s - traced_wall) <= IDENTITY_TOL_S:
        print(f"check failed: self times {total_self} + untraced {untraced_s} "
              f"!= traced wall {traced_wall}", file=sys.stderr)
        correct = False
    c = tracer.counts
    n_batches = metrics["nn.make_batch.calls"]["value"]
    n_predicts = metrics["model.predict.calls"]["value"]
    before = r.quality.get("map50_before")
    metrics.update({
        "scenegraph.edges": metric(c["scenegraph.edges"], "count"),
        "nn.batch_nodes_per_call": metric(c["nn.batch_nodes"] / max(n_batches, 1), "nodes/call"),
        "model.predict.nodes_per_call": metric(c["model.predict.nodes"] / max(n_predicts, 1), "nodes/call"),
        "correct.applied": metric(c["correct.applied"], "count"),
        "metrics.map50_before": metric(before if before is not None else wl.quality_before(traced_ctx), "mAP"),
        "trace.overhead_s": metric(traced_round_s - untraced_round_s, "s"),
        "trace.wall_s": metric(traced_wall, "s"),
        "trace.untraced_s": metric(untraced_s, "s"),
    })
    return {
        "correct": correct,
        "attempted": len(rounds) * wl.ops_per_round,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0

    size = workloads.SIZES["smoke" if args.smoke else "full"]
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    workdir.mkdir(parents=True, exist_ok=True)
    # The correction probe after desk-train's pipeline feeds end-to-end metrics only.
    probe_s = 0.0 if args.trace else args.seconds
    wl = workloads.WORKLOADS[args.workload](size, args.seed, workdir, probe_s)
    env = environment(args, workloads)
    print(json.dumps({"env": env}), flush=True)
    result = traced(wl, args.seconds, workdir) if args.trace else measure(wl, args.seconds, import_s)
    with open(workdir / f"result-trace{args.trace}.json", "w") as f:
        json.dump({"env": env, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
