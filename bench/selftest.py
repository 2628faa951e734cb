#!/usr/bin/env python3
"""Self-test of the benchmark: every check must reject a deliberately broken
output and accept the true one, and each workload must run end to end at smoke
size, untraced and traced.

    python3 bench/selftest.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys

import run  # pins the BLAS threads before numpy is imported

FAILURES: list[str] = []


def expect(name: str, messages: list[str], should_fail: bool) -> None:
    if bool(messages) != should_fail:
        FAILURES.append(f"{name}: expected {'rejection' if should_fail else 'acceptance'}, got {messages}")
    print(f"{'ok  ' if bool(messages) == should_fail else 'FAIL'} {name}")


def check_the_checks(W) -> None:
    import checks

    P = W.P
    frames = P.synth.render_views(W.layout(), 6, dropout_prob=0.05, seed=11)
    gt = W.gt_of(frames)
    dets = [W.to_detection(t) for t in W.inputs.stream_detections(frames, W.N_CLASSES, seed=5)[0]]
    before = [W.det_tuple(d) for d in dets]
    _, reported = P.metrics.map50(dets, frames)
    expect("mAP equal to map50", checks.check_map("map", reported, before, gt), False)
    expect("wrong mAP", checks.check_map("map", reported + 1e-9, before, gt), True)

    moved = copy.deepcopy(before)
    fid, cls, box, conf = moved[3]
    moved[3] = (fid, cls, (box[0] + 1e-12, box[1], box[2], box[3]), conf)
    expect("boxes untouched", checks.check_passthrough("pass", before, before), False)
    expect("moved box", checks.check_passthrough("pass", before, moved), True)
    reordered = before[:2] + [before[3], before[2]] + before[4:]
    expect("reordered detection", checks.check_passthrough("pass", before, reordered), True)
    changed_conf = before[:1] + [before[1][:3] + (before[1][3] * (1 + 1e-15),)] + before[2:]
    expect("changed confidence", checks.check_passthrough("pass", before, changed_conf), True)

    relabelled = before[:1] + [(before[1][0], (before[1][1] + 1) % W.N_CLASSES) + before[1][2:]] + before[2:]
    scores = [0.9] * len(before)
    expect("relabel at a high score", checks.check_relabel_rule("rule", before, relabelled, scores, 0.5), True)
    scores[1] = 0.1
    expect("relabel at a low score", checks.check_relabel_rule("rule", before, relabelled, scores, 0.5), False)

    labels = [t[1] for t in before]
    expect("same correction", checks.check_same_correction("same", labels, scores, labels, scores), False)
    expect("different label", checks.check_same_correction(
        "same", labels, scores, [t[1] for t in relabelled], scores), True)
    expect("different score", checks.check_same_correction(
        "same", labels, scores, labels, [s + 1e-6 for s in scores]), True)

    frame = frames[0]
    for k in (2, "all"):
        graph = P.scenegraph.build_graph(frame, k, W.N_CLASSES)
        expect(f"k={k} edges", W.graph_check("graph", frame, graph, k), False)
        dropped = copy.deepcopy(graph)
        dropped.edges, dropped.edge_features = graph.edges[1:], graph.edge_features[1:]
        expect(f"k={k} dropped edge", W.graph_check("graph", frame, dropped, k), True)
        bent = copy.deepcopy(graph)
        bent.edge_features[0, 2] += 1e-9
        expect(f"k={k} wrong edge feature", W.graph_check("graph", frame, bent, k), True)
    expect("k=2 graph checked as k=3", W.graph_check(
        "graph", frame, P.scenegraph.build_graph(frame, 2, W.N_CLASSES), 3), True)


def smoke(workload: str, trace: int) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace), "--smoke"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    ok = code == 0 and result["correct"] and result["failed"] == 0 and got == units
    if not ok:
        FAILURES.append(f"smoke {workload} trace {trace}: exit {code}, {result}, "
                        f"metrics differ from BENCHMARK.json: {set(got.items()) ^ set(units.items())}")
    print(f"{'ok  ' if ok else 'FAIL'} smoke {workload} --trace {trace}: "
          f"{result['attempted']} operations, {len(result['metrics'])} metrics")


def main() -> int:
    W = run.import_program()
    check_the_checks(W)
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            smoke(workload, trace)
    for f in FAILURES:
        print(f, file=sys.stderr)
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
