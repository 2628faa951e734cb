#!/usr/bin/env python3
"""Summarise alternating parent/change benchmark runs into BENCH_<n>.json.

    python3 scripts/bench_trajectory.py PARENT/bench/out CHANGE/bench/out --index 7

Each argument is the ``bench/out`` directory of one checkout, after
``bench/run.py --trace 0`` ran there once per (workload, seed). A run of the
parent and a run of the change at the same workload and seed form a pair. For
each workload and end-to-end metric of BENCHMARK.json the file records both
sides' median and quartiles, the change's median over the parent's, and how
many pairs the change won (strictly better, in the metric's direction). It
also records the operation counts and each side's environment record.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_KEYS = ("workload", "seed")


def load_runs(out_dir: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(out_dir.glob("*/result-trace0.json")):
        run = json.loads(path.read_text())
        runs[(run["env"]["workload"], run["env"]["seed"])] = run
    return runs


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent: dict, change: dict, benchmark: dict) -> dict:
    paired = sorted(parent.keys() & change.keys())
    workloads = {}
    for name in sorted({w for w, _ in paired}):
        seeds = [s for w, s in paired if w == name]
        p_runs = [parent[name, s] for s in seeds]
        c_runs = [change[name, s] for s in seeds]
        metrics = {}
        for m in benchmark["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in p_runs]
            c = [r["metrics"][m["name"]]["value"] for r in c_runs]
            sign = 1 if m["better"] == "higher" else -1
            ps, cs = spread(p), spread(c)
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "parent": ps, "change": cs,
                "change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
                "wins": sum(sign * (b - a) > 0 for a, b in zip(p, c)),
            }
        ops = lambda runs: {k: sum(r[k] for r in runs) for k in ("attempted", "failed")}
        workloads[name] = {
            "seeds": seeds, "pairs": len(seeds), "parent_ops": ops(p_runs), "change_ops": ops(c_runs),
            "all_correct": all(r["correct"] for r in p_runs + c_runs), "metrics": metrics,
        }
    env = lambda runs: {k: v for k, v in next(iter(runs.values()))["env"].items() if k not in RUN_KEYS}
    return {"environment": {"parent": env(parent), "change": env(change)}, "workloads": workloads}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_out", type=Path)
    ap.add_argument("change_out", type=Path)
    ap.add_argument("--index", type=int, required=True, help="n of the BENCH_<n>.json written")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = summarise(load_runs(args.parent_out), load_runs(args.change_out), benchmark)
    path = args.out_dir / f"BENCH_{args.index}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)


if __name__ == "__main__":
    main()
