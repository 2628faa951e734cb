"""Span tracing of scenegnn's public functions, installed from outside the package.

Each traced function is wrapped once and the wrapper is bound at every name
under which a ``scenegnn`` module holds the original (``scenegnn.train.build_graph``,
``scenegnn.correct.build_graph``, ``scenegnn.cli.build_graph`` ...), so calls are
caught wherever the program makes them. Spans (name, start, end, parent) stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


def _edges(counts, out):
    counts["scenegraph.edges"] += out.n_edges


def _batch_nodes(counts, out):
    counts["nn.batch_nodes"] += out.n_nodes


def _predict_nodes(counts, out):
    counts["model.predict.nodes"] += out.validity_prob.size


def _applied(counts, out):
    counts["correct.applied"] += sum(1 for r in out[1] if r.applied)


# (defining module, function, counter run on each call's result)
TRACED = (
    ("scenegraph", "build_graph", _edges),
    ("nn", "make_batch", _batch_nodes),
    ("nn", "full_forward", None),
    ("nn", "loss_components", None),
    ("nn", "backward", None),
    ("nn", "adam_step", None),
    ("model", "predict", _predict_nodes),
    ("model", "save_checkpoint", None),
    ("model", "load_checkpoint", None),
    ("train", "build_dataset", None),
    ("train", "train", None),
    ("corrupt", "corrupt_frame", None),
    ("synth", "render_views", None),
    ("metrics", "evaluate_graphs", None),
    ("metrics", "map50", None),
    ("correct", "correct_detections", _applied),
    ("correct", "simulate_detector", None),
    ("dataio", "parse_detections", None),
    ("dataio", "parse_frames", None),
    ("dataio", "write_detections", None),
    ("dataio", "atomic_write_text", None),
    ("cli", "main", None),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TRACED)


class Tracer:
    """Records one span per call of each traced function while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "scenegnn" or n.startswith("scenegnn."))
        ]
        for mod_name, fn_name, counter in TRACED:
            original = getattr(sys.modules[f"scenegnn.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (total self seconds, calls); self = duration minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: [0.0, 0] for name in SPAN_NAMES}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name][0] += (end - start) - c
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path, origin: float) -> None:
        with open(path, "w") as f:
            f.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                f.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")
