"""Byte-identity of every pipeline output at a small size.

The lines are ``scripts/identity_hashes.py``'s hashes (frames, training
graphs, parameters, history, checkpoint file, eval report, mAP and the
corrections at k=5 and k="all") for two seeds, compared with
``tests/data/identity_hashes.txt``. The bits belong to one numpy version and
BLAS build, which the file records; on another build the test fails and names
the recorded one. A change that moves bits on purpose regenerates the file:

    PYTHONPATH=src python3 tests/test_identity.py > tests/data/identity_hashes.txt

and names the lines that moved, and why.

At this size (16 classes, 120 views, 10 epochs) the k=5 and k="all" graphs
differ and some corrections apply; with 8 classes k=5 links every pair, and
after 3 epochs nothing is corrected.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import conftest  # noqa: F401  one BLAS thread, also when run as a script
import numpy as np

SEEDS = (0, 1)
CLASSES, FRAMES, EPOCHS = 16, 120, 10
EXPECTED = Path(__file__).with_name("data") / "identity_hashes.txt"
SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity_hashes.py"


def _seed_hashes():
    spec = importlib.util.spec_from_file_location("identity_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.seed_hashes


def environment_lines() -> list[str]:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return [
        f"# numpy {np.__version__}",
        f"# blas {blas['name']} {blas['version']}",
        f"# size classes={CLASSES} frames={FRAMES} epochs={EPOCHS} seeds={' '.join(map(str, SEEDS))}",
    ]


def hash_lines() -> list[str]:
    seed_hashes = _seed_hashes()
    return [
        f"seed {seed} {name:<14} {digest}"
        for seed in SEEDS
        for name, digest in seed_hashes(seed, CLASSES, FRAMES, EPOCHS).items()
    ]


def _recorded() -> tuple[list[str], list[str]]:
    """The file's environment lines and its hash lines."""
    lines = EXPECTED.read_text().splitlines()
    return [l for l in lines if l.startswith("#")], [l for l in lines if not l.startswith("#")]


def test_environment_is_the_recorded_one():
    recorded, _ = _recorded()
    assert recorded == environment_lines(), (
        "the identity hashes were recorded for another build; "
        f"recorded: {recorded}, here: {environment_lines()}"
    )


def test_every_output_is_byte_identical():
    recorded, expected = _recorded()
    actual = hash_lines()

    def names(lines):
        return [" ".join(line.split()[:3]) for line in lines]

    assert names(actual) == names(expected), f"other outputs: {names(actual)}"
    moved = [name for name, a, e in zip(names(actual), actual, expected) if a != e]
    assert not moved, (
        f"{len(moved)} of {len(actual)} outputs moved: {', '.join(moved)} "
        f"(recorded for {'; '.join(recorded)})"
    )


if __name__ == "__main__":
    print("\n".join(environment_lines() + hash_lines()))
