"""Time this checkout's prediction and training paths against another
revision's, in one process.

    python tests/time_paths.py --base <rev> [--reps 60]

Clones the repository at ``<rev>`` into a temporary directory (removed at
exit) and copies each tree's ``src/evifed`` into one temporary package
directory, as ``evifed_base`` and ``evifed_head``.  The package imports
itself only through relative imports, so the two copies load side by side.
Each side builds the same seeded models and inputs, with no dataset file,
for two topologies: breast cancer (3 parties, (2, 5) -> (2, 2), 1 block) and
MNIST (4 parties, (2, 7, 7, 2) -> (1, 2, 2, 1), 2 blocks), both at TT rank 2
with 2 classes.  It times three paths on each:

- ``predict``: one-sample ``train.eviqvfl_predict``, as an evaluation pass
  makes it;
- ``gradient``: a 64-row ``train.full_gradient``, a training step without
  its Adam update;
- ``joint``: ``model.party_forward`` per party, then
  ``model.fuse_joint_circuit``, as ``evifed inspect`` predicts one sample.

The parameters never change between calls, so the operator caches hit on
every call, as in an evaluation pass.  Base and head alternate, the order
flipping at each repetition, so drift in the host's speed falls on both
alike; separate processes on a shared host can differ by more than the
change being timed.  Each repetition times a fixed number of calls per side.
The script prints, per topology and path, each side's median and quartiles
of the time per call, the head's median over the base's, and whether the two
sides' outputs are equal bit for bit.  pytest does not collect this file:
its name is not ``test_*``.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# name: (parties, input_dims, output_dims, blocks)
TOPOLOGIES = {
    "breast_cancer": (3, (2, 5), (2, 2), 1),
    "mnist": (4, (2, 7, 7, 2), (1, 2, 2, 1), 2),
}
RANK, CLASSES, BATCH = 2, 2, 64
# Calls per side and repetition: 3-25 ms of work each on these topologies.
CALLS = {"predict": 100, "gradient": 10, "joint": 10}


def load(package_dir: Path, name: str, tree: Path):
    """Copy ``tree``'s ``src/evifed`` to ``package_dir/name`` and import it."""
    shutil.copytree(tree / "src" / "evifed", package_dir / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def paths(evifed, topology: str) -> dict:
    """The three timed calls on seeded models and inputs, as closures."""
    parties, input_dims, output_dims, blocks = TOPOLOGIES[topology]
    rng = np.random.default_rng(7)
    models = [evifed.model.PartyModel.random_init(input_dims, output_dims, RANK,
                                                  blocks, CLASSES, rng)
              for _ in range(parties)]
    d = int(np.prod(input_dims))
    batch = [rng.uniform(0, 1, size=(BATCH, d)) for _ in models]
    labels = np.eye(CLASSES)[rng.integers(0, CLASSES, size=BATCH)]
    one = [x[0] for x in batch]

    def predict():
        return evifed.train.eviqvfl_predict(models, one).probabilities

    def gradient():
        loss, grads, _ = evifed.train.full_gradient(models, batch, labels)
        return [loss] + [g for party in grads for g in party]

    def joint():
        states = [evifed.model.party_forward(m, x)[0] for m, x in zip(models, one)]
        return evifed.model.fuse_joint_circuit(states, CLASSES)

    return {"predict": predict, "gradient": gradient, "joint": joint}


def same(a, b) -> bool:
    """Whether two outputs (arrays or lists of arrays) are equal bit for bit."""
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def per_call_us(call, calls: int) -> float:
    start = time.perf_counter()
    for _ in range(calls):
        call()
    return (time.perf_counter() - start) / calls * 1e6


def time_pair(base, head, calls: int, reps: int) -> tuple[list, list]:
    """Per-call microseconds of each side, one figure per repetition, the
    side that runs first flipping each time."""
    times = {"base": [], "head": []}
    sides = {"base": base, "head": head}
    for rep in range(reps):
        for side in ("base", "head") if rep % 2 == 0 else ("head", "base"):
            times[side].append(per_call_us(sides[side], calls))
    return times["base"], times["head"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    parser.add_argument("--reps", type=int, default=60,
                        help="alternations per path (default 60)")
    args = parser.parse_args(argv)
    if args.reps < 2:
        parser.error("--reps must be at least 2")
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        subprocess.run(["git", "clone", "-q", "--no-checkout", str(ROOT),
                        str(base_tree)], check=True)
        subprocess.run(["git", "-C", str(base_tree), "checkout", "-q", args.base],
                       check=True)
        packages = Path(tmp) / "packages"
        packages.mkdir()
        sys.path.insert(0, str(packages))
        sides = {"base": load(packages, "evifed_base", base_tree),
                 "head": load(packages, "evifed_head", ROOT)}
        print(f"{'topology':<14}{'path':<10}{'base us (q1 med q3)':>24}"
              f"{'head us (q1 med q3)':>24}{'head/base':>11}  outputs")
        for topology in TOPOLOGIES:
            calls = {side: paths(pkg, topology) for side, pkg in sides.items()}
            for path, count in CALLS.items():
                base, head = calls["base"][path], calls["head"][path]
                equal = same(base(), head())  # also the warm-up call
                gc.collect()
                quartiles = [np.percentile(t, [25, 50, 75])
                             for t in time_pair(base, head, count, args.reps)]
                cells = ["{:8.1f}{:8.1f}{:8.1f}".format(*q) for q in quartiles]
                ratio = quartiles[1][1] / quartiles[0][1]
                print(f"{topology:<14}{path:<10}{cells[0]:>24}{cells[1]:>24}"
                      f"{ratio:>11.3f}  {'identical' if equal else 'DIFFER'}")
        sys.path.remove(str(packages))
    return 0


if __name__ == "__main__":
    sys.exit(main())
