"""Compare this checkout's training outputs with those of another revision.

    python tests/same_outputs.py --base <rev>

Clones the repository at ``<rev>`` into a temporary directory (removed at
exit).  In both trees it runs ``evifed train`` once per model kind on that
tree's own ``configs/breast_cancer.yaml`` with ``model_kind`` replaced, then
compares ``trace.csv``, ``summary.txt`` and ``model.txt`` byte for byte.  A
second pass, labelled ``[wide]``, trains the five kinds again with
``parties.output_dims: [2, 4]`` and ``parties.vqc_blocks: 2``: 3 parties of
8 qubits, so each later block runs two group operators, the adjoint undoes
them, and a 64-sample mini-batch spans 12 chunks of
``model.CHUNK_AMPLITUDES``, none of which the shipped one-block config runs.
On each pass it also runs ``evifed inspect --sample 0`` on each tree's
eviqvfl dump (the wide one skips the joint column: 26 qubits exceed the
cap), and once ``evifed verify`` per tree, and compares each pair of
outputs byte for byte.  It prints one line per pass, kind and file, one per
pass for ``inspect`` and one for ``verify``; where both trees wrote a file
or output that differs, the line gives the largest relative difference
between their numeric fields, matched in order.  It exits 1 if any file or
output differs, or if a run fails.  Both trees run on this interpreter's
NumPy, whose version and BLAS entry it prints first: byte identity holds per
machine and BLAS kernel, so a comparison holds for that pair only.  pytest does not collect this file: its name is not
``test_*``.
"""
from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("eviqvfl", "classical_average", "classical_fuse",
         "measure_then_average", "measure_then_vqc")
FILES = ("trace.csv", "summary.txt", "model.txt")
# label suffix: the pass's values of the config's ``parties`` keys
PASSES = {"": {}, "[wide]": {"output_dims": [2, 4], "vqc_blocks": 2}}
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def evifed(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the ``evifed`` command line of ``tree`` from its root."""
    return subprocess.run(
        [sys.executable, "-m", "evifed.cli", *args],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True)


def train(tree: Path, kind: str, parties: dict, out: Path) -> str:
    """Run ``evifed train`` from ``tree`` on its breast-cancer config as
    ``kind``, with ``parties`` over its ``parties`` keys, writing to
    ``out``; return stderr if the run failed."""
    raw = yaml.safe_load((tree / "configs" / "breast_cancer.yaml").read_text())
    raw["model_kind"] = kind
    raw["parties"].update(parties)
    out.mkdir(parents=True)
    config = out / "config.yaml"
    config.write_text(yaml.safe_dump(raw, sort_keys=False))
    done = evifed(tree, "train", "--config", str(config), "--out", str(out))
    return done.stderr.strip() if done.returncode else ""


def drift(a: str, b: str) -> str:
    """How two texts differ: the largest relative difference between their
    numeric fields, matched in order, or that the text around them does."""
    if NUMBER.sub("#", a) != NUMBER.sub("#", b):
        return "the text around the numbers differs"
    worst = 0.0
    for x, y in zip(map(float, NUMBER.findall(a)), map(float, NUMBER.findall(b))):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        relative = abs(x - y) / max(abs(x), abs(y))
        worst = max(worst, relative if math.isfinite(relative) else math.inf)
    return f"largest relative difference {worst:.3g}"


def same_output(label: str, done: list[subprocess.CompletedProcess]) -> bool:
    """Print whether two successful runs wrote the same stdout; return it."""
    ran = done[0].returncode == done[1].returncode == 0
    same = ran and done[0].stdout == done[1].stdout
    verdict = "identical" if same else "DIFFERS"
    if not same and ran:
        verdict += ", " + drift(done[0].stdout, done[1].stdout)
    print(f"{label}: {verdict}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"numpy {np.__version__}; BLAS {blas}")
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "clone", "-q", "--no-checkout", str(ROOT), str(base)],
                       check=True)
        subprocess.run(["git", "-C", str(base), "checkout", "-q", args.base],
                       check=True)
        trees = {"base": base, "here": ROOT}
        for suffix, parties in PASSES.items():
            for kind in KINDS:
                label = kind + suffix
                runs = {}
                for name, tree in trees.items():
                    runs[name] = Path(tmp) / f"out-{name}" / label
                    error = train(tree, kind, parties, runs[name])
                    if error:
                        print(f"{label}: train failed in {name}: {error}")
                        differ = True
                for file in FILES:
                    a, b = runs["base"] / file, runs["here"] / file
                    if not a.exists() and not b.exists():
                        verdict = "absent in both"
                    elif a.exists() and b.exists() and a.read_bytes() == b.read_bytes():
                        verdict = "identical"
                    else:
                        verdict = "DIFFERS"
                        if a.exists() and b.exists():
                            verdict += ", " + drift(a.read_text(), b.read_text())
                        differ = True
                    print(f"{label} {file}: {verdict}")
                if kind == "eviqvfl":
                    done = [evifed(tree, "inspect", "--config",
                                   str(runs[name] / "config.yaml"), "--model",
                                   str(runs[name] / "model.txt"), "--sample", "0")
                            for name, tree in trees.items()]
                    differ |= not same_output(f"{label} inspect --sample 0", done)
        differ |= not same_output(
            "verify", [evifed(tree, "verify") for tree in trees.values()])
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
