"""Compare this checkout's training outputs with those of another revision.

    python tests/same_outputs.py --base <rev>

Clones the repository at ``<rev>`` into a temporary directory (removed at
exit).  In both trees it runs ``evifed train`` once per model kind on that
tree's own ``configs/breast_cancer.yaml`` with ``model_kind`` replaced, then
compares ``trace.csv``, ``summary.txt`` and ``model.txt`` byte for byte.  It
also runs ``evifed inspect --sample 0`` on each tree's eviqvfl dump and
compares the two outputs byte for byte.  It prints one line per kind and
file; where both trees wrote a file or output that differs, the line gives
the largest relative difference between their numeric fields, matched in
order.  It exits 1 if any file or output differs, or if a run fails.  pytest
does not collect this file: its name is not ``test_*``.
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

import yaml

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("eviqvfl", "classical_average", "classical_fuse",
         "measure_then_average", "measure_then_vqc")
FILES = ("trace.csv", "summary.txt", "model.txt")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def evifed(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the ``evifed`` command line of ``tree`` from its root."""
    return subprocess.run(
        [sys.executable, "-m", "evifed.cli", *args],
        cwd=tree, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
        capture_output=True, text=True)


def train(tree: Path, kind: str, out: Path) -> str:
    """Run ``evifed train`` from ``tree`` on its breast-cancer config as
    ``kind``, writing to ``out``; return stderr if the run failed."""
    raw = yaml.safe_load((tree / "configs" / "breast_cancer.yaml").read_text())
    raw["model_kind"] = kind
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare with")
    args = parser.parse_args(argv)
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        subprocess.run(["git", "clone", "-q", "--no-checkout", str(ROOT), str(base)],
                       check=True)
        subprocess.run(["git", "-C", str(base), "checkout", "-q", args.base],
                       check=True)
        trees = {"base": base, "here": ROOT}
        for kind in KINDS:
            runs = {}
            for name, tree in trees.items():
                runs[name] = Path(tmp) / f"out-{name}" / kind
                error = train(tree, kind, runs[name])
                if error:
                    print(f"{kind}: train failed in {name}: {error}")
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
                print(f"{kind} {file}: {verdict}")
            if kind == "eviqvfl":
                done = [evifed(tree, "inspect", "--config",
                               str(runs[name] / "config.yaml"), "--model",
                               str(runs[name] / "model.txt"), "--sample", "0")
                        for name, tree in trees.items()]
                same = done[0].returncode == done[1].returncode == 0 \
                    and done[0].stdout == done[1].stdout
                differ |= not same
                verdict = "identical" if same else "DIFFERS"
                if not same and done[0].returncode == done[1].returncode == 0:
                    verdict += ", " + drift(done[0].stdout, done[1].stdout)
                print(f"{kind} inspect --sample 0: {verdict}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
