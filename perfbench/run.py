"""evifed benchmark: closed-loop training and joint-fusion workloads.

Run from the root of an evifed checkout:

    python3 perfbench/run.py --workload bc_train --seed 1 --seconds 30 --trace 0

One client, one process per workload, BLAS pinned to one thread.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  Lines before it
print the same metrics for people, plus ``fail_ratio`` (failed / attempted
checks).  A run record with the machine, the commit and the workload's
rationale is written to ``.perfbench-runs/``, with the spans of a traced run
beside it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# Set before NumPy is first imported, here and in every worker process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
# Fresh processes that only set up; with the measuring process they give
# the median setup_s.
SETUP_PROBES = 4
DEADLINE_S = 175.0
RUNS_DIR = ".perfbench-runs"


class BenchError(RuntimeError):
    pass


def run_worker(root: str, tmp: str, mode: str, args, config: str,
               deadline: float, spans: str | None = None) -> dict:
    out = os.path.join(tmp, "worker.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--config", config,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for the next worker")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s "
                         f"deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker failed (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    with open(out) as f:
        return json.load(f)


def _git(root: str, *argv: str) -> str | None:
    # The ceiling stops git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", *argv], cwd=root, env=env, timeout=30,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def machine_record(root: str) -> dict:
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    commit = _git(root, "rev-parse", "HEAD")
    dirty = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": commit,
        "dirty": None if commit is None or dirty is None else bool(dirty),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    sys.path.insert(0, HERE)
    from workloads import LAYERS_NOT_MEASURED, WORKLOADS, prepare_config

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    spec = WORKLOADS[args.workload]
    needed = ["BENCHMARK.json", "src/evifed/__init__.py", spec["config"]]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: not an evifed checkout root ({', '.join(missing)} "
              f"missing); run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"] for m in
                bench["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)

    sys.path.insert(0, os.path.join(root, "src"))
    from evifed import data

    os.makedirs(os.path.join(root, RUNS_DIR), exist_ok=True)
    stem = os.path.join(root, RUNS_DIR, f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}")
    tmp = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=root)
    try:
        config = prepare_config(root, tmp, args.workload, args.seed, data)
        setups = [] if args.trace else [
            run_worker(root, tmp, "setup", args, config, deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        main_run = run_worker(root, tmp, "measure", args, config, deadline,
                              spans=stem + ".spans.csv.gz" if args.trace else None)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = main_run["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [main_run["setup_s"]])
        metrics["peak_rss_mb"] = main_run["peak_rss_mb"]
        extra = {"test_acc": (main_run["test_acc"], "fraction")}
    else:
        extra = {}
    if set(metrics) != set(declared) or any(v is None for v in metrics.values()):
        print(f"error: measured metrics {sorted(metrics)} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 1
    checks = main_run["checks"]
    failed = sum(not c["ok"] for c in checks)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(root),
        "why": why, "exercises": spec["exercises"],
        "bypasses": spec["bypasses"], "not_measured": LAYERS_NOT_MEASURED,
        "rounds": main_run["rounds"], "setup_samples_s": setups,
        "metrics": metrics, "extra": extra, "checks": checks,
        "note": ("kernel.* ns_per_amp divides wall time by amplitude updates "
                 "computed from array sizes; the arrays fit in cache, so they "
                 "are not bandwidth figures"),
    }
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    for c in checks:
        if not c["ok"]:
            print(f"FAILED check: {c['name']}: {c['detail']}")
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r} {declared[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_ratio {failed / len(checks)!r} failed/attempted")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(checks), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
