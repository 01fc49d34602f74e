"""One workload in one process: set-up, the timed closed loop, the checks.

``run.py`` starts this script in a fresh interpreter with BLAS pinned to one
thread.  ``setup`` mode times set-up alone (one sample of ``setup_s``);
``measure`` mode runs the whole workload and, with ``--trace 1``, the traced
repeat that gives the per-layer numbers.  The result is written as JSON to
``--out``.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import resource
import statistics
import sys
from time import perf_counter

import numpy as np

import evifed
from evifed import cli, evidence, model, qsim, train
from tracer import Tracer
from workloads import WORKLOADS

# A training round is one train_run call over two mini-batches of the
# training split, then a factorized evaluation of the next EVAL_CHUNK test
# samples.
WINDOW_BATCHES = 2
EVAL_CHUNK = 64
# A joint round evaluates this many test samples through the fusion circuit;
# quality is read over the first JOINT_QUALITY_SAMPLES of them.
JOINT_ROUND = 16
JOINT_QUALITY_SAMPLES = 64
JOINT_PROBES = 8
EXACT_TOL = 1e-10
GRAD_TOL = 1e-4


def setup(config_path: str, seed: int):
    """Config load, dataset build and model init, as ``evifed train`` does."""
    cfg = cli.load_config(config_path)
    cfg.train.seed = seed
    train_set, test_set = cli.build_datasets(cfg, seed)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    models = cli.build_party_models(cfg, rng)
    return cfg, train_set, test_set, models


def _score(pred, dataset, i: int) -> tuple[float, int]:
    """Cross-entropy and hit of one prediction against its label."""
    true_class = int(np.argmax(dataset.labels[i]))
    return (-math.log(pred.probabilities[true_class]),
            int(pred.predicted_class == true_class))


class TrainLoop:
    """Rounds of train.train_run on a window, then factorized evaluation."""

    def __init__(self, spec, cfg, train_set, test_set, models, seed):
        self.train_set, self.test_set, self.models = train_set, test_set, models
        self.quality_rounds = spec["quality_rounds"]
        self.base_config = cfg.train
        self.seed = seed
        self.window = WINDOW_BATCHES * cfg.train.batch_size
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB]))
        self.order = rng.permutation(train_set.num_samples)
        self.losses: list[float] = []
        self.snapshot = None

    def round(self, r: int) -> list:
        n = self.train_set.num_samples
        idx = self.order[np.arange(r * self.window, (r + 1) * self.window) % n]
        window = self.train_set.subset(idx)
        config = dataclasses.replace(self.base_config, epochs=1,
                                     seed=self.seed + r)
        n_test = self.test_set.num_samples
        t0 = perf_counter()
        _, trace = train.train_run(self.models, window, config)
        t1 = perf_counter()
        for p in range(r * EVAL_CHUNK, (r + 1) * EVAL_CHUNK):
            train.eviqvfl_predict(self.models, self.test_set.sample(p % n_test))
        t2 = perf_counter()
        self.losses.append(trace.records[0].loss)
        if r + 1 == self.quality_rounds:
            self.snapshot = copy.deepcopy(self.models)
        return [t1 - t0, self.window, t2 - t1, EVAL_CHUNK]

    def min_rounds(self) -> int:
        return self.quality_rounds

    def quality(self) -> tuple[float, float]:
        """Test (loss, accuracy) of the models after ``quality_rounds``."""
        scores = [_score(train.eviqvfl_predict(self.snapshot, self.test_set.sample(i)),
                         self.test_set, i)
                  for i in range(self.test_set.num_samples)]
        return tuple(float(v) for v in np.mean(scores, axis=0))

    def checks(self) -> list[tuple[str, bool, str]]:
        out = []
        bound = model.loss_lower_bound(self.models[0].num_classes)
        for r, loss in enumerate(self.losses):
            ok = math.isfinite(loss) and loss >= bound - train.BOUND_SLACK
            out.append((f"round {r} mean training loss", ok,
                        f"{loss!r} against floor {bound!r}"))
        sample = self.train_set.sample(0)
        label = self.train_set.labels[0]
        loss_s, shift, _ = train.full_gradient(self.models, sample, label)
        loss_f, fd, _ = train.full_gradient_fd(self.models, sample, label)
        worst = max(float(np.max(np.abs(gs - gf) / np.maximum(np.abs(gf), 1e-6)))
                    for ps, pf in zip(shift, fd) for gs, gf in zip(ps, pf))
        out.append(("shift gradient matches finite differences",
                    worst < GRAD_TOL and abs(loss_s - loss_f) < EXACT_TOL,
                    f"worst relative deviation {worst:.3e}"))
        return out


class JointLoop:
    """Rounds of joint-circuit predictions over the test split, in order.

    The evaluation is the workload's main pass, so a round reports its
    samples and seconds as both the main pass and the evaluation pass.
    """

    def __init__(self, spec, cfg, train_set, test_set, models, seed):
        self.test_set, self.models = test_set, models
        self.trainable = train.EvidentialTrainable(models, eval_mode="joint")
        self.scores: list[tuple[float, int]] = []
        self.probes: dict[int, np.ndarray] = {}

    def round(self, r: int) -> list:
        n_test = self.test_set.num_samples
        positions = range(r * JOINT_ROUND, (r + 1) * JOINT_ROUND)
        t0 = perf_counter()
        preds = [self.trainable.predict(self.test_set.sample(p % n_test))
                 for p in positions]
        elapsed = perf_counter() - t0
        for p, pred in zip(positions, preds):
            if p < JOINT_QUALITY_SAMPLES:
                self.scores.append(_score(pred, self.test_set, p))
            if p < JOINT_PROBES:
                self.probes[p] = pred.plausibilities
        return [elapsed, JOINT_ROUND, elapsed, JOINT_ROUND]

    def min_rounds(self) -> int:
        return -(-JOINT_QUALITY_SAMPLES // JOINT_ROUND)

    def quality(self) -> tuple[float, float]:
        """Test (loss, accuracy) over the first test samples."""
        return tuple(float(v) for v in np.mean(self.scores, axis=0))

    def checks(self) -> list[tuple[str, bool, str]]:
        out = []
        num_classes = self.models[0].num_classes
        for p, joint_pl in sorted(self.probes.items()):
            sample = self.test_set.sample(p)
            factorized = train.eviqvfl_predict(self.models, sample).plausibilities
            gap = float(np.max(np.abs(joint_pl - factorized)))
            out.append((f"sample {p}: joint equals factorized", gap < EXACT_TOL,
                        f"gap {gap:.3e}"))
            states = [model.party_forward(m, x)[0]
                      for m, x in zip(self.models, sample)]
            register = evidence.decode_distribution(
                model.result_register_distribution(states, num_classes))
            combined = evidence.ccr_combine(
                [evidence.decode_distribution(
                    qsim.marginal_probabilities(s, range(num_classes)))
                 for s in states])
            gap = float(np.max(np.abs(register.masses - combined.masses)))
            out.append((f"sample {p}: result register equals ccr_combine",
                        gap < EXACT_TOL, f"gap {gap:.3e}"))
        return out


LOOPS = {"train": TrainLoop, "joint": JointLoop}


def run_rounds(step, min_rounds: int, seconds: float):
    """Closed loop: the next round starts when the previous one returns.

    ``step(i)`` runs round i and returns its [main s, main samples, eval s,
    eval samples] row; the CPU it ran on is appended.  Round i runs pinned
    to the i-th allowed CPU in turn: on a shared host the CPUs run at
    different speeds, and a process left where the scheduler put it measures
    one of them for a whole run.
    """
    rounds, errors = [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    try:
        while (len(rounds) + len(errors) < min_rounds
               or perf_counter() - start < seconds):
            i = len(rounds) + len(errors)
            cpu = cpus[i % len(cpus)]
            os.sched_setaffinity(0, {cpu})
            try:
                rounds.append(step(i) + [cpu])
            except Exception as exc:  # a failed operation is counted, not fatal
                errors.append(f"round {i}: {type(exc).__name__}: {exc}")
    finally:
        os.sched_setaffinity(0, cpus)
    return rounds, errors


def _median_seconds(fn, min_reps: int = 3, min_total: float = 0.25) -> float:
    times = []
    while len(times) < min_reps or sum(times) < min_total:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def kernel_sweep(seed: int) -> dict:
    """ns per amplitude update; sizes are computed, not measured traffic.

    Every array here is at most 4 MiB, well inside the last-level cache, so
    these are compute-side figures, not memory bandwidth.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EE9]))
    out = {}
    for n in (4, 8, 12):
        for b in (1, 64):
            enc = rng.uniform(0.0, np.pi, size=(b, n))
            vqc = rng.uniform(-np.pi, np.pi, size=(b, 1, n, 3))
            t = _median_seconds(lambda: model.batched_marginals(enc, vqc, 2))
            sweeps = 4 * n  # Ry encoding plus Rx, Ry, Rz on every qubit
            out[f"kernel.batched.n{n}.b{b}.ns_per_amp"] = t * 1e9 / (b * (1 << n) * sweeps)
    for n in (4, 12, 18):
        state = qsim.new_zero_state(n)
        gates = [qsim.Gate("RX", [q], angle=0.3 + q) for q in range(n)]

        def sweep():
            for gate in gates:
                qsim.apply_gate(state, gate)
        t = _median_seconds(sweep)
        out[f"kernel.qsim.n{n}.ns_per_amp"] = t * 1e9 / (n * (1 << n))
    return out


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict:
    totals = tracer.totals()
    zero = {"calls": 0, "self_ns": 0}

    def row(phase, name):
        return totals.get((phase, name), zero)

    def count(phase, name, key):
        return tracer.counts.get((phase, name, key), 0)

    m = {
        "data.load.s": row("setup", "data.load")["self_ns"] / 1e9,
        "data.load.bytes": count("setup", "data.load", "bytes"),
        "cli.build_datasets.self_s":
            row("setup", "cli.build_datasets")["self_ns"] / 1e9,
    }
    for name in ("ttn.forward", "ttn.backward", "model.batched_marginals",
                 "model.party_forward", "model.fuse_joint_state",
                 "qsim.apply_gate", "qsim.apply_mcx", "train.full_gradient",
                 "train.adam_step"):
        m[f"{name}.calls"] = row("loop", name)["calls"]
        m[f"{name}.s"] = row("loop", name)["self_ns"] / 1e9
    for name in ("qsim.tensor_product", "qsim.prob_one",
                 "train.party_angle_gradients", "train.eviqvfl_predict"):
        m[f"{name}.s"] = row("loop", name)["self_ns"] / 1e9
    m["train.train_run.self_s"] = row("loop", "train.train_run")["self_ns"] / 1e9
    m["qsim.tensor_product.bytes"] = count("loop", "qsim.tensor_product", "bytes")
    m["model.batched_marginals.rows"] = count("loop", "model.batched_marginals", "rows")
    sweeps = count("loop", "model.batched_marginals", "amp_sweeps")
    m["model.batched_marginals.ns_per_amp"] = (
        row("loop", "model.batched_marginals")["self_ns"] / sweeps if sweeps else 0.0)
    gradients = row("loop", "train.full_gradient")["calls"]
    m["train.circuit_rows_per_sample"] = (
        count("loop", "model.batched_marginals", "gradient_rows") / gradients
        if gradients else 0.0)
    m["evidence.ccr_combine.calls"] = row("check", "evidence.ccr_combine")["calls"]
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def idle_active_layers(tracer: Tracer, workload: str) -> list[str]:
    """Layers the workload is meant to exercise that recorded no calls."""
    phases = {"data": "setup", "cli": "setup", "evidence": "check"}
    totals = tracer.totals()
    return [name for name in WORKLOADS[workload]["active"]
            if (phases.get(name.split(".")[0], "loop"), name) not in totals]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args) -> dict:
    spec = WORKLOADS[args.workload]
    tracer = Tracer(evifed) if args.trace else None
    if tracer:
        tracer.install()
    t0 = perf_counter()
    cfg, train_set, test_set, models = setup(args.config, args.seed)
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s}

    loop = LOOPS[spec["kind"]](spec, cfg, train_set, test_set, models, args.seed)
    if not tracer:
        rounds, errors = run_rounds(loop.round, loop.min_rounds(), args.seconds)
        # Work done over time spent, summed over the run: on a shared host
        # the speed shifts between rounds, and a median then jumps between
        # the fast and the slow rounds from run to run.
        main_s, main_n, eval_s, eval_n, _ = (sum(col) for col in zip(*rounds))
        test_loss, result["test_acc"] = loop.quality()
        result["metrics"] = {"samples_per_s": main_n / main_s,
                             "eval_samples_per_s": eval_n / eval_s,
                             "test_loss": test_loss}
    else:
        # Every round runs twice from the same starting models, untraced and
        # then traced, so both see the same host conditions.
        tracer.uninstall()
        tracer.phase = "loop"
        plain = LOOPS[spec["kind"]](spec, cfg, train_set, test_set,
                                    copy.deepcopy(models), args.seed)
        wall = {"untraced": 0.0, "traced": 0.0}

        def paired_round(i):
            t0 = perf_counter()
            plain.round(i)
            t1 = perf_counter()
            tracer.install()
            try:
                row = loop.round(i)
            finally:
                tracer.uninstall()
            wall["untraced"] += t1 - t0
            wall["traced"] += perf_counter() - t1
            return row

        rounds, errors = run_rounds(paired_round, loop.min_rounds(), args.seconds)
        tracer.install()
        tracer.phase = "check"

    checks = loop.checks()
    checks += [(msg, False, "operation raised") for msg in errors]
    result["rounds"] = rounds
    result["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    if tracer:
        tracer.uninstall()
        idle = idle_active_layers(tracer, args.workload)
        if idle:
            raise RuntimeError(f"layers {idle} recorded no calls on "
                               f"{args.workload}; the trace no longer covers "
                               f"what the workload was chosen to exercise")
        result["metrics"] = layer_metrics(tracer,
                                          wall["traced"] / wall["untraced"])
        result["metrics"].update(kernel_sweep(args.seed))
        tracer.write(args.spans)
    result["peak_rss_mb"] = peak_rss_mb()
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        t0 = perf_counter()
        setup(args.config, args.seed)
        result = {"setup_s": perf_counter() - t0, "peak_rss_mb": peak_rss_mb()}
    else:
        result = measure(args)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
