"""Smoke test of the benchmark's tracer against the program's lookup sites.

``perfbench/tracer.py`` wraps evifed's functions at every module attribute
through which the program calls them.  If a refactor moves a call behind a
site the tracer does not patch, the traced benchmark run records no calls
for that layer; this test catches it on small models.
"""
import importlib.util
from pathlib import Path

import numpy as np

import evifed
from evifed import cli, data, model, train
from evifed.model import PartyModel

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_traced_layer(tmp_path):
    # Each call runs in its own tracer phase, as on the benchmark's set-up,
    # training and joint workloads, so one path cannot cover for the other.
    rng = np.random.default_rng(0)
    csv = tmp_path / "d.csv"
    csv.write_text("a,b,target\n" + "".join(f"{i},{i % 3},{i % 2}\n" for i in range(10)))
    config = tmp_path / "c.yaml"
    config.write_text(f"dataset: {{kind: csv, path: {csv}, feature_columns: [a, b], "
                      "label_column: target}\n"
                      "parties: {input_dims: [1], output_dims: [2]}\n")
    models = [PartyModel.random_init([2, 3], [2, 1], 2, 1, 2, rng)
              for _ in range(2)]
    sample = [rng.uniform(0, 1, size=6) for _ in models]
    # 20 samples in mini-batches of 8: three mini-batches, the last partial.
    train_set = data.VerticalDataset([rng.uniform(0, 1, size=(20, 6)) for _ in models],
                                     np.eye(2)[rng.integers(0, 2, size=20)])
    tracer = load_tracer_module().Tracer(evifed)
    tracer.install()
    try:
        tracer.phase = "setup"
        cli.build_datasets(cli.load_config(config), seed=0)
        tracer.phase = "gradient"
        train.full_gradient(models, sample, np.array([1.0, 0.0]))
        # The kernel sweep's per-row form: one (1, n, 3) setting per row.
        model.batched_marginals(rng.uniform(0, np.pi, (3, 2)),
                                rng.uniform(-np.pi, np.pi, (3, 1, 2, 3)), 2)
        tracer.phase = "joint"
        train.EvidentialTrainable(models, eval_mode="joint").predict(sample)
        tracer.phase = "train_run"
        train.train_run(models, train_set, train.TrainConfig(epochs=1, batch_size=8))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    expected = {"setup": ("data.load", "cli.build_datasets"),
                "gradient": ("ttn.forward", "ttn.backward",
                             "model.batched_marginals"),
                "joint": ("ttn.forward", "model.party_forward",
                          "model.fuse_joint_state", "qsim.apply_gate",
                          "qsim.apply_mcx", "qsim.tensor_product",
                          "qsim.prob_one"),
                "train_run": ("train.full_gradient", "train.party_angle_gradients",
                              "ttn.backward", "model.batched_marginals",
                              "train.adam_step")}
    for phase, names in expected.items():
        for name in names:
            calls = totals.get((phase, name), {"calls": 0})["calls"]
            assert calls > 0, f"{name} recorded no calls in {phase}"
    # The benchmark divides circuit rows by full_gradient calls: one call per
    # mini-batch, not per sample.
    # Both parties share one circuit shape, so train.party_angle_gradients
    # times one grouped sweep per mini-batch, not one per party.
    for name in ("train.full_gradient", "train.adam_step",
                 "train.party_angle_gradients"):
        assert totals[("train_run", name)]["calls"] == 3
    # Training runs one circuit row per sample and party, the forward one:
    # the adjoint sweeps reuse it, and no shifted rows run.
    rows = tracer.counts[("train_run", "model.batched_marginals", "gradient_rows")]
    assert rows == 20 * len(models)
    # The counter reads the block count off a (K, blocks, n, 3) VQC stack.
    n, blocks = models[0].n_qubits, models[0].blocks
    assert tracer.counts[("train_run", "model.batched_marginals", "amp_sweeps")] \
        == rows * (1 << n) * (n + 3 * n * blocks)
