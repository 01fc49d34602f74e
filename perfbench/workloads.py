"""Workload table and input generation for the evifed benchmark.

Each workload names the shipped config it takes its topology from and which
layers (module names of ``src/evifed``) it exercises or bypasses; why it was
chosen is stated in ``BENCHMARK.json``.  ``active`` lists the traced layers
that must record calls on that workload; a traced run that finds one of them
at zero fails, because the trace would then describe a different program
than the one the workload was chosen for.  ``quality_rounds`` is the round
after which a training workload's test loss is read: where it varies least
across seeds.  On the bundled CSV that is once the loss has settled, after
about four epochs; on the IDX fixture it is while the loss is still on the
ln 2 plateau that the IDX scaling defect causes.
"""
from __future__ import annotations

import os

import numpy as np
import yaml

LAYERS_NOT_MEASURED = {
    "teleport": "training uses logical_transfer, which is a copy",
    "verify": "a self-check suite, on no training or evaluation path",
    "baselines": "reuses the train and model kernels measured here",
}

_SETUP = ["data.load", "cli.build_datasets"]
_TRAIN = ["ttn.forward", "ttn.backward", "model.batched_marginals",
          "train.full_gradient", "train.party_angle_gradients",
          "train.adam_step", "train.train_run", "train.eviqvfl_predict"]

WORKLOADS = {
    "bc_train": {
        "config": "configs/breast_cancer.yaml",
        "kind": "train",
        "quality_rounds": 14,
        "exercises": ["data (CSV)", "cli", "ttn", "model.batched_marginals",
                      "train"],
        "bypasses": ["qsim", "model.party_forward", "model.fuse_joint_state",
                     "evidence"],
        "active": _SETUP + _TRAIN,
    },
    "mnist_train": {
        "config": "configs/mnist_3v6.yaml",
        "kind": "train",
        "quality_rounds": 6,
        "exercises": ["data (IDX)", "cli", "ttn", "model.batched_marginals",
                      "train"],
        "bypasses": ["qsim", "model.party_forward", "model.fuse_joint_state",
                     "evidence"],
        "active": _SETUP + _TRAIN,
    },
    "mnist_joint": {
        "config": "configs/mnist_3v6.yaml",
        "kind": "joint",
        "exercises": ["data (IDX)", "cli", "ttn.forward", "model.party_forward",
                      "model.fuse_joint_state", "qsim",
                      "evidence (checks only)"],
        "bypasses": ["model.batched_marginals (timed loop)", "ttn.backward",
                     "train gradients and Adam"],
        "active": _SETUP + ["ttn.forward", "model.party_forward",
                            "model.fuse_joint_state", "qsim.apply_gate",
                            "qsim.apply_mcx", "qsim.tensor_product",
                            "qsim.prob_one", "evidence.ccr_combine"],
    },
}

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def write_mnist_fixture(directory: str, seed: int, data_module,
                        n_train: int = 60000, n_test: int = 10000) -> None:
    """Seeded IDX files with the full MNIST shape: digits 0-9, 28x28 pixels.

    Every digit has a fixed prototype of a few Gaussian strokes; an image is
    its digit's prototype plus seeded pixel noise, so the classes are
    learnable and equally hard on every seed.  The
    files are written with ``data.write_idx_images`` and never under
    ``datasets/``, where they would satisfy the dataset-gated acceptance
    tests.
    """
    shapes = np.random.default_rng(0x1D8)
    yy, xx = np.mgrid[0:28, 0:28].astype(np.float32)
    prototypes = np.zeros((10, 28, 28), dtype=np.float32)
    for digit in range(10):
        for _ in range(4):
            cy, cx = shapes.uniform(5.0, 23.0, size=2)
            sy, sx = shapes.uniform(1.5, 4.0, size=2)
            prototypes[digit] += np.exp(-0.5 * (((yy - cy) / sy) ** 2
                                                + ((xx - cx) / sx) ** 2))
    np.clip(prototypes, 0.0, 1.0, out=prototypes)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1D8]))
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        labels = rng.integers(0, 10, size=n).astype(np.uint8)
        images = prototypes[labels]
        noise = rng.standard_normal(images.shape, dtype=np.float32)
        noise *= 0.2
        images += noise
        del noise
        np.clip(images, 0.0, 1.0, out=images)
        data_module.write_idx_images(
            os.path.join(directory, f"{prefix}-images-idx3-ubyte"),
            os.path.join(directory, f"{prefix}-labels-idx1-ubyte"),
            images, labels)


def prepare_config(root: str, tmp: str, workload: str, seed: int,
                   data_module) -> str:
    """Path of the config the workload runs; builds its inputs first."""
    spec = WORKLOADS[workload]
    shipped = os.path.join(root, spec["config"])
    if spec["config"] != "configs/mnist_3v6.yaml":
        return shipped
    write_mnist_fixture(tmp, seed, data_module)
    with open(shipped) as f:
        raw = yaml.safe_load(f)
    for key, name in MNIST_FILES.items():
        raw["dataset"][key] = os.path.join(tmp, name)
    path = os.path.join(tmp, "mnist_3v6.yaml")
    with open(path, "w") as f:
        yaml.safe_dump(raw, f, sort_keys=False)
    return path
