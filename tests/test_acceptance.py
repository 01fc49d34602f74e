"""Acceptance suite: one test per release criterion.

Each test gives a single pass/fail line under ``pytest -v``.  The MNIST and
credit-card criteria need dataset files that cannot be bundled; when those
files are absent the tests fail with a message naming the expected paths
(they are NOT skipped, so the report stays honest about what was exercised).

Expected dataset locations (repo root):
  datasets/mnist/train-images-idx3-ubyte   (+ labels, and the t10k pair)
  datasets/creditcard.csv                  (Kaggle ULB fraud dataset)
  datasets/breast_cancer.csv               (bundled)
"""
import time
from pathlib import Path

import numpy as np
import pytest

from evifed import baselines, cli, data, evidence, model, qsim, teleport, train, verify
from evifed.model import PartyModel, loss_lower_bound
from evifed.verify import ForcedBranch, random_bba, random_state
from oracle import logical_transfer

ROOT = Path(__file__).resolve().parents[1]
DATASETS = ROOT / "datasets"
MNIST_FILES = {
    "train_images": DATASETS / "mnist" / "train-images-idx3-ubyte",
    "train_labels": DATASETS / "mnist" / "train-labels-idx1-ubyte",
    "test_images": DATASETS / "mnist" / "t10k-images-idx3-ubyte",
    "test_labels": DATASETS / "mnist" / "t10k-labels-idx1-ubyte",
}
CREDIT_CSV = DATASETS / "creditcard.csv"
BREAST_CSV = DATASETS / "breast_cancer.csv"

MNIST_TOPOLOGY = dict(input_dims=[2, 7, 7, 2], output_dims=[1, 2, 2, 1],
                      internal_rank=2, blocks=2, num_classes=2)
BREAST_TOPOLOGY = dict(input_dims=[2, 5], output_dims=[2, 2],
                       internal_rank=2, blocks=1, num_classes=2)
CREDIT_TOPOLOGY = dict(input_dims=[7], output_dims=[3],
                       internal_rank=2, blocks=1, num_classes=2)


def require_files(paths, what):
    missing = [str(p) for p in paths if not Path(p).exists()]
    if missing:
        pytest.fail(
            f"{what} requires dataset files that are not present in this "
            f"environment (no network access to fetch them). Place them at: "
            + ", ".join(missing), pytrace=False)


def random_models(topology, num_parties, rng):
    return [PartyModel.random_init(**topology, rng=rng)
            for _ in range(num_parties)]


def mnist_dataset():
    classes = [3, 6]
    tr_img, tr_lab = data.load_idx_images(MNIST_FILES["train_images"],
                                          MNIST_FILES["train_labels"])
    te_img, te_lab = data.load_idx_images(MNIST_FILES["test_images"],
                                          MNIST_FILES["test_labels"])
    train_set = cli._idx_to_dataset(tr_img, tr_lab, classes, 2000, 0, 1)
    test_set = cli._idx_to_dataset(te_img, te_lab, classes, 500, 0, 2)
    return train_set, test_set


def run_training(models, train_set, test_set, config):
    trained, trace = train.train_run(models, train_set, config, test_set)
    return trained, trace


def breast_cancer_splits(seed):
    header = BREAST_CSV.read_text().splitlines()[0].split(",")
    features, labels = data.load_tabular_csv(BREAST_CSV, header[:-1], "target")
    raw = data.VerticalDataset([features], data.one_hot(labels, 2))
    train_raw, test_raw = data.train_test_split(raw, 0.2, seed)
    train_feat, test_feat = data.standardize(train_raw.party_blocks[0],
                                             test_raw.party_blocks[0])
    return (data.VerticalDataset(np.hsplit(train_feat, 3), train_raw.labels),
            data.VerticalDataset(np.hsplit(test_feat, 3), test_raw.labels))


def test_criterion_1_fusion_circuit_soundness():
    """Joint MCX fusion reproduces the classical combination rule and the
    factorized product, 200 random cases, < 30 s."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(200):
        num_classes = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        bbas = [random_bba(num_classes, rng) for _ in range(k)]
        states = [evidence.encode_bba(b) for b in bbas]

        dist = model.result_register_distribution(states, num_classes)
        measured = evidence.decode_distribution(dist)
        combined = evidence.ccr_combine(bbas)
        assert np.max(np.abs(measured.masses - combined.masses)) < 1e-10

        joint = model.fuse_joint_circuit(states, num_classes)
        fact = model.fuse_factorized(
            [model.party_marginals(s, num_classes) for s in states])
        assert np.max(np.abs(joint - fact)) < 1e-10
    assert time.perf_counter() - start < 30.0


def test_criterion_2_result_qubits_measure_plausibility():
    """prob_one on result qubit c equals the combined BBA's singleton
    plausibility Pl({w_c}), 200 random cases."""
    rng = np.random.default_rng(102)
    for _ in range(200):
        num_classes = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        bbas = [random_bba(num_classes, rng) for _ in range(k)]
        states = [evidence.encode_bba(b) for b in bbas]
        plaus = model.fuse_joint_circuit(states, num_classes)
        classical = evidence.singleton_plausibilities(evidence.ccr_combine(bbas))
        assert np.max(np.abs(plaus - classical)) < 1e-10


def test_criterion_3_teleportation_is_exact():
    """All four measurement branches, 1000 random states, fidelity 1 within
    1e-10; multi-qubit and entangled-subsystem transfers too. < 10 s."""
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    for trial in range(1000):
        psi = random_state(1, rng)
        branch = trial % 4
        out, _ = teleport.teleport_qubit(psi.copy(), 0, ForcedBranch(branch))
        assert abs(qsim.fidelity(out, psi) - 1.0) < 1e-10
    for _ in range(50):
        n = int(rng.integers(2, 4))
        psi = random_state(n, rng)
        out, _ = teleport.teleport_register(psi.copy(), range(n), rng)
        assert abs(qsim.fidelity(out, psi) - 1.0) < 1e-10
    for _ in range(50):
        psi = random_state(3, rng)
        moved, _ = teleport.teleport_register(psi.copy(), [1], rng)
        expected = logical_transfer(psi.copy(), [1])
        assert abs(qsim.fidelity(moved, expected) - 1.0) < 1e-10
    assert time.perf_counter() - start < 10.0


def test_criterion_4_parameter_shift_matches_finite_differences():
    """Every parameter of the image-scale model (4 parties, 196 features,
    144 parameters each), 20 random samples, relative 1e-4, < 5 min."""
    rng = np.random.default_rng(104)
    models = random_models(MNIST_TOPOLOGY, 4, rng)
    start = time.perf_counter()
    for _ in range(20):
        sample = [rng.uniform(0, 1, size=196) for _ in range(4)]
        label = np.eye(2)[int(rng.integers(0, 2))]
        _, shift_grads, _ = train.full_gradient(models, sample, label)
        _, fd_grads, _ = train.full_gradient_fd(models, sample, label)
        for party_s, party_f in zip(shift_grads, fd_grads):
            for gs, gf in zip(party_s, party_f):
                scale = np.maximum(np.abs(gf), 1e-6)
                assert np.max(np.abs(gs - gf) / scale) < 1e-4
    assert time.perf_counter() - start < 300.0


def test_criterion_5_loss_floor_and_trained_image_loss():
    """Quantum-output losses never undercut ln(C+e-1)-1; the trained
    image-pair model's final loss lands in [0.3133, 0.40]."""
    rng = np.random.default_rng(105)
    for _ in range(500):
        num_classes = int(rng.integers(2, 6))
        plaus = rng.uniform(0, 1, size=num_classes)
        label = np.eye(num_classes)[int(rng.integers(0, num_classes))]
        loss = train.ce_loss(model.predict(plaus), label, check_bound=True)
        assert loss >= loss_lower_bound(num_classes) - 1e-9

    require_files(MNIST_FILES.values(), "the trained image-model loss check")
    train_set, test_set = mnist_dataset()
    models = random_models(MNIST_TOPOLOGY, 4,
                           np.random.default_rng(np.random.SeedSequence([0, 0])))
    config = train.TrainConfig(learning_rate=0.05, batch_size=64, epochs=20,
                               seed=0)
    _, trace = run_training(models, train_set, test_set, config)
    final_loss = trace.records[-1].loss
    assert 0.3133 <= final_loss <= 0.40


def test_criterion_6_per_party_parameter_counts():
    """The three benchmark topologies expose exactly 144, 40, and 30
    trainable parameters per party."""
    rng = np.random.default_rng(106)
    assert random_models(MNIST_TOPOLOGY, 1, rng)[0].param_count() == 144
    assert random_models(BREAST_TOPOLOGY, 1, rng)[0].param_count() == 40
    assert random_models(CREDIT_TOPOLOGY, 1, rng)[0].param_count() == 30


@pytest.mark.parametrize("dataset_name,target", [
    ("mnist_3_vs_6", 0.95),
    ("breast_cancer", 0.90),
    ("credit_card", 0.88),
])
def test_criterion_7_desk_scale_accuracy(dataset_name, target):
    """Mean test accuracy over 3 seeds meets the desk-scale target."""
    accs = []
    start = time.perf_counter()
    for seed in range(3):
        if dataset_name == "mnist_3_vs_6":
            require_files(MNIST_FILES.values(), "the MNIST desk-scale run")
            train_set, test_set = mnist_dataset()
            topology = MNIST_TOPOLOGY
        elif dataset_name == "breast_cancer":
            train_set, test_set = breast_cancer_splits(seed)
            topology = BREAST_TOPOLOGY
        else:
            require_files([CREDIT_CSV], "the credit-card desk-scale run")
            header = CREDIT_CSV.read_text(encoding="utf-8-sig") \
                .splitlines()[0].replace('"', "").split(",")
            feature_cols = [c for c in header if c.startswith("V")]
            features, labels = data.load_tabular_csv(
                CREDIT_CSV, feature_cols, "Class")
            rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
            features, labels = data.balanced_subsample(features, labels, rng)
            raw = data.VerticalDataset([features], data.one_hot(labels, 2))
            train_raw, test_raw = data.train_test_split(raw, 0.2, seed)
            train_feat, test_feat = data.standardize(
                train_raw.party_blocks[0], test_raw.party_blocks[0])
            train_set = data.VerticalDataset(np.hsplit(train_feat, 4),
                                             train_raw.labels)
            test_set = data.VerticalDataset(np.hsplit(test_feat, 4),
                                            test_raw.labels)
            topology = CREDIT_TOPOLOGY
        models = random_models(
            topology, train_set.num_parties,
            np.random.default_rng(np.random.SeedSequence([seed, 0])))
        config = train.TrainConfig(learning_rate=0.05, batch_size=64,
                                   epochs=20, seed=seed)
        _, trace = run_training(models, train_set, test_set, config)
        accs.append(trace.records[-1].test_acc)
        assert time.perf_counter() - start < 3600 * (seed + 1)
    assert float(np.mean(accs)) >= target, \
        f"{dataset_name}: mean test accuracy {np.mean(accs):.4f} < {target}"


def test_criterion_8_evidential_fusion_beats_plain_averaging():
    """eviQVFL's mean MNIST test accuracy over 3 shared seeds is at least
    the measure-then-average baseline's."""
    require_files(MNIST_FILES.values(), "the MNIST baseline comparison")
    evi_accs, avg_accs = [], []
    train_set, test_set = mnist_dataset()
    for seed in range(3):
        config = train.TrainConfig(learning_rate=0.05, batch_size=64,
                                   epochs=20, seed=seed)
        evi = random_models(MNIST_TOPOLOGY, 4,
                            np.random.default_rng(np.random.SeedSequence([seed, 0])))
        _, trace = run_training(evi, train_set, test_set, config)
        evi_accs.append(trace.records[-1].test_acc)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        base = baselines.MeasureAverageModel(random_models(MNIST_TOPOLOGY, 4, rng))
        _, trace = run_training(base, train_set, test_set, config)
        avg_accs.append(trace.records[-1].test_acc)
    assert float(np.mean(evi_accs)) >= float(np.mean(avg_accs))


def test_criterion_9_training_is_bitwise_deterministic(tmp_path):
    """Identical config and seed produce byte-identical trace files."""
    blobs = []
    for run in range(2):
        train_set, test_set = breast_cancer_splits(seed=0)
        models = random_models(
            BREAST_TOPOLOGY, 3,
            np.random.default_rng(np.random.SeedSequence([0, 0])))
        config = train.TrainConfig(learning_rate=0.05, batch_size=64,
                                   epochs=3, seed=0)
        _, trace = run_training(models, train_set, test_set, config)
        path = tmp_path / f"trace{run}.csv"
        trace.export(path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
