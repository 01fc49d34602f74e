"""Baseline models: budget matching, forward/backward, training smoke runs."""
import numpy as np
import pytest

from evifed import baselines, train
from evifed.baselines import BASELINE_KINDS, MLPParty, mlp_width_for_budget
from evifed.model import PartyModel, fuse_factorized, loss_lower_bound, predict
from evifed.train import TrainConfig, ce_loss, forward_pass


def small_models(rng, k=2, num_classes=2):
    return [PartyModel.random_init([4], [2], 1, 1, num_classes, rng)
            for _ in range(k)]


def make_baseline(kind, rng, models, input_sizes=(4, 4)):
    """A ``kind`` model over the quantum ``models``, or over classical parties
    of ``input_sizes`` features at a 40-parameter budget each."""
    if kind == "measure_then_average":
        return baselines.MeasureAverageModel(models)
    if kind == "measure_then_vqc":
        return baselines.MeasureVqcModel.random_init(models, rng)
    parties = [MLPParty.random_init(d, mlp_width_for_budget(d, 2, 40), 2, rng)
               for d in input_sizes]
    if kind == "classical_average":
        return baselines.ClassicalAverageModel(parties)
    return baselines.ClassicalFuseModel.random_init(parties, 2, rng)


def random_sample(rng, model_list):
    return [rng.normal(size=m.ttn.in_size) for m in model_list]


def numeric_grads(loss_of_params, params, eps=1e-6):
    out = []
    for p in params:
        g = np.zeros_like(p, dtype=float)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = p[idx]
            p[idx] = old + eps
            hi = loss_of_params()
            p[idx] = old - eps
            lo = loss_of_params()
            p[idx] = old
            g[idx] = (hi - lo) / (2 * eps)
        out.append(g)
    return out


# --- budget matching -------------------------------------------------------

def test_budget_width_exact_fit():
    # width w costs w*(d+1+C) + C; d=4, C=2, budget 40 -> w = (40-2)//7 = 5
    assert mlp_width_for_budget(4, 2, 40) == 5


def test_budget_width_floor_is_one():
    assert mlp_width_for_budget(196, 10, 30) == 1


def test_budget_width_never_exceeds_budget_when_feasible():
    for d, c, budget in [(4, 2, 40), (7, 2, 30), (196, 10, 144)]:
        w = mlp_width_for_budget(d, c, budget)
        cost = w * (d + 1 + c) + c
        if mlp_width_for_budget(d, c, budget) > 1 or cost <= budget:
            assert cost <= budget


def test_classical_party_counts_reported():
    rng = np.random.default_rng(0)
    model = make_baseline("classical_average", rng, None)
    for p, count in zip(model.parties, model.party_param_counts()):
        assert count == p.param_count()
        assert count <= 40


# --- construction ----------------------------------------------------------

@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_each_kind_predicts_a_distribution(kind):
    rng = np.random.default_rng(1)
    models = small_models(rng)
    model = make_baseline(kind, rng, models)
    sample = random_sample(rng, models)
    pred = model.predict(sample)
    assert pred.probabilities.shape == (2,)
    assert abs(pred.probabilities.sum() - 1.0) < 1e-12
    assert np.all(pred.probabilities > 0)


# --- MLP party backward ----------------------------------------------------

def test_mlp_backward_matches_finite_differences():
    rng = np.random.default_rng(2)
    party = MLPParty.random_init(5, 3, 2, rng)
    x = rng.normal(size=5)
    d_logits = rng.normal(size=2)

    def scalar():
        logits, _ = party.forward(x)
        return float(d_logits @ logits)

    _, cache = party.forward(x)
    analytic = party.backward(cache, d_logits)
    numeric = numeric_grads(scalar, party.parameters())
    for a, b in zip(analytic, numeric):
        assert np.max(np.abs(a - b)) < 1e-6


def test_mlp_forward_saturates_without_overflow():
    # exp(1000) overflows; the hidden units must read exactly 1 and 0.
    party = MLPParty(np.array([[1.0], [-1.0]]), np.zeros(2), np.eye(2), np.zeros(2))
    logits, cache = party.forward(np.array([1000.0]))
    assert cache["h"].tolist() == [1.0, 0.0]
    assert logits.tolist() == [1.0, 0.0]
    # Where exp does not overflow, the plain logistic is unchanged bit for bit.
    z = np.linspace(-700.0, 700.0, 10_001)
    assert np.array_equal(baselines._sigmoid(z), 1.0 / (1.0 + np.exp(-z)))


@pytest.mark.parametrize("kind", ["classical_average", "classical_fuse"])
def test_classical_loss_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(3)
    model = make_baseline(kind, rng, None, [4, 3])
    sample = [rng.normal(size=4), rng.normal(size=3)]
    label = np.array([0.0, 1.0])

    _, analytic, _ = model.loss_and_gradients(sample, label)

    def scalar():
        loss, _, _ = model.loss_and_gradients(sample, label)
        return loss

    numeric = numeric_grads(scalar, model.parameters())
    for a, b in zip(analytic, numeric):
        assert np.max(np.abs(a - b)) < 1e-6


@pytest.mark.parametrize("kind", ["measure_then_average", "measure_then_vqc"])
def test_quantum_baseline_gradients_match_finite_differences(kind):
    rng = np.random.default_rng(4)
    models = small_models(rng)
    model = make_baseline(kind, rng, models)
    sample = random_sample(rng, models)
    label = np.array([1.0, 0.0])

    _, analytic, _ = model.loss_and_gradients(sample, label)

    def scalar():
        loss, _, _ = model.loss_and_gradients(sample, label)
        return loss

    numeric = numeric_grads(scalar, model.parameters(), eps=1e-5)
    for a, b in zip(analytic, numeric):
        assert np.max(np.abs(a - b)) < 2e-5 * max(1.0, np.max(np.abs(a)))


@pytest.mark.parametrize("kind", ("eviqvfl",) + BASELINE_KINDS)
def test_batch_loss_and_gradients_match_per_sample_results(kind):
    # Per-sample losses and predictions keep the sample axis; gradients are
    # the sum of the per-sample gradients.
    rng = np.random.default_rng(9)
    models = small_models(rng, k=3)
    trainable = (train.EvidentialTrainable(models) if kind == "eviqvfl" else
                 make_baseline(kind, rng, models, [4] * 3))
    b = 7
    sample = [rng.normal(size=(b, 4)) for _ in models]
    labels = np.eye(2)[rng.integers(0, 2, size=b)]
    loss, grads, pred = trainable.loss_and_gradients(sample, labels)
    assert loss.shape == (b,) and pred.probabilities.shape == (b, 2)
    assert np.max(np.abs(trainable.predict(sample).probabilities
                         - pred.probabilities)) < 1e-12
    summed = [np.zeros_like(p) for p in trainable.parameters()]
    for i in range(b):
        loss_i, grads_i, pred_i = trainable.loss_and_gradients(
            [x[i] for x in sample], labels[i])
        assert isinstance(loss_i, float) and isinstance(pred_i.predicted_class, int)
        assert abs(loss[i] - loss_i) < 1e-12
        assert np.max(np.abs(pred.probabilities[i] - pred_i.probabilities)) < 1e-12
        for s, g in zip(summed, grads_i):
            s += g
    assert len(grads) == len(summed)
    for g, s in zip(grads, summed):
        assert g.shape == s.shape
        assert np.max(np.abs(g - s)) < 1e-12


# --- relationships between baselines and the evidential model --------------

def test_single_party_average_equals_evidential_fusion():
    """With one party the mean of marginals IS the marginal vector, and the
    factorized product over one party is the same vector, so both pipelines
    give identical predictions."""
    rng = np.random.default_rng(5)
    models = small_models(rng, k=1)
    model = baselines.MeasureAverageModel(models)
    sample = random_sample(rng, models)
    marginals, _ = forward_pass(models, sample)
    evidential = predict(fuse_factorized(marginals))
    assert np.allclose(model.predict(sample).probabilities,
                       evidential.probabilities, atol=1e-12)


def test_average_baseline_losses_respect_softmax_floor():
    rng = np.random.default_rng(6)
    models = small_models(rng)
    model = baselines.MeasureAverageModel(models)
    floor = loss_lower_bound(2)
    for _ in range(20):
        sample = random_sample(rng, models)
        label = np.eye(2)[rng.integers(0, 2)]
        loss, _, _ = model.loss_and_gradients(sample, label)
        assert loss >= floor - 1e-12


def test_measured_baseline_takes_no_eval_mode():
    # Its server reads the measured marginals, so a joint mode would be
    # accepted and ignored.
    rng = np.random.default_rng(7)
    with pytest.raises(TypeError, match="eval_mode"):
        baselines.MeasureAverageModel(small_models(rng), eval_mode="joint")


def test_vqc_server_shape_validated():
    rng = np.random.default_rng(7)
    models = small_models(rng)
    with pytest.raises(ValueError, match="two blocks"):
        baselines.MeasureVqcModel(models, np.zeros((1, 4, 3)))


# --- training smoke test ---------------------------------------------------

@pytest.mark.parametrize("kind", BASELINE_KINDS)
def test_each_kind_trains_without_error(kind):
    rng = np.random.default_rng(8)
    models = small_models(rng)
    model = make_baseline(kind, rng, models)
    config = TrainConfig(learning_rate=0.1)
    opt = train.OptimizerState.for_params(model.parameters())
    losses = []
    sample = random_sample(rng, models)
    label = np.array([1.0, 0.0])
    for _ in range(15):
        loss, grads, _ = model.loss_and_gradients(sample, label)
        losses.append(loss)
        train.adam_step(opt, model.parameters(), grads, config)
    assert losses[-1] < losses[0]
