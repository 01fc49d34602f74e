"""Training loop: loss, adjoint and parameter-shift gradients, Adam,
determinism."""
import re

import numpy as np
import pytest

from evifed import baselines, data, model, qsim, train, ttn
from evifed.model import PartyModel, Prediction, softmax
from evifed.qsim import Gate
from evifed.train import OptimizerState, TrainConfig, TrainTrace
from evifed.verify import shift_rule_angle_gradients
from gate_oracle import party_circuit_state, run_gates, vqc_block_gates


def make_parties(rng, num_parties=2, input_dims=(2, 3), output_dims=(1, 3),
                 blocks=1, num_classes=2):
    return [PartyModel.random_init(input_dims, output_dims, 2, blocks,
                                   num_classes, rng)
            for _ in range(num_parties)]


def synthetic_dataset(rng, n=80, num_parties=2, width=6):
    blocks = [rng.normal(size=(n, width)) for _ in range(num_parties)]
    w = [rng.normal(size=width) for _ in range(num_parties)]
    score = sum(b @ wk for b, wk in zip(blocks, w))
    labels = (score > np.median(score)).astype(int)
    return data.VerticalDataset(blocks, data.one_hot(labels, 2))


# --- cross-entropy ---------------------------------------------------------

def test_ce_loss_of_certain_correct_prediction_is_zero():
    pred = Prediction(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert train.ce_loss(pred, np.array([1.0, 0.0])) == 0.0


def test_ce_loss_at_saturated_plausibilities_hits_the_floor():
    # plausibilities [1, 0] is the best any quantum-output model can do for
    # class 0; the loss equals ln(1+e) - 1.
    plaus = np.array([1.0, 0.0])
    pred = Prediction(plaus, softmax(plaus))
    loss = train.ce_loss(pred, np.array([1.0, 0.0]), check_bound=True)
    assert loss == pytest.approx(np.log(1 + np.e) - 1)
    assert loss == pytest.approx(0.3133, abs=1e-4)


def test_ce_loss_uniform_four_classes():
    pred = Prediction(np.full(4, 0.5), np.full(4, 0.25))
    assert train.ce_loss(pred, np.eye(4)[2]) == pytest.approx(np.log(4))


def test_ce_loss_rejects_malformed_label():
    pred = Prediction(np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        train.ce_loss(pred, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        train.ce_loss(pred, np.array([1.0, 0.0, 0.0]))


def test_bound_check_trips_on_impossible_quantum_loss():
    pred = Prediction(np.array([1.0, 0.0]), np.array([0.99, 0.01]))
    with pytest.raises(AssertionError):
        train.ce_loss(pred, np.array([1.0, 0.0]), check_bound=True)


# --- parameter shift -------------------------------------------------------

def test_shift_rule_on_single_ry_matches_closed_form():
    def prob(theta):
        s = qsim.new_zero_state(1)
        qsim.apply_gate(s, Gate("RY", [0], angle=float(theta)))
        return qsim.prob_one(s, 0)

    # d/dtheta sin^2(theta/2) = sin(theta)/2
    assert train.param_shift_grad(prob, np.pi / 2) == pytest.approx(0.5)
    for theta in np.linspace(-np.pi, np.pi, 9):
        assert train.param_shift_grad(prob, theta) == \
            pytest.approx(np.sin(theta) / 2, abs=1e-12)


def test_shift_rule_on_constant_function_is_zero():
    assert train.param_shift_grad(lambda t: 0.75, 1.3) == 0.0


def test_shift_rule_matches_finite_difference_on_three_qubit_circuit():
    rng = np.random.default_rng(0)
    angles = rng.uniform(-np.pi, np.pi, size=(1, 3, 3))

    def expectation(theta):
        a = angles.copy()
        a[0, 1, 2] = theta
        s = run_gates(qsim.new_zero_state(3), vqc_block_gates(a))
        return qsim.prob_one(s, 0)

    theta0 = float(angles[0, 1, 2])
    shift = train.param_shift_grad(expectation, theta0)
    h = 1e-4
    fd = (expectation(theta0 + h) - expectation(theta0 - h)) / (2 * h)
    assert shift == pytest.approx(fd, rel=1e-5, abs=1e-9)


# --- full gradient ---------------------------------------------------------

def test_full_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    models = make_parties(rng)
    sample = [rng.uniform(0, 1, size=6) for _ in range(2)]
    label = np.array([0.0, 1.0])
    _, shift_grads, _ = train.full_gradient(models, sample, label)
    _, fd_grads, _ = train.full_gradient_fd(models, sample, label)
    for ps, pf in zip(shift_grads, fd_grads):
        for gs, gf in zip(ps, pf):
            scale = np.maximum(np.abs(gf), 1e-6)
            assert np.max(np.abs(gs - gf) / scale) < 1e-4


def test_gradient_locality_across_parties():
    # Both parties share one circuit-shape group, so one adjoint call sweeps
    # their rows together; party 0's gradients still read only its own rows,
    # dL/d marginals and parameters, to the last bit.
    rng = np.random.default_rng(3)
    models = make_parties(rng)
    sample, labels = batch_of(rng, models, 5)
    marginals, cache = train.forward_pass(models, sample)
    dL_dpl = model.predict(np.prod(marginals, axis=0)).probabilities - labels
    dL_dmarg = marginals[::-1] * dL_dpl
    before = train.party_gradients(models, cache, dL_dmarg)[0]
    dL_dmarg[1] += rng.normal(size=dL_dmarg[1].shape)
    models[1].vqc_angles += 0.37  # perturb the other party
    models[1].ttn.cores[0] += 0.1
    after = train.party_gradients(models, cache, dL_dmarg)[0]
    for b, a in zip(before, after, strict=True):
        assert np.array_equal(b, a)


# --- adjoint gradients -----------------------------------------------------

def assert_matches_parameter_shift(enc, vqc, num_classes, dL_dmarg):
    # The adjoint starts from the forward rows, as every training caller's does.
    _, rows = model.batched_marginals(np.reshape(enc, (-1, vqc.shape[1])),
                                      vqc[None], num_classes)
    d_enc, d_vqc = train.party_angle_gradients(rows, vqc[None], dL_dmarg)
    want = shift_rule_angle_gradients(enc, vqc, num_classes, dL_dmarg)
    for g, w in zip((d_enc, d_vqc[0]), want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) < 1e-10


# (qubits, blocks, classes); a circuit reads out at most one class per qubit.
ADJOINT_CASES = [(n, blocks, c) for n in (2, 3, 4, 6) for blocks in (1, 2, 3)
                 for c in (2, 3) if c <= n]


@pytest.mark.parametrize("n,blocks,num_classes", ADJOINT_CASES)
def test_adjoint_gradients_match_parameter_shift(n, blocks, num_classes):
    rng = np.random.default_rng(100 * n + 10 * blocks + num_classes)
    enc = rng.uniform(-np.pi, np.pi, size=(5, n))
    vqc = rng.uniform(-np.pi, np.pi, size=(blocks, n, 3))
    dL_dmarg = rng.normal(size=(5, num_classes))
    assert_matches_parameter_shift(enc, vqc, num_classes, dL_dmarg)
    # One sample: (n,) encoding angles and (C,) marginal gradients.
    assert_matches_parameter_shift(enc[0], vqc, num_classes, dL_dmarg[0])


def test_adjoint_gradients_match_parameter_shift_across_chunks():
    n = 4
    rows = (model.CHUNK_AMPLITUDES >> n) + 3  # one full chunk and a partial one
    rng = np.random.default_rng(21)
    assert_matches_parameter_shift(rng.uniform(-np.pi, np.pi, size=(rows, n)),
                                   rng.uniform(-np.pi, np.pi, size=(2, n, 3)), 2,
                                   rng.normal(size=(rows, 2)))


def test_adjoint_gradients_match_parameter_shift_on_the_vqc_server():
    # measure_then_vqc's server: 3 parties x 2 classes re-encoded on 6 qubits.
    rng = np.random.default_rng(22)
    server = baselines.MeasureVqcModel.random_init(make_parties(rng, 3), rng)
    marginals = rng.uniform(0, 1, size=(3, 7, 2))
    assert_matches_parameter_shift(2.0 * baselines._concat_parties(marginals),
                                   server.server_angles, 2,
                                   rng.normal(size=(7, 2)))


# --- mini-batches ----------------------------------------------------------

def batch_of(rng, models, b, num_classes=2):
    blocks = [rng.uniform(0, 1, size=(b, m.ttn.in_size)) for m in models]
    return blocks, np.eye(num_classes)[rng.integers(0, num_classes, size=b)]


def assert_grads_close(got, want, tol=1e-12):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) < tol


# (input_dims, output_dims, blocks, parties): the breast-cancer topology, and
# an 8-qubit one whose 64-sample batch spans several chunks of rows.
GRADIENT_TOPOLOGIES = {"breast_cancer": ((2, 5), (2, 2), 1, 3),
                       "eight_qubits": ((2, 3, 2), (2, 2, 2), 1, 2)}


@pytest.mark.parametrize("b", [1, 7, 64])
@pytest.mark.parametrize("topology", GRADIENT_TOPOLOGIES)
def test_batch_gradient_is_the_sum_of_per_sample_gradients(topology, b):
    input_dims, output_dims, blocks, parties = GRADIENT_TOPOLOGIES[topology]
    rng = np.random.default_rng(16)
    models = make_parties(rng, parties, input_dims, output_dims, blocks)
    sample, labels = batch_of(rng, models, b)
    if b == 64 and topology == "eight_qubits":  # the rows span several chunks
        assert b << models[0].n_qubits > 2 * model.CHUNK_AMPLITUDES
    loss, grads, pred = train.full_gradient(models, sample, labels)
    per_sample = [train.full_gradient(models, [x[i] for x in sample], labels[i])
                  for i in range(b)]
    assert loss.shape == (b,) and pred.probabilities.shape == (b, 2)
    for i, (loss_i, grads_i, pred_i) in enumerate(per_sample):
        assert isinstance(loss_i, float) and isinstance(pred_i.predicted_class, int)
        assert abs(loss[i] - loss_i) < 1e-12
        assert np.max(np.abs(pred.probabilities[i] - pred_i.probabilities)) < 1e-12
    for k in range(parties):
        assert_grads_close(grads[k], [sum(g[k][j] for _, g, _ in per_sample)
                                      for j in range(len(grads[k]))])


def test_finite_difference_mode_on_a_batch_sums_per_sample_gradients():
    rng = np.random.default_rng(17)
    models = make_parties(rng)
    sample, labels = batch_of(rng, models, 3)
    loss, grads, _ = train.full_gradient_fd(models, sample, labels)
    per_sample = [train.full_gradient_fd(models, [x[i] for x in sample], labels[i])
                  for i in range(3)]
    assert np.allclose(loss, [l for l, _, _ in per_sample], rtol=0, atol=1e-12)
    for k in range(2):
        assert_grads_close(grads[k], [sum(g[k][j] for _, g, _ in per_sample)
                                      for j in range(len(grads[k]))], tol=1e-8)


def test_parties_of_one_circuit_shape_share_one_circuit_call(monkeypatch):
    calls = []
    real = train.batched_marginals

    def counting(enc, vqc, num_classes):
        calls.append(len(enc))
        return real(enc, vqc, num_classes)

    monkeypatch.setattr(train, "batched_marginals", counting)
    rng = np.random.default_rng(18)
    models = make_parties(rng, num_parties=3)
    sample, _ = batch_of(rng, models, 5)
    marginals, _ = train.forward_pass(models, [x[0] for x in sample])
    assert calls == [3] and marginals.shape == (3, 2)
    batch_marginals, _ = train.forward_pass(models, sample)
    assert calls == [3, 15] and batch_marginals.shape == (3, 5, 2)
    assert np.max(np.abs(batch_marginals[:, 0] - marginals)) < 1e-12


def count_circuit_calls(monkeypatch):
    """Rows of every ``model.circuit_rows`` call (forward circuits) and of
    every ``party_angle_gradients`` call (reverse sweeps), one entry per
    call."""
    forward, adjoint = [], []
    real_forward, real_adjoint = model.circuit_rows, train.party_angle_gradients

    def counting_forward(enc, vqc):
        forward.append(len(enc))
        return real_forward(enc, vqc)

    def counting_adjoint(rows, vqc, dL_dmarg):
        adjoint.append(len(rows))
        return real_adjoint(rows, vqc, dL_dmarg)

    monkeypatch.setattr(model, "circuit_rows", counting_forward)
    for module in (train, baselines):
        monkeypatch.setattr(module, "party_angle_gradients", counting_adjoint)
    return forward, adjoint


def test_each_forward_circuit_runs_once_per_gradient(monkeypatch):
    # One circuit_rows call for the ensemble's rows, the forward's, and one
    # adjoint call that sweeps back from those rows and the parties' angles.
    rng = np.random.default_rng(23)
    models = make_parties(rng, 3, blocks=2)
    sample, labels = batch_of(rng, models, 6)
    forward, adjoint = count_circuit_calls(monkeypatch)
    train.full_gradient(models, sample, labels)
    assert forward == [18]
    assert adjoint == [18]


def test_vqc_server_circuit_runs_once_per_gradient(monkeypatch):
    # measure_then_vqc: the parties' one shape group, then the server circuit;
    # the server's backward reuses the rows of its forward, and runs first,
    # since it gives the parties their dL/d marginals.
    rng = np.random.default_rng(24)
    server = baselines.MeasureVqcModel.random_init(make_parties(rng, 3), rng)
    sample, labels = batch_of(rng, server.models, 5)
    forward, adjoint = count_circuit_calls(monkeypatch)
    server.loss_and_gradients(sample, labels)
    assert forward == [15, 5]
    assert adjoint == [5, 15]


def test_forward_pass_refuses_a_mixed_ensemble(monkeypatch):
    # No command builds a mixed ensemble, and all parties run in one circuit
    # call, so one is refused before any circuit runs.  The second party
    # differs from the first in blocks, qubits or classes.
    forward, _ = count_circuit_calls(monkeypatch)
    for other, pairs in (
            ({"blocks": 2}, "[((1, 3, 3), 2), ((2, 3, 3), 2)]"),
            ({"output_dims": (2, 2)}, "[((1, 3, 3), 2), ((1, 4, 3), 2)]"),
            ({"num_classes": 3}, "[((1, 3, 3), 2), ((1, 3, 3), 3)]")):
        rng = np.random.default_rng(19)
        models = make_parties(rng, 1) + make_parties(rng, 1, **other)
        sample, labels = batch_of(rng, models, 4)
        message = re.escape("the parties must share one circuit, but their "
                            f"(VQC angle shape, num_classes) pairs are {pairs}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            train.full_gradient(models, sample, labels)
        with pytest.raises(ValueError, match=f"^{message}$"):
            train.eviqvfl_predict(models, [x[0] for x in sample])
    assert forward == []


def test_repeated_one_sample_predictions_contract_each_operator_once(monkeypatch):
    rng = np.random.default_rng(43)
    models = make_parties(rng, 3, blocks=2)
    contractions = []
    real = ttn._contract

    def counting(cores):
        contractions.append(len(cores))
        return real(cores)

    monkeypatch.setattr(ttn, "_contract", counting)
    for _ in range(3):
        sample = [rng.uniform(0, 1, size=6) for _ in models]
        first = train.eviqvfl_predict(models, sample)
        again = train.eviqvfl_predict(models, sample)
        assert np.array_equal(first.plausibilities, again.plausibilities)
        assert np.array_equal(first.probabilities, again.probabilities)
    assert len(contractions) == len(models)


def test_memoized_operators_leave_training_bit_exact(monkeypatch):
    # Three mini-batches, each followed by an evaluation that fills the memos
    # before Adam writes the parameters in place: the run must equal one that
    # builds every operator afresh.
    ds = synthetic_dataset(np.random.default_rng(41), n=24)
    config = TrainConfig(batch_size=24, epochs=3, seed=2)

    def trained():
        models = make_parties(np.random.default_rng(42), blocks=2)
        _, trace = train.train_run(models, ds, config, test_set=ds)
        return ([p.copy() for m in models for p in train.party_parameters(m)],
                [(r.loss, r.train_acc, r.test_acc) for r in trace.records])

    params, records = trained()
    monkeypatch.setattr(ttn, "materialize_dense", lambda p: ttn._contract(p.cores))
    monkeypatch.setattr(model, "_block_unitaries", model._block_unitaries.__wrapped__)
    monkeypatch.setattr(model, "_block_operators", model._block_operators.__wrapped__)
    fresh_params, fresh_records = trained()
    assert records == fresh_records
    for got, want in zip(params, fresh_params, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("eval_mode", ["factorized", "joint"])
def test_batch_prediction_matches_per_sample_predictions(eval_mode):
    rng = np.random.default_rng(20)
    trainable = train.EvidentialTrainable(make_parties(rng), eval_mode)
    sample, _ = batch_of(rng, trainable.models, 5)
    pred = trainable.predict(sample)
    for i in range(5):
        one = trainable.predict([x[i] for x in sample])
        assert np.max(np.abs(pred.probabilities[i] - one.probabilities)) < 1e-12


def test_ce_loss_of_a_batch_is_per_row():
    plaus = np.array([[0.9, 0.2], [0.1, 0.7]])
    pred = model.predict(plaus)
    labels = np.array([[1.0, 0.0], [1.0, 0.0]])
    losses = train.ce_loss(pred, labels, check_bound=True)
    assert losses.shape == (2,)
    for row, label, loss in zip(plaus, labels, losses):
        assert loss == train.ce_loss(model.predict(row), label)
    with pytest.raises(ValueError):
        train.ce_loss(pred, labels[0])
    # One row below the quantum floor trips the check for the batch.
    bad = Prediction(plaus, np.array([[0.5, 0.5], [0.99, 0.01]]))
    with pytest.raises(AssertionError):
        train.ce_loss(bad, labels, check_bound=True)


def test_train_run_matches_a_per_sample_reference_loop():
    # The reference sums per-sample gradients over each mini-batch, as the
    # training loop did before it passed whole mini-batches.
    config = TrainConfig(epochs=2, batch_size=16, seed=3)
    ds = synthetic_dataset(np.random.default_rng(22), n=40)
    models = make_parties(np.random.default_rng(23))
    reference = make_parties(np.random.default_rng(23))
    _, trace = train.train_run(models, ds, config)
    params = [p for m in reference for p in train.party_parameters(m)]
    opt = OptimizerState.for_params(params)
    for epoch, record in enumerate(trace.records):
        losses = []
        for batch in data.batch_indices(ds.num_samples, 16, 3, epoch):
            grad_sum = [np.zeros_like(p) for p in params]
            for i in batch:
                loss, grads, _ = train.full_gradient(reference, ds.sample(i),
                                                     ds.labels[i])
                losses.append(loss)
                for gs, g in zip(grad_sum, (g for pg in grads for g in pg)):
                    gs += g
            train.adam_step(opt, params, [g / len(batch) for g in grad_sum], config)
        assert abs(record.loss - np.mean(losses)) < 1e-12
    trained = [p for m in models for p in train.party_parameters(m)]
    assert_grads_close(trained, params, tol=1e-10)


# --- Adam ------------------------------------------------------------------

def test_adam_zero_gradient_leaves_params_unchanged():
    params = [np.array([1.0, -2.0])]
    state = OptimizerState.for_params(params)
    train.adam_step(state, params, [np.zeros(2)], TrainConfig())
    assert np.allclose(params[0], [1.0, -2.0])


def test_adam_first_step_is_signed_learning_rate():
    params = [np.array([0.0, 0.0])]
    state = OptimizerState.for_params(params)
    g = np.array([0.3, -0.01])
    cfg = TrainConfig(learning_rate=0.05)
    train.adam_step(state, params, [g], cfg)
    # bias correction makes m_hat/sqrt(v_hat) = sign(g) up to epsilon
    assert np.allclose(params[0], [-0.05, 0.05], atol=1e-5)


def test_adam_two_steps_match_hand_computed_trace():
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = 1.0
    m = v = 0.0
    gs = [0.5, -0.2]
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    params = [np.array([1.0])]
    state = OptimizerState.for_params(params)
    cfg = TrainConfig(learning_rate=lr)
    for g in gs:
        train.adam_step(state, params, [np.array([g])], cfg)
    assert params[0][0] == pytest.approx(p, abs=1e-12)


def test_flat_adam_equals_per_array_adam_bit_for_bit():
    # The reference keeps one moment pair per array, as Adam was first
    # written here; the flat buffers must change no bit of any parameter.
    rng = np.random.default_rng(5)
    shapes = [(1, 2, 2, 2), (2, 7, 2, 1), (3,), (2, 4, 3), (1, 1)]
    params = [rng.normal(size=s) for s in shapes]
    reference = [p.copy() for p in params]
    moments = [[np.zeros_like(p) for p in params] for _ in range(2)]
    state = OptimizerState.for_params(params)
    cfg = TrainConfig(learning_rate=0.03)
    b1, b2 = 0.9, 0.999
    for t in range(1, 51):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 2) for s in shapes]
        train.adam_step(state, params, grads, cfg)
        for p, g, m, v in zip(reference, grads, *moments):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= cfg.learning_rate * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + 1e-8)
        for got, want in zip(params, reference, strict=True):
            assert np.array_equal(got, want)


def test_adam_rejects_shape_mismatch():
    params = [np.zeros(2)]
    state = OptimizerState.for_params(params)
    with pytest.raises(ValueError):
        train.adam_step(state, params, [np.zeros(3)], TrainConfig())


# --- training loop ---------------------------------------------------------

def test_zero_epochs_leaves_models_unchanged():
    rng = np.random.default_rng(4)
    models = make_parties(rng)
    snapshot = [p.copy() for m in models for p in train.party_parameters(m)]
    ds = synthetic_dataset(np.random.default_rng(5), n=20)
    _, trace = train.train_run(models, ds, TrainConfig(epochs=0, batch_size=8))
    assert trace.records == []
    for p, snap in zip((p for m in models for p in train.party_parameters(m)),
                       snapshot):
        assert np.array_equal(p, snap)


def test_equal_seeds_give_identical_traces():
    def run():
        rng = np.random.default_rng(6)
        models = make_parties(rng)
        ds = synthetic_dataset(np.random.default_rng(7), n=40)
        _, trace = train.train_run(models, ds,
                                   TrainConfig(epochs=2, batch_size=16, seed=3))
        return [(r.epoch, r.loss, r.train_acc) for r in trace.records]

    assert run() == run()


def test_loss_decreases_on_separable_task():
    rng = np.random.default_rng(8)
    models = make_parties(rng)
    ds = synthetic_dataset(np.random.default_rng(9), n=80)
    _, trace = train.train_run(models, ds,
                               TrainConfig(epochs=5, batch_size=16, seed=0))
    assert trace.records[0].loss > trace.records[-1].loss


class NanGradients(train.EvidentialTrainable):
    """The evidential ensemble with every gradient replaced by nan."""

    def loss_and_gradients(self, sample, label):
        loss, grads, pred = super().loss_and_gradients(sample, label)
        return loss, [np.full_like(g, np.nan) for g in grads], pred


def test_train_run_stops_at_the_first_epoch_with_a_non_finite_parameter():
    # One mini-batch per epoch: epoch 0's loss is taken before the step that
    # leaves every parameter nan, so only the parameter check can stop it.
    models = make_parties(np.random.default_rng(12))
    ds = synthetic_dataset(np.random.default_rng(13), n=20)
    with pytest.raises(ValueError) as err:
        train.train_run(NanGradients(models), ds, TrainConfig(epochs=3, batch_size=20))
    assert str(err.value) == "training diverged at epoch 0: a parameter is not finite"


def test_ce_loss_of_an_underflowed_probability_is_inf_without_a_warning():
    pred = Prediction(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.5, 0.5]]))
    loss = train.ce_loss(pred, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert loss[0] == np.inf and loss[1] == np.log(2.0)


def test_every_epoch_loss_respects_the_quantum_floor():
    rng = np.random.default_rng(10)
    models = make_parties(rng)
    ds = synthetic_dataset(np.random.default_rng(11), n=30)
    _, trace = train.train_run(models, ds,
                               TrainConfig(epochs=3, batch_size=10, seed=1))
    from evifed.model import loss_lower_bound
    for r in trace.records:
        assert r.loss >= loss_lower_bound(2) - 1e-9


@pytest.mark.parametrize("eval_mode", ["factorized", "joint"])
def test_prediction_rejects_party_count_mismatch(eval_mode):
    rng = np.random.default_rng(13)
    models = make_parties(rng)
    sample = [rng.uniform(0, 1, size=6) for _ in range(3)]
    with pytest.raises(ValueError, match="zip"):
        train.EvidentialTrainable(models, eval_mode).predict(sample)


def test_unknown_eval_mode_is_rejected():
    rng = np.random.default_rng(22)
    with pytest.raises(ValueError, match="factorized.*joint"):
        train.EvidentialTrainable(make_parties(rng), eval_mode="Joint")


def test_joint_eval_mode_agrees_with_factorized_predictions():
    rng = np.random.default_rng(12)
    models = make_parties(rng)
    sample = [rng.uniform(0, 1, size=6) for _ in range(2)]
    fact = train.EvidentialTrainable(models, "factorized").predict(sample)
    joint = train.EvidentialTrainable(models, "joint").predict(sample)
    assert np.allclose(fact.probabilities, joint.probabilities, atol=1e-10)


# --- trace export ----------------------------------------------------------

def test_trace_export_and_load_roundtrip(tmp_path):
    trace = TrainTrace([train.EpochRecord(0, 0.5, 0.8, 0.75),
                        train.EpochRecord(1, 0.4, 0.9, 0.85)])
    path = tmp_path / "trace.csv"
    trace.export(path)
    back = TrainTrace.load(path)
    assert [r.loss for r in back.records] == [0.5, 0.4]
    assert back.records == trace.records


def test_trace_load_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0.5,0.8,0.75\n")
    with pytest.raises(ValueError):
        TrainTrace.load(path)


TRACE_HEADER = "epoch,loss,train_acc,test_acc\n"


@pytest.mark.parametrize("body,line,message", [
    (b"0,0.5,0.8\n", 2, "expected 4 fields, got 3"),
    (b"0,abc,0.8,0.75\n", 2, "loss"),
    (b"0,0.\x805,0.8,0.75\n", 2, "loss"),
    (b"0,nan,0.8,0.75\n", 2, "loss"),
    (b"0,inf,0.8,0.75\n", 2, "loss"),
    (b"0,0.5,0.8,-3\n", 2, "test_acc"),
    (b"0,0.5,1.5,0.75\n", 2, "train_acc"),
    (b"5,0.5,0.8,0.75\n", 2, "epoch"),
    (b"0,0.5,0.8,0.75\n2,0.4,0.9,0.8\n", 3, "epoch"),
    (b"", 1, "no epoch rows"),
], ids=["three_fields", "not_a_number", "stray_byte", "nan_loss", "inf_loss",
        "negative_test_acc", "train_acc_above_one", "first_epoch_5",
        "epoch_skipped", "header_only"])
def test_trace_load_names_the_file_and_line_at_fault(tmp_path, body, line,
                                                     message):
    path = tmp_path / "trace.csv"
    path.write_bytes(TRACE_HEADER.encode() + body)
    with pytest.raises(ValueError, match=message) as exc:
        TrainTrace.load(path)
    assert str(exc.value).startswith(f"{path}:{line}: ")


def test_trace_load_accepts_nan_accuracies(tmp_path):
    # A run with no test split records test_acc nan.
    path = tmp_path / "trace.csv"
    path.write_text(TRACE_HEADER + "0,0.5,0.8,nan\n")
    assert np.isnan(TrainTrace.load(path).records[0].test_acc)


# --- barren-plateau diagnostic ---------------------------------------------

def test_evidential_gradients_dominate_monolithic_fusion_circuit():
    # Four 4-qubit parties: the monolithic trainable fusion circuit spans 16
    # qubits and its first-angle gradient signal collapses.
    report = train.barren_plateau_diagnostic(
        party_input_dims=(2, 3), party_output_dims=(2, 2), internal_rank=2,
        blocks=1, num_parties=4, num_classes=2, num_seeds=50, seed=0)
    assert report.total_qubits == 16
    assert report.evidential_variance >= 0
    assert report.monolithic_vqc_variance >= 0
    assert report.evidential_variance > report.monolithic_vqc_variance


def test_barren_plateau_reports_true_gradient_variances():
    # The shift rule is exact for expectation values, not for the loss; the
    # reported variances must be those of the true loss gradients, taken
    # here by central differences on each seed's rebuilt models.
    report = train.barren_plateau_diagnostic(
        party_input_dims=(2, 2), party_output_dims=(2, 1), internal_rank=2,
        blocks=1, num_parties=2, num_classes=2, num_seeds=2, seed=7)
    label = np.array([1.0, 0.0])
    evi, mono = [], []
    for s in range(2):
        rng = np.random.default_rng(np.random.SeedSequence([7, s]))
        models = [PartyModel.random_init((2, 2), (2, 1), 2, 1, 2, rng,
                                         angle_scale=np.pi) for _ in range(2)]
        sample = [rng.uniform(0, 1, size=4) for _ in range(2)]
        fusion_angles = rng.uniform(-np.pi, np.pi, size=(2, 4, 3))

        def mono_loss():
            a, b = [party_circuit_state(2.0 * model.party_features(m, x)["x_tilde"],
                                        m.vqc_angles)
                    for m, x in zip(models, sample)]
            st = run_gates(qsim.tensor_product(a, b), vqc_block_gates(fusion_angles))
            plaus = [qsim.prob_one(st, c) for c in range(2)]
            return train.ce_loss(model.predict(plaus), label)

        for grads, loss in ((evi, lambda: train.eviqvfl_loss(models, sample, label)),
                            (mono, mono_loss)):
            theta, step = models[0].vqc_angles[0, 0, 0], 1e-5
            models[0].vqc_angles[0, 0, 0] = theta + step
            hi = loss()
            models[0].vqc_angles[0, 0, 0] = theta - step
            lo = loss()
            models[0].vqc_angles[0, 0, 0] = theta
            grads.append((hi - lo) / (2 * step))
    assert report.evidential_variance == pytest.approx(np.var(evi), rel=1e-5)
    assert report.monolithic_vqc_variance == pytest.approx(np.var(mono), rel=1e-5)


def test_barren_plateau_report_is_deterministic():
    kwargs = dict(party_input_dims=(2, 2), party_output_dims=(2, 1),
                  internal_rank=2, blocks=1, num_parties=2, num_classes=2,
                  num_seeds=10, seed=4)
    a = train.barren_plateau_diagnostic(**kwargs)
    b = train.barren_plateau_diagnostic(**kwargs)
    assert a == b
