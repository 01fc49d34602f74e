"""End-to-end gradient training.

Gradients for quantum angles are exact, by adjoint differentiation (Jones &
Gacon, arXiv:2009.02823): one forward sweep of a circuit row and one reverse
sweep give the derivative of every angle, equal to the parameter-shift rule
(E(t + pi/2) - E(t - pi/2)) / 2 that ``verify`` holds them to.  They flow
through the factorized fusion -- the product of per-party class marginals --
whose exact equality with the joint circuit is established separately.
TT-core gradients chain the encoding-angle derivatives through the squash
activation into the exact multilinear backward pass.

The training path takes a whole mini-batch at once: every party block is
(B, d) rows, and ``train_run`` makes one ``loss_and_gradients`` call per
mini-batch.  Per party that is one TT forward and one TT backward; the
forward circuits of all parties with one circuit shape run as rows of one
``batched_marginals`` call, and each party's adjoint sweeps run on one row
per sample, a chunk at a time (``model.CHUNK_AMPLITUDES``).  Losses and
predictions keep the sample axis; gradients are summed over it.  A single
sample, one (d,) block per party, gives a float loss and a one-sample
``Prediction``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from . import qsim
from .data import VerticalDataset, batch_indices
from .model import PartyModel, Prediction, batched_marginals, loss_lower_bound
# perfbench/tracer.py patches batched_marginals and ttn_backward at these
# by-name imports; ttn_forward is reached only through model.party_features.
from .ttn import squash_grad, ttn_backward

BOUND_SLACK = 1e-9


@dataclass
class TrainConfig:
    """Training settings; ``cli.CONFIG_SCHEMA`` checks a config's values."""
    learning_rate: float = 0.05
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_epsilon: float = 1e-8


@dataclass
class OptimizerState:
    first_moment: list[np.ndarray]
    second_moment: list[np.ndarray]
    step_count: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "OptimizerState":
        return cls([np.zeros_like(p) for p in params],
                   [np.zeros_like(p) for p in params])


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    train_acc: float
    test_acc: float
    seconds: float


@dataclass
class TrainTrace:
    records: list[EpochRecord] = field(default_factory=list)

    def export(self, path, include_wall_clock: bool = True) -> None:
        """One line per epoch: ``epoch,loss,train_acc,test_acc,seconds``.

        The seconds column is wall-clock timing and is the only
        non-deterministic column; pass ``include_wall_clock=False`` to zero it
        when traces must be byte-comparable across runs.
        """
        with open(path, "w") as f:
            f.write("epoch,loss,train_acc,test_acc,seconds\n")
            for r in self.records:
                secs = r.seconds if include_wall_clock else 0.0
                f.write(f"{r.epoch},{float(r.loss)!r},{float(r.train_acc)!r},"
                        f"{float(r.test_acc)!r},{float(secs)!r}\n")

    @classmethod
    def load(cls, path) -> "TrainTrace":
        records = []
        with open(path) as f:
            header = f.readline()
            if not header.startswith("epoch,"):
                raise ValueError(f"malformed trace header in {path}")
            for line in f:
                e, loss, tr, te, s = line.strip().split(",")
                records.append(EpochRecord(int(e), float(loss), float(tr),
                                           float(te), float(s)))
        return cls(records)


def ce_loss(prediction: Prediction, label: np.ndarray,
            check_bound: bool = False) -> float | np.ndarray:
    """-ln p(true class): a float for one sample, one per row for a batch of
    (B, C) labels; optionally assert the quantum-output loss floor."""
    label = np.asarray(label, dtype=np.float64)
    probabilities = prediction.probabilities
    if label.shape != probabilities.shape \
            or np.any(np.abs(label.sum(axis=-1) - 1.0) > 1e-9) \
            or not np.all((label == 0) | (label == 1)):
        raise ValueError("label must be one-hot of length C")
    true_class = np.argmax(label, axis=-1)[..., None]
    loss = -np.log(np.take_along_axis(probabilities, true_class, axis=-1)[..., 0])
    if check_bound:
        bound = loss_lower_bound(probabilities.shape[-1])
        if np.any(loss < bound - BOUND_SLACK):
            raise AssertionError(
                f"quantum-output CE loss {np.min(loss)} violates the {bound} floor")
    return float(loss) if loss.ndim == 0 else loss


def param_shift_grad(evaluate, theta: float) -> float:
    """Exact derivative of a Pauli-rotation expectation at ``theta``."""
    return (evaluate(theta + np.pi / 2) - evaluate(theta - np.pi / 2)) / 2.0


# --- eviQVFL forward/backward ---------------------------------------------

def forward_pass(models: list[PartyModel], sample: list[np.ndarray]
                 ) -> tuple[np.ndarray, list[dict]]:
    """All party marginals, stacked (K, C), or (K, B, C) when every party's
    block is (B, d) rows; caches feed the backward pass.  Parties with the
    same circuit shape run as rows of one ``batched_marginals`` call."""
    caches = [model_mod.party_features(m, x)
              for m, x in zip(models, sample, strict=True)]
    groups: dict = {}
    for k, m in enumerate(models):
        groups.setdefault((m.vqc_angles.shape, m.num_classes), []).append(k)
    marginals = [None] * len(models)
    for (shape, num_classes), ks in groups.items():
        enc = np.concatenate([2.0 * caches[k]["x_tilde"].reshape(-1, shape[1])
                              for k in ks])
        rows = len(enc) // len(ks)
        vqc = np.concatenate([np.broadcast_to(models[k].vqc_angles, (rows,) + shape)
                              for k in ks])
        marg = batched_marginals(enc, vqc, num_classes)
        for k, party_marg in zip(ks, np.split(marg, len(ks))):
            marginals[k] = party_marg.reshape(
                caches[k]["x_tilde"].shape[:-1] + (num_classes,))
    return np.array(marginals), caches


def eviqvfl_predict(models: list[PartyModel], sample: list[np.ndarray]) -> Prediction:
    marginals, _ = forward_pass(models, sample)
    return model_mod.predict(model_mod.fuse_factorized(marginals))


def _generator_axes(vqc_angles: np.ndarray) -> np.ndarray:
    """(blocks, n, 4, 3): for RX, RY, RZ and block 0's Ry encoding of each
    fused gate U = RZ RY RX Ry(enc), the Bloch axis a of the generator moved
    past U, so that dU/dangle = -i/2 (a . sigma) U.  The axes depend on the
    VQC angles alone, never on the encoding."""
    cx, cy, cz = np.moveaxis(np.cos(vqc_angles), -1, 0)
    sx, sy, sz = np.moveaxis(np.sin(vqc_angles), -1, 0)
    zero, one = np.zeros_like(cx), np.ones_like(cx)
    return np.stack([np.stack(axis, axis=-1) for axis in (
        (cy * cz, cy * sz, -sy),                            # RZ RY X RY^+ RZ^+
        (-sz, cz, zero),                                    # RZ Y RZ^+
        (zero, zero, one),                                  # Z
        (sx * sy * cz - cx * sz, sx * sy * sz + cx * cz, sx * cy),  # U Y U^+
    )], axis=-2)


def _pauli_traces(phi: np.ndarray, mu: np.ndarray, qubit: int) -> np.ndarray:
    """Im Tr(sigma_j W) for j = X, Y, Z per row, where the 2x2 cross matrix
    W[a, b] sums phi[..a..] mu[..b..] over the other qubits: (B, 3)."""
    b = len(phi)
    w = np.einsum("xiar,xibr->xab", phi.reshape(b, 1 << qubit, 2, -1),
                  mu.reshape(b, 1 << qubit, 2, -1))
    return np.stack([(w[:, 0, 1] + w[:, 1, 0]).imag,
                     (w[:, 0, 1] - w[:, 1, 0]).real,
                     (w[:, 0, 0] - w[:, 1, 1]).imag], axis=-1)


def party_angle_gradients(enc_angles: np.ndarray, vqc_angles: np.ndarray,
                          num_classes: int, dL_dmarg: np.ndarray
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint-method gradients of the loss wrt the angles of one circuit:
    Ry(enc_angles), then the (blocks, n, 3) VQC blocks, read out as the first
    ``num_classes`` qubit marginals (a party or the measure_then_vqc server).

    ``enc_angles`` is one sample's (n,) or a batch's (B, n), and ``dL_dmarg``
    the loss gradient wrt the marginals, (C,) or (B, C), with everything else
    frozen.  Returns (d/d encoding angle, per sample; d/d vqc angle, summed
    over the samples), equal to the parameter-shift rule's.

    One forward sweep gives each row's final state phi.  The loss is then
    <phi|O|phi> for the diagonal O = sum_c dL/dmarg_c P(qubit c = 1), and
    lambda = O phi.  Walking the blocks backwards, both phi and lambda undo
    the CNOT ring and then each fused gate U; between the two, each qubit's
    cross matrix W = sum phi conj(lambda)^T gives every angle of U its
    derivative Im Tr((a . sigma) W), with the axes a of ``_generator_axes``.
    The sweep carries mu = conj(lambda), which undoes U by U^T.  Rows run a
    chunk at a time, within ``model.CHUNK_AMPLITUDES``.
    """
    enc_angles = np.asarray(enc_angles, dtype=np.float64)
    vqc_angles = np.asarray(vqc_angles, dtype=np.float64)
    n = enc_angles.shape[-1]
    enc = enc_angles.reshape(-1, n)
    dL_dmarg = np.reshape(dL_dmarg, (len(enc), num_classes))
    axes = _generator_axes(vqc_angles)
    # qubit_set[c, i] = 1 where basis state i has qubit c set.
    qubit_set = (np.arange(1 << n) >> (n - 1 - np.arange(num_classes))[:, None]) & 1
    step = max(1, model_mod.CHUNK_AMPLITUDES >> n)
    d_enc = np.empty_like(enc)
    d_vqc = np.zeros_like(vqc_angles)
    for s in range(0, len(enc), step):
        phi, fused = model_mod.circuit_rows(enc[s:s + step], vqc_angles)
        # einsum, not a BLAS matmul: the first BLAS call maps its buffers,
        # which raised the training loop's peak RSS.
        mu = np.einsum("rc,ci->ri", dL_dmarg[s:s + step], qubit_set) * np.conj(phi)
        for k in reversed(range(len(fused))):
            phi = qsim.apply_cnot_ring(phi, inverse=True)
            mu = qsim.apply_cnot_ring(mu, inverse=True)
            traces = np.stack([_pauli_traces(phi, mu, q) for q in range(n)])
            d_vqc[k] += np.einsum("qaj,qj->qa", axes[k, :, :3], traces.sum(axis=1))
            if k == 0:
                d_enc[s:s + step] = np.einsum("qj,qrj->rq", axes[0, :, 3], traces)
                break
            for q, u in enumerate(fused[k]):
                u_t = np.swapaxes(u, -1, -2)
                qsim.apply_unitary_rows(phi, q, np.conj(u_t))
                qsim.apply_unitary_rows(mu, q, u_t)
    return d_enc.reshape(enc_angles.shape), d_vqc


def party_gradients(m: PartyModel, cache: dict, dL_dmarg: np.ndarray
                    ) -> list[np.ndarray]:
    """One party's gradients (TT cores, then VQC angles) from dL/d marginals,
    chained through encoding angle = 2 x_tilde, the squash and the TT layer;
    ``cache`` is the party's ``model.party_features`` output.  On a batch's
    cache and (B, C) ``dL_dmarg`` the gradients are summed over the samples."""
    d_enc, d_vqc = party_angle_gradients(2.0 * cache["x_tilde"], m.vqc_angles,
                                         m.num_classes, dL_dmarg)
    dL_dpre = 2.0 * d_enc * squash_grad(cache["pre_activation"])
    return ttn_backward(m.ttn, cache["x"], dL_dpre) + [d_vqc]


def party_parameters(m: PartyModel) -> list[np.ndarray]:
    """Flat parameter list (mutated in place by the optimizer)."""
    return list(m.ttn.cores) + [m.vqc_angles]


def full_gradient(models: list[PartyModel], sample: list[np.ndarray],
                  label: np.ndarray
                  ) -> tuple[float | np.ndarray, list[list[np.ndarray]], Prediction]:
    """Loss, per-party gradients (TT cores then VQC angles), and prediction.

    ``sample`` holds one (d,) block per party with a (C,) one-hot ``label``,
    or (B, d) blocks with (B, C) labels: the loss and the prediction then
    keep the sample axis, and the gradients are summed over it.
    """
    marginals, caches = forward_pass(models, sample)
    pred = model_mod.predict(model_mod.fuse_factorized(marginals))
    loss = ce_loss(pred, label, check_bound=True)
    dL_dpl = pred.probabilities - np.asarray(label, dtype=np.float64)
    # The product over no other parties is all ones.
    grads = [party_gradients(m, cache,
                             np.prod(np.delete(marginals, k, axis=0), axis=0)
                             * dL_dpl)
             for k, (m, cache) in enumerate(zip(models, caches))]
    return loss, grads, pred


def eviqvfl_loss(models: list[PartyModel], sample: list[np.ndarray],
                 label: np.ndarray) -> float:
    """Cross-entropy of one sample, or summed over a batch's samples."""
    return float(np.sum(ce_loss(eviqvfl_predict(models, sample), label,
                                check_bound=True)))


def full_gradient_fd(models: list[PartyModel], sample: list[np.ndarray],
                     label: np.ndarray, step: float = 1e-5
                     ) -> tuple[float | np.ndarray, list[list[np.ndarray]], Prediction]:
    """Central finite differences over every scalar parameter (oracle path).

    On a batch they difference the summed loss, so the gradients are summed
    over the samples as ``full_gradient``'s are.
    """
    pred = eviqvfl_predict(models, sample)
    loss = ce_loss(pred, label, check_bound=True)
    grads = []
    for m in models:
        party_grads = []
        for arr in party_parameters(m):
            g = np.zeros_like(arr)
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = eviqvfl_loss(models, sample, label)
                flat[i] = orig - step
                lo = eviqvfl_loss(models, sample, label)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2 * step)
            party_grads.append(g)
        grads.append(party_grads)
    return loss, grads, pred


# --- optimizer -------------------------------------------------------------

def adam_step(state: OptimizerState, params: list[np.ndarray],
              grads: list[np.ndarray], config: TrainConfig) -> None:
    """Standard bias-corrected Adam; updates ``params`` in place."""
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    b1, b2 = config.adam_betas
    state.step_count += 1
    t = state.step_count
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape}")
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)


# --- training loop ---------------------------------------------------------

def _hits(prediction: Prediction, labels: np.ndarray) -> int:
    return int(np.sum(prediction.predicted_class == np.argmax(labels, axis=-1)))


def _accuracy(trainable, dataset: VerticalDataset) -> float:
    if dataset.num_samples == 0:
        return float("nan")
    return _hits(trainable.predict(dataset.party_blocks),
                 dataset.labels) / dataset.num_samples


class EvidentialTrainable:
    """The party ensemble under the trainable interface every model kind
    answers: ``parameters()`` (arrays the optimizer updates in place),
    ``party_param_counts()``, ``predict(sample)`` and
    ``loss_and_gradients(sample, label)``.

    A sample is one (d,) block per party, or (B, d) blocks for a batch of B
    samples with (B, C) labels.  For a batch, the loss and the prediction
    keep the sample axis and the gradients are summed over it."""

    def __init__(self, models: list[PartyModel], eval_mode: str = "factorized"):
        self.models = models
        self.eval_mode = eval_mode

    def parameters(self) -> list[np.ndarray]:
        return [p for m in self.models for p in party_parameters(m)]

    def party_param_counts(self) -> list[int]:
        return [m.param_count() for m in self.models]

    def predict(self, sample) -> Prediction:
        if self.eval_mode != "joint":
            return eviqvfl_predict(self.models, sample)
        # The joint register holds one sample, so a batch runs row by row.
        rows = zip(*[np.reshape(x, (-1, np.shape(x)[-1])) for x in sample])
        plaus = np.array([
            model_mod.fuse_joint_circuit(
                [model_mod.party_forward(m, x)[0]
                 for m, x in zip(self.models, row, strict=True)],
                self.models[0].num_classes)
            for row in rows])
        return model_mod.predict(plaus.reshape(np.shape(sample[0])[:-1] + (-1,)))

    def loss_and_gradients(self, sample, label):
        loss, party_grads, pred = full_gradient(self.models, sample, label)
        return loss, [g for pg in party_grads for g in pg], pred


def train_run(models, train_set: VerticalDataset, config: TrainConfig,
              test_set: VerticalDataset | None = None
              ) -> tuple[object, TrainTrace]:
    """Mini-batch training loop; fully deterministic given ``config.seed``.

    Each mini-batch is one ``loss_and_gradients`` call on (B, d) party
    blocks; Adam steps on the gradient averaged over its samples.

    ``models`` is either a list of PartyModel (trained as the evidential
    ensemble) or any object with the trainable interface of
    EvidentialTrainable (see baselines).
    """
    trainable = models
    if isinstance(models, list):
        trainable = EvidentialTrainable(models)
    params = trainable.parameters()
    opt = OptimizerState.for_params(params)
    trace = TrainTrace()
    for epoch in range(config.epochs):
        t0 = time.monotonic()
        losses = []
        hits = 0
        for batch in batch_indices(train_set.num_samples, config.batch_size,
                                   config.seed, epoch):
            part = train_set.subset(batch)
            loss, grads, pred = trainable.loss_and_gradients(part.party_blocks,
                                                             part.labels)
            losses.append(loss)
            hits += _hits(pred, part.labels)
            adam_step(opt, params, [g / len(batch) for g in grads], config)
        test_acc = _accuracy(trainable, test_set) if test_set is not None else float("nan")
        trace.records.append(EpochRecord(
            epoch=epoch,
            loss=float(np.mean(np.concatenate(losses))),
            train_acc=hits / train_set.num_samples,
            test_acc=test_acc,
            seconds=time.monotonic() - t0,
        ))
    return trainable, trace


# --- barren-plateau diagnostic --------------------------------------------

@dataclass
class GradientVarianceReport:
    evidential_variance: float
    monolithic_vqc_variance: float
    total_qubits: int
    num_seeds: int


def barren_plateau_diagnostic(party_input_dims, party_output_dims,
                              internal_rank: int, blocks: int,
                              num_parties: int, num_classes: int,
                              num_seeds: int = 50, seed: int = 0
                              ) -> GradientVarianceReport:
    """Compare first-angle gradient variance: evidential fusion vs a single
    trainable fusion circuit over all teleported qubits.

    The monolithic variant replaces the fixed fusion circuit with a trainable
    block-structured circuit on the full sum-of-parties register; its gradient
    signal is expected to be markedly weaker.
    """
    d = int(np.prod(party_input_dims))
    evi_grads = []
    mono_grads = []
    total_qubits = 0
    for s in range(num_seeds):
        rng = np.random.default_rng(np.random.SeedSequence([seed, s]))
        models = [PartyModel.random_init(party_input_dims, party_output_dims,
                                         internal_rank, blocks, num_classes,
                                         rng, angle_scale=np.pi)
                  for _ in range(num_parties)]
        sample = [rng.uniform(0, 1, size=d) for _ in range(num_parties)]
        label = np.zeros(num_classes)
        label[0] = 1.0

        # Both paths differentiate party 0's first VQC angle.  The shift rule
        # is exact only for expectation values, so neither applies it to the loss.
        evi_grads.append(full_gradient(models, sample, label)[1][0][-1][0, 0, 0])

        # Monolithic variant: joint register of all party outputs followed by
        # a random trainable fusion circuit over the whole register; here the
        # angle's signal must survive the scrambling fusion circuit.
        total_qubits = sum(m.n_qubits for m in models)
        # Depth grows with width so the random circuit actually mixes the
        # register; shallow circuits would understate the plateau.
        fusion_blocks = max(2, total_qubits // 2)
        fusion_angles = rng.uniform(-np.pi, np.pi,
                                    size=(fusion_blocks, total_qubits, 3))
        # Zero encoding angles: the fusion circuit has no Ry encoding.
        fusion = model_mod.fused_rotations(np.zeros((1, total_qubits)),
                                           fusion_angles)

        def mono_plaus(theta: float) -> np.ndarray:
            old = models[0].vqc_angles[0, 0, 0]
            models[0].vqc_angles[0, 0, 0] = theta
            states = [model_mod.party_forward(m, x)[0]
                      for m, x in zip(models, sample)]
            models[0].vqc_angles[0, 0, 0] = old
            st = states[0]
            for other in states[1:]:
                st = qsim.tensor_product(st, other)
            rows = model_mod.run_blocks(st.amplitudes.reshape(1, -1), fusion)
            return qsim.prob_one_rows(rows, range(num_classes))[0]

        theta = models[0].vqc_angles[0, 0, 0]
        dL_dpl = model_mod.predict(mono_plaus(theta)).probabilities - label
        mono_grads.append(float(dL_dpl @ param_shift_grad(mono_plaus, theta)))

    return GradientVarianceReport(
        evidential_variance=float(np.var(evi_grads)),
        monolithic_vqc_variance=float(np.var(mono_grads)),
        total_qubits=total_qubits,
        num_seeds=num_seeds,
    )
