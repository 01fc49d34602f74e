"""End-to-end gradient training: the chain rule, Adam, the loop and the trace.

Angle gradients come from ``model.party_angle_gradients``, the circuit's
exact adjoint sweep.  They flow through the factorized fusion -- the product
of per-party class marginals -- whose exact equality with the joint circuit
is established separately.  TT-core gradients chain the encoding-angle
derivatives through the squash activation into the exact multilinear
backward pass.

The training path takes a whole mini-batch at once: every party block is
(B, d) rows, and ``train_run`` makes one ``loss_and_gradients`` call per
mini-batch.  Per party that is one TT forward and one TT backward; the
squash and its derivative run once over the parties' stacked
pre-activations.  The parties share one circuit: all their rows run forward
in one ``batched_marginals`` call, and one adjoint sweep runs back from the
final rows and the parties' angles, which the cache keeps for the
mini-batch; ``party_gradients`` then chains each party's share into its TT
layer.  Adam keeps its moments in one flat buffer.  Losses and predictions
keep the sample axis; gradients are summed over it.  A single sample, one
(d,) block per party, gives a float loss and a one-sample ``Prediction``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import model as model_mod
from .data import VerticalDataset, batch_indices
from .model import (PartyModel, Prediction, batched_marginals, loss_lower_bound,
                    party_angle_gradients)
# perfbench/tracer.py patches batched_marginals, party_angle_gradients and
# ttn_backward at these by-name imports, and ttn_forward at model's, through
# which forward_pass calls it.
from .ttn import squash, squash_grad, ttn_backward

BOUND_SLACK = 1e-9
FD_STEP = 1e-5  # central-difference step of full_gradient_fd
TRACE_HEADER = "epoch,loss,train_acc,test_acc"


@dataclass
class TrainConfig:
    """Training settings; ``cli.CONFIG_SCHEMA`` checks a config's values."""
    learning_rate: float = 0.05
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0


@dataclass
class OptimizerState:
    """Adam's moments of every parameter entry, in one flat buffer each, in
    the order of the parameter list."""
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "OptimizerState":
        size = sum(p.size for p in params)
        return cls(np.zeros(size), np.zeros(size))


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    train_acc: float
    test_acc: float


@dataclass
class TrainTrace:
    records: list[EpochRecord] = field(default_factory=list)

    def export(self, path) -> None:
        """One line per epoch: ``epoch,loss,train_acc,test_acc``.  Every
        column is determined by the config and seed, so a rerun writes the
        same bytes."""
        with open(path, "w") as f:
            f.write(TRACE_HEADER + "\n")
            for r in self.records:
                f.write(f"{r.epoch},{float(r.loss)!r},{float(r.train_acc)!r},"
                        f"{float(r.test_acc)!r}\n")

    @classmethod
    def load(cls, path) -> "TrainTrace":
        """Inverse of ``export``.  A malformed trace raises ValueError naming
        the file and the 1-based line at fault: rows need epochs 0, 1, 2, ...,
        a finite loss and accuracies in [0, 1] or nan, and a trace needs at
        least one row."""
        with open(path, errors="replace") as f:  # a stray byte fails its line
            lines = f.read().splitlines()
        if not lines or lines[0] != TRACE_HEADER:
            raise ValueError(f"{path}:1: expected the header {TRACE_HEADER!r}")
        if len(lines) == 1:
            raise ValueError(f"{path}:1: a header with no epoch rows")
        names = TRACE_HEADER.split(",")
        records = []
        for number, line in enumerate(lines[1:], start=2):
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(f"{path}:{number}: expected {len(names)} "
                                 f"fields, got {len(fields)}")
            values = []
            for name, text in zip(names, fields):
                try:
                    values.append(int(text) if name == "epoch" else float(text))
                except ValueError:
                    raise ValueError(f"{path}:{number}: {name} {text!r} is not "
                                     f"a number") from None
            r = EpochRecord(*values)
            for ok, problem in (
                    (r.epoch == len(records),
                     f"epoch {r.epoch} where {len(records)} was expected"),
                    (math.isfinite(r.loss), f"loss {r.loss!r} is not finite"),
                    (math.isnan(r.train_acc) or 0 <= r.train_acc <= 1,
                     f"train_acc {r.train_acc!r} is not in [0, 1] or nan"),
                    (math.isnan(r.test_acc) or 0 <= r.test_acc <= 1,
                     f"test_acc {r.test_acc!r} is not in [0, 1] or nan")):
                if not ok:
                    raise ValueError(f"{path}:{number}: {problem}")
            records.append(r)
        return cls(records)


def ce_loss(prediction: Prediction, label: np.ndarray,
            check_bound: bool = False) -> float | np.ndarray:
    """-ln p(true class): a float for one sample, one per row for a batch of
    (B, C) labels; optionally assert the quantum-output loss floor.  Where p
    has underflowed to 0, the loss is logsumexp(z) - z_true of the logits z
    (``plausibilities``), finite while they are."""
    label = np.asarray(label, dtype=np.float64)
    probabilities = prediction.probabilities
    if label.shape != probabilities.shape \
            or np.any(np.abs(label.sum(axis=-1) - 1.0) > 1e-9) \
            or not np.all((label == 0) | (label == 1)):
        raise ValueError("label must be one-hot of length C")
    true_class = np.argmax(label, axis=-1)[..., None]
    p = np.take_along_axis(probabilities, true_class, axis=-1)[..., 0]
    with np.errstate(divide="ignore"):
        loss = -np.log(p)
    # The reduction called without its Python wrapper, as in model.softmax.
    if np.minimum.reduce(p, axis=None) == 0:
        z = prediction.plausibilities
        top = np.maximum.reduce(z, axis=-1)
        lse = top + np.log(np.add.reduce(np.exp(z - top[..., None]), axis=-1))
        loss = np.where(p > 0, loss,
                        lse - np.take_along_axis(z, true_class, axis=-1)[..., 0])
    if check_bound:
        bound = loss_lower_bound(probabilities.shape[-1])
        if np.any(loss < bound - BOUND_SLACK):
            raise AssertionError(
                f"quantum-output CE loss {np.min(loss)} violates the {bound} floor")
    return float(loss) if loss.ndim == 0 else loss


# --- eviQVFL forward/backward ---------------------------------------------

def forward_pass(models: list[PartyModel], sample: list[np.ndarray]
                 ) -> tuple[np.ndarray, tuple]:
    """All party marginals, stacked (K, C), or (K, B, C) when every party's
    block is (B, d) rows, from one ``batched_marginals`` call, one VQC
    setting per party; the parties must share one circuit shape.  Each
    party's TT layer runs on its own block, and one squash maps the stacked
    (K, ..., n) pre-activations to encoding angles.  The cache (the party
    blocks, the pre-activations, the final rows, the (K, blocks, n, 3) VQC
    stack) feeds ``party_gradients``; rows live for one mini-batch."""
    shapes = {(m.vqc_angles.shape, m.num_classes) for m in models}
    if len(shapes) != 1:
        raise ValueError(f"the parties must share one circuit, but their (VQC "
                         f"angle shape, num_classes) pairs are {sorted(shapes)}")
    (shape, num_classes), = shapes
    pre_activation = np.array([model_mod.ttn_forward(m.ttn, x)
                               for m, x in zip(models, sample, strict=True)])
    enc = 2.0 * squash(pre_activation).reshape(-1, shape[1])
    vqc = np.array([m.vqc_angles for m in models])
    marginals, rows = batched_marginals(enc, vqc, num_classes)
    return (marginals.reshape(pre_activation.shape[:-1] + (num_classes,)),
            (sample, pre_activation, rows, vqc))


def eviqvfl_predict(models: list[PartyModel], sample: list[np.ndarray]) -> Prediction:
    marginals, _ = forward_pass(models, sample)
    return model_mod.predict(model_mod.fuse_factorized(marginals))


def party_gradients(models: list[PartyModel], cache: tuple,
                    dL_dmarg: np.ndarray) -> list[list[np.ndarray]]:
    """Every party's gradients (TT cores, then VQC angles) from dL/d
    marginals, stacked as ``forward_pass``'s marginals, given its cache: one
    adjoint call for the ensemble's circuit rows, one chain through encoding
    angle = 2 x_tilde and the squash for the stacked pre-activations, then
    per party the TT layer's backward pass.  On a batch the gradients are
    summed over the samples."""
    sample, pre_activation, rows, vqc = cache
    d_enc, d_vqc = party_angle_gradients(rows, vqc, dL_dmarg)
    dL_dpre = 2.0 * d_enc * squash_grad(pre_activation)
    return [ttn_backward(m.ttn, x, dL_dpre_k) + [d_vqc_k]
            for m, x, dL_dpre_k, d_vqc_k in zip(models, sample, dL_dpre, d_vqc)]


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
    marginals, cache = forward_pass(models, sample)
    pred = model_mod.predict(model_mod.fuse_factorized(marginals))
    loss = ce_loss(pred, label, check_bound=True)
    dL_dpl = pred.probabilities - np.asarray(label, dtype=np.float64)
    # The product over no other parties is all ones.
    others = np.array([np.prod(np.delete(marginals, k, axis=0), axis=0)
                       for k in range(len(models))])
    return loss, party_gradients(models, cache, others * dL_dpl), pred


def eviqvfl_loss(models: list[PartyModel], sample: list[np.ndarray],
                 label: np.ndarray) -> float:
    """Cross-entropy of one sample, or summed over a batch's samples."""
    return float(np.sum(ce_loss(eviqvfl_predict(models, sample), label,
                                check_bound=True)))


def full_gradient_fd(models: list[PartyModel], sample: list[np.ndarray],
                     label: np.ndarray
                     ) -> tuple[float | np.ndarray, list[list[np.ndarray]], Prediction]:
    """Central finite differences of step ``FD_STEP`` over every scalar
    parameter (oracle path).

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
                flat[i] = orig + FD_STEP
                hi = eviqvfl_loss(models, sample, label)
                flat[i] = orig - FD_STEP
                lo = eviqvfl_loss(models, sample, label)
                flat[i] = orig
                gflat[i] = (hi - lo) / (2 * FD_STEP)
            party_grads.append(g)
        grads.append(party_grads)
    return loss, grads, pred


# --- optimizer -------------------------------------------------------------

def adam_step(state: OptimizerState, params: list[np.ndarray],
              grads: list[np.ndarray], config: TrainConfig) -> None:
    """Standard bias-corrected Adam; updates ``params`` in place.  The
    moments and the update run over the gradients joined into one flat
    buffer, of which each parameter array takes its slice."""
    if len(params) != len(grads):
        raise ValueError("params/grads length mismatch")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.shape}")
    b1, b2 = 0.9, 0.999
    state.step_count += 1
    t = state.step_count
    g = np.concatenate([np.ravel(g) for g in grads])
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += (1 - b1) * g
    v *= b2
    v += (1 - b2) * g * g
    m_hat = m / (1 - b1 ** t)
    v_hat = v / (1 - b2 ** t)
    step = config.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    offset = 0
    for p in params:
        p -= step[offset:offset + p.size].reshape(p.shape)
        offset += p.size


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
        if eval_mode not in ("factorized", "joint"):
            raise ValueError(f"eval_mode must be 'factorized' or 'joint', "
                             f"not {eval_mode!r}")
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
    blocks; Adam steps on the gradient averaged over its samples.  Training
    stops with ValueError at the first epoch whose mean loss or any
    parameter is not finite.

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
        mean_loss = float(np.mean(np.concatenate(losses)))
        if not math.isfinite(mean_loss):
            raise ValueError(f"training diverged at epoch {epoch}: "
                             f"mean loss {mean_loss!r}")
        if not all(np.isfinite(p).all() for p in params):
            raise ValueError(f"training diverged at epoch {epoch}: a parameter "
                             "is not finite")
        test_acc = _accuracy(trainable, test_set) if test_set is not None else float("nan")
        trace.records.append(EpochRecord(
            epoch=epoch,
            loss=mean_loss,
            train_acc=hits / train_set.num_samples,
            test_acc=test_acc,
        ))
    return trainable, trace

