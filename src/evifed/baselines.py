"""Comparison baselines sharing the training loop's trainable interface.

Four kinds:
  classical_average  -- per-party single-hidden-layer MLP, server averages.
  classical_fuse     -- same parties, concatenated outputs through a
                        single-layer server MLP.
  measure_then_average -- the quantum party pipeline, server averages the
                        measured class marginals.
  measure_then_vqc   -- measured marginals of all parties angle-encoded onto
                        K*C qubits and processed by a two-block variational
                        circuit; first C qubits read out.

Classical party widths are budget-matched: the largest hidden width whose
per-party parameter count stays within the quantum party's count (minimum
width 1 when even that overshoots; realized counts are reported, not hidden).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PartyModel, Prediction, batched_marginals, predict, softmax
from .train import TrainConfig, ce_loss, forward_pass, party_angle_gradients, \
    party_gradients, party_parameters
# Not called here: perfbench/tracer.py patches ttn_backward at this lookup
# site too and fails if the name is missing.
from .ttn import ttn_backward  # noqa: F401

BASELINE_KINDS = ("classical_average", "classical_fuse",
                  "measure_then_average", "measure_then_vqc")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def mlp_width_for_budget(input_size: int, num_classes: int, budget: int) -> int:
    """Largest hidden width within the per-party parameter budget (floor 1)."""
    per_unit = input_size + 1 + num_classes
    width = (budget - num_classes) // per_unit
    return max(1, int(width))


@dataclass
class MLPParty:
    """input -> sigmoid hidden layer -> linear class logits."""
    w1: np.ndarray  # (hidden, input)
    b1: np.ndarray
    w2: np.ndarray  # (classes, hidden)
    b2: np.ndarray

    @classmethod
    def random_init(cls, input_size: int, hidden: int, num_classes: int, rng):
        s1 = 1.0 / np.sqrt(input_size)
        s2 = 1.0 / np.sqrt(hidden)
        return cls(rng.uniform(-s1, s1, (hidden, input_size)), np.zeros(hidden),
                   rng.uniform(-s2, s2, (num_classes, hidden)), np.zeros(num_classes))

    def param_count(self) -> int:
        return self.w1.size + self.b1.size + self.w2.size + self.b2.size

    def forward(self, x):
        h = _sigmoid(self.w1 @ x + self.b1)
        return self.w2 @ h + self.b2, {"x": np.asarray(x, float), "h": h}

    def backward(self, cache, d_logits):
        dw2 = np.outer(d_logits, cache["h"])
        db2 = d_logits
        dh = self.w2.T @ d_logits * cache["h"] * (1 - cache["h"])
        dw1 = np.outer(dh, cache["x"])
        return [dw1, dh, dw2, db2]

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]


class ClassicalAverageModel:
    """Server = arithmetic mean of party logits, then softmax."""

    quantum_output = False
    kind = "classical_average"

    def __init__(self, parties: list[MLPParty]):
        self.parties = parties

    def parameters(self):
        return [p for party in self.parties for p in party.parameters()]

    def party_param_counts(self):
        return [p.param_count() for p in self.parties]

    def _logits(self, sample):
        outs = [p.forward(x) for p, x in zip(self.parties, sample)]
        logits = np.mean([o[0] for o in outs], axis=0)
        return logits, [o[1] for o in outs]

    def predict(self, sample) -> Prediction:
        logits, _ = self._logits(sample)
        return Prediction(logits, softmax(logits))

    def loss_and_gradients(self, sample, label, config: TrainConfig):
        logits, caches = self._logits(sample)
        pred = Prediction(logits, softmax(logits))
        loss = ce_loss(pred, label)
        d_logits = (pred.probabilities - label) / len(self.parties)
        grads = []
        for party, cache in zip(self.parties, caches):
            grads.extend(party.backward(cache, d_logits))
        return loss, grads, pred


class ClassicalFuseModel:
    """Server = single linear layer over the concatenated party logits."""

    quantum_output = False
    kind = "classical_fuse"

    def __init__(self, parties: list[MLPParty], server_w: np.ndarray,
                 server_b: np.ndarray):
        self.parties = parties
        self.server_w = server_w  # (C, K*C)
        self.server_b = server_b

    @classmethod
    def random_init(cls, parties: list[MLPParty], num_classes: int, rng):
        k = len(parties)
        s = 1.0 / np.sqrt(k * num_classes)
        return cls(parties, rng.uniform(-s, s, (num_classes, k * num_classes)),
                   np.zeros(num_classes))

    def parameters(self):
        out = [p for party in self.parties for p in party.parameters()]
        out.extend([self.server_w, self.server_b])
        return out

    def _logits(self, sample):
        outs = [p.forward(x) for p, x in zip(self.parties, sample)]
        concat = np.concatenate([o[0] for o in outs])
        return self.server_w @ concat + self.server_b, concat, [o[1] for o in outs]

    def predict(self, sample) -> Prediction:
        logits, _, _ = self._logits(sample)
        return Prediction(logits, softmax(logits))

    def loss_and_gradients(self, sample, label, config: TrainConfig):
        logits, concat, caches = self._logits(sample)
        pred = Prediction(logits, softmax(logits))
        loss = ce_loss(pred, label)
        d_logits = pred.probabilities - label
        d_concat = self.server_w.T @ d_logits
        num_classes = len(label)
        grads = []
        for k, (party, cache) in enumerate(zip(self.parties, caches)):
            grads.extend(party.backward(
                cache, d_concat[k * num_classes:(k + 1) * num_classes]))
        grads.extend([np.outer(d_logits, concat), d_logits])
        return loss, grads, pred


class MeasureAverageModel:
    """Quantum parties, classically measured; server averages the marginals."""

    quantum_output = True
    kind = "measure_then_average"

    def __init__(self, models: list[PartyModel]):
        self.models = models

    def parameters(self):
        return [p for m in self.models for p in party_parameters(m)]

    def predict(self, sample) -> Prediction:
        marginals, _ = forward_pass(self.models, sample)
        return predict(np.mean(marginals, axis=0))

    def loss_and_gradients(self, sample, label, config: TrainConfig):
        marginals, caches = forward_pass(self.models, sample)
        pred = predict(np.mean(marginals, axis=0))
        loss = ce_loss(pred, label, check_bound=True)
        d_marg = (pred.probabilities - label) / len(self.models)
        grads = [g for m, cache in zip(self.models, caches)
                 for g in party_gradients(m, cache, d_marg)]
        return loss, grads, pred


class MeasureVqcModel:
    """Quantum parties; measured marginals re-encoded into a server circuit."""

    quantum_output = True
    kind = "measure_then_vqc"

    def __init__(self, models: list[PartyModel], server_angles: np.ndarray):
        self.models = models
        self.server_angles = np.asarray(server_angles, dtype=np.float64)
        self.num_classes = models[0].num_classes
        self.server_qubits = len(models) * self.num_classes
        if self.server_angles.shape != (2, self.server_qubits, 3):
            raise ValueError("server circuit must be two blocks over K*C qubits")

    @classmethod
    def random_init(cls, models: list[PartyModel], rng,
                    angle_scale: float = np.pi / 8):
        n = len(models) * models[0].num_classes
        return cls(models, rng.uniform(-angle_scale, angle_scale, (2, n, 3)))

    def parameters(self):
        out = [p for m in self.models for p in party_parameters(m)]
        out.append(self.server_angles)
        return out

    def _server_out(self, marginal_vec):
        return batched_marginals(2.0 * marginal_vec[None, :],
                                 self.server_angles[None, ...],
                                 self.num_classes)[0]

    def predict(self, sample) -> Prediction:
        marginals, _ = forward_pass(self.models, sample)
        return predict(self._server_out(marginals.reshape(-1)))

    def loss_and_gradients(self, sample, label, config: TrainConfig):
        marginals, caches = forward_pass(self.models, sample)
        v = marginals.reshape(-1)
        out = self._server_out(v)
        pred = predict(out)
        loss = ce_loss(pred, label, check_bound=True)
        d_out = pred.probabilities - label

        # Parameter shift over the server circuit: encoding angles first
        # (chain to the party marginals), then the trainable server angles.
        d_enc_server, d_server = party_angle_gradients(
            2.0 * v, self.server_angles, self.num_classes, d_out)
        d_v = (2.0 * d_enc_server).reshape(len(self.models), self.num_classes)

        grads = [g for m, cache, d_marg in zip(self.models, caches, d_v)
                 for g in party_gradients(m, cache, d_marg)]
        grads.append(d_server)
        return loss, grads, pred


def build_baseline(kind: str, input_sizes: list[int], num_classes: int, rng,
                   quantum_models: list[PartyModel] | None = None,
                   party_budget: int | None = None):
    """Construct a baseline model; quantum kinds reuse the given party models."""
    if kind not in BASELINE_KINDS:
        raise ValueError(f"unknown baseline kind {kind!r}")
    if kind in ("measure_then_average", "measure_then_vqc"):
        if quantum_models is None:
            raise ValueError(f"{kind} needs the quantum party models")
        if kind == "measure_then_average":
            return MeasureAverageModel(quantum_models)
        return MeasureVqcModel.random_init(quantum_models, rng)
    if party_budget is None:
        raise ValueError("classical baselines need a per-party budget")
    parties = [
        MLPParty.random_init(d, mlp_width_for_budget(d, num_classes, party_budget),
                             num_classes, rng)
        for d in input_sizes
    ]
    if kind == "classical_average":
        return ClassicalAverageModel(parties)
    return ClassicalFuseModel.random_init(parties, num_classes, rng)
