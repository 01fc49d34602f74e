"""Comparison baselines under train.EvidentialTrainable's trainable interface.

Four kinds:
  classical_average  -- per-party single-hidden-layer MLP, server averages.
  classical_fuse     -- same parties, concatenated outputs through a
                        single-layer server MLP.
  measure_then_average -- the quantum party pipeline, server averages the
                        measured class marginals.
  measure_then_vqc   -- measured marginals of all parties angle-encoded onto
                        K*C qubits and processed by a two-block variational
                        circuit; first C qubits read out.

Each fusing kind subclasses its averaging kind and replaces only the server
(``_server`` and ``_server_backward``); server parameters count toward no
party.  Party outputs are stacked (K, C), or (K, B, C) for a batch; the
fusing servers read each sample's K*C party outputs in party order.
Classical party widths are budget-matched: the largest hidden width whose
per-party parameter count stays within the quantum party's count (minimum
width 1 when even that overshoots; realized counts are reported).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PartyModel, Prediction, batched_marginals, predict, softmax
from .train import EvidentialTrainable, ce_loss, forward_pass, \
    party_angle_gradients, party_gradients
# Not called here: perfbench/tracer.py patches ttn_backward at this lookup
# site too and fails if the name is missing.
from .ttn import ttn_backward  # noqa: F401

BASELINE_KINDS = ("classical_average", "classical_fuse",
                  "measure_then_average", "measure_then_vqc")


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _concat_parties(stack: np.ndarray) -> np.ndarray:
    """(K, ..., C) party outputs -> (..., K*C), party by party per sample."""
    z = np.moveaxis(stack, 0, -2)
    return z.reshape(z.shape[:-2] + (-1,))


def _split_parties(flat: np.ndarray, num_parties: int) -> np.ndarray:
    """Inverse of ``_concat_parties``."""
    return np.moveaxis(flat.reshape(flat.shape[:-1] + (num_parties, -1)), -2, 0)


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
        """Logits of one input (d,) or of each row of (B, d)."""
        x = np.asarray(x, float)
        h = _sigmoid(x @ self.w1.T + self.b1)
        return h @ self.w2.T + self.b2, {"x": x, "h": h}

    def backward(self, cache, d_logits):
        """Parameter gradients, summed over the rows of a batch."""
        x = cache["x"].reshape(-1, self.w1.shape[1])
        h = cache["h"].reshape(-1, self.w1.shape[0])
        d = np.reshape(d_logits, (-1, self.w2.shape[0]))
        dh = d @ self.w2 * h * (1 - h)
        return [dh.T @ x, dh.sum(axis=0), d.T @ h, d.sum(axis=0)]

    def parameters(self):
        return [self.w1, self.b1, self.w2, self.b2]


class ClassicalAverageModel:
    """Server = arithmetic mean of party logits, then softmax."""

    def __init__(self, parties: list[MLPParty]):
        self.parties = parties

    def parameters(self):
        return [p for party in self.parties for p in party.parameters()]

    def party_param_counts(self):
        return [p.param_count() for p in self.parties]

    def _server(self, party_logits):
        return np.mean(party_logits, axis=0)

    def _server_backward(self, party_logits, d_logits):
        """dL/d party logits, one row per party, and the server's gradients."""
        return [d_logits / len(self.parties)] * len(self.parties), []

    def _logits(self, sample):
        outs = [p.forward(x) for p, x in zip(self.parties, sample, strict=True)]
        party_logits = np.array([o[0] for o in outs])
        return self._server(party_logits), party_logits, [o[1] for o in outs]

    def predict(self, sample) -> Prediction:
        logits = self._logits(sample)[0]
        return Prediction(logits, softmax(logits))

    def loss_and_gradients(self, sample, label):
        logits, party_logits, caches = self._logits(sample)
        pred = Prediction(logits, softmax(logits))
        loss = ce_loss(pred, label)
        d_party, server_grads = self._server_backward(
            party_logits, pred.probabilities - label)
        grads = [g for party, cache, d in zip(self.parties, caches, d_party)
                 for g in party.backward(cache, d)]
        return loss, grads + server_grads, pred


class ClassicalFuseModel(ClassicalAverageModel):
    """Server = single linear layer over the concatenated party logits."""

    def __init__(self, parties: list[MLPParty], server_w: np.ndarray,
                 server_b: np.ndarray):
        super().__init__(parties)
        self.server_w = server_w  # (C, K*C)
        self.server_b = server_b

    @classmethod
    def random_init(cls, parties: list[MLPParty], num_classes: int, rng):
        k = len(parties)
        s = 1.0 / np.sqrt(k * num_classes)
        return cls(parties, rng.uniform(-s, s, (num_classes, k * num_classes)),
                   np.zeros(num_classes))

    def parameters(self):
        return super().parameters() + [self.server_w, self.server_b]

    def _server(self, party_logits):
        return _concat_parties(party_logits) @ self.server_w.T + self.server_b

    def _server_backward(self, party_logits, d_logits):
        d_party = _split_parties(d_logits @ self.server_w, len(self.parties))
        z = _concat_parties(party_logits).reshape(-1, self.server_w.shape[1])
        d = np.reshape(d_logits, (-1, len(self.server_b)))
        return d_party, [d.T @ z, d.sum(axis=0)]


class MeasureAverageModel(EvidentialTrainable):
    """Quantum parties, classically measured; server averages the marginals."""

    def _server(self, marginals):
        return np.mean(marginals, axis=0)

    def _server_backward(self, marginals, d_out):
        """dL/d party marginals, one row per party, and the server's gradients."""
        return [d_out / len(self.models)] * len(self.models), []

    def predict(self, sample) -> Prediction:
        marginals, _ = forward_pass(self.models, sample)
        return predict(self._server(marginals))

    def loss_and_gradients(self, sample, label):
        marginals, caches = forward_pass(self.models, sample)
        pred = predict(self._server(marginals))
        loss = ce_loss(pred, label, check_bound=True)
        d_marg, server_grads = self._server_backward(
            marginals, pred.probabilities - label)
        grads = [g for m, cache, d in zip(self.models, caches, d_marg)
                 for g in party_gradients(m, cache, d)]
        return loss, grads + server_grads, pred


class MeasureVqcModel(MeasureAverageModel):
    """Quantum parties; measured marginals re-encoded into a server circuit."""

    def __init__(self, models: list[PartyModel], server_angles: np.ndarray):
        super().__init__(models)
        self.server_angles = np.asarray(server_angles, dtype=np.float64)
        self.num_classes = models[0].num_classes
        if self.server_angles.shape != (2, len(models) * self.num_classes, 3):
            raise ValueError("server circuit must be two blocks over K*C qubits")

    @classmethod
    def random_init(cls, models: list[PartyModel], rng):
        n = len(models) * models[0].num_classes
        return cls(models, rng.uniform(-np.pi / 8, np.pi / 8, (2, n, 3)))

    def parameters(self):
        return super().parameters() + [self.server_angles]

    def _server(self, marginals):
        z = _concat_parties(marginals)
        rows = z.reshape(-1, z.shape[-1])
        out = batched_marginals(
            2.0 * rows,
            np.broadcast_to(self.server_angles, (len(rows),) + self.server_angles.shape),
            self.num_classes)
        return out.reshape(z.shape[:-1] + (self.num_classes,))

    def _server_backward(self, marginals, d_out):
        # Angle gradients of the server circuit: encoding angles first
        # (chain to the party marginals), then the trainable server angles.
        d_enc_server, d_server = party_angle_gradients(
            2.0 * _concat_parties(marginals), self.server_angles,
            self.num_classes, d_out)
        return 2.0 * _split_parties(d_enc_server, len(self.models)), [d_server]


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
