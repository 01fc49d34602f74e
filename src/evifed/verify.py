"""Cross-module property checks with fixed seeds, as one table.

The checks back the package's central claims (the fusion circuit measures the
classical combination, teleportation is the identity channel, adjoint
gradients match the shift rule and finite differences, ...), so they run
both under pytest and as the standalone ``evifed verify`` gate.

Each property is one deviation function: it takes a generator, draws one
random trial and returns how far that trial is from exact.  ``SUITES`` lists
every property as a row ``(name, tolerance, trials, seed, deviation)``, and
``run_suite`` reports each row's worst deviation over its trials against
its tolerance.  A new property is one function plus one row.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evidence, model, qsim, teleport, train
from .qsim import Gate, Statevector


@dataclass
class CheckResult:
    name: str
    worst: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance


def random_state(n: int, rng) -> Statevector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


def random_bba(n: int, rng) -> evidence.MassFunction:
    return evidence.MassFunction(n, rng.dirichlet(np.ones(1 << n)))


def _max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(a - b)))


# --- qsim ------------------------------------------------------------------

def _inverse(g: Gate) -> Gate:
    """A rotation by the negated angle; every other gate is its own inverse."""
    if g.kind in qsim.ROTATION_KINDS:
        return Gate(g.kind, g.targets, angle=-g.angle)
    return g


def _random_gate(n: int, rng) -> Gate:
    kind = rng.choice(qsim.GATE_KINDS)
    qubits = list(rng.permutation(n))
    if kind in ("CNOT", "MCX"):
        n_controls = 1 if kind == "CNOT" else int(rng.integers(1, n))
        return Gate(kind, [qubits[0]], controls=qubits[1:1 + n_controls])
    angle = float(rng.uniform(-2 * np.pi, 2 * np.pi)) \
        if kind in qsim.ROTATION_KINDS else None
    return Gate(kind, [qubits[0]], angle=angle)


def gate_then_inverse(rng) -> float:
    n = int(rng.integers(2, 5))
    psi = random_state(n, rng)
    ref = psi.copy()
    g = _random_gate(n, rng)
    qsim.apply_gate(psi, g)
    qsim.apply_gate(psi, _inverse(g))
    return _max_abs_diff(psi.amplitudes, ref.amplitudes)


def norm_after_gates(rng) -> float:
    n = int(rng.integers(2, 6))
    psi = random_state(n, rng)
    for _ in range(20):
        qsim.apply_gate(psi, _random_gate(n, rng))
    return abs(psi.norm() - 1.0)


def mcx_twice(rng) -> float:
    n = int(rng.integers(2, 6))
    psi = random_state(n, rng)
    ref = psi.copy()
    qubits = list(rng.permutation(n))
    k = int(rng.integers(1, n))
    qsim.apply_mcx(psi, qubits[:k], qubits[k])
    qsim.apply_mcx(psi, qubits[:k], qubits[k])
    return _max_abs_diff(psi.amplitudes, ref.amplitudes)


def outcome_distribution(rng) -> float:
    n = int(rng.integers(1, 5))
    probs = qsim.marginal_probabilities(random_state(n, rng), range(n))
    return np.max([abs(probs.sum() - 1.0), -probs.min(), probs.max() - 1])


# --- evidence --------------------------------------------------------------

def combination_order(rng) -> float:
    n = int(rng.integers(1, 5))
    k = int(rng.integers(2, 5))
    ms = [random_bba(n, rng) for _ in range(k)]
    combined = evidence.ccr_combine(ms).masses
    permuted = evidence.ccr_combine([ms[i] for i in rng.permutation(k)]).masses
    rebracketed = evidence.ccr_combine([evidence.ccr_combine(ms[:2])] + ms[2:]).masses
    return np.max([_max_abs_diff(combined, permuted),
                   _max_abs_diff(combined, rebracketed)])


def commonality_product(rng) -> float:
    n = int(rng.integers(1, 5))
    ms = [random_bba(n, rng) for _ in range(int(rng.integers(2, 4)))]
    combined = evidence.ccr_combine(ms)
    return np.max([abs(evidence.commonality(combined, a)
                       - np.prod([evidence.commonality(m, a) for m in ms]))
                   for a in range(1 << n)])


def singleton_plausibility_product(rng) -> float:
    n = int(rng.integers(1, 5))
    ms = [random_bba(n, rng) for _ in range(int(rng.integers(1, 5)))]
    combined = evidence.singleton_plausibilities(evidence.ccr_combine(ms))
    return _max_abs_diff(combined, np.prod(
        [evidence.singleton_plausibilities(m) for m in ms], axis=0))


def encode_decode(rng) -> float:
    n = int(rng.integers(1, 5))
    m = random_bba(n, rng)
    phases = rng.uniform(0, 2 * np.pi, size=1 << n)
    back = evidence.decode_state(evidence.encode_bba(m, phases))
    return _max_abs_diff(back.masses, m.masses)


# --- fusion ----------------------------------------------------------------

def _random_fusion_case(rng):
    num_classes = int(rng.integers(2, 4))
    k = int(rng.integers(1, 5))
    states = [random_state(int(rng.integers(num_classes, 5)), rng)
              for _ in range(k)]
    return states, num_classes


def factorized_vs_joint(rng) -> float:
    states, num_classes = _random_fusion_case(rng)
    joint = model.fuse_joint_circuit(states, num_classes)
    marginals = [model.party_marginals(s, num_classes) for s in states]
    return _max_abs_diff(joint, model.fuse_factorized(marginals))


def result_register_vs_ccr(rng) -> float:
    """The central claim: the result register measures the combined evidence."""
    num_classes = int(rng.integers(2, 4))
    k = int(rng.integers(1, 5))
    bbas = [random_bba(num_classes, rng) for _ in range(k)]
    states = [evidence.encode_bba(b, rng.uniform(0, 2 * np.pi, 1 << num_classes))
              for b in bbas]
    measured = evidence.decode_distribution(
        model.result_register_distribution(states, num_classes))
    return _max_abs_diff(measured.masses, evidence.ccr_combine(bbas).masses)


def result_qubits_vs_plausibility(rng) -> float:
    num_classes = int(rng.integers(2, 4))
    k = int(rng.integers(1, 4))
    bbas = [random_bba(num_classes, rng) for _ in range(k)]
    plaus = model.fuse_joint_circuit([evidence.encode_bba(b) for b in bbas],
                                     num_classes)
    return _max_abs_diff(plaus, evidence.singleton_plausibilities(
        evidence.ccr_combine(bbas)))


def phase_invariance(rng) -> float:
    states, num_classes = _random_fusion_case(rng)
    base = model.fuse_joint_circuit([s.copy() for s in states], num_classes)
    dephased = []
    for s in states:
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, s.amplitudes.size))
        dephased.append(Statevector(s.num_qubits, s.amplitudes * phases))
    return _max_abs_diff(base, model.fuse_joint_circuit(dephased, num_classes))


# --- teleport --------------------------------------------------------------

class ForcedBranch:
    """rng stub whose .random() forces a chosen equiprobable branch."""

    def __init__(self, outcome: int, num_outcomes: int = 4):
        self.u = (outcome + 0.5) / num_outcomes

    def random(self) -> float:
        return self.u


def forced_branches(rng) -> float:
    """Fidelity loss over the four branches; a wrong bit pair reads inf."""
    psi = random_state(1, rng)
    losses = []
    for branch in range(4):
        out, bits = teleport.teleport_qubit(psi.copy(), 0, ForcedBranch(branch))
        losses.append(abs(qsim.fidelity(out, psi) - 1.0)
                      if bits == divmod(branch, 2) else np.inf)
    return np.max(losses)


def register_transfer(rng) -> float:
    """Fidelity loss of a random permutation of qubits; a missing bit pair
    reads inf."""
    n = int(rng.integers(2, 5))
    psi = random_state(n, rng)
    count = int(rng.integers(1, n + 1))
    out, bits = teleport.teleport_register(
        psi.copy(), list(rng.permutation(n)[:count]), rng)
    return abs(qsim.fidelity(out, psi) - 1.0) if len(bits) == count else np.inf


def branch_frequencies(rng) -> float:
    """Largest gap between a branch's frequency over 10 000 teleports and 1/4."""
    teleports = 10_000
    counts = np.zeros(4)
    for _ in range(teleports):
        _, (b1, b2) = teleport.teleport_qubit(random_state(1, rng), 0, rng)
        counts[2 * b1 + b2] += 1
    return float(np.max(np.abs(counts / teleports - 0.25)))


# --- gradients -------------------------------------------------------------

def param_shift_grad(evaluate, theta: float) -> float:
    """Exact derivative of a Pauli-rotation expectation at ``theta``."""
    return (evaluate(theta + np.pi / 2) - evaluate(theta - np.pi / 2)) / 2.0


def shift_closed_form(rng) -> float:
    """One qubit, one Ry at 20 angles: P(1) = sin^2(theta/2), derivative
    sin(theta)/2."""
    def prob(t: float) -> float:
        s = qsim.new_zero_state(1)
        qsim.apply_gate(s, Gate("RY", [0], angle=float(t)))
        return qsim.prob_one(s, 0)
    return np.max([abs(param_shift_grad(prob, float(theta)) - np.sin(theta) / 2)
                   for theta in rng.uniform(-np.pi, np.pi, size=20)])


def shift_rule_angle_gradients(enc_angles: np.ndarray, vqc_angles: np.ndarray,
                               num_classes: int, dL_dmarg: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Reference for model.party_angle_gradients, with the same returns, from
    the circuit's angles: the parameter-shift rule, one forward row per
    +-pi/2 shift of each of a sample's A angles: each of the 2A shifted
    settings runs on one row per sample."""
    enc_angles = np.asarray(enc_angles, dtype=np.float64)
    n = enc_angles.shape[-1]
    enc = enc_angles.reshape(-1, n)
    dL_dmarg = np.reshape(dL_dmarg, (len(enc), num_classes))
    a = n + vqc_angles.size
    # Settings 2i / 2i+1 shift angle i by +pi/2 / -pi/2.
    shifts = np.kron(np.eye(a), [[np.pi / 2], [-np.pi / 2]])
    marg = model.batched_marginals(
        (enc + shifts[:, None, :n]).reshape(-1, n),
        (vqc_angles.reshape(-1) + shifts[:, n:]).reshape((-1,) + vqc_angles.shape),
        num_classes)[0].reshape(a, 2, len(enc), num_classes)
    dL_dangle = np.einsum("asc,sc->sa", (marg[:, 0] - marg[:, 1]) / 2.0,
                          dL_dmarg)
    return (dL_dangle[:, :n].reshape(enc_angles.shape),
            dL_dangle[:, n:].sum(axis=0).reshape(vqc_angles.shape))


def _random_circuits(rng):
    """2..6 qubits, 1..3 blocks and 2..3 classes, in 1..3 settings of 1..8 rows;
    returns the adjoint's angle gradients with what they were drawn from."""
    n = int(rng.integers(2, 7))
    num_classes = int(rng.integers(2, min(n, 3) + 1))
    settings, run = int(rng.integers(1, 4)), int(rng.integers(1, 9))
    enc = rng.uniform(-np.pi, np.pi, size=(settings, run, n))
    vqc = rng.uniform(-np.pi, np.pi, (settings, int(rng.integers(1, 4)), n, 3))
    dL_dmarg = rng.normal(size=(settings, run, num_classes))
    _, amps = model.batched_marginals(enc.reshape(-1, n), vqc, num_classes)
    # One adjoint call for every setting; each run is held to its own.
    got = model.party_angle_gradients(amps, vqc, dL_dmarg)
    return got, enc, vqc, num_classes, dL_dmarg


def adjoint_vs_shift(rng) -> float:
    got, enc, vqc, num_classes, dL_dmarg = _random_circuits(rng)
    return np.max([_max_abs_diff(g[s], w)
                   for s in range(len(enc))
                   for g, w in zip(got, shift_rule_angle_gradients(
                       enc[s], vqc[s], num_classes, dL_dmarg[s]))])


def adjoint_vs_finite_difference(rng) -> float:
    """Two (2, 3) -> (1, 3) parties of rank 2; the largest relative error."""
    models = [model.PartyModel.random_init((2, 3), (1, 3), 2, 1, 2, rng,
                                           angle_scale=np.pi / 2)
              for _ in range(2)]
    sample = [rng.uniform(0, 1, size=models[0].ttn.in_size) for _ in models]
    label = np.zeros(models[0].num_classes)
    label[int(rng.integers(models[0].num_classes))] = 1.0
    _, adjoint_grads, _ = train.full_gradient(models, sample, label)
    _, fd_grads, _ = train.full_gradient_fd(models, sample, label)
    return np.max([np.max(np.abs(gs - gf) / np.maximum(np.abs(gf), 1e-6))
                   for pg_s, pg_f in zip(adjoint_grads, fd_grads)
                   for gs, gf in zip(pg_s, pg_f)])


def last_block_rz(rng) -> float:
    """The Z-basis read-out follows the CNOT ring, a basis permutation, so
    the last block's diagonal RZ gates move no marginal."""
    _, d_vqc = _random_circuits(rng)[0]
    return float(np.max(np.abs(d_vqc[:, -1, :, 2])))


# --- the table -------------------------------------------------------------

# Each suite's rows in report order: (name, tolerance, trials, seed, deviation).
SUITES = {
    "qsim": [
        ("gate-then-inverse recovers input", 1e-10, 100, 11, gate_then_inverse),
        ("norm preserved across gate sequences", 1e-10, 50, 12, norm_after_gates),
        ("MCX applied twice is the identity", 1e-12, 50, 13, mcx_twice),
        ("full-basis outcome probabilities sum to 1", 1e-10, 50, 14,
         outcome_distribution),
    ],
    "evidence": [
        ("combination commutes and re-brackets", 1e-12, 200, 21,
         combination_order),
        ("commonality is multiplicative under combination", 1e-12, 100, 22,
         commonality_product),
        ("combined singleton plausibility factorizes", 1e-12, 100, 23,
         singleton_plausibility_product),
        ("encode/decode roundtrip with random phases", 1e-12, 100, 24,
         encode_decode),
    ],
    "fusion": [
        ("factorized fusion equals the joint circuit", 1e-10, 200, 31,
         factorized_vs_joint),
        ("result register measures the classical combination", 1e-10, 200, 32,
         result_register_vs_ccr),
        ("result-qubit expectation equals classical plausibility", 1e-10, 200, 33,
         result_qubits_vs_plausibility),
        ("per-basis phases never move fused plausibilities", 1e-10, 100, 34,
         phase_invariance),
    ],
    "teleport": [
        ("all four correction branches are exact", 1e-10, 250, 41,
         forced_branches),
        ("entangled-register transfer preserves the state", 1e-10, 100, 42,
         register_transfer),
        ("measurement branches are uniform (1/4 each)", 0.02, 1, 43,
         branch_frequencies),
    ],
    "gradients": [
        ("single-qubit shift gradient matches closed form", 1e-12, 1, 52,
         shift_closed_form),
        ("adjoint gradients match parameter shift", 1e-10, 30, 53,
         adjoint_vs_shift),
        ("adjoint gradients match finite differences", 1e-4, 3, 51,
         adjoint_vs_finite_difference),
        ("last block's RZ angles get zero gradient", 1e-12, 30, 54,
         last_block_rz),
    ],
}


def run_suite(name: str) -> list[CheckResult]:
    """One generator per row; a row's worst is the max over its trials.  Every
    max here is np.max, so a nan anywhere makes the row nan, which fails."""
    if name == "all":
        return [r for suite in SUITES for r in run_suite(suite)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {(*SUITES, 'all')}")
    results = []
    for check, tolerance, trials, seed, deviation in SUITES[name]:
        rng = np.random.default_rng(seed)
        worst = float(np.max([deviation(rng) for _ in range(trials)]))
        results.append(CheckResult(check, worst, tolerance))
    return results
