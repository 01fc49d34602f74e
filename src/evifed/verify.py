"""Cross-module verification suites with fixed seeds.

Each suite packages the oracle checks behind the package's central claims
(fusion-circuit equals classical combination, teleportation is the identity
channel, adjoint gradients match the shift rule and finite differences, ...)
so they can run both under pytest and as a standalone CLI gate.  Every check
reports its worst-case deviation against an explicit tolerance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import evidence, model, qsim, teleport, train
from .model import PartyModel
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


def random_party(rng, input_dims=(2, 3), output_dims=(1, 3), rank=2,
                 blocks=1, num_classes=2) -> PartyModel:
    return PartyModel.random_init(input_dims, output_dims, rank, blocks,
                                  num_classes, rng, angle_scale=np.pi / 2)


# --- qsim suite ------------------------------------------------------------

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


def check_unitarity(trials: int = 100, seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        psi = random_state(n, rng)
        ref = psi.copy()
        g = _random_gate(n, rng)
        qsim.apply_gate(psi, g)
        qsim.apply_gate(psi, _inverse(g))
        worst = max(worst, float(np.max(np.abs(psi.amplitudes - ref.amplitudes))))
    return CheckResult("gate-then-inverse recovers input", worst, 1e-10)


def check_norm_preservation(trials: int = 50, seed: int = 12) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        psi = random_state(n, rng)
        for _ in range(20):
            qsim.apply_gate(psi, _random_gate(n, rng))
        worst = max(worst, abs(psi.norm() - 1.0))
    return CheckResult("norm preserved across gate sequences", worst, 1e-10)


def check_mcx_involution(trials: int = 50, seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        psi = random_state(n, rng)
        ref = psi.copy()
        qubits = list(rng.permutation(n))
        k = int(rng.integers(1, n))
        qsim.apply_mcx(psi, qubits[:k], qubits[k])
        qsim.apply_mcx(psi, qubits[:k], qubits[k])
        worst = max(worst, float(np.max(np.abs(psi.amplitudes - ref.amplitudes))))
    return CheckResult("MCX applied twice is the identity", worst, 1e-12)


def check_measurement_distribution(trials: int = 50, seed: int = 14) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        psi = random_state(n, rng)
        probs = qsim.marginal_probabilities(psi, range(n))
        worst = max(worst, abs(probs.sum() - 1.0),
                    float(max(0.0, -probs.min())), float(max(0.0, probs.max() - 1)))
    return CheckResult("full-basis outcome probabilities sum to 1", worst, 1e-10)


def suite_qsim() -> list[CheckResult]:
    return [check_unitarity(), check_norm_preservation(),
            check_mcx_involution(), check_measurement_distribution()]


# --- evidence suite --------------------------------------------------------

def check_combination_symmetry(trials: int = 200, seed: int = 21) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 5))
        ms = [random_bba(n, rng) for _ in range(k)]
        combined = evidence.ccr_combine(ms)
        perm = [ms[i] for i in rng.permutation(k)]
        worst = max(worst, float(np.max(np.abs(
            combined.masses - evidence.ccr_combine(perm).masses))))
        rebracket = evidence.ccr_combine(
            [evidence.ccr_combine(ms[:2])] + ms[2:])
        worst = max(worst, float(np.max(np.abs(combined.masses - rebracket.masses))))
    return CheckResult("combination commutes and re-brackets", worst, 1e-12)


def check_commonality_multiplicative(trials: int = 100, seed: int = 22) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        ms = [random_bba(n, rng) for _ in range(int(rng.integers(2, 4)))]
        combined = evidence.ccr_combine(ms)
        for a in range(1 << n):
            prod = np.prod([evidence.commonality(m, a) for m in ms])
            worst = max(worst, abs(evidence.commonality(combined, a) - prod))
    return CheckResult("commonality is multiplicative under combination",
                       worst, 1e-12)


def check_singleton_plausibility_product(trials: int = 100, seed: int = 23
                                         ) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        ms = [random_bba(n, rng) for _ in range(int(rng.integers(1, 5)))]
        combined = evidence.singleton_plausibilities(evidence.ccr_combine(ms))
        prod = np.prod([evidence.singleton_plausibilities(m) for m in ms], axis=0)
        worst = max(worst, float(np.max(np.abs(combined - prod))))
    return CheckResult("combined singleton plausibility factorizes", worst, 1e-12)


def check_encode_decode_roundtrip(trials: int = 100, seed: int = 24) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        m = random_bba(n, rng)
        phases = rng.uniform(0, 2 * np.pi, size=1 << n)
        back = evidence.decode_state(evidence.encode_bba(m, phases))
        worst = max(worst, float(np.max(np.abs(back.masses - m.masses))))
    return CheckResult("encode/decode roundtrip with random phases", worst, 1e-12)


def suite_evidence() -> list[CheckResult]:
    return [check_combination_symmetry(), check_commonality_multiplicative(),
            check_singleton_plausibility_product(), check_encode_decode_roundtrip()]


# --- fusion suite ----------------------------------------------------------

def _random_fusion_case(rng):
    num_classes = int(rng.integers(2, 4))
    k = int(rng.integers(1, 5))
    states = []
    for _ in range(k):
        n_k = int(rng.integers(num_classes, 5))
        states.append(random_state(n_k, rng))
    return states, num_classes


def check_factorized_equals_joint(trials: int = 200, seed: int = 31) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        states, num_classes = _random_fusion_case(rng)
        joint = model.fuse_joint_circuit(states, num_classes)
        marginals = [model.party_marginals(s, num_classes) for s in states]
        fact = model.fuse_factorized(marginals)
        worst = max(worst, float(np.max(np.abs(joint - fact))))
    return CheckResult("factorized fusion equals the joint circuit", worst, 1e-10)


def check_fusion_matches_classical_ccr(trials: int = 200, seed: int = 32
                                       ) -> CheckResult:
    """The central claim: the result register measures the combined evidence."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        num_classes = int(rng.integers(2, 4))
        k = int(rng.integers(1, 5))
        bbas = [random_bba(num_classes, rng) for _ in range(k)]
        states = [evidence.encode_bba(b, rng.uniform(0, 2 * np.pi, 1 << num_classes))
                  for b in bbas]
        dist = model.result_register_distribution(states, num_classes)
        measured = evidence.decode_distribution(dist)
        combined = evidence.ccr_combine(bbas)
        worst = max(worst, float(np.max(np.abs(measured.masses - combined.masses))))
    return CheckResult("result register measures the classical combination",
                       worst, 1e-10)


def check_plausibility_identity(trials: int = 200, seed: int = 33) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        num_classes = int(rng.integers(2, 4))
        k = int(rng.integers(1, 4))
        bbas = [random_bba(num_classes, rng) for _ in range(k)]
        states = [evidence.encode_bba(b) for b in bbas]
        plaus = model.fuse_joint_circuit(states, num_classes)
        classical = evidence.singleton_plausibilities(evidence.ccr_combine(bbas))
        worst = max(worst, float(np.max(np.abs(plaus - classical))))
    return CheckResult("result-qubit expectation equals classical plausibility",
                       worst, 1e-10)


def check_phase_invariance(trials: int = 100, seed: int = 34) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        states, num_classes = _random_fusion_case(rng)
        base = model.fuse_joint_circuit([s.copy() for s in states], num_classes)
        dephased = []
        for s in states:
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, s.amplitudes.size))
            dephased.append(Statevector(s.num_qubits, s.amplitudes * phases))
        worst = max(worst, float(np.max(np.abs(
            base - model.fuse_joint_circuit(dephased, num_classes)))))
    return CheckResult("per-basis phases never move fused plausibilities",
                       worst, 1e-10)


def suite_fusion() -> list[CheckResult]:
    return [check_factorized_equals_joint(), check_fusion_matches_classical_ccr(),
            check_plausibility_identity(), check_phase_invariance()]


# --- teleport suite --------------------------------------------------------

class ForcedBranch:
    """rng stub whose .random() forces a chosen equiprobable branch."""

    def __init__(self, outcome: int, num_outcomes: int = 4):
        self.u = (outcome + 0.5) / num_outcomes

    def random(self) -> float:
        return self.u


def check_single_qubit_branches(trials: int = 250, seed: int = 41) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        psi = random_state(1, rng)
        for branch in range(4):
            out, msg = teleport.teleport_qubit(psi.copy(), 0, ForcedBranch(branch))
            worst = max(worst, abs(qsim.fidelity(out, psi) - 1.0))
            assert (msg.b1, msg.b2) == divmod(branch, 2)
    return CheckResult("all four correction branches are exact", worst, 1e-10)


def check_entangled_transfers(trials: int = 100, seed: int = 42) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        psi = random_state(n, rng)
        count = int(rng.integers(1, n + 1))
        qubits = list(rng.permutation(n)[:count])
        out, msgs = teleport.teleport_register(psi.copy(), qubits, rng)
        worst = max(worst, abs(qsim.fidelity(out, psi) - 1.0))
        assert len(msgs) == count
    return CheckResult("entangled-register transfer preserves the state",
                       worst, 1e-10)


def check_branch_statistics(trials: int = 10_000, seed: int = 43) -> CheckResult:
    rng = np.random.default_rng(seed)
    counts = np.zeros(4)
    for _ in range(trials):
        psi = random_state(1, rng)
        _, msg = teleport.teleport_qubit(psi, 0, rng)
        counts[2 * msg.b1 + msg.b2] += 1
    worst = float(np.max(np.abs(counts / trials - 0.25)))
    return CheckResult("measurement branches are uniform (1/4 each)", worst, 0.02)


def check_session_order_independence(trials: int = 30, seed: int = 44) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        num_classes = 2
        psi = random_state(n, rng)
        order = list(rng.permutation(num_classes))
        out = teleport.run_session(psi, num_classes,
                                   teleport.InProcessChannel(order=order),
                                   np.random.default_rng(seed + 1))
        worst = max(worst, abs(qsim.fidelity(out, psi) - 1.0))
    return CheckResult("correction order never changes the final state",
                       worst, 1e-10)


def suite_teleport() -> list[CheckResult]:
    return [check_single_qubit_branches(), check_entangled_transfers(),
            check_branch_statistics(), check_session_order_independence()]


# --- gradients suite -------------------------------------------------------

def check_adjoint_vs_finite_difference(trials: int = 3, seed: int = 51,
                                       input_dims=(2, 3), output_dims=(1, 3),
                                       num_parties: int = 2) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        models = [random_party(rng, input_dims, output_dims)
                  for _ in range(num_parties)]
        d = models[0].ttn.in_size
        sample = [rng.uniform(0, 1, size=d) for _ in range(num_parties)]
        label = np.zeros(models[0].num_classes)
        label[int(rng.integers(models[0].num_classes))] = 1.0
        _, adjoint_grads, _ = train.full_gradient(models, sample, label)
        _, fd_grads, _ = train.full_gradient_fd(models, sample, label)
        for pg_s, pg_f in zip(adjoint_grads, fd_grads):
            for gs, gf in zip(pg_s, pg_f):
                scale = np.maximum(np.abs(gf), 1e-6)
                worst = max(worst, float(np.max(np.abs(gs - gf) / scale)))
    return CheckResult("adjoint gradients match finite differences",
                       worst, 1e-4)


def check_single_angle_closed_form(seed: int = 52) -> CheckResult:
    """One qubit, one Ry: P(1) = sin^2(theta/2), derivative sin(theta)/2."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for theta in rng.uniform(-np.pi, np.pi, size=20):
        def prob(t: float) -> float:
            s = qsim.new_zero_state(1)
            qsim.apply_gate(s, Gate("RY", [0], angle=float(t)))
            return qsim.prob_one(s, 0)
        grad = train.param_shift_grad(prob, float(theta))
        worst = max(worst, abs(grad - np.sin(theta) / 2))
    return CheckResult("single-qubit shift gradient matches closed form",
                       worst, 1e-12)


def shift_rule_angle_gradients(enc_angles: np.ndarray, vqc_angles: np.ndarray,
                               num_classes: int, dL_dmarg: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
    """Reference for train.party_angle_gradients, same arguments and returns:
    the parameter-shift rule, one forward row per +-pi/2 shift of each of a
    sample's A angles, 2A rows per sample."""
    enc_angles = np.asarray(enc_angles, dtype=np.float64)
    n = enc_angles.shape[-1]
    enc = enc_angles.reshape(-1, n)
    dL_dmarg = np.reshape(dL_dmarg, (len(enc), num_classes))
    base = np.concatenate([enc, np.broadcast_to(vqc_angles.reshape(-1),
                                                (len(enc), vqc_angles.size))],
                          axis=1)
    a = base.shape[1]
    # Rows 2i / 2i+1 of a sample shift its angle i by +pi/2 / -pi/2.
    rows = (base[:, None] + np.kron(np.eye(a), [[np.pi / 2], [-np.pi / 2]])
            ).reshape(-1, a)
    marg = model.batched_marginals(rows[:, :n],
                                   rows[:, n:].reshape((-1,) + vqc_angles.shape),
                                   num_classes).reshape(-1, a, 2, num_classes)
    dL_dangle = np.einsum("sac,sc->sa", (marg[:, :, 0] - marg[:, :, 1]) / 2.0,
                          dL_dmarg)
    return (dL_dangle[:, :n].reshape(enc_angles.shape),
            dL_dangle[:, n:].sum(axis=0).reshape(vqc_angles.shape))


def check_adjoint_vs_parameter_shift(trials: int = 30, seed: int = 53
                                     ) -> CheckResult:
    """Random circuits of 2..6 qubits, 1..3 blocks and 2..3 read-out classes."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        num_classes = int(rng.integers(2, min(n, 3) + 1))
        rows = int(rng.integers(1, 9))
        enc = rng.uniform(-np.pi, np.pi, size=(rows, n))
        vqc = rng.uniform(-np.pi, np.pi, size=(int(rng.integers(1, 4)), n, 3))
        dL_dmarg = rng.normal(size=(rows, num_classes))
        for got, want in zip(
                train.party_angle_gradients(enc, vqc, num_classes, dL_dmarg),
                shift_rule_angle_gradients(enc, vqc, num_classes, dL_dmarg)):
            worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult("adjoint gradients match parameter shift", worst, 1e-10)


def suite_gradients() -> list[CheckResult]:
    return [check_single_angle_closed_form(), check_adjoint_vs_parameter_shift(),
            check_adjoint_vs_finite_difference()]


SUITES = {"qsim": suite_qsim, "evidence": suite_evidence, "fusion": suite_fusion,
          "teleport": suite_teleport, "gradients": suite_gradients}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [r for suite in SUITES.values() for r in suite()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {(*SUITES, 'all')}")
    return SUITES[name]()
