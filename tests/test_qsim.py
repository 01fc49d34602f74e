"""Statevector engine tests: gate semantics, measurement, register surgery."""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evifed import model, qsim
from evifed.qsim import CapacityError, DegenerateMeasurementError, Gate, Statevector
from gate_oracle import mcx_by_index_sets

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


class FixedU:
    """rng stub returning a chosen uniform variate."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


# --- zero state and capacity ----------------------------------------------

def test_zero_state_single_qubit():
    assert np.allclose(qsim.new_zero_state(1).amplitudes, [1, 0])


def test_zero_state_two_qubits():
    assert np.allclose(qsim.new_zero_state(2).amplitudes, [1, 0, 0, 0])


def test_zero_state_rejects_25_qubits():
    with pytest.raises(CapacityError):
        qsim.new_zero_state(25)


def test_zero_state_rejects_zero_qubits():
    with pytest.raises(CapacityError):
        qsim.new_zero_state(0)


# --- single gates ----------------------------------------------------------

def test_hadamard_makes_equal_superposition():
    s = qsim.apply_gate(qsim.new_zero_state(1), Gate("H", [0]))
    assert np.allclose(s.amplitudes, [INV_SQRT2, INV_SQRT2])


def test_ry_pi_is_bit_flip():
    s = qsim.apply_gate(qsim.new_zero_state(1), Gate("RY", [0], angle=np.pi))
    assert np.allclose(s.amplitudes, [0, 1], atol=1e-15)


def test_cnot_flips_target_when_control_set():
    s = qsim.new_zero_state(2)
    qsim.apply_gate(s, Gate("X", [0]))  # |10>
    qsim.apply_gate(s, Gate("CNOT", [1], controls=[0]))
    assert np.allclose(s.amplitudes, [0, 0, 0, 1])  # |11>


def test_pauli_gates_match_their_matrices():
    # Column-probing oracle: applying the gate to |0> and |1> recovers the
    # textbook matrix columns.
    expected = {
        "X": np.array([[0, 1], [1, 0]]),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]]),
        "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    }
    for kind, u in expected.items():
        for col in range(2):
            s = Statevector(1, np.eye(2)[col])
            qsim.apply_gate(s, Gate(kind, [0]))
            assert np.allclose(s.amplitudes, u[:, col]), kind


def test_rotation_gates_match_matrix_exponential():
    from scipy.linalg import expm
    paulis = {"RX": np.array([[0, 1], [1, 0]]),
              "RY": np.array([[0, -1j], [1j, 0]]),
              "RZ": np.array([[1, 0], [0, -1]])}
    rng = np.random.default_rng(7)
    for kind, sigma in paulis.items():
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=5):
            u = expm(-0.5j * theta * sigma)
            for col in range(2):
                s = Statevector(1, np.eye(2)[col])
                qsim.apply_gate(s, Gate(kind, [0], angle=float(theta)))
                assert np.allclose(s.amplitudes, u[:, col], atol=1e-12)


def test_gate_application_matches_explicit_kron_matrix():
    # The stride kernel against the naive 2^n x 2^n construction.
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q = int(rng.integers(n))
        theta = float(rng.uniform(-np.pi, np.pi))
        u = qsim._single_qubit_unitary("RY", theta)
        full = np.eye(1)
        for i in range(n):
            full = np.kron(full, u if i == q else np.eye(2))
        s = random_state(n, rng)
        expected = full @ s.amplitudes
        qsim.apply_gate(s, Gate("RY", [q], angle=theta))
        assert np.allclose(s.amplitudes, expected, atol=1e-12)


@pytest.mark.parametrize("settings,run", [(1, 5), (3, 1), (3, 4)])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_unitary_stack_acts_on_runs_of_ring_output_in_place(n, settings, run):
    # Unitary s acts on the run of rows s*run .. (s+1)*run - 1; the rows are
    # the ring gather's column-major output, updated in place.
    rng = np.random.default_rng(10 * n + settings)
    shape = (settings * run, 1 << n)
    rows = qsim.apply_cnot_ring(rng.normal(size=shape) + 1j * rng.normal(size=shape))
    assert not rows.flags.c_contiguous
    angles = rng.uniform(-np.pi, np.pi, size=settings)
    for q in range(n):
        gates = [Gate("RX", [q], angle=float(a)) for a in angles]
        want = [qsim.apply_gate(Statevector(n, row.copy()), gates[i // run])
                .amplitudes for i, row in enumerate(rows)]
        qsim.apply_unitary_rows(rows, q, np.array(
            [qsim._single_qubit_unitary("RX", g.angle) for g in gates]))
        assert np.max(np.abs(rows - want)) < 1e-12


@pytest.mark.parametrize("layout", ["c_order", "column_major"])
@pytest.mark.parametrize("settings,run", [(1, 3), (3, 2)])
@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 3), (5, 4), (6, 4)])
def test_group_unitary_equals_its_qubits_one_at_a_time(n, k, settings, run, layout):
    # A 2^k x 2^k stack on qubits q .. q+k-1 acts as the Kronecker product of
    # k one-qubit stacks, the one on qubit q the most significant factor.
    rng = np.random.default_rng(100 * n + 10 * k + settings)
    shape = (settings * run, 1 << n)
    for q in range(n - k + 1):
        rows = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if layout == "column_major":
            rows = np.asfortranarray(rows)
        singles = [np.linalg.qr(rng.normal(size=(settings, 2, 2))
                                + 1j * rng.normal(size=(settings, 2, 2)))[0]
                   for _ in range(k)]
        group = np.array([functools.reduce(np.kron, [u[s] for u in singles])
                          for s in range(settings)])
        want = rows.copy()
        for j, u in enumerate(singles):
            qsim.apply_unitary_rows(want, q + j, u)
        qsim.apply_unitary_rows(rows, q, group)
        assert rows.flags.f_contiguous == (layout == "column_major")
        assert np.max(np.abs(rows - want)) < 1e-12


def test_gate_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        qsim.apply_gate(qsim.new_zero_state(2), Gate("X", [2]))


def test_gate_constructor_validates_kind_and_angle():
    with pytest.raises(ValueError):
        Gate("SWAP", [0])
    with pytest.raises(ValueError):
        Gate("X", [0], angle=1.0)
    with pytest.raises(ValueError):
        Gate("RY", [0])  # missing angle
    with pytest.raises(ValueError):
        Gate("CNOT", [0], controls=[0])


def test_gate_takes_exactly_one_target():
    for targets in ([], [0, 1]):
        with pytest.raises(ValueError, match="one target"):
            Gate("RX", targets, angle=0.1)
        with pytest.raises(ValueError, match="one target"):
            Gate("MCX", targets, controls=[2])


def test_gate_has_controls_exactly_when_cnot_or_mcx():
    # apply_gate reads controls only on CNOT and MCX: a controlled X on |00>
    # used to flip its target.
    for kind, angle in (("X", None), ("H", None), ("RX", 0.1)):
        with pytest.raises(ValueError, match="controls are present"):
            Gate(kind, [1], controls=[0], angle=angle)
    for kind, controls in (("CNOT", []), ("CNOT", [0, 2]), ("MCX", [])):
        with pytest.raises(ValueError, match="controls are present"):
            Gate(kind, [1], controls=controls)


# --- MCX -------------------------------------------------------------------

def test_mcx_flips_when_all_controls_set():
    s = qsim.new_zero_state(3)
    qsim.apply_gate(s, Gate("X", [0]))
    qsim.apply_gate(s, Gate("X", [1]))  # |110>
    qsim.apply_mcx(s, [0, 1], 2)
    assert np.allclose(s.amplitudes[0b111], 1.0)


def test_mcx_inert_when_a_control_clear():
    s = qsim.new_zero_state(3)
    qsim.apply_gate(s, Gate("X", [0]))  # |100>
    qsim.apply_mcx(s, [0, 1], 2)
    assert np.allclose(s.amplitudes[0b100], 1.0)


def test_mcx_permutes_amplitudes_by_basis_map():
    rng = np.random.default_rng(11)
    s = random_state(3, rng)
    before = s.amplitudes.copy()
    qsim.apply_mcx(s, [0, 1], 2)
    for label in range(8):
        x0, x1, r = (label >> 2) & 1, (label >> 1) & 1, label & 1
        src = (x0 << 2) | (x1 << 1) | (r ^ (x0 & x1))
        assert s.amplitudes[label] == before[src]


@st.composite
def mcx_cases(draw):
    """A seed, a register of 2..10 qubits, and controls and target drawn in
    any order from a permutation of its qubits."""
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    k = draw(st.integers(1, n - 1))
    return draw(st.integers(0, 2**32 - 1)), n, order[:k], order[k]


@given(mcx_cases())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_mcx_matches_index_set_oracle(case):
    seed, n, controls, target = case
    s = random_state(n, np.random.default_rng(seed))
    expect = mcx_by_index_sets(s.amplitudes, controls, target)
    qsim.apply_mcx(s, controls, target)
    assert np.array_equal(s.amplitudes, expect)


def test_mcx_rejects_target_in_controls():
    with pytest.raises(ValueError):
        qsim.apply_mcx(qsim.new_zero_state(3), [0, 1], 1)


# --- measurement expectations ---------------------------------------------

@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_prob_one_sums_the_qubit_one_half(n, seed):
    s = random_state(n, np.random.default_rng(seed))
    labels = np.arange(1 << n)
    for q in range(n):
        half = s.amplitudes[(labels >> (n - 1 - q)) & 1 == 1]
        assert abs(qsim.prob_one(s, q) - np.sum(np.abs(half) ** 2)) <= 1e-12


def test_prob_one_rows_reads_column_major_rows():
    # The ring gather returns column-major rows, and run_blocks hands them on.
    rng = np.random.default_rng(31)
    rows = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    blocks = model.circuit_operators(rng.uniform(-np.pi, np.pi, (1, 3, 4, 3)))[1]
    out = model.run_blocks(rows, blocks)
    assert not out.flags.c_contiguous
    assert np.array_equal(qsim.prob_one_rows(out, range(2)),
                          qsim.prob_one_rows(np.ascontiguousarray(out), range(2)))


@pytest.mark.parametrize("layout", ["c_order", "column_major"])
@pytest.mark.parametrize("qubits", [range(4), [2, 0, 3], (1, 3)],
                         ids=["range", "list", "tuple"])
def test_prob_one_rows_equal_one_qubit_reads_bit_for_bit(qubits, layout):
    # Each listed qubit's column is written into one (B, len) array; it must
    # hold the bits that reading the qubit alone gives, on either layout.
    rng = np.random.default_rng(32)
    rows = rng.normal(size=(5, 16)) + 1j * rng.normal(size=(5, 16))
    if layout == "column_major":
        rows = np.asfortranarray(rows)
    got = qsim.prob_one_rows(rows, qubits)
    assert got.shape == (5, len(qubits))
    for i, q in enumerate(qubits):
        assert np.array_equal(got[:, i], qsim.prob_one_rows(rows, [q])[:, 0])
        for r, row in enumerate(rows):
            assert got[r, i] == qsim.prob_one(Statevector(4, row), q)


def test_prob_one_equal_superposition():
    s = qsim.apply_gate(qsim.new_zero_state(1), Gate("H", [0]))
    assert qsim.prob_one(s, 0) == pytest.approx(0.5)


def test_prob_one_definite_state():
    s = qsim.apply_gate(qsim.new_zero_state(1), Gate("X", [0]))
    assert qsim.prob_one(s, 0) == pytest.approx(1.0)


def test_prob_one_on_encoded_evidence_state():
    # Masses 0.3 on element 1, 0.5 on element 2, 0.2 on the full frame:
    # qubit 0 reads element 1's plausibility 0.3 + 0.2 = 0.5.
    from evifed.evidence import MassFunction, encode_bba
    m = MassFunction.from_dict(2, {0b01: 0.3, 0b10: 0.5, 0b11: 0.2})
    state = encode_bba(m)
    assert qsim.prob_one(state, 0) == pytest.approx(0.5, abs=1e-12)
    assert qsim.prob_one(state, 1) == pytest.approx(0.7, abs=1e-12)


def test_measure_definite_state_is_certain():
    # |1> (x) rest: measuring qubit 0 reads 1 and leaves rest untouched.
    one = qsim.apply_gate(qsim.new_zero_state(1), Gate("X", [0]))
    rest = random_state(2, np.random.default_rng(21))
    bits, post = qsim.measure_out(qsim.tensor_product(one, rest), [0],
                                  FixedU(0.9))
    assert bits == [1]
    assert post.num_qubits == 2


def test_measuring_epr_half_collapses_both():
    s = qsim.new_zero_state(2)
    qsim.apply_gate(s, Gate("H", [0]))
    qsim.apply_gate(s, Gate("CNOT", [1], controls=[0]))
    bits, post = qsim.measure_out(s, [0], FixedU(0.05))  # forces 0
    assert bits == [0]
    assert np.allclose(post.amplitudes, [1, 0])


def test_measurement_frequencies_follow_born_rule():
    rng = np.random.default_rng(123)
    amps = np.array([np.sqrt(0.3), np.sqrt(0.7)])
    ones = 0
    trials = 100_000
    for _ in range(trials):
        bits, _ = qsim.measure_out(Statevector(1, amps), [0], rng)
        ones += bits[0]
    assert abs(ones / trials - 0.7) < 0.01


def test_measurement_rejects_degenerate_state():
    s = Statevector(1, np.zeros(2))
    with pytest.raises(DegenerateMeasurementError):
        qsim.measure_out(s, [0], FixedU(0.5))


def test_marginal_probabilities_orders_by_listed_qubits():
    rng = np.random.default_rng(5)
    s = random_state(3, rng)
    p = s.probabilities()
    m = qsim.marginal_probabilities(s, [2, 0])
    # outcome bit 0 (MSB) is qubit 2, bit 1 is qubit 0
    expect = np.zeros(4)
    for label in range(8):
        b2, b0 = (label >> 0) & 1, (label >> 2) & 1
        expect[(b2 << 1) | b0] += p[label]
    assert np.allclose(m, expect)


# --- composition and comparison -------------------------------------------

def test_tensor_product_of_basis_states():
    one = qsim.apply_gate(qsim.new_zero_state(1), Gate("X", [0]))
    s = qsim.tensor_product(qsim.new_zero_state(1), one)
    assert np.allclose(s.amplitudes, [0, 1, 0, 0])  # |01>


def test_tensor_product_epr_with_zero():
    epr = qsim.new_zero_state(2)
    qsim.apply_gate(epr, Gate("H", [0]))
    qsim.apply_gate(epr, Gate("CNOT", [1], controls=[0]))
    s = qsim.tensor_product(epr, qsim.new_zero_state(1))
    assert s.amplitudes[0b000] == pytest.approx(INV_SQRT2)
    assert s.amplitudes[0b110] == pytest.approx(INV_SQRT2)


def test_tensor_product_respects_capacity():
    a = qsim.new_zero_state(13)
    with pytest.raises(CapacityError):
        qsim.tensor_product(a, a)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_tensor_product_norm_multiplies(seed):
    rng = np.random.default_rng(seed)
    a = Statevector(2, rng.normal(size=4) + 1j * rng.normal(size=4))
    b = Statevector(1, rng.normal(size=2) + 1j * rng.normal(size=2))
    combined = qsim.tensor_product(a, b)
    assert combined.norm() == pytest.approx(a.norm() * b.norm())


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_tensor_product_is_bitwise_kron(na, nb, seed):
    rng = np.random.default_rng(seed)
    a, b = random_state(na, rng), random_state(nb, rng)
    combined = qsim.tensor_product(a, b)
    assert combined.num_qubits == na + nb
    assert np.array_equal(combined.amplitudes, np.kron(a.amplitudes, b.amplitudes))


def test_fidelity_of_identical_states_is_one():
    rng = np.random.default_rng(2)
    s = random_state(3, rng)
    assert qsim.fidelity(s, s) == pytest.approx(1.0)


def test_fidelity_of_orthogonal_states_is_zero():
    zero = qsim.new_zero_state(1)
    one = qsim.apply_gate(qsim.new_zero_state(1), Gate("X", [0]))
    assert qsim.fidelity(zero, one) == pytest.approx(0.0)


@given(st.floats(0, 2 * np.pi))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_fidelity_ignores_global_phase(phi):
    rng = np.random.default_rng(9)
    s = random_state(2, rng)
    rotated = Statevector(2, s.amplitudes * np.exp(1j * phi))
    assert qsim.fidelity(s, rotated) == pytest.approx(1.0)


def test_permute_qubits_roundtrip():
    rng = np.random.default_rng(17)
    s = random_state(3, rng)
    fwd = qsim.permute_qubits(s, [2, 0, 1])
    # inverse permutation: new i <- old order[i]
    back = qsim.permute_qubits(fwd, [1, 2, 0])
    assert np.allclose(back.amplitudes, s.amplitudes)


def test_remove_qubits_projects_out_definite_bits():
    # Dropping a qubit in a definite state leaves the other qubits unchanged.
    one = qsim.apply_gate(qsim.new_zero_state(1), Gate("X", [0]))
    rng = np.random.default_rng(21)
    rest = random_state(2, rng)
    s = qsim.tensor_product(one, rest)
    _, out = qsim.measure_out(s, [0], FixedU(0.9))
    assert np.allclose(out.amplitudes, rest.amplitudes)
