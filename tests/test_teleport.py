"""Teleportation: EPR preparation, correction table, register transfers."""
import numpy as np
import pytest

from evifed import qsim, teleport
from evifed.qsim import Gate, Statevector
from evifed.verify import ForcedBranch
from oracle import logical_transfer


def random_state(n, rng):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return Statevector(n, amps / np.linalg.norm(amps))


# --- EPR preparation -------------------------------------------------------

def test_epr_amplitudes():
    epr = teleport.make_epr()
    assert np.allclose(epr.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])


def test_epr_measurement_correlates_both_qubits():
    for expect in (0, 1):
        bits, post = qsim.measure_out(teleport.make_epr(), [0],
                                      ForcedBranch(expect, 2))
        assert bits == [expect]
        assert qsim.prob_one(post, 0) == pytest.approx(float(expect))


# --- single-qubit teleportation -------------------------------------------

def test_branch_01_applies_x_correction():
    # Force (b1, b2) = (0, 1): pre-correction server qubit holds beta|0>+alpha|1>,
    # and the X restores the input.
    rng = np.random.default_rng(0)
    psi = random_state(1, rng)
    out, bits = teleport.teleport_qubit(psi.copy(), 0, ForcedBranch(1))
    assert bits == (0, 1)
    assert qsim.fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)
    # Redo the protocol without the correction to see the swapped amplitudes.
    uncorrected, b1, b2 = teleport._teleport_core(psi.copy(), 0, ForcedBranch(1))
    assert (b1, b2) == (0, 1)
    assert np.allclose(np.abs(uncorrected.amplitudes),
                       np.abs(psi.amplitudes[::-1]))


def test_branch_00_needs_no_correction():
    rng = np.random.default_rng(1)
    psi = random_state(1, rng)
    uncorrected, b1, b2 = teleport._teleport_core(psi.copy(), 0, ForcedBranch(0))
    assert (b1, b2) == (0, 0)
    assert qsim.fidelity(uncorrected, psi) == pytest.approx(1.0, abs=1e-12)


def test_all_four_branches_recover_the_state():
    rng = np.random.default_rng(2)
    for _ in range(50):
        psi = random_state(1, rng)
        for branch in range(4):
            out, bits = teleport.teleport_qubit(psi.copy(), 0,
                                                ForcedBranch(branch))
            assert bits == divmod(branch, 2)
            assert qsim.fidelity(out, psi) == pytest.approx(1.0, abs=1e-11)


def test_teleported_register_keeps_its_size():
    rng = np.random.default_rng(3)
    psi = random_state(3, rng)
    out, _ = teleport.teleport_qubit(psi, 1, rng)
    assert out.num_qubits == 3


# --- register transfers ----------------------------------------------------

def test_teleporting_both_epr_halves_preserves_bell_state():
    rng = np.random.default_rng(4)
    epr = teleport.make_epr()
    out, bits = teleport.teleport_register(epr.copy(), [0, 1], rng)
    assert len(bits) == 2
    assert qsim.fidelity(out, teleport.make_epr()) == pytest.approx(1.0)


def test_teleporting_one_qubit_of_ghz_preserves_it():
    ghz = qsim.new_zero_state(3)
    qsim.apply_gate(ghz, Gate("H", [0]))
    qsim.apply_gate(ghz, Gate("CNOT", [1], controls=[0]))
    qsim.apply_gate(ghz, Gate("CNOT", [2], controls=[1]))
    rng = np.random.default_rng(5)
    out, _ = teleport.teleport_register(ghz.copy(), [1], rng)
    assert qsim.fidelity(out, ghz) == pytest.approx(1.0, abs=1e-12)


def test_empty_register_transfer_is_identity():
    rng = np.random.default_rng(6)
    psi = random_state(2, rng)
    out, bits = teleport.teleport_register(psi.copy(), [], rng)
    assert bits == []
    assert np.allclose(out.amplitudes, psi.amplitudes)


def test_logical_transfer_equals_protocol_result():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        psi = random_state(n, rng)
        shortcut = logical_transfer(psi, range(n))
        assert np.array_equal(shortcut.amplitudes, psi.amplitudes)
        full, _ = teleport.teleport_register(psi.copy(), list(range(n)), rng)
        assert qsim.fidelity(shortcut, full) == pytest.approx(1.0, abs=1e-10)
