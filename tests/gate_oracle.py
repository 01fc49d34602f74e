"""Gate-by-gate reference circuits for the tests.

The program runs every variational circuit from its angles as rows of one
array, each block after the first as one operator per group of adjacent
qubits (``model.circuit_rows``), and every MCX as a view swap
(``qsim.apply_mcx``).
These helpers rebuild the same circuits one ``qsim.Gate`` at a time, and the
MCX from explicit basis-index sets, so the tests compare against an
independent construction.
"""
import numpy as np

from evifed import qsim
from evifed.qsim import Gate, Statevector


def vqc_block_gates(vqc_angles: np.ndarray) -> list[Gate]:
    """Per block: Rx/Ry/Rz on every qubit, then the CNOT ring 0->1->...->0,
    which one qubit does not have."""
    gates = []
    n = vqc_angles.shape[1]
    for block in vqc_angles:
        for q in range(n):
            gates.append(Gate("RX", [q], angle=float(block[q][0])))
            gates.append(Gate("RY", [q], angle=float(block[q][1])))
            gates.append(Gate("RZ", [q], angle=float(block[q][2])))
        for q in range(n if n > 1 else 0):
            gates.append(Gate("CNOT", [(q + 1) % n], controls=[q]))
    return gates


def party_circuit_gates(enc_angles: np.ndarray, vqc_angles: np.ndarray) -> list[Gate]:
    """Gate sequence: Ry encoding, then the repeated variational blocks."""
    n = len(enc_angles)
    gates = [Gate("RY", [q], angle=float(enc_angles[q])) for q in range(n)]
    gates.extend(vqc_block_gates(vqc_angles))
    return gates


def run_gates(state: Statevector, gates) -> Statevector:
    for gate in gates:
        qsim.apply_gate(state, gate)
    return state


def party_circuit_state(enc_angles: np.ndarray, vqc_angles: np.ndarray) -> Statevector:
    """The party circuit from |0...0>, gate by gate."""
    state = qsim.new_zero_state(len(enc_angles))
    return run_gates(state, party_circuit_gates(enc_angles, vqc_angles))


def mcx_by_index_sets(amps: np.ndarray, controls, target: int) -> np.ndarray:
    """MCX on a copy of ``amps`` through explicit basis-index sets."""
    n = amps.size.bit_length() - 1
    cmask = 0
    for c in controls:
        cmask |= 1 << (n - 1 - c)
    tbit = 1 << (n - 1 - target)
    idx = np.arange(1 << n)
    i0 = idx[((idx & cmask) == cmask) & ((idx & tbit) == 0)]
    i1 = i0 | tbit
    out = amps.copy()
    out[i0], out[i1] = amps[i1], amps[i0]
    return out
