"""Simulated quantum teleportation between party nodes and the server.

Each transferred qubit consumes one EPR pair and two classical bits.  The
measured qubits are projected out immediately, so the register keeps its
logical size.  Teleportation is the identity channel: the tests prove that
the full circuit simulation leaves the register as a plain relabeling would,
on every measurement branch and in any transfer order.  No training path
teleports; fusion reads the party registers directly.
"""
from __future__ import annotations

from . import qsim
from .qsim import Gate, Statevector


def make_epr() -> Statevector:
    """(|00> + |11>)/sqrt(2), prepared by H then CNOT from |00>."""
    state = qsim.new_zero_state(2)
    qsim.apply_gate(state, Gate("H", [0]))
    qsim.apply_gate(state, Gate("CNOT", [1], controls=[0]))
    return state


def _teleport_core(state: Statevector, source_qubit: int, rng
                   ) -> tuple[Statevector, int, int]:
    """Entangle, measure, project out; corrections are NOT applied here.

    Returns the state with the server half of the EPR pair sitting at the
    source qubit's old position (still awaiting X/Z corrections) and the two
    classical measurement bits.
    """
    n = state.num_qubits
    qsim._check_indices(n, [source_qubit])
    # Append the EPR pair: qubit n is the party half, n+1 the server half.
    work = qsim.tensor_product(state, make_epr())
    qsim.apply_gate(work, Gate("CNOT", [n], controls=[source_qubit]))
    qsim.apply_gate(work, Gate("H", [source_qubit]))
    (b1, b2), work = qsim.measure_out(work, [source_qubit, n], rng)
    # The server qubit is now last; move it into the source position.
    order = list(range(work.num_qubits - 1))
    order.insert(source_qubit, work.num_qubits - 1)
    return qsim.permute_qubits(work, order), b1, b2


def teleport_qubit(state: Statevector, source_qubit: int, rng
                   ) -> tuple[Statevector, tuple[int, int]]:
    """Standard single-qubit teleportation; exact up to a global phase.

    Returns the state and the bits (b1, b2): b1 from the H-side (source)
    qubit, b2 from the party's EPR half.  The server applies X if b2 is 1,
    then Z if b1 is 1.
    """
    out, b1, b2 = _teleport_core(state, source_qubit, rng)
    if b2:
        qsim.apply_gate(out, Gate("X", [source_qubit]))
    if b1:
        qsim.apply_gate(out, Gate("Z", [source_qubit]))
    return out, (b1, b2)


def teleport_register(state: Statevector, qubits, rng
                      ) -> tuple[Statevector, list[tuple[int, int]]]:
    """Teleport each listed qubit in turn; entanglement is preserved."""
    bits = []
    for q in qubits:
        state, pair = teleport_qubit(state, q, rng)
        bits.append(pair)
    return state, bits
