"""Simulated quantum teleportation between party nodes and the server.

Each transferred qubit consumes one EPR pair and two classical bits.  The
measured qubits are projected out immediately, so the register keeps its
logical size throughout a session.  The protocol is the identity channel:
the tests prove that the full circuit simulation leaves the register as a
plain relabeling would.  No training path teleports; fusion reads the
party registers directly.

Message line format (logging/replay): ``session_id,qubit_index,b1,b2``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import qsim
from .qsim import Gate, Statevector


class ProtocolError(RuntimeError):
    """Duplicate or otherwise impossible message."""


class IncompleteSessionError(RuntimeError):
    """Channel closed while corrections were still pending."""


@dataclass(frozen=True)
class TeleportMessage:
    session_id: str
    qubit_index: int
    b1: int  # H-side (source) measurement
    b2: int  # CNOT-target (party EPR half) measurement

    def encode(self) -> str:
        return f"{self.session_id},{self.qubit_index},{self.b1},{self.b2}"

    @classmethod
    def decode(cls, line: str) -> "TeleportMessage":
        sid, qi, b1, b2 = line.strip().split(",")
        return cls(sid, int(qi), int(b1), int(b2))


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


def apply_correction(state: Statevector, qubit: int, b1: int, b2: int) -> Statevector:
    """X if the CNOT-target bit was 1, then Z if the H-side bit was 1."""
    if b2:
        qsim.apply_gate(state, Gate("X", [qubit]))
    if b1:
        qsim.apply_gate(state, Gate("Z", [qubit]))
    return state


def teleport_qubit(state: Statevector, source_qubit: int, rng
                   ) -> tuple[Statevector, TeleportMessage]:
    """Standard single-qubit teleportation; exact up to a global phase."""
    out, b1, b2 = _teleport_core(state, source_qubit, rng)
    apply_correction(out, source_qubit, b1, b2)
    return out, TeleportMessage("local", source_qubit, b1, b2)


def teleport_register(state: Statevector, qubits, rng
                      ) -> tuple[Statevector, list[TeleportMessage]]:
    """Teleport each listed qubit in turn; entanglement is preserved."""
    messages = []
    for q in qubits:
        state, msg = teleport_qubit(state, q, rng)
        messages.append(msg)
    return state, messages


@dataclass
class InProcessChannel:
    """Exactly-once, unordered delivery between party and server.

    Delivery order is controlled by ``order`` (a permutation of send order);
    by default messages arrive as sent.
    """
    order: list[int] | None = None
    _messages: list[TeleportMessage] = field(default_factory=list)
    _closed: bool = False

    def send(self, message: TeleportMessage) -> None:
        if self._closed:
            raise ProtocolError("channel already closed")
        self._messages.append(message)

    def close(self) -> None:
        self._closed = True

    def deliver(self):
        if not self._closed:
            raise ProtocolError("deliver before close")
        # ``order`` may be a strict subset to model message loss.
        order = self.order if self.order is not None else range(len(self._messages))
        for i in order:
            yield self._messages[i]


def run_session(party_state: Statevector, num_classes: int,
                transport: InProcessChannel, rng,
                session_id: str = "s0") -> Statevector:
    """Teleport the first ``num_classes`` qubits through a message channel.

    The party performs all entangling operations and measurements up front
    and emits one message per qubit; the server applies Table-style X/Z
    corrections keyed by (session_id, qubit_index) in whatever order the
    transport delivers them.  Corrections on distinct qubits commute, so any
    delivery order yields the identical state.
    """
    state = party_state.copy()
    for q in range(num_classes):
        state, b1, b2 = _teleport_core(state, q, rng)
        transport.send(TeleportMessage(session_id, q, b1, b2))
    transport.close()

    applied: set[tuple[str, int]] = set()
    for msg in transport.deliver():
        key = (msg.session_id, msg.qubit_index)
        if key in applied:
            raise ProtocolError(f"duplicate correction message for {key}")
        if msg.session_id != session_id:
            raise ProtocolError(f"message for unknown session {msg.session_id!r}")
        applied.add(key)
        apply_correction(state, msg.qubit_index, msg.b1, msg.b2)
    if len(applied) != num_classes:
        missing = [q for q in range(num_classes) if (session_id, q) not in applied]
        raise IncompleteSessionError(f"corrections never arrived for qubits {missing}")
    return state
