"""Dense statevector simulator: the only module that updates amplitudes.

Convention used everywhere in this package: qubit 0 is the *most significant*
bit of a basis-state label, so the basis label ``x1 x2 ... xn`` reads
left-to-right as qubit 0 ... n-1.  One in-place kernel, ``apply_unitary_rows``,
applies an (S, 2^k, 2^k) stack of unitaries on k adjacent qubits to a
(B, 2^n) array of amplitude rows, unitary s to the s-th run of B/S rows; a
``Statevector`` is B = S = 1.  An MCX swaps two slices of the (2,)*n view of
the amplitudes; the CNOT ring of the batched circuits is one cached basis
gather, whose rows come out column-major and stay so, since the kernel runs
faster on them.  The largest matrix ever materialized is one such operator,
2^k x 2^k per run; ``model.GROUP_QUBITS`` bounds k, and no 2^n x 2^n matrix
is built.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

MAX_QUBITS = 24  # largest register any state may hold (2^24 amplitudes)

ROTATION_KINDS = ("RX", "RY", "RZ")
GATE_KINDS = ("X", "Y", "Z", "H", "CNOT", "RX", "RY", "RZ", "MCX")


class CapacityError(ValueError):
    """Requested register exceeds ``MAX_QUBITS``."""


class DegenerateMeasurementError(RuntimeError):
    """Total outcome probability mass is numerically zero."""


@dataclass
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        # Contiguous, so the kernel's reshapes are views it can write through.
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.num_qubits,):
            raise ValueError(
                f"expected {1 << self.num_qubits} amplitudes, "
                f"got {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.amplitudes.copy())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class Gate:
    kind: str
    targets: list[int]
    controls: list[int] = field(default_factory=list)
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if set(self.targets) & set(self.controls):
            raise ValueError("targets and controls must be disjoint")
        if self.kind == "MCX" and (len(self.targets) != 1 or not self.controls):
            raise ValueError("MCX needs exactly one target and >=1 control")
        if self.kind == "CNOT" and (len(self.targets) != 1 or len(self.controls) != 1):
            raise ValueError("CNOT needs one control and one target")
        if (self.angle is not None) != (self.kind in ROTATION_KINDS):
            raise ValueError("angle is present exactly for RX/RY/RZ")


def _check_indices(n: int, qubits) -> None:
    for q in qubits:
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range for {n} qubits")


def new_zero_state(n: int) -> Statevector:
    """All-qubits-|0> state on ``n`` qubits."""
    if not 1 <= n <= MAX_QUBITS:
        raise CapacityError(f"qubit count {n} outside supported range [1, {MAX_QUBITS}]")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(n, amps)


def product_rows(qubit_states: np.ndarray) -> np.ndarray:
    """(B, 2^n) rows of product states from (n, B, 2) ``qubit_states``: row b
    is qubit_states[0, b] (x) ... (x) qubit_states[n-1, b]."""
    b = qubit_states.shape[1]
    amps = qubit_states[0]
    for state in qubit_states[1:, :, None]:
        amps = amps.reshape(b, -1, 1) * state
    return amps.reshape(b, -1)


def _single_qubit_unitary(kind: str, angle: float | None) -> np.ndarray:
    if kind == "X":
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if kind == "Y":
        return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    if kind == "Z":
        return np.array([[1, 0], [0, -1]], dtype=np.complex128)
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
    h = angle / 2.0
    c, s = math.cos(h), math.sin(h)
    if kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    if kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "RZ":
        return np.array([[np.exp(-1j * h), 0], [0, np.exp(1j * h)]], dtype=np.complex128)
    raise ValueError(f"no single-qubit unitary for {kind!r}")


def apply_unitary_rows(amps: np.ndarray, qubit: int, u: np.ndarray) -> None:
    """Apply an (S, 2^k, 2^k) stack of unitaries to the k adjacent qubits
    ``qubit`` .. ``qubit + k - 1`` of (B, 2^n) ``amps`` in place, ``qubit``
    the most significant of them: the rows form S runs of B/S consecutive
    rows, and unitary s acts on run s.  ``amps`` may be C-ordered or
    column-major."""
    d = u.shape[-1]
    # Qubit 0 is the slowest-varying axis: the layout is (S, R, 2^q, 2^k, rest).
    # The reshape only splits axes, so it is a view of either layout; merging
    # the row axis would copy column-major rows and lose the update.
    a = amps.reshape(len(u), -1, 1 << qubit, d, amps.shape[1] // (d << qubit))
    if d > 2:
        if amps.strides[0] < amps.strides[1]:
            # Column-major rows: put the row axis last, so that each run's
            # (2^k, R) block is one BLAS matrix with unit-stride rows, not R
            # strided vectors.  On 256 rows of 4 qubits in 4 runs, on a shared
            # 2-vCPU host, that took 26-34 us per pass against 42-73 us; the
            # strided form slowed 1.7x between the host's fast and slow
            # states, this one 1.3x.
            a = a.transpose(0, 2, 4, 3, 1)
        a[...] = np.matmul(u[:, None, None], a)
        return
    # One qubit: elementwise, since a matmul of 2 x 2 blocks ran 2-4x slower.
    u = u.reshape(-1, 1, 1, 1, 2, 2)
    lo, hi = a[..., 0, :], a[..., 1, :]
    new_lo = u[..., 0, 0] * lo + u[..., 0, 1] * hi
    hi *= u[..., 1, 1]
    hi += u[..., 1, 0] * lo
    lo[...] = new_lo


def apply_mcx(state: Statevector, controls, target: int) -> Statevector:
    """Flip ``target`` on every basis state whose control bits are all 1."""
    controls = list(controls)
    if not controls:
        raise ValueError("MCX requires at least one control")
    if target in controls:
        raise ValueError("target must not be a control")
    _check_indices(state.num_qubits, controls + [target])
    # Basic indexing on the (2,)*n view: both slices are views, so the swap
    # moves only the amplitudes it flips and builds no index arrays.
    index: list = [slice(None)] * state.num_qubits
    for c in controls:
        index[c] = 1
    index[target] = 0
    zero = tuple(index)
    index[target] = 1
    one = tuple(index)
    amps = state.amplitudes.reshape((2,) * state.num_qubits)
    flipped = amps[zero].copy()
    amps[zero] = amps[one]
    amps[one] = flipped
    return state


@functools.lru_cache(maxsize=None)
def _cnot_ring_gathers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CNOT ring on ``n`` qubits composed into one gather, and the gather
    that undoes it; read-only, since every caller shares them.  The cache
    holds at most one entry per register size, each no larger than one
    amplitude row of that size."""
    idx = perm = np.arange(1 << n)
    for q in range(n):
        cbit, tbit = 1 << (n - 1 - q), 1 << (n - 1 - (q + 1) % n)
        # Gathers compose right to left: after a then b, row[i] = old[a[b[i]]].
        perm = perm[np.where(idx & cbit, idx ^ tbit, idx)]
    inverse = np.empty_like(perm)
    inverse[perm] = idx
    perm.flags.writeable = inverse.flags.writeable = False
    return perm, inverse


def apply_cnot_ring(amps: np.ndarray, inverse: bool = False) -> np.ndarray:
    """CNOT(q, q+1 mod n) for q = 0 .. n-1 on every row of (B, 2^n) ``amps``,
    as one cached gather, or its inverse; returns the new rows."""
    n = amps.shape[1].bit_length() - 1
    return amps[:, _cnot_ring_gathers(n)[inverse]]


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply ``gate`` in place and return the (mutated) state."""
    _check_indices(state.num_qubits, gate.targets + gate.controls)
    if gate.kind in ("MCX", "CNOT"):
        return apply_mcx(state, gate.controls, gate.targets[0])
    u = _single_qubit_unitary(gate.kind, gate.angle)[None]
    rows = state.amplitudes.reshape(1, -1)
    for t in gate.targets:
        apply_unitary_rows(rows, t, u)
    return state


def prob_one(state: Statevector, qubit: int) -> float:
    """Probability that ``qubit`` measures to 1 (projective expectation)."""
    _check_indices(state.num_qubits, [qubit])
    return float(prob_one_rows(state.amplitudes.reshape(1, -1), [qubit])[0, 0])


def prob_one_rows(amps: np.ndarray, qubits) -> np.ndarray:
    """P(qubit = 1) per row of (B, 2^n) ``amps``, for each qubit in the
    sequence ``qubits`` (a range, list or tuple): a (B, len(qubits)) array
    whose column i is, bit for bit, the read of ``qubits[i]`` alone."""
    # The float64 view below needs C-ordered rows; the ring gather's output
    # is column-major.
    amps = np.ascontiguousarray(amps)
    b = amps.shape[0]
    probs = np.empty((b, len(qubits)))
    for i, q in enumerate(qubits):
        # The qubit-1 half as (re, im) float pairs: no |amp|^2 temporary.
        half = amps.reshape(b, 1 << q, 2, -1)[:, :, 1].view(np.float64)
        np.einsum("bij,bij->b", half, half, out=probs[:, i])
    return probs


def marginal_probabilities(state: Statevector, qubits) -> np.ndarray:
    """Joint outcome distribution over ``qubits``, in the listed qubit order.

    Entry ``o`` is the probability of outcome bits ``b_0 ... b_{m-1}`` with
    ``b_0`` (first listed qubit) as the most significant bit of ``o``.
    """
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError("qubits must be distinct")
    _check_indices(state.num_qubits, qubits)
    n = state.num_qubits
    p = state.probabilities().reshape((2,) * n)
    keep = sorted(qubits)
    drop = tuple(ax for ax in range(n) if ax not in keep)
    marg = p.sum(axis=drop) if drop else p
    # Axes of marg now follow ascending qubit order; reorder to listed order.
    order = [keep.index(q) for q in qubits]
    marg = np.transpose(marg, order)
    return marg.reshape(-1)


def measure_out(state: Statevector, qubits, rng) -> tuple[list[int], Statevector]:
    """Sample a Born-rule outcome for ``qubits`` and drop them: returns the
    outcome bits and the renormalized state of the other qubits.

    Consumes exactly one uniform variate from ``rng.random()``, so a test can
    force a branch by injecting a deterministic stream.
    """
    qubits = list(qubits)
    probs = marginal_probabilities(state, qubits)
    total = probs.sum()
    if total < 1e-12:
        raise DegenerateMeasurementError("outcome probability mass below 1e-12")
    u = rng.random() * total
    outcome = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    bits = [int(b) for b in np.binary_repr(min(outcome, len(probs) - 1), len(qubits))]
    # The measured axes first, in listed order; the outcome indexes them.
    amps = np.moveaxis(state.amplitudes.reshape((2,) * state.num_qubits),
                       qubits, range(len(qubits)))
    rest = amps[tuple(bits)].reshape(-1)
    nrm = np.linalg.norm(rest)
    if nrm < 1e-12:
        raise DegenerateMeasurementError("post-measurement norm vanished")
    return bits, Statevector(state.num_qubits - len(qubits), rest / nrm)


def tensor_product(a: Statevector, b: Statevector) -> Statevector:
    """Kronecker product; a's qubits occupy the lower (more significant) indices."""
    n = a.num_qubits + b.num_qubits
    if n > MAX_QUBITS:
        raise CapacityError(f"combined register of {n} qubits exceeds capacity {MAX_QUBITS}")
    return Statevector(n, np.multiply.outer(a.amplitudes, b.amplitudes).reshape(-1))


def fidelity(a: Statevector, b: Statevector) -> float:
    """|<a|b>|^2 -- insensitive to global phase."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit count mismatch")
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def permute_qubits(state: Statevector, new_order) -> Statevector:
    """Relabel qubits so that new qubit ``i`` is old qubit ``new_order[i]``."""
    new_order = list(new_order)
    n = state.num_qubits
    if sorted(new_order) != list(range(n)):
        raise ValueError("new_order must be a permutation of qubit indices")
    a = state.amplitudes.reshape((2,) * n)
    return Statevector(n, np.ascontiguousarray(np.transpose(a, new_order)).reshape(-1))
