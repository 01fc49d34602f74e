"""Party pipeline and server-side evidential fusion.

A party maps its raw feature block through the TT layer, squashes the result
into (0, pi/2) (``party_features``), angle-encodes it with Ry rotations, and
runs a block-repeated variational circuit (per-qubit Rx/Ry/Rz, then a CNOT
ring).  Every such circuit runs in ``circuit_rows``, as rows of one array
with each qubit's rotations per block fused into one unitary, and block 0
built as a product state; ``party_forward`` is its one-row case.
Amplitudes change only inside ``qsim``.  The server fuses party outputs
either through the explicit multi-controlled-X joint circuit (reference
semantics; the |0>^C result register comes first, then the party registers)
or through the factorized product of per-party marginals; commonality
multiplicativity makes the two exactly equal, and the test suite holds them
to that.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import qsim
from .qsim import Gate, Statevector
from .ttn import TTLayerParams, squash, ttn_forward, ttn_param_count


@dataclass
class PartyModel:
    ttn: TTLayerParams
    vqc_angles: np.ndarray  # shape (blocks, n_qubits, 3)
    n_qubits: int
    num_classes: int
    blocks: int

    def __post_init__(self):
        if self.n_qubits < self.num_classes:
            raise ValueError("party must hold at least num_classes qubits")
        if self.ttn.out_size != self.n_qubits:
            raise ValueError("TT output size must equal the qubit count")
        self.vqc_angles = np.asarray(self.vqc_angles, dtype=np.float64)
        if self.vqc_angles.shape != (self.blocks, self.n_qubits, 3):
            raise ValueError("vqc_angles must have shape (blocks, n_qubits, 3)")

    def param_count(self) -> int:
        return ttn_param_count(self.ttn) + self.vqc_angles.size

    @classmethod
    def random_init(cls, input_dims, output_dims, internal_rank, blocks,
                    num_classes, rng, angle_scale: float = np.pi / 8) -> "PartyModel":
        ttn = TTLayerParams.random_init(input_dims, output_dims, internal_rank, rng)
        n = ttn.out_size
        angles = rng.uniform(-angle_scale, angle_scale, size=(blocks, n, 3))
        return cls(ttn, angles, n, num_classes, blocks)


@dataclass
class Prediction:
    plausibilities: np.ndarray
    probabilities: np.ndarray

    @property
    def predicted_class(self):
        """The most probable class: an int, or one per row for a batch."""
        # np.argmax already breaks ties toward the lowest index
        classes = np.argmax(self.probabilities, axis=-1)
        return int(classes) if classes.ndim == 0 else classes


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def party_features(model: PartyModel, x: np.ndarray) -> dict:
    """TT layer then squash on one feature block (d,) or on (B, d) rows; the
    cache feeds the backward pass.

    ``x_tilde`` lies in (0, pi/2); the circuit encodes it as Ry(2 x_tilde).
    """
    x = np.asarray(x, dtype=np.float64)
    pre_activation = ttn_forward(model.ttn, x)
    return {"x": x, "pre_activation": pre_activation,
            "x_tilde": squash(pre_activation)}


def party_forward(model: PartyModel, x: np.ndarray) -> tuple[Statevector, dict]:
    """Run one party's full pipeline, as one row of ``circuit_rows``; the
    cache feeds the backward pass."""
    cache = party_features(model, x)
    amps, _ = circuit_rows(2.0 * cache["x_tilde"][None, :], model.vqc_angles)
    return Statevector(model.n_qubits, amps[0]), cache


def party_marginals(state: Statevector, num_classes: int) -> np.ndarray:
    """Per-class Pl({w_c}) of the party's output evidence: P(qubit c = 1)."""
    if state.num_qubits < num_classes:
        raise ValueError("state has fewer qubits than classes")
    return np.array([qsim.prob_one(state, c) for c in range(num_classes)])


def fuse_factorized(marginals) -> np.ndarray:
    """Fused plausibilities as the product of per-party class marginals:
    (K, C) gives (C,), and (K, B, C) gives one row per sample."""
    stack = np.asarray(list(marginals), dtype=np.float64)
    if stack.ndim not in (2, 3):
        raise ValueError("expected K vectors of equal length")
    return np.prod(stack, axis=0)


def fuse_joint_state(states: list[Statevector], num_classes: int
                     ) -> tuple[Statevector, list[int]]:
    """Build the joint fusion circuit state; returns it plus the result qubits.

    Layout: a |0>^C result register (qubits 0..C-1), then the party registers
    in order.  One MCX per class, controlled by qubit c of every party,
    targets result qubit c.  The result qubits are the most significant, so
    each one's qubit-1 half is a contiguous run of amplitudes.
    """
    total = sum(s.num_qubits for s in states) + num_classes
    if total > qsim.MAX_QUBITS:
        raise qsim.CapacityError(f"joint circuit needs {total} qubits")
    joint = qsim.new_zero_state(num_classes)
    for s in states:
        joint = qsim.tensor_product(joint, s)
    offsets = np.cumsum([num_classes] + [s.num_qubits for s in states[:-1]])
    for c in range(num_classes):
        controls = [int(off) + c for off in offsets]
        qsim.apply_gate(joint, Gate("MCX", [c], controls=controls))
    return joint, list(range(num_classes))


def fuse_joint_circuit(states: list[Statevector], num_classes: int) -> np.ndarray:
    """Reference fusion semantics: plausibilities read off the result register."""
    joint, result_qubits = fuse_joint_state(states, num_classes)
    return np.array([qsim.prob_one(joint, q) for q in result_qubits])


def result_register_distribution(states: list[Statevector],
                                 num_classes: int) -> np.ndarray:
    """Measurement distribution of the fusion result register."""
    joint, result_qubits = fuse_joint_state(states, num_classes)
    return qsim.marginal_probabilities(joint, result_qubits)


def predict(plausibilities: np.ndarray) -> Prediction:
    pl = np.asarray(plausibilities, dtype=np.float64)
    if np.any(pl < -1e-9) or np.any(pl > 1 + 1e-9):
        raise ValueError("plausibilities must lie in [0, 1]")
    return Prediction(pl, softmax(pl))


def loss_lower_bound(num_classes: int) -> float:
    """Cross-entropy floor for any model whose logits live in [0, 1]."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    return float(np.log(num_classes + np.e - 1) - 1)


# ---------------------------------------------------------------------------
# Batched circuit evaluation.  A mini-batch's circuits run as rows of one
# (batch, 2^n) array, which amortizes the per-gate overhead, and each qubit's
# rotations within a block are fused into one unitary (gates on different
# qubits commute), which cuts the sweeps over the array.  Rows come in runs
# that share one VQC setting (one party's angles), so a later block's
# unitaries are built once per setting and each kernel pass takes one 2x2 per
# run.  The angle-only part of that build is cached on the angles' bytes
# (``_block_unitaries``): an evaluation pass predicts one sample at a time
# with fixed angles, and builds it once.  Every circuit starts from |0...0>,
# and block 0 acts on single qubits before its CNOT ring, so its state is a
# product state, built with no kernel sweep.  ``circuit_rows`` runs every
# party circuit: ``batched_marginals`` reads marginals off its rows and hands
# the rows on, ``party_forward`` takes its one row, and
# train.party_angle_gradients sweeps back from a circuit-shape group's rows
# in one call.  ``run_blocks`` runs whole blocks from given rows, as the
# barren-plateau diagnostic's monolithic circuit does.
# Equality with a gate-by-gate oracle is pinned by tests.

# Amplitudes one kernel pass holds at most: circuit_rows and
# train.party_angle_gradients sweep their rows in ``chunk_plan``'s chunks, so
# the kernels' temporaries stay small however large the batch.  The finished
# rows of a call are returned whole; training keeps them for one mini-batch.
# 2^12 complex amplitudes are 64 KiB; at 4 qubits, 2^13 was no faster and
# doubled the peak working set.
CHUNK_AMPLITUDES = 1 << 12


def _su2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The unitaries [[u, -conj(v)], [v, conj(u)]], shape u.shape + (2, 2)."""
    return np.stack([u, -np.conj(v), v, np.conj(u)], axis=-1).reshape(u.shape + (2, 2))


def fused_rotations(enc_angles: np.ndarray, vqc_angles: np.ndarray
                    ) -> list[np.ndarray]:
    """Each block's RZ RY RX per qubit as one unitary, block 0 times the Ry
    encoding of each row: an (n, B, 2, 2) array for block 0, then one
    (n, S, 2, 2) array per later block.

    ``vqc_angles`` is (S, blocks, n, 3), one setting for each run of B/S
    consecutive rows; the unitaries of blocks >= 1 are built once per
    setting, and are read-only arrays shared through ``_block_unitaries``.
    Block 0's product with the encoding is built on every call."""
    if len(enc_angles) % len(vqc_angles):
        raise ValueError(f"{len(enc_angles)} rows do not split into "
                         f"{len(vqc_angles)} runs")
    vqc = np.ascontiguousarray(vqc_angles, dtype=np.float64)
    u0, v0, later = _block_unitaries(vqc.shape, vqc.tobytes())
    # Block 0 meets each row's encoding, as (n, S, B/S): one setting per run.
    half_enc = enc_angles.T.reshape(u0.shape + (-1,)) / 2.0
    ce, se = np.cos(half_enc), np.sin(half_enc)
    u0, v0 = u0[..., None], v0[..., None]
    first = _su2(u0 * ce - np.conj(v0) * se, v0 * ce + np.conj(u0) * se)
    return [first.reshape(enc_angles.shape[::-1] + (2, 2))] + list(later)


@functools.lru_cache(maxsize=16)
def _block_unitaries(shape: tuple, data: bytes
                     ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The angle-only part of ``fused_rotations`` for the float64
    (S, blocks, n, 3) angles in ``data``: block 0's (u, v), each (n, S), and
    the (n, S, 2, 2) unitaries of blocks >= 1.

    Products of rotations have the form [[u, -conj(v)], [v, conj(u)]], so
    only (u, v) is computed; np.matmul would pay a BLAS call per 2x2 matrix.
    The cache is keyed on the angles' bytes, so a hit is bitwise the build
    it replaces, and in-place writes to the angles need not tell it.  An
    evaluation pass repeats one setting per party, and training, whose
    angles change every step, misses.  The 16 entries hold every party's
    setting while a joint prediction of up to 16 parties cycles through
    them; the arrays are read-only, since every caller with these angles
    shares them."""
    half = np.moveaxis(np.frombuffer(data).reshape(shape), 0, 2) / 2.0
    c, s = np.cos(half), np.sin(half)
    # RY RX has u = cy cx + i sy sx, v = sy cx - i cy sx; RZ then multiplies
    # u by e^{-iz/2} and v by e^{iz/2}.
    phase = c[..., 2] - 1j * s[..., 2]
    u = phase * (c[..., 1] * c[..., 0] + 1j * s[..., 1] * s[..., 0])
    v = np.conj(phase) * (s[..., 1] * c[..., 0] - 1j * c[..., 1] * s[..., 0])
    later = tuple(_su2(ub, vb) for ub, vb in zip(u[1:], v[1:]))
    for a in (u, v) + later:
        a.flags.writeable = False
    return u[0], v[0], later


def run_blocks(amps: np.ndarray, fused: list[np.ndarray]) -> np.ndarray:
    """Run fused blocks (``fused_rotations``) on given (B, 2^n) rows: each
    block's unitaries in place, then the CNOT ring.  Returns the new rows."""
    for block in fused:
        for q, u in enumerate(block):
            qsim.apply_unitary_rows(amps, q, u)
        amps = qsim.apply_cnot_ring(amps)
    return amps


def chunk_plan(b: int, n: int, settings: int):
    """Kernel passes (lo, hi, first, last) over (b, 2^n) rows in ``settings``
    runs: rows lo:hi hold runs first:last, whole runs or part of one run, of
    at most ``CHUNK_AMPLITUDES`` amplitudes unless one row alone is larger."""
    run = b // settings
    step = max(1, CHUNK_AMPLITUDES >> n)
    runs = max(1, step // run)  # whole runs per chunk, or part of one run
    for first in range(0, settings, runs):
        last = min(first + runs, settings)
        for lo in range(first * run, last * run, step):
            yield lo, min(lo + step, last * run), first, last


def circuit_rows(enc_angles: np.ndarray, vqc_angles: np.ndarray
                 ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run Ry(enc_angles) and the VQC blocks from |0...0> on every row.

    enc_angles: (B, n); vqc_angles: (S, blocks, n, 3), one setting per run of
    B/S consecutive rows, or (blocks, n, 3) for all rows.  Returns the final
    (B, 2^n) amplitude rows and the fused unitaries of ``fused_rotations``,
    which a reverse sweep undoes block by block.  Block 0's state is the
    product of its unitaries' first columns; the rows then run a chunk of
    ``chunk_plan`` at a time.
    """
    vqc = np.reshape(vqc_angles, (-1,) + np.shape(vqc_angles)[-3:])
    fused = fused_rotations(enc_angles, vqc)
    amps = np.empty((len(enc_angles), 1 << enc_angles.shape[1]), dtype=np.complex128)
    for lo, hi, first, last in chunk_plan(*enc_angles.shape, len(vqc)):
        rows = qsim.apply_cnot_ring(qsim.product_rows(fused[0][:, lo:hi, :, 0]))
        amps[lo:hi] = run_blocks(rows, [u[:, first:last] for u in fused[1:]])
    return amps, fused


def batched_marginals(enc_angles: np.ndarray, vqc_angles: np.ndarray,
                      num_classes: int
                      ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Class marginals for a batch of (encoding, VQC) angle settings.

    enc_angles: (B, n) Ry rotation angles (already doubled features).
    vqc_angles: (S, blocks, n, 3), one setting per run of B/S consecutive
    rows, or (blocks, n, 3) for all rows.  Returns the (B, num_classes)
    marginals, then ``circuit_rows``' final rows and fused unitaries, from
    which train.party_angle_gradients starts.
    """
    amps, fused = circuit_rows(np.asarray(enc_angles, dtype=np.float64),
                               vqc_angles)
    return qsim.prob_one_rows(amps, range(num_classes)), amps, fused
