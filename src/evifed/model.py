"""Party pipeline, its circuit forward and reverse sweep, and server-side
evidential fusion.

A party maps its raw feature block through the TT layer, squashes the result
into (0, pi/2), angle-encodes it with Ry rotations, and runs a block-repeated
variational circuit (per-qubit Rx/Ry/Rz, then a CNOT ring).  Every such
circuit runs in ``circuit_rows``, as rows of one array with block 0 built as
a product state and each later block run as one operator per group of at
most ``GROUP_QUBITS`` adjacent qubits, all built from the angles in one pass
and memoized by ``circuit_operators``;
``party_forward`` is its one-row case.  Its angle gradients are exact, by
adjoint differentiation (Jones & Gacon, arXiv:2009.02823):
``party_angle_gradients`` sweeps back once from the forward's final rows,
given the same angles, and equals the parameter-shift rule
(E(t + pi/2) - E(t - pi/2)) / 2 that ``verify`` holds it to.  Amplitudes
change only inside ``qsim``.  The server fuses party outputs
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
    ttn: TTLayerParams  # its output size is the qubit count
    vqc_angles: np.ndarray  # shape (blocks, n_qubits, 3)
    num_classes: int

    def __post_init__(self):
        self.vqc_angles = np.asarray(self.vqc_angles, dtype=np.float64)
        n, shape = self.n_qubits, self.vqc_angles.shape
        if len(shape) != 3 or shape[0] < 1 or shape[1:] != (n, 3):
            raise ValueError(f"vqc_angles has shape {shape}, expected "
                             f"(blocks >= 1, {n}, 3)")
        if n > qsim.MAX_QUBITS:
            raise qsim.CapacityError(f"register of {n} qubits exceeds "
                                     f"qsim.MAX_QUBITS={qsim.MAX_QUBITS}")
        if not 2 <= self.num_classes <= n:
            raise ValueError(f"num_classes {self.num_classes} must lie in [2, {n}]")

    @property
    def n_qubits(self) -> int:
        return self.ttn.out_size

    @property
    def blocks(self) -> int:
        return len(self.vqc_angles)

    def param_count(self) -> int:
        return ttn_param_count(self.ttn) + self.vqc_angles.size

    @classmethod
    def random_init(cls, input_dims, output_dims, internal_rank, blocks,
                    num_classes, rng, angle_scale: float = np.pi / 8) -> "PartyModel":
        ttn = TTLayerParams.random_init(input_dims, output_dims, internal_rank, rng)
        n = ttn.out_size
        angles = rng.uniform(-angle_scale, angle_scale, size=(blocks, n, 3))
        return cls(ttn, angles, num_classes)


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
    # The reductions .max() and .sum() call, without their Python wrappers.
    e = np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def party_forward(model: PartyModel, x: np.ndarray) -> tuple[Statevector, dict]:
    """Run one party's full pipeline, as one row of ``circuit_rows``: the TT
    layer, then the squash to ``x_tilde`` in (0, pi/2), encoded as
    Ry(2 x_tilde).  Returns the state and a dict of those intermediates."""
    x = np.asarray(x, dtype=np.float64)
    pre_activation = ttn_forward(model.ttn, x)
    x_tilde = squash(pre_activation)
    amps = circuit_rows(2.0 * x_tilde[None, :], model.vqc_angles[None])
    return Statevector(model.n_qubits, amps[0]), {
        "x": x, "pre_activation": pre_activation, "x_tilde": x_tilde}


def party_marginals(state: Statevector, num_classes: int) -> np.ndarray:
    """Per-class Pl({w_c}) of the party's output evidence: P(qubit c = 1)."""
    if state.num_qubits < num_classes:
        raise ValueError("state has fewer qubits than classes")
    return qsim.prob_one_rows(state.amplitudes[None], range(num_classes))[0]


def fuse_factorized(marginals) -> np.ndarray:
    """Fused plausibilities as the product of per-party class marginals:
    (K, C) gives (C,), and (K, B, C) gives one row per sample."""
    stack = np.asarray(marginals, dtype=np.float64)
    if stack.ndim not in (2, 3):
        raise ValueError("expected K vectors of equal length")
    return np.multiply.reduce(stack, axis=0)


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
    # Folded from the right: np.multiply.outer loops over its second operand
    # innermost, so each product's inner loop runs over the longer register.
    parties = states[-1]
    for s in reversed(states[:-1]):
        parties = qsim.tensor_product(s, parties)
    joint = qsim.tensor_product(qsim.new_zero_state(num_classes), parties)
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
    if pl.size and (np.minimum.reduce(pl, axis=None) < -1e-9
                    or np.maximum.reduce(pl, axis=None) > 1 + 1e-9):
        raise ValueError("plausibilities must lie in [0, 1]")
    return Prediction(pl, softmax(pl))


def loss_lower_bound(num_classes: int) -> float:
    """Cross-entropy floor for any model whose logits live in [0, 1]."""
    if num_classes < 2:
        raise ValueError("need at least two classes")
    return float(np.log(num_classes + np.e - 1) - 1)


# ---------------------------------------------------------------------------
# Batched circuit evaluation.  A mini-batch's circuits run as rows of one
# (batch, 2^n) array, which amortizes the per-gate overhead.  Each qubit's
# rotations within a block are fused into one unitary (gates on different
# qubits commute), and the unitaries of each group of at most
# ``GROUP_QUBITS`` adjacent qubits into one operator, their Kronecker product
# (gate clustering; Haener & Steiger, arXiv:1704.01127), so a block is
# ceil(n / GROUP_QUBITS) kernel passes, not n.  Rows come in runs that share
# one VQC setting (one party's angles): every circuit function takes
# (S, blocks, n, 3) angles, one setting per run, so each kernel pass takes
# one operator per run.  The unitaries and operators depend on the angles
# alone and are built together, cached on their bytes
# (``circuit_operators``): an evaluation pass predicts one sample at a time
# with fixed angles and builds them once, and a reverse sweep finds its
# forward's.  Every circuit starts from |0...0>, and block 0 acts on single
# qubits before its CNOT ring, so its state is a product state, built with
# no kernel pass: each qubit's factor is its block-0 fused unitary's two
# columns weighted by the cosine and sine of half its encoding angle.  The
# operators of the later blocks run on it.  ``circuit_rows`` runs every
# party circuit and returns its rows: ``batched_marginals`` reads marginals
# off them, ``party_forward`` takes its one row, and
# ``party_angle_gradients`` sweeps back from a whole ensemble's rows and
# angles in one call, undoing each group's operator.  ``run_blocks`` runs
# whole blocks of operators from given rows, for ``circuit_rows`` and for
# the monolithic fusion circuit of ``tests/oracle.py``.
# Equality with a gate-by-gate oracle is pinned by tests.

# Amplitudes one kernel pass holds at most: circuit_rows and
# party_angle_gradients sweep their rows in ``chunk_plan``'s chunks, so the
# kernels' temporaries stay small however large the batch.  The finished
# rows of a call are returned whole; training keeps them for one mini-batch.
# 2^12 complex amplitudes are 64 KiB; at 4 qubits, 2^13 was no faster and
# doubled the peak working set.
CHUNK_AMPLITUDES = 1 << 12

# Most qubits one operator of ``circuit_operators`` acts on.  A group's matmul
# costs 2^k multiply-adds per amplitude against the one-qubit update's 2,
# but it is one call in place of k.  One block of one setting, grouped
# against n one-qubit passes, on a shared 2-vCPU host: 4 qubits x 64 rows
# 12 us against 48 us; 6 qubits x 64 rows 93 us against 132 us; 12 qubits x
# 1 row 97 us against 320 us, where groups of 5 and 6 took 136 and 196 us.
GROUP_QUBITS = 4


def _su2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The unitaries [[u, -conj(v)], [v, conj(u)]], shape u.shape + (2, 2)."""
    return np.stack([u, -np.conj(v), v, np.conj(u)], axis=-1).reshape(u.shape + (2, 2))


def _fused_unitaries(shape: tuple, data: bytes) -> np.ndarray:
    """Each block's RZ RY RX per qubit as one unitary, for the float64
    (S, blocks, n, 3) angles in ``data``: a (blocks, n, S, 2, 2) array.

    Products of rotations have the form [[u, -conj(v)], [v, conj(u)]], so
    only (u, v) is computed; np.matmul would pay a BLAS call per 2x2 matrix."""
    half = np.moveaxis(np.frombuffer(data).reshape(shape), 0, 2) / 2.0
    c, s = np.cos(half), np.sin(half)
    # RY RX has u = cy cx + i sy sx, v = sy cx - i cy sx; RZ then multiplies
    # u by e^{-iz/2} and v by e^{iz/2}.
    phase = c[..., 2] - 1j * s[..., 2]
    u = phase * (c[..., 1] * c[..., 0] + 1j * s[..., 1] * s[..., 0])
    v = np.conj(phase) * (s[..., 1] * c[..., 0] - 1j * c[..., 1] * s[..., 0])
    return _su2(u, v)


def circuit_operators(vqc_angles: np.ndarray
                      ) -> tuple[np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
    """The operators of the circuit with (S, blocks, n, 3) angles: each
    block's RZ RY RX per qubit as one unitary, a read-only (blocks, n, S, 2, 2)
    array; and each block from block 1 on as one operator per group of at
    most ``GROUP_QUBITS`` adjacent qubits, the group starting at qubit
    g * GROUP_QUBITS: per block, a tuple of read-only (S, 2^k, 2^k) stacks,
    each the Kronecker product of its qubits' fused unitaries, the first
    qubit's the most significant factor.  Block 0 runs as a product state,
    so it gets no group operators."""
    vqc = np.ascontiguousarray(vqc_angles, dtype=np.float64)
    return _circuit_operators(vqc.shape, vqc.tobytes())


# Keyed on the angles' bytes, so a hit is bitwise the build it replaces, and
# in-place writes to the angles need not tell it.  An evaluation pass repeats
# one setting per party, and a training step's reverse sweep repeats its
# forward's; the next step's angles miss.  It holds 16 entries, every party's
# setting while a joint prediction of up to 16 parties cycles through them.
# The arrays are read-only, since every caller with these angles shares
# them.  An entry holds 64 bytes of unitaries per qubit, block and setting,
# and 16 * 4^k bytes of operator per group of k <= GROUP_QUBITS qubits,
# later block and setting: at most 4 KiB a group, 16x its 4 qubits'
# unitaries.
@functools.lru_cache(maxsize=16)
def _circuit_operators(shape: tuple, data: bytes):
    """``circuit_operators`` for the float64 angles in ``data``."""
    unitaries = _fused_unitaries(shape, data)
    unitaries.flags.writeable = False
    blocks = []
    for block in unitaries[1:]:
        groups = []
        for first in range(0, len(block), GROUP_QUBITS):
            op = block[first]
            for u in block[first + 1:first + GROUP_QUBITS]:
                # (A (x) u)[(i, j), (k, l)] = A[i, k] u[j, l], per setting.
                d = 2 * op.shape[-1]
                op = (op[:, :, None, :, None] * u[:, None, :, None, :]
                      ).reshape(len(u), d, d)
            op.flags.writeable = False
            groups.append(op)
        blocks.append(tuple(groups))
    return unitaries, tuple(blocks)


def run_blocks(amps: np.ndarray, blocks) -> np.ndarray:
    """Run blocks of group operators (the later blocks of
    ``circuit_operators``, or their runs' slices) on given (B, 2^n) rows:
    each block's operators in place, then the CNOT ring.  Returns the new
    rows."""
    for block in blocks:
        for g, op in enumerate(block):
            qsim.apply_unitary_rows(amps, g * GROUP_QUBITS, op)
        amps = qsim.apply_cnot_ring(amps)
    return amps


def chunk_plan(b: int, n: int, settings: int):
    """Kernel passes (lo, hi, first, last) over (b, 2^n) rows in ``settings``
    runs: rows lo:hi hold runs first:last, whole runs or part of one run, of
    at most ``CHUNK_AMPLITUDES`` amplitudes unless one row alone is larger."""
    run = b // settings
    step = max(1, CHUNK_AMPLITUDES >> n)
    runs = max(1, step // (run or 1))  # whole runs per chunk, or part of one
    for first in range(0, settings, runs):
        last = min(first + runs, settings)
        for lo in range(first * run, last * run, step):
            yield lo, min(lo + step, last * run), first, last


def circuit_rows(enc_angles: np.ndarray, vqc_angles: np.ndarray) -> np.ndarray:
    """Run Ry(enc_angles) and the VQC blocks from |0...0> on every row.

    enc_angles: (B, n); vqc_angles: (S, blocks, n, 3), one setting per run of
    B/S consecutive rows.  Returns the final (B, 2^n) amplitude rows.  Block
    0's state is a product over qubits: each qubit's factor is its block-0
    fused unitary's two columns weighted by the cosine and sine of half the
    row's encoding angle, the unitary applied to Ry(angle)|0>.  The later
    blocks' group operators then run on the rows a chunk of ``chunk_plan``
    at a time.
    """
    if np.ndim(vqc_angles) != 4 or len(enc_angles) % len(vqc_angles):
        raise ValueError(f"{len(enc_angles)} rows do not split into runs of "
                         f"(S, blocks, n, 3) VQC angles of shape "
                         f"{np.shape(vqc_angles)}")
    unitaries, later = circuit_operators(vqc_angles)
    first = unitaries[0]
    # Block 0 meets each row's encoding, one setting per run.  Ry(t)|0> =
    # (cos t/2, sin t/2), so a qubit's column is its fused unitary's two
    # columns weighted by those.  They are built as (n, S, 2, B/S), so the
    # ufuncs' inner loops run along the rows, then reshaped to (n, B, 2).
    half_enc = enc_angles.T.reshape(first.shape[:2] + (1, -1)) / 2.0
    columns = (first[..., 0, None] * np.cos(half_enc)
               + first[..., 1, None] * np.sin(half_enc)
               ).swapaxes(-1, -2).reshape(enc_angles.shape[::-1] + (2,))
    amps = np.empty((len(enc_angles), 1 << enc_angles.shape[1]), dtype=np.complex128)
    for lo, hi, s0, s1 in chunk_plan(*enc_angles.shape, len(vqc_angles)):
        rows = qsim.apply_cnot_ring(qsim.product_rows(columns[:, lo:hi]))
        amps[lo:hi] = run_blocks(rows, [[op[s0:s1] for op in block]
                                        for block in later])
    return amps


def batched_marginals(enc_angles: np.ndarray, vqc_angles: np.ndarray,
                      num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """Class marginals for a batch of (encoding, VQC) angle settings.

    enc_angles: (B, n) Ry rotation angles (already doubled features).
    vqc_angles: (S, blocks, n, 3), one setting per run of B/S consecutive
    rows.  Returns the (B, num_classes) marginals and ``circuit_rows``' final
    rows, from which ``party_angle_gradients`` starts.
    """
    amps = circuit_rows(np.asarray(enc_angles, dtype=np.float64), vqc_angles)
    return qsim.prob_one_rows(amps, range(num_classes)), amps


def _generator_axes(vqc_angles: np.ndarray) -> np.ndarray:
    """(..., blocks, n, 4, 3): for RX, RY, RZ and block 0's Ry encoding of each
    fused gate U = RZ RY RX Ry(enc), the Bloch axis a of the generator moved
    past U, so that dU/dangle = -i/2 (a . sigma) U.  The axes depend on the
    VQC angles alone, never on the encoding."""
    cx, cy, cz = np.moveaxis(np.cos(vqc_angles), -1, 0)
    sx, sy, sz = np.moveaxis(np.sin(vqc_angles), -1, 0)
    zero, one = np.zeros_like(cx), np.ones_like(cx)
    return np.stack([
        cy * cz, cy * sz, -sy,                              # RZ RY X RY^+ RZ^+
        -sz, cz, zero,                                      # RZ Y RZ^+
        zero, zero, one,                                    # Z
        sx * sy * cz - cx * sz, sx * sy * sz + cx * cz, sx * cy,  # U Y U^+
    ], axis=-1).reshape(vqc_angles.shape[:-1] + (4, 3))


def _pauli_traces(phi: np.ndarray, mu: np.ndarray, qubit: int) -> np.ndarray:
    """Im Tr(sigma_j W) for j = X, Y, Z per row, where the 2x2 cross matrix
    W[a, b] sums phi[..a..] mu[..b..] over the other qubits: (B, 3)."""
    b = len(phi)
    w = np.einsum("xiar,xibr->xab", phi.reshape(b, 1 << qubit, 2, -1),
                  mu.reshape(b, 1 << qubit, 2, -1))
    return np.stack([(w[:, 0, 1] + w[:, 1, 0]).imag,
                     (w[:, 0, 1] - w[:, 1, 0]).real,
                     (w[:, 0, 0] - w[:, 1, 1]).imag], axis=-1)


def party_angle_gradients(rows: np.ndarray, vqc_angles: np.ndarray,
                          dL_dmarg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint-method gradients of the loss wrt the angles of a batch of
    circuits: Ry(encoding angles), then the VQC blocks, read out as the
    first C qubit marginals (parties or the measure_then_vqc server).

    ``rows`` are the final (B, 2^n) amplitudes that ``batched_marginals``
    returned in the forward pass with ``vqc_angles``: (S, blocks, n, 3), one
    setting per run of B/S rows.  ``dL_dmarg`` is the loss gradient wrt the
    C marginals, (..., C) for the B rows, with everything else frozen.
    Returns (d/d encoding angle, per row, (..., n); d/d vqc angle, summed
    over each run's rows, shaped as ``vqc_angles``), equal to the
    parameter-shift rule's.

    The loss is <phi|O|phi> for each final state phi and the diagonal
    O = sum_c dL/dmarg_c P(qubit c = 1), and lambda = O phi.  Walking the
    blocks backwards, both phi and lambda undo the CNOT ring and then each
    group operator U of ``circuit_operators``; between the two, each qubit's
    cross matrix W = sum phi conj(lambda)^T gives every angle of the qubit's
    fused gate its derivative Im Tr((a . sigma) W), with the axes a of
    ``_generator_axes``.  The sweep carries mu = conj(lambda), so phi undoes
    U by conj(U^T) and mu by U^T.  Rows run a chunk of ``chunk_plan`` at a
    time, as in the forward pass.
    """
    b, n = len(rows), rows.shape[1].bit_length() - 1
    num_classes = np.shape(dL_dmarg)[-1]
    dL = np.reshape(dL_dmarg, (b, num_classes))
    axes = _generator_axes(vqc_angles)
    later = circuit_operators(vqc_angles)[1]
    # qubit_set[c, i] = 1 where basis state i has qubit c set.
    qubit_set = (np.arange(1 << n) >> (n - 1 - np.arange(num_classes))[:, None]) & 1
    d_enc = np.empty((b, n))
    d_vqc = np.zeros(np.shape(vqc_angles))
    for lo, hi, first, last in chunk_plan(b, n, len(vqc_angles)):
        runs = slice(first, last)
        phi = rows[lo:hi]
        # einsum, not a BLAS matmul: the first BLAS call maps its buffers,
        # which raised the training loop's peak RSS.
        mu = np.einsum("rc,ci->ri", dL[lo:hi], qubit_set) * np.conj(phi)
        for k in reversed(range(len(later) + 1)):
            # The gather copies, so the in-place undo below never writes rows.
            phi = qsim.apply_cnot_ring(phi, inverse=True)
            mu = qsim.apply_cnot_ring(mu, inverse=True)
            # (n, runs, rows per run, 3): a chunk holds whole runs or part of one.
            traces = np.stack([_pauli_traces(phi, mu, q) for q in range(n)]
                              ).reshape(n, last - first, -1, 3)
            d_vqc[runs, k] += np.einsum("sqaj,qsj->sqa", axes[runs, k, :, :3],
                                        traces.sum(axis=2))
            if k == 0:
                d_enc[lo:hi] = np.einsum("sqj,qsrj->srq", axes[runs, 0, :, 3],
                                         traces).reshape(hi - lo, n)
                break
            for g, op in enumerate(later[k - 1]):
                u = np.swapaxes(op[runs], -1, -2)
                qsim.apply_unitary_rows(phi, g * GROUP_QUBITS, np.conj(u))
                qsim.apply_unitary_rows(mu, g * GROUP_QUBITS, u)
    return d_enc.reshape(np.shape(dL_dmarg)[:-1] + (n,)), d_vqc
