"""Reference constructions for the tests, kept out of the program.

Each helper computes something the program computes another way, so a test
can compare two independent constructions:

- the TT layer as a reshape chain over the input (forward) and as per-core
  environments contracted with every sample (backward), where the program
  contracts the cores into one operator;
- the conjunctive combination rule by enumerating every K-tuple of focal
  sets, where the program folds pairwise;
- the quadrant split undone, and the teleported register as a relabeling
  (the protocol is the identity channel).
"""
import itertools

import numpy as np

from evifed import evidence, qsim
from evifed.qsim import Statevector
from evifed.ttn import TTLayerParams


def ttn_forward_chain(params: TTLayerParams, x: np.ndarray) -> np.ndarray:
    """The layer on (d,) or (B, d): the input contracted one core at a time."""
    x = np.asarray(x, dtype=np.float64)
    # t carries (sample, left bond, remaining input modes flattened, produced
    # output modes)
    t = x.reshape(-1, 1, params.in_size, 1)
    for core in params.cores:
        r_prev, p, q, r_next = core.shape
        t = t.reshape(t.shape[0], r_prev, p, -1, t.shape[-1])
        t = np.einsum("rpqs,brpxy->bsxyq", core, t)
        t = t.reshape(t.shape[0], r_next, t.shape[2], -1)
    return t.reshape(x.shape[:-1] + (params.out_size,))


def _partial_dense(cores) -> np.ndarray:
    """Contract a core chain into (r_left, prod Q, prod P, r_right)."""
    r_left = cores[0].shape[0] if cores else 1
    env = np.eye(r_left).reshape(r_left, 1, 1, r_left)
    for core in cores:
        env = np.einsum("aQPb,bpqc->aQqPpc", env, core)
        a, Q, q, P, p, c = env.shape
        env = env.reshape(a, Q * q, P * p, c)
    return env


def ttn_backward_per_core(params: TTLayerParams, x: np.ndarray,
                          upstream: np.ndarray) -> list[np.ndarray]:
    """dL/dcore_l summed over the rows: each core's two environments built
    from scratch, then contracted with every sample."""
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    b = upstream.size // params.out_size
    core_grads = []
    for l in range(len(params.cores)):
        left = _partial_dense(params.cores[:l])[0]      # (Qleft, Pleft, r_{l-1})
        right = _partial_dense(params.cores[l + 1:])[..., 0]  # (r_l, Qright, Pright)
        x4 = x.reshape(b, left.shape[1], params.input_dims[l], -1)
        g4 = upstream.reshape(b, left.shape[0], params.output_dims[l], -1)
        xl = np.einsum("YPa,nPpR->nYRap", left, x4)
        gr = np.einsum("bZR,nYqZ->nYRqb", right, g4)
        core_grads.append(np.einsum("nYRap,nYRqb->apqb", xl, gr))
    return core_grads


def ccr_tuple_enumeration(ms: list[evidence.MassFunction]) -> evidence.MassFunction:
    """Raw K-tuple enumeration of the conjunctive rule."""
    n = ms[0].frame_size
    out = np.zeros(1 << n)
    for focal in itertools.product(range(1 << n), repeat=len(ms)):
        inter = (1 << n) - 1
        weight = 1.0
        for m, f in zip(ms, focal):
            inter &= f
            weight *= m.masses[f]
        out[inter] += weight
    return evidence.MassFunction(n, out)


def reassemble_quadrants(blocks: list[np.ndarray]) -> np.ndarray:
    """Inverse of data.quadrant_partition."""
    n = blocks[0].shape[0]
    tl, tr, bl, br = (b.reshape(n, 14, 14) for b in blocks)
    top = np.concatenate([tl, tr], axis=2)
    bottom = np.concatenate([bl, br], axis=2)
    return np.concatenate([top, bottom], axis=1)


def logical_transfer(state: Statevector, qubits) -> Statevector:
    """The teleported register as a relabeling: no circuit at all."""
    qsim._check_indices(state.num_qubits, list(qubits))
    return state.copy()
