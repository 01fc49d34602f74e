"""Tensor-train linear layer.

The trainable operator is a chain of four-index cores; the dense input vector
is contracted with the cores directly (row-major reshape, first mode slowest).
Contracting the dense input is mathematically identical to first putting the
input in exact TT form, and at the feature sizes used here (<= 196 values)
there is no reason to approximate.

Backward passes are exact contractions: the layer is multilinear.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DENSE_CAP = 10**6


@dataclass
class TTLayerParams:
    input_dims: list[int]
    output_dims: list[int]
    op_ranks: list[int]
    cores: list[np.ndarray]

    def __post_init__(self):
        L = len(self.input_dims)
        if len(self.output_dims) != L or len(self.op_ranks) != L + 1:
            raise ValueError("need L input dims, L output dims, L+1 ranks")
        if self.op_ranks[0] != 1 or self.op_ranks[-1] != 1:
            raise ValueError("boundary ranks must be 1")
        if len(self.cores) != L:
            raise ValueError("need one core per mode")
        for l, core in enumerate(self.cores):
            expect = (self.op_ranks[l], self.input_dims[l],
                      self.output_dims[l], self.op_ranks[l + 1])
            if core.shape != expect:
                raise ValueError(f"core {l} has shape {core.shape}, expected {expect}")

    @property
    def in_size(self) -> int:
        return int(np.prod(self.input_dims))

    @property
    def out_size(self) -> int:
        return int(np.prod(self.output_dims))

    @classmethod
    def random_init(cls, input_dims, output_dims, internal_rank, rng,
                    scale: float | None = None) -> "TTLayerParams":
        """Uniform [-s, s] cores; the default s keeps pre-squash outputs near 0."""
        L = len(input_dims)
        ranks = [1] + [internal_rank] * (L - 1) + [1]
        if scale is None:
            scale = float(np.prod(input_dims)) ** (-1.0 / (2 * L))
        cores = [
            rng.uniform(-scale, scale,
                        size=(ranks[l], input_dims[l], output_dims[l], ranks[l + 1]))
            for l in range(L)
        ]
        return cls(list(input_dims), list(output_dims), ranks, cores)


def ttn_param_count(params: TTLayerParams) -> int:
    return sum(core.size for core in params.cores)


def ttn_forward(params: TTLayerParams, x: np.ndarray) -> np.ndarray:
    """The layer applied to one input (d,) or to each row of (B, d)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.in_size:
        raise ValueError(f"input length {x.shape} does not match {params.in_size}")
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


def materialize_dense(params: TTLayerParams) -> np.ndarray:
    """Full (prod Q x prod P) operator matrix; test oracle for the contraction."""
    if params.in_size * params.out_size > DENSE_CAP:
        raise ValueError("dense materialization exceeds capacity")
    return _partial_dense(params.cores)[0, :, :, 0]


def ttn_backward(params: TTLayerParams, x: np.ndarray,
                 upstream: np.ndarray) -> list[np.ndarray]:
    """Exact gradients dL/dcore_l for every l, given dL/dy.

    ``x`` is one input (d,) with ``upstream`` (out,), or (B, d) rows with
    (B, out) upstream rows; the gradients are then summed over the rows, and
    each core's environments are built once for all of them.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != x.shape[:-1] + (params.out_size,):
        raise ValueError("upstream length does not match output size")
    b = upstream.size // params.out_size
    core_grads = []
    for l in range(len(params.cores)):
        left = _partial_dense(params.cores[:l])[0]      # (Qleft, Pleft, r_{l-1})
        right = _partial_dense(params.cores[l + 1:])[..., 0]  # (r_l, Qright, Pright)
        x4 = x.reshape(b, left.shape[1], params.input_dims[l], -1)
        g4 = upstream.reshape(b, left.shape[0], params.output_dims[l], -1)
        # Contract each side's environment first, then the samples with the
        # rest.  At these sizes a BLAS matrix product is no faster, and its
        # packing buffers raised the benchmark's peak RSS by 0.5 MiB.
        xl = np.einsum("YPa,nPpR->nYRap", left, x4)
        gr = np.einsum("bZR,nYqZ->nYRqb", right, g4)
        core_grads.append(np.einsum("nYRap,nYRqb->apqb", xl, gr))
    return core_grads


def squash(y: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid scaled into (0, pi/2)."""
    return (math.pi / 2) / (1.0 + np.exp(-np.asarray(y, dtype=np.float64)))


def squash_grad(y: np.ndarray) -> np.ndarray:
    s = 1.0 / (1.0 + np.exp(-np.asarray(y, dtype=np.float64)))
    return (math.pi / 2) * s * (1.0 - s)
