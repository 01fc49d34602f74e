"""Tensor-train linear layer.

The trainable operator is a chain of four-index cores (row-major reshape,
first mode slowest).  The layer is linear in its input, so a forward call
applies the dense (out, in) operator to every row with one ``einsum``.  The
cores are contracted into that operator once per parameter state: each layer
keeps its last operator, keyed on its cores' bytes, so an evaluation pass
that predicts one sample at a time contracts once, and a training step, which
changes the cores in place, contracts afresh.  The operator is at most
4 x 196 on the shipped configs; ``DENSE_CAP`` bounds its entries, and configs
that exceed it are rejected where the party topology is validated.

Backward passes are exact contractions: the layer is multilinear in its
cores.  The rows enter only through the (out, in) gradient of the operator,
so the contractions with the cores cost the same at every batch size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DENSE_CAP = 10**6


@dataclass
class TTLayerParams:
    cores: list[np.ndarray]  # (r_l, in_l, out_l, r_l+1); sizes are read off these
    # (key, operator) of the last materialize_dense call; see there.
    _dense: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __getstate__(self):
        # Copies start without the memo: a copied read-only array is writable.
        return {**self.__dict__, "_dense": None}

    def __post_init__(self):
        shapes = [np.shape(core) for core in self.cores]
        if not shapes or any(len(s) != 4 for s in shapes) \
                or [s[0] for s in shapes] + [1] != [1] + [s[3] for s in shapes]:
            raise ValueError("need four-index cores whose ranks chain from 1 to "
                             f"1, got shapes {shapes}")

    @property
    def input_dims(self) -> list[int]:
        return [core.shape[1] for core in self.cores]

    @property
    def output_dims(self) -> list[int]:
        return [core.shape[2] for core in self.cores]

    @property
    def in_size(self) -> int:
        return math.prod(self.input_dims)

    @property
    def out_size(self) -> int:
        return math.prod(self.output_dims)

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
        return cls(cores)


def ttn_param_count(params: TTLayerParams) -> int:
    return sum(core.size for core in params.cores)


def ttn_forward(params: TTLayerParams, x: np.ndarray) -> np.ndarray:
    """The layer applied to one input (d,) or to each row of (B, d): the
    dense operator (``materialize_dense``) applied to every row."""
    x = np.asarray(x, dtype=np.float64)
    dense = materialize_dense(params)
    if x.ndim not in (1, 2) or x.shape[-1] != dense.shape[1]:
        raise ValueError(f"input length {x.shape} does not match {dense.shape[1]}")
    return np.einsum("QP,...P->...Q", dense, x)


def _check_capacity(params: TTLayerParams) -> None:
    if params.in_size * params.out_size > DENSE_CAP:
        raise ValueError(f"the {params.out_size} x {params.in_size} operator "
                         f"exceeds DENSE_CAP={DENSE_CAP} entries")


def materialize_dense(params: TTLayerParams) -> np.ndarray:
    """The dense (prod Q, prod P) operator that ``ttn_forward`` applies.

    The layer keeps one (key, operator) pair, the key being every core's
    shape, dtype and bytes: equal bytes give the stored operator, and any
    other cores are contracted afresh and replace the pair.  Reuse is
    bitwise exact, and in-place writes to the cores (Adam, finite
    differences) need not tell the memo.  One operator per layer, not a
    shared cache: at ``DENSE_CAP`` one is 8 MB.  The operator is read-only,
    since later calls hand out the same array."""
    key = tuple((core.shape, core.dtype.str, core.tobytes())
                for core in params.cores)
    if params._dense is None or params._dense[0] != key:
        _check_capacity(params)  # a stored operator passed it: the key holds the shapes
        dense = _contract(params.cores)
        dense.flags.writeable = False
        params._dense = key, dense
    return params._dense[1]


def _contract(cores: list[np.ndarray]) -> np.ndarray:
    """The cores contracted left to right, starting from core 0 itself."""
    env = cores[0][0].transpose(1, 0, 2)  # (Q, P, r) so far
    for core in cores[1:]:
        (Q, P, _), (_, p, q, r) = env.shape, core.shape
        env = np.einsum("QPa,apqb->QqPpb", env, core).reshape(Q * q, P * p, r)
    return env[:, :, 0]


def ttn_backward(params: TTLayerParams, x: np.ndarray,
                 upstream: np.ndarray) -> list[np.ndarray]:
    """Exact gradients dL/dcore_l for every l, given dL/dy.

    ``x`` is one input (d,) with ``upstream`` (out,), or (B, d) rows with
    (B, out) upstream rows; the gradients are then summed over the rows.
    The rows enter only through G = sum_b g_b x_b^T, the (out, in) gradient
    of the operator, so the rest costs the same at every B.  Each core's
    gradient is G contracted with its left and right environments (the
    cores before and after it): the right ones are built once as suffix
    products, and the left ones are absorbed into G one core at a time.
    """
    x = np.asarray(x, dtype=np.float64)
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != x.shape[:-1] + (params.out_size,):
        raise ValueError("upstream length does not match output size")
    _check_capacity(params)
    cores = params.cores
    # einsum, not a BLAS matrix product: the first BLAS call maps packing
    # buffers, which raised the benchmark's peak RSS by 0.5 MiB before.
    h = np.einsum("bQ,bP->QP", upstream.reshape(-1, params.out_size),
                  x.reshape(-1, params.in_size))[None]
    # rights[l] is cores[l + 1:] contracted to (r_l, Q_right, P_right).
    rights = [cores[-1][:, :, :, 0].transpose(0, 2, 1)]
    for core in cores[-2:0:-1]:
        (_, Q, P), (a, p, q, _) = rights[-1].shape, core.shape
        rights.append(np.einsum("apqc,cQP->aqQpP", core, rights[-1])
                      .reshape(a, q * Q, p * P))
    rights.reverse()
    core_grads = []
    # h is G contracted with cores[:l], as (r_l, Q_rest, P_rest).
    for core, right in zip(cores[:-1], rights):
        a, p, q, _ = core.shape
        h = h.reshape(a, q, right.shape[1], p, right.shape[2])
        core_grads.append(np.einsum("aqQpP,cQP->apqc", h, right))
        h = np.einsum("aqQpP,apqc->cQP", h, core)
    # Nothing is left of the chain to the right of the last core.
    core_grads.append(h.transpose(0, 2, 1)[:, :, :, None])
    return core_grads


def _logistic_denominator(y: np.ndarray) -> np.ndarray:
    """1 + exp(-y).  exp(-y) is inf below y = -709.78 and 0 far above 0; these
    IEEE limits give the logistic's exact 0 and 1, so they raise no warning."""
    with np.errstate(over="ignore", under="ignore"):
        return 1.0 + np.exp(-np.asarray(y, dtype=np.float64))


def squash(y: np.ndarray) -> np.ndarray:
    """Elementwise logistic sigmoid scaled into [0, pi/2], finite for every
    finite input."""
    return (math.pi / 2) / _logistic_denominator(y)


def squash_grad(y: np.ndarray) -> np.ndarray:
    s = 1.0 / _logistic_denominator(y)
    return (math.pi / 2) * s * (1.0 - s)
