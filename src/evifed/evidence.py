"""Classical Dempster-Shafer machinery and its quantum-state mapping.

A mass function over an n-element frame is stored as a length-2^n vector
indexed by subset bitmask, with bit ``c`` set iff element ``c+1`` is in the
subset.  The combination rule implemented here is the *unnormalized*
conjunctive rule: mass on the empty set is retained, never redistributed.

This module is the brute-force oracle behind every quantum-fusion claim:
everything is direct summation over the power set, kept deliberately simple.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qsim import Statevector

MAX_FRAME_SIZE = 16


class InvalidStateError(ValueError):
    """Statevector too far from unit norm to decode as evidence."""


@dataclass
class MassFunction:
    frame_size: int
    masses: np.ndarray

    def __post_init__(self):
        if not 1 <= self.frame_size <= MAX_FRAME_SIZE:
            raise ValueError(f"frame size must be in [1, {MAX_FRAME_SIZE}]")
        self.masses = np.asarray(self.masses, dtype=np.float64)
        if self.masses.shape != (1 << self.frame_size,):
            raise ValueError("mass vector length must be 2^frame_size")
        if not np.all(np.isfinite(self.masses)):
            raise ValueError("masses must be finite")
        if np.any(self.masses < -1e-12):
            raise ValueError("masses must be non-negative")
        if abs(self.masses.sum() - 1.0) > 1e-10:
            raise ValueError("masses must sum to 1")

    @classmethod
    def vacuous(cls, frame_size: int) -> "MassFunction":
        m = np.zeros(1 << frame_size)
        m[-1] = 1.0
        return cls(frame_size, m)

    @classmethod
    def from_dict(cls, frame_size: int, entries: dict[int, float]) -> "MassFunction":
        m = np.zeros(1 << frame_size)
        for mask, v in entries.items():
            m[mask] = v
        return cls(frame_size, m)


def _check_subset(m: MassFunction, subset: int) -> None:
    if not 0 <= subset < (1 << m.frame_size):
        raise ValueError(f"subset bitmask {subset} out of range")


def plausibility(m: MassFunction, subset: int) -> float:
    """Total mass on sets intersecting ``subset``."""
    _check_subset(m, subset)
    if subset == 0:
        return 0.0
    masks = np.arange(1 << m.frame_size)
    return float(m.masses[(masks & subset) != 0].sum())


def commonality(m: MassFunction, subset: int) -> float:
    """Total mass on supersets of ``subset``; multiplicative under combination."""
    _check_subset(m, subset)
    masks = np.arange(1 << m.frame_size)
    return float(m.masses[(masks & subset) == subset].sum())


def _ccr_pair(a: MassFunction, b: MassFunction) -> MassFunction:
    size = 1 << a.frame_size
    masks = np.arange(size)
    intersections = masks[:, None] & masks[None, :]
    out = np.zeros(size)
    np.add.at(out, intersections, np.outer(a.masses, b.masses))
    return MassFunction(a.frame_size, out)


def ccr_combine(ms: list[MassFunction]) -> MassFunction:
    """Unnormalized conjunctive combination, folded pairwise.

    Folding is exact because the rule is associative; the K-tuple enumeration
    survives only as a test oracle.
    """
    if not ms:
        raise ValueError("need at least one mass function")
    frame = ms[0].frame_size
    for m in ms:
        if m.frame_size != frame:
            raise ValueError("frame sizes must match")
    out = ms[0]
    for m in ms[1:]:
        out = _ccr_pair(out, m)
    return out


def singleton_plausibilities(m: MassFunction) -> np.ndarray:
    return np.array([plausibility(m, 1 << c) for c in range(m.frame_size)])


def _basis_labels(n: int) -> np.ndarray:
    """Basis label of each subset bitmask: element c+1 maps to qubit c
    (MSB-first), so a label is its mask's n bits reversed, read off the
    (2,)*n view of the masks with its axes reversed."""
    return np.arange(1 << n).reshape((2,) * n).T.ravel()


def encode_bba(m: MassFunction, phases: np.ndarray | None = None) -> Statevector:
    """Quantum evidence state: amplitude sqrt(mass) * e^{i phase} per subset;
    a mass that ``MassFunction`` let through below 0 has amplitude 0.

    ``phases`` is indexed by subset bitmask, like the mass vector.  Phases
    default to zero; they vanish under modulus-squared decoding anyway.
    """
    n = m.frame_size
    if phases is None:
        phases = np.zeros(1 << n)
    phases = np.asarray(phases, dtype=np.float64)
    if phases.shape != (1 << n,):
        raise ValueError("phase vector length must be 2^frame_size")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[_basis_labels(n)] = (np.sqrt(np.maximum(m.masses, 0.0))
                              * np.exp(1j * phases))
    return Statevector(n, amps)


def decode_state(state: Statevector) -> MassFunction:
    """Read a statevector back as a mass function (|amplitude|^2 per subset)."""
    if abs(state.norm() - 1.0) > 1e-8:
        raise InvalidStateError("state norm deviates from 1 by more than 1e-8")
    return decode_distribution(state.probabilities())


def decode_distribution(probs: np.ndarray) -> MassFunction:
    """Decode a basis-label probability vector (e.g. a measured register)."""
    probs = np.asarray(probs, dtype=np.float64)
    n = int(probs.size).bit_length() - 1
    if 1 << n != probs.size:
        raise ValueError("distribution length must be a power of two")
    masses = probs[_basis_labels(n)]
    total = masses.sum()
    if total == 0:
        raise ValueError("distribution has no mass to decode")
    return MassFunction(n, masses / total)
