"""Target appearance memory with confidence-gated updates.

The memory holds one feature vector describing what the target looks
like. It starts empty, adopts the first confidently-seen feature
wholesale, and afterwards blends each new candidate in with a weight set
by the entropy confidence of the prediction relative to its history. An
invalid token freezes the vector and records zero confidence, so the last
reliable appearance survives occlusions untouched.
"""

from __future__ import annotations

import hashlib
import math
from typing import Optional

import numpy as np

from .gating import ConfidenceTrace, gate_weight, trusted_trace
from .polar import PolarGrid


class TargetMemory:
    """The remembered feature vector (``slots``, shape (dim,)) or None
    before the first valid sighting, its ``norm``, and the confidence
    history feeding the gate. A value: nothing changes one once built."""

    __slots__ = ("slots", "trace", "norm")

    def __init__(self, slots: Optional[np.ndarray], trace: ConfidenceTrace):
        self.slots, self.trace = slots, trace
        # np.linalg.norm of a 1-D float64 vector is sqrt(v.dot(v)), bit for bit
        self.norm = None if slots is None else math.sqrt(slots.dot(slots))

    @classmethod
    def empty(cls) -> "TargetMemory":
        return cls(slots=None, trace=ConfidenceTrace())

    @property
    def is_empty(self) -> bool:
        return self.slots is None

    def digest(self) -> str:
        """Stable fingerprint of the feature vector, for logs and replay
        checks. Distinct strings imply distinct vector bytes."""
        if self.slots is None:
            return "empty"
        h = hashlib.sha256(np.ascontiguousarray(self.slots).tobytes())
        return h.hexdigest()[:16]


def update_memory(
    mem: TargetMemory,
    token: int,
    conf: float,
    candidate: Optional[np.ndarray],
    grid: PolarGrid,
    count_invalid_in_mean: bool = True,
) -> TargetMemory:
    """One memory step for the reasoner output produced last step, whose
    entropy confidence ``conf`` was computed when it was produced.

    Invalid token: vector unchanged, confidence zero recorded in place of
    ``conf`` (unless ``count_invalid_in_mean`` is off, which skips the
    record entirely; the default matches a history sum over every step).
    First valid sighting: the candidate is adopted as the vector.
    Otherwise the vector moves toward the candidate by the gate weight.
    """
    if token == grid.invalid_index:
        if candidate is not None:
            raise ValueError("invalid token must not carry a candidate feature")
        if not count_invalid_in_mean:
            return mem
        return TargetMemory(mem.slots, mem.trace.record(0.0))

    if not 0 <= token < grid.n_cells:
        raise ValueError(f"token {token} out of range for grid")
    if candidate is None:
        raise ValueError("valid token requires a candidate feature")
    cand = np.asarray(candidate, dtype=np.float64)
    if cand.ndim != 1:
        raise ValueError(f"candidate must be 1-D, got shape {cand.shape}")
    slots, trace = mem.slots, mem.trace
    if slots is None:
        new = TargetMemory(cand.copy(), trace.record(conf))
    else:
        if cand.shape != slots.shape:
            raise ValueError(f"candidate dim {cand.shape[0]} != memory dim {slots.shape[0]}")
        w = gate_weight(trace, conf)  # checks conf, and that trace holds a record
        # gate_weight has range-checked conf: trace.record(conf) without a second check
        trace = trusted_trace(trace.count + 1, trace.total + conf)
        new = TargetMemory((1.0 - w) * slots + w * cand, trace)
    # a non-finite candidate entry makes a non-finite new one (even at w = 0), so
    # a finite norm clears the candidate; an overflowed one takes the exact test
    if not math.isfinite(new.norm) and not np.isfinite(cand).all():
        raise ValueError("candidate feature must be finite")
    return new


def memory_similarity(mem: TargetMemory, feature) -> float:
    """Cosine similarity between a feature and the remembered vector.
    Zero-norm inputs score 0."""
    if mem.slots is None:
        raise ValueError("similarity against empty memory; callers must branch")
    f = np.asarray(feature, dtype=np.float64)
    if f.shape != mem.slots.shape:
        raise ValueError(f"feature shape {f.shape} != {mem.slots.shape}")
    nf = math.sqrt(f.dot(f))
    nr = mem.norm
    if nf == 0.0 or nr == 0.0:
        return 0.0
    return float(f.dot(mem.slots)) / (nf * nr)  # the same IEEE quotient as numpy's
