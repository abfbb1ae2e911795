"""Sparse logits, entropy confidence and the history-normalized update gate.

Confidence of a token prediction is one minus the normalized entropy of
its logits: a one-hot-like distribution scores near 1, a uniform one
scores 0. The reasoner's logits are ``SparseLogits``: zero except for the
invalid entry and a few scored cells, so their entropy, log-likelihood
and top-k are computed in closed form over those few values plus a count
of zeros. A dense vector still goes through the full-vocabulary path,
which is the reference the closed form is tested against. The gate
weight for a memory update divides the current confidence by
(historical mean + current confidence), so a confident prediction after
a run of poor ones gets extra pull.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class SparseLogits(NamedTuple("SparseLogits",
                              [("size", int), ("invalid", float), ("cells", dict)])):
    """Logits over ``size`` tokens that are zero except for the last
    (invalid) entry, ``invalid``, and the entries of ``cells``, which maps
    a cell index below ``size - 1`` to its logit.

    The constructor, ``from_pairs``, ``_make`` and ``_replace`` raise on a
    vocabulary below two tokens, a cell outside ``[0, size - 1)`` or a
    non-finite value; the methods trust what they read. ``trusted`` takes
    the three values as one tuple and skips the checks, for logits whose
    parts were checked where they were made."""

    __slots__ = ()

    def __new__(cls, size: int, invalid: float, cells: dict):
        if size < 2:
            raise ValueError(f"need a vocabulary of >= 2 tokens, got {size}")
        for i in cells:
            if not (0 <= i < size - 1):
                raise ValueError(f"cell {i} out of range for {size} logits")
        if not all(map(math.isfinite, [invalid, *cells.values()])):
            raise ValueError("logits must be finite")
        return tuple.__new__(cls, (size, invalid, cells))

    _make = classmethod(lambda cls, values: cls(*values))  # checked, as _replace calls it
    trusted = classmethod(tuple.__new__)  # SparseLogits.trusted((size, invalid, cells))

    @classmethod
    def from_pairs(cls, size: int, pairs) -> "SparseLogits":
        """The logits a list of ``[index, value]`` pairs (a logged top-k)
        spells out, every other entry zero."""
        invalid, cells = 0.0, {}
        for i, v in pairs:
            if i == size - 1:
                invalid = v
            elif v != 0.0:
                cells[i] = v
        return cls(size, invalid, cells)

    def values(self) -> list:
        """The explicit logits, invalid first. The other
        ``size - 1 - len(cells)`` are zero."""
        return [self.invalid, *self.cells.values()]

    def softmax_terms(self) -> tuple:
        """``(M, Z, S)`` of the softmax in closed form: M the largest
        logit, Z = sum e^(x - M) and S = sum e^(x - M) (x - M) over all
        ``size`` entries, the zero ones counted rather than visited."""
        vals = self.values()
        n0 = self.size - 1 - len(self.cells)
        m = max(vals)
        if n0 > 0 and m < 0.0:
            m = 0.0
        e0 = math.exp(-m) if n0 > 0 else 0.0
        z = n0 * e0
        s = n0 * e0 * -m if e0 > 0.0 else 0.0
        for v in vals:
            e = math.exp(v - m)
            if e > 0.0:  # an underflowed term adds nothing, as 0 log 0 := 0
                z += e
                s += e * (v - m)
        return m, z, s

    def dense(self) -> np.ndarray:
        """The full ``size``-entry vector."""
        x = np.zeros(self.size)
        x[list(self.cells)] = list(self.cells.values())
        x[-1] = self.invalid
        return x

    def topk(self, k: int) -> list:
        """``[[index, value], ...]`` of the k largest logits, ordered by
        value descending then index ascending, as a stable sort of the
        dense vector gives them: zero entries fill in from the lowest
        free index."""
        if k < 1:
            raise ValueError(f"top-k needs k >= 1, got {k}")
        # (-value, index, value): indices are distinct, so plain tuple
        # order is value descending then index ascending
        entries = [(-self.invalid, self.size - 1, self.invalid),
                   *((-v, i, v) for i, v in self.cells.items())]
        taken = {self.size - 1, *self.cells}
        free = (i for i in range(self.size - 1) if i not in taken)
        entries += ((-0.0, i, 0.0) for i in itertools.islice(free, k))
        entries.sort()
        return [[i, float(v)] for _, i, v in entries[:k]]


def confidence(logits) -> float:
    """1 - H(softmax(logits)) / log(K), clamped to [0, 1].

    Natural log on both sides (the base cancels; fixing one keeps replays
    bit-exact). Requires at least two logits, otherwise log(K) is zero.
    ``SparseLogits`` take the closed form H = log Z - S / Z (see
    ``SparseLogits.softmax_terms``); anything else is read as a dense
    vector.
    """
    if isinstance(logits, SparseLogits):
        _, z, s = logits.softmax_terms()
        c = 1.0 - (math.log(z) - s / z) / math.log(logits.size)
        return min(1.0, max(0.0, c))
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"need a 1-D logit vector of length >= 2, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("logits must be finite")
    z = x - x.max()
    p = np.exp(z)
    p /= p.sum()
    # 0 * log(0) := 0
    nz = p[p > 0.0]
    h = -float(np.sum(nz * np.log(nz)))
    c = 1.0 - h / math.log(x.size)
    return min(1.0, max(0.0, c))


@dataclass(frozen=True, slots=True)
class ConfidenceTrace:
    """Running record of per-step confidences: their count and sum.
    Value-semantic; ``record`` returns a new trace."""

    count: int = 0
    total: float = 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count > 0 else 0.0

    def record(self, c: float) -> "ConfidenceTrace":
        if not (0.0 <= c <= 1.0):
            raise ValueError(f"confidence {c} outside [0, 1]")
        return trusted_trace(self.count + 1, self.total + c)


_SET_COUNT, _SET_TOTAL = ConfidenceTrace.count.__set__, ConfidenceTrace.total.__set__


def trusted_trace(count: int, total: float) -> ConfidenceTrace:
    """``ConfidenceTrace(count, total)`` built without ``__init__``, for a
    ``total`` of confidences already checked to lie in [0, 1]."""
    t = object.__new__(ConfidenceTrace)
    _SET_COUNT(t, count)
    _SET_TOTAL(t, total)
    return t


def gate_weight(trace: ConfidenceTrace, c_prev: float) -> float:
    """Blend weight c / (mean + c) for the next memory update.

    Returns 0 when both the history mean and the current confidence are
    zero: with no information on either side the memory stays frozen.
    """
    if not (0.0 <= c_prev <= 1.0):
        raise ValueError(f"confidence {c_prev} outside [0, 1]")
    if trace.count < 1:
        raise ValueError("gate_weight needs at least one recorded confidence")
    denom = trace.mean + c_prev
    if denom == 0.0:
        return 0.0
    return c_prev / denom
