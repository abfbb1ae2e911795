import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack.gating import ConfidenceTrace, SparseLogits, confidence, gate_weight
from polartrack.metrics import reason_loss

# ordinary scores, exact zeros, and values far enough apart that some
# softmax terms underflow to zero
LOGIT = st.one_of(
    st.floats(-60.0, 60.0),
    st.sampled_from((0.0, -0.0, 1e-300, 745.0, -745.0, 1000.0, -1000.0)),
)


@st.composite
def sparse_logits(draw, max_size: int = 2000) -> SparseLogits:
    size = draw(st.integers(2, max_size))
    n = draw(st.integers(0, min(size - 1, 12)))  # small sizes get every cell
    idx = draw(st.lists(st.integers(0, size - 2), min_size=n, max_size=n, unique=True))
    return SparseLogits(size, draw(LOGIT), {i: draw(LOGIT) for i in idx})


def stable_topk(x: np.ndarray, k: int) -> list:
    order = sorted(range(x.size), key=lambda i: (-x[i], i))
    return [[i, float(x[i])] for i in order[:k]]


def test_uniform_logits_zero_confidence():
    for k in (2, 4, 1801):
        assert confidence(np.zeros(k)) == pytest.approx(0.0, abs=1e-9)
        assert confidence(np.full(k, 3.7)) == pytest.approx(0.0, abs=1e-9)


def test_one_hot_limit():
    logits = np.zeros(1801)
    logits[5] = 1000.0
    assert confidence(logits) >= 1.0 - 1e-6
    assert confidence(logits) <= 1.0


def test_two_mass_half_case():
    # softmax([10,10,-10,-10]) ~ (.5,.5,0,0): H = ln 2, log K = ln 4
    assert confidence(np.array([10.0, 10.0, -10.0, -10.0])) == pytest.approx(0.5, abs=1e-4)


def test_confidence_input_validation():
    with pytest.raises(ValueError):
        confidence(np.array([1.0]))  # log K = 0
    with pytest.raises(ValueError):
        confidence(np.array([1.0, np.inf]))
    with pytest.raises(ValueError):
        confidence(np.ones((2, 2)))


def test_confidence_bounded():
    rng = np.random.default_rng(3)
    for _ in range(300):
        k = int(rng.integers(2, 50))
        logits = rng.normal(scale=rng.uniform(0.1, 50), size=k)
        c = confidence(logits)
        assert 0.0 <= c <= 1.0


def test_sharpening_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        logits = rng.normal(size=int(rng.integers(2, 30)))
        c1 = confidence(logits)
        for s in (1.5, 3.0, 10.0):
            assert confidence(s * logits) >= c1 - 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    for _ in range(100):
        logits = rng.normal(size=20)
        c = confidence(logits)
        assert confidence(rng.permutation(logits)) == pytest.approx(c, abs=1e-12)


def test_gate_weight_examples():
    t = ConfidenceTrace().record(0.6)
    assert gate_weight(t, 0.6) == pytest.approx(0.5)
    assert gate_weight(t, 0.0) == 0.0

    t = ConfidenceTrace().record(0.8).record(0.4)  # mean 0.6
    assert gate_weight(t, 0.3) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_gate_weight_zero_denominator_freezes():
    t = ConfidenceTrace().record(0.0).record(0.0)
    assert gate_weight(t, 0.0) == 0.0


def test_gate_weight_bounds_and_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = ConfidenceTrace()
        for _ in range(int(rng.integers(1, 10))):
            t = t.record(float(rng.uniform(0, 1)))
        cs = np.sort(rng.uniform(0, 1, size=5))
        ws = [gate_weight(t, float(c)) for c in cs]
        assert all(0.0 <= w <= 1.0 for w in ws)
        assert all(b >= a - 1e-12 for a, b in zip(ws, ws[1:]))


def test_gate_weight_requires_history():
    with pytest.raises(ValueError):
        gate_weight(ConfidenceTrace(), 0.5)
    with pytest.raises(ValueError):
        gate_weight(ConfidenceTrace().record(0.5), 1.5)


def test_record_value_semantics():
    empty = ConfidenceTrace()
    t1 = empty.record(0.8)
    assert (t1.count, t1.total) == (1, 0.8)
    assert (empty.count, empty.total) == (0, 0.0)  # original untouched

    t2 = t1.record(0.4)
    assert t2.mean == pytest.approx(0.6)

    # a forced zero after an invalid step drags the mean down
    t3 = t2.record(0.0)
    assert t3.mean < t2.mean

    with pytest.raises(ValueError):
        t2.record(1.2)
    with pytest.raises(ValueError):
        t2.record(-0.1)


def test_natural_log_convention():
    # spot-check against a direct hand computation in nats
    logits = np.array([2.0, 0.0, 0.0])
    p = np.exp(logits - logits.max())
    p /= p.sum()
    h = -np.sum(p * np.log(p))
    assert confidence(logits) == pytest.approx(1.0 - h / math.log(3), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(sparse_logits())
def test_sparse_confidence_matches_dense(logits):
    assert confidence(logits) == pytest.approx(confidence(logits.dense()), abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(sparse_logits(), st.data())
def test_sparse_reason_loss_matches_dense(logits, data):
    token = data.draw(st.integers(0, logits.size - 1))
    dense = reason_loss(logits.dense(), token)
    assert reason_loss(logits, token) == pytest.approx(dense, rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(sparse_logits(max_size=40))
def test_topk_is_a_stable_sort_of_the_dense_vector(logits):
    x = logits.dense()
    for k in range(1, logits.size + 3):
        assert logits.topk(k) == stable_topk(x, k)


def test_topk_edge_cases_match_the_stable_sort():
    negative_invalid = SparseLogits(6, -2.0, {1: 3.0})
    explicit_zeros = SparseLogits(6, 1.0, {0: 0.0, 3: 0.0, 2: 4.0})
    mixed = SparseLogits(5, 0.0, {0: -1.0, 2: 0.5, 3: -0.0})
    for logits in (negative_invalid, explicit_zeros, mixed):
        x = logits.dense()
        for k in (1, 3, logits.size - 1, logits.size):  # up to the whole vocabulary
            assert logits.topk(k) == stable_topk(x, k), (logits, k)
    # the negative invalid logit sorts below every zero cell
    assert negative_invalid.topk(6) == [[1, 3.0], [0, 0.0], [2, 0.0], [3, 0.0], [4, 0.0],
                                        [5, -2.0]]
    # explicit zero cells take their index's place among the implicit ones
    assert explicit_zeros.topk(6) == [[2, 4.0], [5, 1.0], [0, 0.0], [1, 0.0], [3, 0.0],
                                      [4, 0.0]]


@settings(max_examples=100, deadline=None)
@given(sparse_logits())
def test_dense_round_trips(logits):
    x = logits.dense()
    assert x.shape == (logits.size,)
    assert x[-1] == logits.invalid
    assert all(x[i] == v for i, v in logits.cells.items())
    assert np.count_nonzero(x[:-1]) <= len(logits.cells)
    pairs = [[i, float(v)] for i, v in enumerate(x)]
    assert np.array_equal(SparseLogits.from_pairs(logits.size, pairs).dense(), x)
    every = SparseLogits.from_pairs(logits.size, logits.topk(logits.size))
    assert np.array_equal(every.dense(), x)
    if min(logits.values()) > 0.0:
        # the reasoner's case: the top len(cells) + 1 hold every non-zero entry
        top = logits.topk(len(logits.cells) + 1)
        assert np.array_equal(SparseLogits.from_pairs(logits.size, top).dense(), x)


def test_sparse_examples_and_validation():
    assert confidence(SparseLogits(1801, 0.0, {})) == pytest.approx(0.0, abs=1e-12)
    assert confidence(SparseLogits(1801, 0.0, {5: 1000.0})) == 1.0
    assert reason_loss(SparseLogits(1801, 0.0, {}), 7) == pytest.approx(math.log(1801))
    # a vocabulary with no zero entries: every cell scored
    full = SparseLogits(3, 2.0, {0: 2.0, 1: 2.0})
    assert confidence(full) == pytest.approx(0.0, abs=1e-12)
    assert SparseLogits(6, 1.0, {4: 3.0}).topk(4) == [[4, 3.0], [5, 1.0], [0, 0.0], [1, 0.0]]
    # the constructor checks, so the methods can trust what they read
    for bad in (
        (1, 0.0, {}),  # log K = 0
        (4, float("nan"), {}),
        (4, 0.0, {1: float("inf")}),
        (4, 0.0, {3: 1.0}),  # the invalid index is not a cell
        (4, 0.0, {-1: 1.0}),
    ):
        with pytest.raises(ValueError):
            SparseLogits(*bad)
    # the other public builds go through the same checks
    with pytest.raises(ValueError, match="out of range"):
        SparseLogits.from_pairs(4, [[3, 1.0], [4, 2.0]])
    with pytest.raises(ValueError, match="finite"):
        SparseLogits(4, 0.0, {})._replace(invalid=float("nan"))
    with pytest.raises(ValueError):
        reason_loss(SparseLogits(4, 0.0, {}), 4)
    with pytest.raises(ValueError):
        SparseLogits(4, 0.0, {}).topk(0)
