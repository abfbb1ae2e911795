import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack.gating import ConfidenceTrace, confidence
from polartrack.memory import TargetMemory, memory_similarity, update_memory
from polartrack.polar import PolarGrid

# minimal grid: one cell (token 0) plus invalid (token 1), K = 2
TINY = PolarGrid(r_min=1.0, r_max=2.0, n_angle=1, n_dist=1)
VALID, INVALID = 0, TINY.invalid_index


def logits_with_confidence(target: float, k: int = 2) -> np.ndarray:
    """Bisect the logit gap of a two-mass vector until the entropy
    confidence hits the target."""
    lo, hi = 0.0, 500.0
    for _ in range(200):
        mid = (lo + hi) / 2
        v = np.zeros(k)
        v[0] = mid
        if confidence(v) < target:
            lo = mid
        else:
            hi = mid
    v = np.zeros(k)
    v[0] = (lo + hi) / 2
    return v


def test_logit_constructor_oracle():
    for target in (0.1, 0.4, 0.8):
        got = confidence(logits_with_confidence(target))
        assert got == pytest.approx(target, abs=1e-9)


def test_bootstrap_adopts_first_valid_feature():
    mem = TargetMemory.empty()
    f1 = np.array([1.0, 0.0, 0.0])
    out = update_memory(mem, VALID, 0.2, f1, TINY)
    assert out.slots.shape == (3,)
    assert np.array_equal(out.slots, f1)
    # adopted by copy: the caller's array stays its own
    assert out.slots is not f1
    # the bootstrap confidence must not matter
    out2 = update_memory(mem, VALID, 0.95, f1, TINY)
    assert np.array_equal(out2.slots, out.slots)


def test_blend_midpoint_at_half_weight():
    mem = TargetMemory.empty()
    f1 = np.array([1.0, 0.0])
    f2 = np.array([0.0, 1.0])
    c1 = 0.8
    mem = update_memory(mem, VALID, c1, f1, TINY)
    # trace = {0.8}: picking c2 = mean yields w = 0.5 exactly
    mem = update_memory(mem, VALID, c1, f2, TINY)
    assert mem.slots == pytest.approx(np.array([0.5, 0.5]), abs=1e-8)


def test_invalid_freezes_slots_and_records_zero():
    mem = TargetMemory.empty()
    f1 = np.array([0.3, -0.7, 2.0, 0.0])
    mem = update_memory(mem, VALID, 0.9, f1, TINY)
    before = mem.slots.tobytes()
    out = update_memory(mem, INVALID, 0.9, None, TINY)
    assert out.slots.tobytes() == before
    assert out.trace.count == mem.trace.count + 1
    assert out.trace.total == mem.trace.total


def test_freeze_exactness_over_a_long_run():
    mem = TargetMemory.empty()
    f1 = np.array([1.0, 2.0])
    mem = update_memory(mem, VALID, 0.7, f1, TINY)
    before = mem.slots.tobytes()
    count0 = mem.trace.count
    for _ in range(50):
        mem = update_memory(mem, INVALID, 0.0, None, TINY)
    assert mem.slots.tobytes() == before
    assert mem.trace.count == count0 + 50
    assert mem.trace.total == pytest.approx(0.7)


def test_invalid_exclusion_variant_skips_the_trace():
    mem = TargetMemory.empty()
    f1 = np.array([1.0, 2.0])
    mem = update_memory(mem, VALID, 0.7, f1, TINY)
    out = update_memory(mem, INVALID, None, None, TINY, count_invalid_in_mean=False)
    assert out.trace.count == mem.trace.count
    assert out.slots.tobytes() == mem.slots.tobytes()


def test_contract_violations():
    mem = TargetMemory.empty()
    f = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        update_memory(mem, INVALID, None, f, TINY)  # candidate with invalid
    with pytest.raises(ValueError):
        update_memory(mem, VALID, 0.5, None, TINY)
    mem = update_memory(mem, VALID, 0.5, f, TINY)
    with pytest.raises(ValueError):
        update_memory(mem, VALID, 0.5, np.ones(5), TINY)
    with pytest.raises(ValueError):
        update_memory(mem, 7, 0.5, f, TINY)  # token range


NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                                     ids=["nan", "inf", "-inf"])


@NON_FINITE
def test_a_non_finite_candidate_is_not_adopted(bad):
    mem = TargetMemory.empty()
    for conf in (0.0, 0.5, 1.0):
        with pytest.raises(ValueError, match="finite"):
            update_memory(mem, VALID, conf, np.array([1.0, bad, 0.0]), TINY)
    assert mem.is_empty and mem.trace.count == 0


@NON_FINITE
@pytest.mark.parametrize("first, conf", [
    (0.8, 0.0),  # w = 0: the candidate would not move the vector at all
    (0.0, 0.0),  # w = 0 from a zero denominator
    (0.8, 0.4),  # 0 < w < 1
    (0.0, 0.5),  # w = 1: the vector would be the candidate
], ids=["w0", "w0-frozen", "blend", "w1"])
def test_a_non_finite_candidate_is_not_blended(bad, first, conf):
    mem = update_memory(TargetMemory.empty(), VALID, first, np.array([1.0, 2.0, 3.0]), TINY)
    before = mem.slots.tobytes()
    for i in range(3):
        cand = np.array([0.5, 0.5, 0.5])
        cand[i] = bad
        with pytest.raises(ValueError, match="finite"):
            update_memory(mem, VALID, conf, cand, TINY)
    assert mem.slots.tobytes() == before and mem.trace.count == 1


def test_a_finite_candidate_whose_square_norm_overflows_is_kept():
    # its norm is inf, so the exact per-entry test decides, and clears it
    big = np.array([1e200, -1e200])
    mem = update_memory(TargetMemory.empty(), VALID, 0.5, big, TINY)
    assert mem.norm == math.inf and np.array_equal(mem.slots, big)
    mem = update_memory(mem, VALID, 0.5, big / 2, TINY)
    assert np.array_equal(mem.slots, np.array([7.5e199, -7.5e199]))


@pytest.mark.parametrize("conf", [-0.01, 1.01, math.nan, math.inf])
def test_a_confidence_outside_the_unit_interval_is_rejected(conf):
    f = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        update_memory(TargetMemory.empty(), VALID, conf, f, TINY)
    mem = update_memory(TargetMemory.empty(), VALID, 0.5, f, TINY)
    with pytest.raises(ValueError, match="outside"):
        update_memory(mem, VALID, conf, f, TINY)


def test_a_vector_without_a_recorded_confidence_cannot_blend():
    mem = TargetMemory(np.array([1.0, 0.0]), ConfidenceTrace())
    with pytest.raises(ValueError, match="recorded confidence"):
        update_memory(mem, VALID, 0.5, np.array([0.0, 1.0]), TINY)


def test_similarity_examples():
    mem = TargetMemory.empty()
    mem = update_memory(mem, VALID, 0.5, np.array([1.0, 0.0]), TINY)
    assert memory_similarity(mem, [1.0, 0.0]) == pytest.approx(1.0)
    assert memory_similarity(mem, [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
    f = np.array([1.0, 1.0]) / np.sqrt(2)
    assert memory_similarity(mem, f) == pytest.approx(np.sqrt(0.5), abs=1e-9)
    assert memory_similarity(mem, [0.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        memory_similarity(TargetMemory.empty(), [1.0, 0.0])
    with pytest.raises(ValueError):
        memory_similarity(mem, [1.0, 0.0, 0.0])


def similarity_oracle(mem, feature):
    """The ``np.linalg.norm`` formula ``memory_similarity`` replaced."""
    f = np.asarray(feature, dtype=np.float64)
    nf = np.linalg.norm(f)
    nr = np.linalg.norm(mem.slots)
    if nf == 0.0 or nr == 0.0:
        return 0.0
    return float(np.dot(f, mem.slots) / (nf * nr))


coords = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.floats(-1e-150, 1e-150, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1e150, -1e150]),
)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 20).flatmap(
    lambda n: st.tuples(st.lists(coords, min_size=n, max_size=n),
                        st.lists(coords, min_size=n, max_size=n))
))
def test_similarity_matches_the_linalg_norm_formula(vectors):
    slots, feature = (np.array(v, dtype=np.float64) for v in vectors)
    mem = TargetMemory(slots, ConfidenceTrace())
    got, want = memory_similarity(mem, feature), similarity_oracle(mem, feature)
    assert type(got) is type(want)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_convexity_and_boundedness():
    rng = np.random.default_rng(31)
    dim, bound = 6, 3.0
    mem = TargetMemory.empty()
    first = rng.uniform(-bound, bound, size=dim)
    mem = update_memory(mem, VALID, 0.5, first, TINY)
    for _ in range(100):
        cand = rng.uniform(-bound, bound, size=dim)
        prev = mem.slots.copy()
        mem = update_memory(
            mem, VALID, float(rng.uniform(0, 1)), cand, TINY
        )
        lo = np.minimum(prev, cand)
        hi = np.maximum(prev, cand)
        assert np.all(mem.slots >= lo - 1e-12)
        assert np.all(mem.slots <= hi + 1e-12)
        assert np.linalg.norm(mem.slots) <= bound * np.sqrt(dim) + 1e-9


steps = st.lists(
    st.one_of(
        st.tuples(st.just(VALID), st.floats(0.0, 1.0),
                  st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4)),
        st.tuples(st.just(INVALID), st.just(0.0), st.none()),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(steps, st.booleans())
def test_memory_stays_in_the_hull_of_what_it_saw(seq, count_invalid):
    # each coordinate within [min, max] of the adopted and candidate
    # features so far, up to the rounding of one blend per step
    mem, seen = TargetMemory.empty(), []
    for token, conf, cand in seq:
        mem = update_memory(mem, token, conf, cand, TINY, count_invalid)
        if cand is not None:
            seen.append(cand)
        if seen:
            lo, hi = np.min(seen, axis=0), np.max(seen, axis=0)
            slack = 1e-13 * max(1.0, float(np.abs(seen).max()))
            assert np.all(lo - slack <= mem.slots) and np.all(mem.slots <= hi + slack)
        else:
            assert mem.is_empty


def test_norm_bound_is_preserved():
    rng = np.random.default_rng(37)
    b = 2.0
    mem = TargetMemory.empty()
    v = rng.normal(size=8)
    mem = update_memory(mem, VALID, 0.6, b * v / np.linalg.norm(v), TINY)
    for _ in range(200):
        v = rng.normal(size=8)
        cand = rng.uniform(0, b) * v / np.linalg.norm(v)
        mem = update_memory(
            mem, VALID, float(rng.uniform(0, 1)), cand, TINY
        )
        assert np.linalg.norm(mem.slots) <= b + 1e-9


def test_idempotent_convergence():
    mem = TargetMemory.empty()
    mem = update_memory(mem, VALID, 0.5, np.array([0.0, 0.0]), TINY)
    goal = np.array([1.0, -2.0])
    errs = []
    for _ in range(40):
        mem = update_memory(mem, VALID, 0.8, goal, TINY)
        errs.append(float(np.abs(mem.slots - goal).max()))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-3


def test_digest_tracks_slot_bytes():
    mem = TargetMemory.empty()
    assert mem.digest() == "empty"
    mem = update_memory(mem, VALID, 0.5, np.array([1.0, 0.0]), TINY)
    d1 = mem.digest()
    frozen = update_memory(mem, INVALID, None, None, TINY)
    assert frozen.digest() == d1
    moved = update_memory(mem, VALID, 0.9, np.array([0.0, 1.0]), TINY)
    assert moved.digest() != d1
