import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polartrack.polar import (
    PolarGrid,
    PolarPoint,
    decode,
    encode,
    roundtrip_cell,
    signed_degrees,
    to_world,
    wrap_degrees,
)
from polartrack.world import Pose2D

GRID = PolarGrid()


def oracle_token(grid, theta, dist):
    """Independent bin-formula oracle: plain lower-inclusive binning."""
    if dist < grid.r_min or dist > grid.r_max:
        return grid.invalid_index
    a = min(int(theta / (360.0 / grid.n_angle) + 1e-9), grid.n_angle - 1)
    r = min(
        int((dist - grid.r_min) / ((grid.r_max - grid.r_min) / grid.n_dist) + 1e-9),
        grid.n_dist - 1,
    )
    return a * grid.n_dist + r


def test_grid_defaults():
    assert GRID.vocab_size == 1801
    assert GRID.invalid_index == 1800
    assert GRID.angle_width == 6.0
    assert GRID.dist_width == pytest.approx(4.4 / 30)


def test_grid_validation():
    with pytest.raises(ValueError):
        PolarGrid(r_min=0.0)
    with pytest.raises(ValueError):
        PolarGrid(r_min=5.0, r_max=0.6)
    with pytest.raises(ValueError):
        PolarGrid(n_angle=0)


def test_encode_examples():
    assert encode(GRID, PolarPoint(0.0, 0.6)) == 0
    assert encode(GRID, PolarPoint(180.0, 2.8)) == 915  # a=30, r=15
    assert encode(GRID, PolarPoint(90.0, 5.4)) == GRID.invalid_index
    # exact outer boundary belongs to the last ring
    assert encode(GRID, PolarPoint(0.0, 5.0)) == GRID.n_dist - 1
    assert encode(GRID, PolarPoint(0.0, 0.5)) == GRID.invalid_index


def test_decode_examples():
    p = decode(GRID, 0)
    assert p.theta == pytest.approx(3.0)
    assert p.dist == pytest.approx(0.6 + 0.5 * 4.4 / 30)
    p = decode(GRID, 915)
    assert p.theta == pytest.approx(183.0)
    assert p.dist == pytest.approx(0.6 + 15.5 * 4.4 / 30)
    assert decode(GRID, GRID.invalid_index) is None
    with pytest.raises(ValueError):
        decode(GRID, 1801)
    with pytest.raises(ValueError):
        decode(GRID, -1)


def test_roundtrip_examples():
    assert roundtrip_cell(GRID, 0) == 0
    assert roundtrip_cell(GRID, 915) == 915
    assert roundtrip_cell(GRID, 1799) == 1799
    with pytest.raises(ValueError):
        roundtrip_cell(GRID, GRID.invalid_index)


def test_exhaustive_bijection():
    for token in range(GRID.n_cells):
        assert roundtrip_cell(GRID, token) == token


def test_encode_matches_oracle_on_random_points():
    rng = np.random.default_rng(7)
    for _ in range(3000):
        theta = rng.uniform(0.0, 360.0)
        dist = rng.uniform(0.0, 7.0)
        assert encode(GRID, PolarPoint(theta, dist)) == oracle_token(GRID, theta, dist)


def test_coverage():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        inside = PolarPoint(rng.uniform(0, 360), rng.uniform(GRID.r_min, GRID.r_max))
        assert GRID.is_valid_token(encode(GRID, inside))
    for dist in (0.0, 0.59, 5.01, 60.0):
        assert encode(GRID, PolarPoint(10.0, dist)) == GRID.invalid_index


def test_quantization_error_bound():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        p = PolarPoint(rng.uniform(0, 360), rng.uniform(GRID.r_min, GRID.r_max))
        q = decode(GRID, encode(GRID, p))
        dtheta = abs(signed_degrees(q.theta - p.theta))
        assert dtheta <= GRID.angle_width / 2 + 1e-6
        assert abs(q.dist - p.dist) <= GRID.dist_width / 2 + 1e-6


def test_angle_normalization():
    rng = np.random.default_rng(17)
    for _ in range(200):
        theta = rng.uniform(0, 360)
        dist = rng.uniform(GRID.r_min, GRID.r_max)
        base = encode(GRID, PolarPoint(theta, dist))
        for k in (-2, -1, 1, 3):
            assert encode(GRID, PolarPoint(theta + 360.0 * k, dist)) == base


def test_wrap_helpers():
    assert wrap_degrees(-90.0) == 270.0
    assert wrap_degrees(720.0) == 0.0
    assert signed_degrees(270.0) == -90.0
    assert signed_degrees(180.0) == 180.0


def test_tiny_negative_angles_wrap_to_zero():
    # fmod(-1e-14, 360) + 360 rounds up to 360 itself
    assert wrap_degrees(-1e-14) == 0.0
    assert PolarPoint(-1e-20, 2.0).theta == 0.0
    assert Pose2D(0.0, 0.0, -1e-20).heading == 0.0


@settings(max_examples=500, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_wrap_ranges_and_idempotence(x):
    w = wrap_degrees(x)
    assert 0.0 <= w < 360.0
    assert -180.0 < signed_degrees(x) <= 180.0
    assert wrap_degrees(w) == w


grids = st.builds(
    lambda r_min, span, n_angle, n_dist: PolarGrid(r_min, r_min + span, n_angle, n_dist),
    st.floats(0.05, 5.0), st.floats(0.05, 50.0), st.integers(1, 720), st.integers(1, 200),
)


@settings(max_examples=200, deadline=None)
@given(grids, st.data())
def test_codec_bijection_on_random_grids(grid, data):
    # every valid token decodes to a centroid that encodes back to it
    tokens = data.draw(st.lists(st.integers(0, grid.n_cells - 1), min_size=1, max_size=50))
    for token in tokens + [0, grid.n_cells - 1]:
        p = decode(grid, token)
        assert grid.r_min <= p.dist <= grid.r_max
        assert encode(grid, p) == token
    assert decode(grid, grid.invalid_index) is None


def test_to_world_examples():
    assert to_world(Pose2D(0, 0, 0), PolarPoint(0, 1)) == pytest.approx((1.0, 0.0))
    assert to_world(Pose2D(0, 0, 90), PolarPoint(0, 1)) == pytest.approx(
        (0.0, 1.0), abs=1e-12
    )
    assert to_world(Pose2D(1, 1, 0), PolarPoint(90, 2)) == pytest.approx((1.0, 3.0))


def test_to_world_rotation_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        pose = Pose2D(rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0, 360))
        p = PolarPoint(rng.uniform(0, 360), rng.uniform(0, 5))
        # rotation-matrix oracle
        ang = math.radians(pose.heading)
        local = np.array(
            [
                p.dist * math.cos(math.radians(p.theta)),
                p.dist * math.sin(math.radians(p.theta)),
            ]
        )
        rot = np.array([[math.cos(ang), -math.sin(ang)], [math.sin(ang), math.cos(ang)]])
        expected = rot @ local + np.array([pose.x, pose.y])
        got = to_world(pose, p)
        assert got == pytest.approx(tuple(expected), abs=1e-9)
