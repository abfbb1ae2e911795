"""Agent-centric polar tokenization.

The perceivable space is an annulus around the agent, discretized into
``n_angle`` angular sectors times ``n_dist`` radial rings. Each cell is a
token index; one extra index signals "no target visible" (occluded, too
close, too far, or outside every camera's field of view). Token indices
are plain ints: cell ``(a, r)`` maps to ``a * n_dist + r`` and the final
index ``n_angle * n_dist`` is the invalid token.

Values are checked where they enter the program: the constructors of
``PolarPoint`` and ``world.Pose2D`` check every field. Points and poses
derived from checked ones are built with ``trusted_point`` and
``world.trusted_pose``, which skip ``__init__``; each caller checks inline
only what can still fail there (an overflow to inf) and says why.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Annotated

from .records import FieldError, Range, Record


def wrap_degrees(angle: float) -> float:
    """Normalize an angle in degrees into [0, 360)."""
    a = math.fmod(angle, 360.0)
    if a < 0.0:
        a += 360.0
        # a tiny negative angle rounds up to 360 itself
        if a == 360.0:
            return 0.0
    return a


def signed_degrees(angle: float) -> float:
    """Normalize an angle in degrees into (-180, 180]."""
    a = wrap_degrees(angle)
    return a - 360.0 if a > 180.0 else a


@dataclass(frozen=True)
class PolarGrid(Record):
    """Annular discretization parameters.

    Angular bins start at the agent heading and run counterclockwise;
    radial bins start at ``r_min``. Both are lower-inclusive, except the
    exact outer boundary ``dist == r_max`` which falls into the last ring
    so the closed annulus is fully covered.
    """

    r_min: Annotated[float, Range(0.0, lo_open=True)] = 0.6
    r_max: Annotated[float, Range(0.0, lo_open=True)] = 5.0
    n_angle: Annotated[int, Range(1)] = 60
    n_dist: Annotated[int, Range(1)] = 30

    def __post_init__(self):
        if not self.r_min < self.r_max:
            raise FieldError("r_min", f"need r_min < r_max, got [{self.r_min}, {self.r_max}]")
        # constants read per entity per step, computed once; they are not
        # fields, so the JSON, equality and hashing do not see them
        n_cells = self.n_angle * self.n_dist
        object.__setattr__(self, "angle_width", 360.0 / self.n_angle)
        object.__setattr__(self, "dist_width", (self.r_max - self.r_min) / self.n_dist)
        object.__setattr__(self, "n_cells", n_cells)
        object.__setattr__(self, "invalid_index", n_cells)
        # token count including the invalid token (the K of the entropy norm)
        object.__setattr__(self, "vocab_size", n_cells + 1)

    def is_valid_token(self, token: int) -> bool:
        return 0 <= token < self.n_cells


@dataclass(frozen=True, slots=True, init=False)
class PolarPoint:
    """A position relative to the agent: bearing counterclockwise from the
    heading, in degrees [0, 360), and range in meters."""

    theta: float
    dist: float

    def __init__(self, theta: float, dist: float):
        if not (math.isfinite(theta) and math.isfinite(dist)):
            raise ValueError(f"non-finite polar point ({theta}, {dist})")
        if dist < 0.0:
            raise ValueError(f"negative distance {dist}")
        object.__setattr__(self, "theta", wrap_degrees(theta))
        object.__setattr__(self, "dist", dist)


_SET_THETA, _SET_DIST = PolarPoint.theta.__set__, PolarPoint.dist.__set__


def trusted_point(theta: float, dist: float) -> PolarPoint:
    """``PolarPoint(theta, dist)`` without its checks and wrapping, for a
    ``theta`` already in [0, 360) and a finite ``dist`` >= 0."""
    p = object.__new__(PolarPoint)
    _SET_THETA(p, theta)
    _SET_DIST(p, dist)
    return p


# nudges values sitting exactly on a bin edge into the upper bin, which
# is where lower-inclusive binning puts them in exact arithmetic
_BIN_EPS = 1e-9


def cell_of(grid: PolarGrid, theta: float, dist: float) -> int:
    """The cell of a bearing in [0, 360) and a range in [r_min, r_max]. Bins are
    lower-inclusive; the exact outer boundary dist == r_max falls into the last ring."""
    a = min(int(theta / grid.angle_width + _BIN_EPS), grid.n_angle - 1)
    r = min(int((dist - grid.r_min) / grid.dist_width + _BIN_EPS), grid.n_dist - 1)
    return a * grid.n_dist + r


def encode(grid: PolarGrid, p: PolarPoint) -> int:
    """Map a relative position to its cell token (``cell_of``), or the
    invalid token when the point lies outside the annulus."""
    if p.dist < grid.r_min or p.dist > grid.r_max:
        return grid.invalid_index
    return cell_of(grid, p.theta, p.dist)


def decode(grid: PolarGrid, token: int) -> PolarPoint | None:
    """Centroid of a cell token; None for the invalid token."""
    if not (0 <= token <= grid.invalid_index):
        raise ValueError(f"token {token} out of range [0, {grid.invalid_index}]")
    if token == grid.invalid_index:
        return None
    a, r = divmod(token, grid.n_dist)
    return PolarPoint(
        theta=(a + 0.5) * grid.angle_width,
        dist=grid.r_min + (r + 0.5) * grid.dist_width,
    )


def roundtrip_cell(grid: PolarGrid, token: int) -> int:
    """Re-encode a valid token's centroid. Must return the token itself."""
    p = decode(grid, token)
    if p is None:
        raise ValueError("invalid token has no cell to round-trip")
    return encode(grid, p)


def to_world(agent_pose, p: PolarPoint) -> tuple[float, float]:
    """World coordinates of a point seen from ``agent_pose`` at relative
    bearing ``p.theta`` and range ``p.dist``.

    ``agent_pose`` needs ``x``, ``y`` and ``heading`` (degrees) attributes.
    """
    bearing = math.radians(agent_pose.heading + p.theta)
    return (
        agent_pose.x + p.dist * math.cos(bearing),
        agent_pose.y + p.dist * math.sin(bearing),
    )
