"""Horizontal-plane geometry: positions, circular speaker layouts, speaker selection.

Azimuth convention: degrees, counterclockwise, 0 degrees = front (+x axis).
All public APIs take and return degrees; radians are internal only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


DEFAULT_ARRAY_RADIUS = 3.0


class LayoutError(ValueError):
    """Raised for speaker layouts the workbench does not support."""


def wrap_degrees(angle: float) -> float:
    """Wrap an angle to [0, 360)."""
    return angle % 360.0


def wrap_degrees_signed(angle: float) -> float:
    """Wrap an angle to [-180, 180)."""
    return (angle + 180.0) % 360.0 - 180.0


def angular_distance(a: float, b: float) -> float:
    """Absolute angular distance between two azimuths in degrees, in [0, 180]."""
    return abs(wrap_degrees_signed(a - b))


@dataclass(frozen=True)
class Position2D:
    """A point in the horizontal plane, meters, origin at the array center."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite position ({self.x}, {self.y})")

    @classmethod
    def from_polar(cls, azimuth_deg: float, distance: float) -> "Position2D":
        a = math.radians(azimuth_deg)
        return cls(distance * math.cos(a), distance * math.sin(a))

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def azimuth(self) -> float:
        """Azimuth in degrees, [0, 360)."""
        return wrap_degrees(math.degrees(math.atan2(self.y, self.x)))

    def __sub__(self, other: "Position2D") -> "Position2D":
        return Position2D(self.x - other.x, self.y - other.y)


@dataclass(frozen=True)
class SpeakerArray:
    """Regular circular loudspeaker layout in the horizontal plane."""

    count: int
    radius: float
    start_azimuth: float = 0.0
    positions: tuple = field(init=False)

    def __post_init__(self):
        if self.count % 2 != 0 or self.count < 4:
            raise LayoutError(
                f"speaker count must be even and >= 4, got {self.count}")
        if self.radius <= 0:
            raise LayoutError(f"array radius must be positive, got {self.radius}")
        positions = tuple(
            Position2D.from_polar(self.azimuth_of(k), self.radius)
            for k in range(self.count))
        object.__setattr__(self, "positions", positions)

    @property
    def spacing(self) -> float:
        """Angular distance between neighboring speakers in degrees."""
        return 360.0 / self.count

    def azimuth_of(self, k: int) -> float:
        return wrap_degrees(self.start_azimuth + k * self.spacing)


def build_array(count: int, radius: float = DEFAULT_ARRAY_RADIUS,
                start_azimuth: float = 0.0) -> SpeakerArray:
    """Build a regular circular array of `count` speakers at `radius` meters."""
    return SpeakerArray(count=count, radius=radius, start_azimuth=start_azimuth)


@dataclass(frozen=True)
class ListenerPose:
    """Listener placement: lateral offset from the array center, facing front."""

    offset: Position2D = Position2D(0.0, 0.0)

    @classmethod
    def center(cls) -> "ListenerPose":
        return cls()

    @classmethod
    def lateral(cls, shift: float) -> "ListenerPose":
        """Shift the listener `shift` meters to the side (+y, i.e. to the left)."""
        return cls(offset=Position2D(0.0, shift))


def nearest_speaker(array: SpeakerArray, source_azimuth: float) -> int:
    """Index of the speaker with the least angular distance to the source.

    Exact ties go to the lower index.
    """
    best = 0
    best_dist = angular_distance(array.azimuth_of(0), source_azimuth)
    for k in range(1, array.count):
        d = angular_distance(array.azimuth_of(k), source_azimuth)
        if d < best_dist - 1e-12:
            best, best_dist = k, d
    return best


def speaker_pair(array: SpeakerArray, source_azimuth: float) -> tuple:
    """Indices (l, m) of the speakers whose azimuths bracket the source.

    The source lies on the counterclockwise arc from speaker l to speaker m.
    A source exactly on a speaker azimuth returns that speaker as l (the
    degenerate pair), so panning weight on m is zero.
    """
    rel = wrap_degrees(source_azimuth - array.start_azimuth)
    l = int(rel // array.spacing) % array.count
    m = (l + 1) % array.count
    return l, m
