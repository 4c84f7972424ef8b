import numpy as np
import pytest

from spatsim.geometry import (LayoutError, ListenerPose, Position2D,
                              angular_distance, build_array, nearest_speaker,
                              speaker_pair, wrap_degrees, wrap_degrees_signed)


def test_polar_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        az = rng.uniform(0.0, 360.0)
        dist = rng.uniform(0.1, 10.0)
        p = Position2D.from_polar(az, dist)
        assert p.azimuth == pytest.approx(az, abs=1e-9 * 360)
        assert p.norm() == pytest.approx(dist, rel=1e-9)


def test_position_rejects_non_finite():
    with pytest.raises(ValueError):
        Position2D(float("nan"), 0.0)
    with pytest.raises(ValueError):
        Position2D(0.0, float("inf"))


def test_wrap_helpers():
    assert wrap_degrees(-10.0) == pytest.approx(350.0)
    assert wrap_degrees(370.0) == pytest.approx(10.0)
    assert wrap_degrees_signed(350.0) == pytest.approx(-10.0)
    assert angular_distance(10.0, 350.0) == pytest.approx(20.0)


def test_build_array_four_speakers():
    arr = build_array(4, 3.0)
    azimuths = [p.azimuth for p in arr.positions]
    assert azimuths == pytest.approx([0.0, 90.0, 180.0, 270.0], abs=1e-9)
    for p in arr.positions:
        assert p.norm() == pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("count", [4, 6, 8, 12, 18, 24, 36, 72])
def test_build_array_spacing_exact(count):
    arr = build_array(count, 3.0)
    assert arr.spacing == 360.0 / count
    for k in range(count):
        gap = angular_distance(arr.azimuth_of(k), arr.azimuth_of((k + 1) % count))
        assert gap == pytest.approx(arr.spacing, abs=1e-9)


def test_build_array_rejects_bad_layouts():
    with pytest.raises(LayoutError):
        build_array(5, 3.0)
    with pytest.raises(LayoutError):
        build_array(2, 3.0)
    with pytest.raises(LayoutError):
        build_array(8, 0.0)


def test_nearest_speaker_examples():
    arr4 = build_array(4, 3.0)
    assert nearest_speaker(arr4, 10.0) == 0
    assert nearest_speaker(arr4, 45.0) == 0        # exact tie -> lower index
    arr8 = build_array(8, 3.0)
    assert nearest_speaker(arr8, 179.0) == 4       # the 180 degree speaker


def test_speaker_pair_examples():
    arr4 = build_array(4, 3.0)
    assert speaker_pair(arr4, 45.0) == (0, 1)
    assert speaker_pair(arr4, 350.0) == (3, 0)     # wraparound
    arr6 = build_array(6, 3.0)
    l, m = speaker_pair(arr6, 60.0)                # source on a speaker
    assert arr6.azimuth_of(l) == pytest.approx(60.0)


@pytest.mark.parametrize("count", [4, 8, 12, 24])
def test_nearest_is_member_of_pair(count):
    arr = build_array(count, 3.0)
    for az in np.arange(0.0, 360.0, 1.7):
        l, m = speaker_pair(arr, az)
        assert nearest_speaker(arr, az) in (l, m)


def test_pair_arcs_tile_the_circle():
    arr = build_array(8, 3.0)
    for az in np.arange(0.25, 360.0, 3.1):
        l, m = speaker_pair(arr, az)
        rel = wrap_degrees(az - arr.azimuth_of(l))
        assert 0.0 <= rel < arr.spacing
        assert m == (l + 1) % arr.count


def test_listener_pose_constructors():
    assert ListenerPose.center().offset.norm() == 0.0
    pose = ListenerPose.lateral(0.5)
    assert pose.offset.norm() == pytest.approx(0.5)
