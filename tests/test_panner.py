import math

import numpy as np
import pytest

from spatsim.geometry import Position2D, build_array
from spatsim.panner import (ReproductionMethod, aliasing_limit, hoa_kernel,
                            hoa_weights, method_weights, nsp_weights,
                            speakers_for_bandwidth, vbap_weights)

ALL_COUNTS = (4, 6, 8, 12, 18, 24, 36, 72)


def _unit(az_deg):
    return np.array([math.cos(math.radians(az_deg)),
                     math.sin(math.radians(az_deg))])


def test_nsp_examples():
    arr8 = build_array(8, 3.0)
    w = nsp_weights(arr8, Position2D.from_polar(22.0, 3.0))
    assert np.flatnonzero(w.weights).tolist() == [0]   # 22 is closer to 0 than 45
    arr4 = build_array(4, 3.0)
    w = nsp_weights(arr4, Position2D.from_polar(90.0, 3.0))
    assert np.flatnonzero(w.weights).tolist() == [1]
    assert w.weights[1] == 1.0
    assert w.source_delay == pytest.approx(3.0 / 343.0, rel=1e-12)
    assert w.source_delay == pytest.approx(8.746e-3, abs=1e-6)
    assert w.source_attenuation == pytest.approx(1.0 / 3.0)


def test_source_at_origin_rejected():
    arr = build_array(4, 3.0)
    with pytest.raises(ValueError):
        nsp_weights(arr, Position2D(0.0, 0.0))


def test_vbap_hand_solved_examples():
    arr = build_array(4, 3.0)
    w = vbap_weights(arr, Position2D.from_polar(45.0, 3.0)).weights
    assert w[0] == pytest.approx(0.70711, abs=1e-5)
    assert w[1] == pytest.approx(0.70711, abs=1e-5)
    w = vbap_weights(arr, Position2D.from_polar(30.0, 3.0)).weights
    assert w[0] == pytest.approx(math.cos(math.radians(30.0)), abs=1e-9)
    assert w[1] == pytest.approx(0.5, abs=1e-9)
    # Source exactly on a speaker: one-hot.
    w = vbap_weights(arr, Position2D.from_polar(90.0, 3.0)).weights
    assert w[1] == pytest.approx(1.0, abs=1e-12)
    assert np.abs(np.delete(w, 1)).max() < 1e-12


@pytest.mark.parametrize("count", ALL_COUNTS)
def test_vbap_reconstruction_identity(count):
    arr = build_array(count, 3.0)
    rng = np.random.default_rng(count)
    for az in rng.uniform(0.0, 360.0, size=300):
        w = vbap_weights(arr, Position2D.from_polar(az, 3.0)).weights
        recon = sum(w[k] * _unit(arr.azimuth_of(k))
                    for k in np.flatnonzero(w))
        assert np.abs(recon - _unit(az)).max() < 1e-9
        assert np.count_nonzero(w) <= 2


def test_hoa_kernel_limit_and_values():
    assert hoa_kernel(0.0, 8)[0] == pytest.approx(7.0 / 8.0, abs=1e-12)
    # Diametrically opposite speaker, N = 4: sin(270)/(4 sin(90)) = -0.25.
    assert hoa_kernel(np.pi, 4)[0] == pytest.approx(-0.25, abs=1e-12)


@pytest.mark.parametrize("count", ALL_COUNTS)
def test_hoa_weights_sum_to_one(count):
    arr = build_array(count, 3.0)
    for az in np.arange(0.0, 360.0, 1.0):
        w = hoa_weights(arr, Position2D.from_polar(az, 3.0)).weights
        assert w.sum() == pytest.approx(1.0, abs=1e-9)


def test_hoa_rotation_invariance():
    for offset in (13.0, 121.7):
        arr = build_array(12, 3.0)
        rot = build_array(12, 3.0, start_azimuth=offset)
        for az in (0.0, 33.3, 200.0):
            w = hoa_weights(arr, Position2D.from_polar(az, 3.0)).weights
            wr = hoa_weights(rot, Position2D.from_polar(az + offset, 3.0)).weights
            assert np.abs(w - wr).max() < 1e-9


def test_methods_coincide_on_speaker_azimuth():
    arr = build_array(12, 3.0)
    src = Position2D.from_polar(arr.azimuth_of(3), 3.0)
    w_nsp = nsp_weights(arr, src).weights
    w_vbap = vbap_weights(arr, src).weights
    w_hoa = hoa_weights(arr, src).weights
    assert np.abs(w_nsp - w_vbap).max() < 1e-9
    assert w_nsp[3] == 1.0
    assert w_hoa[3] == pytest.approx(11.0 / 12.0, abs=1e-9)
    assert (w_hoa.sum() - w_hoa[3]) == pytest.approx(1.0 / 12.0, abs=1e-9)


def test_weights_independent_of_distance():
    arr = build_array(8, 3.0)
    for method in ReproductionMethod:
        near = method_weights(method, arr, Position2D.from_polar(70.0, 1.0))
        far = method_weights(method, arr, Position2D.from_polar(70.0, 5.0))
        assert np.abs(near.weights - far.weights).max() < 1e-12
        assert far.source_delay == pytest.approx(5.0 / 343.0)
        assert far.source_attenuation == pytest.approx(0.2)


def test_aliasing_limit_examples():
    f_max = aliasing_limit(12, 0.0875)
    assert f_max == pytest.approx(
        343.0 * 11.0 / (4.0 * math.pi * 0.0875), rel=1e-12)
    assert f_max == pytest.approx(3432.0, abs=1.0)
    # Inverse proportionality in the radius.
    assert aliasing_limit(24, 0.2) == pytest.approx(
        2.0 * aliasing_limit(24, 0.4), rel=1e-12)
    # Degenerate zero radius: unbounded.
    assert math.isinf(aliasing_limit(24, 0.0))
    with pytest.raises(ValueError):
        aliasing_limit(8, -0.1)


def test_speakers_for_bandwidth():
    n = speakers_for_bandwidth(4000.0, 0.5875)
    assert n == 88                       # ceil(86.1) rounded up to even
    assert n % 2 == 0
    assert aliasing_limit(n, 0.5875) >= 4000.0
