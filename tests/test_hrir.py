import numpy as np
import pytest

from spatsim.geometry import ListenerPose, Position2D
from spatsim.hrir import (CHANNELS, HrirLoadError, HrirSet,
                          _estimate_delay, interpolate_direction,
                          load_hrir_set, save_hrir_set, synth_sphere_hrir,
                          translate_listener)
from spatsim.metrics import make_third_octave_grid, third_octave_analyze
from spatsim.sphere import SeriesConvergenceError, sphere_transfer


def _channel_delay(hrir_set, azimuth, channel):
    idx = hrir_set.grid_index(azimuth)
    ir = hrir_set.irs[idx, hrir_set.channel_index(channel)]
    freqs = np.fft.rfftfreq(len(ir), 1.0 / hrir_set.sample_rate)
    return _estimate_delay(np.fft.rfft(ir), freqs)


def test_itd_frontal_symmetry(hrir_set):
    itd = (_channel_delay(hrir_set, 0.0, "in_ear_L")
           - _channel_delay(hrir_set, 0.0, "in_ear_R"))
    assert abs(itd) < 5e-6


def test_itd_lateral_woodworth(hrir_set):
    itd = (_channel_delay(hrir_set, 90.0, "in_ear_R")
           - _channel_delay(hrir_set, 90.0, "in_ear_L"))
    woodworth = 0.0875 * (np.pi / 2.0 + 1.0) / 343.0
    assert itd == pytest.approx(woodworth, rel=0.10)


def test_bte_front_rear_delay(hrir_set):
    # 1 cm front/rear spacing along the propagation path at 0 degrees.
    d = (_channel_delay(hrir_set, 0.0, "ha_L_rear")
         - _channel_delay(hrir_set, 0.0, "ha_L_front"))
    assert d == pytest.approx(0.01 / 343.0, rel=0.20)


def test_frontal_ild_near_zero(hrir_set):
    grid = make_third_octave_grid()
    idx = hrir_set.grid_index(0.0)
    powers = third_octave_analyze(
        hrir_set.irs[idx, [hrir_set.channel_index("in_ear_L"),
                           hrir_set.channel_index("in_ear_R")]],
        hrir_set.sample_rate, grid)
    ild = 10.0 * np.log10(powers[0] / powers[1])
    assert np.abs(ild).max() < 0.5


def test_head_radius_validated():
    with pytest.raises(ValueError):
        synth_sphere_hrir(head_radius=0.3)


def test_interpolation_exact_on_grid(hrir_set):
    for az in (0.0, 35.0, 355.0):
        idx = hrir_set.grid_index(az)
        out = interpolate_direction(hrir_set, az)
        assert np.array_equal(out, hrir_set.irs[idx])


def test_interpolation_of_identical_neighbors():
    rng = np.random.default_rng(3)
    ir = rng.standard_normal((1, len(CHANNELS), 256))
    irs = np.repeat(ir, 8, axis=0)
    hs = HrirSet(sample_rate=48000, distance=3.0,
                 azimuths=np.arange(0.0, 360.0, 45.0), irs=irs)
    out = interpolate_direction(hs, 22.5)
    assert np.abs(out - ir[0]).max() < 1e-9


def test_interpolation_magnitude_error_vs_fine_grid(hrir_set):
    coarse = synth_sphere_hrir(azimuth_grid=np.arange(0.0, 360.0, 10.0))
    for az in (15.0, 95.0, 185.0):
        interp = interpolate_direction(coarse, az)
        truth = hrir_set.irs[hrir_set.grid_index(az)]
        for c in (0, 1):
            hi = np.abs(np.fft.rfft(interp[c]))
            ht = np.abs(np.fft.rfft(truth[c]))
            freqs = np.fft.rfftfreq(truth.shape[1],
                                    1.0 / hrir_set.sample_rate)
            band = (freqs > 200.0) & (freqs < 6000.0)
            err = 20.0 * np.log10(hi[band] / ht[band])
            assert np.abs(err).max() < 2.0


def test_interpolation_energy_bounded(hrir_set):
    for az in (2.5, 92.5, 277.5):
        i0 = hrir_set.grid_index(az - 2.5)
        i1 = hrir_set.grid_index(az + 2.5)
        out = interpolate_direction(hrir_set, az)
        for c in range(len(CHANNELS)):
            e = np.sum(out[c] ** 2)
            e0 = np.sum(hrir_set.irs[i0, c] ** 2)
            e1 = np.sum(hrir_set.irs[i1, c] ** 2)
            assert 0.5 * min(e0, e1) <= e <= 2.0 * max(e0, e1)


def test_translate_identity_at_origin(hrir_set):
    speaker = Position2D.from_polar(40.0, 3.0)
    out = translate_listener(hrir_set, ListenerPose.center(), speaker)
    direct = interpolate_direction(hrir_set, 40.0)
    n = direct.shape[1]
    assert np.abs(out[:, :n] - direct).max() < 1e-9
    assert np.abs(out[:, n:]).max() < 1e-9


def test_translate_toward_speaker(hrir_set):
    # 0.5 m toward a frontal speaker at 3 m: distance 2.5 m, gain 3/2.5.
    pose = ListenerPose(offset=Position2D(0.5, 0.0))
    speaker = Position2D.from_polar(0.0, 3.0)
    out = translate_listener(hrir_set, pose, speaker)
    ref = translate_listener(hrir_set, ListenerPose.center(), speaker)
    gain = np.sqrt(np.sum(out[0] ** 2) / np.sum(ref[0] ** 2))
    assert gain == pytest.approx(3.0 / 2.5, rel=1e-3)
    freqs = np.fft.rfftfreq(out.shape[1], 1.0 / hrir_set.sample_rate)
    shift = (_estimate_delay(np.fft.rfft(out[0]), freqs)
             - _estimate_delay(np.fft.rfft(ref[0]), freqs))
    assert shift == pytest.approx(-0.5 / 343.0, rel=1e-2)


def test_translate_lateral_distance(hrir_set):
    pose = ListenerPose.lateral(0.1)
    speaker = Position2D.from_polar(90.0, 3.0)
    out = translate_listener(hrir_set, pose, speaker)
    ref = translate_listener(hrir_set, ListenerPose.center(), speaker)
    gain = np.sqrt(np.sum(out[0] ** 2) / np.sum(ref[0] ** 2))
    assert gain == pytest.approx(3.0 / 2.9, rel=1e-3)


def test_translate_rejects_outside_array(hrir_set):
    with pytest.raises(ValueError):
        translate_listener(hrir_set, ListenerPose.lateral(3.5),
                           Position2D.from_polar(0.0, 3.0))


def test_save_load_round_trip(tmp_path):
    hs = synth_sphere_hrir(azimuth_grid=np.arange(0.0, 360.0, 90.0),
                           ir_length=2048)
    save_hrir_set(hs, tmp_path / "set")
    loaded = load_hrir_set(tmp_path / "set")
    assert loaded.sample_rate == hs.sample_rate
    assert loaded.distance == hs.distance
    assert loaded.channels == hs.channels
    assert np.array_equal(loaded.azimuths, hs.azimuths)
    # float32 payload round trip
    assert np.abs(loaded.irs - hs.irs).max() < 1e-6


def test_load_errors(tmp_path):
    hs = synth_sphere_hrir(azimuth_grid=np.arange(0.0, 360.0, 90.0),
                           ir_length=1024)
    save_hrir_set(hs, tmp_path / "set")
    missing = tmp_path / "set" / "az0090.00.wav"
    missing.unlink()
    with pytest.raises(HrirLoadError, match="90"):
        load_hrir_set(tmp_path / "set")
    with pytest.raises(HrirLoadError, match="manifest"):
        load_hrir_set(tmp_path / "nowhere")


def test_load_rate_mismatch(tmp_path):
    from scipy.io import wavfile

    hs = synth_sphere_hrir(azimuth_grid=np.arange(0.0, 360.0, 90.0),
                           ir_length=1024)
    save_hrir_set(hs, tmp_path / "set")
    path = tmp_path / "set" / "az0000.00.wav"
    rate, data = wavfile.read(path)
    wavfile.write(path, rate // 2, data)
    with pytest.raises(HrirLoadError, match="sample rate"):
        load_hrir_set(tmp_path / "set")


def test_sphere_series_not_converged_raises():
    # A source 12.5 mm off the surface of a 87.5 mm sphere: at the fixed
    # order margin the series tail stays large, and sphere_transfer says so
    # instead of returning a truncated sum. At 0.2 m the series converges.
    freqs = np.array([2000.0, 4000.0, 8000.0])
    cosines = np.array([1.0, 0.0, -1.0])
    with pytest.raises(SeriesConvergenceError,
                       match=r"not converged at 3 frequencies "
                             r"\(max order 73\)"):
        sphere_transfer(freqs, cosines, 0.0875, 0.1)
    h = sphere_transfer(freqs, cosines, 0.0875, 0.2)
    assert h.shape == (3, 3) and np.all(np.isfinite(h))
