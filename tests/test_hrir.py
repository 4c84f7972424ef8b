import numpy as np
import pytest
from scipy.special import spherical_jn, spherical_yn

import spatsim.sphere as sphere
from spatsim.geometry import Position2D
from spatsim.hrir import (CHANNELS, CHANNELS_BEAMFORMER,
                          CHANNELS_LOCALIZATION, HrirLoadError, HrirSet,
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


@pytest.mark.parametrize("step, stop, closes", [
    (5.0, 180.0, False),        # a half circle
    (7.0, 360.0, False),        # 52 directions, 3 degrees from 357 to 0
    (5.0, 360.0, True),
    (45.0, 360.0, True),
], ids=["half-circle", "step-7", "step-5", "step-45"])
def test_azimuth_grid_must_close_the_circle(tmp_path, step, stop, closes):
    azimuths = np.arange(0.0, stop, step)
    irs = np.zeros((len(azimuths), len(CHANNELS), 16))
    if not closes:
        with pytest.raises(ValueError, match="close the circle"):
            HrirSet(sample_rate=48000, distance=3.0, azimuths=azimuths,
                    irs=irs)
        return
    save_hrir_set(HrirSet(sample_rate=48000, distance=3.0, azimuths=azimuths,
                          irs=irs), tmp_path / "set")
    loaded = load_hrir_set(tmp_path / "set")
    assert loaded.grid_step == step
    assert np.array_equal(loaded.azimuths, azimuths)


def test_interpolation_exact_on_grid(hrir_set):
    for az in (0.0, 35.0, 355.0):
        idx = hrir_set.grid_index(az)
        out = interpolate_direction(hrir_set, az, CHANNELS)
        assert np.array_equal(out, hrir_set.irs[idx])


def test_interpolation_of_identical_neighbors():
    rng = np.random.default_rng(3)
    ir = rng.standard_normal((1, len(CHANNELS), 256))
    irs = np.repeat(ir, 8, axis=0)
    hs = HrirSet(sample_rate=48000, distance=3.0,
                 azimuths=np.arange(0.0, 360.0, 45.0), irs=irs)
    out = interpolate_direction(hs, 22.5, CHANNELS)
    assert np.abs(out - ir[0]).max() < 1e-9


def test_interpolation_magnitude_error_vs_fine_grid(hrir_set):
    coarse = synth_sphere_hrir(azimuth_grid=np.arange(0.0, 360.0, 10.0))
    for az in (15.0, 95.0, 185.0):
        interp = interpolate_direction(coarse, az, CHANNELS)
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
        out = interpolate_direction(hrir_set, az, CHANNELS)
        for c in range(len(CHANNELS)):
            e = np.sum(out[c] ** 2)
            e0 = np.sum(hrir_set.irs[i0, c] ** 2)
            e1 = np.sum(hrir_set.irs[i1, c] ** 2)
            assert 0.5 * min(e0, e1) <= e <= 2.0 * max(e0, e1)


def test_translate_identity_at_origin(hrir_set):
    speaker = Position2D.from_polar(40.0, 3.0)
    out = translate_listener(hrir_set, Position2D(0.0, 0.0), speaker,
                             CHANNELS)
    direct = interpolate_direction(hrir_set, 40.0, CHANNELS)
    n = direct.shape[1]
    assert np.abs(out[:, :n] - direct).max() < 1e-9
    assert np.abs(out[:, n:]).max() < 1e-9


def test_translate_toward_speaker(hrir_set):
    # 0.5 m toward a frontal speaker at 3 m: distance 2.5 m, gain 3/2.5.
    pose = Position2D(0.5, 0.0)
    speaker = Position2D.from_polar(0.0, 3.0)
    out = translate_listener(hrir_set, pose, speaker, CHANNELS)
    ref = translate_listener(hrir_set, Position2D(0.0, 0.0), speaker,
                             CHANNELS)
    gain = np.sqrt(np.sum(out[0] ** 2) / np.sum(ref[0] ** 2))
    assert gain == pytest.approx(3.0 / 2.5, rel=1e-3)
    freqs = np.fft.rfftfreq(out.shape[1], 1.0 / hrir_set.sample_rate)
    shift = (_estimate_delay(np.fft.rfft(out[0]), freqs)
             - _estimate_delay(np.fft.rfft(ref[0]), freqs))
    assert shift == pytest.approx(-0.5 / 343.0, rel=1e-2)


def test_translate_lateral_distance(hrir_set):
    pose = Position2D(0.0, 0.1)
    speaker = Position2D.from_polar(90.0, 3.0)
    out = translate_listener(hrir_set, pose, speaker, CHANNELS)
    ref = translate_listener(hrir_set, Position2D(0.0, 0.0), speaker,
                             CHANNELS)
    gain = np.sqrt(np.sum(out[0] ** 2) / np.sum(ref[0] ** 2))
    assert gain == pytest.approx(3.0 / 2.9, rel=1e-3)


def test_translate_rejects_outside_array(hrir_set):
    with pytest.raises(ValueError):
        translate_listener(hrir_set, Position2D(0.0, 3.5),
                           Position2D.from_polar(0.0, 3.0), CHANNELS)


@pytest.mark.parametrize("listener", [Position2D(0.0, 0.0),
                                      Position2D(0.0, 0.5)])
@pytest.mark.parametrize("channels", [CHANNELS_LOCALIZATION,
                                      CHANNELS_BEAMFORMER, ("ha_R_rear",
                                                            "in_ear_L")])
def test_translate_only_the_kept_channels(hrir_set, listener, channels):
    """A channel subset gives the same samples as all channels followed by
    the selection, for on-grid (centre) and off-grid (0.5 m) directions."""
    idx = [hrir_set.channel_index(c) for c in channels]
    for az in (0.0, 40.0, 95.0, 262.5):
        speaker = Position2D.from_polar(az, 3.0)
        full = translate_listener(hrir_set, listener, speaker, CHANNELS)
        assert np.array_equal(
            translate_listener(hrir_set, listener, speaker, channels),
            full[idx])
        rel = (speaker - listener).azimuth
        assert np.array_equal(
            interpolate_direction(hrir_set, rel, channels),
            interpolate_direction(hrir_set, rel, CHANNELS)[idx])


def _spherical_jy_by_scipy(n_max, z):
    """Oracle of `sphere._spherical_jy`: scipy's spherical Bessel
    functions."""
    n = np.arange(n_max + 1)[:, None]
    return spherical_jn(n, z), spherical_yn(n, z)


@pytest.mark.parametrize("distance", [3.0, 0.5])
def test_sphere_bessel_recurrence_equals_scipy(monkeypatch, distance):
    """The recurrence gives scipy's spherical Bessel values and derivatives
    to the bit wherever they are finite (past y_n's overflow scipy gives
    -inf, the recurrence inf or nan), and so the same transfer function,
    on the default frequency grid."""
    freqs = np.fft.rfftfreq(4800, 1.0 / 48000)
    mu = 2.0 * np.pi * freqs[1:] * 0.0875 / 343.0
    n_max = int(np.ceil(mu.max())) + 60
    n = np.arange(n_max + 1)[:, None]
    for z in (mu * distance / 0.0875, mu):
        with np.errstate(over="ignore", invalid="ignore"):
            j, y = sphere._spherical_jy(n_max, z)
            values = (j, y, sphere._derivative(j, z),
                      sphere._derivative(y, z))
        expected = (spherical_jn(n, z), spherical_yn(n, z),
                    spherical_jn(n, z, derivative=True),
                    spherical_yn(n, z, derivative=True))
        for got, want in zip(values, expected):
            finite = np.isfinite(want)
            assert np.array_equal(got[finite], want[finite])
            assert not np.isfinite(got[~finite]).any()
    cosines = np.cos(np.radians(np.arange(0.0, 181.0, 2.5)))
    h = sphere_transfer(freqs, cosines, 0.0875, distance)
    monkeypatch.setattr(sphere, "_spherical_jy", _spherical_jy_by_scipy)
    assert np.array_equal(h, sphere_transfer(freqs, cosines, 0.0875,
                                             distance))


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


def test_select_keeps_the_named_channels(hrir_set):
    sub = hrir_set.select(("in_ear_R", "ha_L_front"))
    assert sub.channels == ("in_ear_R", "ha_L_front")
    assert np.array_equal(sub.irs, hrir_set.irs[:, [1, 2]])
    assert not np.shares_memory(sub.irs, hrir_set.irs)
    assert np.array_equal(interpolate_direction(sub, 12.5, ("ha_L_front",)),
                          interpolate_direction(hrir_set, 12.5,
                                                ("ha_L_front",)))
    assert hrir_set.select(CHANNELS) is hrir_set
    with pytest.raises(ValueError, match="lacks the channel.*ha_R_mid"):
        sub.select(("in_ear_R", "ha_R_mid"))


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
