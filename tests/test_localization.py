import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

from spatsim.binsim import AudioBuffer, VirtualSource, render_reference
from spatsim.dsp import erb_bandwidth
from spatsim.geometry import Position2D
from spatsim.hrir import CHANNELS_LOCALIZATION
import spatsim.harness as harness
import spatsim.localization as localization
from spatsim.harness import PleCell
from spatsim.localization import (build_cue_lookup, extract_cues,
                                  gammatone_band, gammatone_centers, localize)
from spatsim.signals import speech_shaped_noise, white_noise

from conftest import float_bits

RATE = 48000
CENTER = Position2D(0.0, 0.0)


@pytest.fixture(scope="module")
def lookup(hrir_set):
    return build_cue_lookup(hrir_set, probe_duration=0.4)


def _render(hrir_set, azimuth, seed=19, duration=0.4):
    src = VirtualSource(speech_shaped_noise(duration, RATE, seed=seed),
                        Position2D.from_polar(azimuth, 3.0))
    return render_reference(src, hrir_set, CENTER, CHANNELS_LOCALIZATION)


def test_gammatone_centers_span():
    c = gammatone_centers(236.0, 1296.0, 12)
    assert len(c) == 12
    assert c[0] == pytest.approx(236.0, rel=1e-6)
    assert c[-1] == pytest.approx(1296.0, rel=1e-6)
    assert np.all(np.diff(c) > 0)


def test_gammatone_band_unit_gain_at_center():
    fc = 1000.0
    t = np.arange(RATE // 2) / RATE
    x = np.sin(2.0 * np.pi * fc * t)
    y = gammatone_band(x, fc, RATE)
    # Steady-state envelope of the complex subband matches the sine amplitude.
    env = np.abs(y[RATE // 4:])
    assert env.mean() == pytest.approx(1.0, rel=0.2)


def test_gammatone_band_rejects_remote_frequency():
    fc = 1000.0
    t = np.arange(RATE // 2) / RATE
    x = np.sin(2.0 * np.pi * 4000.0 * t)
    env = np.abs(gammatone_band(x, fc, RATE)[RATE // 4:])
    assert env.mean() < 0.05


def _gammatone_cascade(x, fc, rate):
    """Oracle of `gammatone_band`: Hohmann's four one-pole complex
    resonators as four `lfilter` passes along the last axis."""
    b = 1.019 * erb_bandwidth(fc)
    pole = np.exp(-2.0 * np.pi * b / rate + 2.0j * np.pi * fc / rate)
    y = np.asarray(x, dtype=complex)
    for _ in range(4):
        y = lfilter([1.0], [1.0, -pole], y)
    return 2.0 * (1.0 - np.abs(pole)) ** 4 * y


@pytest.mark.parametrize("duration", [0.5, 1.0])
@pytest.mark.parametrize("offset", [0.0, 0.5])
def test_gammatone_band_equals_the_four_pass_cascade(hrir_set, duration,
                                                     offset):
    """Over the probe renders of the cue lookup (0.5 s) and of the PLE
    targets (1 s), centred and off centre, in every band, bit for bit
    throughout: a render's leading zeros are +0."""
    src = VirtualSource(speech_shaped_noise(duration, RATE, seed=23),
                        Position2D.from_polar(35.0, hrir_set.distance))
    x = render_reference(src, hrir_set, Position2D(0.0, offset),
                         CHANNELS_LOCALIZATION).samples
    for fc in gammatone_centers(localization.FINE_BAND_LO_HZ,
                                localization.FINE_BAND_HI_HZ,
                                localization.FINE_BAND_COUNT):
        for y in (x, *x):
            assert np.array_equal(float_bits(gammatone_band(y, fc, RATE)),
                                  float_bits(_gammatone_cascade(y, fc, RATE)))


@settings(max_examples=60, deadline=None)
@given(fc=st.floats(100.0, 4000.0), n=st.integers(1, 5000),
       rows=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_gammatone_band_cascade_property(fc, n, rows, seed):
    """`gammatone_band` of an input and of each of its rows has the bits of
    the four-pass cascade from the row's first nonzero sample on. Before it
    both are exact zeros, and for a -0 input the two may differ in the sign
    of such a zero."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, n))
    x[rng.uniform(size=x.shape) < 0.2] = -0.0
    x[rng.uniform(size=x.shape) < 0.2] = 0.0
    x[:, :rng.integers(n + 1)] = rng.choice([0.0, -0.0])    # leading zeros
    for y in (x, *x):
        want = _gammatone_cascade(y, fc, RATE)
        got = gammatone_band(y, fc, RATE)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        onset = np.cumsum(y != 0.0, axis=-1) > 0
        assert np.array_equal(float_bits(got)[:, onset],
                              float_bits(want)[:, onset])


def _full_band_cues(buffer):
    """Oracle of `extract_cues`: the phase statistic and the ILD of every
    sample of each band, then kept at the glimpses."""
    rate = buffer.sample_rate
    bands = []
    for fc in gammatone_centers(localization.FINE_BAND_LO_HZ,
                                localization.FINE_BAND_HI_HZ,
                                localization.FINE_BAND_COUNT):
        yl, yr = (gammatone_band(x, fc, rate) for x in buffer.samples)
        cross = yl * np.conj(yr)
        mag = np.abs(cross)
        unit = np.where(mag > 0.0, cross / np.maximum(mag, 1e-30), 0.0)
        smooth = functools.partial(localization.one_pole_smooth,
                                   tau=localization.COHERENCE_TAU,
                                   rate=rate)
        coherence = np.abs(smooth(unit))
        phase = np.angle(smooth(cross))
        with np.errstate(divide="ignore", invalid="ignore"):
            ild = 10.0 * np.log10(smooth(np.abs(yl) ** 2)
                                  / smooth(np.abs(yr) ** 2))
        ild[~np.isfinite(ild)] = 0.0
        mask = localization._glimpse_mask(coherence)
        bands.append((phase[mask], ild[mask]))
    return bands


def test_extract_cues_equals_the_full_band_statistics(hrir_set):
    """The phase and the ILD are computed at the glimpses only, with the
    values that computing them at every sample gives there."""
    # An interaural level difference beyond the double range: the right
    # ear's power underflows to 0, so every glimpse's ILD is non-finite.
    extreme = _render(hrir_set, 40.0, seed=3)
    extreme.samples[0] *= 1e140
    extreme.samples[1] *= 1e-165
    for buf in (_render(hrir_set, -60.0), _render(hrir_set, 0.0, seed=2),
                extreme):
        got = extract_cues(buf)
        want = _full_band_cues(buf)
        assert sum(len(band.statistic) for band in got) > 0
        for band, (phase, ild) in zip(got, want, strict=True):
            assert np.array_equal(band.statistic, phase)
            assert np.array_equal(band.ild_db, ild)


def test_extract_cues_requires_two_channels():
    with pytest.raises(ValueError):
        extract_cues(AudioBuffer(RATE, np.zeros((3, 256))))


def test_lookup_on_the_sweep_pool_equals_the_builtin_map(hrir_set, lookup):
    pooled = build_cue_lookup(hrir_set, probe_duration=0.4,
                              map=functools.partial(harness._pool_map,
                                                    workers=2))
    assert np.array_equal(pooled.azimuths, lookup.azimuths)
    assert np.array_equal(pooled.fine_tables, lookup.fine_tables,
                          equal_nan=True)


def test_free_field_self_consistency(hrir_set, lookup):
    for az in (0.0, 30.0, -30.0, 60.0):
        est = localize(_render(hrir_set, az), lookup)
        assert est.fine_azimuth is not None
        assert abs(est.fine_azimuth - az) < 3.0


def test_mirror_antisymmetry(hrir_set, lookup):
    a = localize(_render(hrir_set, 40.0), lookup)
    b = localize(_render(hrir_set, -40.0), lookup)
    assert a.fine_azimuth is not None and b.fine_azimuth is not None
    assert a.fine_azimuth + b.fine_azimuth == pytest.approx(0.0, abs=1.0)


def test_uncorrelated_noise_yields_few_glimpses(hrir_set, lookup):
    # Interaurally incoherent input rarely crosses the coherence gate; a
    # coherent rendering of the same duration produces far more glimpses.
    buf = AudioBuffer(RATE, np.vstack([white_noise(0.4, RATE, seed=1),
                                       white_noise(0.4, RATE, seed=2)]))
    inc = localize(buf, lookup)
    coh = localize(_render(hrir_set, 0.0), lookup)
    assert inc.fine_glimpses < 0.05 * coh.fine_glimpses


def test_diotic_input_reads_frontal(lookup):
    x = white_noise(0.4, RATE, seed=3)
    est = localize(AudioBuffer(RATE, np.vstack([x, x])), lookup)
    assert est.fine_azimuth is not None
    assert abs(est.fine_azimuth) < 2.0


def test_rms_ignore_nan():
    cell = PleCell(np.array([3.0, np.nan, 4.0]))
    assert cell.value == pytest.approx(np.sqrt(12.5))
    assert cell.dropped == 1
    assert np.isnan(PleCell(np.array([np.nan, np.nan])).value)
    # A missing estimate (None) on either side is a NaN entry.
    assert PleCell(np.array([3.0, None, 1.0], dtype=float)
                   - np.array([1.0, 0.0, None], dtype=float)).dropped == 2


def test_perceived_location_error_constant_bias(hrir_set, lookup):
    # Rendering every target 5 degrees off should read back as ~5 degrees RMS
    # against the free-field estimate of the target. The test renderings use
    # another noise probe than the reference, so the unbiased one reads
    # the estimate's dependence on the signal, not an exact 0.
    targets = np.array([-30.0, -15.0, 0.0, 15.0, 30.0])
    reference = np.array([localize(_render(hrir_set, az), lookup).fine_azimuth
                          for az in targets], dtype=float)

    def ple(bias):
        return PleCell(np.array(
            [localize(_render(hrir_set, az + bias, seed=23), lookup)
             .fine_azimuth for az in targets], dtype=float) - reference)

    res = ple(5.0)
    assert res.dropped == 0
    assert res.value == pytest.approx(5.0, abs=2.0)

    base = ple(0.0)
    assert base.dropped == 0
    assert base.value < 2.0
    assert base.value < res.value
