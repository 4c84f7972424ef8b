import functools

import numpy as np
import pytest

from spatsim.binsim import AudioBuffer, VirtualSource, render_reference
from spatsim.geometry import ListenerPose, Position2D
from spatsim.hrir import CHANNELS_LOCALIZATION
import spatsim.harness as harness
from spatsim.harness import PleCell
from spatsim.localization import (build_cue_lookup, extract_cues,
                                  gammatone_band, gammatone_centers, localize)
from spatsim.signals import speech_shaped_noise, white_noise

RATE = 48000
CENTER = ListenerPose.center()


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
    assert PleCell.from_estimates([3.0, None, 1.0],
                                  [1.0, 0.0, None]).dropped == 2


def test_perceived_location_error_constant_bias(hrir_set, lookup):
    # Rendering every target 5 degrees off should read back as ~5 degrees RMS
    # against the free-field estimate of the target. The test renderings use
    # another noise probe than the reference, so the unbiased one reads
    # the estimate's dependence on the signal, not an exact 0.
    targets = np.array([-30.0, -15.0, 0.0, 15.0, 30.0])
    reference = [localize(_render(hrir_set, az), lookup).fine_azimuth
                 for az in targets]

    def ple(bias):
        return PleCell.from_estimates(
            [localize(_render(hrir_set, az + bias, seed=23), lookup)
             .fine_azimuth for az in targets], reference)

    res = ple(5.0)
    assert res.dropped == 0
    assert res.value == pytest.approx(5.0, abs=2.0)

    base = ple(0.0)
    assert base.dropped == 0
    assert base.value < 2.0
    assert base.value < res.value
