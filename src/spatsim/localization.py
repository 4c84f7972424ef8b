"""Binaural localization model: interaural statistics in gammatone bands,
coherence-gated glimpses, and a self-calibrated cue-to-azimuth lookup.

The model estimates source direction from fine-structure cues in 12
gammatone bands between 236 and 1296 Hz. The cue-to-azimuth mapping is
built by probing the same receiver model under free-field conditions, so it
never assumes an analytic head geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .binsim import AudioBuffer, render_reference, VirtualSource
from .dsp import erb_bandwidth, erb_number, erb_to_hz, one_pole_smooth
from .geometry import Position2D
from .hrir import CHANNELS_LOCALIZATION, HrirSet
from .signals import speech_shaped_noise

FINE_BAND_LO_HZ = 236.0
FINE_BAND_HI_HZ = 1296.0
FINE_BAND_COUNT = 12

COHERENCE_THRESHOLD = 0.98
COHERENCE_TAU = 0.005          # seconds, interaural statistic smoothing
LOOKUP_AZIMUTHS = np.arange(-90.0, 90.1, 5.0)
PLE_TARGET_AZIMUTHS = np.arange(-75.0, 75.1, 5.0)


def gammatone_centers(f_lo: float, f_hi: float, count: int) -> np.ndarray:
    """ERB-number-equidistant center frequencies spanning [f_lo, f_hi]."""
    return erb_to_hz(np.linspace(erb_number(f_lo), erb_number(f_hi), count))


def gammatone_band(x: np.ndarray, fc: float, sample_rate: int) -> np.ndarray:
    """Complex-valued 4th-order gammatone subband (cascade of one-pole
    complex resonators at the band center)."""
    b = 1.019 * erb_bandwidth(fc)
    pole = np.exp(-2.0 * np.pi * b / sample_rate
                  + 2.0j * np.pi * fc / sample_rate)
    y = np.asarray(x, dtype=complex)
    norm = (1.0 - np.abs(pole)) ** 4
    for _ in range(4):
        y = lfilter([1.0], [1.0, -pole], y)
    # Peak gain of the cascade is ~(1-|pole|)^-4; normalize to unity.
    return 2.0 * norm * y


@dataclass
class BandCues:
    """Glimpsed interaural cues of one band."""

    statistic: np.ndarray       # interaural phase statistic per glimpse, rad
    ild_db: np.ndarray          # level difference (L - R) per glimpse


def _band_cues(yl: np.ndarray, yr: np.ndarray, sample_rate: int) -> BandCues:
    """The glimpses of one band, from its smoothed interaural vector
    strength, and at them only the phase statistic (the phase of the
    smoothed cross spectrum) and the ILD (non-finite values as 0 dB)."""
    cross = yl * np.conj(yr)
    mag = np.abs(cross)
    unit = np.where(mag > 0.0, cross / np.maximum(mag, 1e-30), 0.0)
    vs = one_pole_smooth(unit, COHERENCE_TAU, sample_rate)
    mask = _glimpse_mask(np.abs(vs))
    phase = np.angle(one_pole_smooth(cross, COHERENCE_TAU, sample_rate)[mask])
    pl = one_pole_smooth(np.abs(yl) ** 2, COHERENCE_TAU, sample_rate)[mask]
    pr = one_pole_smooth(np.abs(yr) ** 2, COHERENCE_TAU, sample_rate)[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        ild = 10.0 * np.log10(pl / pr)
    ild[~np.isfinite(ild)] = 0.0
    return BandCues(phase, ild)


def _glimpse_mask(coherence: np.ndarray) -> np.ndarray:
    """Samples where interaural coherence is high and still rising."""
    rising = np.empty_like(coherence, dtype=bool)
    rising[0] = False
    rising[1:] = np.diff(coherence) > 0.0
    return (coherence > COHERENCE_THRESHOLD) & rising


def extract_cues(buffer: AudioBuffer) -> list:
    """Interaural fine-structure cues at glimpses, one BandCues per band.

    Bands without any glimpse carry empty cue arrays.
    """
    if buffer.channels != 2:
        raise ValueError("localization input must be the two in-ear channels")
    left, right = buffer.samples
    rate = buffer.sample_rate

    bands = []
    for fc in gammatone_centers(FINE_BAND_LO_HZ, FINE_BAND_HI_HZ,
                                FINE_BAND_COUNT):
        bands.append(_band_cues(gammatone_band(left, fc, rate),
                                gammatone_band(right, fc, rate), rate))
    return bands


@dataclass
class CueLookup:
    """Per-band monotone mapping from interaural statistic to azimuth."""

    azimuths: np.ndarray
    fine_tables: np.ndarray     # (n_fine_bands, n_azimuths)


def _median_statistic(band: BandCues) -> float:
    if len(band.statistic) == 0:
        return np.nan
    return float(np.median(band.statistic))


def build_cue_lookup(hrir_set: HrirSet, probe_duration: float = 0.5,
                     seed: int = 7, azimuths: np.ndarray = LOOKUP_AZIMUTHS,
                     map=map) -> CueLookup:
    """Calibrate cue-to-azimuth tables by free-field probes at the HRIR
    distance to a centred listener, through the same receiver model used
    for evaluation.

    `map(column, azimuths)` computes the table's columns, one per azimuth
    and in azimuth order; a pool's map may run them in other processes.
    """
    probe = speech_shaped_noise(probe_duration, hrir_set.sample_rate, seed=seed)

    def column(az: float) -> list:
        """Per band, the median statistic of the probe from `az`."""
        src = VirtualSource(probe,
                            Position2D.from_polar(az, hrir_set.distance))
        rendered = render_reference(src, hrir_set, Position2D(0.0, 0.0),
                                    CHANNELS_LOCALIZATION)
        return [_median_statistic(b) for b in extract_cues(rendered)]

    fine = np.empty((FINE_BAND_COUNT, len(azimuths)))
    for i, values in enumerate(map(column, azimuths)):
        fine[:, i] = values
    return CueLookup(azimuths=np.asarray(azimuths, dtype=float),
                     fine_tables=fine)


def _invert_table(table: np.ndarray, azimuths: np.ndarray,
                  value: float) -> float:
    """Azimuth for one statistic value via the calibrated table.

    The table is made monotone by sorting; for a front-hemisphere head model
    the statistic increases with azimuth apart from calibration noise.
    """
    good = np.isfinite(table)
    if good.sum() < 2:
        return np.nan
    stat = table[good]
    az = azimuths[good]
    order = np.argsort(stat)
    return float(np.interp(value, stat[order], az[order]))


@dataclass
class LocalizationEstimate:
    fine_azimuth: float | None
    fine_glimpses: int


def localize(buffer: AudioBuffer, lookup: CueLookup) -> LocalizationEstimate:
    """Direction estimate from fine-structure cues: the median of the band
    votes.

    `fine_azimuth` is None when no band produced a usable glimpse, rather
    than defaulting to any direction.
    """
    votes = []
    glimpses = 0
    for band, table in zip(extract_cues(buffer), lookup.fine_tables):
        glimpses += len(band.statistic)
        if len(band.statistic) == 0:
            continue
        az = _invert_table(table, lookup.azimuths,
                           float(np.median(band.statistic)))
        if not np.isfinite(az):
            continue
        # Resolve front/back-symmetric phase ambiguity with the ILD sign:
        # a positive ILD (left louder) requires a left-hemisphere estimate.
        ild = float(np.median(band.ild_db))
        if abs(ild) > 1.0 and np.sign(ild) != np.sign(az) and az != 0.0:
            az = -az
        votes.append(az)
    return LocalizationEstimate(
        fine_azimuth=float(np.median(votes)) if votes else None,
        fine_glimpses=glimpses)
