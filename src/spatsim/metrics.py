"""Performance measures: beam patterns, SNR improvement, spectral distance,
and their error functions against the free-field reference condition."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .binsim import (AudioBuffer, RenderOutput, noise_scale,
                     render_reference, render_source, ReceiverBank,
                     VirtualSource)
from .dsp import erb_bandwidth, erb_number, erb_to_hz
from .geometry import ListenerPose, Position2D
from .hrir import HrirSet
from .signals import white_noise

BEAM_PATTERN_FLOOR_DB = -35.0
NOMINAL_INPUT_SNRS = tuple(float(s) for s in range(-20, 21, 5))
PATTERN_AZIMUTHS = np.arange(0.0, 360.0, 5.0)


# ---------------------------------------------------------------------------
# Third-octave band analysis


@dataclass(frozen=True)
class BandGrid:
    """Contiguous third-octave bands (IEC base-10 spacing)."""

    centers: np.ndarray
    edges: np.ndarray           # len(centers) + 1

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "edges", np.asarray(self.edges, dtype=float))
        if len(self.edges) != len(self.centers) + 1:
            raise ValueError("edges must bracket every center")
        if np.any(np.diff(self.centers) <= 0) or np.any(np.diff(self.edges) <= 0):
            raise ValueError("centers and edges must be increasing")

    def __len__(self):
        return len(self.centers)


def make_third_octave_grid(f_min: float = 100.0,
                           f_max: float = 8000.0) -> BandGrid:
    """Third-octave centers 1000 * 10**(n/10) covering [f_min, f_max]."""
    n = np.arange(-20, 21)
    centers = 1000.0 * 10.0 ** (n / 10.0)
    keep = (centers >= f_min * 0.999) & (centers <= f_max * 1.001)
    centers = centers[keep]
    edges = np.concatenate([centers * 10.0 ** (-1.0 / 20.0),
                            [centers[-1] * 10.0 ** (1.0 / 20.0)]])
    return BandGrid(centers=centers, edges=edges)


def third_octave_analyze(samples: np.ndarray, sample_rate: int,
                         grid: BandGrid) -> np.ndarray:
    """Band powers by spectral integration; the sum over a full-range grid
    equals the total signal power (Parseval).

    Band b holds the bins whose frequency lies in [edges[b], edges[b + 1]),
    a contiguous bin range, so the PSD is formed only over the grid's span
    and each band sums one slice of it.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    n = x.shape[1]
    bounds = np.searchsorted(np.fft.rfftfreq(n, 1.0 / sample_rate),
                             grid.edges)
    lo = bounds[0]
    # Fortran order, the layout of a boolean-mask copy psd[:, mask]: a band
    # sum then adds the bins of all rows in the same order as that copy's.
    psd = np.asfortranarray(
        np.abs(np.fft.rfft(x, axis=1)[:, lo:bounds[-1]]) ** 2 / n ** 2)
    # One-sided spectrum: every bin but DC and an even length's Nyquist bin
    # stands for two.
    psd[:, max(1, lo) - lo:(n - 1) // 2 + 1 - lo] *= 2.0
    powers = np.empty((x.shape[0], len(grid)))
    for b in range(len(grid)):
        powers[:, b] = psd[:, bounds[b] - lo:bounds[b + 1] - lo].sum(axis=1)
    return powers


# ---------------------------------------------------------------------------
# Beam pattern and beam error


@dataclass
class BeamPattern:
    """Gain in dB over (azimuth, band), floored at the pattern floor."""

    azimuths: np.ndarray
    grid: BandGrid
    gains_db: np.ndarray        # (n_azimuths, n_bands)


def _algorithm_io_powers(algorithm, rendered: AudioBuffer,
                         grid: BandGrid) -> tuple:
    ref_idx = getattr(algorithm, "reference_channel_indices",
                      tuple(range(rendered.channels)))
    p_in = third_octave_analyze(rendered.samples[list(ref_idx)],
                                rendered.sample_rate, grid).sum(axis=0)
    out = algorithm.process(rendered)
    p_out = third_octave_analyze(out.samples, out.sample_rate, grid).sum(axis=0)
    return p_in, p_out


def beam_pattern(algorithm, method, bank: ReceiverBank | None,
                 hrir_set: HrirSet, pose: ListenerPose, grid: BandGrid,
                 probe_duration: float = 1.0, seed: int = 0,
                 source_distance: float | None = None,
                 azimuths: np.ndarray = PATTERN_AZIMUTHS) -> BeamPattern:
    """Band gains versus probe azimuth through the full reproduction and
    processing chain. `method=None` measures the free-field reference (no
    bank); otherwise the probes go through the algorithm's channels of
    `bank`."""
    probe = white_noise(probe_duration, hrir_set.sample_rate, seed=seed)
    if source_distance is None:
        source_distance = (bank.array.radius if bank is not None
                           else hrir_set.distance)
    if method is not None:
        bank = bank.select(algorithm.channels)
    gains = np.empty((len(azimuths), len(grid)))
    for i, az in enumerate(azimuths):
        src = VirtualSource(probe, Position2D.from_polar(az, source_distance))
        if method is None:
            rendered = render_reference(src, hrir_set, pose, algorithm.channels)
        else:
            rendered = render_source(method, bank, src)
        p_in, p_out = _algorithm_io_powers(algorithm, rendered, grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = 10.0 * np.log10(p_out / p_in)
        g[~np.isfinite(g)] = BEAM_PATTERN_FLOOR_DB
        gains[i] = np.maximum(g, BEAM_PATTERN_FLOOR_DB)
    return BeamPattern(azimuths=np.asarray(azimuths, dtype=float),
                       grid=grid, gains_db=gains)


def beam_error(ref: BeamPattern, test: BeamPattern,
               normalized: bool = True) -> np.ndarray:
    """Per-band azimuth aggregation of gain deviations.

    `normalized=True` returns the RMS across azimuths; `normalized=False`
    returns the plain root-sum-of-squares, which is the form the published
    5.7 dB criterion refers to.
    """
    if (ref.gains_db.shape != test.gains_db.shape
            or not np.array_equal(ref.azimuths, test.azimuths)):
        raise ValueError("beam patterns are on different grids")
    dg2 = (ref.gains_db - test.gains_db) ** 2
    if normalized:
        return np.sqrt(dg2.mean(axis=0))
    return np.sqrt(dg2.sum(axis=0))


# ---------------------------------------------------------------------------
# SNR improvement and SNR error


@dataclass
class SnrSweep:
    """Band SNR improvement per nominal broad-band input SNR."""

    input_snrs: tuple
    grid: BandGrid
    delta_r: np.ndarray         # (n_snrs, n_bands), nan for excluded bands


def _band_snr_db(p_t: np.ndarray, p_n: np.ndarray) -> np.ndarray:
    """Band SNR in dB from target and noise band powers; NaN where either
    power is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = 10.0 * np.log10(p_t / p_n)
    snr[(p_t <= 0) | (p_n <= 0)] = np.nan
    return snr


def snr_improvement(algorithm, stems: RenderOutput, grid: BandGrid,
                    input_snrs: tuple = NOMINAL_INPUT_SNRS) -> SnrSweep:
    """Long-term band SNR improvement via shadow filtering.

    `stems` are uncalibrated scene stems (render_scene_stems); each nominal
    SNR rescales the noise stem before processing. Every step before the
    algorithm's operation is linear, so the stems are transformed once and
    only the scale changes with the SNR.
    """
    ref_idx = list(getattr(algorithm, "reference_channel_indices",
                           range(len(algorithm.channels))))
    rate = stems.mixture.sample_rate

    def band_power(samples):
        return third_octave_analyze(samples, rate, grid).sum(axis=0)

    spectra = algorithm.analyze_stems(stems)
    p_t_in = band_power(stems.target_only.samples[ref_idx])
    p_n_in = band_power(stems.noise_only.samples[ref_idx])
    delta = np.empty((len(input_snrs), len(grid)))
    for i, snr in enumerate(input_snrs):
        scale = noise_scale(stems, snr)
        target, noise = algorithm.shadow_stems(stems, spectra, scale)
        r_in = _band_snr_db(p_t_in, scale ** 2 * p_n_in)
        r_out = _band_snr_db(band_power(target.samples),
                             band_power(noise.samples))
        delta[i] = r_out - r_in
    return SnrSweep(input_snrs=tuple(input_snrs), grid=grid, delta_r=delta)


def snr_error(ref: SnrSweep, test: SnrSweep) -> np.ndarray:
    """Per-band RMS of the SNR-improvement deviation across input SNRs."""
    if ref.input_snrs != test.input_snrs or len(ref.grid) != len(test.grid):
        raise ValueError("SNR sweeps are on different grids")
    d2 = (ref.delta_r - test.delta_r) ** 2
    return np.sqrt(np.nanmean(d2, axis=0))


# ---------------------------------------------------------------------------
# Monaural spectral distance


# Weighted combination of excitation-pattern differences; term weights after
# the naturalness model of Moore & Tan (J. Audio Eng. Soc. 52, 2004), scaled
# to its reported 0..~1 distance range for speech.
SPECTRAL_WEIGHT_ABS = 0.020      # per dB mean absolute excitation difference
SPECTRAL_WEIGHT_RIPPLE = 0.020   # per dB excitation ripple deviation
SPECTRAL_WEIGHT_SLOPE = 0.010    # per dB/ERB-step slope deviation


@functools.lru_cache(maxsize=1)
def _erb_weights(n: int, sample_rate: int, f_lo: float, f_hi: float,
                 step_erb: float) -> np.ndarray:
    """Rounded-exponential weights of the ERB-spaced filters over the rfft
    bins of an `n`-sample signal, one row per filter. Only the last set is
    kept: at n = 53k it takes 13 MB, and a sweep compares signals of one
    length."""
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    e_centers = np.arange(erb_number(f_lo), erb_number(f_hi) + 1e-9, step_erb)
    rows = []
    for fc in erb_to_hz(e_centers):
        p = 4.0 * (np.abs(freqs - fc) / erb_bandwidth(fc))
        rows.append((1.0 + p) * np.exp(-p))
    return np.array(rows)


def _erb_excitation(signals, sample_rate: int, f_lo: float = 100.0,
                    f_hi: float = 8000.0, step_erb: float = 0.5) -> np.ndarray:
    """Excitation patterns in dB, one row per signal (all of one length),
    from the long-term power spectrum through an ERB-spaced
    rounded-exponential filterbank."""
    x = np.stack([np.asarray(s, dtype=float).ravel() for s in signals])
    n = x.shape[1]
    psds = np.abs(np.fft.rfft(x, axis=1)) ** 2 / n ** 2
    psds[:, 1:] *= 2.0
    weights = _erb_weights(n, sample_rate, f_lo, f_hi, step_erb)
    excitation = np.empty((len(psds), len(weights)))
    for i, w in enumerate(weights):
        for j, psd in enumerate(psds):
            excitation[j, i] = np.maximum((w * psd).sum(), 1e-30)
    return 10.0 * np.log10(excitation)


def spectral_distance(ref: np.ndarray, test: np.ndarray,
                      sample_rate: int) -> float:
    """Scalar spectral distance from excitation-pattern differences.

    Combines mean absolute difference, ripple (deviation from the smoothed
    difference) and slope difference by a weighted sum. Signals are
    level-matched before comparison; identical signals give 0.
    """
    ref = np.asarray(ref, dtype=float).ravel()
    test = np.asarray(test, dtype=float).ravel()
    n = min(len(ref), len(test))
    ref, test = ref[:n], test[:n]
    p_ref = np.mean(np.square(ref))
    p_test = np.mean(np.square(test))
    if p_ref <= 0 or p_test <= 0:
        raise ValueError("spectral distance undefined for silent input")
    test = test * np.sqrt(p_ref / p_test)

    e_ref, e_test = _erb_excitation((ref, test), sample_rate)
    diff = e_test - e_ref
    d_abs = np.mean(np.abs(diff))
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(diff, kernel, mode="same")
    d_ripple = np.mean(np.abs(diff - smooth))
    d_slope = np.mean(np.abs(np.diff(diff)))
    return (SPECTRAL_WEIGHT_ABS * d_abs
            + SPECTRAL_WEIGHT_RIPPLE * d_ripple
            + SPECTRAL_WEIGHT_SLOPE * d_slope)
