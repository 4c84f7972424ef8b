"""Performance measures: beam patterns, SNR improvement, spectral distance,
and their error functions against the free-field reference condition."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.signal import fftconvolve

from .binsim import AudioBuffer, RenderOutput, noise_scale, ReceiverBank
from .dsp import erb_bandwidth, erb_number, erb_to_hz
from .geometry import Position2D
from .panner import method_weights
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
    if not len(centers):
        raise ValueError(f"no third-octave centre in {f_min:g}-{f_max:g} Hz")
    edges = np.concatenate([centers * 10.0 ** (-1.0 / 20.0),
                            [centers[-1] * 10.0 ** (1.0 / 20.0)]])
    return BandGrid(centers=centers, edges=edges)


# Signal lengths whose largest prime factor exceeds this take the chirp-z
# zoom in `_band_span`. At or below it `np.fft.rfft`'s mixed-radix passes
# are as fast or faster; well above it rfft falls back to a Bluestein
# transform of at least twice the length and the zoom is 2-4 times faster
# (crossover table in CHANGES.md).
_ZOOM_MIN_PRIME = 400


@functools.lru_cache(maxsize=16)
def _largest_prime_factor(n: int) -> int:
    factor, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            factor, n = p, n // p
        p += 1
    return max(factor, n)


@functools.lru_cache(maxsize=4)
def _zoom_chirps(n: int, lo: int, m: int) -> tuple:
    """The pre-chirp, the FFT of the chirp filter and the post-chirp that
    zoom onto DFT bins lo:lo + m of an `n`-sample signal (Bluestein): with
    jk = (j^2 + k^2 - (k - j)^2) / 2, bin lo + k is the post-chirp times the
    convolution of the pre-chirped signal with the filter exp(i pi d^2 / n).
    Every phase pi t / n is reduced to t mod 2n in integers before the
    exponential, so no large argument loses precision."""
    def chirp(t, sign):
        return np.exp(sign * 1j * np.pi * (t % (2 * n)) / n)

    j = np.arange(n, dtype=np.int64)
    d = np.arange(1 - n, m, dtype=np.int64)
    filt = np.zeros(scipy.fft.next_fast_len(n + m - 1), dtype=complex)
    filt[d % len(filt)] = chirp(d * d, 1.0)
    return (chirp(j * (j + 2 * lo), -1.0), scipy.fft.fft(filt),
            chirp(j[:m] * j[:m], -1.0))


def _zoom(x: np.ndarray, lo: int, m: int) -> np.ndarray:
    """DFT bins lo:lo + m of each row of `x` by the exact chirp-z zoom, one
    row at a time (a row's bins do not depend on the other rows)."""
    pre, filt, post = _zoom_chirps(x.shape[-1], lo, m)
    out = np.empty((x.shape[0], m), dtype=complex)
    for row, signal in zip(out, x):
        y = scipy.fft.fft(signal * pre, len(filt), overwrite_x=True)
        y *= filt
        row[:] = scipy.fft.ifft(y, overwrite_x=True)[:m]
        row *= post
    return out


def _band_span(x: np.ndarray, sample_rate: int, grid: BandGrid) -> tuple:
    """The rfft bins of the rows of `x` that the grid's bands cover, the
    bin bounds (band b holds bins bounds[b]:bounds[b + 1]) and the length.

    A length with a prime factor above `_ZOOM_MIN_PRIME`, such as a scene
    stem of 101,514 = 2 * 3 * 7 * 2417 samples, gets the span's bins from
    the chirp-z zoom (`_zoom`), which convolves at a fast FFT length near
    the length plus the span; they equal rfft's to round-off. Other lengths
    take `np.fft.rfft`."""
    n = x.shape[-1]
    bounds = np.searchsorted(np.fft.rfftfreq(n, 1.0 / sample_rate), grid.edges)
    lo, hi = int(bounds[0]), int(bounds[-1])
    if _largest_prime_factor(n) > _ZOOM_MIN_PRIME:
        return _zoom(x, lo, hi - lo), bounds, n
    return np.fft.rfft(x, axis=-1)[..., lo:hi], bounds, n


def _doubled_bins(n: int, lo: int = 0) -> slice:
    """The bins of a one-sided power spectrum of an `n`-sample signal that
    stand for two, as a slice of its bins from `lo` on: every bin but DC
    and an even length's Nyquist bin."""
    return slice(max(1, lo) - lo, (n - 1) // 2 + 1 - lo)


def _band_powers(span: np.ndarray, bounds: np.ndarray, n: int) -> np.ndarray:
    """Band powers of `n`-sample signals from their `_band_span`, one row
    per row of `span`."""
    lo = bounds[0]
    # Fortran order, the layout of a boolean-mask copy psd[:, mask]: a band
    # sum then adds the bins of all rows in the same order as that copy's.
    psd = np.asfortranarray(np.abs(span) ** 2 / n ** 2)
    psd[:, _doubled_bins(n, lo)] *= 2.0
    powers = np.empty((span.shape[0], len(bounds) - 1))
    for b in range(len(bounds) - 1):
        powers[:, b] = psd[:, bounds[b] - lo:bounds[b + 1] - lo].sum(axis=1)
    return powers


def third_octave_analyze(samples: np.ndarray, sample_rate: int,
                         grid: BandGrid) -> np.ndarray:
    """Band powers by spectral integration; the sum over a full-range grid
    equals the total signal power (Parseval).

    Band b holds the bins whose frequency lies in [edges[b], edges[b + 1]),
    a contiguous bin range, so the PSD is formed only over the grid's span
    and each band sums one slice of it.
    """
    x = np.atleast_2d(np.asarray(samples, dtype=float))
    return _band_powers(*_band_span(x, sample_rate, grid))


# ---------------------------------------------------------------------------
# Beam pattern and beam error


def beam_pattern(algorithm, method, bank: ReceiverBank, grid: BandGrid,
                 probe_duration: float = 1.0, seed: int = 0,
                 azimuths: np.ndarray = PATTERN_AZIMUTHS) -> np.ndarray:
    """Band gains in dB over (azimuth, band) through the reproduction and
    processing chain, floored, for probes on the circle of the bank's array.
    The free-field pattern is the NSP pattern of a ring with one speaker on
    every probe azimuth: a probe on a speaker is its own NSP rendering.

    The probe goes through the algorithm's channels of `bank` once per
    speaker, and each azimuth mixes the spectra of those responses with its
    driving weights. That equals rendering and processing every azimuth up
    to round-off only because all probes lie at one distance and
    `algorithm` is linear (the MVDR core is; the post-filtered
    MvdrBeamformer is not)."""
    bank = bank.select(algorithm.channels)
    probe = white_noise(probe_duration, bank.set.sample_rate, seed=seed)
    probes = [Position2D.from_polar(az, bank.array.radius) for az in azimuths]
    # (azimuth, speaker)
    mix = np.array([method_weights(method, bank.array, p) for p in probes])
    ref_idx = list(algorithm.reference_channel_indices)
    spectra = ([], [])      # input and output, (speaker, channel, bin)
    # Each speaker alone, at the probes' shared delay and attenuation.
    for ir in bank.speaker_irs(probes[0]):
        rendered = AudioBuffer(bank.set.sample_rate,
                               fftconvolve(probe[None, :], ir, axes=1))
        for out, x in zip(spectra, (rendered.samples[ref_idx],
                                    algorithm.process(rendered).samples)):
            span, bounds, n = _band_span(x, rendered.sample_rate, grid)
            out.append(span)
    p_in, p_out = [np.array([_band_powers(a, bounds, n).sum(axis=0)
                             for a in np.tensordot(mix, np.stack(s),
                                                   axes=(1, 0))])
                   for s in spectra]
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 10.0 * np.log10(p_out / p_in)
    gains[~np.isfinite(gains)] = BEAM_PATTERN_FLOOR_DB
    return np.maximum(gains, BEAM_PATTERN_FLOOR_DB)


def beam_error(ref: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Per-band root-sum-of-squares of the gain deviations of two (azimuth,
    band) patterns across azimuths, the form of the 5.7 dB criterion."""
    if ref.shape != test.shape:
        raise ValueError("beam patterns are on different grids")
    return np.sqrt(((ref - test) ** 2).sum(axis=0))


# ---------------------------------------------------------------------------
# SNR improvement and SNR error


def _band_snr_db(p_t: np.ndarray, p_n: np.ndarray) -> np.ndarray:
    """Band SNR in dB from target and noise band powers; NaN where either
    power is zero."""
    with np.errstate(divide="ignore", invalid="ignore"):
        snr = 10.0 * np.log10(p_t / p_n)
    snr[(p_t <= 0) | (p_n <= 0)] = np.nan
    return snr


def snr_improvement(algorithm, stems: RenderOutput, grid: BandGrid,
                    input_snrs: tuple = NOMINAL_INPUT_SNRS) -> np.ndarray:
    """Long-term band SNR improvement over (input SNR, band) via shadow
    filtering, NaN in bands where a stem has no power.

    `stems` are uncalibrated scene stems (render_scene_stems) over at least
    the algorithm's channels, which it picks by name; each nominal SNR
    rescales the noise stem before processing. Every step before the
    algorithm's operation is linear, so the stems are transformed once and
    only the scale changes with the SNR.
    """
    ref_rows = [stems.channels.index(algorithm.channels[i])
                for i in algorithm.reference_channel_indices]
    rate = stems.target_only.sample_rate

    def band_power(samples):
        return third_octave_analyze(samples, rate, grid).sum(axis=0)

    spectra = algorithm.analyze_stems(stems)
    p_t_in = band_power(stems.target_only.samples[ref_rows])
    p_n_in = band_power(stems.noise_only.samples[ref_rows])
    delta = np.empty((len(input_snrs), len(grid)))
    for i, snr in enumerate(input_snrs):
        scale = noise_scale(stems, snr)
        target, noise = algorithm.shadow_stems(stems, spectra, scale)
        r_in = _band_snr_db(p_t_in, scale ** 2 * p_n_in)
        r_out = _band_snr_db(band_power(target.samples),
                             band_power(noise.samples))
        delta[i] = r_out - r_in
    return delta


def snr_error(ref: np.ndarray, test: np.ndarray) -> np.ndarray:
    """Per-band RMS across input SNRs of the deviation of two (input SNR,
    band) SNR improvements."""
    if ref.shape != test.shape:
        raise ValueError("SNR sweeps are on different grids")
    return np.sqrt(np.nanmean((ref - test) ** 2, axis=0))


# ---------------------------------------------------------------------------
# Monaural spectral distance


# Weighted combination of excitation-pattern differences; term weights after
# the naturalness model of Moore & Tan (J. Audio Eng. Soc. 52, 2004), scaled
# to its reported 0..~1 distance range for speech.
SPECTRAL_WEIGHT_ABS = 0.020      # per dB mean absolute excitation difference
SPECTRAL_WEIGHT_RIPPLE = 0.020   # per dB excitation ripple deviation
SPECTRAL_WEIGHT_SLOPE = 0.010    # per dB/ERB-step slope deviation


@functools.lru_cache(maxsize=1)
def _erb_weights(n: int, sample_rate: int, f_hi: float) -> np.ndarray:
    """Rounded-exponential weights of the filters spaced 0.5 ERB apart
    from 100 Hz to `f_hi` over the rfft bins of an `n`-sample signal, one
    row per filter. Only the last set is kept: at n = 53k it takes 13 MB,
    and the probe renders of one sweep unit are of one length."""
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    e_centers = np.arange(erb_number(100.0), erb_number(f_hi) + 1e-9, 0.5)
    rows = []
    for fc in erb_to_hz(e_centers):
        p = 4.0 * (np.abs(freqs - fc) / erb_bandwidth(fc))
        rows.append((1.0 + p) * np.exp(-p))
    return np.array(rows)


def excitation_pattern(signal, sample_rate: int,
                       f_hi: float = 8000.0) -> np.ndarray:
    """Excitation pattern in dB of one signal scaled to unit mean-square
    power, from its long-term power spectrum through an ERB-spaced
    rounded-exponential filterbank."""
    x = np.asarray(signal, dtype=float)
    power = np.mean(np.square(x))
    if power <= 0:
        raise ValueError("excitation pattern undefined for silent input")
    n = len(x)
    psd = np.abs(np.fft.rfft(x / np.sqrt(power))) ** 2 / n ** 2
    psd[_doubled_bins(n)] *= 2.0
    excitation = [(w * psd).sum() for w in _erb_weights(n, sample_rate, f_hi)]
    return 10.0 * np.log10(np.maximum(excitation, 1e-30))


def spectral_distance(ref: np.ndarray, test: np.ndarray) -> float:
    """Scalar spectral distance of a test excitation pattern from a
    reference one (`excitation_pattern`, so both are level-matched).

    Combines mean absolute difference, ripple (deviation from the smoothed
    difference) and slope difference by a weighted sum; identical patterns
    give 0.
    """
    diff = test - ref
    d_abs = np.mean(np.abs(diff))
    kernel = np.ones(5) / 5.0
    smooth = np.convolve(diff, kernel, mode="same")
    d_ripple = np.mean(np.abs(diff - smooth))
    d_slope = np.mean(np.abs(np.diff(diff)))
    return (SPECTRAL_WEIGHT_ABS * d_abs
            + SPECTRAL_WEIGHT_RIPPLE * d_ripple
            + SPECTRAL_WEIGHT_SLOPE * d_slope)
