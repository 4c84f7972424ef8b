import numpy as np
import pytest

import spatsim.metrics as metrics
from spatsim.dsp import erb_bandwidth, erb_number, erb_to_hz
from spatsim.binsim import ReceiverBank, SceneSpec, VirtualSource, noise_scale
from spatsim.geometry import Position2D, build_array
from spatsim.haalgo import (AdaptiveDifferentialMic, CoherenceNoiseReduction,
                            MvdrBeamformer, MvdrCoreBeamformer,
                            SingleChannelNoiseReduction,
                            SpectralGainAlgorithm)
from spatsim.hrir import CHANNELS_BEAMFORMER
from spatsim.metrics import (BEAM_PATTERN_FLOOR_DB, BandGrid,
                             NOMINAL_INPUT_SNRS, PATTERN_AZIMUTHS,
                             beam_error, beam_pattern, make_third_octave_grid,
                             snr_error, snr_improvement, spectral_distance,
                             third_octave_analyze)
from spatsim.panner import ReproductionMethod
from spatsim.signals import (make_default_scene, speech_shaped_noise,
                             white_noise)

from conftest import beam_pattern_per_azimuth, free_field_stems

RATE = 48000
CENTER = Position2D(0.0, 0.0)


# ---------------------------------------------------------------------------
# Band grid and band analysis


def test_grid_structure():
    grid = make_third_octave_grid(100.0, 8000.0)
    assert len(grid) == 20
    assert grid.centers[0] == pytest.approx(100.0, rel=1e-3)
    assert np.isclose(grid.centers, 1000.0, rtol=1e-9).any()
    assert grid.centers[-1] == pytest.approx(1000.0 * 10.0 ** 0.9, rel=1e-9)
    # Adjacent centers are one tenth of a decade apart.
    ratios = grid.centers[1:] / grid.centers[:-1]
    assert np.allclose(ratios, 10.0 ** 0.1)
    # Edges tile the axis: upper edge of band b is the lower edge of b+1.
    assert np.allclose(grid.edges[1:-1] / grid.centers[:-1], 10.0 ** 0.05)


def test_grid_validation():
    with pytest.raises(ValueError):
        BandGrid(centers=np.array([100.0, 200.0]), edges=np.array([90.0, 150.0]))
    with pytest.raises(ValueError):
        BandGrid(centers=np.array([200.0, 100.0]),
                 edges=np.array([250.0, 150.0, 90.0]))


def test_band_analysis_parseval():
    grid = make_third_octave_grid(100.0, 8000.0)
    x = white_noise(2.0, RATE, seed=3)
    # Band-limit the probe to the grid range so the band sum captures all of
    # its power.
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(len(x), 1.0 / RATE)
    spec[(freqs < grid.edges[0]) | (freqs >= grid.edges[-1])] = 0.0
    x = np.fft.irfft(spec, len(x))
    total = np.mean(x ** 2)
    band_sum = third_octave_analyze(x, RATE, grid)[0].sum()
    assert 10.0 * np.log10(band_sum / total) == pytest.approx(0.0, abs=0.2)


def test_band_analysis_sine_band():
    grid = make_third_octave_grid(100.0, 8000.0)
    t = np.arange(int(RATE * 0.5)) / RATE
    x = np.sin(2.0 * np.pi * 1000.0 * t)
    p = third_octave_analyze(x, RATE, grid)[0]
    band = int(np.argmin(np.abs(grid.centers - 1000.0)))
    assert p[band] / p.sum() > 0.95
    assert p.sum() == pytest.approx(0.5, rel=0.05)


def test_band_analysis_white_noise_tilt():
    # White noise has band powers proportional to bandwidth: +1 dB per band.
    grid = make_third_octave_grid(100.0, 8000.0)
    x = white_noise(20.0, RATE, seed=4)
    p = third_octave_analyze(x, RATE, grid)[0]
    levels = 10.0 * np.log10(p)
    slope = np.polyfit(np.arange(len(p)), levels, 1)[0]
    assert slope == pytest.approx(1.0, abs=0.1)
    # Narrow low bands average few FFT bins; check per-band steps only where
    # the bands are wide enough to be stable.
    wide = grid.centers[:-1] > 500.0
    steps = np.diff(levels)[wide]
    assert np.all(np.abs(steps - 1.0) < 0.5)


def test_band_analysis_multichannel_shape():
    grid = make_third_octave_grid()
    x = np.vstack([white_noise(0.2, RATE, seed=1),
                   white_noise(0.2, RATE, seed=2)])
    p = third_octave_analyze(x, RATE, grid)
    assert p.shape == (2, len(grid))
    assert np.all(p > 0)


def _band_powers_by_mask(x, rate, grid):
    """third_octave_analyze over the full one-sided PSD with one boolean
    bin mask per band."""
    x = np.atleast_2d(x)
    n = x.shape[1]
    psd = np.abs(np.fft.rfft(x, axis=1)) ** 2 / n ** 2
    psd[:, 1:] *= 2.0
    if n % 2 == 0:
        psd[:, -1] /= 2.0
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    return np.stack([psd[:, (freqs >= lo) & (freqs < hi)].sum(axis=1)
                     for lo, hi in zip(grid.edges[:-1], grid.edges[1:])],
                    axis=1)


def test_band_analysis_matches_mask_oracle():
    rng = np.random.default_rng(21)
    grids = (make_third_octave_grid(), make_third_octave_grid(10.0, 20000.0))
    for shape in ((1, 48000), (2, 53381), (6, 53380), (3, 101), (1, 7)):
        x = rng.standard_normal(shape)
        for grid in grids:
            expected = _band_powers_by_mask(x, RATE, grid)
            assert np.allclose(third_octave_analyze(x, RATE, grid), expected,
                               rtol=1e-13, atol=0.0)
    # A grid reaching past the Nyquist frequency of a short signal.
    x = rng.standard_normal((2, 64))
    grid = make_third_octave_grid(100.0, 20000.0)
    assert np.allclose(third_octave_analyze(x, 16000, grid),
                       _band_powers_by_mask(x, 16000, grid),
                       rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# Beam error


def test_beam_error_axioms():
    rng = np.random.default_rng(0)
    g = rng.normal(size=(72, 20))
    h = rng.normal(size=(72, 20))
    assert np.all(beam_error(g, g) == 0.0)
    assert np.all(beam_error(g, h) >= 0.0)


def test_beam_error_closed_form():
    # A constant 1 dB offset over 72 azimuths: root-sum-of-squares sqrt(72).
    ref = np.zeros((72, 20))
    test = np.ones((72, 20))
    assert np.allclose(beam_error(ref, test), np.sqrt(72.0))


def test_beam_error_grid_mismatch():
    with pytest.raises(ValueError):
        beam_error(np.zeros((72, 20)), np.zeros((36, 20)))


# ---------------------------------------------------------------------------
# SNR error


def test_snr_error_axioms_and_closed_form():
    rng = np.random.default_rng(1)
    d = rng.normal(size=(9, 20))
    e = rng.normal(size=(9, 20))
    assert np.all(snr_error(d, d) == 0.0)
    assert np.all(snr_error(d, e) >= 0.0)
    # Constant 1 dB deviation -> RMS of 1.0 per band.
    assert np.allclose(snr_error(d, d + 1.0), 1.0)


def test_snr_error_ignores_missing_bands():
    d = np.zeros((4, 20))
    e = np.ones((4, 20))
    e[0, :] = np.nan
    d[0, :] = np.nan
    err = snr_error(d, e)
    assert np.allclose(err, 1.0)


def test_snr_error_mismatch():
    with pytest.raises(ValueError):
        snr_error(np.zeros((3, 20)), np.zeros((4, 20)))


def test_nominal_input_snrs():
    assert NOMINAL_INPUT_SNRS == tuple(float(s) for s in range(-20, 21, 5))


# ---------------------------------------------------------------------------
# End-to-end measures with a trivial algorithm


class _Gain(SpectralGainAlgorithm):
    """Applies a constant broadband gain; a linear time-invariant map."""

    channels = ("in_ear_L", "in_ear_R")
    name = "gain"

    def __init__(self, gain=1.0):
        super().__init__()
        self.gain = gain

    def _operation(self, mix_spec, noise_spec):
        return self.gain

    def _apply(self, op, spec):
        return op * spec


def _stems(duration=0.25, n_noise=2):
    target = VirtualSource(speech_shaped_noise(duration, RATE, seed=21),
                           Position2D.from_polar(0.0, 3.0))
    noises = tuple(
        VirtualSource(speech_shaped_noise(duration, RATE, seed=30 + i),
                      Position2D.from_polar(60.0 + 120.0 * i, 2.0))
        for i in range(n_noise))
    scene = SceneSpec(target=target, noises=noises)
    return None, scene


def test_lti_algorithm_has_zero_snr_improvement(hrir_set):
    # A constant-gain algorithm cannot change any band SNR, at any input SNR.
    _, scene = _stems()
    stems = free_field_stems(scene, hrir_set, ("in_ear_L", "in_ear_R"))
    grid = make_third_octave_grid(100.0, 8000.0)
    delta = snr_improvement(_Gain(0.5), stems, grid, input_snrs=(0.0, 10.0))
    assert np.nanmax(np.abs(delta)) < 0.05
    # And the improvement is independent of the input SNR.
    assert np.allclose(np.nan_to_num(delta[0]), np.nan_to_num(delta[1]),
                       atol=1e-6)


def _snr_improvement_per_snr(algorithm, stems, grid, input_snrs):
    """The per-SNR path: calibrate the stems, shadow-filter the calibrated
    mixture, target and noise of the algorithm's channels from their own
    STFTs (the oracle noise spectrum from its own analysis too), and take
    band SNRs from full-length analyses of the calibrated input and
    processed stems."""
    stft = algorithm.stft
    rate = stems.target_only.sample_rate
    n = stems.target_only.samples.shape[1]
    rows = [stems.channels.index(c) for c in algorithm.channels]
    ref_idx = list(getattr(algorithm, "reference_channel_indices",
                           range(len(algorithm.channels))))

    def band_snr(t, v):
        p_t = third_octave_analyze(t, rate, grid).sum(axis=0)
        p_n = third_octave_analyze(v, rate, grid).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            snr = 10.0 * np.log10(p_t / p_n)
        snr[(p_t <= 0) | (p_n <= 0)] = np.nan
        return snr

    delta = []
    for snr in input_snrs:
        # The stems calibrated to this SNR: the noise stem rescaled.
        t_in = stems.target_only.samples[rows]
        n_in = stems.noise_only.samples[rows] * noise_scale(stems, snr)
        op = algorithm._operation(stft.analyze(t_in + n_in),
                                  stft.analyze(n_in))
        target, noise = (
            stft.synthesize(algorithm._apply(op, stft.analyze(x)), n)
            for x in (t_in, n_in))
        delta.append(band_snr(target, noise)
                     - band_snr(t_in[ref_idx], n_in[ref_idx]))
    return np.array(delta)


def test_snr_improvement_matches_per_snr_path(hrir_set, mvdr_design):
    # Transforming the stems once and rescaling the noise STFT gives the
    # surfaces of calibrating and analysing per SNR, to round-off.
    scene = make_default_scene(0.5, RATE, n_noise=4, seed=77)
    stems = free_field_stems(scene, hrir_set,
                             CHANNELS_BEAMFORMER + _Gain.channels)
    grid = make_third_octave_grid(100.0, 8000.0)
    algorithms = (MvdrBeamformer(mvdr_design),
                  AdaptiveDifferentialMic(mic_spacing=0.01),
                  CoherenceNoiseReduction(), SingleChannelNoiseReduction(),
                  _Gain(0.5))
    for alg in algorithms:
        got = snr_improvement(alg, stems, grid)
        expected = _snr_improvement_per_snr(alg, stems, grid,
                                            NOMINAL_INPUT_SNRS)
        assert np.array_equal(np.isnan(got), np.isnan(expected)), alg.name
        assert np.nanmax(np.abs(got - expected)) <= 1e-9, alg.name


def _gain_bank(hrir_set, count):
    """An NSP bank for `_Gain` whose ring of `count` speakers at the HRIR
    distance holds the probe azimuths of the tests below."""
    return ReceiverBank(build_array(count, hrir_set.distance), hrir_set,
                        CENTER, _Gain.channels)


def test_beam_pattern_constant_gain(hrir_set):
    grid = make_third_octave_grid(200.0, 4000.0)
    az = np.array([0.0, 90.0])
    pat = beam_pattern(_Gain(0.5), ReproductionMethod.NSP,
                       _gain_bank(hrir_set, 4), grid, probe_duration=0.2,
                       azimuths=az)
    assert pat.shape == (2, len(grid))
    # -6.02 dB everywhere, independent of azimuth and band.
    assert np.allclose(pat, 20.0 * np.log10(0.5), atol=0.05)


def test_beam_pattern_floor(hrir_set):
    grid = make_third_octave_grid(200.0, 4000.0)
    pat = beam_pattern(_Gain(0.0), ReproductionMethod.NSP,
                       _gain_bank(hrir_set, 4), grid, probe_duration=0.1,
                       azimuths=np.array([0.0]))
    assert np.all(pat == BEAM_PATTERN_FLOOR_DB)


def test_beam_error_identity_through_pipeline(hrir_set):
    grid = make_third_octave_grid(200.0, 4000.0)
    az = np.array([0.0, 120.0])
    bank = _gain_bank(hrir_set, 6)
    a = beam_pattern(_Gain(1.0), ReproductionMethod.NSP, bank, grid,
                     probe_duration=0.1, azimuths=az)
    b = beam_pattern(_Gain(1.0), ReproductionMethod.NSP, bank, grid,
                     probe_duration=0.1, azimuths=az)
    assert np.all(beam_error(a, b) == 0.0)


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_beam_pattern_equals_the_per_azimuth_renders(hrir_set, mvdr_design,
                                                     shift):
    # Mixing one response per speaker with each azimuth's weights gives the
    # pattern of rendering and processing every azimuth, for every method.
    # Free field is NSP on a speaker at every probe azimuth, against the
    # oracle's free-field renders.
    pose = Position2D(0.0, shift)
    grid = make_third_octave_grid(100.0, 8000.0)
    core = MvdrCoreBeamformer(mvdr_design)
    banks = [ReceiverBank(build_array(count, 3.0), hrir_set, pose,
                          CHANNELS_BEAMFORMER) for count in (4, 12)]
    ring = ReceiverBank(build_array(72, hrir_set.distance), hrir_set, pose,
                        CHANNELS_BEAMFORMER)
    cases = [(ReproductionMethod.NSP, ring, None)] + [
        (method, bank, method) for bank in banks
        for method in ReproductionMethod]
    for method, bank, oracle_method in cases:
        got = beam_pattern(core, method, bank, grid, probe_duration=0.05)
        expected = beam_pattern_per_azimuth(core, oracle_method, bank,
                                            hrir_set, pose, grid, 0.05)
        assert got.shape == (len(PATTERN_AZIMUTHS), len(grid))
        assert np.abs(got - expected).max() <= 1e-9, (
            oracle_method, bank.array.count)


# ---------------------------------------------------------------------------
# Spectral distance


def test_spectral_distance_axioms():
    x = speech_shaped_noise(1.0, RATE, seed=8)
    y = speech_shaped_noise(1.0, RATE, seed=9)
    assert spectral_distance(x, x, RATE) == 0.0
    assert spectral_distance(x, y, RATE) >= 0.0


def test_spectral_distance_one_weight_for_both_signals(monkeypatch):
    # Each ERB weight is built once and applied to both spectra; the result
    # is that of one excitation pattern per signal, bit for bit.
    x = speech_shaped_noise(48127 / RATE, RATE, seed=14)
    y = np.convolve(x, [1.0, -0.6, 0.2], mode="same")
    assert len(x) == 48127
    joint = metrics._erb_excitation((x, y), RATE)
    single = [metrics._erb_excitation((s,), RATE)[0] for s in (x, y)]
    assert np.array_equal(joint, np.stack(single))
    expected = spectral_distance(x, y, RATE)
    real = metrics._erb_excitation
    monkeypatch.setattr(metrics, "_erb_excitation",
                        lambda signals, rate: np.stack(
                            [real((s,), rate)[0] for s in signals]))
    assert spectral_distance(x, y, RATE) == expected


def test_erb_excitation_equals_the_uncached_loop():
    # The cached weight rows give the excitation of building each row per
    # call, bit for bit, for a cached length and after another length
    # replaced it.
    def uncached(signals, sample_rate, f_lo=100.0, f_hi=8000.0,
                 step_erb=0.5):
        x = np.stack([np.asarray(s, dtype=float).ravel() for s in signals])
        n = x.shape[1]
        psds = np.abs(np.fft.rfft(x, axis=1)) ** 2 / n ** 2
        psds[:, 1:] *= 2.0
        freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
        e_centers = np.arange(erb_number(f_lo), erb_number(f_hi) + 1e-9,
                              step_erb)
        centers = erb_to_hz(e_centers)
        excitation = np.empty((len(psds), len(centers)))
        for i, fc in enumerate(centers):
            g = np.abs(freqs - fc) / erb_bandwidth(fc)
            p = 4.0 * g
            w = (1.0 + p) * np.exp(-p)
            for j, psd in enumerate(psds):
                excitation[j, i] = np.maximum((w * psd).sum(), 1e-30)
        return 10.0 * np.log10(excitation)

    x = speech_shaped_noise(0.5, RATE, seed=15)
    y = np.convolve(x, [1.0, 0.4, -0.3], mode="same")
    for signals in ((x, y), (x, y), (x[:-7], y[:-7]), (x, y)):
        assert np.array_equal(metrics._erb_excitation(signals, RATE),
                              uncached(signals, RATE))
    assert np.array_equal(metrics._erb_excitation((x,), 16000, f_hi=6000.0),
                          uncached((x,), 16000, f_hi=6000.0))


def test_spectral_distance_level_invariance():
    x = speech_shaped_noise(1.0, RATE, seed=8)
    assert spectral_distance(x, 2.0 * x, RATE) == pytest.approx(0.0, abs=1e-9)


def test_spectral_distance_grows_with_coloration():
    x = speech_shaped_noise(2.0, RATE, seed=8)

    def tilt(sig, db_per_decade):
        spec = np.fft.rfft(sig)
        freqs = np.fft.rfftfreq(len(sig), 1.0 / RATE)
        shape = 10.0 ** (db_per_decade / 20.0
                         * np.log10(np.maximum(freqs, 1.0) / 1000.0))
        return np.fft.irfft(spec * shape, len(sig))

    d_small = spectral_distance(x, tilt(x, 3.0), RATE)
    d_large = spectral_distance(x, tilt(x, 10.0), RATE)
    assert 0.0 < d_small < d_large


def test_spectral_distance_rejects_silence():
    x = speech_shaped_noise(0.5, RATE, seed=8)
    with pytest.raises(ValueError):
        spectral_distance(x, np.zeros_like(x), RATE)
