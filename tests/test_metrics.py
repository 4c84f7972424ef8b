from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from spatsim.dsp import erb_bandwidth, erb_number, erb_to_hz
from spatsim.binsim import ReceiverBank, SceneSpec, VirtualSource, noise_scale
from spatsim.geometry import Position2D, build_array
from spatsim.haalgo import (AdaptiveDifferentialMic, CoherenceNoiseReduction,
                            MvdrBeamformer, MvdrCoreBeamformer,
                            SingleChannelNoiseReduction,
                            SpectralGainAlgorithm)
from spatsim.hrir import CHANNELS_BEAMFORMER
import spatsim.metrics as metrics
from spatsim.metrics import (BEAM_PATTERN_FLOOR_DB, BandGrid,
                             NOMINAL_INPUT_SNRS, PATTERN_AZIMUTHS,
                             beam_error, beam_pattern, excitation_pattern,
                             make_third_octave_grid, snr_error,
                             snr_improvement, spectral_distance,
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


# The chirp-z zoom of `_band_span`: lengths with a prime factor above
# `_ZOOM_MIN_PRIME` (a prime; 2*3*7*2417 and 2*3*13*1301, scene stem
# lengths; odd 3*5*7*967; the paper-scale stem 5*77899).
ZOOM_LENGTHS = (101513, 101514, 101478, 101535, 389495)


def _zoom_calls(x, rate, grid):
    """`_band_span` of `x` and the number of chirp-z zooms it ran."""
    with mock.patch.object(metrics, "_zoom", wraps=metrics._zoom) as zoom:
        span = metrics._band_span(np.atleast_2d(x), rate, grid)
    return span, zoom.call_count


def _assert_bins_match_rfft(x, rate, grid):
    (span, bounds, n), _ = _zoom_calls(x, rate, grid)
    expected = np.fft.rfft(x, axis=-1)[:, bounds[0]:bounds[-1]]
    assert span.shape == expected.shape
    peak = np.abs(expected).max(axis=1, keepdims=True, initial=0.0)
    assert np.all(np.abs(span - expected) <= 1e-13 * peak)


@pytest.mark.parametrize("n", ZOOM_LENGTHS)
@pytest.mark.parametrize("rows", [1, 2])
def test_zoom_bins_equal_rfft_bins(n, rows):
    rng = np.random.default_rng(n + rows)
    x = rng.standard_normal((rows, n))
    assert metrics._largest_prime_factor(n) > metrics._ZOOM_MIN_PRIME
    _assert_bins_match_rfft(x, RATE, make_third_octave_grid())


@pytest.mark.parametrize("rows", [1, 2])
def test_zoom_reaches_the_nyquist_bin(rows):
    # At 16 kHz the top edge of the 100-8000 Hz grid lies above Nyquist:
    # the span ends at the last rfft bin, of an odd and an even length.
    grid = make_third_octave_grid(100.0, 8000.0)
    rng = np.random.default_rng(rows)
    for n in (16001, 2 * 8009):
        x = rng.standard_normal((rows, n))
        (_, bounds, _), zooms = _zoom_calls(x, 16000, grid)
        assert zooms == 1 and bounds[-1] == n // 2 + 1
        _assert_bins_match_rfft(x, 16000, grid)


def test_zoom_band_powers_of_a_stem_equal_the_mask_oracle():
    # A speech-shaped stem of a scene-stem length with a silent onset.
    grid = make_third_octave_grid()
    x = speech_shaped_noise(3.0, RATE, seed=7)[:101514]
    x[:400] = 0.0
    x = np.vstack([x, 0.5 * x[::-1]])
    _, zooms = _zoom_calls(x, RATE, grid)
    assert zooms == 1
    got = third_octave_analyze(x, RATE, grid)
    expected = _band_powers_by_mask(x, RATE, grid)
    assert np.abs(10.0 * np.log10(got / expected)).max() <= 1e-9


def test_band_analysis_parseval_at_a_prime_length():
    # A signal with no power outside a full-range grid: its band powers sum
    # to its mean square, through the zoom.
    grid = make_third_octave_grid(10.0, 20000.0)
    n = 96001
    x = white_noise(2.0, RATE, seed=5)[:n]
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(n, 1.0 / RATE)
    spec[(freqs < grid.edges[0]) | (freqs >= grid.edges[-1])] = 0.0
    x = np.fft.irfft(spec, n)
    _, zooms = _zoom_calls(x, RATE, grid)
    assert zooms == 1
    band_sum = third_octave_analyze(x, RATE, grid)[0].sum()
    assert band_sum == pytest.approx(np.mean(x ** 2), rel=1e-12)


@pytest.mark.parametrize("n, zoomed", [(101380, False), (53380, False),
                                       (101376, False), (101514, True),
                                       (389495, True)])
def test_zoom_only_where_a_prime_factor_is_large(n, zoomed):
    # The free-field stems (101,380 = 2^2*5*37*137) and the beam probes
    # (53,380 = 2^2*5*17*157) keep the mixed-radix rfft.
    _, zooms = _zoom_calls(np.ones((1, n)), RATE,
                                   make_third_octave_grid())
    assert zooms == int(zoomed)


# Lengths p * k with k <= 40: the largest prime factor is p, so the route
# is known; primes on both sides of _ZOOM_MIN_PRIME.
_ROUTE_PRIMES = (2, 3, 5, 37, 137, 157, 397, 401, 409, 967, 1301, 2417, 7919)


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(_ROUTE_PRIMES), k=st.integers(1, 40),
       rows=st.integers(1, 2), rate=st.sampled_from([16000, 48000]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(p=2, k=1, rows=1, rate=48000, seed=0)   # no bin in the grid
def test_band_span_equals_rfft_on_both_routes(p, k, rows, rate, seed):
    n = p * k
    x = np.random.default_rng(seed).standard_normal((rows, n))
    grid = make_third_octave_grid(100.0, 8000.0)
    _, zooms = _zoom_calls(x, rate, grid)
    assert zooms == int(p > metrics._ZOOM_MIN_PRIME)
    _assert_bins_match_rfft(x, rate, grid)
    assert np.allclose(third_octave_analyze(x, rate, grid),
                       _band_powers_by_mask(x, rate, grid),
                       rtol=1e-12, atol=0.0)


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


def _one_hot_speaker_irs(bank, source):
    """Each speaker's IR as `weighted_ir` of a one-hot weight vector."""
    return np.stack([bank.weighted_ir(s, source)
                     for s in np.eye(bank.array.count)])


@pytest.mark.parametrize("shift", [0.0, 0.5])
def test_beam_pattern_equals_the_one_hot_speaker_sum(hrir_set, mvdr_design,
                                                     shift, monkeypatch):
    # Each speaker's IR taken alone gives the pattern bit for bit that
    # summing all speakers with one-hot weights gave, for the free-field
    # probe ring and an N = 12 array.
    pose = Position2D(0.0, shift)
    grid = make_third_octave_grid()
    core = MvdrCoreBeamformer(mvdr_design)
    for count, radius, method in ((72, hrir_set.distance,
                                   ReproductionMethod.NSP),
                                  (12, 3.0, ReproductionMethod.HOA)):
        bank = ReceiverBank(build_array(count, radius), hrir_set, pose,
                            CHANNELS_BEAMFORMER)
        source = Position2D.from_polar(0.0, radius)
        assert np.array_equal(bank.speaker_irs(source),
                              _one_hot_speaker_irs(bank, source))
        got = beam_pattern(core, method, bank, grid, probe_duration=0.1)
        with monkeypatch.context() as patch:
            patch.setattr(ReceiverBank, "speaker_irs", _one_hot_speaker_irs)
            expected = beam_pattern(core, method, bank, grid,
                                    probe_duration=0.1)
        assert np.array_equal(got, expected), count


# ---------------------------------------------------------------------------
# Spectral distance


def _distance(ref, test, sample_rate=RATE):
    return spectral_distance(excitation_pattern(ref, sample_rate),
                             excitation_pattern(test, sample_rate))


def test_spectral_distance_axioms():
    x = speech_shaped_noise(1.0, RATE, seed=8)
    y = speech_shaped_noise(1.0, RATE, seed=9)
    assert _distance(x, x) == 0.0
    assert _distance(x, y) >= 0.0


def test_erb_excitation_equals_the_uncached_loop():
    # The cached weight rows give the excitation of building each row per
    # call, bit for bit, for a cached length and after another length
    # replaced it, for even and odd lengths.
    def uncached(signal, sample_rate, f_lo=100.0, f_hi=8000.0,
                 step_erb=0.5):
        x = np.asarray(signal, dtype=float)
        n = len(x)
        x = x / np.sqrt(np.mean(np.square(x)))
        psd = np.abs(np.fft.rfft(x)) ** 2 / n ** 2
        psd[1:(n + 1) // 2] *= 2.0
        freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
        e_centers = np.arange(erb_number(f_lo), erb_number(f_hi) + 1e-9,
                              step_erb)
        excitation = []
        for fc in erb_to_hz(e_centers):
            g = np.abs(freqs - fc) / erb_bandwidth(fc)
            p = 4.0 * g
            w = (1.0 + p) * np.exp(-p)
            excitation.append(np.maximum((w * psd).sum(), 1e-30))
        return 10.0 * np.log10(excitation)

    x = speech_shaped_noise(0.5, RATE, seed=15)
    y = np.convolve(x, [1.0, 0.4, -0.3], mode="same")
    for signal in (x, y, x[:-7], y[:-7], x):
        assert np.array_equal(excitation_pattern(signal, RATE),
                              uncached(signal, RATE))
    assert np.array_equal(excitation_pattern(x, 16000, f_hi=6000.0),
                          uncached(x, 16000, f_hi=6000.0))


def test_excitation_pattern_counts_the_nyquist_bin_once():
    """A one-sided spectrum doubles every bin but DC and an even length's
    Nyquist bin, as the band powers do: unit-power tones at the Nyquist bin
    and three bins below it excite the top filter alike, not 3 dB apart."""
    rate, n = 16000, 16000
    t = np.arange(n)
    nyquist = np.cos(np.pi * t)
    below = np.sqrt(2.0) * np.cos(2.0 * np.pi * (n // 2 - 3) * t / n)
    for tone in (nyquist, below):
        assert np.mean(np.square(tone)) == pytest.approx(1.0)
    top = [excitation_pattern(tone, rate, f_hi=8000.0)[-1]
           for tone in (nyquist, below)]
    assert abs(top[0] - top[1]) < 0.1
    # Band powers of the same tones: each carries its unit power.
    grid = BandGrid(centers=[7000.0], edges=[6000.0, 8000.5])
    for tone in (nyquist, below):
        assert third_octave_analyze(tone, rate, grid)[0, 0] == pytest.approx(
            1.0)


def test_spectral_distance_level_invariance():
    x = speech_shaped_noise(1.0, RATE, seed=8)
    assert _distance(x, 2.0 * x) == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(excitation_pattern(2.0 * x, RATE),
                       excitation_pattern(x, RATE), rtol=0.0, atol=1e-12)


def test_spectral_distance_grows_with_coloration():
    x = speech_shaped_noise(2.0, RATE, seed=8)

    def tilt(sig, db_per_decade):
        spec = np.fft.rfft(sig)
        freqs = np.fft.rfftfreq(len(sig), 1.0 / RATE)
        shape = 10.0 ** (db_per_decade / 20.0
                         * np.log10(np.maximum(freqs, 1.0) / 1000.0))
        return np.fft.irfft(spec * shape, len(sig))

    d_small = _distance(x, tilt(x, 3.0))
    d_large = _distance(x, tilt(x, 10.0))
    assert 0.0 < d_small < d_large


def test_spectral_distance_rejects_silence():
    x = speech_shaped_noise(0.5, RATE, seed=8)
    with pytest.raises(ValueError, match="silent"):
        excitation_pattern(np.zeros_like(x), RATE)
