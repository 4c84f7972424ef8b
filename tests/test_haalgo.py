import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spatsim.binsim import (CALIBRATION_CHANNEL, AudioBuffer, RenderOutput,
                            VirtualSource, render_reference)
from spatsim.geometry import Position2D
from spatsim.haalgo import (AdaptiveDifferentialMic, CoherenceNoiseReduction,
                            MvdrBeamformer, MvdrCoreBeamformer,
                            SingleChannelNoiseReduction,
                            _channel_spectra, _stsa_gain, design_mvdr)
from spatsim.hrir import (CHANNELS, CHANNELS_ADM, CHANNELS_BEAMFORMER,
                          CHANNELS_BINAURAL_NR, interpolate_direction)
from spatsim.metrics import snr_improvement
from spatsim.signals import make_default_scene, speech_shaped_noise, white_noise
from spatsim.stft import StftProcessor

from conftest import free_field_stems

RATE = 48000
CENTER = Position2D(0.0, 0.0)


# ---------------------------------------------------------------------------
# STFT core


def test_stft_perfect_reconstruction():
    stft = StftProcessor()
    rng = np.random.default_rng(0)
    for n in (1000, 4096, 48000):
        x = rng.standard_normal((2, n))
        y = stft.synthesize(stft.analyze(x), n)
        err = 20.0 * np.log10(np.abs(y - x).max() / np.abs(x).max())
        assert err < -80.0


def test_stft_geometry():
    stft = StftProcessor()
    assert stft.bins == 257
    assert stft.frame_rate == pytest.approx(RATE / 256)
    assert stft.frequencies[-1] == pytest.approx(RATE / 2)
    with pytest.raises(ValueError):
        StftProcessor(window_size=512, hop=100)


# ---------------------------------------------------------------------------
# MVDR design


def test_channel_spectra_match_dtft_basis(hrir_set):
    # The fold + rfft equals the DTFT at the STFT bins, evaluated from the
    # explicit exp(-2 pi i f n) basis, for on- and off-grid directions.
    stft = StftProcessor()
    freqs_norm = stft.frequencies / hrir_set.sample_rate
    for az in (0.0, 37.5, 180.0, 292.3):
        irs = interpolate_direction(hrir_set, az, CHANNELS)
        assert irs.shape[1] > 4 * stft.window_size
        n = np.arange(irs.shape[1])
        basis = np.exp(-2j * np.pi * freqs_norm[:, None] * n[None, :])
        expected = basis @ irs.T
        got = _channel_spectra(hrir_set, az, CHANNELS, stft.window_size)
        assert got.shape == expected.shape
        assert (np.abs(got - expected).max()
                <= 1e-12 * np.abs(expected).max()), az


def test_mvdr_rejects_mismatched_sample_rate(hrir_set):
    with pytest.raises(ValueError):
        design_mvdr(hrir_set, stft=StftProcessor(sample_rate=16000))


def test_mvdr_distortionless(mvdr_design):
    response = np.einsum("bc,bc->b", mvdr_design.weights.conj(),
                         mvdr_design.propagation)
    assert np.abs(response - 1.0).max() < 1e-6


def test_mvdr_white_noise_gain_bound(mvdr_design):
    # |w|^2 <= 1 / lambda_min(Phi) per bin (loaded covariance).
    eigmin = np.linalg.eigvalsh(mvdr_design.noise_cov).min(axis=1).real
    wng = np.einsum("bc,bc->b", mvdr_design.weights.conj(),
                    mvdr_design.weights).real
    assert np.all(wng <= 1.0 / eigmin + 1e-9)


def test_mvdr_target_passthrough(hrir_set, mvdr_design):
    # Target-only input at the steering direction: the post-filter gain sits
    # near 1 and the binaural output matches the front-mic reference channels.
    src = VirtualSource(speech_shaped_noise(0.5, RATE, seed=3),
                        Position2D.from_polar(0.0, 3.0))
    rendered = render_reference(src, hrir_set, CENTER, CHANNELS_BEAMFORMER)
    bf = MvdrBeamformer(mvdr_design)
    out = bf.process(rendered)
    for o, c in zip(out.samples, bf.reference_channel_indices):
        ref = rendered.samples[c]
        gain_db = 10.0 * np.log10(np.mean(o ** 2) / np.mean(ref ** 2))
        assert abs(gain_db) < 1.0


def test_mvdr_core_frontal_level(hrir_set, mvdr_design):
    # The raw beamformer reproduces the free-field signal at the head center
    # (source scaled by 1/distance) up to the block-processing loss.
    src = VirtualSource(speech_shaped_noise(0.5, RATE, seed=3),
                        Position2D.from_polar(0.0, 3.0))
    rendered = render_reference(src, hrir_set, CENTER, CHANNELS_BEAMFORMER)
    out = MvdrCoreBeamformer(mvdr_design).process(rendered)
    gain_db = 10.0 * np.log10(np.sum(out.samples[0] ** 2)
                              / np.sum((src.signal / 3.0) ** 2))
    assert abs(gain_db) < 3.0


def test_beamformer_binaural_gains_identical(hrir_set, mvdr_design):
    rng = np.random.default_rng(5)
    buf = AudioBuffer(RATE, rng.standard_normal((6, 24000)))
    bf = MvdrBeamformer(mvdr_design)
    out = bf.process(buf)
    assert out.channels == 2
    # The same real-valued gain drives both output channels, so swapping the
    # two front channels swaps the outputs.
    swap = list(range(6))
    li = CHANNELS_BEAMFORMER.index("ha_L_front")
    ri = CHANNELS_BEAMFORMER.index("ha_R_front")
    swap[li], swap[ri] = swap[ri], swap[li]
    out2 = bf.process(AudioBuffer(RATE, buf.samples[swap]))
    # Gains differ because the mixture changed, so only check the structure:
    # both outputs derive from their own reference channel.
    assert out.samples.shape == out2.samples.shape


def test_beamformer_reduces_diffuse_noise(hrir_set, mvdr_design):
    rng = np.random.default_rng(11)
    noise = np.zeros((6, 24000))
    sig = speech_shaped_noise(0.5, RATE, seed=17)
    for az in range(0, 360, 30):
        src = VirtualSource(speech_shaped_noise(0.5, RATE,
                                                seed=100 + az),
                            Position2D.from_polar(float(az), 3.0))
        r = render_reference(src, hrir_set, CENTER, CHANNELS_BEAMFORMER)
        noise[:, :min(24000, r.samples.shape[1])] += \
            r.samples[:, :min(24000, r.samples.shape[1])]
    buf = AudioBuffer(RATE, noise)
    core = MvdrCoreBeamformer(mvdr_design)
    out = core.process(buf)
    ref = buf.samples[CHANNELS_BEAMFORMER.index("ha_L_front")]
    gain_db = 10.0 * np.log10(np.mean(out.samples[0] ** 2)
                              / np.mean(ref ** 2))
    assert gain_db < -3.0


# ---------------------------------------------------------------------------
# ADM


def _adm_render(hrir_set, azimuth, seed, duration=0.5):
    src = VirtualSource(speech_shaped_noise(duration, RATE, seed=seed),
                        Position2D.from_polar(azimuth, 3.0))
    return render_reference(src, hrir_set, CENTER, CHANNELS_ADM)


def test_adm_defaults_to_the_bte_pair_spacing():
    """Without a spacing, the ADM uses the BTE pair's, 1 cm."""
    default, explicit = (AdaptiveDifferentialMic(),
                         AdaptiveDifferentialMic(mic_spacing=0.01))
    assert np.array_equal(default.phase, explicit.phase)
    assert np.array_equal(default.eq, explicit.eq)


def test_adm_cancels_rear_source(hrir_set):
    adm = AdaptiveDifferentialMic(mic_spacing=0.01)
    front = _adm_render(hrir_set, 0.0, seed=1)
    rear = _adm_render(hrir_set, 180.0, seed=2)
    n = min(front.samples.shape[1], rear.samples.shape[1])
    stems = RenderOutput(
        target_only=AudioBuffer(RATE, front.samples[:, :n]),
        noise_only=AudioBuffer(RATE, rear.samples[:, :n]),
        channels=CHANNELS_ADM)
    _, target, noise = adm.shadow(stems)
    snr_in = 10.0 * np.log10(np.mean(stems.target_only.samples[0] ** 2)
                             / np.mean(stems.noise_only.samples[0] ** 2))
    snr_out = 10.0 * np.log10(np.mean(target.samples[0] ** 2)
                              / np.mean(noise.samples[0] ** 2))
    assert snr_out - snr_in >= 10.0


def test_adm_frontal_target_low_distortion(hrir_set):
    adm = AdaptiveDifferentialMic(mic_spacing=0.01)
    front = _adm_render(hrir_set, 0.0, seed=3)
    out = adm.process(front)
    spec_in = np.abs(np.fft.rfft(front.samples[0]))
    # Compare at matched length.
    n = front.samples.shape[1]
    spec_out = np.abs(np.fft.rfft(out.samples[0][:n]))
    freqs = np.fft.rfftfreq(n, 1.0 / RATE)
    band = (freqs > 300.0) & (freqs < 4000.0)
    diff = 10.0 * np.log10(np.sum(spec_out[band] ** 2)
                           / np.sum(spec_in[band] ** 2))
    assert abs(diff) < 1.5


def test_adm_minimizes_output_power(hrir_set):
    # With the adapted weight the output power cannot exceed the beta = 0
    # (pure front cardioid) output for the same stationary noise.
    adm = AdaptiveDifferentialMic(mic_spacing=0.01)
    rear = _adm_render(hrir_set, 180.0, seed=4, duration=1.0)
    adapted = adm.process(rear)
    frozen = AdaptiveDifferentialMic(mic_spacing=0.01, step=0.0)
    fixed = frozen.process(rear)
    tail = slice(rear.samples.shape[1] // 2, rear.samples.shape[1])
    assert (np.mean(adapted.samples[0][tail] ** 2)
            <= np.mean(fixed.samples[0][tail] ** 2) * 1.01)


# ---------------------------------------------------------------------------
# Coherence-based noise reduction


def test_coherence_passes_identical_channels():
    x = speech_shaped_noise(0.5, RATE, seed=6)
    buf = AudioBuffer(RATE, np.stack([x, x]))
    out = CoherenceNoiseReduction().process(buf)
    # Skip the smoothing warmup: the coherence estimate starts from zero and
    # converges with the 40 ms time constant.
    tail = slice(RATE // 4, buf.samples.shape[1])
    err = np.abs(out.samples[:, tail] - buf.samples[:, tail]).max() \
        / np.abs(x).max()
    assert err < 0.02
    assert np.abs(out.samples[0] - out.samples[1]).max() < 1e-12


def test_coherence_scale_invariance():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((2, 16000))
    nr = CoherenceNoiseReduction()
    out1 = nr.process(AudioBuffer(RATE, base))
    out2 = nr.process(AudioBuffer(RATE, 10.0 * base))
    assert np.abs(out2.samples - 10.0 * out1.samples).max() \
        < 1e-9 * np.abs(out2.samples).max()


def test_coherence_attenuates_independent_noise():
    rng = np.random.default_rng(8)
    buf = AudioBuffer(RATE, rng.standard_normal((2, 48000)))
    out = CoherenceNoiseReduction().process(buf)
    # Attenuation only where the efficiency exponent is positive (> 500 Hz).
    spec_in = np.abs(np.fft.rfft(buf.samples[0]))
    spec_out = np.abs(np.fft.rfft(out.samples[0]))
    freqs = np.fft.rfftfreq(buf.samples.shape[1], 1.0 / RATE)
    hi = freqs > 1000.0
    lo = (freqs > 100.0) & (freqs < 400.0)
    att_hi = 10.0 * np.log10(np.sum(spec_out[hi] ** 2)
                             / np.sum(spec_in[hi] ** 2))
    att_lo = 10.0 * np.log10(np.sum(spec_out[lo] ** 2)
                             / np.sum(spec_in[lo] ** 2))
    assert att_hi < -3.0
    assert abs(att_lo) < 0.5


# ---------------------------------------------------------------------------
# Oracle single-channel noise reduction


def _process_with_oracle(algorithm, buf, oracle_noise):
    """The mixture processed with the gains the oracle noise stem gives."""
    stft = algorithm.stft
    spec = stft.analyze(buf.samples)
    op = algorithm._operation(spec, stft.analyze(oracle_noise.samples))
    return algorithm._synthesize(op, spec, buf.samples.shape[1],
                                 buf.sample_rate)


def test_scnr_zero_noise_is_transparent():
    x = speech_shaped_noise(0.5, RATE, seed=9)
    buf = AudioBuffer(RATE, x)
    silent = AudioBuffer(RATE, np.full_like(x, 1e-15))
    out = _process_with_oracle(SingleChannelNoiseReduction(), buf, silent)
    err = np.abs(out.samples[0] - x).max() / np.abs(x).max()
    assert err < 0.01


def test_scnr_suppresses_pure_noise():
    noise = white_noise(0.5, RATE, seed=10)
    buf = AudioBuffer(RATE, noise)
    oracle = AudioBuffer(RATE, noise)
    out = _process_with_oracle(SingleChannelNoiseReduction(), buf, oracle)
    att = 10.0 * np.log10(np.mean(out.samples[0] ** 2) / np.mean(noise ** 2))
    assert att < -10.0


def test_scnr_requires_oracle():
    buf = AudioBuffer(RATE, white_noise(0.1, RATE))
    with pytest.raises(TypeError):
        SingleChannelNoiseReduction().process(buf)


# ---------------------------------------------------------------------------
# Shadow filtering


@pytest.fixture(scope="module")
def scene_stems(hrir_set):
    scene = make_default_scene(0.5, RATE, n_noise=4, seed=77)
    return free_field_stems(scene, hrir_set,
                            CHANNELS_BEAMFORMER + (CALIBRATION_CHANNEL,))


def _additivity(shadow):
    """Residual of processed mixture minus processed target plus noise,
    relative to the processed mixture's peak."""
    mixture, target, noise = (b.samples for b in shadow)
    resid = mixture - (target + noise)
    return np.abs(resid).max() / max(np.abs(mixture).max(), 1e-30)


def test_shadow_additivity_all_algorithms(scene_stems, mvdr_design):
    for algo in (MvdrBeamformer(mvdr_design),
                 AdaptiveDifferentialMic(mic_spacing=0.01),
                 CoherenceNoiseReduction(), SingleChannelNoiseReduction()):
        shadow = algo.shadow(scene_stems)
        assert _additivity(shadow) < 1e-6, algo.name


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(300, 3000),
       onset=st.integers(0, 600),
       scale=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
def test_shadow_stems_additivity_at_any_noise_scale(mvdr_design, seed, n,
                                                    onset, scale):
    """The processed target plus the processed scaled noise is the
    processed mixture, for random stems, silent lead-ins and noise scales,
    as the SNR path uses them."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, len(CHANNELS_BEAMFORMER), n))
    parts[0, :, :onset] = 0.0
    stems = RenderOutput(target_only=AudioBuffer(RATE, parts[0]),
                         noise_only=AudioBuffer(RATE, parts[1]),
                         channels=CHANNELS_BEAMFORMER)
    for algo in (MvdrBeamformer(mvdr_design),
                 AdaptiveDifferentialMic(mic_spacing=0.01),
                 CoherenceNoiseReduction(), SingleChannelNoiseReduction()):
        shadow = algo.shadow_stems(stems, algo.analyze_stems(stems), scale,
                                   with_mixture=True)
        assert _additivity(shadow) <= 1e-9, algo.name


@pytest.mark.xfail(strict=True, reason=(
    "CoherenceNoiseReduction maps an exactly zero cross spectrum to the "
    "coherent vector 1.0 but gives round-off-level bins a random phase, and "
    "the 40 ms smoother carries the difference into the first signal frames"))
def test_coherence_nr_ignores_round_off_before_the_onset(scene_stems,
                                                         band_grid):
    """Free-field stems are exact zeros until the sound arrives (about 390
    samples here); noise at 1e-16 of full scale there should not move the
    SNR improvement, just as it does not later in the signal."""
    # Only the algorithm's two rows get the round-off; the calibration
    # channel, and so the noise scale of each input SNR, stays as it was.
    rows = [scene_stems.channels.index(c) for c in CHANNELS_BINAURAL_NR]
    assert np.all(scene_stems.target_only.samples[rows, :380] == 0.0)
    assert np.all(scene_stems.noise_only.samples[rows, :380] == 0.0)
    rng = np.random.default_rng(5)

    def with_round_off(start):
        parts = []
        for stem in (scene_stems.target_only, scene_stems.noise_only):
            x = stem.samples.copy()
            x[rows, start:start + 400] += (1e-16 * np.abs(x[rows]).max()
                                           * rng.standard_normal((2, 400)))
            parts.append(AudioBuffer(RATE, x))
        return RenderOutput(*parts, channels=scene_stems.channels)

    algo = CoherenceNoiseReduction()
    base = snr_improvement(algo, scene_stems, band_grid)
    for start in (20000, 0):
        moved = snr_improvement(algo, with_round_off(start), band_grid) - base
        assert np.nanmax(np.abs(moved)) < 1e-9, start


@pytest.mark.xfail(strict=True, reason=(
    "_stsa_gain switches from the exact MMSE-STSA gain to the Wiener gain "
    "xi / (1 + xi) at v = 30; that asymptote drops the 1/(4v) term, so the "
    "gain jumps by 0.84 % there"))
def test_stsa_gain_is_continuous_across_the_asymptote_switch():
    """For every a priori SNR xi, the gain just below and just above v = 30
    agrees to 1e-4 relative, as the exact gain does (it moves by about 1e-6
    relative there)."""
    xi = np.logspace(-3.0, 3.0, 61)
    v = 30.0 * np.array([[1.0 - 1e-6], [1.0 + 1e-6]])
    post = v * (1.0 + xi) / xi
    below, above = _stsa_gain(np.broadcast_to(xi, post.shape), post)
    assert np.max(np.abs(above / below - 1.0)) < 1e-4


def test_channel_count_checked():
    buf = AudioBuffer(RATE, np.zeros((3, 1000)))
    with pytest.raises(ValueError):
        CoherenceNoiseReduction().process(buf)
