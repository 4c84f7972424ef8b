import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from scipy.signal import fftconvolve

from spatsim.binsim import (AudioBuffer, ReceiverBank, SceneSpec,
                            VirtualSource, _delayed_len, noise_scale,
                            render_reference, render_scene_stems,
                            render_source)
from spatsim.dsp import delay_signal
from spatsim.geometry import ListenerPose, Position2D, build_array
from spatsim.hrir import CHANNELS, CHANNELS_LOCALIZATION
from spatsim.panner import ReproductionMethod, method_weights
from spatsim.signals import speech_shaped_noise, white_noise

RATE = 48000
CENTER = ListenerPose.center()


# The loudspeaker path that render_source folds into one effective IR per
# channel: driving signals per speaker, then each feed convolved with its
# speaker-to-receiver IRs and summed.


def render_speaker_feeds(method, array, source, sample_rate):
    """Loudspeaker driving signals for one source: w_k/||r|| at the source
    delay."""
    weights = method_weights(method, array, source.position)
    delay = weights.source_delay * sample_rate
    x = np.asarray(source.signal, dtype=float)
    out_len = _delayed_len(len(x), delay)
    feeds = np.zeros((array.count, out_len))
    delayed = delay_signal(x, delay, out_len=out_len)
    for k, w in enumerate(weights.weights):
        if w != 0.0:
            feeds[k] = (w * weights.source_attenuation) * delayed
    return AudioBuffer(sample_rate=sample_rate, samples=feeds)


def render_to_receiver(feeds, bank):
    """Receiver-channel signals: per channel, the sum of the feeds convolved
    with the speaker-to-listener IRs."""
    if feeds.channels != bank.array.count:
        raise ValueError("feed channel count does not match speaker count")
    x = feeds.samples
    out = np.zeros((len(bank.channels), x.shape[1] + bank.irs.shape[2] - 1))
    for k in np.flatnonzero(np.any(x != 0.0, axis=1)):
        out += fftconvolve(x[k][None, :], bank.irs[k], axes=1)
    return AudioBuffer(sample_rate=feeds.sample_rate, samples=out)


def _impulse(n=256):
    x = np.zeros(n)
    x[0] = 1.0
    return x


def test_audio_buffer_invariants():
    buf = AudioBuffer(RATE, np.zeros((2, 100)))
    assert buf.channels == 2
    assert buf.duration == pytest.approx(100 / RATE)
    with pytest.raises(ValueError):
        AudioBuffer(RATE, np.array([[np.nan, 0.0]]))


def test_nsp_feeds_one_hot():
    arr = build_array(8, 3.0)
    src = VirtualSource(_impulse(), Position2D.from_polar(arr.azimuth_of(3), 3.0))
    feeds = render_speaker_feeds(ReproductionMethod.NSP, arr, src, RATE)
    active = np.flatnonzero(np.any(feeds.samples != 0.0, axis=1))
    assert active.tolist() == [3]


def test_vbap_midpoint_feed_gains():
    arr = build_array(4, 3.0)
    src = VirtualSource(_impulse(), Position2D.from_polar(45.0, 3.0))
    feeds = render_speaker_feeds(ReproductionMethod.VBAP, arr, src, RATE)
    # Energy per channel: (w/||r||)^2 times the (all-pass-delayed) impulse.
    energies = np.sum(feeds.samples ** 2, axis=1)
    # The windowed-sinc delay is an approximate all-pass; allow its small
    # passband ripple.
    assert energies[0] == pytest.approx((0.70711 / 3.0) ** 2, rel=0.02)
    assert energies[1] == pytest.approx((0.70711 / 3.0) ** 2, rel=0.02)
    assert energies[2] == 0.0 and energies[3] == 0.0
    assert np.allclose(feeds.samples[0], feeds.samples[1], atol=1e-12)
    delay_idx = np.argmax(np.abs(feeds.samples[0]))
    assert delay_idx == pytest.approx(3.0 / 343.0 * RATE, abs=1.0)


def test_hoa_feed_sum_is_delayed_impulse():
    arr = build_array(8, 3.0)
    src = VirtualSource(_impulse(), Position2D.from_polar(17.0, 3.0))
    feeds = render_speaker_feeds(ReproductionMethod.HOA, arr, src, RATE)
    total = feeds.samples.sum(axis=0)
    # Sum of weights is 1, so the channel sum is the impulse delayed by tau
    # with gain 1/||r||.
    from spatsim.dsp import delay_signal

    expected = delay_signal(_impulse() / 3.0, 3.0 / 343.0 * RATE,
                            out_len=len(total))
    assert np.abs(total - expected).max() < 1e-9


def test_silent_feeds_silent_output(hrir_set):
    arr = build_array(4, 3.0)
    bank = ReceiverBank(arr, hrir_set, CENTER, CHANNELS_LOCALIZATION)
    feeds = AudioBuffer(RATE, np.zeros((4, 512)))
    out = render_to_receiver(feeds, bank)
    assert np.abs(out.samples).max() == 0.0


def test_feed_channel_count_checked(hrir_set):
    arr = build_array(4, 3.0)
    bank = ReceiverBank(arr, hrir_set, CENTER, CHANNELS_LOCALIZATION)
    with pytest.raises(ValueError):
        render_to_receiver(AudioBuffer(RATE, np.zeros((3, 64))), bank)


def test_nsp_at_speaker_equals_reference(hrir_set):
    arr = build_array(8, 3.0)
    src = VirtualSource(white_noise(0.2, RATE, seed=4),
                        Position2D.from_polar(arr.azimuth_of(2), 3.0))
    bank = ReceiverBank(arr, hrir_set, CENTER, CHANNELS_LOCALIZATION)
    nsp = render_source(ReproductionMethod.NSP, bank, src)
    ref = render_reference(src, hrir_set, CENTER, CHANNELS_LOCALIZATION)
    n = min(nsp.samples.shape[1], ref.samples.shape[1])
    resid = nsp.samples[:, :n] - ref.samples[:, :n]
    rel = np.abs(resid).max() / np.abs(ref.samples).max()
    assert 20.0 * np.log10(rel + 1e-300) < -60.0


def test_render_source_matches_feed_path(hrir_set):
    arr = build_array(6, 3.0)
    src = VirtualSource(white_noise(0.1, RATE, seed=8),
                        Position2D.from_polar(100.0, 3.0))
    bank = ReceiverBank(arr, hrir_set, CENTER, CHANNELS_LOCALIZATION)
    fast = render_source(ReproductionMethod.VBAP, bank, src)
    feeds = render_speaker_feeds(ReproductionMethod.VBAP, arr, src, RATE)
    slow = render_to_receiver(feeds, bank)
    n = min(fast.samples.shape[1], slow.samples.shape[1])
    scale = np.abs(slow.samples).max()
    assert np.abs(fast.samples[:, :n] - slow.samples[:, :n]).max() < 1e-9 * scale


def test_reference_frontal_symmetry(hrir_set):
    src = VirtualSource(white_noise(0.1, RATE, seed=1),
                        Position2D.from_polar(0.0, 3.0))
    ref = render_reference(src, hrir_set, CENTER, CHANNELS_LOCALIZATION)
    scale = np.abs(ref.samples).max()
    assert np.abs(ref.samples[0] - ref.samples[1]).max() < 1e-6 * scale


def test_reference_distance_gain(hrir_set):
    sig = white_noise(0.1, RATE, seed=2)
    near = render_reference(VirtualSource(sig, Position2D.from_polar(30.0, 1.5)),
                            hrir_set, CENTER, CHANNELS_LOCALIZATION)
    far = render_reference(VirtualSource(sig, Position2D.from_polar(30.0, 3.0)),
                           hrir_set, CENTER, CHANNELS_LOCALIZATION)
    ratio = (np.sqrt(np.mean(near.samples[0] ** 2))
             / np.sqrt(np.mean(far.samples[0] ** 2)))
    assert ratio == pytest.approx(2.0, rel=0.01)


def test_rendering_linearity(hrir_set):
    arr = build_array(8, 3.0)
    bank = ReceiverBank(arr, hrir_set, ListenerPose.lateral(0.1),
                        CHANNELS_LOCALIZATION)
    x = white_noise(0.1, RATE, seed=5)
    y = white_noise(0.1, RATE, seed=6)
    pos = Position2D.from_polar(70.0, 3.0)
    mixed = render_source(ReproductionMethod.HOA, bank,
                          VirtualSource(2.0 * x + 0.5 * y, pos))
    parts = (2.0 * render_source(ReproductionMethod.HOA, bank,
                                 VirtualSource(x, pos)).samples
             + 0.5 * render_source(ReproductionMethod.HOA, bank,
                                   VirtualSource(y, pos)).samples)
    scale = np.abs(mixed.samples).max()
    assert np.abs(mixed.samples - parts).max() < 1e-6 * scale


def _tiny_scene(duration=0.25, n_noise=2):
    target = VirtualSource(speech_shaped_noise(duration, RATE, seed=21),
                           Position2D.from_polar(0.0, 3.0))
    noises = tuple(
        VirtualSource(speech_shaped_noise(duration, RATE, seed=30 + i),
                      Position2D.from_polar(60.0 + 120.0 * i, 2.0))
        for i in range(n_noise))
    return SceneSpec(target=target, noises=noises)


def test_mix_scene_additivity_and_calibration(hrir_set):
    out = render_scene_stems(_tiny_scene(), None, None, hrir_set, CENTER,
                             CHANNELS_LOCALIZATION)
    s = out.mixture.samples
    resid = s - (out.target_only.samples + out.noise_only.samples)
    assert np.abs(resid).max() < 1e-6 * np.abs(s).max()
    cal = out.channels.index("in_ear_L")
    noise = out.noise_only.samples * noise_scale(out, 0.0)
    snr = 10.0 * np.log10(np.mean(out.target_only.samples[cal] ** 2)
                          / np.mean(noise[cal] ** 2))
    assert snr == pytest.approx(0.0, abs=0.01)


def test_scene_stems_sum_the_source_renders(hrir_set):
    scene = _tiny_scene(n_noise=3)
    pose = ListenerPose.lateral(0.1)
    bank = ReceiverBank(build_array(8, 3.0), hrir_set, pose, CHANNELS)
    stems = render_scene_stems(scene, ReproductionMethod.VBAP, bank,
                               hrir_set, pose, ("in_ear_R",))
    own = bank.select(("in_ear_R", "in_ear_L"))
    target = render_source(ReproductionMethod.VBAP, own, scene.target).samples
    parts = [render_source(ReproductionMethod.VBAP, own, src).samples
             for src in scene.noises]
    n_len = max(p.shape[1] for p in [target] + parts)
    assert len({p.shape[1] for p in [target] + parts}) > 1
    noise = np.zeros((2, n_len))
    for part in parts:
        noise[:, :part.shape[1]] += part
    # The calibration channel is rendered after the requested one, and
    # the noise scale reads its row.
    assert stems.channels == ("in_ear_R", "in_ear_L")
    target = np.pad(target, ((0, 0), (0, n_len - target.shape[1])))
    assert np.array_equal(stems.target_only.samples, target)
    assert np.array_equal(stems.noise_only.samples, noise)
    assert noise_scale(stems, 0.0) == np.sqrt(float(np.mean(target[1] ** 2))
                                              / float(np.mean(noise[1] ** 2)))


def test_calibrate_stems_scaling(hrir_set):
    stems = render_scene_stems(_tiny_scene(), None, None, hrir_set, CENTER,
                               CHANNELS_LOCALIZATION)
    ratio = noise_scale(stems, 20.0) / noise_scale(stems, 0.0)
    assert ratio == pytest.approx(10.0 ** (-1.0), rel=1e-9)


def test_calibrate_rejects_silent_stem(hrir_set):
    stems = render_scene_stems(_tiny_scene(n_noise=0), None, None, hrir_set,
                               CENTER, CHANNELS_LOCALIZATION)
    with pytest.raises(ValueError):
        noise_scale(stems, 0.0)


def test_time_invariance(hrir_set):
    arr = build_array(8, 3.0)
    bank = ReceiverBank(arr, hrir_set, CENTER, CHANNELS_LOCALIZATION)
    x = white_noise(0.05, RATE, seed=13)
    shift = 100
    pos = Position2D.from_polar(42.0, 3.0)
    a = render_source(ReproductionMethod.VBAP, bank, VirtualSource(x, pos))
    b = render_source(ReproductionMethod.VBAP, bank,
                      VirtualSource(np.concatenate([np.zeros(shift), x]), pos))
    n = a.samples.shape[1] - shift
    scale = np.abs(a.samples).max()
    assert np.abs(b.samples[:, shift:shift + n]
                  - a.samples[:, :n]).max() < 1e-9 * scale


def test_bank_select_equals_bank_for_the_channels(hrir_set):
    arr = build_array(6, 3.0)
    pose = ListenerPose.lateral(0.5)
    full = ReceiverBank(arr, hrir_set, pose, CHANNELS)
    channels = ("ha_R_rear", "in_ear_L", "ha_L_front")
    own = ReceiverBank(arr, hrir_set, pose, channels)
    sub = full.select(channels)
    assert sub.channels == channels and full.channels == CHANNELS
    assert np.array_equal(sub.irs, own.irs)
    src = VirtualSource(white_noise(0.1, RATE, seed=9),
                        Position2D.from_polar(75.0, 3.0))
    for method in ReproductionMethod:
        assert np.array_equal(render_source(method, sub, src).samples,
                              render_source(method, own, src).samples)
    assert own.select(channels) is own
    with pytest.raises(ValueError):
        own.select(("in_ear_R",))


@pytest.fixture(scope="module")
def lateral_bank(hrir_set):
    return ReceiverBank(build_array(8, 3.0), hrir_set,
                        ListenerPose.lateral(0.1), CHANNELS_LOCALIZATION)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(method=st.sampled_from(list(ReproductionMethod)),
       azimuth=st.floats(0.0, 360.0, exclude_max=True),
       distance=st.floats(1.0, 6.0),
       a=st.floats(-4.0, 4.0), b=st.floats(-4.0, 4.0),
       seed=st.integers(0, 2 ** 16))
def test_render_source_is_linear(lateral_bank, method, azimuth, distance, a,
                                 b, seed):
    x = white_noise(0.02, RATE, seed=seed)
    y = speech_shaped_noise(0.02, RATE, seed=seed + 1)
    pos = Position2D.from_polar(azimuth, distance)

    def render(signal):
        return render_source(method, lateral_bank,
                             VirtualSource(signal, pos)).samples

    combined = render(a * x + b * y)
    expected = a * render(x) + b * render(y)
    scale = (abs(a) * np.abs(render(x)).max()
             + abs(b) * np.abs(render(y)).max())
    assert np.abs(combined - expected).max() <= 1e-12 * scale


@pytest.fixture(scope="module")
def lateral_banks(hrir_set):
    @functools.cache
    def bank(count):
        return ReceiverBank(build_array(count, 3.0), hrir_set,
                            ListenerPose.lateral(0.1), CHANNELS_LOCALIZATION)
    return bank


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(method=st.sampled_from(list(ReproductionMethod)),
       count=st.sampled_from((4, 6, 8, 12, 18, 24, 36, 72)),
       azimuth=st.floats(0.0, 360.0, exclude_max=True),
       distance=st.floats(1.0, 6.0),
       seed=st.integers(0, 2 ** 16))
def test_render_source_is_the_weighted_sum_of_speaker_renders(
        lateral_banks, method, count, azimuth, distance, seed):
    # A render is the driving-weight sum of the renders of each speaker
    # alone at the source's delay and attenuation; beam_pattern mixes its
    # per-speaker responses by this identity.
    bank = lateral_banks(count)
    x = white_noise(0.02, RATE, seed=seed)
    pos = Position2D.from_polar(azimuth, distance)
    weights = method_weights(method, bank.array, pos)
    speakers = [
        fftconvolve(x[None, :], bank.weighted_ir(
            dataclasses.replace(weights, weights=one_hot)), axes=1)
        for one_hot in np.eye(count)]
    rendered = render_source(method, bank, VirtualSource(x, pos)).samples
    expected = sum(w * r for w, r in zip(weights.weights, speakers))
    scale = sum(abs(w) * np.abs(r).max()
                for w, r in zip(weights.weights, speakers))
    assert np.abs(rendered - expected).max() <= 1e-12 * scale
