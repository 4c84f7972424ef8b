import numpy as np
import pytest
from scipy.signal import lfilter

import spatsim.signals as signals
from spatsim.metrics import make_third_octave_grid, third_octave_analyze
from spatsim.signals import (cafeteria_noise, make_default_scene,
                             speech_shaped_noise, synthetic_speech,
                             white_noise)

RATE = 48000


def test_generators_deterministic():
    for gen in (white_noise, speech_shaped_noise, synthetic_speech,
                cafeteria_noise):
        a = gen(0.25, RATE, seed=11)
        b = gen(0.25, RATE, seed=11)
        c = gen(0.25, RATE, seed=12)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert len(a) == int(0.25 * RATE)
        assert np.all(np.isfinite(a))


def test_unit_rms_normalization():
    for gen in (speech_shaped_noise, synthetic_speech, cafeteria_noise):
        x = gen(2.0, RATE, seed=5)
        assert np.sqrt(np.mean(x ** 2)) == pytest.approx(1.0, rel=1e-9)


def test_speech_shaped_noise_spectrum_tilt():
    x = speech_shaped_noise(4.0, RATE, seed=2)
    grid = make_third_octave_grid(100.0, 8000.0)
    p = third_octave_analyze(x, RATE, grid)[0]
    density = p / np.diff(grid.edges)       # power per Hz
    low = 10.0 * np.log10(density[grid.centers < 300.0].mean())
    high = 10.0 * np.log10(density[grid.centers > 4000.0].mean())
    assert low - high > 10.0        # strong low-frequency emphasis


def test_synthetic_speech_has_pauses_and_activity():
    x = synthetic_speech(4.0, RATE, seed=9)
    frame = RATE // 20
    n_frames = len(x) // frame
    frames = x[:n_frames * frame].reshape(n_frames, frame)
    power = np.mean(frames ** 2, axis=1)
    active = power > 0.05 * power.mean()
    assert 0.3 < active.mean() < 0.95


def scene_layout(scene):
    """Serializable source layout (role, azimuth, distance)."""
    rows = [{"role": "target",
             "azimuth": scene.target.position.azimuth,
             "distance": scene.target.position.norm()}]
    for src in scene.noises:
        rows.append({"role": "noise",
                     "azimuth": src.position.azimuth,
                     "distance": src.position.norm()})
    return rows


def test_default_scene_layout():
    scene = make_default_scene(0.1, RATE, n_noise=5, seed=3)
    assert len(scene.noises) == 5
    assert scene.target.position.azimuth == pytest.approx(0.0)
    assert scene.target.position.norm() == pytest.approx(3.0)
    for src in scene.noises:
        assert 1.5 <= src.position.norm() <= 4.0
    rows = scene_layout(scene)
    assert rows[0]["role"] == "target"
    assert len(rows) == 6
    # Same seed reproduces the layout exactly.
    again = make_default_scene(0.1, RATE, n_noise=5, seed=3)
    assert scene_layout(again) == rows


def _synthetic_speech_per_resonator(duration, sample_rate,
                                    seed=signals.DEFAULT_SEED):
    """Oracle of `synthetic_speech`: the same draws, with one `lfilter` call
    per formant, aspiration and fricative resonator."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    n_ctrl = max(4, int(np.ceil(duration * 8.0)) + 2)
    ctrl = np.cumsum(rng.standard_normal(n_ctrl)) * 0.1
    ctrl -= ctrl.mean()
    f0 = 120.0 * 2.0 ** np.clip(
        np.interp(np.linspace(0, n_ctrl - 1.0, n), np.arange(n_ctrl), ctrl),
        -0.3, 0.3)
    cycles = np.cumsum(f0) / sample_rate
    voiced = np.zeros(n)
    voiced[np.flatnonzero(np.diff(np.floor(cycles)) > 0) + 1] = 1.0
    voiced /= np.sqrt(np.mean(np.square(voiced))) + 1e-30
    unvoiced = rng.standard_normal(n)

    def resonator(fc, bw):
        r = np.exp(-np.pi * bw / sample_rate)
        return [1.0 - r], [1.0, -2.0 * r * np.cos(2.0 * np.pi * fc
                                                  / sample_rate), r * r]

    x = np.zeros(n)
    ramp_len = int(0.02 * sample_rate)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp_len) / ramp_len)
    pos = 0
    while pos < n:
        length = int(sample_rate / 4.0 * rng.uniform(0.7, 1.3))
        end = min(pos + length, n)
        if rng.uniform() < 0.65:
            amp = rng.gamma(shape=1.5, scale=0.7)
            if rng.uniform() < 0.7:
                seg = voiced[pos:end].copy()
                formants = (rng.uniform(300.0, 900.0),
                            rng.uniform(900.0, 2500.0),
                            rng.uniform(2500.0, 3500.0))
                for fc in formants:
                    seg = lfilter(*resonator(fc, 80.0 + fc / 15.0), seg)
                asp = lfilter(*resonator(rng.uniform(3000.0, 6000.0), 2000.0),
                              unvoiced[pos:end])
                asp_rms = np.sqrt(np.mean(np.square(asp)))
                seg_rms = np.sqrt(np.mean(np.square(seg)))
                if asp_rms > 0.0:
                    seg += asp * (0.2 * seg_rms / asp_rms)
            else:
                seg = lfilter(*resonator(rng.uniform(2500.0, 6000.0), 2000.0),
                              unvoiced[pos:end])
            rms = np.sqrt(np.mean(np.square(seg)))
            if rms > 0.0:
                seg *= amp / rms
            m = min(ramp_len, len(seg))
            seg[:m] *= ramp[:m]
            seg[-m:] *= ramp[:m][::-1]
            x[pos:end] = seg
        pos = end

    spec = np.fft.rfft(x)
    spec *= signals._speech_shaping(np.fft.rfftfreq(n, 1.0 / sample_rate))
    x = np.fft.irfft(spec, n=n)
    p = np.mean(np.square(x))
    if p <= 0.0:
        return x
    return x / np.sqrt(p)


def test_resonator_sections_equal_per_resonator_lfilter(monkeypatch):
    """The scene signals of the eight benchmark config seeds and an 8 s
    speech surrogate have the bits of one `lfilter` call per resonator."""
    def signals_of_each_draw():
        scenes = [signals.make_default_scene(2.0, RATE, seed=seed)
                  for seed in range(20150842, 20150850)]
        return [np.stack([scene.target.signal]
                         + [src.signal for src in scene.noises])
                for scene in scenes] + [signals.synthetic_speech(8.0, RATE)]

    got = signals_of_each_draw()
    monkeypatch.setattr(signals, "synthetic_speech",
                        _synthetic_speech_per_resonator)
    want = signals_of_each_draw()
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
