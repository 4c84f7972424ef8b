import numpy as np
import pytest

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
