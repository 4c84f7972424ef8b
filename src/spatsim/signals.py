"""Deterministic test stimuli and the default diffuse-noise scene.

The repository ships no audio payloads; stimuli are synthesized on demand
from seeded generators (speech-shaped noise, a syllabically modulated
speech surrogate, cafeteria-like babble noise).
"""

from __future__ import annotations

import numpy as np
from scipy.signal import sosfilt

from .binsim import SceneSpec, VirtualSource
from .geometry import Position2D

DEFAULT_SEED = 20150842


def white_noise(duration: float, sample_rate: int, seed: int = DEFAULT_SEED,
                ) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(int(round(duration * sample_rate)))


def _speech_shaping(freqs: np.ndarray) -> np.ndarray:
    """Long-term-average speech spectrum approximation: flat plateau around
    100-500 Hz, ~ -6 dB/octave rolloff above, steep cut below 100 Hz."""
    shape = 1.0 / np.sqrt(1.0 + (freqs / 500.0) ** 2)
    lowcut = (freqs / 100.0) ** 2 / (1.0 + (freqs / 100.0) ** 2)
    return shape * lowcut


def speech_shaped_noise(duration: float, sample_rate: int,
                        seed: int = DEFAULT_SEED) -> np.ndarray:
    n = int(round(duration * sample_rate))
    rng = np.random.default_rng(seed)
    spec = np.fft.rfft(rng.standard_normal(n))
    spec *= _speech_shaping(np.fft.rfftfreq(n, 1.0 / sample_rate))
    x = np.fft.irfft(spec, n=n)
    return x / np.sqrt(np.mean(np.square(x)))


def synthetic_speech(duration: float, sample_rate: int,
                     seed: int = DEFAULT_SEED) -> np.ndarray:
    """Speech surrogate: harmonic (pulse-train) excitation with a pitch
    contour drifting around 120 Hz, voiced/unvoiced syllables at about four
    per second, real pauses, and speech-like spectral shaping. Spectrally
    sparse like voiced speech; not intelligible."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))

    # Pitch contour: slow random walk, +-20% around the base frequency.
    n_ctrl = max(4, int(np.ceil(duration * 8.0)) + 2)
    ctrl = np.cumsum(rng.standard_normal(n_ctrl)) * 0.1
    ctrl -= ctrl.mean()
    f0 = 120.0 * 2.0 ** np.clip(
        np.interp(np.linspace(0, n_ctrl - 1.0, n), np.arange(n_ctrl), ctrl),
        -0.3, 0.3)
    # Glottal-pulse excitation: spectrally flat so the shaping filter alone
    # sets the long-term spectrum (a sawtooth would add another -6 dB/oct).
    cycles = np.cumsum(f0) / sample_rate
    voiced = np.zeros(n)
    voiced[np.flatnonzero(np.diff(np.floor(cycles)) > 0) + 1] = 1.0
    voiced /= np.sqrt(np.mean(np.square(voiced))) + 1e-30
    unvoiced = rng.standard_normal(n)

    # Syllables: active/pause gating with raised-cosine ramps, most active
    # syllables voiced, amplitudes gamma-distributed, each syllable filtered
    # through its own random formant resonators (spectral sparsity). A
    # resonator is one second-order `sosfilt` section.
    def resonator(fc, bw):
        r = np.exp(-np.pi * bw / sample_rate)
        return [1.0 - r, 0.0, 0.0,
                1.0, -2.0 * r * np.cos(2.0 * np.pi * fc / sample_rate), r * r]

    x = np.zeros(n)
    ramp_len = int(0.02 * sample_rate)
    ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(ramp_len) / ramp_len)
    pos = 0
    while pos < n:
        length = int(sample_rate / 4.0 * rng.uniform(0.7, 1.3))
        end = min(pos + length, n)
        if rng.uniform() < 0.65:            # else: pause
            amp = rng.gamma(shape=1.5, scale=0.7)
            is_voiced = rng.uniform() < 0.7
            if is_voiced:
                formants = (rng.uniform(300.0, 900.0),
                            rng.uniform(900.0, 2500.0),
                            rng.uniform(2500.0, 3500.0))
                seg = sosfilt([resonator(fc, 80.0 + fc / 15.0)
                               for fc in formants], voiced[pos:end])
                # Aspiration noise keeps a high-frequency floor under the
                # formant rolloff.
                asp = sosfilt([resonator(rng.uniform(3000.0, 6000.0), 2000.0)],
                              unvoiced[pos:end])
                asp_rms = np.sqrt(np.mean(np.square(asp)))
                seg_rms = np.sqrt(np.mean(np.square(seg)))
                if asp_rms > 0.0:
                    seg += asp * (0.2 * seg_rms / asp_rms)
            else:                           # fricative burst
                fc = rng.uniform(2500.0, 6000.0)
                seg = sosfilt([resonator(fc, 2000.0)], unvoiced[pos:end])
            rms = np.sqrt(np.mean(np.square(seg)))
            if rms > 0.0:
                seg *= amp / rms
            m = min(ramp_len, len(seg))
            seg[:m] *= ramp[:m]
            seg[-m:] *= ramp[:m][::-1]
            x[pos:end] = seg
        pos = end

    spec = np.fft.rfft(x)
    spec *= _speech_shaping(np.fft.rfftfreq(n, 1.0 / sample_rate))
    x = np.fft.irfft(spec, n=n)
    p = np.mean(np.square(x))
    if p <= 0.0:                            # all-pause draw (very short inputs)
        return x
    return x / np.sqrt(p)


def cafeteria_noise(duration: float, sample_rate: int,
                    seed: int = 1) -> np.ndarray:
    """Babble noise: sum of independent speech-surrogate streams, so its
    long-term spectrum parallels the target's."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * sample_rate))
    x = np.zeros(n)
    for _ in range(4):
        x += synthetic_speech(duration, sample_rate,
                              seed=rng.integers(1 << 31))
    return x / np.sqrt(np.mean(np.square(x)))


def make_default_scene(duration: float, sample_rate: int,
                       n_noise: int = 20, seed: int = DEFAULT_SEED,
                       map=map) -> SceneSpec:
    """Frontal speech target at 3 m plus spatially distributed
    cafeteria-noise sources at seeded random azimuths, distances 1.5-4 m.
    Noise levels fall off with distance (the rendering applies the
    1/distance law).

    Every seed and position is drawn first; then `map(signal, indices)`
    synthesizes the source signals, the target's (index 0) and each noise's,
    in source order; a pool's map may run them in other processes.
    """
    rng = np.random.default_rng(seed)
    seeds = [rng.integers(1 << 31)]
    positions = [Position2D.from_polar(0.0, 3.0)]
    for _ in range(n_noise):
        az = rng.uniform(0.0, 360.0)
        dist = rng.uniform(1.5, 4.0)
        seeds.append(rng.integers(1 << 31))
        positions.append(Position2D.from_polar(az, dist))

    def signal(i: int) -> np.ndarray:
        generator = synthetic_speech if i == 0 else cafeteria_noise
        return generator(duration, sample_rate, seed=seeds[i])

    sources = [VirtualSource(signal=x, position=p) for x, p in
               zip(map(signal, range(n_noise + 1)), positions)]
    return SceneSpec(target=sources[0], noises=tuple(sources[1:]))
