"""Scene rendering: speaker feeds, receiver convolution, free-field reference.

The whole chain is linear, so target and noise stems are rendered separately
and summed; their sum equals the rendered mixture samplewise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from .dsp import FRACTIONAL_DELAY_TAPS, delay_signal
from .geometry import Position2D, SpeakerArray
from .hrir import HrirSet, translate_listener
from .panner import SPEED_OF_SOUND, ReproductionMethod, method_weights

CALIBRATION_CHANNEL = "in_ear_L"

# Keep the full ringing tail of the fractional-delay filter so that delaying
# before or after a convolution yields identical results.
_DELAY_TAIL = FRACTIONAL_DELAY_TAPS // 2


def _delayed_len(n: int, delay_samples: float) -> int:
    return n + int(np.ceil(delay_samples)) + 1 + _DELAY_TAIL


@dataclass
class AudioBuffer:
    """Multi-channel audio, channel-major samples."""

    sample_rate: int
    samples: np.ndarray     # (channels, n)

    def __post_init__(self):
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=float))
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("non-finite samples")

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.samples.shape[1] / self.sample_rate


@dataclass(frozen=True)
class VirtualSource:
    signal: np.ndarray
    position: Position2D


@dataclass(frozen=True)
class SceneSpec:
    """A frontal target plus spatially distributed noise sources."""

    target: VirtualSource
    noises: tuple


@dataclass(frozen=True)
class RenderOutput:
    """Target and noise stems over the named receiver channels."""

    target_only: AudioBuffer
    noise_only: AudioBuffer
    channels: tuple


class ReceiverBank:
    """Speaker-to-listener IRs of one array, HRIR set and listener offset.

    Immutable once built; shared across renders of all sources in a scene.
    """

    def __init__(self, array: SpeakerArray, hrir_set: HrirSet,
                 listener: Position2D, channels: tuple):
        self.array = array
        self.set = hrir_set
        self.channels = tuple(channels)
        # (n_speakers, n_selected_channels, ir_len)
        self.irs = np.stack([translate_listener(hrir_set, listener, s,
                                                self.channels)
                             for s in array.positions])

    def select(self, channels: tuple) -> "ReceiverBank":
        """This bank restricted to a subset of its channels, without
        translating the HRIRs again; renders through it cost what a bank
        built for those channels alone costs, and give the same samples.
        The bank is immutable, so its own channels give the bank itself."""
        if tuple(channels) == self.channels:
            return self
        sub = copy.copy(self)
        sub.channels = tuple(channels)
        sub.irs = self.irs[:, [self.channels.index(c) for c in sub.channels]]
        return sub

    def weighted_ir(self, weights: np.ndarray,
                    source: Position2D) -> np.ndarray:
        """Effective IR from `source` to the receivers, (n_channels, len):
        the speaker sum of the driving `weights` at the source's 1/r gain
        and r/c delay."""
        dist = source.norm()
        return self._transmitted(
            np.tensordot(weights * (1.0 / dist), self.irs, axes=(0, 0)), dist)

    def speaker_irs(self, source: Position2D) -> np.ndarray:
        """Each speaker's IR alone at the source's 1/r gain and r/c delay,
        (n_speakers, n_channels, len): `weighted_ir` of each one-hot weight
        vector, equal to it sample for sample, without summing the other
        speakers' zero terms."""
        dist = source.norm()
        return self._transmitted((1.0 / dist) * self.irs, dist)

    def _transmitted(self, irs: np.ndarray, dist: float) -> np.ndarray:
        """`irs` delayed along their last axis by the travel time of
        `dist` metres."""
        delay = dist / SPEED_OF_SOUND * self.set.sample_rate
        return delay_signal(irs, delay,
                            out_len=_delayed_len(irs.shape[-1], delay))


def render_source(method: ReproductionMethod, bank: ReceiverBank,
                  source: VirtualSource) -> AudioBuffer:
    """Render one source through a reproduction method to the receiver
    channels: one convolution per channel with the effective IR, the
    speaker sum of the driving weights times the speaker-to-receiver IRs."""
    weights = method_weights(method, bank.array, source.position)
    eff = bank.weighted_ir(weights, source.position)
    x = np.asarray(source.signal, dtype=float)
    return AudioBuffer(sample_rate=bank.set.sample_rate,
                       samples=fftconvolve(x[None, :], eff, axes=1))


def render_reference(source: VirtualSource, hrir_set: HrirSet,
                     listener: Position2D, channels: tuple) -> AudioBuffer:
    """Free-field rendering: the source acts as its own loudspeaker.

    Convolves the signal with the listener-translated HRIR of the source
    position and applies the source transmission (1/distance gain at the
    measurement-distance delay), which makes a speaker-position source
    identical to its nearest-speaker rendering.
    """
    tir = translate_listener(hrir_set, listener, source.position, channels)
    delay = hrir_set.distance * hrir_set.sample_rate / SPEED_OF_SOUND
    gain = 1.0 / hrir_set.distance
    x = np.asarray(source.signal, dtype=float)
    conv = fftconvolve(x[None, :], tir, axes=1)
    out = gain * delay_signal(conv, delay,
                              out_len=_delayed_len(conv.shape[1], delay))
    return AudioBuffer(sample_rate=hrir_set.sample_rate, samples=out)


def _zero_pad(x: np.ndarray, n: int) -> np.ndarray:
    """`x` with zeros appended along the last axis up to length `n`."""
    return np.pad(x, ((0, 0), (0, max(0, n - x.shape[1]))))


def render_scene_stems(scene: SceneSpec, render,
                       channels: tuple) -> RenderOutput:
    """Uncalibrated target and noise stems over `channels`, which must hold
    the calibration channel.

    `render(source)` renders one source over `channels`: `render_source`
    through a bank over them, or `render_reference` in free field.
    Rendering is linear, so SNR variants can rescale the noise stem without
    re-rendering (see noise_scale).
    """
    channels = tuple(channels)
    if CALIBRATION_CHANNEL not in channels:
        raise ValueError(f"stems need the channel {CALIBRATION_CHANNEL!r}")
    target = render(scene.target)
    t = target.samples
    # Each noise part is added as soon as it is rendered, so that only one
    # is held at a time; the sum grows to the longest part.
    n = np.zeros((len(channels), 0))
    for src in scene.noises:
        part = render(src).samples
        n = _zero_pad(n, part.shape[1])
        n[:, :part.shape[1]] += part
    n_len = max(t.shape[1], n.shape[1])
    rate = target.sample_rate
    return RenderOutput(target_only=AudioBuffer(rate, _zero_pad(t, n_len)),
                        noise_only=AudioBuffer(rate, _zero_pad(n, n_len)),
                        channels=channels)


def noise_scale(stems: RenderOutput, nominal_input_snr: float) -> float:
    """Factor on the noise stem that puts the calibration-channel SNR at the
    nominal value."""
    cal = stems.channels.index(CALIBRATION_CHANNEL)
    p_t = float(np.mean(np.square(stems.target_only.samples[cal])))
    p_n = float(np.mean(np.square(stems.noise_only.samples[cal])))
    if p_t <= 0.0 or p_n <= 0.0:
        raise ValueError("cannot calibrate SNR: zero-power stem")
    return np.sqrt(p_t / p_n) * 10.0 ** (-nominal_input_snr / 20.0)
