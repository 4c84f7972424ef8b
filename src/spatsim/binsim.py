"""Scene rendering: speaker feeds, receiver convolution, free-field reference.

The whole chain is linear, so target and noise stems are rendered separately
and summed; their sum equals the rendered mixture samplewise.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import fftconvolve

from .dsp import FRACTIONAL_DELAY_TAPS, delay_signal
from .geometry import ListenerPose, Position2D, SpeakerArray
from .hrir import HrirSet, translate_listener
from .panner import (SPEED_OF_SOUND, DrivingWeights, ReproductionMethod,
                     method_weights)

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
    level_offset_db: float = 0.0


@dataclass(frozen=True)
class SceneSpec:
    """A frontal target plus spatially distributed noise sources."""

    target: VirtualSource
    noises: tuple


@dataclass
class RenderOutput:
    """Separated stems; mixture == target_only + noise_only samplewise."""

    mixture: AudioBuffer
    target_only: AudioBuffer
    noise_only: AudioBuffer
    channels: tuple
    metadata: dict = field(default_factory=dict)


class ReceiverBank:
    """Precomputed speaker-to-listener IRs for one (array, set, pose) triple.

    Immutable once built; shared across renders of all sources in a scene.
    """

    def __init__(self, array: SpeakerArray, hrir_set: HrirSet,
                 pose: ListenerPose, channels: tuple):
        self.array = array
        self.set = hrir_set
        self.pose = pose
        self.channels = tuple(channels)
        ch_idx = [hrir_set.channel_index(c) for c in self.channels]
        irs = [translate_listener(hrir_set, pose, s) for s in array.positions]
        # (n_speakers, n_selected_channels, ir_len)
        self.irs = np.stack([ir[ch_idx] for ir in irs])

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

    def weighted_ir(self, weights: DrivingWeights) -> np.ndarray:
        """Effective source-to-receiver IR: speaker sum folded with the
        shared source gain/delay, shape (n_channels, len)."""
        w = weights.weights * weights.source_attenuation
        summed = np.tensordot(w, self.irs, axes=(0, 0))
        delay = weights.source_delay * self.set.sample_rate
        return delay_signal(summed, delay,
                            out_len=_delayed_len(summed.shape[1], delay))


def render_source(method: ReproductionMethod, bank: ReceiverBank,
                  source: VirtualSource,
                  speed_of_sound: float = SPEED_OF_SOUND) -> AudioBuffer:
    """Render one source through a reproduction method to the receiver
    channels: one convolution per channel with the effective IR, the
    speaker sum of the driving weights times the speaker-to-receiver IRs."""
    weights = method_weights(method, bank.array, source.position,
                             speed_of_sound=speed_of_sound)
    eff = bank.weighted_ir(weights)
    x = np.asarray(source.signal, dtype=float)
    return AudioBuffer(sample_rate=bank.set.sample_rate,
                       samples=fftconvolve(x[None, :], eff, axes=1))


def render_reference(source: VirtualSource, hrir_set: HrirSet,
                     pose: ListenerPose, channels: tuple,
                     speed_of_sound: float = SPEED_OF_SOUND) -> AudioBuffer:
    """Free-field rendering: the source acts as its own loudspeaker.

    Convolves the signal with the listener-translated HRIR of the source
    position and applies the source transmission (1/distance gain at the
    measurement-distance delay), which makes a speaker-position source
    identical to its nearest-speaker rendering.
    """
    ch_idx = [hrir_set.channel_index(c) for c in channels]
    tir = translate_listener(hrir_set, pose, source.position,
                             speed_of_sound=speed_of_sound)[ch_idx]
    delay = hrir_set.distance * hrir_set.sample_rate / speed_of_sound
    gain = 1.0 / hrir_set.distance
    x = np.asarray(source.signal, dtype=float)
    conv = fftconvolve(x[None, :], tir, axes=1)
    out = gain * delay_signal(conv, delay,
                              out_len=_delayed_len(conv.shape[1], delay))
    return AudioBuffer(sample_rate=hrir_set.sample_rate, samples=out)


def _render_any(method, bank, source, hrir_set, pose, channels):
    if method is None:
        return render_reference(source, hrir_set, pose, channels)
    return render_source(method, bank, source)


def _zero_pad(x: np.ndarray, n: int) -> np.ndarray:
    """`x` with zeros appended along the last axis up to length `n`."""
    return np.pad(x, ((0, 0), (0, max(0, n - x.shape[1]))))


def render_scene_stems(scene: SceneSpec, method: ReproductionMethod | None,
                       bank: ReceiverBank | None, hrir_set: HrirSet,
                       pose: ListenerPose, channels: tuple) -> RenderOutput:
    """Uncalibrated stems plus calibration-channel powers in the metadata.

    `method=None` renders free field (no bank); otherwise the sources go
    through `bank`, which must hold `channels` and the calibration channel,
    and only those are rendered. Rendering is linear, so SNR variants can
    rescale the noise stem without re-rendering (see noise_scale).
    """
    channels = tuple(channels)
    render_channels = channels
    if CALIBRATION_CHANNEL not in render_channels:
        render_channels = channels + (CALIBRATION_CHANNEL,)
    if method is not None:
        bank = bank.select(render_channels)

    t = _render_any(method, bank, scene.target, hrir_set, pose,
                    render_channels).samples
    # Each noise part is added as soon as it is rendered, so that only one
    # is held at a time; the sum grows to the longest part.
    n = np.zeros((len(render_channels), 0))
    for src in scene.noises:
        scaled = VirtualSource(
            signal=np.asarray(src.signal, dtype=float)
            * 10.0 ** (src.level_offset_db / 20.0),
            position=src.position)
        part = _render_any(method, bank, scaled, hrir_set, pose,
                           render_channels).samples
        n = _zero_pad(n, part.shape[1])
        n[:, :part.shape[1]] += part
    n_len = max(t.shape[1], n.shape[1])
    t = _zero_pad(t, n_len)
    n = _zero_pad(n, n_len)

    cal = render_channels.index(CALIBRATION_CHANNEL)
    p_t = float(np.mean(np.square(t[cal])))
    p_n = float(np.mean(np.square(n[cal])))
    keep = [render_channels.index(c) for c in channels]
    rate = hrir_set.sample_rate
    return RenderOutput(
        mixture=AudioBuffer(rate, t[keep] + n[keep]),
        target_only=AudioBuffer(rate, t[keep]),
        noise_only=AudioBuffer(rate, n[keep]),
        channels=channels,
        metadata={"target_power": p_t, "noise_power": p_n,
                  "calibration_channel": CALIBRATION_CHANNEL})


def select_channels(stems: RenderOutput, channels: tuple) -> RenderOutput:
    """Stems restricted to a channel subset (no re-rendering; calibration
    metadata is preserved since it refers to the calibration channel)."""
    channels = tuple(channels)
    idx = [stems.channels.index(c) for c in channels]
    rate = stems.mixture.sample_rate
    return RenderOutput(
        mixture=AudioBuffer(rate, stems.mixture.samples[idx]),
        target_only=AudioBuffer(rate, stems.target_only.samples[idx]),
        noise_only=AudioBuffer(rate, stems.noise_only.samples[idx]),
        channels=channels, metadata=dict(stems.metadata))


def noise_scale(stems: RenderOutput, nominal_input_snr: float) -> float:
    """Factor on the noise stem that puts the calibration-channel SNR at the
    nominal value."""
    p_t = stems.metadata["target_power"]
    p_n = stems.metadata["noise_power"]
    if p_t <= 0.0 or p_n <= 0.0:
        raise ValueError("cannot calibrate SNR: zero-power stem")
    return np.sqrt(p_t / p_n) * 10.0 ** (-nominal_input_snr / 20.0)
