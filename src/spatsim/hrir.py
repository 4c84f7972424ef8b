"""Head-related impulse response sets: loading, synthesis, interpolation.

A set holds fixed-length IRs on a uniform azimuth grid for eight receiver
channels: the two in-ear microphones plus three behind-the-ear (BTE) hearing
aid microphones per side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml
from scipy.io import wavfile

from .dsp import delay_signal
from .geometry import Position2D, wrap_degrees, wrap_degrees_signed
from .panner import SPEED_OF_SOUND

CHANNELS = ("in_ear_L", "in_ear_R",
            "ha_L_front", "ha_L_mid", "ha_L_rear",
            "ha_R_front", "ha_R_mid", "ha_R_rear")

# Channel subsets per hearing aid algorithm class.
CHANNELS_BEAMFORMER = ("ha_L_front", "ha_L_mid", "ha_L_rear",
                       "ha_R_front", "ha_R_mid", "ha_R_rear")
CHANNELS_ADM = ("ha_L_front", "ha_L_rear")
CHANNELS_BINAURAL_NR = ("ha_L_front", "ha_R_front")
CHANNELS_SINGLE_NR = ("ha_L_front",)
CHANNELS_LOCALIZATION = ("in_ear_L", "in_ear_R")

DEFAULT_SAMPLE_RATE = 48000
DEFAULT_IR_LENGTH = 4800
DEFAULT_HEAD_RADIUS = 0.0875


class HrirLoadError(RuntimeError):
    """Raised when an on-disk HRIR set is missing or inconsistent."""


@dataclass(frozen=True)
class MicLayout:
    """Microphone placement on the sphere surface, azimuths in degrees.

    The BTE triple sits slightly behind each ear; `bte_pair_spacing` is the
    front-to-rear arc distance in meters used by the differential microphone.
    """

    ear_azimuth: float = 90.0
    bte_center_offset: float = 5.0
    bte_pair_spacing: float = 0.01

    def channel_azimuths(self, head_radius: float) -> dict:
        half_step = math.degrees(0.5 * self.bte_pair_spacing / head_radius)
        left = self.ear_azimuth + self.bte_center_offset
        return {
            "in_ear_L": self.ear_azimuth,
            "in_ear_R": -self.ear_azimuth,
            "ha_L_front": left - half_step,
            "ha_L_mid": left,
            "ha_L_rear": left + half_step,
            "ha_R_front": -(left - half_step),
            "ha_R_mid": -left,
            "ha_R_rear": -(left + half_step),
        }


@dataclass
class HrirSet:
    """Direction-indexed multi-channel impulse responses at a fixed distance."""

    sample_rate: int
    distance: float
    azimuths: np.ndarray            # sorted, degrees in [0, 360)
    irs: np.ndarray                 # (n_directions, n_channels, ir_length)
    channels: tuple = CHANNELS
    head_radius: float = DEFAULT_HEAD_RADIUS
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.azimuths = np.asarray(self.azimuths, dtype=float)
        self.irs = np.asarray(self.irs, dtype=float)
        if self.irs.shape[:2] != (len(self.azimuths), len(self.channels)):
            raise ValueError("IR array shape does not match grid and channels")
        # grid_step and the interpolation assume n steps of 360/n degrees.
        steps = np.diff(self.azimuths)
        if not np.allclose(steps, self.grid_step, atol=1e-6):
            raise ValueError("azimuth grid does not close the circle in "
                             "uniform steps of 360/n degrees")

    @property
    def ir_length(self) -> int:
        return self.irs.shape[2]

    @property
    def grid_step(self) -> float:
        return 360.0 / len(self.azimuths)

    def channel_index(self, name: str) -> int:
        return self.channels.index(name)

    def select(self, channels: tuple) -> "HrirSet":
        """This set restricted to the named channels, in that order, over a
        copy of their IRs, so that the full array can be freed. Its own
        channels give the set itself."""
        channels = tuple(channels)
        if channels == self.channels:
            return self
        missing = [c for c in channels if c not in self.channels]
        if missing:
            raise ValueError(f"HRIR set lacks the channel(s) {missing} (it "
                             f"holds {list(self.channels)})")
        return replace(self, channels=channels, irs=self.irs[
            :, [self.channel_index(c) for c in channels]])

    def grid_index(self, azimuth: float) -> int | None:
        """Index of an on-grid azimuth, or None if off-grid."""
        rel = wrap_degrees(azimuth - self.azimuths[0]) / self.grid_step
        i = int(round(rel)) % len(self.azimuths)
        if abs(wrap_degrees_signed(azimuth - self.azimuths[i])) < 1e-6:
            return i
        return None


def synth_sphere_hrir(azimuth_grid: np.ndarray | None = None,
                      sample_rate: int = DEFAULT_SAMPLE_RATE,
                      head_radius: float = DEFAULT_HEAD_RADIUS,
                      distance: float = 3.0,
                      ir_length: int = DEFAULT_IR_LENGTH,
                      channels: tuple = CHANNELS) -> HrirSet:
    """Synthesize an HRIR set over `channels` from the rigid-sphere model.

    IRs carry the measurement-distance propagation delay (distance/c) and are
    normalized to unit free-field magnitude at the sphere center.
    """
    from .sphere import sphere_transfer

    if not 0.05 <= head_radius <= 0.12:
        raise ValueError(f"head radius {head_radius} m outside [0.05, 0.12]")
    if azimuth_grid is None:
        azimuth_grid = np.arange(0.0, 360.0, 5.0)
    azimuth_grid = np.asarray(azimuth_grid, dtype=float)
    layout = MicLayout()
    mic_az = layout.channel_azimuths(head_radius)

    freqs = np.fft.rfftfreq(ir_length, 1.0 / sample_rate)
    # One sphere evaluation per distinct incidence angle.
    pairs = [(az, ch) for az in azimuth_grid for ch in channels]
    cosines = np.array([math.cos(math.radians(az - mic_az[ch]))
                        for az, ch in pairs])
    uniq, inverse = np.unique(np.round(cosines, 12), return_inverse=True)
    h_uniq = sphere_transfer(freqs, uniq, head_radius, distance)

    delay = np.exp(-2j * np.pi * freqs * distance / SPEED_OF_SOUND)
    irs = np.empty((len(azimuth_grid), len(channels), ir_length))
    for p, (az, ch) in enumerate(pairs):
        i, j = divmod(p, len(channels))
        irs[i, j] = np.fft.irfft(h_uniq[inverse[p]] * delay, n=ir_length)

    return HrirSet(sample_rate=sample_rate, distance=distance,
                   azimuths=azimuth_grid, irs=irs, channels=tuple(channels),
                   head_radius=head_radius,
                   metadata={"source": "sphere-model",
                             "mic_layout": {
                                 "ear_azimuth": layout.ear_azimuth,
                                 "bte_center_offset": layout.bte_center_offset,
                                 "bte_pair_spacing": layout.bte_pair_spacing}})


def _estimate_delay(spectrum: np.ndarray, freqs: np.ndarray) -> float:
    """Linear-phase delay estimate in seconds via weighted phase-slope fit."""
    phase = np.unwrap(np.angle(spectrum))
    w = np.abs(spectrum) ** 2
    w_sum = w.sum()
    if w_sum <= 0:
        return 0.0
    fm = (w * freqs).sum() / w_sum
    pm = (w * phase).sum() / w_sum
    denom = (w * (freqs - fm) ** 2).sum()
    if denom <= 0:
        return 0.0
    slope = (w * (freqs - fm) * (phase - pm)).sum() / denom
    return -slope / (2.0 * np.pi)


def interpolate_direction(hrir_set: HrirSet, azimuth: float,
                          channels: tuple) -> np.ndarray:
    """IRs of the named channels for an arbitrary azimuth, shape
    (len(channels), ir_length).

    On-grid azimuths are returned exactly. Off-grid azimuths are built from
    the two bracketing grid IRs by linear interpolation of the magnitude
    spectrum and of the delay-aligned unwrapped phase: the linear-phase delay
    of each IR is removed, the residual phase interpolated, and the
    interpolated delay restored.
    """
    if not math.isfinite(azimuth):
        raise ValueError("azimuth must be finite")
    ch_idx = [hrir_set.channel_index(c) for c in channels]
    idx = hrir_set.grid_index(azimuth)
    if idx is not None:
        return hrir_set.irs[idx, ch_idx]

    step = hrir_set.grid_step
    rel = wrap_degrees(azimuth - hrir_set.azimuths[0])
    i0 = int(rel // step) % len(hrir_set.azimuths)
    i1 = (i0 + 1) % len(hrir_set.azimuths)
    t = (rel - i0 * step) / step

    n = hrir_set.ir_length
    freqs = np.fft.rfftfreq(n, 1.0 / hrir_set.sample_rate)
    out = np.empty((len(ch_idx), n))
    for k, c in enumerate(ch_idx):
        h0 = np.fft.rfft(hrir_set.irs[i0, c])
        h1 = np.fft.rfft(hrir_set.irs[i1, c])
        tau0 = _estimate_delay(h0, freqs)
        tau1 = _estimate_delay(h1, freqs)
        res0 = np.unwrap(np.angle(h0)) + 2.0 * np.pi * freqs * tau0
        res1 = np.unwrap(np.angle(h1)) + 2.0 * np.pi * freqs * tau1
        mag = (1.0 - t) * np.abs(h0) + t * np.abs(h1)
        tau = (1.0 - t) * tau0 + t * tau1
        phase = (1.0 - t) * res0 + t * res1 - 2.0 * np.pi * freqs * tau
        out[k] = np.fft.irfft(mag * np.exp(1j * phase), n=n)
    return out


TRANSLATE_HEADROOM = 128


def translate_listener(hrir_set: HrirSet, listener: Position2D,
                       speaker: Position2D, channels: tuple) -> np.ndarray:
    """Effective IR of each named channel from a speaker to a shifted
    listener, shape (len(channels), ir_length + TRANSLATE_HEADROOM).

    Interpolates the HRIR for the listener-relative direction and applies the
    distance correction: gain distance_ref/d and delay (d - distance_ref)/c.
    """
    if listener.norm() >= speaker.norm():
        raise ValueError("listener offset outside the speaker circle")
    rel = speaker - listener
    d = rel.norm()
    irs = interpolate_direction(hrir_set, rel.azimuth, channels)
    gain = hrir_set.distance / d
    delay_s = (d - hrir_set.distance) * hrir_set.sample_rate / SPEED_OF_SOUND
    out_len = hrir_set.ir_length + TRANSLATE_HEADROOM
    return gain * delay_signal(irs, delay_s, out_len=out_len)


MANIFEST_NAME = "manifest.yaml"


def save_hrir_set(hrir_set: HrirSet, path) -> None:
    """Write a set as manifest.yaml plus one float32 WAV per direction."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    manifest = {
        "sample_rate": int(hrir_set.sample_rate),
        "distance": float(hrir_set.distance),
        "azimuth_start": float(hrir_set.azimuths[0]),
        "azimuth_step": float(hrir_set.grid_step),
        "azimuth_count": int(len(hrir_set.azimuths)),
        "channels": list(hrir_set.channels),
        "head_radius": float(hrir_set.head_radius),
        "file_pattern": "az{azimuth:07.2f}.wav",
        "metadata": hrir_set.metadata,
    }
    with open(path / MANIFEST_NAME, "w") as fh:
        yaml.safe_dump(manifest, fh, sort_keys=False)
    for i, az in enumerate(hrir_set.azimuths):
        name = manifest["file_pattern"].format(azimuth=az)
        wavfile.write(path / name, hrir_set.sample_rate,
                      hrir_set.irs[i].T.astype(np.float32))


def load_hrir_set(path, channels: tuple | None = None) -> HrirSet:
    """Load and validate a set written by save_hrir_set, over only the
    named `channels` in that order (default: all it holds); a set that
    lacks one of them fails, naming them and the directory."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.exists():
        raise HrirLoadError(f"missing manifest: {manifest_path}")
    with open(manifest_path) as fh:
        manifest = yaml.safe_load(fh)
    for key in ("sample_rate", "distance", "azimuth_start", "azimuth_step",
                "azimuth_count", "channels", "file_pattern"):
        if key not in manifest:
            raise HrirLoadError(f"manifest missing key '{key}'")

    rate = int(manifest["sample_rate"])
    azimuths = (manifest["azimuth_start"]
                + manifest["azimuth_step"] * np.arange(manifest["azimuth_count"]))
    stored = tuple(manifest["channels"])
    channels = stored if channels is None else tuple(channels)
    missing = [c for c in channels if c not in stored]
    if missing:
        raise HrirLoadError(f"HRIR set lacks the channel(s) {missing}: {path}")
    columns = [stored.index(c) for c in channels]
    irs = None
    for i, az in enumerate(azimuths):
        fname = path / manifest["file_pattern"].format(azimuth=az)
        if not fname.exists():
            raise HrirLoadError(f"missing IR file for azimuth {az:g}: {fname}")
        file_rate, data = wavfile.read(fname)
        if file_rate != rate:
            raise HrirLoadError(
                f"sample rate mismatch in {fname}: manifest {rate}, file {file_rate}")
        if data.ndim != 2 or data.shape[1] != len(stored):
            raise HrirLoadError(
                f"channel count mismatch in {fname}: expected {len(stored)}")
        if irs is None:
            irs = np.empty((len(azimuths), len(channels), data.shape[0]))
        elif data.shape[0] != irs.shape[2]:
            raise HrirLoadError(
                f"IR length mismatch in {fname}: expected {irs.shape[2]}, "
                f"got {data.shape[0]}")
        irs[i] = data[:, columns].T

    return HrirSet(sample_rate=rate, distance=float(manifest["distance"]),
                   azimuths=azimuths, irs=irs, channels=channels,
                   head_radius=float(manifest.get("head_radius",
                                                  DEFAULT_HEAD_RADIUS)),
                   metadata=manifest.get("metadata") or {})
