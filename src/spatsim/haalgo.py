"""Reference hearing aid algorithms on a shared short-time spectral core.

Four algorithm classes: a fixed binaural MVDR beamformer with post filter,
an adaptive differential microphone, an interaural-coherence noise reduction,
and an oracle single-channel spectral-amplitude noise reduction.

Every algorithm derives its time-variant parameters from the mixture alone
and exposes shadow filtering: the identical linear time-variant operation is
applied to the mixture and to the separated target/noise stems, so processed
target + processed noise equals the processed mixture.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ive

from .binsim import AudioBuffer, RenderOutput
from .dsp import one_pole_smooth
from .hrir import (CHANNELS_ADM, CHANNELS_BEAMFORMER, CHANNELS_BINAURAL_NR,
                   CHANNELS_SINGLE_NR, HrirSet, MicLayout)
from .panner import SPEED_OF_SOUND
from .stft import StftProcessor


class DesignError(RuntimeError):
    """Raised when an algorithm design step is numerically unusable."""


class SpectralGainAlgorithm:
    """Base for algorithms expressed as a time-variant linear map on STFTs."""

    channels: tuple
    name: str
    # An oracle algorithm reads the noise stem, so only `shadow` runs it.
    oracle = False

    def __init__(self, stft: StftProcessor | None = None):
        self.stft = stft or StftProcessor()

    # Subclasses: derive the linear operation from the mixture STFT; only
    # oracle algorithms read `noise_spec`, the STFT of the noise in the
    # mixture (None where it is unknown).
    def _operation(self, mix_spec: np.ndarray, noise_spec: np.ndarray | None):
        raise NotImplementedError

    # Subclasses: apply the derived operation to any STFT with the same
    # channel layout as the input.
    def _apply(self, op, spec: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def reference_channel_indices(self) -> tuple:
        """Input channels that SNR and beam measurements compare the output
        against."""
        return tuple(range(len(self.channels)))

    def _synthesize(self, op, spec: np.ndarray, n_samples: int,
                    sample_rate: int) -> AudioBuffer:
        return AudioBuffer(sample_rate,
                           self.stft.synthesize(self._apply(op, spec),
                                                n_samples))

    def process(self, buf: AudioBuffer) -> AudioBuffer:
        if self.oracle:
            raise TypeError("oracle algorithm: use shadow")
        if buf.channels != len(self.channels):
            raise ValueError(
                f"{self.name} expects {len(self.channels)} channels, "
                f"got {buf.channels}")
        spec = self.stft.analyze(buf.samples)
        return self._synthesize(self._operation(spec, None), spec,
                                buf.samples.shape[1], buf.sample_rate)

    def analyze_stems(self, stems: RenderOutput) -> tuple:
        """STFTs of the target and noise stems on this algorithm's channels,
        picked from the stems' channels by name."""
        rows = [stems.channels.index(c) for c in self.channels]
        return (self.stft.analyze(stems.target_only.samples[rows]),
                self.stft.analyze(stems.noise_only.samples[rows]))

    def shadow_stems(self, stems: RenderOutput, spectra: tuple,
                     noise_scale: float = 1.0,
                     with_mixture: bool = False) -> list:
        """Shadow filtering of the target stem plus `noise_scale` times the
        noise stem, from their STFTs `spectra` (`analyze_stems(stems)`).

        The STFT is linear, so the mixture STFT is target + scale * noise;
        the operation is derived from it alone and applied to each stem.
        Returns the processed [target, scaled noise], or [mixture, target,
        scaled noise] `with_mixture`.
        """
        target_spec, noise_spec = spectra
        noise_spec = noise_scale * noise_spec
        mix_spec = target_spec + noise_spec
        op = self._operation(mix_spec, noise_spec)
        specs = (target_spec, noise_spec)
        if with_mixture:
            specs = (mix_spec,) + specs
        n = stems.target_only.samples.shape[1]
        rate = stems.target_only.sample_rate
        return [self._synthesize(op, spec, n, rate) for spec in specs]

    def shadow(self, stems: RenderOutput) -> list:
        """The processed [mixture, target, noise], each with the operation
        derived from the mixture."""
        return self.shadow_stems(stems, self.analyze_stems(stems),
                                 with_mixture=True)


# ---------------------------------------------------------------------------
# Static binaural MVDR beamformer with binaural post filter


@dataclass
class BeamformerDesign:
    """Frequency-domain MVDR weights over the six hearing aid channels."""

    weights: np.ndarray          # (bins, 6)
    propagation: np.ndarray      # (bins, 6) steering vectors
    noise_cov: np.ndarray        # (bins, 6, 6) diffuse model, loaded
    post_scale: np.ndarray       # (bins,) blocked-power -> output-power factor


def _channel_spectra(hrir_set: HrirSet, azimuth: float, channels: tuple,
                     n_fft: int) -> np.ndarray:
    """DTFT of the channel IRs at the frequencies k / n_fft (k = 0 ..
    n_fft / 2) -> (bins, channels).

    exp(-2 pi i k n / n_fft) has period n_fft in n, so the DTFT there is the
    rfft of the IR folded modulo n_fft (its n_fft-sample blocks summed).
    """
    from .hrir import interpolate_direction

    irs = interpolate_direction(hrir_set, azimuth, channels)
    irs = np.pad(irs, ((0, 0), (0, -irs.shape[1] % n_fft)))
    folded = irs.reshape(len(channels), -1, n_fft).sum(axis=1)
    return np.fft.rfft(folded, axis=1).T


def design_mvdr(hrir_set: HrirSet,
                stft: StftProcessor | None = None) -> BeamformerDesign:
    """MVDR design steered to the front (0 degrees) from sampled propagation
    vectors and a diffuse noise model.

    The diffuse covariance is the isotropic average of the propagation-vector
    outer products over the HRIR azimuth grid, diagonally loaded by 1e-4 of
    its trace.
    """
    stft = stft or StftProcessor(sample_rate=hrir_set.sample_rate)
    if stft.sample_rate != hrir_set.sample_rate:
        raise ValueError("the STFT and the HRIR set must share a sample rate")
    n_ch = len(CHANNELS_BEAMFORMER)

    phi = np.zeros((stft.bins, n_ch, n_ch), dtype=complex)
    for az in hrir_set.azimuths:
        d_az = _channel_spectra(hrir_set, az, CHANNELS_BEAMFORMER,
                                stft.window_size)
        phi += d_az[:, :, None] * d_az[:, None, :].conj()
    phi /= len(hrir_set.azimuths)

    trace = np.real(np.trace(phi, axis1=1, axis2=2))
    phi += (1e-4 * np.maximum(trace, 1e-30) / n_ch)[:, None, None] \
        * np.eye(n_ch)

    cond = np.linalg.cond(phi)
    if np.any(cond > 1e8):
        raise DesignError(
            f"diffuse covariance ill-conditioned: max cond {cond.max():.3g}")

    d = _channel_spectra(hrir_set, 0.0, CHANNELS_BEAMFORMER, stft.window_size)
    phi_inv_d = np.linalg.solve(phi, d[:, :, None])[:, :, 0]
    denom = np.einsum("bc,bc->b", d.conj(), phi_inv_d)
    w = phi_inv_d / denom[:, None]

    # Scale factor mapping mean blocked-channel power to the beamformer
    # output power under the diffuse model; lets the post filter use the
    # blocking residual as an absolute noise estimate.
    d_norm2 = np.einsum("bc,bc->b", d.conj(), d).real
    proj = d[:, :, None] * d[:, None, :].conj() / d_norm2[:, None, None]
    block = np.eye(n_ch) - proj
    phi_blocked = block @ phi @ block.conj().transpose(0, 2, 1)
    blocked_power = np.real(np.trace(phi_blocked, axis1=1, axis2=2)) / n_ch
    out_power = np.real(np.einsum("bc,bcd,bd->b", w.conj(), phi, w))
    post_scale = out_power / np.maximum(blocked_power, 1e-30)

    return BeamformerDesign(weights=w, propagation=d, noise_cov=phi,
                            post_scale=post_scale)


class MvdrBeamformer(SpectralGainAlgorithm):
    """Fixed MVDR beamformer; a real post-filter gain derived from the
    beamformer output is applied to both front microphones, preserving
    binaural cues. Output is 2-channel (left front, right front)."""

    channels = CHANNELS_BEAMFORMER
    name = "beamformer"
    reference_channel_indices = (CHANNELS_BEAMFORMER.index("ha_L_front"),
                                 CHANNELS_BEAMFORMER.index("ha_R_front"))
    gain_floor = 0.1            # -20 dB
    smoothing_time = 0.02       # seconds

    def __init__(self, design: BeamformerDesign,
                 stft: StftProcessor | None = None):
        super().__init__(stft)
        self.design = design

    def _operation(self, mix_spec: np.ndarray, noise_spec) -> np.ndarray:
        w = self.design.weights
        d = self.design.propagation
        # Beamformer output and blocking residual per (frame, bin).
        y = np.einsum("bc,cfb->fb", w.conj(), mix_spec)
        d_norm2 = np.einsum("bc,bc->b", d.conj(), d).real
        coef = np.einsum("bc,cfb->fb", d.conj(), mix_spec) / d_norm2
        blocked = mix_spec - d.T[:, None, :] * coef[None]
        noise_est = (np.mean(np.abs(blocked) ** 2, axis=0)
                     * self.design.post_scale[None, :])

        rate = self.stft.frame_rate
        p_y = one_pole_smooth(np.abs(y) ** 2, self.smoothing_time, rate, axis=0)
        p_n = one_pole_smooth(noise_est, self.smoothing_time, rate, axis=0)
        snr = np.maximum(p_y - p_n, 0.0) / np.maximum(p_n, 1e-30)
        gain = snr / (1.0 + snr)
        return np.maximum(gain, self.gain_floor)

    def _apply(self, gain: np.ndarray, spec: np.ndarray) -> np.ndarray:
        return spec[list(self.reference_channel_indices)] * gain[None]


class MvdrCoreBeamformer(SpectralGainAlgorithm):
    """The raw (monaural) MVDR output without the post filter.

    Used to quantify the spatial noise reduction of the design itself;
    the listening output stays with MvdrBeamformer.
    """

    channels = CHANNELS_BEAMFORMER
    name = "beamformer_core"
    reference_channel_indices = MvdrBeamformer.reference_channel_indices

    def __init__(self, design: BeamformerDesign,
                 stft: StftProcessor | None = None):
        super().__init__(stft)
        self.design = design

    def _operation(self, mix_spec: np.ndarray, noise_spec):
        return None

    def _apply(self, op, spec: np.ndarray) -> np.ndarray:
        return np.einsum("bc,cfb->fb", self.design.weights.conj(), spec)[None]


# ---------------------------------------------------------------------------
# Adaptive differential microphone


class AdaptiveDifferentialMic(SpectralGainAlgorithm):
    """Front/back cardioids by delay-and-subtract; the back cardioid is
    scaled by an NLMS-adapted weight and subtracted to steer a rear null.
    Input is (front mic, rear mic); output is one channel."""

    channels = CHANNELS_ADM
    name = "adm"

    def __init__(self, mic_spacing: float = MicLayout().bte_pair_spacing,
                 stft: StftProcessor | None = None, step: float = 0.05):
        super().__init__(stft)
        self.step = step
        freqs = self.stft.frequencies
        delay = mic_spacing / SPEED_OF_SOUND
        self.phase = np.exp(-2j * np.pi * freqs * delay)
        # Four octave bands below Nyquist for the adaptive weight; a fifth,
        # lowest band absorbs the rest.
        upper = self.stft.sample_rate / 2.0
        edges = upper / (2.0 ** np.arange(4, 0, -1))
        self.band_of_bin = np.searchsorted(edges, freqs, side="right")
        self.n_bands = len(edges) + 1
        # Forward cardioid equalization: invert the 2 sin(omega T) slope of
        # the delay-and-subtract pair for a frontal source, by at most 20 dB.
        response = 2.0 * np.abs(np.sin(2.0 * np.pi * freqs * delay))
        self.eq = 1.0 / np.maximum(response, 0.1)

    def _cardioids(self, spec: np.ndarray) -> tuple:
        front, rear = spec[0], spec[1]
        c_front = front - rear * self.phase[None, :]
        c_back = rear - front * self.phase[None, :]
        return c_front, c_back

    def _operation(self, mix_spec: np.ndarray, noise_spec) -> np.ndarray:
        """Adapted mixing weights per (frame, band), clamped to [0, 1]."""
        c_front, c_back = self._cardioids(mix_spec)
        frames = mix_spec.shape[1]
        beta = np.zeros((frames, self.n_bands))
        b = np.zeros(self.n_bands)
        for t in range(frames):
            bt = b[self.band_of_bin]
            err = c_front[t] - bt * c_back[t]
            num = np.bincount(self.band_of_bin,
                              weights=np.real(np.conj(c_back[t]) * err),
                              minlength=self.n_bands)
            den = np.bincount(self.band_of_bin,
                              weights=np.abs(c_back[t]) ** 2,
                              minlength=self.n_bands)
            b = np.clip(b + self.step * num / np.maximum(den, 1e-20), 0.0, 1.0)
            beta[t] = b
        return beta

    def _apply(self, beta: np.ndarray, spec: np.ndarray) -> np.ndarray:
        c_front, c_back = self._cardioids(spec)
        bt = beta[:, self.band_of_bin]
        return ((c_front - bt * c_back) * self.eq[None, :])[None]


# ---------------------------------------------------------------------------
# Binaural coherence-based noise reduction


def efficiency_profile(freqs: np.ndarray) -> np.ndarray:
    """Efficiency exponent: 0 below 500 Hz, linear ramp to 0.5 at 1 kHz."""
    return np.clip((freqs - 500.0) / 1000.0, 0.0, 0.5)


class CoherenceNoiseReduction(SpectralGainAlgorithm):
    """Interaural-coherence-driven Wiener-like gain applied to both channels.

    Coherence is the vector strength of the low-pass filtered complex
    interaural phase difference; the band gain is coherence**beta(f).
    """

    channels = CHANNELS_BINAURAL_NR
    name = "coherence_nr"
    time_constant = 0.040       # seconds

    def __init__(self, stft: StftProcessor | None = None):
        super().__init__(stft)
        self.beta = efficiency_profile(self.stft.frequencies)

    def _operation(self, mix_spec: np.ndarray, noise_spec) -> np.ndarray:
        cross = mix_spec[0] * np.conj(mix_spec[1])
        mag = np.abs(cross)
        ipd_vec = np.where(mag > 0.0, cross / np.maximum(mag, 1e-300), 1.0)
        smoothed = one_pole_smooth(ipd_vec, self.time_constant,
                                   self.stft.frame_rate, axis=0)
        gamma = np.minimum(np.abs(smoothed), 1.0)
        return gamma ** self.beta[None, :]

    def _apply(self, gain: np.ndarray, spec: np.ndarray) -> np.ndarray:
        return spec * gain[None]


# ---------------------------------------------------------------------------
# Oracle single channel noise reduction (short-time spectral amplitude)


class SingleChannelNoiseReduction(SpectralGainAlgorithm):
    """Short-time spectral amplitude estimator with an oracle noise spectrum.

    A-posteriori SNR uses the true per-frame noise spectrum; the a-priori SNR
    follows the decision-directed recursion. Classic MMSE-STSA gain rule
    (Ephraim & Malah 1984).
    """

    channels = CHANNELS_SINGLE_NR
    name = "single_nr"
    oracle = True
    dd_alpha = 0.5              # decision-directed smoothing
    gain_floor = 0.01           # -40 dB

    def _operation(self, mix_spec: np.ndarray,
                   noise_spec: np.ndarray | None) -> np.ndarray:
        if noise_spec is None:
            raise ValueError("oracle noise spectrum required")
        x2 = np.abs(mix_spec[0]) ** 2
        lam = np.maximum(np.abs(noise_spec[0]) ** 2, 1e-30)
        frames, bins = x2.shape
        gains = np.empty((frames, bins))
        prev_s2 = np.zeros(bins)
        prev_lam = lam[0]
        for t in range(frames):
            post = x2[t] / lam[t]
            xi = (self.dd_alpha * prev_s2 / prev_lam
                  + (1.0 - self.dd_alpha) * np.maximum(post - 1.0, 0.0))
            xi = np.maximum(xi, 1e-6)
            g = _stsa_gain(xi, np.maximum(post, 1e-6))
            g = np.maximum(g, self.gain_floor)
            gains[t] = g
            prev_s2 = (g ** 2) * x2[t]
            prev_lam = lam[t]
        return gains

    def _apply(self, gain: np.ndarray, spec: np.ndarray) -> np.ndarray:
        return spec * gain[None]


def _stsa_gain(xi: np.ndarray, post: np.ndarray) -> np.ndarray:
    """MMSE short-time spectral amplitude gain."""
    v = np.maximum(xi * post / (1.0 + xi), 1e-10)
    small = v < 30.0
    gain = np.empty_like(v)
    vs = v[small]
    # exp(-v/2) I_n(v/2) evaluated stably via the scaled Bessel function.
    bessel = (1.0 + vs) * ive(0, vs / 2.0) + vs * ive(1, vs / 2.0)
    gain[small] = (np.sqrt(np.pi) / 2.0) * (np.sqrt(vs) / post[small]) * bessel
    # Large-v asymptote: the gain tends to the Wiener gain xi / (1 + xi).
    gain[~small] = (xi / (1.0 + xi))[~small]
    return gain


# The sweep's algorithms by name, in the order they are configured by
# default; each class declares the receiver channels it reads.
ALGORITHMS = {cls.name: cls for cls in (
    MvdrBeamformer, AdaptiveDifferentialMic, CoherenceNoiseReduction,
    SingleChannelNoiseReduction)}
ALGORITHM_NAMES = tuple(ALGORITHMS)
