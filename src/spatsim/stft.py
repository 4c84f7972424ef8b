"""Short-time spectral processing core shared by all hearing aid algorithms.

Square-root Hann analysis and synthesis at half-overlap gives perfect
reconstruction on unmodified frames.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class StftProcessor:

    def __init__(self, sample_rate: int = 48000, window_size: int = 512,
                 hop: int = 256):
        if window_size % hop != 0:
            raise ValueError("hop must divide the window size")
        self.sample_rate = sample_rate
        self.window_size = window_size
        self.hop = hop
        n = np.arange(window_size)
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / window_size)
        self.window = np.sqrt(hann)
        # COLA normalization for the analysis*synthesis window pair.
        acc = np.zeros(window_size)
        for k in range(0, window_size, hop):
            acc += np.roll(self.window ** 2, k)
        self._cola = acc.max()

    @property
    def bins(self) -> int:
        return self.window_size // 2 + 1

    @property
    def frequencies(self) -> np.ndarray:
        return np.fft.rfftfreq(self.window_size, 1.0 / self.sample_rate)

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.hop

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """STFT of (channels, n) or (n,) input -> (channels, frames, bins)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        pad = self.window_size
        xp = np.pad(x, ((0, 0), (pad, pad)))
        frames = sliding_window_view(xp, self.window_size, axis=-1)
        return np.fft.rfft(frames[:, ::self.hop] * self.window, axis=-1)

    def synthesize(self, spec: np.ndarray, n_samples: int) -> np.ndarray:
        """Inverse of analyze; returns (channels, n_samples)."""
        spec = np.asarray(spec)
        if spec.ndim == 2:
            spec = spec[None]
        ch, frames, _ = spec.shape
        seg = np.fft.irfft(spec, n=self.window_size, axis=-1) * self.window
        # Overlap-add by hop-sized blocks: block r of frame t lands on output
        # block t + r. Adding r in descending order adds each output block's
        # terms in frame order, as a loop over frames would.
        per_frame = self.window_size // self.hop
        blocks = seg.reshape(ch, frames, per_frame, self.hop)
        out = np.zeros((ch, frames + per_frame - 1, self.hop))
        for r in reversed(range(per_frame)):
            out[:, r:r + frames] += blocks[:, :, r]
        out = out.reshape(ch, -1) / self._cola
        pad = self.window_size
        return out[:, pad:pad + n_samples]
