"""Shared signal-processing primitives: fractional delay, one-pole smoothing,
the ERB frequency scale."""

from __future__ import annotations

import numpy as np
from scipy.signal import fftconvolve, sosfilt

FRACTIONAL_DELAY_TAPS = 64


def fractional_delay_fir(delay_samples: float) -> tuple:
    """Windowed-sinc fractional delay filter.

    Returns (offset, h): convolving a signal with `h` and placing the result
    at sample `offset` delays it by `delay_samples`. An integer delay yields
    an exact unit impulse (sinc hits the tap grid).
    """
    half = FRACTIONAL_DELAY_TAPS // 2
    n0 = int(np.floor(delay_samples)) - half + 1
    n = n0 + np.arange(FRACTIONAL_DELAY_TAPS)
    arg = delay_samples - n
    h = np.sinc(arg)
    # Hann window centered on the delay; width spans the tap support.
    w = 0.5 + 0.5 * np.cos(np.pi * arg / half)
    h *= np.where(np.abs(arg) <= half, w, 0.0)
    return n0, h


def delay_signal(x: np.ndarray, delay_samples: float,
                 out_len: int | None = None) -> np.ndarray:
    """Delay `x` along its last axis by a possibly fractional number of
    samples; every row of an N-D input gets the same delay in one call.

    Negative delays shift earlier; samples pushed before t=0 are dropped.
    Output length defaults to x.shape[-1] plus the delay (rounded up).
    """
    x = np.asarray(x, dtype=float)
    n0, h = fractional_delay_fir(delay_samples)
    y = fftconvolve(x, h.reshape((1,) * (x.ndim - 1) + (-1,)), axes=-1)
    if out_len is None:
        out_len = x.shape[-1] + max(0, int(np.ceil(delay_samples)))
    out = np.zeros(x.shape[:-1] + (out_len,))
    src0 = max(0, -n0)
    dst0 = max(0, n0)
    n_copy = min(y.shape[-1] - src0, out_len - dst0)
    if n_copy > 0:
        out[..., dst0:dst0 + n_copy] = y[..., src0:src0 + n_copy]
    return out


def one_pole_smooth(x: np.ndarray, tau: float, rate: float,
                    axis: int = -1) -> np.ndarray:
    """First-order low-pass y[n] = (1 - a) x[n] + a y[n-1] along `axis`,
    starting from rest, with a = exp(-1 / (tau * rate)) for a time constant
    `tau` in seconds and `rate` samples (or frames) per second; one
    first-order `sosfilt` section."""
    alpha = float(np.exp(-1.0 / (tau * rate)))
    return sosfilt([[1.0 - alpha, 0.0, 0.0, 1.0, -alpha, 0.0]], x, axis=axis)


# Equivalent rectangular bandwidth scale (Glasberg & Moore, Hear. Res. 47,
# 1990).


def erb_number(f):
    """ERB number (Cam) of frequency `f` in Hz."""
    return 21.4 * np.log10(4.37e-3 * np.asarray(f) + 1.0)


def erb_to_hz(e):
    """Frequency in Hz of ERB number `e`; inverse of erb_number."""
    return (10.0 ** (np.asarray(e) / 21.4) - 1.0) / 4.37e-3


def erb_bandwidth(f):
    """Equivalent rectangular bandwidth in Hz of the auditory filter at `f`."""
    return 24.7 * (4.37e-3 * f + 1.0)
