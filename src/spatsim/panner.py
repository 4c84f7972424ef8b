"""Driving weights for the three reproduction methods and the aliasing predictor.

A reproduction method maps a virtual source position to one scalar weight per
loudspeaker. The weights depend only on the source azimuth; the source
distance enters through a shared delay (||r||/c) and 1/||r|| attenuation.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (Position2D, SpeakerArray, nearest_speaker,
                       speaker_pair, wrap_degrees_signed)

SPEED_OF_SOUND = 343.0


class ReproductionMethod(enum.Enum):
    NSP = "nsp"
    VBAP = "vbap"
    HOA = "hoa"


@dataclass(frozen=True)
class DrivingWeights:
    """Per-speaker gains plus the shared source delay and attenuation."""

    weights: np.ndarray
    source_delay: float
    source_attenuation: float

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


def _source_terms(source: Position2D) -> tuple:
    dist = source.norm()
    if dist <= 0.0:
        raise ValueError("source at the origin has no defined direction")
    return dist / SPEED_OF_SOUND, 1.0 / dist


def nsp_weights(array: SpeakerArray, source: Position2D) -> DrivingWeights:
    """One-hot weights on the speaker nearest to the source azimuth."""
    delay, atten = _source_terms(source)
    w = np.zeros(array.count)
    w[nearest_speaker(array, source.azimuth)] = 1.0
    return DrivingWeights(w, delay, atten)


def vbap_weights(array: SpeakerArray, source: Position2D) -> DrivingWeights:
    """Amplitude panning over the bracketing speaker pair.

    Solves [w_l w_m] S = r_hat for the unit source vector r_hat and the 2x2
    matrix S of bracketing speaker unit vectors. The raw solution, not
    rescaled to unit power, reconstructs the source unit vector exactly.
    """
    delay, atten = _source_terms(source)
    l, m = speaker_pair(array, source.azimuth)
    s = np.array([[math.cos(math.radians(array.azimuth_of(k))),
                   math.sin(math.radians(array.azimuth_of(k)))]
                  for k in (l, m)])
    if abs(np.linalg.det(s)) < 1e-12:
        raise ValueError(f"degenerate speaker pair ({l}, {m}): collinear unit vectors")
    r_hat = np.array([source.x, source.y]) / source.norm()
    pair = np.linalg.solve(s.T, r_hat)
    w = np.zeros(array.count)
    w[l], w[m] = pair
    return DrivingWeights(w, delay, atten)


def hoa_kernel(phi: np.ndarray, count: int) -> np.ndarray:
    """Sampled Dirichlet kernel sin((N-1)phi/2) / (N sin(phi/2)).

    `phi` in radians; the phi -> 0 singularity is evaluated by its limit
    (N-1)/N.
    """
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    half = 0.5 * phi
    sin_half = np.sin(half)
    small = np.abs(sin_half) < 1e-9
    out = np.empty_like(phi)
    out[small] = (count - 1) / count
    ns = ~small
    out[ns] = np.sin((count - 1) * half[ns]) / (count * sin_half[ns])
    return out


def hoa_weights(array: SpeakerArray, source: Position2D) -> DrivingWeights:
    """Basic-decoding ambisonics weights at the largest even-N integer order.

    Combined encode/decode for a regular circular array: each speaker gets the
    Dirichlet kernel evaluated at its angular offset from the source.
    """
    delay, atten = _source_terms(source)
    phi = np.radians([wrap_degrees_signed(source.azimuth - array.azimuth_of(k))
                      for k in range(array.count)])
    return DrivingWeights(hoa_kernel(phi, array.count), delay, atten)


_WEIGHT_FUNCS = {
    ReproductionMethod.NSP: nsp_weights,
    ReproductionMethod.VBAP: vbap_weights,
    ReproductionMethod.HOA: hoa_weights,
}


def method_weights(method: ReproductionMethod, array: SpeakerArray,
                   source: Position2D) -> DrivingWeights:
    """Driving weights for `source` under the given reproduction method."""
    return _WEIGHT_FUNCS[method](array, source)


def aliasing_limit(speaker_count: int, listening_radius: float) -> float:
    """Highest alias-free frequency for a listening radius: c (N-1) / (4 pi r).

    For even N the largest integer ambisonics order is N/2 - 1, so the
    effective minimum channel count is N - 1.
    """
    if listening_radius < 0:
        raise ValueError("listening radius must be >= 0")
    if listening_radius == 0.0:
        return math.inf
    n_min = speaker_count - 1
    return SPEED_OF_SOUND * n_min / (4.0 * math.pi * listening_radius)


def speakers_for_bandwidth(frequency: float, listening_radius: float) -> int:
    """Smallest even speaker count whose aliasing limit reaches `frequency`."""
    n = 4.0 * math.pi * listening_radius * frequency / SPEED_OF_SOUND
    count = max(4, math.ceil(n))
    return count if count % 2 == 0 else count + 1
