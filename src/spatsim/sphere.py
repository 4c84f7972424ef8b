"""Rigid-sphere diffraction transfer function (spherical-harmonic series).

Gives the pressure on the surface of a rigid sphere for a point source,
normalized to the free-field pressure at the sphere center (propagation delay
and 1/r attenuation divided out). Used to synthesize head-related responses
when no measured database is available. See Duda & Martens, JASA 104 (1998).
"""

from __future__ import annotations

import numpy as np
from scipy.special import eval_legendre, spherical_jn, spherical_yn

from .panner import SPEED_OF_SOUND


class SeriesConvergenceError(RuntimeError):
    """The spherical-harmonic series failed to converge at the requested order."""


def sphere_transfer(frequencies: np.ndarray, incidence_cos: np.ndarray,
                    sphere_radius: float, source_distance: float) -> np.ndarray:
    """Surface pressure / free-field center pressure for a rigid sphere.

    Parameters
    ----------
    frequencies : array of Hz (f = 0 is returned as exactly 1)
    incidence_cos : cosines of the angle between the source direction and the
        surface-point direction, both seen from the sphere center
    sphere_radius, source_distance : meters

    Returns
    -------
    complex array, shape (len(incidence_cos), len(frequencies)). Phase uses
    the exp(-i 2 pi f tau) delay convention: the facing point leads the
    sphere center by roughly radius/c, the antipode lags.
    """
    f = np.asarray(frequencies, dtype=float)
    x = np.atleast_1d(np.asarray(incidence_cos, dtype=float))
    if source_distance <= sphere_radius:
        raise ValueError("source must lie outside the sphere")

    nonzero = f > 0
    fnz = f[nonzero]
    mu = 2.0 * np.pi * fnz * sphere_radius / SPEED_OF_SOUND
    rho = source_distance / sphere_radius

    m_max = int(np.ceil(np.max(mu, initial=0.0))) + 60
    orders = np.arange(m_max + 1)

    # Radial factor per (order, frequency): h2_m(mu*rho) / h2'_m(mu).
    # Spherical Hankel of the second kind, via jn and yn.
    mr = mu * rho
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hr = (spherical_jn(orders[:, None], mr[None, :])
              - 1j * spherical_yn(orders[:, None], mr[None, :]))
        dha = (spherical_jn(orders[:, None], mu[None, :], derivative=True)
               - 1j * spherical_yn(orders[:, None], mu[None, :], derivative=True))
        radial = hr / dha
    # Past convergence the Bessel magnitudes overflow and the ratio turns
    # nan/inf; those orders contribute nothing.
    radial[~np.isfinite(radial)] = 0.0

    coeff = (2 * orders + 1).astype(float)
    legendre = eval_legendre(orders[:, None], x[None, :])
    series = (coeff[:, None] * legendre).T @ radial

    tail = (coeff[-2:, None] * np.abs(radial[-2:])).max(axis=0)
    bad = tail > 1e-6 * np.maximum(np.abs(series).min(axis=0), 1e-12)
    if np.any(bad):
        raise SeriesConvergenceError(
            f"series not converged at {int(bad.sum())} frequencies "
            f"(max order {m_max})")

    h = np.ones((len(x), len(f)), dtype=complex)
    h[:, nonzero] = -(rho / mu) * np.exp(1j * mr) * series
    return h
