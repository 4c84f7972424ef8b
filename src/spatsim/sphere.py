"""Rigid-sphere diffraction transfer function (spherical-harmonic series).

Gives the pressure on the surface of a rigid sphere for a point source,
normalized to the free-field pressure at the sphere center (propagation delay
and 1/r attenuation divided out). Used to synthesize head-related responses
when no measured database is available. See Duda & Martens, JASA 104 (1998).
The series' spherical Bessel functions come from one pass of their upward
recurrence over the orders (`_spherical_jy`).
"""

from __future__ import annotations

import numpy as np
from scipy.special import eval_legendre, jv

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

    # Radial factor per (order, frequency): h2_m(mu*rho) / h2'_m(mu), with
    # the spherical Hankel function of the second kind h2 = j - i y.
    mr = mu * rho
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        j, y = _spherical_jy(m_max, mr)
        h_source = j - 1j * y
        j, y = _spherical_jy(m_max, mu)
        radial = h_source / (_derivative(j, mu) - 1j * _derivative(y, mu))
    # Past convergence the Hankel magnitudes overflow and the ratio turns
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


def _spherical_jy(n_max: int, z: np.ndarray) -> tuple:
    """j_n(z) and y_n(z) for n = 0..n_max (n_max >= 1) and z > 0, each of
    shape (n_max + 1, len(z)).

    The arithmetic is that of scipy's `spherical_jn` and `spherical_yn`, so
    the values are theirs to the bit: y_n, and j_n for n < z, by the upward
    recurrence f_{n+1} = (2n+1) f_n / z - f_{n-1}; j_n for n >= z (n > 0),
    where that recurrence is unstable, from J_{n+1/2}(z) sqrt(pi / (2z)).
    scipy restarts the recurrence for each order; here one pass gives every
    order. Where y_n overflows, the values turn inf or nan.
    """
    sin, cos = np.sin(z), np.cos(z)
    j = _upward_recurrence(n_max, z, sin / z, cos)
    y = _upward_recurrence(n_max, z, -cos / z, sin)
    for n in range(1, n_max + 1):
        far = n >= z
        j[n, far] = np.sqrt(np.pi / 2 / z[far]) * jv(n + 0.5, z[far])
    return j, y


def _upward_recurrence(n_max: int, z: np.ndarray, f0: np.ndarray,
                       trig: np.ndarray) -> np.ndarray:
    """f_0 = `f0`, f_1 = (f_0 - `trig`) / z and f_{n+1} = (2n+1) f_n / z -
    f_{n-1}, for n = 0..n_max."""
    f = np.empty((n_max + 1, len(z)))
    f[0] = f0
    f[1] = (f0 - trig) / z
    for n in range(1, n_max):
        f[n + 1] = (2 * n + 1) * f[n] / z - f[n - 1]
    return f


def _derivative(f: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The derivatives f'_0 = -f_1 and f'_n = f_{n-1} - (n+1) f_n / z of a
    spherical Bessel sequence f_n(z), as scipy forms them."""
    df = np.empty_like(f)
    df[0] = -f[1]
    for n in range(1, len(f)):
        df[n] = f[n - 1] - (n + 1) * f[n] / z
    return df
