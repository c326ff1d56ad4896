"""Dipole-dipole geometry: the radiation geometric factor, the quasi-static
coupling constant, and the principal-value integrals with their auxiliary
sine/cosine-integral functions.

Distances are dimensionless k0*r; the coupling constant is returned as the
ratio Omega/gamma0.  The principal-value integrals are returned in units of
(omega0*Gamma)^3 so they stay independent of chain state.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.special import sici

_F_SERIES_SWITCH = 1e-2   # geometric factor: series branch below; the direct
                          # form loses ~eps/x^2 to cancellation at smaller x


@dataclass(frozen=True)
class AtomGeometry:
    """Atom positions in units of 1/k0 and a shared dipole orientation."""

    positions: np.ndarray        # (N, 3)
    dipole: np.ndarray           # unit 3-vector

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("positions must be an (N, 3) array")
        d = np.asarray(self.dipole, dtype=float)
        if d.shape != (3,):
            raise ValueError("dipole must be a 3-vector")
        norm = np.linalg.norm(d)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"dipole orientation must be normalized, |d| = {norm}")
        n = pos.shape[0]
        for i in range(n):
            for j in range(i + 1, n):
                if np.linalg.norm(pos[i] - pos[j]) <= 0.0:
                    raise ValueError(f"atoms {i} and {j} coincide")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "dipole", d)

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    def pair(self, i: int, j: int) -> tuple[float, float]:
        """(k0*r, cos_chi) for the ij pair."""
        rij = self.positions[i] - self.positions[j]
        r = float(np.linalg.norm(rij))
        if r <= 0.0:
            raise ValueError(f"atoms {i} and {j} coincide")
        return r, float(np.dot(self.dipole, rij / r))


def f_coeff(x: float, cos_chi: float) -> float:
    """Geometric factor of the radiation kernel; -> 1 in the quasi-static limit."""
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if abs(cos_chi) > 1.0 + 1e-12:
        raise ValueError(f"|cos_chi| must be <= 1, got {cos_chi}")
    a = 1.0 - cos_chi * cos_chi
    b = 1.0 - 3.0 * cos_chi * cos_chi
    if x < _F_SERIES_SWITCH:
        x2 = x * x
        sinc = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
        tail = -1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0
        return 1.5 * (a * sinc + b * tail)
    return 1.5 * (a * math.sin(x) / x
                  + b * (math.cos(x) / x ** 2 - math.sin(x) / x ** 3))


def omega_dd(k0r: float, cos_chi: float) -> float:
    """Quasi-static dipole-dipole constant as the ratio Omega/gamma0."""
    if k0r <= 0.0:
        raise ValueError(f"k0*r must be positive, got {k0r}")
    b = 1.0 - 3.0 * cos_chi * cos_chi
    if abs(b) < 4e-16:
        # rounding of cos_chi = 1/sqrt(3) leaves an O(eps) residue; the magic
        # angle is an exact zero of the coupling
        return 0.0
    return -1.5 * b / k0r ** 3


def omega_matrix(geom: AtomGeometry) -> np.ndarray:
    """Symmetric N x N table of Omega_ij/gamma0 with zero diagonal."""
    n = geom.n_atoms
    om = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            k0r, cos_chi = geom.pair(i, j)
            om[i, j] = om[j, i] = omega_dd(k0r, cos_chi)
    return om


def si_ci(x: float) -> tuple[float, float]:
    """(si, ci) with si(x) = Si(x) - pi/2; both vanish as x -> infinity."""
    if x <= 0.0:
        raise ValueError(f"si/ci defined for x > 0, got {x}")
    big_si, big_ci = sici(x)
    return float(big_si) - math.pi / 2.0, float(big_ci)


def aux_a(x: float) -> float:
    """A(x) = sin(x) ci(x) - cos(x) si(x)."""
    si, ci = si_ci(x)
    return math.sin(x) * ci - math.cos(x) * si


def aux_b(x: float) -> float:
    """B(x) = sin(x) si(x) + cos(x) ci(x)."""
    si, ci = si_ci(x)
    return math.sin(x) * si + math.cos(x) * ci


def pv_integrals(x: float, cos_chi: float) -> tuple[float, float]:
    """Principal-value integrals (pv_plus, pv_minus) in units of (omega0*Gamma)^3.

    pv_plus has the omega + omega0*Gamma denominator; pv_minus is obtained from
    the displayed combination that subtracts pv_plus.
    """
    if x <= 0.0:
        raise ValueError(f"x must be positive, got {x}")
    a_geom = 1.0 - cos_chi * cos_chi
    b_geom = 1.0 - 3.0 * cos_chi * cos_chi
    a_fun = aux_a(x)
    b_fun = aux_b(x)
    pv_plus = 1.5 * ((a_geom / x - b_geom / x ** 3) * a_fun
                     + (b_geom * b_fun - a_geom) / x ** 2)
    pv_minus = 1.5 * math.pi * (a_geom * math.cos(x) / x
                                - b_geom * (math.sin(x) / x ** 2
                                            + math.cos(x) / x ** 3)) - pv_plus
    return pv_plus, pv_minus


def quasistatic_asymptote(x: float, cos_chi: float) -> float:
    """Small-x limit of both pv integrals, in the same (omega0*Gamma)^3 units."""
    return -0.75 * math.pi * (1.0 - 3.0 * cos_chi * cos_chi) / x ** 3


def coefficient_table(geom: AtomGeometry) -> list[dict]:
    """Per-pair rows for the coefficient dump: i, j, k0r, cos_chi, F, Omega/gamma0."""
    rows = []
    for i in range(geom.n_atoms):
        for j in range(i + 1, geom.n_atoms):
            k0r, cos_chi = geom.pair(i, j)
            rows.append({"i": i, "j": j, "k0r": k0r, "cos_chi": cos_chi,
                         "F_at_k0r": f_coeff(k0r, cos_chi),
                         "omega_over_gamma0": omega_dd(k0r, cos_chi)})
    return rows
