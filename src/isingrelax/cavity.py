"""Two atoms in a high-Q single-mode resonant cavity: the exactly solvable
4-state block, its strong-interaction two-amplitude approximation, and the
perturbative two-photon transition prefactor.

Time unit here is 1/omega0 (the block is closed; no decay scale enters).
Basis order: |uu, n>, |ud, n+1>, |du, n+1>, |dd, n+2>.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg import expm

from .errors import check_nonnegative, check_positive, check_uniform_grid

STRONG_COUPLING_VALIDITY = 0.3   # warn above this value of g*sqrt(2(2n+3))/J'
POLE_TOL = 1e-12                 # two_photon_prefactor's distance from its pole


@dataclass(frozen=True)
class CavityParams:
    n_photons: int
    g: float                 # atom-mode coupling, units of omega0
    j_prime: float           # J/(4 hbar), units of omega0

    def __post_init__(self):
        if self.n_photons < 0:
            raise ValueError(f"n_photons must be non-negative, got {self.n_photons}")
        check_positive("g", self.g)
        check_nonnegative("j_prime", self.j_prime)

    @property
    def rabi_splitting(self) -> float:
        """D = sqrt(J'^2 + 2 g^2 (2n+3))."""
        return math.sqrt(self.j_prime ** 2 + 2.0 * self.g ** 2 * (2 * self.n_photons + 3))

    @property
    def two_photon_rabi(self) -> float:
        """Delta = g^2 (2n+3) / (2 J') of the strong-interaction regime."""
        if self.j_prime == 0:
            raise ValueError("strong-interaction approximation needs j_prime > 0")
        return self.g ** 2 * (2 * self.n_photons + 3) / (2.0 * self.j_prime)

    @property
    def strong_coupling_ratio(self) -> float:
        """g sqrt(2(2n+3)) / J'; small values validate the two-amplitude form."""
        if self.j_prime == 0:
            return math.inf
        return self.g * math.sqrt(2.0 * (2 * self.n_photons + 3)) / self.j_prime


@dataclass(frozen=True)
class CavityState:
    amplitudes: np.ndarray   # complex, shape (..., 4): one row of 4 per time
    validity_warning: bool = False

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           np.asarray(self.amplitudes, dtype=complex))
        if self.amplitudes.shape[-1:] != (4,):
            raise ValueError("cavity state needs 4 amplitudes")

    @property
    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    @property
    def norm(self) -> float | np.ndarray:
        return np.linalg.norm(self.amplitudes, axis=-1)


def block_hamiltonian(params: CavityParams) -> np.ndarray:
    """4x4 excitation-conserving block of the cavity Hamiltonian (omega0 = 1)."""
    n, g, jp = params.n_photons, params.g, params.j_prime
    g1 = g * math.sqrt(n + 1)
    g2 = g * math.sqrt(n + 2)
    return np.array([
        [n + 1 - jp, g1, g1, 0.0],
        [g1, n + 1 + jp, 0.0, g2],
        [g1, 0.0, n + 1 + jp, g2],
        [0.0, g2, g2, n + 1 - jp],
    ], dtype=complex)


def exact_state(t, params: CavityParams) -> CavityState:
    """Closed-form evolution of |uu, n> under the 4-state block; t scalar or array."""
    n, g, jp = params.n_photons, params.g, params.j_prime
    d = params.rabi_splitting
    t = np.asarray(t, dtype=float)
    phase = np.exp(-1j * (n + 1) * t)
    osc = np.exp(1j * d * t) / (d - jp) + np.exp(-1j * d * t) / (d + jp)
    c_uu = phase * ((n + 2) / (2 * n + 3) * np.exp(1j * jp * t)
                    + g * g * (n + 1) / d * osc)
    c_dd = phase * math.sqrt((n + 1) * (n + 2)) * (
        g * g / d * osc - np.exp(1j * jp * t) / (2 * n + 3))
    c_mid = -1j * phase * g * math.sqrt(n + 1) / d * np.sin(d * t)
    return CavityState(amplitudes=np.stack([c_uu, c_mid, c_mid, c_dd], axis=-1))


def numeric_oracle(t: float, params: CavityParams) -> CavityState:
    """Matrix-exponential evolution of the same initial state (independent check)."""
    h = block_hamiltonian(params)
    psi0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    psi = expm(-1j * h * t) @ psi0
    return CavityState(amplitudes=psi)


def strong_j_state(t, params: CavityParams) -> CavityState:
    """Two-amplitude approximation valid for J' >> g sqrt(2n+3); t scalar or array."""
    n, jp = params.n_photons, params.j_prime
    delta = params.two_photon_rabi
    t = np.asarray(t, dtype=float)
    phase = np.exp(-1j * ((n + 1) - jp - delta) * t)
    c_uu = phase * ((n + 1) / (2 * n + 3) * np.exp(1j * delta * t)
                    + (n + 2) / (2 * n + 3) * np.exp(-1j * delta * t))
    c_dd = phase * 2j * math.sqrt((n + 1) * (n + 2)) / (2 * n + 3) * np.sin(delta * t)
    zero = np.zeros_like(c_uu)
    warn = params.strong_coupling_ratio > STRONG_COUPLING_VALIDITY
    return CavityState(amplitudes=np.stack([c_uu, zero, zero, c_dd], axis=-1),
                       validity_warning=warn)


def two_photon_probability_max(n_photons: int) -> float:
    """Peak of the approximate two-photon probability: 4(n+1)(n+2)/(2n+3)^2."""
    n = n_photons
    return 4.0 * (n + 1) * (n + 2) / (2 * n + 3) ** 2


@dataclass(frozen=True)
class TwoPhotonRate:
    value: float
    resonant: bool   # whether 2*omega = 2*omega0 (the delta-function condition)


def two_photon_prefactor(beta: float, omega: float, m1: float, m2: float) -> TwoPhotonRate:
    """Second-order two-photon transition prefactor (omega in omega0 units).

    The delta function fixing 2*omega = 2*omega0 is reported as the resonance
    flag, not folded into the value.
    """
    denom = (1.0 - beta / 2.0) - omega
    if abs(denom) < POLE_TOL:
        raise ZeroDivisionError(
            "omega sits on the one-photon intermediate resonance omega0*(1-beta/2)")
    value = abs(m1 / denom + m2 / denom) ** 2
    return TwoPhotonRate(value=value, resonant=bool(abs(omega - 1.0) < 1e-12))


def rabi_frequency_from_populations(times: np.ndarray, p_dd: np.ndarray) -> float:
    """Dominant oscillation extracted by FFT; returns half the angular frequency
    of p_dd(t) (p ~ sin^2 oscillates at twice the Rabi frequency)."""
    times = check_uniform_grid(times, "FFT extraction")
    p = np.asarray(p_dd, dtype=float)
    dt = times[1] - times[0]
    spec = np.abs(np.fft.rfft(p - p.mean()))
    freqs = np.fft.rfftfreq(p.size, d=dt)
    k = int(np.argmax(spec[1:])) + 1
    # parabolic refinement of the peak bin
    if 1 <= k < spec.size - 1:
        a, b, c = spec[k - 1], spec[k], spec[k + 1]
        denom = a - 2 * b + c
        shift = 0.5 * (a - c) / denom if denom != 0 else 0.0
    else:
        shift = 0.0
    f_peak = (k + shift) * (freqs[1] - freqs[0])
    return math.pi * f_peak   # (2*pi*f)/2
