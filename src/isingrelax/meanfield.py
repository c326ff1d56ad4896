"""Mean-field Bloch dynamics of the cyclic chain and its reduced one-variable limits.

State per site n: sigma_z (real) and sigma_plus (complex, sigma_minus is the
conjugate).  Time is tau = gamma0 * t with gamma0 = 1.  All site indexing is
cyclic; for N=3 the n+2 stencil wraps onto n-1 by plain modular arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError, ModelValidityError

BOUND_SLACK = 1e-6
DENOM_FLOOR = 1e-14
REL_TOL, ABS_TOL = 1e-8, 1e-10      # mean-field solver tolerances
ORDER_PARAMETER_CHUNK = 256         # sample rows per vectorised order-parameter pass

# K-point Gauss-Legendre rule on [0, 1] for w(Gi, Gj) = int_0^1 exp(2 pi i s (Gi - Gj)) ds.
# |Gi - Gj| <= 2 beta < 2, so the integrand turns through at most 4 pi and
# K = 16 leaves a quadrature error far below double precision.
W_QUADRATURE_ORDER = 16
_gl_nodes, _gl_weights = np.polynomial.legendre.leggauss(W_QUADRATURE_ORDER)
_W_PHASES = 1j * math.pi * (_gl_nodes + 1.0)    # 2 pi i s_k
_W_WEIGHTS = 0.5 * _gl_weights


@dataclass(frozen=True)
class BlochField:
    sigma_z: np.ndarray       # real, shape (N,)
    sigma_plus: np.ndarray    # complex, shape (N,)

    def __post_init__(self):
        object.__setattr__(self, "sigma_z", np.asarray(self.sigma_z, dtype=float))
        object.__setattr__(self, "sigma_plus", np.asarray(self.sigma_plus, dtype=complex))
        if self.sigma_z.shape != self.sigma_plus.shape:
            raise ValueError("sigma_z and sigma_plus must have the same shape")

    @property
    def n_atoms(self) -> int:
        return self.sigma_z.size


@dataclass(frozen=True)
class MFParams:
    """Run configuration for the slow-envelope mean-field system."""

    n_atoms: int
    beta: float
    theta0: float | None = None        # tipping angle; default 2/sqrt(N)
    phase_seed: int | None = None      # None = uniform zero phases
    horizon: float = 50.0

    def __post_init__(self):
        if self.n_atoms < 2:
            raise ValueError("mean-field chain needs at least 2 atoms")
        if not math.isfinite(self.beta) or self.beta < 0:
            raise ValueError(f"beta must be finite and non-negative, got {self.beta}")
        if self.theta0 is not None and not math.isfinite(self.theta0):
            raise ValueError(f"tipping angle must be finite, got {self.theta0}")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.beta >= 1.0:
            raise ModelValidityError(
                f"mean-field equations require beta < 1, got {self.beta}")
        theta = self.tipping_angle
        if not 0.0 < theta <= math.pi / 2:
            raise ValueError(f"tipping angle must be in (0, pi/2], got {theta}")

    @property
    def tipping_angle(self) -> float:
        return self.theta0 if self.theta0 is not None else 2.0 / math.sqrt(self.n_atoms)


def initial_field(params: MFParams) -> BlochField:
    """Tipped Bloch state standing in for quantum fluctuations of the coherences."""
    theta = params.tipping_angle
    n = params.n_atoms
    sz = np.full(n, 0.5 * math.cos(theta))
    if params.phase_seed is None:
        phases = np.zeros(n)
    else:
        phases = np.random.default_rng(params.phase_seed).uniform(0.0, 2.0 * math.pi, n)
    sp = 0.5 * math.sin(theta) * np.exp(1j * phases)
    return BlochField(sigma_z=sz, sigma_plus=sp)


@lru_cache(maxsize=64)
def _ring(n: int) -> np.ndarray:
    """Site indices (n + offset) mod N of the cyclic chain; rows: offsets +1, -1, +2, -2."""
    idx = (np.arange(n) + np.array([[1], [-1], [2], [-2]])) % n
    idx.flags.writeable = False    # shared by every caller through the cache
    return idx


def coupling_functions(sz: np.ndarray, beta: float) -> dict[str, np.ndarray]:
    """Gamma_n, Gamma^3_n, K_{n+-1}, E_{n+-1} from the sigma_z neighborhood (cyclic).

    Sites run along the last axis, so sz may stack several chain states.
    """
    ip, im, ipp, imm = _ring(sz.shape[-1])
    zp = sz[..., ip]     # sigma_z at n+1
    zm = sz[..., im]     # n-1
    zpp = sz[..., ipp]   # n+2
    zmm = sz[..., imm]   # n-2
    b = beta
    gamma = 1.0 - b * (zp + zm)
    gamma3 = 1.0 - b * (3.0 + b * b) * (zp + zm) + 1.5 * b * b * (1.0 + 4.0 * zp * zm)
    k_plus = 1.0 + b * (3.0 + 3.0 * b + b * b) * (0.5 - zpp)
    k_minus = 1.0 + b * (3.0 + 3.0 * b + b * b) * (0.5 - zmm)
    # E_{n+-1} is the expansion of Gamma^3_{n+-1} sigma^z_n using (S^z)^2 = 1/4;
    # its last term is (3/2) b^2 (sigma^z_n + sigma^z_{n+-2}), which keeps the
    # identity E = Gamma^3 * sigma^z on uniform fields
    e_plus = sz - 0.25 * b * (3.0 + b * b) * (1.0 + 4.0 * zpp * sz) \
        + 1.5 * b * b * (sz + zpp)
    e_minus = sz - 0.25 * b * (3.0 + b * b) * (1.0 + 4.0 * zmm * sz) \
        + 1.5 * b * b * (sz + zmm)
    return {"gamma": gamma, "gamma3": gamma3,
            "k_plus": k_plus, "k_minus": k_minus,
            "e_plus": e_plus, "e_minus": e_minus}


def w_factor(gamma_i, gamma_j):
    """Fast-motion averaging weight int_0^1 exp(2 pi i s dG) ds = exp(i pi dG) sinc(dG)."""
    d = np.asarray(gamma_i, dtype=float) - np.asarray(gamma_j, dtype=float)
    w = np.exp(1j * math.pi * d) * np.sinc(d)
    return w if w.ndim else complex(w)


def _w_transpose_apply(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w.T @ v in O(N K) through the quadrature form w = E diag(c) E^H.

    E[i, k] = exp(2 pi i s_k (Gamma_i - 1)); the shift by 1 cancels in w and
    keeps the phases small.
    """
    e = np.exp(np.multiply.outer(gamma - 1.0, _W_PHASES))
    return e.conj() @ (_W_WEIGHTS * (v @ e))


def mf_rhs(field: BlochField, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """(d sigma_z/d tau, d sigma_plus/d tau) of the slow-envelope system.

    The long-range sums run over every site through the rank-K form of the
    Hermitian weight w[i, j] = w_factor(Gamma_i, Gamma_j); the nearest-neighbor
    entries come from one O(N) w_factor call.
    """
    if beta >= 1.0:
        raise ModelValidityError(f"mean-field equations require beta < 1, got {beta}")
    sz, sp = field.sigma_z, field.sigma_plus
    sm = sp.conj()
    n = sz.size
    ip, im = _ring(n)[:2]
    c = coupling_functions(sz, beta)
    gamma, gamma3 = c["gamma"], c["gamma3"]

    a = w_factor(gamma[ip], gamma)    # w[n+1, n]; w[n-1, n] = conj(a[n-1])
    sides = ((ip, a, c["k_plus"], c["e_plus"]),
             (im, np.conj(a[im]), c["k_minus"], c["e_minus"]))
    n_sides = len({1 % n, -1 % n})    # distinct neighbor sites: one on the N = 2 ring

    # u = w.T @ (Gamma^3 sigma+); w @ (Gamma^3 sigma-) is conj(u).  The sums over
    # all sites include the self and nearest-neighbor terms, which are taken
    # back out below: the neighbors carry K (sigma_z) and E (sigma_plus) instead.
    u = _w_transpose_apply(gamma, gamma3 * sp)
    near_z = -gamma3 * (sp * sm).real
    near_p = -sz * gamma3 * sp
    for j, w_in, k, e in sides[:n_sides]:
        hop = sp[j] * w_in                   # sigma+_{n+-1} w[n+-1, n]
        near_z = near_z + (k - gamma3[j]) * (hop * sm).real
        near_p = near_p + (e - sz * gamma3[j]) * hop

    dsz = -(1.0 + 2.0 * sz) * gamma3 - 2.0 * ((sm * u).real + near_z)
    dsp = -sp * gamma3 + 2.0 * (sz * u + near_p)
    return dsz, dsp


@dataclass
class MFTrajectory:
    taus: np.ndarray
    sigma_z: np.ndarray        # (n_samples, N)
    sigma_plus: np.ndarray     # (n_samples, N), complex
    gamma: np.ndarray          # relaxation rate -sum_n d sigma_z_n / d tau
    gamma_max: float = 0.0     # peak refined on the dense solution
    t_peak: float = 0.0
    bound_violations: int = 0
    n_rhs_evals: int = 0

    @property
    def sum_sz(self) -> np.ndarray:
        return self.sigma_z.sum(axis=1)


def gamma_at_half_deexcitation(traj: MFTrajectory) -> float:
    """gamma interpolated at the instant the net inversion crosses zero.

    The superradiant burst is centered at half de-excitation; the raw
    trajectory maximum drifts later for beta > 0 because the renormalized
    rate keeps growing as the chain relaxes, so gain factors are measured
    here instead.
    """
    s = traj.sum_sz
    crossings = np.where((s[:-1] > 0.0) & (s[1:] <= 0.0))[0]
    if crossings.size == 0:
        raise ValueError("trajectory never reaches half de-excitation")
    k = int(crossings[0])
    frac = s[k] / (s[k] - s[k + 1])
    return float(traj.gamma[k] + frac * (traj.gamma[k + 1] - traj.gamma[k]))


def _unpack(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_z, sigma_plus) from the solver state [sigma_z, Re sigma_plus, Im sigma_plus]."""
    return y[:n], y[n:2 * n] + 1j * y[2 * n:]


def _solve(field0: BlochField, params: MFParams, n_samples: int,
           stop_when_relaxed: bool = False):
    """Adaptive solve to the horizon: (solver result, sigma_z, sigma_plus samples).

    The samples have shape (n_samples, N).  With stop_when_relaxed the solve
    ends once sum sigma_z < -N/2 + 0.01 N (the end of the active window).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    n = field0.n_atoms

    def rhs(_t, y):
        dsz, dsp = mf_rhs(BlochField(*_unpack(y, n)), params.beta)
        return np.concatenate([dsz, dsp.real, dsp.imag])

    def relaxed(_t, y):
        return y[:n].sum() - (-0.5 * n + 0.01 * n)
    relaxed.terminal = True
    relaxed.direction = -1

    y0 = np.concatenate([field0.sigma_z, field0.sigma_plus.real, field0.sigma_plus.imag])
    sol = solve_ivp(rhs, (0.0, params.horizon), y0,
                    t_eval=np.linspace(0.0, params.horizon, n_samples),
                    method="RK45", rtol=REL_TOL, atol=ABS_TOL,
                    events=[relaxed] if stop_when_relaxed else None, dense_output=True)
    if not sol.success:
        raise IntegrationError(f"mean-field integration failed: {sol.message}")
    szs, sps = _unpack(sol.y, n)
    return sol, szs.T.copy(), sps.T.copy()


def integrate_mf(field0: BlochField, params: MFParams, n_samples: int = 400) -> MFTrajectory:
    """Adaptive integration to the horizon; monitors the |sigma| <= 1/2 bounds."""
    sol, szs, sps = _solve(field0, params, n_samples)
    taus = sol.t

    def gamma_at(sz, sp):
        dsz, _ = mf_rhs(BlochField(sz, sp), params.beta)
        return -dsz.sum()

    gammas = np.array([gamma_at(sz, sp) for sz, sp in zip(szs, sps)])
    limit = 0.5 + BOUND_SLACK
    violations = int(np.count_nonzero((np.abs(szs).max(axis=1) > limit)
                                      | (np.abs(sps).max(axis=1) > limit)))

    # the superradiant peak is narrower than the sample spacing for large N;
    # refine it on the dense solution around the best sample
    k = int(np.argmax(gammas))
    lo = taus[max(k - 1, 0)]
    hi = taus[min(k + 1, taus.size - 1)]
    gamma_max, t_peak = gammas[k], taus[k]
    for _ in range(3):
        fine = np.linspace(lo, hi, 33)
        vals = np.array([gamma_at(*_unpack(sol.sol(tt), field0.n_atoms)) for tt in fine])
        j = int(np.argmax(vals))
        if vals[j] > gamma_max:
            gamma_max, t_peak = float(vals[j]), float(fine[j])
        lo, hi = fine[max(j - 1, 0)], fine[min(j + 1, fine.size - 1)]
    return MFTrajectory(taus=taus, sigma_z=szs, sigma_plus=sps, gamma=gammas,
                        gamma_max=float(gamma_max), t_peak=float(t_peak),
                        bound_violations=violations, n_rhs_evals=sol.nfev)


def order_parameter_run(params: MFParams, n_samples: int = 2000) -> float:
    """Order parameter of a fresh run, sampled densely over the active window.

    The emission burst narrows like 1/N, so a fixed grid over the full horizon
    misses it for large chains; a coarse pass locates the end of the active
    relaxation window and a dense pass resamples just that window.
    """
    field0 = initial_field(params)
    coarse, _, _ = _solve(field0, params, 200, stop_when_relaxed=True)
    t_end = coarse.t_events[0][0] if coarse.t_events[0].size else params.horizon
    window = min(params.horizon, 1.2 * float(t_end))
    dense_params = MFParams(params.n_atoms, params.beta, theta0=params.theta0,
                            phase_seed=params.phase_seed, horizon=window)
    dense, szs, sps = _solve(field0, dense_params, n_samples)
    return order_parameter_mf(dense.t, szs, sps, params.beta)


def order_parameter_mf(taus: np.ndarray, sigma_z: np.ndarray, sigma_plus: np.ndarray,
                       beta: float) -> float:
    """Time-averaged coherent/incoherent rate ratio of sampled states (one row per tau)."""
    numer, denom = np.empty(len(taus)), np.empty(len(taus))
    for lo in range(0, len(taus), ORDER_PARAMETER_CHUNK):
        rows = slice(lo, lo + ORDER_PARAMETER_CHUNK)
        sz, sp = sigma_z[rows], sigma_plus[rows]
        gamma3 = coupling_functions(sz, beta)["gamma3"]
        sm = sp.conj()
        coh = gamma3 * sp * (sm.sum(axis=-1, keepdims=True) - sm)
        numer[rows] = 2.0 * np.real(np.sum(coh, axis=-1))
        denom[rows] = np.sum((1.0 + 2.0 * sz) * gamma3, axis=-1)
    keep = ~(denom < DENOM_FLOOR)     # NaN rows stay in, as a NaN average
    if np.count_nonzero(keep) < 2:
        return 0.0
    taus = np.asarray(taus)[keep]
    span = taus[-1] - taus[0]
    return float(np.trapezoid(numer[keep] / denom[keep], taus) / span) if span > 0 else 0.0


# ---------------------------------------------------------------------------
# reduced one-variable dynamics


def gamma3_mean(beta: float, s: float | np.ndarray):
    """<Gamma^3> of the homogeneous chain as a function of the mean sigma_z."""
    return 1.0 - 2.0 * beta * (3.0 + beta * beta) * s \
        + 1.5 * beta * beta * (1.0 + 4.0 * s * s)


@dataclass
class PulseResult:
    times: np.ndarray
    sz: np.ndarray
    gamma: np.ndarray
    gamma_max: float
    t_peak: float


def _integrate_scalar(deriv, horizon: float, n_samples: int,
                      s0: float = 0.5, stop_at: float = -0.5) -> tuple[np.ndarray, np.ndarray]:
    def rhs(_t, y):
        return [deriv(y[0])]

    def floor_event(_t, y):
        return y[0] - stop_at
    floor_event.terminal = True
    floor_event.direction = -1

    sol = solve_ivp(rhs, (0.0, horizon), [s0], t_eval=np.linspace(0.0, horizon, n_samples),
                    method="RK45", rtol=1e-10, atol=1e-12, events=floor_event)
    if not sol.success:
        raise IntegrationError(f"reduced ODE integration failed: {sol.message}")
    return sol.t, sol.y[0]


def collective_pulse(beta: float, n_atoms: int, horizon: float = 20.0,
                     n_samples: int = 2000) -> PulseResult:
    """Incoherent-channel pulse: d s/dt = -(1+2s) <Gamma^3>, gamma = -N ds/dt."""
    if beta >= 1.0:
        raise ModelValidityError(f"requires beta < 1, got {beta}")
    t, s = _integrate_scalar(lambda v: -(1.0 + 2.0 * v) * gamma3_mean(beta, v),
                             horizon, n_samples)
    gamma = n_atoms * (1.0 + 2.0 * s) * gamma3_mean(beta, s)
    k = int(np.argmax(gamma))
    return PulseResult(times=t, sz=s, gamma=gamma,
                       gamma_max=float(gamma[k]), t_peak=float(t[k]))


def coherent_pulse(beta: float, n_atoms: int, horizon: float = 10.0,
                   n_samples: int = 2000) -> PulseResult:
    """Coherent-channel pulse: d s/dt = -N (3/2 - 2 s^2) <Gamma^3>.

    The rate peaks where s crosses zero; gamma_max is reported there.
    """
    if beta >= 1.0:
        raise ModelValidityError(f"requires beta < 1, got {beta}")
    nn = float(n_atoms)
    t, s = _integrate_scalar(lambda v: -nn * (1.5 - 2.0 * v * v) * gamma3_mean(beta, v),
                             horizon, n_samples)
    gamma = nn * nn * (1.5 - 2.0 * s * s) * gamma3_mean(beta, s)
    gamma_max = 1.5 * nn * nn * gamma3_mean(beta, 0.0)
    crossing = np.nonzero(np.diff(np.signbit(s)))[0]
    if crossing.size:
        k = crossing[0]
        frac = s[k] / (s[k] - s[k + 1])
        t_peak = float(t[k] + frac * (t[k + 1] - t[k]))
    else:
        t_peak = float(t[int(np.argmax(gamma))])
    return PulseResult(times=t, sz=s, gamma=gamma, gamma_max=gamma_max, t_peak=t_peak)


def longrange_polynomial(beta: float, n_atoms: int, s):
    """All-pairs <Gamma^3> analogue: cubic polynomial in the mean sigma_z."""
    b, nm1 = beta, n_atoms - 1
    s = np.asarray(s, dtype=float)
    p = (1.0 + 0.75 * nm1 * b * b
         - nm1 * (3.0 * b + nm1 * b ** 3 / 2.0) * s
         + 3.0 * b * b * nm1 * (n_atoms - 2) * s ** 2
         - b ** 3 * nm1 * (n_atoms - 2) * (n_atoms - 3) * s ** 3)
    return p if p.ndim else float(p)


@dataclass
class LongRangeResult:
    times: np.ndarray
    sz: np.ndarray
    gamma: np.ndarray
    gamma_max: float
    peak_estimate: float     # gamma evaluated at the sigma_z = 0 crossing
    monotone: bool           # False when the polynomial drives re-excitation


def longrange_rate(beta: float, n_atoms: int, coherent: bool = False,
                   horizon: float = 20.0, n_samples: int = 2000) -> LongRangeResult:
    """All-pairs reduced dynamics; gamma(t) = -N d sigma_z/dt.

    Outside the polynomial's convergence window (large beta*(N-1)) the
    trajectory is not a decay; the peak is then reported from the analytic
    sigma_z = 0 value, where the rate maximum sits.
    """
    nn = float(n_atoms)
    peak = (1.5 * nn * nn if coherent else nn) * longrange_polynomial(beta, n_atoms, 0.0)
    prefactor = nn if coherent else 1.0

    def deriv(v):
        shape = (1.5 - 2.0 * v * v) if coherent else (1.0 + 2.0 * v)
        return -prefactor * shape * longrange_polynomial(beta, n_atoms, v)

    monotone = deriv(0.5) < 0.0
    if monotone:
        t, s = _integrate_scalar(deriv, horizon, n_samples)
        gamma = np.array([-nn * deriv(v) for v in s])
        gamma_max = float(np.max(gamma))
    else:
        t = np.array([0.0])
        s = np.array([0.5])
        gamma = np.array([-nn * deriv(0.5)])
        gamma_max = peak
    return LongRangeResult(times=t, sz=s, gamma=gamma, gamma_max=gamma_max,
                           peak_estimate=peak, monotone=monotone)


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    intercept: float
    r_squared: float
    n_list: tuple[int, ...] = field(default=())


def longrange_scaling(beta: float, n_list=(20, 40, 80, 160, 320),
                      coherent: bool = False) -> ScalingFit:
    """Log-log fit of the all-pairs peak rate against N."""
    n_list = tuple(int(v) for v in n_list)
    if len(n_list) < 2:
        raise ValueError("need at least two N values for a fit")
    peaks = [longrange_rate(beta, n, coherent=coherent).peak_estimate for n in n_list]
    x = np.log(np.asarray(n_list, dtype=float))
    y = np.log(np.asarray(peaks))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(exponent=float(slope), intercept=float(intercept),
                      r_squared=r2, n_list=n_list)


@dataclass
class SolitonResult:
    times: np.ndarray
    sigma_z: np.ndarray          # (n_samples, N)
    gamma: np.ndarray
    transition_times: np.ndarray  # first sigma_z = 0 crossing per site; NaN if none


def soliton_ring(n_atoms: int = 20, beta: float = 0.99, defect_site: int = 0,
                 horizon: float = 50.0, n_samples: int = 2000) -> SolitonResult:
    """Site-resolved incoherent relaxation of a ring seeded with one ground-state defect."""
    if beta >= 1.0:
        raise ModelValidityError(f"requires beta < 1, got {beta}")
    if n_atoms < 2 or n_samples < 1 or not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"soliton ring needs n_atoms >= 2, n_samples >= 1 and a finite "
                         f"positive horizon, got {n_atoms}, {n_samples}, {horizon}")
    if not 0 <= defect_site < n_atoms:
        raise ValueError("defect_site out of range")
    sz0 = np.full(n_atoms, 0.5)
    sz0[defect_site] = -0.5

    def rhs(_t, sz):
        gamma3 = coupling_functions(sz, beta)["gamma3"]
        return -(1.0 + 2.0 * sz) * gamma3

    def all_relaxed(_t, sz):
        others = np.delete(sz, defect_site)
        return float(np.max(others)) + 0.499
    all_relaxed.terminal = True
    all_relaxed.direction = -1

    sol = solve_ivp(rhs, (0.0, horizon), sz0, t_eval=np.linspace(0.0, horizon, n_samples),
                    method="RK45", rtol=1e-10, atol=1e-12, events=all_relaxed)
    if not sol.success:
        raise IntegrationError(f"soliton integration failed: {sol.message}")
    t = sol.t
    szs = sol.y.T.copy()
    gamma = np.array([-rhs(0.0, row).sum() for row in szs])
    trans = np.full(n_atoms, np.nan)
    for site in range(n_atoms):
        col = szs[:, site]
        below = np.nonzero(np.diff(np.signbit(col)))[0]
        if below.size:
            k = below[0]
            frac = col[k] / (col[k] - col[k + 1])
            trans[site] = t[k] + frac * (t[k + 1] - t[k])
    return SolitonResult(times=t, sigma_z=szs, gamma=gamma, transition_times=trans)
