"""Mean-field Bloch dynamics of the cyclic chain and its reduced one-variable limits.

State per site n: sigma_z (real) and sigma_plus (complex, sigma_minus is the
conjugate).  Time is tau = gamma0 * t with gamma0 = 1.  All site indexing is
cyclic; for N=3 the n+2 stencil wraps onto n-1 by plain modular arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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
    return _couplings(sz, sz[..., ip], sz[..., im], sz[..., ipp], sz[..., imm], beta)


def _couplings(sz, zp, zm, zpp, zmm, beta: float) -> dict:
    """coupling_functions from sigma_z at n and at n+1, n-1, n+2, n-2."""
    b = beta
    gamma = 1.0 - b * (zp + zm)
    gamma3 = _gamma3(zp, zm, b)
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


def _gamma3(zp, zm, b: float):
    """Gamma^3_n from sigma_z at n+1 and n-1."""
    return 1.0 - b * (3.0 + b * b) * (zp + zm) + 1.5 * b * b * (1.0 + 4.0 * zp * zm)


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


def site_uniform(field: BlochField) -> bool:
    """True when every site holds the same sigma_z and the same sigma_plus.

    mf_rhs is translation-invariant on the ring, so such a field stays uniform.
    """
    sz, sp = field.sigma_z, field.sigma_plus
    return bool(np.all(sz == sz[0]) and np.all(sp == sp[0]))


def uniform_mf_rhs(s, x, n_atoms: int, beta: float):
    """mf_rhs of a site-uniform chain (every sigma_z = s, every sigma_plus = x), per site.

    The coupling functions are those of a ring whose every neighbor holds s.
    On a uniform field w = 1, so the long-range sum is u = N Gamma^3 x, and
    the neighbor sides coincide (one distinct side on the N = 2 ring).  s and
    x are scalars or arrays of states.
    """
    if beta >= 1.0:
        raise ModelValidityError(f"mean-field equations require beta < 1, got {beta}")
    c = _couplings(s, s, s, s, s, beta)
    gamma3, k, e = c["gamma3"], c["k_plus"], c["e_plus"]
    n_sides = len({1 % n_atoms, -1 % n_atoms})
    u = n_atoms * gamma3 * x
    near_z = (n_sides * (k - gamma3) - gamma3) * (x * x.conjugate()).real
    near_p = (n_sides * (e - s * gamma3) - s * gamma3) * x
    ds = -(1.0 + 2.0 * s) * gamma3 - 2.0 * ((x.conjugate() * u).real + near_z)
    dx = -x * gamma3 + 2.0 * (s * u + near_p)
    return ds, dx


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
    path: str = "sites"        # "uniform" when the site-uniform system was solved

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
    value = float(_first_fall(traj.sum_sz, traj.gamma))
    if math.isnan(value):
        raise ValueError("trajectory never reaches half de-excitation")
    return value


def _first_fall(y, x, level: float = 0.0):
    """x interpolated linearly where each column of y (one row per x) first falls from
    above level to at or below it; NaN where it never does, as with under two rows."""
    y = np.asarray(y, dtype=float)
    cols = y if y.ndim > 1 else y[:, None]
    falls = (cols[:-1] > level) & (cols[1:] <= level)
    out = np.full(cols.shape[1], np.nan)
    hit = np.flatnonzero(falls.any(axis=0))
    if hit.size:
        x = np.asarray(x)
        k = np.argmax(falls[:, hit], axis=0)
        a, b = cols[k, hit], cols[k + 1, hit]
        out[hit] = x[k] + (a - level) / (a - b) * (x[k + 1] - x[k])
    return out if y.ndim > 1 else out[0]


def _unpack(y: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sigma_z, sigma_plus) from the solver state [sigma_z, Re sigma_plus, Im sigma_plus]."""
    return y[:n], y[n:2 * n] + 1j * y[2 * n:]


def _rk45(what: str, rhs, y0, horizon: float, n_samples: int, rtol: float, atol: float,
          event=None, dense: bool = False):
    """RK45 over [0, horizon] sampled on n_samples even points; stops where event falls to 0."""
    if event is not None:
        event.terminal, event.direction = True, -1
    sol = solve_ivp(rhs, (0.0, horizon), y0, t_eval=np.linspace(0.0, horizon, n_samples),
                    method="RK45", rtol=rtol, atol=atol, events=event, dense_output=dense)
    if not sol.success:
        raise IntegrationError(f"{what} integration failed: {sol.message}")
    return sol


def _solve(field0: BlochField, params: MFParams, n_samples: int, uniform: bool,
           stop_when_relaxed: bool = False):
    """Adaptive solve to the horizon: (solver result, sigma_z, sigma_plus samples).

    The state is [sigma_z, Re sigma_plus, Im sigma_plus] over m sites: all N,
    or with uniform the first site alone (m = 1), which stands for every site.
    Each site contributes the same three components, so RK45's RMS error norm,
    and with it the step sequence, is that of the N-site system.  The samples
    have shape (n_samples, m).  With stop_when_relaxed the solve ends once
    sum sigma_z < -N/2 + 0.01 N (the end of the active window).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    n = field0.n_atoms
    m = 1 if uniform else n

    if uniform:
        def rhs(_t, y):
            ds, dx = uniform_mf_rhs(float(y[0]), complex(y[1], y[2]), n, params.beta)
            return np.array([ds, dx.real, dx.imag])
    else:
        def rhs(_t, y):
            dsz, dsp = mf_rhs(BlochField(*_unpack(y, n)), params.beta)
            return np.concatenate([dsz, dsp.real, dsp.imag])

    def relaxed(_t, y):
        return (n // m) * y[:m].sum() - (-0.5 * n + 0.01 * n)

    y0 = np.concatenate([field0.sigma_z[:m], field0.sigma_plus[:m].real,
                         field0.sigma_plus[:m].imag])
    sol = _rk45("mean-field", rhs, y0, params.horizon, n_samples, REL_TOL, ABS_TOL,
                relaxed if stop_when_relaxed else None, dense=True)
    szs, sps = _unpack(sol.y, m)
    return sol, szs.T.copy(), sps.T.copy()


def _rates(y: np.ndarray, n: int, beta: float, uniform: bool) -> np.ndarray:
    """gamma = -sum_n d sigma_z_n / d tau of each solver state (columns of y)."""
    if uniform:
        return -n * uniform_mf_rhs(y[0], y[1] + 1j * y[2], n, beta)[0]
    return np.array([-mf_rhs(BlochField(*_unpack(col, n)), beta)[0].sum() for col in y.T])


def integrate_mf(field0: BlochField, params: MFParams, n_samples: int = 400) -> MFTrajectory:
    """Adaptive integration to the horizon; monitors the |sigma| <= 1/2 bounds.

    A site-uniform start is solved as one site (uniform_mf_rhs), any other
    start over all N sites (mf_rhs).
    """
    n = field0.n_atoms
    uniform = site_uniform(field0)
    sol, szs, sps = _solve(field0, params, n_samples, uniform)
    taus = sol.t
    gammas = _rates(sol.y, n, params.beta, uniform)
    limit = 0.5 + BOUND_SLACK
    violations = int(np.count_nonzero((np.abs(szs).max(axis=1) > limit)
                                      | (np.abs(sps).max(axis=1) > limit)))

    # the superradiant peak is narrower than the sample spacing for large N;
    # refine it on the dense solution around the best sample
    j = int(np.argmax(gammas))
    gamma_max, t_peak, grid = gammas[j], taus[j], taus
    for _ in range(3):
        grid = np.linspace(grid[max(j - 1, 0)], grid[min(j + 1, grid.size - 1)], 33)
        vals = _rates(np.column_stack([sol.sol(tt) for tt in grid]), n, params.beta, uniform)
        j = int(np.argmax(vals))
        if vals[j] > gamma_max:
            gamma_max, t_peak = float(vals[j]), float(grid[j])
    # (n_samples, N) views: a uniform run stores one column, not N copies
    shape = (taus.size, n)
    return MFTrajectory(taus=taus, sigma_z=np.broadcast_to(szs, shape),
                        sigma_plus=np.broadcast_to(sps, shape), gamma=gammas,
                        gamma_max=float(gamma_max), t_peak=float(t_peak),
                        bound_violations=violations, n_rhs_evals=sol.nfev,
                        path="uniform" if uniform else "sites")


def order_parameter_run(params: MFParams, n_samples: int = 2000) -> float:
    """Order parameter of a fresh run, sampled densely over the active window.

    The emission burst narrows like 1/N, so a fixed grid over the full horizon
    misses it for large chains; a coarse pass locates the end of the active
    relaxation window and a dense pass resamples just that window.  A
    site-uniform start takes the one-site system and the closed-form ratio.
    """
    field0 = initial_field(params)
    uniform = site_uniform(field0)
    coarse, _, _ = _solve(field0, params, 200, uniform, stop_when_relaxed=True)
    t_end = coarse.t_events[0][0] if coarse.t_events[0].size else params.horizon
    window = min(params.horizon, 1.2 * float(t_end))
    dense, szs, sps = _solve(field0, replace(params, horizon=window), n_samples, uniform)
    if uniform:
        return _uniform_order_parameter(dense.t, szs[:, 0], sps[:, 0],
                                        params.n_atoms, params.beta)
    return order_parameter_mf(dense.t, szs, sps, params.beta)


def order_parameter_mf(taus: np.ndarray, sigma_z: np.ndarray, sigma_plus: np.ndarray,
                       beta: float) -> float:
    """Time-averaged coherent/incoherent rate ratio of sampled states (one row per tau)."""
    numer, denom = np.empty(len(taus)), np.empty(len(taus))
    ip, im = _ring(sigma_z.shape[-1])[:2]
    for lo in range(0, len(taus), ORDER_PARAMETER_CHUNK):
        rows = slice(lo, lo + ORDER_PARAMETER_CHUNK)
        sz, sp = sigma_z[rows], sigma_plus[rows]
        gamma3 = _gamma3(sz[:, ip], sz[:, im], beta)
        sm = sp.conj()
        coh = gamma3 * sp * (sm.sum(axis=-1, keepdims=True) - sm)
        numer[rows] = 2.0 * np.real(np.sum(coh, axis=-1))
        denom[rows] = np.sum((1.0 + 2.0 * sz) * gamma3, axis=-1)
    keep = ~(denom < DENOM_FLOOR)     # NaN rows stay in, as a NaN average
    return _time_average(taus, keep, numer[keep] / denom[keep])


def _uniform_order_parameter(taus: np.ndarray, s: np.ndarray, x: np.ndarray,
                             n_atoms: int, beta: float) -> float:
    """order_parameter_mf of site-uniform samples: the ratio is 2 (N-1) |x|^2 / (1 + 2 s)."""
    denom = n_atoms * (1.0 + 2.0 * s) * _gamma3(s, s, beta)
    keep = ~(denom < DENOM_FLOOR)     # the same floor on the same N-site denominator
    return _time_average(taus, keep,
                         2.0 * (n_atoms - 1) * np.abs(x[keep]) ** 2 / (1.0 + 2.0 * s[keep]))


def _time_average(taus: np.ndarray, keep: np.ndarray, ratio: np.ndarray) -> float:
    """Trapezoid mean of ratio over the kept sample times; 0 with fewer than two."""
    if np.count_nonzero(keep) < 2:
        return 0.0
    taus = np.asarray(taus)[keep]
    span = taus[-1] - taus[0]
    return float(np.trapezoid(ratio, taus) / span) if span > 0 else 0.0


def crossing(ns, order_parameters) -> float | None:
    """First N at which the order parameter rises through 1, linear between grid
    points; None when it does not cross on this grid."""
    # a rise through 1 is a fall of the negated series through -1, same arithmetic
    n_c = float(_first_fall(-np.asarray(order_parameters, dtype=float), ns, -1.0))
    return None if math.isnan(n_c) else n_c


# ---------------------------------------------------------------------------
# reduced one-variable dynamics


def gamma3_mean(beta: float, s: float | np.ndarray):
    """<Gamma^3> of the homogeneous chain as a function of the mean sigma_z."""
    return _gamma3(s, s, beta)


@dataclass
class PulseResult:
    times: np.ndarray
    sz: np.ndarray
    gamma: np.ndarray
    gamma_max: float
    t_peak: float


def _reduced_pulse(beta: float, n_atoms: int, horizon: float, n_samples: int,
                   rate: float, shape) -> PulseResult:
    """d s/dt = -rate shape(s) <Gamma^3>(s) from s = 1/2 until s = -1/2, with gamma =
    -N ds/dt and its peak taken at the largest sample."""
    if beta >= 1.0:
        raise ModelValidityError(f"requires beta < 1, got {beta}")
    sol = _rk45("reduced ODE", lambda _t, y: [-rate * shape(y[0]) * gamma3_mean(beta, y[0])],
                [0.5], horizon, n_samples, 1e-10, 1e-12, lambda _t, y: y[0] + 0.5)
    t, s = sol.t, sol.y[0]
    gamma = n_atoms * rate * shape(s) * gamma3_mean(beta, s)
    k = int(np.argmax(gamma))
    return PulseResult(times=t, sz=s, gamma=gamma, gamma_max=float(gamma[k]),
                       t_peak=float(t[k]))


def collective_pulse(beta: float, n_atoms: int, horizon: float = 20.0,
                     n_samples: int = 2000) -> PulseResult:
    """Incoherent-channel pulse: d s/dt = -(1+2s) <Gamma^3>, gamma = -N ds/dt."""
    return _reduced_pulse(beta, n_atoms, horizon, n_samples, 1.0, lambda v: 1.0 + 2.0 * v)


def coherent_pulse(beta: float, n_atoms: int, horizon: float = 10.0,
                   n_samples: int = 2000) -> PulseResult:
    """Coherent-channel pulse: d s/dt = -N (3/2 - 2 s^2) <Gamma^3>.

    The rate peaks where s crosses zero; gamma_max is reported there.
    """
    res = _reduced_pulse(beta, n_atoms, horizon, n_samples, float(n_atoms),
                         lambda v: 1.5 - 2.0 * v * v)
    t_peak = float(_first_fall(res.sz, res.times))
    return replace(res, gamma_max=1.5 * n_atoms * n_atoms * gamma3_mean(beta, 0.0),
                   t_peak=res.t_peak if math.isnan(t_peak) else t_peak)


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
    peak_estimate: float     # gamma evaluated at the sigma_z = 0 crossing
    monotone: bool           # False when the polynomial drives re-excitation


def longrange_rate(beta: float, n_atoms: int, coherent: bool = False) -> LongRangeResult:
    """All-pairs reduced dynamics, where gamma(t) = -N d sigma_z/dt, at its peak.

    The rate maximum sits at sigma_z = 0, so the peak is the analytic value
    there.  Outside the polynomial's convergence window (large beta*(N-1)) the
    trajectory is not a decay: d sigma_z/dt, a positive shape factor times
    -polynomial, is >= 0 at full inversion.
    """
    nn = float(n_atoms)
    peak = (1.5 * nn * nn if coherent else nn) * longrange_polynomial(beta, n_atoms, 0.0)
    return LongRangeResult(peak_estimate=peak,
                           monotone=longrange_polynomial(beta, n_atoms, 0.5) > 0.0)


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
    if not math.isfinite(beta) or beta < 0:
        raise ValueError(f"beta must be finite and non-negative, got {beta}")
    if beta >= 1.0:
        raise ModelValidityError(f"requires beta < 1, got {beta}")
    if n_atoms < 2 or n_samples < 1 or not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"soliton ring needs n_atoms >= 2, n_samples >= 1 and a finite "
                         f"positive horizon, got {n_atoms}, {n_samples}, {horizon}")
    if not 0 <= defect_site < n_atoms:
        raise ValueError("defect_site out of range")
    sz0 = np.full(n_atoms, 0.5)
    sz0[defect_site] = -0.5
    ip, im = _ring(n_atoms)[:2]

    def rhs(_t, sz):
        return -(1.0 + 2.0 * sz) * _gamma3(sz[..., ip], sz[..., im], beta)

    def all_relaxed(_t, sz):
        return float(np.max(np.delete(sz, defect_site))) + 0.499

    sol = _rk45("soliton", rhs, sz0, horizon, n_samples, 1e-10, 1e-12, all_relaxed)
    szs = sol.y.T.copy()
    return SolitonResult(times=sol.t, sigma_z=szs, gamma=-rhs(0.0, szs).sum(axis=1),
                         transition_times=_first_fall(szs, sol.t))
