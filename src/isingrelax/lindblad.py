"""Exact reduced-density-matrix dynamics of the Ising-coupled chain.

Time is dimensionless tau = gamma0 * t with gamma0 = 1.  The coherent
commutator carries the large frequency ratio alpha = omega0/gamma0.  Although
the atomic Hamiltonian is diagonal, populations do not depend on alpha only
for chains equivalent to all-pairs coupling (all_pairs, or a cyclic chain of
N <= 3), where the generator commutes with the total spin J^2.  On the N = 4
nearest-neighbor ring at beta = 0.3, sum sigma_z moves by 0.148 between
alpha = 0 and 50 over tau in [0, 5].
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np
from scipy.integrate import solve_ivp

from .errors import IntegrationError, ModelValidityError, ResourceLimitError
from .spin_core import ChainSpec, SpinOperators, build_operators, DENSE_MAX_ATOMS

TRACE_TOL = 1e-10
HERM_TOL = 1e-12
MIN_EIG_FLOOR = -1e-8


@dataclass(frozen=True)
class LindbladParams:
    """Inputs of the renormalized-damping master equation."""

    spec: ChainSpec
    omega_dd: np.ndarray | None = None   # Omega_ij / gamma0, symmetric, zero diagonal
    alpha: float = 50.0                  # omega0 / gamma0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.spec.beta >= 1.0:
            raise ModelValidityError(
                f"master equation requires beta < 1 (Born-Markov), got {self.spec.beta}")
        if self.spec.n_atoms > DENSE_MAX_ATOMS:
            raise ResourceLimitError(
                f"exact propagation capped at {DENSE_MAX_ATOMS} atoms, "
                f"got {self.spec.n_atoms}")
        if self.omega_dd is not None:
            om = np.asarray(self.omega_dd, dtype=float)
            n = self.spec.n_atoms
            if om.shape != (n, n):
                raise ValueError(f"omega_dd must be {n}x{n}, got {om.shape}")
            if not np.all(np.isfinite(om)):
                raise ValueError("omega_dd must be finite")
            if not np.allclose(om, om.T, atol=1e-12):
                raise ValueError("omega_dd must be symmetric")
            if np.max(np.abs(np.diag(om))) > 1e-12:
                raise ValueError("omega_dd must have zero diagonal")
            object.__setattr__(self, "omega_dd", om)


@dataclass
class Trajectory:
    """Sampled exact trajectory with per-sample diagnostics."""

    taus: np.ndarray
    rhos: list[np.ndarray]
    trace_err: np.ndarray
    herm_err: np.ndarray
    min_eig: np.ndarray
    n_rhs_evals: int = 0


class _Work:
    """Precomputed operator combinations for the right-hand side."""

    def __init__(self, params: LindbladParams, ops: SpinOperators | None = None):
        ops = ops or build_operators(params.spec)
        self.ops = ops
        n = params.spec.n_atoms
        self.sp_tot = sum(ops.sp)
        self.sm_tot = sum(ops.sm)
        # A = sum_i Gamma_i^3 S_i^+ ; damping reads [Sm_tot, rho A] + [A^+ rho, Sp_tot]
        self.a_op = sum(ops.gamma3[i] @ ops.sp[i] for i in range(n))
        self.a_dag = self.a_op.conj().T
        self.h_atom = ops.h_atom
        self.dd_op = None
        if params.omega_dd is not None and np.any(params.omega_dd):
            self.dd_op = sum(params.omega_dd[i, j] * (ops.sp[i] @ ops.sm[j])
                             for i in range(n) for j in range(n) if i != j)
        self.alpha = params.alpha


def lindblad_rhs(rho: np.ndarray, params: LindbladParams,
                 _work: _Work | None = None) -> np.ndarray:
    """d(rho)/d(tau) of the master equation with renormalized damping."""
    w = _work or _Work(params)
    drho = -1j * w.alpha * (w.h_atom @ rho - rho @ w.h_atom)
    if w.dd_op is not None:
        drho += 1j * (w.dd_op @ rho - rho @ w.dd_op)
    ra = rho @ w.a_op
    ar = w.a_dag @ rho
    drho += w.sm_tot @ ra - ra @ w.sm_tot
    drho += ar @ w.sp_tot - w.sp_tot @ ar
    return drho


def _check_rho(rho: np.ndarray):
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"initial state trace {tr} deviates from 1 beyond {TRACE_TOL}")
    if np.max(np.abs(rho - rho.conj().T)) > HERM_TOL:
        raise ValueError("initial state is not Hermitian to tolerance")


def fully_inverted(n_atoms: int) -> np.ndarray:
    """|up...up><up...up| in the bitmask basis (all bits set)."""
    dim = 1 << n_atoms
    rho = np.zeros((dim, dim), dtype=complex)
    rho[dim - 1, dim - 1] = 1.0
    return rho


def integrate(rho0: np.ndarray, params: LindbladParams, tau_grid: np.ndarray,
              rel_tol: float = 1e-8, abs_tol: float = 1e-10) -> Trajectory:
    """Adaptive explicit integration sampled on tau_grid."""
    _check_rho(rho0)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size < 2 or not np.all(np.isfinite(tau_grid)):
        raise ValueError("tau_grid needs at least two finite samples")
    if np.any(np.diff(tau_grid) <= 0):
        raise ValueError("tau_grid must be strictly increasing")
    work = _Work(params)
    dim = rho0.shape[0]

    def rhs(_t, y):
        rho = y.reshape(dim, dim)
        return lindblad_rhs(rho, params, work).ravel()

    sol = solve_ivp(rhs, (tau_grid[0], tau_grid[-1]), rho0.ravel().astype(complex),
                    t_eval=tau_grid, method="RK45", rtol=rel_tol, atol=abs_tol)
    if not sol.success:
        raise IntegrationError(
            f"integrator failed: {sol.message} (nfev={sol.nfev}); "
            "the equation may be stiff for the requested alpha")
    rhos = [sol.y[:, k].reshape(dim, dim) for k in range(sol.y.shape[1])]
    trace_err = np.array([abs(np.trace(r) - 1.0) for r in rhos])
    herm_err = np.array([np.max(np.abs(r - r.conj().T)) for r in rhos])
    min_eig = np.array([np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0] for r in rhos])
    return Trajectory(taus=sol.t.copy(), rhos=rhos, trace_err=trace_err,
                      herm_err=herm_err, min_eig=min_eig, n_rhs_evals=sol.nfev)


def relaxation_rate(rho: np.ndarray, params: LindbladParams,
                    _work: _Work | None = None) -> float:
    """gamma = sum_{n,i} <Gamma_i^3 S_i^+ S_n^- + S_n^+ S_i^- Gamma_i^3> at gamma0=1."""
    w = _work or _Work(params)
    op = w.a_op @ w.sm_tot + w.sp_tot @ w.a_dag
    return float(np.real(np.trace(rho @ op)))


def rate_split(rho: np.ndarray, params: LindbladParams,
               ops: SpinOperators | None = None) -> tuple[float, float]:
    """(coherent, incoherent) parts of the relaxation rate; their sum is the total."""
    ops = ops or build_operators(params.spec)
    n = params.spec.n_atoms
    eye = np.eye(rho.shape[0])
    incoh_op = sum((eye + 2.0 * ops.sz[k]) @ ops.gamma3[k] for k in range(n))
    incoh = float(np.real(np.trace(rho @ incoh_op)))
    coh = 0.0
    for k in range(n):
        for i in range(n):
            if i == k:
                continue
            op = ops.gamma3[i] @ ops.sp[i] @ ops.sm[k] + ops.sp[k] @ ops.sm[i] @ ops.gamma3[i]
            coh += float(np.real(np.trace(rho @ op)))
    return coh, incoh


def sum_sz(rho: np.ndarray, ops: SpinOperators) -> float:
    return float(np.real(np.trace(rho @ sum(ops.sz))))


def rate_series(traj: Trajectory, params: LindbladParams) -> np.ndarray:
    """gamma(tau) sampled along a trajectory."""
    work = _Work(params)
    return np.array([relaxation_rate(r, params, work) for r in traj.rhos])


@dataclass(frozen=True)
class OrderParameterValue:
    value: float
    excluded_samples: int


def order_parameter_exact(traj: Trajectory, params: LindbladParams,
                          horizon: float, incoh_floor: float = 1e-14) -> OrderParameterValue:
    """Time average over [0, horizon] of coherent/incoherent rate by trapezoid."""
    ops = build_operators(params.spec)
    mask = traj.taus <= horizon + 1e-12
    taus = traj.taus[mask]
    ratios = []
    kept_taus = []
    excluded = 0
    for tau, rho in zip(taus, [r for r, m in zip(traj.rhos, mask) if m]):
        coh, incoh = rate_split(rho, params, ops)
        if incoh < incoh_floor:
            excluded += 1
            continue
        kept_taus.append(tau)
        ratios.append(coh / incoh)
    if len(kept_taus) < 2:
        return OrderParameterValue(0.0, excluded)
    kept_taus = np.asarray(kept_taus)
    ratios = np.asarray(ratios)
    span = kept_taus[-1] - kept_taus[0]
    value = float(np.trapezoid(ratios, kept_taus) / span) if span > 0 else 0.0
    return OrderParameterValue(value, excluded)


@dataclass(frozen=True)
class TwoAtomSolution:
    """Closed-form two-atom populations and rate for the fully inverted start."""

    rho11: float
    x0: float       # rho22 + rho33
    rho44: float
    gamma: float


def two_atom_analytic(beta: float, t: float | np.ndarray) -> TwoAtomSolution:
    """Exactly solvable two-atom relaxation; independent of the dipole-dipole constant."""
    if not 0.0 <= beta < 1.0:
        raise ModelValidityError(f"two-atom solution requires 0 <= beta < 1, got {beta}")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    n = (1.0 + beta / 2.0) ** 3
    m = (1.0 - beta / 2.0) ** 3
    d = n - m
    em = np.exp(-4.0 * m * t)
    if d < 1e-12:
        # n -> m limit
        x0 = 4.0 * m * t * em
        rho44 = 1.0 - em * (1.0 + 4.0 * m * t)
        gamma = 4.0 * m * em * (1.0 + 4.0 * n * t)
    else:
        growth = -np.expm1(-4.0 * d * t)          # 1 - exp(-4(n-m)t), stable for small d*t
        x0 = (m / d) * em * growth
        rho44 = 1.0 - em - x0
        gamma = 4.0 * m * em * (1.0 + (n / d) * growth)
    return TwoAtomSolution(rho11=em, x0=x0, rho44=rho44, gamma=gamma)
