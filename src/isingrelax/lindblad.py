"""Exact reduced-density-matrix dynamics of the Ising-coupled chain.

Time is dimensionless tau = gamma0 * t with gamma0 = 1.  The coherent
commutator carries the large frequency ratio alpha = omega0/gamma0.  Although
the atomic Hamiltonian is diagonal, populations do not depend on alpha only
for chains equivalent to all-pairs coupling (all_pairs, or a cyclic chain of
N <= 3), where the generator commutes with the total spin J^2.  On the N = 4
nearest-neighbor ring at beta = 0.3, sum sigma_z moves by 0.148 between
alpha = 0 and 50 over tau in [0, 5].

Every term of the master equation keeps k = n_exc(a) - n_exc(b) of a matrix
element rho_ab, n_exc counting excited atoms.  `integrate` therefore always
propagates only the excitation sector of its start: the entries whose k, or
-k, occurs among the non-zero entries of rho0.  From full inversion, the
start of every CLI run, that is k = 0: 924 of the 4,096 entries at N = 6 and
12,870 of 65,536 at N = 8.  The generator on that index set is built once
per run as one sparse matrix, the sum of sigma_z, the relaxation rate and
its incoherent part are one linear functional of the sector vector, and no
dense rho is stored.  The generator does not depend on time and the sample
grid is uniform, so each sample is exp(L dtau) times the one before: one
`expm_multiply` call (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488
(2011)) propagates the sector exactly over the grid, with no step-size
control and no tolerance settings.  The dense `lindblad_rhs`,
`relaxation_rate`, `rate_split` and `sum_sz` are kept as test oracles for the
generator and the functional.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, expm_multiply

from .errors import ModelValidityError, ResourceLimitError
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


@dataclass(frozen=True)
class Sector:
    """Entries of rho in the excitation sectors of a start, in ascending a * dim + b.

    `transpose[p]` is the position of (b, a) when p holds (a, b).  Each of
    `blocks` is (size, kept positions, flat positions inside the block) for one
    set of basis states that no kept entry connects to another set, so rho is
    block-diagonal over them.
    """

    n_atoms: int
    flat: np.ndarray
    transpose: np.ndarray
    blocks: tuple

    @property
    def dim(self) -> int:
        return 1 << self.n_atoms

    @property
    def size(self) -> int:
        return self.flat.size

    @property
    def rows(self) -> np.ndarray:
        return self.flat >> self.n_atoms

    @property
    def cols(self) -> np.ndarray:
        return self.flat & (self.dim - 1)

    def vector(self, rho: np.ndarray) -> np.ndarray:
        return rho.ravel()[self.flat].astype(complex)

    def dense(self, y: np.ndarray) -> np.ndarray:
        rho = np.zeros(self.dim * self.dim, dtype=complex)
        rho[self.flat] = y
        return rho.reshape(self.dim, self.dim)

    def min_eig(self, y: np.ndarray) -> float | np.ndarray:
        """Lowest eigenvalue of the Hermitian part of the rho in y, or per column of a 2-D y."""
        samples = np.asarray(y).reshape(self.size, -1).T
        low = np.inf
        for size, kept, local in self.blocks:
            block = np.zeros((samples.shape[0], size * size), dtype=complex)
            block[:, local] = samples[:, kept]
            block = block.reshape(-1, size, size)
            herm = 0.5 * (block + block.conj().swapaxes(1, 2))
            low = np.minimum(low, np.linalg.eigvalsh(herm)[:, 0])
        return float(low[0]) if np.ndim(y) == 1 else low


def excitation_sector(rho0: np.ndarray) -> Sector:
    """Entries whose k = n_exc(a) - n_exc(b) is +-k of a non-zero entry of rho0."""
    dim = rho0.shape[0]
    n_exc = np.array([bin(i).count("1") for i in range(dim)])
    k = np.subtract.outer(n_exc, n_exc)
    ks = np.unique(k[rho0 != 0])
    ks = np.union1d(ks, -ks)
    flat = np.flatnonzero(np.isin(k, ks))
    rows, cols = flat // dim, flat % dim
    # kept entries join excitation numbers that differ by a multiple of gcd(ks);
    # with k = 0 alone (gcd 0) every excitation number is a block of its own
    step = int(np.gcd.reduce(ks[ks > 0]))
    label = n_exc % step if step else n_exc
    blocks = []
    for value in np.unique(label):
        states = np.flatnonzero(label == value)
        local = np.zeros(dim, dtype=int)
        local[states] = np.arange(states.size)
        kept = np.flatnonzero(label[rows] == value)
        blocks.append((states.size, kept, local[rows[kept]] * states.size + local[cols[kept]]))
    return Sector(n_atoms=dim.bit_length() - 1, flat=flat,
                  transpose=np.searchsorted(flat, cols * dim + rows), blocks=tuple(blocks))


@dataclass
class Trajectory:
    """Sampled exact trajectory: observables and per-sample diagnostics.

    `states[:, k]` holds the sector entries of rho at `taus[k]`; `rho(k)`
    rebuilds that dense matrix.  `n_rhs_evals` counts generator-vector products.
    """

    taus: np.ndarray
    sector: Sector
    states: np.ndarray
    sum_sz: np.ndarray
    gamma: np.ndarray
    gamma_incoh: np.ndarray
    trace_err: np.ndarray
    herm_err: np.ndarray
    min_eig: np.ndarray
    n_rhs_evals: int = 0

    @property
    def gamma_coh(self) -> np.ndarray:
        return self.gamma - self.gamma_incoh

    def rho(self, k: int) -> np.ndarray:
        return self.sector.dense(self.states[:, k])


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


def _sector_part(left: np.ndarray, right: np.ndarray, sector: Sector) -> sparse.csr_matrix:
    """rho -> left @ rho @ right between the entries of a sector that the map keeps."""
    left, right = sparse.csc_matrix(left), sparse.csr_matrix(right)
    rows, cols = sector.rows, sector.cols
    n_left = np.diff(left.indptr)[rows]        # left[:, c] for a source (c, d)
    n_right = np.diff(right.indptr)[cols]      # right[d, :]
    count = n_left * n_right
    src = np.repeat(np.arange(sector.size), count)
    j = np.arange(src.size) - np.repeat(np.cumsum(count) - count, count)
    il = left.indptr[rows[src]] + j // n_right[src]
    ir = right.indptr[cols[src]] + j % n_right[src]
    target = np.searchsorted(sector.flat, left.indices[il] * sector.dim + right.indices[ir])
    return sparse.csr_matrix((left.data[il] * right.data[ir], (target, src)),
                             shape=(sector.size, sector.size))


def generator(params: LindbladParams, sector: Sector,
              _work: _Work | None = None) -> sparse.csr_matrix:
    """`lindblad_rhs` restricted to the sector, as one sparse matrix on its vector."""
    w = _work or _Work(params)
    k_op = -1j * w.alpha * w.h_atom
    if w.dd_op is not None:
        k_op = k_op + 1j * w.dd_op
    eye = np.eye(sector.dim)
    # d(rho) = K rho - rho K + Sm rho A - rho A Sm + A^+ rho Sp - Sp A^+ rho
    terms = [(k_op - w.sp_tot @ w.a_dag, eye), (eye, -k_op - w.a_op @ w.sm_tot),
             (w.sm_tot, w.a_op), (w.a_dag, w.sp_tot)]
    gen = sum(_sector_part(left, right, sector) for left, right in terms)
    gen.eliminate_zeros()
    return gen


def observable_functional(params: LindbladParams, sector: Sector,
                          _work: _Work | None = None) -> np.ndarray:
    """F with Re(y @ F) = (sum sigma_z, gamma, incoherent gamma) of the rho held by y.

    tr(rho O) = sum_ab rho_ab O_ba; the operators are those of `sum_sz`,
    `relaxation_rate` and `rate_split`.
    """
    w = _work or _Work(params)
    ops = w.ops
    eye = np.eye(sector.dim)
    observables = (sum(ops.sz), w.a_op @ w.sm_tot + w.sp_tot @ w.a_dag,
                   sum((eye + 2.0 * sz) @ g3 for sz, g3 in zip(ops.sz, ops.gamma3)))
    return np.stack([op[sector.cols, sector.rows] for op in observables], axis=1)


def _check_rho(rho: np.ndarray, dim: int):
    if rho.shape != (dim, dim):
        raise ValueError(f"initial state must be {dim}x{dim}, got {rho.shape}")
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


def integrate(rho0: np.ndarray, params: LindbladParams, tau_grid: np.ndarray) -> Trajectory:
    """rho0's excitation sector propagated exactly over the uniform tau_grid;
    `n_rhs_evals` counts the generator-vector products of the propagation."""
    _check_rho(rho0, params.spec.dim)
    tau_grid = np.asarray(tau_grid, dtype=float)
    if tau_grid.size < 2 or not np.all(np.isfinite(tau_grid)):
        raise ValueError("tau_grid needs at least two finite samples")
    steps = np.diff(tau_grid)
    if steps.min() <= 0 or np.ptp(steps) > 1e-9 * steps.max():
        raise ValueError("tau_grid must be strictly increasing and uniformly spaced")
    sector = excitation_sector(rho0)
    work = _Work(params)
    gen = generator(params, sector, work)
    adjoint = gen.conj().T
    n_products = 0

    def matvec(y):
        nonlocal n_products
        n_products += 1
        return gen @ y

    # expm_multiply picks its Taylor degree and step count from 1-norm estimates
    # that use matmat and the adjoint (not counted) and draw from numpy's global
    # RNG; a fixed draw keeps the output bytes independent of the caller's RNG
    op = LinearOperator(gen.shape, matvec=matvec, matmat=gen.dot, rmatvec=adjoint.dot,
                        rmatmat=adjoint.dot, dtype=complex)
    caller_rng = np.random.get_state()
    np.random.seed(0)
    try:
        states = expm_multiply(op, sector.vector(rho0), start=0.0,
                               stop=tau_grid[-1] - tau_grid[0], num=tau_grid.size,
                               endpoint=True, traceA=gen.diagonal().sum().real).T
    finally:
        np.random.set_state(caller_rng)
    obs = np.real(states.T @ observable_functional(params, sector, work))
    diagonal = sector.rows == sector.cols
    return Trajectory(
        taus=tau_grid.copy(), sector=sector, states=states,
        sum_sz=obs[:, 0], gamma=obs[:, 1], gamma_incoh=obs[:, 2],
        trace_err=np.abs(states[diagonal].sum(axis=0) - 1.0),
        herm_err=np.max(np.abs(states - states[sector.transpose].conj()), axis=0),
        min_eig=sector.min_eig(states), n_rhs_evals=n_products)


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


@dataclass(frozen=True)
class OrderParameterValue:
    value: float
    excluded_samples: int


def order_parameter_exact(traj: Trajectory, horizon: float,
                          incoh_floor: float = 1e-14) -> OrderParameterValue:
    """Time average over [0, horizon] of coherent/incoherent rate by trapezoid."""
    mask = traj.taus <= horizon + 1e-12
    incoh = traj.gamma_incoh[mask]
    drop = incoh < incoh_floor
    excluded = int(np.count_nonzero(drop))
    keep = ~drop
    taus = traj.taus[mask][keep]
    if taus.size < 2:
        return OrderParameterValue(0.0, excluded)
    ratios = traj.gamma_coh[mask][keep] / incoh[keep]
    span = taus[-1] - taus[0]
    value = float(np.trapezoid(ratios, taus) / span) if span > 0 else 0.0
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
