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
184,756 of 1,048,576 at N = 10.

The site-permutation group is data, not an assumption.  Of the 2N rotations
and reflections of the site ring, `site_group` keeps those that map the
bonds, omega_dd and rho0 onto themselves, tested with exact equality.  The
generator commutes with each of them, so rho stays constant on their orbits
of sector entries and `integrate` propagates one value per orbit: 96 at
N = 6, 865 at N = 8 and 9,448 at N = 10 from full inversion on the uniform
ring.  The open chain keeps its reflection alone; a random omega_dd or start
keeps only the identity, and then the orbits are the sector entries.  The
reduced generator is L[reps] @ P, the representative rows of L summed over
each source orbit (P is the 0/1 entry-by-orbit matrix), built term by term
from bitmask-built scipy.sparse operators, so no dense 2^N x 2^N operator is
formed and the solver runs up to EXACT_MAX_ATOMS atoms.  Sum sigma_z, the
relaxation rate and its incoherent part are one linear functional of the
reduced vector; trace, Hermiticity and the lowest eigenvalue (one n_exc block
expanded at a time) come from it too, and no dense rho is stored.

The generator does not depend on time and the sample grid is uniform, so
each sample is exp(L dtau) times the one before.  A sector of at most
STEP_MAX_ORBITS orbits (96 at N = 6) builds that propagator once and steps the
samples with it: the action of the exponential (Al-Mohy and Higham, SIAM J.
Sci. Comput. 33, 488 (2011)) on the identity over dtau / 2^j, with
j = ceil(log2(dtau ||L||_1)) or 0 when dtau ||L||_1 <= 1, squared j times
(Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005)).  A larger sector, the
only kind at N = 7 to 10, where a dense propagator would cost more than it
saves, goes to one `expm_multiply` call over the whole grid.  Either way the
orbits propagate exactly, with no step-size control and no tolerance settings.
`n_rhs_evals` counts the generator-vector products of the propagation, a
product with a block of c columns as c; SciPy's 1-norm estimates multiply
narrower blocks, which are not counted.  A sample whose trace or Hermiticity
error exceeds TRACE_TOL or HERM_TOL raises IntegrationError.

The dense `lindblad_rhs`, `relaxation_rate`, `rate_split` and `sum_sz`, on
`spin_core.build_operators` (capped at DENSE_MAX_ATOMS = 8), are kept as test
oracles for the generator and the functional.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import LinearOperator, expm_multiply

from .errors import IntegrationError, check_atom_cap, check_born_markov, check_uniform_grid
from .spin_core import (ChainSpec, SpinOperators, build_operators, energies, gamma_diagonals,
                        site_bits)

TRACE_TOL = 1e-10
HERM_TOL = 1e-12
MIN_EIG_FLOOR = -1e-8
EXACT_MAX_ATOMS = 10         # orbit-reduced exact propagation bound
STEP_MAX_ORBITS = 128        # sectors up to this many orbits step with one propagator


@dataclass(frozen=True)
class LindbladParams:
    """Inputs of the renormalized-damping master equation."""

    spec: ChainSpec
    omega_dd: np.ndarray | None = None   # Omega_ij / gamma0, symmetric, zero diagonal
    alpha: float = 50.0                  # omega0 / gamma0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        check_born_markov(self.spec.beta)
        check_atom_cap("exact propagation", self.spec.n_atoms, EXACT_MAX_ATOMS)
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
    """Entries of rho in the excitation sectors of a start, in ascending a * dim + b,
    grouped into orbits of a group of site permutations.

    `transpose[p]` is the position of (b, a) when p holds (a, b).  `orbit[p]` numbers
    the orbit of entry p, and `reps[o]` is the position of orbit o's smallest entry,
    its representative.  A reduced vector y holds one value per orbit: entry p of
    rho is y[orbit[p]].  With the identity group it is the sector vector itself.
    Each of `blocks` is (size, kept positions, flat positions inside the block) for
    one set of basis states that no kept entry connects to another set, so rho is
    block-diagonal over them.
    """

    n_atoms: int
    flat: np.ndarray
    transpose: np.ndarray
    blocks: tuple
    orbit: np.ndarray
    reps: np.ndarray
    group_order: int

    @property
    def dim(self) -> int:
        return 1 << self.n_atoms

    @property
    def size(self) -> int:
        return self.flat.size

    @property
    def n_orbits(self) -> int:
        return self.reps.size

    @property
    def rows(self) -> np.ndarray:
        return self.flat >> self.n_atoms

    @property
    def cols(self) -> np.ndarray:
        return self.flat & (self.dim - 1)

    def vector(self, rho: np.ndarray) -> np.ndarray:
        """Reduced vector of a rho that is constant on the orbits."""
        return rho.ravel()[self.flat[self.reps]].astype(complex)

    def dense(self, y: np.ndarray) -> np.ndarray:
        rho = np.zeros(self.dim * self.dim, dtype=complex)
        rho[self.flat] = y[self.orbit]
        return rho.reshape(self.dim, self.dim)

    def min_eig(self, y: np.ndarray) -> float | np.ndarray:
        """Lowest eigenvalue of the Hermitian part of the rho in reduced y, or per column
        of a 2-D y; each block is expanded for at most 2^18 entries at a time."""
        samples = np.asarray(y).reshape(self.n_orbits, -1).T
        low = np.full(samples.shape[0], np.inf)
        for size, kept, local in self.blocks:
            kept = self.orbit[kept]
            step = max(1, (1 << 18) // (size * size))
            for first in range(0, samples.shape[0], step):
                chunk = samples[first:first + step, kept]
                block = np.zeros((chunk.shape[0], size * size), dtype=complex)
                block[:, local] = chunk
                block = block.reshape(-1, size, size)
                herm = 0.5 * (block + block.conj().swapaxes(1, 2))
                low[first:first + step] = np.minimum(low[first:first + step],
                                                     np.linalg.eigvalsh(herm)[:, 0])
        return float(low[0]) if np.ndim(y) == 1 else low


def _ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, j) over sum(counts) slots: slot s is the j[s]-th of item owner[s]."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _moved_states(perm: np.ndarray) -> np.ndarray:
    """Bitmask of every basis state after site i has moved to site perm[i]."""
    return (1 << perm) @ site_bits(perm.size)


def site_group(params: LindbladParams, rho0: np.ndarray) -> np.ndarray:
    """The rotations and reflections of the site ring that map the bonds, omega_dd
    and rho0 onto themselves, one per row (row[i] is the image of site i); the
    identity comes first.  Invariance is tested with exact equality."""
    n = params.spec.n_atoms
    sites = np.arange(n)
    candidates = np.unique([(sign * sites + shift) % n
                            for sign in (1, -1) for shift in range(n)], axis=0)
    bonded = params.spec.bond_matrix()
    om = np.zeros((n, n)) if params.omega_dd is None else params.omega_dd
    a, b = np.nonzero(rho0)
    keep = []
    for perm in candidates:
        moved = _moved_states(perm)
        # a bijection that keeps every non-zero entry of rho0 keeps the zeros too
        if (np.array_equal(bonded[np.ix_(perm, perm)], bonded)
                and np.array_equal(om[np.ix_(perm, perm)], om)
                and np.array_equal(rho0[moved[a], moved[b]], rho0[a, b])):
            keep.append(perm)
    return np.array(keep)


def excitation_sector(rho0: np.ndarray, group: np.ndarray | None = None) -> Sector:
    """Entries whose k = n_exc(a) - n_exc(b) is +-k of a non-zero entry of rho0, and
    their orbits under `group`, a group of site permutations given one per row as
    `site_group` returns it (None: the identity alone)."""
    dim = rho0.shape[0]
    n = dim.bit_length() - 1
    n_exc = site_bits(n).sum(axis=0)
    a, b = np.nonzero(rho0)
    ks = np.unique(n_exc[a] - n_exc[b])
    ks = np.union1d(ks, -ks)
    # row a keeps the columns c with n_exc(a) - n_exc(c) in ks, in ascending order
    kept_cols = [np.flatnonzero(np.isin(m - n_exc, ks)) for m in range(n + 1)]
    counts = np.array([c.size for c in kept_cols])
    offsets = np.cumsum(counts) - counts
    rows, j = _ragged(counts[n_exc])
    cols = np.concatenate(kept_cols)[offsets[n_exc[rows]] + j]
    flat = rows * dim + cols
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
    # every permutation keeps n_exc, so it maps the sector onto itself; an orbit
    # is named by its smallest flat index
    group = np.arange(n)[None] if group is None else group
    keys = flat
    for perm in group:
        moved = _moved_states(perm)
        keys = np.minimum(keys, moved[rows] * dim + moved[cols])
    rep_flat, orbit = np.unique(keys, return_inverse=True)
    return Sector(n_atoms=n, flat=flat, transpose=np.searchsorted(flat, cols * dim + rows),
                  blocks=tuple(blocks), orbit=orbit.ravel(),
                  reps=np.searchsorted(flat, rep_flat), group_order=len(group))


@dataclass
class Trajectory:
    """Sampled exact trajectory: observables and per-sample diagnostics.

    `reduced[:, k]` holds one value per orbit of the sector at `taus[k]`; `states`
    expands it to every sector entry and `rho(k)` to the dense matrix.
    `n_rhs_evals` counts the generator-vector products of the propagation (a block
    of c columns counts c; SciPy's 1-norm estimates are left out).  `path` is
    "step" when one propagator stepped the samples (at most STEP_MAX_ORBITS
    orbits) and "grid" when `expm_multiply` ran over the whole grid.
    """

    taus: np.ndarray
    sector: Sector
    reduced: np.ndarray
    sum_sz: np.ndarray
    gamma: np.ndarray
    gamma_incoh: np.ndarray
    trace_err: np.ndarray
    herm_err: np.ndarray
    min_eig: np.ndarray
    n_rhs_evals: int = 0
    path: str = "grid"

    @property
    def gamma_coh(self) -> np.ndarray:
        return self.gamma - self.gamma_incoh

    @property
    def states(self) -> np.ndarray:
        return self.reduced[self.sector.orbit]

    def rho(self, k: int) -> np.ndarray:
        return self.sector.dense(self.reduced[:, k])


class _Work:
    """Dense operator combinations of the oracle right-hand side."""

    def __init__(self, params: LindbladParams):
        ops = build_operators(params.spec)
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


def _sparse_operators(params: LindbladParams) -> tuple:
    """(K, Sp_tot, A) of `_Work` as scipy.sparse matrices built from bitmasks:
    K = -i alpha H + i Omega_dd and A = sum_i Gamma_i^3 S_i^+, which is real."""
    spec = params.spec
    dim = spec.dim
    bits = site_bits(spec.n_atoms)
    site, lower = np.nonzero(bits == 0)          # S_i^+ takes lower to lower | 1 << i
    upper = lower | (1 << site)
    gamma3 = gamma_diagonals(spec) ** 3
    sp_tot = sparse.csr_matrix((np.ones(site.size), (upper, lower)), shape=(dim, dim))
    a_op = sparse.csr_matrix((gamma3[site, upper], (upper, lower)), shape=(dim, dim))
    k_op = sparse.diags(-1j * params.alpha * energies(spec), format="csr")
    om = params.omega_dd
    if om is not None and np.any(om):
        # S_i^+ S_j^- moves the excitation of site j to site i
        i, j, state = np.nonzero((bits[:, None] == 0) & (bits[None] == 1)
                                 & (om[:, :, None] != 0))
        k_op = k_op + sparse.csr_matrix(
            (1j * om[i, j], (state ^ (1 << i) ^ (1 << j), state)), shape=(dim, dim))
    return k_op, sp_tot, a_op


def generator(params: LindbladParams, sector: Sector, ops: tuple | None = None
              ) -> sparse.csr_matrix:
    """`lindblad_rhs` at the representatives of the sector's orbits, as one sparse
    matrix on the reduced vector: L[reps] @ P, with P the 0/1 (entry x orbit) matrix.
    Only the representative rows are built, term by term from their row and column."""
    k_op, sp_tot, a_op = ops or _sparse_operators(params)
    eye = sparse.identity(sector.dim, format="csr")
    # d(rho) = K rho - rho K + Sm rho A - rho A Sm + A^+ rho Sp - Sp A^+ rho
    terms = [(k_op - sp_tot @ a_op.T, eye), (eye, -k_op - a_op @ sp_tot.T),
             (sp_tot.T, a_op), (a_op.T, sp_tot)]
    rows, cols = sector.rows[sector.reps], sector.cols[sector.reps]
    gen = sparse.csr_matrix((sector.n_orbits,) * 2, dtype=complex)
    for left, right in terms:
        # target (a, b) takes rho_cd through left[a, c] * right[d, b]
        left, right = sparse.csr_matrix(left), sparse.csc_matrix(right)
        n_left = np.diff(left.indptr)[rows]
        n_right = np.diff(right.indptr)[cols]
        target, j = _ragged(n_left * n_right)
        il = left.indptr[rows[target]] + j // n_right[target]
        ir = right.indptr[cols[target]] + j % n_right[target]
        source = np.searchsorted(sector.flat, left.indices[il] * sector.dim + right.indices[ir])
        gen = gen + sparse.csr_matrix((left.data[il] * right.data[ir],
                                       (target, sector.orbit[source])), shape=gen.shape)
    gen.eliminate_zeros()
    return gen


def observable_functional(params: LindbladParams, sector: Sector,
                          ops: tuple | None = None) -> np.ndarray:
    """F with Re(y @ F) = (sum sigma_z, gamma, incoherent gamma) of the rho held by
    the reduced vector y.

    tr(rho O) = sum_ab rho_ab O_ba, summed over each orbit's entries (P^T F); the
    operators are those of `sum_sz`, `relaxation_rate` and `rate_split`.
    """
    _, sp_tot, a_op = ops or _sparse_operators(params)
    spec = params.spec
    bits = site_bits(spec.n_atoms)
    rows, cols = sector.rows, sector.cols
    diagonal = rows == cols
    sum_sz_diag = bits.sum(axis=0) - 0.5 * spec.n_atoms
    incoh_diag = (2.0 * bits * gamma_diagonals(spec) ** 3).sum(axis=0)   # (1 + 2 S_i^z) Gamma_i^3
    rate_op = sparse.csr_matrix(a_op @ sp_tot.T + sp_tot @ a_op.T)
    per_entry = (np.where(diagonal, sum_sz_diag[rows], 0.0),
                 np.asarray(rate_op[cols, rows]).ravel(),
                 np.where(diagonal, incoh_diag[rows], 0.0))
    return np.stack([np.bincount(sector.orbit, weights=f, minlength=sector.n_orbits)
                     for f in per_entry], axis=1)


def _trace_herm_err(sector: Sector, reduced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|tr rho - 1| and max |rho - rho^H| of the rho in each column of reduced: rho is zero
    outside the sector, and the representatives' transposes stand for their orbits'."""
    reps = sector.reps
    diagonal = sector.rows[reps] == sector.cols[reps]
    weight = np.bincount(sector.orbit)[diagonal, None]
    transpose = sector.orbit[sector.transpose[reps]]
    return (np.abs((weight * reduced[diagonal]).sum(axis=0) - 1.0),
            np.max(np.abs(reduced - reduced[transpose].conj()), axis=0, initial=0.0))


def fully_inverted(n_atoms: int) -> np.ndarray:
    """|up...up><up...up| in the bitmask basis (all bits set)."""
    dim = 1 << n_atoms
    rho = np.zeros((dim, dim), dtype=complex)
    rho[dim - 1, dim - 1] = 1.0
    return rho


def integrate(rho0: np.ndarray, params: LindbladParams, tau_grid: np.ndarray) -> Trajectory:
    """rho0's excitation sector propagated exactly over the uniform tau_grid, one value
    per orbit of `site_group`; `n_rhs_evals` counts the generator-vector products.
    Raises IntegrationError at the first sample whose trace or Hermiticity error
    exceeds TRACE_TOL or HERM_TOL, or when the step path's dtau ||L||_1 overflows."""
    dim = params.spec.dim
    if rho0.shape != (dim, dim):
        raise ValueError(f"initial state must be {dim}x{dim}, got {rho0.shape}")
    tau_grid = check_uniform_grid(tau_grid, "tau_grid")
    sector = excitation_sector(rho0, site_group(params, rho0))
    y0 = sector.vector(rho0)
    (trace_err,), (herm_err,) = _trace_herm_err(sector, y0[:, None])
    if not (trace_err <= TRACE_TOL and herm_err <= HERM_TOL):
        raise ValueError(f"initial state needs trace 1 and Hermiticity to {TRACE_TOL} and "
                         f"{HERM_TOL}; its errors are {trace_err:.3g} and {herm_err:.3g}")
    ops = _sparse_operators(params)
    gen = generator(params, sector, ops)
    adjoint = gen.conj().T
    path = "step" if sector.n_orbits <= STEP_MAX_ORBITS else "grid"
    start = np.identity(sector.n_orbits) if path == "step" else y0
    n_products = 0

    def product(y):
        # the propagation multiplies blocks as wide as its start; SciPy's 1-norm
        # estimates use two-column blocks, which are not counted
        nonlocal n_products
        if y.shape[1:] == start.shape[1:]:
            n_products += y.size // sector.n_orbits
        return gen @ y

    # expm_multiply picks its Taylor degree and step count from 1-norm estimates
    # that draw from numpy's global RNG; a fixed draw keeps the output bytes
    # independent of the caller's RNG
    op = LinearOperator(gen.shape, matvec=product, matmat=product, rmatvec=adjoint.dot,
                        rmatmat=adjoint.dot, dtype=complex)
    trace = gen.diagonal().sum().real
    span = tau_grid[-1] - tau_grid[0]
    caller_rng = np.random.get_state()
    np.random.seed(0)
    try:
        if path == "grid":
            reduced = expm_multiply(op, y0, start=0.0, stop=span, num=tau_grid.size,
                                    endpoint=True, traceA=trace).T
        else:
            # e^{L dtau} by scaling and squaring: the action on the identity over
            # dtau / 2^j, with dtau * ||L||_1 / 2^j <= 1, squared j times; an overflow
            # or NaN from a long interval is caught as inf here or by the trace check
            dtau = span / (tau_grid.size - 1)
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = dtau * abs(gen).sum(axis=0).max()
                if not math.isfinite(scaled):
                    raise IntegrationError(f"sample interval {dtau:.3g} times the "
                                           f"generator's 1-norm overflows")
                halvings = math.ceil(math.log2(scaled)) if scaled > 1 else 0
                h = dtau / 2**halvings
                step = expm_multiply(op * h, start, traceA=trace * h)
                for _ in range(halvings):
                    step = step @ step
                reduced = np.empty((sector.n_orbits, tau_grid.size), dtype=complex)
                reduced[:, 0] = y0
                for k in range(1, tau_grid.size):
                    reduced[:, k] = step @ reduced[:, k - 1]
    finally:
        np.random.set_state(caller_rng)
    trace_err, herm_err = _trace_herm_err(sector, reduced)
    lost = np.flatnonzero(~((trace_err <= TRACE_TOL) & (herm_err <= HERM_TOL)))
    if lost.size:
        k = lost[0]
        raise IntegrationError(f"trace or Hermiticity lost at tau = {tau_grid[k]:.6g}: errors "
                               f"{trace_err[k]:.3g} and {herm_err[k]:.3g} exceed {TRACE_TOL} "
                               f"and {HERM_TOL}")
    obs = np.real(reduced.T @ observable_functional(params, sector, ops))
    return Trajectory(
        taus=tau_grid.copy(), sector=sector, reduced=reduced,
        sum_sz=obs[:, 0], gamma=obs[:, 1], gamma_incoh=obs[:, 2],
        trace_err=trace_err, herm_err=herm_err,
        min_eig=sector.min_eig(reduced), n_rhs_evals=n_products, path=path)


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


RATIO_FLOOR = 1e-14      # ratio_average drops samples below this incoherent rate


@dataclass(frozen=True)
class OrderParameterValue:
    value: float
    excluded_samples: int


def ratio_average(taus: np.ndarray, ratio: np.ndarray, incoh: np.ndarray) -> OrderParameterValue:
    """Trapezoid mean over taus of the coherent/incoherent rate ratio, dropping and counting
    the samples whose incoherent rate is below RATIO_FLOOR (NaN rows stay, as a NaN mean);
    0.0 with fewer than two kept samples or a zero span."""
    drop = np.asarray(incoh) < RATIO_FLOOR
    excluded = int(np.count_nonzero(drop))
    taus = np.asarray(taus)[~drop]
    if taus.size < 2:
        return OrderParameterValue(0.0, excluded)
    span = taus[-1] - taus[0]
    value = float(np.trapezoid(np.asarray(ratio)[~drop], taus) / span) if span > 0 else 0.0
    return OrderParameterValue(value, excluded)


def order_parameter_exact(traj: Trajectory, horizon: float) -> OrderParameterValue:
    """ratio_average of the trajectory's coherent/incoherent rates over [0, horizon]."""
    mask = traj.taus <= horizon + 1e-12
    incoh = traj.gamma_incoh[mask]
    with np.errstate(all="ignore"):     # rows under the floor may divide by 0
        return ratio_average(traj.taus[mask], traj.gamma_coh[mask] / incoh, incoh)


@dataclass(frozen=True)
class TwoAtomSolution:
    """Closed-form two-atom populations and rate for the fully inverted start."""

    rho11: float
    x0: float       # rho22 + rho33
    rho44: float
    gamma: float


def two_atom_analytic(beta: float, t: float | np.ndarray) -> TwoAtomSolution:
    """Exactly solvable two-atom relaxation; independent of the dipole-dipole constant."""
    check_born_markov(beta)
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
