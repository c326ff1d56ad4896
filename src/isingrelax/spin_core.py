"""Product-basis state space, pseudo-spin operators and the atomic Hamiltonian.

Conventions: energies in units of hbar*omega0 = 1; a basis state is a bitmask
over sites (bit set = atom excited, spin up, S^z = +1/2).  Basis index of a
dense matrix equals the bitmask integer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import check_atom_cap, check_coupling

SPECTRUM_MAX_ATOMS = 20      # full 2^N enumeration bound
DENSE_MAX_ATOMS = 8          # dense operator bound (the test oracles' operators)
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """Chain of two-level atoms with Ising coupling of strength beta = J/(hbar*omega0)."""

    n_atoms: int
    beta: float
    coupling_range: str = "nearest_neighbor"   # or "all_pairs"
    boundary: str = "cyclic"                   # or "open"

    def __post_init__(self):
        if self.n_atoms < 1:
            raise ValueError(f"n_atoms must be >= 1, got {self.n_atoms}")
        check_coupling(self.beta)
        if self.coupling_range not in ("nearest_neighbor", "all_pairs"):
            raise ValueError(f"unknown coupling_range {self.coupling_range!r}")
        if self.boundary not in ("cyclic", "open"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def dim(self) -> int:
        return 1 << self.n_atoms

    def bonds(self) -> list[tuple[int, int]]:
        """Distinct interacting pairs (i < j); the N=2 cyclic chain has one bond."""
        n = self.n_atoms
        if self.coupling_range == "all_pairs":
            return [(i, j) for i in range(n) for j in range(i + 1, n)]
        if n == 1:
            return []
        if self.boundary == "open":
            return [(i, i + 1) for i in range(n - 1)]
        pairs = {tuple(sorted(((i) % n, (i + 1) % n))) for i in range(n)}
        return sorted(pairs)

    def bond_matrix(self) -> np.ndarray:
        """(N, N) symmetric 0/1 matrix with a 1 for each bond."""
        bonded = np.zeros((self.n_atoms, self.n_atoms))
        for i, j in self.bonds():
            bonded[i, j] = bonded[j, i] = 1.0
        return bonded

    def neighbor_sites(self, i: int) -> list[int]:
        """Distinct sites coupled to i (for nearest_neighbor range)."""
        if not 0 <= i < self.n_atoms:
            raise IndexError(f"site {i} out of range for {self.n_atoms} atoms")
        return sorted({a if b == i else b for a, b in self.bonds() if i in (a, b)})


@dataclass(frozen=True)
class BasisState:
    """Configuration bitmask; bit i set means atom i is excited."""

    occupation: int
    n_atoms: int

    def __post_init__(self):
        if not 0 <= self.occupation < (1 << self.n_atoms):
            raise ValueError(
                f"occupation {self.occupation:#x} does not fit {self.n_atoms} atoms")

    def sz(self, i: int) -> float:
        return 0.5 if (self.occupation >> i) & 1 else -0.5

    def bits(self) -> str:
        return format(self.occupation, f"0{self.n_atoms}b")


@dataclass(frozen=True)
class SpectrumLevel:
    energy: float
    degeneracy: int
    representative: BasisState


def energy_of(state: BasisState, spec: ChainSpec) -> float:
    """Diagonal energy sum_i s_i - beta * sum_bonds s_i s_j, s = +-1/2 per bit."""
    if state.n_atoms != spec.n_atoms:
        raise ValueError(
            f"state has {state.n_atoms} atoms but spec has {spec.n_atoms}")
    e = sum(state.sz(i) for i in range(spec.n_atoms))
    e -= spec.beta * sum(state.sz(i) * state.sz(j) for i, j in spec.bonds())
    return e


def gamma_eigenvalue(state: BasisState, i: int, spec: ChainSpec) -> float:
    """Eigenvalue of the frequency-renormalization operator on a configuration."""
    if state.n_atoms != spec.n_atoms:
        raise ValueError(
            f"state has {state.n_atoms} atoms but spec has {spec.n_atoms}")
    if spec.coupling_range == "all_pairs":
        others = (j for j in range(spec.n_atoms) if j != i)
        return 1.0 - spec.beta * sum(state.sz(j) for j in others)
    return 1.0 - spec.beta * sum(state.sz(j) for j in spec.neighbor_sites(i))


def site_bits(n_atoms: int) -> np.ndarray:
    """(n_atoms, 2^N) array of bit i of every basis index: 1 where atom i is excited."""
    return (np.arange(1 << n_atoms) >> np.arange(n_atoms)[:, None]) & 1


def _diagonal_sz(n_atoms: int) -> np.ndarray:
    """(n_atoms, 2^N) array of S^z eigenvalues per site and basis index."""
    return site_bits(n_atoms) - 0.5


def gamma_diagonals(spec: ChainSpec) -> np.ndarray:
    """(N, 2^N) eigenvalues of Gamma_i = 1 - beta * (sum of S^z over the sites bonded
    to i) per basis index; the sums of +-1/2 are exact in any order."""
    return 1.0 - spec.beta * (spec.bond_matrix() @ _diagonal_sz(spec.n_atoms))


def energies(spec: ChainSpec) -> np.ndarray:
    """Energies M - beta*B of all 2^N basis states by bitmask, bit-equal to energy_of:
    M = sum_i s_i and B = sum_bonds s_i s_j add multiples of 1/4, exact in any order."""
    check_atom_cap("spectrum enumeration", spec.n_atoms, SPECTRUM_MAX_ATOMS)
    sz = _diagonal_sz(spec.n_atoms)
    bond_sum = np.zeros(spec.dim)
    for i, j in spec.bonds():
        bond_sum += sz[i] * sz[j]
    return sz.sum(axis=0) - spec.beta * bond_sum


def energy_levels(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bitmasks, energies, level index) of all basis states in stable energy order;
    a new level starts wherever the sorted energy rises by more than DEGENERACY_TOL."""
    e = energies(spec)
    order = np.argsort(e, kind="stable")
    e = e[order]
    return order, e, np.cumsum(np.diff(e, prepend=e[0]) > DEGENERACY_TOL)


def spectrum(spec: ChainSpec) -> list[SpectrumLevel]:
    """Degenerate levels, ascending, each with its lowest energy and smallest bitmask."""
    order, e, level = energy_levels(spec)
    starts = np.flatnonzero(np.diff(level, prepend=-1))
    reps = np.minimum.reduceat(order, starts)
    return [SpectrumLevel(float(e[s]), int(count), BasisState(int(rep), spec.n_atoms))
            for s, count, rep in zip(starts, np.bincount(level), reps)]


@dataclass(frozen=True)
class SpinOperators:
    """Dense 2^N matrix realization of the per-site operator set."""

    spec: ChainSpec
    sz: list[np.ndarray] = field(repr=False)
    sp: list[np.ndarray] = field(repr=False)
    sm: list[np.ndarray] = field(repr=False)
    gamma: list[np.ndarray] = field(repr=False)      # diagonal matrices
    gamma3: list[np.ndarray] = field(repr=False)     # elementwise cube of gamma
    h_atom: np.ndarray = field(repr=False)           # diagonal, hbar*omega0 units


def build_operators(spec: ChainSpec) -> SpinOperators:
    check_atom_cap("dense operators", spec.n_atoms, DENSE_MAX_ATOMS)
    n, dim = spec.n_atoms, spec.dim
    szd = _diagonal_sz(n)
    sz = [np.diag(szd[i]).astype(complex) for i in range(n)]
    sp = []
    idx = np.arange(dim)
    for i in range(n):
        m = np.zeros((dim, dim))
        lower = idx[(idx >> i) & 1 == 0]
        m[lower | (1 << i), lower] = 1.0
        sp.append(m.astype(complex))
    sm = [m.T.copy() for m in sp]
    gamma_diag = gamma_diagonals(spec)
    gamma = [np.diag(g).astype(complex) for g in gamma_diag]
    gamma3 = [np.diag(g ** 3).astype(complex) for g in gamma_diag]

    h_atom = np.diag(energies(spec)).astype(complex)
    return SpinOperators(spec=spec, sz=sz, sp=sp, sm=sm,
                         gamma=gamma, gamma3=gamma3, h_atom=h_atom)
