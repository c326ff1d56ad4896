import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingrelax.errors import ResourceLimitError
from isingrelax.spin_core import (BasisState, ChainSpec, build_operators, energies,
                                  energy_of, gamma_eigenvalue, spectrum)


def all_up(n):
    return BasisState((1 << n) - 1, n)


def all_down(n):
    return BasisState(0, n)


class TestChainSpec:
    def test_two_atom_cyclic_single_bond(self):
        assert ChainSpec(2, 0.3).bonds() == [(0, 1)]

    def test_cyclic_bond_count(self):
        assert len(ChainSpec(6, 0.1).bonds()) == 6

    def test_open_bond_count(self):
        assert len(ChainSpec(6, 0.1, boundary="open").bonds()) == 5

    def test_all_pairs_bond_count(self):
        assert len(ChainSpec(6, 0.1, coupling_range="all_pairs").bonds()) == 15

    def test_rejects_bad_atom_count(self):
        with pytest.raises(ValueError):
            ChainSpec(0, 0.1)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            ChainSpec(4, -0.1)

    @given(n=st.integers(2, 10))
    def test_bonds_are_deduplicated(self, n):
        bonds = ChainSpec(n, 0.2).bonds()
        assert len(bonds) == len(set(bonds))
        assert all(i < j for i, j in bonds)


class TestEnergy:
    def test_all_up_six_atoms(self):
        assert energy_of(all_up(6), ChainSpec(6, 0.1)) == pytest.approx(2.85, abs=1e-12)

    def test_all_down_six_atoms(self):
        assert energy_of(all_down(6), ChainSpec(6, 0.1)) == pytest.approx(-3.15, abs=1e-12)

    def test_one_flip_gap_is_one_minus_beta(self):
        # flipping the last spin down from the all-up state costs 1 - beta,
        # so the fully excited state loses the top for beta > 1
        for beta in (0.1, 0.9, 2.0):
            spec = ChainSpec(6, beta)
            top = energy_of(all_up(6), spec)
            one_down = energy_of(BasisState(0b011111, 6), spec)
            assert top - one_down == pytest.approx(1.0 - beta, abs=1e-12)

    @given(n=st.integers(1, 6), occ=st.integers(0, 63), beta=st.floats(0, 3))
    @settings(max_examples=120)
    def test_matches_hamiltonian_diagonal(self, n, occ, beta):
        occ %= 1 << n
        spec = ChainSpec(n, beta)
        ops = build_operators(spec)
        assert energy_of(BasisState(occ, n), spec) == pytest.approx(
            float(np.real(ops.h_atom[occ, occ])), abs=1e-12)


    @pytest.mark.parametrize("coupling_range", ["nearest_neighbor", "all_pairs"])
    @pytest.mark.parametrize("boundary", ["cyclic", "open"])
    def test_vectorised_bit_equal_to_energy_of(self, coupling_range, boundary):
        for n in range(1, 11):
            for beta in (0.0, 0.3, 0.5, 0.9):
                spec = ChainSpec(n, beta, coupling_range, boundary)
                want = [energy_of(BasisState(occ, n), spec) for occ in range(spec.dim)]
                assert energies(spec).tobytes() == np.array(want).tobytes()


class TestGammaEigenvalue:
    def test_all_up_neighbors(self):
        spec = ChainSpec(6, 0.4)
        assert gamma_eigenvalue(all_up(6), 2, spec) == pytest.approx(1 - 0.4)

    def test_positive_for_beta_below_one(self):
        spec = ChainSpec(6, 0.99)
        for occ in range(64):
            for i in range(6):
                assert gamma_eigenvalue(BasisState(occ, 6), i, spec) > 0

    def test_can_vanish_for_beta_above_one(self):
        spec = ChainSpec(6, 1.0)
        assert gamma_eigenvalue(all_up(6), 0, spec) == pytest.approx(0.0)


class TestSpectrum:
    def test_degeneracies_cover_space(self):
        levels = spectrum(ChainSpec(6, 0.1))
        assert sum(lev.degeneracy for lev in levels) == 64

    def test_sorted_ascending(self):
        levels = spectrum(ChainSpec(6, 0.1))
        energies = [lev.energy for lev in levels]
        assert energies == sorted(energies)

    def test_beta_zero_degeneracies_are_binomial(self):
        levels = spectrum(ChainSpec(5, 0.0))
        assert [lev.degeneracy for lev in levels] == [1, 5, 10, 10, 5, 1]

    def test_large_beta_reorders_top(self):
        # for beta >> 1 the fully aligned states sit lowest
        levels = spectrum(ChainSpec(6, 10.0))
        reps = {levels[0].representative.occupation,
                levels[1].representative.occupation}
        assert reps == {0, 63}

    def test_enumeration_cap(self):
        with pytest.raises(ResourceLimitError):
            spectrum(ChainSpec(21, 0.1))

    def test_coincident_levels_stay_whole(self):
        # at beta = 0.5 distinct (M, B) pairs share an energy, and the two sides
        # of each sum round differently when the bonds are subtracted one by one
        levels = spectrum(ChainSpec(10, 0.5))
        want = {}
        for occ in range(1 << 10):
            e = energy_of(BasisState(occ, 10), ChainSpec(10, 0.5))
            want.setdefault(round(e * 8), []).append(occ)   # e is a multiple of 1/8
        assert [lev.degeneracy for lev in levels] == [len(v) for _, v in sorted(want.items())]
        assert [lev.representative.occupation for lev in levels] == \
            [min(v) for _, v in sorted(want.items())]


class TestOperators:
    def test_raising_is_adjoint_of_lowering(self):
        ops = build_operators(ChainSpec(3, 0.2))
        for i in range(3):
            assert np.allclose(ops.sp[i], ops.sm[i].conj().T)

    def test_commutator_sz_sp(self):
        ops = build_operators(ChainSpec(3, 0.2))
        for i in range(3):
            comm = ops.sz[i] @ ops.sp[i] - ops.sp[i] @ ops.sz[i]
            assert np.allclose(comm, ops.sp[i])

    def test_gamma3_is_cube_of_gamma(self):
        ops = build_operators(ChainSpec(4, 0.7))
        for i in range(4):
            assert np.allclose(ops.gamma3[i], np.linalg.matrix_power(ops.gamma[i], 3))

    def test_dense_cap(self):
        with pytest.raises(ResourceLimitError):
            build_operators(ChainSpec(9, 0.1))
