import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isingrelax.cavity import (CavityParams, block_hamiltonian, exact_state,
                               numeric_oracle, rabi_frequency_from_populations,
                               strong_j_state, two_photon_prefactor,
                               two_photon_probability_max)


class TestParams:
    def test_rabi_splitting(self):
        p = CavityParams(n_photons=1, g=0.1, j_prime=0.5)
        assert p.rabi_splitting == pytest.approx(math.sqrt(0.25 + 2 * 0.01 * 5))

    def test_two_photon_rabi(self):
        p = CavityParams(n_photons=1, g=0.1, j_prime=0.5)
        assert p.two_photon_rabi == pytest.approx(0.01 * 5 / 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            CavityParams(n_photons=-1, g=0.1, j_prime=0.5)
        with pytest.raises(ValueError):
            CavityParams(n_photons=0, g=0.0, j_prime=0.5)

    def test_zero_j_prime_has_one_rule(self):
        p = CavityParams(n_photons=0, g=0.01, j_prime=0.0)
        with pytest.raises(ValueError, match="needs j_prime > 0"):
            p.two_photon_rabi
        with pytest.raises(ValueError, match="needs j_prime > 0"):
            strong_j_state(1.0, p)


class TestExactBlock:
    def test_matches_matrix_exponential(self):
        worst = 0.0
        for n in (0, 1, 5):
            for g in (0.01, 0.1):
                for jp in (0.0, 0.5, 5.0):
                    p = CavityParams(n_photons=n, g=g, j_prime=jp)
                    for t in (0.0, 1.0, 17.3, 100.0):
                        diff = np.max(np.abs(exact_state(t, p).amplitudes
                                             - numeric_oracle(t, p).amplitudes))
                        worst = max(worst, diff)
        assert worst < 1e-10

    def test_time_array_matches_oracle_per_time(self):
        p = CavityParams(n_photons=2, g=0.05, j_prime=0.7)
        times = np.linspace(0.0, 300.0, 37)
        state = exact_state(times, p)
        assert state.amplitudes.shape == (37, 4)
        assert exact_state(1.0, p).amplitudes.shape == (4,)
        for k, t in enumerate(times):
            assert np.max(np.abs(state.amplitudes[k]
                                 - numeric_oracle(float(t), p).amplitudes)) < 1e-10
        assert np.max(np.abs(state.norm - 1.0)) < 1e-12

    def test_norm_conserved(self):
        p = CavityParams(n_photons=2, g=0.05, j_prime=1.0)
        for t in np.linspace(0, 500, 40):
            assert exact_state(float(t), p).norm == pytest.approx(1.0, abs=1e-12)

    def test_initial_state(self):
        p = CavityParams(n_photons=0, g=0.1, j_prime=0.5)
        pops = exact_state(0.0, p).populations
        assert pops[0] == pytest.approx(1.0, abs=1e-12)
        assert pops[1:].max() < 1e-12

    def test_block_hamiltonian_hermitian(self):
        h = block_hamiltonian(CavityParams(n_photons=3, g=0.2, j_prime=0.7))
        assert np.allclose(h, h.conj().T)

    @given(n=st.integers(0, 4), g=st.floats(0.001, 0.5),
           jp=st.floats(0, 5), t=st.floats(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_exact_equals_oracle_property(self, n, g, jp, t):
        p = CavityParams(n_photons=n, g=g, j_prime=jp)
        assert np.max(np.abs(exact_state(t, p).amplitudes
                             - numeric_oracle(t, p).amplitudes)) < 1e-9


class TestStrongInteraction:
    def test_two_photon_probability_peak(self):
        assert two_photon_probability_max(0) == pytest.approx(8.0 / 9.0)
        assert two_photon_probability_max(1) == pytest.approx(24.0 / 25.0)

    def test_strong_j_reaches_analytic_peak(self):
        p = CavityParams(n_photons=1, g=0.01, j_prime=5.0)
        delta = p.two_photon_rabi
        t_half = math.pi / (2 * delta)
        pops = strong_j_state(t_half, p).populations
        assert pops[3] == pytest.approx(two_photon_probability_max(1), abs=1e-6)

    def test_agrees_with_exact_when_j_dominates(self):
        p = CavityParams(n_photons=1, g=0.01, j_prime=5.0)
        for t in np.linspace(0, 4000, 23):
            exact = exact_state(float(t), p).populations[3]
            approx = strong_j_state(float(t), p).populations[3]
            assert abs(exact - approx) < 5e-3

    def test_time_array_matches_scalar_times(self):
        p = CavityParams(n_photons=1, g=0.01, j_prime=5.0)
        times = np.linspace(0.0, 4000.0, 23)
        state = strong_j_state(times, p)
        assert state.amplitudes.shape == (23, 4)
        assert strong_j_state(1.0, p).amplitudes.shape == (4,)
        for k, t in enumerate(times):
            assert np.max(np.abs(state.amplitudes[k]
                                 - strong_j_state(float(t), p).amplitudes)) < 1e-14

    def test_validity_warning_outside_regime(self):
        weak = CavityParams(n_photons=1, g=0.2, j_prime=0.5)
        assert strong_j_state(1.0, weak).validity_warning
        strong = CavityParams(n_photons=1, g=0.01, j_prime=5.0)
        assert not strong_j_state(1.0, strong).validity_warning


class TestTwoPhotonPrefactor:
    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            two_photon_prefactor(0.4, 0.8, 1.0, 1.0)

    def test_resonance_flag(self):
        assert two_photon_prefactor(0.4, 1.0, 1.0, 1.0).resonant
        assert not two_photon_prefactor(0.4, 0.9, 1.0, 1.0).resonant

    def test_amplitudes_add_coherently(self):
        one = two_photon_prefactor(0.4, 0.9, 1.0, 0.0).value
        both = two_photon_prefactor(0.4, 0.9, 1.0, 1.0).value
        assert both == pytest.approx(4 * one)


class TestRabiExtraction:
    def test_recovers_known_frequency(self):
        delta = 3e-4
        t = np.linspace(0, 20 * math.pi / delta, 8192)
        p_dd = np.sin(delta * t) ** 2
        got = rabi_frequency_from_populations(t, p_dd)
        assert got == pytest.approx(delta, rel=1e-3)

    def test_rejects_nonuniform_grid(self):
        t = np.array([0.0, 1.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            rabi_frequency_from_populations(t, np.zeros(4))

    @pytest.mark.parametrize("t", [np.array([0.0, 1.0, 3.0, 4.0, 6.0]) * 1e-9,
                                   np.linspace(1.0, 0.0, 5), np.zeros(5),
                                   np.array([0.0, 1.0, np.nan, 3.0, 4.0])])
    def test_rejects_tiny_decreasing_or_nan_grids(self, t):
        # steps of 1e-9 and 2e-9 differ by less than allclose's default atol
        with pytest.raises(ValueError, match="strictly increasing"):
            rabi_frequency_from_populations(t, np.zeros(5))
