import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from isingrelax.geometry import (AtomGeometry, aux_a, aux_b, coefficient_table,
                                 f_coeff, omega_dd, omega_matrix, pv_integrals,
                                 quasistatic_asymptote, si_ci)

MAGIC_COS = 1.0 / math.sqrt(3.0)


def si_ci_quadrature(x):
    """Laplace-transform oracle: si/ci from two absolutely convergent integrals."""
    f = quad(lambda t: math.exp(-x * t) / (1 + t * t), 0, np.inf,
             epsabs=1e-14, epsrel=1e-13, limit=400)[0]
    g = quad(lambda t: t * math.exp(-x * t) / (1 + t * t), 0, np.inf,
             epsabs=1e-14, epsrel=1e-13, limit=400)[0]
    si = -f * math.cos(x) - g * math.sin(x)
    ci = f * math.sin(x) - g * math.cos(x)
    return si, ci


class TestGeometryContainer:
    def test_pair_distance_and_angle(self):
        geom = AtomGeometry(positions=[[0, 0, 0], [0, 0, 2.0]], dipole=[0, 0, 1])
        k0r, c = geom.pair(0, 1)
        assert k0r == pytest.approx(2.0)
        assert abs(c) == pytest.approx(1.0)

    def test_rejects_coincident_atoms(self):
        with pytest.raises(ValueError):
            AtomGeometry(positions=[[0, 0, 0], [0, 0, 0]], dipole=[0, 0, 1])

    def test_rejects_non_finite_positions(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                AtomGeometry(positions=[[0, 0, 0], [bad, 0, 0]], dipole=[0, 0, 1])

    def test_names_first_coincident_pair_like_pairwise_scan(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pos = rng.integers(0, 3, (12, 3)).astype(float)   # many repeated rows
            first = next(((i, j) for i in range(12) for j in range(i + 1, 12)
                          if np.array_equal(pos[i], pos[j])), None)
            if first is None:
                AtomGeometry(positions=pos, dipole=[0, 0, 1])
                continue
            with pytest.raises(ValueError, match=f"atoms {first[0]} and {first[1]} coincide"):
                AtomGeometry(positions=pos, dipole=[0, 0, 1])

    def test_rejects_unnormalized_dipole(self):
        with pytest.raises(ValueError):
            AtomGeometry(positions=[[0, 0, 0], [1, 0, 0]], dipole=[0, 0, 2])


class TestFCoeff:
    def test_quasi_static_limit_is_one(self):
        assert f_coeff(0.0, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_branch_agreement_at_switch(self):
        for c in (0.0, 0.5, 1.0):
            below = f_coeff(1e-2 * (1 - 1e-12), c)
            above = f_coeff(1e-2, c)
            assert below == pytest.approx(above, abs=1e-10)

    def test_decays_at_large_separation(self):
        assert abs(f_coeff(500.0, 0.2)) < 0.01

    @given(x=st.floats(0, 50), c=st.floats(-1, 1))
    @settings(max_examples=200)
    def test_bounded(self, x, c):
        assert abs(f_coeff(x, c)) <= 1.5 + 1e-9


class TestOmega:
    def test_magic_angle_vanishes_exactly(self):
        assert omega_dd(1.7, MAGIC_COS) == 0.0
        geom = AtomGeometry(
            positions=[[0, 0, 0],
                       [math.sqrt(2.0 / 3.0), 0, math.sqrt(1.0 / 3.0)]],
            dipole=[0, 0, 1])
        k0r, c = geom.pair(0, 1)
        assert omega_dd(k0r, c) == pytest.approx(0.0, abs=1e-12)

    def test_inverse_cube_scaling(self):
        base = omega_dd(1.0, 0.2)
        for r in (2.0, 5.0, 10.0):
            assert omega_dd(r, 0.2) * r ** 3 == pytest.approx(base, rel=1e-12)

    def test_matrix_symmetric_zero_diagonal(self):
        geom = AtomGeometry(positions=[[0, 0, 0], [0.3, 0, 0], [0, 0.4, 0.1]],
                            dipole=[0, 0, 1])
        om = omega_matrix(geom)
        assert np.allclose(om, om.T)
        assert np.all(np.diag(om) == 0)

    def test_coefficient_table_rows(self):
        geom = AtomGeometry(positions=[[0, 0, 0], [0.3, 0, 0], [0, 0.4, 0.1]],
                            dipole=[0, 0, 1])
        rows = coefficient_table(geom)
        assert len(rows) == 3
        assert {tuple(sorted((r["i"], r["j"]))) for r in rows} == \
            {(0, 1), (0, 2), (1, 2)}


class TestSiCi:
    def test_against_quadrature_oracle(self):
        for x in np.geomspace(1e-3, 50.0, 40):
            si, ci = si_ci(float(x))
            si_ref, ci_ref = si_ci_quadrature(float(x))
            assert abs(si - si_ref) < 1e-10
            assert abs(ci - ci_ref) < 1e-10

    def test_known_value_at_one(self):
        _, ci = si_ci(1.0)
        assert ci == pytest.approx(0.3374039229009681, abs=1e-12)

    def test_vanish_at_infinity(self):
        si, ci = si_ci(1e4)
        assert abs(si) < 1e-3
        assert abs(ci) < 1e-3

    def test_branch_agreement_at_switch(self):
        below = si_ci(8.0 * (1 - 1e-13))
        above = si_ci(8.0)
        assert below[0] == pytest.approx(above[0], abs=1e-12)
        assert below[1] == pytest.approx(above[1], abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            si_ci(0.0)

    def test_auxiliary_small_x_asymptotes(self):
        # A -> pi/2 and B -> euler_gamma + log(x) as x -> 0+
        assert aux_a(1e-3) == pytest.approx(math.pi / 2, abs=1e-2)
        assert aux_b(1e-3) == pytest.approx(0.5772156649 + math.log(1e-3), abs=5e-3)


class TestPrincipalValue:
    def test_both_match_quasistatic_at_small_x(self):
        for c in (0.0, 0.4, 0.9):
            x = 1e-3
            want = quasistatic_asymptote(x, c)
            plus, minus = pv_integrals(x, c)
            assert plus == pytest.approx(want, rel=0.01)
            assert minus == pytest.approx(want, rel=0.01)

    def test_magic_angle_kills_leading_order(self):
        x = 1e-3
        plus, _ = pv_integrals(x, MAGIC_COS)
        # without the r^-3 term only the softer 1/x divergence survives
        assert abs(plus) < abs(pv_integrals(x, 0.0)[0]) * 1e-3

    def test_decay_at_large_separation(self):
        plus, minus = pv_integrals(300.0, 0.2)
        assert abs(plus) < 0.05
        assert abs(minus) < 0.05
