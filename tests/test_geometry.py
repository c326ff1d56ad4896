import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from isingrelax.geometry import (AtomGeometry, aux_a, aux_b, coefficient_table,
                                 f_coeff, omega_dd, omega_matrix, pairs, pv_integrals,
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


def f_coeff_scalar(x, cos_chi):
    """Scalar geometric factor with the same series switch, for per-pair checks."""
    a = 1.0 - cos_chi * cos_chi
    b = 1.0 - 3.0 * cos_chi * cos_chi
    if x < 1e-2:
        x2 = x * x
        return 1.5 * (a * (1.0 - x2 / 6.0 + x2 * x2 / 120.0)
                      + b * (-1.0 / 3.0 + x2 / 30.0 - x2 * x2 / 840.0))
    return 1.5 * (a * math.sin(x) / x
                  + b * (math.cos(x) / x ** 2 - math.sin(x) / x ** 3))


def omega_dd_scalar(k0r, cos_chi):
    b = 1.0 - 3.0 * cos_chi * cos_chi
    return 0.0 if abs(b) < 4e-16 else -1.5 * b / k0r ** 3


def table_by_pair(geom):
    """Coefficient columns built one pair at a time."""
    cols = {k: [] for k in ("i", "j", "k0r", "cos_chi", "F_at_k0r", "omega_over_gamma0")}
    om = np.zeros((geom.n_atoms, geom.n_atoms))
    for i in range(geom.n_atoms):
        for j in range(i + 1, geom.n_atoms):
            rij = geom.positions[i] - geom.positions[j]
            r = float(np.linalg.norm(rij))
            c = float(np.dot(geom.dipole, rij / r))
            om[i, j] = om[j, i] = omega_dd_scalar(r, c)
            for key, value in zip(cols, (i, j, r, c, f_coeff_scalar(r, c), om[i, j])):
                cols[key].append(value)
    return cols, om


def mixed_geometry():
    """A jittered block, a pair 2^-8 apart (series branch; every rounding exact)
    and a pair at the magic angle to the z dipole."""
    rng = np.random.default_rng(11)
    grid = np.stack(np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    block = 2.0 + 0.8 * grid + rng.uniform(-0.1, 0.1, grid.shape)
    special = [[0, 0, 0], [0, 0, 2.0 ** -8],
               [math.sqrt(2.0 / 3.0), 0, math.sqrt(1.0 / 3.0)]]
    return AtomGeometry(positions=np.vstack([special, block]), dipole=[0, 0, 1])


class TestGeometryContainer:
    def test_pair_distance_and_angle(self):
        geom = AtomGeometry(positions=[[0, 0, 0], [0, 0, 2.0]], dipole=[0, 0, 1])
        _, _, (k0r,), (c,) = pairs(geom)
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

    def test_array_equals_scalar_calls_without_warnings(self):
        x = np.array([0.0, 1e-300, 1e-120, 5e-3, 1e-2, 0.3, 7.0, 1e6])
        c = np.array([0.3, -1.0, 0.5, MAGIC_COS, 0.0, 1.0, -0.2, 0.9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f_coeff(x, c)
        scalars = [f_coeff(float(xk), float(ck)) for xk, ck in zip(x, c)]
        assert all(isinstance(v, float) for v in scalars)
        assert got.tolist() == scalars

    def test_errors_name_the_first_bad_value(self):
        with pytest.raises(ValueError, match=r"got -2\.0$"):
            f_coeff(np.array([1.0, -2.0, -3.0]), 0.0)
        with pytest.raises(ValueError, match=r"got 1\.5$"):
            f_coeff(1.0, np.array([0.0, 1.5, -4.0]))
        with pytest.raises(ValueError, match=r"got 0\.0$"):
            omega_dd(np.array([1.0, 0.0, -1.0]), 0.2)


class TestOmega:
    def test_magic_angle_vanishes_exactly(self):
        assert omega_dd(1.7, MAGIC_COS) == 0.0
        geom = AtomGeometry(
            positions=[[0, 0, 0],
                       [math.sqrt(2.0 / 3.0), 0, math.sqrt(1.0 / 3.0)]],
            dipole=[0, 0, 1])
        _, _, (k0r,), (c,) = pairs(geom)
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

    def test_magic_angle_vanishes_inside_an_array(self):
        got = omega_dd(np.array([1.7, 2.0, 0.5]), np.array([MAGIC_COS, 0.2, -MAGIC_COS]))
        assert got.tolist() == [0.0, omega_dd(2.0, 0.2), 0.0]

    def test_table_and_matrix_match_pair_loop(self):
        geom = mixed_geometry()
        want, want_om = table_by_pair(geom)
        got = coefficient_table(geom)
        assert list(got) == list(want)
        for key in ("i", "j"):
            assert got[key].tolist() == want[key]
        for key in ("k0r", "cos_chi", "F_at_k0r", "omega_over_gamma0"):
            assert np.max(np.abs(got[key] - want[key])) <= 1e-14, key
        assert np.max(np.abs(omega_matrix(geom) - want_om)) <= 1e-14
        # pair (0, 1) is 2^-8 apart on the series branch, pair (0, 2) at the magic angle
        assert want["k0r"][0] < 1e-2 and abs(want["omega_over_gamma0"][0]) > 1e6
        assert want["omega_over_gamma0"][1] == got["omega_over_gamma0"][1] == 0.0

    def test_coefficient_table_rows(self):
        geom = AtomGeometry(positions=[[0, 0, 0], [0.3, 0, 0], [0, 0.4, 0.1]],
                            dipole=[0, 0, 1])
        table = coefficient_table(geom)
        assert all(column.shape == (3,) for column in table.values())
        assert set(zip(table["i"].tolist(), table["j"].tolist())) == \
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
