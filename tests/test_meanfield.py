import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from isingrelax import meanfield
from isingrelax.errors import ModelValidityError
from isingrelax.meanfield import (DENOM_FLOOR, BlochField, MFParams, coherent_pulse,
                                  collective_pulse, coupling_functions,
                                  gamma3_mean, gamma_at_half_deexcitation,
                                  initial_field, integrate_mf,
                                  longrange_polynomial, longrange_rate,
                                  longrange_scaling, mf_rhs,
                                  order_parameter_mf, order_parameter_run,
                                  soliton_ring, w_factor)


def per_sample_order_parameter(taus, sigma_z, sigma_plus, beta):
    """Reference order parameter evaluated one sample row at a time."""
    kept, ratios = [], []
    for k in range(len(taus)):
        sz, sp = sigma_z[k], sigma_plus[k]
        gamma3 = coupling_functions(sz, beta)["gamma3"]
        s_minus_tot = sp.conj().sum()
        numer = 2.0 * np.real(np.sum(gamma3 * sp * (s_minus_tot - sp.conj())))
        denom = float(np.sum((1.0 + 2.0 * sz) * gamma3))
        if denom < DENOM_FLOOR:
            continue
        kept.append(taus[k])
        ratios.append(numer / denom)
    if len(kept) < 2:
        return 0.0
    kept = np.asarray(kept)
    span = kept[-1] - kept[0]
    return float(np.trapezoid(np.asarray(ratios), kept) / span) if span > 0 else 0.0


def reference_order_parameter_run(params, n_samples=2000):
    """Reference run: an event-stopped coarse solve, then integrate_mf on the window."""
    field0 = initial_field(params)
    n = params.n_atoms

    def rhs(_t, y):
        dsz, dsp = mf_rhs(BlochField(y[:n], y[n:2 * n] + 1j * y[2 * n:]), params.beta)
        return np.concatenate([dsz, dsp.real, dsp.imag])

    def relaxed(_t, y):
        return y[:n].sum() - (-0.5 * n + 0.01 * n)
    relaxed.terminal = True
    relaxed.direction = -1

    y0 = np.concatenate([field0.sigma_z, field0.sigma_plus.real, field0.sigma_plus.imag])
    coarse = solve_ivp(rhs, (0.0, params.horizon), y0,
                       t_eval=np.linspace(0.0, params.horizon, 200), method="RK45",
                       rtol=1e-8, atol=1e-10, events=[relaxed], dense_output=True)
    t_end = params.horizon
    if coarse.t_events[0].size:
        t_end = float(coarse.t_events[0][0])
    window = MFParams(n, params.beta, theta0=params.theta0, phase_seed=params.phase_seed,
                      horizon=min(params.horizon, 1.2 * t_end))
    traj = integrate_mf(field0, window, n_samples=n_samples)
    return per_sample_order_parameter(traj.taus, traj.sigma_z, traj.sigma_plus, params.beta)


def _w_matrix(gamma):
    return np.asarray(w_factor(gamma[:, None], gamma[None, :]))


def dense_mf_rhs(field, beta):
    """Reference right-hand side built on the dense N x N weight matrix w."""
    sz, sp = field.sigma_z, field.sigma_plus
    sm = sp.conj()
    n = sz.size
    c = coupling_functions(sz, beta)
    gamma3 = c["gamma3"]
    w = _w_matrix(c["gamma"])   # w[i, j]

    ip = np.roll(np.arange(n), -1)   # index n+1
    im = np.roll(np.arange(n), +1)   # index n-1
    idx = np.arange(n)

    # nearest-neighbor K-weighted terms of d sigma_z
    t_plus = (sp[ip] * sm * w[ip, idx] + sp * sm[ip] * w[idx, ip]) * c["k_plus"]
    t_minus = (sp[im] * sm * w[im, idx] + sp * sm[im] * w[idx, im]) * c["k_minus"]

    # long sums over i != n, n+-1, computed as full sums minus local terms
    g3sm = gamma3 * sm
    g3sp = gamma3 * sp
    full_z = sp * (w @ g3sm) + sm * (w.T @ g3sp)
    local_z = (2.0 * gamma3 * (sp * sm)
               + gamma3[ip] * (sp * sm[ip] * w[idx, ip] + sp[ip] * sm * w[ip, idx])
               + gamma3[im] * (sp * sm[im] * w[idx, im] + sp[im] * sm * w[im, idx]))
    if n == 2:
        # n+1 and n-1 are the same site; drop the double-counted local term
        local_z -= gamma3[ip] * (sp * sm[ip] * w[idx, ip] + sp[ip] * sm * w[ip, idx])
    long_z = full_z - local_z

    dsz = -(1.0 + 2.0 * sz) * gamma3 - np.real(t_plus + t_minus + long_z)

    # sigma_plus equation
    full_p = 2.0 * sz * (w.T @ g3sp)
    local_p = 2.0 * sz * (gamma3 * sp
                          + gamma3[ip] * sp[ip] * w[ip, idx]
                          + gamma3[im] * sp[im] * w[im, idx])
    if n == 2:
        local_p -= 2.0 * sz * gamma3[ip] * sp[ip] * w[ip, idx]
    dsp = (-sp * gamma3
           + 2.0 * c["e_plus"] * sp[ip] * w[ip, idx]
           + 2.0 * c["e_minus"] * sp[im] * w[im, idx]
           + full_p - local_p)
    if n == 2:
        # single neighbor: the two nearest-neighbor transport terms coincide
        dsz += np.real(t_minus)
        dsp -= 2.0 * c["e_minus"] * sp[im] * w[im, idx]
    return dsz, dsp


class TestCouplingFunctions:
    def test_gamma_at_full_inversion(self):
        for beta in (0.0, 0.3, 0.9):
            cf = coupling_functions(np.full(6, 0.5), beta)
            assert np.allclose(cf["gamma"], 1 - beta)

    def test_gamma3_at_full_inversion_is_cube(self):
        for beta in (0.0, 0.3, 0.9):
            cf = coupling_functions(np.full(6, 0.5), beta)
            expected = 1 - beta * (3 + beta ** 2) + 3 * beta ** 2
            assert np.allclose(cf["gamma3"], expected)
            assert expected == pytest.approx((1 - beta) ** 3)

    def test_gamma3_gain_at_zero_inversion(self):
        for beta in (0.0, 0.3, 0.5):
            cf = coupling_functions(np.zeros(6), beta)
            assert np.allclose(cf["gamma3"], 1 + 1.5 * beta ** 2)

    def test_e_equals_gamma3_times_sz_at_poles(self):
        # the operator product expansion uses (S^z)^2 = 1/4, so the scalar
        # identity holds exactly at sigma_z = +-1/2
        for beta in (0.0, 0.4, 0.9):
            for s in (-0.5, 0.5):
                cf = coupling_functions(np.full(5, s), beta)
                assert np.allclose(cf["e_plus"], cf["gamma3"] * s, atol=1e-14)
                assert np.allclose(cf["e_minus"], cf["gamma3"] * s, atol=1e-14)

    def test_k_is_one_at_full_inversion(self):
        cf = coupling_functions(np.full(6, 0.5), 0.7)
        assert np.allclose(cf["k_plus"], 1.0)
        assert np.allclose(cf["k_minus"], 1.0)


class TestWFactor:
    def test_equal_arguments(self):
        assert w_factor(1.3, 1.3) == 1.0

    def test_vanishes_at_integer_differences(self):
        for k in (1, 2, 5):
            assert abs(w_factor(2.0 + k, 2.0)) < 1e-12

    def test_conjugate_symmetry(self):
        w = w_factor(1.7, 1.2)
        assert w_factor(1.2, 1.7) == pytest.approx(np.conj(w))

    @given(gi=st.floats(-5, 5), gj=st.floats(-5, 5))
    @settings(max_examples=200)
    def test_magnitude_bounded_by_one(self, gi, gj):
        assert abs(w_factor(gi, gj)) <= 1 + 1e-12

    def test_keeps_imaginary_part_at_tiny_differences(self):
        # w = 1 + i pi d + O(d^2); the first-order term must survive |d| << 1
        assert w_factor(1.0 + 1e-9, 1.0).imag == pytest.approx(math.pi * 1e-9, rel=1e-6)


class TestMFParams:
    def test_default_tipping_angle(self):
        assert MFParams(16, 0.1).tipping_angle == pytest.approx(2 / 4)

    def test_rejects_beta_one(self):
        with pytest.raises(ModelValidityError):
            MFParams(4, 1.0)

    def test_rejects_single_atom(self):
        with pytest.raises(ValueError):
            MFParams(1, 0.1)

    def test_initial_field_is_on_bloch_sphere(self):
        f = initial_field(MFParams(8, 0.3, theta0=0.7, phase_seed=5))
        r2 = f.sigma_z ** 2 + np.abs(f.sigma_plus) ** 2
        assert np.allclose(r2, 0.25, atol=1e-12)


class TestRHS:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 33, 256])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 0.99])
    def test_matches_dense_reference(self, n, beta):
        rng = np.random.default_rng(1000 * n + int(100 * beta))
        sz = rng.uniform(-0.5, 0.5, n)
        sp = rng.uniform(0.0, 0.5, n) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, n))
        f = BlochField(sz, sp)
        dsz, dsp = mf_rhs(f, beta)
        ref_z, ref_p = dense_mf_rhs(f, beta)
        scale = max(np.max(np.abs(ref_z)), np.max(np.abs(ref_p)))
        assert np.max(np.abs(dsz - ref_z)) <= 1e-10 * scale
        assert np.max(np.abs(dsp - ref_p)) <= 1e-10 * scale

    def test_zero_coherence_manifold_is_invariant(self):
        sz = np.array([0.5, 0.1, -0.3, 0.2, 0.5])
        f = BlochField(sz, np.zeros(5, dtype=complex))
        dsz, dsp = mf_rhs(f, 0.6)
        assert np.allclose(dsp, 0.0)
        cf = coupling_functions(sz, 0.6)
        assert np.allclose(dsz, -(1 + 2 * sz) * cf["gamma3"])

    def test_translation_covariance(self):
        params = MFParams(7, 0.4, theta0=0.5)
        f = initial_field(params)
        dsz, dsp = mf_rhs(f, 0.4)
        rolled = BlochField(np.roll(f.sigma_z, 1), np.roll(f.sigma_plus, 1))
        dsz_r, dsp_r = mf_rhs(rolled, 0.4)
        assert np.max(np.abs(np.roll(dsz, 1) - dsz_r)) < 1e-9
        assert np.max(np.abs(np.roll(dsp, 1) - dsp_r)) < 1e-9

    def test_ground_state_is_stationary(self):
        f = BlochField(np.full(6, -0.5), np.zeros(6, dtype=complex))
        dsz, dsp = mf_rhs(f, 0.5)
        assert np.allclose(dsz, 0.0, atol=1e-14)
        assert np.allclose(dsp, 0.0, atol=1e-14)


class TestTrajectories:
    def test_bounds_hold_along_run(self):
        params = MFParams(10, 0.5, horizon=20.0)
        traj = integrate_mf(initial_field(params), params, n_samples=300)
        assert traj.bound_violations == 0
        assert np.max(np.abs(traj.sigma_z)) <= 0.5 + 1e-6
        assert np.max(np.abs(traj.sigma_plus)) <= 0.5 + 1e-6

    def test_interior_peak_with_interaction(self):
        params = MFParams(10, 0.5, theta0=0.02, horizon=20.0)
        traj = integrate_mf(initial_field(params), params, n_samples=500)
        assert traj.t_peak > 0.1

    def test_monotone_rate_without_interaction_small_seed(self):
        params = MFParams(10, 0.0, theta0=0.001, horizon=10.0)
        traj = integrate_mf(initial_field(params), params, n_samples=300)
        assert traj.t_peak < 0.05

    def test_large_chain_enhancement(self):
        peaks = {}
        for beta in (0.0, 0.9):
            params = MFParams(100, beta, horizon=10.0)
            peaks[beta] = integrate_mf(initial_field(params), params,
                                       n_samples=400).gamma_max
        assert peaks[0.9] > peaks[0.0]

    def test_half_deexcitation_rate_between_samples(self):
        params = MFParams(20, 0.3, horizon=20.0)
        traj = integrate_mf(initial_field(params), params, n_samples=500)
        g = gamma_at_half_deexcitation(traj)
        assert 0 < g <= traj.gamma_max * 1.001


class TestOrderParameter:
    def test_zero_for_zero_coherence_trajectory(self):
        taus = np.linspace(0, 5, 50)
        sz = np.tile(np.linspace(0.5, -0.4, 50)[:, None], (1, 6))
        assert order_parameter_mf(taus, sz, np.zeros((50, 6), dtype=complex), 0.2) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 0.9])
    @pytest.mark.parametrize("phase_seed", [None, 7])
    def test_run_equals_reference(self, n, beta, phase_seed):
        # a short horizon keeps the random-phase runs clear of the mean-field
        # blow-up that stalls some random-phase starts at large beta; 600
        # samples span three order-parameter chunks
        params = MFParams(n, beta, phase_seed=phase_seed,
                          horizon=50.0 if phase_seed is None else 2.0)
        assert order_parameter_run(params, n_samples=600) == \
            reference_order_parameter_run(params, n_samples=600)

    def test_chunked_rows_equal_per_sample_reference(self):
        # 700 rows span three chunks, the last one partial; a few rows fall
        # below the denominator floor and are dropped by both
        rng = np.random.default_rng(3)
        taus = np.sort(rng.uniform(0.0, 4.0, 700))
        sz = rng.uniform(-0.5, 0.5, (700, 9))
        sz[::97] = -0.5
        sp = rng.uniform(0.0, 0.5, (700, 9)) * np.exp(1j * rng.uniform(0, 2 * math.pi, (700, 9)))
        for beta in (0.0, 0.4, 0.9):
            assert order_parameter_mf(taus, sz, sp, beta) == \
                per_sample_order_parameter(taus, sz, sp, beta)

    def test_run_evaluates_rhs_only_inside_the_solver(self, monkeypatch):
        calls, nfev = [0], [0]
        rhs, solve = meanfield.mf_rhs, meanfield.solve_ivp

        def counting_rhs(*args):
            calls[0] += 1
            return rhs(*args)

        def counting_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            nfev[0] += sol.nfev
            return sol

        monkeypatch.setattr(meanfield, "mf_rhs", counting_rhs)
        monkeypatch.setattr(meanfield, "solve_ivp", counting_solve)
        order_parameter_run(MFParams(16, 0.5))
        assert nfev[0] > 0
        assert calls[0] == nfev[0]

    def test_increases_with_chain_length(self):
        values = [order_parameter_run(MFParams(n, 0.0, theta0=0.4))
                  for n in (4, 8, 16, 32, 64)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestReducedPulses:
    def test_collective_free_decay_closed_form(self):
        res = collective_pulse(0.0, 8, horizon=5.0)
        assert np.max(np.abs(res.gamma - 2 * 8 * np.exp(-2 * res.times))) < 1e-8
        assert res.t_peak == 0.0

    def test_collective_interacting_peak_is_interior(self):
        res = collective_pulse(0.5, 10, horizon=20.0)
        assert res.t_peak > 0.1

    def test_coherent_free_peak_value(self):
        res = coherent_pulse(0.0, 50, horizon=1.0)
        assert res.gamma_max == pytest.approx(1.5 * 50 ** 2, rel=1e-12)

    def test_coherent_gain_factor(self):
        base = coherent_pulse(0.0, 50, horizon=1.0).gamma_max
        for beta in (0.3, 0.5):
            got = coherent_pulse(beta, 50, horizon=1.0).gamma_max
            assert got / base == pytest.approx(1 + 1.5 * beta ** 2, rel=1e-12)

    def test_coherent_peak_time_grows_with_beta(self):
        times = [coherent_pulse(beta, 50, horizon=2.0).t_peak
                 for beta in (0.0, 0.3, 0.6)]
        assert times[0] < times[1] < times[2]

    def test_gamma3_mean_matches_uniform_coupling_function(self):
        for beta in (0.0, 0.4, 0.9):
            for s in (-0.5, -0.1, 0.0, 0.25, 0.5):
                cf = coupling_functions(np.full(4, s), beta)
                assert gamma3_mean(beta, s) == pytest.approx(cf["gamma3"][0])


class TestLongRange:
    def test_polynomial_reduces_at_beta_zero(self):
        assert longrange_polynomial(0.0, 50, 0.3) == pytest.approx(1.0)

    def test_peak_estimate_at_zero_inversion(self):
        n, beta = 40, 0.5
        want = n * (1 + 0.75 * (n - 1) * beta ** 2)
        assert longrange_rate(beta, n).peak_estimate == pytest.approx(want)

    def test_scaling_exponents(self):
        fit = longrange_scaling(0.5, n_list=(20, 40, 80, 160, 320))
        assert fit.exponent == pytest.approx(2.0, abs=0.15)
        fit = longrange_scaling(0.5, n_list=(20, 40, 80, 160, 320), coherent=True)
        assert fit.exponent == pytest.approx(3.0, abs=0.15)

    def test_fit_quality(self):
        fit = longrange_scaling(0.3)
        assert fit.r_squared > 0.999


class TestSoliton:
    def test_front_times_monotone_in_ring_distance(self):
        res = soliton_ring(n_atoms=20, beta=0.99, defect_site=0)
        times = res.transition_times
        assert math.isnan(times[0])
        for d in range(1, 9):
            assert times[d + 1] > times[d]
            assert times[-d] == pytest.approx(times[d], rel=1e-6)

    def test_free_ring_is_site_uniform(self):
        res = soliton_ring(n_atoms=20, beta=0.0, defect_site=0)
        times = res.transition_times[1:]
        assert np.nanmax(times) - np.nanmin(times) < 1e-9
