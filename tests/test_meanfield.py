import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from isingrelax import meanfield
from isingrelax.errors import ModelValidityError
from isingrelax.meanfield import (DENOM_FLOOR, BlochField, MFParams, coherent_pulse,
                                  collective_pulse, coupling_functions, crossing,
                                  gamma3_mean, gamma_at_half_deexcitation,
                                  initial_field, integrate_mf,
                                  longrange_polynomial, longrange_rate,
                                  longrange_scaling, mf_rhs,
                                  order_parameter_mf, order_parameter_run,
                                  site_uniform, soliton_ring, uniform_mf_rhs,
                                  w_factor)


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


def site_solve(field0, beta, horizon, n_samples, stop_when_relaxed=False):
    """Reference N-site solve with mf_rhs at the library's solver settings."""
    n = field0.n_atoms

    def rhs(_t, y):
        dsz, dsp = mf_rhs(BlochField(y[:n], y[n:2 * n] + 1j * y[2 * n:]), beta)
        return np.concatenate([dsz, dsp.real, dsp.imag])

    def relaxed(_t, y):
        return y[:n].sum() - (-0.5 * n + 0.01 * n)
    relaxed.terminal = True
    relaxed.direction = -1

    y0 = np.concatenate([field0.sigma_z, field0.sigma_plus.real, field0.sigma_plus.imag])
    return solve_ivp(rhs, (0.0, horizon), y0, t_eval=np.linspace(0.0, horizon, n_samples),
                     method="RK45", rtol=1e-8, atol=1e-10,
                     events=[relaxed] if stop_when_relaxed else None, dense_output=True)


def reference_order_parameter_run(params, n_samples=2000):
    """Reference run on the N-site system: an event-stopped coarse solve, then
    a dense solve over the window, evaluated one sample row at a time."""
    field0 = initial_field(params)
    n = params.n_atoms
    coarse = site_solve(field0, params.beta, params.horizon, 200, stop_when_relaxed=True)
    t_end = params.horizon
    if coarse.t_events[0].size:
        t_end = float(coarse.t_events[0][0])
    dense = site_solve(field0, params.beta, min(params.horizon, 1.2 * t_end), n_samples)
    y = dense.y
    return per_sample_order_parameter(dense.t, y[:n].T, (y[n:2 * n] + 1j * y[2 * n:]).T,
                                      params.beta)


def site_path_trajectory(monkeypatch, field0, params, n_samples):
    """integrate_mf forced onto the N-site path (mf_rhs over every site)."""
    with monkeypatch.context() as m:
        m.setattr(meanfield, "site_uniform", lambda _field: False)
        return integrate_mf(field0, params, n_samples=n_samples)


def rel_diff(got, want):
    """max |got - want| over max |want|."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


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
        # samples span three order-parameter chunks.  Zero-phase starts take
        # the site-uniform path, whose arithmetic differs from the N-site
        # reference by rounding only.
        params = MFParams(n, beta, phase_seed=phase_seed,
                          horizon=50.0 if phase_seed is None else 2.0)
        got = order_parameter_run(params, n_samples=600)
        want = reference_order_parameter_run(params, n_samples=600)
        if phase_seed is None:
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        else:
            assert got == want

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
        calls = {"mf_rhs": 0, "uniform_mf_rhs": 0}
        nfev = [0]
        solve = meanfield.solve_ivp

        def counting(name):
            rhs = getattr(meanfield, name)

            def counted(*args):
                calls[name] += 1
                return rhs(*args)
            return counted

        def counting_solve(*args, **kwargs):
            sol = solve(*args, **kwargs)
            nfev[0] += sol.nfev
            return sol

        for name in calls:
            monkeypatch.setattr(meanfield, name, counting(name))
        monkeypatch.setattr(meanfield, "solve_ivp", counting_solve)
        # a random-phase start runs the N-site right-hand side ...
        order_parameter_run(MFParams(16, 0.5, phase_seed=7, horizon=2.0))
        assert nfev[0] > 0
        assert calls == {"mf_rhs": nfev[0], "uniform_mf_rhs": 0}
        # ... and a zero-phase start only the site-uniform one
        calls.update(mf_rhs=0, uniform_mf_rhs=0)
        nfev[0] = 0
        order_parameter_run(MFParams(16, 0.5))
        assert nfev[0] > 0
        assert calls == {"mf_rhs": 0, "uniform_mf_rhs": nfev[0]}

    def test_crossing_interpolates_first_rise_through_one(self):
        assert crossing([8, 16, 32, 64], [0.5, 0.9, 1.3, 0.7]) == pytest.approx(16 + 16 / 4)
        assert crossing([8, 16], [1.0, 1.2]) is None       # starts at 1, never rises through
        assert crossing([8, 16, 32], [0.2, 0.4, 0.6]) is None

    def test_crossing_edge_cases(self):
        assert crossing([8, 16, 32], [0.2, 0.4, 1.4]) == pytest.approx(16 + 0.6 * 16)
        assert crossing([8, 16, 32], [0.5, 1.0, 1.2]) == 16.0    # lands exactly on 1
        assert crossing([8], [1.5]) is None
        assert crossing([], []) is None

    @given(ops=st.lists(st.floats(0.0, 2.0) | st.just(1.0), max_size=8))
    def test_crossing_equals_scalar_loop(self, ops):
        ns = [8 * 2 ** k for k in range(len(ops))]
        want = None
        for i in range(len(ns) - 1):
            lo, hi = ops[i], ops[i + 1]
            if lo < 1.0 <= hi:
                want = ns[i] + (1.0 - lo) / (hi - lo) * (ns[i + 1] - ns[i])
                break
        assert crossing(ns, ops) == want

    def test_increases_with_chain_length(self):
        values = [order_parameter_run(MFParams(n, 0.0, theta0=0.4))
                  for n in (4, 8, 16, 32, 64)]
        assert all(a < b for a, b in zip(values, values[1:]))


UNIFORM_NS = [2, 3, 4, 5, 8, 256]
UNIFORM_BETAS = [0.0, 0.3, 0.5, 0.9]


def uniform_horizon(n):
    # past the burst: it narrows like 1/N
    return 8.0 if n <= 8 else 0.12


class TestUniformPath:
    """The site-uniform path against the kept N-site path as oracle."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 33])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.7, 0.99])
    def test_rhs_matches_site_rhs(self, n, beta):
        rng = np.random.default_rng(n)
        for s, x in zip(rng.uniform(-0.5, 0.5, 5),
                        rng.uniform(0.0, 0.5, 5) * np.exp(2j * math.pi * rng.uniform(size=5))):
            dsz, dsp = mf_rhs(BlochField(np.full(n, s), np.full(n, x)), beta)
            ds, dx = uniform_mf_rhs(s, x, n, beta)
            assert np.max(np.abs(dsz - ds)) <= 1e-13 * max(np.max(np.abs(dsz)), 1.0)
            assert np.max(np.abs(dsp - dx)) <= 1e-13 * max(np.max(np.abs(dsp)), 1.0)

    @pytest.mark.parametrize("n", UNIFORM_NS)
    @pytest.mark.parametrize("beta", UNIFORM_BETAS)
    def test_trajectory_matches_site_path(self, monkeypatch, n, beta):
        params = MFParams(n, beta, horizon=uniform_horizon(n))
        field0 = initial_field(params)
        got = integrate_mf(field0, params, n_samples=200)
        want = site_path_trajectory(monkeypatch, field0, params, 200)
        assert (got.path, want.path) == ("uniform", "sites")
        assert got.sigma_z.shape == got.sigma_plus.shape == (200, n)
        assert got.n_rhs_evals == want.n_rhs_evals
        assert np.array_equal(got.taus, want.taus)
        assert rel_diff(got.sum_sz, want.sum_sz) <= 1e-12
        assert rel_diff(got.sigma_plus, want.sigma_plus) <= 1e-12
        assert rel_diff(got.gamma, want.gamma) <= 1e-12
        assert got.gamma_max == pytest.approx(want.gamma_max, rel=1e-12, abs=0.0)
        assert got.t_peak == pytest.approx(want.t_peak, rel=1e-12, abs=0.0)
        assert got.bound_violations == want.bound_violations

    @pytest.mark.parametrize("n", UNIFORM_NS)
    @pytest.mark.parametrize("beta", UNIFORM_BETAS)
    def test_order_parameter_matches_site_oracle(self, n, beta):
        params = MFParams(n, beta)
        got = order_parameter_run(params, n_samples=600)
        want = reference_order_parameter_run(params, n_samples=600)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_custom_uniform_start_with_global_phase(self, monkeypatch):
        params = MFParams(6, 0.5, horizon=8.0)
        field0 = BlochField(np.full(6, 0.4), np.full(6, 0.3 * np.exp(2.1j)))
        assert site_uniform(field0)
        got = integrate_mf(field0, params, n_samples=200)
        want = site_path_trajectory(monkeypatch, field0, params, 200)
        assert got.path == "uniform"
        assert rel_diff(got.sum_sz, want.sum_sz) <= 1e-12
        assert rel_diff(got.sigma_plus, want.sigma_plus) <= 1e-12
        assert rel_diff(got.gamma, want.gamma) <= 1e-12
        assert got.gamma_max == pytest.approx(want.gamma_max, rel=1e-12, abs=0.0)

    def test_perturbed_start_takes_site_path(self, monkeypatch):
        params = MFParams(6, 0.5, horizon=2.0)
        field0 = initial_field(params)
        sz = field0.sigma_z.copy()
        sz[3] += 1e-12
        perturbed = BlochField(sz, field0.sigma_plus)
        assert not site_uniform(perturbed)
        calls = [0]
        rhs = meanfield.mf_rhs

        def counting_rhs(*args):
            calls[0] += 1
            return rhs(*args)

        monkeypatch.setattr(meanfield, "mf_rhs", counting_rhs)
        traj = integrate_mf(perturbed, params, n_samples=50)
        assert traj.path == "sites" and calls[0] > traj.n_rhs_evals

    def test_uniform_arrays_are_views_not_copies(self):
        params = MFParams(1024, 0.5, horizon=0.05)
        traj = integrate_mf(initial_field(params), params, n_samples=20)
        assert traj.sigma_z.strides[1] == 0 and traj.sigma_plus.strides[1] == 0


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
                assert gamma3_mean(beta, s) == cf["gamma3"][0]


class TestFirstFall:
    """The first-crossing rule shared by gamma_at_half_deexcitation, coherent_pulse,
    soliton_ring and crossing."""

    def test_no_crossing_is_nan(self):
        assert math.isnan(meanfield._first_fall([0.5, 0.4, 0.1], [0.0, 1.0, 2.0]))
        # a rise through the level is not a fall
        assert math.isnan(meanfield._first_fall([-0.1, 0.3, 0.2], [0.0, 1.0, 2.0]))

    def test_crossing_in_last_interval(self):
        assert meanfield._first_fall([0.5, 0.2, -0.2], [0.0, 1.0, 3.0]) == 2.0

    def test_sample_exactly_at_the_level(self):
        # falling onto the level ends the fall at that sample ...
        assert meanfield._first_fall([0.5, 0.0, -0.5], [0.0, 1.0, 2.0]) == 1.0
        assert meanfield._first_fall([3.0, 1.0, 2.0, 0.0], [0, 10, 20, 30], level=1.0) == 10.0
        # ... while a start on the level is not above it
        assert math.isnan(meanfield._first_fall([0.0, -0.5], [0.0, 1.0]))

    def test_fewer_than_two_samples_is_nan(self):
        assert math.isnan(meanfield._first_fall([], []))
        assert math.isnan(meanfield._first_fall([0.5], [1.0]))
        one_row = meanfield._first_fall(np.full((1, 3), 0.5), [1.0])
        assert one_row.shape == (3,) and np.isnan(one_row).all()

    def test_columns_fall_independently(self):
        y = np.array([[0.5, 0.5, -0.5], [0.1, -0.5, -0.5], [-0.1, -0.4, -0.5]])
        got = meanfield._first_fall(y, [0.0, 1.0, 2.0])
        assert got[0] == 1.5 and got[1] == 0.5 and math.isnan(got[2])

    def test_half_deexcitation_needs_a_crossing(self):
        traj = integrate_mf(initial_field(MFParams(8, 0.3, horizon=0.05)),
                            MFParams(8, 0.3, horizon=0.05), n_samples=20)
        with pytest.raises(ValueError, match="half de-excitation"):
            gamma_at_half_deexcitation(traj)


class TestLongRange:
    def test_polynomial_reduces_at_beta_zero(self):
        assert longrange_polynomial(0.0, 50, 0.3) == pytest.approx(1.0)

    def test_monotone_flags_decay_at_full_inversion(self):
        # the rate's sign at s = 1/2: d s/dt = -prefactor * shape * polynomial
        for beta in (0.0, 0.05, 0.3, 0.5):
            for n in (2, 5, 20, 80):
                for coherent in (False, True):
                    prefactor, shape = (n, 1.0) if coherent else (1.0, 2.0)
                    want = -prefactor * shape * longrange_polynomial(beta, n, 0.5) < 0.0
                    assert longrange_rate(beta, n, coherent=coherent).monotone == want
        assert longrange_rate(0.0, 40).monotone
        assert not longrange_rate(0.5, 40).monotone

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

    @pytest.mark.parametrize("n_samples,horizon", [(300, 30.0), (1, 50.0), (2, 50.0)])
    def test_rate_and_front_match_per_sample_loops(self, n_samples, horizon):
        beta = 0.9
        res = soliton_ring(n_atoms=12, beta=beta, defect_site=3, horizon=horizon,
                           n_samples=n_samples)
        gamma = [((1.0 + 2.0 * row) * coupling_functions(row, beta)["gamma3"]).sum()
                 for row in res.sigma_z]
        assert res.gamma.tolist() == gamma
        t = res.times
        want = np.full(12, np.nan)
        for site in range(12):
            col = res.sigma_z[:, site]
            below = np.nonzero(np.diff(np.signbit(col)))[0]
            if below.size:
                k = below[0]
                want[site] = t[k] + col[k] / (col[k] - col[k + 1]) * (t[k + 1] - t[k])
        assert np.array_equal(res.transition_times, want, equal_nan=True)
