import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from isingrelax import lindblad
from isingrelax.errors import IntegrationError, ModelValidityError, ResourceLimitError
from isingrelax.lindblad import (HERM_TOL, TRACE_TOL, LindbladParams, _Work,
                                 build_operators, excitation_sector, fully_inverted,
                                 generator, integrate, lindblad_rhs,
                                 observable_functional, order_parameter_exact,
                                 rate_split, ratio_average, relaxation_rate, site_group,
                                 sum_sz, two_atom_analytic)
from isingrelax.spin_core import ChainSpec, site_bits


def params(n=2, beta=0.0, **kw):
    return LindbladParams(spec=ChainSpec(n, beta), **kw)


class TestTwoAtomAnalytic:
    def test_initial_rate_is_four(self):
        assert two_atom_analytic(0.0, 0.0).gamma == pytest.approx(4.0)

    def test_initial_rate_scales_with_beta(self):
        # gamma(0) = 4 (1 - beta/2)^3
        assert two_atom_analytic(0.2, 0.0).gamma == pytest.approx(4 * 0.9 ** 3)

    def test_free_atom_closed_form(self):
        t = np.linspace(0, 5, 50)
        sol = two_atom_analytic(0.0, t)
        assert np.allclose(sol.gamma, 4 * np.exp(-4 * t) * (1 + 4 * t), rtol=1e-12)
        assert np.allclose(sol.rho11, np.exp(-4 * t), rtol=1e-12)

    def test_populations_sum_to_one(self):
        t = np.linspace(0, 8, 60)
        for beta in (0.0, 0.1, 0.2, 0.7):
            sol = two_atom_analytic(beta, t)
            assert np.allclose(sol.rho11 + sol.x0 + sol.rho44, 1.0, atol=1e-12)

    def test_peaked_for_positive_beta(self):
        t = np.linspace(0, 5, 400)
        assert np.argmax(two_atom_analytic(0.2, t).gamma) > 0
        assert np.argmax(two_atom_analytic(0.0, t).gamma) == 0

    def test_rejects_beta_at_one(self):
        with pytest.raises(ModelValidityError):
            two_atom_analytic(1.0, 0.0)

    @given(beta=st.floats(0, 0.99), t=st.floats(0, 20))
    @settings(max_examples=100)
    def test_rate_nonnegative_and_bounded_populations(self, beta, t):
        sol = two_atom_analytic(beta, t)
        assert sol.gamma >= -1e-12
        for p in (sol.rho11, sol.x0, sol.rho44):
            assert -1e-12 <= p <= 1 + 1e-12


class TestIntegration:
    def test_matches_two_atom_oracle(self):
        p = params(beta=0.2)
        taus = np.linspace(0, 5, 60)
        traj = integrate(fully_inverted(2), p, taus)
        got = traj.gamma
        want = two_atom_analytic(0.2, taus).gamma
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6

    @pytest.mark.parametrize("beta", [round(0.1 * k, 1) for k in range(9)])
    def test_two_atom_rate_to_rounding(self, beta):
        # exact propagation on the sample grid leaves only rounding error
        taus = np.linspace(0, 5, 200)
        got = integrate(fully_inverted(2), params(beta=beta), taus).gamma
        want = two_atom_analytic(beta, taus).gamma
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12

    def test_rejects_non_uniform_grid(self):
        with pytest.raises(ValueError, match="uniformly spaced"):
            integrate(fully_inverted(2), params(beta=0.2), np.geomspace(0.1, 5.0, 20))

    def test_population_observables_alpha_independent(self):
        taus = np.linspace(0, 3, 30)
        runs = []
        for alpha in (1.0, 50.0, 500.0):
            p = params(beta=0.1, alpha=alpha)
            traj = integrate(fully_inverted(2), p, taus)
            runs.append(np.array([np.real(np.diag(traj.rho(k)))
                                  for k in range(traj.taus.size)]))
        assert np.max(np.abs(runs[0] - runs[1])) < 1e-8
        assert np.max(np.abs(runs[0] - runs[2])) < 1e-8

    def test_dipole_dipole_invariance_two_atoms(self):
        taus = np.linspace(0, 5, 40)
        pops = []
        for om in (0.0, 5.0, 50.0):
            omega = np.array([[0.0, om], [om, 0.0]])
            p = params(beta=0.2, omega_dd=omega)
            traj = integrate(fully_inverted(2), p, taus)
            pops.append(np.array([np.real(np.diag(traj.rho(k)))
                                  for k in range(traj.taus.size)]))
        assert np.max(np.abs(pops[0] - pops[1])) < 1e-8
        assert np.max(np.abs(pops[0] - pops[2])) < 1e-8

    def test_conservation_diagnostics(self):
        for n, beta in ((2, 0.2), (3, 0.5), (4, 0.9)):
            p = params(n, beta)
            taus = np.linspace(0, 4, 25)
            traj = integrate(fully_inverted(n), p, taus)
            assert traj.trace_err.max() < 1e-10
            assert traj.herm_err.max() < 1e-12
            # the renormalized damping is not of completely positive form, so a
            # small transient negativity (~1e-6 at beta=0.9) is a model property,
            # not an integration artifact; it must stay bounded
            assert traj.min_eig.min() > -1e-5

    def test_rhs_is_traceless_and_hermiticity_preserving(self):
        rng = np.random.default_rng(3)
        p = params(3, 0.4)
        dim = 8
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        drho = lindblad_rhs(rho, p)
        assert abs(np.trace(drho)) < 1e-12
        assert np.max(np.abs(drho - drho.conj().T)) < 1e-12

    def test_rejects_beta_one(self):
        with pytest.raises(ModelValidityError):
            params(beta=1.0)

    def test_rejects_large_chain(self):
        with pytest.raises(ResourceLimitError):
            params(11, 0.1)

    def test_dense_oracle_keeps_its_cap(self):
        p = params(9, 0.1)          # inside the exact solver's cap
        with pytest.raises(ResourceLimitError):
            build_operators(p.spec)
        with pytest.raises(ResourceLimitError):
            _Work(p)

    def test_rejects_asymmetric_omega(self):
        with pytest.raises(ValueError):
            params(2, 0.1, omega_dd=np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestRates:
    def test_initial_rate_fully_inverted(self):
        for n, beta in ((2, 0.0), (2, 0.2), (4, 0.3)):
            p = params(n, beta)
            rate = relaxation_rate(fully_inverted(n), p)
            neighbor_half = 0.5 if n == 2 else 1.0   # two atoms share one bond
            assert rate == pytest.approx(2 * n * (1 - neighbor_half * beta) ** 3,
                                         rel=1e-12)

    def test_split_sums_to_total(self):
        p = params(3, 0.4)
        taus = np.linspace(0, 3, 12)
        traj = integrate(fully_inverted(3), p, taus)
        for k in range(traj.taus.size):
            rho = traj.rho(k)
            coh, incoh = rate_split(rho, p)
            assert coh + incoh == pytest.approx(relaxation_rate(rho, p), abs=1e-12)

    def test_rate_matches_population_decay(self):
        p = params(2, 0.2)
        taus = np.linspace(0, 5, 801)
        traj = integrate(fully_inverted(2), p, taus)
        ops = build_operators(p.spec)
        s = np.array([sum_sz(traj.rho(k), ops) for k in range(traj.taus.size)])
        gamma = traj.gamma
        mid = -np.gradient(s, taus)
        assert np.max(np.abs(mid[2:-2] - gamma[2:-2])) < 1e-3

    def test_order_parameter_excludes_stationary_ground_state(self):
        p = params(2, 0.0)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        taus = np.linspace(0, 4, 30)
        traj = integrate(rho0, p, taus)
        value = order_parameter_exact(traj, horizon=4.0)
        assert value.value == 0.0
        assert value.excluded_samples == 30

    def test_order_parameter_positive_from_inversion(self):
        # the bath builds symmetric cross coherences out of the inverted state
        p = params(2, 0.0)
        taus = np.linspace(0, 4, 30)
        traj = integrate(fully_inverted(2), p, taus)
        assert order_parameter_exact(traj, horizon=4.0).value > 0.0


def order_parameter_by_masks(taus, gamma_coh, gamma_incoh, horizon):
    """Oracle: the order_parameter_exact body written before the average was shared."""
    mask = taus <= horizon + 1e-12
    incoh = gamma_incoh[mask]
    drop = incoh < 1e-14
    excluded = int(np.count_nonzero(drop))
    keep = ~drop
    taus = taus[mask][keep]
    if taus.size < 2:
        return 0.0, excluded
    ratios = gamma_coh[mask][keep] / incoh[keep]
    span = taus[-1] - taus[0]
    value = float(np.trapezoid(ratios, taus) / span) if span > 0 else 0.0
    return value, excluded


RATES = st.one_of(st.floats(-2.0, 2.0),
                  st.sampled_from([0.0, -0.0, 1e-15, float(np.nextafter(1e-14, 0.0)), 1e-14,
                                   -1e-14, 2e-14, math.nan]))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(data=st.data())
def test_ratio_average_matches_oracle_bit_for_bit(data):
    n = data.draw(st.integers(0, 12))
    taus = np.sort(np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n)),
                            dtype=float))
    coh, incoh = (np.array(data.draw(st.lists(RATES, min_size=n, max_size=n)), dtype=float)
                  for _ in range(2))
    horizon = data.draw(st.floats(0.0, 11.0))

    def bits(value):
        return np.float64(value).tobytes()

    value, excluded = order_parameter_by_masks(taus, coh, incoh, horizon)
    got = order_parameter_exact(SimpleNamespace(taus=taus, gamma_coh=coh, gamma_incoh=incoh),
                                horizon)
    assert (bits(got.value), got.excluded_samples) == (bits(value), excluded)

    value, excluded = order_parameter_by_masks(taus, coh, incoh, math.inf)
    with np.errstate(all="ignore"):
        got = ratio_average(taus, coh / incoh, incoh)
    assert (bits(got.value), got.excluded_samples) == (bits(value), excluded)


CHAINS = [("nearest_neighbor", "cyclic"), ("nearest_neighbor", "open"),
          ("all_pairs", "cyclic")]


def chain_params(n, beta, chain, omega):
    om = None
    if isinstance(omega, str):          # "random": a symmetric matrix with no symmetry
        m = np.random.default_rng(n).normal(size=(n, n))
        om = 0.5 * (m + m.T)
        np.fill_diagonal(om, 0.0)
    elif omega:
        om = np.full((n, n), omega)
        np.fill_diagonal(om, 0.0)
    return LindbladParams(spec=ChainSpec(n, beta, *chain), omega_dd=om)


def random_rho(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def tipped(n, theta=0.7, phi=0.3):
    """Product state with every atom at polar angle theta: coherences of every k."""
    psi = np.array([1.0])
    site = np.array([np.sin(theta / 2), np.exp(1j * phi) * np.cos(theta / 2)])
    for _ in range(n):
        psi = np.kron(site, psi)
    return np.outer(psi, psi.conj())


def tipped_by_count(n, theta=0.7, phi=0.3):
    """The state of `tipped` with each amplitude taken from the excitation count
    alone, so that entries which a site permutation exchanges are bit-equal."""
    count = site_bits(n).sum(axis=0)
    psi = np.sin(theta / 2) ** (n - count) * (np.exp(1j * phi) * np.cos(theta / 2)) ** count
    return np.outer(psi, psi.conj())


def cat(n):
    """(|0...0> + |1...1>)/sqrt 2: only k = 0 and k = +-n."""
    rho = np.zeros((1 << n, 1 << n), dtype=complex)
    rho[np.ix_([0, -1], [0, -1])] = 0.5
    return rho


def dense_integrate(rho0, p, taus, rel_tol=1e-10, abs_tol=1e-14):
    """The full dim^2 solve `integrate` replaced: `lindblad_rhs` per RK45 stage."""
    work, dim = _Work(p), rho0.shape[0]
    ops = build_operators(p.spec)
    sol = solve_ivp(lambda _t, y: lindblad_rhs(y.reshape(dim, dim), p, work).ravel(),
                    (taus[0], taus[-1]), rho0.ravel().astype(complex), t_eval=taus,
                    method="RK45", rtol=rel_tol, atol=abs_tol)
    rhos = [sol.y[:, k].reshape(dim, dim) for k in range(sol.y.shape[1])]
    incoh = np.array([rate_split(r, p, ops)[1] for r in rhos])
    return dict(sum_sz=np.array([sum_sz(r, ops) for r in rhos]),
                gamma=np.array([relaxation_rate(r, p, work) for r in rhos]),
                gamma_incoh=incoh,
                trace_err=np.array([abs(np.trace(r) - 1.0) for r in rhos]),
                herm_err=np.array([np.max(np.abs(r - r.conj().T)) for r in rhos]),
                min_eig=np.array([np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0]
                                  for r in rhos]))


class TestSector:
    @pytest.mark.parametrize("n,size", [(2, 6), (6, 924), (8, 12870)])
    def test_full_inversion_keeps_k_zero(self, n, size):
        sector = excitation_sector(fully_inverted(n))
        assert sector.size == size
        n_exc = np.array([bin(i).count("1") for i in range(sector.dim)])
        assert np.all(n_exc[sector.rows] == n_exc[sector.cols])

    @pytest.mark.parametrize("start", [fully_inverted(4), tipped(4), cat(4)])
    def test_closed_under_transpose(self, start):
        sector = excitation_sector(start)
        assert np.array_equal(sector.rows[sector.transpose], sector.cols)
        assert np.array_equal(sector.cols[sector.transpose], sector.rows)
        assert np.array_equal(sector.dense(sector.vector(start)), start)

    def test_tipped_start_keeps_every_entry(self):
        assert excitation_sector(tipped(3)).size == 64

    def test_cat_start_keeps_k_zero_and_n(self):
        sector = excitation_sector(cat(4))
        n_exc = np.array([bin(i).count("1") for i in range(16)])
        k = set((n_exc[sector.rows] - n_exc[sector.cols]).tolist())
        assert k == {-4, 0, 4}
        # gcd 4 splits the basis by n_exc mod 4: {0, 4}, 1, 2 and 3 excitations
        assert sorted(size for size, *_ in sector.blocks) == [2, 4, 4, 6]

    @pytest.mark.parametrize("start", [fully_inverted(4), tipped(4), cat(4)])
    def test_block_min_eig_matches_dense(self, start):
        sector = excitation_sector(start)
        rho = sector.dense(sector.vector(random_rho(16, 5) - 0.1 * np.eye(16)))
        want = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0]
        assert sector.min_eig(sector.vector(rho)) == pytest.approx(want, abs=1e-14)


class TestGenerator:
    @pytest.mark.parametrize("omega", [0.0, 0.5])
    @pytest.mark.parametrize("chain", CHAINS)
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("start", ["inverted", "tipped"])
    def test_matches_dense_rhs_on_kept_entries(self, start, n, chain, omega):
        p = chain_params(n, 0.35, chain, omega)
        sector = excitation_sector(fully_inverted(n) if start == "inverted" else tipped(n))
        rho = random_rho(p.spec.dim, n)
        want = lindblad_rhs(rho, p).ravel()[sector.flat]
        got = generator(p, sector) @ sector.vector(rho)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("chain", CHAINS)
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_functional_matches_oracles(self, n, chain):
        p = chain_params(n, 0.35, chain, 0.5)
        ops = build_operators(p.spec)
        for start in (fully_inverted(n), tipped(n)):
            sector = excitation_sector(start)
            rho = random_rho(p.spec.dim, n + 1)
            got = np.real(sector.vector(rho) @ observable_functional(p, sector))
            coh, incoh = rate_split(rho, p, ops)
            gamma = relaxation_rate(rho, p)
            assert abs(got[0] - sum_sz(rho, ops)) <= 1e-12
            assert abs(got[1] - gamma) <= 1e-12
            assert abs(got[2] - incoh) <= 1e-12
            assert abs((got[1] - got[2]) - coh) <= 1e-12


class TestAgainstDenseSolve:
    @pytest.mark.parametrize("n,beta,chain,omega,start", [
        (2, 0.2, CHAINS[0], 0.0, "inverted"),
        (3, 0.5, CHAINS[2], 0.5, "inverted"),
        (4, 0.5, CHAINS[1], 0.5, "inverted"),
        (4, 0.3, CHAINS[0], 0.5, "inverted"),
        (3, 0.4, CHAINS[0], 0.5, "tipped"),
        (4, 0.3, CHAINS[1], 0.0, "tipped"),
        (4, 0.3, CHAINS[0], 0.5, "cat"),
    ])
    def test_integrate_matches_dense_oracle(self, n, beta, chain, omega, start):
        p = chain_params(n, beta, chain, omega)
        rho0 = {"inverted": fully_inverted, "tipped": tipped, "cat": cat}[start](n)
        # k != 0 coherences turn at alpha = 50, so those runs are kept short
        taus = np.linspace(0.0, 2.0 if start == "inverted" else 0.5, 21)
        traj = integrate(rho0, p, taus)
        want = dense_integrate(rho0, p, taus)
        for name in ("sum_sz", "gamma", "gamma_incoh"):
            got = getattr(traj, name)
            assert np.max(np.abs(got - want[name])) <= 1e-9 * np.max(np.abs(want[name])), name
        assert np.max(np.abs(traj.min_eig - want["min_eig"])) <= 1e-10
        for name, tol in (("trace_err", TRACE_TOL), ("herm_err", HERM_TOL)):
            assert getattr(traj, name).max() <= tol and want[name].max() <= tol, name
            assert np.max(np.abs(getattr(traj, name) - want[name])) <= 1e-3 * tol, name

    def test_rho_rebuilds_the_start(self):
        p = params(3, 0.4)
        rho0 = tipped(3)
        traj = integrate(rho0, p, np.linspace(0.0, 1.0, 5))
        assert np.array_equal(traj.rho(0), rho0)
        assert traj.states.shape == (64, 5)

    def test_rejects_state_of_wrong_size(self):
        with pytest.raises(ValueError, match="8x8"):
            integrate(fully_inverted(2), params(3, 0.1), np.linspace(0.0, 1.0, 3))

    @pytest.mark.parametrize("start", ["non-Hermitian", "wrong trace", "all zero",
                                       "complex diagonal", "non-Hermitian coherence"])
    def test_rejects_unphysical_start(self, start):
        rho0 = tipped(3)
        if start == "non-Hermitian":
            rho0[7, 0] += 1e-9
        elif start == "wrong trace":
            rho0 = 0.5 * rho0
        elif start == "all zero":
            rho0 = np.zeros_like(rho0)
        elif start == "complex diagonal":
            rho0[5, 5] += 1e-9j
        else:
            rho0 = fully_inverted(3)
            rho0[7, 3] = 0.1
        with pytest.raises(ValueError, match="initial state"):
            integrate(rho0, params(3, 0.1), np.linspace(0.0, 1.0, 3))


class TestOrbits:
    @pytest.mark.parametrize("n,chain,order,orbits", [
        (6, CHAINS[0], 12, 96), (8, CHAINS[0], 16, 865), (6, CHAINS[1], 2, 472),
        (6, CHAINS[2], 12, 96), (3, CHAINS[1], 2, 12), (1, CHAINS[0], 1, 2)])
    def test_full_inversion_group_and_orbits(self, n, chain, order, orbits):
        p = chain_params(n, 0.3, chain, 0.5)
        sector = excitation_sector(fully_inverted(n), site_group(p, fully_inverted(n)))
        assert (sector.group_order, sector.n_orbits) == (order, orbits)
        sizes = np.bincount(sector.orbit)
        assert sizes.sum() == sector.size and sizes.max() <= 2 * n
        # each representative is the smallest entry of its orbit
        assert np.array_equal(sector.orbit[sector.reps], np.arange(sector.n_orbits))
        assert np.all(np.diff(sector.reps) > 0)

    def test_group_keeps_only_what_is_invariant(self):
        n = 5
        ring = chain_params(n, 0.3, CHAINS[0], 0.5)
        assert np.array_equal(site_group(ring, fully_inverted(n))[0], np.arange(n))
        assert len(site_group(ring, fully_inverted(n))) == 10
        assert len(site_group(chain_params(n, 0.3, CHAINS[0], "random"),
                              fully_inverted(n))) == 1
        assert len(site_group(ring, random_rho(1 << n, 2))) == 1
        # one excited atom at site 0: only the reflections through site 0 keep it
        rho = np.zeros((1 << n, 1 << n), dtype=complex)
        rho[1, 1] = 1.0
        assert site_group(ring, rho).tolist() == [[0, 1, 2, 3, 4], [0, 4, 3, 2, 1]]

    def test_identity_group_is_the_sector(self):
        sector = excitation_sector(tipped(3))
        assert sector.group_order == 1
        assert np.array_equal(sector.reps, np.arange(sector.size))
        assert np.array_equal(sector.orbit, np.arange(sector.size))

    def test_states_expand_on_access(self):
        n = 6
        traj = integrate(fully_inverted(n), chain_params(n, 0.4, CHAINS[0], 0.5),
                         np.linspace(0.0, 1.0, 7))
        assert "states" not in vars(traj)
        assert traj.reduced.shape == (96, 7)
        assert traj.states.shape == (924, 7)
        assert np.array_equal(traj.states, traj.reduced[traj.sector.orbit])


class TestPaths:
    @pytest.mark.parametrize("n,chain,orbits", [(2, CHAINS[0], 4), (4, CHAINS[0], 15),
                                                (6, CHAINS[0], 96), (4, CHAINS[1], 38)])
    def test_step_matches_dense_exponential(self, n, chain, orbits):
        p = chain_params(n, 0.35, chain, 0.5)
        taus = np.linspace(0.0, 5.0, 100)
        traj = integrate(fully_inverted(n), p, taus)
        assert (traj.path, traj.sector.n_orbits) == ("step", orbits)
        assert traj.n_rhs_evals > 0
        gen = generator(p, traj.sector).toarray()
        for k in (1, 37, 99):
            want = expm(gen * taus[k]) @ traj.reduced[:, 0]
            assert np.max(np.abs(traj.reduced[:, k] - want)) <= 1e-12 * np.max(np.abs(want))

    def test_sectors_past_the_cap_take_the_grid(self):
        traj = integrate(fully_inverted(5), chain_params(5, 0.35, CHAINS[1], 0.5),
                         np.linspace(0.0, 1.0, 5))
        assert traj.sector.n_orbits == 132 > lindblad.STEP_MAX_ORBITS
        assert traj.path == "grid" and traj.n_rhs_evals > 0

    def test_many_steps_keep_trace_and_hermiticity(self):
        traj = integrate(fully_inverted(6), chain_params(6, 0.4, CHAINS[0], 0.5),
                         np.linspace(0.0, 50.0, 5001))
        assert traj.path == "step"
        assert traj.trace_err.max() <= TRACE_TOL and traj.herm_err.max() <= HERM_TOL

    def test_overflowing_step_raises_integration_error(self):
        with pytest.raises(IntegrationError, match="overflows"):
            integrate(fully_inverted(2), chain_params(2, 0.35, CHAINS[0], 0.5),
                      np.linspace(0.0, 1e308, 3))


ORBIT_CASES = ([(n, chain, omega, start) for n in (2, 3, 4, 5, 6) for chain in CHAINS
                for omega in (0.0, 0.5, "random") for start in ("inverted", "tipped", "random")]
               # at N = 8 the identity path of a tipped or random start holds all
               # 65,536 entries, and a random omega leaves only the identity
               + [(8, chain, omega, "inverted") for chain in CHAINS for omega in (0.0, 0.5)])


@pytest.mark.parametrize("n,chain,omega,start", ORBIT_CASES,
                         ids=["-".join(map(str, (n, *chain, omega, start)))
                              for n, chain, omega, start in ORBIT_CASES])
def test_reduced_matches_identity_group(monkeypatch, n, chain, omega, start):
    # k != 0 coherences turn at alpha = 50, so those runs are kept short
    taus = np.linspace(0.0, 1.0, 11) if start == "inverted" else np.linspace(0.0, 0.1, 6)
    p = chain_params(n, 0.35, chain, omega)
    rho0 = {"inverted": fully_inverted, "tipped": tipped_by_count,
            "random": lambda n: random_rho(1 << n, n)}[start](n)
    traj = integrate(rho0, p, taus)
    with monkeypatch.context() as m:
        m.setattr(lindblad, "site_group", lambda params, rho: np.arange(n)[None])
        want = integrate(rho0, p, taus)
    assert want.sector.group_order == 1
    if start == "random" or (omega == "random" and n > 2):
        assert traj.sector.group_order == 1
    else:
        assert traj.sector.group_order == (2 if chain == CHAINS[1] or n == 2 else 2 * n)
    assert np.array_equal(traj.rho(0), rho0)
    for name in ("sum_sz", "gamma", "gamma_incoh"):
        got, ref = getattr(traj, name), getattr(want, name)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name
    for name in ("trace_err", "herm_err", "min_eig"):
        assert np.max(np.abs(getattr(traj, name) - getattr(want, name))) <= 1e-12, name
