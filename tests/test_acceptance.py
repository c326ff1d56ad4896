"""End-to-end acceptance checks; each test prints one PASS/FAIL line."""

import json
import math
import time

import numpy as np
from scipy.integrate import quad

from isingrelax import cavity as cv
from isingrelax import geometry as geo
from isingrelax import lindblad as lb
from isingrelax import meanfield as mf
from isingrelax.cli import main as cli_main
from isingrelax.spin_core import ChainSpec


def report(num, ok, text):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"acceptance criterion {num} failed: {text}"


def test_01_two_atom_oracle():
    t0 = time.perf_counter()
    taus = np.linspace(0.0, 5.0, 120)
    worst = 0.0
    for beta in (0.0, 0.1, 0.2):
        params = lb.LindbladParams(spec=ChainSpec(2, beta))
        traj = lb.integrate(lb.fully_inverted(2), params, taus)
        got = traj.gamma
        want = lb.two_atom_analytic(beta, taus).gamma
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    elapsed = time.perf_counter() - t0
    free_monotone = np.argmax(lb.two_atom_analytic(0.0, taus).gamma) == 0
    peaked = np.argmax(lb.two_atom_analytic(0.2, taus).gamma) > 0
    ok = worst <= 1e-6 and elapsed < 5.0 and free_monotone and peaked
    report(1, ok, f"two-atom rate max rel err {worst:.2e} (<=1e-6), "
                  f"{elapsed:.1f}s (<5s), monotone at beta=0, peaked at beta=0.2")


def test_02_dipole_dipole_independence():
    taus = np.linspace(0.0, 5.0, 60)
    pops = []
    for om in (0.0, 5.0, 50.0):
        omega = np.array([[0.0, om], [om, 0.0]])
        params = lb.LindbladParams(spec=ChainSpec(2, 0.2), omega_dd=omega)
        traj = lb.integrate(lb.fully_inverted(2), params, taus)
        pops.append(np.array([np.real(np.diag(traj.rho(k)))
                              for k in range(traj.taus.size)]))
    spread = max(float(np.max(np.abs(pops[0] - p))) for p in pops[1:])
    report(2, spread <= 1e-8,
           f"two-atom populations shift {spread:.2e} across Omega in "
           "{0, 5, 50} (<=1e-8)")


def test_03_conservation_suite():
    worst_tr, worst_h = 0.0, 0.0
    for n in (2, 3, 4, 5, 6):
        params = lb.LindbladParams(spec=ChainSpec(n, 0.5))
        traj = lb.integrate(lb.fully_inverted(n), params,
                            np.linspace(0.0, 3.0, 16))
        worst_tr = max(worst_tr, float(traj.trace_err.max()))
        worst_h = max(worst_h, float(traj.herm_err.max()))
    params = mf.MFParams(12, 0.6, horizon=20.0)
    traj_mf = mf.integrate_mf(mf.initial_field(params), params, n_samples=300)
    mf_ok = (traj_mf.bound_violations == 0
             and np.max(np.abs(traj_mf.sigma_z)) <= 0.5 + 1e-6
             and np.max(np.abs(traj_mf.sigma_plus)) <= 0.5 + 1e-6)
    cav = cv.CavityParams(n_photons=1, g=0.05, j_prime=0.7)
    norm_err = max(abs(cv.exact_state(float(t), cav).norm - 1.0)
                   for t in np.linspace(0.0, 300.0, 40))
    ok = worst_tr <= 1e-10 and worst_h <= 1e-12 and mf_ok and norm_err <= 1e-12
    report(3, ok, f"trace err {worst_tr:.1e} (<=1e-10), herm err {worst_h:.1e} "
                  f"(<=1e-12), mean-field bounds hold, cavity norm err "
                  f"{norm_err:.1e} (<=1e-12)")


def test_04_meanfield_vs_reduced():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for beta in (0.5, 0.9):
        # a small tipping angle keeps the run in the incoherent channel the
        # reduced equation describes
        params = mf.MFParams(10, beta, theta0=0.02, horizon=20.0)
        traj = mf.integrate_mf(mf.initial_field(params), params, n_samples=600)
        red = mf.collective_pulse(beta, 10, horizon=20.0)
        dh = abs(traj.gamma_max - red.gamma_max) / red.gamma_max
        dt = abs(traj.t_peak - red.t_peak) / red.t_peak
        ok = ok and dh <= 0.15 and dt <= 0.20
        lines.append(f"beta={beta}: height {dh:.1%} (<=15%), time {dt:.1%} (<=20%)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(4, ok, "; ".join(lines) + f"; {elapsed:.1f}s (<10s)")


def test_05_order_parameter_transition():
    t0 = time.perf_counter()
    ns = [24, 32, 40, 48, 56, 64, 80]
    n_c = {}
    for beta in (0.0, 0.5, 0.9):
        cs = [mf.order_parameter_run(mf.MFParams(n, beta, theta0=0.4))
              for n in ns]
        n_c[beta] = mf.crossing(ns, cs)
    elapsed = time.perf_counter() - t0
    ok = n_c[0.0] is not None and elapsed < 300.0
    parts = [f"N_c(0)={n_c[0.0]:.1f}" if n_c[0.0] else "no crossing at beta=0"]
    for beta in (0.5, 0.9):
        if ok and n_c[beta] is not None:
            ratio = n_c[beta] / n_c[0.0]
            ok = ok and abs(ratio - 1.0) <= 0.20
            parts.append(f"N_c({beta})/N_c(0)={ratio:.3f} (within 20%)")
        else:
            ok = False
            parts.append(f"no crossing at beta={beta}")
    report(5, ok, "; ".join(parts) + f"; {elapsed:.0f}s (<300s)")


def test_06_superradiance_gain():
    rates = {}
    for beta in (0.0, 0.3, 0.5):
        pulse = mf.coherent_pulse(beta, 100, horizon=0.2)
        rates[beta] = float(np.interp(pulse.t_peak, pulse.times, pulse.gamma))
    ok = True
    parts = []
    for beta in (0.3, 0.5):
        ratio = rates[beta] / rates[0.0]
        want = 1.0 + 1.5 * beta ** 2
        ok = ok and abs(ratio / want - 1.0) <= 0.10
        parts.append(f"beta={beta}: {ratio:.4f} vs {want:.4f}")
    peaks = {}
    for beta in (0.0, 0.9):
        params = mf.MFParams(100, beta, horizon=10.0)
        peaks[beta] = mf.integrate_mf(mf.initial_field(params), params,
                                      n_samples=400).gamma_max
    ok = ok and peaks[0.9] > peaks[0.0]
    report(6, ok, "peak-rate gain " + "; ".join(parts)
                  + f"; full mean-field peak enhanced at beta=0.9")


def test_07_longrange_scaling():
    fits = {}
    for coherent, target in ((False, 2.0), (True, 3.0)):
        fit = mf.longrange_scaling(0.5, n_list=(20, 40, 80, 160),
                                   coherent=coherent)
        fits[target] = fit.exponent
    ok = abs(fits[2.0] - 2.0) <= 0.15 and abs(fits[3.0] - 3.0) <= 0.15
    report(7, ok, f"peak exponents {fits[2.0]:.3f} (2.0+-0.15) and "
                  f"{fits[3.0]:.3f} (3.0+-0.15)")


def test_08_cavity():
    worst = 0.0
    for n in (0, 1, 5):
        for g in (0.01, 0.1):
            for jp in (0.0, 0.5, 5.0):
                p = cv.CavityParams(n_photons=n, g=g, j_prime=jp)
                for t in (0.0, 3.7, 50.0, 100.0):
                    worst = max(worst, float(np.max(np.abs(
                        cv.exact_state(t, p).amplitudes
                        - cv.numeric_oracle(t, p).amplitudes))))
    n, g = 1, 0.01
    jp = 50.0 * g * math.sqrt(2 * n + 3)
    p = cv.CavityParams(n_photons=n, g=g, j_prime=jp)
    delta = p.two_photon_rabi
    times = np.linspace(0.0, 10 * math.pi / delta, 8192)
    p_dd = np.array([cv.exact_state(float(t), p).populations[3] for t in times])
    rabi = cv.rabi_frequency_from_populations(times, p_dd)
    rabi_err = abs(rabi / delta - 1.0)
    t_half = math.pi / (2 * delta)
    peak_err = abs(cv.strong_j_state(t_half, p).populations[3]
                   - cv.two_photon_probability_max(n))
    ok = worst <= 1e-10 and rabi_err <= 0.02 and peak_err <= 1e-6
    report(8, ok, f"closed form vs oracle {worst:.1e} (<=1e-10), Rabi err "
                  f"{rabi_err:.2%} (<=2%), peak probability err {peak_err:.1e} "
                  "(<=1e-6)")


def _si_ci_quadrature(x):
    f = quad(lambda t: math.exp(-x * t) / (1 + t * t), 0, np.inf,
             epsabs=1e-14, epsrel=1e-13, limit=400)[0]
    g = quad(lambda t: t * math.exp(-x * t) / (1 + t * t), 0, np.inf,
             epsabs=1e-14, epsrel=1e-13, limit=400)[0]
    return (-f * math.cos(x) - g * math.sin(x),
            f * math.sin(x) - g * math.cos(x))


def test_09_geometry():
    f_zero = abs(geo.f_coeff(0.0, 0.3) - 1.0)
    branch = max(abs(geo.f_coeff(1e-2 * (1 - 1e-12), c) - geo.f_coeff(1e-2, c))
                 for c in (0.0, 0.5, 1.0))
    magic = geo.omega_dd(1.7, 1.0 / math.sqrt(3.0))
    pv_err = 0.0
    for c in (0.0, 0.4, 0.9):
        want = geo.quasistatic_asymptote(1e-3, c)
        plus, minus = geo.pv_integrals(1e-3, c)
        pv_err = max(pv_err, abs(plus / want - 1), abs(minus / want - 1))
    sici_err = 0.0
    for x in np.geomspace(1e-3, 50.0, 25):
        si, ci = geo.si_ci(float(x))
        si_ref, ci_ref = _si_ci_quadrature(float(x))
        sici_err = max(sici_err, abs(si - si_ref), abs(ci - ci_ref))
    ok = (f_zero <= 1e-10 and branch <= 1e-10 and magic == 0.0
          and pv_err <= 0.01 and sici_err <= 1e-10)
    report(9, ok, f"F(0) err {f_zero:.1e}, branch gap {branch:.1e} (<=1e-10), "
                  f"magic-angle Omega={magic}, pv vs asymptote {pv_err:.2%} "
                  f"(<=1%), si/ci vs quadrature {sici_err:.1e} (<=1e-10)")


def test_10_soliton():
    res = mf.soliton_ring(n_atoms=20, beta=0.99, defect_site=0)
    times = res.transition_times
    dist_ok = (math.isnan(times[0])
               and all(times[d + 1] > times[d] for d in range(1, 9))
               and all(abs(times[-d] / times[d] - 1.0) < 1e-6
                       for d in range(1, 10)))
    control = mf.soliton_ring(n_atoms=20, beta=0.0, defect_site=0)
    spread = float(np.nanmax(control.transition_times[1:])
                   - np.nanmin(control.transition_times[1:]))
    ok = dist_ok and spread < 1e-9
    report(10, ok, "front times strictly increase with ring distance from the "
                   f"defect; free-chain spread {spread:.1e} (site-uniform)")


def test_11_cli_determinism(tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        code = cli_main(["meanfield", "--n", "10", "--beta", "0.5",
                         "--horizon", "20", "--phase-seed", "11",
                         "--output", str(out)])
        assert code == 0
        runs.append(out.read_bytes())
        meta = json.loads((tmp_path / f"{name}.csv.meta.json").read_text())
        assert meta["config"]["phase_seed"] == 11
    ok = runs[0] == runs[1]
    report(11, ok, "repeated CLI runs with identical config and seed are "
                   "byte-identical")
