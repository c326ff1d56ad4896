"""Output checks of the benchmark jobs.

Each check reads a job's CSV and meta.json and returns None when the output is
right, else a one-line reason. Physics oracles (closed forms, conservation
tolerances, independent recomputation) cover inputs drawn from continuous
ranges; grid-drawn inputs are also compared with refs.json, recorded from the
unmodified program by make_refs.py.
"""

from __future__ import annotations

import json
import math

import numpy as np

# relative tolerances against refs.json; the mean-field solver runs at
# rtol 1e-8, the exact solver at the CLI's rtol 1e-10
MF_REL_TOL = 1e-5
EXACT_REL_TOL = 1e-6
BOUND_SLACK = 1e-6            # same slack as the program's |sigma| <= 1/2 monitor
RABI_REL_TOL = 0.02           # FFT extraction against the two-photon Rabi rate
STATE_ABS_TOL = 1e-8          # cavity populations against the eigenbasis oracle
TABLE_REL_TOL = 1e-9          # spectrum and geometry against direct recomputation


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                      usecols=[k for k, h in enumerate(header) if h != "bits"])
    return [h for h in header if h != "bits"], data


def read_meta(path: str) -> dict:
    with open(path + ".meta.json") as fh:
        return json.load(fh)


def _close(got, want, rel: float, abs_floor: float = 0.0) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rel * np.abs(want) + abs_floor))


def _col(header, data, name):
    return data[:, header.index(name)]


def check_sweep(job, refs) -> str | None:
    header, data = read_csv(job.output)
    want = [(float(b), n, refs["sweep"][b][str(n)])
            for b in sorted(job.params["betas"], key=float) for n in job.params["ns"]]
    if data.shape[0] != len(want):
        return f"sweep has {data.shape[0]} rows, expected {len(want)}"
    for row, (beta, n, value) in zip(data, want):
        if row[0] != beta or row[1] != n:
            return f"sweep row ({row[0]}, {row[1]}) out of order, expected ({beta}, {n})"
        if not _close(row[2], value, MF_REL_TOL, 1e-12):
            return f"order parameter {row[2]!r} at beta={beta}, n={n}, reference {value!r}"
    return None


def check_bounds(job, refs) -> str | None:
    header, data = read_csv(job.output)
    if not np.all(np.isfinite(data)):
        return "non-finite values in the trajectory"
    n = job.params["n"]
    if np.any(np.abs(_col(header, data, "sum_sigma_z")) > 0.5 * n + BOUND_SLACK):
        return "|sum sigma_z| exceeds N/2"
    violations = read_meta(job.output)["results"]["bound_violations"]
    if violations:
        return f"bound_violations = {violations} (|sigma| <= 1/2 broken)"
    return None


def check_meanfield_ref(job, refs) -> str | None:
    reason = check_bounds(job, refs)
    if reason:
        return reason
    ref = refs["meanfield"][job.params["beta"]]
    results = read_meta(job.output)["results"]
    for key in ("gamma_max", "t_peak"):
        if not _close(results[key], ref[key], MF_REL_TOL):
            return f"{key} {results[key]!r}, reference {ref[key]!r}"
    header, data = read_csv(job.output)
    rows = data[ref["rows"]]
    scale = 0.5 * job.params["n"]
    if not _close(_col(header, rows, "sum_sigma_z"), ref["sum_sigma_z"],
                  MF_REL_TOL, MF_REL_TOL * scale):
        return "sum_sigma_z samples differ from the reference"
    if not _close(_col(header, rows, "gamma"), ref["gamma"], MF_REL_TOL,
                  MF_REL_TOL * ref["gamma_max"]):
        return "gamma samples differ from the reference"
    return None


def _exact_invariants(job, header, data) -> str | None:
    # imported here so that importing this module does not load the program
    from isingrelax.lindblad import HERM_TOL, TRACE_TOL
    results = read_meta(job.output)["results"]
    if results["max_trace_err"] > TRACE_TOL:
        return f"max_trace_err {results['max_trace_err']!r} > TRACE_TOL {TRACE_TOL}"
    if results["max_herm_err"] > HERM_TOL:
        return f"max_herm_err {results['max_herm_err']!r} > HERM_TOL {HERM_TOL}"
    if np.any(_col(header, data, "trace_err") > TRACE_TOL):
        return "trace_err column exceeds TRACE_TOL"
    if np.any(_col(header, data, "herm_err") > HERM_TOL):
        return "herm_err column exceeds HERM_TOL"
    gamma = _col(header, data, "gamma")
    parts = _col(header, data, "gamma_coh") + _col(header, data, "gamma_incoh")
    if not _close(parts, gamma, 1e-12, 1e-12 * np.max(np.abs(gamma))):
        return "gamma differs from gamma_coh + gamma_incoh"
    return None


def check_two_atom(job, refs) -> str | None:
    from isingrelax.lindblad import two_atom_analytic
    header, data = read_csv(job.output)
    reason = _exact_invariants(job, header, data)
    if reason:
        return reason
    sol = two_atom_analytic(job.params["beta"], _col(header, data, "tau"))
    if not _close(_col(header, data, "gamma"), sol.gamma, EXACT_REL_TOL):
        return "two-atom rate differs from two_atom_analytic"
    if not _close(_col(header, data, "sum_sz"), sol.rho11 - sol.rho44, 0.0, 1e-7):
        return "two-atom inversion differs from two_atom_analytic"
    return None


def check_lindblad_ref(job, refs) -> str | None:
    header, data = read_csv(job.output)
    reason = _exact_invariants(job, header, data)
    if reason:
        return reason
    ref = refs["lindblad"][job.params["key"]]
    rows = data[ref["rows"]]
    if not _close(_col(header, rows, "sum_sz"), ref["sum_sz"], EXACT_REL_TOL, 1e-9):
        return "sum_sz samples differ from the reference"
    if not _close(_col(header, rows, "gamma"), ref["gamma"], EXACT_REL_TOL, 1e-9):
        return "gamma samples differ from the reference"
    if read_meta(job.output)["results"]["n_rhs_evals"] <= 0:
        return "no right-hand-side evaluations reported"
    return None


def check_spectrum(job, refs) -> str | None:
    n, beta = job.params["n"], job.params["beta"]
    header, data = read_csv(job.output)
    occ = data[:, 0].astype(np.int64)
    if sorted(occ.tolist()) != list(range(1 << n)):
        return "spectrum rows are not a permutation of the basis"
    sz = ((occ[:, None] >> np.arange(n)) & 1) - 0.5
    energy = sz.sum(axis=1) - beta * np.sum(sz * np.roll(sz, -1, axis=1), axis=1)
    got = _col(header, data, "energy")
    if not _close(got, energy, TABLE_REL_TOL, 1e-12):
        return "energies differ from direct recomputation"
    if np.any(np.diff(got) < -1e-12):
        return "rows are not sorted by energy"
    level = _col(header, data, "level").astype(np.int64)
    degeneracy = _col(header, data, "degeneracy").astype(np.int64)
    n_levels = read_meta(job.output)["results"]["n_levels"]
    counts = np.bincount(level, minlength=n_levels)
    if counts.size != n_levels or np.any(counts[level] != degeneracy):
        return "degeneracies disagree with the rows of each level"
    if int(counts.sum()) != 1 << n:
        return f"degeneracies sum to {int(counts.sum())}, not 2^N"
    return None


def _cavity_oracle(t: np.ndarray, n: int, g: float, jp: float) -> np.ndarray:
    """Populations of |uu, n> evolved in the 4-state block, by eigenbasis."""
    g1, g2 = g * math.sqrt(n + 1), g * math.sqrt(n + 2)
    h = np.array([[n + 1 - jp, g1, g1, 0.0], [g1, n + 1 + jp, 0.0, g2],
                  [g1, 0.0, n + 1 + jp, g2], [0.0, g2, g2, n + 1 - jp]])
    lam, vec = np.linalg.eigh(h)
    amps = (vec * np.exp(-1j * np.outer(t, lam))[:, None, :]) @ vec[0]
    return np.abs(amps) ** 2


def check_cavity(job, refs) -> str | None:
    n, g, jp = job.params["n_photons"], job.params["g"], job.params["jprime"]
    header, data = read_csv(job.output)
    norm = _col(header, data, "norm")
    if np.max(np.abs(norm - 1.0)) > 1e-12:
        return "cavity norm drifts from 1"
    total = sum(_col(header, data, c) for c in ("p_uu", "p_mid", "p_dd"))
    if np.max(np.abs(total - norm ** 2)) > 1e-12:
        return "populations do not sum to the squared norm"
    pick = np.linspace(0, data.shape[0] - 1, 9).astype(int)
    want = _cavity_oracle(_col(header, data, "t")[pick], n, g, jp)
    got = np.stack([_col(header, data, "p_uu")[pick], _col(header, data, "p_mid")[pick],
                    _col(header, data, "p_dd")[pick]], axis=1)
    expect = np.stack([want[:, 0], want[:, 1] + want[:, 2], want[:, 3]], axis=1)
    if np.max(np.abs(got - expect)) > STATE_ABS_TOL:
        return "populations differ from the eigenbasis oracle"
    results = read_meta(job.output)["results"]
    delta = g * g * (2 * n + 3) / (2.0 * jp)
    if not _close(results["two_photon_rabi"], delta, 1e-12):
        return f"two_photon_rabi {results['two_photon_rabi']!r}, expected {delta!r}"
    if not _close(results["rabi_extracted"], delta, RABI_REL_TOL):
        return f"rabi_extracted {results['rabi_extracted']!r} vs two_photon_rabi {delta!r}"
    return None


def check_soliton(job, refs) -> str | None:
    n, defect = job.params["n"], job.params["defect"]
    header, data = read_csv(job.output)
    if data.shape[1] != 2 + n or not np.all(np.isfinite(data)):
        return "soliton table has the wrong shape or non-finite values"
    got = read_meta(job.output)["results"]["transition_times"]
    # the ring is translation invariant: rotate the defect-0 reference
    want = [refs["soliton"][(i - defect) % n] for i in range(n)]
    for site, (a, b) in enumerate(zip(got, want)):
        if (a is None) != (b is None) or (a is not None and not _close(a, b, 1e-6)):
            return f"transition time of site {site} is {a!r}, reference {b!r}"
    return None


def check_geometry(job, refs) -> str | None:
    pos = np.asarray(job.params["positions"])
    dip = np.asarray(job.params["dipole"])
    i, j = np.triu_indices(pos.shape[0], k=1)
    rij = pos[i] - pos[j]
    x = np.linalg.norm(rij, axis=1)
    cos_chi = rij @ dip / x
    a, b = 1.0 - cos_chi ** 2, 1.0 - 3.0 * cos_chi ** 2
    f = 1.5 * (a * np.sin(x) / x + b * (np.cos(x) / x ** 2 - np.sin(x) / x ** 3))
    omega = -1.5 * b / x ** 3
    header, data = read_csv(job.output)
    if data.shape[0] != i.size:
        return f"geometry has {data.shape[0]} rows, expected {i.size}"
    if np.any(data[:, 0] != i) or np.any(data[:, 1] != j):
        return "geometry pair indices out of order"
    for name, want in (("k0r", x), ("cos_chi", cos_chi), ("F_at_k0r", f),
                       ("omega_over_gamma0", omega)):
        if not _close(_col(header, data, name), want, TABLE_REL_TOL, 1e-12):
            return f"{name} differs from direct recomputation"
    return None


CHECKS = {"sweep": check_sweep, "bounds": check_bounds,
          "meanfield_ref": check_meanfield_ref, "two_atom": check_two_atom,
          "lindblad_ref": check_lindblad_ref, "spectrum": check_spectrum,
          "cavity": check_cavity, "soliton": check_soliton,
          "geometry": check_geometry}


def check(job, refs) -> str | None:
    """Run the job's check; a malformed output is a failure, not a crash."""
    try:
        return CHECKS[job.check](job, refs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
