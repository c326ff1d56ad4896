"""Deterministic experiment runner.

Every subcommand resolves its configuration from built-in defaults, an
optional ``--config file.json`` overlay, and explicit flags (in that order of
precedence), writes a CSV with a header row and 17-significant-digit floats,
and echoes the fully resolved configuration to ``<output>.meta.json``.

Exit codes: 0 success, 2 argument error, 3 resource or model-validity error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .errors import IntegrationError, ModelValidityError, ResourceLimitError
from .spin_core import BasisState, ChainSpec, energy_of, spectrum
from . import lindblad as lb
from . import meanfield as mf
from . import cavity as cv
from . import geometry as geo

FLOAT_FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % float(value)


def write_csv(path: str, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_meta(path: str, command: str, config: dict, extra: dict | None = None) -> None:
    meta = {"command": command, "version": __version__,
            "config": {k: config[k] for k in sorted(config)}}
    if extra:
        meta["results"] = {k: extra[k] for k in sorted(extra)}
    with open(path + ".meta.json", "w", newline="") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def parse_n_range(text: str) -> list[int]:
    """'a:b' doubles from a to b inclusive; 'a:b:step' is an arithmetic grid."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected a:b or a:b:step")
    try:
        nums = [int(p) for p in parts]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: {exc}") from exc
    if nums[0] < 1 or nums[1] < nums[0]:
        raise argparse.ArgumentTypeError(f"bad range {text!r}: need 1 <= a <= b")
    if len(nums) == 3:
        if nums[2] < 1:
            raise argparse.ArgumentTypeError("step must be positive")
        return list(range(nums[0], nums[1] + 1, nums[2]))
    out, n = [], nums[0]
    while n <= nums[1]:
        out.append(n)
        n *= 2
    return out


def parse_float_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}: {exc}") from exc


def _time_grid(cfg: dict) -> np.ndarray:
    """n_samples points on [0, horizon]; the horizon must be finite and positive."""
    if not (math.isfinite(cfg["horizon"]) and cfg["horizon"] > 0):
        raise ValueError(f"horizon must be finite and positive, got {cfg['horizon']}")
    return np.linspace(0.0, cfg["horizon"], cfg["n_samples"])


# --------------------------------------------------------------------------
# subcommand implementations; each takes the resolved config dict


def cmd_spectrum(cfg: dict) -> None:
    spec = ChainSpec(n_atoms=cfg["n"], beta=cfg["beta"],
                     coupling_range=cfg["range"], boundary=cfg["boundary"])
    levels = spectrum(spec)
    energies = np.array([lev.energy for lev in levels])
    rows = []
    for occ in range(spec.dim):
        state = BasisState(occ, spec.n_atoms)
        e = energy_of(state, spec)
        idx = int(np.argmin(np.abs(energies - e)))
        rows.append((occ, state.bits(), e, idx, levels[idx].degeneracy))
    rows.sort(key=lambda r: (r[2], r[0]))
    write_csv(cfg["output"], ["occupation", "bits", "energy", "level", "degeneracy"], rows)
    write_meta(cfg["output"], "spectrum", cfg, {"n_levels": len(levels)})


def cmd_lindblad(cfg: dict) -> None:
    spec = ChainSpec(n_atoms=cfg["n"], beta=cfg["beta"])
    omega = None
    if cfg["omega"] != 0.0:
        omega = np.full((spec.n_atoms, spec.n_atoms), float(cfg["omega"]))
        np.fill_diagonal(omega, 0.0)
    params = lb.LindbladParams(spec=spec, omega_dd=omega, alpha=cfg["alpha"])
    taus = _time_grid(cfg)
    traj = lb.integrate(lb.fully_inverted(spec.n_atoms), params, taus,
                        rel_tol=cfg["rel_tol"], abs_tol=cfg["abs_tol"])
    ops = lb.build_operators(spec)
    header = ["tau", "sum_sz", "gamma", "gamma_coh", "gamma_incoh",
              "trace_err", "herm_err", "min_eig"]
    rows = []
    for k, rho in enumerate(traj.rhos):
        coh, incoh = lb.rate_split(rho, params, ops)
        rows.append((traj.taus[k], lb.sum_sz(rho, ops), coh + incoh, coh, incoh,
                     traj.trace_err[k], traj.herm_err[k], traj.min_eig[k]))
    write_csv(cfg["output"], header, rows)
    write_meta(cfg["output"], "lindblad", cfg,
               {"max_trace_err": float(traj.trace_err.max()),
                "max_herm_err": float(traj.herm_err.max()),
                "n_rhs_evals": traj.n_rhs_evals})


def cmd_meanfield(cfg: dict) -> None:
    params = mf.MFParams(n_atoms=cfg["n"], beta=cfg["beta"], theta0=cfg["theta0"],
                         phase_seed=cfg["phase_seed"], horizon=cfg["horizon"])
    traj = mf.integrate_mf(mf.initial_field(params), params,
                           n_samples=cfg["n_samples"])
    rows = [(traj.taus[k], traj.sum_sz[k], traj.gamma[k])
            for k in range(traj.taus.size)]
    write_csv(cfg["output"], ["tau", "sum_sigma_z", "gamma"], rows)
    write_meta(cfg["output"], "meanfield", cfg,
               {"gamma_max": traj.gamma_max, "t_peak": traj.t_peak,
                "bound_violations": traj.bound_violations})


def cmd_sweep(cfg: dict) -> None:
    n_list = parse_n_range(cfg["n_range"]) if isinstance(cfg["n_range"], str) \
        else list(cfg["n_range"])
    betas = parse_float_list(cfg["betas"]) if isinstance(cfg["betas"], str) \
        else list(cfg["betas"])
    rows = []
    for beta in betas:
        for n in n_list:
            params = mf.MFParams(n_atoms=n, beta=beta, theta0=cfg["theta0"],
                                 phase_seed=cfg["phase_seed"], horizon=cfg["horizon"])
            rows.append((beta, n, mf.order_parameter_run(params)))
    rows.sort(key=lambda r: (r[0], r[1]))
    write_csv(cfg["output"], ["beta", "n", "order_parameter"], rows)
    write_meta(cfg["output"], "sweep", cfg, {"n_rows": len(rows)})


def cmd_soliton(cfg: dict) -> None:
    res = mf.soliton_ring(n_atoms=cfg["n"], beta=cfg["beta"],
                          defect_site=cfg["defect"], horizon=cfg["horizon"],
                          n_samples=cfg["n_samples"])
    n = res.sigma_z.shape[1]
    header = ["tau", "gamma"] + [f"sz_{i}" for i in range(n)]
    rows = [(res.times[k], res.gamma[k], *res.sigma_z[k])
            for k in range(res.times.size)]
    write_csv(cfg["output"], header, rows)
    write_meta(cfg["output"], "soliton", cfg,
               {"transition_times": [None if np.isnan(v) else float(v)
                                     for v in res.transition_times]})


def cmd_cavity(cfg: dict) -> None:
    params = cv.CavityParams(n_photons=cfg["n_photons"], g=cfg["g"],
                             j_prime=cfg["jprime"])
    times = _time_grid(cfg)
    with_strong = params.j_prime > 0.0
    header = ["t", "p_uu", "p_mid", "p_dd", "norm"]
    if with_strong:
        header.append("p_dd_strong")
    rows = []
    p_dd = np.empty(times.size)
    for k, t in enumerate(times):
        state = cv.exact_state(float(t), params)
        pops = state.populations
        p_dd[k] = pops[3]
        row = [t, pops[0], pops[1] + pops[2], pops[3], state.norm]
        if with_strong:
            row.append(cv.strong_j_state(float(t), params).populations[3])
        rows.append(tuple(row))
    write_csv(cfg["output"], header, rows)
    extra = {"rabi_splitting": params.rabi_splitting,
             "p_dd_max_analytic": cv.two_photon_probability_max(params.n_photons)}
    if with_strong:
        extra["two_photon_rabi"] = params.two_photon_rabi
        extra["strong_coupling_ratio"] = params.strong_coupling_ratio
        extra["rabi_extracted"] = cv.rabi_frequency_from_populations(times, p_dd)
    write_meta(cfg["output"], "cavity", cfg, extra)


def cmd_geometry(cfg: dict) -> None:
    with open(cfg["geometry"]) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("geometry file must hold a JSON object with positions_k0r and dipole")
    geom = geo.AtomGeometry(positions=np.asarray(data["positions_k0r"], dtype=float),
                            dipole=np.asarray(data["dipole"], dtype=float))
    rows = [(r["i"], r["j"], r["k0r"], r["cos_chi"], r["F_at_k0r"],
             r["omega_over_gamma0"]) for r in geo.coefficient_table(geom)]
    write_csv(cfg["output"], ["i", "j", "k0r", "cos_chi", "F_at_k0r",
                              "omega_over_gamma0"], rows)
    write_meta(cfg["output"], "geometry", cfg, {"n_pairs": len(rows)})


# --------------------------------------------------------------------------
# argument plumbing

DEFAULTS = {
    "spectrum": {"n": 6, "beta": 0.1, "range": "nearest_neighbor",
                 "boundary": "cyclic"},
    "lindblad": {"n": 2, "beta": 0.0, "alpha": 50.0, "omega": 0.0,
                 "horizon": 5.0, "n_samples": 200,
                 "rel_tol": 1e-10, "abs_tol": 1e-14},
    "meanfield": {"n": 10, "beta": 0.5, "theta0": None, "phase_seed": None,
                  "horizon": 50.0, "n_samples": 400},
    "sweep": {"betas": "0,0.5,0.9", "n_range": "2:128", "theta0": None,
              "phase_seed": None, "horizon": 50.0},
    "soliton": {"n": 20, "beta": 0.99, "defect": 0, "horizon": 50.0,
                "n_samples": 2000},
    # default horizon covers >= 10 two-photon Rabi periods for g ~ 0.01, J' ~ 0.5
    "cavity": {"n_photons": 0, "g": 0.01, "jprime": 0.5, "horizon": 125000.0,
               "n_samples": 8192},
    "geometry": {},
}

HANDLERS = {
    "spectrum": cmd_spectrum,
    "lindblad": cmd_lindblad,
    "meanfield": cmd_meanfield,
    "sweep": cmd_sweep,
    "soliton": cmd_soliton,
    "cavity": cmd_cavity,
    "geometry": cmd_geometry,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingrelax",
        description="Cooperative relaxation experiments with CSV output.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", required=True, help="CSV output path")
        p.add_argument("--config", default=None,
                       help="JSON file overlaying the defaults")

    p = sub.add_parser("spectrum", help="atomic Hamiltonian level structure")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--range", choices=["nearest_neighbor", "all_pairs"])
    p.add_argument("--boundary", choices=["cyclic", "open"])

    p = sub.add_parser("lindblad", help="exact density-matrix trajectory")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--omega", type=float,
                   help="uniform dipole-dipole constant Omega/gamma0 for all pairs")
    p.add_argument("--horizon", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--abs-tol", dest="abs_tol", type=float)

    p = sub.add_parser("meanfield", help="mean-field Bloch trajectory")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--theta0", type=float)
    p.add_argument("--phase-seed", dest="phase_seed", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)

    p = sub.add_parser("sweep", help="order-parameter sweep over N and beta")
    common(p)
    p.add_argument("--betas", type=str, help="comma-separated beta values")
    p.add_argument("--n-range", dest="n_range", type=str,
                   help="a:b (doubling) or a:b:step (arithmetic)")
    p.add_argument("--theta0", type=float)
    p.add_argument("--phase-seed", dest="phase_seed", type=int)
    p.add_argument("--horizon", type=float)

    p = sub.add_parser("soliton", help="defect-seeded ring relaxation")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--beta", type=float)
    p.add_argument("--defect", type=int)
    p.add_argument("--horizon", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)

    p = sub.add_parser("cavity", help="two atoms in a resonant cavity")
    common(p)
    p.add_argument("--n-photons", dest="n_photons", type=int)
    p.add_argument("--g", type=float)
    p.add_argument("--jprime", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)

    p = sub.add_parser("geometry", help="dipole-dipole coefficient table")
    common(p)
    p.add_argument("--geometry", required=True,
                   help="JSON file with positions_k0r and dipole")

    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS[args.command])
    if args.config is not None:
        with open(args.config) as fh:
            overlay = json.load(fh)
        unknown = set(overlay) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(overlay)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if args.command == "geometry":
        cfg["geometry"] = args.geometry
    cfg["output"] = args.output
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        HANDLERS[args.command](cfg)
    except (ModelValidityError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (IntegrationError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, KeyError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
