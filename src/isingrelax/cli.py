"""Deterministic experiment runner.

Every subcommand resolves its configuration from built-in defaults, an
optional ``--config file.json`` overlay, and explicit flags (in that order of
precedence), writes a CSV with a header row and 17-significant-digit floats,
and echoes the fully resolved configuration to ``<output>.meta.json``.

Exit codes: 0 success, 2 argument error, 3 resource or model-validity error
(running out of memory included), 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .errors import IntegrationError, ModelValidityError, ResourceLimitError, sample_grid
from .spin_core import ChainSpec, energy_levels
from . import lindblad as lb
from . import meanfield as mf
from . import cavity as cv
from . import geometry as geo

FLOAT_FMT = "%.17g"


def write_csv(path: str, header: list[str], columns) -> None:
    """One column per header name; each column's dtype sets its format."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header names for {len(columns)} columns")
    row_fmt = ",".join("%s" if c.dtype.kind == "U" else
                       "%d" if c.dtype.kind in "biu" else FLOAT_FMT for c in columns)
    lines = [",".join(header)]
    lines.extend(row_fmt % row for row in zip(*(c.tolist() for c in columns)))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_meta(path: str, command: str, config: dict, extra: dict | None = None,
               diagnostics: dict | None = None) -> None:
    meta = {"command": command, "version": __version__,
            "config": {k: config[k] for k in sorted(config)}}
    if extra:
        meta["results"] = {k: extra[k] for k in sorted(extra)}
    if diagnostics:
        meta["diagnostics"] = diagnostics
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


# --------------------------------------------------------------------------
# subcommand implementations; each takes the resolved config dict


def cmd_spectrum(cfg: dict) -> None:
    spec = ChainSpec(n_atoms=cfg["n"], beta=cfg["beta"],
                     coupling_range=cfg["range"], boundary=cfg["boundary"])
    occupation, energy, level = energy_levels(spec)
    degeneracy = np.bincount(level)
    # most significant site first, as format(occupation, "0Nb") writes it
    digits = (occupation[:, None] >> np.arange(spec.n_atoms - 1, -1, -1)) & 1
    bits = (digits + ord("0")).astype(np.uint8).view(f"S{spec.n_atoms}").ravel()
    write_csv(cfg["output"], ["occupation", "bits", "energy", "level", "degeneracy"],
              [occupation, bits.astype(str), energy, level, degeneracy[level]])
    write_meta(cfg["output"], "spectrum", cfg, {"n_levels": degeneracy.size})


def cmd_lindblad(cfg: dict) -> None:
    spec = ChainSpec(n_atoms=cfg["n"], beta=cfg["beta"])
    omega = None
    if cfg["omega"] != 0.0:
        omega = np.full((spec.n_atoms, spec.n_atoms), float(cfg["omega"]))
        np.fill_diagonal(omega, 0.0)
    params = lb.LindbladParams(spec=spec, omega_dd=omega, alpha=cfg["alpha"])
    taus = sample_grid(cfg["horizon"], cfg["n_samples"])
    traj = lb.integrate(lb.fully_inverted(spec.n_atoms), params, taus)
    header = ["tau", "sum_sz", "gamma", "gamma_coh", "gamma_incoh",
              "trace_err", "herm_err", "min_eig"]
    write_csv(cfg["output"], header,
              [traj.taus, traj.sum_sz, traj.gamma, traj.gamma_coh, traj.gamma_incoh,
               traj.trace_err, traj.herm_err, traj.min_eig])
    worst_min_eig = float(traj.min_eig.min())
    write_meta(cfg["output"], "lindblad", cfg,
               {"max_trace_err": float(traj.trace_err.max()),
                "max_herm_err": float(traj.herm_err.max()),
                "n_rhs_evals": traj.n_rhs_evals},
               {"exact_path": traj.path,
                "n_rhs_evals": traj.n_rhs_evals,
                "sector_size": traj.sector.size,
                "group_order": traj.sector.group_order,
                "orbit_count": traj.sector.n_orbits,
                "liouville_size": traj.sector.dim ** 2,
                "worst_min_eig": worst_min_eig,
                "min_eig_floor": lb.MIN_EIG_FLOOR,
                "min_eig_below_floor": worst_min_eig < lb.MIN_EIG_FLOOR})


def cmd_meanfield(cfg: dict) -> None:
    params = mf.MFParams(n_atoms=cfg["n"], beta=cfg["beta"], theta0=cfg["theta0"],
                         phase_seed=cfg["phase_seed"], horizon=cfg["horizon"])
    traj = mf.integrate_mf(mf.initial_field(params), params,
                           n_samples=cfg["n_samples"])
    write_csv(cfg["output"], ["tau", "sum_sigma_z", "gamma"],
              [traj.taus, traj.sum_sz, traj.gamma])
    write_meta(cfg["output"], "meanfield", cfg,
               {"gamma_max": traj.gamma_max, "t_peak": traj.t_peak,
                "bound_violations": traj.bound_violations},
               {"mf_path": traj.path, "n_rhs_evals": traj.n_rhs_evals})


def cmd_sweep(cfg: dict) -> None:
    n_list = parse_n_range(cfg["n_range"])
    betas = parse_float_list(cfg["betas"])
    if not betas:
        raise ValueError(f"no beta values in {cfg['betas']!r}")
    rows = []
    rows_per_path = {"uniform": 0, "sites": 0}
    for beta in betas:
        for n in n_list:
            params = mf.MFParams(n_atoms=n, beta=beta, theta0=cfg["theta0"],
                                 phase_seed=cfg["phase_seed"], horizon=cfg["horizon"])
            uniform = mf.site_uniform(mf.initial_field(params))
            rows_per_path["uniform" if uniform else "sites"] += 1
            rows.append((beta, n, mf.order_parameter_run(params)))
    rows.sort(key=lambda r: (r[0], r[1]))
    beta_col, n_col, value_col = (np.asarray(c) for c in zip(*rows))
    write_csv(cfg["output"], ["beta", "n", "order_parameter"], [beta_col, n_col, value_col])
    n_c = {repr(float(b)): mf.crossing(n_col[beta_col == b], value_col[beta_col == b])
           for b in np.unique(beta_col)}
    write_meta(cfg["output"], "sweep", cfg, {"n_c": n_c, "n_rows": len(rows)},
               {"rows_per_mf_path": rows_per_path})


def cmd_soliton(cfg: dict) -> None:
    res = mf.soliton_ring(n_atoms=cfg["n"], beta=cfg["beta"],
                          defect_site=cfg["defect"], horizon=cfg["horizon"],
                          n_samples=cfg["n_samples"])
    header = ["tau", "gamma"] + [f"sz_{i}" for i in range(res.sigma_z.shape[1])]
    write_csv(cfg["output"], header, [res.times, res.gamma, *res.sigma_z.T])
    write_meta(cfg["output"], "soliton", cfg,
               {"transition_times": [None if np.isnan(v) else float(v)
                                     for v in res.transition_times]})


def cmd_cavity(cfg: dict) -> None:
    params = cv.CavityParams(n_photons=cfg["n_photons"], g=cfg["g"],
                             j_prime=cfg["jprime"])
    times = sample_grid(cfg["horizon"], cfg["n_samples"])
    state = cv.exact_state(times, params)
    pops = state.populations
    header = ["t", "p_uu", "p_mid", "p_dd", "norm"]
    columns = [times, pops[:, 0], pops[:, 1] + pops[:, 2], pops[:, 3], state.norm]
    extra = {"rabi_splitting": params.rabi_splitting,
             "p_dd_max_analytic": cv.two_photon_probability_max(params.n_photons)}
    diagnostics = None
    if params.j_prime > 0.0:
        strong = cv.strong_j_state(times, params)
        header.append("p_dd_strong")
        columns.append(strong.populations[:, 3])
        extra["two_photon_rabi"] = params.two_photon_rabi
        extra["strong_coupling_ratio"] = params.strong_coupling_ratio
        extra["rabi_extracted"] = cv.rabi_frequency_from_populations(times, pops[:, 3])
        diagnostics = {"strong_validity_warning": strong.validity_warning,
                       "strong_validity_threshold": cv.STRONG_COUPLING_VALIDITY}
    write_csv(cfg["output"], header, columns)
    write_meta(cfg["output"], "cavity", cfg, extra, diagnostics)


def cmd_geometry(cfg: dict) -> None:
    if cfg["geometry"] is None:
        raise ValueError("geometry needs --geometry or a 'geometry' config key")
    with open(cfg["geometry"]) as fh:
        data = json.load(fh)
    missing = [k for k in ("positions_k0r", "dipole")
               if not isinstance(data, dict) or k not in data]
    if missing:
        raise ValueError(f"geometry file {cfg['geometry']} must hold a JSON object "
                         f"with positions_k0r and dipole; missing {', '.join(missing)}")
    try:
        positions, dipole = (np.asarray(data[k], dtype=float) for k in ("positions_k0r", "dipole"))
    except TypeError as exc:
        raise ValueError(f"geometry file {cfg['geometry']}: positions_k0r and dipole must be "
                         f"arrays of numbers ({exc})") from None
    geom = geo.AtomGeometry(positions=positions, dipole=dipole)
    table = geo.coefficient_table(geom)
    write_csv(cfg["output"], list(table), table.values())
    write_meta(cfg["output"], "geometry", cfg, {"n_pairs": table["i"].size})


# --------------------------------------------------------------------------
# argument plumbing

# subcommand -> (help, {option: (type, default[, help])}); a tuple type lists
# the allowed strings. The table builds the flags (n_samples -> --n-samples),
# type-checks --config values and holds the defaults echoed to meta.json.
OPTIONS = {
    "spectrum": ("atomic Hamiltonian level structure", {
        "n": (int, 6), "beta": (float, 0.1),
        "range": (("nearest_neighbor", "all_pairs"), "nearest_neighbor"),
        "boundary": (("cyclic", "open"), "cyclic")}),
    "lindblad": ("exact density-matrix trajectory", {
        "n": (int, 2), "beta": (float, 0.0), "alpha": (float, 50.0),
        "omega": (float, 0.0, "uniform dipole-dipole constant Omega/gamma0 for all pairs"),
        "horizon": (float, 5.0), "n_samples": (int, 200)}),
    "meanfield": ("mean-field Bloch trajectory", {
        "n": (int, 10), "beta": (float, 0.5), "theta0": (float, None),
        "phase_seed": (int, None), "horizon": (float, 50.0), "n_samples": (int, 400)}),
    "sweep": ("order-parameter sweep over N and beta", {
        "betas": (str, "0,0.5,0.9", "comma-separated beta values"),
        "n_range": (str, "2:128", "a:b (doubling) or a:b:step (arithmetic)"),
        "theta0": (float, None), "phase_seed": (int, None), "horizon": (float, 50.0)}),
    "soliton": ("defect-seeded ring relaxation", {
        "n": (int, 20), "beta": (float, 0.99), "defect": (int, 0),
        "horizon": (float, 50.0), "n_samples": (int, 2000)}),
    # default horizon covers >= 10 two-photon Rabi periods for g ~ 0.01, J' ~ 0.5
    "cavity": ("two atoms in a resonant cavity", {
        "n_photons": (int, 0), "g": (float, 0.01), "jprime": (float, 0.5),
        "horizon": (float, 125000.0), "n_samples": (int, 8192)}),
    "geometry": ("dipole-dipole coefficient table", {
        "geometry": (str, None, "JSON file with positions_k0r and dipole")}),
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
    for command, (help_text, options) in OPTIONS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--output", required=True, help="CSV output path")
        p.add_argument("--config", default=None,
                       help="JSON file overlaying the defaults")
        for key, (typ, _default, *help_) in options.items():
            choices = typ if isinstance(typ, tuple) else None
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           type=str if choices else typ, choices=choices,
                           help=help_[0] if help_ else None)
    return parser


def _type_ok(typ, default, value) -> bool:
    """JSON ints also pass as floats, bools never pass as numbers, null only
    where the default is None."""
    if value is None:
        return default is None
    if isinstance(typ, tuple):
        return value in typ
    return type(value) in ((int, float) if typ is float else (typ,))


def resolve_config(args: argparse.Namespace) -> dict:
    options = OPTIONS[args.command][1]
    cfg = {key: spec[1] for key, spec in options.items()}
    if args.config is not None:
        with open(args.config) as fh:
            overlay = json.load(fh)
        if not isinstance(overlay, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(overlay) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in overlay.items():
            typ, default = options[key][:2]
            if not _type_ok(typ, default, value):
                want = f"one of {list(typ)}" if isinstance(typ, tuple) else typ.__name__
                raise ValueError(f"config key {key!r} must be {want}, got {value!r}")
        cfg.update(overlay)
    for key in cfg:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    cfg["output"] = args.output
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        HANDLERS[args.command](cfg)
    except (ModelValidityError, ResourceLimitError, MemoryError) as exc:
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
