"""Seeded job lists of the four benchmark workloads.

Every drawn value comes from ``random.Random(f"{workload}:{seed}")``, so the
same seed gives the same CLI arguments and input files. Values whose outputs
are checked against recorded references are drawn from the fixed grids below
(refs.json holds one entry per grid point); the others are checked by
physics oracles and may take any value. Where a drawn value changes how much
work a job does, one value is drawn per stratum of its range, so the total
work of a workload barely moves from seed to seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
import math
import os
import random

WORKLOADS = ("mf_sweep", "mf_large", "exact", "tables")

# mf_sweep: order parameter over a doubling N grid; two beta strata
SWEEP_BETAS = [f"{0.025 * k:.3f}" for k in range(37)]          # 0.000 .. 0.900
SWEEP_STRATA = (range(0, 18), range(18, 37))
SWEEP_N_RANGE = "8:32"
SWEEP_NS = (8, 16, 32)
# known-defect probe: random phases break |sigma_plus| <= 1/2 for about a
# third of phase seeds at this size and horizon
PROBE_N, PROBE_BETA, PROBE_HORIZON, PROBE_SAMPLES = 8, 0.5, 8.0, 100
PROBE_DEFECT = ("mean-field |sigma| <= 1/2 bound broken by random initial "
                "phases (meanfield --phase-seed)")

# mf_large: one trajectory per beta stratum, horizon just past the burst
LARGE_N, LARGE_HORIZON, LARGE_SAMPLES = 256, 0.12, 100
LARGE_BETAS = [f"{0.3 + 0.01 * k:.2f}" for k in range(41)]      # 0.30 .. 0.70
LARGE_STRATA = (range(0, 20), range(20, 41))

# exact: N = 2 against the closed form, N = 6 on a (beta, omega) grid
EXACT_N, EXACT_HORIZON, EXACT_SAMPLES = 6, 5.0, 100
EXACT_BETAS = [f"{0.2 + 0.05 * k:.2f}" for k in range(9)]       # 0.20 .. 0.60
EXACT_STRATA = (range(0, 4), range(4, 9))
EXACT_OMEGAS = ("0.5",)   # work grows ~10 % from omega 0.6 to 0.4

# tables
SPECTRUM_N = 16
SOLITON_N, SOLITON_BETA = 20, "0.99"
CAVITY_SAMPLES, CAVITY_PERIODS = 8192, 12
LATTICE = (7, 7, 6)                                             # 294 atoms


@dataclass
class Job:
    """One CLI invocation and what its output check needs."""

    name: str
    argv: list[str]
    check: str
    params: dict = field(default_factory=dict)
    known_defect: str | None = None

    @property
    def output(self) -> str:
        return self.argv[self.argv.index("--output") + 1]


def _draw(rng: random.Random, grid, strata) -> list[str]:
    return [grid[rng.choice(stratum)] for stratum in strata]


def _mf_sweep(rng, out):
    betas = _draw(rng, SWEEP_BETAS, SWEEP_STRATA)
    phase_seed = rng.randrange(1 << 16)
    return [
        Job("sweep", ["sweep", "--betas", ",".join(betas), "--n-range", SWEEP_N_RANGE,
                      "--output", out("sweep.csv")],
            "sweep", {"betas": betas, "ns": list(SWEEP_NS)}),
        Job("probe", ["meanfield", "--n", str(PROBE_N), "--beta", str(PROBE_BETA),
                      "--horizon", str(PROBE_HORIZON), "--n-samples", str(PROBE_SAMPLES),
                      "--phase-seed", str(phase_seed), "--output", out("probe.csv")],
            "bounds", {"n": PROBE_N}, known_defect=PROBE_DEFECT),
    ]


def _mf_large(rng, out):
    return [Job(f"meanfield_{k}",
                ["meanfield", "--n", str(LARGE_N), "--beta", beta,
                 "--horizon", str(LARGE_HORIZON), "--n-samples", str(LARGE_SAMPLES),
                 "--output", out(f"meanfield_{k}.csv")],
                "meanfield_ref", {"beta": beta, "n": LARGE_N})
            for k, beta in enumerate(_draw(rng, LARGE_BETAS, LARGE_STRATA))]


def _exact(rng, out):
    beta2 = f"{rng.uniform(0.0, 0.9):.6f}"
    jobs = [Job("lindblad_2", ["lindblad", "--n", "2", "--beta", beta2,
                               "--output", out("lindblad_2.csv")],
                "two_atom", {"beta": float(beta2)})]
    for k, beta in enumerate(_draw(rng, EXACT_BETAS, EXACT_STRATA)):
        omega = rng.choice(EXACT_OMEGAS)
        # the N = 6 jobs read their settings from a generated --config file
        config = out(f"lindblad_6_{k}.json")
        with open(config, "w") as fh:
            json.dump({"n": EXACT_N, "beta": float(beta), "omega": float(omega),
                       "horizon": EXACT_HORIZON, "n_samples": EXACT_SAMPLES}, fh)
        jobs.append(Job(f"lindblad_6_{k}",
                        ["lindblad", "--config", config,
                         "--output", out(f"lindblad_6_{k}.csv")],
                        "lindblad_ref", {"key": f"{beta}/{omega}"}))
    return jobs


def _lattice(rng):
    spacing = rng.uniform(0.5, 2.0)
    jitter = 0.1 * spacing
    positions = [[spacing * i + rng.uniform(-jitter, jitter),
                  spacing * j + rng.uniform(-jitter, jitter),
                  spacing * k + rng.uniform(-jitter, jitter)]
                 for i in range(LATTICE[0]) for j in range(LATTICE[1])
                 for k in range(LATTICE[2])]
    d = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(v * v for v in d))
    return positions, [v / norm for v in d]


def _tables(rng, out):
    beta = f"{rng.uniform(0.0, 0.9):.6f}"
    n_photons = rng.randrange(3)
    g = rng.uniform(0.008, 0.012)
    jprime = rng.uniform(0.4, 0.6)
    delta = g * g * (2 * n_photons + 3) / (2.0 * jprime)
    # p_dd ~ sin^2(delta t) completes CAVITY_PERIODS cycles over the horizon
    horizon = CAVITY_PERIODS * math.pi / delta
    defect = rng.randrange(SOLITON_N)
    positions, dipole = _lattice(rng)
    geometry = out("atoms.json")
    with open(geometry, "w") as fh:
        json.dump({"positions_k0r": positions, "dipole": dipole}, fh)
    cavity = out("cavity.json")
    with open(cavity, "w") as fh:
        json.dump({"n_photons": n_photons, "g": g, "jprime": jprime,
                   "horizon": horizon, "n_samples": CAVITY_SAMPLES}, fh)
    return [
        Job("spectrum", ["spectrum", "--n", str(SPECTRUM_N), "--beta", beta,
                         "--output", out("spectrum.csv")],
            "spectrum", {"n": SPECTRUM_N, "beta": float(beta)}),
        Job("cavity", ["cavity", "--config", cavity, "--output", out("cavity.csv")],
            "cavity", {"n_photons": n_photons, "g": g, "jprime": jprime}),
        Job("soliton", ["soliton", "--n", str(SOLITON_N), "--beta", SOLITON_BETA,
                        "--defect", str(defect), "--output", out("soliton.csv")],
            "soliton", {"defect": defect, "n": SOLITON_N}),
        Job("geometry", ["geometry", "--geometry", geometry,
                         "--output", out("geometry.csv")],
            "geometry", {"positions": positions, "dipole": dipole}),
    ]


_MAKERS = {"mf_sweep": _mf_sweep, "mf_large": _mf_large, "exact": _exact,
           "tables": _tables}


def make_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """Draw the jobs of one workload and write their input files to workdir."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return _MAKERS[workload](rng, lambda name: os.path.join(workdir, name))
