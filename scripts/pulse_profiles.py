#!/usr/bin/env python3
"""Incoherent emission pulse of a 10-atom chain: full mean-field system
against the reduced single-variable equation.

A small tipping angle keeps the run in the incoherent channel that the
reduced equation describes.  Writes one CSV per beta with both rate curves
and prints peak height/time agreement.
"""

import argparse
import pathlib

import numpy as np

from isingrelax import meanfield as mf
from isingrelax.cli import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", type=pathlib.Path)
    ap.add_argument("--n", default=10, type=int)
    ap.add_argument("--betas", default=[0.0, 0.5, 0.9], type=float, nargs="+")
    ap.add_argument("--horizon", default=20.0, type=float)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    for beta in args.betas:
        params = mf.MFParams(args.n, beta, theta0=0.02, horizon=args.horizon)
        traj = mf.integrate_mf(mf.initial_field(params), params, n_samples=600)
        red = mf.collective_pulse(beta, args.n, horizon=args.horizon)
        reduced = np.interp(traj.taus, red.times, red.gamma)
        out = args.outdir / f"pulse_n{args.n}_beta{beta}.csv"
        write_csv(str(out), ["tau", "gamma_meanfield", "gamma_reduced"],
                  [traj.taus, traj.gamma, reduced])
        dh = abs(traj.gamma_max - red.gamma_max) / red.gamma_max
        if red.t_peak > 0.0:
            dt = f"{abs(traj.t_peak - red.t_peak) / red.t_peak:.1%}"
        else:
            dt = "n/a (monotone decay, peak at tau = 0)"
        print(f"beta={beta}: wrote {out}, peak height off by {dh:.1%}, "
              f"peak time off by {dt}")


if __name__ == "__main__":
    main()
