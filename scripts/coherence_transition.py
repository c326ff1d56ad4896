#!/usr/bin/env python3
"""Coherent/incoherent order parameter against chain size.

For each beta, runs the mean-field chain from a fixed tipping angle over a
grid of N and records the time-averaged ratio of coherent to incoherent
emission.  The crossing of the ratio through 1 marks the onset of the
superradiant regime; its location N_c is printed per beta.
"""

import argparse
import pathlib

from isingrelax import meanfield as mf
from isingrelax.cli import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", type=pathlib.Path)
    ap.add_argument("--betas", default=[0.0, 0.5, 0.9], type=float, nargs="+")
    ap.add_argument("--n-grid", default=[24, 32, 40, 48, 56, 64, 80],
                    type=int, nargs="+")
    ap.add_argument("--theta0", default=0.4, type=float)
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    for beta in args.betas:
        cs = [mf.order_parameter_run(mf.MFParams(n, beta, theta0=args.theta0))
              for n in args.n_grid]
        rows.extend((beta, n, c) for n, c in zip(args.n_grid, cs))
        nc = mf.crossing(args.n_grid, cs)
        print(f"beta={beta}: N_c = {nc:.1f}" if nc is not None
              else f"beta={beta}: no crossing on this grid")
    out = args.outdir / "coherence_transition.csv"
    write_csv(str(out), ["beta", "n", "order_parameter"], zip(*rows))
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
