#!/usr/bin/env python3
"""Interaction gain of the superradiant peak and its scaling with chain size.

Part 1: coherent-channel pulse for N = 100; the rate at half de-excitation,
relative to the free chain, should follow 1 + (3/2) beta^2.
Part 2: all-pairs coupling; log-log fit of the peak rate against N gives
exponent 2 for the incoherent channel and 3 for the coherent one.
"""

import argparse
import pathlib

import numpy as np

from isingrelax import meanfield as mf
from isingrelax.cli import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="results", type=pathlib.Path)
    ap.add_argument("--n", default=100, type=int)
    ap.add_argument("--betas", default=[0.0, 0.3, 0.5], type=float, nargs="+")
    args = ap.parse_args()
    args.outdir.mkdir(parents=True, exist_ok=True)

    rows = []
    rate0 = None
    for beta in args.betas:
        pulse = mf.coherent_pulse(beta, args.n, horizon=0.2)
        rate = float(np.interp(pulse.t_peak, pulse.times, pulse.gamma))
        if beta == 0.0:
            rate0 = rate
        gain = rate / rate0 if rate0 else float("nan")
        rows.append((beta, rate, gain, 1.0 + 1.5 * beta ** 2))
        print(f"beta={beta}: peak rate {rate:.6g}, gain {gain:.4f} "
              f"(prediction {1.0 + 1.5 * beta ** 2:.4f})")
    out = args.outdir / "superradiant_gain.csv"
    write_csv(str(out), ["beta", "peak_rate", "gain", "predicted_gain"], zip(*rows))

    scaling_rows = []
    for coherent, label in ((False, "incoherent"), (True, "coherent")):
        fit = mf.longrange_scaling(0.5, n_list=(20, 40, 80, 160),
                                   coherent=coherent)
        scaling_rows.append((label, fit.exponent, fit.r_squared))
        print(f"all-pairs {label} channel: peak ~ N^{fit.exponent:.3f} "
              f"(r^2 = {fit.r_squared:.5f})")
    out2 = args.outdir / "peak_scaling.csv"
    write_csv(str(out2), ["channel", "exponent", "r_squared"], zip(*scaling_rows))
    print(f"wrote {out} and {out2}")


if __name__ == "__main__":
    main()
