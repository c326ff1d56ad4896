"""Record refs.json: program outputs at every grid point the workloads draw from.

Run from the repository root, on the commit whose outputs become the
reference:

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 bench/make_refs.py

It takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from checks import read_csv, read_meta  # noqa: E402


def _sample_rows(n_rows: int) -> list[int]:
    return sorted(set(range(0, n_rows, 10)) | {n_rows - 1})


def main() -> int:
    from isingrelax.cli import main as cli_main

    work = os.path.join(".bench_work", "refs")
    os.makedirs(work, exist_ok=True)
    out = os.path.join(work, "out.csv")

    def run(argv):
        rc = cli_main(argv + ["--output", out])
        if rc != 0:
            raise SystemExit(f"{argv} exited {rc}")

    refs = {"sweep": {}, "meanfield": {}, "lindblad": {}, "soliton": None}
    for beta in wl.SWEEP_BETAS:
        run(["sweep", "--betas", beta, "--n-range", wl.SWEEP_N_RANGE])
        _, data = read_csv(out)
        refs["sweep"][beta] = {str(int(n)): float(v) for _, n, v in data}
    for beta in wl.LARGE_BETAS:
        run(["meanfield", "--n", str(wl.LARGE_N), "--beta", beta,
             "--horizon", str(wl.LARGE_HORIZON), "--n-samples", str(wl.LARGE_SAMPLES)])
        header, data = read_csv(out)
        rows = _sample_rows(data.shape[0])
        results = read_meta(out)["results"]
        refs["meanfield"][beta] = {
            "gamma_max": results["gamma_max"], "t_peak": results["t_peak"],
            "rows": rows,
            "sum_sigma_z": data[rows, header.index("sum_sigma_z")].tolist(),
            "gamma": data[rows, header.index("gamma")].tolist()}
    for beta in wl.EXACT_BETAS:
        for omega in wl.EXACT_OMEGAS:
            run(["lindblad", "--n", str(wl.EXACT_N), "--beta", beta, "--omega", omega,
                 "--horizon", str(wl.EXACT_HORIZON),
                 "--n-samples", str(wl.EXACT_SAMPLES)])
            header, data = read_csv(out)
            rows = _sample_rows(data.shape[0])
            refs["lindblad"][f"{beta}/{omega}"] = {
                "rows": rows,
                "sum_sz": data[rows, header.index("sum_sz")].tolist(),
                "gamma": data[rows, header.index("gamma")].tolist()}
    run(["soliton", "--n", str(wl.SOLITON_N), "--beta", wl.SOLITON_BETA,
         "--defect", "0"])
    refs["soliton"] = read_meta(out)["results"]["transition_times"]
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
