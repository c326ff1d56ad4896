"""Benchmark of the isingrelax CLI: end-to-end metrics or traced layer timings.

Run from the root of a checkout:

    python3 bench/run.py --workload mf_sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

--trace 0 prints wall_s, setup_s and peak_rss_mb; --trace 1 prints the
per-layer metrics of a traced run. The last line of standard output is one
JSON object with "correct", "attempted", "failed" and "metrics". The program
is imported from the checkout's src/ in fresh interpreters pinned to
BLAS_THREADS BLAS threads; nothing is built or installed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

BLAS_THREADS = 1
SETUP_RUNS = 5
DEADLINE_S = 170.0          # a run must end within 180 s
SETUP_PROBE = """
import time
import isingrelax.cli as cli
from isingrelax import cavity, geometry, lindblad, meanfield, spin_core
cli.build_parser()
print(repr(time.perf_counter()))
"""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(root: str, env: dict) -> list[float]:
    """Seconds from starting a fresh interpreter to a built parser.

    time.perf_counter reads CLOCK_MONOTONIC, which parent and child share.
    """
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=root,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return samples


def run_worker(root: str, env: dict, workload: str, seed: int, seconds: float,
               trace: int, timeout: float) -> dict:
    workdir = os.path.join(root, ".bench_work", workload)
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker for {workload} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    expected = os.path.realpath(os.path.join(root, "src", "isingrelax"))
    if os.path.realpath(result["package"]) != expected:
        raise RuntimeError(f"imported {result['package']}, not {expected}")
    return result


def spread(values: list[float], what: str) -> str:
    """Sample count, quartiles and samples, for the human-readable lines."""
    samples = " ".join(f"{v:.3f}" for v in values)
    if len(values) < 2:
        return f"1 {what}: {samples}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)} {what}, q1 {q1:.4f}, q3 {q3:.4f}: {samples}"


def end_to_end(result: dict, setup: list[float]) -> dict:
    return {"wall_s": {"value": statistics.median(result["rep_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}


def per_layer(result: dict) -> dict:
    """Mean per repetition of each traced layer's calls, times and errors."""
    reps = result["per_rep"]
    metrics = {}
    for name in spans.LAYER_NAMES:
        for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"),
                            ("errors", "count")):
            value = statistics.fmean(r["layers"][name][field] for r in reps)
            metrics[f"{name}.{field}"] = {"value": value, "unit": unit}
    for name, unit in (("meanfield.nfev", "count"), ("lindblad.nfev", "count"),
                       ("cli.write_csv.bytes", "B")):
        metrics[name] = {"value": statistics.fmean(r["counters"][name] for r in reps),
                         "unit": unit}
    calls = metrics["meanfield.mf_rhs.calls"]["value"]
    share = metrics["meanfield.nfev"]["value"] / calls if calls else 0.0
    metrics["meanfield.mf_rhs.solver_share"] = {"value": share, "unit": "ratio"}
    overhead = (statistics.median(result["traced_rep_s"])
                / statistics.median(result["rep_s"]) - 1.0)
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "ratio"}
    return metrics


def run_one(root: str, env: dict, workload: str, seed: int, seconds: float,
            trace: int, deadline: float) -> dict:
    result = run_worker(root, env, workload, seed, seconds, trace,
                        deadline - time.perf_counter())
    # after the worker, so the bytecode caches of src/ are already written
    setup = [] if trace else measure_setup(root, env)
    metrics = per_layer(result) if trace else end_to_end(result, setup)
    failures = result["failures"]
    attempted = result["attempted"]
    print(f"== {workload} seed={seed} trace={trace} jobs/rep={result['jobs']} "
          f"blas_threads={BLAS_THREADS}")
    if trace:
        print(f"  wall_s untraced ({spread(result['rep_s'], 'repetitions')}); "
              f"traced ({spread(result['traced_rep_s'], 'repetitions')})")
        for name, m in sorted(metrics.items()):
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        print(f"  wall_s      {metrics['wall_s']['value']:.4f} s   "
              f"({spread(result['rep_s'], 'repetitions')})")
        print(f"  setup_s     {metrics['setup_s']['value']:.4f} s   "
              f"({spread(setup, 'fresh interpreters')})")
        print(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    print(f"  fail_frac   {len(failures) / attempted:.4f}   "
          f"({len(failures)} of {attempted} jobs failed)")
    for f in failures:
        tag = f"known defect ({f['known_defect']})" if f["known_defect"] else "FAILED"
        print(f"  {tag}: {f['job']}: {f['reason']}")
    return {"correct": all(f["known_defect"] for f in failures),
            "attempted": attempted, "failed": len(failures), "metrics": metrics}


def environment() -> str:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"# cores={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} blas_threads={BLAS_THREADS}")


def main() -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "isingrelax", "cli.py")):
        print("error: run from the root of an isingrelax checkout (src/isingrelax "
              "not found)", file=sys.stderr)
        return 2
    env = child_env(root)
    print(environment())
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = start + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_one(root, env, name, args.seed, args.seconds,
                                    args.trace, deadline)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
