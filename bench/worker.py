"""One workload in one fresh interpreter: repeated job lists, checked outputs.

Started by run.py with PYTHONPATH pointing at the checkout's src/. The jobs of
a repetition run one after another through isingrelax.cli.main (a closed loop
with one client). Each job has a time limit; a job that exits nonzero,
raises, runs past its limit or fails its output check counts as failed. The
result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

JOB_LIMIT_S = 40.0


class JobTimeout(Exception):
    """Raised in the main thread when a job runs past JOB_LIMIT_S."""


def _alarm(_signum, _frame):
    raise JobTimeout()


class Runner:
    """Runs repetitions of one job list and keeps the failure tally."""

    def __init__(self, jobs, refs, cli_main):
        self.jobs, self.refs, self.cli_main = jobs, refs, cli_main
        self.attempted = 0
        self.failures: list[dict] = []
        self._verified: dict[str, str] = {}   # job name -> digest of checked output

    def _run_job(self, job) -> str | None:
        for path in (job.output, job.output + ".meta.json"):
            if os.path.exists(path):
                os.remove(path)
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            rc = self.cli_main(job.argv)
        except JobTimeout:
            return f"stopped after the {JOB_LIMIT_S:g} s job limit"
        except SystemExit as exc:          # argparse rejects its arguments
            return f"exited with code {exc.code}"
        except Exception as exc:           # boundary: any crash is a failed job
            return f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return None if rc == 0 else f"exited with code {rc}"

    def _verify(self, job) -> str | None:
        digest = hashlib.sha256()
        for path in (job.output, job.output + ".meta.json"):
            with open(path, "rb") as fh:
                digest.update(fh.read())
        # byte-identical repeats of a checked output need no second check
        if self._verified.get(job.name) == digest.hexdigest():
            return None
        reason = checks.check(job, self.refs)
        if reason is None:
            self._verified[job.name] = digest.hexdigest()
        return reason

    def rep(self) -> float:
        """Run every job once; return the seconds spent inside the CLI."""
        busy = 0.0
        for job in self.jobs:
            t0 = time.perf_counter()
            reason = self._run_job(job)
            busy += time.perf_counter() - t0
            if reason is None:
                try:
                    reason = self._verify(job)
                except OSError as exc:
                    reason = f"missing output: {exc}"
            self.attempted += 1
            if reason is not None:
                self.failures.append({"job": job.name, "argv": job.argv,
                                      "reason": reason,
                                      "known_defect": job.known_defect})
        return busy

    def reps(self, budget_s: float, after_rep=None) -> list[float]:
        """Repeat until the next repetition would overrun budget_s (at least one)."""
        times = []
        start = time.perf_counter()
        while True:
            times.append(self.rep())
            if after_rep is not None:
                after_rep()
            spent = time.perf_counter() - start
            if spent + spent / len(times) > budget_s:
                return times


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import isingrelax
    from isingrelax import cavity, geometry, lindblad, meanfield, spin_core  # noqa: F401
    from isingrelax import cli

    signal.signal(signal.SIGALRM, _alarm)
    jobs = workloads.make_jobs(args.workload, args.seed, args.workdir)
    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)
    runner = Runner(jobs, refs, cli.main)
    result = {"package": os.path.dirname(isingrelax.__file__), "jobs": len(jobs)}

    if not args.trace:
        result["rep_s"] = runner.reps(args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        result["rep_s"] = runner.reps(args.seconds / 2)
        rec = spans.Recorder()
        spans.install(rec, isingrelax)
        per_rep = []
        marks = [(len(rec.spans), dict(rec.counters))]

        def close_rep():
            """Aggregate the spans and counters of the repetition just run."""
            lo, before = marks[-1]
            layers = spans.aggregate(rec.names, rec.spans, lo)
            counters = {k: rec.counters[k] - before[k] for k in rec.counters}
            per_rep.append({"layers": layers, "counters": counters})
            marks.append((len(rec.spans), dict(rec.counters)))

        result["traced_rep_s"] = runner.reps(args.seconds / 2, after_rep=close_rep)
        result["per_rep"] = per_rep
        rec.write(os.path.join(args.workdir, "spans.json"))

    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
