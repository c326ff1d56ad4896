"""Self-tests of the benchmark harness (not part of the library's test suite).

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_synthetic_tree():
    names = ["root", "a", "b"]
    tree = [
        [0, 0.0, 10.0, -1, False],   # root: children a (3 s) and b (2 s)
        [1, 1.0, 4.0, 0, False],     # a: child b (1 s)
        [2, 2.0, 3.0, 1, False],
        [2, 5.0, 7.0, 0, True],
    ]
    out = spans.aggregate(names, tree)
    assert out["root"] == {"calls": 1, "errors": 0, "total_s": 10.0, "self_s": 5.0}
    assert out["a"] == {"calls": 1, "errors": 0, "total_s": 3.0, "self_s": 2.0}
    assert out["b"] == {"calls": 2, "errors": 1, "total_s": 3.0, "self_s": 3.0}
    # a window that starts at the second top-level span ignores earlier parents
    assert spans.aggregate(names, tree, lo=3)["b"] == {"calls": 1, "errors": 1,
                                                        "total_s": 2.0, "self_s": 2.0}


def test_recorder_nests_spans_and_counts_errors():
    rec = spans.Recorder()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = rec.wrap("inner", inner)
    outer_t = rec.wrap("outer", lambda x: inner_t(x) + inner_t(x))
    assert outer_t(2) == 4
    with pytest.raises(ValueError):
        outer_t(-1)
    parents = [s[3] for s in rec.spans]
    assert parents == [-1, 0, 0, -1, 3]
    out = spans.aggregate(rec.names, rec.spans)
    assert out["inner"]["calls"] == 3 and out["inner"]["errors"] == 1
    assert out["outer"]["calls"] == 2 and out["outer"]["errors"] == 1


def _perturb(path: str, row: int, col: int) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + 1e-6))
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload,name,row,col", [
    ("tables", "spectrum", 5, 2),
    ("tables", "geometry", 7, 4),
    ("exact", "lindblad_2", 30, 2),
])
def test_oracle_rejects_perturbed_csv(tmp_path, workload, name, row, col):
    from isingrelax.cli import main as cli_main
    job = next(j for j in workloads.make_jobs(workload, 3, str(tmp_path)) if j.name == name)
    if name == "spectrum":          # a smaller chain keeps the test fast
        job.argv[job.argv.index("--n") + 1] = "8"
        job.params["n"] = 8
    assert cli_main(job.argv) == 0
    assert checks.check(job, refs={}) is None
    _perturb(job.output, row, col)
    assert checks.check(job, refs={}) is not None


def test_same_seed_same_inputs(tmp_path):
    for workload in workloads.WORKLOADS:
        first = workloads.make_jobs(workload, 11, str(tmp_path / "a"))
        again = workloads.make_jobs(workload, 11, str(tmp_path / "b"))
        other = workloads.make_jobs(workload, 12, str(tmp_path / "c"))

        def inputs(jobs, root):
            argv = [[a.replace(str(root), "<dir>") for a in j.argv] for j in jobs]
            files = {f: (root / f).read_bytes() for f in sorted(os.listdir(root))}
            return argv, files

        assert inputs(first, tmp_path / "a") == inputs(again, tmp_path / "b")
        assert inputs(first, tmp_path / "a") != inputs(other, tmp_path / "c")
        for d in ("a", "b", "c"):
            for f in os.listdir(tmp_path / d):
                os.remove(tmp_path / d / f)
