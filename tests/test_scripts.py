"""Smoke test of the experiment scripts: each runs on tiny inputs and writes its CSVs."""

import pathlib
import runpy
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,args,outputs", [
    ("two_atom_relaxation.py", ["--betas", "0.1", "--horizon", "1"],
     ["two_atom_beta0.1.csv"]),
    ("pulse_profiles.py", ["--n", "4", "--betas", "0.5", "--horizon", "2"],
     ["pulse_n4_beta0.5.csv"]),
    ("superradiant_gain.py", ["--n", "10", "--betas", "0.0", "0.3"],
     ["superradiant_gain.csv", "peak_scaling.csv"]),
])
def test_script_writes_csv(tmp_path, monkeypatch, script, args, outputs):
    monkeypatch.setattr(sys, "argv", [script, "--outdir", str(tmp_path), *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    for name in outputs:
        lines = (tmp_path / name).read_text().splitlines()
        assert len(lines) >= 2


def test_superradiant_gain_rejects_nan_beta(tmp_path, monkeypatch, time_limit):
    time_limit(10)
    monkeypatch.setattr(sys, "argv", ["superradiant_gain.py", "--outdir", str(tmp_path),
                                      "--betas", "nan"])
    with pytest.raises(ValueError):
        runpy.run_path(str(SCRIPTS / "superradiant_gain.py"), run_name="__main__")
