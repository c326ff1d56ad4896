import csv
import json

import numpy as np
import pytest

from isingrelax.cli import main, parse_float_list, parse_n_range


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_doubling_range(self):
        assert parse_n_range("2:128") == [2, 4, 8, 16, 32, 64, 128]

    def test_arithmetic_range(self):
        assert parse_n_range("4:10:2") == [4, 6, 8, 10]

    def test_bad_range(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_n_range("8:2")

    def test_float_list(self):
        assert parse_float_list("0,0.5,0.9") == [0.0, 0.5, 0.9]


class TestSpectrumCommand:
    def test_row_count_and_meta(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", 6, "--beta", 0.1, "--output", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 64
        meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
        assert meta["command"] == "spectrum"
        assert meta["config"]["n"] == 6
        assert meta["config"]["beta"] == 0.1

    def test_large_beta_ground_levels(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", 6, "--beta", 10, "--output", out]) == 0
        rows = read_rows(out)
        assert {rows[0]["bits"], rows[1]["bits"]} == {"000000", "111111"}

    def test_invalid_atom_count_exits_2(self, tmp_path):
        assert run(["spectrum", "--n", 0,
                    "--output", tmp_path / "x.csv"]) == 2


class TestLindbladCommand:
    def test_two_atom_gamma_matches_oracle(self, tmp_path):
        out = tmp_path / "lb.csv"
        assert run(["lindblad", "--n", 2, "--beta", 0.2, "--horizon", 5,
                    "--output", out]) == 0
        rows = read_rows(out)
        from isingrelax.lindblad import two_atom_analytic
        taus = np.array([float(r["tau"]) for r in rows])
        gammas = np.array([float(r["gamma"]) for r in rows])
        want = two_atom_analytic(0.2, taus).gamma
        assert np.max(np.abs(gammas - want) / np.abs(want)) < 1e-6

    def test_free_atoms_monotone_gamma(self, tmp_path):
        out = tmp_path / "lb.csv"
        assert run(["lindblad", "--n", 2, "--beta", 0, "--horizon", 5,
                    "--output", out]) == 0
        gammas = [float(r["gamma"]) for r in read_rows(out)]
        assert all(a >= b - 1e-12 for a, b in zip(gammas, gammas[1:]))

    def test_resource_cap_exits_3(self, tmp_path):
        assert run(["lindblad", "--n", 9, "--output", tmp_path / "x.csv"]) == 3


class TestMeanfieldCommand:
    @pytest.mark.parametrize("flag,value,code", [
        ("--beta", "-0.5", 2), ("--beta", "nan", 2), ("--theta0", "nan", 2),
        ("--horizon", "inf", 2), ("--horizon", "0", 2), ("--horizon", "-1", 2),
        ("--beta", "1", 3)])
    def test_invalid_input_exit_code(self, tmp_path, flag, value, code):
        assert run(["meanfield", "--n", 4, flag, value,
                    "--output", tmp_path / "x.csv"]) == code


@pytest.mark.parametrize("argv", [
    ["meanfield", "--n-samples", "0"],
    ["soliton", "--n-samples", "0"],
    ["soliton", "--n", "1"],
    ["soliton", "--horizon", "inf"],
    ["soliton", "--horizon", "nan"],
    ["lindblad", "--n-samples", "1"],
    ["cavity", "--n-samples", "1"],
    ["sweep", "--n-range", "5"],
    ["sweep", "--betas", "0.5,x"],
    ["geometry", "--geometry", "{list_file}"],
    ["lindblad", "--horizon", "inf"],
    ["lindblad", "--alpha", "nan", "--horizon", "0.5"],
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    list_file = tmp_path / "list.json"
    list_file.write_text("[1, 2]")
    argv = [a.format(list_file=list_file) for a in argv]
    assert run(argv + ["--output", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestDeterminism:
    def test_meanfield_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["meanfield", "--n", 10, "--beta", 0.5, "--horizon", 20,
                "--phase-seed", 11]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_byte_identical_and_sorted(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--betas", "0.5,0", "--n-range", "4:8"]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_rows(a)
        keys = [(float(r["beta"]), int(r["n"])) for r in rows]
        assert keys == sorted(keys)


class TestConfigOverlay:
    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.2, "horizon": 3.0}))
        out = tmp_path / "lb.csv"
        assert run(["lindblad", "--config", cfg, "--horizon", 4.0,
                    "--output", out]) == 0
        meta = json.loads((tmp_path / "lb.csv.meta.json").read_text())
        assert meta["config"]["beta"] == 0.2        # from config file
        assert meta["config"]["horizon"] == 4.0     # explicit flag wins
        assert meta["config"]["n"] == 2             # default preserved

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert run(["lindblad", "--config", cfg,
                    "--output", tmp_path / "x.csv"]) == 2


class TestOtherCommands:
    def test_soliton_columns(self, tmp_path):
        out = tmp_path / "sol.csv"
        assert run(["soliton", "--n", 8, "--beta", 0.9, "--horizon", 10,
                    "--n-samples", 200, "--output", out]) == 0
        rows = read_rows(out)
        assert "sz_7" in rows[0]
        meta = json.loads((tmp_path / "sol.csv.meta.json").read_text())
        assert len(meta["results"]["transition_times"]) == 8

    def test_cavity_meta_rabi(self, tmp_path):
        out = tmp_path / "cav.csv"
        assert run(["cavity", "--n-photons", 1, "--g", 0.01, "--jprime", 0.5,
                    "--output", out]) == 0
        meta = json.loads((tmp_path / "cav.csv.meta.json").read_text())
        res = meta["results"]
        assert res["rabi_extracted"] == pytest.approx(res["two_photon_rabi"],
                                                      rel=0.02)

    def test_geometry_table(self, tmp_path):
        gfile = tmp_path / "geom.json"
        gfile.write_text(json.dumps({
            "positions_k0r": [[0, 0, 0], [0.2, 0, 0], [0, 0.3, 0]],
            "dipole": [0, 0, 1]}))
        out = tmp_path / "geo.csv"
        assert run(["geometry", "--geometry", gfile, "--output", out]) == 0
        rows = read_rows(out)
        assert len(rows) == 3
        assert float(rows[0]["omega_over_gamma0"]) == pytest.approx(
            -1.5 / 0.2 ** 3)

    def test_missing_geometry_file_exits_2(self, tmp_path):
        assert run(["geometry", "--geometry", tmp_path / "none.json",
                    "--output", tmp_path / "x.csv"]) == 2
