import csv
import json
import pathlib
import shlex
import time
import tracemalloc

from hypothesis import HealthCheck, given, settings, strategies as st
import numpy as np
import pytest

from isingrelax.cli import (FLOAT_FMT, OPTIONS, build_parser, main, parse_float_list,
                            parse_n_range, write_csv)
from isingrelax.spin_core import DEGENERACY_TOL, BasisState, ChainSpec, energy_of

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


def _fmt(value) -> str:
    """Per-value CSV formatting, the reference for the column writer."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return FLOAT_FMT % float(value)


def csv_by_rows(header, rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def spectrum_by_state(spec):
    """(rows, n_levels) of the spectrum table built one basis state at a time.

    Levels are grouped from energies that subtract one bond at a time, each
    level holding the states within DEGENERACY_TOL of its lowest energy; each
    row's energy comes from energy_of and its level is the nearest one.
    """
    sz = np.stack([np.where((np.arange(spec.dim) >> i) & 1, 0.5, -0.5)
                   for i in range(spec.n_atoms)])
    by_bond = sz.sum(axis=0)
    for i, j in spec.bonds():
        by_bond = by_bond - spec.beta * sz[i] * sz[j]
    level_energies, degeneracies = [], []
    for k in np.argsort(by_bond, kind="stable"):
        if not level_energies or abs(by_bond[k] - level_energies[-1]) > DEGENERACY_TOL:
            level_energies.append(float(by_bond[k]))
            degeneracies.append(0)
        degeneracies[-1] += 1
    rows = []
    for occ in range(spec.dim):
        state = BasisState(occ, spec.n_atoms)
        e = energy_of(state, spec)
        idx = int(np.argmin(np.abs(np.array(level_energies) - e)))
        rows.append((occ, state.bits(), e, idx, degeneracies[idx]))
    rows.sort(key=lambda r: (r[2], r[0]))
    return rows, len(level_energies)


class TestWriteCsv:
    def test_matches_per_value_formatting(self, tmp_path):
        columns = [np.array([0, -5, 2 ** 40, 7]),
                   np.array([True, False, True, False]),
                   np.array(["a", "0110", "", "x y"]),
                   np.array([np.nan, np.inf, -np.inf, 0.1]),
                   np.array([-0.0, 1e-300, 5e-324, 1.0 / 3.0]),
                   [1.5, 2.0, -1e300, 123456789.123456789]]
        header = ["i", "flag", "name", "special", "tiny", "listed"]
        out = tmp_path / "t.csv"
        write_csv(str(out), header, columns)
        assert out.read_text() == csv_by_rows(header, zip(*columns))

    def test_zero_rows_is_header_only(self, tmp_path):
        out = tmp_path / "t.csv"
        write_csv(str(out), ["i", "x", "s"],
                  [np.array([], int), np.array([]), np.array([], str)])
        assert out.read_text() == "i,x,s\n" == csv_by_rows(["i", "x", "s"], [])

    def test_rejects_header_column_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(str(tmp_path / "t.csv"), ["a", "b"], [np.arange(3)])


class TestSpectrumCommand:
    @pytest.mark.parametrize("n,beta,chain", [
        (1, 0.3, ("nearest_neighbor", "cyclic")),
        (2, 0.5, ("nearest_neighbor", "cyclic")),
        (10, 0.5, ("nearest_neighbor", "cyclic")),
        (10, 0.9, ("nearest_neighbor", "open")),
        (9, 0.25, ("all_pairs", "cyclic")),
        (12, 0.0, ("nearest_neighbor", "cyclic")),
        (12, 0.5, ("all_pairs", "open")),
    ])
    def test_bytes_match_per_state_table(self, tmp_path, n, beta, chain):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", n, "--beta", beta, "--range", chain[0],
                    "--boundary", chain[1], "--output", out]) == 0
        rows, n_levels = spectrum_by_state(ChainSpec(n, beta, *chain))
        want = csv_by_rows(["occupation", "bits", "energy", "level", "degeneracy"], rows)
        # compared line by line: pytest's diff of two long strings is quadratic
        assert out.read_text().split("\n") == want.split("\n")
        meta = json.loads((tmp_path / "spec.csv.meta.json").read_text())
        assert meta["results"]["n_levels"] == n_levels

    def test_over_cap_exits_3_before_allocating(self, tmp_path):
        tracemalloc.start()
        try:
            assert run(["spectrum", "--n", 21, "--output", tmp_path / "x.csv"]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20   # one 2^21 float row alone is 16 MiB
        assert not (tmp_path / "x.csv").exists()

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
        assert run(["lindblad", "--n", 11, "--output", tmp_path / "x.csv"]) == 3

    def test_eight_atoms_finish_in_bounded_time(self, tmp_path):
        # 2.2 s on a 2-vCPU host with one BLAS thread; the full dim^2 solve took 35 s
        out = tmp_path / "lb8.csv"
        t0 = time.perf_counter()
        assert run(["lindblad", "--n", 8, "--beta", 0.3, "--horizon", 0.2,
                    "--n-samples", 5, "--output", out]) == 0
        assert time.perf_counter() - t0 < 15.0
        meta = json.loads((tmp_path / "lb8.csv.meta.json").read_text())
        assert meta["diagnostics"]["sector_size"] == 12870
        assert meta["diagnostics"]["liouville_size"] == 65536

    def test_group_and_orbit_diagnostics(self, tmp_path):
        out, meta_path = tmp_path / "lb.csv", tmp_path / "lb.csv.meta.json"
        argv = ["lindblad", "--n", 6, "--beta", 0.3, "--omega", 0.5, "--horizon", 2,
                "--n-samples", 20, "--output", out]
        assert run(argv) == 0
        first = (out.read_bytes(), meta_path.read_bytes())
        diagnostics = json.loads(first[1])["diagnostics"]
        assert (diagnostics["group_order"], diagnostics["orbit_count"],
                diagnostics["sector_size"]) == (12, 96, 924)
        assert all(type(diagnostics[k]) is int for k in ("group_order", "orbit_count"))
        assert run(argv) == 0
        assert (out.read_bytes(), meta_path.read_bytes()) == first

    def test_diagnostics_flag_min_eig_without_failing(self, tmp_path):
        out = tmp_path / "lb.csv"
        argv = ["lindblad", "--n", 4, "--beta", 0.3, "--horizon", 2,
                "--n-samples", 20, "--output", out]
        assert run(argv) == 0
        meta_path = tmp_path / "lb.csv.meta.json"
        first = (out.read_bytes(), meta_path.read_bytes())
        meta = json.loads(first[1])
        worst = min(float(r["min_eig"]) for r in read_rows(out))
        assert meta["diagnostics"] == {
            "n_rhs_evals": meta["results"]["n_rhs_evals"], "sector_size": 70,
            "group_order": 8, "orbit_count": 15, "liouville_size": 256, "worst_min_eig": worst, "min_eig_floor": -1e-8,
            "min_eig_below_floor": True}
        assert worst < -1e-8
        assert run(argv) == 0
        assert (out.read_bytes(), meta_path.read_bytes()) == first


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
    ["lindblad", "--config", "{list_file}"],
    ["lindblad", "--config", "{str_n_file}"],
    ["geometry"],
    ["cavity", "--g", "nan"],
    ["cavity", "--g", "inf"],
    ["cavity", "--jprime", "nan"],
    ["soliton", "--beta", "nan"],
    ["soliton", "--beta", "-0.5"],
    ["sweep", "--betas", ","],
    ["geometry", "--geometry", "{dipole_only_file}"],
    ["geometry", "--geometry", "{object_positions_file}"],
    ["geometry", "--geometry", "{object_dipole_file}"],
])
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, argv):
    list_file = tmp_path / "list.json"
    list_file.write_text("[1, 2]")
    str_n_file = tmp_path / "str_n.json"
    str_n_file.write_text('{"n": "6"}')
    dipole_only_file = tmp_path / "dipole_only.json"
    dipole_only_file.write_text('{"dipole": [0, 0, 1]}')
    object_positions_file = tmp_path / "object_positions.json"
    object_positions_file.write_text('{"positions_k0r": {"x": 0}, "dipole": [0, 0, 1]}')
    object_dipole_file = tmp_path / "object_dipole.json"
    object_dipole_file.write_text('{"positions_k0r": [[0, 0, 0]], "dipole": {"z": 1}}')
    argv = [a.format(list_file=list_file, str_n_file=str_n_file,
                     dipole_only_file=dipole_only_file,
                     object_positions_file=object_positions_file,
                     object_dipole_file=object_dipole_file) for a in argv]
    assert run(argv + ["--output", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@st.composite
def wrongly_typed_config(draw):
    """(command, key, value) with a JSON value of the wrong type for that option."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    key = draw(st.sampled_from(sorted(OPTIONS[command][1])))
    typ, default = OPTIONS[command][1][key][:2]
    bad = [st.booleans(), st.lists(st.integers(), max_size=3)]
    if default is not None:
        bad.append(st.none())
    if typ in (int, float):
        bad.append(st.text(max_size=6))
    if typ is int:
        bad.append(st.floats(allow_nan=False, allow_infinity=False)
                   .filter(lambda x: not x.is_integer()))
    if isinstance(typ, tuple):
        bad.append(st.text(max_size=20).filter(lambda x: x not in typ))
    return command, key, draw(st.one_of(bad))


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=wrongly_typed_config())
def test_wrongly_typed_config_value_exits_2_with_one_line(tmp_path, capsys, case):
    command, key, value = case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run([command, "--config", cfg, "--output", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_readme_cli_examples_parse():
    lines = [line for line in README.read_text().splitlines()
             if line.startswith("isingrelax ")]
    assert len(lines) == len(OPTIONS)
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_geometry_missing_key_names_file_and_key(tmp_path, capsys):
    atoms = tmp_path / "atoms.json"
    atoms.write_text('{"dipole": [0, 0, 1]}')
    assert run(["geometry", "--geometry", atoms, "--output", tmp_path / "x.csv"]) == 2
    err = capsys.readouterr().err
    assert str(atoms) in err and "missing positions_k0r" in err


class TestDiagnostics:
    def meta(self, out):
        return json.loads(pathlib.Path(str(out) + ".meta.json").read_text())

    @pytest.mark.parametrize("extra,path", [([], "uniform"),
                                            (["--phase-seed", "3"], "sites")])
    def test_meanfield_reports_path_and_rhs_evals(self, tmp_path, extra, path):
        out = tmp_path / "mf.csv"
        assert run(["meanfield", "--n", 6, "--horizon", 2, "--n-samples", 20,
                    "--output", out] + extra) == 0
        diagnostics = self.meta(out)["diagnostics"]
        assert diagnostics["mf_path"] == path
        assert diagnostics["n_rhs_evals"] > 0

    def test_sweep_counts_rows_per_path(self, tmp_path):
        out = tmp_path / "sw.csv"
        assert run(["sweep", "--betas", "0,0.5", "--n-range", "4:8",
                    "--output", out]) == 0
        assert self.meta(out)["diagnostics"] == {"rows_per_mf_path": {"uniform": 4,
                                                                      "sites": 0}}
        assert run(["sweep", "--betas", "0.5", "--n-range", "4:8", "--phase-seed", 2,
                    "--horizon", 1, "--output", out]) == 0
        assert self.meta(out)["diagnostics"] == {"rows_per_mf_path": {"uniform": 0,
                                                                      "sites": 2}}


    @pytest.mark.parametrize("g,jprime,warning", [(0.2, 0.5, True), (0.01, 5.0, False),
                                                  (0.01, 0.0, None)])
    def test_cavity_reports_strong_coupling_validity(self, tmp_path, g, jprime, warning):
        out = tmp_path / "cav.csv"
        assert run(["cavity", "--g", g, "--jprime", jprime, "--horizon", 10,
                    "--n-samples", 16, "--output", out]) == 0
        meta = self.meta(out)
        if warning is None:
            assert "diagnostics" not in meta
        else:
            assert meta["diagnostics"] == {"strong_validity_warning": warning,
                                           "strong_validity_threshold": 0.3}


class TestDeterminism:
    def test_meanfield_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["meanfield", "--n", 10, "--beta", 0.5, "--horizon", 20,
                "--phase-seed", 11]
        assert run(args + ["--output", a]) == 0
        assert run(args + ["--output", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("beta", [0.25, 0.9])
    def test_lindblad_independent_of_global_rng(self, tmp_path, beta):
        # expm_multiply's norm estimates draw from numpy's global RNG; at
        # beta = 0.9 some draws change its step choice
        out = tmp_path / "lb.csv"
        args = ["lindblad", "--n", 6, "--beta", beta, "--omega", 0.5, "--horizon", 5,
                "--n-samples", 100, "--output", out]
        runs = []
        for seed in (0, 1):
            np.random.seed(seed)
            state = np.random.get_state()[1].copy()
            assert run(args) == 0
            assert np.array_equal(np.random.get_state()[1], state)
            runs.append((out.read_bytes(), (tmp_path / "lb.csv.meta.json").read_bytes()))
        assert runs[0] == runs[1]
        assert json.loads(runs[0][1])["results"]["n_rhs_evals"] > 0

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

    def test_geometry_one_atom_writes_header_only(self, tmp_path):
        gfile = tmp_path / "geom.json"
        gfile.write_text(json.dumps({"positions_k0r": [[0, 0, 0]], "dipole": [0, 0, 1]}))
        out = tmp_path / "geo.csv"
        assert run(["geometry", "--geometry", gfile, "--output", out]) == 0
        assert out.read_text() == "i,j,k0r,cos_chi,F_at_k0r,omega_over_gamma0\n"
        meta = json.loads((tmp_path / "geo.csv.meta.json").read_text())
        assert meta["results"]["n_pairs"] == 0

    def test_missing_geometry_file_exits_2(self, tmp_path):
        assert run(["geometry", "--geometry", tmp_path / "none.json",
                    "--output", tmp_path / "x.csv"]) == 2
