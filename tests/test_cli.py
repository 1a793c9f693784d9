import json
import os
import subprocess
import sys

import pytest

from xilab import cli, pipeline
from xilab import master_field as mf
from xilab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExpand:
    def test_riemann_prints_computed_couplings(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--kind", "riemann", "--p", "7")
        assert code == 0
        # the direct expansion's couplings (the published-data row differs;
        # see pipeline.py)
        assert "s_1 = 7.09865" in out
        assert "s_5 = -0.702956" in out

    def test_cosh_couplings(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--kind", "cosh", "--p", "7")
        assert code == 0
        assert "s_1 = 8.42573" in out
        assert "s_3 = 11.8322" in out
        assert "s_5 = 4.98473" in out

    def test_monomial_all_zero(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "--kind", "monomial",
                               "--degree", "8", "--p", "7")
        assert code == 0
        assert "s_" not in out.split("couplings:")[1]

    def test_bad_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--kind", "bogus", "--p", "7"])
        assert exc.value.code == 2

    def test_missing_degree_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--kind", "monomial", "--p", "7")
        assert code == 2
        assert "degree" in err

    def test_kernel_nonconvergence_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "expand", "--kind", "riemann", "--p", "7",
                               "--max-terms", "1")
        assert code == 3
        assert "numerical failure" in err


class TestSolve:
    def test_hermite_table(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--hermite", "--N", "16",
                               "--g", "0.0625")
        assert code == 0
        assert "-3.75" in out
        assert "1.84357" in out
        assert "on critical line: True" in out

    def test_explicit_model_json(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        code, _, _ = run_cli(capsys, "solve", "--kind", "explicit", "--p", "3",
                             "--s", "1", "--N", "4", "--json", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["q"]["N"] == 4
        assert len(doc["roots"]["roots"]) == 4

    def test_json_reproducible(self, capsys):
        args = ("solve", "--kind", "explicit", "--p", "3", "--s", "1",
                "--N", "4", "--json", "-")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("kind_args, row", [
        (("--kind", "cosh", "--p", "7"), "bessel_k"),
        (("--kind", "eta_gamma", "--p", "19"), "eta_gamma"),
    ])
    def test_kind_matches_its_row(self, capsys, monkeypatch, rows, kind_args, row):
        """A kind and its catalogued row share one coupling rule, byte for byte."""
        code, by_kind, _ = run_cli(capsys, "solve", *kind_args, "--N", "16", "--json")
        monkeypatch.setattr(cli, "run_row", lambda rid, N: rows(rid, N))
        code_row, by_row, _ = run_cli(capsys, "solve", "--row", row, "--N", "16", "--json")
        assert code == code_row == 0
        assert by_kind == by_row

    def test_row_airy(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--row", "airy", "--N", "4")
        assert (code, err) == (0, "")
        assert out == (
            "# p=2 N=4 g=0.25 precision=60\n"
            "Q coefficients (highest degree first):\n"
            "  1.0, 0.0, -0.75, 0.0, 0.046875\n"
            "roots:\n"
            "        -0.82534            0.0i  [real]\n"
            "       -0.262324            0.0i  [real]\n"
            "        0.262324            0.0i  [real]\n"
            "         0.82534            0.0i  [real]\n"
            "on critical line: True (0 complex pairs)\n")

    @pytest.mark.parametrize("flag", [
        ("--kind", "cosh"), ("--p", "7"), ("--s", "1"), ("--degree", "0"),
        ("--g", "0.5"), ("--g-mode", "corrected"), ("--hermite",)])
    def test_row_rejects_potential_flags(self, capsys, flag):
        code, out, err = run_cli(capsys, "solve", "--row", "airy", "--N", "4", *flag)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and flag[0] in err

    def test_row_riemann(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--row", "riemann")
        assert code == 0
        assert "141.088" in out

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "roots.csv"
        code, _, _ = run_cli(capsys, "solve", "--hermite", "--N", "4",
                             "--csv", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "re,im,is_real"
        assert len(lines) == 5


class TestZerosAndPsi:
    def test_zeros_bessel(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--function", "bessel_k")
        assert code == 0
        doc = json.loads(out)
        assert abs(float(doc["quadrature_zeros"][0]) - 2.96255) < 1e-3

    def test_psi_grid_csv(self, capsys, tmp_path):
        path = tmp_path / "psi.csv"
        code, _, _ = run_cli(capsys, "psi", "--function", "gen_airy",
                             "--zmin", "0", "--zmax", "1", "--step", "0.5",
                             "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("#") and "precision=" in lines[0]
        assert lines[1] == "z,re_psi,im_psi"
        assert len(lines) == 5

    @pytest.mark.parametrize("grid", [
        ("--step", "0"), ("--step", "-0.1"), ("--zmin", "2", "--zmax", "1")])
    def test_psi_bad_grid_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "psi", "--function", "gen_airy", *grid)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")

    def test_unknown_function_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "zeros", "--function", "nope")
        assert code == 2


class TestTable:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--rows", "airy")
        assert code == 0
        assert "airy" in out and "-5.56709" in out

    def test_full_table_json(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        code, _, _ = run_cli(capsys, "table1", "--json", str(path),
                             "--csv", str(tmp_path / "table.csv"))
        assert code == 0
        doc = json.loads(path.read_text())
        assert len(doc["rows"]) == 8
        byid = {r["function"]: r for r in doc["rows"]}
        assert byid["riemann"]["on_critical_line"] is False
        assert byid["bessel_k"]["on_critical_line"] is True
        assert abs(float(byid["eta_gamma"]["A"]) - 2.7621) < 1e-3
        assert (tmp_path / "table.csv").read_text().startswith("function,")

    def test_calibrate_row(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--row", "bessel_k")
        assert code == 0
        doc = json.loads(out)
        assert abs(float(doc["A"]) - 0.193542) < 1e-4


class TestMasterSaddle:
    def test_master_n1(self, capsys):
        code, out, _ = run_cli(capsys, "master", "--N", "1", "--p", "2",
                               "--sigma", "0.5", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["cost"] < 1e-20
        assert doc["results"][0]["obstruction"] is False

    def test_saddle_row_skips_root_finder(self, capsys, monkeypatch):
        """--row reads the row's potential and g; it does not solve Q_N."""
        run = pipeline.run_row("riemann", N=4).run
        want = mf.saddle_solve(run.potential, float(run.params.g), 4, seed=0,
                               max_iters=250)

        def no_roots(q):
            raise AssertionError("find_roots called")

        monkeypatch.setattr(pipeline, "find_roots", no_roots)
        code, out, _ = run_cli(capsys, "saddle", "--row", "riemann", "--N", "4", "--json")
        doc = json.loads(out)
        assert code == 3
        assert doc["g"] == 1.3473048130529226
        assert doc["a"] == [float(x) for x in want.a]
        assert doc["b"] == [float(x) for x in want.b]
        assert doc["residual_norm"] == want.residual_norm

    def test_saddle_gaussian_reports(self, capsys):
        code, out, _ = run_cli(capsys, "saddle", "--N", "2", "--p", "2",
                               "--g", "1.0", "--max-iters", "40")
        doc = json.loads(out)
        assert "residual_norm" in doc
        assert code in (0, 3)


class TestPrecision:
    def test_flag_changes_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "--precision", "30", "zeros",
                               "--function", "gen_airy")
        assert code == 0
        assert json.loads(out)["precision"] == 30

    def test_too_low_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--precision", "5", "zeros",
                               "--function", "gen_airy")
        assert code == 2

    def test_env_var(self):
        env = dict(os.environ, XI_LAB_PRECISION="25")
        out = subprocess.run(
            [sys.executable, "-m", "xilab.cli", "zeros", "--function", "gen_airy"],
            capture_output=True, text=True, env=env, check=True)
        assert json.loads(out.stdout)["precision"] == 25

    @pytest.mark.parametrize("value", ["abc", "10"])
    def test_bad_env_var_exits_2(self, value):
        env = dict(os.environ, XI_LAB_PRECISION=value)
        out = subprocess.run(
            [sys.executable, "-m", "xilab.cli", "zeros", "--function", "gen_airy"],
            capture_output=True, text=True, env=env)
        assert out.returncode == 2
        assert out.stderr.startswith("error: ")
        assert "Traceback" not in out.stderr
