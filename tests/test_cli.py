import ast
import json
import os
import pathlib
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from oracles import hermite_q
from xilab import baker_akhiezer as ba
from xilab import cli, pipeline
from xilab import errors as err
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
        """The explicit kind without --s is the monomial x^8/8: no couplings."""
        code, out, _ = run_cli(capsys, "expand", "--kind", "explicit", "--p", "7")
        assert code == 0
        assert "s_" not in out.split("couplings:")[1]

    def test_bad_kind_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--kind", "bogus", "--p", "7"])
        assert exc.value.code == 2

    def test_missing_kind_names_the_flag(self, capsys):
        code, out, err_text = run_cli(capsys, "expand")
        assert (code, out) == (2, "")
        assert err_text == "config error: expand needs a potential: --kind\n"

    @pytest.mark.parametrize("argv, flag", [
        (("solve", "--kind", "cosh", "--s", "1,2,3", "--N", "4"), "--s"),
        (("expand", "--kind", "eta_gamma", "--s", "1", "--p", "19"), "--s"),
        (("solve", "--kind", "ramanujan", "--s", "5", "--N", "4"), "--s"),
        (("expand", "--kind", "riemann", "--s", "1", "--p", "7"), "--s")])
    def test_kind_rejects_flags_it_does_not_read(self, capsys, argv, flag):
        """--s is for explicit; --p is every kind's model degree, and the
        other kinds read no other flag."""
        code, out, err_text = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err_text.startswith("config error: ") and err_text.endswith(f"drop {flag}\n")

    def test_kernel_sums_take_no_term_cap(self, capsys):
        """The kernel sums stop by their own rule: --max-terms is not a flag."""
        with pytest.raises(SystemExit) as exc:
            main(["expand", "--kind", "riemann", "--p", "7", "--max-terms", "9"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-terms 9" in capsys.readouterr().err


class TestSolve:
    def test_hermite_table(self, capsys):
        """The airy row is the quadratic model: with g = 1/16 its Q_16 is the
        scaled Hermite closed form."""
        code, out, _ = run_cli(capsys, "solve", "--row", "airy", "--N", "16",
                               "--g", "0.0625")
        assert code == 0
        assert "-3.75" in out
        assert "1.84357" in out
        assert "on critical line: True" in out
        code, out, _ = run_cli(capsys, "solve", "--row", "airy", "--N", "16",
                               "--g", "0.0625", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["g"].startswith("0.0625000")
        with mp.workdps(doc["precision"]):
            want = hermite_q(16, mp.mpf("0.0625")).coeffs
            got = [mp.mpf(c) for c in doc["q"]["coeffs"]]
            assert len(got) == len(want) == 17
            assert all(abs(a - b) <= mp.mpf("1e-50") * max(1, abs(b))
                       for a, b in zip(got, want))

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
        (("--kind", "explicit", "--p", "7"), "gen_airy"),
        (("--kind", "explicit", "--p", "2"), "airy"),
    ])
    def test_kind_matches_its_row(self, capsys, kind_args, row):
        """A kind and its catalogued row share one coupling rule, byte for byte."""
        code, by_kind, _ = run_cli(capsys, "solve", *kind_args, "--N", "16", "--json")
        code_row, by_row, _ = run_cli(capsys, "solve", "--row", row, "--N", "16", "--json")
        assert code == code_row == 0
        assert by_kind == by_row

    def test_expand_explicit_p2(self, capsys):
        """expand takes the explicit kind at p = 2, the quadratic model x^3/3
        (it exited 2, "explicit couplings need p >= 3")."""
        code, out, _ = run_cli(capsys, "expand", "--kind", "explicit", "--p", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["scaled"]["s"] == [] and doc["a"][3].startswith("0.33333")

    @pytest.mark.parametrize("argv", [
        ("solve", "--kind", "explicit", "--p", "7", "--s", "0,0,0,0,1e31", "--N", "4"),
        ("master", "--N", "2", "--p", "3", "--s", "1e30")])
    def test_large_coupling_is_not_a_vanishing_leading_term(self, capsys, argv):
        """At 60 digits the rescale took the exact x^(p+1) coefficient 1/(p+1)
        for rounding dust beside a coupling near 1e30: exit 2, "x^4
        coefficient vanishes (0.25)"."""
        code, _, err_text = run_cli(capsys, *argv)
        assert (code, err_text) == (0, "")

    def test_no_potential_names_the_choices(self, capsys):
        code, out, err_text = run_cli(capsys, "solve", "--N", "4")
        assert (code, out) == (2, "")
        assert err_text == "config error: solve needs a potential: --kind or --row\n"

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
        ("--kind", "cosh"), ("--p", "7"), ("--s", "1"), ("--kind", "explicit"),
        ("--p", "2"), ("--s", "0.5,0.25")])
    def test_row_rejects_potential_flags(self, capsys, flag):
        """Rejected even when the flag agrees with the row (airy is p=2)."""
        code, out, err = run_cli(capsys, "solve", "--row", "airy", "--N", "4", *flag)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and flag[0] in err

    @pytest.mark.parametrize("flag", [
        ("--kind", "cosh"), ("--p", "9"), ("--s", "1"), ("--kind", "explicit")])
    def test_hermite_rejects_model_flags(self, capsys, flag):
        """--g overrides the row's g; the potential still comes from the row."""
        code, out, err = run_cli(capsys, "solve", "--row", "airy", "--N", "4",
                                 "--g", "0.0625", *flag)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and flag[0] in err

    @pytest.mark.parametrize("argv", [
        ("calibrate", "--row", "riemann"),
        ("solve", "--hermite", "--N", "4"),
        ("master", "--N", "1", "--seed", "3"),
        ("master", "--N", "2", "--tau", "1")])
    def test_removed_entry_points_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2

    @pytest.mark.parametrize("row, roots", [
        ("riemann", ("-26.4753", "-7.59472")), ("airy", ("-0.5", "0.5"))])
    def test_row_solves_without_calibrating(self, capsys, row, roots):
        """solve --row prints the roots even where the row cannot be calibrated."""
        code, out, err_text = run_cli(capsys, "solve", "--row", row, "--N", "2")
        assert (code, err_text) == (0, "")
        real = [line.split()[0] for line in out.splitlines() if line.endswith("[real]")]
        assert real == list(roots)

    def test_row_riemann(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--row", "riemann")
        assert code == 0
        assert "141.088" in out

    def test_csv_export(self, capsys, tmp_path):
        path = tmp_path / "roots.csv"
        code, _, _ = run_cli(capsys, "solve", "--row", "airy", "--N", "4",
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
        assert all(len(z.split(".")[1]) == 12 for z in doc["quadrature_zeros"])
        assert doc["reference_zeros"] == ["2.96255", "4.53449", "5.87987"]
        assert doc["reference_provenance"] == "published-table"

    def test_too_few_dips_exits_3(self, capsys):
        """The dip scan returns the dips above the noise floor; too few is a
        numerical failure, said by the one check both scans share."""
        code, out, err_text = run_cli(capsys, "zeros", "--function", "eta_gamma_corrected")
        assert (code, out) == (3, "")
        assert err_text == ("numerical failure: found 2 of 3 |psi| dips for "
                            "eta_gamma_corrected\n")

    def test_psi_grid_csv(self, capsys, tmp_path):
        path = tmp_path / "psi.csv"
        code, _, _ = run_cli(capsys, "psi", "--function", "gen_airy",
                             "--zmin", "0", "--zmax", "1", "--step", "0.5",
                             "--out", str(path))
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "# function=gen_airy"
        assert lines[1] == "z,re_psi,im_psi"
        assert len(lines) == 5

    @pytest.mark.parametrize("grid", [
        ("--step", "0"), ("--step", "-0.1"), ("--zmin", "2", "--zmax", "1")])
    def test_psi_bad_grid_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "psi", "--function", "gen_airy", *grid)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")

    def test_psi_above_band_exits_2(self, capsys):
        # the trapezoid sum aliases above z = 80; no aliased values printed
        code, out, err = run_cli(capsys, "psi", "--function", "gen_airy",
                                 "--zmin", "0", "--zmax", "81", "--step", "1")
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and "|z| <= 80" in err

    @pytest.mark.parametrize("grid", [
        ("--zmax", "inf"), ("--zmin", "nan"), ("--step", "inf")])
    def test_psi_non_finite_grid_exits_2(self, capsys, grid):
        code, out, err = run_cli(capsys, "psi", "--function", "gen_airy", *grid)
        assert (code, out) == (2, "")
        assert err == "config error: --zmin, --zmax and --step must be finite\n"

    def test_psi_row_depends_on_z_alone(self, capsys):
        """The psi(0) row reads the same on the default grid and on a short
        grid from -0.0 (it printed ...168e-01 and ...162e-01, and -0 as z)."""
        rows = []
        for grid in ((), ("--zmin", "-0.0", "--zmax", "0.1")):
            code, out, _ = run_cli(capsys, "psi", "--function", "bessel_k", *grid)
            assert code == 0
            rows.append(out.splitlines()[2])
        assert rows[0] == rows[1]
        assert rows[0].startswith("0,8.42048876481")

    def test_psi_streams_200k_rows(self, tmp_path):
        """psi writes its CSV a block of rows at a time: 200k rows print the
        bytes one psi_grid call over the whole grid gives, and the process
        peaks no higher than at 2k rows (one call held ~45 MB more)."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
        child = ("import resource, sys; from xilab.cli import main; rc = main(sys.argv[1:]); "
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)")
        peaks = {}
        for step in ("0.04", "0.0004"):
            path = tmp_path / f"psi-{step}.csv"
            done = subprocess.run(
                [sys.executable, "-c", child, "psi", "--function", "bessel_k",
                 "--zmin", "0", "--zmax", "80", "--step", step, "--out", str(path)],
                capture_output=True, text=True, env=env, check=True)
            peaks[step] = int(done.stdout.split()[-1]) / 1024
        f = ba.QUADRATURE_INTEGRANDS["bessel_k"]()
        zs = np.arange(0.0, 80.0 + 0.0004 / 2, 0.0004)
        want = "".join(["# function=bessel_k\nz,re_psi,im_psi\n"]
                       + [f"{z:.12g},{v.real:.15e},{v.imag:.15e}\n"
                          for z, v in zip(zs, f.psi_grid(zs))])
        assert len(zs) == 200_001
        assert (tmp_path / "psi-0.0004.csv").read_text() == want
        assert peaks["0.0004"] - peaks["0.04"] < 8, peaks

    @pytest.mark.parametrize("function, count", [
        ("bessel_k", "0"), ("bessel_k", "-2"), ("eta_gamma_corrected", "-1")])
    def test_zeros_count_below_1_exits_2(self, capsys, function, count):
        """On the sign-change scan (even integrand) and the |psi| dip scan,
        which once printed one dip for a count of -1."""
        code, out, err_text = run_cli(capsys, "zeros", "--function", function,
                                      "--count", count)
        assert (code, out) == (2, "")
        assert err_text == f"config error: zero count must be >= 1, got {count}\n"

    def test_unknown_function_exits_2(self, capsys):
        """psi and zeros look the name up in one place, and say the same."""
        want = (f"config error: no quadrature integrand for 'nope'; "
                f"known: {sorted(ba.QUADRATURE_INTEGRANDS)}\n")
        for command in ("psi", "zeros"):
            code, out, err_text = run_cli(capsys, command, "--function", "nope")
            assert (code, out, err_text) == (2, "", want), command

    def test_zeros_without_reference_exits_2_before_quadrature(self, capsys, monkeypatch):
        def no_scan(*args):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(cli.ba, "quadrature_zeros", no_scan)
        code, out, err_text = run_cli(capsys, "zeros", "--function", "eta_gamma")
        assert (code, out) == (2, "")
        assert err_text.startswith("config error: no reference zeros for 'eta_gamma'")

    def test_corrected_eta_gamma_uses_the_riemann_table(self, capsys):
        """Its |psi| dips sit at the zeta zeros, so it has the riemann table."""
        code, out, err_text = run_cli(capsys, "zeros", "--function", "eta_gamma_corrected",
                                      "--count", "2")
        assert (code, err_text) == (0, "")
        doc = json.loads(out)
        assert doc["reference_zeros"] == ["14.1347", "21.022", "25.0109"]
        for got, want in zip(doc["quadrature_zeros"], doc["reference_zeros"]):
            assert abs(float(got) - float(want)) < 0.02


class TestTable:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--rows", "airy")
        assert code == 0
        assert out.splitlines()[2].split()[:3] == ["Ai(z)", "i", "x^3/3"]
        assert "-5.56709" in out

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
        """A one-row report holds the row's calibration and zeros."""
        code, out, _ = run_cli(capsys, "table1", "--rows", "bessel_k", "--json")
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert abs(float(row["A"]) - 0.193542) < 1e-4
        assert [z[:7] for z in row["reference_zeros"]] == ["2.96255", "4.53449", "5.87987"]
        assert len(row["estimated_zeros"]) == 3
        assert (row["on_critical_line"], row["n_complex_pairs"]) == (True, 0)

    def test_repeated_row_exits_2(self, capsys):
        """A repeated row ran twice and printed once."""
        code, out, err_text = run_cli(capsys, "table1", "--rows", "airy,riemann,airy")
        assert (code, out) == (2, "")
        assert err_text == "config error: rows ['airy'] given more than once\n"

    def test_subset_writes_json_and_csv_in_row_order(self, capsys, tmp_path):
        jpath, cpath = tmp_path / "t.json", tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "table1", "--rows", "riemann,airy",
                               "--json", str(jpath), "--csv", str(cpath))
        assert (code, out) == (0, "")
        assert [r["function"] for r in json.loads(jpath.read_text())["rows"]] == \
            ["airy", "riemann"]
        lines = cpath.read_text().splitlines()
        assert [ln.split(",")[0] for ln in lines] == ["function", "airy", "riemann"]

    @pytest.mark.parametrize("row", ["riemann", "airy"])
    def test_calibrate_too_few_real_roots_exits_3(self, capsys, row):
        code, out, err_text = run_cli(capsys, "table1", "--rows", row, "--N", "2")
        assert (code, out) == (3, "")
        assert err_text.startswith("numerical failure: ")
        assert f"row {row} at N=2 has 2 real roots" in err_text and "needs 3" in err_text

    def test_table_too_few_real_roots_lists_each_row(self, capsys):
        code, out, err_text = run_cli(capsys, "table1", "--N", "2")
        assert (code, out) == (3, "")
        lines = err_text.splitlines()
        assert len(lines) == len(pipeline.ROW_IDS)
        for rid, line in zip(pipeline.ROW_IDS, lines):
            assert line.startswith(f"numerical failure: row {rid} at N=2 has 2 real roots")

    def test_any_package_error_exits_3(self, capsys, monkeypatch):
        """A failing row prints its failure on stderr; the other rows render."""
        def fail_riemann(row_id, N):
            if row_id == "riemann":
                raise err.XilabError("anchor roots coincide")
            return pipeline.run_row(row_id, N)

        monkeypatch.setattr(cli, "run_row", fail_riemann)
        code, out, err_text = run_cli(capsys, "table1", "--rows", "airy,riemann", "--json")
        assert code == 3
        assert err_text == "numerical failure: anchor roots coincide\n"
        assert [r["function"] for r in json.loads(out)["rows"]] == ["airy"]

    def test_row_config_error_exits_2(self, capsys, monkeypatch):
        """Only package errors are a row's numerical failure."""
        def bad_config(row_id, N):
            raise ValueError("bad row setting")

        monkeypatch.setattr(cli, "run_row", bad_config)
        code, out, err_text = run_cli(capsys, "table1", "--rows", "airy,riemann")
        assert (code, out) == (2, "")
        assert err_text == "config error: bad row setting\n"


@pytest.mark.parametrize("dps", ["15", "30", "60"])
def test_expand_and_solve_share_the_cosh_couplings(capsys, dps):
    """expand took the cosh couplings from the rescaled series, solve from the
    closed form; they differed in the last digits (p = 11 at 60 digits)."""
    for p in range(3, 20, 2):
        _, expanded, _ = run_cli(capsys, "--precision", dps, "expand", "--kind", "cosh",
                                 "--p", str(p), "--json")
        _, solved, _ = run_cli(capsys, "--precision", dps, "solve", "--kind", "cosh",
                               "--p", str(p), "--N", "4", "--json")
        assert json.loads(expanded)["scaled"]["s"] == json.loads(solved)["params"]["s"], p


@pytest.mark.parametrize("argv, removed", [
    (("solve", "--kind", "monomial", "--degree", "8", "--p", "7"), "monomial"),
    (("expand", "--kind", "monomial", "--degree", "8"), "monomial"),
    (("expand", "--kind", "riemann", "--degree", "4", "--p", "3"), "--degree"),
    (("master", "--N", "2", "--restarts", "2"), "--restarts"),
    (("master", "--N", "2", "--max-iters", "5"), "--max-iters"),
    (("saddle", "--N", "2", "--max-iters", "5"), "--max-iters")])
def test_removed_settings_exit_2(capsys, argv, removed):
    """The monomial kind is the explicit kind without --s, and the solver caps
    are constants: none of these is a setting."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert removed in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (("master", "--seeds", "1.5"), "--seeds"),
    (("master", "--seeds", "-1"), "--seeds"),
    (("saddle", "--seed", "-1"), "--seed")])
def test_bad_seed_names_its_flag(capsys, argv, flag):
    """A bad seed printed "invalid literal for int()" or numpy's "expected
    non-negative integer", naming no flag."""
    with pytest.raises(SystemExit) as exc:
        main(["--precision", "15", *argv, "--N", "2"])
    assert exc.value.code == 2
    assert f"argument {flag}: expected a non-negative integer, got '{argv[-1]}'" \
        in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, bad", [
    (("solve", "--kind", "explicit", "--p", "7", "--s", "1,,3"), "--s", ""),
    (("master", "--p", "3", "--s", "x"), "--s", "x"),
    (("solve", "--row", "riemann", "--g", "abc"), "--g", "abc"),
    (("saddle", "--g", "1,5"), "--g", "1,5")])
def test_malformed_number_names_its_flag(capsys, argv, flag, bad):
    """These printed float()'s "could not convert string to float", naming
    no flag."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"argument {flag}: expected a number, got '{bad}'" in capsys.readouterr().err


class TestMasterSaddle:
    def test_master_n1(self, capsys):
        code, out, _ = run_cli(capsys, "master", "--N", "1", "--p", "2",
                               "--sigma", "0.5", "--seeds", "3")
        assert code == 0
        doc = json.loads(out)
        res = doc["results"][0]
        assert set(res) == {"seed", "cost", "obstruction", "iterations", "stop",
                            "restarts", "trace"}
        assert res["cost"] < 1e-20
        assert res["obstruction"] is False
        assert (res["stop"], res["restarts"]) == ("floor", 1)

    def test_saddle_row_skips_root_finder(self, capsys, monkeypatch):
        """--row reads the row's potential and g; it does not solve Q_N."""
        run = pipeline.run_row("riemann", N=4).run
        want = mf.saddle_solve(run.potential, float(run.params.g), 4, seed=0)

        def no_roots(q):
            raise AssertionError("find_roots called")

        monkeypatch.setattr(pipeline, "find_roots", no_roots)
        code, out, _ = run_cli(capsys, "saddle", "--row", "riemann", "--N", "4", "--json")
        doc = json.loads(out)
        assert code == (0 if want.converged else 3)
        assert doc["g"] == 1.3473048130529226
        assert doc["a"] == [float(x) for x in want.a]
        assert doc["b"] == [float(x) for x in want.b]
        assert doc["residual_norm"] == want.residual_norm
        assert doc["solutions"] == [{"a": list(a), "b": list(b), "residual_norm": r}
                                    for a, b, r in want.solutions]
        assert doc["n_complex"] == want.n_complex

    @pytest.mark.parametrize("command", ["master", "saddle"])
    @pytest.mark.parametrize("flag", [("--p", "5"), ("--s", "9")])
    def test_row_rejects_p_and_s(self, capsys, command, flag):
        code, out, err = run_cli(capsys, command, "--row", "riemann", "--N", "2", *flag)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and flag[0] in err

    @pytest.mark.parametrize("command", ["master", "saddle"])
    def test_s_follows_the_explicit_kind(self, capsys, command):
        """--s holds at most p - 2 couplings, as with solve --kind explicit."""
        code, out, err_text = run_cli(capsys, command, "--N", "2", "--p", "3", "--s", "1,2")
        assert (code, out) == (2, "")
        assert err_text == "config error: explicit coupling list longer than p-2 = 1\n"

    def test_saddle_gaussian_reports(self, capsys):
        code, out, _ = run_cli(capsys, "saddle", "--N", "2", "--p", "2", "--g", "1.0")
        doc = json.loads(out)
        assert "residual_norm" in doc
        assert code in (0, 3)


@pytest.mark.parametrize("argv", [
    ("solve", "--kind", "explicit", "--p", "3", "--s", "1", "--N", "4", "--g", "0"),
    ("master", "--N", "2", "--g", "0"),
    ("saddle", "--N", "4", "--p", "3", "--s", "1.5", "--g", "-1")])
def test_nonpositive_g_flag_exits_2(capsys, argv):
    """A non-positive --g is a bad input, not a computed g that left the
    model's domain (that one stays a numerical failure, exit 3)."""
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err_text == f"config error: --g must be positive, got {argv[-1]}.0\n"


@pytest.mark.parametrize("argv", [
    ("master", "--p", "0", "--N", "2"),
    ("master", "--p", "1", "--N", "2"),
    ("saddle", "--p", "1", "--N", "2"),
    ("solve", "--kind", "cosh", "--p", "1"),
    ("solve", "--kind", "eta_gamma", "--p", "1"),
    ("expand", "--kind", "riemann", "--p", "1"),
    ("solve", "--kind", "explicit", "--p", "1")])
def test_model_degree_below_2_exits_2(capsys, argv):
    """master ran p = 0 and 1 on an empty potential; solve failed later, on
    a coefficient (exit 3) or on the coupling range."""
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    p = argv[argv.index("--p") + 1]
    assert err_text == f"config error: model degree p must be >= 2, got {p}\n"


@pytest.mark.parametrize("argv", [
    ("solve", "--kind", "riemann", "--p", "4", "--N", "4"),
    ("expand", "--kind", "riemann", "--p", "4"),
    ("expand", "--kind", "riemann", "--p", "2"),
    ("solve", "--kind", "ramanujan", "--p", "2", "--N", "4")])
def test_vanishing_leading_coefficient_exits_2(capsys, argv):
    """An even kernel at even p has no x^(p+1) term, only rounding dust:
    riemann at p=4 ran on it (g = 1.07e23, lambda = 4.4e-12); riemann at
    p=2 failed on an internal coupling range, and ramanujan at p=2, whose
    dust is negative, exited 3."""
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    p = int(argv[argv.index("--p") + 1])
    assert err_text.startswith(f"config error: the expansion's x^{p + 1} coefficient vanishes")
    assert "--p" in err_text


@pytest.mark.parametrize("argv", [
    ("expand", "--kind", "ramanujan", "--p", "5"),
    ("expand", "--kind", "eta_gamma", "--p", "4"),
    ("solve", "--kind", "riemann", "--p", "5", "--N", "4")])
def test_negative_leading_coefficient_exits_2(capsys, argv):
    """A negative x^(p+1) coefficient is the config error a vanishing one
    is, naming --p; it was a numerical failure, exit 3."""
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    p = int(argv[argv.index("--p") + 1])
    assert err_text.startswith(f"config error: the expansion's x^{p + 1} coefficient "
                               f"is not positive")
    assert "--p" in err_text


@pytest.mark.parametrize("command", [
    ("solve", "--row", "riemann", "--N", "8"),
    ("solve", "--kind", "explicit", "--p", "3", "--N", "4"),
    ("master", "--N", "2"),
    ("saddle", "--N", "2")])
@pytest.mark.parametrize("g", ["inf", "nan", "-inf"])
def test_non_finite_g_flag_exits_2(capsys, command, g):
    """solve --g inf exited 2 with mpmath's "cannot convert inf or nan to
    int", and master --g inf exited 0 with a fit at g = inf."""
    code, out, err_text = run_cli(capsys, *command, f"--g={g}")
    assert (code, out) == (2, "")
    assert err_text == f"config error: --g must be finite, got {g}\n"


@pytest.mark.parametrize("argv, message", [
    (("master", "--N", "2", "--g", "1e400"), "--g gives g = 1.0e+400"),
    (("master", "--N", "2", "--g", "1e-400"), "--g gives g = 1.0e-400"),
    (("master", "--N", "2", "--p", "3", "--s", "1e400"), "--s gives g = 3.5355339e+399"),
    (("saddle", "--N", "3", "--g", "1e400"), "--g gives g = 1.0e+400"),
    (("saddle", "--N", "3", "--g", "1e-400"), "--g gives g = 1.0e-400"),
    (("saddle", "--N", "3", "--p", "3", "--s", "1e400"), "--s gives g = 1.9245009e+399"),
    (("master", "--N", "2", "--p", "3", "--s", "1e400", "--g", "1"),
     "--s gives potential coefficients"),
    (("saddle", "--N", "3", "--p", "3", "--s", "1e400", "--g", "1"),
     "--s gives potential coefficients")])
def test_outside_float64_range_exits_2(capsys, monkeypatch, argv, message):
    """A g or coupling finite at the working precision but not in float64:
    master exited 0 printing "g": Infinity (not JSON) or 1 with
    ZeroDivisionError at g = 1e-400, and saddle exited 3 printing Infinity.
    No solver runs."""
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(mf, "optimize", no_solve)
    monkeypatch.setattr(mf, "saddle_solve", no_solve)
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err_text == f"config error: {message} outside float64's range\n"


@pytest.mark.parametrize("argv", [
    ("master", "--N", "2", "--g", "1e200"),
    ("master", "--N", "2", "--g", "1e-200"),
    ("master", "--N", "2", "--p", "3", "--s", "1e300")])
def test_master_g_square_outside_float64_exits_2(capsys, argv):
    """g is finite in float64 but g^2 or 1/g^2 is not: the fit raised
    OverflowError, a bare traceback (exit 1)."""
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err_text.startswith("config error: g = ")


@pytest.mark.parametrize("argv, cap", [
    (("master", "--N", str(mf.MASTER_MAX_N + 1)), mf.MASTER_MAX_N),
    (("master", "--general", "--N", "1000"), mf.MASTER_MAX_N),
    (("saddle", "--N", str(mf.SADDLE_MAX_N + 1)), mf.SADDLE_MAX_N)])
def test_solver_n_above_its_cap_exits_2(capsys, monkeypatch, argv, cap):
    """master's Jacobian grows as N^4 and saddle's stacked systems as N^2, so
    each caps N; the check fires before either solver draws or allocates."""
    def no_solve(*args):
        raise AssertionError("the solver ran")

    monkeypatch.setattr(mf, "_fixed_inputs", no_solve)
    monkeypatch.setattr(mf, "_vp_float", no_solve)
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err_text.startswith("config error: ") and f"N <= {cap}, got " in err_text


def test_master_bessel_k_stops_at_floor(capsys):
    """At sigma = 0 the start a = 0 solves bessel_k's fit (rho is exactly 0),
    and the floor check ends the search before any Jacobian."""
    code, out, _ = run_cli(capsys, "master", "--row", "bessel_k", "--N", "6", "--sigma", "0",
                           "--seeds", "0", "--json")
    r = json.loads(out)["results"][0]
    assert (code, r["stop"], r["restarts"], r["obstruction"]) == (0, "floor", 1, False)


@pytest.mark.parametrize("argv", [
    ("solve", "--kind", "explicit", "--p", "7", "--s", "1,nan", "--N", "4"),
    ("solve", "--kind", "explicit", "--p", "7", "--s", "1,inf", "--N", "4"),
    ("master", "--p", "3", "--s", "nan"),
    ("master", "--p", "3", "--s", "inf")])
def test_non_finite_coupling_exits_2(capsys, argv):
    """A nan coupling read as a computed g = nan (exit 3); inf made g = inf."""
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    bad = argv[argv.index("--s") + 1].split(",")[-1]
    assert err_text == f"config error: coupling '{bad}' is not finite\n"


@pytest.mark.parametrize("sigma", ["nan", "inf", "-1"])
def test_master_sigma_must_be_finite_and_nonnegative(capsys, sigma):
    """--sigma nan exited 0 and printed "cost": NaN, which is not JSON."""
    code, out, err_text = run_cli(capsys, "master", "--N", "2", f"--sigma={sigma}")
    assert (code, out) == (2, "")
    assert err_text == f"config error: sigma must be finite and >= 0, got {float(sigma)}\n"


@pytest.mark.parametrize("argv", [
    ("master", "--N", "3", "--sigma", "1e200", "--json"),
    ("master", "--N", "3", "--p", "3", "--s", "1e100", "--sigma", "1e300", "--json"),
    ("saddle", "--N", "3", "--g", "1e-200", "--json")])
def test_non_finite_float64_cost_exits_3(capsys, argv):
    """An overflowed master cost exited 0 with "cost": Infinity and stop
    "floor" (inf <= inf); a saddle solve with no finite residual exited 3
    after printing "residual_norm": Infinity. Neither is JSON."""
    code, out, err_text = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err_text.startswith("numerical failure: ") and err_text.count("\n") == 1


def test_master_large_finite_cost_is_json(capsys):
    """sigma = 1e150 gives a cost near 8e267, finite in float64: the fit
    reports it, in JSON with no Infinity or NaN."""
    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    code, out, _ = run_cli(capsys, "master", "--N", "3", "--sigma", "1e150", "--json")
    r = json.loads(out, parse_constant=no_constant)["results"][0]
    assert (code, r["stop"]) == (0, "floor") and 1e267 < r["cost"] < 1e268


def test_key_error_is_a_bug_not_a_config_error(capsys, monkeypatch):
    """Only a ValueError is bad input (exit 2): a KeyError inside a command
    was reported as "config error: 'x'"; it now keeps its traceback."""
    def lookup_bug(row_id, N):
        return {}["x"]

    monkeypatch.setattr(cli, "run_row", lookup_bug)
    with pytest.raises(KeyError, match="'x'"):
        main(["table1", "--rows", "airy"])
    assert cli.CONFIG_ERRORS is ValueError


def test_raises_name_one_of_two_failure_types():
    """Bad input raises ValueError (exit 2), a numerical failure XilabError
    (exit 3); argparse types raise ArgumentTypeError and an unreachable
    branch AssertionError. errors.py defines XilabError alone."""
    allowed = {"ValueError", "XilabError", "ArgumentTypeError", "AssertionError"}
    src = pathlib.Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else exc.id
                assert name in allowed, f"{path.name}:{node.lineno} raises {name}"
    classes = [n.name for n in ast.parse((src / "errors.py").read_text()).body
               if isinstance(n, ast.ClassDef)]
    assert classes == ["XilabError"]


HERMITE_JSON = ("solve", "--row", "airy", "--N", "4", "--json")


class TestPrecision:
    def test_flag_changes_metadata(self, capsys):
        code, out, _ = run_cli(capsys, "--precision", "30", *HERMITE_JSON)
        assert code == 0
        assert json.loads(out)["precision"] == 30

    def test_too_low_rejected(self, capsys):
        code, _, err = run_cli(capsys, "--precision", "5", *HERMITE_JSON)
        assert code == 2

    @pytest.mark.parametrize("value", ["25", "abc", "10"])
    def test_env_var_does_not_set_precision(self, value):
        """Only --precision sets the working precision; the environment
        variable the command line once read is ignored, valid or not."""
        env = dict(os.environ, XI_LAB_PRECISION=value)
        out = subprocess.run(
            [sys.executable, "-m", "xilab.cli", *HERMITE_JSON],
            capture_output=True, text=True, env=env, check=True)
        assert json.loads(out.stdout)["precision"] == 60

    def test_main_restores_mpmath_precision(self, capsys):
        with mp.workdps(23):
            code, _, _ = run_cli(capsys, "--precision", "30", *HERMITE_JSON)
            assert (code, mp.mp.dps) == (0, 23)
        code, _, _ = run_cli(capsys, "--precision", "5", *HERMITE_JSON)
        assert (code, mp.mp.dps) == (2, 60)

    def test_default_after_a_flagged_call(self, capsys):
        run_cli(capsys, "--precision", "100", *HERMITE_JSON)
        code, out, _ = run_cli(capsys, *HERMITE_JSON)
        assert code == 0
        assert json.loads(out)["precision"] == 60

    @pytest.mark.parametrize("argv", [
        ("zeros", "--function", "gen_airy"),
        ("master", "--N", "1", "--p", "2"),
        ("saddle", "--N", "2", "--p", "2", "--g", "1.0")])
    def test_float64_commands_print_no_precision(self, capsys, argv):
        _, out, _ = run_cli(capsys, "--precision", "30", *argv)
        doc = json.loads(out)
        assert "precision" not in doc and "backend" not in doc


def test_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_in_process_calls_match_fresh_processes(capsys):
    """main calls share one parser: each prints the bytes and exit code a
    fresh process prints for the same argv, whatever ran before it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH", "")]))
    argvs = [("--precision", "30", "solve", "--row", "airy", "--N", "8", "--json"),
             ("zeros", "--function", "gen_airy_133", "--json"),
             ("solve", "--kind", "explicit", "--p", "7", "--s", "-1,0,3,0,0", "--N", "8")]
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "xilab.cli", *argv],
                               capture_output=True, text=True, env=env)
        assert run_cli(capsys, *argv)[:2] == (fresh.returncode, fresh.stdout), argv


@pytest.mark.parametrize("s", ["-1,0,3,0,0", "-1.0,0,3,0,0", "-.5e0,0,3,0,0"])
def test_s_may_start_with_a_negative_number(capsys, s):
    """argparse reads a token like -1,0,3 as an unknown flag (exit 2); main
    joins it to the --s before it, as --s= does."""
    def solve(*flag):
        return run_cli(capsys, "solve", "--kind", "explicit", "--p", "7", *flag,
                       "--N", "16", "--json")

    assert solve("--s", s) == solve("--s=" + s)


def test_negative_s_is_the_gen_airy_m130_model(capsys):
    assert (run_cli(capsys, "solve", "--kind", "explicit", "--p", "7", "--s", "-1,0,3,0,0",
                    "--N", "16", "--json")
            == run_cli(capsys, "solve", "--row", "gen_airy_m130", "--N", "16", "--json"))


def test_negative_exponent_s_reaches_the_model(capsys):
    # before, argparse took -1e10 for a flag: exit 2, "expected one argument";
    # the coupling makes g negative, a numerical failure
    code, out, err = run_cli(capsys, "master", "--N", "3", "--p", "3", "--s", "-1e10")
    assert (code, out) == (3, "")
    assert err.startswith("numerical failure: computed g = ")


@pytest.mark.parametrize("argv", [("saddle", "--N", "12", "--p", "5", "--seed", "2"),
                                  ("saddle", "--row", "eta_gamma", "--N", "3")])
def test_saddle_without_a_real_solution_says_why(capsys, argv):
    """No start reaching a real solution is exit 3 with one stderr line, as
    every numerical failure; the JSON of the best point still prints."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and json.loads(out)["converged"] is False
    assert err.startswith("numerical failure: no start reached a real solution "
                          "(best residual ") and err.count("\n") == 1


def test_readme_saddle_is_silent_on_stderr(capsys):
    code, out, err = run_cli(capsys, "saddle", "--N", "4", "--p", "3", "--s", "1.5",
                             "--g", "1.0", "--json")
    assert (code, err) == (0, "") and json.loads(out)["converged"] is True
