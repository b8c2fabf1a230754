"""Command-line interface: CSV output, determinism, selftests, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cyclorb import cli
from cyclorb import frobenius as fb, monodromy as mn, rsos, specfun as sf
from cyclorb import yanglee_chain as ylc


def run_cli(args):
    return cli.main(list(args))


class TestBlocks:
    def test_csv_columns(self, capsys, tmp_path):
        out = tmp_path / "blocks.csv"
        code = run_cli(["blocks", "--model", "yl1int_gs",
                        "--grid", "0.4:0.6:3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,I_1,I_2,I_3"
        assert len(lines) == 4

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run_cli(["blocks", "--model", "yl2int_vac",
                        "--grid", "0.3:0.3:0", "--out", str(out)])
        assert code == 0
        assert out.read_text().strip() == "x,I_1,I_2"

    def test_ising_has_three_columns(self, tmp_path):
        out = tmp_path / "ising.csv"
        run_cli(["blocks", "--model", "ising2int_vac",
                 "--grid", "0.4:0.5:2", "--out", str(out)])
        assert out.read_text().splitlines()[0].count("I_") == 3

    def test_bad_grid_usage_error(self):
        assert run_cli(["blocks", "--model", "yl2int_vac", "--grid", "oops"]) == 2

    def test_partial_sums_match_series(self, tmp_path):
        import cyclorb as cy
        out = tmp_path / "b.csv"
        run_cli(["blocks", "--model", "yl1int_gs", "--grid", "0.5:0.5:1",
                 "--out", str(out)])
        val = float(out.read_text().strip().splitlines()[1].split(",")[1])
        model = cy.get_model("yl1int_gs")
        ref = fb.evaluate(model.basis0(200), 0.5)[0]
        assert abs(val - ref) < 1e-12

    def test_past_half_matches_2f1(self, tmp_path):
        # yl2int_vac: I_1 = 2F1(7/10, 11/10; 7/5; x), I_2 = x^(-2/5) 2F1(3/10, 7/10; 3/5; x)
        mp = pytest.importorskip("mpmath")
        out = tmp_path / "b.csv"
        assert run_cli(["blocks", "--model", "yl2int_vac", "--grid", "0.5:0.999:25",
                        "--out", str(out)]) == 0
        for line in out.read_text().splitlines()[1:]:
            x, i1, i2 = (float(v) for v in line.split(","))
            want = (float(mp.hyp2f1(0.7, 1.1, 1.4, x)),
                    float(x ** -0.4 * mp.hyp2f1(0.3, 0.7, 0.6, x)))
            assert abs(i1 - want[0]) < 1e-12 * abs(want[0])
            assert abs(i2 - want[1]) < 1e-12 * abs(want[1])

    def test_rows_up_to_half_are_the_zero_series(self, tmp_path):
        import cyclorb as cy
        out = tmp_path / "b.csv"
        run_cli(["blocks", "--model", "yl1int_gs", "--grid", "0.1:0.9:17", "--out", str(out)])
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        xs = np.array([float(r[0]) for r in rows])
        near = [r for r in rows if float(r[0]) <= 0.5]
        assert len(near) == 9
        # one evaluate call over just these points, as the CLI makes it: a matrix
        # product may round a row differently with other rows beside it
        vals = fb.evaluate(cy.get_model("yl1int_gs").basis0(200), xs[xs <= 0.5])
        assert near == [[r[0]] + [repr(float(v)) for v in row]
                        for r, row in zip(near, vals)]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["blocks", "--model", "yl1int_gs", "--grid", "0.35:0.65:7"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_threads_same_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["correlator", "--model", "yl2int_vac", "--grid", "0.2:0.8:7"]
        run_cli(args + ["--out", str(a), "--threads", "1"])
        run_cli(args + ["--out", str(b), "--threads", "3"])
        assert a.read_bytes() == b.read_bytes()


class TestReports:
    def test_monodromy_selftest(self, capsys):
        code = run_cli(["monodromy", "--model", "yl1int_gs", "--selftest"])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_correlator_selftest(self, capsys):
        assert run_cli(["correlator", "--model", "yl2int_vac", "--selftest"]) == 0

    def test_blocks_selftest(self, capsys):
        assert run_cli(["blocks", "--model", "yl1int_gs", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS blocks leading coefficient: a0 = ")
        assert out.count("\n") == 1

    def test_correlator_selftest_without_closed_form(self, capsys):
        assert run_cli(["correlator", "--model", "yl1int_gs", "--selftest"]) == 4
        assert capsys.readouterr().out == "FAIL closed form available: none for this model\n"

    def test_monodromy_prints_cross_amplitudes(self, capsys):
        assert run_cli(["monodromy", "--model", "mm_n3_phi21", "--g", "11/8"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cross = [line for line in lines if line.startswith("# cross amplitudes")]
        assert cross == [lines[-1]]
        assert re.fullmatch(r"# cross amplitudes \{\(0, 2\): -0\.0450959\d*\}", cross[0])

    def test_torus_report(self, capsys):
        assert run_cli(["torus"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_ope_table(self, capsys):
        assert run_cli(["ope"]) == 0
        out = capsys.readouterr().out
        assert "C_phi_phi_phi" in out

    def test_ward_vector(self, capsys):
        assert run_cli(["ward", "--x", "0.3", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "0,0.3" in out and "1,-1.3" in out and "2,1.0" in out

    def test_ward_file_ends_in_newline(self, capsys, tmp_path):
        table = "p,d_p\n0,0.3\n1,-1.3\n2,1.0\n3,0.0\n4,0.0\n"
        report = "PASS weight vector [x, -(1+x), 1]: max dev 0.00e+00\n"
        assert run_cli(["ward", "--x", "0.3", "--selftest"]) == 0
        assert capsys.readouterr().out == table + report
        out = tmp_path / "ward.csv"
        assert run_cli(["ward", "--x", "0.3", "--selftest", "--out", str(out)]) == 0
        assert out.read_text() == table
        assert capsys.readouterr().out == report
        assert run_cli(["ward", "--x", "0.3", "--out", str(out)]) == 0
        assert out.read_text() == table and capsys.readouterr().out == ""

    @pytest.mark.parametrize("lo,hi,code", [
        ([0.0, 1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0], 4),    # convex to concave
        ([0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0, 0.0], 0),    # concave to convex
        ([0.0, 1.0, 2.0, 3.0, 4.0], [0.0, 1.0, 0.0, 1.0, 0.0], 4),    # straight to convex
    ])
    def test_chain_crossover_direction(self, monkeypatch, capsys, lo, hi, code):
        # only a concave profile at h = 0.1 h_c and a convex one at 0.99 h_c pass
        monkeypatch.setattr(ylc, "crossover_study", lambda lam, L, fractions: {
            "h_c": 0.5, "profiles": {0.1: np.array(lo), 0.99: np.array(hi)}})
        assert run_cli(["chain"]) == code
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith(f"{'PASS' if code == 0 else 'FAIL'} concave to convex crossover: ")


class TestExitCodes:
    def test_fit_error_is_tolerance_failure(self, capsys):
        # at M = 32 the largest order-n match residual of yl2int_vac is 1.5e-8
        for argv in ("monodromy --model yl1int_gs --terms 3", "correlator --model yl2int_vac --terms 32"):
            code = run_cli(argv.split())
            err = capsys.readouterr().err
            assert code == 4
            assert err.startswith("error: FitError") and err.count("\n") == 1

    def test_compare_reads_terms(self, tmp_path, capsys):
        lat = tmp_path / "lat.csv"
        run_cli(["lattice", "--m", "4", "--k", "3", "--L", "8", "--q", "1",
                 "--h-twist", "-0.375", "--out", str(lat)])
        capsys.readouterr()
        code = run_cli(["compare", str(lat), "--model", "yl1int_gs",
                        "--dressing=-1/20", "--terms", "3"])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("error: FitError") and err.count("\n") == 1

    def test_size_error_is_usage_error(self, capsys):
        code = run_cli(["chain", "--L", "30"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: SizeError") and err.count("\n") == 1

    def test_chain_above_dense_cap_is_usage_error(self, capsys):
        code = run_cli(["chain", "--L", "13"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: SizeError") and err.count("\n") == 1

    def test_sector_limit_is_usage_error(self, monkeypatch, capsys):
        # the largest of the four blocks at L = 8 holds 8 classes
        monkeypatch.setattr(rsos, "SECTOR_LIMIT", 7)
        code = run_cli(["lattice", "--m", "4", "--k", "3", "--L", "8"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: SizeError") and err.count("\n") == 1

    @pytest.mark.parametrize("exc, code", [
        (ylc.SizeError("too big"), 2),
        (sf.DomainError("outside\nthe disk"), 2),
        (fb.LogarithmicCaseError("log"), 3),
        (mn.DegeneracyError("two-dimensional"), 3),
        (rsos.DefectivePairError("w r = 0"), 3),
        (ylc.ComplexGroundStateError("complex"), 3),
        (mn.FitError("residual"), 4),
        (fb.OutOfDiskError("|u| >= 1"), 4),
        (ValueError("bad argument"), 2),
        (OSError("unreadable path"), 2),
        (rsos.BasisError("odd L"), 2),
    ])
    def test_library_errors_map_to_codes(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_ward", fail)
        assert run_cli(["ward"]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {type(exc).__name__}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        "chain --lam 1.5",
        "chain --L 0", "chain --L 1", "chain --L 2", "chain --L 3",
        "lattice --m 4 --k 3 --L 8 --N 1",
        "lattice --m 4 --k 3 --L 8 --q 9",
        "correlator --model mm_n2_phi21 --g abc",
        "correlator --model mm_n2_phi21 --g 0",
        "blocks --model yl2int_vac --terms 1 --grid 0.3:0.6:3",
        "correlator --model yl1int_gs --terms 1",
        "compare /nonexistent --model yl1int_gs",
        "compare README.md --model yl1int_gs",
        "correlator --model yl1int_gs --grid 0.3:0.4:2 --out /nonexistent/d/f.csv",
        "--config",
        "blocks --model yl2int_vac --config",
        "--config /nonexistent blocks --model yl2int_vac",
        "lattice --m 2 --k 1 --L 4 --state vacuum",
        # d = 4g - 2 is a positive integer: the closed form's crossed-channel
        # coefficient is singular, so it raises DomainError
        "correlator --model mm_n2_phi21 --g 3/4 --selftest",
        "correlator --model mm_n2_phi21 --g 1 --selftest",
        "correlator --model mm_n2_phi21 --g 5/4 --selftest",
        "correlator --model mm_n2_phi21 --g 7/4 --selftest",
        "correlator --model mm_n2_phi21 --g 2 --selftest",
        "correlator --model mm_n2_phi21 --g 9/4 --selftest",
    ])
    def test_no_traceback(self, monkeypatch, capsys, argv):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])   # for README.md
        code = run_cli(argv.split())
        err = capsys.readouterr().err
        assert code in (2, 3, 4)
        assert "Traceback" not in err
        if "usage:" not in err:     # a library error, not an argparse message
            assert re.fullmatch(r"error: \w+: [^\n]+\n", err), err

    @pytest.mark.parametrize("argv", [
        "ward --x nan", "ward --x inf", "ward --x=-inf",
        "lattice --m 4 --k 3 --L 6 --h-twist nan", "lattice --m 4 --k 3 --L 6 --h-twist=-inf",
        # rho_A^5000 overflows
        "lattice --m 4 --k 3 --L 6 --N 5000",
    ])
    def test_non_finite_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        assert run_cli([*argv.split(), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "Traceback" not in err and "finite" in err
        if "usage:" not in err:     # the library's error alone, with no warning
            assert re.fullmatch(r"error: ValueError: [^\n]+\n", err), err

    @pytest.mark.parametrize("argv", [
        "correlator --model mm_n2_phi21 --g 1/0",
        "--config g.cfg correlator --model mm_n2_phi21",
        "compare lat.csv --model yl1int_gs --dressing=1/0",
        "compare lat.csv --model yl1int_gs",
    ])
    def test_zero_denominator_and_empty_csv_are_usage_errors(self, monkeypatch, tmp_path,
                                                             capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.cfg").write_text("g=1/0\n")
        (tmp_path / "lat.csv").write_text("L,ell,N,q_or_bare,trace_re,trace_im,entropy_re,"
                                          "entropy_im,rescaled\n")
        assert run_cli(argv.split()) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1

    # flags a subcommand does not read
    @pytest.mark.parametrize("argv", [
        *(f"{cmd} --threads 2" for cmd in (
            "blocks --model yl2int_vac", "monodromy --model yl1int_gs", "torus", "ope",
            "ward", "lattice --m 4 --k 3 --L 8", "compare lat.csv --model yl1int_gs",
            "chain")),
        "torus --out t.csv", "chain --L 4 --out c.csv",
        *(f"{cmd} --terms 3" for cmd in ("torus", "ope", "ward",
                                         "lattice --m 4 --k 3 --L 8", "chain")),
        "compare lat.csv --model yl1int_gs --selftest", "chain --selftest",
        "lattice --m 4 --k 3 --L 8 --bare",
    ])
    def test_unread_flag_is_usage_error(self, monkeypatch, tmp_path, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(argv.split()) == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())


    def test_pole_sweep(self, capsys):
        # every g = p/q in (1/2, 5/2) with q <= 8: the self-test runs, or, exactly
        # where d = 4g - 2 is a positive integer, one DomainError line and exit 2
        gs = sorted(g for g in {Fraction(p, q) for q in range(1, 9) for p in range(1, 3 * q)}
                    if Fraction(1, 2) < g < Fraction(5, 2))
        failed = set()
        for g in gs:
            code = run_cli(["correlator", "--model", "mm_n2_phi21", "--g", str(g), "--selftest"])
            err = capsys.readouterr().err
            assert code in (0, 2), (g, code, err)
            if code == 2:
                assert re.fullmatch(r"error: DomainError: [^\n]+\n", err), (g, err)
                failed.add(g)
        assert failed == {g for g in gs if (4 * g - 2).denominator == 1}

    @pytest.mark.parametrize("g", ["1", "5/4"])
    def test_polynomial_block_grid(self, g, tmp_path):
        # a block that is a polynomial of degree 1 about 0 still matches at x = 1/2
        out = tmp_path / "g.csv"
        code = run_cli(["correlator", "--model", "mm_n2_phi21", "--g", g,
                        "--grid", "0.1:0.9:5", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 6


class TestLattice:
    def test_curve_csv_and_symmetry(self, capsys, tmp_path):
        out = tmp_path / "lat.csv"
        code = run_cli(["lattice", "--m", "4", "--k", "3", "--L", "8",
                        "--N", "2", "--q", "3", "--state", "vacuum",
                        "--h-twist", "-0.275", "--out", str(out), "--selftest"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("L,ell,N,q_or_bare")
        assert len(lines) == 8

    def test_usage_error_on_bad_size(self, capsys):
        assert run_cli(["lattice", "--m", "4", "--k", "3", "--L", "7"]) == 2

    def test_compare_one_row(self, tmp_path, capsys):
        lat = tmp_path / "lat.csv"
        run_cli(["lattice", "--m", "4", "--k", "3", "--L", "10", "--N", "2",
                 "--q", "1", "--state", "ground", "--h-twist", "-0.375", "--out", str(lat)])
        lines = lat.read_text().splitlines()
        one = tmp_path / "one.csv"
        one.write_text("\n".join(lines[:1] + lines[5:6]) + "\n")
        out = tmp_path / "cmp.csv"
        assert run_cli(["compare", str(one), "--model", "yl1int_gs",
                        "--dressing=-1/20", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("5,")

    def test_compare_roundtrip(self, tmp_path, capsys):
        lat = tmp_path / "lat.csv"
        run_cli(["lattice", "--m", "4", "--k", "3", "--L", "10", "--N", "2",
                 "--q", "1", "--state", "ground", "--h-twist", "-0.375",
                 "--out", str(lat)])
        out = tmp_path / "cmp.csv"
        code = run_cli(["compare", str(lat), "--model", "yl1int_gs",
                        "--dressing=-1/20", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "PASS overlay" in text


class TestConfig:
    def test_config_file_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("model=yl2int_vac\ngrid=0.4:0.6:3\n")
        out = tmp_path / "o.csv"
        code = run_cli(["blocks", "--config", str(cfg), "--out", str(out),
                        "--grid", "0.45:0.55:2"])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 3  # explicit flag wins

    @pytest.mark.parametrize("val,code,selftest", [
        ("true", 0, True), ("Yes", 0, True), ("1", 0, True),
        ("false", 0, False), ("No", 0, False), ("0", 0, False),
        ("maybe", 2, False), ("", 2, False),
    ])
    def test_config_boolean(self, tmp_path, capsys, val, code, selftest):
        # a true value injects --selftest, a false one nothing, any other is a
        # usage error; the selftest writes no CSV
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = yl2int_vac\nselftest = {val}\n")
        out = tmp_path / "o.csv"
        assert run_cli(["correlator", "--config", str(cfg), "--out", str(out)]) == code
        std = capsys.readouterr()
        assert ("PASS assembled vs closed form" in std.out) == selftest
        if code == 2:
            assert re.fullmatch(r"error: ValueError: [^\n]+\n", std.err)
        assert out.exists() == (code == 0 and not selftest)
        if out.exists():
            assert len(out.read_text().splitlines()) == 20   # header and 19 grid rows

    SELFTEST_CONFIGS = {"correlator": "model = yl2int_vac\nselftest = true\n",
                        "lattice": "m = 4\nk = 3\nL = 8\nselftest = true\n"}

    @pytest.mark.parametrize("cmd", list(SELFTEST_CONFIGS))
    @pytest.mark.parametrize("spelling", [
        "--config=CFG {cmd}", "--conf CFG {cmd}", "--conf=CFG {cmd}", "--c CFG {cmd}",
        "{cmd} --config CFG", "{cmd} --config=CFG", "{cmd} --conf CFG",
        "--config missing.cfg {cmd} --config=CFG",
    ])
    def test_every_config_spelling_is_applied(self, tmp_path, capsys, cmd, spelling):
        # each spelling argparse accepts for --config, before the subcommand or
        # after it, reads as --config PATH before it; the last one given wins
        cfg = tmp_path / "run.cfg"
        cfg.write_text(self.SELFTEST_CONFIGS[cmd])

        def run(argv):
            code = run_cli(argv.format(cmd=cmd).replace("CFG", str(cfg)).split())
            return code, capsys.readouterr().out

        want = run("--config CFG {cmd}")
        assert want[0] == 0 and want[1].splitlines()[-1].startswith("PASS ")
        assert run(spelling) == want

    def test_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "cyclorb.cli", "ward",
                               "--x", "0.25"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "0,0.25" in proc.stdout


class TestCompareCsv:
    """compare reads the lattice CSV with the csv module; a bad field is a usage error."""

    @staticmethod
    def lattice(tmp_path, L=12):
        # at L = 12 the lattice CSV of perfbench's cli_suite
        lat = tmp_path / "lat.csv"
        assert run_cli(["lattice", "--m", "4", "--k", "3", "--L", str(L), "--state", "ground",
                        "--q", "1", "--h-twist", "-0.375", "--out", str(lat)]) == 0
        return lat.read_text().splitlines()

    @pytest.fixture
    def lines(self, tmp_path):
        return self.lattice(tmp_path)

    def compare(self, tmp_path, text):
        (tmp_path / "in.csv").write_text(text)
        out = tmp_path / "cmp.csv"
        code = run_cli(["compare", str(tmp_path / "in.csv"), "--model", "yl1int_gs",
                        "--dressing=-1/20", "--out", str(out)])
        return code, out

    # a contiguous trace_re column changes the fitted constant's last bits at L = 8
    @pytest.mark.parametrize("L", [8, 12])
    def test_same_bytes_as_genfromtxt(self, tmp_path, capsys, L):
        # the rows the genfromtxt reader gave, its strided trace_re column included
        from cyclorb import catalog as cat
        code, out = self.compare(tmp_path, "\n".join(self.lattice(tmp_path, L)) + "\n")
        assert code == 0
        data = np.atleast_1d(np.genfromtxt(tmp_path / "in.csv", delimiter=",", names=True))
        pred = cat.predict_on_circle(cat.get_model("yl1int_gs"), data["ell"] / L, M=200,
                                     dressing_power=-1 / 20)
        const, rms = rsos.overlay_fit(data["trace_re"], pred)
        want = ["ell,lattice,prediction,fitted_constant,rms_rel_dev"] + [
            f"{int(e)},{float(t)!r},{float(const * p)!r},{float(const)!r},{float(rms)!r}"
            for e, t, p in zip(data["ell"], data["trace_re"], pred)]
        assert out.read_text() == "\n".join(want) + "\n"

    def test_non_numeric_field(self, tmp_path, lines, capsys):
        head, first, *rest = lines
        i = head.split(",").index("trace_re")
        fields = first.split(",")
        fields[i] = "abc"
        code, out = self.compare(tmp_path, "\n".join([head, ",".join(fields), *rest]) + "\n")
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert re.fullmatch(r"error: ValueError: [^\n]*'abc'\n", err), err

    def test_short_row(self, tmp_path, lines, capsys):
        short = lines[2].rsplit(",", 1)[0]
        code, out = self.compare(tmp_path, "\n".join([*lines[:2], short, *lines[3:]]) + "\n")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.startswith("error: ValueError: ")

    def test_empty_file(self, tmp_path, capsys):
        code, out = self.compare(tmp_path, "")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err.endswith("holds no rows\n")

    def test_one_row(self, tmp_path, lines, capsys):
        code, out = self.compare(tmp_path, f"{lines[0]}\n{lines[5]}\n")
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("5,")

    def test_comments(self, tmp_path, lines, capsys):
        plain, _ = self.compare(tmp_path, "\n".join(lines) + "\n")
        want = (tmp_path / "cmp.csv").read_bytes()
        text = "# a lattice run\n" + lines[0] + "\n" + "".join(
            f"{ln}  # row {i}\n\n# between rows\n" for i, ln in enumerate(lines[1:]))
        code, out = self.compare(tmp_path, text)
        assert plain == code == 0
        assert out.read_bytes() == want


# one valid argv per subcommand, every flag it reads given a value
VALID_ARGV = {
    "blocks": "blocks --model yl1int_gs --grid 0.1:0.2:3 --terms 50 --out b.csv --selftest",
    "monodromy": "monodromy --model mm_n2_phi21 --g 11/8 --terms 60",
    "correlator": "--config c.cfg correlator --model yl2int_vac --threads 2 --grid 0.2:0.4:2",
    "torus": "torus --selftest",
    "ope": "ope --out o.csv",
    "ward": "ward --x 0.25 --selftest",
    "lattice": "lattice --m 4 --k 3 --L 8 --q 1 --state vacuum --h-twist -0.3 --N 3",
    "compare": "compare lat.csv --model yl1int_gs --dressing=-1/20 --terms 80",
    "chain": "chain --lam 0.9 --L 6",
}


def _subparser(ap, name):
    action = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


class TestOneCommandParser:
    """main builds only the subcommand it runs, and reads exactly as the full parser."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("name", list(VALID_ARGV))
    def test_subparser_alone_matches_full(self, name):
        full, alone = cli.build_parser(), cli.build_parser(name)
        assert _subparser(alone, name).format_help() == _subparser(full, name).format_help()
        argv = VALID_ARGV[name].split()
        assert vars(alone.parse_args(argv)) == vars(full.parse_args(argv))

    def test_full_parser_errors_as_before(self, capsys):
        names = ", ".join(f"'{n}'" for n in VALID_ARGV)
        for argv, last in [([], "cyclorb: error: the following arguments are required: cmd"),
                           (["bogus"], "cyclorb: error: argument cmd: invalid choice: 'bogus' "
                                       f"(choose from {names})")]:
            assert run_cli(argv) == 2
            assert capsys.readouterr().err.splitlines()[-1] == last

    def test_usage_line_names_every_subcommand(self):
        assert cli.build_parser("torus").format_usage() == cli.build_parser().format_usage()

    @pytest.mark.parametrize("argv", [
        "", "--help", "-h", "bogus", "--help correlator", "correlator --help",
        "correlator --model yl1int_gs --bad", "correlator --model nope",
        "--config cfg correlator --grid 0.3:0.4:2", "--conf cfg torus",
        "--conf torus correlator --model yl1int_gs --grid 0.3:0.4:2",
        "chain extra", "ward --x abc", "chain --L 30",
        "--he torus", "--config=cfg torus --bad", "-- torus", "-1 torus", "--bogus torus",
        "torus torus", "--config", "--help --config=cfg torus",
    ])
    def test_main_matches_full_parser(self, monkeypatch, tmp_path, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").write_text("model = yl1int_gs\n")
        code = run_cli(argv.split())
        got = (code, *capsys.readouterr())
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda cmd=None: build())
        code = run_cli(argv.split())
        assert got == (code, *capsys.readouterr())

    def test_one_subparser_registered(self, monkeypatch, capsys):
        names = []
        add = argparse._SubParsersAction.add_parser

        def counting(self, name, **kw):
            names.append(name)
            return add(self, name, **kw)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        assert run_cli(["torus"]) == 0
        assert names == ["torus"]
        names.clear()
        assert run_cli(["--help"]) == 0
        assert names == list(VALID_ARGV)


class TestImports:
    """scipy is loaded only by the lattice functions that return sparse matrices."""

    RUNS = [["ward", "--x", "0.3", "--selftest"],
            ["correlator", "--model", "yl1int_gs", "--grid", "0.3:0.6:4"],
            ["chain", "--L", "4"]]

    def run_python(self, code):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_scipy_loaded_only_by_sparse_operators(self):
        out = self.run_python(f"""
import contextlib, io, json, sys
import numpy as np
def scipy_modules():
    return [m for m in sys.modules if m.split(".")[0] == "scipy"]
import cyclorb
out = {{"import": scipy_modules()}}
from cyclorb import cli, rsos
with contextlib.redirect_stdout(io.StringIO()):
    out["codes"] = [cli.main(args) for args in {self.RUNS!r}]
out["cli"] = scipy_modules()
H, basis = rsos.build_rsos_hamiltonian(4, 3, 8)
v = np.ones(basis.dim)
out["sparse"] = ["scipy.sparse" in sys.modules, H.nnz, float(np.sum(H @ v)), float(np.sum(v @ H))]
print(json.dumps(out))
""")
        assert out["import"] == [] and out["cli"] == []
        assert out["codes"] == [0, 0, 0]
        loaded, nnz, col, row = out["sparse"]
        assert loaded and nnz > 0 and abs(col - row) < 1e-9 * abs(col)

    def test_cli_runs_without_scipy(self):
        out = self.run_python(f"""
import contextlib, io, json, sys
sys.modules["scipy"] = None      # any scipy import now raises ImportError
from cyclorb import cli
with contextlib.redirect_stdout(io.StringIO()):
    print(json.dumps([cli.main(args) for args in {self.RUNS!r}]), file=sys.__stdout__)
""")
        assert out == [0, 0, 0]
