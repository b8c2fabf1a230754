"""Command-line interface: CSV output, determinism, selftests, exit codes."""

import subprocess
import sys

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
        ref = model.basis0(200).series[0].evaluate(0.5).real
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
        vals = cy.get_model("yl1int_gs").basis0(200).evaluate(xs).real
        near = [r for r in rows if float(r[0]) <= 0.5]
        assert len(near) == 9
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


class TestExitCodes:
    def test_fit_error_is_tolerance_failure(self, capsys):
        code = run_cli(["monodromy", "--model", "yl1int_gs", "--terms", "3"])
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
        monkeypatch.setattr(rsos, "SECTOR_LIMIT", 10)
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
    ])
    def test_library_errors_map_to_codes(self, monkeypatch, capsys, exc, code):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_ward", fail)
        assert run_cli(["ward"]) == code
        err = capsys.readouterr().err
        assert err.startswith(f"error: {type(exc).__name__}: ") and err.count("\n") == 1


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

    def test_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "cyclorb.cli", "ward",
                               "--x", "0.25"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "0,0.25" in proc.stdout
