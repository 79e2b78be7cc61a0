"""Command-line front end: schemas, determinism, exit codes, golden rows."""

import csv
import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

import wellspec.cli as cli
import wellspec.oracle
import wellspec.spectrum
import wellspec.wavefn
from wellspec.cli import main
from wellspec.errors import SolverFailure


def _strict_json(text):
    """json.loads that refuses Infinity, -Infinity and NaN, which are not JSON."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


# Output bytes frozen before the CSV writer was rewritten; the rewrite must reproduce them exactly.
# The dispersion curve has pole rows and the removable point at kL/pi = 5, the spectrum a nodal row.
GOLDEN_DISPERSION = (
    b"kL_over_pi,rhs,is_pole\n"
    b"0,0,0\n"
    b"0.25,0.396802246667,0\n"
    b"0.5,0.951056516295,0\n"
    b"0.75,2.26007351067,0\n"
    b"1,,1\n"
    b"1.25,-2,0\n"
    b"1.5,-0.587785252292,0\n"
    b"1.75,0.35796047808,0\n"
    b"2,,1\n"
    b"2.25,-0.778768257918,0\n"
    b"2.5,-2.44929359829e-16,0\n"
    b"2.75,0.778768257918,0\n"
    b"3,,1\n"
    b"3.25,-0.35796047808,0\n"
    b"3.5,0.587785252292,0\n"
    b"3.75,2,0\n"
    b"4,,1\n"
    b"4.25,-2.26007351067,0\n"
    b"4.5,-0.951056516295,0\n"
    b"4.75,-0.396802246667,0\n"
    b"5,-5.87830463591e-16,0\n"
)

GOLDEN_SWEEP = (
    b"f,sign,rho,E_over_EB\n"
    b"0.1,attract,0.005,0.0985864841609\n"
    b"0.1,attract,0.2525,-0.986788251262\n"
    b"0.1,attract,0.5,-0.999818251689\n"
    b"0.1,attract,0.7475,-0.986788251262\n"
    b"0.1,attract,0.995,0.0985864841609\n"
    b"0.1,repel,0.005,0.0987858227871\n"
    b"0.1,repel,0.2525,0.157573172831\n"
    b"0.1,repel,0.5,0.281676965233\n"
    b"0.1,repel,0.7475,0.157573172831\n"
    b"0.1,repel,0.995,0.0987858227871\n"
    b"0.4,attract,0.005,1.57873191019\n"
    b"0.4,attract,0.2525,0.139450196402\n"
    b"0.4,attract,0.5,-0.504684902118\n"
    b"0.4,attract,0.7475,0.139450196402\n"
    b"0.4,attract,0.995,1.57873191019\n"
    b"0.4,repel,0.005,1.57952189977\n"
    b"0.4,repel,0.2525,2.09757429569\n"
    b"0.4,repel,0.5,2.83956382646\n"
    b"0.4,repel,0.7475,2.09757429569\n"
    b"0.4,repel,0.995,1.57952189977\n"
)

GOLDEN_SPECTRUM = (
    b"kind,k_over_pi,energy,residual\n"
    b"ordinary_negative,31.8309886184,-10000,0\n"
    b"ordinary_positive,1.68044873066,27.8708541971,6.24500451352e-17\n"
    b"ordinary_positive,2.53155311402,63.2519374402,2.35922392733e-16\n"
    b"ordinary_positive,3.36212968705,111.565179425,7.07767178199e-16\n"
    b"nodal,5,246.740110027,0\n"
    b"ordinary_positive,5.10542771144,257.255108751,2.22044604925e-16\n"
    b"ordinary_positive,6.71879948921,445.536312876,1.74860126378e-15\n"
)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestCsvSchemas:
    def test_dispersion_header_bytes(self, tmp_path):
        out = tmp_path / "disp.csv"
        assert main(["dispersion-curve", "--rho", "2/5", "--kmax", "2", "--out", str(out)]) == 0
        first = out.read_bytes().split(b"\n", 1)[0]
        assert first == b"kL_over_pi,rhs,is_pole"

    def test_sweep_header_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep-ground", "--f-list", "0.5", "--signs", "attract", "--rho-steps", "5", "--out", str(out)]
        )
        assert rc == 0
        first = out.read_bytes().split(b"\n", 1)[0]
        assert first == b"f,sign,rho,E_over_EB"

    def test_spectrum_header(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--rho", "1/2", "--f", "-0.2", "--kmax", "6", "--out", str(out)]) == 0
        assert _read_rows(out)[0] == ["kind", "k_over_pi", "energy", "residual"]


class TestGoldenBytes:
    CASES = [
        (["dispersion-curve", "--rho", "2/5", "--kmax", "5", "--samples-per-pi", "4"], GOLDEN_DISPERSION),
        (["sweep-ground", "--f-list", "0.1,0.4", "--signs", "both", "--rho-steps", "5"], GOLDEN_SWEEP),
        (["spectrum", "--rho", "2/5", "--f", "0.01", "--kmax", "7"], GOLDEN_SPECTRUM),
    ]

    @pytest.mark.parametrize("argv, golden", CASES, ids=["dispersion-curve", "sweep-ground", "spectrum"])
    def test_stdout_bytes(self, argv, golden, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == golden

    @pytest.mark.parametrize("argv, golden", CASES, ids=["dispersion-curve", "sweep-ground", "spectrum"])
    def test_out_file_bytes(self, argv, golden, tmp_path):
        out = tmp_path / "golden.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == golden


class TestDeterminism:
    def test_sweep_byte_identical(self, tmp_path):
        args = ["sweep-ground", "--f-list", "0.1,0.4", "--signs", "both", "--rho-steps", "21"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spectrum_byte_identical(self, tmp_path):
        args = ["spectrum", "--rho-real", "0.321", "--f", "0.07", "--kmax", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spectrum_json_byte_identical(self, tmp_path):
        args = ["spectrum", "--rho", "2/5", "--f", "0.01", "--kmax", "7", "--format", "json"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_spectrum_json_out_matches_stdout(self, tmp_path, capsys):
        args = ["spectrum", "--rho-real", "0.3", "--f", "0.1", "--format", "json"]
        out = tmp_path / "s.json"
        assert main(args + ["--out", str(out)]) == 0
        assert main(args) == 0
        assert out.read_bytes() == capsys.readouterr().out.encode()


class TestJsonReport:
    def test_round_trip_and_schema(self, tmp_path):
        # spectrum and check write one report layout: spectrum's checks and check's entries are empty
        keys = ["schema", "config", "k_max", "entries", "checks"]
        out = tmp_path / "spec.json"
        rc = main(["spectrum", "--rho", "2/5", "--f", "0.01", "--kmax", "7", "--format", "json", "--out", str(out)])
        assert rc == 0
        loaded = json.loads(out.read_text())
        assert list(loaded) == keys
        assert loaded["schema"] == 2 and loaded["checks"] == {}
        assert loaded["config"]["rho_exact"] == {"p": 2, "n": 5}
        kinds = [e["kind"] for e in loaded["entries"]]
        assert "nodal" in kinds and "ordinary_positive" in kinds

        assert main(["check", "--rho", "2/5", "--f", "0.01", "--count", "4", "--out", str(out)]) == 0
        loaded = json.loads(out.read_text())
        assert list(loaded) == keys
        assert loaded["schema"] == 2 and loaded["entries"] == [] and loaded["k_max"] == 20.0 * math.pi
        assert list(loaded["checks"]) == [
            "gram_max_offdiag", "gram_max_diag_defect", "continuity_defect", "jump_defect", "oracle_max_delta"
        ]

    def test_nodal_entries_carry_n_and_j(self, capsys):
        # 4/10 reduces to 2/5: the nodal levels are j n pi, n = 5, each with its n and j after the four fields
        assert main(["spectrum", "--rho", "4/10", "--f", "0.3", "--kmax", "16", "--format", "json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        nodal = [list(e.items()) for e in entries if e["kind"] == "nodal"]
        want = [
            [("kind", "nodal"), ("k", k), ("energy", k * k), ("residual", 0.0), ("n", 5), ("j", j)]
            for j, k in ((j, j * 5 * math.pi) for j in (1, 2, 3))
        ]
        assert nodal == want


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--rho-real", "0.3", "--kmax", "6"], ["check", "--rho-real", "0.3", "--count", "4"]],
        ids=["spectrum", "check"],
    )
    def test_negative_coupling_with_an_exponent(self, argv, capsys):
        # argparse on its own reads "-1e-3" as an option and exits 2
        assert main(argv + ["--f=-1e-3"]) == 0
        joined = capsys.readouterr().out
        assert main(argv + ["--f", "-1e-3"]) == 0
        assert capsys.readouterr().out == joined

    def test_negative_coupling_without_a_leading_zero(self, capsys):
        assert main(["spectrum", "--rho-real", "0.3", "--kmax", "6", "--f=-.5"]) == 0
        joined = capsys.readouterr().out
        assert main(["spectrum", "--rho-real", "0.3", "--kmax", "6", "--f", "-.5"]) == 0
        assert capsys.readouterr().out == joined

    NEGATIVE_NON_FINITE = [
        (["spectrum", "--rho-real", "0.3", "--f", "-inf"], "--f must be a finite coupling, got -inf"),
        (["check", "--rho-real", "0.3", "--f", "-inf"], "--f must be a finite coupling, got -inf"),
        (["spectrum", "--rho-real", "0.3", "--f", "-NaN"], "--f must be a finite coupling, got nan"),
        (["spectrum", "--rho-real", "0.3", "--f", "0.1", "--kmax", "-inf"], "--kmax must be non-negative and finite, got -inf"),
        (["dispersion-curve", "--rho", "2/5", "--kmax", "-inf"], "--kmax must be non-negative and finite, got -inf"),
    ]

    @pytest.mark.parametrize("argv, message", NEGATIVE_NON_FINITE, ids=[" ".join(a) for a, _ in NEGATIVE_NON_FINITE])
    def test_negative_non_finite_value_gets_its_flags_message(self, argv, message, capsys):
        # argparse on its own reads "-inf" and "-nan" as options and exits 2 with "expected one argument"
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_invalid_position_is_usage_error(self):
        assert main(["spectrum", "--rho", "5/4", "--f", "0.1"]) == 2

    def test_zero_coupling_is_usage_error(self):
        assert main(["spectrum", "--rho", "1/2", "--f", "0"]) == 2

    def test_malformed_fraction_is_usage_error(self):
        assert main(["spectrum", "--rho", "half", "--f", "0.1"]) == 2

    @pytest.mark.parametrize("argv", [["spectrum", "--f", "0.1"], ["dispersion-curve"]], ids=" ".join)
    def test_malformed_fraction_names_the_flag(self, argv, capsys):
        # one P/N parser for every --rho: dispersion-curve said "invalid literal for int() with base 10: 'x'"
        assert main([*argv, "--rho", "2/x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--rho expects P/N, got '2/x'" in captured.err

    def test_missing_flags_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--f", "0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("rho", ["1/0", "3/2", "0/3", "0", "1", "nan", "-0.2", "1.5"])
    def test_dispersion_curve_position_outside_the_well_is_usage_error(self, rho, capsys):
        assert main(["dispersion-curve", "--rho", rho]) == 2
        assert capsys.readouterr().out == ""

    def test_dispersion_curve_unreduced_fraction_is_valid(self, capsys):
        assert main(["dispersion-curve", "--rho", "2/4", "--kmax", "1"]) == 0
        half = capsys.readouterr().out
        assert main(["dispersion-curve", "--rho", "1/2", "--kmax", "1"]) == 0
        assert capsys.readouterr().out == half

    # the message names the flag and the value typed, not the library's k_max = --kmax pi
    @pytest.mark.parametrize("command", ["spectrum", "check"])
    def test_negative_kmax_is_usage_error(self, command, capsys):
        assert main([command, "--rho-real", "0.3", "--f", "0.1", "--kmax", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--kmax must be non-negative and finite, got -1.0" in captured.err

    @pytest.mark.parametrize("command", ["spectrum", "check"])
    def test_non_finite_kmax_is_usage_error(self, command, capsys):
        assert main([command, "--rho-real", "0.3", "--f", "0.1", "--kmax", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--kmax must be non-negative and finite, got inf" in captured.err

    @pytest.mark.parametrize("command", ["spectrum", "check"])
    def test_kmax_past_the_float_range_in_kl_is_usage_error(self, command, capsys):
        # 1e308 pi overflows to the library's k_max = inf
        assert main([command, "--rho-real", "0.3", "--f", "0.1", "--kmax", "1e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--kmax must be non-negative and finite, got 1e+308" in captured.err

    @pytest.mark.parametrize("argv", [["spectrum", "--format", "json"], ["spectrum"], ["check"]], ids=" ".join)
    @pytest.mark.parametrize("f", ["inf", "-inf"])
    def test_non_finite_coupling_is_usage_error(self, argv, f, capsys):
        # f = +-inf is the library's free-well sentinel; let through, it printed "f": Infinity, which is not JSON
        assert main([*argv, "--rho-real", "0.3", f"--f={f}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"--f must be a finite coupling, got {f}" in captured.err

    def test_sweep_non_finite_coupling_is_usage_error(self, capsys):
        assert main(["sweep-ground", "--f-list", "0.1,inf", "--rho-steps", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--f-list must be a finite coupling, got inf" in captured.err

    @pytest.mark.parametrize("kmax", ["inf", "-inf", "nan", "-1"])
    def test_dispersion_curve_kmax_outside_range_is_usage_error(self, kmax, capsys):
        assert main(["dispersion-curve", "--rho", "2/5", f"--kmax={kmax}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--kmax must be non-negative and finite" in captured.err

    # 2^63 / 400: np.arange wraps 2^63 + 1 samples to an empty array, which printed the header alone;
    # 1e307 * 400 overflows to inf, which int() refused with an OverflowError
    @pytest.mark.parametrize("kmax", ["1e300", "2.305843009213694e16", "1e307"])
    def test_dispersion_curve_too_many_rows_is_usage_error(self, kmax, capsys):
        assert main(["dispersion-curve", "--rho", "2/5", f"--kmax={kmax}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--kmax" in captured.err and "--samples-per-pi 400" in captured.err

    @pytest.mark.parametrize("command, count", [("spectrum", "-2"), ("spectrum", "0"), ("check", "0"), ("check", "-1")])
    def test_count_below_one_is_usage_error(self, command, count, capsys):
        assert main([command, "--rho-real", "0.3", "--f", "0.1", "--count", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--count must be at least 1" in captured.err

    def test_solver_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(*a, **k):
            raise SolverFailure("no convergence at x=2.5")

        monkeypatch.setattr(wellspec.spectrum, "full_spectrum", boom)
        rc = main(["spectrum", "--rho", "1/2", "--f", "0.1", "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert capsys.readouterr().err == "solver failure: no convergence at x=2.5\n"

    # --f-list takes magnitudes; a negative entry exited 0, and its attract rows solved a repulsive delta
    @pytest.mark.parametrize("f_list", ["0", "nan", "0.1,0", "-0.1", "0.1,-0.4"])
    def test_sweep_invalid_coupling_is_usage_error(self, f_list, capsys):
        assert main(["sweep-ground", "--f-list", f_list, "--rho-steps", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--f-list" in err

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--rho-real", "0.3", "--f", "1e-200"], ["spectrum", "--rho-real", "0.3", "--f=-1e-310"],
         ["sweep-ground", "--f-list", "1e-200", "--rho-steps", "5"],
         ["sweep-ground", "--f-list", "0.1,1e-310", "--rho-steps", "5"]],
    )
    def test_tiny_coupling_is_usage_error(self, argv, capsys):
        # |f| < 1e-154, where the binding energy -1/f^2 and E f^2 overflow
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "coupling f=" in err

    def test_smallest_couplings_sweep_finitely(self, capsys):
        assert main(["sweep-ground", "--f-list", "1e-150", "--signs", "attract", "--rho-steps", "5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 5
        assert all(float(r[3]) == pytest.approx(-1.0, rel=1e-12) for r in rows)

    @pytest.mark.parametrize("f_list, value", [("1e154", "1e+154"), ("0.1,1e200", "1e+200")])
    def test_huge_coupling_sweep_is_usage_error(self, f_list, value, capsys):
        # E/E_B = E f^2 overflows past |f| ~ 4.2e153: it leaked a RuntimeWarning and wrote inf rows
        assert main(["sweep-ground", "--f-list", f_list, "--rho-steps", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"--f-list entry {value} is too large" in err

    def test_largest_couplings_sweep_finitely(self, capsys):
        assert main(["sweep-ground", "--f-list", "4e153", "--rho-steps", "5"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 10
        assert all(float(r[3]) == pytest.approx(1.579e308, rel=1e-3) for r in rows)

    @pytest.mark.parametrize(
        "argv, flag",
        [(["--rho-steps", "0"], "--rho-steps"), (["--rho-steps", "-1"], "--rho-steps"),
         (["--f-list", ","], "--f-list"), (["--f-list", ""], "--f-list")],
    )
    def test_empty_sweep_is_usage_error(self, argv, flag, capsys):
        assert main(["sweep-ground", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert flag in err

    def test_sweep_residual_certificate_exit_3(self, monkeypatch, capsys):
        # midpoints of the brackets are no roots, so the array certificate must refuse them
        monkeypatch.setattr(wellspec.spectrum, "solve_brackets", lambda fn, lo, hi, sign, *_: 0.5 * (lo + hi))
        assert main(["sweep-ground", "--f-list", "0.4", "--rho-steps", "5"]) == 3
        assert "residual" in capsys.readouterr().err

    def test_spectrum_huge_coupling_residual_is_finite(self, capsys):
        # f kL overflowed from level 6 on at f = 1e307: the residual was inf, written as null in JSON and inf in CSV,
        # though g ~ 1e293 there; f (kL sin kL) keeps it finite
        argv = ["spectrum", "--rho-real", "0.3", "--f", "1e307"]
        assert main(argv + ["--format", "json"]) == 0
        entries = _strict_json(capsys.readouterr().out)["entries"]
        residuals = [e["residual"] for e in entries]
        assert len(entries) == 20 and all(r is not None and 0.0 < r < math.inf for r in residuals)
        k = entries[5]["k"]
        g = 1e307 * (k * math.sin(k)) - 2.0 * math.sin(k * 0.3) * math.sin(k * (1.0 - 0.3))
        assert residuals[5] == pytest.approx(abs(g), rel=8.0 * sys.float_info.epsilon)
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 20 and all(0.0 < float(line.rsplit(",", 1)[1]) < math.inf for line in rows)

    def test_entry_with_infinite_residual_is_null(self):
        # a residual that is not finite is not JSON: the report writes it as null, as check --out does
        state = wellspec.spectrum.EigenState(wellspec.spectrum.ORDINARY_POSITIVE, math.pi, math.pi**2, math.inf)
        entry = cli._entry_dict(state, wellspec.DimensionlessConfig.generic(0.3, 1.0))
        assert entry["residual"] is None and _strict_json(json.dumps(entry))["k"] == math.pi

    @pytest.mark.parametrize("f", ["1e-154", "1e-120"])
    def test_check_deep_binding_oracle_warns_nothing(self, f, capsys):
        # the tail's series overflowed at the Weyl end (-2e157 at f = 1e-154) and leaked a RuntimeWarning;
        # the exit 3 itself is the oracle's known deep-binding failure
        assert main(["check", "--rho-real", "0.5", "--f", f]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "outer bracket end" in captured.err

    @pytest.mark.parametrize("f", ["1e305", "1e306", "1e307", "-1e307", "1.7e308"])
    def test_check_huge_coupling_warns_nothing(self, f, capsys):
        # f k overflowed in the secular Newton step, in the decoupling floor and in the residual's discarded slope;
        # the overflowed values are the limits of f = inf, so every check passes
        assert main(["check", "--rho-real", "0.3", f"--f={f}"]) == 0
        assert capsys.readouterr().out.count("PASS") == 5

    def test_check_failure_exit_4(self, monkeypatch, capsys):
        # the positive levels' waves moved 1e-3 off their roots: the Gram and the jump must fail
        build = wellspec.wavefn.build_wave

        def shifted(state, config):
            w = build(state, config)
            return replace(w, k=w.k + 1e-3) if state.kind == wellspec.spectrum.ORDINARY_POSITIVE else w

        monkeypatch.setattr(wellspec.wavefn, "build_wave", shifted)
        rc = main(["check", "--rho", "1/2", "--f", "-0.2", "--count", "6", "--kmax", "8"])
        assert rc == 4
        assert capsys.readouterr().out == (
            "FAIL  gram_max_offdiag: 4.850e-05 (<= 1e-09)\n"
            "FAIL  gram_max_diag_defect: 4.894e-05 (<= 1e-12)\n"
            "PASS  continuity_defect: 1.039e-15 (<= 1e-10)\n"
            "FAIL  jump_defect: 2.453e-02 (<= 1e-08)\n"
            "PASS  oracle_max_delta: 2.406e-10\n"
        )

    def test_check_out_is_strict_json(self, tmp_path, monkeypatch, capsys):
        # an infinite jump is written as null, and its check fails
        defect = wellspec.wavefn.matching_defect
        monkeypatch.setattr(wellspec.wavefn, "matching_defect", lambda w, c: (defect(w, c)[0], math.inf))
        out = tmp_path / "r.json"
        assert main(["check", "--rho-real", "0.3", "--f", "0.1", "--out", str(out)]) == 4
        assert "FAIL  jump_defect: inf" in capsys.readouterr().out
        checks = _strict_json(out.read_text())["checks"]
        assert checks["jump_defect"] == {"value": None, "threshold": 1e-8, "ok": False}
        assert checks["continuity_defect"]["ok"] is True and checks["oracle_max_delta"]["ok"] is True

    def test_check_out_matches_stdout(self, tmp_path, capsys):
        argv = ["check", "--rho-real", "0.3", "--f", "0.1", "--count", "4"]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert main(argv + ["--out", "-"]) == 0
        assert capsys.readouterr().out.endswith((tmp_path / "r.json").read_text())

    def test_check_without_a_level_is_usage_error(self, capsys):
        # the repulsive well's lowest level lies above pi
        assert main(["check", "--rho-real", "0.3", "--f", "-0.1", "--kmax", "0.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no level lies below --kmax 0.5" in captured.err

    def test_check_level_shortfall_is_usage_error(self, capsys):
        # 20 levels lie below the default --kmax 20; checking only those would pass for a check of 30
        assert main(["check", "--rho-real", "0.3", "--f", "0.1", "--count", "30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "only 20 of the 30 levels --count asks for lie below --kmax 20.0" in captured.err
        assert main(["check", "--rho-real", "0.3", "--f", "0.1", "--count", "20"]) == 0

    @pytest.mark.parametrize("flag", ["--oracle-rtol", "--oracle-atol", "--perturb", "--oracle-m"])
    def test_check_oracle_tolerances_are_fixed(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--rho-real", "0.3", "--f", "0.1", flag, "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_check_gram_covers_every_wave(self, monkeypatch, capsys):
        # a norm defect planted in wave 13 must show: the Gram takes every checked wave
        build, built = wellspec.wavefn.build_wave, []

        def planted(state, config):
            w = build(state, config)
            built.append(w)
            if len(built) == 13:
                w = replace(w, amp_left=w.amp_left * (1.0 + 1e-6), amp_right=w.amp_right * (1.0 + 1e-6))
            return w

        monkeypatch.setattr(wellspec.wavefn, "build_wave", planted)
        assert main(["check", "--rho-real", "0.3", "--f", "0.1", "--count", "14"]) == 4
        out = capsys.readouterr().out
        assert len(built) == 14
        assert "FAIL  gram_max_diag_defect" in out and "FAIL  gram_max_offdiag" not in out

    def test_check_generic_half_passes(self, capsys):
        # the float 0.5 decouples the even levels; the oracle keeps 4 pi^2, and so must the solver
        assert main(["check", "--rho-real", "0.5", "--f", "-0.2", "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") == 5

    @pytest.mark.parametrize("position", [["--rho", "2/5", "--f", "0.01"], ["--rho-real", "0.37", "--f", "0.03"]])
    def test_check_strong_attraction_passes(self, position, capsys):
        # the bound level sits far below the free-well ladder; the oracle's tail must restore it
        assert main(["check", *position]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") == 5

    @pytest.mark.parametrize("position", [["--rho", "1/2", "--f", "0.5"], ["--rho-real", "0.3", "--f", "0.42"]])
    def test_check_at_the_binding_threshold_passes(self, position, capsys):
        # f == 2 rho (1 - rho): the zero-energy state is the lowest level, as the oracle finds
        assert main(["check", *position]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") == 5

    def test_check_solves_the_oracle_once(self, monkeypatch, capsys):
        calls = []
        solve = wellspec.oracle.solve_brackets
        monkeypatch.setattr(wellspec.oracle, "solve_brackets", lambda *a: calls.append(1) or solve(*a))
        assert main(["check", "--rho-real", "0.37", "--f", "0.03"]) == 0
        assert len(calls) == 1

    def test_check_passes_exit_0(self, capsys):
        rc = main(["check", "--rho", "1/2", "--f", "-0.2", "--count", "6", "--kmax", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("PASS") == 5


class TestDispersionCurve:
    def test_one_array_evaluation_per_invocation(self, monkeypatch, capsys):
        calls = []
        rhs = wellspec.spectrum.rhs_positive
        monkeypatch.setattr(wellspec.spectrum, "rhs_positive", lambda *a: calls.append(1) or rhs(*a))
        assert main(["dispersion-curve", "--rho", "2/5", "--kmax", "9"]) == 0
        assert len(calls) == 1
        assert len(capsys.readouterr().out.splitlines()) == 1 + 9 * 400 + 1

    def test_removable_point_finite(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["dispersion-curve", "--rho", "2/5", "--kmax", "9", "--samples-per-pi", "40", "--out", str(out)])
        rows = {row[0]: row for row in _read_rows(out)[1:]}
        at5 = rows["5"]
        assert at5[2] == "0"
        assert abs(float(at5[1])) < 1e-9

    def test_irrational_pole_flagged(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["dispersion-curve", "--rho", "0.415", "--kmax", "9", "--samples-per-pi", "40", "--out", str(out)])
        rows = {row[0]: row for row in _read_rows(out)[1:]}
        assert rows["5"][2] == "1"
        assert rows["5"][1] == ""
        assert rows["1"][2] == "1"

    def test_center_small_k_branch(self, tmp_path):
        out = tmp_path / "d.csv"
        main(["dispersion-curve", "--rho", "1/2", "--kmax", "0.9", "--samples-per-pi", "40", "--out", str(out)])
        rows = _read_rows(out)[1:]
        assert all(r[2] == "0" for r in rows)
        vals = [float(r[1]) for r in rows]
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestSpectrumCommand:
    def test_strong_coupling_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["spectrum", "--rho", "2/5", "--f", "0.001", "--kmax", "9", "--out", str(out)])
        rows = _read_rows(out)[1:]
        nodal_k = [float(r[1]) for r in rows if r[0] == "nodal"]
        ord_k = [float(r[1]) for r in rows if r[0] == "ordinary_positive"]
        assert 5.0 in nodal_k
        assert any(abs(k - 5.0 / 3.0) < 0.02 for k in ord_k)
        assert any(abs(k - 2.5) < 0.02 for k in ord_k)

    def test_bound_state_first(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["spectrum", "--rho", "1/2", "--f", "0.1", "--kmax", "6", "--out", str(out)])
        first = _read_rows(out)[1]
        assert first[0] == "ordinary_negative"
        assert float(first[2]) * 0.01 == pytest.approx(-1.0, abs=2e-4)

    def test_zero_kmax_gives_the_bound_state_alone(self, capsys):
        assert main(["spectrum", "--rho-real", "0.3", "--f", "0.1", "--kmax", "0"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].startswith("ordinary_negative,")

    def test_zero_energy_state_row(self, capsys):
        # at the binding threshold f == 2 rho (1 - rho) the bound root is kappa L = 0
        assert main(["spectrum", "--rho-real", "0.3", "--f", "0.42", "--kmax", "0"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["ordinary_negative,0,0,0"]

    def test_generic_position_has_no_nodal_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["spectrum", "--rho-real", "0.415", "--f", "0.001", "--kmax", "9", "--out", str(out)])
        assert all(r[0] != "nodal" for r in _read_rows(out)[1:])


class TestSweepCommand:
    def test_one_batched_solve_per_invocation(self, monkeypatch, capsys):
        calls = []
        solve = wellspec.spectrum.solve_brackets
        monkeypatch.setattr(wellspec.spectrum, "solve_brackets", lambda *a: calls.append(1) or solve(*a))
        assert main(["sweep-ground", "--f-list", "0.1,0.4,0.5", "--signs", "both", "--rho-steps", "21"]) == 0
        assert len(calls) == 1
        assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 2 * 21

    def test_anchor_values(self, tmp_path):
        out = tmp_path / "sw.csv"
        main(["sweep-ground", "--f-list", "0.1,0.5", "--signs", "attract", "--rho-steps", "199", "--out", str(out)])
        rows = _read_rows(out)[1:]
        by_f = {}
        for f, sign, rho, e in rows:
            by_f.setdefault(float(f), {})[float(rho)] = float(e)
        assert by_f[0.5][0.5] == pytest.approx(0.0, abs=1e-8)
        assert by_f[0.1][0.5] == pytest.approx(-0.9998182516893271, abs=1e-9)
        assert min(by_f[0.1], key=by_f[0.1].get) == pytest.approx(0.5)


class TestGnuplotScript:
    def test_emits_plot_command(self, tmp_path):
        out = tmp_path / "fig1.gp"
        assert main(["gnuplot-script", "--figure", "1", "--csv", "disp.csv", "--out", str(out)]) == 0
        text = out.read_text()
        assert "plot" in text and "disp.csv" in text


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "s.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "wellspec.cli", "spectrum", "--rho", "1/2", "--f", "-0.2",
             "--kmax", "5", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert _read_rows(out)[0] == cli.SPECTRUM_HEADER
