"""End-to-end CLI checks, run in process through main(argv)."""

import csv
import io
import json
import math
import warnings

import pytest

import trisum.cli as cli
from trisum.cli import main
from trisum.harness import _QUAD_TOL, _SERIES_TOL, VerificationRecord

# pi^2/48 - ln(2)^2/10 + 2G/5
A1_Z2_M0 = 0.52395769463509576811
CATALAN_17G = "0.915965594177219"  # computed double may differ in the last ulp


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_closed_prints_fifteen_digits(capsys):
    code, out, err = run(capsys, "eval", "--family", "A1", "--z", "2",
                         "--m", "0", "--method", "closed")
    assert code == 0
    assert abs(float(out.strip()) - A1_Z2_M0) < 1e-14
    assert err == ""


def test_eval_all_table(capsys):
    code, out, _ = run(capsys, "eval", "--family", "A1", "--z", "2",
                       "--m", "0", "--method", "all")
    assert code == 0
    for label in ("closed", "series", "quadrature", "max deviation", "agree"):
        assert label in out
    values = [float(line.split()[-1]) for line in out.splitlines()[:3]]
    assert max(values) - min(values) < 1e-10


def test_eval_single_method_prints_bare_number(capsys):
    for method in ("series", "quadrature"):
        code, out, _ = run(capsys, "eval", "--family", "A1", "--z", "2",
                           "--method", method)
        assert code == 0
        assert len(out.strip().split()) == 1
        assert abs(float(out) - A1_Z2_M0) < 1e-11


def test_eval_divergent_z_exits_2(capsys):
    code, out, err = run(capsys, "eval", "--family", "A1", "--z", "0.5", "--m", "0")
    assert code == 2
    assert "|z| >= 1" in err


def test_eval_closed_overflow_exits_2(capsys):
    code, out, err = run(capsys, "eval", "--family", "A1", "--z", "1e100",
                         "--m", "5", "--method", "closed")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "leaves the double range" in err
    assert "Traceback" not in err


def test_eval_closed_non_finite_exits_2(capsys):
    # the coefficients at this point leave the double range as nan; the
    # closed form reports that instead of printing nan
    code, out, err = run(capsys, "eval", "--family", "A2", "--z", "1e150",
                         "--m", "6", "--method", "closed")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and repr(1e150) in err and "leaves the double range" in err
    assert "nan" not in err and "Traceback" not in err


def test_eval_closed_underflow_exits_2(capsys):
    # the real root's powers underflow to 0 where C_r divides by them: a
    # one-line error naming the point, not a ZeroDivisionError traceback
    code, out, err = run(capsys, "eval", "--family", "A2", "--z=-1", "--m", "1000",
                         "--method", "closed")
    assert (code, out) == (2, "")
    assert err.startswith("error: closed form of family A2 at z = -1.0, m = 1000 ")
    assert "leaves the double range" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_eval_series_weight_overflow_exits_2(capsys):
    code, out, err = run(capsys, "eval", "--family", "A2", "--z", "1", "--m", "800",
                         "--method", "series")
    assert (code, out) == (2, "")
    assert err.startswith("error: family A2, m = 800: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("z", ["1e300", "1e160", "-1e300"])
def test_eval_huge_z_closed_exits_2(capsys, z):
    # solve_cubic's intermediates overflow here; the error names z and
    # never reports a root of nan
    code, out, err = run(capsys, "eval", "--family", "A1", f"--z={z}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and repr(float(z)) in err and "overflow" in err
    assert "nan" not in err and "Traceback" not in err


def test_eval_huge_z_quadrature_is_quiet(capsys):
    # the integrand overflows at some nodes; that must not leak a numpy
    # RuntimeWarning onto stderr of a call that succeeds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "eval", "--family", "A1", "--z", "1e300",
                             "--m", "1", "--method", "quadrature")
    assert (code, out, err) == (0, "-0\n", "")


def test_eval_w_flag_is_reciprocal(capsys):
    _, out_z, _ = run(capsys, "eval", "--family", "A1", "--z", "2",
                      "--method", "closed")
    _, out_w, _ = run(capsys, "eval", "--family", "A1", "--w", "0.5",
                      "--method", "closed")
    assert out_z == out_w


@pytest.mark.parametrize("flag,value", [
    ("--z", "-1e6"), ("--z", "-8"), ("--z", "-2.5e0"), ("--w", "-1e-3"),
])
def test_negative_number_after_a_space(capsys, flag, value):
    # argparse alone takes "-1e6" for an option, not for the value of --z
    spaced = run(capsys, "eval", "--family", "B1", flag, value, "--m", "1")
    joined = run(capsys, "eval", "--family", "B1", f"{flag}={value}", "--m", "1")
    assert spaced == joined
    assert spaced[0] == 0 and "agree" in spaced[1]


@pytest.mark.parametrize("flag", ["--tol", "--to"])
def test_negative_tol_after_a_space_exits_2(capsys, flag):
    code, out, err = run(capsys, "eval", "--family", "A1", "--z", "2",
                         flag, "-1e-3")
    assert (code, out) == (2, "")
    assert err == "error: --tol must be a positive finite value, got -0.001\n"


def test_integral_negative_z_after_a_space(capsys):
    spaced = run(capsys, "integral", "--kernel", "lnx", "--variant", "thm1",
                 "--z", "-1e6", "--m", "1")
    assert spaced == run(capsys, "integral", "--kernel", "lnx", "--variant", "thm1",
                         "--z=-1e6", "--m", "1")
    assert spaced[0] == 0


def test_eval_w_zero_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--family", "A1", "--w", "0")
    assert code == 2
    assert "nonzero" in err


@pytest.mark.parametrize("command", [
    ["eval", "--family", "A1"],
    ["integral", "--kernel", "lnx", "--variant", "thm1"],
])
@pytest.mark.parametrize("w", ["1e-320", "-5e-324", "5e-309"])
def test_w_whose_reciprocal_overflows_exits_2(capsys, command, w):
    # the error names --w, the option given, not the z it stands for
    code, out, err = run(capsys, *command, "--w", w)
    assert (code, out) == (2, "")
    assert err == f"error: --w must have a finite reciprocal z = 1/w, got {float(w)!r}\n"


def test_eval_z_and_w_conflict(capsys):
    code, _, err = run(capsys, "eval", "--family", "A1", "--z", "2", "--w", "0.5")
    assert code == 2


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--family", "B1", "--z", "2",
                       "--method", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "B1" and doc["z"] == 2.0 and doc["m"] == 0
    assert set(doc["values"]) == {"closed", "series", "quadrature"}
    assert doc["agree"] is True
    assert doc["max_abs_diff"] < 1e-10


def test_eval_csv(capsys):
    code, out, _ = run(capsys, "eval", "--family", "A2", "--z", "2",
                       "--m", "1", "--method", "all", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,z,m,method,value"
    assert len(lines) == 4


@pytest.mark.parametrize("command", [
    ["eval", "--family", "A1", "--method", "all"],
    ["integral", "--kernel", "lnx", "--variant", "thm1"],
])
@pytest.mark.parametrize("point,z", [
    (["--z", "2.123456789"], 2.123456789),
    (["--w", "0.3"], 1.0 / 0.3),
])
def test_csv_z_parses_back_exactly(capsys, command, point, z):
    # z is printed like every other number, so the CSV names the very
    # point that was evaluated, not a 6-digit rounding of it
    code, out, _ = run(capsys, *command, *point, "--format", "csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    col = header.split(",").index("z")
    assert rows
    for row in rows:
        assert float(row.split(",")[col]) == z, row


def test_eval_c_family_all_skips_closed(capsys):
    code, out, _ = run(capsys, "eval", "--family", "C2", "--z", "0.5",
                       "--method", "all", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["values"]) == {"series", "quadrature"}
    assert doc["agree"] is True


def test_eval_c_family_closed_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--family", "C1", "--z", "0.5",
                       "--method", "closed")
    assert code == 2
    assert "closed form" in err


def test_eval_disagreement_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(cli, "sum_series", lambda *a, **k: 99.0)
    code, out, _ = run(capsys, "eval", "--family", "A1", "--z", "2",
                       "--method", "all")
    assert code == 1
    assert "DISAGREE" in out


def test_eval_nan_value_disagrees(capsys, monkeypatch):
    # max() would keep an earlier finite deviation over a later nan one;
    # the verdict must fail and the deviation read nan, as in the suites
    monkeypatch.setattr(cli, "series_via_quadrature", lambda *a, **k: math.nan)
    argv = ["eval", "--family", "A1", "--z", "2", "--method", "all"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "quadrature  nan" in out and "DISAGREE" in out
    assert "max deviation nan" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["agree"] is False and math.isnan(doc["max_abs_diff"])


def test_eval_runs_methods_at_suite_tolerances(capsys, monkeypatch):
    seen = {}

    def spy(name, real):
        def call(*a, tol, **k):
            seen[name] = tol
            return real(*a, tol=tol, **k)
        return call

    monkeypatch.setattr(cli, "sum_series", spy("series", cli.sum_series))
    monkeypatch.setattr(cli, "series_via_quadrature",
                        spy("quadrature", cli.series_via_quadrature))
    code, _, _ = run(capsys, "eval", "--family", "C1", "--z", "0.5", "--method", "all")
    assert code == 0
    assert seen == {"series": _SERIES_TOL, "quadrature": _QUAD_TOL}


def test_integral_matches_series(capsys):
    # raw integral with numerator u^m equals (-1)^m times the m=1 sum
    code, out, _ = run(capsys, "integral", "--kernel", "lnx",
                       "--variant", "thm1", "--z", "2", "--m", "1")
    assert code == 0
    assert abs(float(out) + 0.025439294973341518) < 1e-12


def test_integral_w_flag_and_json(capsys):
    code, out, _ = run(capsys, "integral", "--kernel", "lnratio",
                       "--variant", "thm2", "--w", "0.5", "--m", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["z"] == 2.0 and doc["kernel"] == "lnratio"
    assert abs(doc["value"] + 0.01155848760882578453) < 1e-12


def test_integral_rejects_pole_in_range(capsys):
    code, _, err = run(capsys, "integral", "--kernel", "lnx",
                       "--variant", "thm1", "--z", "0.1")
    assert code == 2
    assert err.startswith("error:")


def test_integral_tol_below_floor_exits_2(capsys):
    # a --tol the quadrature cannot meet is an error; it is not computed at
    # the floor while the output shows the tol asked for
    argv = ["integral", "--kernel", "lnx", "--variant", "thm1", "--z", "2", "--m", "1",
            "--format", "json", "--tol"]
    code, out, err = run(capsys, *argv, "1e-16")
    assert (code, out) == (2, "")
    assert err == "error: tol must be a float >= 1e-14, got 1e-16\n"
    code, out, _ = run(capsys, *argv, "1e-14")
    assert code == 0 and json.loads(out)["tol"] == 1e-14


def test_integral_near_pole_fails_quietly(capsys):
    # the pole sits 1e-300 from [0, 1]: the integrand underflows to 0 in
    # its denominator there, which must give a typed error, not warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "integral", "--kernel", "lnx",
                             "--variant", "thm2", "--z=-1e-300", "--m", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: tanh-sinh refinement did not reach tol")
    assert "pole near [0, 1]" in err and "lies 1e-300 outside [0, 4/27]" in err
    # the level sums are not finite there, so the message names them
    assert "within level 12: its last two level sums are nan and nan; " in err
    assert "Warning" not in err


def test_verify_table_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "beta-terms")
    assert code == 0
    assert "31 records, 31 passed, 0 failed" in out


def test_verify_tol_flag_and_json_out(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "concluding",
                       "--tol", "1e-10", "--format", "json",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text(encoding="utf-8"))
    assert doc["suite"] == "concluding"
    assert doc["tol"] == 1e-10
    assert all(r["pass"] for r in doc["records"])
    assert all(r["tol"] == 1e-10 for r in doc["records"])


def test_verify_default_tol_is_per_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "specfun-identities",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["tol"] == 1e-13


def test_verify_failure_exits_1(capsys, monkeypatch):
    bad = VerificationRecord(
        id="made-up", family="A1", z=2.0, m=0, closed=0.5,
        series_oracle=0.6, quad_oracle=None, abs_diff=0.1, rel_diff=0.1,
        tol=1e-9, passed=False, runtime_ms=0.1,
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, tol=None: [bad])
    code, out, _ = run(capsys, "verify", "--suite", "theorem-grid")
    assert code == 1
    assert "FAIL" in out


def test_verify_unknown_suite_exits_2(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2
    assert "invalid choice" in err


def test_constants_table(capsys):
    code, out, _ = run(capsys, "constants")
    assert code == 0
    assert "a1-z2-m0" in out
    assert "special values" in out
    assert "pi^2/6" in out
    assert CATALAN_17G in out
    from trisum.closedform import REGISTRY
    for cid in REGISTRY:
        assert cid in out


def test_constants_json(capsys):
    code, out, _ = run(capsys, "constants", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["registry"]) == 17
    names = [sv["name"] for sv in doc["special_values"]]
    assert names == ["Li2(1)", "Li2(1/2)", "Li2(i)", "Li2(-i)", "Cl2(pi/2)", "G"]
    li2_one = doc["special_values"][0]
    assert li2_one["real"] == pytest.approx(math.pi ** 2 / 6, rel=1e-15, abs=0)
    assert doc["special_values"][2]["imag"] == pytest.approx(0.915965594177219, rel=1e-13, abs=0)


def test_constants_csv(capsys):
    code, out, _ = run(capsys, "constants", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,family,z,m,value,expression"
    assert len(lines) == 18


def test_constants_csv_reads_back(capsys):
    # cells are quoted only where csv needs it; csv.reader gives back each
    # registry entry's own strings and the exact value
    from trisum.closedform import REGISTRY
    code, out, _ = run(capsys, "constants", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["id", "family", "z", "m", "value", "expression"]
    assert len(rows) == len(REGISTRY)
    for row, e in zip(rows, REGISTRY.values()):
        cell = dict(zip(header, row))
        assert (cell["id"], cell["family"], cell["m"], cell["expression"]) == \
            (e.id, e.family.value, str(e.m), e.expression())
        assert float(cell["value"]) == e.value()


def test_unwritable_out_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "constants", "--out",
                       str(tmp_path / "no-such-dir" / "x.txt"))
    assert code == 2
    assert err.startswith("error:")


def test_help_round_trips_every_flag(capsys):
    documented = {
        "eval": ["--family", "--z", "--w", "--m", "--method", "--tol",
                 "--format", "--out"],
        "verify": ["--suite", "--tol", "--format", "--out"],
        "integral": ["--kernel", "--variant", "--z", "--w", "--m", "--tol",
                     "--format", "--out"],
        "constants": ["--format", "--out"],
    }
    for sub, flags in documented.items():
        code, out, _ = run(capsys, sub, "--help")
        assert code == 0
        for flag in flags:
            assert flag in out, (sub, flag)


def test_missing_subcommand_exits_2(capsys):
    assert run(capsys, )[0] == 2


def test_bad_tol_exits_2(capsys):
    code, _, err = run(capsys, "eval", "--family", "A1", "--z", "2",
                       "--tol", "-1")
    assert code == 2
    assert "tol" in err
