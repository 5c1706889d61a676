import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import fracsob
from fracsob.bounds import DomainSpec, bounds_for
from fracsob.cli import run
from fracsob.constants import Params
from fracsob.errors import (
    ConvergenceError,
    DomainError,
    FracsobError,
    GridError,
    QuadratureError,
    RegimeError,
)


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstantsCommand:
    def test_frac_isoperimetric_example(self, capsys):
        code, out, _ = run_capture(
            capsys, ["constants", "--N", "1", "--s", "0.5",
                     "--which", "frac-isoperimetric"])
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["result"]["value"] - 16.0) < 1e-9
        assert doc["result"]["provenance"] == "frac-isoperimetric"
        assert doc["wall_time_s"] is None

    def test_csv_format(self, capsys):
        code, out, _ = run_capture(
            capsys, ["constants", "--N", "2", "--s", "0.5",
                     "--which", "hilbert-sobolev", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("which,N,s,p,q,value")
        assert len(lines) == 2
        value = float(lines[1].split(",")[5])
        assert abs(value - math.sqrt(math.pi)) < 1e-12

    def test_seventeen_digit_roundtrip(self, capsys):
        from fracsob.constants import lieb_constant
        code, out, _ = run_capture(
            capsys, ["constants", "--N", "3", "--s", "0.5", "--which", "lieb"])
        doc = json.loads(out)
        # serialization at 17 significant digits is lossless
        assert doc["result"]["value"] == lieb_constant(3, 0.5).value


class TestBoundsCommand:
    def test_ball_bounds_coincide(self, capsys):
        code, out, _ = run_capture(
            capsys, ["bounds", "--p", "1", "--N", "2", "--s", "0.5",
                     "--q", "1.2", "--domain", "ball:1"])
        assert code == 0
        doc = json.loads(out)
        lo = doc["result"]["lower"]["value"]
        up = doc["result"]["upper"]["value"]
        assert abs(lo - up) / up < 1e-12

    def test_regime_error_is_usage_error(self, capsys):
        code, _, err = run_capture(
            capsys, ["bounds", "--p", "2", "--N", "1", "--s", "0.7",
                     "--q", "3", "--domain", "rn:200"])
        assert code == 2
        assert "error" in err

    def test_bad_domain_is_usage_error(self, capsys):
        code, _, err = run_capture(
            capsys, ["bounds", "--p", "1", "--N", "1", "--s", "0.5",
                     "--q", "1.2", "--domain", "cube:1"])
        assert code == 2


def test_large_dimension_bounds_stay_finite(capsys):
    # Gamma(N/2+1) overflows a double at N = 300; the bounds are evaluated
    # in log space and stay finite
    code, out, _ = run_capture(
        capsys, ["bounds", "--p", "2", "--N", "300", "--s", "0.3", "--q", "2.001",
                 "--domain", "ball:1"])
    assert code == 0
    res = json.loads(out)["result"]
    assert math.isfinite(res["lower"]["value"])
    assert math.isfinite(res["upper"]["value"])


def test_large_dimension_frac_isoperimetric_is_finite(capsys):
    # A(N,s) is a closed form evaluated in log space: N = 300 is finite
    code, out, _ = run_capture(
        capsys, ["constants", "--N", "300", "--s", "0.3", "--which",
                 "frac-isoperimetric"])
    assert code == 0
    res = json.loads(out)["result"]
    assert math.isfinite(res["value"]) and res["value"] > 0.0
    assert res["kind"] == "closed_form" and res["error_estimate"] == 0.0


def test_large_dimension_frac_isoperimetric_is_refused(capsys):
    # A(500, 0.3) is below the smallest normal double: a usage error
    code, _, err = run_capture(
        capsys, ["constants", "--N", "500", "--s", "0.3", "--which",
                 "frac-isoperimetric"])
    assert code == 2
    assert "underflows" in err


@pytest.mark.parametrize("which,N,code", [
    ("mazya-lower", 29, 0), ("mazya-lower", 30, 2), ("mazya-lower", 31, 2),
    ("unit-ball-volume", 435, 0), ("unit-ball-volume", 436, 2)])
def test_underflow_is_refused(capsys, which, N, code):
    # the last N whose value is a normal double, then the first refused ones;
    # 2^((N+1)(N+2)) overflowed a double at N = 31 before it was an exponent shift
    got, out, err = run_capture(
        capsys, ["constants", "--N", str(N), "--s", "0.5", "--which", which])
    assert got == code
    if code == 0:
        assert json.loads(out)["result"]["value"] >= 2.2250738585072014e-308
    else:
        assert "underflows" in err


@pytest.mark.parametrize("which,N,word", [("lieb", 1240, "underflows"),
                                          ("norm-bridge", 440, "overflows")])
def test_out_of_double_range_is_refused(capsys, which, N, word):
    # these raised a raw OverflowError (exit 1) before the log-space sums
    code, out, err = run_capture(
        capsys, ["constants", "--N", str(N), "--s", "0.5", "--which", which])
    assert code == 2
    assert out == "" and word in err


@pytest.mark.parametrize("argv", [
    ["thresholds", "--p", "1"],
    ["groundstate", "--N", "3"],
    ["groundstate", "--p", "1"],
])
def test_unread_flags_are_refused(capsys, argv):
    # thresholds always runs p = 2 and groundstate N = 1, p = 2: a flag that
    # would be ignored is an argparse usage error
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == "" and f"unrecognized arguments: {' '.join(argv[1:])}" in err


@pytest.mark.parametrize("domain", ["ball:1e200", "interval:-1e308,1e308"])
def test_overflowing_domain_measure_is_refused(capsys, domain):
    # R^N raised a raw OverflowError (exit 1), and the infinite interval length
    # was refused only as "constant must be finite and positive, got 0.0"
    code, out, err = run_capture(
        capsys, ["bounds", "--N", "2", "--p", "2", "--s", "0.25", "--q", "3",
                 "--domain", domain])
    assert code == 2
    assert out == ""
    assert f"bad domain '{domain}'" in err and "measure overflows a double" in err


@pytest.mark.parametrize("argv", [
    ["--N", "3", "--p", "2", "--s", "0.5", "--q", "2.5", "--domain", "ball:1e-110"],
    ["--N", "1", "--p", "1", "--s", "0.25", "--q", "1.2", "--domain", "interval:0,5e-324"],
])
def test_underflowing_domain_measure_is_refused(capsys, argv):
    # the measure (or the inradius) underflowed to 0: a raw ZeroDivisionError
    # in the Hilbert bounds, and "math domain error" from log(0) in the p = 1 ones
    code, out, err = run_capture(capsys, ["bounds"] + argv)
    assert code == 2
    assert out == ""
    assert f"bad domain '{argv[-1]}'" in err and "underflows to 0" in err


@pytest.mark.parametrize("argv", [
    ["bounds", "--N", "3", "--p", "2", "--s", "0.5", "--q", "1.1",
     "--domain", "ball:1e-100"],
    ["bounds", "--N", "3", "--p", "2", "--s", "0.5", "--q", "1.1",
     "--domain", "ball:1e100"],
    ["bounds", "--N", "1", "--p", "1", "--s", "0.99", "--q", "1.001",
     "--domain", "ball:1e-320"],
    ["bounds", "--N", "1", "--p", "2", "--s", "0.5", "--q", "1.01",
     "--domain", "interval:0,1e-300"],
    ["sandwich", "--N", "1", "--p", "2", "--s", "0.5", "--q", "1.01",
     "--domain", "interval:0,1e-300"],
    ["bounds", "--N", "1", "--p", "2", "--s", "0.5", "--q", "1.01",
     "--domain", "interval:-1,1", "--c1", "1e-300"],
])
def test_bound_power_out_of_double_range_is_refused(capsys, argv):
    # a power of the measure, the inradius or C1 ended in a raw OverflowError,
    # and one that underflowed to 0 in "constant must be finite and positive"
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "\nerror: " in "\n" + err and " leaves the double range at " in err


def test_tiny_c1_is_named_in_its_refusal(capsys):
    # C1^(-2/q) lifted the limiting lower bound above the upper one, and the
    # refusal named neither C1 nor the point
    code, out, err = run_capture(
        capsys, ["bounds", "--p", "2", "--N", "1", "--s", "0.5", "--q", "5",
                 "--c1", "1e-320", "--domain", "interval:-1,1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: C1=1e-320 gives no bracket at ")
    assert "q=5.0" in err and "interval" in err and "exceeds upper bound" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,code", [
    (["sandwich", "--s", "0.25", "--q", "3", "--domain", "rn:1e300", "--grid", "256"], 1),
    (["groundstate", "--box", "1e300", "--grid", "256"], 0),
])
def test_huge_box_starts_without_warnings(capsys, argv, code):
    # x^2 of the start field exp(-x^2) overflowed with numpy RuntimeWarnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, _ = run_capture(capsys, argv)
    assert got == code
    if argv[0] == "sandwich":
        assert json.loads(out)["result"]["pass"] is False


@pytest.mark.parametrize("argv", [
    ["sandwich", "--s", "0.3", "--q", "2.5", "--domain", "interval:-1,1", "--box", "1e308"],
    ["groundstate", "--box", "1e308"],
], ids=["sandwich", "groundstate"])
def test_box_whose_spacing_overflows_is_refused(capsys, argv):
    # the spacing 2L/M was inf: the sandwich warned "invalid value encountered
    # in multiply" and said its mask "holds 0 of the 4096 nodes", and the
    # ground state ended in a traceback under -W error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: grid half_width 1e+308 is too large: the spacing "
                          "2 half_width / points overflows a double")
    assert "Traceback" not in err


@pytest.mark.parametrize("domain", ["interval:1", "interval:1,2,3"])
def test_interval_arity_prints_the_grammar(capsys, domain):
    # said "not enough values to unpack" / "too many values to unpack"
    code, out, err = run_capture(capsys, ["bounds", "--domain", domain])
    assert code == 2
    assert out == ""
    assert err.startswith(
        f"error: bad domain '{domain}': expected ball:R | interval:a,b | rn:L\n")
    assert "unpack" not in err


def test_ball_with_overflowing_radius_power_stays_finite(capsys):
    # R^40 overflows a double but omega_40 R^40 does not: the borderline
    # bounds used to raise OverflowError on the ball measure at the inradius
    code, out, _ = run_capture(
        capsys, ["bounds", "--N", "40", "--p", "1", "--s", "0.25", "--q", "1.001",
                 "--domain", "ball:5.7e7"])
    assert code == 0
    res = json.loads(out)["result"]
    assert 0.0 < res["lower"]["value"] < math.inf
    assert abs(res["upper"]["value"] / res["lower"]["value"] - 1.0) < 1e-12


# the ids are fixed, so that a row keeps its name when an earlier row goes
@pytest.mark.parametrize("argv,word", [
    pytest.param(["sandwich", "--domain", "rn:inf"], "truncation",
                 id="argv4-truncation"),
    pytest.param(["sandwich", "--box", "inf"], "half_width", id="argv5-half_width"),
    pytest.param(["groundstate", "--box", "inf"], "half_width",
                 id="argv6-half_width"),
    pytest.param(["sandwich", "--domain", "interval:-inf,1"], "interval a",
                 id="argv7-interval a"),
    pytest.param(["bounds", "--domain", "ball:inf"], "ball radius",
                 id="argv8-ball radius"),
    # said "constant must be finite and positive, got nan"
    pytest.param(["bounds", "--q", "inf"], "q must be finite",
                 id="argv9-q must be finite"),
])
def test_nonfinite_inputs_are_refused(capsys, argv, word):
    # refused where they enter, before any solve: no numpy warning, no
    # misleading downstream message, and never "pass": true
    point = ["--s", "0.25", "--q", "3"] + ["--grid", "256"] * (argv[0] != "bounds")
    code, out, err = run_capture(capsys, argv[:1] + point + argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and word in err


def test_control_characters_in_argv_stay_valid_json(capsys):
    # float() strips the newline, so the command runs; its echo must escape it
    code, out, _ = run_capture(
        capsys, ["constants", "--N", "2", "--s", "0.3\n", "--which", "lieb"])
    assert code == 0
    assert json.loads(out)["command"][5] == "0.3\n"


@pytest.mark.parametrize("cmd", ["sandwich", "sweep", "groundstate"])
def test_seed_flag_is_gone(capsys, cmd):
    code, _, err = run_capture(capsys, [cmd, "--seed", "1"])
    assert code == 2
    assert "--seed" in err


class TestSandwichCommand:
    def test_interval_pass(self, capsys):
        code, out, _ = run_capture(
            capsys, ["sandwich", "--p", "2", "--N", "1", "--s", "0.25",
                     "--q", "3", "--domain", "interval:-1,1",
                     "--grid", "4096", "--box", "8"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["pass"] is True

    def test_byte_identical_reruns(self, capsys):
        argv = ["sandwich", "--p", "2", "--N", "1", "--s", "0.25", "--q", "3",
                "--domain", "rn:100", "--grid", "1024"]
        _, out1, _ = run_capture(capsys, argv)
        _, out2, _ = run_capture(capsys, argv)
        assert out1 == out2

    def test_ball_is_the_interval(self, capsys):
        # a 1-D ball is masked like the interval of its diameter
        argv = ["sandwich", "--p", "2", "--N", "1", "--s", "0.25", "--q", "3",
                "--box", "8", "--domain"]
        for domain in ("ball:1", "interval:-1,1"):
            code, out, _ = run_capture(capsys, argv + [domain])
            assert code == 0
            assert json.loads(out)["result"]["numeric"]["value"] == 1.0802463467145702

    def test_ball_in_the_plane_is_bound_only(self, capsys):
        code, out, _ = run_capture(
            capsys, ["sandwich", "--p", "2", "--N", "2", "--s", "0.5", "--q", "3",
                     "--domain", "ball:1"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["numeric"] is None
        assert res["note"] == "bound-only: spectral solver is one-dimensional"

    @pytest.mark.parametrize("s,q,note,passed", [
        ("0.15", "2.2", "tail mass near truncation boundary; the box cannot reach the "
         "bracket: a constant field has quotient 1.72405", False),
        ("0.4", "3", "", True)])
    def test_tail_mass_note(self, capsys, s, q, note, passed):
        # a slowly decaying minimizer keeps q-mass in the outer 5% of the box;
        # at s = 0.15 a constant field's quotient 400^(1 - 2/q) lies below the
        # bracket, so no field on this box reaches it
        code, out, _ = run_capture(
            capsys, ["sandwich", "--p", "2", "--N", "1", "--s", s, "--q", q,
                     "--domain", "rn:200", "--grid", "256"])
        res = json.loads(out)["result"]
        assert (code, res["note"], res["pass"]) == (0 if passed else 1, note, passed)

    def test_lists_are_refused(self, capsys):
        # argparse refuses a list as it refuses any value that is not a number
        code, out, err = run_capture(capsys, ["sandwich", "--s", "0.25,0.3", "--q", "3"])
        assert code == 2 and out == ""
        assert err.startswith("usage: fracsob sandwich ")
        assert err.endswith(
            "fracsob sandwich: error: argument --s: invalid float value: '0.25,0.3'\n")

    def test_p1_whole_space_bracket_passes(self, capsys):
        # the p = 1 whole-space bracket is the exact constant at both ends
        code, out, _ = run_capture(
            capsys, ["sandwich", "--p", "1", "--N", "2", "--s", "0.25", "--q", "1.1",
                     "--domain", "rn:200"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["pass"] is True and res["numeric"] is None
        assert res["lower"]["value"] == res["upper"]["value"]

    def test_bracket_crossing_by_rounding_passes(self, capsys):
        # lower 1.0000000000034686 is above upper 1.0000000000032447 by
        # rounding, inside BoundPair's 1e-12 band: the bound-only sandwich
        # used to fail
        code, out, _ = run_capture(
            capsys, ["sandwich", "--p", "2", "--N", "5", "--s", "0.01",
                     "--q", "2.000000000000001", "--domain", "rn:200"])
        assert code == 0
        res = json.loads(out)["result"]
        assert res["pass"] is True and res["numeric"] is None
        assert res["lower"]["value"] > res["upper"]["value"]

    def test_provenance_keys_registered(self, capsys):
        from fracsob.constants import PROVENANCE_KEYS
        code, out, _ = run_capture(
            capsys, ["sandwich", "--p", "1", "--N", "1", "--s", "0.5",
                     "--q", "1.5", "--domain", "ball:1"])
        doc = json.loads(out)
        assert doc["provenance"]
        assert all(k in PROVENANCE_KEYS for k in doc["provenance"])


class TestSweepCommand:
    def test_rows_and_order(self, capsys):
        code, out, _ = run_capture(
            capsys, ["sweep", "--p", "2", "--N", "1", "--s", "0.25",
                     "--q", "2.5,3,3.5", "--domain", "rn:100",
                     "--grid", "1024", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        qcol = [float(line.split(",")[3]) for line in lines[1:]]
        assert qcol == [2.5, 3.0, 3.5]

    def test_s_list_rows_are_s_major(self, capsys):
        code, out, _ = run_capture(
            capsys, ["sweep", "--p", "2", "--N", "1", "--s", "0.25,0.3",
                     "--q", "2.5,3", "--domain", "rn:100", "--grid", "1024",
                     "--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(float(r["s"]), float(r["q"])) for r in rows] == [
            (0.25, 2.5), (0.25, 3.0), (0.3, 2.5), (0.3, 3.0)]


    def test_error_rows_name_their_point(self, capsys):
        # q = 5 is above the critical exponent 4 of s = 0.25: that point raises
        argv = ["sweep", "--s", "0.25", "--q", "3,5", "--domain", "rn:100",
                "--grid", "1024"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 1
        err = json.loads(out)["result"][1]
        assert err["error"].startswith("RegimeError")
        assert err["params"] == {"N": 1, "s": 0.25, "p": 2.0, "q": 5.0,
                                 "regime": "out-of-scope"}
        code, out, _ = run_capture(capsys, argv + ["--format", "csv"])
        assert code == 1
        row = list(csv.DictReader(io.StringIO(out)))[1]
        assert (row["N"], row["s"], row["p"], row["q"]) == ("1", "0.25", "2.0", "5.0")
        assert row["pass"] == "False" and row["note"].startswith("error: RegimeError")


class TestThresholdsCommand:
    def test_hilbert_defaults(self, capsys):
        code, out, _ = run_capture(
            capsys, ["thresholds", "--N", "1", "--s", "0.25", "--q", "3"])
        assert code == 0
        doc = json.loads(out)
        res = doc["result"]
        assert res["c_star"] > 0
        assert 0.0 < res["alpha"] < 1.0
        assert 0.0 < res["lambda_lower"] < 1.0
        assert res["f3_coeff"] is None

    def test_limiting_f3(self, capsys):
        code, out, err = run_capture(
            capsys, ["thresholds", "--N", "1", "--s", "0.5", "--q", "4",
                     "--S", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["f3_coeff"] == 2.0
        assert doc["result"]["alpha"] is None

    def test_no_default_S_out_of_scope(self, capsys):
        # s = 0.75 > N/2: no whole-space bound supplies S
        code, out, err = run_capture(capsys, ["thresholds", "--N", "1", "--s", "0.75",
                                              "--q", "3"])
        assert code == 2 and out == ""
        assert err.startswith("error: no bounds available: "
                              "params Params(N=1, s=0.75, p=2.0, q=3.0) out of scope\n")

    @pytest.mark.parametrize("N,s,q,C2", [
        (1, 0.25, 3.0, 1.0), (1, 0.1, 2.4, 1.0), (3, 0.5, 2.5, 1.0), (2, 0.9, 2.5, 1.0),
        (1, 0.5, 4.0, 0.0), (1, 0.5, 4.0, 0.5)])
    def test_default_S_is_the_bounds_for_lower_bound(self, capsys, monkeypatch,
                                                     N, s, q, C2):
        # thresholds takes its S from one whole-space bounds_for call
        pairs = []

        def recording(*args, **kwargs):
            pairs.append(bounds_for(*args, **kwargs))
            return pairs[-1]

        monkeypatch.setattr(fracsob.bounds, "bounds_for", recording)
        code, out, _ = run_capture(capsys, ["thresholds", "--N", str(N), "--s", str(s),
                                            "--q", str(q), "--c2", str(C2)])
        assert code == 0
        assert pairs == [bounds_for(Params(N, s, 2.0, q), DomainSpec.whole_space(N=N),
                                    C2=C2)]
        assert json.loads(out)["result"]["S"] == pairs[0].lower.value

    def test_limiting_q_below_2_is_refused(self, capsys):
        # said "q must be > 2, got 1.5", from the threshold formulas
        code, out, err = run_capture(capsys, ["thresholds", "--N", "1", "--s", "0.5",
                                              "--q", "1.5"])
        assert code == 2 and out == ""
        assert "\nerror: limiting whole-space bounds need q >= 2\n" in err

    def test_f3_underflow_leaves_the_record(self, capsys):
        # (q/2) S^(q/2) underflows a double from about q = 450 on, which
        # refused the whole record with exit 2
        code, out, err = run_capture(capsys, ["thresholds", "--N", "1", "--s", "0.5",
                                              "--q", "1e6"])
        assert code == 0 and "Traceback" not in err
        res = json.loads(out)["result"]
        assert res["f3_coeff"] is None
        assert res["S_note"].endswith(
            "; f3_coeff not reported: (q/2) S^(q/2) leaves the double range")
        assert res["S"] == bounds_for(Params(1, 0.5, 2.0, 1e6),
                                      DomainSpec.whole_space()).lower.value
        for key in ("S", "c_star", "h_norm_threshold", "lq_norm_threshold"):
            assert 0.0 < res[key] < math.inf


class TestGroundstateCommand:
    def test_quick_solve(self, capsys):
        code, out, err = run_capture(
            capsys, ["groundstate", "--s", "0.5", "--q", "4",
                     "--grid", "1024", "--box", "30"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["converged"] is True
        assert doc["result"]["residual_rel"] < 1e-4
        assert doc["result"]["thresholds_satisfied"] is True


    def test_thresholds_from_numeric_S(self, capsys):
        # the thresholds are the existence thresholds at the solver's own S
        from fracsob.pde import existence_thresholds
        code, out, _ = run_capture(
            capsys, ["groundstate", "--s", "0.5", "--q", "4", "--grid", "1024",
                     "--box", "30"])
        assert code == 0
        doc = json.loads(out)
        res = doc["result"]
        assert (res["h_threshold"], res["lq_threshold"]) == existence_thresholds(
            4.0, res["S_numeric"])
        assert doc["domain"] == {"kind": "whole_space", "dim": 1, "truncation": 30.0}


class TestValidateCommand:
    def test_all_pass(self, capsys):
        code, out, _ = run_capture(capsys, ["validate"])
        assert code == 0
        doc = json.loads(out)
        assert doc["failed"] == 0
        assert doc["passed"] >= 15


class TestOutputFile:
    def test_out_flag(self, tmp_path, capsys):
        target = tmp_path / "record.json"
        code, out, _ = run_capture(
            capsys, ["constants", "--N", "1", "--s", "0.5",
                     "--which", "norm-bridge", "--out", str(target)])
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert abs(doc["result"]["value"] - 1.0 / math.pi) < 1e-14

    def test_usage_error_exit_2(self, capsys):
        assert run(["nonsense-command"]) == 2
        assert run([]) == 2


@pytest.mark.parametrize("cmd", ["sandwich", "sweep", "groundstate"])
def test_bad_grid_is_usage_error(capsys, cmd):
    # a GridError is a usage error, not a traceback
    code, out, err = run_capture(capsys, [cmd, "--grid", "1000"])
    assert code == 2
    assert out == ""
    assert "error: points must be a power of two" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--q", "abc"],
    ["sweep", "--q", "3,,4"],
    ["sandwich", "--q", "abc"],
    ["constants", "--q", "abc", "--which", "frac-isoperimetric"],
    ["thresholds", "--q", "3,4"],
])
def test_unparsable_number_list_is_usage_error(capsys, argv):
    # float() of a bad --q entry is a usage error, not a traceback
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error: " in err and "--q" in err


@pytest.mark.parametrize("argv,message", [
    pytest.param(["constants", "--s", "abc", "--which", "lieb"],
                 "invalid float value: 'abc'", id="argv0"),
    pytest.param(["bounds", "--s", "0.25,0.3"], "invalid float value: '0.25,0.3'",
                 id="argv1"),
    pytest.param(["sweep", "--s", "0.25,x"], "expected a number or a comma-separated "
                 "list of numbers, got '0.25,x'", id="argv2"),
])
def test_unparsable_s_is_usage_error(capsys, argv, message):
    # argparse types --s like --q: a list on sweep, one float everywhere else
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"usage: fracsob {argv[0]} ")
    assert err.endswith(f"fracsob {argv[0]}: error: argument --s: {message}\n")


def test_groundstate_has_no_tol(capsys):
    # groundstate never read a tolerance, and the sandwich band is the fixed
    # varmin._SANDWICH_TOL
    for cmd in ("groundstate", "sandwich", "sweep"):
        code, out, err = run_capture(capsys, [cmd, "--tol", "0.1"])
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --tol" in err


@pytest.mark.parametrize("cmd", ["bounds", "sandwich"])
def test_bad_domain_prints_no_tm_warning(capsys, cmd):
    # the default point (s = 1/2, q = 2) is limiting, so the Trudinger-Moser
    # defaults warning is due; a bad domain is refused before it
    code, out, err = run_capture(capsys, [cmd, "--domain", "interval:1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad domain 'interval:1'")
    assert "warning" not in err


def test_timing_adds_only_wall_time(capsys):
    argv = ["sandwich", "--s", "0.25", "--q", "3", "--grid", "256"]
    _, plain, _ = run_capture(capsys, argv)
    code, timed, _ = run_capture(capsys, argv + ["--timing"])
    assert code == 0
    timed, plain = json.loads(timed), json.loads(plain)
    wall = timed.pop("wall_time_s")
    assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0.0
    assert plain.pop("wall_time_s") is None
    timed["command"] = timed["command"][:-1]   # drop the echoed --timing
    assert timed == plain


def test_huge_q_groundstate_converges(capsys):
    # |v|^q of a line-search trial point overflowed, the trial was scaled to
    # a zero field, and the quotient raised ZeroDivisionError
    code, out, err = run_capture(capsys, ["groundstate", "--q", "1e6", "--grid", "256"])
    assert code == 0
    assert err == ""
    res = json.loads(out)["result"]
    assert res["converged"] and res["residual_ok"]


@pytest.mark.parametrize("q", ["2.00001", "2.000000001"])
def test_groundstate_scale_out_of_the_double_range_is_refused(capsys, q):
    # (2 I0)^(1/(q-2)) underflowed to 0: exit 1 with h_norm_sq, lq_norm and
    # residual 0, residual_rel "inf" and "thresholds_satisfied": true
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, ["groundstate", "--q", q])
    assert (code, out) == (2, "")
    head = err.splitlines()[0]
    assert head.startswith("error: 0.617") and "Traceback" not in err
    assert head.endswith(f" leaves the double range at s=0.5, q={q}")


def test_groundstate_norm_out_of_the_double_range_is_refused(capsys):
    # at q = 2.001 the scale (2 I0)^(1/(q-2)) is a double near 1e-209, but
    # u0^2 underflows: this exited 1 with h_norm_sq, lq_norm and residual 0,
    # residual_rel "inf" and "thresholds_satisfied": true
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, ["groundstate", "--q", "2.001"])
    assert (code, out) == (2, "")
    head = err.splitlines()[0]
    assert head.startswith("error: h_norm_sq = 0.0 ") and "Traceback" not in err
    assert head.endswith(" leaves the normal double range at s=0.5, q=2.001")


def test_grid_that_cannot_reach_the_bracket_says_so(capsys):
    # on rn:1e300 the spacing h = 2e300 / 4096 puts every quotient on the box
    # at or above h^(1 - 2/q) = 2.17638e+59, far above the bracket; the
    # record said pass: false with an empty note
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(
            capsys, ["sandwich", "--s", "0.3", "--q", "2.5", "--domain", "rn:1e300"])
    res = json.loads(out)["result"]
    assert (code, err, res["pass"]) == (1, "", False)
    assert res["note"] == ("the grid cannot reach the bracket: every field on it has "
                           "quotient at least 2.17638e+59")


_TM_WARNING = "warning: Trudinger-Moser constants --c1/--c2 defaulted"


@pytest.mark.parametrize("argv, warns", [
    (["bounds", "--p", "2", "--N", "1", "--s", "0.25", "--q", "3"], False),
    (["bounds", "--p", "1", "--N", "2", "--s", "0.5", "--q", "1.2",
      "--domain", "ball:1"], False),
    (["bounds", "--p", "2", "--N", "1", "--s", "0.5", "--q", "3"], True),
    (["bounds", "--p", "2", "--N", "1", "--s", "0.5", "--q", "3", "--c2", "2"], False),
    (["sweep", "--p", "2", "--N", "1", "--s", "0.25,0.5", "--q", "3",
      "--domain", "rn:30", "--grid", "1024"], True),
])
def test_tm_warning_only_at_limiting_points(capsys, argv, warns):
    # C1/C2 enter only the limiting-case lower bounds
    code, _, err = run_capture(capsys, argv)
    assert code == 0
    if warns:
        assert err.startswith(_TM_WARNING)
    else:
        assert err == ""


def _json_field(doc: dict, item: dict, column: str, argv: list[str]):
    """The value in the JSON record that a CSV column names."""
    if column in ("which", "domain"):
        return argv[argv.index("--" + column) + 1]
    if column.endswith("_provenance"):
        return item[column[:-len("_provenance")]]["provenance"]
    for source in (item, item.get("params", {}), doc.get("params") or {}):
        if column in source:
            value = source[column]
            return value["value"] if isinstance(value, dict) else value
    raise KeyError(column)


# the ids are fixed, so that a row keeps its name when an earlier row goes
@pytest.mark.parametrize("argv", [
    pytest.param(["constants", "--N", "3", "--s", "0.5", "--which", "lieb"], id="argv0"),
    pytest.param(["bounds", "--p", "1", "--N", "2", "--s", "0.5", "--q", "1.2",
                  "--domain", "ball:1"], id="argv1"),
    pytest.param(["sandwich", "--p", "2", "--N", "1", "--s", "0.25", "--q", "3",
                  "--domain", "interval:-1,1", "--grid", "1024", "--box", "8"],
                 id="argv2"),
    pytest.param(["sweep", "--p", "2", "--N", "1", "--s", "0.25,0.3", "--q", "2.5,5",
                  "--domain", "rn:100", "--grid", "1024"], id="argv4"),
    pytest.param(["thresholds", "--N", "1", "--s", "0.25", "--q", "3"], id="argv5"),
    pytest.param(["groundstate", "--s", "0.5", "--q", "4", "--grid", "1024",
                  "--box", "30"], id="argv6"),
    pytest.param(["validate"], id="argv7"),
])
def test_csv_cells_match_json_fields(capsys, argv):
    # every CSV cell is the str of the JSON field its column names;
    # a sweep point that raised has only its params, domain, pass and note
    code, out, _ = run_capture(capsys, argv)
    code_csv, out_csv, _ = run_capture(capsys, argv + ["--format", "csv"])
    assert code_csv == code
    doc = json.loads(out)
    items = doc["checks"] if argv[0] == "validate" else doc["result"]
    items = items if isinstance(items, list) else [items]
    rows = list(csv.DictReader(io.StringIO(out_csv)))
    assert len(rows) == len(items)
    for item, row in zip(items, rows):
        for column, cell in row.items():
            if "error" in item:
                value = {**item["params"], "domain": argv[argv.index("--domain") + 1],
                         "pass": False, "note": "error: " + item["error"]}.get(column)
            else:
                value = _json_field(doc, item, column, argv)
            assert cell == ("" if value is None else str(value)), column


def _readme_cli_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("fracsob ")]


def test_readme_cli_examples_run(capsys):
    lines = _readme_cli_lines()
    assert len(lines) == 7
    for line in lines:
        code, out, _ = run_capture(capsys, shlex.split(line)[1:])
        assert code == 0, line
        assert out


@pytest.mark.parametrize("line", _readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_cli_examples_print_json_dumps_text(capsys, line):
    # the record is json.dumps's own text at indent 2: numbers in their
    # shortest round-trip form, not a hand-rolled 17-digit format
    code, out, _ = run_capture(capsys, shlex.split(line)[1:])
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n"


def _subprocess_env() -> dict:
    src = str(Path(fracsob.__file__).resolve().parents[1])
    return {**os.environ, "COLUMNS": "80",
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


# the parser is built by the first `run` of a process and reused by the later
# ones, so each run of a mixed sequence must print what it prints alone
_SEQUENCE = [
    ["groundstate", "--s", "0.5", "--q", "4", "--grid", "256", "--box", "20"],
    ["sandwich", "--s", "0.25", "--q", "3", "--domain", "interval:-1,1",
     "--grid", "256", "--box", "8"],
    ["--help"],
    ["sandwich", "--s", "0.25", "--bogus"],
    ["sweep", "--s", "0.25,0.3", "--q", "3", "--domain", "interval:-1,1",
     "--grid", "256", "--box", "8"],
]


def test_shared_parser_carries_no_state(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")   # --help wraps at the terminal width
    in_process = [run_capture(capsys, argv)[:2] for argv in _SEQUENCE]
    fresh = []
    for argv in _SEQUENCE:
        proc = subprocess.run([sys.executable, "-m", "fracsob.cli", *argv],
                              env=_subprocess_env(), capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in fresh] == [0, 0, 0, 2, 0]
    assert in_process == fresh


_COUNT_PARSERS = """
import argparse, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import fracsob.cli
counts = [len(built)]
for argv in (["constants", "--N", "1", "--s", "0.5", "--which", "lieb"], ["--version"]):
    fracsob.cli.run(argv)
    counts.append(len(built))
print(json.dumps(counts), file=sys.stderr)
"""


def test_parser_built_once_on_first_run():
    proc = subprocess.run([sys.executable, "-c", _COUNT_PARSERS],
                          env=_subprocess_env(), capture_output=True, text=True,
                          check=True)
    at_import, first, second = json.loads(proc.stderr.splitlines()[-1])
    assert at_import == 0
    assert first > 0      # the parser and one subparser per command
    assert second == first


@pytest.mark.parametrize("S,word", [("1e300", "1e+300 ** 3.0 leaves the double range"),
                                    ("inf", "S must be finite, got inf")])
def test_thresholds_refuse_S_out_of_range(capsys, S, word):
    # S = 1e300 raised a raw OverflowError (exit 1); S = inf printed "inf"
    # for S, c_star and both thresholds with exit 0
    code, out, err = run_capture(
        capsys, ["thresholds", "--N", "1", "--s", "0.25", "--q", "3", "--S", S])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and word in err
    if S == "1e300":
        assert "S=1e+300, q=3.0" in err


@pytest.mark.parametrize("field,word", [
    ("bump:1,2,0", "width must be positive"),
    ("bump:1,2,-1", "width must be positive"),
    ("well:1,0.5,0", "width must be positive"),
    ("bump:1,2,nan", "parameters must be finite"),
    ("bump:nan,2,1", "parameters must be finite"),
    ("bump:1,inf,1", "parameters must be finite"),
    ("well:1,inf,1", "parameters must be finite"),
    ("const:nan", "parameters must be finite"),
    ("bump:1e308,1e308,1", "field contains non-finite entries"),
])
def test_bad_field_parameters_are_refused_without_warnings(capsys, field, word):
    # a zero width printed two numpy RuntimeWarnings before the refusal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(
            capsys, ["groundstate", "--q", "3", "--grid", "256", "--box", "20",
                     "--Q", field])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad field '{field}': {word}")


@pytest.mark.parametrize("argv,word", [
    (["--Q", "const:0.5"], "weight must satisfy Q >= 1"),
    (["--V", "const:2"], "potential must satisfy V <= 1"),
    (["--q", "2"], "q must be > 2, got 2.0"),
])
def test_refused_groundstate_costs_no_solve(capsys, monkeypatch, argv, word):
    # the S_numeric solve ran before the ground-state solve refused q
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(fracsob.varmin, "minimize_quotient", no_solve)
    code, out, err = run_capture(
        capsys, ["groundstate", "--grid", "256", "--box", "20"] + argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {word}\n")


def test_narrow_field_width_is_its_limit(capsys):
    # (x/width)^2 overflows to inf off the origin, where the bell is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, _ = run_capture(
            capsys, ["groundstate", "--q", "3", "--grid", "256", "--box", "20",
                     "--Q", "bump:1,2,1e-300"])
    assert code in (0, 1)


@pytest.mark.parametrize("argv,nodes", [
    (["--domain", "interval:-1,1", "--grid", "16", "--box", "8"], "holds 1 of the 16"),
    (["--domain", "interval:-1,1", "--grid", "4", "--box", "8"], "holds 1 of the 4"),
])
def test_grid_too_coarse_for_domain(capsys, argv, nodes):
    # these ended in "degenerate field: L^q norm underflow" or in numpy's
    # "zero-size array to reduction operation maximum"
    code, out, err = run_capture(capsys, ["sandwich", "--s", "0.25", "--q", "3"] + argv)
    assert code == 2
    assert out == ""
    M = argv[argv.index("--grid") + 1]
    assert err.startswith(f"error: the support mask {nodes} nodes on [-8, 8); the solver "
                          f"needs at least 3 and fewer than {M}\nusage: fracsob")
    assert "Traceback" not in err


def sandwich_numeric(capsys, domain):
    code, out, _ = run_capture(capsys, ["sandwich", "--s", "0.3", "--q", "2.5",
                                        "--domain", domain])
    return code, json.loads(out)["result"]["numeric"]["value"]


@pytest.mark.parametrize("domain", ["interval:7,9", "interval:20,22"])
def test_translated_interval_is_solved_centred(capsys, domain):
    # (7, 9) was solved on the part (7, 8) of it in the box [-8, 8), with
    # pass false, and (20, 22) held no node of it
    assert sandwich_numeric(capsys, domain) == sandwich_numeric(capsys, "interval:-1,1")


@pytest.mark.parametrize("box", ["0.5", "1"])
def test_domain_wider_than_the_box_is_refused(capsys, box):
    # --box 0.5 printed the periodic box's value 4.08e-31, --box 1 printed 0.0401
    code, out, err = run_capture(capsys, ["sandwich", "--s", "0.3", "--q", "2.5",
                                          "--domain", "interval:-1,1", "--box", box,
                                          "--grid", "1024"])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: interval (a=-1, b=1) in R^1 does not fit in the box "
                          f"[-{box}, {box}): its inradius 1 must lie below")
    assert "Traceback" not in err


def test_domain_whose_inradius_squared_overflows_is_solved(capsys):
    # the cap start (k0^2 - x^2)_+^s overflowed: three RuntimeWarnings, then
    # "degenerate field", or under -W error a traceback with exit 1; later a
    # refusal.  At unit scale it is (-1, 1) dilated by r = 5e299
    argv = ["sandwich", "--s", "0.3", "--q", "2.5", "--domain"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv + ["interval:-5e299,5e299"])
        _, unit, _ = run_capture(capsys, argv + ["interval:-1,1"])
    assert code == 0
    assert err == ""
    doc, ref = json.loads(out)["result"], json.loads(unit)["result"]
    assert doc["pass"] is True and doc["note"] == ""
    scaled = doc["numeric"]["value"] * 5e299 ** (2 * 0.3 - 1 + 2 / 2.5)
    assert abs(scaled - ref["numeric"]["value"]) < 1e-8 * ref["numeric"]["value"]


@pytest.mark.parametrize("argv,message", [
    pytest.param(["sandwich", "--s", "0.3", "--q", "2.5", "--domain", "rn:2e-305"],
                 "grid half_width 2e-305 is too small: the spacing", id="rn-2e-305"),
    pytest.param(["sandwich", "--s", "0.3", "--q", "2.5", "--domain", "rn:200",
                  "--box", "1e-310"],
                 "grid half_width 1e-310 is too small: the spacing", id="sandwich-box"),
    pytest.param(["groundstate", "--box", "1e-310", "--V", "const:1", "--Q", "const:1"],
                 "grid half_width 1e-310 is too small: the spacing", id="groundstate-box"),
    pytest.param(["groundstate", "--s", "0.9", "--box", "1e-290", "--V", "const:1",
                  "--Q", "const:1"],
                 "grid half_width 1e-290 is too small for s=0.9: the top symbol",
                 id="groundstate-symbol"),
    pytest.param(["sandwich", "--s", "0.3", "--q", "2.5", "--domain",
                  "interval:-8e307,8e307"],
                 "the default box of interval (a=-8e+307, b=8e+307) in R^1 overflows "
                 "a double", id="default-box"),
])
def test_grid_out_of_double_range_is_refused(capsys, argv, message):
    # a subnormal spacing or an overflowing symbol warned and ended in "got
    # nan" or "non-finite entries"; 8 x the inradius 8e307 said "got inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message)
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("cmd,q,domain", [
    pytest.param("sandwich", "1.5", "interval:-8e307,8e307", id="sandwich-interval"),
    pytest.param("sandwich", "1.5", "ball:8e307", id="sandwich-ball"),
    pytest.param("sweep", "1.2,1.5", "interval:-8e307,8e307", id="sweep-interval"),
])
def test_point_that_does_not_solve_needs_no_default_box(capsys, cmd, q, domain):
    # the default box was built before dispatch and refused, though a p = 1
    # point takes its exact value and solves nothing: exit 2, "the default
    # box of ... overflows a double"
    argv = ["--p", "1", "--N", "1", "--s", "0.5", "--domain", domain]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, [cmd, "--q", q] + argv)
        values = []
        for q_ in q.split(","):
            _, bound, _ = run_capture(capsys, ["bounds", "--q", q_] + argv)
            values.append(json.loads(bound)["result"]["lower"]["value"])
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    for doc, value in zip(result if cmd == "sweep" else [result], values, strict=True):
        assert doc["pass"] is True
        assert doc["lower"]["value"] == doc["upper"]["value"] == value


@pytest.mark.parametrize("cmd,q", [("sandwich", "1.5"), ("sweep", "1.2,1.5")])
@pytest.mark.parametrize("flags", [["--grid", "2048"], ["--box", "1e308"]])
def test_point_that_does_not_solve_builds_no_grid(capsys, cmd, q, flags):
    # --grid or --box built the grid before dispatch: with --grid 2048 the
    # default box of this interval overflowed, --box 1e308 the spacing, and
    # both exited 2, though a p = 1 point solves nothing
    argv = [cmd, "--p", "1", "--N", "1", "--s", "0.5", "--q", q,
            "--domain", "interval:-8e307,8e307"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_capture(capsys, argv + flags)
        _, plain, _ = run_capture(capsys, argv)
    assert code == 0 and err == ""
    doc, ref = json.loads(out), json.loads(plain)
    assert doc.pop("command") == ["fracsob"] + argv + flags
    assert ref.pop("command") == ["fracsob"] + argv
    assert doc == ref


@pytest.mark.parametrize("argv,word", [
    pytest.param(["--s", "0.7", "--q", "3", "--domain", "rn:100", "--grid", "1024"],
                 "error: no bounds available", id="out-of-scope"),
    # a ConvergenceError, which used to print a JSON record on stdout
    pytest.param(["--s", "0.5", "--q", "1e6", "--domain", "interval:-1,1"],
                 "error: degenerate field", id="degenerate-field"),
])
def test_refused_sandwich_is_a_usage_error(capsys, argv, word):
    # a single point's refusal is reported as every command reports one: the
    # message and the usage line on stderr, nothing on stdout, exit 2
    code, out, err = run_capture(capsys, ["sandwich", "--N", "1", "--p", "2"] + argv)
    assert code == 2
    assert out == ""
    assert word in err and "\nusage: fracsob" in err
    assert "Error:" not in err


def test_a_defect_is_not_a_refusal(monkeypatch):
    # only a FracsobError is a refusal; any other exception propagates
    def broken(*args, **kwargs):
        raise ZeroDivisionError("a defect")

    monkeypatch.setattr(fracsob.varmin, "sandwich", broken)
    with pytest.raises(ZeroDivisionError):
        run(["sandwich", "--s", "0.25", "--q", "3", "--grid", "256"])


@pytest.mark.parametrize("cls,base", [
    (DomainError, ValueError), (RegimeError, ValueError), (GridError, ValueError),
    (QuadratureError, RuntimeError), (ConvergenceError, RuntimeError)])
def test_every_error_is_a_refusal(cls, base):
    assert issubclass(cls, FracsobError) and issubclass(cls, base)


def test_three_domain_nodes_solve(capsys):
    code, _, _ = run_capture(
        capsys, ["sandwich", "--s", "0.25", "--q", "3", "--domain", "interval:-1,1",
                 "--grid", "32", "--box", "8"])
    assert code == 0


@pytest.mark.parametrize("argv,N", [
    (["bounds", "--N", "3", "--p", "2", "--s", "0.5", "--q", "2.5"], 3),
    (["sandwich", "--N", "2", "--p", "1", "--s", "0.3", "--q", "1.1"], 2),
    (["bounds", "--N", "1", "--p", "2", "--s", "0.25", "--q", "3"], 1),
])
def test_whole_space_record_has_the_dimension(capsys, argv, N):
    code, out, _ = run_capture(capsys, argv + ["--domain", "rn:200"])
    assert code == 0
    assert json.loads(out)["domain"] == {"kind": "whole_space", "dim": N,
                                         "truncation": 200.0}


@pytest.mark.parametrize("argv", [
    ["--which", "classical-sobolev", "--p", "0"],
    ["--which", "classical-sobolev", "--p", "-0.0"],
    ["--which", "mazya-lower", "--p", "0", "--s", "0.5"],
])
def test_constants_p_zero_is_refused(capsys, argv):
    # --p 0 used to be replaced by the default p = 2 and evaluated there
    code, out, err = run_capture(capsys, ["constants", "--N", "3"] + argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and "p=" in err


@pytest.mark.parametrize("where,reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory")])
def test_unwritable_out_is_refused(tmp_path, capsys, where, reason):
    # the write ended in a FileNotFoundError or IsADirectoryError traceback
    path = str(tmp_path / "missing" / "x.json" if where == "missing" else tmp_path)
    code, out, err = run_capture(
        capsys, ["bounds", "--N", "1", "--s", "0.25", "--q", "3", "--out", path])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: {reason}")


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv,name", [
    (["thresholds", "--N", "1", "--s", "0.5", "--q", "3", "--c2"], "C2"),
    (["bounds", "--N", "1", "--s", "0.5", "--q", "3", "--domain", "rn:200", "--c2"], "C2"),
    (["bounds", "--N", "1", "--s", "0.5", "--q", "3", "--domain", "interval:-1,1",
      "--c1"], "C1"),
])
def test_non_finite_tm_constant_is_named(capsys, argv, name, value):
    # these said "constant must be finite and positive, got nan" (or "got 0.0")
    code, out, err = run_capture(capsys, argv + [value])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be finite and ") and f"got {value}" in err


@pytest.mark.parametrize("argv,flag", [
    # points that do not read the flag: C2 is read only on the whole space,
    # C1 only on a bounded limiting point, thresholds reads C2 only at s = 1/2
    (["bounds", "--N", "1", "--s", "0.5", "--q", "3", "--domain", "interval:-1,1",
      "--c2", "nan"], "--c2"),
    (["sandwich", "--N", "1", "--s", "0.25", "--q", "3", "--c1", "inf"], "--c1"),
    (["sweep", "--N", "1", "--s", "0.25,0.3", "--q", "3", "--c2", "inf"], "--c2"),
    (["thresholds", "--N", "1", "--s", "0.25", "--q", "3", "--c2", "nan"], "--c2"),
])
def test_bad_tm_constant_is_refused_where_not_read(capsys, argv, flag):
    # these exited 0; the refusal is bounds_for's own, naming the constant
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag[2:].upper()} must be finite and ")


@pytest.mark.parametrize("c2", ["1", "nan"])
def test_thresholds_S_excludes_c2(capsys, c2):
    # --c2 is read only to compute S: a given --S ignored it (exit 0), or
    # refused a bad one by the rule of a flag it did not read
    code, out, err = run_capture(capsys, ["thresholds", "--S", "2", "--c2", c2])
    assert code == 2
    assert out == ""
    assert "argument --c2: not allowed with argument --S" in err


@pytest.mark.parametrize("cmd,extra", [("bounds", []),
                                       ("sandwich", ["--grid", "256"])])
def test_bare_rn_is_the_default_truncation(capsys, cmd, extra):
    argv = [cmd, "--s", "0.3", "--q", "2.5"] + extra
    records = []
    for domain in (["--domain", "rn:200"], ["--domain", "rn"], []):
        code, out, err = run_capture(capsys, argv + domain)
        assert code == 0 and err == ""
        record = json.loads(out)
        del record["command"]
        records.append(record)
    assert records[1] == records[0] and records[2] == records[0]
    assert records[0]["domain"]["truncation"] == 200.0


@pytest.mark.parametrize("cmd", ["sandwich", "sweep", "groundstate"])
def test_max_iters_flag_is_gone(capsys, cmd):
    # every descent stops at the one cap varmin._MAX_ITERS
    code, out, err = run_capture(capsys, [cmd, "--max-iters", "100"])
    assert code == 2 and out == ""
    assert "unrecognized arguments: --max-iters" in err


@pytest.mark.parametrize("cmd", ["thresholds", "groundstate"])
def test_bare_command_runs(capsys, cmd):
    # both need q > 2; they defaulted to q = 2 and exited 2
    code, out, _ = run_capture(capsys, [cmd])
    assert code == 0
    assert json.loads(out)["params"]["q"] == 4.0
