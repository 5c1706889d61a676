import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest

from fracsob.cli import _fmt, run


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
        assert (row["N"], row["s"], row["p"], row["q"]) == ("1", "0.25", "2", "5")
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


@pytest.mark.parametrize("argv", [
    ["constants", "--s", "abc", "--which", "lieb"],
    ["bounds", "--s", "0.25,0.3"],
    ["sweep", "--s", "0.25,x"],
])
def test_unparsable_s_is_usage_error(capsys, argv):
    # --s is parsed like --q: a list on sweep, one number everywhere else
    code, out, err = run_capture(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--s" in err


def test_groundstate_has_no_tol(capsys):
    # --tol is the sandwich acceptance tolerance; groundstate never read it
    code, out, err = run_capture(capsys, ["groundstate", "--tol", "0.1"])
    assert code == 2
    assert "unrecognized arguments: --tol" in err


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


@pytest.mark.parametrize("argv", [
    ["constants", "--N", "3", "--s", "0.5", "--which", "lieb"],
    ["bounds", "--p", "1", "--N", "2", "--s", "0.5", "--q", "1.2", "--domain", "ball:1"],
    ["sandwich", "--p", "2", "--N", "1", "--s", "0.25", "--q", "3",
     "--domain", "interval:-1,1", "--grid", "1024", "--box", "8"],
    ["sandwich", "--p", "2", "--N", "1", "--s", "0.7", "--q", "3",
     "--domain", "rn:100", "--grid", "1024"],
    ["sweep", "--p", "2", "--N", "1", "--s", "0.25,0.3", "--q", "2.5,5",
     "--domain", "rn:100", "--grid", "1024"],
    ["thresholds", "--N", "1", "--s", "0.25", "--q", "3"],
    ["groundstate", "--s", "0.5", "--q", "4", "--grid", "1024", "--box", "30"],
    ["validate"],
])
def test_csv_cells_match_json_fields(capsys, argv):
    # every CSV cell is the 17-digit text of the JSON field its column names;
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
            assert cell == ("" if value is None else _fmt(value)), column


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
