import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import prolong
from prolong import MultiPoly, cli, errors
from prolong.cli import MAX_NABLA_ORDER, MAX_SAMPLES, MAX_SERIES_ORDER, UsageError, main
from prolong.expr import MAX_DEGREE, MAX_LITERAL_DIGITS, read_int
from prolong.model import MAX_ATLAS_CHARTS, MAX_ATLAS_DIM

from helpers import int_str_limit

DATA = Path(__file__).parent / "data"
MODEL_Q = str(DATA / "model_q.json")
MODEL_QT = str(DATA / "model_qt.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


def test_report_shape(capsys):
    code, report, err = run(capsys, "parse", "-i", MODEL_Q, "--expr", "1/2 + 1/3")
    assert code == 0
    assert sorted(report) == ["command", "details", "status", "timing_ms"]
    assert report["command"] == f"prolong parse -i {MODEL_Q} --expr 1/2 + 1/3"
    assert report["status"] == "pass"
    assert isinstance(report["timing_ms"], int) and report["timing_ms"] >= 0
    assert err == ""


def test_reports_are_deterministic_modulo_timing(capsys):
    argv = ("gb", "-i", MODEL_Q, "-v", "Twisted")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


def test_parse_canonicalizes(capsys):
    code, report, _ = run(capsys, "parse", "-i", MODEL_Q, "--expr", "1/2 + 1/3")
    assert report["details"]["canonical"] == "5/6"
    assert report["details"]["is_polynomial"] is True
    code, report, _ = run(
        capsys, "parse", "-i", MODEL_QT, "--expr", "(x + t)/(x - t)", "--vars", "x"
    )
    assert code == 0
    assert report["details"]["canonical"] == "(x + t)/(x - t)"
    assert report["details"]["is_polynomial"] is False
    code, report, _ = run(
        capsys, "parse", "-i", MODEL_Q, "--expr", "x*w - 1", "-v", "GmV"
    )
    assert report["details"]["variables"] == ["x", "w"]


@pytest.mark.parametrize(
    "expr, message",
    [
        ("(" * 3000 + "x" + ")" * 3000, "nested deeper"),
        ("(x+1)^100000", "exponent above"),
        (f"(x+1)^{MAX_DEGREE // 2}*(x+1)^{MAX_DEGREE // 2 + 1}", "degree above"),
    ],
)
def test_parse_caps_give_one_report(capsys, expr, message):
    code, report, _ = run(capsys, "parse", "-i", MODEL_Q, "--expr", expr, "--vars", "x")
    assert code == 2
    assert report["details"]["error"] == "ExprSyntaxError"
    assert message in report["details"]["message"]


def test_parse_rejects_repeated_variables(capsys):
    code, report, _ = run(capsys, "parse", "-i", MODEL_Q, "--expr", "x", "--vars", "x,x")
    assert code == 2
    assert "duplicate variable names" in report["details"]["message"]


@pytest.mark.parametrize("names", ["x,", "1a,b c", "x,y-z", "é", "x,yé"])
def test_parse_rejects_names_that_are_not_identifiers(capsys, names):
    # no expression could reference them, and a model's vars refuse them too
    code, report, _ = run(capsys, "parse", "-i", MODEL_Q, "--expr", "x", "--vars", names)
    assert code == 2
    assert report["details"]["error"] == "ValueError"
    assert "variable names must be identifiers" in report["details"]["message"]


SIX_COMMANDS = (
    ("check-group", "-i", MODEL_Q, "-g", "B"),
    ("tau-group", "-i", MODEL_Q, "-g", "B"),
    ("check-dgroup", "-i", MODEL_Q, "-g", "B", "-s", "b_s01"),
    ("check-dgroup", "-i", MODEL_Q, "-g", "Gm", "-s", "gm_twist1"),
    ("tau-group", "-i", MODEL_QT, "-g", "Ga"),
    ("check-cocycle", "-i", MODEL_QT, "-a", "P1"),
)


def test_no_product_by_one(capsys, monkeypatch):
    # the commands that once made 314 of their 608 polynomial products by 1
    products, by_one = [], []
    real = MultiPoly.__mul__

    def counted(a, b):
        products.append(1)
        if a.is_one or (b.is_one if isinstance(b, MultiPoly) else b == 1):
            by_one.append(1)
        return real(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    for argv in SIX_COMMANDS:
        run(capsys, *argv)
    assert products and not by_one


def test_parse_variety_and_vars_exclusive(capsys):
    code, report, err = run(
        capsys, "parse", "-i", MODEL_Q, "--expr", "x", "-v", "GmV", "--vars", "x"
    )
    assert code == 2
    assert report["status"] == "error"
    assert "not allowed with" in err


# Calls whose parses leave state behind if any does: a usage error, then a
# valid call; a degree cap, then the default; a mutual-exclusion error, then
# a success.
PARSER_SEQUENCE = (
    ("gb", "-i", MODEL_Q, "-v", "Twisted", "--no-such-flag"),
    ("gb", "-i", MODEL_Q, "-v", "Twisted"),
    ("gb", "-i", MODEL_Q, "-v", "Twisted", "--term-order", "lex", "--degree-cap", "2"),
    ("gb", "-i", MODEL_Q, "-v", "Twisted", "--term-order", "lex"),
    ("parse", "-i", MODEL_Q, "--expr", "x", "-v", "GmV", "--vars", "x"),
    ("parse", "-i", MODEL_Q, "--expr", "x*w - 1", "-v", "GmV"),
)


def test_shared_parser_reports_as_a_fresh_one(capsys, monkeypatch):
    def untimed(argv):
        code, report, err = run(capsys, *argv)
        report.pop("timing_ms")
        return code, report, err

    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = [untimed(argv) for argv in PARSER_SEQUENCE]
    assert [code for code, _, _ in fresh] == [2, 0, 1, 0, 2, 0]
    assert [untimed(argv) for argv in PARSER_SEQUENCE] == fresh
    assert cli._parser() is cli._parser()


def test_gb_twisted_cubic(capsys):
    code, report, _ = run(capsys, "gb", "-i", MODEL_Q, "-v", "Twisted")
    assert code == 0
    assert report["details"]["basis"] == ["y^2 - x*z", "x*y - z", "x^2 - y"]
    assert report["details"]["size"] == 3
    assert report["details"]["term_order"] == "grevlex"


def test_gb_variety_without_generators(capsys):
    code, report, _ = run(capsys, "gb", "-i", MODEL_Q, "-v", "GaV")
    assert code == 0
    assert report["details"]["basis"] == []


def test_nf_membership(capsys):
    code, report, _ = run(
        capsys, "nf", "-i", MODEL_Q, "-v", "Twisted", "--expr", "z^2 - y^3"
    )
    assert code == 0
    assert report["details"]["is_zero"] is True
    assert report["details"]["normal_form"] == "0"
    code, report, _ = run(
        capsys, "nf", "-i", MODEL_Q, "-v", "Twisted", "--expr", "z^2 - y^2"
    )
    assert report["details"]["is_zero"] is False


def test_fdel_map(capsys):
    code, report, _ = run(capsys, "fdel", "-i", MODEL_QT, "-m", "tw")
    assert code == 0
    assert report["details"]["components"] == ["x", "-2*t"]


def test_tau_map(capsys):
    code, report, _ = run(capsys, "tau-map", "-i", MODEL_QT, "-m", "sq")
    assert code == 0
    assert report["details"]["components"] == ["x^2", "2*x*u_x"]
    assert report["details"]["variables"] == ["x", "u_x"]


def test_prolonged_variety_generators(capsys):
    code, report, _ = run(capsys, "tau-variety", "-i", MODEL_QT, "-v", "Circle")
    assert code == 0
    assert report["details"]["generators"] == [
        "x^2 + y^2 - t",
        "2*x*u_x + 2*y*u_y - 1",
    ]
    code, report, _ = run(capsys, "t-variety", "-i", MODEL_QT, "-v", "Circle")
    assert report["details"]["generators"] == [
        "x^2 + y^2 - t",
        "2*x*u_x + 2*y*u_y",
    ]


def test_nabla_sequence(capsys):
    code, report, _ = run(
        capsys, "nabla", "-i", MODEL_QT, "-v", "Hyp", "--init", "t,1", "--order", "2"
    )
    assert code == 0
    assert report["details"]["sequence"] == [["t", "1"], ["1", "0"], ["0", "0"]]


def test_nabla_rejects_off_variety_point(capsys):
    code, report, _ = run(
        capsys, "nabla", "-i", MODEL_QT, "-v", "Hyp", "--init", "1,1"
    )
    assert code == 1
    assert report["status"] == "fail"
    assert report["details"]["error"] == "PointNotOnVariety"


def test_nabla_order_cap(capsys):
    argv = ("nabla", "-i", MODEL_QT, "-v", "Hyp", "--init", "t,1")
    code, report, _ = run(capsys, *argv, "--order", str(MAX_NABLA_ORDER))
    assert code == 0
    assert len(report["details"]["sequence"]) == MAX_NABLA_ORDER + 1
    code, report, err = run(capsys, *argv, "--order", str(MAX_NABLA_ORDER + 1))
    assert code == 2
    assert report["details"]["error"] == "UsageError"
    assert f"between 0 and {MAX_NABLA_ORDER}" in err


def test_check_nabla(capsys):
    code, report, _ = run(
        capsys, "check-nabla", "-i", MODEL_QT, "-v", "Hyp", "--init", "t^2,1/t"
    )
    assert code == 0
    assert report["details"]["holds"] is True


def test_fiber_description(capsys):
    code, report, _ = run(
        capsys, "fiber", "-i", MODEL_QT, "-v", "Hyp", "--init", "t,1"
    )
    assert code == 0
    assert report["details"]["particular"] == ["1", "0"]
    assert report["details"]["basis"] == [["-t", "1"]]
    assert report["details"]["dimension"] == 1
    code, report, _ = run(
        capsys, "fiber", "-i", MODEL_QT, "-v", "Hyp", "--init", "t,1",
        "--kind", "tangent",
    )
    assert report["details"]["particular"] == ["0", "0"]


def test_transfer_invertible(capsys):
    code, report, _ = run(
        capsys, "transfer", "-i", MODEL_QT, "-c", "parabola", "--init", "t,t^2"
    )
    assert code == 0
    d = report["details"]
    assert d["matrix"] == [["2*t"]]
    assert d["offset"] == ["0"]
    assert d["invertible"] is True
    assert d["inverse_matrix"] == [["(1/2)/t"]]


def test_transfer_critical_point_not_invertible(capsys):
    code, report, _ = run(
        capsys, "transfer", "-i", MODEL_Q, "-c", "parab0", "--init", "0,0"
    )
    assert code == 0
    d = report["details"]
    assert d["matrix"] == [["0"]]
    assert d["invertible"] is False
    assert "inverse_matrix" not in d


def test_check_cocycle(capsys):
    code, report, _ = run(capsys, "check-cocycle", "-i", MODEL_QT, "-a", "P1")
    assert code == 0
    assert report["details"]["ok"] is True
    assert report["details"]["checks"][0]["name"] == "inverse (1,2)"


def test_check_cocycle_failure(capsys, tmp_path):
    doc = {
        "basefield": "Q",
        "atlases": {
            "M": {
                "dim": 1,
                "charts": 2,
                "transitions": {"1,2": ["1/x"], "2,1": ["2/x"]},
            }
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(capsys, "check-cocycle", "-i", str(path), "-a", "M")
    assert code == 1
    assert report["status"] == "fail"
    entry = report["details"]["checks"][0]
    assert entry["ok"] is False
    assert entry["witness"] == "(2*x)"


def test_tau_atlas(capsys):
    code, report, _ = run(
        capsys, "tau-atlas", "-i", MODEL_QT, "-a", "P1", "--samples", "5", "--seed", "3"
    )
    assert code == 0
    d = report["details"]
    assert d["variables"] == ["x", "u_x"]
    assert d["transitions"]["1,2"] == ["1/x", "-u_x/x^2"]
    assert all(entry["ok"] for entry in d["sigma_compatibility"])
    assert all(entry["samples"] == 5 for entry in d["sigma_compatibility"])


@pytest.mark.parametrize("samples", ["0", "-3", str(MAX_SAMPLES + 1)])
def test_tau_atlas_samples_range(capsys, samples):
    code, report, err = run(
        capsys, "tau-atlas", "-i", MODEL_QT, "-a", "P1", "--samples", samples
    )
    assert code == 2
    assert report["details"]["error"] == "UsageError"
    assert f"between 1 and {MAX_SAMPLES}" in err


def test_check_group(capsys):
    code, report, _ = run(capsys, "check-group", "-i", MODEL_Q, "-g", "B")
    assert code == 0
    assert report["details"]["ok"] is True


def test_check_group_failure(capsys, tmp_path):
    doc = {
        "basefield": "Q",
        "varieties": {"V": {"vars": ["x"]}},
        "groups": {
            "Bad": {
                "variety": "V",
                "mult": ["x1 + 2*x2"],
                "inv": ["-x"],
                "identity": ["0"],
            }
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(capsys, "check-group", "-i", str(path), "-g", "Bad")
    assert code == 1
    assert report["status"] == "fail"
    assert any(not c["ok"] for c in report["details"]["checks"])


def test_tau_group(capsys):
    code, report, _ = run(capsys, "tau-group", "-i", MODEL_Q, "-g", "Gm")
    assert code == 0
    d = report["details"]
    assert d["identity"] == ["1", "1", "0", "0"]
    assert d["variables"] == ["x", "w", "u_x", "u_w"]
    assert d["mult"] == [
        "x1*x2",
        "w1*w2",
        "u_x1*x2 + x1*u_x2",
        "u_w1*w2 + w1*u_w2",
    ]
    assert d["variety_generators"] == ["x*w - 1", "w*u_x + x*u_w"]


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_tau_group_degree_cap_bounds_only_the_check_of_the_input(capsys, order):
    # Gm's axioms hold within degree 2; tau(Gm) is not checked, so the cap
    # never meets the degree-3 bases of the prolonged variety.
    reports = []
    for cap in ("2", "3"):
        argv = ("tau-group", "-i", MODEL_Q, "-g", "Gm", "--degree-cap", cap, "--term-order", order)
        code, report, _ = run(capsys, *argv)
        assert code == 0 and report["status"] == "pass", report
        reports.append(report["details"])
    assert reports[0] == reports[1]


def test_check_dgroup_pass(capsys):
    for group, sect in (("Ga", "ga_cm2"), ("B", "b_s01"), ("B", "b_s2m3")):
        code, report, _ = run(
            capsys, "check-dgroup", "-i", MODEL_Q, "-g", group, "-s", sect
        )
        assert code == 0, (group, sect)
        assert report["details"]["ok"] is True


def test_check_dgroup_over_function_field(capsys):
    code, report, _ = run(
        capsys, "check-dgroup", "-i", MODEL_QT, "-g", "Ga", "-s", "ga_ct"
    )
    assert code == 0
    assert report["details"]["ok"] is True


def test_check_dgroup_twist_fails(capsys):
    code, report, _ = run(
        capsys, "check-dgroup", "-i", MODEL_Q, "-g", "Gm", "-s", "gm_twist1"
    )
    assert code == 1
    checks = {c["name"]: c for c in report["details"]["checks"]}
    assert checks["section: generator 0"]["ok"] is True
    assert checks["homomorphism: component 0"]["witness"] == "x1*x2"
    assert checks["homomorphism: component 1"]["witness"] == "-w1*w2"


def test_check_dgroup_section_group_mismatch(capsys):
    code, report, err = run(
        capsys, "check-dgroup", "-i", MODEL_Q, "-g", "Ga", "-s", "b_s01"
    )
    assert code == 2
    assert report["status"] == "error"
    assert "belongs to group" in err


def _gm_doc(tmp_path, **groups):
    """A model on Gm's variety x*w - 1 with the given groups, each with the
    zero section "<group>_zero"."""
    doc = {
        "basefield": "Q",
        "varieties": {"GmV": {"vars": ["x", "w"], "gens": ["x*w - 1"]}},
        "groups": {
            name: {"variety": "GmV", "mult": mult, "inv": inv, "identity": ["1", "1"]}
            for name, (mult, inv) in groups.items()
        },
        "sections": {f"{name}_zero": {"group": name, "sigma": ["0", "0"]} for name in groups},
    }
    path = tmp_path / "gm.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_tau_group_and_check_dgroup_report_failed_axioms(capsys, tmp_path):
    # inv = identity is no inverse on Gm: x*x = 1 fails off x = +-1.
    path = _gm_doc(tmp_path, Bad=(["x1*x2", "w1*w2"], ["x", "w"]))
    for argv in (("tau-group", "-g", "Bad"), ("check-dgroup", "-g", "Bad", "-s", "Bad_zero")):
        code, report, err = run(capsys, argv[0], "-i", path, *argv[1:])
        assert code == 1 and err == "", argv
        details = report["details"]
        assert details["ok"] is False
        failed = {c["name"]: c["witness"] for c in details["checks"] if not c["ok"]}
        assert failed == {"inverse: component 0": "-x^2 + 1", "inverse: component 1": "-w^2 + 1"}


def test_check_group_denominator_vanishing_on_the_variety(capsys, tmp_path):
    # At x1 = w1 = 1 the first component is x2/(x2*w2 - 1): its denominator
    # vanishes on Gm.
    path = _gm_doc(tmp_path, Div=(["x1*x2/(x2*w2 - x1)", "w1*w2"], ["w", "x"]))
    code, report, _ = run(capsys, "check-group", "-i", path, "-g", "Div")
    assert code == 1
    assert report["details"] == {
        "error": "IndeterminateOnVariety",
        "message": "left identity: a cleared denominator vanishes identically on the variety",
    }


def test_check_dpoint(capsys):
    code, report, _ = run(
        capsys, "check-dpoint", "-i", MODEL_QT, "-g", "Ga", "-s", "ga_ct",
        "--init", "0",
    )
    assert code == 0
    assert report["details"]["holds"] is True
    code, report, _ = run(
        capsys, "check-dpoint", "-i", MODEL_QT, "-g", "Ga", "-s", "ga_ct",
        "--init", "t",
    )
    assert code == 1


def test_solve_series_triangular(capsys):
    code, report, _ = run(
        capsys, "solve-series", "-i", MODEL_Q, "-g", "B", "-s", "b_s01",
        "--init", "2,0,1/2", "--order", "5",
    )
    assert code == 0
    d = report["details"]
    assert d["coefficients"]["y"] == ["0", "-1", "0", "0", "0", "0"]
    assert d["coefficients"]["x"] == ["2", "0", "0", "0", "0", "0"]
    assert d["coefficients"]["w"] == ["1/2", "0", "0", "0", "0", "0"]
    assert d["residuals_zero"] is True
    assert d["order"] == 5


def test_solve_series_exponential(capsys):
    code, report, _ = run(
        capsys, "solve-series", "-i", MODEL_Q, "-g", "Ga", "-s", "ga_c1",
        "--init", "1", "--order", "6",
    )
    assert code == 0
    assert report["details"]["coefficients"]["x"] == [
        "1", "1", "1/2", "1/6", "1/24", "1/120", "1/720",
    ]


def test_solve_series_off_variety(capsys):
    code, report, _ = run(
        capsys, "solve-series", "-i", MODEL_Q, "-g", "Gm", "-s", "gm_twist0",
        "--init", "2,1", "--order", "4",
    )
    assert code == 1
    assert report["details"]["error"] == "PointNotOnVariety"


def test_solve_series_order_cap(capsys):
    argv = ("solve-series", "-i", MODEL_Q, "-g", "B", "-s", "b_s01", "--init", "2,0,1/2")
    code, report, _ = run(capsys, *argv, "--order", str(MAX_SERIES_ORDER))
    assert code == 0
    assert report["details"]["order"] == MAX_SERIES_ORDER
    code, report, err = run(capsys, *argv, "--order", "100000")
    assert code == 2
    assert report["details"]["error"] == "UsageError"
    assert f"between 0 and {MAX_SERIES_ORDER}" in err


@pytest.mark.parametrize("argv, cap", [
    (("nabla", "-i", MODEL_QT, "-v", "Hyp", "--init", "t,1"), MAX_NABLA_ORDER),
    (("solve-series", "-i", MODEL_Q, "-g", "B", "-s", "b_s01", "--init", "2,0,1/2"),
     MAX_SERIES_ORDER),
])
def test_negative_order_is_a_usage_error(capsys, argv, cap):
    code, report, err = run(capsys, *argv, "--order", "0")
    assert code == 0
    assert report["details"]["order"] == 0
    code, report, err = run(capsys, *argv, "--order", "-1")
    assert code == 2
    assert report["status"] == "error"
    assert report["details"]["error"] == "UsageError"
    assert f"--order must be between 0 and {cap}, got -1" in err
    assert "nonnegative" not in err and "Traceback" not in err


def test_verify_series_round_trip(capsys, tmp_path):
    code, report, _ = run(
        capsys, "solve-series", "-i", MODEL_Q, "-g", "B", "-s", "b_s01",
        "--init", "2,0,1/2", "--order", "5",
    )
    assert code == 0
    stored = tmp_path / "series.json"
    stored.write_text(json.dumps(report))
    code, verify, _ = run(
        capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(stored)
    )
    assert code == 0
    assert verify["details"]["residuals_zero"] is True


def test_verify_series_detects_tampering(capsys, tmp_path):
    doc = {"coefficients": {"x": ["2", "1"], "y": ["0", "0"], "w": ["1/2", "0"]}}
    stored = tmp_path / "series.json"
    stored.write_text(json.dumps(doc))
    code, report, _ = run(
        capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(stored)
    )
    assert code == 1
    assert report["details"]["residuals_zero"] is False


def test_verify_series_validates_file(capsys, tmp_path):
    stored = tmp_path / "series.json"
    stored.write_text(json.dumps({"coefficients": {"x": ["1"]}}))
    code, report, _ = run(
        capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(stored)
    )
    assert code == 2
    assert "coefficients must cover exactly" in report["details"]["message"]
    stored.write_text("not json")
    code, report, _ = run(
        capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(stored)
    )
    assert code == 2
    long = ["1"] + ["0"] * (MAX_SERIES_ORDER + 1)
    stored.write_text(json.dumps({"coefficients": {"x": long, "y": long, "w": long}}))
    code, report, _ = run(
        capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(stored)
    )
    assert code == 2
    assert f"at most {MAX_SERIES_ORDER}" in report["details"]["message"]


@pytest.mark.parametrize(
    "coefficient",
    [
        "0.12345678901234567890123",  # a JSON real, read through a float
        "8.100000000000000000001",  # a JSON real whose float is 81/10
        '"1e10000000"',  # Fraction would expand it to ten million digits
        '"1e200000"',
        "1e5",
        '"0.5"',
        '" 1/2"',
        '"1/0"',
        '"-2/-1"',
        "true",
        "null",
        "1" * 5000,  # a JSON integer longer than int() reads
        '"' + "1" * 5000 + '"',
    ],
    ids=["long-real", "real-81/10", "exponent-string", "exponent-200000", "exponent-number",
         "decimal-string", "space", "zero-denominator", "negative-denominator", "boolean", "null", "long-integer",
         "long-integer-string"],
)
def test_series_coefficient_must_be_integer_or_rational_string(capsys, tmp_path, coefficient):
    path = tmp_path / "series.json"
    path.write_text(
        '{"coefficients": {"x": ["2", %s], "y": ["0", "0"], "w": ["1/2", "0"]}}' % coefficient
    )
    start = time.perf_counter()
    code, report, _ = run(
        capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(path)
    )
    assert time.perf_counter() - start < 2
    assert code == 2
    assert report["details"]["error"] == "UsageError"


def test_series_coefficient_digit_bound_holds_without_interpreter_limit(capsys, tmp_path):
    # The bound is the program's own: with Python's integer-string limit off,
    # a longer integer is still refused at once, and one at the bound is read.
    path = tmp_path / "series.json"
    longest = "7" * MAX_LITERAL_DIGITS
    cases = [
        ("1" * 10**6, 2),
        ('"%s1"' % longest, 2),
        ('"1/%s1"' % longest, 2),
        (longest, 1),  # read, and then not a solution
        ('"-1/%s"' % longest, 1),
    ]
    # Pythons before 3.10.7 have no limit to switch off.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        for coefficient, want in cases:
            path.write_text(
                '{"coefficients": {"x": ["2", %s], "y": ["0", "0"], "w": ["1/2", "0"]}}'
                % coefficient
            )
            start = time.perf_counter()
            code, report, _ = run(
                capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(path)
            )
            assert time.perf_counter() - start < 2
            assert code == want, report
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("limit", [None, 0], ids=["default-limit", "no-limit"])
def test_outside_documents_cap_integers_in_one_short_report(capsys, tmp_path, limit):
    # A 5000-digit integer in a model or a series file is refused before it
    # is converted, whatever Python's integer-string limit is, and the
    # report does not echo it.
    huge = "7" * 5000
    model = tmp_path / "model.json"
    model.write_text(
        '{"basefield": "Q", "atlases": {"A": {"dim": 1, "charts": %s, "transitions": {}}}}'
        % huge
    )
    series = tmp_path / "series.json"
    series.write_text('{"coefficients": {"x": [%s], "y": ["0"], "w": ["1"]}}' % huge)
    cases = [
        (("check-cocycle", "-i", str(model), "-a", "A"), "ModelError",
         f"model document has an integer of more than {MAX_LITERAL_DIGITS} digits"),
        (("verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(series)), "UsageError",
         f"series file {series} has an integer of more than {MAX_LITERAL_DIGITS} digits"),
    ]
    with int_str_limit(limit):
        for argv, error, message in cases:
            code = main(list(argv))
            out = capsys.readouterr().out
            assert code == 2
            assert len(out) < 1024
            assert json.loads(out)["details"] == {"error": error, "message": message}


@pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "least-limit"])
def test_model_faults_print_a_long_integer_by_its_digit_count(capsys, tmp_path, limit):
    # An integer within MAX_LITERAL_DIGITS is read, and a fault that names
    # it gives its ends and digit count, whatever Python's integer-string
    # limit is.
    huge = "7" * MAX_LITERAL_DIGITS
    shown = f"77777777...77777777 ({MAX_LITERAL_DIGITS} digits)"
    cases = [
        ('{"basefield": "Q", "atlases": {"A": {"dim": 1, "charts": %s, "transitions": {}}}}',
         ("check-cocycle", "-a", "A"),
         f"atlas 'A' charts must be at most {MAX_ATLAS_CHARTS}, got {shown}"),
        ('{"basefield": %s}', ("gb", "-v", "V"),
         f'basefield must be "Q" or "Qt", got {shown}'),
        ('{"basefield": "Q", "varieties": {"V": {"vars": ["x"], "gens": [-%s]}}}',
         ("gb", "-v", "V"),
         f"variety 'V' gens contains a non-string entry -{shown}"),
    ]
    model = tmp_path / "model.json"
    with int_str_limit(limit):
        for text, (command, *argv), message in cases:
            model.write_text(text % huge)
            code = main([command, "-i", str(model), *argv])
            out = capsys.readouterr().out
            assert code == 2
            assert len(out) < 1024
            assert json.loads(out)["details"] == {"error": "ModelError", "message": message}


def test_series_coefficients_read_integers_and_rational_strings(capsys, tmp_path):
    # B's point (2, 0, 1/2) is fixed by b_s01; the same file written with
    # JSON integers and with strings gives the same verdict.
    path = tmp_path / "series.json"
    for x in ("[2, 0]", '["2", "0"]', '["4/2", "-0"]'):
        path.write_text('{"coefficients": {"x": %s, "y": [0, "-0"], "w": ["1/2", 0]}}' % x)
        code, report, _ = run(
            capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(path)
        )
        assert code == 0 and report["details"]["residuals_zero"] is True


def _str_unlimited(n):
    with int_str_limit(0):
        return str(n)


def test_reports_render_values_past_the_int_string_limit(capsys, tmp_path):
    # 6000- and 8600-digit values: more than Python's default limit of 4300
    # digits on str(), which the reports' renderer writes in pieces.
    sevens = "7" * 3000
    big = read_int(sevens) ** 2
    code, report, _ = run(capsys, "parse", "-i", MODEL_Q, "--expr", f"{sevens}^2 + x",
                          "--vars", "x")
    assert code == 0
    assert report["details"]["canonical"] == f"x + {_str_unlimited(big)}"
    code, report, _ = run(capsys, "solve-series", "-i", MODEL_Q, "-g", "Gm", "-s",
                          "gm_twist1", "--init", f"({sevens})^2,1/({sevens})^2",
                          "--order", "2")
    assert code == 0
    assert report["details"]["coefficients"]["x"] == [
        _str_unlimited(big), _str_unlimited(big), _str_unlimited(Fraction(big, 2))
    ]
    assert report["details"]["coefficients"]["w"][0] == "1/" + _str_unlimited(big)
    longest = "7" * MAX_LITERAL_DIGITS
    n = read_int(longest)
    path = tmp_path / "series.json"
    path.write_text('{"coefficients": {"x": [%s, "%s"], "w": ["%s", "0"]}}' % ((longest,) * 3))
    code, report, _ = run(capsys, "verify-series", "-i", MODEL_Q, "-v", "GmV",
                          "--series", str(path))
    assert code == 1
    assert report["details"]["residuals"] == [[_str_unlimited(n * n - 1), _str_unlimited(n * n)]]


@pytest.mark.parametrize(
    "argv, key, want",
    [
        (("parse", "--expr", "x + " + "7" * 1000, "--vars", "x"), "canonical",
         "x + " + "7" * 1000),
        (("parse", "--expr", "x^" + "0" * 999 + "2", "--vars", "x"), "canonical", "x^2"),
        (("solve-series", "-g", "Gm", "-s", "gm_twist0", "--init",
          f"{'7' * 1000},1/{'7' * 1000}", "--order", "1"), "coefficients",
         {"x": ["7" * 1000, "0"], "w": ["1/" + "7" * 1000, "0"]}),
        (("verify-series", "-v", "GmV", "--series", "{series}"), "coefficients",
         {"x": ["7" * 1000, "0"], "w": ["1/" + "7" * 1000, "0"]}),
    ],
    ids=["parse-literal", "parse-exponent", "solve-series", "verify-series"],
)
def test_long_literals_under_a_lower_interpreter_limit(tmp_path, argv, key, want):
    """Python's integer-string limit at its least, 640 digits: a literal of
    1000 digits is inside the program's own bound and is read and written in
    pieces.  The limit is the process's, so the run is a subprocess."""
    series = tmp_path / "series.json"
    series.write_text('{"coefficients": {"x": [%s, 0], "w": ["1/%s", "0"]}}'
                      % ("7" * 1000, "7" * 1000))
    argv = [str(series) if a == "{series}" else a for a in argv]
    src = str(Path(prolong.__file__).parent.parent)
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="640",
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "prolong.cli", argv[0], "-i", MODEL_Q, *argv[1:]],
        capture_output=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stdout
    assert json.loads(done.stdout)["details"][key] == want


def test_unknown_subcommand(capsys):
    code, report, err = run(capsys, "frobnicate")
    assert code == 2
    assert report["status"] == "error"
    assert "invalid choice" in err


def test_unknown_model_object(capsys):
    code, report, _ = run(capsys, "gb", "-i", MODEL_Q, "-v", "Nope")
    assert code == 2
    assert report["details"]["error"] == "ModelError"


def test_bad_expression_is_usage_error(capsys):
    code, report, _ = run(
        capsys, "nf", "-i", MODEL_Q, "-v", "Twisted", "--expr", "x +"
    )
    assert code == 2
    assert report["details"]["error"] == "ExprSyntaxError"


@pytest.mark.parametrize("init, error, message", [
    ("t,1 + y", "UnknownVariable", "unknown variable 'y' (offset 6)"),
    ("1,,2", "ExprSyntaxError", "unexpected end of input (offset 2)"),
])
def test_init_fault_offsets_index_the_whole_text(capsys, init, error, message):
    code, report, _ = run(
        capsys, "nabla", "-i", MODEL_QT, "-v", "Hyp", "--init", init
    )
    assert code == 2
    assert report["details"] == {"error": error, "message": message}


def test_bad_point_length(capsys):
    code, report, _ = run(
        capsys, "fiber", "-i", MODEL_QT, "-v", "Hyp", "--init", "t"
    )
    assert code == 2
    assert report["status"] == "error"


def test_missing_model_file(capsys):
    code, report, _ = run(capsys, "gb", "-i", "/nonexistent.json", "-v", "V")
    assert code == 2
    assert report["status"] == "error"


def test_parse_refuses_t_as_variable(capsys):
    code, report, _ = run(
        capsys, "parse", "-i", MODEL_QT, "--expr", "t*y - 1", "--vars", "t,y"
    )
    assert code == 2
    assert report["details"]["error"] == "ValueError"


@pytest.mark.parametrize(
    "category, name, key, argv",
    [
        ("groups", "Ga", "variety", ("check-group", "-g", "Ga")),
        ("sections", "ga_c1", "group", ("check-dgroup", "-g", "Ga", "-s", "ga_c1")),
        ("correspondences", "parab0", "left", ("transfer", "-c", "parab0", "--init", "0,0")),
        ("correspondences", "parab0", "right", ("transfer", "-c", "parab0", "--init", "0,0")),
    ],
)
@pytest.mark.parametrize("value", [["GaV"], {"name": "GaV"}])
def test_non_string_reference_is_model_error(capsys, tmp_path, category, name, key, argv, value):
    doc = json.loads((DATA / "model_q.json").read_text())
    doc[category][name][key] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(capsys, argv[0], "-i", str(path), *argv[1:])
    assert code == 2
    assert report["details"]["error"] == "ModelError"
    assert "must be a string" in report["details"]["message"]


@pytest.mark.parametrize("key", ["dim", "charts"])
def test_boolean_atlas_sizes_are_model_errors(capsys, tmp_path, key):
    doc = json.loads((DATA / "model_qt.json").read_text())
    doc["atlases"]["P1"][key] = True
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, report, _ = run(capsys, "check-cocycle", "-i", str(path), "-a", "P1")
    assert code == 2
    assert "must be a positive integer" in report["details"]["message"]


@pytest.mark.parametrize("command", ["check-cocycle", "tau-atlas"])
@pytest.mark.parametrize("key, cap", [("dim", MAX_ATLAS_DIM), ("charts", MAX_ATLAS_CHARTS)])
def test_atlas_sizes_are_capped(capsys, tmp_path, command, key, cap):
    doc = {"basefield": "Q", "atlases": {"A": {"dim": 1, "charts": 2, "transitions": {}}}}
    path = tmp_path / "model.json"
    doc["atlases"]["A"][key] = cap
    path.write_text(json.dumps(doc))
    code, report, _ = run(capsys, command, "-i", str(path), "-a", "A")
    assert code == 0 and report["status"] == "pass"
    doc["atlases"]["A"][key] = 10**9
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, report, err = run(capsys, command, "-i", str(path), "-a", "A")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and "Traceback" not in err
    assert report["details"]["error"] == "ModelError"
    assert f"{key} must be at most {cap}" in report["details"]["message"]


def test_deeply_nested_model_is_model_error(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, report, _ = run(capsys, "gb", "-i", str(path), "-v", "V")
    assert code == 2
    assert report["details"]["error"] == "ModelError"
    assert "nested too deeply" in report["details"]["message"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[" * 100000 + "]" * 100000, "nested too deeply"),
        ('{"coefficients": {"x": 5, "y": 5, "w": 5}}', "must map variable names to arrays"),
        ('{"coefficients": {"x": [[1]], "y": ["0"], "w": ["1"]}}', "strings or numbers"),
        ('{"coefficients": {"x": ["2"], "y": ["0"], "w": ["1/2"], "x": ["3"]}}',
         "duplicate key 'x' in series file"),
    ],
    ids=["deep", "not-arrays", "nested-coefficient", "repeated-key"],
)
def test_malformed_series_file_is_usage_error(capsys, tmp_path, text, message):
    path = tmp_path / "series.json"
    path.write_text(text)
    code, report, _ = run(
        capsys, "verify-series", "-i", MODEL_Q, "-v", "BV", "--series", str(path)
    )
    assert code == 2
    assert report["details"]["error"] == "UsageError"
    assert message in report["details"]["message"]


# The verdict each exported error class gave through the command line's
# hand-kept tuples before the status moved onto the classes.  ProlongError
# itself was in neither tuple (it escaped main as a traceback); it is "fail".
EXIT_STATUS = {
    "ProlongError": "fail",
    "PointNotOnVariety": "fail",
    "DenominatorVanishes": "fail",
    "DenominatorVanishesAtInitialPoint": "fail",
    "DegreeCapExceeded": "fail",
    "NoSolution": "fail",
    "TransferNotFunctional": "fail",
    "CocycleViolation": "fail",
    "ChartIncompatibility": "fail",
    "IdenticallyZeroDenominator": "fail",
    "IndeterminateOnVariety": "fail",
    "NonUnitConstantTerm": "fail",
    "ModelError": "error",
    "ExprSyntaxError": "error",
    "UnknownVariable": "error",
    "TInQField": "error",
    "ArityMismatch": "error",
    "DivisionByZero": "error",
    "IndexOutOfRange": "error",
}


def test_error_classes_keep_their_exit_status():
    exported = {
        name: value for name, value in vars(prolong).items()
        if isinstance(value, type) and issubclass(value, errors.ProlongError)
    }
    assert set(exported) == set(EXIT_STATUS)
    for name, cls in exported.items():
        assert cls.status == EXIT_STATUS[name], name
    assert UsageError is errors.UsageError
    assert UsageError.status == "error"


def test_unexpected_exception_gets_last_resort_report(capsys, monkeypatch):
    def broken(args, model):
        raise RuntimeError("handler bug")

    monkeypatch.setattr(cli, "_cmd_gb", broken)
    code, report, err = run(capsys, "gb", "-i", MODEL_Q, "-v", "Twisted")
    assert code == 2
    assert report["status"] == "error"
    assert report["details"] == {"error": "RuntimeError", "message": "handler bug"}
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: handler bug" in err


def model_with(tmp_path, category, name, key, k, text):
    doc = json.loads((DATA / "model_q.json").read_text())
    doc[category][name][key][k] = text
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/(x - x)", "division by an identically zero expression (offset 1)"),
        ("(x + 1)^40*(x + 1)", "product of degree above 40 (offset 10)"),
        ("(x^2)^21", "power of degree above 40 (offset 6)"),
    ],
)
def test_value_fault_fails_only_the_command_that_reads_it(capsys, tmp_path, text, message):
    path = model_with(tmp_path, "sections", "ga_c1", "sigma", 0, text)
    _, expected, _ = run(capsys, "gb", "-i", MODEL_Q, "-v", "Twisted")
    code, report, err = run(capsys, "gb", "-i", path, "-v", "Twisted")
    assert code == 0
    assert report["details"] == expected["details"]
    code, report, err = run(capsys, "check-dgroup", "-i", path, "-g", "Ga", "-s", "ga_c1")
    assert code == 2
    assert report["details"] == {
        "error": "ModelError", "message": f"section 'ga_c1' sigma[0]: {message}",
    }
    assert "Traceback" not in err


def test_zero_divisor_in_an_expression_flag_stays_a_failure(capsys):
    code, report, _ = run(capsys, "parse", "-i", MODEL_Q, "--expr", "1/(x-x)", "--vars", "x")
    assert code == 1
    assert report["details"]["error"] == "IdenticallyZeroDenominator"


def test_command_parses_only_what_it_reads(capsys, monkeypatch):
    parsed = []
    for fname in ("parse_poly", "parse_rational", "parse_element"):
        def record(text, *args, real=getattr(prolong.model, fname)):
            parsed.append(text)
            return real(text, *args)

        monkeypatch.setattr(prolong.model, fname, record)
    code, _, _ = run(capsys, "gb", "-i", MODEL_Q, "-v", "Twisted")
    assert code == 0
    assert parsed == ["y - x^2", "z - x^3"]
    parsed.clear()
    code, _, _ = run(capsys, "check-dgroup", "-i", MODEL_Q, "-g", "B", "-s", "b_s01")
    assert code == 0
    # BV's generator, B's law and identity, and b_s01's sigma, each once
    assert sorted(parsed) == sorted([
        "x*w - 1",
        "x1*x2", "x1*y2 + y1", "w1*w2", "w", "-w*y", "x", "1", "0", "1",
        "0", "1 - x", "0",
    ])


@pytest.mark.parametrize(
    "argv, code",
    [
        (("gb", "-i", MODEL_Q, "-v", "Twisted"), 0),
        (("check-dgroup", "-i", MODEL_Q, "-g", "Gm", "-s", "gm_twist1"), 1),
        (("gb", "-i", str(DATA / "missing.json"), "-v", "V"), 2),
    ],
)
def test_closed_stdout_keeps_the_exit_status(argv, code):
    """A reader that closes the pipe first: no traceback, and the exit status
    the report carries."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(prolong.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "prolong.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert b"Traceback" not in done.stderr
    assert b"BrokenPipeError" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("gb", "-i", MODEL_Q, "-v", "Twisted"),
        ("nf", "-i", MODEL_Q, "-v", "Twisted", "--expr", "x"),
        ("check-group", "-i", MODEL_Q, "-g", "Gm"),
        ("tau-group", "-i", MODEL_Q, "-g", "Gm"),
        ("check-dgroup", "-i", MODEL_Q, "-g", "Gm", "-s", "gm_twist0"),
    ],
)
@pytest.mark.parametrize("cap", ["-3", "0"])
def test_degree_cap_below_one_is_a_usage_error(capsys, argv, cap):
    code, report, err = run(capsys, *argv, "--degree-cap", cap)
    assert code == 2
    assert report["status"] == "error"
    assert report["details"] == {
        "error": "UsageError",
        "message": f"argument --degree-cap: must be at least 1, got {cap}",
    }
    assert "must be at least 1" in err
    code, report, _ = run(capsys, *argv, "--degree-cap", "1")
    assert code == 1
    assert report["details"]["error"] == "DegreeCapExceeded"


def test_solve_series_off_variety_names_the_point(capsys):
    code, report, _ = run(
        capsys, "solve-series", "-i", MODEL_Q, "-g", "Gm", "-s", "gm_twist1",
        "--init", "0,0", "--order", "3",
    )
    assert code == 1
    assert report["details"]["message"] == "initial point (0, 0) does not lie on GmV at t = 0"
    code, report, _ = run(
        capsys, "solve-series", "-i", MODEL_Q, "-g", "B", "-s", "b_s01",
        "--init", "2,1/3,1", "--order", "0",
    )
    assert code == 1
    assert report["details"]["message"] == "initial point (2, 1/3, 1) does not lie on BV at t = 0"
