"""The command-line surface: subcommands, exit codes, reproducibility."""

import argparse
import dataclasses
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from maxcurves import census, covering, curves, fields, orders, semigroups, series
from maxcurves.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, RunConfig, build_parser, main

README = Path(__file__).parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_field_info(capsys):
    code, payload = run_json(capsys, "field-info", "--t", "2", "--level", "2")
    assert code == EXIT_OK
    assert payload["m"] == 8 and payload["q"] == 4 and payload["schema"] == 1


def test_count_trace_q8(capsys):
    code, payload = run_json(capsys, "count", "--curve", "trace", "--t", "3")
    assert code == EXIT_OK
    assert payload["count"] == 257 and payload["expected"] == 257 and payload["maximal"]


def test_count_level_2(capsys):
    code, payload = run_json(capsys, "count", "--curve", "hermitian", "--t", "2", "--level", "2")
    assert code == EXIT_OK
    assert payload["count"] == 65 and payload["expected"] == 65


@pytest.mark.parametrize("argv", [("--t", "3"), ("--t", "2", "--level", "2")])
def test_a_count_off_by_one_exits_1(capsys, monkeypatch, argv):
    _, honest = run_json(capsys, "count", *argv)
    count_rational = census.count_rational
    monkeypatch.setattr(
        census, "count_rational", lambda curve, level: count_rational(curve, level) + 1
    )
    code, payload = run_json(capsys, "count", *argv)
    assert code == EXIT_CHECK_FAILED
    # level 2 makes no maximality verdict, for an honest count or a wrong one
    maximal = None if "--level" in argv else False
    assert payload == {**honest, "count": honest["count"] + 1, "maximal": maximal}


def test_orders_subcommand(capsys):
    code, payload = run_json(
        capsys, "orders", "--curve", "trace", "--t", "2", "--point", "0,0", "--level", "1"
    )
    assert code == EXIT_OK
    assert payload["orders"] == [0, 1, 2, 5] and payload["class"] == "rational"
    code, payload = run_json(capsys, "orders", "--curve", "trace", "--t", "3", "--point", "inf")
    assert code == EXIT_OK
    assert payload["orders"] == [0, 1, 5, 9] and payload["class"] == "at-P0"


def test_orders_hermitian_point(capsys):
    # (1, z) lies on y^4 + y = x^5 over GF(16) since z^4 + z = 1
    code, payload = run_json(
        capsys, "orders", "--curve", "hermitian", "--t", "2", "--point", "1,2"
    )
    assert code == EXIT_OK
    assert payload["orders"] == [0, 1, 2, 5]


def test_expand_subcommand(capsys):
    code, payload = run_json(
        capsys, "expand", "--curve", "trace", "--t", "2", "--point", "0,0",
        "--precision", "21",
    )
    assert code == EXIT_OK
    assert payload["valuation"] == 5
    assert [i for i, c in enumerate(payload["coefficients"]) if c != "0"] == [5, 10, 20]


@pytest.mark.parametrize("command", ["expand", "orders"])
def test_an_off_curve_point_in_the_tower_exits_2(capsys, command):
    # f2921,e1c2b lies on the trace curve over GF(2^20); flipping one bit of
    # y moves it off, and the expansion's residual refuses it as bad input
    argv = (command, "--t", "5", "--level", "2", "--curve", "trace", "--point")
    code, payload = run_json(capsys, *argv, "f2921,e1c2b")
    assert code == EXIT_OK
    fld = fields.make_field(5, "quartic")
    x, y = fld.from_hex("f2921"), fld.from_hex("e1c2a")
    assert curves.trace_curve(5).evaluate(x, y)
    code, payload = run_json(capsys, *argv, "f2921,e1c2a")
    assert code == EXIT_CONFIG
    assert payload == {"error": "point does not lie on the curve", "schema": 1}


def test_semigroup_subcommand(capsys):
    # the model's semigroup at infinity: <q, q+1> (Hermitian), <q/2, q+1> (trace)
    for t in range(1, 6):
        q = 1 << t
        for curve, genus in (("hermitian", q * (q - 1) // 2), ("trace", q * (q - 2) // 4)):
            model = (curves.hermitian if curve == "hermitian" else curves.trace_curve)(t).model(1)
            code, payload = run_json(capsys, "semigroup", "--t", str(t), "--curve", curve)
            assert code == EXIT_OK
            assert tuple(payload["generators"]) == model.pole_orders
            assert payload["genus"] == len(payload["gaps"]) == genus
            assert payload["conductor"] == 2 * genus
            # dim |(q+1)P| and dim |(2q+2)P|; the trace curve at t = 1 is <1, 3>
            dims = (2, 5) if curve == "hermitian" else (3, 8) if t >= 2 else (3, 6)
            assert payload["dims"] == {str(q + 1): dims[0], str(2 * q + 2): dims[1]}


def test_a_closed_form_genus_off_by_one_fails_semigroup(capsys, monkeypatch):
    genus = curves.AdditiveModel.genus
    monkeypatch.setattr(curves.AdditiveModel, "genus", property(lambda m: genus.fget(m) + 1))
    for curve in ("hermitian", "trace"):
        code, payload = run_json(capsys, "semigroup", "--t", "3", "--curve", curve)
        assert code == EXIT_CHECK_FAILED and payload["genus"] == {"hermitian": 28, "trace": 12}[curve]


def test_frobenius_check(capsys):
    code, payload = run_json(capsys, "frobenius-check", "--t", "2", "--samples", "10")
    assert code == EXIT_OK
    assert payload["orders"] == [0, 1, 4]
    assert payload["checked"] == 10


def test_cover_check(capsys):
    code, payload = run_json(capsys, "cover-check", "--t", "2", "--level", "2")
    assert code == EXIT_OK
    assert payload["counts"]["double_count_identity"]
    assert payload["fiber_histogram"] == {"2": 32}  # all affine rational targets


TRACE_FORM_Q4 = {
    "q": 4,
    "family": "trace-form",
    "terms": [[5, 0, "1"], [0, 2, "1"], [0, 1, "1"], [0, 0, "6"]],
}


def test_normalize_from_file(tmp_path, capsys):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(TRACE_FORM_Q4))
    code, payload = run_json(capsys, "normalize", "--file", str(path))
    assert code == EXIT_OK
    assert payload["standard"]
    assert payload["record"] == [{"kind": "translate-y", "constant": "2"}]


def test_normalize_failure_exits_1(tmp_path, capsys):
    curve = {
        "q": 4,
        "family": "trace-form",
        "terms": [[5, 0, "1"], [0, 2, "2"], [0, 1, "1"]],  # a = (g, 1): GF(4) not in im A
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(curve))
    code, payload = run_json(capsys, "normalize", "--file", str(path))
    assert code == EXIT_CHECK_FAILED
    assert "GF(q) is not inside the image of A" in payload["error"]


def test_normalize_model_without_a_y_term_exits_2(tmp_path, capsys):
    # y^2 = x^5 + 3: A(y) = y^2 is inseparable, so the model is refused as input
    curve = {"q": 4, "terms": [[5, 0, "1"], [0, 2, "1"], [0, 0, "3"]]}
    path = tmp_path / "inseparable.json"
    path.write_text(json.dumps(curve))
    code, payload = run_json(capsys, "normalize", "--file", str(path))
    assert code == EXIT_CONFIG
    assert "a_t" in payload["error"]


# deeper than the JSON decoder's recursion limit
DEEP_JSON = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "document",
    [
        {"q": 4},
        [1, 2],
        {"q": "4", "terms": []},
        {"q": 4, "terms": 5},
        {"q": 4, "terms": [[5, 0, 1]]},
        pytest.param(DEEP_JSON, id="nested-200000-deep"),
    ],
)
def test_normalize_malformed_json_exits_2(tmp_path, capsys, document):
    path = tmp_path / "malformed.json"
    path.write_text(document if isinstance(document, str) else json.dumps(document))
    code, payload = run_json(capsys, "normalize", "--file", str(path))
    assert code == EXIT_CONFIG
    assert "curve JSON" in payload["error"]


def test_normalize_deeply_nested_json_on_stdin_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(DEEP_JSON))
    code, payload = run_json(capsys, "normalize")
    assert code == EXIT_CONFIG
    assert payload == {"error": "curve JSON nests too deeply", "schema": 1}


@pytest.mark.parametrize(
    "terms, error",
    [
        # y^2 + y + y = x^5 is y^2 = x^5, of genus 0, not the trace curve of q = 4
        (
            [[5, 0, "1"], [0, 2, "1"], [0, 1, "1"], [0, 1, "1"]],
            "term x^0 y^1 appears more than once",
        ),
        ([[5, 0, "1"], [0, 2, "1"], [0, 1, "0x1"]], "'0x1' is not a hex mask"),
    ],
)
def test_normalize_repeated_term_or_non_hex_coefficient_exits_2(monkeypatch, capsys, terms, error):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"q": 4, "terms": terms})))
    code, payload = run_json(capsys, "normalize")
    assert code == EXIT_CONFIG and error in payload["error"]


def test_normalize_file_that_is_a_directory_exits_2(tmp_path, capsys):
    code, payload = run_json(capsys, "normalize", "--file", str(tmp_path))
    assert code == EXIT_CONFIG
    assert payload["schema"] == 1 and str(tmp_path) in payload["error"]


@pytest.mark.parametrize("t", [2, 3])
def test_full_suite_exits_zero(capsys, t):
    code, payload = run_json(capsys, "full-suite", "--t", str(t), "--samples", "10")
    assert code == EXIT_OK
    assert payload["all_pass"]


def test_full_suite_names_a_skipped_check(capsys):
    code, payload = run_json(capsys, "full-suite", "--t", "4", "--samples", "5")
    assert code == EXIT_OK
    assert payload["checks"]["orders_non_rational"] and "skipped" not in payload
    code, payload = run_json(capsys, "full-suite", "--t", "5", "--samples", "5")
    assert code == EXIT_OK
    assert "orders_non_rational" not in payload["checks"]
    assert "GF(2^20)" in payload["skipped"]["orders_non_rational"]


@pytest.mark.parametrize("fact", ["dy_is_xq", "d2y_is_x2q"])
@pytest.mark.parametrize("command", ["frobenius-check", "full-suite"])
def test_a_failed_derivative_fact_exits_1(capsys, monkeypatch, command, fact):
    # Dy or D^2 y off its right side at every sampled point, the middle
    # derivatives and the Frobenius residual left as they are
    derivative_facts = orders.derivative_facts
    monkeypatch.setattr(
        orders,
        "derivative_facts",
        lambda *args: dataclasses.replace(derivative_facts(*args), **{fact: False}),
    )
    code, payload = run_json(capsys, command, "--t", "3")
    assert code == EXIT_CHECK_FAILED
    assert "Frobenius-order evidence failed" in payload["error"]


def test_wrong_recurrence_coefficient_fails_full_suite(capsys, monkeypatch):
    lift = series._additive_lift

    def planted(fld, x0, xpart, ypart, n):
        # the recurrence reads the coefficient of the highest y power wrong
        top = max(ypart)
        return lift(fld, x0, xpart, {**ypart, top: ypart[top] ^ 1}, n)

    monkeypatch.setattr(series, "_additive_lift", planted)
    code, payload = run_json(capsys, "full-suite", "--t", "2")
    assert code == EXIT_CHECK_FAILED
    assert "expansion at" in payload["error"] and "nonzero residual" in payload["error"]


def test_pole_order_off_by_one_fails_full_suite(capsys, monkeypatch):
    pole_orders = curves.AdditiveModel.pole_orders

    def planted(model):
        a, b = pole_orders.fget(model)
        return a + 1, b  # deg A + 1: at q = 8, <5, 9> and genus 16

    monkeypatch.setattr(curves.AdditiveModel, "pole_orders", property(planted))
    code, payload = run_json(capsys, "full-suite", "--t", "3")
    assert code == EXIT_CHECK_FAILED
    assert payload["checks"]["semigroup_genus"] is False
    # 2 deg A > deg P now: the trace curve's orders at infinity are refused
    assert payload["checks"]["orders_at_infinity"] is False
    assert not payload["all_pass"]


def test_swapped_pole_orders_fail_semigroup_genus(capsys, monkeypatch):
    # (deg P, deg A) keeps the genus and the sorted semigroup <q/2, q+1>:
    # only comparing the pole orders themselves with <q/2, q+1> sees it
    pole_orders = curves.AdditiveModel.pole_orders
    monkeypatch.setattr(
        curves.AdditiveModel, "pole_orders", property(lambda m: pole_orders.fget(m)[::-1])
    )
    code, payload = run_json(capsys, "full-suite", "--t", "3")
    assert code == EXIT_CHECK_FAILED
    assert payload["checks"]["semigroup_genus"] is False
    assert not payload["all_pass"]


def test_full_suite_sieves_one_semigroup(capsys, monkeypatch):
    sieved = []
    init = semigroups.NumericalSemigroup.__init__

    def counted(self, generators):
        sieved.append(tuple(generators))
        init(self, generators)

    monkeypatch.setattr(semigroups.NumericalSemigroup, "__init__", counted)
    code, payload = run_json(capsys, "full-suite", "--t", "5")
    assert code == EXIT_OK and payload["checks"]["semigroup_genus"] is True
    assert sieved == [(16, 33)]


@pytest.mark.parametrize("m", [4, 8])
def test_reducible_reduction_polynomial_fails_full_suite(capsys, monkeypatch, m):
    # z^m + 1 = (z + 1)^m in characteristic 2: planted into the moduli table
    # for the base-square (m = 4) or the quartic (m = 8) field of t = 2,
    # whose interned fields are dropped so that make_field reads the table
    wrong = (1 << m) | 1
    monkeypatch.setitem(fields._MODULI, m, wrong)
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    code, payload = run_json(capsys, "full-suite", "--t", "2")
    assert code == EXIT_CHECK_FAILED
    assert payload["error"] == f"table modulus {wrong:#x} for m={m} is not irreducible"


@pytest.mark.parametrize(
    "argv",
    [
        ("full-suite", "--t", "1", "--samples", "0"),  # would pass with no point checked
        ("frobenius-check", "--t", "2", "--samples", "0"),  # would log no evidence
        ("full-suite", "--t", "2", "--samples", "-3"),  # would fail inside random.sample
    ],
)
def test_samples_below_one_exit_2(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == EXIT_CONFIG
    assert "--samples" in payload["error"]


def test_config_errors_exit_2(capsys):
    code, payload = run_json(capsys, "count", "--curve", "trace", "--t", "5", "--level", "2")
    assert code == EXIT_CONFIG  # census ceiling
    code, payload = run_json(capsys, "orders", "--curve", "trace", "--t", "9", "--point", "0,0")
    assert code == EXIT_CONFIG  # t out of range
    # malformed points: int(text, 16) alone would read all but the first as
    # (0, 0), which lies on the curve
    for point in ("zz", "0_0,0", "0x0,0", " 0,0", "+0,0", "0,-0"):
        code, payload = run_json(
            capsys, "orders", "--curve", "trace", "--t", "2", "--point", point
        )
        assert code == EXIT_CONFIG, point
    code, payload = run_json(
        capsys, "expand", "--t", "2", "--point", "0,0", "--precision", "1"
    )
    assert code == EXIT_CONFIG and "precision" in payload["error"]  # x0 + tau needs tau^1
    code, payload = run_json(capsys, "orders", "--curve", "hermitian", "--t", "3", "--point", "inf")
    assert code == EXIT_CONFIG and "deg A = 8" in payload["error"]  # 2 deg A > deg P
    code, payload = run_json(capsys, "no-such-command")  # argparse rejects it
    assert code == EXIT_CONFIG and "invalid choice" in payload["error"] and payload["schema"] == 1
    # a removed subcommand is refused like any unknown one
    code, payload = run_json(capsys, "verify-maximal", "--curve", "trace", "--t", "3")
    assert code == EXIT_CONFIG and set(payload) == {"error", "schema"} and payload["schema"] == 1
    assert "invalid choice" in payload["error"] and "verify-maximal" in payload["error"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (("count", "--t", "x"), "argument --t: invalid int value: 'x'"),
        (("count", "--bogus"), "unrecognized arguments: --bogus"),
        (("semigroup", "--t", "3", "--bound", "400"), "unrecognized arguments: --bound 400"),
        # a subcommand takes only the options it reads
        (("count", "--seed", "1"), "unrecognized arguments: --seed 1"),
        (("semigroup", "--t", "3", "--seed", "1"), "unrecognized arguments: --seed 1"),
        (("normalize", "--t", "2"), "unrecognized arguments: --t 2"),
        (("frobenius-check", "--curve", "trace"), "unrecognized arguments: --curve trace"),
        # the generic semigroup calculator is gone
        (("semigroup", "--generators", "4,9"), "unrecognized arguments: --generators 4,9"),
        # cover-check walks every fibre point and samples nothing
        (("cover-check", "--t", "3", "--samples", "0"), "unrecognized arguments: --samples 0"),
        (("cover-check", "--t", "3", "--exhaustive"), "unrecognized arguments: --exhaustive"),
        (("cover-check", "--t", "3", "--seed", "1"), "unrecognized arguments: --seed 1"),
    ],
)
def test_a_refused_command_line_exits_2_with_a_json_error(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and json.loads(out) == {"error": error, "schema": 1}


def _subcommand_options() -> dict[str, set[str]]:
    """Each subcommand's option destinations, read off the parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {a.dest for a in parser._actions if a.dest != "help"}
        for name, parser in sub.choices.items()
    }


def test_options_are_exactly_the_run_config_fields():
    options = _subcommand_options()
    fields_ = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
    assert set().union(*options.values()) == fields_
    assert options["semigroup"] == {"fmt", "t", "curve"}
    assert options["normalize"] == {"fmt", "file"}
    assert options["cover-check"] == {"fmt", "t", "level"}
    assert {name for name, dests in options.items() if "seed" in dests} == {
        "frobenius-check", "full-suite"
    }
    # one settable value per (subcommand, option) pair
    assert sum(map(len, options.values())) == 36


def _readme_command_lines() -> list[list[str]]:
    text = README.read_text()
    block = text.split("## Command-line interface", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.strip()]


def test_readme_command_lines_exit_0(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "curve.json").write_text(json.dumps(TRACE_FORM_Q4))
    lines = _readme_command_lines()
    assert {argv[0] for argv in lines} == set(_subcommand_options())
    for argv in lines:
        code, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK, argv


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0 and "usage: maxcurves count" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--t", "2", "--point", "0,0", "--precision", "100000000"),
        ("expand", "--t", "2", "--point", "0,0", "--precision", str(series.PRECISION_LIMIT + 1)),
        ("orders", "--t", "5", "--level", "2", "--point", "0,0", "--precision", "5000000"),
        ("orders", "--t", "2", "--point", "0,0", "--precision", str(series.PRECISION_LIMIT + 1)),
    ],
)
def test_oversized_precision_exits_2(capsys, argv):
    code, payload = run_json(capsys, *argv)
    assert code == EXIT_CONFIG and "exceeds the limit" in payload["error"]


# sha256 of `expand --curve trace --precision 4096` stdout: the longest chain
# walks, in the tabled GF(2^16) and GF(2^10) and in the GF(2^20) tower
EXPANSIONS_AT_THE_LIMIT = [
    ("5", "2", "f2921,e1c2b", "d3bcb77080d654772ddb5b70d89610b170f99fbff44184a3ddb1e6627171e40b"),
    ("5", "2", "1eedb,1384b", "e7c5cba04bd7a0e6df09470058790048f0b4241bf884d6384fde5cb4dfbaafae"),
    ("4", "2", "88ac,a6d2", "06c6a7f10dab3a71398999de8134fb8a44319e1d9c818533df4d22c1a4bb60ce"),
    ("4", "2", "ac73,4992", "7604f54236a43a3f9680fab0488945e828a6a23ac518892fd1f67cb69c1ae8d2"),
    ("5", "1", "113,053", "ce61129fd882b2f3e86cb87f381cddaea184cfa8e0c64fe6448ca26aa9f2e915"),
]


@pytest.mark.parametrize("t,level,point,digest", EXPANSIONS_AT_THE_LIMIT)
def test_expansions_at_the_precision_limit_are_pinned(capsys, t, level, point, digest):
    argv = ("expand", "--t", t, "--level", level, "--curve", "trace", "--point", point)
    code, out = run_cli(capsys, *argv, "--precision", str(series.PRECISION_LIMIT))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("expand", "--t", "3", "--point", "0,0"),
        ("orders", "--t", "3", "--point", "0,0", "--level", "2"),
        ("orders", "--t", "3", "--point", "inf"),
    ],
)
def test_point_commands_build_the_curve_once(capsys, monkeypatch, argv):
    built = []
    trace_curve = curves.trace_curve
    monkeypatch.setattr(curves, "trace_curve", lambda t: built.append(t) or trace_curve(t))
    code, _ = run_json(capsys, *argv)
    assert code == EXIT_OK and built == [3]


def test_normalization_landing_elsewhere_exits_1(tmp_path, capsys, monkeypatch):
    # the standard curve normalize compares with is planted as the Hermitian one
    monkeypatch.setattr(curves, "trace_curve", curves.hermitian)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(TRACE_FORM_Q4))
    code, payload = run_json(capsys, "normalize", "--file", str(path))
    assert code == EXIT_CHECK_FAILED
    assert payload["error"] == "normalization did not land on the standard curve"


def test_cover_image_off_the_target_exits_1(capsys, monkeypatch):
    # the cover's target is planted as the Hermitian curve, so some points of
    # the fibres over it miss the Hermitian source
    monkeypatch.setattr(covering, "trace_curve", curves.hermitian)
    code, payload = run_json(capsys, "cover-check", "--t", "2")
    assert code == EXIT_CHECK_FAILED
    assert "off the Hermitian curve" in payload["error"]


@pytest.mark.parametrize("level", ["1", "2"])
def test_a_fibre_point_off_the_hermitian_curve_exits_1(capsys, monkeypatch, level):
    # the planted solver returns u^2 in place of each root u of u^2 + u = y
    solve = covering.solve_artin_schreier
    monkeypatch.setattr(covering, "solve_artin_schreier", lambda y: [u.square() for u in solve(y)])
    code, payload = run_json(capsys, "cover-check", "--t", "3", "--level", level)
    assert code == EXIT_CHECK_FAILED and set(payload) == {"error", "schema"}
    assert "the fibre point" in payload["error"] and "off the Hermitian curve" in payload["error"]


@pytest.mark.parametrize("level", ["1", "2"])
def test_an_empty_fibre_exits_1(capsys, monkeypatch, level):
    # the planted solver finds no root, so the walk checks no Hermitian point
    monkeypatch.setattr(covering, "solve_artin_schreier", lambda y: [])
    code, payload = run_json(capsys, "cover-check", "--t", "3", "--level", level)
    assert code == EXIT_CHECK_FAILED and payload["fiber_histogram"] == {"0": 256}


def test_a_bug_is_not_reported_as_a_failed_check(monkeypatch):
    def broken(curve):
        raise AssertionError("a bug")

    monkeypatch.setattr(curves, "normalize", broken)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TRACE_FORM_Q4)))
    with pytest.raises(AssertionError):
        main(["normalize"])


def test_same_seed_byte_identical(capsys):
    _, first = run_cli(capsys, "frobenius-check", "--t", "2", "--samples", "5", "--seed", "7")
    _, second = run_cli(capsys, "frobenius-check", "--t", "2", "--samples", "5", "--seed", "7")
    assert first == second
    _, third = run_cli(capsys, "frobenius-check", "--t", "2", "--samples", "5", "--seed", "8")
    assert first != third


def test_table_format(capsys):
    code, out = run_cli(capsys, "semigroup", "--t", "2", "--curve", "trace", "--format", "table")
    assert code == EXIT_OK
    assert "genus\t2" in out
