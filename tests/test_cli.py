"""The command-line surface: subcommands, exit codes, reproducibility."""

import io
import json

import pytest

from maxcurves import covering, curves, fields, series
from maxcurves.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main


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


def test_verify_maximal_trace_q8(capsys):
    code, payload = run_json(capsys, "verify-maximal", "--curve", "trace", "--t", "3")
    assert code == EXIT_OK
    assert payload["count"] == 257 and payload["expected"] == 257 and payload["maximal"]


def test_count_level_2(capsys):
    code, payload = run_json(capsys, "count", "--curve", "hermitian", "--t", "2", "--level", "2")
    assert code == EXIT_OK
    assert payload["count"] == 65 and payload["expected"] == 65


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


def test_semigroup_subcommand(capsys):
    code, payload = run_json(capsys, "semigroup", "--generators", "4,9")
    assert code == EXIT_OK
    assert payload["genus"] == 12
    code, payload = run_json(
        capsys, "semigroup", "--generators", "2,5", "--dims", "5,10"
    )
    assert payload["dims"] == {"5": 3, "10": 8}


def test_semigroup_dims_past_the_sieve_bound(capsys):
    # <4, 9> sieves to 2 * 9^2 = 162; every integer above it is a member
    code, payload = run_json(capsys, "semigroup", "--generators", "4,9", "--dims", "200")
    members = {4 * i + 9 * j for i in range(51) for j in range(23)}
    assert code == EXIT_OK and payload["dims"] == {"200": sum(d in members for d in range(201)) - 1}


def test_frobenius_check(capsys):
    code, payload = run_json(
        capsys, "frobenius-check", "--curve", "trace", "--t", "2", "--samples", "10"
    )
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
        "terms": [[5, 0, "1"], [0, 2, "2"], [0, 1, "1"]],  # a = (g, 1) breaks (ii)
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(curve))
    code, payload = run_json(capsys, "normalize", "--file", str(path))
    assert code == EXIT_CHECK_FAILED
    assert "identities failed" in payload["error"]


@pytest.mark.parametrize(
    "document",
    [
        {"q": 4},
        [1, 2],
        {"q": "4", "terms": []},
        {"q": 4, "terms": 5},
        {"q": 4, "terms": [[5, 0, 1]]},
    ],
)
def test_normalize_malformed_json_exits_2(tmp_path, capsys, document):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    code, payload = run_json(capsys, "normalize", "--file", str(path))
    assert code == EXIT_CONFIG
    assert "curve JSON" in payload["error"]


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


def test_off_by_one_hasse_binomial_fails_full_suite(capsys, monkeypatch):
    derivative = series.TruncatedSeries.hasse_derivative

    def planted(self, i):
        # binom(n + 1, i) mod 2 where Lucas' rule asks for binom(n, i), at
        # orders i >= q = 4: the t = 2 order checks take D^1..D^3 only, so
        # the identities alone see it (at lower orders frobenius_orders
        # raises first, ending the suite before hasse_identities runs)
        if i < 4:
            return derivative(self, i)
        out = [c if ((n + 1) & i) == i else 0 for n, c in enumerate(self.coeffs[i:], i)]
        return series.TruncatedSeries(self.field, out)

    monkeypatch.setattr(series.TruncatedSeries, "hasse_derivative", planted)
    code, payload = run_json(capsys, "full-suite", "--t", "2")
    assert code == EXIT_CHECK_FAILED
    assert [name for name, ok in payload["checks"].items() if not ok] == ["hasse_identities"]
    assert not payload["all_pass"]


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
        ("cover-check", "--t", "3", "--samples", "0"),  # would commute over 0 points
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
    code, payload = run_json(
        capsys, "orders", "--curve", "trace", "--t", "2", "--point", "zz"
    )
    assert code == EXIT_CONFIG  # malformed point
    code, payload = run_json(
        capsys, "expand", "--t", "2", "--point", "0,0", "--precision", "1"
    )
    assert code == EXIT_CONFIG and "precision" in payload["error"]  # x0 + tau needs tau^1
    code, payload = run_json(capsys, "orders", "--curve", "hermitian", "--t", "3", "--point", "inf")
    assert code == EXIT_CONFIG and "deg A = 8" in payload["error"]  # 2 deg A > deg P
    code, payload = run_json(capsys, "no-such-command")  # argparse rejects it
    assert code == EXIT_CONFIG and "invalid choice" in payload["error"] and payload["schema"] == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (("count", "--t", "x"), "argument --t: invalid int value: 'x'"),
        (("count", "--bogus"), "unrecognized arguments: --bogus"),
        (("semigroup", "--generators", "4,9", "--bound", "400"),
         "unrecognized arguments: --bound 400"),
    ],
)
def test_a_refused_command_line_exits_2_with_a_json_error(capsys, argv, error):
    code, out = run_cli(capsys, *argv)
    assert code == EXIT_CONFIG and json.loads(out) == {"error": error, "schema": 1}


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    assert exc.value.code == 0 and "usage: maxcurves count" in capsys.readouterr().out


def test_oversized_semigroup_sieve_exits_2(capsys):
    code, payload = run_json(capsys, "semigroup", "--generators", "100000,100001")
    assert code == EXIT_CONFIG and "exceeds the limit" in payload["error"]


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
    # the cover's target is planted as the Hermitian curve, which images miss
    monkeypatch.setattr(covering, "trace_curve", curves.hermitian)
    code, payload = run_json(capsys, "cover-check", "--t", "2", "--samples", "5")
    assert code == EXIT_CHECK_FAILED
    assert "left the target curve" in payload["error"]


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
    code, out = run_cli(capsys, "semigroup", "--generators", "2,5", "--format", "table")
    assert code == EXIT_OK
    assert "genus\t2" in out
