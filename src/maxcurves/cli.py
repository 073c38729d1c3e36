"""Command-line front end: every verification as a subcommand.

Output is a single JSON document (sorted keys, ``"schema": 1``) or a
plain key/value table.  Exit codes: 0 all assertions passed, 1 a
mathematical check failed, 2 configuration error.  The random seed
fully determines all sampling, so reports are reproducible bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import census, covering, curves, orders, semigroups, series
from .fields import make_field

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


@dataclass
class RunConfig:
    command: str
    t: int = 2
    curve: str = "trace"
    level: int = 1
    precision: int | None = None
    samples: int = 50
    seed: int = 0
    fmt: str = "json"
    point: str | None = None
    generators: str | None = None
    dims: str | None = None
    file: str | None = None
    exhaustive: bool = False

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def curve_obj(self) -> curves.PlaneCurve:
        if self.curve == "hermitian":
            return curves.hermitian(self.t)
        if self.curve == "trace":
            return curves.trace_curve(self.t)
        raise ValueError(f"unknown curve {self.curve!r}")

    def default_precision(self) -> int:
        return self.precision if self.precision is not None else 2 * (1 << self.t) + 8


def _parse_point(config: RunConfig, curve: curves.PlaneCurve) -> census.AffinePoint:
    if not config.point:
        raise ValueError("--point HEX,HEX is required")
    fld = curve.level_field(config.level)
    parts = config.point.split(",")
    if len(parts) != 2:
        raise ValueError("--point expects two comma-separated hex masks")
    return census.AffinePoint(fld.from_hex(parts[0]), fld.from_hex(parts[1]), config.level)


def _cmd_field_info(config: RunConfig):
    level = "quartic" if config.level == 2 else "base-square"
    fld = make_field(config.t, level)
    return {
        "t": fld.t,
        "q": fld.q,
        "level": fld.level,
        "m": fld.m,
        "modulus": format(fld.modulus, "x"),
        "order": fld.order,
    }, True


def _cmd_count(config: RunConfig):
    curve = config.curve_obj()
    report = census.census_report(curve, census.curve_genus(curve), config.level)
    return report.to_json(), True


def _cmd_verify_maximal(config: RunConfig):
    curve = config.curve_obj()
    report = census.census_report(curve, census.curve_genus(curve), 1)
    return report.to_json(), report.maximal


def _cmd_expand(config: RunConfig):
    curve = config.curve_obj()
    point = _parse_point(config, curve)
    n = config.default_precision()
    s = series.expand_y_at(curve, point, n)
    return {
        "point": [point.x.hex(), point.y.hex()],
        "level": config.level,
        "precision": n,
        "valuation": s.valuation(),
        "series": repr(s),
        "coefficients": [point.x.field.to_hex(c) for c in s.coeffs],
    }, True


def _cmd_orders(config: RunConfig):
    curve = config.curve_obj()
    if config.point == "inf":
        data = orders.dp_orders_at_infinity(curve)
        return {"point": "infinity", "orders": list(data.orders), "class": data.classification}, True
    point = _parse_point(config, curve)
    data = orders.dp_orders(curve, point, config.default_precision())
    return {"point": list(data.point), "orders": list(data.orders), "class": data.classification}, True


def _cmd_frobenius_check(config: RunConfig):
    # frobenius_orders picks the default precision, and raises if any evidence fails
    triple, evidence = orders.frobenius_orders(
        config.curve_obj(), config.samples, config.rng(), config.precision
    )
    return {"orders": list(triple), "checked": len(evidence), "evidence": evidence}, True


def _cmd_semigroup(config: RunConfig):
    if not config.generators:
        raise ValueError("--generators a,b,... is required")
    gens = [int(x) for x in config.generators.split(",")]
    s = semigroups.NumericalSemigroup(gens)
    payload = {
        "generators": list(s.generators),
        "gaps": list(s.gaps),
        "genus": s.genus,
        "conductor": s.conductor,
    }
    if config.dims:
        payload["dims"] = {
            d: semigroups.dim_from_semigroup(s, int(d)) for d in config.dims.split(",")
        }
    return payload, True


def _cmd_normalize(config: RunConfig):
    if config.file:
        with open(config.file) as fh:
            data = json.load(fh)
    else:
        data = json.load(sys.stdin)
    curve = curves.curve_from_json(data)
    target, record = curves.normalize(curve)
    return {
        "input": curve.to_json(),
        "target": target.to_json(),
        "record": curves.record_to_json(record),
        "standard": target == curves.trace_curve(curve.t),
    }, True


def _cmd_cover_check(config: RunConfig):
    t = config.t
    cm = covering.covering_map(t)
    payload = {"q": cm.q, "symbolic_identity": covering.symbolic_additive_identity(t)}
    ok = payload["symbolic_identity"]
    counts = covering.covering_census_check(t)
    payload["counts"] = counts
    ok = ok and counts["double_count_identity"] and counts["riemann_hurwitz_ok"]
    payload["riemann_hurwitz"] = {
        "different_degree": counts["different_degree"],
        "expected": cm.q + 2,
    }
    if config.exhaustive:
        membership = covering.image_membership_check(t, level=config.level)
    else:
        membership = covering.image_membership_sample(t, config.samples, config.rng())
    payload["identity_checks"] = membership
    ok = ok and membership["all_commute"]
    payload["fiber_histogram"] = covering.fiber_histogram(cm, config.level)
    sizes = set(payload["fiber_histogram"])
    ok = ok and sizes <= {"0", "2"} and (config.level == 1 or sizes == {"2"})
    return payload, ok


def _cmd_full_suite(config: RunConfig):
    t = config.t
    q = 1 << t
    rng = config.rng()
    checks: dict[str, bool] = {}
    skipped: dict[str, str] = {}

    herm = curves.hermitian(t)
    trace = curves.trace_curve(t)
    checks["hermitian_maximal"] = census.is_maximal(herm, census.g1(q))
    checks["trace_maximal"] = census.is_maximal(trace, census.g2(q))

    # the trace model's semigroup against <q/2, q+1>, its genus against the census
    sg, model = semigroups.infinity_semigroup(q), trace.model(1)
    n1 = census.count_rational(trace, 1)
    checks["semigroup_genus"] = (
        model.semigroup().generators == sg.generators and 2 * q * model.genus == n1 - q * q - 1
    )
    if t >= 2:  # the dim(D) = 3, dim(2D) = 8 laws presume genus > 0
        checks["dim_q_plus_1"] = semigroups.dim_from_semigroup(sg, q + 1) == 3
        checks["dim_2q_plus_2"] = semigroups.dim_from_semigroup(sg, 2 * q + 2) == 8

    sample = min(config.samples, 25)
    rational = census.sample_points(trace, 1, sample, rng, rational=True)
    checks["orders_rational"] = all(
        orders.dp_orders(trace, p).orders == (0, 1, 2, q + 1) for p in rational
    )
    try:
        at_infinity = orders.dp_orders_at_infinity(trace).orders
    except ValueError:  # refusing the trace curve's own pole orders fails the check
        at_infinity = None
    checks["orders_at_infinity"] = at_infinity == (0, 1, q // 2 + 1, q + 1)
    if t >= 2:
        try:
            nonrational = census.sample_points(trace, 2, sample, rng, rational=False)
        except census.CensusLimitError as exc:
            skipped["orders_non_rational"] = str(exc)
        else:
            checks["orders_non_rational"] = all(
                orders.dp_orders(trace, p).orders == (0, 1, 2, q) for p in nonrational
            )

    if t >= 2:
        triple, evidence = orders.frobenius_orders(trace, sample, rng)
        checks["frobenius_orders"] = triple == (0, 1, q)
        h_report = series.check_h_identities(make_field(t), 200, rng)
        checks["hasse_identities"] = h_report["all_pass"]

        for _ in range(10):
            record = _random_record(make_field(t), rng)
            moved = curves.apply_record(trace, record)
            normalized, _ = curves.normalize(moved)
            if normalized != trace:
                checks["normalization_roundtrip"] = False
                break
        else:
            checks["normalization_roundtrip"] = True

    if t >= 2:
        counts = covering.covering_census_check(t)
        checks["covering_counts"] = counts["double_count_identity"]
        checks["riemann_hurwitz"] = counts["riemann_hurwitz_ok"]
        checks["covering_symbolic"] = covering.symbolic_additive_identity(t)

    checks["impossibility_arithmetic"] = orders.degree_count_impossibility()["contradiction"]
    all_pass = all(checks.values())
    payload = {"t": t, "q": q, "checks": checks, "all_pass": all_pass}
    if skipped:
        payload["skipped"] = skipped
    return payload, all_pass


def _random_record(fld, rng):
    """A random valid isomorphism record over GF(q^2), of 1 to 4 changes."""
    record = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(curves.CHANGE_KINDS)
        if kind in ("scale-y", "scale-x"):
            bits = rng.randrange(1, fld.order)
        else:
            bits = rng.randrange(fld.order)
        record.append(curves.CoordinateChange(kind, fld.element(bits)))
    return record


_COMMANDS = {
    "field-info": _cmd_field_info,
    "count": _cmd_count,
    "verify-maximal": _cmd_verify_maximal,
    "expand": _cmd_expand,
    "orders": _cmd_orders,
    "frobenius-check": _cmd_frobenius_check,
    "semigroup": _cmd_semigroup,
    "normalize": _cmd_normalize,
    "cover-check": _cmd_cover_check,
    "full-suite": _cmd_full_suite,
}


def run(config: RunConfig) -> tuple[dict, int]:
    """Execute one subcommand; returns (payload, exit status)."""
    try:
        if config.samples < 1:  # no command has anything to check on zero points
            raise ValueError(f"--samples must be at least 1, got {config.samples}")
        payload, ok = _COMMANDS[config.command](config)
    except (curves.NormalizationError, ArithmeticError) as exc:
        return {"error": str(exc)}, EXIT_CHECK_FAILED
    except (ValueError, census.CensusLimitError, OSError, json.JSONDecodeError) as exc:
        return {"error": str(exc)}, EXIT_CONFIG
    payload["schema"] = 1
    return payload, EXIT_OK if ok else EXIT_CHECK_FAILED


def _render(payload: dict, fmt: str) -> str:
    if fmt == "table":
        lines = []
        for key in sorted(payload):
            lines.append(f"{key}\t{json.dumps(payload[key], sort_keys=True)}")
        return "\n".join(lines)
    return json.dumps(payload, sort_keys=True)


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a bad command line, so that it is reported as
    JSON, not as usage text; subcommand parsers inherit the class."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxcurves",
        description="Exact verification of maximal binary curves and their invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--t", type=int, default=2, help="tower parameter, q = 2^t")
        p.add_argument("--format", dest="fmt", choices=("json", "table"), default="json")
        p.add_argument("--seed", type=int, default=0)
        return p

    p = add("field-info", help="show a tower field's parameters")
    p.add_argument("--level", type=int, choices=(1, 2), default=1)

    for name, levels in (("count", True), ("verify-maximal", False)):
        p = add(name, help=f"{name.replace('-', ' ')} over GF(q^2)")
        p.add_argument("--curve", choices=("hermitian", "trace"), default="trace")
        if levels:
            p.add_argument("--level", type=int, choices=(1, 2), default=1)

    p = add("expand", help="series expansion of y at an affine point")
    p.add_argument("--curve", choices=("hermitian", "trace"), default="trace")
    p.add_argument("--point", required=True, help="HEX,HEX affine coordinates")
    p.add_argument("--level", type=int, choices=(1, 2), default=1)
    p.add_argument("--precision", type=int)

    p = add("orders", help="order sequence of the degree-(q+1) system at a point")
    p.add_argument("--curve", choices=("hermitian", "trace"), default="trace")
    p.add_argument("--point", required=True, help="HEX,HEX or 'inf'")
    p.add_argument("--level", type=int, choices=(1, 2), default=1)
    p.add_argument("--precision", type=int)

    p = add("frobenius-check", help="Frobenius order evidence on sampled points")
    p.add_argument("--curve", choices=("trace",), default="trace")
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--precision", type=int)

    p = add("semigroup", help="gaps, genus and dimensions of a numerical semigroup")
    p.add_argument("--generators", required=True, help="comma-separated generators")
    p.add_argument("--dims", help="comma-separated degrees to report dim |dP| for")

    p = add("normalize", help="reduce a trace-form curve (JSON) to the standard model")
    p.add_argument("--file", help="curve JSON file (default: stdin)")

    p = add("cover-check", help="degree-2 Hermitian covering checks")
    p.add_argument("--level", type=int, choices=(1, 2), default=1)
    p.add_argument("--exhaustive", action="store_true")
    p.add_argument("--samples", type=int, default=50)

    p = add("full-suite", help="run every check for one t")
    p.add_argument("--samples", type=int, default=50)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:
        print(_render({"error": str(exc), "schema": 1}, "json"))
        return EXIT_CONFIG
    # every argparse destination is a RunConfig field with the same default
    config = RunConfig(**vars(args))
    if not 1 <= config.t <= 5:
        print(_render({"error": f"t={config.t} outside [1, 5]", "schema": 1}, config.fmt))
        return EXIT_CONFIG
    payload, code = run(config)
    payload.setdefault("schema", 1)
    print(_render(payload, config.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
