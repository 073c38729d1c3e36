"""Command-line front end: every verification as a subcommand.

Two tables declare the command line.  ``_COMMANDS`` gives each
subcommand its handler, its help and the options it reads; ``_OPTIONS``
holds the one declaration of each option, whose destination is a
:class:`RunConfig` field.  A subcommand takes only the options it reads
(``--format`` on all of them), and an option it is not given keeps its
:class:`RunConfig` default, the only default written.  So ``--seed``
exists only on the two sampling subcommands, and a flag a subcommand does
not read is refused like any unknown flag.

Output is a single JSON document (sorted keys, ``"schema": 1``) or a
plain key/value table.  Exit codes: 0 all assertions passed, 1 a
mathematical check failed (for ``count``, a point count that differs
from the L-polynomial prediction; for ``cover-check``, also a fibre
point off the Hermitian curve or a fibre without two points), 2
configuration error, also for a command line the parser refuses.  The
random seed fully determines all sampling, so reports are reproducible
bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import census, covering, curves, orders, semigroups, series
from .fields import MAX_T, make_field

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
    file: str | None = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def curve_obj(self) -> curves.PlaneCurve:
        if self.curve == "hermitian":
            return curves.hermitian(self.t)
        if self.curve == "trace":
            return curves.trace_curve(self.t)
        raise ValueError(f"unknown curve {self.curve!r}")

    def default_precision(self) -> int:
        return series.default_precision(1 << self.t) if self.precision is None else self.precision


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
    return report.to_json(), report.count == report.expected


def _cmd_expand(config: RunConfig):
    curve = config.curve_obj()
    point = _parse_point(config, curve)
    n = config.default_precision()
    coeffs = series.expand_y_at(curve, point, n)
    hexes = [point.x.field.to_hex(c) for c in coeffs]
    return {
        "point": [point.x.hex(), point.y.hex()],
        "level": config.level,
        "precision": n,
        # the first exponent with a nonzero coefficient, null when all n vanish
        "valuation": next((e for e, c in enumerate(coeffs) if c), None),
        # the leading "0 + " (the starting exponent) stays for payload stability
        "series": f"0 + [{' '.join(hexes)}] mod t^{n}",
        "coefficients": hexes,
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
        curves.trace_curve(config.t), config.samples, config.rng(), config.precision
    )
    return {"orders": list(triple), "checked": len(evidence), "evidence": evidence}, True


def _cmd_semigroup(config: RunConfig):
    """The curve model's semigroup <deg A, deg P> at the point at infinity,
    with dim |kP| at k = q + 1 and 2q + 2.

    Fails unless the sieve's gap count is the closed-form genus
    (deg A - 1)(deg P - 1)/2 and the conductor is twice it, as in every
    two-generator (so symmetric) semigroup.  A wrong pole order moves both
    sides of these checks alike; ``full-suite``'s ``semigroup_genus``
    catches it against the point census.
    """
    model = config.curve_obj().model(1)
    s = model.semigroup()
    q = 1 << config.t
    payload = {
        "generators": list(s.generators),
        "gaps": list(s.gaps),
        "genus": s.genus,
        "conductor": s.conductor,
        "dims": {str(k): semigroups.dim_from_semigroup(s, k) for k in (q + 1, 2 * q + 2)},
    }
    return payload, s.genus == model.genus and s.conductor == 2 * model.genus


def _cmd_normalize(config: RunConfig):
    try:
        if config.file:
            with open(config.file) as fh:
                data = json.load(fh)
        else:
            data = json.load(sys.stdin)
    except RecursionError:  # the decoder's alone; one in the mathematics is no input error
        raise ValueError("curve JSON nests too deeply") from None
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
    # raises CheckFailed on a fibre point off the Hermitian curve; every fibre
    # has two points at either level, since N_1(H) = N_2(H) = q^3 + 1
    payload["fiber_histogram"] = covering.fiber_histogram(cm, config.level)
    return payload, ok and payload["fiber_histogram"].keys() == {"2"}


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
        model.pole_orders == sg.generators and 2 * q * model.genus == n1 - q * q - 1
    )
    if t >= 2:  # the dim(D) = 3, dim(2D) = 8 laws presume genus > 0
        checks["dim_q_plus_1"] = semigroups.dim_from_semigroup(sg, q + 1) == 3
        checks["dim_2q_plus_2"] = semigroups.dim_from_semigroup(sg, 2 * q + 2) == 8

    sample = min(config.samples, 25)
    rational = census.sample_points(trace, 1, sample, rng)
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

        triple, _ = orders.frobenius_orders(trace, sample, rng)
        checks["frobenius_orders"] = triple == (0, 1, q)
        fld = make_field(t)
        checks["normalization_roundtrip"] = all(
            curves.normalize(curves.apply_record(trace, _random_record(fld, rng)))[0] == trace
            for _ in range(10)
        )

        counts = covering.covering_census_check(t)
        checks["covering_counts"] = counts["double_count_identity"]
        checks["riemann_hurwitz"] = counts["riemann_hurwitz_ok"]
        checks["covering_symbolic"] = covering.symbolic_additive_identity(t)

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


# name: (handler, help, the RunConfig fields it reads as options besides fmt)
_COMMANDS = {
    "field-info": (_cmd_field_info, "show a tower field's parameters", "t level"),
    "count": (_cmd_count, "count points over GF(q^2) or GF(q^4)", "t curve level"),
    "expand": (_cmd_expand, "series of y at an affine point", "t curve point level precision"),
    "orders": (_cmd_orders, "orders of the degree-(q+1) system", "t curve point level precision"),
    "frobenius-check": (_cmd_frobenius_check, "Frobenius orders", "t seed samples precision"),
    "semigroup": (_cmd_semigroup, "the curve's Weierstrass semigroup at infinity", "t curve"),
    "normalize": (_cmd_normalize, "reduce a trace-form curve (JSON) to the standard one", "file"),
    "cover-check": (_cmd_cover_check, "degree-2 cover checks", "t level"),
    "full-suite": (_cmd_full_suite, "run every check for one t", "t seed samples"),
}

# RunConfig field: (flag, add_argument keywords); RunConfig holds the defaults
_OPTIONS = {
    "t": ("--t", {"type": int, "help": "tower parameter, q = 2^t"}),
    "fmt": ("--format", {"choices": ("json", "table")}),
    "seed": ("--seed", {"type": int}),
    "level": ("--level", {"type": int, "choices": (1, 2)}),
    "curve": ("--curve", {"choices": ("hermitian", "trace")}),
    "point": ("--point", {"required": True, "help": "HEX,HEX, or 'inf' for orders"}),
    "precision": ("--precision", {"type": int}),
    "samples": ("--samples", {"type": int}),
    "file": ("--file", {"help": "curve JSON file (default: stdin)"}),
}


def run(config: RunConfig) -> tuple[dict, int]:
    """Execute one subcommand; returns (payload, exit status)."""
    try:
        if config.samples < 1:  # no command has anything to check on zero points
            raise ValueError(f"--samples must be at least 1, got {config.samples}")
        payload, ok = _COMMANDS[config.command][0](config)
    except (curves.NormalizationError, ArithmeticError) as exc:
        return {"error": str(exc)}, EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:  # CensusLimitError and JSONDecodeError among them
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
    for name, (_, help_text, options) in _COMMANDS.items():
        # an option not given is left out of the namespace, so RunConfig supplies it
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        for field in ["fmt", *options.split()]:  # main renders every payload by fmt
            flag, kwargs = _OPTIONS[field]
            p.add_argument(flag, dest=field, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ValueError as exc:
        print(_render({"error": str(exc), "schema": 1}, "json"))
        return EXIT_CONFIG
    config = RunConfig(**vars(args))  # every argparse destination is a RunConfig field
    if not 1 <= config.t <= MAX_T:
        print(_render({"error": f"t={config.t} outside [1, {MAX_T}]", "schema": 1}, config.fmt))
        return EXIT_CONFIG
    payload, code = run(config)
    payload.setdefault("schema", 1)
    print(_render(payload, config.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
