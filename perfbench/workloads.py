"""The three workloads: their inputs, their operations and the checks on them.

Every operation calls into maxcurves, and its output is checked against
:mod:`oracle` or against a property the method must have.  A check
raises :class:`CheckFailed`, or returns a fingerprint of the output; the
runner compares fingerprints between rounds, because the package
promises identical output for identical input.

Each workload's round is a fixed list of operations built from the
workload seed.  The seed changes which inputs are drawn, never how many
operations of each kind a round holds, so rounds from different seeds do
the same mix of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle
from maxcurves import census, cli, covering, curves, fields, orders, semigroups, series


class CheckFailed(Exception):
    """An operation's output contradicts the oracle or a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], object]


@dataclass(frozen=True)
class Workload:
    # (t, level, embed) for every field the workload touches; see setup_fields
    fields: tuple[tuple[int, str, bool], ...]
    build: Callable[[int, dict], list[Op]]


CURVES = {"hermitian": curves.hermitian, "trace": curves.trace_curve}
FIELD_ORACLES: dict[tuple[int, int], oracle.Field] = {}


def oracle_field(t: int, level: int, moduli: dict) -> oracle.Field:
    key = (t, level)
    if key not in FIELD_ORACLES:
        FIELD_ORACLES[key] = oracle.field_for(t, level, moduli)
    return FIELD_ORACLES[key]


# -- checks -------------------------------------------------------------------

CHECK_TS = range(2, 6)
H_INSTANCES = 20  # full-suite runs 200; 20 keeps one call near 5 ms
FROBENIUS_SAMPLE = 3


def trace_solver(fld: oracle.Field, t: int) -> oracle.AdditiveSolver:
    return oracle.AdditiveSolver(fld.m, lambda y: oracle.y_part(fld, "trace", t, y))


def checks_ops(seed: int, moduli: dict) -> list[Op]:
    """The calls full-suite makes, for t = 2..5, one operation each."""
    rng = random.Random(seed)
    ops = []
    for t in CHECK_TS:
        q = 1 << t
        fld = oracle_field(t, 1, moduli)
        solver = trace_solver(fld, t)
        for family in CURVES:
            ops.append(Op(f"is_maximal {family} t={t}",
                          lambda f=family, t=t: census.is_maximal(CURVES[f](t), oracle.genus(1 << t, f)),
                          check_maximal))
        ops.append(Op(f"semigroup t={t}", lambda t=t: semigroup_facts(t),
                      lambda out, t=t: check_semigroup(out, t)))
        for _ in range(2):
            x, y = oracle.trace_point(fld, t, rng, solver)
            ops.append(Op(f"dp_orders t={t} ({x:x},{y:x})", lambda t=t, x=x, y=y: level1_orders(t, x, y),
                          lambda out, q=q: check_level1_orders(out, q)))
        x, y = oracle.trace_point(fld, t, rng, solver)
        ops.append(Op(f"Frobenius evidence t={t} ({x:x},{y:x})",
                      lambda t=t, x=x, y=y: frobenius_evidence(t, x, y), check_evidence))
        ops.append(Op(f"fiber t={t} ({x:x},{y:x})",
                      lambda t=t, x=x, y=y: covering.fiber(covering.covering_map(t), level1_point(t, x, y), 1),
                      lambda out, t=t, x=x, y=y: check_fiber(out, t, x, y, moduli)))
        h_seed = rng.randrange(1 << 31)
        ops.append(Op(f"check_h_identities t={t}",
                      lambda t=t, s=h_seed: series.check_h_identities(
                          fields.make_field(t), H_INSTANCES, random.Random(s)),
                      check_h_report))
        record = random_record(fields.make_field(t), rng)
        ops.append(Op(f"normalize t={t}", lambda t=t, r=record: round_trip(t, r),
                      lambda out, t=t: check_round_trip(out, t)))
        if t <= 4:  # covering_census_check refuses t = 5
            ops.append(Op(f"covering_census_check t={t}", lambda t=t: covering.covering_census_check(t),
                          lambda out, t=t: check_covering(out, t)))
        if t <= 3:  # at t >= 4 the census inside frobenius_orders makes a call of 20 ms and more
            f_seed = rng.randrange(1 << 31)
            ops.append(Op(f"frobenius_orders t={t}",
                          lambda t=t, s=f_seed: orders.frobenius_orders(
                              curves.trace_curve(t), FROBENIUS_SAMPLE, random.Random(s)),
                          lambda out, q=q: check_frobenius_orders(out, q)))
    return ops


def check_maximal(maximal):
    require(maximal is True, "count below the Hasse-Weil bound of the oracle genus")
    return maximal


def semigroup_facts(t: int):
    q = 1 << t
    sg = semigroups.infinity_semigroup(q)
    at_infinity = orders.dp_orders_at_infinity(curves.trace_curve(t))
    return (sg.genus, semigroups.dim_from_semigroup(sg, q + 1),
            semigroups.dim_from_semigroup(sg, 2 * q + 2), at_infinity.orders)


def check_semigroup(out, t: int):
    q = 1 << t
    genus, dim_d, dim_2d, at_infinity = out
    require(genus == oracle.genus(q, "trace"), f"semigroup genus {genus}")
    require((dim_d, dim_2d) == (3, 8), f"dim |(q+1)P| = {dim_d}, dim |(2q+2)P| = {dim_2d}")
    require(at_infinity == (0, 1, q // 2 + 1, q + 1), f"orders at infinity {at_infinity}")
    return out


def level1_point(t: int, x: int, y: int):
    fld = fields.make_field(t)
    return census.AffinePoint(fld.element(x), fld.element(y), 1)


def level1_orders(t: int, x: int, y: int):
    return orders.dp_orders(curves.trace_curve(t), level1_point(t, x, y), 2 * (1 << t) + 8)


def check_level1_orders(data, q: int):
    require(data.orders == (0, 1, 2, q + 1), f"orders {data.orders} at a rational point")
    require(data.classification == "rational", f"class {data.classification}")
    return data


def frobenius_evidence(t: int, x: int, y: int):
    q = 1 << t
    n = min(2 * q + 8, q * q)
    curve, point = curves.trace_curve(t), level1_point(t, x, y)
    return series.verify_derivative_facts(curve, point, n), orders.frobenius_identity_check(curve, point, n)


def check_evidence(out):
    facts, residual = out
    require(facts.dy_is_xq and facts.d2y_is_x2q and facts.middle_vanish, "derivative facts fail")
    require(residual["residual_zero"] is True, "Frobenius residual is not zero")
    return facts, residual["precision"]


def check_fiber(points, t: int, x: int, y: int, moduli: dict):
    """Hermitian points over (x, y): (x, u) with u^2 + u = y, two of them
    when the absolute trace of y vanishes and none otherwise."""
    fld = oracle_field(t, 1, moduli)
    coords = affine_coordinates(points)
    expected = 0 if oracle.absolute_trace(fld, y) else 2
    require(len(set(coords)) == len(coords) == expected, f"fiber of {len(coords)} points, expected {expected}")
    for px, u in coords:
        require(px == x and fld.mul(u, u) ^ u == y, f"({px:x},{u:x}) does not map to ({x:x},{y:x})")
    check_on_curve(coords, "hermitian", t, 1, moduli)
    return tuple(coords)


def check_h_report(report):
    for name in ("h1", "h2", "h3", "h3prime"):
        tally = report[name]
        require(tally["fail"] == 0, f"{name} failed {tally['fail']} times")
        require(tally["pass"] == H_INSTANCES, f"{name} passed {tally['pass']} of {H_INSTANCES}")
    require(report["all_pass"] is True, "all_pass is not true")
    return json.dumps(report, sort_keys=True)


def random_record(fld, rng) -> list:
    """One to four random invertible coordinate changes over GF(q^2)."""
    record = []
    for _ in range(rng.randrange(1, 5)):
        kind = rng.choice(curves.CHANGE_KINDS)
        bits = rng.randrange(1 if kind.startswith("scale") else 0, fld.order)
        record.append(curves.CoordinateChange(kind, fld.element(bits)))
    return record


def round_trip(t: int, record):
    moved = curves.apply_record(curves.trace_curve(t), record)
    normalized, back = curves.normalize(moved)
    return moved, normalized, back


def check_round_trip(out, t: int):
    moved, normalized, back = out
    standard = curves.trace_curve(t)
    require(normalized == standard, "normalize did not reach the standard curve")
    require(curves.apply_record(moved, back) == standard, "the returned record does not map back")
    return json.dumps(curves.record_to_json(back))


def check_covering(report, t: int):
    q = 1 << t
    herm = oracle.extension_count(q, oracle.genus(q, "hermitian"), 1)
    trace = oracle.extension_count(q, oracle.genus(q, "trace"), 1)
    require((report["count_hermitian"], report["count_trace"]) == (herm, trace),
            f"cover counts {report['count_hermitian']}, {report['count_trace']}")
    require(report["double_count_identity"] is True and report["riemann_hurwitz_ok"] is True,
            "cover identities fail")
    return json.dumps(report, sort_keys=True)


def check_frobenius_orders(out, q: int):
    triple, evidence = out
    require(triple == (0, 1, q), f"Frobenius orders {triple}")
    require(len(evidence) == FROBENIUS_SAMPLE, f"{len(evidence)} points of evidence")
    for entry in evidence:
        require(all(v is True for k, v in entry.items() if k != "point"), f"evidence fails at {entry['point']}")
    return json.dumps(evidence, sort_keys=True)


# -- census -------------------------------------------------------------------

POINTS_CHECKED = 16  # enumerated points tested against the equation per call
SAMPLE_T, SAMPLE_SIZE = 3, 25


def census_ops(seed: int, moduli: dict) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for family, ctor in CURVES.items():
        for t in range(1, 6):
            ops.append(Op(f"census_report {family} t={t}", lambda c=ctor, t=t: report(c(t)),
                          lambda out, f=family, t=t: check_report(out, f, t)))
        for t in range(1, 4):
            ops.append(Op(f"count_rational {family} t={t} level=2",
                          lambda c=ctor, t=t: census.count_rational(c(t), 2),
                          lambda out, f=family, t=t: check_count(out, f, t, 2)))
        # level 1 only up to t = 4: at t = 5 one enumeration takes 70-140 ms,
        # which would leave the counts a small share of the round
        for t in range(1, 5):
            picks = rng.randrange(1 << 31)
            ops.append(Op(f"enumerate_points {family} t={t}",
                          lambda c=ctor, t=t: census.enumerate_points(c(t), 1),
                          lambda out, f=family, t=t, p=picks: check_enumeration(out, f, t, p, moduli)))
    sample_seed = rng.randrange(1 << 31)
    ops.append(Op(f"sample_points trace t={SAMPLE_T}",
                  lambda: census.sample_points(curves.trace_curve(SAMPLE_T), 1, SAMPLE_SIZE,
                                               random.Random(sample_seed), rational=True),
                  lambda out: check_sample(out, moduli)))
    rng.shuffle(ops)
    return ops


def report(curve):
    """What the verify-maximal subcommand computes."""
    return census.census_report(curve, census.curve_genus(curve), 1)


def check_count(count, family: str, t: int, level: int):
    q = 1 << t
    expected = oracle.extension_count(q, oracle.genus(q, family), level)
    require(count == expected, f"{family} t={t} level {level}: {count} points, expected {expected}")
    return count


def check_report(report, family: str, t: int):
    q = 1 << t
    g = oracle.genus(q, family)
    require(report.q == q and report.level == 1, "report names another field")
    require(report.expected == q * q + 1 + 2 * q * g, f"Hasse-Weil bound {report.expected}")
    require(report.maximal is True, "report does not call the curve maximal")
    return check_count(report.count, family, t, 1)


def affine_coordinates(points) -> list[tuple[int, int]]:
    return [(p.x.bits, p.y.bits) for p in points if hasattr(p, "x")]


def check_on_curve(coords, family: str, t: int, level: int, moduli: dict) -> None:
    fld = oracle_field(t, level, moduli)
    for x, y in coords:
        require(x >> fld.m == 0 and y >> fld.m == 0, f"({x:#x},{y:#x}) is outside GF(2^{fld.m})")
        require(oracle.on_curve(fld, family, t, x, y), f"({x:#x},{y:#x}) is not on the {family} curve")


def check_enumeration(points, family: str, t: int, picks: int, moduli: dict):
    coords = affine_coordinates(points)
    require(len(set(coords)) == len(coords), "enumerated points repeat")
    require(len(points) - len(coords) == 1, "expected one point at infinity")
    check_count(len(points), family, t, 1)
    check_on_curve(random.Random(picks).sample(coords, min(POINTS_CHECKED, len(coords))),
                   family, t, 1, moduli)
    return hash(tuple(coords))


def check_sample(points, moduli: dict):
    coords = affine_coordinates(points)
    require(len(coords) == len(points), "sample holds the point at infinity")
    require(len(set(coords)) == len(coords), "sampled points repeat")
    affine = oracle.extension_count(1 << SAMPLE_T, oracle.genus(1 << SAMPLE_T, "trace"), 1) - 1
    require(len(coords) == min(SAMPLE_SIZE, affine), f"{len(coords)} points sampled")
    check_on_curve(coords, "trace", SAMPLE_T, 1, moduli)
    fld = oracle_field(SAMPLE_T, 1, moduli)
    require(all(oracle.is_rational(fld, SAMPLE_T, x, y) for x, y in coords), "non-rational point")
    return tuple(coords)


# -- quartic ------------------------------------------------------------------

# points per round: (t, rational); most are non-rational, and t = 4 gets
# more of them so that the median operation is a tabled m = 16 one while
# most of the time goes to the untabled m = 20 field
QUARTIC_POINTS = ((4, False),) * 6 + ((4, True),) * 2 + ((5, False),) * 3 + ((5, True),)


def quartic_ops(seed: int, moduli: dict) -> list[Op]:
    rng = random.Random(seed)
    solvers = {}
    ops = []
    for t, rational in QUARTIC_POINTS:
        fld = oracle_field(t, 2, moduli)
        if t not in solvers:
            solvers[t] = trace_solver(fld, t)
        x, y = oracle.trace_point(fld, t, rng, solvers[t], rational)
        if not oracle.on_curve(fld, "trace", t, x, y) or oracle.is_rational(fld, t, x, y) != rational:
            raise RuntimeError(f"generated point ({x:#x},{y:#x}) at t={t} is wrong")
        ops.append(quartic_op(t, x, y, rational))
    return ops


def quartic_op(t: int, x: int, y: int, rational: bool) -> Op:
    q = 1 << t
    n = 2 * q + 8  # the orders subcommand's default precision
    width = t  # hex digits of a GF(2^(4t)) mask
    text = [format(x, f"0{width}x"), format(y, f"0{width}x")]
    config = cli.RunConfig(command="orders", t=t, curve="trace", level=2, point=",".join(text))

    def call():
        payload, code = cli.run(config)
        curve = curves.trace_curve(t)
        fld = fields.make_field(t, "quartic")
        point = census.AffinePoint(fld.element(x), fld.element(y), 2)
        residual = orders.frobenius_identity_check(curve, point, n)
        facts = series.verify_derivative_facts(curve, point, n)
        return payload, code, residual, facts

    def check(out):
        payload, code, residual, facts = out
        require(code == cli.EXIT_OK, f"exit status {code}: {payload.get('error')}")
        require(payload["point"] == text, "orders payload names another point")
        expected = [0, 1, 2, q + 1] if rational else [0, 1, 2, q]
        require(payload["orders"] == expected, f"orders {payload['orders']}, expected {expected}")
        require(payload["class"] == ("rational" if rational else "non-rational"), "wrong class")
        require(residual["residual_zero"] is True, "Frobenius residual is not zero")
        require(facts.dy_is_xq and facts.d2y_is_x2q and facts.middle_vanish, "derivative facts fail")
        return tuple(payload["orders"])

    kind = "rational" if rational else "non-rational"
    return Op(f"quartic t={t} {kind} ({text[0]},{text[1]})", call, check)


WORKLOADS = {
    "checks": Workload(
        tuple((t, "base-square", False) for t in CHECK_TS),
        checks_ops,
    ),
    "census": Workload(
        tuple((t, "base-square", False) for t in range(1, 6))
        + tuple((t, "quartic", True) for t in range(1, 4)),
        census_ops,
    ),
    "quartic": Workload(
        ((4, "base-square", False), (5, "base-square", False),
         (4, "quartic", True), (5, "quartic", True)),
        quartic_ops,
    ),
}
