"""Point enumeration, maximality, and genus-bound arithmetic."""

import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction

import pytest

from maxcurves import census, cli
from maxcurves.census import (
    AffinePoint,
    CensusLimitError,
    InfinitePoint,
    census_report,
    count_rational,
    enumerate_points,
    g1,
    g2,
    genus_bounds,
    hasse_weil_max,
    is_maximal,
    is_rational,
)
from maxcurves.curves import (
    CoordinateChange,
    apply_record,
    curve_from_json,
    hermitian,
    trace_curve,
    trace_form,
)
from maxcurves.fields import make_field, reduce_gf2
from maxcurves.orders import dp_orders_at_infinity


def random_trace_form(t, rng):
    fld = make_field(t)
    a = [fld.element(rng.randrange(1, fld.order))]
    a += [fld.element(rng.randrange(fld.order)) for _ in range(t - 1)]
    return trace_form(a, fld.element(rng.randrange(fld.order)))


def random_moved_trace_curve(t, rng):
    """The standard curve under a random shear, y-scaling and y-translation:
    a trace-form-extended model with the standard curve's point count."""
    fld = make_field(t)
    record = [
        CoordinateChange("shear", fld.element(rng.randrange(1, fld.order))),
        CoordinateChange("scale-y", fld.element(rng.randrange(1, fld.order))),
        CoordinateChange("translate-y", fld.element(rng.randrange(fld.order))),
    ]
    curve = apply_record(trace_curve(t), record)
    assert curve.family == "trace-form-extended"
    return curve


def l_polynomial_count(q, genus, k):
    """N_k of a GF(q^2)-maximal curve, whose L-polynomial is (1 + qT)^(2g)."""
    return q ** (2 * k) + 1 - 2 * genus * (-q) ** k


def brute_force_affine(curve, level):
    """Independent oracle: try every (x, y) pair against the equation."""
    fld = curve.level_field(level)
    points = []
    for xb in range(fld.order):
        for yb in range(fld.order):
            x, y = fld.element(xb), fld.element(yb)
            if not curve.evaluate(x, y):
                points.append((xb, yb))
    return points


@pytest.mark.parametrize(
    "curve,level,expected",
    [
        (trace_curve(2), 1, 33),
        (hermitian(2), 1, 65),
        (trace_curve(1), 1, 5),
        (hermitian(1), 1, 9),
        (random_moved_trace_curve(2, random.Random(11)), 1, 33),
    ],
)
def test_small_counts_against_brute_force(curve, level, expected):
    points = enumerate_points(curve, level)
    assert len(points) == expected
    assert count_rational(curve, level) == len(points)
    affine = [(p.x.bits, p.y.bits) for p in points if isinstance(p, AffinePoint)]
    assert affine == brute_force_affine(curve, level)  # same order: lex on (x, y)


def test_level2_counts_cross_checked_small():
    for t in (1, 2):
        for curve in (trace_curve(t), hermitian(t)):
            points = enumerate_points(curve, 2)
            affine = [(p.x.bits, p.y.bits) for p in points if isinstance(p, AffinePoint)]
            assert affine == brute_force_affine(curve, 2)


def test_enumerated_points_satisfy_the_equation():
    for level in (1, 2):
        curve = trace_curve(2)
        for p in enumerate_points(curve, level):
            if isinstance(p, AffinePoint):
                assert not curve.evaluate(p.x, p.y)
                assert p.level == level


def test_hermitian_counts_are_q_cubed_plus_one():
    for t, expected in ((1, 9), (2, 65), (3, 513), (4, 4097)):
        assert count_rational(hermitian(t), 1) == expected


def test_hermitian_gains_no_points_at_level_2():
    for t in (1, 2, 3):
        assert count_rational(hermitian(t), 2) == count_rational(hermitian(t), 1)


def test_trace_counts_and_maximality():
    for t, expected in ((2, 33), (3, 257), (4, 2049)):
        q = 1 << t
        assert count_rational(trace_curve(t), 1) == expected
        assert expected == q * q + 1 + 2 * q * (q * (q - 2) // 4)
        assert is_maximal(trace_curve(t), g2(q))
    assert count_rational(trace_curve(3), 1) == 257  # equals 64 + 1 + 2*8*12


def test_trace_level2_counts():
    # frozen from the enumeration itself, cross-checked at t<=2 by the
    # double-loop oracle above and here against N1 <= N2
    expected = {1: 17, 2: 193, 3: 2561}
    for t, n2 in expected.items():
        n1 = count_rational(trace_curve(t), 1)
        assert count_rational(trace_curve(t), 2) == n2
        assert n1 <= n2


def test_hermitian_maximality():
    for t in (1, 2, 3, 4):
        q = 1 << t
        assert is_maximal(hermitian(t), g1(q))


def test_census_limits():
    with pytest.raises(CensusLimitError):
        enumerate_points(trace_curve(5), 2)  # GF(2^20) refused
    with pytest.raises(CensusLimitError):
        count_rational(hermitian(5), 2)  # GF(2^20) refused
    assert count_rational(hermitian(5), 1) == 32 ** 3 + 1  # GF(2^10) allowed


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_counts_match_the_l_polynomial(t):
    q = 1 << t
    for curve, genus in ((trace_curve(t), g2(q)), (hermitian(t), g1(q))):
        for level in (1, 2):
            assert count_rational(curve, level) == l_polynomial_count(q, genus, level)
    # the GF(2^16) census: N_2 = q^4 + 1 - 2gq^2
    if t == 4:
        assert count_rational(trace_curve(4), 2) == 36865
        assert count_rational(hermitian(4), 2) == 4097


def additive_map(curve, level):
    """A(y) = F(0, y) + F(0, 0), straight from the equation."""
    fld = curve.level_field(level)
    zero = fld.zero
    return lambda yb: (curve.evaluate(zero, fld.element(yb)) + curve.evaluate(zero, zero)).bits


@pytest.mark.parametrize("t", [1, 2, 3])
def test_elimination_matches_a_scan_of_every_y(t):
    rng = random.Random(20 + t)
    for curve in (
        hermitian(t),
        trace_curve(t),
        random_trace_form(t, rng),
        random_moved_trace_curve(t, rng),
    ):
        for level in (1, 2):
            fld, _, in_image, a_map = census._census_setup(curve, level)
            apply_a = additive_map(curve, level)
            fibres = {}
            for yb in range(fld.order):
                fibres.setdefault(apply_a(yb), []).append(yb)
            assert a_map.kernel == fibres[0]
            for v in range(fld.order):
                assert a_map.coset(v) == fibres.get(v, [])
                assert in_image[v] == (v in fibres)


@pytest.mark.parametrize(
    "terms",
    [
        [[5, 0, "1"], [2, 2, "1"], [0, 1, "1"]],  # mixed monomial
        [[5, 0, "1"], [0, 6, "1"], [0, 1, "1"]],  # y^6 is not a 2-power term
    ],
)
def test_census_refuses_a_y_part_that_is_not_additive(terms):
    # no curve holds such a y-part: the document is refused before a census
    document = {"q": 4, "terms": terms}
    with pytest.raises(ValueError, match="outside the supported families"):
        count_rational(curve_from_json(document), 1)
    with pytest.raises(ValueError, match="outside the supported families"):
        enumerate_points(curve_from_json(document), 1)


def columns_of(fld, part) -> list[int]:
    """A(1 << j) for j < m: the columns that fields.additive_map reduces."""
    return [fld.part_at(part, 1 << j) for j in range(fld.m)]


def test_planted_column_defect_is_caught(monkeypatch, capsys):
    def planted(fld, ypart):
        images = columns_of(fld, ypart)
        # only the Hermitian y^q + y: full-suite samples trace-curve points,
        # and off-curve samples would stop it before it reports
        if fld.q in ypart:
            images[0] ^= 2  # A(1) = z instead of 0
        return reduce_gf2(images)

    monkeypatch.setattr(census, "additive_map", planted)
    for t in (1, 2, 3, 4):
        q = 1 << t
        assert count_rational(hermitian(t), 1) != l_polynomial_count(q, g1(q), 1)
    assert cli.main(["full-suite", "--t", "2", "--samples", "10"]) == cli.EXIT_CHECK_FAILED
    assert '"hermitian_maximal": false' in capsys.readouterr().out


def test_planted_column_defect_on_the_trace_curve_fails_full_suite(monkeypatch, capsys):
    def planted(fld, ypart):
        images = columns_of(fld, ypart)
        images[0] ^= 2  # A(1) = z for every curve, the trace curve included
        return reduce_gf2(images)

    monkeypatch.setattr(census, "additive_map", planted)
    assert cli.main(["full-suite", "--t", "3"]) == cli.EXIT_CHECK_FAILED
    error = json.loads(capsys.readouterr().out)["error"]
    assert "census of the trace-standard curve" in error and "not on it" in error


CONSTRUCTED = [
    (ctor, t, level)
    for ctor in (hermitian, trace_curve, lambda t: random_trace_form(t, random.Random(40 + t)))
    for level, ts in ((1, (1, 2, 3, 4)), (2, (1, 2, 3)))
    for t in ts
]


@pytest.mark.parametrize("ctor,t,level", CONSTRUCTED)
def test_enumerated_points_equal_publicly_built_ones(ctor, t, level):
    curve = ctor(t)
    fld = curve.level_field(level)
    points = enumerate_points(curve, level)
    assert points[-1] == InfinitePoint()
    masks = [(p.x.bits, p.y.bits) for p in points[:-1]]
    assert masks == sorted(set(masks))
    reference = [AffinePoint(fld.element(x), fld.element(y), level) for x, y in masks]
    reference.append(InfinitePoint())
    assert points == reference
    assert list(map(hash, points)) == list(map(hash, reference))
    assert list(map(repr, points)) == list(map(repr, reference))
    assert all(type(p) is AffinePoint and p.x.field is p.y.field is fld for p in points[:-1])


def test_enumerated_points_stay_frozen_dataclasses():
    point = enumerate_points(trace_curve(2), 1)[5]
    assert not hasattr(point, "__dict__")  # slotted
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.x = point.y
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.level = 2
    moved = dataclasses.replace(point, x=point.x + point.x.field.one)
    assert moved == AffinePoint(point.x + point.x.field.one, point.y, 1) and moved != point
    assert dataclasses.replace(point) == point
    assert [f.name for f in dataclasses.fields(point)] == ["x", "y", "level"]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_is_rational_agrees_with_frobenius(t):
    def by_frobenius(curve, p):
        return p.x.in_subfield(2 * curve.t) and p.y.in_subfield(2 * curve.t)

    rng = random.Random(t)
    for curve in (hermitian(t), trace_curve(t)):
        for p in enumerate_points(curve, 1)[:-1]:
            assert is_rational(curve, p) and by_frobenius(curve, p)
        level2 = enumerate_points(curve, 2)[:-1]
        kinds = {True: 0, False: 0}
        for p in rng.sample(level2, min(200, len(level2))):
            kinds[by_frobenius(curve, p)] += 1
            assert is_rational(curve, p) == by_frobenius(curve, p)
        for rational in (True, False):
            drawn = census.sample_points(curve, 2, 10, rng, rational=rational)
            assert all(by_frobenius(curve, p) == rational for p in drawn)
            kinds[rational] += len(drawn)
        # the Hermitian curve gains no points at level 2
        assert kinds[True] and bool(kinds[False]) == (curve.family != "hermitian")


def frobenius_image(curve, p):
    """The GF(q^2)-Frobenius image (x, y) -> (x^(q^2), y^(q^2))."""
    k = 2 * curve.t
    return AffinePoint(p.x.frobenius(k), p.y.frobenius(k), p.level)


def test_frobenius_point_fixes_exactly_level1_points():
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    assert frobenius_image(tc, origin) == origin
    points = [p for p in enumerate_points(tc, 2) if isinstance(p, AffinePoint)]
    fixed = [p for p in points if frobenius_image(tc, p) == p]
    rational = [p for p in points if is_rational(tc, p)]
    assert len(fixed) == len(rational) == 32
    assert set(fixed) == set(rational)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_frobenius_stability_of_level2_point_set(t):
    for curve in (trace_curve(t), hermitian(t)):
        points = {
            (p.x.bits, p.y.bits)
            for p in enumerate_points(curve, 2)
            if isinstance(p, AffinePoint)
        }
        fld = curve.level_field(2)
        for xb, yb in points:
            image = frobenius_image(curve, AffinePoint(fld.element(xb), fld.element(yb), 2))
            assert (image.x.bits, image.y.bits) in points


def test_on_curve_predicate():
    tc = trace_curve(2)
    assert census.on_curve(tc, AffinePoint(tc.field.zero, tc.field.zero, 1))
    assert census.on_curve(tc, InfinitePoint())
    assert not census.on_curve(tc, AffinePoint(tc.field.one, tc.field.zero, 1))


def test_hasse_weil_bound_values():
    assert hasse_weil_max(4, 2) == 33
    assert hasse_weil_max(4, 6) == 65
    with pytest.raises(ValueError):
        hasse_weil_max(4, -1)


def test_genus_formulas():
    assert g1(4) == 6 and g2(4) == 2
    assert g2(8) == 12 and 8 * 6 // 4 == 12
    assert g1(32) == 496 and g2(32) == 240


@pytest.mark.parametrize("t", [2, 3, 4])
def test_model_genus_and_orders_at_infinity_agree_with_the_census(t):
    # moved copies of the standard curve are maximal, so the census alone
    # gives the genus: N_1 = q^2 + 1 + 2qg
    rng = random.Random(90 + t)
    fld, q = make_field(t), 1 << t
    scaled = apply_record(trace_curve(t), [
        CoordinateChange("scale-y", fld.element(rng.randrange(2, fld.order))),
        CoordinateChange("translate-y", fld.element(rng.randrange(1, fld.order))),
    ])
    assert scaled.family == "trace-form"
    for curve in (scaled, random_moved_trace_curve(t, rng)):
        n1 = count_rational(curve, 1)
        assert 2 * q * curve.model(1).genus == n1 - q * q - 1
        assert census.curve_genus(curve) == g2(q)
        assert dp_orders_at_infinity(curve).orders == (0, 1, q // 2 + 1, q + 1)


def test_genus_bounds_branches():
    assert genus_bounds(8, 2) == Fraction(49, 2)  # forces g <= 12
    assert genus_bounds(4, 2) == Fraction(9, 2)  # forces g <= 2
    assert genus_bounds(4, 1) == Fraction(12, 1)  # odd branch: q(q-1), g <= 6
    with pytest.raises(ValueError):
        genus_bounds(4, 0)


def test_census_report_serialization():
    report = census_report(trace_curve(2), g2(4))
    assert report.to_json() == {
        "q": 4,
        "family": "trace-standard",
        "level": 1,
        "count": 33,
        "expected": 33,
        "maximal": True,
    }
    level2 = census_report(trace_curve(2), g2(4), level=2)
    assert level2.count == 193 and not level2.maximal
    assert level2.expected == 193  # q^4 + 1 - 2g q^2, the L-polynomial prediction


def test_sample_points_filters():
    import random

    tc = trace_curve(2)
    rng = random.Random(0)
    rational = census.sample_points(tc, 2, 10, rng, rational=True)
    assert len(rational) == 10 and all(is_rational(tc, p) for p in rational)
    nonrational = census.sample_points(tc, 2, 10, rng, rational=False)
    assert len(nonrational) == 10 and not any(is_rational(tc, p) for p in nonrational)
    everything = census.sample_points(tc, 1, 10 ** 6, rng)
    assert len(everything) == 32  # exhaustive when the pool is smaller


@pytest.mark.parametrize("t,level", [(2, 1), (2, 2), (3, 2)])
def test_points_survive_deepcopy_astuple_asdict_and_pickle(t, level):
    for p in census.sample_points(trace_curve(t), level, 5, random.Random(t)):
        assert copy.deepcopy(p) == p and copy.copy(p) == p
        assert dataclasses.astuple(p) == (p.x, p.y, level)
        assert dataclasses.asdict(p) == {"x": p.x, "y": p.y, "level": level}
        back = pickle.loads(pickle.dumps(p))
        assert back == p and hash(back) == hash(p) and repr(back) == repr(p)
        assert back.x.field is p.x.field
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.level = 1
    # a point over GF(2^20), whose field multiplies through the tower
    fld = make_field(5, "quartic")
    far = AffinePoint(fld.element(0x12345), fld.element(0xABCDE), 2)
    assert copy.deepcopy(far) == far == pickle.loads(pickle.dumps(far))
