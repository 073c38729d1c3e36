"""Curve models, normalization, and its maximality criterion."""

import json
import random

import pytest

from maxcurves import census, curves, fields
from maxcurves.curves import (
    CHANGE_KINDS,
    AdditiveModel,
    CoordinateChange,
    NormalizationError,
    apply_change,
    apply_record,
    curve_from_json,
    hermitian,
    normalize,
    record_to_json,
    trace_curve,
    trace_form,
    trace_form_extended,
)
from maxcurves.fields import FieldElement, make_field


def random_record(fld, rng, length=None):
    length = length if length is not None else rng.randrange(1, 5)
    kinds = ("scale-y", "translate-y", "shear", "scale-x")
    record = []
    for _ in range(length):
        kind = rng.choice(kinds)
        lo = 1 if kind in ("scale-y", "scale-x") else 0
        record.append(CoordinateChange(kind, fld.element(rng.randrange(lo, fld.order))))
    return record


def test_built_in_polynomials():
    tc2 = trace_curve(2)
    assert tc2.model(1).terms() == {(5, 0): 1, (0, 2): 1, (0, 1): 1}
    h2 = hermitian(2)
    assert h2.model(1).terms() == {(5, 0): 1, (0, 4): 1, (0, 1): 1}
    tc1 = trace_curve(1)
    assert tc1.model(1).terms() == {(3, 0): 1, (0, 1): 1}


def test_infinity_descriptors():
    # pole orders of (x, y) at infinity, now derived as (deg A, deg P)
    tc3, h3 = trace_curve(3), hermitian(3)
    assert tc3.model(1).pole_orders == (4, 9)
    assert h3.model(1).pole_orders == (8, 9)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_model_facts_at_infinity_match_the_paper(t):
    # trace curve: pole orders (q/2, q+1), genus g_2 = q(q-2)/4 and
    # semigroup <q/2, q+1>; Hermitian: (q, q+1), g_1 = q(q-1)/2, <q, q+1>
    q = 1 << t
    trace, herm = trace_curve(t).model(1), hermitian(t).model(1)
    assert trace.pole_orders == (q // 2, q + 1)
    assert trace.genus == q * (q - 2) // 4 == census.g2(q)
    assert trace.semigroup().generators == (q // 2, q + 1)
    assert herm.pole_orders == (q, q + 1)
    assert herm.genus == q * (q - 1) // 2 == census.g1(q)
    assert herm.semigroup().generators == (q, q + 1)
    assert trace.semigroup().genus == trace.genus and herm.semigroup().genus == herm.genus


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_level_2_model_is_the_level_1_model_embedded(t):
    rng = random.Random(80 + t)
    moved = apply_record(trace_curve(t), random_record(make_field(t), rng))
    for curve in (trace_curve(t), hermitian(t), moved):
        one, two = curve.model(1), curve.model(2)
        fld = curve.level_field(2)

        def embed(c):
            return fld.embed(one.field.element(c)).bits

        xpart = {e: embed(c) for e, c in one.xpart.items()}
        ypart = {e: embed(c) for e, c in one.ypart.items()}
        assert two.field is fld and one.field is curve.field
        assert two == AdditiveModel(fld, xpart, ypart, embed(one.const))
        assert two.pole_orders == one.pole_orders
        assert curve.model(2) is two  # parsed once per curve


@pytest.mark.parametrize("ctor,genus", [(hermitian, census.g1), (trace_curve, census.g2)])
def test_built_in_curves_are_interned_per_field(monkeypatch, ctor, genus):
    for t in range(1, 6):
        assert ctor(t) is ctor(t) and ctor(t).model(2) is ctor(t).model(2)
    old = ctor(2)
    # a fresh field gets a fresh curve, and the census runs on it
    monkeypatch.setattr(fields, "_FIELD_CACHE", {})
    fresh = ctor(2)
    assert fresh is ctor(2) and fresh.field is make_field(2) is not old.field
    assert fresh.model(2).field is make_field(2, "quartic") is not old.model(2).field
    for level in (1, 2):  # N_k = q^(2k) + 1 - 2g(-q)^k
        expected = 4 ** (2 * level) + 1 - 2 * genus(4) * (-4) ** level
        assert census.count_rational(fresh, level) == census.count_rational(old, level) == expected
    monkeypatch.undo()
    back = ctor(2)
    assert back.field is make_field(2) is old.field and back is not fresh and back is ctor(2)


def test_model_refuses_non_coprime_degrees():
    fld = make_field(2)
    model = AdditiveModel(fld, {6: 1}, {2: 1, 1: 1}, 0)
    with pytest.raises(ValueError, match="not coprime"):
        model.pole_orders


def test_unsupported_t():
    with pytest.raises(ValueError):
        trace_curve(6)
    with pytest.raises(ValueError):
        hermitian(0)


def test_evaluate_and_partials():
    tc2 = trace_curve(2)
    zero = tc2.field.zero
    assert not tc2.evaluate(zero, zero)  # the origin is on the curve
    # dF/dy of an additive model is the constant coefficient of y
    for t in range(1, 6):
        assert trace_curve(t).model(1).ypart[1] == 1
        assert hermitian(t).model(1).ypart[1] == 1


def test_evaluate_level_mismatch():
    tc2 = trace_curve(2)
    other = make_field(3)
    with pytest.raises(ValueError):
        tc2.evaluate(other.zero, other.zero)


def test_trace_form_with_unit_coefficients_is_standard():
    fld = make_field(3)
    a = [fld.one] * 3
    assert trace_form(a, fld.zero) == trace_curve(3)
    assert trace_form_extended(a, [fld.zero] * 4) == trace_curve(3)


def test_trace_form_fixture_q4():
    fld = make_field(2)
    g = fld.element(2)
    curve = trace_form([fld.one, fld.one], g * g + g)
    assert curve.family == "trace-form"
    assert curve.model(1).const == (g * g + g).bits


def test_trace_form_rejects_zero_a1():
    fld = make_field(2)
    with pytest.raises(ValueError):
        trace_form([fld.zero, fld.one], fld.zero)


def test_models_without_a_y_term_are_refused():
    # y^2 = x^5 + 3 over GF(16): A(y) = y^2 is inseparable, so the curve has
    # genus 0 and 17 = q^2 + 1 points, not the genus 2 the pole orders give
    fld = make_field(2)
    a, c = [fld.one, fld.zero], fld.element(3)
    text = "nonzero y-coefficient a_t"
    with pytest.raises(ValueError, match=text):
        trace_form(a, c)
    with pytest.raises(ValueError, match=text):
        trace_form_extended(a, [c, fld.one, fld.zero])
    document = {"q": 4, "terms": [[5, 0, "1"], [0, 2, "1"], [0, 0, "3"]]}
    with pytest.raises(ValueError, match=text):
        curve_from_json(document)
    # the leading coefficient is tested first, so a model lacking both names a_1
    with pytest.raises(ValueError, match="leading y-coefficient a_1"):
        curve_from_json({"q": 4, "terms": [[5, 0, "1"], [0, 0, "3"]]})


def test_curve_json_refuses_a_repeated_monomial():
    # a dict keyed by (i, j) would keep the last coefficient, not their sum
    document = {"q": 4, "terms": [[5, 0, "1"], [0, 2, "1"], [0, 1, "1"], [0, 1, "1"]]}
    with pytest.raises(ValueError, match=r"term x\^0 y\^1 appears more than once"):
        curve_from_json(document)
    document["terms"][-1] = [5, 0, "0"]
    with pytest.raises(ValueError, match=r"term x\^5 y\^0 appears more than once"):
        curve_from_json(document)


def test_curve_json_round_trip():
    fld = make_field(2)
    g = fld.element(2)
    curve = trace_form([fld.one, fld.one], g * g + g)
    data = json.loads(json.dumps(curve.to_json()))
    assert curve_from_json(data) == curve
    bad = dict(data, family="hermitian")
    with pytest.raises(ValueError):
        curve_from_json(bad)


def test_record_json_round_trip():
    fld = make_field(2)
    rng = random.Random(0)
    record = random_record(fld, rng, 4)
    data = json.loads(json.dumps(record_to_json(record)))
    back = [CoordinateChange(d["kind"], fld.from_hex(d["constant"])) for d in data]
    assert [c.kind for c in back] == [c.kind for c in record]
    assert [c.constant.bits for c in back] == [c.constant.bits for c in record]


def test_normalize_standard_is_identity():
    for t in (1, 2, 3):
        target, record = normalize(trace_curve(t))
        assert target == trace_curve(t)
        assert record == []


def test_normalize_fixture_translate_only():
    fld = make_field(2)
    g = fld.element(2)
    curve = trace_form([fld.one, fld.one], g * g + g)
    target, record = normalize(curve)
    assert target == trace_curve(2)
    assert [c.kind for c in record] == ["translate-y"]
    assert record[0].constant == g  # smallest of the two solutions {g, g+1}
    # replay maps every affine rational point of the source onto the target
    for p in census.enumerate_points(curve, 1):
        if isinstance(p, census.AffinePoint):
            x, y = p.x, p.y
            for change in record:
                x, y = change.apply_to_xy(x, y)
            assert not target.evaluate(x, y)


@pytest.mark.parametrize("t", [2, 3])
def test_normalize_round_trip_random_records(t):
    fld = make_field(t)
    rng = random.Random(10 + t)
    standard = trace_curve(t)
    for _ in range(120):
        record = random_record(fld, rng)
        moved = apply_record(standard, record)
        back, inverse = normalize(moved)
        assert back == standard
        for change in inverse:
            assert change.constant.field is fld  # alpha and scales live in GF(q^2)


def test_normalize_round_trip_q16():
    fld = make_field(4)
    rng = random.Random(99)
    standard = trace_curve(4)
    for _ in range(5):
        record = random_record(fld, rng)
        back, _ = normalize(apply_record(standard, record))
        assert back == standard


def test_normalize_t1_trace_form():
    fld = make_field(1)
    w = fld.element(2)
    curve = trace_form([w], w + fld.one)
    target, record = normalize(curve)
    assert target == trace_curve(1)


def test_normalize_extended_form():
    fld = make_field(2)
    rng = random.Random(42)
    standard = trace_curve(2)
    bt = fld.element(rng.randrange(1, fld.order))
    moved = apply_change(standard, CoordinateChange("shear", bt))
    assert moved.family == "trace-form-extended"
    assert moved.model(1).xpart[1] == bt.bits
    back, record = normalize(moved)
    assert back == standard
    assert record[0].kind == "shear"


def test_normalize_rejects_outside_class():
    fld = make_field(2)
    g = fld.element(2)
    with pytest.raises(NormalizationError):
        # a = (g, 1): a_1 is not in GF(4)*, so GF(4) is not inside im A
        normalize(trace_form([g, fld.one], fld.zero))
    with pytest.raises(NormalizationError):
        normalize(hermitian(2))


def test_normalize_rejects_broken_x_relation():
    fld = make_field(2)
    g = fld.element(2)
    # standard y-part, but an x-linear part that no shear produces
    curve = trace_form_extended([fld.one, fld.one], [fld.zero, g, fld.zero])
    with pytest.raises(NormalizationError):
        normalize(curve)


def lambda_family(fld):
    """The y-parts a_i = lambda^(q/2^i - 1), lambda in GF(q)*: the ones
    whose A has q/2 roots and GF(q) inside its image."""
    t, q = fld.t, fld.q
    return [
        [fld.element(lam) ** ((q >> i) - 1) for i in range(1, t + 1)]
        for lam in fld.subfield_masks(t)
        if lam
    ]


def verdict_sweep():
    """Trace-form and extended curves at t = 2..5, maximal and not: t = 2
    exhaustively with a_t = 1, extended curves at t = 2 over the
    lambda-family, a seeded sample at t = 3, and the lambda-orbits at
    t = 3..5 with constants both in and outside im A."""
    fld = make_field(2)
    for a1 in range(1, fld.order):
        for c in fld.elements(range(fld.order)):
            yield trace_form([fld.element(a1), fld.one], c)
    rng = random.Random(160)
    for a in lambda_family(fld):
        for b1 in fld.elements(range(fld.order)):
            for b2 in fld.elements(range(fld.order)):
                b0 = fld.element(rng.randrange(fld.order))
                yield trace_form_extended(a, [b0, b1, b2])
    fld = make_field(3)
    for _ in range(1000):
        a = [fld.element(rng.randrange(fld.order)) for _ in range(3)]
        a[0], a[-1] = a[0] or fld.one, a[-1] or fld.one
        yield trace_form(a, fld.element(rng.randrange(fld.order)))
    for t in (3, 4, 5):
        fld = make_field(t)
        for a in lambda_family(fld):
            part = {fld.q >> i: ai.bits for i, ai in enumerate(a, start=1)}
            for _ in range(4):
                yield trace_form(a, fld.element(rng.randrange(fld.order)))
                yield trace_form(a, fld.element(fld.part_at(part, rng.randrange(fld.order))))


def test_normalize_accepts_exactly_the_maximal_curves():
    # x has pole order q/2 on every model, so by the paper's theorem the
    # maximal models are the standard curve's isomorphism class; a refusal
    # is a NormalizationError, and any other exception fails the test
    wrong, accepted_at_t2, curves_swept = [], set(), 0
    for curve in verdict_sweep():
        curves_swept += 1
        try:
            normalize(curve)
            accepted = True
        except NormalizationError:
            accepted = False
        maximal = census.count_rational(curve, 1) == census.hasse_weil_max(
            curve.q, curve.model(1).genus
        )
        if accepted != maximal:
            wrong.append(curve)
        if accepted and curve.t == 2 and curve.family == "trace-form":
            accepted_at_t2.add(curve.model(1).ypart[2])
    assert not wrong, f"{len(wrong)} of {curves_swept} verdicts differ from the census: {wrong[:3]}"
    # exactly q - 1 y-parts pass at t = 2: a_1 runs over GF(4)*
    assert accepted_at_t2 == set(make_field(2).subfield_masks(2)) - {0}


def test_replay_preserves_point_counts():
    rng = random.Random(3)
    for t in (2, 3):
        standard = trace_curve(t)
        record = random_record(make_field(t), rng, 3)
        moved = apply_record(standard, record)
        assert census.count_rational(moved, 1) == census.count_rational(standard, 1)
        assert census.count_rational(moved, 2) == census.count_rational(standard, 2)


def test_scale_constants_must_be_nonzero():
    fld = make_field(2)
    with pytest.raises(ValueError):
        CoordinateChange("scale-y", fld.zero)
    with pytest.raises(ValueError):
        CoordinateChange("rotate", fld.one)


# -- the generic transform, kept as the reference for apply_change ------------


def _submasks(j):
    """All k with binom(j, k) odd, i.e. the bitwise submasks of j (Lucas)."""
    k = j
    while True:
        yield k
        if k == 0:
            return
        k = (k - 1) & j


def reference_change(fld, terms, change):
    """The image of sum c x^i y^j over terms = {(i, j): c}: the polynomial
    composed with the inverse point map, with (y + c)^j expanded over the
    submasks of j, then scaled so the graded-lex leading coefficient is 1."""
    c = change.constant.bits
    out = {}

    def put(e, v):
        out[e] = out.get(e, 0) ^ v

    for (i, j), v in terms.items():
        if change.kind == "scale-y":
            put((i, j), fld.mul_int(v, fld.pow_int(fld.inv_int(c), j)))
        elif change.kind == "scale-x":
            put((i, j), fld.mul_int(v, fld.pow_int(fld.inv_int(c), i)))
        else:  # translate-y: y -> y + c;  shear: y -> c x + y
            for k in _submasks(j):
                e = (i + j - k, k) if change.kind == "shear" else (i, k)
                put(e, fld.mul_int(v, fld.pow_int(c, j - k)))
    out = {e: v for e, v in out.items() if v}
    inv = fld.inv_int(out[max(out, key=lambda e: (e[0] + e[1], e))])
    return {e: fld.mul_int(v, inv) for e, v in out.items()}


def reference_evaluate(curve, x, y):
    """sum c x^i y^j over the level-1 terms, each coefficient embedded on its own."""
    fld = x.field
    acc = fld.zero
    for (i, j), c in curve.model(1).terms().items():
        acc = acc + fld.embed(curve.field.element(c)) * x ** i * y ** j
    return acc


def every_family(t):
    """The Hermitian and trace curves, and seeded trace-form and extended curves."""
    fld = make_field(t)
    rng = random.Random(130 + t)
    a = [fld.element(rng.randrange(1, fld.order)) for _ in range(t)]
    b = [fld.element(rng.randrange(fld.order))]
    b += [fld.element(rng.randrange(1, fld.order)) for _ in range(t)]
    return [hermitian(t), trace_curve(t), trace_form(a, b[0]), trace_form_extended(a, b)]


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_apply_change_matches_the_generic_transform(t):
    fld = make_field(t)
    rng = random.Random(140 + t)
    curves_seen = every_family(t)
    assert [c.family for c in curves_seen] == list(curves.FAMILIES)
    outcomes = {"image": 0, "refused": 0}
    for curve in curves_seen:
        for kind in CHANGE_KINDS:
            for _ in range(6):
                lo = 1 if kind.startswith("scale") else 0
                change = CoordinateChange(kind, fld.element(rng.randrange(lo, fld.order)))
                expected = reference_change(fld, curve.model(1).terms(), change)
                try:
                    family = curves._classify(fld, expected)
                except ValueError as exc:
                    with pytest.raises(ValueError) as refusal:
                        apply_change(curve, change)
                    assert str(refusal.value) == str(exc), (curve, change)
                    outcomes["refused"] += 1
                    continue
                image = apply_change(curve, change)
                assert image.model(1).terms() == expected, (curve, change)
                assert image.family == family, (curve, change)
                outcomes["image"] += 1
    assert outcomes["image"] and outcomes["refused"]  # the Hermitian curve refuses shears


def test_shear_of_the_hermitian_curve_is_refused():
    fld = make_field(2)
    with pytest.raises(ValueError, match=r"^term x\^0 y\^4 outside the supported families$"):
        apply_change(hermitian(2), CoordinateChange("shear", fld.one))


@pytest.mark.parametrize("t", [1, 2, 3])
def test_evaluate_matches_term_by_term_at_every_level_1_pair(t):
    fld = make_field(t)
    elements = fld.elements(range(fld.order))
    for curve in every_family(t):
        for x in elements:
            for y in elements:
                assert curve.evaluate(x, y) == reference_evaluate(curve, x, y), (curve, x, y)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_evaluate_matches_term_by_term_at_seeded_level_2_pairs(t):
    rng = random.Random(150 + t)
    for curve in every_family(t):
        fld = curve.level_field(2)
        for _ in range(40):
            x, y = fld.element(rng.randrange(fld.order)), fld.element(rng.randrange(fld.order))
            assert curve.evaluate(x, y) == reference_evaluate(curve, x, y), (curve, x, y)


def moved_extended(t, rng):
    """The trace curve moved by a shear, a y-scaling and a y-translation."""
    fld = make_field(t)
    record = [
        CoordinateChange("shear", fld.element(rng.randrange(1, fld.order))),
        CoordinateChange("scale-y", fld.element(rng.randrange(1, fld.order))),
        CoordinateChange("translate-y", fld.element(rng.randrange(fld.order))),
    ]
    return apply_record(trace_curve(t), record)


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_level_2_model_embeds_each_coefficient_like_embed(t):
    # model(2) reads the quartic field's embedding table directly; the
    # reference embeds one FieldElement per coefficient
    quartic = make_field(t, "quartic")
    rng = random.Random(160 + t)
    moved = [moved_extended(t, rng) for _ in range(3)]
    assert {c.family for c in moved} == {"trace-form-extended"}
    assert any(c.model(1).const and c.model(1).ypart[1] != 1 for c in moved)
    for curve in [hermitian(t), trace_curve(t), *moved]:
        model = curve.model(1)

        def embed(c):
            return quartic.embed(FieldElement(c, model.field)).bits

        expected = AdditiveModel(
            quartic,
            {i: embed(c) for i, c in model.xpart.items()},
            {j: embed(c) for j, c in model.ypart.items()},
            embed(model.const),
        )
        assert curve.model(2) == expected, curve


def test_embedding_refuses_a_field_that_is_not_the_quartic_field_above():
    model = trace_curve(3).model(1)
    for target in (make_field(4, "quartic"), make_field(3), make_field(2, "quartic")):
        with pytest.raises(ValueError, match="cannot embed"):
            model.embed_into(target)
    # a level-2 model is not embedded again
    with pytest.raises(ValueError, match="cannot embed"):
        trace_curve(3).model(2).embed_into(make_field(3, "quartic"))
