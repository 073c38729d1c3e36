"""Truncated series, Hensel expansions, and Hasse-derivative identities."""

import math
import random
import sys
import tracemalloc

import pytest

from maxcurves import series
from maxcurves.census import AffinePoint, enumerate_points, sample_points
from maxcurves.curves import (
    CoordinateChange,
    PlaneCurve,
    apply_record,
    curve_from_json,
    hermitian,
    trace_curve,
)
from maxcurves.fields import FieldElement, additive_map, make_field
from maxcurves.orders import dp_orders
from maxcurves.series import (
    PRECISION_LIMIT,
    CheckFailed,
    PrecisionError,
    TruncatedSeries,
    check_h_identities,
    expand_y_at,
    series_equal_mod,
    verify_derivative_facts,
)

GF16 = make_field(2)
GF64 = make_field(3)


def x0_plus_tau(x0, prec):
    """The series x0 + tau, the x-coordinate near x = x0."""
    return TruncatedSeries(x0.field, (x0.bits, 1) + (0,) * (prec - 2))


def monomial(fld, exponent, prec):
    coeffs = [0] * prec
    coeffs[exponent] = 1
    return TruncatedSeries(fld, tuple(coeffs))


def test_lucas_matches_pascal_below_64():
    # D^k tau^n = binom(n, k) tau^(n-k): the coefficient hasse_derivative
    # reads by Lucas' rule, against Pascal's triangle and math.comb
    pascal = [[1]]
    for n in range(1, 64):
        row = [1] + [pascal[-1][k - 1] + pascal[-1][k] for k in range(1, n)] + [1]
        pascal.append(row)
    for n in range(64):
        tau_n = monomial(GF16, n, 64)
        for k in range(n + 1):
            coefficient = tau_n.hasse_derivative(k).coeffs[n - k]
            assert coefficient == pascal[n][k] % 2 == math.comb(n, k) % 2


def test_hasse_derivative_monomial_examples():
    t5 = monomial(GF16, 5, 12)
    assert t5.hasse_derivative(1).valuation() == 4  # binom(5,1) odd
    assert t5.hasse_derivative(2).valuation() is None  # binom(5,2) = 10 even
    t6 = monomial(GF16, 6, 12)
    d2 = t6.hasse_derivative(2)
    assert d2.valuation() == 4 and d2.coeffs[4] == 1  # binom(6,2) = 15 odd


def test_hasse_derivative_precision_drop_and_exhaustion():
    s = monomial(GF16, 1, 5)
    assert s.hasse_derivative(2).prec == 3
    with pytest.raises(PrecisionError):
        s.hasse_derivative(5)


def test_hasse_chain_rule():
    rng = random.Random(0)
    for _ in range(300):
        s = TruncatedSeries(GF64, tuple(rng.randrange(64) for _ in range(16)))
        i, j = rng.randrange(0, 5), rng.randrange(0, 5)
        lhs = s.hasse_derivative(j).hasse_derivative(i)
        rhs = s.hasse_derivative(i + j)
        if math.comb(i + j, i) % 2 == 0:
            assert lhs.is_zero_mod()
        else:
            assert series_equal_mod(lhs, rhs)


def test_addition_and_multiplication_precision_rules():
    a = TruncatedSeries(GF16, (1, 2, 3))  # prec 3
    b = TruncatedSeries(GF16, (0, 0, 1, 1))  # tau^2 + tau^3, prec 4
    total = a + b
    assert total.prec == 3 and total.coeffs[2] == 3 ^ 1
    prod = a * b
    assert prod.prec == 3 and prod.valuation() == 2 and prod.coeffs[2] == 1
    # stored precision, not the scanned valuation, drives the rules: tau
    # known mod tau^2 squares to a series known only mod tau^2, so the
    # square's valuation is unknown
    c0 = TruncatedSeries(GF16, (0, 1))
    assert (c0 * c0).prec == 2 and (c0 * c0).valuation() is None


def test_valuation_reporting():
    s = TruncatedSeries(GF16, (0, 0, 0, 5))
    assert s.valuation() == 3
    z = TruncatedSeries(GF16, (0, 0, 0))
    assert z.valuation() is None  # unknown beyond precision
    assert s.truncate(-1).prec == 0  # truncation clamps at tau^0


def test_pow2k_spreads_exponents_exactly():
    s = TruncatedSeries(GF16, (1, 1))  # 1 + tau
    sq = s.pow2k(2)  # (1 + tau)^4 = 1 + tau^4
    assert sq.coeffs == (1, 0, 0, 0, 1, 0, 0, 0)
    g = GF16.element(2)
    gs = TruncatedSeries(GF16, (g.bits, 1)).pow2k(1)
    assert gs.coeffs[0] == g.square().bits


def middle_oracle(ys, lo, hi):
    """D^i ys = 0 for lo <= i <= hi, one derivative series per order."""
    return all(ys.hasse_derivative(i).is_zero_mod() for i in range(lo, hi + 1))


def submasks(e):
    s = e
    while s:
        yield s
        s = (s - 1) & e
    yield 0


def test_one_pass_middle_test_matches_the_derivative_loop_on_sparse_series():
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(1, 40)
        coeffs = [rng.randrange(1, 16) if rng.random() < 0.15 else 0 for _ in range(n)]
        s = TruncatedSeries(GF16, tuple(coeffs))
        lo = rng.randrange(0, n)
        hi = rng.randrange(lo - 1, n)  # lo - 1: an empty range of orders
        assert s.derivatives_vanish(lo, hi) == middle_oracle(s, lo, hi), (coeffs, lo, hi)
    with pytest.raises(PrecisionError):
        TruncatedSeries(GF16, (0,) * 5).derivatives_vanish(3, 5)
    with pytest.raises(ValueError):
        TruncatedSeries(GF16, (0,) * 5).derivatives_vanish(-1, 2)


def test_middle_test_reads_terms_beyond_the_precision_limit():
    # a pow2k can make a series longer than PRECISION_LIMIT: its support
    # scan must still reach the terms past the limit
    n = series.PRECISION_LIMIT + 8
    coeffs = [0] * n
    coeffs[series.PRECISION_LIMIT + 4] = 1  # submasks 0, 4, 4096 and 4100
    s = TruncatedSeries(GF16, tuple(coeffs))
    assert s.derivatives_vanish(5, 4095)
    assert not s.derivatives_vanish(4, 4) and not s.derivatives_vanish(4097, n - 1)
    assert s.derivatives_vanish(4, 4) == middle_oracle(s, 4, 4)


def middle_test_points(curve, t):
    """Every affine level-1 point for t <= 3; seeded level-2 points solved
    from random x for t = 4, 5 (S(y) = x^(q+1) is GF(2)-linear in y)."""
    if t <= 3:
        return enumerate_points(curve, 1)[:-1]
    fld = curve.level_field(2)
    a_map = additive_map(fld, curve.model(2).ypart)
    rng = random.Random(60 + t)
    points = []
    while len(points) < 6:
        x = FieldElement(rng.randrange(fld.order), fld)
        ys = a_map.coset((x ** (curve.q + 1)).bits)
        if ys:
            points.append(AffinePoint(x, fld.element(rng.choice(ys)), 2))
    return points


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_one_pass_middle_test_matches_the_derivative_loop_at_curve_points(t):
    q, n = 1 << t, 2 * (1 << t) + 8
    for curve in (trace_curve(t), hermitian(t)) if t <= 3 else (trace_curve(t),):
        for p in middle_test_points(curve, t):
            ys = expand_y_at(curve, p, n)
            expected = middle_oracle(ys, 3, q - 1)
            assert ys.derivatives_vanish(3, q - 1) == expected
            if t >= 2 and curve.family == "trace-standard":
                assert series.derivative_facts(curve, p, ys).middle_vanish == expected


@pytest.mark.parametrize("t", [2, 3, 4])
def test_planted_coefficient_with_a_middle_submask_flips_middle_vanish(t):
    curve = trace_curve(t)
    q, n = curve.q, 2 * curve.q + 8
    p = sample_points(curve, 1, 1, random.Random(t))[0]
    ys = expand_y_at(curve, p, n)
    assert series.derivative_facts(curve, p, ys).middle_vanish
    flips = set()
    for e, c in enumerate(ys.coeffs):
        # a nonzero coefficient at e, other than the expansion's own
        planted = TruncatedSeries(ys.field, ys.coeffs[:e] + ((c ^ 1) or 2,) + ys.coeffs[e + 1 :])
        facts = series.derivative_facts(curve, p, planted)
        has_middle_submask = any(3 <= s <= q - 1 for s in submasks(e))
        assert facts.middle_vanish is (not has_middle_submask) is middle_oracle(planted, 3, q - 1), e
        if has_middle_submask:
            assert not facts.ok()
            flips.add(e)
    # q + 1 shares a bit with 3, yet its submasks are 0, 1, q and q + 1
    assert {3, q - 1, q + 3} <= flips and q + 1 not in flips and q not in flips


def test_expand_trace_curve_at_origin():
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    s = expand_y_at(tc, origin, 21)
    nonzero = {e for e in range(21) if s.coeffs[e]}
    assert nonzero == {5, 10, 20}
    assert all(s.coeffs[e] == 1 for e in nonzero)


def test_expand_hermitian_at_origin():
    h = hermitian(2)
    origin = AffinePoint(h.field.zero, h.field.zero, 1)
    s = expand_y_at(h, origin, 21)
    nonzero = {e for e in range(21) if s.coeffs[e]}
    assert nonzero == {5, 20}


def test_expansion_residual_at_random_points():
    rng = random.Random(1)
    for t in (2, 3):
        for curve in (trace_curve(t), hermitian(t)):
            for level in (1, 2):
                points = sample_points(curve, level, 5, rng)
                for p in points:
                    n = 2 * curve.q + 8
                    s = expand_y_at(curve, p, n)
                    fld = p.x.field
                    xs = x0_plus_tau(p.x, n)
                    # recompose F(x0 + tau, y(tau)) term by term
                    acc = TruncatedSeries(fld, (0,) * n)
                    for (i, j), c in curve.model(level).terms().items():
                        term = ((xs ** i) * (s ** j)).truncate(n)
                        acc = acc + TruncatedSeries.constant(fld.element(c), n) * term
                    assert acc.is_zero_mod(n)


def test_expand_rejects_bad_points():
    tc = trace_curve(2)
    bad = AffinePoint(tc.field.one, tc.field.zero, 1)
    with pytest.raises(ValueError):
        expand_y_at(tc, bad, 8)


@pytest.mark.parametrize(
    "terms",
    [
        [[5, 0, "1"], [1, 1, "1"], [0, 1, "1"]],  # dF/dy = x + 1 is not constant
        [[5, 0, "1"], [0, 2, "1"]],  # dF/dy vanishes
        [[5, 0, "1"], [2, 2, "1"], [0, 1, "1"]],  # mixed monomial
        [[5, 0, "1"], [0, 6, "1"], [0, 1, "1"]],  # y^6 is not a 2-power term
    ],
)
def test_expand_refuses_models_outside_the_additive_form(terms):
    # every model passes through the origin; only its shape is refused, when
    # the curve is built or, for a singular additive model, by the expansion
    origin = AffinePoint(GF16.zero, GF16.zero, 1)
    with pytest.raises(ValueError):
        expand_y_at(curve_from_json({"q": 4, "terms": terms}), origin, 12)


def newton_reference(curve, point, n):
    """y(tau) mod tau^n by Newton's iteration y <- y + F(x0 + tau, y) / F_y
    on plain coefficient lists, ceil(log2 n) rounds from y = y0."""
    fld = point.x.field
    terms = curve.model(1 if fld is curve.field else 2).terms()
    cinv = fld.inv_int(terms[(0, 1)])  # F_y, constant on an additive model

    def mul(a, b):
        out = [0] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    if b[j]:
                        out[i + j] ^= fld.mul_int(ai, b[j])
        return out

    def square(a):  # exact in characteristic 2
        out = [0] * n
        for i in range((n + 1) // 2):
            out[2 * i] = fld.mul_int(a[i], a[i])
        return out

    def power(a, e):
        result = [1] + [0] * (n - 1)
        while e:
            if e & 1:
                result = mul(result, a)
            e >>= 1
            if e:
                a = square(a)
        return result

    xs = [point.x.bits, 1] + [0] * (n - 2)
    ys = [point.y.bits] + [0] * (n - 1)
    for _ in range((n - 1).bit_length()):
        residual = [0] * n
        for (i, j), c in terms.items():
            term = mul(power(xs, i), power(ys, j))
            residual = [r ^ fld.mul_int(c, v) for r, v in zip(residual, term)]
        ys = [y ^ fld.mul_int(cinv, r) for y, r in zip(ys, residual)]
    return ys


def random_extended_curve(t, rng):
    """A trace-form-extended curve: the standard curve moved by a random
    shear (x-linear terms), y-scaling and y-translation."""
    fld = make_field(t)
    record = [
        CoordinateChange("shear", fld.element(rng.randrange(1, fld.order))),
        CoordinateChange("scale-y", fld.element(rng.randrange(1, fld.order))),
        CoordinateChange("translate-y", fld.element(rng.randrange(fld.order))),
    ]
    curve = apply_record(trace_curve(t), record)
    assert curve.family == "trace-form-extended"
    return curve


@pytest.mark.parametrize("t", [1, 2, 3])
def test_expansion_matches_newton_at_every_rational_point(t):
    rng = random.Random(30 + t)
    n = 2 * (1 << t) + 8
    for curve in (hermitian(t), trace_curve(t), random_extended_curve(t, rng)):
        points = [p for p in enumerate_points(curve, 1) if isinstance(p, AffinePoint)]
        assert points
        for p in points:
            assert list(expand_y_at(curve, p, n).coeffs) == newton_reference(curve, p, n)


def moved_extended_curve(t, rng):
    """A trace-form-extended curve with a nonzero constant: x-linear terms
    and c != 0 both reach the right side of the lift."""
    for _ in range(100):  # bounded, so a draw that keeps c = 0 fails, not hangs
        curve = random_extended_curve(t, rng)
        if curve.model(1).const:
            return curve
    pytest.fail("no draw gave an extended curve with a nonzero constant")


def level2_points(curve, count, rng, xs=()):
    """Level-2 points over the given x, then over seeded random x, solved
    from A(y) = P(x) + c, which is GF(2)-linear in y."""
    fld = curve.level_field(2)
    model = curve.model(2)
    a_map = additive_map(fld, model.ypart)
    points = []
    xs = list(xs)
    while len(points) < count:
        x = xs.pop(0) if xs else rng.randrange(fld.order)
        ys = a_map.coset(fld.part_at(model.xpart, x) ^ model.const)
        if ys:
            points.append(AffinePoint(fld.element(x), fld.element(rng.choice(ys)), 2))
    return points


@pytest.mark.parametrize("t", [4, 5])
def test_expansion_matches_newton_at_quartic_points(t):
    # level-2 points solved from random x: S(y) = x^(q+1) is GF(2)-linear in y
    curve = trace_curve(t)
    fld = curve.level_field(2)
    a_map = additive_map(fld, curve.model(2).ypart)
    rng = random.Random(40 + t)
    n = 2 * curve.q + 8
    points = []
    while len(points) < 3:
        x = FieldElement(rng.randrange(fld.order), fld)
        ys = a_map.coset((x ** (curve.q + 1)).bits)
        if ys:
            points.append(AffinePoint(x, fld.element(rng.choice(ys)), 2))
    for p in points:
        assert list(expand_y_at(curve, p, n).coeffs) == newton_reference(curve, p, n)
    # a moved curve: x-linear terms and a nonzero constant, at x0 = 0 too
    moved = moved_extended_curve(t, random.Random(45 + t))
    for p in level2_points(moved, 2, random.Random(46 + t), xs=[0]):
        assert list(expand_y_at(moved, p, n).coeffs) == newton_reference(moved, p, n)


def dense_lift(fld, x0, xpart, ypart, n):
    """The one-pass recurrence over every r < n, with a dense right side:
    the reference for the chain walk of series._additive_lift."""
    rhs = [0] * n
    for i, b in xpart.items():
        for r in range(1, min(i, n - 1) + 1):
            if r & i == r:  # binom(i, r) odd
                rhs[r] ^= fld.mul_int(b, fld.pow_int(x0, i - r))
    cinv = fld.inv_int(ypart[1])
    eta = [0] * n
    for r in range(1, n):
        acc = rhs[r]
        for j, a in ypart.items():
            if j > 1 and r % j == 0:
                acc ^= fld.mul_int(a, fld.frob_int(eta[r // j], j.bit_length() - 1))
        eta[r] = fld.mul_int(cinv, acc)
    return eta


def chain_lift_cases():
    """(curve, point) on moved extended curves: every affine level-1 point
    for t <= 3, and seeded level-2 points at t = 4, one of them at x0 = 0."""
    rng = random.Random(50)
    for t in (1, 2, 3):
        curve = moved_extended_curve(t, rng)
        for p in enumerate_points(curve, 1)[:-1]:
            yield curve, p
    curve = moved_extended_curve(4, rng)
    for p in level2_points(curve, 6, rng, xs=[0]):
        yield curve, p


def test_chain_lift_equals_the_dense_recurrence():
    cases = x0_zero = 0
    for curve, p in chain_lift_cases():
        model = curve.model(p.level)
        assert model.const and any(i < curve.q for i in model.xpart)
        for n in (2 * curve.q + 8, 5 * curve.q + 3):
            args = (p.x.field, p.x.bits, model.xpart, model.ypart, n)
            assert series._additive_lift(*args) == dense_lift(*args), (p, n)
        cases += 1
        x0_zero += not p.x.bits
    assert cases > 100 and x0_zero >= 4  # x0 = 0 at each t


def zero_the_chain_of(odd, lift):
    """A lift that zeroes eta at odd * 2^k for every k."""

    def planted(fld, x0, xpart, ypart, n):
        coeffs = lift(fld, x0, xpart, ypart, n)
        r = odd
        while r < n:
            coeffs[r] = 0
            r <<= 1
        return coeffs

    return planted


@pytest.mark.parametrize("t,level", [(3, 1), (5, 2)])
def test_a_lift_missing_the_chain_of_q_plus_1_is_caught(monkeypatch, t, level):
    curve = trace_curve(t)
    q, n = curve.q, 2 * curve.q + 8
    if level == 1:
        p = sample_points(curve, 1, 1, random.Random(t))[0]
    else:
        p = level2_points(curve, 1, random.Random(t))[0]
    honest = expand_y_at(curve, p, n)
    assert honest.coeffs[q + 1]  # eta_(q+1) = b / a_t: the chain is never empty
    monkeypatch.setattr(series, "_additive_lift", zero_the_chain_of(q + 1, series._additive_lift))
    with pytest.raises(CheckFailed):
        expand_y_at(curve, p, n)


def moved_curve_with_a_t_not_1(t, rng):
    """A moved extended curve (x-linear terms, c != 0) whose y-coefficient
    a_t is not 1, so the lift must invert it."""
    for _ in range(100):
        curve = moved_extended_curve(t, rng)
        if curve.model(1).ypart[1] != 1:
            return curve
    pytest.fail("no draw gave an extended curve with a_t != 1")


REFUSAL_CASES = [(2, 1), (3, 1), (4, 1), (4, 2), (5, 2)]


def refusal_curves(t):
    moved = moved_curve_with_a_t_not_1(t, random.Random(60 + t))
    return [hermitian(t), trace_curve(t), moved]


def on_curve_points(curve, level, count, rng):
    if level == 1:
        return sample_points(curve, 1, count, rng)
    return level2_points(curve, count, rng)


@pytest.mark.parametrize("t,level", REFUSAL_CASES)
def test_an_off_curve_point_is_refused_by_the_residuals_first_term(t, level):
    # the on-curve test is the residual's tau^0 term, F(x0, y0): a point off
    # the curve is bad input (ValueError), never a failed check
    rng = random.Random(70 + 10 * t + level)
    refused = 0
    for curve in refusal_curves(t):
        q = curve.q
        for p in on_curve_points(curve, level, 2, rng):
            expand_y_at(curve, p, 2 * q + 8)  # the unflipped point expands
            fld = p.x.field
            for k in range(fld.m):
                y = fld.element(p.y.bits ^ 1 << k)
                if not curve.evaluate(p.x, y):
                    continue  # 2^k lies in ker A: the flip stays on the curve
                off = AffinePoint(p.x, y, level)
                for n in (2, q + 3, 2 * q + 8):
                    with pytest.raises(ValueError, match="^point does not lie on the curve$"):
                        expand_y_at(curve, off, n)
                refused += 1
    assert refused >= 3 * 2 * (2 * t * level - t)  # ker A has dimension at most t


@pytest.mark.parametrize("t,level", REFUSAL_CASES)
def test_a_point_outside_the_curves_fields_is_refused(t, level):
    rng = random.Random(80 + t)
    other_t = 3 if t == 4 else 4
    # t = 4 level 1 and t = 2 level 2 are both GF(2^8), but distinct fields
    strangers = [make_field(other_t), make_field(other_t, "quartic")]
    if t == 4:
        strangers.append(make_field(2, "quartic"))
    for curve in refusal_curves(t):
        p = on_curve_points(curve, level, 1, rng)[0]
        other = curve.level_field(3 - level)
        mixed = [AffinePoint(p.x, other.zero, level), AffinePoint(other.zero, p.y, level)]
        for bad in mixed:
            with pytest.raises(ValueError, match="^x and y live in different fields$"):
                expand_y_at(curve, bad, 2 * curve.q + 8)
        for fld in strangers:
            bad = AffinePoint(fld.zero, fld.zero, level)
            with pytest.raises(ValueError, match="^point field matches neither tower level"):
                expand_y_at(curve, bad, 2 * curve.q + 8)


def field_calls(monkeypatch, fld):
    """Record every mul_int, inv_int and part_at of the field fld and every
    PlaneCurve.evaluate, as (name, arguments)."""
    calls = []
    cls = type(fld)
    for name in ("mul_int", "inv_int", "part_at"):
        method = getattr(cls, name)

        def wrapper(self, *args, name=name, method=method):
            if self is fld:
                calls.append((name, args))
            return method(self, *args)

        monkeypatch.setattr(cls, name, wrapper)
    evaluate = PlaneCurve.evaluate

    def evaluate_wrapper(self, *args):
        calls.append(("evaluate", args))
        return evaluate(self, *args)

    monkeypatch.setattr(PlaneCurve, "evaluate", evaluate_wrapper)
    return calls


def test_an_expansion_makes_no_field_call_by_1(monkeypatch):
    # the trace curve at the CI point: every coefficient is 1, so the lift
    # inverts nothing and multiplies by nothing, and no evaluation is made
    curve = trace_curve(5)
    fld = curve.level_field(2)
    p = AffinePoint(fld.from_hex("f2921"), fld.from_hex("e1c2b"), 2)
    calls = field_calls(monkeypatch, fld)
    ys = expand_y_at(curve, p, 2 * curve.q + 8)
    assert ys.coeffs[1] == fld.frob_int(p.x.bits, 5)  # eta_1 = x0^q / a_t, a_t = 1
    assert calls, "the residual multiplies x0 by x0^q"
    assert {name for name, _ in calls} == {"mul_int"}, calls
    assert not [args for _, args in calls if 1 in args], calls
    # on a moved curve a_t != 1: the skip follows the value, not the family
    moved = moved_curve_with_a_t_not_1(5, random.Random(65))
    p = level2_points(moved, 1, random.Random(66))[0]
    a_t = moved.model(2).ypart[1]
    del calls[:]
    expand_y_at(moved, p, 2 * moved.q + 8)
    monkeypatch.undo()
    cinv = fld.inv_int(a_t)
    assert ("inv_int", (a_t,)) in calls
    assert any(name == "mul_int" and cinv in args for name, args in calls), calls


def count_lines(functions, call):
    """Line events executed in the given functions (and the comprehensions
    inside them) while call() runs."""
    codes = set()
    pending = [f.__code__ for f in functions]
    while pending:
        code = pending.pop()
        codes.add(code)
        pending += [c for c in code.co_consts if hasattr(c, "co_code")]
    events = 0

    def local(frame, event, arg):
        nonlocal events
        events += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return events


def test_expansion_cost_follows_the_support_not_the_precision():
    # at t = 5, level 2, y has 7 nonzero coefficients below tau^72 and 11
    # below tau^4096; a walk over every coefficient would grow 57-fold
    curve = trace_curve(5)
    p = level2_points(curve, 1, random.Random(5))[0]
    steps = {
        n: count_lines(
            (series._additive_lift, series._additive_residual),
            lambda n=n: expand_y_at(curve, p, n),
        )
        for n in (72, PRECISION_LIMIT)
    }
    assert steps[72] > 0
    assert steps[PRECISION_LIMIT] <= 5 * steps[72], steps


def test_hasse_derivative_matches_lucas_on_dense_and_sparse_series():
    # one strided slice per residue that holds the bits of i; the
    # precisions cut residues short, and off above n
    rng = random.Random(12)
    for n, density in ((14, 1.0), (40, 0.3), (80, 0.05)):
        coeffs = tuple(rng.randrange(1, 64) if rng.random() < density else 0 for _ in range(n))
        s = TruncatedSeries(GF64, coeffs)
        for i in range(1, n):
            expected = [c if e & i == i else 0 for e, c in enumerate(coeffs[i:], i)]
            assert list(s.hasse_derivative(i).coeffs) == expected, (n, i)


def test_planted_recurrence_defect_is_caught(monkeypatch):
    lift = series._additive_lift

    def planted(*args):
        coeffs = lift(*args)
        coeffs[3] ^= 1
        return coeffs

    monkeypatch.setattr(series, "_additive_lift", planted)
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    with pytest.raises(CheckFailed):
        expand_y_at(tc, origin, 16)


def _power(cache, e, prec):
    """cache[1]^e mod tau^prec, memoising every power built on the way;
    even exponents come from the half power by pow2k(1)."""
    if e not in cache:
        if e & 1:
            cache[e] = _power(cache, e - 1, prec) * cache[1]
        else:
            cache[e] = _power(cache, e >> 1, prec).pow2k(1).truncate(prec)
    return cache[e]


def _poly_on_series(terms, xs, ys, prec):
    """Reference residual: the polynomial {(i, j): c} evaluated term by term
    on series arguments, mod tau^prec, by generic products and squarings."""
    fld = xs.field
    one = TruncatedSeries.constant(fld.one, prec)
    xpow = {0: one, 1: xs.truncate(prec)}
    ypow = {0: one, 1: ys.truncate(prec)}
    acc = TruncatedSeries(fld, (0,) * prec)
    for (i, j), c in terms.items():
        term = _power(xpow, i, prec) * _power(ypow, j, prec)
        acc = acc + TruncatedSeries.constant(FieldElement(c, fld), prec) * term
    return acc


def random_trace_form_curve(t, rng):
    """A trace-form curve with a nonzero constant and non-unit y-coefficients:
    the standard curve moved by a random y-scaling and y-translation."""
    fld = make_field(t)
    for _ in range(100):  # bounded, so a translation that moves no constant fails, not hangs
        record = [
            CoordinateChange("scale-y", fld.element(rng.randrange(2, fld.order))),
            CoordinateChange("translate-y", fld.element(rng.randrange(1, fld.order))),
        ]
        curve = apply_record(trace_curve(t), record)
        model = curve.model(1)
        if model.const and any(a != 1 for a in model.ypart.values()):
            assert curve.family == "trace-form"
            return curve
    pytest.fail("no draw gave a trace-form curve with a nonzero constant")


def residual_cases():
    """(curve, point) pairs: every affine level-1 point of both curves for
    t <= 3, every one of a seeded trace-form curve at t = 3, and seeded
    level-2 trace points for t = 4, 5."""
    for t in (1, 2, 3):
        for curve in (trace_curve(t), hermitian(t)):
            for p in enumerate_points(curve, 1)[:-1]:
                yield curve, p
    curve = random_trace_form_curve(3, random.Random(71))
    for p in enumerate_points(curve, 1)[:-1]:
        yield curve, p
    for t in (4, 5):
        curve = trace_curve(t)
        for p in middle_test_points(curve, t):
            yield curve, p


def test_additive_residual_equals_the_term_by_term_reference():
    rng = random.Random(72)
    cases = 0
    for curve, p in residual_cases():
        n = 2 * curve.q + 8
        level = 1 if p.x.field is curve.field else 2
        model = curve.model(level)
        parts = (model.xpart, model.ypart, model.const)
        terms = model.terms()
        xs = x0_plus_tau(p.x, n)
        ys = expand_y_at(curve, p, n)
        assert series._additive_residual(p.x.bits, ys, *parts) == [0] * n
        assert _poly_on_series(terms, xs, ys, n).is_zero_mod()
        # one planted coefficient: both residuals see the same nonzero list
        # (not at tau^0, where a kernel element of A moves to another point)
        e = rng.randrange(1, n)
        coeffs = list(ys.coeffs)
        coeffs[e] ^= rng.randrange(1, p.x.field.order)
        planted = TruncatedSeries(ys.field, tuple(coeffs))
        residual = series._additive_residual(p.x.bits, planted, *parts)
        assert residual == list(_poly_on_series(terms, xs, planted, n).coeffs), (p, e)
        assert any(residual), (p, e)
        cases += 1
    assert cases > 900


def test_precision_over_the_limit_is_refused_before_it_is_allocated():
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    tracemalloc.start()
    try:
        for n in (10**12, PRECISION_LIMIT + 1):
            with pytest.raises(ValueError, match="exceeds the limit"):
                expand_y_at(tc, origin, n)
            with pytest.raises(ValueError, match="exceeds the limit"):
                dp_orders(tc, origin, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # a series at the limit alone would take 32 KiB of pointers
    # the largest precision frobenius-check accepts, q^2 at t = 5, fits
    assert PRECISION_LIMIT >= 32 * 32
    assert expand_y_at(tc, origin, PRECISION_LIMIT).prec == PRECISION_LIMIT


@pytest.mark.parametrize("t", [2, 3])
def test_h_identities_random_suite(t):
    rng = random.Random(100 + t)
    report = check_h_identities(make_field(t), 1000, rng)
    for name in ("h1", "h2", "h3", "h3prime"):
        assert report[name]["fail"] == 0
        assert report[name]["pass"] == 1000
    assert report["all_pass"]


def test_off_by_one_hasse_binomial_fails_check_h_identities(monkeypatch):
    derivative = TruncatedSeries.hasse_derivative

    def planted(self, i):
        # binom(n + 1, i) mod 2 where Lucas' rule asks for binom(n, i), at
        # orders i >= q = 4 only, which no order check at t = 2 reads
        if i < 4:
            return derivative(self, i)
        out = [c if ((n + 1) & i) == i else 0 for n, c in enumerate(self.coeffs[i:], i)]
        return TruncatedSeries(self.field, out)

    monkeypatch.setattr(TruncatedSeries, "hasse_derivative", planted)
    report = check_h_identities(make_field(2), 200, random.Random(0))
    assert report["h2"]["fail"] and report["h3"]["fail"] and report["h3prime"]["fail"]
    assert not report["all_pass"]


def test_derivative_facts_at_origin_q4():
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    report = verify_derivative_facts(tc, origin, 16)
    assert report.ok()
    assert report.dy_is_xq  # Dy = tau^4, the series of x^4 at x0 = 0
    assert report.middle_range == (3, 3)


@pytest.mark.parametrize("t", [2, 3])
def test_derivative_facts_at_random_points(t):
    rng = random.Random(5 + t)
    curve = trace_curve(t)
    for p in sample_points(curve, 1, 10, rng):
        report = verify_derivative_facts(curve, p, 2 * curve.q + 8)
        assert report.ok()
    # level-2 points exercise the coefficient embedding
    for p in sample_points(curve, 2, 5, rng, rational=False):
        assert verify_derivative_facts(curve, p, 2 * curve.q + 8).ok()


def test_derivative_facts_on_trace_form():
    # a scale-y image of the standard curve has a_t != 1, exercising the
    # a_t^{-1} and a_{t-1} a_t^{-3} scalings
    from maxcurves.curves import CoordinateChange, apply_change

    fld = make_field(2)
    g = fld.element(2)
    moved = apply_change(trace_curve(2), CoordinateChange("scale-y", g))
    assert moved.family == "trace-form"
    rng = random.Random(9)
    for p in sample_points(moved, 1, 5, rng):
        assert verify_derivative_facts(moved, p, 16).ok()


def dense_facts(curve, p, ys):
    """(dy_is_xq, d2y_is_x2q) against dense right sides: x^q built by
    squaring x0 + tau t times with pow2k(1), x^(2q) once more, each
    scaled by a_t^-1 or a_{t-1} a_t^-3 through a constant series."""
    fld, n = ys.field, ys.prec
    model = curve.model(1 if fld is curve.field else 2)
    inv = FieldElement(model.ypart[1], fld).inv()
    xq = x0_plus_tau(p.x, n)
    for _ in range(curve.t):
        xq = xq.pow2k(1).truncate(n)
    x2q = xq.pow2k(1).truncate(n)
    rhs1 = TruncatedSeries.constant(inv, n) * xq
    rhs2 = TruncatedSeries.constant(FieldElement(model.ypart.get(2, 0), fld) * inv ** 3, n) * x2q
    return (
        series_equal_mod(ys.hasse_derivative(1), rhs1),
        series_equal_mod(ys.hasse_derivative(2), rhs2),
    )


def two_term_cases():
    """(curve, point) pairs on the Hermitian, trace and a moved trace-form
    curve at level 1 for t = 2..4 and at level 2 for t = 4, and on the
    trace curve at two GF(2^20) points for t = 5."""
    rng = random.Random(23)
    for t, level in ((2, 1), (3, 1), (4, 1), (4, 2)):
        moved = random_trace_form_curve(t, rng)
        assert moved.model(1).ypart[1] != 1  # a scale-y makes a_t the scale
        for curve in (hermitian(t), trace_curve(t), moved):
            if level == 1:
                points = sample_points(curve, 1, 2, rng)
            else:
                points = level2_points(curve, 2, rng)
            for p in points:
                yield curve, p
    curve = trace_curve(5)
    fld = curve.level_field(2)
    for x, y in ((0xF2921, 0xE1C2B), (0x1EEDB, 0x1384B)):
        yield curve, AffinePoint(fld.element(x), fld.element(y), 2)


def test_two_term_derivative_facts_match_the_dense_right_sides():
    seen = set()
    for curve, p in two_term_cases():
        q = curve.q
        for n in (q + 3, 2 * q + 8, 3 * q):
            ys = expand_y_at(curve, p, n)
            for e in (None, 1, 2, 3, q, q + 1, 2 * q, 2 * q + 2, n - 1):
                coeffs = list(ys.coeffs)
                if e is not None:
                    if e >= n:
                        continue
                    coeffs[e] ^= 1 + e % (p.x.field.order - 1)
                planted = TruncatedSeries(ys.field, tuple(coeffs))
                facts = series.derivative_facts(curve, p, planted)
                verdict = (facts.dy_is_xq, facts.d2y_is_x2q)
                assert verdict == dense_facts(curve, p, planted), (curve.family, p, n, e)
                assert e is not None or verdict == (True, True)
                seen.add(verdict)
    # every combination of the two verdicts occurs, so neither side is constant
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_derivative_facts_preconditions():
    tc1, tc2 = trace_curve(1), trace_curve(2)
    origin1 = AffinePoint(tc1.field.zero, tc1.field.zero, 1)
    origin2 = AffinePoint(tc2.field.zero, tc2.field.zero, 1)
    with pytest.raises(ValueError):
        verify_derivative_facts(tc1, origin1, 16)  # t = 1 has no a_{t-1}
    with pytest.raises(ValueError):
        verify_derivative_facts(tc2, origin2, 6)  # need n > q + 2
    extended = random_extended_curve(2, random.Random(11))
    with pytest.raises(ValueError, match="P = x"):  # x-linear terms in P
        verify_derivative_facts(extended, enumerate_points(extended, 1)[0], 16)


@pytest.mark.parametrize("t", [2, 3])
def test_derivative_facts_hold_on_the_hermitian_curve(t):
    # y^q + y = x^(q+1): a_t = 1 and a_{t-1} = 0, so Dy = x^q and D^2 y = 0
    curve = hermitian(t)
    q, n = curve.q, 2 * curve.q + 8
    points = enumerate_points(curve, 1)[:-1]
    # N_2 = q^3 + 1 = N_1: every level-2 point is rational, met in GF(q^4)
    points += sample_points(curve, 2, 5, random.Random(60 + t))
    for p in points:
        report = verify_derivative_facts(curve, p, n)
        assert report.ok(), p
    assert len(points) == q ** 3 + 5
