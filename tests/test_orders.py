"""Order sequences, Frobenius machinery, and ramification arithmetic."""

import itertools
import random

import pytest

from maxcurves.census import AffinePoint, enumerate_points, sample_points
from maxcurves.curves import hermitian, trace_curve
from maxcurves.fields import FieldElement, additive_map
from maxcurves.orders import (
    _frobenius_residual,
    dp_orders,
    dp_orders_at_infinity,
    frobenius_identity_check,
    frobenius_orders,
    sv_ramification_degree,
)
from maxcurves.series import PrecisionError, TruncatedSeries, expand_y_at


def affine_rational_points(curve):
    return [p for p in enumerate_points(curve, 1) if isinstance(p, AffinePoint)]


def level2_points(curve, count, rng, rational):
    """Seeded level-2 points, each y solved from a random x through the
    coset of A(y) = P(x) + c.  With rational=True x is the relative trace
    z + z^(q^2) of a random z, so it lies in GF(q^2); with rational=False
    x is drawn until it lies outside GF(q^2)."""
    fld = curve.level_field(2)
    model = curve.model(2)
    a_map = additive_map(fld, model.ypart)
    k = 2 * curve.t
    points = []
    while len(points) < count:
        x = FieldElement(rng.randrange(fld.order), fld)
        if rational:
            x = x + x.frobenius(k)
        ys = a_map.coset(fld.part_at(model.xpart, x.bits) ^ model.const)
        if ys and (x.frobenius(k) == x) == rational:
            points.append(AffinePoint(x, fld.element(rng.choice(ys)), 2))
    return points


def oracle_basis(point, ys):
    """The basis (1, x0 + tau, x0^2 + tau^2, y) of the degree-(q+1) system,
    as series to the precision of y's expansion ys."""
    n = ys.prec
    one = TruncatedSeries.constant(point.x.field.one, n)
    xs = x0_plus_tau(point.x, n)
    return [one, xs, (xs * xs).truncate(n), ys]


def x0_plus_tau(x0, prec):
    """The series x0 + tau, the x-coordinate near x = x0."""
    return TruncatedSeries(x0.field, (x0.bits, 1) + (0,) * (prec - 2))


def test_dp_orders_at_origin_q4():
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    data = dp_orders(tc, origin, 16)
    assert data.orders == (0, 1, 2, 5)
    assert data.classification == "rational"


def test_dp_orders_exhaustive_rational_sweep_q4():
    tc = trace_curve(2)
    points = affine_rational_points(tc)
    assert len(points) == 32
    for p in points:
        assert dp_orders(tc, p, 16).orders == (0, 1, 2, 5)


@pytest.mark.parametrize("t,expected_last", [(2, 5), (3, 9)])
def test_dp_orders_sampled_rational(t, expected_last):
    curve = trace_curve(t)
    rng = random.Random(20 + t)
    for p in sample_points(curve, 1, 50, rng, rational=True):
        assert dp_orders(curve, p).orders == (0, 1, 2, expected_last)


@pytest.mark.parametrize("t", [2, 3])
def test_dp_orders_sampled_non_rational(t):
    curve = trace_curve(t)
    q = curve.q
    rng = random.Random(30 + t)
    points = sample_points(curve, 2, 50, rng, rational=False)
    assert len(points) == 50
    for p in points:
        data = dp_orders(curve, p)
        assert data.orders == (0, 1, 2, q)
        assert data.classification == "non-rational"


def test_dp_orders_hermitian_with_valuation_oracle():
    h = hermitian(2)
    fld = h.field
    origin = AffinePoint(fld.zero, fld.zero, 1)
    assert dp_orders(h, origin, 24).orders == (0, 1, 2, 5)

    # brute-force oracle: valuations of c0 + c1 x + c2 x^2 + c3 y over all
    # nonzero coefficient tuples, at the origin over the full field
    n = 24
    basis = oracle_basis(origin, expand_y_at(h, origin, n))
    seen = set()
    for coeffs in itertools.product(range(fld.order), repeat=4):
        if not any(coeffs):
            continue
        combo = TruncatedSeries(fld, (0,) * n)
        for c, s in zip(coeffs, basis):
            if c:
                combo = combo + TruncatedSeries.constant(fld.element(c), n) * s
        val = combo.valuation()
        if val is not None:
            seen.add(val)
    assert seen == {0, 1, 2, 5}

    # sampled tuples at random points give valuations inside the order set
    rng = random.Random(17)
    for p in sample_points(h, 1, 3, rng):
        orders = set(dp_orders(h, p, n).orders)
        basis = oracle_basis(p, expand_y_at(h, p, n))
        for _ in range(100):
            coeffs = [rng.randrange(fld.order) for _ in range(4)]
            if not any(coeffs):
                continue
            combo = TruncatedSeries(fld, (0,) * n)
            for c, s in zip(coeffs, basis):
                if c:
                    combo = combo + TruncatedSeries.constant(fld.element(c), n) * s
            val = combo.valuation()
            if val is not None:
                assert val in orders


def test_dp_orders_pivot_stability():
    tc = trace_curve(2)
    rng = random.Random(4)
    points = sample_points(tc, 1, 5, rng)
    for p in points:
        reference = dp_orders(tc, p, 2 * tc.q + 8).orders
        for n in (tc.q + 3, tc.q + 5, 3 * tc.q):
            assert dp_orders(tc, p, n).orders == reference


@pytest.mark.parametrize("family", [trace_curve, hermitian])
@pytest.mark.parametrize("t", [4, 5])
def test_dp_orders_theorem_at_level_2_points(family, t):
    # (0, 1, 2, q+1) at the GF(q^2)-rational points, (0, 1, 2, q) off them;
    # at t = 5 the points lie in GF(2^20), where no census runs.  The
    # Hermitian curve is minimal over GF(q^4): every point there is rational.
    curve = family(t)
    q = curve.q
    rng = random.Random(90 + t)
    cases = [(True, q + 1, "rational")]
    if family is trace_curve:
        cases.append((False, q, "non-rational"))
    for rational, last, tag in cases:
        for p in level2_points(curve, 4, rng, rational):
            data = dp_orders(curve, p)
            assert data.orders == (0, 1, 2, last)
            assert data.classification == tag


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("t", [2, 3, 4])
def test_planted_expansion_changes_the_orders(monkeypatch, t, level):
    # switching the tau^3 or tau^q coefficient of y's expansion between zero
    # and nonzero must change the fourth order or leave none below n
    curve = trace_curve(t)
    q = curve.q
    rng = random.Random(60 + 10 * t + level)
    if level == 1:
        points = sample_points(curve, 1, 3, rng)
    else:
        points = level2_points(curve, 3, rng, rational=False)
    for p in points:
        reference = dp_orders(curve, p)
        assert reference.orders == (0, 1, 2, q + 1 if level == 1 else q)
        for e in (3, q):
            def planted(curve, point, n, e=e):
                coeffs = list(expand_y_at(curve, point, n).coeffs)
                coeffs[e] = 0 if coeffs[e] else rng.randrange(1, point.x.field.order)
                return TruncatedSeries(point.x.field, tuple(coeffs))

            with monkeypatch.context() as patch:
                patch.setattr("maxcurves.orders.expand_y_at", planted)
                try:
                    assert dp_orders(curve, p).orders != reference.orders
                except PrecisionError:
                    pass


def test_dp_orders_precision_preconditions():
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    with pytest.raises(ValueError):
        dp_orders(tc, origin, tc.q + 2)


@pytest.mark.parametrize("t,expected", [(2, (0, 1, 3, 5)), (3, (0, 1, 5, 9)), (4, (0, 1, 9, 17))])
def test_dp_orders_at_infinity(t, expected):
    data = dp_orders_at_infinity(trace_curve(t))
    assert data.orders == expected
    assert data.classification == "at-P0"


def test_dp_orders_at_infinity_refuses_hermitian():
    with pytest.raises(ValueError):
        dp_orders_at_infinity(hermitian(2))


def test_system_dimension_matches_semigroup_count():
    from maxcurves.semigroups import dim_from_semigroup, infinity_semigroup

    # the basis (1, x, x^2, y) spans a system of projective dimension 3
    for q in (4, 8, 16, 32):
        assert dim_from_semigroup(infinity_semigroup(q), q + 1) == 3


def test_frobenius_identity_at_origin():
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    report = frobenius_identity_check(tc, origin, 16)
    assert report["residual_zero"]
    assert report["precision"] == 14


def test_frobenius_identity_at_random_points_q8():
    tc = trace_curve(3)
    rng = random.Random(6)
    for p in sample_points(tc, 1, 20, rng):
        assert frobenius_identity_check(tc, p)["residual_zero"]
    # and at level-2 points
    for p in sample_points(tc, 2, 10, rng):
        assert frobenius_identity_check(tc, p)["residual_zero"]


@pytest.mark.parametrize("t", [2, 3])
@pytest.mark.parametrize("family", [trace_curve, hermitian])
def test_frobenius_identity_fifty_points_per_curve(family, t):
    # on the Hermitian curve D^2 y vanishes and the identity degenerates
    # to y + y^(q^2) = (x + x^(q^2)) x^q, still a zero residual
    curve = family(t)
    rng = random.Random(100 * t)
    for p in sample_points(curve, 1, 50, rng):
        assert frobenius_identity_check(curve, p)["residual_zero"]


def test_frobenius_identity_negative_control():
    # replacing D^2 y by D^2 y + 1 must break the identity
    tc = trace_curve(2)
    fld = tc.field
    origin = AffinePoint(fld.zero, fld.zero, 1)
    n = 16
    k = 2 * tc.t
    ys = expand_y_at(tc, origin, n)
    xs = x0_plus_tau(origin.x, n)
    dy = ys.hasse_derivative(1)
    d2y = ys.hasse_derivative(2) + TruncatedSeries.constant(fld.one, n - 2)
    y_frob = TruncatedSeries.constant(origin.y.frobenius(k), n)
    x_frob = TruncatedSeries.constant(origin.x.frobenius(k), n)
    x2_frob = TruncatedSeries.constant(origin.x.frobenius(k).square(), n)
    lhs = ys + y_frob + (xs + x_frob) * dy + ((xs * xs).truncate(n) + x2_frob) * d2y
    assert not lhs.is_zero_mod(n - 2)


def dense_frobenius_residual(curve, point, ys):
    """Reference residual y + y^(q^2) + (x + x^(q^2)) Dy + (x^2 + x^(2q^2)) D^2 y
    by generic series sums and products, mod tau^(n-2)."""
    n, k = ys.prec, 2 * curve.t
    xs = x0_plus_tau(point.x, n)
    x_twist = point.x.frobenius(k)
    y_frob = TruncatedSeries.constant(point.y.frobenius(k), n)
    x_frob = TruncatedSeries.constant(x_twist, n)
    x2_frob = TruncatedSeries.constant(x_twist.square(), n)
    dy, d2y = ys.hasse_derivative(1), ys.hasse_derivative(2)
    return ys + y_frob + (xs + x_frob) * dy + ((xs * xs).truncate(n) + x2_frob) * d2y


def frobenius_test_points(curve, level, count, rng):
    """Seeded points at level 1 from the census; at level 2 solved from
    random x outside GF(q^2)."""
    if level == 1:
        return sample_points(curve, 1, count, rng)
    return level2_points(curve, count, rng, rational=False)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_planted_coefficient_makes_the_frobenius_residual_nonzero(t, level):
    curve = trace_curve(t)
    q = curve.q
    rng = random.Random(80 + 10 * t + level)
    points = frobenius_test_points(curve, level, 3, rng)
    # the least precision, q + 3, the default and q^2, where tau^(q^2) is cut
    for n in sorted({4, q + 3, min(2 * q + 8, q * q), q * q}):
        m = n - 2  # the residual is known below tau^m
        for p in points:
            ys = expand_y_at(curve, p, n)
            assert _frobenius_residual(curve, p, ys)["residual_zero"]
            assert dense_frobenius_residual(curve, p, ys).is_zero_mod(m)
            flips = set()
            # every e, also the two whose own term lies at or above tau^m
            for e in range(n):
                coeffs = list(ys.coeffs)
                coeffs[e] ^= rng.randrange(1, p.x.field.order)
                planted = TruncatedSeries(ys.field, tuple(coeffs))
                report = _frobenius_residual(curve, p, planted)
                assert report["precision"] == m
                dense = dense_frobenius_residual(curve, p, planted)
                assert report["residual_zero"] is dense.is_zero_mod(m), (n, e)
                if not report["residual_zero"]:
                    flips.add(e)
            # c_e lands at tau^e from y, tau Dy (odd e) and tau^2 D^2 y (e & 2),
            # so it cancels there when e = 1, 2 mod 4; at level 1
            # c1 = x0 + x0^(q^2) = 0 and nothing else is left.  At level 2
            # c1 != 0, and c1 c_e at tau^(e-1) for odd e and c1^2 c_e at
            # tau^(e-2) when e & 2 are seen when they lie below tau^m
            if level == 1:
                assert flips == {e for e in range(m) if e % 4 in (0, 3)}, n
            else:
                assert flips == {
                    e for e in range(n) if e < m or (e & 1 and e <= m) or (e & 2 and e <= m + 1)
                }, n


def test_frobenius_identity_precision_guard():
    tc = trace_curve(2)
    origin = AffinePoint(tc.field.zero, tc.field.zero, 1)
    with pytest.raises(ValueError):
        frobenius_identity_check(tc, origin, 17)  # 17 > q^2 = 16


@pytest.mark.parametrize("t,expected", [(2, (0, 1, 4)), (3, (0, 1, 8)), (4, (0, 1, 16))])
def test_frobenius_orders(t, expected):
    rng = random.Random(40 + t)
    triple, evidence = frobenius_orders(trace_curve(t), 20, rng)
    assert triple == expected
    assert len(evidence) == 20
    assert all(e["middle_derivatives_vanish"] for e in evidence)
    assert all(e["frobenius_residual_zero"] for e in evidence)


def test_frobenius_orders_refuses_the_hermitian_curve():
    # deg A = q, not q/2: the Hermitian curve has genus g_1, not g_2
    with pytest.raises(ValueError, match="deg A = q/2"):
        frobenius_orders(hermitian(3), 5, random.Random(0))


def test_sv_ramification_degree():
    assert sv_ramification_degree(list(range(9)), g=2, n=8, d=10) == 36 * 2 + 90
    assert sv_ramification_degree([0, 1], g=0, n=1, d=7) == -2 + 2 * 7
    with pytest.raises(ValueError):
        sv_ramification_degree([0, 1, 1], g=1, n=2, d=5)
    with pytest.raises(ValueError):
        sv_ramification_degree([0, 1, 2], g=1, n=3, d=5)


def test_m1_recovery_matches_classification():
    # m_1 = q + 1 - j_2 is q - 1 at affine rational points, q/2 at infinity
    for t in (2, 3):
        curve = trace_curve(t)
        q = curve.q
        rng = random.Random(50 + t)
        for p in sample_points(curve, 1, 15, rng, rational=True):
            j2 = dp_orders(curve, p).orders[2]
            assert q + 1 - j2 == q - 1
        assert q + 1 - dp_orders_at_infinity(curve).orders[2] == q // 2
