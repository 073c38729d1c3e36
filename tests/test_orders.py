"""Order sequences, Frobenius machinery, and ramification arithmetic."""

import itertools
import random

import pytest

from maxcurves.census import AffinePoint, enumerate_points, sample_points
from maxcurves.curves import hermitian, trace_curve
from maxcurves.fields import FieldElement, additive_map
from maxcurves.orders import (
    _frobenius_residual,
    basis_series,
    degree_count_impossibility,
    dp_orders,
    dp_orders_at_infinity,
    frobenius_identity_check,
    frobenius_orders,
    sv_ramification_degree,
)
from maxcurves.series import TruncatedSeries, expand_y_at


def affine_rational_points(curve):
    return [p for p in enumerate_points(curve, 1) if isinstance(p, AffinePoint)]


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
    basis = basis_series(h, origin, n)
    seen = set()
    for coeffs in itertools.product(range(fld.order), repeat=4):
        if not any(coeffs):
            continue
        combo = TruncatedSeries(fld, (0,) * n)
        for c, s in zip(coeffs, basis):
            if c:
                combo = combo + s.scale(fld.element(c))
        val = combo.valuation()
        if val is not None:
            seen.add(val)
    assert seen == {0, 1, 2, 5}

    # sampled tuples at random points give valuations inside the order set
    rng = random.Random(17)
    for p in sample_points(h, 1, 3, rng):
        orders = set(dp_orders(h, p, n).orders)
        basis = basis_series(h, p, n)
        for _ in range(100):
            coeffs = [rng.randrange(fld.order) for _ in range(4)]
            if not any(coeffs):
                continue
            combo = TruncatedSeries(fld, (0,) * n)
            for c, s in zip(coeffs, basis):
                if c:
                    combo = combo + s.scale(fld.element(c))
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


def test_dp_orders_row_order_independence():
    from maxcurves.orders import _pivot_columns

    tc = trace_curve(2)
    fld = tc.field
    origin = AffinePoint(fld.zero, fld.zero, 1)
    n = 12
    dense = [list(s.coeffs) for s in basis_series(tc, origin, n)]
    reference = _pivot_columns(fld, [row[:] for row in dense])
    for perm in itertools.permutations(range(4)):
        rows = [dense[i][:] for i in perm]
        assert _pivot_columns(fld, rows) == reference


@pytest.mark.parametrize("t", [1, 2])
def test_pivot_columns_against_column_spans(t):
    # general matrices: in the basis (1, x, x^2, y) the rows above y are
    # unit vectors past their pivots, so no elimination factor shows there
    from maxcurves.fields import make_field
    from maxcurves.orders import _pivot_columns

    fld = make_field(t)
    rng = random.Random(70 + t)
    nrows = 3
    for _ in range(300):
        columns = []
        for _ in range(rng.randrange(1, 8)):
            if columns and rng.random() < 0.4:  # a combination of earlier columns
                a, b = rng.randrange(fld.order), rng.randrange(fld.order)
                u, v = rng.choice(columns), rng.choice(columns)
                columns.append([fld.mul_int(a, x) ^ fld.mul_int(b, y) for x, y in zip(u, v)])
            else:
                columns.append([rng.randrange(fld.order) if rng.random() < 0.7 else 0 for _ in range(nrows)])
        # a column is a pivot iff it leaves the span of the columns before it
        expected, span = [], {(0,) * nrows}
        for j, col in enumerate(columns):
            if tuple(col) not in span:
                expected.append(j)
                span = {
                    tuple(s ^ fld.mul_int(a, c) for s, c in zip(vec, col))
                    for vec in span
                    for a in range(fld.order)
                }
        rows = [list(row) for row in zip(*columns)]
        assert _pivot_columns(fld, rows) == expected, columns


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
    xs = TruncatedSeries.local_parameter_shifted(origin.x, n)
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
    xs = TruncatedSeries.local_parameter_shifted(point.x, n)
    x_twist = point.x.frobenius(k)
    y_frob = TruncatedSeries.constant(point.y.frobenius(k), n)
    x_frob = TruncatedSeries.constant(x_twist, n)
    x2_frob = TruncatedSeries.constant(x_twist.square(), n)
    dy, d2y = ys.hasse_derivative(1), ys.hasse_derivative(2)
    return ys + y_frob + (xs + x_frob) * dy + ((xs * xs).truncate(n) + x2_frob) * d2y


def frobenius_test_points(curve, level, count, rng):
    """Seeded points at level 1 from the census; at level 2 solved from
    random x outside GF(q^2), since S(y) = x^(q+1) is GF(2)-linear in y."""
    if level == 1:
        return sample_points(curve, 1, count, rng)
    fld = curve.level_field(2)
    a_map = additive_map(fld, curve.model(2).ypart)
    points = []
    while len(points) < count:
        x = FieldElement(rng.randrange(fld.order), fld)
        ys = a_map.coset((x ** (curve.q + 1)).bits)
        if ys and x.frobenius(2 * curve.t) != x:
            points.append(AffinePoint(x, fld.element(rng.choice(ys)), 2))
    return points


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_planted_coefficient_makes_the_frobenius_residual_nonzero(t, level):
    curve = trace_curve(t)
    rng = random.Random(80 + 10 * t + level)
    n = min(2 * curve.q + 8, curve.q * curve.q)
    for p in frobenius_test_points(curve, level, 3, rng):
        ys = expand_y_at(curve, p, n)
        assert _frobenius_residual(curve, p, ys)["residual_zero"]
        assert dense_frobenius_residual(curve, p, ys).is_zero_mod()
        flips = set()
        for e in range(n - 2):
            coeffs = list(ys.coeffs)
            coeffs[e] ^= rng.randrange(1, p.x.field.order)
            planted = TruncatedSeries(ys.field, tuple(coeffs))
            report = _frobenius_residual(curve, p, planted)
            assert report["precision"] == n - 2
            dense = dense_frobenius_residual(curve, p, planted)
            assert report["residual_zero"] is dense.is_zero_mod()
            if not report["residual_zero"]:
                flips.add(e)
        # tau^e, and tau^(e-1) times c1 for odd e, tau^(e-2) times c1^2 when
        # e & 2: at level 1 c1 = x0 + x0^(q^2) = 0 and only e = 0, 3 mod 4
        # leave a residual
        if level == 1:
            assert flips == {e for e in range(n - 2) if e % 4 in (0, 3)}
        else:
            assert flips == set(range(n - 2))


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


def test_degree_count_impossibility():
    report = degree_count_impossibility()
    assert report["sum_orders"] == 36
    assert report["reduced_equation"] == {"coefficient": 28, "value": 10}
    assert report["even_nonnegative_solutions"] == []
    assert report["contradiction"]
    assert report["generic_second_term"] == 90
    assert report["contradiction_with_generic_term"]


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
