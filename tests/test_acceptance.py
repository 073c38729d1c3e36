"""Acceptance criteria, one test per criterion.

Everything here is exact arithmetic: every comparison is equality with
tolerance zero.  Each test prints one PASS/FAIL line (run pytest with -s
to see them); several criteria drive the checks through the CLI surface.
"""

import functools
import json
import math
import random
import time

from maxcurves import census, covering, curves, orders, semigroups, series
from maxcurves.census import AffinePoint, enumerate_points, sample_points
from maxcurves.cli import main
from maxcurves.fields import make_field


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS")

        return wrapper

    return decorate


def cli_json(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


@criterion(1, "Hermitian point counts q^3+1 and maximality")
def test_criterion_1_hermitian_counts(capsys):
    expected = {1: 9, 2: 65, 3: 513, 4: 4097}
    for t, count in expected.items():
        start = time.monotonic()
        code, payload = cli_json(capsys, "count", "--curve", "hermitian", "--t", str(t))
        elapsed = time.monotonic() - start
        q = 1 << t
        assert code == 0
        assert payload["count"] == count == q ** 3 + 1
        assert payload["maximal"] and payload["expected"] == census.hasse_weil_max(q, census.g1(q))
        assert elapsed < (5.0 if q <= 8 else 30.0)


@criterion(2, "trace-curve maximality at genus q(q-2)/4")
def test_criterion_2_trace_counts(capsys):
    expected = {2: 33, 3: 257, 4: 2049}
    for t, count in expected.items():
        q = 1 << t
        code, payload = cli_json(capsys, "count", "--curve", "trace", "--t", str(t))
        assert code == 0
        assert payload["count"] == count == q * q + 1 + 2 * q * (q * (q - 2) // 4)
        assert payload["maximal"]


@criterion(3, "semigroup genus and system dimensions")
def test_criterion_3_semigroup_loop(capsys):
    genus_expected = {4: 2, 8: 12, 16: 56, 32: 240}
    for q, g in genus_expected.items():
        s = semigroups.infinity_semigroup(q)
        assert s.genus == g == q * (q - 2) // 4
        assert semigroups.dim_from_semigroup(s, q + 1) == 3
        assert semigroups.dim_from_semigroup(s, 2 * q + 2) == 8
    code, payload = cli_json(capsys, "semigroup", "--t", "5", "--curve", "trace")
    assert code == 0
    assert payload["genus"] == 240 and payload["dims"] == {"33": 3, "66": 8}


@criterion(4, "order sequences at sampled and exhaustive points")
def test_criterion_4_order_sequences():
    # q = 4: exhaustive over all 32 affine rational points
    tc2 = curves.trace_curve(2)
    rational_q4 = [p for p in enumerate_points(tc2, 1) if isinstance(p, AffinePoint)]
    assert len(rational_q4) == 32
    for p in rational_q4:
        assert orders.dp_orders(tc2, p).orders == (0, 1, 2, 5)

    # q = 8: at least 50 sampled rational points
    tc3 = curves.trace_curve(3)
    rng = random.Random(0)
    sample_q8 = sample_points(tc3, 1, 50, rng, rational=True)
    assert len(sample_q8) == 50
    for p in sample_q8:
        assert orders.dp_orders(tc3, p).orders == (0, 1, 2, 9)

    # at least 50 level-2 non-rational points per q
    for curve, q in ((tc2, 4), (tc3, 8)):
        nonrational = sample_points(curve, 2, 50, rng, rational=False)
        assert len(nonrational) == 50
        for p in nonrational:
            assert orders.dp_orders(curve, p).orders == (0, 1, 2, q)

    # infinite point
    for t in (2, 3, 4):
        q = 1 << t
        assert orders.dp_orders_at_infinity(curves.trace_curve(t)).orders == (
            0, 1, q // 2 + 1, q + 1,
        )


@criterion(5, "Frobenius machinery: identity, vanishing, orders")
def test_criterion_5_frobenius_machinery():
    rng = random.Random(1)
    for t in (2, 3):
        curve = curves.trace_curve(t)
        q = curve.q
        n = min(2 * q + 8, q * q)
        points = sample_points(curve, 1, 25, rng) + sample_points(curve, 2, 25, rng)
        for p in points:
            assert orders.frobenius_identity_check(curve, p, n)["residual_zero"]
        for p in sample_points(curve, 1, 25, rng):
            report = series.verify_derivative_facts(curve, p, n)
            assert report.dy_is_xq  # Dy = x^q (a_t = 1 on the standard curve)
            assert report.d2y_is_x2q  # D^2 y = x^(2q)
            assert report.middle_vanish  # D^i y = 0 for 3 <= i <= q-1
        triple, evidence = orders.frobenius_orders(curve, 50, rng, n)
        assert triple == (0, 1, q)
        assert len(evidence) >= min(50, 32)
        assert all(
            e["middle_derivatives_vanish"] and e["frobenius_residual_zero"] for e in evidence
        )


@criterion(6, "Hasse-derivative property suite and Lucas table")
def test_criterion_6_hasse_properties():
    for t in (2, 3):
        rng = random.Random(60 + t)
        report = series.check_h_identities(make_field(t), 1000, rng)
        for name in ("h1", "h2", "h3", "h3prime"):
            assert report[name]["pass"] == 1000 and report[name]["fail"] == 0
    # D^k tau^n = binom(n, k) tau^(n-k), its coefficient read by Lucas' rule
    fld = make_field(2)
    row = [1]
    for n in range(64):
        tau_n = series.TruncatedSeries(fld, tuple(int(i == n) for i in range(64)))
        for k in range(n + 1):
            coefficient = tau_n.hasse_derivative(k).coeffs[n - k]
            assert coefficient == row[k] % 2 == math.comb(n, k) % 2
        row = [1] + [row[k - 1] + row[k] for k in range(1, n + 1)] + [1]


@criterion(7, "normalization round-trip through the maximality criterion")
def test_criterion_7_normalization():
    for t in (2, 3):
        fld = make_field(t)
        rng = random.Random(70 + t)
        standard = curves.trace_curve(t)
        kinds = ("scale-y", "translate-y", "shear", "scale-x")
        for _ in range(100):
            record = []
            for _ in range(rng.randrange(1, 5)):
                kind = rng.choice(kinds)
                lo = 1 if kind in ("scale-y", "scale-x") else 0
                record.append(
                    curves.CoordinateChange(kind, fld.element(rng.randrange(lo, fld.order)))
                )
            moved = curves.apply_record(standard, record)
            back, inverse = curves.normalize(moved)
            assert back == standard
            for change in inverse:
                assert change.constant.field is fld  # alpha lies in GF(q^2)


@criterion(8, "covering: membership, counts, Riemann-Hurwitz, involution")
def test_criterion_8_covering():
    for t in (2, 3):  # the fibre walk puts all q^3 affine points on H, for q in {4, 8}
        for level in (1, 2):  # it raises on a fibre point off the Hermitian curve
            histogram = covering.fiber_histogram(covering.covering_map(t), level)
            assert sum(int(size) * n for size, n in histogram.items()) == (1 << t) ** 3
    for t in (2, 3, 4):  # 2 #X = #H + 1 for q in {4, 8, 16} and Riemann-Hurwitz
        q = 1 << t
        report = covering.covering_census_check(t)
        assert 2 * report["count_trace"] == report["count_hermitian"] + 1
        assert report["different_degree"] == q + 2
    for t in (1, 2, 3):  # each fibre is {(x, u), (x, u + 1)}, exhaustively for q <= 8
        cm = covering.covering_map(t)
        one = cm.target.field.one
        for p in enumerate_points(cm.target, 1)[:-1]:  # the point at infinity is last
            a, b = covering.fiber(cm, p, 1)
            assert a.x == b.x == p.x and a.y + one == b.y
