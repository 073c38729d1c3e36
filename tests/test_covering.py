"""The degree-2 covering of the trace curve by the Hermitian curve."""

import pytest

from maxcurves.census import AffinePoint, InfinitePoint, enumerate_points, is_rational
from maxcurves.covering import (
    covering_census_check,
    covering_map,
    fiber,
    fiber_histogram,
    symbolic_additive_identity,
)
from maxcurves.fields import make_field


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
def test_symbolic_additive_identity(t):
    # sum_{i} (u^2 + u)^(q/2^i) telescopes to u^q + u on exponent level
    assert symbolic_additive_identity(t)


def test_numeric_additive_identity_q4():
    # (u^2+u)^2 + (u^2+u) = u^4 + u for every u in GF(16) and GF(256)
    for fld in (make_field(2), make_field(2, "quartic")):
        for u in fld.elements(range(fld.order)):
            y = u.square() + u
            assert y.square() + y == u.frobenius(2) + u


def _image(p: AffinePoint) -> AffinePoint:
    # the cover (v, u) -> (v, u^2 + u)
    return AffinePoint(p.x, p.y.square() + p.y, p.level)


def _tau(p: AffinePoint) -> AffinePoint:
    # the deck involution (v, u) -> (v, u + 1)
    return AffinePoint(p.x, p.y + p.x.field.one, p.level)


def _assert_images_on_trace_curve(cm, level):
    # every affine Hermitian point maps onto the trace curve, into the fibre
    # that `fiber` solves for, and pi o tau = pi
    points = enumerate_points(cm.source, level)
    assert len(points) == cm.q**3 + 1  # no new points over GF(q^4)
    for p in points:
        if isinstance(p, InfinitePoint):
            continue
        image = _image(p)
        assert not cm.target.evaluate(image.x, image.y)
        assert p in fiber(cm, image, level)
        assert _image(_tau(p)) == image


@pytest.mark.parametrize("t", [2, 3])
def test_exhaustive_image_membership(t):
    _assert_images_on_trace_curve(covering_map(t), 1)


def test_exhaustive_image_membership_level2_q8():
    _assert_images_on_trace_curve(covering_map(3), 2)


@pytest.mark.parametrize("t", [1, 2, 3])
def test_involution_properties(t):
    cm = covering_map(t)
    points = [p for p in enumerate_points(cm.source, 1) if isinstance(p, AffinePoint)]
    on_curve = set(points)
    for p in points:
        tau_p = _tau(p)
        assert tau_p != p  # no affine fixed points in characteristic 2
        assert tau_p in on_curve
        assert _tau(tau_p) == p


def test_fiber_at_origin():
    cm = covering_map(2)
    fld = cm.target.field
    target = AffinePoint(fld.zero, fld.zero, 1)
    points = fiber(cm, target, 1)
    assert [(p.x.bits, p.y.bits) for p in points] == [(0, 0), (0, 1)]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_fibers_are_involution_orbits(t):
    cm = covering_map(t)
    fld = cm.target.field
    for p in enumerate_points(cm.target, 1):
        if isinstance(p, InfinitePoint):
            continue
        fib = fiber(cm, p, 1)
        assert len(fib) == 2 and fib[0].x == fib[1].x == p.x
        assert fib[0].y + fib[1].y == fld.one  # {(x, u), (x, u + 1)}


@pytest.mark.parametrize("t", [2, 3, 4])
def test_fiber_sizes_over_rational_targets(t):
    # Full level-2 fibers over every affine rational target; and because the
    # Hermitian curve gains no points over GF(q^4), the level-1 fibers are
    # already full: the "single preimage of higher degree" case never occurs.
    # So at either level the walk checks all q^3 affine Hermitian points
    # against the Hermitian equation.
    cm = covering_map(t)
    q = 1 << t
    for level in (1, 2):
        histogram = fiber_histogram(cm, level)
        assert histogram == {"2": q**3 // 2}  # N_1 - 1 affine rational targets
        assert sum(int(size) * n for size, n in histogram.items()) == q**3


@pytest.mark.parametrize("t", [1, 2, 3])
def test_every_rational_target_lifts_to_level2(t):
    cm = covering_map(t)
    for p in enumerate_points(cm.target, 1):
        if isinstance(p, AffinePoint):
            assert is_rational(cm.target, p)
            assert len(fiber(cm, p, 2)) == 2


@pytest.mark.parametrize(
    "t,counts",
    [(2, (65, 33)), (3, (513, 257)), (4, (4097, 2049))],
)
def test_covering_census_check(t, counts):
    report = covering_census_check(t)
    n_h, n_x = counts
    assert report["count_hermitian"] == n_h
    assert report["count_trace"] == n_x
    assert report["double_count_identity"]  # 2 #X = #H + 1
    assert report["riemann_hurwitz_ok"]
    assert report["different_degree"] == (1 << t) + 2


def test_covering_census_check_domain():
    with pytest.raises(ValueError):
        covering_census_check(1)
    report = covering_census_check(5)
    assert (report["count_hermitian"], report["count_trace"]) == (32769, 16385)
    assert report["double_count_identity"] and report["riemann_hurwitz_ok"]


def test_riemann_hurwitz_arithmetic_by_hand():
    # t = 2: (2*6 - 2) - 2*(2*2 - 2) = 10 - 4 = 6 = q + 2
    report = covering_census_check(2)
    assert (2 * report["genus_hermitian"] - 2) - 2 * (2 * report["genus_trace"] - 2) == 6
