"""The degree-2 covering of the trace curve by the Hermitian curve."""

import pytest

from maxcurves.census import AffinePoint, InfinitePoint, enumerate_points, is_rational
from maxcurves.covering import (
    apply_cover,
    covering_census_check,
    covering_map,
    fiber,
    fiber_histogram,
    image_membership_check,
    involution,
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


def test_apply_cover_origin_and_infinity():
    cm = covering_map(2)
    fld = cm.source.field
    origin = AffinePoint(fld.zero, fld.zero, 1)
    image = apply_cover(cm, origin)
    assert (image.x.bits, image.y.bits) == (0, 0)
    assert apply_cover(cm, InfinitePoint()) == InfinitePoint()


def test_apply_cover_rejects_off_curve_points():
    cm = covering_map(2)
    fld = cm.source.field
    with pytest.raises(ValueError):
        apply_cover(cm, AffinePoint(fld.one, fld.zero, 1))


@pytest.mark.parametrize("t", [2, 3])
def test_exhaustive_image_membership(t):
    # every Hermitian point maps onto the trace curve (the apply_cover
    # postcondition asserts membership point by point)
    report = image_membership_check(t, level=1)
    assert report["source_points"] == (1 << t) ** 3 + 1
    assert report["images_on_target"] == report["source_points"]
    assert report["all_commute"]  # pi o tau = pi


def test_exhaustive_image_membership_level2_q8():
    # rational points of X are images of H(GF(q^4)) points; here the whole
    # level-2 Hermitian point set maps onto the trace curve
    report = image_membership_check(3, level=2)
    assert report["all_commute"]


@pytest.mark.parametrize("t", [1, 2, 3])
def test_involution_properties(t):
    cm = covering_map(t)
    points = [p for p in enumerate_points(cm.source, 1) if isinstance(p, AffinePoint)]
    for p in points:
        tau_p = involution(cm, p)
        assert tau_p != p  # no affine fixed points in characteristic 2
        assert involution(cm, tau_p) == p
        assert apply_cover(cm, tau_p) == apply_cover(cm, p)


def test_fiber_at_origin():
    cm = covering_map(2)
    fld = cm.target.field
    target = AffinePoint(fld.zero, fld.zero, 1)
    points = fiber(cm, target, 1)
    assert [(p.x.bits, p.y.bits) for p in points] == [(0, 0), (0, 1)]


def test_sampled_membership_report():
    import random

    from maxcurves.covering import image_membership_sample

    report = image_membership_sample(4, 50, random.Random(0))
    assert report["mode"] == "sampled" and report["source_points"] == 50
    assert report["all_commute"]


@pytest.mark.parametrize("t", [2, 3])
def test_fibers_are_involution_orbits(t):
    cm = covering_map(t)
    fld = cm.target.field
    for p in enumerate_points(cm.target, 1):
        if isinstance(p, InfinitePoint):
            continue
        fib = fiber(cm, p, 1)
        if fib:
            assert len(fib) == 2
            assert fib[0].y + fib[1].y == fld.one


@pytest.mark.parametrize("t", [2, 3])
def test_fiber_sizes_over_rational_targets(t):
    # Full level-2 fibers over every affine rational target; and because the
    # Hermitian curve gains no points over GF(q^4), the level-1 fibers are
    # already full: the "single preimage of higher degree" case never occurs.
    cm = covering_map(t)
    affine_rational = (1 << t) ** 3 // 2  # N_1 - 1
    histogram2 = fiber_histogram(cm, 2)
    assert histogram2 == {"2": affine_rational}
    histogram1 = fiber_histogram(cm, 1)
    assert histogram1 == {"2": affine_rational}


@pytest.mark.parametrize("t", [1, 2, 3])
def test_every_rational_target_lifts_to_level2(t):
    cm = covering_map(t)
    for p in enumerate_points(cm.target, 1):
        if isinstance(p, AffinePoint):
            assert is_rational(cm.target, p)
            assert len(fiber(cm, p, 2)) == 2


def test_involution_commutes_sampled_q16():
    import random

    cm = covering_map(4)
    points = [p for p in enumerate_points(cm.source, 1) if isinstance(p, AffinePoint)]
    rng = random.Random(0)
    for p in rng.sample(points, 50):
        assert apply_cover(cm, involution(cm, p)) == apply_cover(cm, p)


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
