"""The degree-2 covering of the trace curve by the Hermitian curve.

The affine map is (v, u) -> (v, u^2 + u): on exponent level the additive
polynomial S(y) = sum y^(q/2^i) telescopes to S(u^2 + u) = u^q + u, so
Hermitian points (u^q + u = v^(q+1)) land on the trace curve
(S(y) = x^(q+1)).  The deck involution is u -> u + 1, fixed-point free
on affine points; fibers are its orbits {u, u+1}, computed by solving
u^2 + u = y at the requested tower level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import (
    AffinePoint,
    CurvePoint,
    InfinitePoint,
    count_rational,
    enumerate_points,
    sample_points,
)
from .curves import PlaneCurve, hermitian, trace_curve
from .fields import MAX_T, CheckFailed, FieldElement, solve_artin_schreier


@dataclass(frozen=True)
class CoveringMap:
    t: int
    source: PlaneCurve  # Hermitian
    target: PlaneCurve  # trace curve

    @property
    def q(self) -> int:
        return self.source.q


def covering_map(t: int) -> CoveringMap:
    return CoveringMap(t=t, source=hermitian(t), target=trace_curve(t))


def symbolic_additive_identity(t: int) -> bool:
    """Expand S(u^2 + u) = sum (u^2 + u)^(q/2^i) over GF(2) exponent
    arithmetic and compare with u^q + u."""
    q = 1 << t
    exponents: set[int] = set()
    for i in range(1, t + 1):
        e = q >> i
        exponents ^= {2 * e, e}  # (u^2 + u)^e for e a power of two
    return exponents == {q, 1}


def apply_cover(cm: CoveringMap, point: CurvePoint) -> CurvePoint:
    """Image of a Hermitian point; raises :class:`fields.CheckFailed`
    unless the image satisfies the target equation exactly."""
    if isinstance(point, InfinitePoint):
        return InfinitePoint()
    if cm.source.evaluate(point.x, point.y):
        raise ValueError("point does not lie on the Hermitian model")
    image = AffinePoint(point.x, point.y.square() + point.y, point.level)
    if cm.target.evaluate(image.x, image.y):
        raise CheckFailed(f"the cover image {image!r} of {point!r} left the target curve")
    return image


def involution(cm: CoveringMap, point: CurvePoint) -> CurvePoint:
    """The deck transformation (v, u) -> (v, u + 1)."""
    if isinstance(point, InfinitePoint):
        return point
    one = FieldElement(1, point.y.field)
    return AffinePoint(point.x, point.y + one, point.level)


def fiber(cm: CoveringMap, target_point: AffinePoint, level: int) -> list[CurvePoint]:
    """All source points over an affine target point at the given level:
    {(x, u) : u^2 + u = y}, of size 0 or 2."""
    fld = cm.source.level_field(level)
    x, y = target_point.x, target_point.y
    if x.field is not fld:
        x, y = fld.embed(x), fld.embed(y)
    if cm.target.evaluate(x, y):
        raise ValueError("point does not lie on the trace model")
    return [AffinePoint(x, u, level) for u in solve_artin_schreier(y)]


def covering_census_check(t: int) -> dict:
    """Point-count and Riemann-Hurwitz bookkeeping of the degree-2 cover:
    2 * #X(GF(q^2)) = #H(GF(q^2)) + 1, and
    (2g_H - 2) - 2(2g_X - 2) = q + 2 (the different degree over x = inf)."""
    if not 2 <= t <= MAX_T:
        raise ValueError(f"census check supported for 2 <= t <= {MAX_T}")
    q = 1 << t
    herm, trace = hermitian(t), trace_curve(t)
    n_h, n_x = count_rational(herm, 1), count_rational(trace, 1)
    gh, gx = herm.model(1).genus, trace.model(1).genus
    different = (2 * gh - 2) - 2 * (2 * gx - 2)
    return {
        "q": q,
        "count_hermitian": n_h,
        "count_trace": n_x,
        "double_count_identity": 2 * n_x == n_h + 1,
        "genus_hermitian": gh,
        "genus_trace": gx,
        "different_degree": different,
        "riemann_hurwitz_ok": different == q + 2,
    }


def _membership_report(cm: CoveringMap, points, level: int, mode: str) -> dict:
    involution_commutes = 0
    for p in points:
        image = apply_cover(cm, p)  # raises unless the image is on the target
        if apply_cover(cm, involution(cm, p)) == image:
            involution_commutes += 1
    return {
        "q": cm.q,
        "level": level,
        "mode": mode,
        "source_points": len(points),
        "images_on_target": len(points),
        "involution_commutes": involution_commutes,
        "all_commute": involution_commutes == len(points),
    }


def image_membership_check(t: int, level: int = 1) -> dict:
    """Exhaustively map every enumerated Hermitian point through the
    cover and record involution compatibility pi o tau = pi."""
    cm = covering_map(t)
    return _membership_report(cm, enumerate_points(cm.source, level), level, "exhaustive")


def image_membership_sample(t: int, count: int, rng) -> dict:
    """Sampled membership/involution check over level-1 Hermitian points,
    for sizes where the exhaustive sweep is unwanted."""
    cm = covering_map(t)
    points = sample_points(cm.source, 1, count, rng, exclude_infinity=False)
    return _membership_report(cm, points, 1, "sampled")


def fiber_histogram(cm: CoveringMap, level: int) -> dict:
    """Fiber sizes over every rational affine target point, at a level."""
    histogram: dict[int, int] = {}
    for p in enumerate_points(cm.target, 1):
        if isinstance(p, InfinitePoint):
            continue
        size = len(fiber(cm, p, level))
        histogram[size] = histogram.get(size, 0) + 1
    return {str(k): v for k, v in sorted(histogram.items())}
