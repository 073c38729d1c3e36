"""The degree-2 covering of the trace curve by the Hermitian curve.

The affine map is (v, u) -> (v, u^2 + u): on exponent level the additive
polynomial S(y) = sum y^(q/2^i) telescopes to S(u^2 + u) = u^q + u, so
Hermitian points (u^q + u = v^(q+1)) land on the trace curve
(S(y) = x^(q+1)).  The fibre over an affine point is {(x, u) : u^2 + u = y},
computed by solving that equation at the requested tower level; it is
{(x, u), (x, u + 1)} or empty.  ``fiber_histogram`` walks the fibres over
every rational affine point of the trace curve and checks each fibre point
against the Hermitian equation.  The Hermitian curve has q^3 + 1 points
over GF(q^2) and over GF(q^4) alike, so at either level that walk reaches
all q^3 of its affine points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .census import AffinePoint, CurvePoint, InfinitePoint, count_rational, enumerate_points
from .curves import PlaneCurve, hermitian, trace_curve
from .fields import MAX_T, CheckFailed, solve_artin_schreier


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


def fiber_histogram(cm: CoveringMap, level: int) -> dict:
    """Fiber sizes over every rational affine target point, at a level;
    raises :class:`fields.CheckFailed` on a fibre point off the Hermitian
    curve."""
    histogram: dict[int, int] = {}
    for p in enumerate_points(cm.target, 1):
        if isinstance(p, InfinitePoint):
            continue
        points = fiber(cm, p, level)
        for s in points:
            if cm.source.evaluate(s.x, s.y):
                raise CheckFailed(f"the fibre point {s!r} over {p!r} is off the Hermitian curve")
        histogram[len(points)] = histogram.get(len(points), 0) + 1
    return {str(k): v for k, v in sorted(histogram.items())}
