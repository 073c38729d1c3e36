"""Exact point enumeration over GF(q^2) and GF(q^4), and maximality checks.

Every curve is held as its additive model A(y) = P(x) + c
(:class:`curves.AdditiveModel`), so A is GF(2)-linear and each fibre of A
is empty or a coset of ker A.  One Gaussian elimination on the images
A(1 << j) (:func:`fields.additive_map`) gives ker A, a reduced basis of
im A and a linear section of it.  The values P(x) + c at every x come
from one row kernel (:meth:`fields.BinaryField.values`), and a byte
table over the masks, set on the 2^rank images spanned from the basis,
says which of them lie in im A.  Counting adds 2^(dim ker A) for each x
that passes; enumeration lists the coset over each such x, in ascending
(x, y) order.  Enumeration costs little more than its coordinates: each
call keeps a dict from y mask to :class:`FieldElement`, so a y shared by
many points is one object (no table over the whole field is built: at
level 2 most masks are never a y), and :class:`AffinePoint` is a
slotted frozen dataclass whose enumerated instances get their slots
filled directly, without the generated ``__init__`` and its
``object.__setattr__`` per field.  Every level-1 point is
GF(q^2)-rational without a Frobenius test.  As deg A and deg P are
coprime, one point lies over x = infinity, and it is rational: each
census adds it, never finding it by a blow-up.

Censuses cover fields of at most 2^16 elements: every level-1 field,
and level 2 for q <= 16.  Larger fields are refused with
:class:`CensusLimitError`: over GF(2^20) the 2^20 evaluations of the
x-part alone would take seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .curves import PlaneCurve
from .fields import BinaryField, CheckFailed, FieldElement, GF2Reduction, additive_map

CENSUS_FIELD_LIMIT = 1 << 16


class CensusLimitError(ValueError):
    """Full enumeration refused: the field at this level is too large."""


@dataclass(frozen=True, slots=True)
class AffinePoint:
    """An affine point at tower level 1 (coordinates in GF(q^2)) or 2
    (GF(q^4)).

    A frozen, slotted dataclass.  :func:`enumerate_points` builds its
    points through :func:`_affine_point`, which fills the three slots
    directly instead of calling the generated ``__init__``; equality,
    hashing, the repr and ``dataclasses.replace`` are the same either way.
    """

    x: FieldElement
    y: FieldElement
    level: int

    def __repr__(self) -> str:
        return f"({self.x.hex()},{self.y.hex()})@{self.level}"


_new_object = object.__new__  # bound once, not looked up per point
_set_x, _set_y, _set_level = (AffinePoint.__dict__[f].__set__ for f in ("x", "y", "level"))


def _affine_point(x: FieldElement, y: FieldElement, level: int) -> AffinePoint:
    """AffinePoint(x, y, level), with the slots set by their member
    descriptors: the frozen ``__init__`` costs one ``object.__setattr__``
    call per field."""
    point = _new_object(AffinePoint)
    _set_x(point, x)
    _set_y(point, y)
    _set_level(point, level)
    return point


@dataclass(frozen=True)
class InfinitePoint:
    """The single point over x = infinity."""

    def __repr__(self) -> str:
        return "P_inf"


CurvePoint = Union[AffinePoint, InfinitePoint]


def _census_field(curve: PlaneCurve, level: int) -> BinaryField:
    fld = curve.level_field(level)
    if fld.order > CENSUS_FIELD_LIMIT:
        raise CensusLimitError(
            f"census over GF(2^{fld.m}) refused: censuses cover fields of at most 2^16 elements"
        )
    return fld


def _census_setup(
    curve: PlaneCurve, level: int
) -> tuple[BinaryField, list[int], bytearray, GF2Reduction]:
    """The field, P(x) + c at every x in mask order, the membership table
    of im A and the reduced A, for the model A(y) = P(x) + c."""
    fld = _census_field(curve, level)
    model = curve.model(level)
    a_map = additive_map(fld, model.ypart)
    return fld, fld.values({**model.xpart, 0: model.const}), a_map.image_table(fld.order), a_map


def enumerate_points(curve: PlaneCurve, level: int) -> list[CurvePoint]:
    """All points at the given tower level, affine ones in lexicographic
    order of serialized (x, y), then the point at infinity."""
    fld, rhs, in_image, a_map = _census_setup(curve, level)
    ys: dict[int, FieldElement] = {}  # one element per y mask, for this call only
    points: list[CurvePoint] = []
    for xb, v in enumerate(rhs):
        if in_image[v]:
            x, y0 = FieldElement(xb, fld), a_map.lift(v)  # v passed the table
            for k in a_map.kernel:
                yb = y0 ^ k
                y = ys.get(yb)
                if y is None:
                    y = ys[yb] = FieldElement(yb, fld)
                points.append(_affine_point(x, y, level))
    points.append(InfinitePoint())
    return points


def count_rational(curve: PlaneCurve, level: int = 1) -> int:
    """Number of points at the given level: |ker A| for each x whose
    P(x) + c lies in im A, plus the point at infinity."""
    _, rhs, in_image, a_map = _census_setup(curve, level)
    return sum(map(in_image.__getitem__, rhs)) * len(a_map.kernel) + 1


def is_rational(curve: PlaneCurve, point: CurvePoint) -> bool:
    """True iff the point is GF(q^2)-rational: at once for the point at
    infinity and at level 1, whose coordinates lie in GF(q^2)."""
    if isinstance(point, InfinitePoint) or point.level == 1:
        return True
    return point.x.in_subfield(2 * curve.t) and point.y.in_subfield(2 * curve.t)


def on_curve(curve: PlaneCurve, point: CurvePoint) -> bool:
    if isinstance(point, InfinitePoint):
        return True
    return not curve.evaluate(point.x, point.y)


def hasse_weil_max(q: int, g: int) -> int:
    """The Hasse-Weil upper bound q^2 + 1 + 2qg for GF(q^2)-points."""
    if g < 0:
        raise ValueError("genus must be non-negative")
    return q * q + 1 + 2 * q * g


def is_maximal(curve: PlaneCurve, g: int) -> bool:
    """True iff the level-1 point count attains the Hasse-Weil bound."""
    return count_rational(curve, 1) == hasse_weil_max(curve.q, g)


def g1(q: int) -> int:
    """Largest genus of a GF(q^2)-maximal curve: q(q-1)/2."""
    return q * (q - 1) // 2


def g2(q: int) -> int:
    """Second-largest genus floor((q-1)^2/4); equals q(q-2)/4 for even q."""
    return (q - 1) ** 2 // 4


def genus_bounds(q: int, n: int) -> Fraction:
    """Exact upper bound for 2g when the one-point system has projective
    dimension n+1: (q - n/2)^2/n for even n, else ((q - n/2)^2 - 1/4)/n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if n % 2 == 0:
        return Fraction((2 * q - n) ** 2, 4 * n)
    return Fraction((2 * q - n) ** 2 - 1, 4 * n)


@dataclass(frozen=True)
class CensusReport:
    q: int
    family: str
    level: int
    count: int
    genus: int
    expected: int
    maximal: bool

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "family": self.family,
            "level": self.level,
            "count": self.count,
            "expected": self.expected,
            "maximal": self.maximal,
        }


def census_report(curve: PlaneCurve, genus: int, level: int = 1) -> CensusReport:
    """The point count at a level against the L-polynomial prediction
    q^(2k) + 1 - 2g(-q)^k, k = level, of a maximal curve of genus g; at
    level 1 that is the Hasse-Weil bound, which alone decides maximality."""
    if genus < 0:
        raise ValueError("genus must be non-negative")
    count = count_rational(curve, level)
    q = curve.q
    expected = q ** (2 * level) + 1 - 2 * genus * (-q) ** level
    return CensusReport(
        q=q,
        family=curve.family,
        level=level,
        count=count,
        genus=genus,
        expected=expected,
        maximal=(level == 1 and count == expected),
    )


def curve_genus(curve: PlaneCurve) -> int:
    """The genus (deg A - 1)(deg P - 1)/2 of the curve's additive model."""
    return curve.model(1).genus


def sample_points(
    curve: PlaneCurve,
    level: int,
    count: int,
    rng,
    rational: bool | None = None,
    exclude_infinity: bool = True,
) -> list[CurvePoint]:
    """Deterministic sample of enumerated points, filtered by rationality.

    With rational=None all points qualify; True keeps GF(q^2)-rational
    ones; False keeps the rest.  Sampling is without replacement; if
    fewer points qualify than requested the full list is returned.  Each
    point returned is checked against the curve's equation, raising
    :class:`fields.CheckFailed` for one the census should not have listed.
    """
    pool = enumerate_points(curve, level)
    if exclude_infinity:
        pool.pop()  # the point at infinity, always listed last
    if rational is not None:
        pool = [p for p in pool if is_rational(curve, p) == rational]
    drawn = pool if count >= len(pool) else rng.sample(pool, count)
    for p in drawn:
        if not on_curve(curve, p):
            raise CheckFailed(
                f"the level-{level} census of the {curve.family} curve lists {p!r}, not on it"
            )
    return drawn
