"""Exact point enumeration over GF(q^2) and GF(q^4), and maximality checks.

Every curve is held as its additive model A(y) = P(x) + c
(:class:`curves.AdditiveModel`), so A is GF(2)-linear and each fibre of A
is empty or a coset of ker A.  One Gaussian elimination on the images
A(1 << j) (:func:`fields.additive_map`) gives ker A, a reduced basis of
im A and a linear section of it.  A table over the masks, a list of 0/1
ints set on the 2^rank points spanned from c by the basis, marks the
coset im A + c: the values of P alone that pass, so the
constant is never added to 2^m values.  Both depend on A and c alone,
and the model holds them (:attr:`curves.AdditiveModel.reduction` and
``coset_table``), made on its first census.  The built-in curves are
interned, so for them each is made once per process; every count and
enumeration still walks P and builds its result anew.  Counting adds
2^(dim ker A) for each x that passes.  P(0) = 0, since every exponent of P is positive,
and the values at x = g^i != 0 are read in log order as one period of
the walk (:meth:`fields.BinaryField.values_by_log`), strided slices of
the antilog table: P(g^i) depends on i mod p/d only, where p = 2^m - 1
and d = gcd(p, the exponents of P), so a count adds d for each passing
entry of the period.  The census's x^(q+1) has d = q + 1 at both levels,
so at q = 16 a level-2 count reads 3855 values, not 65535; x-linear
terms, as on a sheared or extended curve, make d = 1 and the walk whole.
Enumeration takes the passing residues i < p/d of the same period, and
the x with log x = i mod p/d are one strided slice of the antilog
table; the x are sorted, and each reads its P(x) at entry log x mod p/d.
No list over all 2^m masks is made.  The section is GF(2)-linear and its y is
the least of its coset, so the fibre over x is lift(P(x) + c) + ker A in
ascending order, and it depends on P(x) alone.  P(x) takes few values:
at level 1, x^(q+1) lies in GF(q), so at q = 16 the Hermitian curve's
256 x share 16 fibres, and at level 2 the trace curve's 4608 passing x
share 272.  So each distinct value is lifted once and its fibre made
once, as one list of elements, and the y column is those lists chained
in x order.  Elements are made in bulk (:meth:`fields.BinaryField.elements`),
one per passing x and one per y mask; distinct values have disjoint
fibres, so a y shared by many points is one object, and no table over
the whole field is built (at level 2 most masks are never a y).
:class:`AffinePoint` is a slotted frozen dataclass; the enumerated points
are made bare and then filled column by column, one C-level pass of a
slot's setter over the whole list per slot, without the generated
``__init__`` and its ``object.__setattr__`` per field.  Those passes are
most of an enumeration: about 1.1 of 1.3 ms for the 4096 Hermitian
points at q = 16, and 9 of 15 ms for the 36864 level-2 trace-curve
points (timeit minima on a shared 2-core x86-64 machine).  Every level-1
point is GF(q^2)-rational without a Frobenius test.  As deg A and deg P
are coprime, one point lies over x = infinity, and it is rational: each
census adds it, never finding it by a blow-up.

Censuses cover the fields with an antilog table, those of at most 2^16
elements: every level-1 field, and level 2 for q <= 16.  A
:class:`fields.TowerField` is refused with :class:`CensusLimitError`:
GF(2^20) multiplies through its tower and has no antilog table to walk,
and 2^20 evaluations of the x-part there would take seconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import Union

from .curves import AdditiveModel, PlaneCurve
from .fields import BinaryField, CheckFailed, FieldElement, GF2Reduction, TowerField


class CensusLimitError(ValueError):
    """Full enumeration refused: the field at this level is too large."""


@dataclass(frozen=True, slots=True)
class AffinePoint:
    """An affine point at tower level 1 (coordinates in GF(q^2)) or 2
    (GF(q^4)).

    A frozen, slotted dataclass.  :func:`enumerate_points` makes its
    points with ``object.__new__`` and fills each slot for the whole list
    through the slot's member descriptor, instead of calling the
    generated ``__init__``; equality, hashing, the repr and
    ``dataclasses.replace`` are the same either way.
    """

    x: FieldElement
    y: FieldElement
    level: int

    def __repr__(self) -> str:
        return f"({self.x.hex()},{self.y.hex()})@{self.level}"


_set_x, _set_y, _set_level = (AffinePoint.__dict__[f].__set__ for f in ("x", "y", "level"))


@dataclass(frozen=True)
class InfinitePoint:
    """The single point over x = infinity."""

    def __repr__(self) -> str:
        return "P_inf"


CurvePoint = Union[AffinePoint, InfinitePoint]


def _census_field(curve: PlaneCurve, level: int) -> BinaryField:
    fld = curve.level_field(level)
    if isinstance(fld, TowerField):  # no antilog table for values_by_log to walk
        raise CensusLimitError(
            f"census over GF(2^{fld.m}) refused: censuses cover fields of at most 2^16 elements"
        )
    return fld


def _census_setup(
    curve: PlaneCurve, level: int
) -> tuple[BinaryField, AdditiveModel, list[int], GF2Reduction]:
    """The field, the model A(y) = P(x) + c, the membership table of the
    coset im A + c, which a value of P alone is looked up in, and the
    reduced A; the model holds the last two."""
    fld = _census_field(curve, level)
    model = curve.model(level)
    return fld, model, model.coset_table, model.reduction


def enumerate_points(curve: PlaneCurve, level: int) -> list[CurvePoint]:
    """All points at the given tower level, affine ones in lexicographic
    order of serialized (x, y), then the point at infinity."""
    fld, model, in_image, a_map = _census_setup(curve, level)
    walk = fld.values_by_log(model.xpart)  # P(g^i) = walk[i % n]
    n, period, exp, log = len(walk), fld.order - 1, fld._exp, fld._log
    # the x with log x = i mod n are the strided slice exp[i : p : n]
    residues = compress(range(n), map(in_image.__getitem__, walk))
    xs = sorted(chain.from_iterable(map(exp.__getitem__, map(slice, residues, repeat(period), repeat(n)))))
    x_rhs = [walk[log[x] % n] for x in xs]
    if in_image[0]:  # P(0) = 0, and 0 is the least mask
        xs.insert(0, 0)
        x_rhs.insert(0, 0)
    kernel = a_map.kernel
    fibres = {}  # P(x) -> the y over x, lift(P(x) + c) + ker A, ascending
    for v in set(x_rhs):
        y0 = a_map.lift(v ^ model.const)
        fibres[v] = fld.elements([y0 ^ k for k in kernel])
    x_column = chain.from_iterable(map(repeat, fld.elements(xs), repeat(len(kernel))))
    points: list[CurvePoint] = list(map(object.__new__, repeat(AffinePoint, len(xs) * len(kernel))))
    deque(map(_set_x, points, x_column), maxlen=0)
    deque(map(_set_y, points, chain.from_iterable(map(fibres.__getitem__, x_rhs))), maxlen=0)
    deque(map(_set_level, points, repeat(level)), maxlen=0)
    points.append(InfinitePoint())
    return points


def count_rational(curve: PlaneCurve, level: int = 1) -> int:
    """Number of points at the given level: |ker A| for each x whose
    P(x) + c lies in im A, plus the point at infinity.  Every exponent of
    P is positive, so x = 0 gives P(0) = 0; the nonzero x are read from
    one period of the walk in log order, each of its values taken by
    (2^m - 1)/len(walk) of them."""
    fld, model, in_image, a_map = _census_setup(curve, level)
    walk = fld.values_by_log(model.xpart)
    nonzero = (fld.order - 1) // len(walk) * sum(map(in_image.__getitem__, walk))
    return (in_image[0] + nonzero) * len(a_map.kernel) + 1


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
    """Largest genus of a GF(q^2)-maximal curve: q(q-1)/2, the bound at n = 1."""
    return genus_bounds(q, 1) // 2


def g2(q: int) -> int:
    """Second-largest genus floor((q-1)^2/4), the bound at n = 2; equals
    q(q-2)/4 for even q."""
    return genus_bounds(q, 2) // 2


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
    """A point count at one tower level against the L-polynomial
    prediction.  ``maximal`` is the verdict of the level-1 count alone
    (the Hasse-Weil bound), and None at level 2: N_2 = q^4 + 1 - 2g q^2
    says only that every Frobenius eigenvalue over GF(q^2) is q or -q,
    which does not decide maximality."""

    q: int
    family: str
    level: int
    count: int
    genus: int
    expected: int
    maximal: bool | None

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
    level 1 that is the Hasse-Weil bound, which alone decides maximality,
    and at level 2 the report makes no maximality verdict (see
    :class:`CensusReport`)."""
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
        maximal=count == expected if level == 1 else None,
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
) -> list[AffinePoint]:
    """Deterministic sample of enumerated affine points, filtered by rationality.

    With rational=None all points qualify; True keeps GF(q^2)-rational
    ones; False keeps the rest.  At level 1 every point is rational, so
    the pool is kept whole or emptied without a test per point.  Sampling
    is without replacement; if fewer points qualify than requested the
    full list is returned.  Each point returned is checked against the
    curve's equation, raising :class:`fields.CheckFailed` for one the
    census should not have listed.
    """
    pool = enumerate_points(curve, level)
    pool.pop()  # the point at infinity, always listed last
    if rational is not None and level == 1:
        pool = pool if rational else []
    elif rational is not None:
        pool = [p for p in pool if is_rational(curve, p) == rational]
    drawn = pool if count >= len(pool) else rng.sample(pool, count)
    for p in drawn:
        if not on_curve(curve, p):
            raise CheckFailed(
                f"the level-{level} census of the {curve.family} curve lists {p!r}, not on it"
            )
    return drawn
