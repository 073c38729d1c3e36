"""Plane models of the built-in curve families over GF(q^2), q = 2^t.

Four families are supported:

    hermitian            y^q + y + x^(q+1)
    trace-standard       x^(q+1) + sum_{i=1..t} y^(q/2^i)
    trace-form           x^(q+1) + sum a_i y^(q/2^i) + b
    trace-form-extended  x^(q+1) + sum a_i y^(q/2^i) + sum b_i x^(q/2^i) + b_0

Polynomials are sparse (exponent pair -> coefficient); the models have
O(t) terms.  Defining polynomials are kept canonical: the coefficient of
the graded-lex leading monomial x^(q+1) is 1.  Each reads A(y) = P(x) + c
with A additive: the :class:`AdditiveModel` that census, series and
orders read.  With a = deg A and b = deg P coprime, x and y have pole
orders a and b at the one point over x = infinity, its semigroup is
<a, b> and the genus is (a-1)(b-1)/2 (Stichtenoth, *Algebraic Function
Fields and Codes*, ch. 6).

``normalize`` reduces a trace-form or extended curve to the standard
curve through an explicit sequence of invertible coordinate changes
(shear, y-scaling, y-translation, x-scaling), and refuses inputs whose
coefficients fail the identities that characterize the standard curve's
GF(q^2)-isomorphism class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .fields import BinaryField, CheckFailed, FieldElement, linearized_solve, make_field
from .semigroups import NumericalSemigroup

FAMILIES = ("hermitian", "trace-standard", "trace-form", "trace-form-extended")
CHANGE_KINDS = ("scale-y", "translate-y", "shear", "scale-x")


class NormalizationError(ValueError):
    """Input curve is not in the standard curve's isomorphism class."""


def _submasks(j: int) -> Iterable[int]:
    """All k with binom(j, k) odd, i.e. the bitwise submasks of j (Lucas)."""
    k = j
    while True:
        yield k
        if k == 0:
            return
        k = (k - 1) & j


class Poly2:
    """Sparse bivariate polynomial over a fixed binary field."""

    __slots__ = ("field", "terms")

    def __init__(self, field: BinaryField, terms: dict[tuple[int, int], int]) -> None:
        self.field = field
        self.terms = {e: c for e, c in terms.items() if c}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly2)
            and other.field is self.field
            and other.terms == self.terms
        )

    def __hash__(self) -> int:
        return hash((id(self.field), tuple(sorted(self.terms.items()))))

    def __repr__(self) -> str:
        parts = []
        for (i, j), c in sorted(self.terms.items()):
            mono = "".join(
                (f"x^{i}" if i > 1 else "x" * i, f"y^{j}" if j > 1 else "y" * j)
            )
            parts.append(f"{self.field.to_hex(c)}*{mono}" if mono else self.field.to_hex(c))
        return " + ".join(parts) or "0"

    def coefficient(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.terms.get((i, j), 0), self.field)

    def evaluate(self, x: FieldElement, y: FieldElement) -> FieldElement:
        if x.field is not self.field or y.field is not self.field:
            raise ValueError("evaluation point lives in a different field")
        fld = self.field
        xpow: dict[int, int] = {}
        ypow: dict[int, int] = {}
        acc = 0
        for (i, j), c in self.terms.items():
            if i not in xpow:
                xpow[i] = fld.pow_int(x.bits, i)
            if j not in ypow:
                ypow[j] = fld.pow_int(y.bits, j)
            acc ^= fld.mul_int(c, fld.mul_int(xpow[i], ypow[j]))
        return FieldElement(acc, fld)

    def embed_into(self, target: BinaryField) -> Poly2:
        return Poly2(
            target,
            {e: target.embed(FieldElement(c, self.field)).bits for e, c in self.terms.items()},
        )

    def leading_monomial(self) -> tuple[int, int]:
        return max(self.terms, key=lambda e: (e[0] + e[1], e))

    def canonical(self) -> Poly2:
        """Scale so the graded-lex leading coefficient equals 1."""
        if not self.terms:
            return self
        lead = self.terms[self.leading_monomial()]
        if lead == 1:
            return self
        inv = self.field.inv_int(lead)
        return Poly2(self.field, {e: self.field.mul_int(c, inv) for e, c in self.terms.items()})


@dataclass(frozen=True)
class AdditiveModel:
    """A(y) = P(x) + c at one tower level: ypart = {2^k: a} is A,
    xpart = {i: b} is P and const is c, all masks of ``field``."""

    field: BinaryField
    xpart: dict[int, int]
    ypart: dict[int, int]
    const: int

    @classmethod
    def parse(cls, poly: Poly2) -> AdditiveModel:
        """Raises ValueError for a mixed term or a y exponent that is not a power of 2."""
        terms = poly.terms
        if any((i and j) or j & (j - 1) for i, j in terms):
            raise ValueError(
                "mixed or non-2-power y term; the model must read A(y) = P(x) + c, A additive"
            )
        xpart = {i: c for (i, j), c in terms.items() if i}
        ypart = {j: c for (i, j), c in terms.items() if j}
        return cls(poly.field, xpart, ypart, terms.get((0, 0), 0))

    @property
    def pole_orders(self) -> tuple[int, int]:
        """(deg A, deg P): the pole orders of x and y at the point over
        x = infinity, which is unique when they are coprime."""
        a, b = max(self.ypart, default=0), max(self.xpart, default=0)
        if gcd(a, b) != 1:
            raise ValueError(f"deg A = {a} and deg P = {b} are not coprime")
        return a, b

    @property
    def genus(self) -> int:
        a, b = self.pole_orders
        return (a - 1) * (b - 1) // 2

    def semigroup(self) -> NumericalSemigroup:
        """The Weierstrass semigroup <deg A, deg P> at the point at infinity."""
        return NumericalSemigroup(self.pole_orders)


@dataclass(frozen=True)
class CoordinateChange:
    """One invertible coordinate change; ``constant`` lives in GF(q^2).

    Point maps: scale-y c: (x,y) -> (x, c*y);  translate-y a: (x,y) -> (x, y+a);
    shear b: (x,y) -> (x, b*x + y);  scale-x c: (x,y) -> (c*x, y).
    """

    kind: str
    constant: FieldElement

    def __post_init__(self) -> None:
        if self.kind not in CHANGE_KINDS:
            raise ValueError(f"unknown change kind {self.kind!r}")
        if self.kind in ("scale-y", "scale-x") and not self.constant:
            raise ValueError("scale constant must be nonzero")

    def apply_to_xy(self, x: FieldElement, y: FieldElement) -> tuple[FieldElement, FieldElement]:
        c = self.constant
        if c.field is not x.field:
            c = x.field.embed(c)
        if self.kind == "scale-y":
            return x, c * y
        if self.kind == "translate-y":
            return x, y + c
        if self.kind == "shear":
            return x, c * x + y
        return c * x, y

    def to_json(self) -> dict:
        return {"kind": self.kind, "constant": self.constant.hex()}


IsomorphismRecord = list[CoordinateChange]


class PlaneCurve:
    """A plane model from one of the built-in families."""

    __slots__ = ("field", "t", "q", "poly", "family", "_quartic_poly", "_models")

    def __init__(self, field: BinaryField, poly: Poly2, family: str):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.field = field
        self.t = field.t
        self.q = field.q
        self.poly = poly.canonical()
        self.family = family
        self._quartic_poly: Poly2 | None = None
        self._models: dict[int, AdditiveModel] = {}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PlaneCurve)
            and other.field is self.field
            and other.family == self.family
            and other.poly == self.poly
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.family, self.poly))

    def __repr__(self) -> str:
        return f"PlaneCurve(q={self.q}, family={self.family!r}, {self.poly!r})"

    def level_field(self, level: int) -> BinaryField:
        if level == 1:
            return self.field
        if level == 2:
            return make_field(self.t, "quartic")
        raise ValueError(f"level must be 1 or 2, got {level}")

    def poly_at_level(self, level: int) -> Poly2:
        if level == 1:
            return self.poly
        if self._quartic_poly is None:
            self._quartic_poly = self.poly.embed_into(self.level_field(2))
        return self._quartic_poly

    def model(self, level: int) -> AdditiveModel:
        """The additive model at a tower level, parsed once per curve."""
        model = self._models.get(level)
        if model is None:
            model = self._models[level] = AdditiveModel.parse(self.poly_at_level(level))
        return model

    def evaluate(self, x: FieldElement, y: FieldElement) -> FieldElement:
        """F(x, y) for a point at either tower level."""
        if x.field is not y.field:
            raise ValueError("x and y live in different fields")
        if x.field is self.field:
            return self.poly.evaluate(x, y)
        if x.field is make_field(self.t, "quartic"):
            return self.poly_at_level(2).evaluate(x, y)
        raise ValueError("point field matches neither tower level of the curve")

    # -- coefficient views for the trace-shaped families ----------------------

    def y_coeffs(self) -> list[FieldElement]:
        """a_1..a_t, the coefficients of y^(q/2^i)."""
        return [self.poly.coefficient(0, self.q >> i) for i in range(1, self.t + 1)]

    def x_linear_coeffs(self) -> list[FieldElement]:
        """b_1..b_t, the coefficients of x^(q/2^i)."""
        return [self.poly.coefficient(self.q >> i, 0) for i in range(1, self.t + 1)]

    def constant_coeff(self) -> FieldElement:
        return self.poly.coefficient(0, 0)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "family": self.family,
            "terms": [[i, j, self.field.to_hex(c)] for (i, j), c in sorted(self.poly.terms.items())],
        }


def _classify(field: BinaryField, poly: Poly2) -> str:
    q, t = field.q, field.t
    terms = poly.terms
    if terms.get((q + 1, 0)) != 1:
        raise ValueError("defining polynomial lacks a monic x^(q+1) term")
    hermitian_terms = {(q + 1, 0): 1, (0, q): 1, (0, 1): 1}
    if terms == hermitian_terms:
        return "hermitian"
    standard_terms = {(q + 1, 0): 1}
    standard_terms.update({(0, q >> i): 1 for i in range(1, t + 1)})
    if terms == standard_terms:
        return "trace-standard"
    y_exps = {q >> i for i in range(1, t + 1)}
    x_exps = {q >> i for i in range(1, t + 1)}
    has_x_linear = False
    for (i, j) in terms:
        if (i, j) == (q + 1, 0) or (i, j) == (0, 0):
            continue
        if i == 0 and j in y_exps:
            continue
        if j == 0 and i in x_exps:
            has_x_linear = True
            continue
        raise ValueError(f"term x^{i} y^{j} outside the supported families")
    if terms.get((0, q >> 1), 0) == 0:
        raise ValueError("trace-form curves need a nonzero leading y-coefficient a_1")
    return "trace-form-extended" if has_x_linear else "trace-form"


def _curve_from_poly(field: BinaryField, poly: Poly2) -> PlaneCurve:
    poly = poly.canonical()
    return PlaneCurve(field, poly, _classify(field, poly))


def hermitian(t: int) -> PlaneCurve:
    """The Hermitian curve y^q + y = x^(q+1) over GF(q^2), q = 2^t."""
    field = make_field(t)
    q = field.q
    poly = Poly2(field, {(q + 1, 0): 1, (0, q): 1, (0, 1): 1})
    return PlaneCurve(field, poly, "hermitian")


def trace_curve(t: int) -> PlaneCurve:
    """The curve sum_{i=1..t} y^(q/2^i) = x^(q+1) over GF(q^2), q = 2^t."""
    field = make_field(t)
    q = field.q
    terms = {(q + 1, 0): 1}
    terms.update({(0, q >> i): 1 for i in range(1, t + 1)})
    poly = Poly2(field, terms)
    return PlaneCurve(field, poly, "trace-standard")


def trace_form(a: Sequence[FieldElement], b: FieldElement) -> PlaneCurve:
    """The curve sum a_i y^(q/2^i) + b = x^(q+1) with given coefficients."""
    field = b.field
    t, q = field.t, field.q
    if len(a) != t:
        raise ValueError(f"expected t={t} y-coefficients, got {len(a)}")
    if not a[0]:
        raise ValueError("a_1 must be nonzero")
    terms = {(q + 1, 0): 1, (0, 0): b.bits}
    for i, ai in enumerate(a, start=1):
        if ai.field is not field:
            raise ValueError("coefficients live in different fields")
        terms[(0, q >> i)] = ai.bits
    return _curve_from_poly(field, Poly2(field, terms))


def trace_form_extended(a: Sequence[FieldElement], b_list: Sequence[FieldElement]) -> PlaneCurve:
    """Like trace_form, with x-linearized terms: b_list is b_0, b_1, ..., b_t."""
    field = b_list[0].field
    t, q = field.t, field.q
    if len(b_list) != t + 1:
        raise ValueError(f"expected b_0..b_t (t+1={t + 1} values), got {len(b_list)}")
    base = trace_form(a, b_list[0])
    terms = dict(base.poly.terms)
    for i in range(1, t + 1):
        bi = b_list[i]
        if bi.bits:
            terms[(q >> i, 0)] = terms.get((q >> i, 0), 0) ^ bi.bits
    return _curve_from_poly(field, Poly2(field, terms))


# -- coordinate changes --------------------------------------------------------


def _transform_poly(poly: Poly2, change: CoordinateChange) -> Poly2:
    """The defining polynomial of the image curve: F composed with the
    inverse point map, recanonicalized."""
    fld = poly.field
    c = change.constant
    if c.field is not fld:
        raise ValueError("change constant lives in a different field")
    out: dict[tuple[int, int], int] = {}

    def put(e: tuple[int, int], v: int) -> None:
        out[e] = out.get(e, 0) ^ v

    if change.kind == "scale-y":
        cinv = fld.inv_int(c.bits)
        for (i, j), v in poly.terms.items():
            put((i, j), fld.mul_int(v, fld.pow_int(cinv, j)))
    elif change.kind == "scale-x":
        cinv = fld.inv_int(c.bits)
        for (i, j), v in poly.terms.items():
            put((i, j), fld.mul_int(v, fld.pow_int(cinv, i)))
    elif change.kind == "translate-y":
        for (i, j), v in poly.terms.items():
            for k in _submasks(j):
                put((i, k), fld.mul_int(v, fld.pow_int(c.bits, j - k)))
    else:  # shear: y -> b*x + y
        for (i, j), v in poly.terms.items():
            for k in _submasks(j):
                put((i + j - k, k), fld.mul_int(v, fld.pow_int(c.bits, j - k)))
    return Poly2(fld, out).canonical()


def apply_change(curve: PlaneCurve, change: CoordinateChange) -> PlaneCurve:
    return _curve_from_poly(curve.field, _transform_poly(curve.poly, change))


def apply_record(curve: PlaneCurve, record: Sequence[CoordinateChange]) -> PlaneCurve:
    for change in record:
        curve = apply_change(curve, change)
    return curve


def replay_xy(
    record: Sequence[CoordinateChange], x: FieldElement, y: FieldElement
) -> tuple[FieldElement, FieldElement]:
    """Push an affine point through every change of a record, in order."""
    for change in record:
        x, y = change.apply_to_xy(x, y)
    return x, y


def record_to_json(record: Sequence[CoordinateChange]) -> list[dict]:
    return [change.to_json() for change in record]


def record_from_json(data: Sequence[dict], field: BinaryField) -> list[CoordinateChange]:
    return [CoordinateChange(d["kind"], field.from_hex(d["constant"])) for d in data]


def curve_from_json(data: object) -> PlaneCurve:
    """The curve of a :meth:`PlaneCurve.to_json` document.  Raises
    ValueError unless the input is an object with an integer ``q`` and
    ``terms``, a list of [int, int, hex string] triples."""
    if not isinstance(data, dict):
        raise ValueError("curve JSON must be an object")
    q, raw_terms = data.get("q"), data.get("terms")
    if type(q) is not int:  # bool, a subclass of int, is refused too
        raise ValueError("curve JSON needs an integer 'q'")
    if not isinstance(raw_terms, list) or not all(
        isinstance(term, list) and [type(v) for v in term] == [int, int, str] for term in raw_terms
    ):
        raise ValueError("curve JSON needs 'terms', a list of [int, int, hex string] triples")
    t = q.bit_length() - 1
    if q < 1 or q != 1 << t:
        raise ValueError(f"q={q} is not a power of two")
    field = make_field(t)
    terms = {(i, j): field.from_hex(h).bits for i, j, h in raw_terms}
    curve = _curve_from_poly(field, Poly2(field, terms))
    if data.get("family") and data["family"] != curve.family:
        raise ValueError(f"declared family {data['family']!r}, classified {curve.family!r}")
    return curve


# -- coefficient identities and normalization ----------------------------------


def fact0_identities(a: Sequence[FieldElement], b: FieldElement) -> dict[str, bool]:
    """The five coefficient identities satisfied inside the standard
    curve's isomorphism class, for a_t = 1 (t >= 2):

        (i)   1 + a_{t-1} a_1^(2q) = 0
        (ii)  1 + a_{t-1} a_1^2 = 0
        (iii) a_i + a_{t-1} a_{i+1}^2 = 0         (i = 1..t-1)
        (iv)  a_i^q + a_{t-1} a_{i+1}^(2q) = 0    (i = 1..t-1)
        (v)   b + b^q + a_{t-1} (b^2 + b^(2q)) = 0
    """
    t = len(a)
    if t < 2:
        raise ValueError("identities are defined for t >= 2 only")
    field = b.field
    if a[-1] != field.one:
        raise ValueError("normalize a_t to 1 (scale-y) before checking identities")
    q = field.q
    one = field.one
    at1 = a[t - 2]
    report = {
        "i": one + at1 * a[0] ** (2 * q) == field.zero,
        "ii": one + at1 * a[0] ** 2 == field.zero,
        "iii": all(a[i - 1] + at1 * a[i] ** 2 == field.zero for i in range(1, t)),
        "iv": all(a[i - 1] ** q + at1 * a[i] ** (2 * q) == field.zero for i in range(1, t)),
        "v": b + b ** q + at1 * (b ** 2 + b ** (2 * q)) == field.zero,
    }
    return report


def normalize(curve: PlaneCurve) -> tuple[PlaneCurve, list[CoordinateChange]]:
    """Reduce a trace-form or extended curve to the standard curve.

    Returns the standard curve and the record of coordinate changes that
    maps points of the input onto points of the output.  Raises
    :class:`NormalizationError` when a coefficient identity fails or no
    y-translation over GF(q^2) exists, i.e. the input is not in the
    standard curve's GF(q^2)-isomorphism class.
    """
    if curve.family == "trace-standard":
        return curve, []
    if curve.family not in ("trace-form", "trace-form-extended"):
        raise NormalizationError(f"cannot normalize family {curve.family!r}")
    field = curve.field
    t, q = curve.t, curve.q
    one = field.one
    record: list[CoordinateChange] = []

    def step(work: PlaneCurve, change: CoordinateChange) -> PlaneCurve:
        record.append(change)
        return apply_change(work, change)

    work = curve
    a = work.y_coeffs()
    if not a[-1]:
        raise NormalizationError("a_t = 0: the model is singular, not in the class")
    if a[-1] != one:
        # the x-term relations below presume a monic y-part, so scale first
        work = step(work, CoordinateChange("scale-y", a[-1]))
        a = work.y_coeffs()

    if work.family == "trace-form-extended":
        bx = work.x_linear_coeffs()
        bt = bx[-1]
        for i in range(1, t + 1):
            if bx[i - 1] != a[i - 1] * bt ** (q >> i):
                raise NormalizationError(
                    f"x-coefficient b_{i} breaks the relation b_i = a_i * b_t^(q/2^{i})"
                )
        work = step(work, CoordinateChange("shear", bt))
        if work.family == "trace-form-extended":
            raise NormalizationError("shear failed to clear the x-linearized terms")
        a = work.y_coeffs()

    if t >= 2:
        report = fact0_identities(a, work.constant_coeff())
        failed = [name for name, ok in report.items() if not ok]
        if failed:
            raise NormalizationError(f"coefficient identities failed: {', '.join(failed)}")

    b = work.constant_coeff()
    if b:
        solutions = linearized_solve(a, b)
        if not solutions:
            raise NormalizationError("no y-translation over GF(q^2) clears the constant")
        # any solution works (they differ by kernel elements); smallest mask
        # keeps records deterministic
        work = step(work, CoordinateChange("translate-y", solutions[0]))
        a = work.y_coeffs()

    if any(ai != one for ai in a):
        work = step(work, CoordinateChange("scale-x", a[0].inv()))
        work = step(work, CoordinateChange("scale-y", a[t - 2]))

    target = trace_curve(t)
    if work != target:
        raise CheckFailed("normalization did not land on the standard curve")
    return work, record
