"""Plane models of the built-in curve families over GF(q^2), q = 2^t.

Four families are supported:

    hermitian            y^q + y + x^(q+1)
    trace-standard       x^(q+1) + sum_{i=1..t} y^(q/2^i)
    trace-form           x^(q+1) + sum a_i y^(q/2^i) + b
    trace-form-extended  x^(q+1) + sum a_i y^(q/2^i) + sum b_i x^(q/2^i) + b_0

Each reads A(y) = P(x) + c with A additive, and a curve is held as that
one :class:`AdditiveModel`: the parts A = {2^k: a} and P = {i: b} and
the constant c, O(t) coefficients in all.  Census, series and orders
read it; at level 2 it is the same model embedded in GF(q^4), once per
curve, and :meth:`PlaneCurve.model_at` picks the model of a point's
field.  The model holds its reduction of A and the membership table of
the coset im A + c, made on first use.  :func:`hermitian` and
:func:`trace_curve` are interned, one curve per field as
:func:`fields.make_field` interns fields, so the embedding, reductions
and tables of the built-in curves are made once per process.  The model
is kept canonical: the coefficient of the graded-lex leading monomial
x^(q+1) is 1.  Coordinate changes act on the parts.  A trace form or a
JSON document is scaled, classified and then split into them, so a term
outside the families (a mixed term, or a y-power that is not a power of
2) is refused when the curve is built.  With a = deg A and b = deg P
coprime, x and y have pole orders a and b at the one point over
x = infinity, its semigroup is <a, b> and the genus is (a-1)(b-1)/2
(Stichtenoth, *Algebraic Function Fields and Codes*, ch. 6).

``normalize`` reduces a trace-form or extended curve to the standard
curve through an explicit sequence of invertible coordinate changes
(shear, y-scaling, y-translation, x-scaling).  On every such model x has
pole order q/2 at infinity, so by the paper's theorem the standard
curve's GF(q^2)-isomorphism class is the set of maximal models, and
``normalize`` refuses the others through the maximality criterion it
reads off one reduction of A (see :func:`normalize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Callable, Sequence

from .fields import BinaryField, CheckFailed, FieldElement, GF2Reduction, additive_map, make_field
from .semigroups import NumericalSemigroup

FAMILIES = ("hermitian", "trace-standard", "trace-form", "trace-form-extended")
CHANGE_KINDS = ("scale-y", "translate-y", "shear", "scale-x")


class NormalizationError(ValueError):
    """Input curve is not in the standard curve's isomorphism class."""


@dataclass(frozen=True)
class AdditiveModel:
    """A(y) = P(x) + c at one tower level: ypart = {2^k: a} is A,
    xpart = {i: b} is P and const is c, all masks of ``field``.

    The model holds what depends on A and c alone, made on first use:
    :attr:`reduction` and :attr:`coset_table`.  It holds no count, point
    or expansion.
    """

    field: BinaryField
    xpart: dict[int, int]
    ypart: dict[int, int]
    const: int

    def terms(self) -> dict[tuple[int, int], int]:
        """The polynomial A(y) + P(x) + c as {(i, j): coefficient of x^i y^j},
        in ascending exponent order."""
        terms = {(i, 0): c for i, c in self.xpart.items()}
        terms.update({(0, j): c for j, c in self.ypart.items()})
        if self.const:
            terms[(0, 0)] = self.const
        return dict(sorted(terms.items()))

    @cached_property
    def reduction(self) -> GF2Reduction:
        """A reduced as a GF(2)-linear map of the field
        (:func:`fields.additive_map`): ker A, the parity checks and basis
        of im A, and a section."""
        return additive_map(self.field, self.ypart)

    @cached_property
    def coset_table(self) -> list[int]:
        """The membership table of the coset im A + c over the masks of
        the field (:meth:`fields.GF2Reduction.image_table`), which a
        value of P alone is looked up in: 2^m entries, 512 KiB at
        m = 16."""
        return self.reduction.image_table(self.field.order, self.const)

    def embed_into(self, target: BinaryField) -> AdditiveModel:
        """The same model over ``target``, the quartic field above this
        model's field: each coefficient is one entry of the quartic
        field's embedding table, with no element made for it."""
        if target is self.field or target.base is not self.field:
            raise ValueError(f"cannot embed {self.field!r} into {target!r}")
        table = target._from_base
        return AdditiveModel(
            target,
            {i: table[c] for i, c in self.xpart.items()},
            {j: table[c] for j, c in self.ypart.items()},
            table[self.const],
        )

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


class PlaneCurve:
    """A plane model from one of the built-in families, held as its
    additive model over GF(q^2)."""

    __slots__ = ("field", "t", "q", "family", "_models")

    def __init__(self, model: AdditiveModel, family: str):
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.field = model.field
        self.t = self.field.t
        self.q = self.field.q
        self.family = family
        self._models = {1: model}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PlaneCurve)
            and other.field is self.field
            and other.family == self.family
            and other.model(1) == self.model(1)
        )

    def __hash__(self) -> int:
        return hash((id(self.field), self.family, tuple(self.model(1).terms().items())))

    def __repr__(self) -> str:
        parts = []
        for (i, j), c in self.model(1).terms().items():
            mono = "".join(
                (f"x^{i}" if i > 1 else "x" * i, f"y^{j}" if j > 1 else "y" * j)
            )
            parts.append(f"{self.field.to_hex(c)}*{mono}" if mono else self.field.to_hex(c))
        return f"PlaneCurve(q={self.q}, family={self.family!r}, {' + '.join(parts)})"

    def level_field(self, level: int) -> BinaryField:
        if level == 1:
            return self.field
        if level == 2:
            return make_field(self.t, "quartic")
        raise ValueError(f"level must be 1 or 2, got {level}")

    def model(self, level: int) -> AdditiveModel:
        """The additive model at a tower level; level 2 is the level-1
        model embedded, once per curve."""
        model = self._models.get(level)
        if model is None:
            model = self._models[level] = self._models[1].embed_into(self.level_field(level))
        return model

    def model_at(self, field: BinaryField) -> AdditiveModel:
        """The additive model over ``field``, the field of one of the two
        tower levels; any other field is refused."""
        if field is self.field:
            return self.model(1)
        if field is self.level_field(2):
            return self.model(2)
        raise ValueError("point field matches neither tower level of the curve")

    def evaluate(self, x: FieldElement, y: FieldElement) -> FieldElement:
        """A(y) + P(x) + c for a point at either tower level."""
        if x.field is not y.field:
            raise ValueError("x and y live in different fields")
        model = self.model_at(x.field)
        fld = model.field
        return FieldElement(
            model.const ^ fld.part_at(model.xpart, x.bits) ^ fld.part_at(model.ypart, y.bits),
            fld,
        )

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "family": self.family,
            "terms": [[i, j, self.field.to_hex(c)] for (i, j), c in self.model(1).terms().items()],
        }


def _classify(field: BinaryField, terms: dict[tuple[int, int], int]) -> str:
    q, t = field.q, field.t
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
    if terms.get((0, 1), 0) == 0:  # A inseparable: the genus formula would not hold
        raise ValueError("trace-form curves need a nonzero y-coefficient a_t")
    return "trace-form-extended" if has_x_linear else "trace-form"


def _curve_from_terms(field: BinaryField, terms: dict[tuple[int, int], int]) -> PlaneCurve:
    """The curve of sum c x^i y^j over terms = {(i, j): c}, scaled so the
    coefficient of its graded-lex leading monomial is 1, classified, and
    split into the parts of its additive model (classification refuses
    every term that is not x^i, y^(2^k) or 1)."""
    terms = {e: c for e, c in terms.items() if c}
    if terms:
        lead = terms[max(terms, key=lambda e: (e[0] + e[1], e))]
        if lead != 1:
            inv = field.inv_int(lead)
            terms = {e: field.mul_int(c, inv) for e, c in terms.items()}
    family = _classify(field, terms)
    xpart = {i: c for (i, j), c in terms.items() if i}
    ypart = {j: c for (i, j), c in terms.items() if j}
    return PlaneCurve(AdditiveModel(field, xpart, ypart, terms.get((0, 0), 0)), family)


_INTERNED: dict[tuple[str, int], PlaneCurve] = {}


def _interned(family: str, t: int, ypart: Callable[[int], dict[int, int]]) -> PlaneCurve:
    """The curve A(y) = x^(q+1), A = ypart(q), over the interned field
    make_field(t), made on the first call for that field object and
    returned on every later one.  A curve over a field that is no longer
    interned is replaced, so a fresh field gets a fresh curve."""
    field = make_field(t)
    curve = _INTERNED.get((family, t))
    if curve is None or curve.field is not field:
        q = field.q
        curve = _INTERNED[family, t] = PlaneCurve(AdditiveModel(field, {q + 1: 1}, ypart(q), 0), family)
    return curve


def hermitian(t: int) -> PlaneCurve:
    """The Hermitian curve y^q + y = x^(q+1) over GF(q^2), q = 2^t,
    interned: one curve per field, so its models, their embedding into
    GF(q^4) and their held reductions are made once per process."""
    return _interned("hermitian", t, lambda q: {q: 1, 1: 1})


def trace_curve(t: int) -> PlaneCurve:
    """The curve sum_{i=1..t} y^(q/2^i) = x^(q+1) over GF(q^2), q = 2^t,
    interned like :func:`hermitian`."""
    return _interned("trace-standard", t, lambda q: {q >> i: 1 for i in range(1, t + 1)})


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
    return _curve_from_terms(field, terms)


def trace_form_extended(a: Sequence[FieldElement], b_list: Sequence[FieldElement]) -> PlaneCurve:
    """Like trace_form, with x-linearized terms: b_list is b_0, b_1, ..., b_t."""
    field = b_list[0].field
    t, q = field.t, field.q
    if len(b_list) != t + 1:
        raise ValueError(f"expected b_0..b_t (t+1={t + 1} values), got {len(b_list)}")
    terms = trace_form(a, b_list[0]).model(1).terms()
    terms.update({(q >> i, 0): b_list[i].bits for i in range(1, t + 1)})
    return _curve_from_terms(field, terms)


# -- coordinate changes --------------------------------------------------------


def apply_change(curve: PlaneCurve, change: CoordinateChange) -> PlaneCurve:
    """The image curve: the model composed with the inverse point map,
    recanonicalized and reclassified."""
    model = curve.model(1)
    fld, c = model.field, change.constant.bits
    if change.constant.field is not fld:
        raise ValueError("change constant lives in a different field")
    xpart, ypart, const = dict(model.xpart), dict(model.ypart), model.const
    if change.kind == "scale-y":  # a_j -> a_j c^(-j)
        cinv = fld.inv_int(c)
        ypart = {j: fld.mul_int(a, fld.pow_int(cinv, j)) for j, a in ypart.items()}
    elif change.kind == "scale-x":  # b_i -> b_i c^(-i)
        cinv = fld.inv_int(c)
        xpart = {i: fld.mul_int(b, fld.pow_int(cinv, i)) for i, b in xpart.items()}
    elif change.kind == "translate-y":  # A(y + c) = A(y) + A(c)
        const ^= fld.part_at(ypart, c)
    else:  # shear, y -> c x + y: a_j (c x + y)^j = a_j y^j + a_j c^j x^j, j a power of 2
        for j, a in ypart.items():
            xpart[j] = xpart.get(j, 0) ^ fld.mul_int(a, fld.pow_int(c, j))
    return _curve_from_terms(fld, AdditiveModel(fld, xpart, ypart, const).terms())


def apply_record(curve: PlaneCurve, record: Sequence[CoordinateChange]) -> PlaneCurve:
    for change in record:
        curve = apply_change(curve, change)
    return curve


def record_to_json(record: Sequence[CoordinateChange]) -> list[dict]:
    return [change.to_json() for change in record]


def curve_from_json(data: object) -> PlaneCurve:
    """The curve of a :meth:`PlaneCurve.to_json` document.  Raises
    ValueError unless the input is an object with an integer ``q`` and
    ``terms``, a list of [int, int, hex string] triples with no (i, j)
    repeated."""
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
    terms = {}
    for i, j, h in raw_terms:
        if (i, j) in terms:  # a dict would keep the last coefficient, not the sum
            raise ValueError(f"term x^{i} y^{j} appears more than once")
        terms[i, j] = field.from_hex(h).bits
    curve = _curve_from_terms(field, terms)
    if data.get("family") and data["family"] != curve.family:
        raise ValueError(f"declared family {data['family']!r}, classified {curve.family!r}")
    return curve


# -- normalization -------------------------------------------------------------


def normalize(curve: PlaneCurve) -> tuple[PlaneCurve, list[CoordinateChange]]:
    """Reduce a trace-form or extended curve to the standard curve.

    Returns the standard curve and the record of coordinate changes that
    maps points of the input onto points of the output.  After the
    y-scaling (a_t = 1) and the shear (P = x^(q+1)) the model reads
    A(y) = x^(q+1) + c, where x has pole order q/2 at infinity, so by
    the paper's theorem it is in the standard curve's GF(q^2)-isomorphism
    class iff it is maximal.  That is the criterion, read off one
    reduction of A: |ker A| = q/2, GF(q) is inside im A, and c is in
    im A.  Raises :class:`NormalizationError` when any part fails.

    Under <u, v> = Tr(uv), GF(q) is its own orthogonal, so GF(q) in im A
    iff ker A* lies in GF(q).  A*^(2^(t-1)) = sum (a_i v)^(2^(i-1)) is
    monic of degree q/2, so its roots are a hyperplane Tr(beta v) = 0 of
    GF(q) and a_i = lambda^(q/2^i - 1) with lambda = 1/beta in GF(q)*;
    then c is in im A iff c + c^q is 0 or 1/lambda.
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

    def coeffs(part: dict[int, int]) -> list[FieldElement]:
        """The coefficients of v^(q/2^i), i = 1..t, in part = {e: c}."""
        return [FieldElement(part.get(q >> i, 0), field) for i in range(1, t + 1)]

    work = curve
    a = coeffs(work.model(1).ypart)
    if a[-1] != one:
        # the x-term relations below presume a monic y-part, so scale first
        work = step(work, CoordinateChange("scale-y", a[-1]))
        a = coeffs(work.model(1).ypart)

    if work.family == "trace-form-extended":
        bx = coeffs(work.model(1).xpart)
        bt = bx[-1]
        for i in range(1, t + 1):
            if bx[i - 1] != a[i - 1] * bt ** (q >> i):
                raise NormalizationError(
                    f"x-coefficient b_{i} breaks the relation b_i = a_i * b_t^(q/2^{i})"
                )
        # the shear moves only x-terms, so a stays
        work = step(work, CoordinateChange("shear", bt))

    model = work.model(1)
    a_map = model.reduction
    if len(a_map.kernel) != q >> 1:
        raise NormalizationError(
            f"A has {len(a_map.kernel)} roots, not q/2 = {q >> 1}: the curve is not maximal"
        )
    # u + u^q over the basis u = 1 << j of GF(q^2) spans GF(q)
    if not all(a_map.in_image((1 << j) ^ field.frob_int(1 << j, t)) for j in range(2 * t)):
        raise NormalizationError("GF(q) is not inside the image of A: the curve is not maximal")
    alpha = a_map.preimage(model.const)
    if alpha is None:
        raise NormalizationError("the constant is not in the image of A: the curve is not maximal")
    if alpha:
        # the least solution keeps records deterministic; it moves only the constant
        work = step(work, CoordinateChange("translate-y", FieldElement(alpha, field)))

    if any(ai != one for ai in a):
        work = step(work, CoordinateChange("scale-x", a[0].inv()))
        work = step(work, CoordinateChange("scale-y", a[t - 2]))

    target = trace_curve(t)
    if work != target:
        raise CheckFailed("normalization did not land on the standard curve")
    return work, record
