"""Truncated power series at affine curve points, with Hasse derivatives.

A series is sum_{k<N} coeffs[k] tau^k + O(tau^N) over a tower field,
tau = x - x(P).  Every series starts at tau^0 (no point at infinity gets
one), so its precision is N, the number of stored coefficients; the
smaller precision survives addition and multiplication.  Asking beyond
it raises :class:`PrecisionError` rather than guessing: "insufficient
precision" is always distinct from "identity fails".  Products and 2^k-th
powers hand the whole coefficient tuple to one row kernel of the field
(:meth:`fields.BinaryField.convolve`, ``frob_row``), not one field call
per coefficient; ``pow2k(k)`` keeps its full precision prec * 2^k.

Expansions of y along the curve cost their nonzero terms, not their
precision.  Every curve is held as its additive model A(y) = P(x) + c
(A is a linearized polynomial in y; :class:`curves.AdditiveModel`), so
y = y(P) + eta with A(eta) = P(x(P) + tau) + P(x(P)), and the
coefficient of tau^r in eta depends only on those at r / 2^k, of the
same odd part as r (dF/dy is a nonzero constant, so every affine point
is a simple root in y and the lift is unique).  The right side walks
only the submasks r of each x exponent i, the r with binom(i, r) odd,
and a chain o, 2o, 4o, ... whose right side vanishes stays 0, so the
lift walks only the chains of the odd parts that carry a right-side
entry, one chain at a time, each step reading only the steps before it
on its own chain: for P = x^(q+1) the chains of 1 and q + 1, about
2 log2(n) steps where a walk over every r would take n; a coefficient
equal to 1 costs no field call.  Each expansion is then checked,
independently of that right side and of the lift's own values, by the
residual A(y) + P(x) + c at all n coefficients, read off y's nonzero
terms: a y^(2^k) term puts c_e^(2^k) at tau^(e 2^k), one ``frob_int``
call per nonzero c_e and y-term up to the first e 2^k >= n (a table
lookup for any k, in the tower too), an x^i term is the product of the
two-term factors x0^(2^k) + tau^(2^k) over the set bits 2^k of i,
multiplied out, and c lands at tau^0.  The
residual's tau^0 term is F(x(P), y(P)), which the lift never reads, so
it is also the test that P lies on the curve: no separate evaluation is
made.  Dense lists appear only where C fills them (a zero list,
``compress`` picking the nonzero exponents out of one list of ints made
at import, tuple equality), so the interpreter's steps follow the
support.  Precisions above ``PRECISION_LIMIT`` are refused.

Hasse derivatives act coefficientwise through binomials mod 2, evaluated
by Lucas' rule inline: binom(n, i) is odd iff (n & i) == i, that is, iff
the bits of i are a subset of the bits of n.  D^i is one strided slice
per residue mod 2^L (L the bit length of i) whose bits hold those of i,
so Dy and D^2 y are one and two slices.  :meth:`TruncatedSeries.hasse_derivative`
is the one place that lays y's coefficients out into D^i: the derivative
facts and the Frobenius residual of :mod:`orders` both read Dy and D^2 y
from it.  The facts compare them, by tuple equality, with their right
sides a_t^-1 (x0^q + tau^q) and a_{t-1} a_t^-3 (x0^(2q) + tau^(2q)),
which have at most two nonzero terms each.  D^i y = 0 for every i in a
range iff no nonzero coefficient c_e has a submask i in it, so the
middle-derivative test of :func:`verify_derivative_facts` is one walk
over the nonzero coefficients (:meth:`TruncatedSeries.derivatives_vanish`),
not one derivative series per order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import xor
from typing import Iterator, Sequence

from .curves import PlaneCurve
from .fields import BinaryField, CheckFailed, FieldElement


PRECISION_LIMIT = 4096  # largest precision an expansion may use; beyond it the input is refused
_EXPONENTS = list(range(PRECISION_LIMIT))  # made once, read by every support scan


def _support(coeffs: Sequence[int]) -> Iterator[int]:
    """The exponents of the nonzero coefficients, ascending, picked at C
    speed by ``compress`` from :data:`_EXPONENTS`, whose ints already
    exist: ``range`` would make one per exponent.  A list longer than
    ``PRECISION_LIMIT`` (a ``pow2k`` can make one) is read through ``range``."""
    return compress(_EXPONENTS if len(coeffs) <= PRECISION_LIMIT else range(len(coeffs)), coeffs)


def default_precision(q: int) -> int:
    """2q + 8, the precision of an expansion when none is asked for."""
    return 2 * q + 8


class PrecisionError(ArithmeticError):
    """A computation asked for more precision than the operands carry."""


class TruncatedSeries:
    """sum_k coeffs[k] tau^k, known modulo tau^len(coeffs)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: BinaryField, coeffs: tuple[int, ...]) -> None:
        self.field = field
        self.coeffs = tuple(coeffs)

    # -- construction ----------------------------------------------------------

    @classmethod
    def constant(cls, value: FieldElement, prec: int) -> TruncatedSeries:
        if prec < 1:
            raise PrecisionError("a constant needs precision at least 1")
        return cls(value.field, (value.bits,) + (0,) * (prec - 1))

    # -- bookkeeping -----------------------------------------------------------

    @property
    def prec(self) -> int:
        """Absolute precision: the series is known modulo tau^prec."""
        return len(self.coeffs)

    def valuation(self) -> int | None:
        """Exponent of the first nonzero coefficient; None when every
        stored coefficient vanishes (unknown beyond precision)."""
        for k, c in enumerate(self.coeffs):
            if c:
                return k
        return None

    def truncate(self, prec: int) -> TruncatedSeries:
        if prec > self.prec:
            raise PrecisionError(f"cannot extend precision {self.prec} to {prec}")
        return TruncatedSeries(self.field, self.coeffs[: max(prec, 0)])

    def is_zero_mod(self, prec: int | None = None) -> bool:
        """True iff every known coefficient below the given precision vanishes."""
        if prec is None:
            prec = self.prec
        elif prec > self.prec:
            raise PrecisionError(f"zero test modulo tau^{prec} beyond precision {self.prec}")
        return not any(self.coeffs[:prec])

    def __repr__(self) -> str:
        hexes = " ".join(self.field.to_hex(c) for c in self.coeffs)
        # the leading "0 + " (the starting exponent) stays for payload
        # stability: the expand subcommand prints this string
        return f"0 + [{hexes}] mod t^{self.prec}"

    # -- arithmetic --------------------------------------------------------------

    def _check(self, other: TruncatedSeries) -> None:
        if other.field is not self.field:
            raise ValueError("series live over different fields")

    def __add__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check(other)
        # a list, not tuple(map(...)): a tuple built from an iterator is
        # resized after it is filled, and so is freed into another size's
        # free list, which grows to its cap and raises peak memory
        return TruncatedSeries(self.field, list(map(xor, self.coeffs, other.coeffs)))

    __sub__ = __add__

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        self._check(other)
        n = min(self.prec, other.prec)
        return TruncatedSeries(self.field, self.field.convolve(self.coeffs, other.coeffs, n))

    def pow2k(self, k: int) -> TruncatedSeries:
        """The 2^k-th power; exact in characteristic 2, spreading exponents."""
        step = 1 << k
        # (S + O(tau^p))^(2^k) = S^(2^k) + O(tau^(p * 2^k))
        out = [0] * (self.prec * step)
        out[::step] = self.field.frob_row(self.coeffs, k)
        return TruncatedSeries(self.field, out)

    def __pow__(self, e: int) -> TruncatedSeries:
        if e < 0:
            raise ValueError("negative powers of series are not supported")
        if e == 0:
            return TruncatedSeries.constant(self.field.one, max(self.prec, 1))
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base.pow2k(1)
        return result

    def hasse_derivative(self, i: int) -> TruncatedSeries:
        """Coefficientwise binom(n, i) shift; precision drops by i.

        c_e survives, at tau^(e-i), iff e is a supermask of i.  Modulo
        2^L, L = i.bit_length(), those e fill the residues i | s over the
        submasks s of the free bits (2^L - 1) ^ i, so the derivative is one
        strided slice per residue below the precision, copied at C speed:
        one or two for Dy and D^2 y, whatever the precision.
        """
        if i < 0:
            raise ValueError("derivative order must be non-negative")
        if i == 0:
            return self
        n = self.prec
        if n <= i:
            raise PrecisionError(f"order-{i} derivative exhausts precision {n}")
        coeffs = self.coeffs
        out = [0] * (n - i)
        step = 1 << i.bit_length()
        free = (step - 1) ^ i
        s = 0
        while (r := i | s) < n:  # the submasks s of the free bits, ascending
            out[r - i :: step] = coeffs[r::step]
            if s == free:
                break
            s = (s - free) & free
        return TruncatedSeries(self.field, out)

    def derivatives_vanish(self, lo: int, hi: int) -> bool:
        """True iff ``hasse_derivative(i).is_zero_mod()`` for every lo <= i <= hi,
        in one pass: D^i carries c_e exactly when i is a submask of e, so
        they all vanish iff no nonzero c_e has a submask in [lo, hi].  The
        submasks of each nonzero c_e are walked down to the first below lo."""
        if lo < 0:
            raise ValueError("derivative order must be non-negative")
        if lo <= hi and self.prec <= hi:
            raise PrecisionError(f"order-{hi} derivative exhausts precision {self.prec}")
        if lo > hi:
            return True
        for e in _support(self.coeffs):
            s = e
            while s >= lo:  # the submasks of e, in descending order
                if s <= hi:
                    return False
                s = (s - 1) & e  # reaching 0 ends the walk: 0 < lo, or 0 <= hi returned
        return True


def series_equal_mod(a: TruncatedSeries, b: TruncatedSeries) -> bool:
    """True iff a and b agree to their shared precision."""
    a._check(b)
    p = min(a.prec, b.prec)
    return a.coeffs[:p] == b.coeffs[:p]


def _additive_residual(
    x0: int,
    ys: TruncatedSeries,
    xpart: dict[int, int],
    ypart: dict[int, int],
    const: int,
) -> list[int]:
    """Coefficients of A(y) + P(x) + c mod tau^n at x = x0 + tau, y = ys
    (of precision n), for the mask x0, ypart = {2^k: a}, xpart = {i: b}
    and the constant c.

    ys is read off its nonzero terms, in ascending order: a y^(2^k) term
    puts a c_e^(2^k) at tau^(e 2^k) for each nonzero c_e, one ``frob_int``
    call each, up to the first e 2^k >= n.  Only y's coefficients are
    read, never the lift's, so this is an independent check of them.
    b x^i is b times the product of the two-term factors
    x0^(2^k) + tau^(2^k) over the set bits 2^k of i, multiplied out, not
    taken from binomials.  The tau^0 coefficient is A(y0) + P(x0) + c,
    that is, F at the point (x0, y0), y0 the tau^0 coefficient of ys.
    """
    fld, coeffs, n = ys.field, ys.coeffs, ys.prec
    frob, mul = fld.frob_int, fld.mul_int
    acc = [0] * n
    acc[0] = const
    exps = list(_support(coeffs))  # the nonzero terms, picked at C speed
    for j, a in ypart.items():
        k = j.bit_length() - 1
        for e in exps:
            r = e * j
            if r >= n:
                break
            c = frob(coeffs[e], k) if k else coeffs[e]
            acc[r] ^= c if a == 1 else mul(a, c)
    for i, b in xpart.items():
        terms = [(0, b)]  # b times the factors so far: distinct exponents, no collisions
        for k in range(i.bit_length()):
            if i >> k & 1:
                j, x0_k = 1 << k, frob(x0, k)
                terms = [(e, x0_k if c == 1 else mul(c, x0_k)) for e, c in terms] + [
                    (e + j, c) for e, c in terms if e + j < n
                ]
        for e, c in terms:
            acc[e] ^= c
    return acc


def _additive_lift(
    fld: BinaryField, x0: int, xpart: dict[int, int], ypart: dict[int, int], n: int
) -> list[int]:
    """Coefficients eta_0..eta_{n-1} of eta(tau) with
    sum_j a_j eta^j = P(x0 + tau) + P(x0), over the 2-power exponents j of
    ypart = {j: a_j}, P = sum_i b_i x^i from xpart = {i: b_i}, eta(0) = 0.

    The right side has coefficient sum_i b_i binom(i, r) x0^(i-r) at tau^r
    (binom(i, r) odd iff r is a submask of i); eta^(2^k) contributes
    eta_{r/2^k}^(2^k) at tau^r when 2^k divides r, so eta_r needs only
    the coefficients before it on its chain o, 2o, 4o, ... of odd part o.
    A chain whose right side is 0 throughout is therefore 0 throughout,
    and each chain of an odd part of a nonzero right-side entry is walked
    on its own, from o up to the last o 2^s < n, step s reading steps
    s - k <= s - 1 of the same chain.  A coefficient a_k or b_i equal to 1 is not multiplied in, and
    a_t = 1 is not inverted, so the standard curves' lift makes no field
    call by 1.
    """
    frob, mul = fld.frob_int, fld.mul_int
    rhs: dict[int, int] = {}
    for i, b in xpart.items():
        r = i
        while r:  # the nonzero submasks of i, in descending order
            if r < n:
                v = fld.pow_int(x0, i - r)
                rhs[r] = rhs.get(r, 0) ^ (v if b == 1 else mul(b, v))
            r = (r - 1) & i
    a_t = ypart[1]
    cinv = 1 if a_t == 1 else fld.inv_int(a_t)
    higher = sorted((j.bit_length() - 1, a) for j, a in ypart.items() if j > 1)
    eta = [0] * n
    for o in {r // (r & -r) for r, v in rhs.items() if v}:
        r, s = o, 0  # r = o 2^s, step s of the chain of o
        while r < n:
            acc = rhs.get(r, 0)
            for k, a in higher:
                if k > s:
                    break  # 2^k does not divide r, nor does any higher power
                if v := eta[r >> k]:
                    v = frob(v, k)
                    acc ^= v if a == 1 else mul(a, v)
            if acc:
                eta[r] = acc if cinv == 1 else mul(cinv, acc)
            r, s = r << 1, s + 1
    return eta


def expand_y_at(curve: PlaneCurve, point, n: int) -> TruncatedSeries:
    """The unique series y(tau), tau = x - x(P), with y(0) = y(P) and
    F(x(P) + tau, y(tau)) = 0 mod tau^n.

    The curve's model reads A(y) = P(x) + c with A additive; the coefficients
    come from the one-pass recurrence of :func:`_additive_lift`, and the
    series is checked against F by :func:`_additive_residual` before it
    is returned.  The residual's tau^0 coefficient is F(x0, y0), and the
    lift never reads y0, so it is the on-curve test: a nonzero one raises
    ValueError (the input is not a curve point), and any other nonzero
    coefficient raises :class:`CheckFailed` (the lift is wrong).  A point
    whose coordinates live in different fields, or in neither tower field
    of the curve, and precisions above :data:`PRECISION_LIMIT` are
    refused before any work.
    """
    if n < 2:
        raise ValueError("precision must be at least 2: the expansion uses x0 + tau")
    if n > PRECISION_LIMIT:
        raise ValueError(f"precision {n} exceeds the limit {PRECISION_LIMIT}")
    x0, y0 = point.x, point.y
    fld = x0.field
    if y0.field is not fld:
        raise ValueError("x and y live in different fields")
    if fld is curve.field:
        model = curve.model(1)
    elif fld is curve.level_field(2):
        model = curve.model(2)
    else:
        raise ValueError("point field matches neither tower level of the curve")
    # dF/dy of the additive model is a_t, the coefficient of y
    if not model.ypart.get(1):
        raise ValueError("singular point: dF/dy vanishes")

    coeffs = _additive_lift(fld, x0.bits, model.xpart, model.ypart, n)
    coeffs[0] = y0.bits
    ys = TruncatedSeries(fld, tuple(coeffs))
    residual = _additive_residual(x0.bits, ys, model.xpart, model.ypart, model.const)
    if residual[0]:
        raise ValueError("point does not lie on the curve")
    if any(residual):
        raise CheckFailed(
            f"expansion at ({x0.hex()}, {y0.hex()}) leaves a nonzero residual mod tau^{n}"
        )
    return ys


H_IDENTITY_PRECISION = 14


def check_h_identities(field: BinaryField, count: int, rng) -> dict:
    """Property-test the Hasse-derivative identities on random series.

    H1: additivity; H2: Leibniz convolution; H3: derivatives of even
    powers are squares of half-order derivatives (zero at odd order);
    H3': the 2-power analogue for q' in {2, 4, 8}.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    prec = H_IDENTITY_PRECISION

    def random_series() -> TruncatedSeries:
        return TruncatedSeries(field, [rng.randrange(field.order) for _ in range(prec)])

    report = {name: {"pass": 0, "fail": 0} for name in ("h1", "h2", "h3", "h3prime")}

    def tally(name: str, ok: bool) -> None:
        report[name]["pass" if ok else "fail"] += 1

    for _ in range(count):
        z, w = random_series(), random_series()

        i = rng.randrange(0, 9)
        lhs = (z + w).hasse_derivative(i)
        rhs = z.hasse_derivative(i) + w.hasse_derivative(i)
        tally("h1", series_equal_mod(lhs, rhs))

        i = rng.randrange(0, 7)
        lhs = (z * w).hasse_derivative(i)
        rhs = TruncatedSeries(field, (0,) * (prec - i))
        for j in range(i + 1):
            rhs = rhs + z.hasse_derivative(i - j) * w.hasse_derivative(j)
        tally("h2", series_equal_mod(lhs, rhs))

        j = rng.randrange(1, 4)
        i = rng.randrange(0, 7)
        lhs = (z ** (2 * j)).truncate(prec).hasse_derivative(i)
        if i % 2 == 0:
            rhs = (z ** j).truncate(prec).hasse_derivative(i // 2).pow2k(1)
            tally("h3", series_equal_mod(lhs, rhs))
        else:
            tally("h3", lhs.is_zero_mod())

        qprime = 1 << rng.randrange(1, 4)
        i = rng.randrange(0, 2 * qprime + 1)
        lhs = z.pow2k(qprime.bit_length() - 1).hasse_derivative(i)
        if i % qprime == 0:
            rhs = z.hasse_derivative(i // qprime).pow2k(qprime.bit_length() - 1)
            tally("h3prime", series_equal_mod(lhs, rhs))
        else:
            tally("h3prime", lhs.is_zero_mod())

    report["all_pass"] = all(v["fail"] == 0 for v in report.values() if isinstance(v, dict))
    return report


@dataclass(frozen=True)
class DerivativeFactsReport:
    """Series-level derivative facts of a model A(y) = x^(q+1) + c at one point."""

    q: int
    point: tuple[str, str]
    dy_is_xq: bool
    d2y_is_x2q: bool
    middle_range: tuple[int, int]
    middle_vanish: bool

    def ok(self) -> bool:
        return self.dy_is_xq and self.d2y_is_x2q and self.middle_vanish


def verify_derivative_facts(curve: PlaneCurve, point, n: int) -> DerivativeFactsReport:
    """Check, as truncated-series identities at an affine point:
    a_t Dy = x^q, a_t^3 D^2 y = a_{t-1} x^(2q), and D^i y = 0 for
    3 <= i <= min(q-1, n-1), where a_t and a_{t-1} are the coefficients
    of y and y^2 in A.  Needs P = x^(q+1), a_t != 0, t >= 2 and n > q+2."""
    derivative_facts_gate(curve, n)
    return derivative_facts(curve, point, expand_y_at(curve, point, n))


def derivative_facts_gate(curve: PlaneCurve, n: int) -> None:
    """Raise ValueError unless the derivative facts apply to the curve at precision n."""
    model = curve.model(1)
    if model.xpart != {curve.q + 1: 1} or not model.ypart.get(1):
        raise ValueError("derivative facts need P = x^(q+1) and a_t != 0")
    if curve.t < 2:
        raise ValueError("derivative facts need t >= 2 (the a_{t-1} coefficient)")
    if n <= curve.q + 2:
        raise ValueError(f"precision {n} too small; need n > q+2 = {curve.q + 2}")


def derivative_facts(curve: PlaneCurve, point, ys: TruncatedSeries) -> DerivativeFactsReport:
    """The facts of :func:`verify_derivative_facts`, read off the
    expansion ys of y at the point; its precision is the n checked.

    In characteristic 2, x^q = x0^q + tau^q and x^(2q) = x0^(2q) + tau^(2q),
    so each right side has at most two nonzero coefficients, both from one
    x0^q, and Dy and D^2 y are compared with them by tuple equality.
    """
    t, q, n = curve.t, curve.q, ys.prec
    fld = point.x.field
    model = curve.model(1 if fld is curve.field else 2)
    a_t, a_t1 = model.ypart[1], model.ypart.get(2, 0)  # the coefficients of y and y^2
    inv = 1 if a_t == 1 else fld.inv_int(a_t)
    x0q = fld.frob_int(point.x.bits, t)

    def two_terms(c: int, x0_j: int, j: int, m: int) -> tuple[int, ...]:
        """c (x0^j + tau^j) mod tau^m, given x0^j as the mask x0_j."""
        out = [0] * m
        out[0] = x0_j if c == 1 else fld.mul_int(c, x0_j)
        if j < m:
            out[j] = c
        return tuple(out)

    dy_ok = ys.hasse_derivative(1).coeffs == two_terms(inv, x0q, q, n - 1)
    d2y_scale = a_t1 if inv == 1 else fld.mul_int(a_t1, fld.pow_int(inv, 3))
    d2y_ok = ys.hasse_derivative(2).coeffs == two_terms(d2y_scale, fld.sqr_int(x0q), 2 * q, n - 2)
    hi = min(q - 1, n - 1)
    return DerivativeFactsReport(
        q=q,
        point=(point.x.hex(), point.y.hex()),
        dy_is_xq=dy_ok,
        d2y_is_x2q=d2y_ok,
        middle_range=(3, hi),
        middle_vanish=ys.derivatives_vanish(3, hi),
    )
