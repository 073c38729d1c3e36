"""Order sequences of the degree-(q+1) one-point system on the built-in curves.

The orders at a point are the intersection multiplicities of the system
spanned by (1, x, x^2, y) there: the tau-adic valuations of its nonzero
sections, tau = x - x(P).  In characteristic 2, x^2 = x0^2 + tau^2 (the
cross term 2 x0 tau vanishes), so 1, x - x0 and x^2 - x0^2 have
valuations 0, 1 and 2, and y less the combination of them that matches
its terms below tau^3 has valuation j, the least e >= 3 with a nonzero
tau^e coefficient in y's expansion.  So an affine point's orders are
(0, 1, 2, j), read off :func:`series.expand_y_at` with no elimination.
At the infinite point the orders are b minus the pole orders b, 2a, a,
0 of y, x^2, x, 1, with (a, b) = (deg A, deg P): no series at infinity
anywhere.

Also here: the Frobenius-collinearity identity

    y + y^(q^2) + (x + x^(q^2)) Dy + (x^2 + x^(2q^2)) D^2 y = 0

checked as a truncated-series residual, and the evidence-based
Frobenius order sequence (0, 1, q).  Below tau^(q^2) the twists x^(q^2)
and y^(q^2) are the constants x0^(q^2) and y0^(q^2), so the residual is
Dy and D^2 y scaled by c1 = x0 + x0^(q^2) and c1^2 and shifted by tau
and tau^2, summed into one list with ys over the nonzero terms of Dy and
D^2 y: no series products.  Dy and D^2 y come from
:func:`series.hasse_derivative`, the one place that lays y's coefficients
out by Lucas' rule.  Every series here is y's tuple of coefficient masks
from :func:`series.expand_y_at`; its field is that of the curve's model
at the point (:meth:`curves.PlaneCurve.model_at`).  The names of
:mod:`series` are read through the module, as :mod:`cli` reads them, so
the one definition of each is the one every caller reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import series
from .census import AffinePoint, is_rational, sample_points
from .curves import PlaneCurve


@dataclass(frozen=True)
class OrderData:
    point: tuple[str, str] | str
    orders: tuple[int, int, int, int]
    classification: str  # at-P0 | rational | non-rational


def dp_orders(curve: PlaneCurve, point: AffinePoint, n: int | None = None) -> OrderData:
    """The order sequence of |(q+1)P_inf| at an affine point.

    Expands y to precision n and reads the fourth order j off it: the
    least e >= 3 with a nonzero tau^e coefficient (see the module
    docstring).  Raises :class:`PrecisionError` when no such e lies below
    n (retry with larger n).
    """
    q = curve.q
    if n is None:
        n = series.default_precision(q)
    if n < q + 3:
        raise ValueError(f"precision {n} too small; need at least q+3 = {q + 3}")
    coeffs = series.expand_y_at(curve, point, n)
    j = next((e for e in series._support(coeffs) if e >= 3), None)
    if j is None:
        raise series.PrecisionError(f"only 3 orders visible below precision {n}; increase precision")
    tag = "rational" if is_rational(curve, point) else "non-rational"
    return OrderData(point=(point.x.hex(), point.y.hex()), orders=(0, 1, 2, j), classification=tag)


def dp_orders_at_infinity(curve: PlaneCurve) -> OrderData:
    """Orders (0, b - 2a, b - a, b) at the infinite point, from the pole
    orders (a, b) = (deg A, deg P).  Refuses 2a > b, as on the Hermitian
    curve, where x^2 has a pole beyond y's and (1, x, x^2, y) does not
    span the one-point system |bP_inf|."""
    a, b = curve.model(1).pole_orders
    if 2 * a > b:
        raise ValueError(f"orders at infinity need 2 deg A <= deg P, got deg A = {a}, deg P = {b}")
    return OrderData(point="infinity", orders=(0, b - 2 * a, b - a, b), classification="at-P0")


def frobenius_identity_check(curve: PlaneCurve, point: AffinePoint, n: int | None = None) -> dict:
    """Residual of y + y^(q^2) + (x + x^(q^2))Dy + (x^2 + x^(2q^2))D^2y
    at an affine point, as a series modulo tau^(n-2).

    Needs n <= q^2 so that tau^(q^2) truncates away and the Frobenius
    twists of x and y reduce to constants.
    """
    n = _frobenius_precision(curve, n)
    return _frobenius_residual(curve, point, series.expand_y_at(curve, point, n))


def _frobenius_precision(curve: PlaneCurve, n: int | None) -> int:
    q = curve.q
    if n is None:
        n = min(series.default_precision(q), q * q)
    if n > q * q:
        raise ValueError(f"precision {n} exceeds q^2 = {q * q}; Frobenius twist would survive")
    if n < 4:
        raise ValueError("precision too small to see the identity")
    return n


def _frobenius_residual(curve: PlaneCurve, point: AffinePoint, ys: Sequence[int]) -> dict:
    """The report of :func:`frobenius_identity_check`, from the
    coefficients ys of y's expansion at the point; their number is the n
    checked.

    With c1 = x0 + x0^(q^2), x + x^(q^2) is c1 + tau and x^2 + x^(2q^2) is
    c1^2 + tau^2, so the residual is ys + y0^(q^2) + c1 Dy + tau Dy +
    c1^2 D^2 y + tau^2 D^2 y: each nonzero coefficient d_e of D = Dy or
    D^2 y adds c d_e at tau^e and d_e at tau^(e+s), for c = c1 or c1^2
    and s = 1 or 2.  Terms at tau^(n-2) and above are not known.
    """
    fld, n = curve.model_at(point.x.field).field, len(ys)
    k = 2 * curve.t  # the GF(q^2)-Frobenius is the 2^(2t)-power
    x0 = point.x.bits
    c1 = x0 ^ fld.frob_int(x0, k)
    acc = list(ys)
    acc[0] ^= fld.frob_int(point.y.bits, k)
    for c, s in ((c1, 1), (fld.sqr_int(c1), 2)):
        d = series.hasse_derivative(ys, s)
        for e in series._support(d):  # e + s < n, as D has precision n - s: acc holds every term
            acc[e] ^= fld.mul_int(c, d[e])
            acc[e + s] ^= d[e]
    # known mod tau^(n-2), the precision of D^2 y
    m = n - 2
    return {
        "point": (point.x.hex(), point.y.hex()),
        "residual_zero": not any(acc[:m]),
        "precision": m,
    }


def frobenius_orders(
    curve: PlaneCurve, sample_size: int, rng, n: int | None = None
) -> tuple[tuple[int, int, int], list[dict]]:
    """The Frobenius order sequence (0, 1, q) of a genus-g_2 model
    (deg A = q/2), with a sampled evidence log: at each point,
    a_t Dy = x^q, a_t^3 D^2 y = a_{t-1} x^(2q), D^i y = 0 for
    3 <= i <= q-1 (no orders strictly between 2 and q) and the
    Frobenius-collinearity residual vanishes (the order 2 drops).
    Raises ArithmeticError if any of the four checks fails."""
    if max(curve.model(1).ypart, default=0) != curve.q // 2:
        raise ValueError("Frobenius orders are computed for the models with deg A = q/2")
    if sample_size < 1:
        raise ValueError("sample_size must be at least 1")
    q = curve.q
    n = _frobenius_precision(curve, n)
    series.derivative_facts_gate(curve, n)
    points = sample_points(curve, level=1, count=sample_size, rng=rng)
    evidence = []
    for p in points:
        ys = series.expand_y_at(curve, p, n)
        facts = series.derivative_facts(curve, p, ys)
        frob = _frobenius_residual(curve, p, ys)
        entry = {
            "point": frob["point"],
            "middle_derivatives_vanish": facts.middle_vanish,
            "dy_is_xq": facts.dy_is_xq,
            "d2y_matches": facts.d2y_is_x2q,
            "frobenius_residual_zero": frob["residual_zero"],
        }
        evidence.append(entry)
        if not (facts.ok() and frob["residual_zero"]):
            raise ArithmeticError(f"Frobenius-order evidence failed at {entry['point']}")
    return (0, 1, q), evidence
