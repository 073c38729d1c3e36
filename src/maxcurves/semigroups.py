"""Numerical semigroups: membership sieve, gaps, genus, system dimensions.

A semigroup is generated by positive integers with gcd 1 and stored as a
membership table up to the bound 2 max(gens)^2, safely past the
conductor.  A bound above ``SIEVE_LIMIT`` is refused before the table is
allocated.  The genus is the gap count; the projective dimension of the
one-point system |dP| is the number of non-gaps up to d, minus one,
where every integer past the bound is a non-gap.

At infinity, a model A(y) = P(x) + c has the semigroup <deg A, deg P>:
<q/2, q+1> on the trace curve, whose genus q(q-2)/4 closes the loop with
the point census: count = q^2 + 1 + 2q * genus.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

SIEVE_LIMIT = 1 << 20  # largest bound a sieve may use; beyond it the input is refused


class NumericalSemigroup:
    """All non-negative integer combinations of the generators."""

    def __init__(self, generators: Sequence[int]) -> None:
        gens = sorted(set(int(g) for g in generators))
        if not gens or gens[0] < 1:
            raise ValueError("generators must be positive integers")
        g = 0
        for x in gens:
            g = gcd(g, x)
        if g != 1:
            raise ValueError(f"gcd of generators is {g} != 1: infinitely many gaps")
        bound = 2 * gens[-1] ** 2
        if bound > SIEVE_LIMIT:
            raise ValueError(f"a sieve up to {bound} exceeds the limit {SIEVE_LIMIT}")
        self.generators = tuple(gens)
        self.bound = bound
        member = [False] * (bound + 1)
        member[0] = True
        for value in range(1, bound + 1):
            for g in gens:
                if g > value:
                    break
                if member[value - g]:
                    member[value] = True
                    break
        self._member = member
        # stability: a full run of min(gens) consecutive members proves the
        # table extends to all larger integers
        run = self.generators[0]
        if not all(member[bound - k] for k in range(run)):
            raise ValueError(f"bound {bound} too small: membership not yet stable")
        self.frobenius_number = max((i for i in range(bound + 1) if not member[i]), default=-1)
        self.conductor = self.frobenius_number + 1
        self.gaps = tuple(i for i in range(self.conductor) if not member[i])

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return f"<{gens}>"

    def __contains__(self, value: int) -> bool:
        if value < 0:
            return False
        if value > self.bound:
            return True  # beyond the (verified stable) conductor
        return self._member[value]

    @property
    def genus(self) -> int:
        return len(self.gaps)

    def elements_upto(self, d: int) -> list[int]:
        if d > self.bound:
            raise ValueError(f"{d} beyond the sieve bound {self.bound}")
        return [i for i in range(d + 1) if self._member[i]]

    def nth_nongap(self, i: int) -> int:
        """m_i: the i-th element of the semigroup in increasing order (m_0 = 0)."""
        seen = -1
        for value in range(self.bound + 1):
            if self._member[value]:
                seen += 1
                if seen == i:
                    return value
        raise ValueError(f"m_{i} beyond the sieve bound")


def dim_from_semigroup(s: NumericalSemigroup, d: int) -> int:
    """Projective dimension of |dP| from non-gap counting: #{s <= d} - 1,
    where each of the d - bound integers past the sieve is a member."""
    if d < 0:
        raise ValueError("degree must be non-negative")
    return len(s.elements_upto(min(d, s.bound))) + max(d - s.bound, 0) - 1


def infinity_semigroup(q: int) -> NumericalSemigroup:
    """The Weierstrass semigroup <q/2, q+1> at the trace curve's infinite point."""
    if q < 2 or q & (q - 1):
        raise ValueError(f"q={q} is not a power of two")
    return NumericalSemigroup((q // 2, q + 1))


def semigroup_classification_check(q: int, order_data: Iterable) -> dict:
    """Check the first-non-gap classification at sampled rational points.

    Each entry carries the order sequence (j_0..j_3) of the degree-(q+1)
    system; m_1 = q+1 - j_2 must be q-1 away from the infinite point and
    q/2 there, and nowhere else.  Raises ArithmeticError on violation.
    """
    half = q // 2
    m1_seen: dict[int, int] = {}
    checked = 0
    for entry in order_data:
        if entry.classification == "non-rational":
            raise ValueError("classification check applies to rational points only")
        m1 = q + 1 - entry.orders[2]
        m1_seen[m1] = m1_seen.get(m1, 0) + 1
        checked += 1
        if m1 not in (q - 1, half):
            raise ArithmeticError(f"first non-gap {m1} at {entry.point} outside {{q-1, q/2}}")
        if entry.classification == "at-P0" and m1 != half:
            raise ArithmeticError(f"infinite point reports m_1 = {m1}, expected q/2 = {half}")
        if entry.classification == "rational" and m1 != q - 1:
            raise ArithmeticError(
                f"affine rational point {entry.point} reports m_1 = {m1}, expected q-1"
            )
    return {"q": q, "checked": checked, "m1_histogram": m1_seen}
