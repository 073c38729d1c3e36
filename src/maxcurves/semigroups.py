"""Numerical semigroups: membership sieve, gaps, genus, system dimensions.

A semigroup is generated by positive integers with gcd 1 and stored as a
membership table, sieved up to the first run of min(gens) consecutive
members.  Adding min(gens) to that run reaches every larger integer, so
the run starts at the conductor and the table ends min(gens) - 1 past
it.  The genus is the gap count; the projective dimension of the
one-point system |dP| is the number of non-gaps up to d, minus one,
where every integer past the table is a non-gap.

At infinity, a model A(y) = P(x) + c has the semigroup <deg A, deg P>:
<q/2, q+1> on the trace curve, whose genus q(q-2)/4 closes the loop with
the point census: count = q^2 + 1 + 2q * genus.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


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
        self.generators = tuple(gens)
        # sieve until the last gens[0] values are all members
        member, run = [True], 1
        while run < gens[0]:
            value = len(member)
            member.append(False)
            for g in gens:
                if g > value:
                    break
                if member[value - g]:
                    member[value] = True
                    break
            run = run + 1 if member[value] else 0
        self._member = member
        self.bound = len(member) - 1  # the last value sieved
        self.conductor = self.bound - gens[0] + 1
        self.gaps = tuple(i for i in range(self.conductor) if not member[i])

    def __repr__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return f"<{gens}>"

    def __contains__(self, value: int) -> bool:
        if value < 0:
            return False
        if value > self.bound:
            return True  # past the sieve's closing run, which starts at the conductor
        return self._member[value]

    @property
    def genus(self) -> int:
        return len(self.gaps)

    def elements_upto(self, d: int) -> list[int]:
        if d > self.bound:
            raise ValueError(f"{d} beyond the sieve bound {self.bound}")
        return [i for i in range(d + 1) if self._member[i]]


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
