"""Numerical semigroups: gaps, genus, dimensions, classification checks."""

import math
import random
import tracemalloc

import pytest

from maxcurves.census import count_rational
from maxcurves.curves import trace_curve
from maxcurves.orders import dp_orders, dp_orders_at_infinity
from maxcurves.census import enumerate_points, AffinePoint
from maxcurves.semigroups import (
    SIEVE_LIMIT,
    NumericalSemigroup,
    dim_from_semigroup,
    infinity_semigroup,
    semigroup_classification_check,
)


def test_two_five():
    s = NumericalSemigroup([2, 5])
    assert s.gaps == (1, 3)
    assert s.genus == 2
    assert s.conductor == 4
    assert 2 in s and 7 in s and 3 not in s


def test_four_nine():
    s = NumericalSemigroup([4, 9])
    assert s.genus == 12
    assert s.elements_upto(18) == [0, 4, 8, 9, 12, 13, 16, 17, 18]


def test_trivial_semigroup():
    s = NumericalSemigroup([1])
    assert s.genus == 0 and list(s.gaps) == []


def test_dimension_from_nongap_count():
    s = NumericalSemigroup([2, 5])
    assert dim_from_semigroup(s, 5) == 3  # {0, 2, 4, 5}
    assert dim_from_semigroup(s, 10) == 8  # {0,2,4,5,6,7,8,9,10}
    s89 = NumericalSemigroup([4, 9])
    assert dim_from_semigroup(s89, 9) == 3
    assert dim_from_semigroup(s89, 18) == 8


def brute_force_dim(gens, d: int) -> int:
    """#{s <= d} - 1, the members found by adding generators to members."""
    member = [True] + [False] * d
    for value in range(1, d + 1):
        member[value] = any(g <= value and member[value - g] for g in gens)
    return sum(member) - 1


def test_dimension_past_the_sieve_bound():
    for gens in ((2, 5), (4, 9), (3, 5, 7)):
        s = NumericalSemigroup(gens)
        for d in (s.bound - 1, s.bound, s.bound + 1, 200, 5 * s.bound):
            assert dim_from_semigroup(s, d) == brute_force_dim(gens, d), (gens, d)


def test_classical_genus_identity_for_all_coprime_pairs():
    for a in range(2, 21):
        for b in range(a + 1, 21):
            if math.gcd(a, b) == 1:
                assert NumericalSemigroup([a, b]).genus == (a - 1) * (b - 1) // 2


@pytest.mark.parametrize("q,expected", [(4, 2), (8, 12), (16, 56), (32, 240)])
def test_infinity_semigroup_genus(q, expected):
    s = infinity_semigroup(q)
    assert s.generators == (q // 2, q + 1)
    assert s.genus == expected == q * (q - 2) // 4


@pytest.mark.parametrize("t", [2, 3, 4])
def test_census_genus_consistency_loop(t):
    # count = q^2 + 1 + 2q * genus(<q/2, q+1>)
    q = 1 << t
    s = infinity_semigroup(q)
    assert count_rational(trace_curve(t), 1) == q * q + 1 + 2 * q * s.genus


def test_riemann_roch_regime():
    for gens in ([2, 5], [4, 9], [3, 7], [8, 17]):
        s = NumericalSemigroup(gens)
        g = s.genus
        for d in range(2 * g - 1, 2 * g + 20):
            assert dim_from_semigroup(s, d) == d - g


def test_nth_nongap():
    s = infinity_semigroup(8)
    assert [s.nth_nongap(i) for i in range(4)] == [0, 4, 8, 9]


def test_constructor_guards():
    with pytest.raises(ValueError):
        NumericalSemigroup([4, 6])  # gcd 2
    with pytest.raises(ValueError):
        NumericalSemigroup([])
    with pytest.raises(ValueError):
        NumericalSemigroup([0, 3])
    with pytest.raises(ValueError):
        NumericalSemigroup([3])  # gcd 3
    s = NumericalSemigroup([2, 5])
    assert s.genus == 2 and s.bound == 2 * 25


def test_sieve_over_the_limit_is_refused_before_it_is_allocated():
    tracemalloc.start()
    try:
        # 2 * 725^2 = 1051250 is just over the limit of 2^20 cells
        for gens in ((100000, 100001), (724, 725)):
            with pytest.raises(ValueError, match="exceeds the limit"):
                NumericalSemigroup(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # a sieve at the limit alone would take 8 MiB
    # the largest semigroup in use, <q/2, q+1> at q = 32, stays far below it
    assert infinity_semigroup(32).bound <= SIEVE_LIMIT


def test_classification_check_on_sampled_orders():
    rng = random.Random(11)
    for t in (2, 3):
        curve = trace_curve(t)
        q = curve.q
        points = [p for p in enumerate_points(curve, 1) if isinstance(p, AffinePoint)]
        if t == 3:
            points = rng.sample(points, 40)
        data = [dp_orders(curve, p) for p in points]
        data.append(dp_orders_at_infinity(curve))
        report = semigroup_classification_check(q, data)
        assert report["checked"] == len(points) + 1
        assert report["m1_histogram"] == {q - 1: len(points), q // 2: 1}


def test_classification_check_rejects_bad_m1():
    from maxcurves.orders import OrderData

    fake = OrderData(point=("0", "0"), orders=(0, 1, 3, 5), classification="rational")
    with pytest.raises(ArithmeticError):
        semigroup_classification_check(4, [fake])  # m1 = 2 = q/2 away from P0
    nonrational = OrderData(point=("0", "0"), orders=(0, 1, 2, 4), classification="non-rational")
    with pytest.raises(ValueError):
        semigroup_classification_check(4, [nonrational])
