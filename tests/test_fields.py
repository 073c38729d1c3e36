"""Field tower: arithmetic, Frobenius, subfields, additive solvers."""

import functools
import operator
import random

import pytest

from maxcurves.fields import (
    is_irreducible,
    linearized_solve,
    make_field,
    poly_mod,
    reduce_gf2,
    solve_artin_schreier,
)

GF4 = make_field(1)
GF16 = make_field(2)
GF64 = make_field(3)
GF256 = make_field(2, "quartic")


def test_gf4_modulus_is_the_unique_irreducible_quadratic():
    quadratics = [p for p in range(0b100, 0b1000) if is_irreducible(p)]
    assert quadratics == [0b111]
    assert GF4.modulus == 0b111


def test_gf16_modulus_oracle_no_roots_no_quadratic_factors():
    p = GF16.modulus
    assert p == 0b10011  # z^4 + z + 1
    assert p & 1, "p(0) = 1"
    assert bin(p).count("1") % 2 == 1, "p(1) = 1"
    assert all(poly_mod(p, quad) != 0 for quad in range(0b100, 0b1000))


def test_gf256_modulus_same_irreducibility_oracle():
    p = GF256.modulus
    assert p.bit_length() == 9
    for d in range(1, 5):
        assert all(poly_mod(p, cand) != 0 for cand in range(1 << d, 1 << (d + 1)))


@pytest.mark.parametrize("t,level,m", [(1, "base-square", 2), (2, "base-square", 4),
                                       (2, "quartic", 8), (3, "quartic", 12),
                                       (5, "base-square", 10), (5, "quartic", 20)])
def test_make_field_degrees(t, level, m):
    fld = make_field(t, level)
    assert fld.m == m and fld.q == 1 << t
    assert is_irreducible(fld.modulus)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(0)
    with pytest.raises(ValueError):
        make_field(6)
    with pytest.raises(ValueError):
        make_field(2, "cubic")


def test_gf4_multiplication_table():
    w = GF4.element(2)
    assert (w * w).bits == 0b11  # w^2 = w + 1
    assert w.inv().bits == 0b11  # w * (w+1) = w^2 + w = 1
    assert (w * (w + GF4.one)).bits == 1


def test_identity_and_characteristic_two():
    rng = random.Random(0)
    for fld in (GF4, GF16, GF64):
        for _ in range(50):
            a = fld.element(rng.randrange(fld.order))
            assert a * fld.one == a
            assert (a + a).bits == 0


def test_inverse():
    assert GF16.one.inv() == GF16.one
    rng = random.Random(1)
    for fld in (GF16, GF64, GF256):
        for _ in range(100):
            a = fld.element(rng.randrange(1, fld.order))
            assert a * a.inv() == fld.one
    with pytest.raises(ValueError):
        GF16.zero.inv()


@pytest.mark.parametrize("fld", [GF16, GF64])
def test_ring_axioms_randomized(fld):
    rng = random.Random(2)
    for _ in range(1000):
        a = fld.element(rng.randrange(fld.order))
        b = fld.element(rng.randrange(fld.order))
        c = fld.element(rng.randrange(fld.order))
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_mismatched_fields_raise():
    with pytest.raises(ValueError):
        GF16.one + GF64.one
    with pytest.raises(ValueError):
        GF16.one * GF256.one


def test_frobenius_fixes_prime_field():
    for bits in (0, 1):
        a = GF64.element(bits)
        for k in range(10):
            assert a.frobenius(k) == a


def test_frobenius_examples():
    g = GF16.element(2)  # generates GF(16)* for z^4+z+1
    powers = {(g ** k).bits for k in range(15)}
    assert len(powers) == 15
    g5 = g ** 5
    assert g5.frobenius(2) == g5  # g^20 = g^5
    rng = random.Random(3)
    for fld in (GF16, GF64):
        for _ in range(50):
            a = fld.element(rng.randrange(fld.order))
            assert a.frobenius(fld.m) == a


@pytest.mark.parametrize("fld", [GF16, GF64])
def test_frobenius_q_power_is_automorphism(fld):
    rng = random.Random(4)
    t = fld.t
    for _ in range(200):
        a = fld.element(rng.randrange(fld.order))
        b = fld.element(rng.randrange(fld.order))
        assert (a + b).frobenius(t) == a.frobenius(t) + b.frobenius(t)
        assert (a * b).frobenius(t) == a.frobenius(t) * b.frobenius(t)


def test_subfield_membership_counts():
    # 0 and 1 lie in every subfield
    for fld in (GF16, GF64, GF256):
        for d in range(1, fld.m + 1):
            if fld.m % d == 0:
                assert fld.zero.in_subfield(d) and fld.one.in_subfield(d)
    assert sum(1 for a in GF16.elements() if a.in_subfield(2)) == 4
    assert sum(1 for a in GF256.elements() if a.in_subfield(4)) == 16
    # full enumeration over every divisor for m <= 16
    for fld in (GF4, GF16, GF64, GF256, make_field(3, "quartic"), make_field(4, "quartic")):
        for d in range(1, fld.m + 1):
            if fld.m % d == 0:
                count = sum(1 for a in fld.elements() if a.in_subfield(d))
                assert count == 1 << d, (fld, d)


def test_subfield_rejects_non_divisor():
    with pytest.raises(ValueError):
        GF16.one.in_subfield(3)


def test_artin_schreier_zero_gives_prime_field():
    sols = solve_artin_schreier(GF16.zero)
    assert [s.bits for s in sols] == [0, 1]


@pytest.mark.parametrize("fld", [GF16, GF64, GF256])
def test_artin_schreier_against_brute_force(fld):
    for bits in range(fld.order):
        c = fld.element(bits)
        expected = sorted(u.bits for u in fld.elements() if (u.square() + u) == c)
        got = [s.bits for s in solve_artin_schreier(c)]
        assert got == expected
        assert len(got) in (0, 2)
        if got:
            assert got[0] ^ got[1] == 1  # solutions differ by 1
            assert c.absolute_trace() == 0
        else:
            assert c.absolute_trace() == 1


def test_artin_schreier_gamma5_example():
    g5 = GF16.element(2) ** 5
    assert g5.absolute_trace() == 0
    assert len(solve_artin_schreier(g5)) == 2


def test_linearized_solve_identity_map_cases():
    one = GF16.one
    sols = linearized_solve([one, one], GF16.zero)
    assert [s.bits for s in sols] == [0, 1]  # alpha^2 + alpha = 0


def test_linearized_solve_trace_one_target_empty():
    one = GF16.one
    # brute force over all 16 candidates for each target
    for bits in range(16):
        b = GF16.element(bits)
        expected = sorted(
            a.bits for a in GF16.elements() if a.square() + a == b
        )
        got = [s.bits for s in linearized_solve([one, one], b)]
        assert got == expected
    bad = next(c for c in GF16.elements() if c.absolute_trace() == 1)
    assert linearized_solve([one, one], bad) == []


def test_linearized_solve_q8_kernel_by_brute_force():
    one = GF64.one
    got = {s.bits for s in linearized_solve([one, one, one], GF64.zero)}
    expected = {
        a.bits for a in GF64.elements() if a.frobenius(2) + a.square() + a == GF64.zero
    }
    assert got == expected and len(got) == 4


def test_linearized_solve_substitution_property():
    rng = random.Random(5)
    for fld in (GF16, GF64):
        t = fld.t
        for _ in range(25):
            coeffs = [fld.element(rng.randrange(fld.order)) for _ in range(t)]
            if all(c.bits == 0 for c in coeffs):
                coeffs[0] = fld.one
            b = fld.element(rng.randrange(fld.order))
            for alpha in linearized_solve(coeffs, b):
                acc = fld.zero
                for i, c in enumerate(coeffs, start=1):
                    acc = acc + c * alpha.frobenius(t - i)
                assert acc == b


def test_linearized_solve_rejects_zero_map():
    with pytest.raises(ValueError):
        linearized_solve([GF16.zero, GF16.zero], GF16.one)


@pytest.mark.parametrize("rank_cap", [0, 1, 3, 6, 8])
def test_reduce_gf2_against_brute_force(rank_cap):
    # random 8 x 8 maps of every rank up to rank_cap: columns drawn from a
    # random subspace, so kernels of dimension 0 to 8 all occur
    rng = random.Random(rank_cap)
    for _ in range(10):
        span = [rng.randrange(256) for _ in range(rank_cap)]
        columns = []
        for _ in range(8):
            v = 0
            for s in span:
                if rng.randrange(2):
                    v ^= s
            columns.append(v)

        def apply(y):
            images = (c for j, c in enumerate(columns) if y >> j & 1)
            return functools.reduce(operator.xor, images, 0)

        fibres = {}
        for y in range(256):
            fibres.setdefault(apply(y), []).append(y)
        reduced = reduce_gf2(columns)
        assert reduced.kernel == fibres[0]
        for v in range(256):
            assert reduced.in_image(v) == (v in fibres)
            assert reduced.coset(v) == fibres.get(v, [])


def test_hex_serialization():
    assert GF16.element(0xB).hex() == "b"
    assert GF256.element(0xB).hex() == "0b"  # width ceil(m/4) = 2
    assert make_field(5, "quartic").element(1).hex() == "00001"
    for fld in (GF16, GF256):
        for bits in (0, 1, fld.order - 1):
            assert fld.from_hex(fld.to_hex(bits)).bits == bits


def test_embedding_is_field_homomorphism():
    rng = random.Random(6)
    for t in (1, 2, 3):
        base = make_field(t)
        quart = make_field(t, "quartic")
        assert quart.embed(base.one) == quart.one
        for _ in range(100):
            a = base.element(rng.randrange(base.order))
            b = base.element(rng.randrange(base.order))
            assert quart.embed(a + b) == quart.embed(a) + quart.embed(b)
            assert quart.embed(a * b) == quart.embed(a) * quart.embed(b)
            assert quart.embed(a).in_subfield(2 * t)
    # injective on GF(16)
    images = {make_field(2, "quartic").embed(a).bits for a in GF16.elements()}
    assert len(images) == 16


def test_trace_and_norm_land_in_subfield():
    rng = random.Random(7)
    for fld, d in ((GF16, 2), (GF256, 4), (GF64, 3)):
        for _ in range(50):
            a = fld.element(rng.randrange(fld.order))
            assert a.trace_to(d).in_subfield(d)
            assert a.norm_to(d).in_subfield(d)
            assert a.absolute_trace() in (0, 1)


def test_trace_additive_norm_multiplicative():
    rng = random.Random(8)
    for _ in range(100):
        a = GF256.element(rng.randrange(256))
        b = GF256.element(rng.randrange(256))
        assert (a + b).trace_to(4) == a.trace_to(4) + b.trace_to(4)
        assert (a * b).norm_to(4) == a.norm_to(4) * b.norm_to(4)
        assert a.square() == a * a


def test_element_immutability_and_range():
    a = GF16.element(3)
    with pytest.raises(AttributeError):
        a.bits = 5
    with pytest.raises(ValueError):
        GF16.element(16)
    with pytest.raises(ValueError):
        GF16.element(-1)
