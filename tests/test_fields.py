"""Field tower: arithmetic, Frobenius, subfields, additive solvers."""

import copy
import functools
import math
import operator
import pickle
import random

import pytest

from maxcurves import fields
from maxcurves.fields import (
    BinaryField,
    CheckFailed,
    TowerField,
    additive_map,
    is_irreducible,
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


def trial_division_irreducible(mask: int) -> bool:
    """The reference for Rabin's test: no factor of degree 1 to m/2."""
    m = mask.bit_length() - 1
    if m <= 0:
        return False
    for d in range(1, m // 2 + 1):
        for cand in range(1 << d, 1 << (d + 1)):
            if poly_mod(mask, cand) == 0:
                return False
    return True


def clmul(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[z] polynomials, unreduced."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def test_poly_mod_by_zero_raises():
    for a in (0, 1, 5):
        with pytest.raises(ZeroDivisionError):
            poly_mod(a, 0)


def test_rabin_agrees_with_trial_division_up_to_degree_12():
    for mask in range(1 << 13):
        assert is_irreducible(mask) == trial_division_irreducible(mask), bin(mask)


@pytest.mark.parametrize("m", [16, 20])
def test_rabin_agrees_with_trial_division_at_random_degree_16_and_20(m):
    rng = random.Random(m)
    masks = [1 << m | rng.randrange(1 << m) for _ in range(60)]
    masks += [1 << m | rng.randrange(1 << m) | 1 for _ in range(60)]  # no factor z
    verdicts = [is_irreducible(p) for p in masks]
    assert verdicts == [trial_division_irreducible(p) for p in masks]
    assert any(verdicts) and not all(verdicts)


def test_rabin_accepts_every_shipped_modulus():
    for m, modulus in fields._MODULI.items():
        assert modulus.bit_length() - 1 == m
        assert is_irreducible(modulus) and trial_division_irreducible(modulus)


@pytest.mark.parametrize("m", [16, 20])
def test_rabin_refuses_products_of_two_irreducibles_of_degree_m_over_2(m, monkeypatch):
    # f = g1 g2 divides z^(2^m) - z, since deg g1 = deg g2 divides m: only the
    # gcd with z^(2^(m/2)) - z refuses it, so dropping the gcd step (no
    # prime divisors of m) accepts every such product
    half = [p for p in range(1 << m // 2, 1 << (m // 2 + 1)) if trial_division_irreducible(p)]
    products = [clmul(a, b) for a, b in zip(half[:6], half[1:7])]
    assert not any(is_irreducible(p) for p in products)
    monkeypatch.setattr(fields, "_prime_factors", lambda n: [])
    assert all(is_irreducible(p) for p in products)


def reference_tables(fld: BinaryField) -> tuple[int, list[int], list[int]]:
    """The ascending search that once built the tables: the first g whose
    shift-and-reduce run 1, g, g^2, ... meets 1 again only after 2^m - 1 steps."""
    order = fld.order
    for g in range(2, order):
        exp = [0] * (2 * order)
        log = [0] * order
        v = 1
        for i in range(order - 1):
            if v == 1 and i > 0:
                break
            exp[i] = v
            log[v] = i
            v = fld._mul_raw(v, g)
        else:
            for i in range(order - 1, 2 * order):
                exp[i] = exp[i - (order - 1)]
            return g, log, exp
    raise AssertionError("no generator")


TABLED_FIELDS = sorted(
    {f.m: f for t in range(1, 6) for f in (make_field(t), make_field(t, "quartic")) if f.m <= 16}.values(),
    key=lambda f: f.m,
)


@pytest.mark.parametrize("fld", TABLED_FIELDS, ids=lambda f: f"m={f.m}")
def test_tables_equal_the_ascending_shift_and_reduce_search(fld):
    g, log, exp = reference_tables(fld)
    assert (fld._log, fld._exp) == (log, exp)  # built by make_field, before any product
    assert fld._exp[1] == g == (3 if fld.m in (8, 12, 16) else 2)


def test_a_generator_test_missing_a_prime_fails_the_table_build(monkeypatch):
    # z has order 51 = 255 / 5 at m = 8: an order test without r = 5 accepts
    # it, and its run meets 1 again at z^51, which the build must refuse
    real = fields._prime_factors
    monkeypatch.setattr(fields, "_prime_factors", lambda n: [r for r in real(n) if r != 5])
    with pytest.raises(CheckFailed, match="does not generate"):
        BinaryField(2, "quartic", 8, GF256.modulus)


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
    assert sum(1 for a in GF16.elements(range(GF16.order)) if a.in_subfield(2)) == 4
    assert sum(1 for a in GF256.elements(range(GF256.order)) if a.in_subfield(4)) == 16
    # full enumeration over every divisor for m <= 16
    for fld in (GF4, GF16, GF64, GF256, make_field(3, "quartic"), make_field(4, "quartic")):
        for d in range(1, fld.m + 1):
            if fld.m % d == 0:
                count = sum(1 for a in fld.elements(range(fld.order)) if a.in_subfield(d))
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
        expected = sorted(u.bits for u in fld.elements(range(fld.order)) if (u.square() + u) == c)
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
    # the standard y-part y^2 + y over GF(16): its kernel is GF(2), q/2 elements
    assert additive_map(GF16, {2: 1, 1: 1}).coset(0) == [0, 1]


def test_linearized_solve_trace_one_target_empty():
    a_map = additive_map(GF16, {2: 1, 1: 1})
    # brute force over all 16 candidates for each target
    for bits in range(16):
        b = GF16.element(bits)
        expected = sorted(a.bits for a in GF16.elements(range(GF16.order)) if a.square() + a == b)
        assert a_map.coset(bits) == expected
    bad = next(c for c in GF16.elements(range(GF16.order)) if c.absolute_trace() == 1)
    assert a_map.coset(bad.bits) == []


def test_linearized_solve_q8_kernel_by_brute_force():
    # the standard y-part y^4 + y^2 + y over GF(64): its kernel has q/2 elements
    got = additive_map(GF64, {4: 1, 2: 1, 1: 1}).kernel
    expected = [
        a.bits
        for a in GF64.elements(range(GF64.order))
        if a.frobenius(2) + a.square() + a == GF64.zero
    ]
    assert got == sorted(expected) and len(got) == 4


def test_linearized_solve_substitution_property():
    # seeded trace-form y-parts sum a_i y^(q/2^i): every coset equals the
    # fibre of a scan that evaluates the sum with Frobenius powers
    rng = random.Random(5)
    for fld in (GF16, GF64):
        t, q = fld.t, fld.q
        for _ in range(4):
            coeffs = [fld.element(rng.randrange(1, fld.order)) for _ in range(t)]
            fibres = {}
            for alpha in fld.elements(range(fld.order)):
                acc = fld.zero
                for i, c in enumerate(coeffs, start=1):
                    acc = acc + c * alpha.frobenius(t - i)
                fibres.setdefault(acc.bits, []).append(alpha.bits)
            a_map = additive_map(fld, {q >> i: c.bits for i, c in enumerate(coeffs, start=1)})
            assert all(a_map.coset(v) == sorted(fibres.get(v, [])) for v in range(fld.order))


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
            if v in fibres:  # the untested lift is the least preimage of an image
                assert reduced.lift(v) == reduced.preimage(v) == fibres[v][0]


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
    images = {make_field(2, "quartic").embed(a).bits for a in GF16.elements(range(GF16.order))}
    assert len(images) == 16


def test_trace_and_norm_land_in_subfield():
    # the relative trace and norm onto GF(2^d): the sum of the conjugates
    # a^(2^(dk)), and their product as the one power a^((2^m - 1)/(2^d - 1))
    rng = random.Random(7)
    for fld, d in ((GF16, 2), (GF256, 4), (GF64, 3)):
        for _ in range(50):
            a = fld.element(rng.randrange(fld.order))
            trace = functools.reduce(operator.add, (a.frobenius(d * k) for k in range(fld.m // d)))
            assert trace.in_subfield(d)
            assert (a ** ((fld.order - 1) // ((1 << d) - 1))).in_subfield(d)
            assert a.absolute_trace() in (0, 1)
            assert a.square() == a * a


def test_trace_additive_norm_multiplicative():
    # relative trace and norm GF(256) -> GF(16), from their definitions
    def trace(a):
        return a + a.frobenius(4)

    def norm(a):
        return a ** 17

    rng = random.Random(8)
    for _ in range(100):
        a = GF256.element(rng.randrange(256))
        b = GF256.element(rng.randrange(256))
        assert trace(a + b) == trace(a) + trace(b)
        assert norm(a * b) == norm(a) * norm(b)
        assert a.square() == a * a


def test_element_immutability_and_range():
    a = GF16.element(3)
    with pytest.raises(AttributeError):
        a.bits = 5
    with pytest.raises(ValueError):
        GF16.element(16)
    with pytest.raises(ValueError):
        GF16.element(-1)


# -- GF(2^20): the degree-2 tower over GF(2^10) against shift-and-reduce ------

GF2_20 = make_field(5, "quartic")


def ref_mul(a: int, b: int, modulus: int) -> int:
    """Carry-less product of a and b reduced modulo the field polynomial."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    deg = modulus.bit_length() - 1
    while r.bit_length() - 1 >= deg:
        r ^= modulus << (r.bit_length() - 1 - deg)
    return r


def ref_pow(a: int, e: int, modulus: int) -> int:
    r = 1
    for bit in bin(e)[2:]:
        r = ref_mul(r, r, modulus)
        if bit == "1":
            r = ref_mul(r, a, modulus)
    return r


def gf2_20_samples() -> list[int]:
    """0, 1, the embedded GF(2^10) basis, a few subfield elements and
    seeded random masks."""
    rng = random.Random(20)
    subfield = [GF2_20.embed(make_field(5).element(b)).bits for b in (2, 3, 0x155, 0x3FF)]
    return [0, 1, 2, GF2_20.order - 1, *basis_images(GF2_20), *subfield] + [
        rng.randrange(GF2_20.order) for _ in range(60)
    ]


def test_gf2_20_products_match_shift_and_reduce():
    mod = GF2_20.modulus
    samples = gf2_20_samples()
    for a in samples:
        for b in samples:
            assert GF2_20.mul_int(a, b) == ref_mul(a, b, mod), (hex(a), hex(b))
    rng = random.Random(21)
    for _ in range(3000):
        a, b = rng.randrange(GF2_20.order), rng.randrange(GF2_20.order)
        assert GF2_20.mul_int(a, b) == ref_mul(a, b, mod)


def test_gf2_20_powers_inverses_and_frobenius_match_shift_and_reduce():
    mod = GF2_20.modulus
    rng = random.Random(22)
    for a in gf2_20_samples():
        for e in (0, 1, 2, 3, 33, 1025, rng.randrange(GF2_20.order)):
            assert GF2_20.pow_int(a, e) == ref_pow(a, e, mod)
        for k in (0, 1, 5, 10, 19, 20, 23):
            assert GF2_20.frob_int(a, k) == ref_pow(a, 1 << (k % 20), mod)
        if a:
            inv = GF2_20.inv_int(a)
            assert ref_mul(a, inv, mod) == 1 and inv == ref_pow(a, GF2_20.order - 2, mod)


def test_tower_is_built_when_the_field_is_made():
    fld = TowerField(5, "quartic", 20, GF2_20.modulus)
    assert fld._tower == GF2_20._tower  # before any product
    for a, b in ((1, 1), (1, 7), (7, 1), (3, 5)):
        assert fld.mul_int(0, a) == fld.mul_int(b, 0) == 0
        assert fld.mul_int(a, b) == ref_mul(a, b, fld.modulus)
    # no table of 2^20 entries: the largest is the zero-aware exp of GF(2^10)
    assert not hasattr(fld, "_log")
    assert max(len(table) for table in fld._tower if isinstance(table, list)) < 1 << 12


def test_make_field_makes_a_tower_exactly_at_m_20():
    for fld in SHIPPED_FIELDS:
        assert type(fld) is (TowerField if fld.m == 20 else BinaryField), fld


def test_tower_with_a_trace_zero_constant_is_refused(monkeypatch):
    # w^2 + w + 1 splits over GF(2^10) (Tr(1) = 0), so w and w beta^i add
    # no new dimension and the 20 columns cannot span GF(2^20)
    assert make_field(5).one.absolute_trace() == 0
    monkeypatch.setattr(fields, "_tower_constant", lambda base: 1)
    with pytest.raises(ArithmeticError):
        TowerField(5, "quartic", 20, GF2_20.modulus)


@pytest.mark.parametrize(
    "t,level", [(t, lvl) for t in (1, 2, 3) for lvl in fields.LEVELS] + [(5, "base-square")]
)
def test_subfield_masks_against_the_definition(t, level):
    fld = make_field(t, level)
    for d in range(1, fld.m + 1):
        if fld.m % d == 0:
            expected = [a for a in range(fld.order) if fld.frob_int(a, d) == a]
            assert fld.subfield_masks(d) == expected


@pytest.mark.parametrize("t", [4, 5])
def test_subfield_masks_size_and_closure_at_m_16_and_20(t):
    fld = make_field(t, "quartic")
    rng = random.Random(t)
    for d in range(1, fld.m):  # proper subfields: d = m lists the whole field
        if fld.m % d:
            continue
        sub = fld.subfield_masks(d)
        assert len(sub) == 1 << d and sub == sorted(sub)
        members = set(sub)
        picks = sub if len(sub) <= 64 else rng.sample(sub, 64)
        for a in picks:
            assert ref_pow(a, 1 << d, fld.modulus) == a
        for _ in range(200):
            a, b = rng.choice(sub), rng.choice(sub)
            assert a ^ b in members and fld.mul_int(a, b) in members


EMBEDDING_IMAGES = {
    1: [0x1, 0x6],
    2: [0x1, 0x5C, 0xE0, 0x50],
    3: [0x1, 0xA3, 0x421, 0x9A2, 0xD01, 0x448],
    4: [0x1, 0x41CD, 0xE02C, 0xC837, 0xD908, 0x8E55, 0x7E8D, 0x7875],
    5: [0x1, 0x1735, 0x50588, 0x1E342, 0x8D049, 0x9A3F5, 0x5AF44, 0x4B790, 0x43DC3, 0xDFDBC],
}


def basis_images(fld: BinaryField) -> list[int]:
    """The masks of embed(z^i) for the basis z^i of fld's GF(q^2)."""
    return [fld.embed(fld.base.element(1 << i)).bits for i in range(fld.base.m)]


def embedding_mismatches(fld: BinaryField) -> list[int]:
    """Every mask v of GF(q^2) whose image is not the XOR of the pinned
    basis images over the bits of v."""
    span = [0]
    for c in EMBEDDING_IMAGES[fld.t]:
        span += [v ^ c for v in span]
    base = fld.base
    return [v for v in range(base.order) if fld.embed(base.element(v)).bits != span[v]]


@pytest.mark.parametrize("t", sorted(EMBEDDING_IMAGES))
def test_embedding_images_are_pinned(t):
    # recorded when beta was the least root among all norms of the field
    assert basis_images(make_field(t, "quartic")) == EMBEDDING_IMAGES[t]


@pytest.mark.parametrize("t", sorted(EMBEDDING_IMAGES))
def test_embedding_is_the_span_of_the_pinned_images_at_every_mask(t):
    fld = make_field(t, "quartic")
    assert fld.base is make_field(t) and fld.base.base is fld.base
    assert not embedding_mismatches(fld)
    other = t % fields.MAX_T + 1
    for foreign in (make_field(other).one, make_field(other, "quartic").one):
        with pytest.raises(ValueError, match="cannot embed"):
            fld.embed(foreign)


def test_planted_flipped_embedding_entry_is_caught(monkeypatch):
    fld = make_field(5, "quartic")
    planted = list(fld._from_base)
    planted[0x2A5] ^= 1 << 7
    monkeypatch.setattr(fld, "_from_base", planted)
    assert embedding_mismatches(fld) == [0x2A5]


def inverse_failures(fld: BinaryField, samples) -> list[int]:
    return [a for a in samples if a and ref_mul(a, fld.inv_int(a), fld.modulus) != 1]


def test_gf2_20_inverse_goes_through_the_tower_norm():
    samples = gf2_20_samples()
    subfield = set(samples[4:-60])  # 1, the embedded basis and the GF(2^10) picks
    fld = TowerField(5, "quartic", 20, GF2_20.modulus)
    assert fld.inv_int(1) == 1
    with pytest.raises(ValueError, match="zero has no inverse"):  # the norm of 0 is 0
        fld.inv_int(0)
    assert not inverse_failures(fld, samples)
    # plant a wrong nu in the norm a^2 + ab + nu b^2: products stay right,
    # inverses of elements outside GF(2^10) (b != 0) go wrong
    *tables, nu = fld._tower
    fld._tower = (*tables, nu ^ 1)
    assert all(fld.mul_int(a, b) == ref_mul(a, b, fld.modulus) for a in samples for b in samples[:8])
    failures = inverse_failures(fld, samples)
    assert failures and subfield.isdisjoint(failures)


# -- row kernels against shift-and-reduce, at every shipped degree ------------

SHIPPED_FIELDS = [make_field(t, level) for t in range(1, 6) for level in fields.LEVELS]


def kernel_row(fld: BinaryField, rng: random.Random, length: int) -> list[int]:
    """Random nonzero entries with zeros first, last and in the middle:
    log[0] is a placeholder that a kernel must never use."""
    row = [rng.randrange(1, fld.order) for _ in range(length)]
    row[0] = row[length // 2] = row[-1] = 0
    return row


@pytest.mark.parametrize("fld", SHIPPED_FIELDS, ids=lambda f: f"m={f.m}-{f.level}")
def test_row_kernels_match_shift_and_reduce(fld):
    mod = fld.modulus
    rng = random.Random(fld.m)
    u, v = kernel_row(fld, rng, 9), kernel_row(fld, rng, 7)
    full = [0] * (len(u) + len(v) + 2)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            full[i + j] ^= ref_mul(a, b, mod)
    for n in range(len(full) + 1):
        assert fld.convolve(u, v, n) == fld.convolve(v, u, n) == full[:n], n
    for k in (0, 1, fld.m - 1, fld.m, fld.m + 3):
        expected = [ref_pow(a, 1 << (k % fld.m), mod) for a in u]
        assert fld.frob_row(u, k) == [fld.frob_int(a, k) for a in u] == expected


# the census refuses GF(2^20) before it evaluates, so the tower has no values
TABLED_SHIPPED_FIELDS = [f for f in SHIPPED_FIELDS if f.m <= 16]


def walk_cases(fld):
    """(part, period length of its walk) for the x-part kinds a walk meets.
    Every shipped m is even, so 3 and q + 1 divide p = 2^m - 1; p itself
    is odd, so no period has a factor 2."""
    period = fld.order - 1
    rng = random.Random(fld.m + 2)
    coef = functools.partial(rng.randrange, 1, fld.order)
    q1 = fld.q + 1
    return [
        ({q1: coef()}, period // q1),  # the census's x^(q+1): d = q + 1
        # gcd 1: d = 1; e = 2^m + 1 reduces to 2 mod p, and e = p - 1 is
        # walked in many slices
        ({q1: coef(), 1: coef(), 0: coef(), fld.order + 1: coef(), period - 1: coef()}, period),
        # common factor 3, with a constant, e = p (constant at x != 0),
        # e = 2p + 6 (6 mod p) and a zero coefficient whose exponent would
        # lower the gcd
        ({3: coef(), 9: coef(), 0: coef(), period: coef(), 2 * period + 6: coef(), 1: 0}, period // 3),
        ({0: coef(), period: coef(), 2 * period: 0}, 1),  # constant only: d = p
        ({}, 1),
    ]


def ref_part_at(fld, part, x):
    """sum of c x^e over part, by shift-and-reduce (x^0 = 1)."""
    return functools.reduce(
        operator.xor, (ref_mul(c, ref_pow(x, e, fld.modulus), fld.modulus) for e, c in part.items()), 0
    )


@pytest.mark.parametrize("fld", TABLED_SHIPPED_FIELDS, ids=lambda f: f"m={f.m}-{f.level}")
def test_values_match_shift_and_reduce(fld):
    # the walk read at every nonzero mask x as the census reads it, entry
    # log x mod its length, against shift-and-reduce at x itself
    rng = random.Random(fld.m)
    xs = range(1, fld.order) if fld.m <= 8 else [1, 2, fld.order - 1, *rng.sample(range(1, fld.order), 200)]
    for part, _ in walk_cases(fld):
        walk = fld.values_by_log(part)
        for x in xs:
            assert walk[fld._log[x] % len(walk)] == ref_part_at(fld, part, x), (part, hex(x))


@pytest.mark.parametrize("fld", TABLED_SHIPPED_FIELDS, ids=lambda f: f"m={f.m}-{f.level}")
def test_values_by_log_walks_the_antilog_table(fld):
    # one period, p/d entries, and P(g^i) = walk[i mod p/d] at every i,
    # with g^i made by shift-and-reduce from the table's generator
    period = fld.order - 1
    g = fld._exp[1]
    rng = random.Random(fld.m + 3)
    idx = range(period) if fld.m <= 8 else [0, 1, period - 1, *rng.sample(range(period), 200)]
    for part, length in walk_cases(fld):
        walk = fld.values_by_log(part)
        assert len(walk) == length and period % length == 0, part
        for i in idx:
            assert walk[i % length] == ref_part_at(fld, part, ref_pow(g, i, fld.modulus)), (part, i)
    assert fld.values_by_log({}) == [0]
    assert fld.values_by_log({0: 1, period: 2, 2 * period: 0}) == [3]


def plant_half_period_walk(monkeypatch):
    values_by_log = BinaryField.values_by_log

    def half(fld, part):
        walk = values_by_log(fld, part)
        return walk[: len(walk) // 2]

    monkeypatch.setattr(BinaryField, "values_by_log", half)


def plant_double_d(monkeypatch):
    monkeypatch.setattr(fields, "gcd", lambda *a: 2 * math.gcd(*a))


@pytest.mark.parametrize("plant", [plant_half_period_walk, plant_double_d])
def test_planted_walk_defects_fail_the_walk_tests(monkeypatch, plant):
    plant(monkeypatch)
    for fld in (make_field(2), make_field(2, "quartic")):
        for check in (test_values_by_log_walks_the_antilog_table, test_values_match_shift_and_reduce):
            with pytest.raises(AssertionError):
                check(fld)


@pytest.mark.parametrize("fld", SHIPPED_FIELDS, ids=lambda f: f"m={f.m}-{f.level}")
def test_each_field_holds_its_artin_schreier_reduction(fld):
    assert fld._artin_schreier == additive_map(fld, {2: 1, 1: 1})
    u = fld.order - 3
    c = fld.element(fld.mul_int(u, u) ^ u)
    assert [s.bits for s in solve_artin_schreier(c)] == sorted([u, u ^ 1])


@pytest.mark.parametrize("fld", SHIPPED_FIELDS, ids=lambda f: f"m={f.m}-{f.level}")
def test_part_at_and_additive_map_match_shift_and_reduce(fld):
    mod = fld.modulus
    rng = random.Random(fld.m + 1)
    # an additive part, with a zero coefficient first and a nonzero term last
    part = {8: 0} | {1 << k: rng.randrange(1, fld.order) for k in range(3)} | {1 << fld.m + 2: 1}
    xs = [0, 1, 2, fld.order - 1, *(rng.randrange(fld.order) for _ in range(30))]
    for x in xs:
        terms = (ref_mul(c, ref_pow(x, e, mod), mod) for e, c in part.items())
        assert fld.part_at(part, x) == functools.reduce(operator.xor, terms), hex(x)
    a_map = additive_map(fld, part)
    assert all(fld.part_at(part, y) == 0 for y in a_map.kernel)
    for x in xs:
        v = fld.part_at(part, x)
        assert a_map.in_image(v) and x in a_map.coset(v)
    # single terms: e = 0 gives c, and 2^m wraps round to x itself
    for e in [0, 1, fld.q + 1] + [1 << k for k in range(1, fld.m + 1)]:
        c = rng.randrange(1, fld.order)
        for x in xs[:8]:
            assert fld.part_at({e: c}, x) == ref_mul(c, ref_pow(x, e, mod), mod), (e, hex(x))


def test_tower_frob_row_matches_shift_and_reduce_for_every_k():
    rng = random.Random(19)
    row = kernel_row(GF2_20, rng, 11)
    # zeros are skipped, so an all-zero row and a tuple row go through too
    for r in (row, tuple(row), [0] * 5):
        for k in range(2 * GF2_20.m + 1):
            expected = [ref_pow(a, 1 << k, GF2_20.modulus) for a in r]
            assert GF2_20.frob_row(r, k) == expected, (r, k)
            assert [GF2_20.frob_int(a, k) for a in r] == expected, (r, k)
    assert GF2_20.frob_row([], 7) == []


def test_tower_frobenius_reads_every_table_entry_right():
    # a mask with one nonzero chunk reads one entry of that chunk's table
    # and entry 0 of the others, so this visits every entry for every k
    width = -(-GF2_20.m // 4)
    for shift in range(0, GF2_20.m, width):
        for v in range(1 << width):
            a = expected = v << shift
            for k in range(1, GF2_20.m):
                expected = ref_mul(expected, expected, GF2_20.modulus)
                assert GF2_20.frob_int(a, k) == GF2_20.pow_int(a, 1 << k) == expected, (a, k)


@pytest.mark.parametrize("fld", SHIPPED_FIELDS, ids=lambda f: f"m={f.m}-{f.level}")
def test_elements_and_fields_survive_copy_and_pickle(fld):
    a = fld.element(fld.order - 2)
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert copied == a and copied.field is fld and hash(copied) == hash(a)
        with pytest.raises(AttributeError):
            copied.bits = 0
    # a field comes back as the interned one, so identity checks still hold
    assert copy.deepcopy(fld) is fld and pickle.loads(pickle.dumps(fld)) is fld


@pytest.mark.parametrize("fld", SHIPPED_FIELDS, ids=lambda f: f"m={f.m}-{f.level}")
def test_elements_in_bulk_equal_elements_made_one_by_one(fld):
    masks = [0, 1, fld.order - 1, 3, 3, fld.order // 2]
    made = fld.elements(masks)
    reference = [fields.FieldElement(b, fld) for b in masks]
    assert made == reference and [a.bits for a in made] == masks
    assert list(map(hash, made)) == list(map(hash, reference))
    assert list(map(repr, made)) == list(map(repr, reference))
    assert all(type(a) is fields.FieldElement and a.field is fld for a in made)
    assert made[3] is not made[4]  # one object per entry, as FieldElement makes them
    for a in made:
        with pytest.raises(AttributeError):
            a.bits = 2
        with pytest.raises(AttributeError):
            a.field = GF16
        assert not hasattr(a, "__dict__")
    back = pickle.loads(pickle.dumps(made))
    assert back == made and all(a.field is fld for a in back)
    assert fld.elements([]) == []
