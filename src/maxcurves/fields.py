"""Exact arithmetic in the binary field tower GF(q) < GF(q^2) < GF(q^4), q = 2^t.

Elements are m-bit masks: bit i is the coefficient of z^i in the residue
class modulo a fixed irreducible polynomial of degree m, so addition is
XOR and 0/1 are the additive/multiplicative identities.  The reduction
polynomial for each supported degree is read from a shipped table
(lowest weight, then numerically smallest), which keeps serialized
elements reproducible bit-exactly across runs.

Two tower levels are supported per t: ``base-square`` is GF(2^{2t}) and
houses the curve coefficients, ``quartic`` is GF(2^{4t}) and houses the
degree-4 extension points.  GF(q) itself is not a separate structure: it
is the fixed field of the q-power map inside GF(q^2), and subfield
membership is a single Frobenius test.

:func:`make_field` chooses how a field multiplies, and the constructor
builds all it needs: ``base``, the GF(q^2) of its t (the field itself
at ``base-square``); at ``quartic`` the embedding of ``base`` as one
table over its 2^(2t) masks, so :meth:`BinaryField.embed` is one lookup;
then its tables or its tower.
Fields of at most 2^16 elements (:class:`BinaryField`) multiply by
log/antilog tables, and powers, inverses and Frobenius maps are one
lookup in them.  GF(2^20), the quartic field at q = 32, is a
:class:`TowerField`: it multiplies through the degree-2 tower
K[w]/(w^2 + w + nu) over its tabled subfield K = ``base``, instead of
2^m-entry tables: two lookups per operand change basis, three K products
in Karatsuba form and three lookups change back, all from tables of
about 2^(m/2) entries.  The tower inverts through the inherited
``inv_int``, a^(2^m - 2) by square-and-multiply on those products: the
standard curves' checks make no tower inverse, so no faster path is kept.

The tables are one run 1, g, g^2, ... of the least primitive element g,
found by its order: g^((2^m - 1)/r) != 1 for every prime r dividing
2^m - 1.  Multiplication by g is GF(2)-linear, so each step of the run is
two lookups in tables of 2^(m/2) entries spanned from m products, and
the run certifies itself by returning to 1 first at g^(2^m - 1).  The
shift-and-reduce product makes those m products, the generator test, the
tower and the embedding, and is not used after.  The shipped moduli are
certified irreducible by Rabin's test on every field creation.

Row kernels work on whole coefficient lists: the truncated product of
two lists (:meth:`BinaryField.convolve`, which the Hasse-identity test
of the series layer multiplies with) and one period of a sparse
polynomial over the nonzero elements of a tabled field.  On tabled
fields each looks the tables up once and runs one loop with no call per
coefficient; the product walks only the nonzero entries of each list,
picked by ``compress``, since the log of 0 is a placeholder.  There is
no scaling or Frobenius kernel: the series layer scales and raises only
y's few nonzero terms, one ``mul_int`` or ``frob_int`` each.  The
polynomial is taken in log order
(:meth:`BinaryField.values_by_log`): c x^e at x = g^i is the antilog
entry at log c + e i, so each term is a run of strided slices of the
antilog table, and the terms are added with one C-level XOR pass each.
The walk repeats with period p/d, p = 2^m - 1 and d the gcd of p and
the exponents, and one period is all it returns: x -> x^d is d-to-1 on
the nonzero elements.  The value at a mask x != 0 is entry log x mod p/d.
The tower multiplies through ``mul_int`` per nonzero entry,
and squares through its own two square tables inline in ``pow_int``.
It raises to 2^k, in ``frob_int``, by table lookup for any k:
a -> a^(2^k) is GF(2)-linear, so the constructor spans the images
of the basis, per k = 1..m-1, over four 5-bit chunks of the mask, and
a^(2^k) is the XOR of four lookups in 32-entry tables (19 x 4 x 32
entries in all, about 0.1 MiB, built in well under a millisecond), not
k squarings.  These tables belong to the field, as the
embedding table does: nothing is kept between calls.

:meth:`BinaryField.part_at` evaluates a sparse polynomial at one
point (on the tower, v^(2^k) is one Frobenius lookup and no product),
and :func:`additive_map` reduces an additive one as a GF(2)-linear
map; the census, the maximality criterion of ``normalize`` and the
Artin-Schreier solver share that one reduction.  Each field holds the
reduction of u -> u^2 + u, made after its tables or tower, so solving
u^2 + u = c is one coset lookup.
"""

from __future__ import annotations

from collections import deque
from importlib import resources
from itertools import compress, repeat
from math import gcd
from operator import xor
from string import hexdigits
from typing import NamedTuple, Sequence

MAX_T = 5
LEVELS = ("base-square", "quartic")

_HEX_DIGITS = frozenset(hexdigits)  # 0-9, a-f and A-F: what from_hex accepts
_TABLE_LIMIT = 16  # log/antilog tables up to GF(2^16); above, the degree-2 tower


class CheckFailed(ArithmeticError):
    """An identity that holds exactly in theory failed on computed values."""


def _load_moduli() -> dict[int, int]:
    text = resources.files("maxcurves.data").joinpath("moduli.txt").read_text()
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        table[int(key)] = int(value.strip(), 16)
    return table


_MODULI = _load_moduli()


def poly_degree(mask: int) -> int:
    """Degree of a GF(2)[z] polynomial given as a bit mask (-1 for 0)."""
    return mask.bit_length() - 1


def poly_mod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b over GF(2)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = poly_degree(b)
    while a and poly_degree(a) >= db:
        a ^= b << (poly_degree(a) - db)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def is_irreducible(mask: int) -> bool:
    """Rabin's test over GF(2): f of degree m >= 1 is irreducible iff
    x^(2^m) = x mod f and gcd(x^(2^(m/r)) - x, f) = 1 for every prime r | m."""
    m = poly_degree(mask)
    if m <= 0:
        return False
    x = poly_mod(0b10, mask)
    frob = [x]  # x^(2^k) mod f for k = 0..m; squaring spreads the bits apart
    for _ in range(m):
        frob.append(poly_mod(int("0".join(format(frob[-1], "b")), 2), mask))
    return frob[m] == x and all(
        _poly_gcd(mask, frob[m // r] ^ x) == 1 for r in _prime_factors(m)
    )


class BinaryField:
    """GF(2^m) with a fixed reduction polynomial, describing one tower level.

    Do not instantiate directly: use :func:`make_field`, which interns
    one object per (t, level) so field identity can be checked with
    ``is``, and makes a :class:`TowerField` above 2^16 elements.
    """

    def __init__(self, t: int, level: str, m: int, modulus: int) -> None:
        if not is_irreducible(modulus):  # shipped data, not user input: a failed check
            raise CheckFailed(f"table modulus {modulus:#x} for m={m} is not irreducible")
        self.t = t
        self.level = level
        self.m = m
        self.modulus = modulus
        self.q = 1 << t
        self.order = 1 << m
        self.hex_width = (m + 3) // 4
        self.base = self if level == "base-square" else make_field(t)
        if level == "quartic":
            self._from_base = _span_table(self._embedding_images())  # GF(q^2) mask -> mask here
        self._build_arithmetic()
        self._artin_schreier = additive_map(self, {2: 1, 1: 1})  # u -> u^2 + u

    def __repr__(self) -> str:
        return f"BinaryField(t={self.t}, level={self.level!r}, m={self.m})"

    def __reduce__(self):
        # pickles and copies come back as the interned field, not a twin
        return make_field, (self.t, self.level)

    # -- raw int arithmetic ------------------------------------------------

    def _mul_raw(self, a: int, b: int) -> int:
        top = 1 << self.m
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= self.modulus
        return r

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _generator(self) -> int:
        """The least multiplicative generator: the least mask g with
        g^((2^m - 1)/r) != 1 for every prime r dividing 2^m - 1.  The
        reduction polynomial need not be primitive, and z is not one at
        m = 8, 12 and 16."""
        period = self.order - 1
        cofactors = [period // r for r in _prime_factors(period)]
        for g in range(2, self.order):
            if all(self._pow_raw(g, e) != 1 for e in cofactors):
                return g
        raise CheckFailed(f"no multiplicative generator of {self!r}")

    def _build_arithmetic(self) -> None:
        """The log/antilog tables, one run 1, g, g^2, ... of the generator."""
        # multiplication by g is GF(2)-linear: v g = lo[low bits] ^ hi[high bits]
        g = self._generator()
        h = self.m // 2
        low = (1 << h) - 1
        lo = _span_table([self._mul_raw(1 << j, g) for j in range(h)])
        hi = _span_table([self._mul_raw(1 << j, g) for j in range(h, self.m)])
        order = self.order
        period = order - 1
        exp = [0] * (2 * order)
        log = [0] * order
        v = 1
        for i in range(period):
            exp[i] = exp[i + period] = v
            log[v] = i
            v = lo[v & low] ^ hi[v >> h]
        # the run must close at g^(2^m - 1) and pass 1 only at its start
        if v != 1 or log[1]:
            raise CheckFailed(f"{g:#x} does not generate the multiplicative group of {self!r}")
        exp[2 * period :] = exp[:2]  # 2 order = 2 period + 2 entries
        self._exp = exp
        self._log = log

    def mul_int(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def sqr_int(self, a: int) -> int:
        return self.mul_int(a, a)

    def pow_int(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent; use inv_int first")
        if a == 0:
            return 1 if e == 0 else 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def inv_int(self, a: int) -> int:
        if a == 0:
            raise ValueError("zero has no inverse")
        return self.pow_int(a, self.order - 2)

    def frob_int(self, a: int, k: int) -> int:
        """a^(2^k), the k-fold binary Frobenius."""
        if not a:
            return 0
        return self._exp[(self._log[a] << k % self.m) % (self.order - 1)]

    def part_at(self, part: dict[int, int], v: int) -> int:
        """sum of c v^e over part = {e: c}."""
        acc = 0
        for e, c in part.items():
            acc ^= self.mul_int(c, self.pow_int(v, e))
        return acc

    # -- row kernels -----------------------------------------------------------
    # Each kernel skips zero entries: log[0] is a placeholder.

    def convolve(self, u: Sequence[int], v: Sequence[int], n: int) -> list[int]:
        """The coefficients below n of the product of the coefficient lists u
        and v, walking only the nonzero entries of each, picked by ``compress``."""
        out = [0] * n
        log, exp = self._log, self._exp
        logs_v = [(j, log[v[j]]) for j in compress(range(n), v)]
        for i in compress(range(n), u):
            la, room = log[u[i]], n - i
            for j, lb in logs_v:
                if j >= room:
                    break
                out[i + j] ^= exp[la + lb]
        return out

    def values_by_log(self, part: dict[int, int]) -> list[int]:
        """One period of sum c x^e over part = {e: c} at x = g^i, with
        g = exp[1] the table generator: the values at i = 0 .. p/d - 1,
        where p = 2^m - 1 and d = gcd(p, every exponent with a nonzero
        coefficient, reduced mod p), and d = p when the part is constant.

        x^p = 1 for x != 0, so exponents count mod p, and a term with
        e = 0 mod p adds c everywhere.  Every other e is a multiple of d, so
        (g^(i + p/d))^e = (g^i)^e and the walk repeats with period p/d: the
        value at g^i is entry i mod p/d, and each value is taken by d
        nonzero x.  A term is the walk exp[log c + e i mod p], read as the
        strided slices exp[j : 2p : e] of the antilog table, which repeats
        with period p up to index 2p.  Each slice but the last spans at
        least p of the e p/d indices, so a term takes at most e/d + 1
        slices, each copied at C speed.  Terms are combined with one
        ``map(xor, ...)`` each, and the constant is added once.  The
        census's x^(q+1) has d = q + 1 at both levels: one slice of
        p/(q + 1) values.  A term in x^(2^k) makes d = 1 and the walk p
        long.  A large exponent prime to p takes up to about e slices: at
        m = 16 the walk for e = p - 1 costs about as much as evaluating the
        term at every mask one by one.
        """
        period = self.order - 1
        log, exp = self._log, self._exp
        terms = [(e % period, c) for e, c in part.items() if c]
        n = period // gcd(period, *(e for e, _ in terms))
        const = 0
        out = None
        for e, c in terms:
            if not e:
                const ^= c
                continue
            walk: list[int] = []
            j = log[c]
            while len(walk) < n:
                chunk = exp[j : min(2 * period, j + e * (n - len(walk))) : e]
                walk += chunk
                j = (j + e * len(chunk)) % period
            out = walk if out is None else list(map(xor, out, walk))
        if out is None:
            return [const] * n
        return list(map(xor, out, repeat(const, n))) if const else out

    # -- elements ------------------------------------------------------------

    def element(self, bits: int) -> FieldElement:
        if not 0 <= bits < self.order:
            raise ValueError(f"mask {bits:#x} out of range for GF(2^{self.m})")
        return FieldElement(bits, self)

    @property
    def zero(self) -> FieldElement:
        return FieldElement(0, self)

    @property
    def one(self) -> FieldElement:
        return FieldElement(1, self)

    def elements(self, masks: Sequence[int]) -> list[FieldElement]:
        """One element per mask, in order, as ``FieldElement(bits, self)``
        would make it (no range check either), but in bulk: ``object.__new__``
        and each slot's setter, bound once below :class:`FieldElement`, are
        mapped over the whole list, three C-level passes in all."""
        out = list(map(object.__new__, repeat(FieldElement, len(masks))))
        deque(map(_set_bits, out, masks), maxlen=0)
        deque(map(_set_field, out, repeat(self, len(out))), maxlen=0)
        return out

    def from_hex(self, text: str) -> FieldElement:
        """The element of a mask written in hex digits alone: int(text, 16)
        would also read a sign, a 0x prefix, underscores and whitespace."""
        if not text or not set(text) <= _HEX_DIGITS:
            raise ValueError(f"{text!r} is not a hex mask of the digits 0-9 and a-f")
        return self.element(int(text, 16))

    def to_hex(self, bits: int) -> str:
        return format(bits, f"0{self.hex_width}x")

    # -- embedding of the base-square field into the quartic field ------------

    def _embedding_images(self) -> list[int]:
        """Images of the base-square power basis z^i in this quartic field.

        The embedding sends the base generator z to the numerically
        smallest root of the base reduction polynomial here, which pins
        one canonical embedding out of the 2t conjugate choices.  It
        multiplies shift-and-reduce, because it runs before any table
        exists and the tower of GF(2^20) is built on it.
        """
        base = self.base
        sub = self.subfield_masks(base.m)
        beta = next((s for s in sub if _eval_poly_mask(self, base.modulus, s) == 0), None)
        if beta is None:
            raise ArithmeticError("base modulus has no root in the quartic field")
        images = [1]
        for _ in range(1, base.m):
            images.append(self._mul_raw(images[-1], beta))
        return images

    def subfield_masks(self, sub_degree: int) -> list[int]:
        """All masks of the subfield GF(2^sub_degree), ascending.

        The subfield is the kernel of the GF(2)-linear map
        u -> u^(2^sub_degree) + u, read off one elimination on its m
        columns, so no element is scanned.
        """
        if self.m % sub_degree != 0:
            raise ValueError(f"{sub_degree} does not divide m={self.m}")
        columns = []
        for j in range(self.m):
            u = 1 << j
            for _ in range(sub_degree):
                u = self._mul_raw(u, u)
            columns.append(u ^ (1 << j))
        return list(reduce_gf2(columns).kernel)

    def embed(self, a: FieldElement) -> FieldElement:
        """Map an element of the base-square field of the same t into this field."""
        if a.field is self:
            return a
        if a.field is not self.base:
            raise ValueError(f"cannot embed {a.field!r} into {self!r}")
        return FieldElement(self._from_base[a.bits], self)


class TowerField(BinaryField):
    """GF(2^20) as the tower K[w]/(w^2 + w + nu), K = GF(2^10): it builds
    the tower in place of tables and overrides the arithmetic that reads
    them."""

    def _build_arithmetic(self) -> None:
        """Tables for GF(2^m) = K[w]/(w^2 + w + nu), K = GF(2^h), h = m/2.

        K is ``base``, embedded by the field's table ``from_a``, whose
        entries at 1 << i are the images beta^i of its basis; nu is the
        first element of K of absolute trace 1, so w^2 + w + nu is
        irreducible over K, and w is the least root of u^2 + u = nu here.
        The columns beta^i and w beta^i then form a GF(2)-basis, and a
        mask a + b w of the tower is the pair (a, b) of K masks packed as
        a | b << h.  Squaring, being GF(2)-linear, gets two 2^h-entry
        tables of its own, and so does a -> a^(2^k) for each k = 1..m-1:
        four tables of 2^(m/4) entries, one per chunk of the mask.
        """
        base = self.base
        h = base.m
        from_a = self._from_base
        images = [from_a[1 << i] for i in range(h)]
        nu = _tower_constant(base)
        squares = [self._mul_raw(1 << j, 1 << j) for j in range(self.m)]
        w = reduce_gf2([s ^ (1 << j) for j, s in enumerate(squares)]).preimage(from_a[nu])
        if w is None or self._mul_raw(w, w) ^ w != from_a[nu]:
            raise ArithmeticError(f"no root of w^2 + w = nu in {self!r}")
        w_images = [self._mul_raw(w, b) for b in images]
        basis = reduce_gf2(images + w_images)
        if basis.kernel != (0,):
            raise ArithmeticError(f"1 and w do not span {self!r} over GF(2^{h})")
        coords = [basis.preimage(1 << j) for j in range(self.m)]
        # zero-aware logs of K: log 0 = 2(2^h - 1) - 1 sends every product
        # with a zero factor past the cyclic part of exp, onto zeros
        period = base.order - 1
        log = list(base._log)
        log[0] = 2 * period - 1
        exp = base._exp[: 2 * period - 1] + [0] * (2 * period)
        # (a + b w)(c + d w) = (ac + nu bd) + ((a + b)(c + d) + ac) w
        from_b = _span_table(w_images)
        back_ac = [from_a[k] ^ from_b[k] for k in range(base.order)]
        back_bd = [from_a[base.mul_int(nu, k)] for k in range(base.order)]
        sq_lo, sq_hi = _span_table(squares[:h]), _span_table(squares[h:])
        self._tower = (
            h, period, _span_table(coords[:h]), _span_table(coords[h:]),
            log, exp, back_ac, back_bd, from_b, sq_lo, sq_hi,
        )
        # a^(2^k) for k = 1..m-1: the basis images, squared once more per k
        # (period = 2^h - 1 is also the mask of a low half), spanned over
        # four chunks of ``width`` bits
        width = -(-self.m // 4)
        columns = [1 << j for j in range(self.m)]
        frob = [None]
        for _ in range(1, self.m):
            columns = [sq_lo[v & period] ^ sq_hi[v >> h] for v in columns]
            frob.append(tuple(_span_table(columns[i : i + width]) for i in range(0, self.m, width)))
        self._frob = (width, (1 << width) - 1, frob)

    def mul_int(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if a == 1:
            return b
        if b == 1:
            return a
        h, low, to_lo, to_hi, log, exp, back_ac, back_bd, back_s, sq_lo, sq_hi = self._tower
        if a == b:  # squaring is GF(2)-linear
            return sq_lo[a & low] ^ sq_hi[a >> h]
        u = to_lo[a & low] ^ to_hi[a >> h]
        v = to_lo[b & low] ^ to_hi[b >> h]
        ua, ub, va, vb = u & low, u >> h, v & low, v >> h
        ac = exp[log[ua] + log[va]]
        return (
            back_ac[ac]
            ^ back_bd[exp[log[ub] + log[vb]]]
            ^ back_s[exp[log[ua ^ ub] + log[va ^ vb]]]
        )

    def pow_int(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent; use inv_int first")
        if e and not e & (e - 1):  # a^(2^k) is one Frobenius lookup
            return self.frob_int(a, e.bit_length() - 1)
        h, low, _, _, _, _, _, _, _, sq_lo, sq_hi = self._tower
        r = 1
        while e:
            if e & 1:
                r = a if r == 1 else self.mul_int(r, a)  # the first factor is not multiplied by 1
            e >>= 1
            if e:
                a = sq_lo[a & low] ^ sq_hi[a >> h]  # squaring is GF(2)-linear
        return r

    def frob_int(self, a: int, k: int) -> int:
        """a^(2^k), the k-fold binary Frobenius: one lookup per chunk of a."""
        k %= self.m
        if not k:
            return a
        w, low, frob = self._frob
        t0, t1, t2, t3 = frob[k]
        return t0[a & low] ^ t1[a >> w & low] ^ t2[a >> 2 * w & low] ^ t3[a >> 3 * w]

    # -- row kernel: a call per zero entry would cost more than the product

    def convolve(self, u: Sequence[int], v: Sequence[int], n: int) -> list[int]:
        out = [0] * n
        mul = self.mul_int
        nonzero_v = [(j, v[j]) for j in compress(range(n), v)]
        for i in compress(range(n), u):
            a, room = u[i], n - i
            for j, b in nonzero_v:
                if j >= room:
                    break
                out[i + j] ^= mul(a, b)
        return out


class FieldElement:
    """An element of a :class:`BinaryField`, as an immutable bit mask.

    ``__init__`` sets the two slots through their member descriptors,
    bound once below the class, which costs less than
    ``object.__setattr__`` by name; :meth:`BinaryField.elements` maps
    the same setters over a list of elements.  ``__setattr__`` refuses
    every other assignment.
    """

    __slots__ = ("bits", "field")

    def __init__(self, bits: int, field: BinaryField) -> None:
        _set_bits(self, bits)
        _set_field(self, field)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("FieldElement is immutable")

    def __reduce__(self):
        # for copy and pickle: the default restores slots through __setattr__
        return FieldElement, (self.bits, self.field)

    def _check(self, other: FieldElement) -> None:
        if not isinstance(other, FieldElement) or other.field is not self.field:
            raise ValueError("field elements belong to different fields")

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.bits ^ other.bits, self.field)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return FieldElement(self.field.mul_int(self.bits, other.bits), self.field)

    def __pow__(self, e: int) -> FieldElement:
        return FieldElement(self.field.pow_int(self.bits, e), self.field)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.field is self.field
            and other.bits == self.bits
        )

    def __hash__(self) -> int:
        return hash((self.bits, id(self.field)))

    def __bool__(self) -> bool:
        return self.bits != 0

    def __repr__(self) -> str:
        return f"<{self.hex()}:GF(2^{self.field.m})>"

    def hex(self) -> str:
        """Fixed-width lowercase hex of the mask, LSB = constant term."""
        return self.field.to_hex(self.bits)

    def inv(self) -> FieldElement:
        return FieldElement(self.field.inv_int(self.bits), self.field)

    def square(self) -> FieldElement:
        return FieldElement(self.field.sqr_int(self.bits), self.field)

    def frobenius(self, k: int) -> FieldElement:
        """The power a^(2^k)."""
        return FieldElement(self.field.frob_int(self.bits, k), self.field)

    def in_subfield(self, sub_degree: int) -> bool:
        """True iff a^(2^sub_degree) = a, for sub_degree dividing m."""
        if self.field.m % sub_degree != 0:
            raise ValueError(f"{sub_degree} does not divide m={self.field.m}")
        return self.field.frob_int(self.bits, sub_degree) == self.bits

    def absolute_trace(self) -> int:
        """Trace down to GF(2), returned as the int 0 or 1."""
        acc = 0
        a = self.bits
        for _ in range(self.field.m):
            acc ^= a
            a = self.field.sqr_int(a)
        if acc not in (0, 1):
            raise CheckFailed(f"absolute trace of {self!r} escaped GF(2)")
        return acc


_set_bits, _set_field = (FieldElement.__dict__[name].__set__ for name in FieldElement.__slots__)


def _eval_poly_mask(field: BinaryField, poly_mask: int, x: int) -> int:
    """Evaluate a GF(2)[z] polynomial (bit mask) at a field element (Horner,
    shift-and-reduce)."""
    r = 0
    for i in range(poly_degree(poly_mask), -1, -1):
        r = field._mul_raw(r, x)
        if (poly_mask >> i) & 1:
            r ^= 1
    return r


def _tower_constant(base: BinaryField) -> int:
    """The least mask of the base field with absolute trace 1: the nu of
    the tower w^2 + w + nu over it."""
    return next(nu for nu in range(1, base.order) if FieldElement(nu, base).absolute_trace())


def _span_table(columns: Sequence[int], start: int = 0) -> list[int]:
    """The image of every mask below 2^len(columns) under the GF(2)-linear
    map with A(1 << j) = columns[j], each plus start."""
    table = [start]
    for c in columns:
        table += [v ^ c for v in table]
    return table


_FIELD_CACHE: dict[tuple[int, str], BinaryField] = {}


def make_field(t: int, level: str = "base-square") -> BinaryField:
    """The interned field GF(2^2t) (``base-square``) or GF(2^4t) (``quartic``)."""
    if not 1 <= t <= MAX_T:
        raise ValueError(f"t={t} outside supported range [1, {MAX_T}]")
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}")
    key = (t, level)
    if key not in _FIELD_CACHE:
        m = 2 * t if level == "base-square" else 4 * t
        if m not in _MODULI:
            raise ValueError(f"no table modulus for degree m={m}")
        cls = BinaryField if m <= _TABLE_LIMIT else TowerField
        _FIELD_CACHE[key] = cls(t, level, m, _MODULI[m])
    return _FIELD_CACHE[key]


# -- GF(2)-linear solvers ------------------------------------------------------


class GF2Reduction(NamedTuple):
    """A GF(2)-linear map A of GF(2^m), reduced once by :func:`reduce_gf2`.

    ``kernel`` lists every y with A(y) = 0, ascending.  ``checks`` are
    parity masks that cut out the image: v = A(y) for some y iff v & h
    has even weight for every h.  ``image`` is the reduced basis of
    im A, and ``section`` pairs each pivot bit of that basis with a
    preimage of its row, so the preimages of the pivot bits set in an
    image v sum to a y with A(y) = v.  All four are tuples: a field holds
    its Artin-Schreier reduction and a curve's model its reduction of A
    (:attr:`curves.AdditiveModel.reduction`), shared by every caller.
    """

    kernel: tuple[int, ...]
    checks: tuple[int, ...]
    image: tuple[int, ...]
    section: tuple[tuple[int, int], ...]

    def image_table(self, order: int, const: int) -> list[int]:
        """A list of 0/1 ints over the masks below order, 1 exactly on the
        coset im A + const: entry u says whether u + const = A(y) for
        some y.  Only the 2^rank points of the coset are visited, spanned
        from const by the basis, so no XOR is spent on the constant.  A
        list, not a bytearray: a ``bytearray``'s ``__getitem__`` is a slot
        wrapper, and mapping it over 2^16 values costs about twice as much
        as a list's.  For the same reason the table is filled by one
        interpreted store per point, not by mapping the list's
        ``__setitem__``, also a slot wrapper, which took about twice as
        long (Python 3.11)."""
        table = [0] * order
        for v in _span_table(self.image, const):
            table[v] = 1
        return table

    def in_image(self, v: int) -> bool:
        """True iff v = A(y) for some y."""
        for h in self.checks:
            if (v & h).bit_count() & 1:
                return False
        return True

    def preimage(self, v: int) -> int | None:
        """The least y with A(y) = v, or None if v is not an image."""
        return self.lift(v) if self.in_image(v) else None

    def lift(self, v: int) -> int:
        """The section's y for v, without testing v: for an image v the
        least y with A(y) = v, for any other v a y with A(y) != v."""
        y = 0
        for bit, pre in self.section:
            if v >> bit & 1:
                y ^= pre
        return y

    def coset(self, v: int) -> list[int]:
        """All y with A(y) = v, ascending (empty if v is not an image)."""
        y = self.preimage(v)
        return [] if y is None else [y ^ k for k in self.kernel]


def reduce_gf2(columns: Sequence[int]) -> GF2Reduction:
    """Reduce the GF(2)-linear map with A(1 << j) = columns[j].

    One Gaussian elimination brings the images to reduced echelon form,
    carrying each row's preimage along; column j that reduces to zero
    leaves the kernel vector 1 << j plus earlier pivot columns.  Every
    preimage is a sum of pivot columns, so it has no bit at a kernel
    vector's leading bit j.  Hence the section's y is the least of its
    coset, and y ^ k over the kernel in spanning order is ascending.
    """
    rows: dict[int, tuple[int, int]] = {}  # pivot bit -> (image row, preimage)
    basis: list[int] = []
    for j, img in enumerate(columns):
        pre = 1 << j
        for bit, (r_img, r_pre) in rows.items():
            if img >> bit & 1:
                img ^= r_img
                pre ^= r_pre
        if not img:
            basis.append(pre)
            continue
        lead = img.bit_length() - 1
        for bit, (r_img, r_pre) in list(rows.items()):
            if r_img >> lead & 1:
                rows[bit] = (r_img ^ img, r_pre ^ pre)
        rows[lead] = (img, pre)

    kernel = [0]
    for b in basis:
        kernel += [k ^ b for k in kernel]
    checks = []
    for f in range(len(columns)):
        if f not in rows:
            h = 1 << f
            for bit, (r_img, _) in rows.items():
                if r_img >> f & 1:
                    h |= 1 << bit
            checks.append(h)
    image = tuple(img for img, _ in rows.values())
    section = tuple((bit, pre) for bit, (_, pre) in rows.items())
    return GF2Reduction(tuple(kernel), tuple(checks), image, section)


def additive_map(field: BinaryField, part: dict[int, int]) -> GF2Reduction:
    """The additive polynomial sum of c y^e over part = {e: c}, every e a
    power of 2, reduced as a GF(2)-linear map of the field."""
    return reduce_gf2([field.part_at(part, 1 << j) for j in range(field.m)])


def solve_artin_schreier(c: FieldElement) -> list[FieldElement]:
    """All u in c's field with u^2 + u = c, ascending.

    The solution set has size 0 or 2 (the kernel of u^2 + u is GF(2)),
    and is nonempty exactly when the absolute trace of c vanishes.  It is
    a coset of the reduction that c's field holds.
    """
    field = c.field
    return [FieldElement(s, field) for s in field._artin_schreier.coset(c.bits)]

