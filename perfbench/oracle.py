"""Checks for maxcurves that share no code with the package.

Field arithmetic here is carry-less multiplication reduced by the moduli
shipped in ``src/maxcurves/data/moduli.txt``, read as text, so element
masks mean the same thing as in the package while every product is
computed independently.  Counts are predicted from the L-polynomial
(1 + qT)^(2g) of a maximal curve (Rueck-Stichtenoth 1994):

    N_k = q^(2k) + 1 - 2g(-q)^k.
"""

from __future__ import annotations

from pathlib import Path

MODULI_PATH = Path(__file__).resolve().parent.parent / "src" / "maxcurves" / "data" / "moduli.txt"

def load_moduli(path: Path = MODULI_PATH) -> dict[int, int]:
    moduli = {}
    for line in path.read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            degree, mask = line.split(":")
            moduli[int(degree)] = int(mask, 16)
    return moduli


class Field:
    """GF(2^m) as m-bit masks, bit i the coefficient of z^i."""

    def __init__(self, m: int, modulus: int) -> None:
        if modulus.bit_length() != m + 1:
            raise ValueError(f"modulus {modulus:#x} does not have degree {m}")
        self.m = m
        self.modulus = modulus

    def mul(self, a: int, b: int) -> int:
        product = 0
        while b:
            if b & 1:
                product ^= a
            a <<= 1
            b >>= 1
        for shift in range(product.bit_length() - 1 - self.m, -1, -1):
            if product >> (shift + self.m) & 1:
                product ^= self.modulus << shift
        return product

    def power(self, a: int, e: int) -> int:
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def frobenius(self, a: int, k: int) -> int:
        """a^(2^k)."""
        for _ in range(k):
            a = self.mul(a, a)
        return a


def field_for(t: int, level: int, moduli: dict[int, int]) -> Field:
    """GF(q^2) at level 1 and GF(q^4) at level 2, q = 2^t."""
    m = 2 * t * level
    return Field(m, moduli[m])


def genus(q: int, family: str) -> int:
    """q(q-1)/2 for the Hermitian curve, q(q-2)/4 for the trace curve."""
    if family == "hermitian":
        return q * (q - 1) // 2
    if family == "trace":
        return q * (q - 2) // 4
    raise ValueError(f"unknown family {family!r}")


def extension_count(q: int, g: int, k: int) -> int:
    """Points over GF(q^(2k)) of a GF(q^2)-maximal curve of genus g."""
    return q ** (2 * k) + 1 - 2 * g * (-q) ** k


def y_part(fld: Field, family: str, t: int, y: int) -> int:
    """y^q + y (Hermitian) or sum_{i=1..t} y^(q/2^i) (trace)."""
    if family == "hermitian":
        return fld.frobenius(y, t) ^ y
    acc = 0
    for _ in range(t):
        acc ^= y
        y = fld.mul(y, y)
    return acc


def on_curve(fld: Field, family: str, t: int, x: int, y: int) -> bool:
    q = 1 << t
    return y_part(fld, family, t, y) == fld.power(x, q + 1)


def absolute_trace(fld: Field, a: int) -> int:
    """a + a^2 + ... + a^(2^(m-1)), which is 0 or 1."""
    acc = 0
    for _ in range(fld.m):
        acc ^= a
        a = fld.mul(a, a)
    return acc


def is_rational(fld: Field, t: int, x: int, y: int) -> bool:
    """True iff x^(q^2) = x and y^(q^2) = y."""
    return fld.frobenius(x, 2 * t) == x and fld.frobenius(y, 2 * t) == y


class AdditiveSolver:
    """Solves A(y) = b for a GF(2)-linear map A of GF(2^m), given by the
    images of the basis masks, by reducing against an xor basis."""

    def __init__(self, m: int, image) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}  # top bit -> (image, preimage)
        self.kernel: list[int] = []
        for j in range(m):
            img, pre = self._reduce(image(1 << j), 1 << j)
            if img:
                self.pivots[img.bit_length() - 1] = (img, pre)
            else:
                self.kernel.append(pre)

    def _reduce(self, img: int, pre: int) -> tuple[int, int]:
        while img:
            entry = self.pivots.get(img.bit_length() - 1)
            if entry is None:
                break
            img ^= entry[0]
            pre ^= entry[1]
        return img, pre

    def solve(self, b: int) -> int | None:
        """One preimage of b, or None when b is outside the image."""
        rest, pre = self._reduce(b, 0)
        return None if rest else pre


def trace_point(fld: Field, t: int, rng, solver: AdditiveSolver,
                rational: bool | None = None) -> tuple[int, int]:
    """A random affine point of the trace curve over fld.

    rational=None draws x from the whole field.  Over GF(q^4), a rational
    x is a norm c^(1+q^2) into GF(q^2), and every y over such an x is then
    rational as well; a non-rational x is drawn outside GF(q^2).  Draws
    repeat until sum y^(q/2^i) = x^(q+1) has a solution.
    """
    q = 1 << t
    while True:
        c = rng.randrange(1 << fld.m)
        x = fld.mul(c, fld.frobenius(c, 2 * t)) if rational else c
        if rational is False and fld.frobenius(x, 2 * t) == x:
            continue
        y = solver.solve(fld.power(x, q + 1))
        if y is None:
            continue
        for vec in solver.kernel:
            if rng.randrange(2):
                y ^= vec
        return x, y
