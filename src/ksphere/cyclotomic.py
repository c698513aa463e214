"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Values are stored in the canonical power basis ``1, z, ..., z**(phi(m)-1)``
of the m-th cyclotomic integers, reduced modulo the m-th cyclotomic
polynomial, with an optional positive denominator for rational multiples.
Equality is literal coefficient equality of the normalized form, so all
comparisons in the package are exact; no floating point appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

# Guard for the int64 bulk engine: reduction/multiplication tensor entries
# must leave ample headroom below 2**63 after the contractions in kernels.py.
_COEFF_LIMIT = 1 << 20


def divisors(m: int) -> list[int]:
    out = [d for d in range(1, m + 1) if m % d == 0]
    return out


def euler_phi(m: int) -> int:
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    # den is monic; exact division over the integers.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            out[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in divisors(m):
        if d != m:
            poly = _poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


class CyclotomicRing:
    """Precomputed reduction data for Z[zeta_m]."""

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("modulus must be positive")
        self.modulus = m
        self.phi = euler_phi(m)
        self.poly = cyclotomic_polynomial(m)
        red = []
        cur = [0] * self.phi
        cur[0] = 1
        for _ in range(m):
            red.append(list(cur))
            carry = cur[self.phi - 1]
            cur = [0] + cur[: self.phi - 1]
            if carry:
                for j in range(self.phi):
                    cur[j] -= carry * self.poly[j]
        peak = max((abs(c) for row in red for c in row), default=0)
        if peak >= _COEFF_LIMIT:
            raise ValueError(f"reduction coefficients too large for modulus {m}")
        self.red = np.asarray(red, dtype=np.int64)
        self.red.setflags(write=False)
        idx = (np.arange(self.phi)[:, None] + np.arange(self.phi)[None, :]) % m
        self.mul = np.ascontiguousarray(self.red[idx])
        self.mul.setflags(write=False)
        conj_idx = (m - np.arange(self.phi)) % m
        self.conj = np.ascontiguousarray(self.red[conj_idx])
        self.conj.setflags(write=False)

    def embed_matrix(self, target: CyclotomicRing) -> np.ndarray:
        """Basis-change matrix into a ring whose modulus is a multiple of ours."""
        big, small = target.modulus, self.modulus
        if big % small != 0:
            raise ValueError("target modulus must be a multiple")
        scale = big // small
        idx = (np.arange(self.phi) * scale) % big
        return target.red[idx]


@lru_cache(maxsize=None)
def get_ring(m: int) -> CyclotomicRing:
    return CyclotomicRing(m)


def _normalize(num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        num = tuple(-c for c in num)
        den = -den
    g = den
    for c in num:
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        num = tuple(c // g for c in num)
        den //= g
    if all(c == 0 for c in num):
        den = 1
    return num, den


@dataclass(frozen=True)
class Cyclotomic:
    """An exact element of Q(zeta_m) in normalized reduced form."""

    modulus: int
    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def make(m: int, coeffs, den: int = 1) -> "Cyclotomic":
        ring = get_ring(m)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != ring.phi:
            raise ValueError(f"expected {ring.phi} coefficients, got {len(coeffs)}")
        num, den = _normalize(coeffs, int(den))
        return Cyclotomic(m, num, den)

    @staticmethod
    def integer(m: int, value: int) -> "Cyclotomic":
        ring = get_ring(m)
        coeffs = [0] * ring.phi
        coeffs[0] = int(value)
        return Cyclotomic.make(m, coeffs)

    @staticmethod
    def zeta(m: int, power: int = 1) -> "Cyclotomic":
        ring = get_ring(m)
        return Cyclotomic.make(m, [int(c) for c in ring.red[power % m]])

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.modulus != self.modulus:
                raise ValueError("mixed cyclotomic moduli; embed explicitly first")
            return other
        if isinstance(other, int):
            return Cyclotomic.integer(self.modulus, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self.den * other.den
        coeffs = tuple(
            a * other.den + b * self.den for a, b in zip(self.num, other.num)
        )
        return Cyclotomic.make(self.modulus, coeffs, d)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.modulus, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        ring = get_ring(self.modulus)
        phi = ring.phi
        out = [0] * phi
        mul = ring.mul
        for p, a in enumerate(self.num):
            if a == 0:
                continue
            for q, b in enumerate(other.num):
                if b == 0:
                    continue
                ab = a * b
                row = mul[p, q]
                for r in range(phi):
                    c = int(row[r])
                    if c:
                        out[r] += ab * c
        return Cyclotomic.make(self.modulus, out, self.den * other.den)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        ring = get_ring(self.modulus)
        out = [0] * ring.phi
        for s, a in enumerate(self.num):
            if a == 0:
                continue
            row = ring.conj[s]
            for r in range(ring.phi):
                c = int(row[r])
                if c:
                    out[r] += a * c
        return Cyclotomic.make(self.modulus, out, self.den)

    def embed(self, target_modulus: int) -> "Cyclotomic":
        if target_modulus == self.modulus:
            return self
        ring = get_ring(self.modulus)
        target = get_ring(target_modulus)
        emb = ring.embed_matrix(target)
        out = [0] * target.phi
        for s, a in enumerate(self.num):
            if a == 0:
                continue
            for r in range(target.phi):
                c = int(emb[s, r])
                if c:
                    out[r] += a * c
        return Cyclotomic.make(target_modulus, out, self.den)

    def divide_exact(self, k: int) -> "Cyclotomic":
        return Cyclotomic.make(self.modulus, self.num, self.den * int(k))

    # -- predicates and conversions -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.num)

    @property
    def is_rational(self) -> bool:
        return all(c == 0 for c in self.num[1:])

    @property
    def is_rational_integer(self) -> bool:
        return self.is_rational and self.den == 1

    def as_int(self) -> int:
        if not self.is_rational_integer:
            raise ValueError(f"{self} is not a rational integer")
        return self.num[0]

    def to_json(self) -> dict:
        return {"modulus": self.modulus, "coeffs": list(self.num), "den": self.den}

    @staticmethod
    def from_json(obj: dict) -> "Cyclotomic":
        return Cyclotomic.make(obj["modulus"], obj["coeffs"], obj.get("den", 1))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        sym = f"z{self.modulus}"
        parts = []
        for t, c in enumerate(self.num):
            if c == 0:
                continue
            if t == 0:
                parts.append(f"{c}")
            else:
                mono = sym if t == 1 else f"{sym}^{t}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        body = parts[0]
        for part in parts[1:]:
            body += ("+" if not part.startswith("-") else "") + part
        if self.den != 1:
            return f"({body})/{self.den}"
        return body
