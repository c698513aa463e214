"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Values are stored in the canonical power basis ``1, z, ..., z**(phi(m)-1)``
of the m-th cyclotomic integers, reduced modulo the m-th cyclotomic
polynomial, with an optional positive denominator for rational multiples.
Equality is literal coefficient equality of the normalized form, so all
comparisons in the package are exact; no floating point appears anywhere.

Bulk table arithmetic may instead run in the evaluation domain: a prime
p = 1 (mod m) splits completely in Z[zeta_m], so evaluating at the phi(m)
primitive m-th roots of unity mod p maps Z[zeta_m] / p onto GF(p)^phi.
A value is divisible by p exactly when all its images vanish, and a result
whose power-basis coefficients are bounded by B is recovered exactly from
its residues modulo primes whose product exceeds 2B (`prime_count`,
`symmetric_lift`).

The package's modular number theory lives here too, for Dixon's algorithm
as well: `factorization`, `is_prime` and `root_of_unity`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from . import kernels

# Largest reduction coefficient accepted for a modulus. It keeps the entries
# of `red` and `conj` small; it does not by itself keep a product exact.
# `CyclotomicRing.multiply` checks its own worst-case int64 output, and the
# evaluation-domain path checks a coefficient bound before it picks primes.
_COEFF_LIMIT = 1 << 20

# Evaluation primes lie above this; below 2**31 so that a product of two
# residues stays below 2**62.
_EVAL_PRIME_FLOOR = 1 << 20
_EVAL_PRIME_CEIL = 1 << 31

# Evaluation-prime indices below ORACLE_PRIME_START serve the library
# (characters.py counts from 0) and their primes lie below _ORACLE_PRIME_FLOOR;
# the element-level oracles in verification.py count from ORACLE_PRIME_START,
# whose primes lie above it. So no prime serves both routes of an identity,
# whatever their moduli, and a bad prime cannot hide in both.
ORACLE_PRIME_START = 8
_ORACLE_PRIME_FLOOR = 1 << 21


def factorization(n: int) -> list[tuple[int, int]]:
    """Ascending (prime, exponent) pairs of n >= 1, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(m: int) -> int:
    result = m
    for p, _ in factorization(m):
        result -= result // p
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
    for d in range(1, m):
        if m % d == 0:
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
        # `multiply` sums products a[p] b[q] red[(p + q) % m], and every row of
        # `conj` is a row of `red`, so for power-basis vectors a, b:
        # |a*b|_inf <= |a|_1 |b|_1 peak, |a*b|_1 <= |a|_1 |b|_1 l1 and
        # |conj a|_1 <= |a|_1 l1.
        self.peak = peak
        self.l1 = max((sum(abs(c) for c in row) for row in red), default=0)
        self.red = np.asarray(red, dtype=np.int64)
        self.red.setflags(write=False)
        conj_idx = (m - np.arange(self.phi)) % m
        self.conj = np.ascontiguousarray(self.red[conj_idx])
        self.conj.setflags(write=False)

    def multiply(self, a, b) -> np.ndarray:
        """Products of power-basis values a [..., phi] and b [..., phi], broadcast
        over the leading axes.

        The polynomial product of the coefficient vectors, with each power
        z**s replaced by red[s % m]; only the nonzero coefficients of a and
        the nonzero powers are visited. Python-int (object) input gives exact
        results at any size; int64 input raises OverflowError unless
        (2 phi - 1) phi |a| |b| peak < 2**63.
        """
        a, b = np.asarray(a), np.asarray(b)
        exact = object in (a.dtype, b.dtype)
        dtype = object if exact else np.int64
        a, b = a.astype(dtype), b.astype(dtype)
        phi = self.phi
        if not exact:
            bound = (2 * phi - 1) * phi * kernels._magnitude(a) * kernels._magnitude(b) * self.peak
            kernels._require_int64(bound, "power-basis product")
        lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
        poly = np.zeros(lead + (2 * phi - 1,), dtype=dtype)
        for p in np.flatnonzero((a != 0).reshape(-1, phi).any(axis=0)):
            poly[..., p : p + phi] += a[..., p : p + 1] * b
        powers = np.flatnonzero((poly != 0).reshape(-1, 2 * phi - 1).any(axis=0))
        return poly[..., powers] @ self.red[powers % self.modulus].astype(dtype)

    def embed_matrix(self, target: CyclotomicRing) -> np.ndarray:
        """Basis-change matrix into a ring whose modulus is a multiple of ours."""
        big, small = target.modulus, self.modulus
        if big % small != 0:
            raise ValueError("target modulus must be a multiple")
        scale = big // small
        idx = (np.arange(self.phi) * scale) % big
        return target.red[idx]

    def evaluate(self, values: np.ndarray, i: int) -> np.ndarray:
        """Images [..., e] of power-basis values [..., phi] mod the i-th evaluation prime.

        The result is a view of a point-major array (e is the slowest axis in
        memory), the layout in which kernels.weighted_analysis contracts.
        """
        p, v, _ = eval_prime(self.modulus, i)
        values = np.asarray(values, dtype=np.int64)
        flat = values.reshape(-1, self.phi)
        images = kernels.matmul_mod(v, flat.T, p)  # [e, N]
        return np.moveaxis(images.reshape((self.phi,) + values.shape[:-1]), 0, -1)


@lru_cache(maxsize=None)
def get_ring(m: int) -> CyclotomicRing:
    return CyclotomicRing(m)


def is_prime(n: int) -> bool:
    """Trial division; the numbers tested here stay below 2**31."""
    if n < 2 or n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def root_of_unity(m: int, p: int) -> int:
    """A primitive m-th root of unity mod a prime p = 1 (mod m).

    The first of x**((p-1)/m), x = 2, 3, ..., whose order is exactly m: its
    (m/q)-th power is not 1 for any prime q dividing m.
    """
    factors = [q for q, _ in factorization(m)]
    x = 2
    while True:
        z = pow(x, (p - 1) // m, p)
        if all(pow(z, m // q, p) != 1 for q in factors):
            return z
        x += 1


@lru_cache(maxsize=None)
def _eval_modulus(m: int, i: int) -> int:
    """The i-th evaluation prime p = 1 (mod m): the i-th above 2**20 while
    i < ORACLE_PRIME_START and below 2**21, then the primes above 2**21."""
    library = i < ORACLE_PRIME_START
    if i in (0, ORACLE_PRIME_START):
        p = ((_EVAL_PRIME_FLOOR if library else _ORACLE_PRIME_FLOOR) // m + 1) * m + 1
    else:
        p = _eval_modulus(m, i - 1) + m
    while not is_prime(p):
        p += m
    ceil = _ORACLE_PRIME_FLOOR if library else _EVAL_PRIME_CEIL
    if p >= ceil:
        raise ArithmeticError(f"no evaluation prime {i} below {ceil} for modulus {m}")
    return p


@lru_cache(maxsize=None)
def eval_prime(m: int, i: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The i-th evaluation prime p = 1 (mod m) and its evaluation data.

    Returns (p, V, neg). With z a primitive m-th root of unity mod p and
    e_0 < e_1 < ... the phi(m) exponents coprime to m, V[s, t] = z**(e_s * t)
    mod p maps power-basis coefficients to the images at the points z**e_s,
    and neg[s] is the index of -e_s: complex conjugation permutes the points.
    """
    p = _eval_modulus(m, i)
    z = root_of_unity(m, p)
    exps = [e for e in range(m) if gcd(e, m) == 1]
    phi = len(exps)
    v = np.asarray(
        [[pow(z, e * t, p) for t in range(phi)] for e in exps], dtype=np.int64
    )
    v.setflags(write=False)
    where = {e: s for s, e in enumerate(exps)}
    neg = np.asarray([where[-e % m] for e in exps], dtype=np.int64)
    neg.setflags(write=False)
    return p, v, neg


def prime_count(m: int, bound: int, start: int = 0) -> int:
    """Fewest evaluation primes for modulus m, from index `start` on, whose
    product exceeds 2 * bound.

    Raises ArithmeticError when a count from below ORACLE_PRIME_START would
    reach it, so the library's primes never serve an oracle.
    """
    count, product = 1, _eval_modulus(m, start)
    while product <= 2 * bound:
        product *= _eval_modulus(m, start + count)
        count += 1
    if start < ORACLE_PRIME_START < start + count:
        raise ArithmeticError(
            f"coefficient bound {bound} needs more than {ORACLE_PRIME_START - start} "
            f"evaluation primes for modulus {m}"
        )
    return count


def symmetric_lift(residues: list[np.ndarray], m: int) -> np.ndarray:
    """The integers x with |x| < P/2 and x = residues[i] mod the i-th prime.

    P is the product of the first len(residues) evaluation primes of m. The
    lift is exact for every x whose magnitude is known to be below P/2; it
    comes back as int64 for one prime and as Python ints otherwise.
    """
    x, modulus = residues[0], eval_prime(m, 0)[0]
    for i, r in enumerate(residues[1:], start=1):
        p = eval_prime(m, i)[0]
        x = np.asarray(x, dtype=object)
        x = x + modulus * ((r - x) * pow(modulus, -1, p) % p)
        modulus *= p
    return np.where(x > modulus // 2, x - modulus, x)


def _normalize(num: tuple[int, ...], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if not any(num):
        return num, 1
    g = gcd(den, *num) * (1 if den > 0 else -1)
    return (num, den) if g == 1 else (tuple(c // g for c in num), den // g)


@dataclass(frozen=True)
class Cyclotomic:
    """An exact element of Q(zeta_m) in normalized reduced form."""

    modulus: int
    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def make(m: int, coeffs, den: int = 1) -> "Cyclotomic":
        phi = get_ring(m).phi
        coeffs = tuple(map(int, coeffs))
        if len(coeffs) != phi:
            raise ValueError(f"expected {phi} coefficients, got {len(coeffs)}")
        num, den = _normalize(coeffs, int(den))
        return Cyclotomic(m, num, den)

    @staticmethod
    def integer(m: int, value: int) -> "Cyclotomic":
        return Cyclotomic.make(m, [value] + [0] * (get_ring(m).phi - 1))

    @staticmethod
    def zeta(m: int, power: int = 1) -> "Cyclotomic":
        return Cyclotomic.make(m, get_ring(m).red[power % m])

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
        num = self._coeffs() * other.den + other._coeffs() * self.den
        return Cyclotomic.make(self.modulus, num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic.make(self.modulus, -self._coeffs(), self.den)

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
        out = get_ring(self.modulus).multiply(self._coeffs(), other._coeffs())
        return Cyclotomic.make(self.modulus, out, self.den * other.den)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        out = self._coeffs() @ get_ring(self.modulus).conj
        return Cyclotomic.make(self.modulus, out, self.den)

    def embed(self, target_modulus: int) -> "Cyclotomic":
        if target_modulus == self.modulus:
            return self
        emb = get_ring(self.modulus).embed_matrix(get_ring(target_modulus))
        return Cyclotomic.make(target_modulus, self._coeffs() @ emb, self.den)

    def _coeffs(self) -> np.ndarray:
        """The numerator as a Python-int array: exact products at any size."""
        return np.asarray(self.num, dtype=object)

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
