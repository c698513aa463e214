"""Exact character tables of finite groups via modular class-sum splitting.

The algorithm works entirely over a prime field GF(p) with p = 1 (mod m),
m the group exponent, and p*p > 4|G|:

1. build the class-sum structure-constant matrices M_i,
2. split the common eigenspaces of the M_i over GF(p) (they are exactly
   the lines spanned by the central characters, since p does not divide
   the group order),
3. recover degrees from the modular central characters (the bound on p
   makes the square root unambiguous below p/2),
4. lift each character value to an exact cyclotomic integer by counting
   root-of-unity eigenvalues with a discrete Fourier sum mod p.

No floating point and no tolerances appear anywhere; every lifted value
is later certified by exact orthogonality checks in characters.py.
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .cyclotomic import get_ring, is_prime
from .groups import ConjugacyClasses, GroupTable


class CharacterEngineError(RuntimeError):
    """Internal invariant violation inside the character engine."""


# ---------------------------------------------------------------------------
# small number theory (p stays tiny; trial division is plenty)
# ---------------------------------------------------------------------------


def choose_prime(exponent: int, order: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p*p > 4*order and p odd."""
    p = exponent + 1
    while True:
        if p > 2 and p * p > 4 * order and (p - 1) % exponent == 0 and is_prime(p):
            return p
        p += 1


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise CharacterEngineError(f"no primitive root found mod {p}")


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a mod p (p odd prime); raises if a is not a square."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise CharacterEngineError(f"{a} is not a quadratic residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks with a deterministic non-residue scan.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


# ---------------------------------------------------------------------------
# polynomials over GF(p) (ascending int64 coefficient arrays)
# ---------------------------------------------------------------------------


def _ptrim(u: np.ndarray) -> np.ndarray:
    nz = np.nonzero(u)[0]
    return u[: nz[-1] + 1] if nz.size else u[:1] * 0


def _pmul(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    return _ptrim(np.convolve(u, v) % p)


def _pmod(u: np.ndarray, f: np.ndarray, p: int) -> np.ndarray:
    u = u.copy() % p
    df = len(f) - 1
    lead_inv = kernels._pow_mod(int(f[-1]), p - 2, p)
    for i in range(len(u) - 1, df - 1, -1):
        c = int(u[i]) * lead_inv % p
        if c:
            u[i - df : i + 1] = (u[i - df : i + 1] - c * f) % p
    return _ptrim(u[:df] if df > 0 else u[:1] * 0)


def _pgcd(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    a, b = _ptrim(u % p), _ptrim(v % p)
    while len(b) > 1 or b[0] != 0:
        a, b = b, _pmod(a, b, p)
    inv = kernels._pow_mod(int(a[-1]), p - 2, p)
    return a * inv % p


def _ppowmod(base: np.ndarray, e: int, f: np.ndarray, p: int) -> np.ndarray:
    result = np.array([1], dtype=np.int64)
    base = _pmod(base, f, p)
    while e > 0:
        if e & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        e >>= 1
    return result


def _pdiv_exact(u: np.ndarray, f: np.ndarray, p: int) -> np.ndarray:
    u = u.copy() % p
    df = len(f) - 1
    lead_inv = kernels._pow_mod(int(f[-1]), p - 2, p)
    out = np.zeros(len(u) - df, dtype=np.int64)
    for i in range(len(u) - 1, df - 1, -1):
        c = int(u[i]) * lead_inv % p
        out[i - df] = c
        if c:
            u[i - df : i + 1] = (u[i - df : i + 1] - c * f) % p
    if np.any(u):
        raise CharacterEngineError("inexact polynomial division")
    return out


def split_roots(f: np.ndarray, p: int) -> list[int]:
    """All roots of a monic squarefree polynomial that splits over GF(p)."""
    roots: list[int] = []
    stack = [_ptrim(f % p)]
    while stack:
        g = stack.pop()
        deg = len(g) - 1
        if deg == 0:
            continue
        if deg == 1:
            inv = kernels._pow_mod(int(g[1]), p - 2, p)
            roots.append((-int(g[0]) * inv) % p)
            continue
        split = None
        for a in range(p):
            t = _ppowmod(np.array([a, 1], dtype=np.int64), (p - 1) // 2, g, p)
            t = t.copy()
            t[0] = (t[0] - 1) % p
            h = _pgcd(t, g, p) if np.any(t) else g
            if 0 < len(h) - 1 < deg:
                split = h
                break
        if split is None:
            raise CharacterEngineError("failed to split a squarefree polynomial")
        stack.append(split)
        stack.append(_pdiv_exact(g, split, p))
    if len(set(roots)) != len(roots):
        raise CharacterEngineError("repeated root in squarefree split")
    return sorted(roots)


def _pderiv(f: np.ndarray, p: int) -> np.ndarray:
    if len(f) == 1:
        return f[:1] * 0
    return _ptrim(f[1:] * np.arange(1, len(f), dtype=np.int64) % p)


def eigenvalues_mod(t: np.ndarray, p: int) -> list[int]:
    """Distinct eigenvalues of a GF(p)-diagonalizable matrix, ascending."""
    f = kernels.charpoly_mod(t, p)
    fp = _pderiv(f, p)
    if len(fp) == 1 and fp[0] == 0:
        g = f
    else:
        g = _pdiv_exact(f, _pgcd(f, fp, p), p)
    return split_roots(g, p)


# ---------------------------------------------------------------------------
# eigenspace splitting
# ---------------------------------------------------------------------------


def _column_rref(b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical column-reduced basis (pivot rows carry an identity block)."""
    r, pivots = kernels.rref_mod(np.ascontiguousarray(b.T), p)
    return np.ascontiguousarray(r[: len(pivots)].T), pivots


def common_eigenvectors(table: GroupTable, classes: ConjugacyClasses, p: int) -> np.ndarray:
    """One normalized central-character vector per irreducible, mod p."""
    k = classes.count
    reps = np.asarray(classes.representatives, dtype=np.int64)
    finished: list[np.ndarray] = []
    active: list[tuple[np.ndarray, np.ndarray]] = []
    eye = np.eye(k, dtype=np.int64)
    if k == 1:
        finished.append(eye[:, 0])
    else:
        active.append((eye, np.arange(k, dtype=np.int64)))
    for i in range(1, k):
        if not active:
            break
        members = np.asarray(classes.classes[i], dtype=np.int64)
        mat = (
            kernels.class_matrix(table.product, table.inverse, classes.class_of, members, reps)
            % p
        )
        pending = []
        for basis, pivots in active:
            mb = mat @ basis % p
            t = mb[pivots, :]
            if not np.array_equal(basis @ t % p, mb):
                raise CharacterEngineError("subspace is not invariant under a class matrix")
            roots = eigenvalues_mod(t, p)
            if len(roots) == 1:
                pending.append((basis, pivots))
                continue
            d = basis.shape[1]
            for lam in roots:
                shifted = (t - lam * np.eye(d, dtype=np.int64)) % p
                null = kernels.nullspace_mod(shifted, p)
                sub, sub_piv = _column_rref(basis @ null % p, p)
                if sub.shape[1] == 1:
                    finished.append(sub[:, 0])
                else:
                    pending.append((sub, sub_piv))
        active = pending
    if active:
        raise CharacterEngineError("class matrices failed to separate all eigenspaces")
    if len(finished) != k:
        raise CharacterEngineError(f"found {len(finished)} eigenvectors, expected {k}")
    out = np.zeros((k, k), dtype=np.int64)
    for idx, v in enumerate(finished):
        if v[0] == 0:
            raise CharacterEngineError("central character vanishes on the identity class")
        out[idx] = v * kernels._pow_mod(int(v[0]), p - 2, p) % p
    return out


# ---------------------------------------------------------------------------
# full table computation
# ---------------------------------------------------------------------------


def character_table_data(
    table: GroupTable, classes: ConjugacyClasses
) -> tuple[list[int], np.ndarray, int]:
    """Unsorted exact character data: (degrees, values[k, k, phi], exponent)."""
    n = table.order
    k = classes.count
    reps = classes.representatives
    sizes = classes.class_sizes
    rep_orders = [table.element_order(r) for r in reps]
    m = 1
    for o in rep_orders:
        g = np.gcd(m, o)
        m = m * o // g
    ring = get_ring(int(m))
    p = choose_prime(int(m), n)
    z = pow(primitive_root(p), (p - 1) // int(m), p)

    omega = common_eigenvectors(table, classes, p)
    inv_sizes = np.asarray([kernels._pow_mod(s, p - 2, p) for s in sizes], dtype=np.int64)
    invcls = np.asarray(
        [int(classes.class_of[table.inverse[r]]) for r in reps], dtype=np.int64
    )

    degrees = []
    for c in range(k):
        s = int(np.sum(omega[c] * omega[c, invcls] % p * inv_sizes % p) % p)
        if s == 0:
            raise CharacterEngineError("degenerate central character norm")
        dsq = n * kernels._pow_mod(s, p - 2, p) % p
        d = sqrt_mod(dsq, p)
        d = min(d, p - d)
        if d == 0 or d * d % p != dsq:
            raise CharacterEngineError("degree recovery failed")
        degrees.append(d)
    if sum(d * d for d in degrees) != n:
        raise CharacterEngineError("degree squares do not sum to the group order")

    chibar = np.zeros((k, k), dtype=np.int64)
    for c in range(k):
        chibar[c] = omega[c] * inv_sizes % p * degrees[c] % p

    # Power maps: class of rep_j ** s for 0 <= s < order(rep_j).
    values = np.zeros((k, k, ring.phi), dtype=np.int64)
    for j in range(k):
        r = rep_orders[j]
        power_classes = np.empty(r, dtype=np.int64)
        y = table.identity
        for s in range(r):
            power_classes[s] = classes.class_of[y]
            y = int(table.product[y, reps[j]])
        if y != table.identity:
            raise CharacterEngineError("representative order mismatch")
        zr_inv = kernels._pow_mod(pow(z, int(m) // r, p), p - 2, p)
        st = np.arange(r, dtype=np.int64)
        zpow = np.asarray(
            [kernels._pow_mod(zr_inv, int(e), p) for e in range(r)], dtype=np.int64
        )
        dft = zpow[(st[:, None] * st[None, :]) % r]
        inv_r = kernels._pow_mod(r, p - 2, p)
        counts = chibar[:, power_classes] @ dft % p * inv_r % p
        for c in range(k):
            if int(np.sum(counts[c])) != degrees[c]:
                raise CharacterEngineError("root-of-unity multiplicities do not sum to the degree")
            if np.any(counts[c] > degrees[c]):
                raise CharacterEngineError("root-of-unity multiplicity exceeds the degree")
        exps = (st * (int(m) // r)) % int(m)
        values[:, j, :] = counts @ ring.red[exps]

    for c in range(k):
        if values[c, 0, 0] != degrees[c] or np.any(values[c, 0, 1:]):
            raise CharacterEngineError("identity-class value disagrees with the degree")
    return degrees, values, int(m)
