"""Exact character tables of finite groups via modular class-sum splitting.

This is the last of the four routes of `characters._table_data`:
abelian groups get their tables in closed form, nonabelian groups built
as A x B from their factors (Isaacs 1976, Thm 4.21), and groups with an
abelian subgroup of index 2 (the dihedral and quaternion families, S3,
many kernels) by Clifford theory from that subgroup. So Dixon runs only on
nonabelian groups with no abelian subgroup of index 2, and on such
factors of products: S_n and A_n for n >= 4, and groups given by
generators and kernels that have none. It stays the oracle of the other
three routes in the tests: once the class order is fixed a table is
unique up to its row order, so all four give the same canonically sorted
bytes.

The algorithm works entirely over a prime field GF(p) with p = 1 (mod m),
m the group exponent, and p*p > 4|G|:

1. build the class-sum structure-constant matrices M_i,
2. split the common eigenspaces of the M_i over GF(p) (they are exactly
   the lines spanned by the central characters, since p does not divide
   the group order), with one nullspace per eigenvalue. Every pending
   basis carries an identity block at known rows, so the restriction of
   the next M_i is read off those rows without a second row reduction.
   The class algebra is split semisimple mod p, so a restriction of M_i
   to a subspace has one eigenvalue only when it is scalar; such a
   subspace waits for the next class without further work,
3. find the eigenvalues of every other restriction as the roots of its
   characteristic polynomial, by evaluating it at all of GF(p) (p is
   small), and require the eigenspaces to fill the subspace,
4. recover each degree d from the modular central characters as the one
   d in [1, isqrt(|G|)] whose square matches mod p (the bound on p makes
   it unique), a bounded search rather than a modular square root,
5. lift each character value to an exact cyclotomic integer by counting
   root-of-unity eigenvalues with a discrete Fourier sum mod p over the
   power map of each class, read from the group's `GroupTable.powers`.

No floating point and no tolerances appear anywhere; every lifted value
is later certified by exact orthogonality checks in characters.py.
"""

from __future__ import annotations

from math import isqrt, lcm

import numpy as np

from . import kernels
from .cyclotomic import get_ring, is_prime, root_of_unity
from .groups import ConjugacyClasses, GroupTable


class CharacterEngineError(RuntimeError):
    """Internal invariant violation inside the character engine."""


def choose_prime(exponent: int, order: int) -> int:
    """Smallest odd prime p = 1 (mod exponent) with p*p > 4*order."""
    p = exponent + 1
    while not (p > 2 and p * p > 4 * order and is_prime(p)):
        p += exponent
    return p


# ---------------------------------------------------------------------------
# eigenspace splitting
# ---------------------------------------------------------------------------


def eigenvalues_mod(t: np.ndarray, p: int) -> list[int]:
    """Distinct eigenvalues of ``t`` in GF(p), ascending.

    They are the residues where the characteristic polynomial vanishes,
    found by one vectorised Horner pass over every x in [0, p). The prime
    stays small (choose_prime gives p <= 18899 under the default order cap
    of 1024), so the pass costs p * deg multiply-adds, each below p**2.
    """
    f = kernels.charpoly_mod(t, p)
    x = np.arange(p, dtype=np.int64)
    acc = np.full(p, f[-1], dtype=np.int64)
    for c in f[-2::-1]:
        acc = (acc * x + c) % p
    return np.flatnonzero(acc == 0).tolist()


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
        members = np.flatnonzero(classes.class_of == i)
        mat = (
            kernels.class_matrix(table.product, table.inverse, classes.class_of, members, reps)
            % p
        )
        pending = []
        # Each pending (basis, pivots) has basis[pivots] = I. So when the
        # span is invariant, mat @ basis = basis @ t has the rows t at pivots.
        for basis, pivots in active:
            mb = kernels.matmul_mod(mat, basis, p)
            t = mb[pivots, :]
            if not np.array_equal(kernels.matmul_mod(basis, t, p), mb):
                raise CharacterEngineError("subspace is not invariant under a class matrix")
            d = basis.shape[1]
            eye_d = np.eye(d, dtype=np.int64)
            # The class algebra is split semisimple mod p, so t has a single
            # eigenvalue exactly when it is scalar; such a subspace waits
            # for a later class.
            if np.array_equal(t, t[0, 0] * eye_d):
                pending.append((basis, pivots))
                continue
            split = 0
            for lam in eigenvalues_mod(t, p):
                null, free = kernels.nullspace_mod((t - lam * eye_d) % p, p)
                split += free.size
                # basis[pivots] = I and null[free] = I, so
                # sub[pivots[free]] = basis[pivots[free]] @ null = null[free] = I.
                sub = kernels.matmul_mod(basis, null, p)
                if free.size == 1:
                    finished.append(sub[:, 0])
                else:
                    pending.append((sub, pivots[free]))
            if split != d:
                raise CharacterEngineError(
                    f"eigenspaces of a class matrix span {split} of {d} dimensions"
                )
        active = pending
    if active:
        raise CharacterEngineError("class matrices failed to separate all eigenspaces")
    if len(finished) != k:
        raise CharacterEngineError(f"found {len(finished)} eigenvectors, expected {k}")
    out = np.asarray(finished)
    if np.any(out[:, 0] == 0):
        raise CharacterEngineError("central character vanishes on the identity class")
    return out * np.asarray([pow(int(v), p - 2, p) for v in out[:, 0]])[:, None] % p


# ---------------------------------------------------------------------------
# full table computation
# ---------------------------------------------------------------------------


def character_table_data(
    table: GroupTable, classes: ConjugacyClasses
) -> tuple[list[int], np.ndarray, int]:
    """Unsorted exact character data: (degrees, values[k, k, phi], exponent)."""
    n = table.order
    k = classes.count
    reps = np.asarray(classes.representatives, dtype=np.int64)
    sizes = classes.class_sizes
    m = lcm(*classes.orders)
    ring = get_ring(m)
    p = choose_prime(m, n)
    z = root_of_unity(m, p)

    omega = common_eigenvectors(table, classes, p)
    inv_sizes = np.asarray([pow(s, p - 2, p) for s in sizes], dtype=np.int64)
    invcls = classes.class_of[table.inverse[reps]]

    # A degree d divides n, so 1 <= d <= isqrt(n); two such d with equal
    # squares mod p would have p | (d - d')(d + d'), impossible as
    # 0 < d + d' <= 2 isqrt(n) < p because 4n < p*p. So d**2 mod p decides d.
    degree_of_square = {d * d % p: d for d in range(1, isqrt(n) + 1)}
    norms = (omega * omega[:, invcls] % p * inv_sizes % p).sum(axis=1) % p
    if np.any(norms == 0):
        raise CharacterEngineError("degenerate central character norm")
    degrees = [degree_of_square.get(n * pow(int(s), p - 2, p) % p) for s in norms]
    if None in degrees:
        raise CharacterEngineError("degree recovery failed")
    if sum(d * d for d in degrees) != n:
        raise CharacterEngineError("degree squares do not sum to the group order")

    degree_arr = np.asarray(degrees, dtype=np.int64)
    chibar = omega * inv_sizes % p * degree_arr[:, None] % p

    # z**-e for 0 <= e < m; the r-th roots of unity sit at e = s * m // r.
    z_inv_pow = np.asarray([pow(z, -e, p) for e in range(m)], dtype=np.int64)
    values = np.zeros((k, k, ring.phi), dtype=np.int64)
    for j in range(k):
        r = classes.orders[j]
        power_classes = classes.class_of[table.powers[:r, reps[j]]]
        st = np.arange(r, dtype=np.int64)
        exps = st * (m // r)
        dft = z_inv_pow[exps[(st[:, None] * st[None, :]) % r]]
        inv_r = pow(r, p - 2, p)
        counts = kernels.matmul_mod(chibar[:, power_classes], dft, p) * inv_r % p
        if np.any(counts.sum(axis=1) != degree_arr):
            raise CharacterEngineError("root-of-unity multiplicities do not sum to the degree")
        if np.any(counts > degree_arr[:, None]):
            raise CharacterEngineError("root-of-unity multiplicity exceeds the degree")
        # Each row of counts is nonnegative and sums to its degree d <= isqrt(n)
        # (checked above), and |red| < 2**20 (_COEFF_LIMIT, checked when the ring
        # is built), so each coefficient is below isqrt(n) * 2**20 <= 2**62 for n < 2**84.
        values[:, j, :] = counts @ ring.red[exps]

    if np.any(values[:, 0, 0] != degree_arr) or np.any(values[:, 0, 1:]):
        raise CharacterEngineError("identity-class value disagrees with the degree")
    return degrees, values, m
