"""Hot integer kernels, in one vectorized numpy implementation.

All heavy inner loops of the package live here: reduced row echelon form
and characteristic polynomials over GF(p), class-sum structure constants,
and the batched contractions used by exact cyclotomic table arithmetic.

Every kernel operates on ``int64`` arrays and is exact as long as
intermediate values stay below 2**63; callers keep moduli and coefficient
magnitudes far below that bound.
"""

from __future__ import annotations

import numpy as np


def _pow_mod(base: int, exp: int, p: int) -> int:
    result = 1
    base %= p
    while exp > 0:
        if exp & 1:
            result = result * base % p
        base = base * base % p
        exp >>= 1
    return result


def rref_mod(a: np.ndarray, p: int):
    """Row-reduce ``a`` over GF(p). Returns (rref matrix, pivot columns)."""
    r = np.ascontiguousarray(a, dtype=np.int64) % p
    n_rows, n_cols = r.shape
    pivots = []
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        pr = row + int(nz[0])
        if pr != row:
            r[[row, pr]] = r[[pr, row]]
        inv = _pow_mod(int(r[row, col]), p - 2, p)
        r[row] = r[row] * inv % p
        mask = np.nonzero(r[:, col])[0]
        mask = mask[mask != row]
        if mask.size:
            r[mask] = (r[mask] - np.outer(r[mask, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, np.asarray(pivots, dtype=np.int64)


def charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Characteristic polynomial of ``a`` over GF(p), ascending coefficients."""
    h = np.ascontiguousarray(a, dtype=np.int64) % p
    n = h.shape[0]
    for col in range(n - 2):
        nz = np.nonzero(h[col + 1 :, col])[0]
        if nz.size == 0:
            continue
        pr = col + 1 + int(nz[0])
        if pr != col + 1:
            h[[col + 1, pr]] = h[[pr, col + 1]]
            h[:, [col + 1, pr]] = h[:, [pr, col + 1]]
        inv = _pow_mod(int(h[col + 1, col]), p - 2, p)
        for i in range(col + 2, n):
            f = int(h[i, col])
            if f:
                f = f * inv % p
                h[i] = (h[i] - f * h[col + 1]) % p
                h[:, col + 1] = (h[:, col + 1] + f * h[:, i]) % p
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for i in range(1, n + 1):
        polys[i, 1 : i + 1] = polys[i - 1, 0:i]
        polys[i, 0:i] = (polys[i, 0:i] - h[i - 1, i - 1] * polys[i - 1, 0:i]) % p
        prod = 1
        for j in range(i - 2, -1, -1):
            prod = prod * int(h[j + 1, j]) % p
            if prod == 0:
                break
            coef = int(h[j, i - 1]) * prod % p
            if coef:
                polys[i, 0 : j + 1] = (polys[i, 0 : j + 1] - coef * polys[j, 0 : j + 1]) % p
    return polys[n]


def class_matrix(product, inverse, class_of, members, reps) -> np.ndarray:
    """Structure-constant matrix M[j, l] = #{x in the class: x^-1 * rep_l in class j}."""
    k = reps.shape[0]
    m = np.zeros((k, k), dtype=np.int64)
    j_idx = class_of[product[np.ix_(inverse[members], reps)]]
    cols = np.broadcast_to(np.arange(k, dtype=np.int64), j_idx.shape)
    np.add.at(m, (j_idx, cols), 1)
    return m


def mul_into(bf: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Partially apply the ring multiplication tensor to a batch of values.

    For each value vector ``b`` in the batch the result slice satisfies
    ``(a * b)[r] = sum_p a[p] * out[p, r]`` for any other value ``a``.
    Leading dimensions are arbitrary; the last axis is the coefficient axis.
    """
    lead = bf.shape[:-1]
    flat = np.ascontiguousarray(bf.reshape(-1, bf.shape[-1]), dtype=np.int64)
    out = np.einsum("nq,pqr->npr", flat, mul)
    return out.reshape(*lead, mul.shape[0], mul.shape[2])


def weighted_analysis(v: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Contract value arrays [B, k, phi] against an analysis tensor [ki, k, phi, phi]."""
    return np.einsum(
        "bjp,ijpr->bir",
        np.ascontiguousarray(v, dtype=np.int64),
        np.ascontiguousarray(at, dtype=np.int64),
    )


def pair_products(a: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """All pointwise ring products of rows of ``a`` with prepared rows of ``bm``.

    a [Na, X, p], bm [Nb, X, p, r] -> [Na, Nb, X, r].
    """
    return np.einsum(
        "axp,bxpr->abxr",
        np.ascontiguousarray(a, dtype=np.int64),
        np.ascontiguousarray(bm, dtype=np.int64),
    )


def pair_gram(a: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """Pairwise ring products summed over the shared axis (exact gram matrices).

    a [Na, X, p], bm [Nb, X, p, r] -> [Na, Nb, r].
    """
    return np.einsum(
        "axp,bxpr->abr",
        np.ascontiguousarray(a, dtype=np.int64),
        np.ascontiguousarray(bm, dtype=np.int64),
    )


def nullspace_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical kernel basis of ``a`` over GF(p), one column per free variable."""
    a = np.ascontiguousarray(a, dtype=np.int64)
    n_cols = a.shape[1]
    r, pivots = rref_mod(a, p)
    pivot_set = set(int(c) for c in pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    basis = np.zeros((n_cols, len(free)), dtype=np.int64)
    for idx, c in enumerate(free):
        basis[c, idx] = 1
        for i, pc in enumerate(pivots):
            basis[int(pc), idx] = (-int(r[i, c])) % p
    return basis
