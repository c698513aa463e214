"""Hot integer kernels, in one vectorized numpy implementation.

All heavy inner loops of the package live here: reduced row echelon form
and characteristic polynomials over GF(p), class-sum structure constants,
the modular matrix products of evaluation-domain arithmetic, and the dense
power-basis contractions. The library no longer calls the dense ones: it
multiplies through `CyclotomicRing.multiply` and checks in the evaluation
domain. They stay as the tests' reference, and perfbench/'s tracer wraps them.

Every kernel works on ``int64`` arrays, and every contraction is exact by a
checked bound: before it contracts, it computes in Python ints the largest
magnitude any partial sum can reach and raises OverflowError when that is
2**63 or more. For the modular products (`matmul_mod`, `weighted_analysis`)
that is k * (p - 1)**2 for k terms; for the dense ones (`mul_into`,
`pair_products`, `pair_gram`) it is the number of terms times the largest
operand magnitudes.
"""

from __future__ import annotations

import numpy as np

_INT64_LIMIT = 1 << 63


def _magnitude(a: np.ndarray) -> int:
    """Largest absolute entry of an integer array, as a Python int."""
    if a.size == 0:
        return 0
    return max(int(a.max()), -int(a.min()))


def _require_int64(bound: int, what: str) -> None:
    if bound >= _INT64_LIMIT:
        raise OverflowError(f"{what}: worst-case magnitude {bound} reaches 2**63")


def _dense_checked(a: np.ndarray, b: np.ndarray, terms: int, what: str):
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    _require_int64(terms * _magnitude(a) * _magnitude(b), what)
    return a, b


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
        inv = pow(int(r[row, col]), p - 2, p)
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
        inv = pow(int(h[col + 1, col]), p - 2, p)
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


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p over the last two axes, with residues in [0, p).

    Exact in int64: raises before contracting unless k * (p - 1)**2 < 2**63,
    k being the contracted length.
    """
    k = a.shape[-1]
    _require_int64(k * (p - 1) ** 2, f"mod-{p} product over {k} terms")
    out = np.matmul(_residues(a, p), _residues(b, p))
    return np.remainder(out, p, out=out)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """``a`` mod p as int64, copied only when an entry lies outside [0, p)."""
    a = np.asarray(a, dtype=np.int64)
    if a.size and (int(a.min()) < 0 or int(a.max()) >= p):
        return np.remainder(a, p)
    return a


def weighted_analysis(v: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """out[b, i, e] = sum_j v[b, j, e] * w[i, j, e] mod p.

    v [B, k, phi] and w [ki, k, phi] hold residues at phi evaluation points;
    the sum is one modular k x k matrix product per point e. Operands stored
    point-major (e slowest in memory) are contracted without a copy.
    """
    a = np.ascontiguousarray(v.transpose(2, 0, 1))  # [e, B, k]
    b = np.ascontiguousarray(w.transpose(2, 0, 1))  # [e, ki, k]
    return matmul_mod(a, b.transpose(0, 2, 1), p).transpose(1, 2, 0)


def mul_into(bf: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """Partially apply the ring multiplication tensor to a batch of values.

    For each value vector ``b`` in the batch the result slice satisfies
    ``(a * b)[r] = sum_p a[p] * out[p, r]`` for any other value ``a``.
    Leading dimensions are arbitrary; the last axis is the coefficient axis.
    """
    lead = bf.shape[:-1]
    flat, tensor = _dense_checked(bf.reshape(-1, bf.shape[-1]), tensor, bf.shape[-1], "mul_into")
    out = np.einsum("nq,pqr->npr", flat, tensor)
    return out.reshape(*lead, tensor.shape[0], tensor.shape[2])


def pair_products(a: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """All pointwise ring products of rows of ``a`` with prepared rows of ``bm``.

    a [Na, X, p], bm [Nb, X, p, r] -> [Na, Nb, X, r].
    """
    a, bm = _dense_checked(a, bm, a.shape[-1], "pair_products")
    return np.einsum("axp,bxpr->abxr", a, bm)


def pair_gram(a: np.ndarray, bm: np.ndarray) -> np.ndarray:
    """Pairwise ring products summed over the shared axis (exact gram matrices).

    a [Na, X, p], bm [Nb, X, p, r] -> [Na, Nb, r].
    """
    a, bm = _dense_checked(a, bm, a.shape[-2] * a.shape[-1], "pair_gram")
    return np.einsum("axp,bxpr->abr", a, bm)


def nullspace_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical kernel basis of ``a`` over GF(p) and the free columns of its rref.

    One basis column per free column, and ``basis[free]`` is the identity.
    """
    r, pivots = rref_mod(a, p)
    is_free = np.ones(r.shape[1], dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((r.shape[1], free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -r[: pivots.size, free] % p
    return basis, free
