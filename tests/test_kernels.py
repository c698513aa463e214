"""Oracles for the mod-p and contraction kernels."""

import numpy as np
import pytest

from ksphere import kernels

PRIMES = (7, 97, 12289)


def _random_matrix(rng, n, m, p):
    return rng.integers(0, p, size=(n, m)).astype(np.int64)


def _det_mod(a, p):
    """Determinant over GF(p) by plain Gaussian elimination (oracle)."""
    a = a.copy() % p
    n = a.shape[0]
    det = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            det = -det % p
        det = det * int(a[col, col]) % p
        inv = pow(int(a[col, col]), p - 2, p)
        for r in range(col + 1, n):
            if a[r, col]:
                a[r] = (a[r] - int(a[r, col]) * inv % p * a[col]) % p
    return det % p


def _charpoly_by_interpolation(a, p):
    """char(x) = det(xI - A) via Lagrange interpolation at n+1 points (oracle)."""
    n = a.shape[0]
    xs = list(range(n + 1))
    ys = [_det_mod((x * np.eye(n, dtype=np.int64) - a) % p, p) for x in xs]
    coeffs = np.zeros(n + 1, dtype=np.int64)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = np.array([1], dtype=np.int64)
        denom = 1
        for j, xj in enumerate(xs):
            if i == j:
                continue
            basis = np.convolve(basis, np.array([-xj % p, 1], dtype=np.int64)) % p
            denom = denom * (xi - xj) % p
        coeffs = (coeffs + yi * pow(int(denom), p - 2, p) * basis) % p
    return coeffs


@pytest.mark.parametrize("p", PRIMES)
def test_rref_properties(p):
    rng = np.random.default_rng(3)
    for n, m in [(1, 1), (3, 5), (5, 3), (6, 6), (8, 8)]:
        a = _random_matrix(rng, n, m, p)
        r, pivots = kernels.rref_mod(a.copy(), p)
        for i, c in enumerate(pivots):
            col = np.zeros(n, dtype=np.int64)
            col[i] = 1
            assert np.array_equal(r[:, c], col)
        # rref is row-equivalent to a: same row space over GF(p)
        stacked, piv2 = kernels.rref_mod(np.vstack([a, r]), p)
        assert len(piv2) == len(pivots)


def test_nullspace_annihilates():
    rng = np.random.default_rng(5)
    p = 97
    for n, m in [(4, 6), (6, 4), (5, 5)]:
        a = _random_matrix(rng, n, m, p)
        ns, free = kernels.nullspace_mod(a, p)
        assert np.all((a @ ns) % p == 0)
        r, pivots = kernels.rref_mod(a.copy(), p)
        assert ns.shape[1] == m - len(pivots)
        assert free.tolist() == sorted(set(range(m)) - set(pivots.tolist()))
        assert np.array_equal(ns[free], np.eye(free.size, dtype=np.int64))
    # Full column rank: no free column and an empty basis.
    full = np.triu(_random_matrix(rng, 4, 4, p), 1) + 3 * np.eye(4, dtype=np.int64)
    ns, free = kernels.nullspace_mod(full, p)
    assert ns.shape == (4, 0) and free.size == 0
    # Zero matrix: every column is free and the basis is the identity.
    ns, free = kernels.nullspace_mod(np.zeros((3, 5), dtype=np.int64), p)
    assert free.tolist() == [0, 1, 2, 3, 4]
    assert np.array_equal(ns, np.eye(5, dtype=np.int64))


@pytest.mark.parametrize("p", PRIMES)
def test_charpoly_matches_interpolation_oracle(p):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 7):
        if n + 1 > p:
            continue  # interpolation oracle needs n+1 distinct points mod p
        a = _random_matrix(rng, n, n, p)
        got = kernels.charpoly_mod(a.copy(), p)
        expect = _charpoly_by_interpolation(a, p)
        assert np.array_equal(got % p, expect % p)


def test_pair_gram_is_summed_pair_products():
    rng = np.random.default_rng(23)
    phi = 4
    a = rng.integers(-4, 5, (3, 6, phi)).astype(np.int64)
    bm = rng.integers(-4, 5, (2, 6, phi, phi)).astype(np.int64)
    assert np.array_equal(
        kernels.pair_gram(a, bm), kernels.pair_products(a, bm).sum(axis=2)
    )


@pytest.mark.parametrize("p", PRIMES)
def test_weighted_analysis_matches_einsum_oracle(p):
    rng = np.random.default_rng(p)
    v = rng.integers(0, p, (3, 5, 4)).astype(np.int64)
    w = rng.integers(0, p, (6, 5, 4)).astype(np.int64)
    expect = np.einsum("bje,ije->bie", v.astype(object), w.astype(object)) % p
    got = kernels.weighted_analysis(v, w, p)
    assert got.shape == (3, 6, 4)
    assert np.array_equal(got, expect.astype(np.int64))


def test_weighted_analysis_reduces_signed_inputs():
    p = 97
    rng = np.random.default_rng(1)
    v = rng.integers(-500, 500, (2, 3, 2)).astype(np.int64)
    w = rng.integers(-500, 500, (4, 3, 2)).astype(np.int64)
    expect = np.einsum("bje,ije->bie", v, w) % p
    assert np.array_equal(kernels.weighted_analysis(v, w, p), expect)


def test_modular_product_guard_is_exact_at_two_to_the_63():
    # k * (p - 1)**2 == 2**63 with k = 2 and p - 1 = 2**31, and past it: refused.
    for k in (2, 3):
        ones = np.ones((1, k, 1), dtype=np.int64)
        with pytest.raises(OverflowError):
            kernels.weighted_analysis(ones, ones, (1 << 31) + 1)
    # Just below: 2 * (2**31 - 1)**2 < 2**63, and the largest residues stay exact.
    p = 1 << 31
    top = np.full((1, 2, 1), p - 1, dtype=np.int64)
    got = kernels.weighted_analysis(top, top, p)
    assert int(got[0, 0, 0]) == 2 * (p - 1) ** 2 % p


@pytest.mark.parametrize(
    "kernel, shape_a, shape_b, terms",
    [
        (kernels.mul_into, (1, 2), (2, 2, 2), 2),
        (kernels.pair_products, (1, 1, 2), (1, 1, 2, 2), 2),
        (kernels.pair_gram, (1, 2, 2), (1, 2, 2, 2), 4),
    ],
)
def test_dense_kernels_refuse_outputs_that_reach_two_to_the_63(kernel, shape_a, shape_b, terms):
    # terms * |a| * |b| == 2**63 exactly: refused before contracting.
    big_b = 1 << 31
    big_a = (1 << 63) // (terms * big_b)
    with pytest.raises(OverflowError):
        kernel(np.full(shape_a, big_a, dtype=np.int64), np.full(shape_b, big_b, dtype=np.int64))
    with pytest.raises(OverflowError):
        kernel(np.full(shape_a, -big_a, dtype=np.int64), np.full(shape_b, big_b, dtype=np.int64))
    # One less in |a|: the worst case stays below 2**63 and the result is exact.
    a = np.full(shape_a, big_a - 1, dtype=np.int64)
    b = np.full(shape_b, -big_b, dtype=np.int64)
    out = kernel(a, b)
    assert int(out.min()) == -terms * (big_a - 1) * big_b


def test_matmul_mod_reduces_operands_outside_the_residue_range():
    # Unreduced, these operands would overflow int64 in the contraction.
    p = (1 << 31) - 1
    rng = np.random.default_rng(5)
    negative = rng.integers(-(1 << 40), 0, (3, 2)).astype(np.int64)
    large = rng.integers(p, 1 << 40, (2, 4)).astype(np.int64)
    expect = (negative.astype(object) @ large.astype(object)) % p
    assert np.array_equal(kernels.matmul_mod(negative, large, p), expect.astype(np.int64))
    assert np.array_equal(kernels.matmul_mod(large.T, negative.T, p), expect.T.astype(np.int64))


def test_residue_operands_are_not_copied():
    a = np.arange(12, dtype=np.int64).reshape(3, 4)
    assert kernels._residues(a, 12) is a
    assert kernels._residues(a, 11) is not a
