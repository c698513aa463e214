"""Oracles for the eigenvalue search and the eigenspace splitting of Dixon's algorithm."""

import itertools
from functools import reduce
from math import lcm

import numpy as np
import pytest

from ksphere import dixon, kernels
from ksphere.cyclotomic import is_prime, root_of_unity
from ksphere.groups import GroupSpec, build_group

PRIMES = (7, 97, 12289)


def _rank_mod(a, p):
    """Rank over GF(p) by plain Gaussian elimination on Python ints (oracle)."""
    rows = [[int(x) % p for x in row] for row in a]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] * inv % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _eigenvalue_oracle(t, p):
    """Brute force: every lambda in GF(p) with rank(t - lambda I) < d."""
    base = [[int(x) for x in row] for row in t]
    out = []
    for lam in range(p):
        shifted = [[x - lam * (i == j) for j, x in enumerate(row)] for i, row in enumerate(base)]
        if _rank_mod(shifted, p) < len(base):
            out.append(lam)
    return out


def _invertible(rng, d, p):
    while True:
        a = rng.integers(0, p, size=(d, d)).astype(np.int64)
        if _rank_mod(a, p) == d:
            return a


def _inverse_mod(a, p):
    d = a.shape[0]
    r, _ = kernels.rref_mod(np.hstack([a, np.eye(d, dtype=np.int64)]), p)
    return r[:, d:]


def _conjugate(rng, block, p):
    q = _invertible(rng, block.shape[0], p)
    return q @ block % p @ _inverse_mod(q, p) % p


def _non_residue(p):
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


@pytest.mark.parametrize("p", PRIMES)
def test_eigenvalues_of_diagonalizable_matrices_match_rank_oracle(p):
    rng = np.random.default_rng(p)
    for d in (2, 3, 5):
        # Draw d eigenvalues from fewer than d residues, so some repeat.
        pool = rng.choice(p, size=max(1, min(d - 1, p)), replace=False)
        diag = np.diag(rng.choice(pool, size=d)).astype(np.int64)
        t = _conjugate(rng, diag, p)
        got = dixon.eigenvalues_mod(t, p)
        assert got == sorted({int(x) for x in np.diag(diag)})
        assert got == _eigenvalue_oracle(t, p)


@pytest.mark.parametrize("p", PRIMES)
def test_eigenvalues_skip_an_irreducible_quadratic_factor(p):
    rng = np.random.default_rng(p + 1)
    a = _non_residue(p)
    block = np.zeros((5, 5), dtype=np.int64)
    block[:2, :2] = [[0, a], [1, 0]]  # companion matrix of x**2 - a
    block[2:, 2:] = np.diag([3, 3, 5])
    t = _conjugate(rng, block, p)
    assert dixon.eigenvalues_mod(t, p) == [3, 5]
    assert dixon.eigenvalues_mod(t, p) == _eigenvalue_oracle(t, p)


@pytest.mark.parametrize(
    "n, fake",
    [
        (2, [[1, 1], [0, 1]]),  # a Jordan block: one eigenvalue, not scalar
        (3, [[1, 0, 0], [0, 0, 3], [0, 1, 0]]),  # 1 and the roots of x**2 - 3 mod 7
    ],
    ids=["jordan-C2", "irreducible-C3"],
)
def test_common_eigenvectors_rejects_a_class_matrix_that_does_not_split(monkeypatch, n, fake):
    table = build_group(GroupSpec.cyclic(n))
    classes = table.classes
    p = dixon.choose_prime(n, n)
    monkeypatch.setattr(kernels, "class_matrix", lambda *args: np.asarray(fake, dtype=np.int64))
    with pytest.raises(dixon.CharacterEngineError, match=f"span 1 of {n} dimensions"):
        dixon.common_eigenvectors(table, classes, p)


def test_common_eigenvectors_of_cyclic_group_are_its_characters():
    # C2^4 and C3xC3 leave multi-dimensional eigenspaces after the first
    # class matrix, so their pending bases are split again.
    for factors in ((5,), (2, 2, 2, 2), (3, 3)):
        table = build_group(reduce(GroupSpec.direct_product, map(GroupSpec.cyclic, factors)))
        classes = table.classes
        n, m = table.order, lcm(*factors)
        p = dixon.choose_prime(m, n)
        first = kernels.class_matrix(
            table.product,
            table.inverse,
            classes.class_of,
            np.flatnonzero(classes.class_of == 1),
            np.asarray(classes.representatives),
        )
        assert (len(dixon.eigenvalues_mod(first % p, p)) < n) == (factors != (5,))
        omega = dixon.common_eigenvectors(table, classes, p)
        # Closed form on the mixed-radix digits x_i of an element x:
        # chi_a(x) = z ** sum_i a_i x_i m / n_i.
        z = root_of_unity(m, p)
        digits = np.unravel_index(np.asarray(classes.representatives), factors)
        expect = set()
        for a in itertools.product(*map(range, factors)):
            exps = sum(a_i * d * (m // n_i) for a_i, d, n_i in zip(a, digits, factors))
            expect.add(tuple(pow(z, int(e), p) for e in exps))
        assert len(expect) == n
        assert {tuple(int(x) for x in row) for row in omega} == expect


def test_common_eigenvectors_rejects_a_class_matrix_that_breaks_an_eigenspace(monkeypatch):
    # On C2xC2 the first class matrix leaves two planes; a cyclic shift of
    # the four classes as the second class matrix maps neither into itself.
    table = build_group(GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2)))
    classes = table.classes
    p = dixon.choose_prime(2, 4)
    real = kernels.class_matrix
    calls = []

    def second_is_a_shift(*args):
        calls.append(args)
        if len(calls) == 1:
            return real(*args)
        return np.roll(np.eye(4, dtype=np.int64), 1, axis=0)

    monkeypatch.setattr(kernels, "class_matrix", second_is_a_shift)
    with pytest.raises(
        dixon.CharacterEngineError, match="subspace is not invariant under a class matrix"
    ):
        dixon.common_eigenvectors(table, classes, p)
    assert len(calls) == 2


def _choose_prime_oracle(exponent, order):
    """The scan over every integer above the exponent, one step at a time."""
    p = exponent + 1
    while True:
        if p > 2 and p * p > 4 * order and (p - 1) % exponent == 0 and is_prime(p):
            return p
        p += 1


@pytest.mark.parametrize(
    "exponent, order",
    [(1, 1), (1, 2), (2, 2), (2, 8), (3, 6), (4, 8), (6, 24), (12, 24), (12, 48),
     (30, 120), (60, 360), (120, 240), (128, 128), (256, 256), (34, 34), (5, 1000)],
)
def test_choose_prime_matches_the_step_one_scan(exponent, order):
    p = dixon.choose_prime(exponent, order)
    assert p == _choose_prime_oracle(exponent, order)
    assert is_prime(p) and p % exponent == 1 % exponent and p * p > 4 * order


def test_every_class_lifts_its_values_through_the_checked_product(monkeypatch):
    # The per-class root-of-unity counts are an int64 product whose bound
    # `kernels.matmul_mod` checks: one call per class, no unchecked `@`.
    # The GF(p) products that split the eigenspaces go through it too.
    calls, eigen_calls, splitting = [], [], []
    matmul_mod = kernels.matmul_mod
    common_eigenvectors = dixon.common_eigenvectors

    def counting(a, b, p):
        (eigen_calls if splitting else calls).append(a.shape)
        return matmul_mod(a, b, p)

    def eigenvectors(*args):
        splitting.append(True)
        try:
            return common_eigenvectors(*args)
        finally:
            splitting.pop()

    monkeypatch.setattr(kernels, "matmul_mod", counting)
    monkeypatch.setattr(dixon, "common_eigenvectors", eigenvectors)
    s4 = build_group(GroupSpec.symmetric(4))
    degrees, values, m = dixon.character_table_data(s4, s4.classes)
    assert len(calls) == s4.classes.count == 5
    assert eigen_calls
    assert sorted(degrees) == [1, 1, 2, 3, 3] and m == 12
