"""Exactness of the cyclotomic layer, checked against naive polynomial math."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_mul

from ksphere.cyclotomic import (
    ORACLE_PRIME_START,
    Cyclotomic,
    cyclotomic_polynomial,
    euler_phi,
    eval_prime,
    factorization,
    get_ring,
    is_prime,
    prime_count,
    root_of_unity,
    symmetric_lift,
)
from ksphere.dixon import choose_prime

# Classical table, frozen: degree-indexed coefficients, ascending.
KNOWN_POLYS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}

MODULI = st.integers(min_value=1, max_value=30)


def naive_reduce(m: int, poly_coeffs) -> tuple[int, ...]:
    """Independent oracle: remainder of an integer polynomial mod Phi_m."""
    phi = cyclotomic_polynomial(m)
    num = [Fraction(c) for c in poly_coeffs]
    dn = len(phi) - 1
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c:
            for j in range(dn + 1):
                num[i - dn + j] -= c * phi[j]
    out = [int(c) for c in num[:dn]]
    assert all(Fraction(v) == num[i] for i, v in enumerate(out))
    return tuple(out + [0] * (dn - len(out)))


def test_known_cyclotomic_polynomials():
    for m, coeffs in KNOWN_POLYS.items():
        assert cyclotomic_polynomial(m) == coeffs


def test_euler_phi_matches_polynomial_degree():
    for m in range(1, 64):
        assert euler_phi(m) == len(cyclotomic_polynomial(m)) - 1


@given(MODULI)
def test_zeta_power_m_is_one(m):
    z = Cyclotomic.zeta(m)
    acc = Cyclotomic.integer(m, 1)
    for _ in range(m):
        acc = acc * z
    assert acc == Cyclotomic.integer(m, 1)


@given(MODULI.filter(lambda m: m > 1))
def test_root_of_unity_sum_vanishes(m):
    total = Cyclotomic.integer(m, 0)
    for t in range(m):
        total = total + Cyclotomic.zeta(m, t)
    assert total.is_zero


@given(MODULI)
def test_reduction_rows_match_naive_remainder(m):
    ring = get_ring(m)
    for t in range(m):
        mono = [0] * (t + 1)
        mono[t] = 1
        assert tuple(int(v) for v in ring.red[t]) == naive_reduce(m, mono)


coeff_vec = st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=8)


@given(MODULI, coeff_vec, coeff_vec, coeff_vec)
@settings(max_examples=60)
def test_ring_laws(m, a, b, c):
    ring = get_ring(m)

    def mk(v):
        vec = (v * ((ring.phi // len(v)) + 1))[: ring.phi]
        return Cyclotomic.make(m, vec)

    x, y, z = mk(a), mk(b), mk(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + (-x) == Cyclotomic.integer(m, 0)


@given(MODULI, coeff_vec)
@settings(max_examples=60)
def test_conjugation_is_an_involution_and_multiplicative(m, a):
    ring = get_ring(m)
    vec = (a * ((ring.phi // len(a)) + 1))[: ring.phi]
    x = Cyclotomic.make(m, vec)
    assert x.conjugate().conjugate() == x
    y = Cyclotomic.zeta(m, 1) + 2
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


@given(MODULI, coeff_vec)
@settings(max_examples=60)
def test_norm_is_nonnegative_rational(m, a):
    ring = get_ring(m)
    vec = (a * ((ring.phi // len(a)) + 1))[: ring.phi]
    x = Cyclotomic.make(m, vec)
    # x * conj(x) summed over the Galois orbit would be the field norm; at least
    # the coefficientwise trace of x*conj(x) must be a nonnegative integer:
    # trace(zeta^t) over Q equals phi(m) * [t == 0] minus Mobius corrections,
    # so we only check the weaker exact symmetry property here.
    prod = x * x.conjugate()
    assert prod == prod.conjugate()


@given(st.sampled_from([(1, 2), (2, 4), (3, 6), (2, 6), (4, 8), (6, 12), (5, 30)]), coeff_vec, coeff_vec)
@settings(max_examples=40)
def test_embedding_is_a_ring_homomorphism(pair, a, b):
    small, big = pair
    ring = get_ring(small)

    def mk(v):
        vec = (v * ((ring.phi // len(v)) + 1))[: ring.phi]
        return Cyclotomic.make(small, vec)

    x, y = mk(a), mk(b)
    assert (x * y).embed(big) == x.embed(big) * y.embed(big)
    assert (x + y).embed(big) == x.embed(big) + y.embed(big)
    assert x.conjugate().embed(big) == x.embed(big).conjugate()


def test_embedding_sends_root_to_scaled_root():
    assert Cyclotomic.zeta(3).embed(6) == Cyclotomic.zeta(6, 2)
    assert Cyclotomic.zeta(2).embed(6) == Cyclotomic.zeta(6, 3)
    assert Cyclotomic.integer(1, 5).embed(12) == Cyclotomic.integer(12, 5)


def test_rational_predicates_and_division():
    x = Cyclotomic.integer(12, 6)
    assert x.is_rational_integer and x.as_int() == 6
    half = x.divide_exact(4)
    assert half.den == 2 and half.num[0] == 3
    assert not half.is_rational_integer
    with pytest.raises(ValueError):
        half.as_int()


def test_json_round_trip():
    x = Cyclotomic.zeta(12, 7) + 3
    again = Cyclotomic.from_json(x.to_json())
    assert again == x


def test_mixed_modulus_arithmetic_is_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)


def test_mul_tensor_matches_scalar_products():
    rng = np.random.default_rng(7)
    for m in (1, 2, 4, 6, 9, 12, 34, 64):
        ring = get_ring(m)
        a = rng.integers(-5, 6, ring.phi)
        b = rng.integers(-5, 6, ring.phi)
        # bulk path through the dense tensor
        bulk = np.einsum("p,q,pqr->r", a, b, dense_mul(ring))
        scalar = Cyclotomic.make(m, a) * Cyclotomic.make(m, b)
        assert Cyclotomic.make(m, bulk) == scalar


@pytest.mark.parametrize("m", [1, 2, 4, 6, 9, 12, 34, 64])
def test_multiply_matches_the_dense_tensor(m):
    ring = get_ring(m)
    mul = dense_mul(ring)
    rng = np.random.default_rng(m)
    a = rng.integers(-9, 10, (3, 1, ring.phi))
    b = rng.integers(-9, 10, (4, ring.phi))
    b[0] = 0  # a zero operand, and sparse ones
    a[1, 0, 1:] = 0
    dense = np.einsum("...p,...q,pqr->...r", a, b, mul)
    got = ring.multiply(a, b)
    assert got.dtype == np.int64 and got.shape == (3, 4, ring.phi)
    assert np.array_equal(got, dense)
    # Python ints: exact past 2**63, equal to the dense product scaled back.
    big = 1 << 70
    exact = ring.multiply(a.astype(object) * big, b)
    assert exact.dtype == object
    assert exact.tolist() == (dense.astype(object) * big).tolist()


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 9, 12])
def test_multiply_reduces_only_the_powers_past_phi(m):
    """Products with no power >= phi, with only such powers, and scalar operands."""
    ring = get_ring(m)
    phi, mul = ring.phi, dense_mul(ring)
    unit = np.eye(phi, dtype=np.int64)
    low = ring.multiply(unit[0], unit)  # 1 * z**s: nothing to reduce
    assert np.array_equal(low, unit) and low.flags.c_contiguous
    top = ring.multiply(unit[phi - 1], unit[phi - 1])  # z**(2 phi - 2) alone
    assert np.array_equal(top, ring.red[(2 * phi - 2) % m])
    rng = np.random.default_rng(m)
    a, b = rng.integers(-9, 10, (2, phi))
    assert np.array_equal(ring.multiply(a, b), np.einsum("p,q,pqr->r", a, b, mul))
    assert ring.multiply(a[None, None], b).shape == (1, 1, phi)


def test_multiply_checks_its_int64_bound():
    ring = get_ring(4)  # phi 2, peak 1: the bound is 6 |a| |b|
    assert (ring.phi, ring.peak) == (2, 1)
    below = ((1 << 63) - 1) // 6
    assert ring.multiply([below, 0], [0, 1]).tolist() == [0, below]
    with pytest.raises(OverflowError, match="2\\*\\*63"):
        ring.multiply([below + 1, 0], [0, 1])
    exact = ring.multiply(np.asarray([below + 1, 0], dtype=object), [0, 1])
    assert exact.tolist() == [0, below + 1]


def test_scalar_product_in_a_large_ring_stays_small():
    m = 1024
    a, b = Cyclotomic.zeta(m), Cyclotomic.zeta(m, 3)
    tracemalloc.start()
    try:
        product = a * b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert product == Cyclotomic.zeta(m, 4)
    assert peak < 1 << 20


# -- evaluation domain ---------------------------------------------------------


def _images(x: Cyclotomic, i: int) -> np.ndarray:
    return get_ring(x.modulus).evaluate(np.asarray([x.num], dtype=np.int64), i)[0]


@pytest.mark.parametrize("m", [1, 2, 5, 6, 12, 34, 64])
def test_evaluation_is_a_ring_homomorphism_that_sees_conjugation(m):
    rng = np.random.default_rng(m)
    phi = euler_phi(m)
    for i in range(3):
        p, v, neg = eval_prime(m, i)
        assert is_prime(p) and p > 1 << 20 and (p - 1) % m == 0
        assert i == 0 or p > eval_prime(m, i - 1)[0]
        assert v.shape == (phi, phi) and sorted(neg.tolist()) == list(range(phi))
        for _ in range(5):
            a = Cyclotomic.make(m, rng.integers(-50, 51, phi))
            b = Cyclotomic.make(m, rng.integers(-50, 51, phi))
            assert np.array_equal(_images(a * b, i), _images(a, i) * _images(b, i) % p)
            assert np.array_equal(_images(a.conjugate(), i), _images(a, i)[neg])
        # The images of zeta are distinct primitive m-th roots of unity.
        z = _images(Cyclotomic.zeta(m), i)
        assert len(set(z.tolist())) == phi
        assert all(pow(int(r), m, p) == 1 for r in z)


def test_ring_bound_constants_hold_on_random_products():
    rng = np.random.default_rng(7)
    for m in (9, 12, 15, 30, 34):
        ring = get_ring(m)
        assert ring.peak == int(np.abs(ring.red).max())
        assert ring.l1 == int(np.abs(ring.red).sum(axis=1).max())
        for _ in range(20):
            a = Cyclotomic.make(m, rng.integers(-9, 10, ring.phi))
            b = Cyclotomic.make(m, rng.integers(-9, 10, ring.phi))
            na, nb = sum(map(abs, a.num)), sum(map(abs, b.num))
            ab = (a * b).num
            assert max(map(abs, ab)) <= na * nb * ring.peak
            assert sum(map(abs, ab)) <= na * nb * ring.l1
            assert sum(map(abs, a.conjugate().num)) <= na * ring.l1


@pytest.mark.parametrize("m", [3, 34])
def test_prime_count_is_the_fewest_primes_covering_twice_the_bound(m):
    p0, p1, p2 = (eval_prime(m, i)[0] for i in range(3))
    assert prime_count(m, 0) == 1
    assert prime_count(m, (p0 - 1) // 2) == 1
    assert prime_count(m, p0 // 2 + 1) == 2
    assert prime_count(m, (p0 * p1 - 1) // 2) == 2
    assert prime_count(m, p0 * p1 // 2 + 1) == 3
    assert p0 * p1 * p2 > 2 * (p0 * p1 // 2 + 1)


@pytest.mark.parametrize("m", [1, 3, 34, 720])
def test_prime_count_from_the_oracle_start_and_the_library_limit(m):
    library = [eval_prime(m, i)[0] for i in range(ORACLE_PRIME_START)]
    oracle = [eval_prime(m, ORACLE_PRIME_START + i)[0] for i in range(2)]
    assert max(library) < 1 << 21 < oracle[0] < oracle[1]
    assert prime_count(m, oracle[0] // 2 + 1, ORACLE_PRIME_START) == 2
    assert prime_count(m, (math.prod(library) - 1) // 2) == ORACLE_PRIME_START
    with pytest.raises(ArithmeticError, match="needs more than 8 evaluation primes"):
        prime_count(m, math.prod(library) // 2 + 1)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_symmetric_lift_recovers_every_value_below_half_the_product(count):
    m = 12
    primes = [eval_prime(m, i)[0] for i in range(count)]
    half = int(np.prod(primes, dtype=object)) // 2
    rng = np.random.default_rng(count)
    xs = [0, 1, -1, half, -half]
    xs += [int(r) % (2 * half + 1) - half for r in rng.integers(-(1 << 62), 1 << 62, 50)]
    residues = [np.asarray([x % p for x in xs], dtype=np.int64) for p in primes]
    assert [int(x) for x in symmetric_lift(residues, m)] == xs


def _multiplicative_order(z: int, p: int) -> int:
    t, y = 1, z % p
    while y != 1:
        y = y * z % p
        t += 1
    return t


@pytest.mark.parametrize("m", [1, 2, 12, 720, 1024])
def test_root_of_unity_has_exact_order_m(m):
    dixon_primes = [choose_prime(m, n) for n in (1, m, 1024)]
    eval_primes = [eval_prime(m, i)[0] for i in range(2)]
    for p in dixon_primes + eval_primes:
        assert (p - 1) % m == 0
        assert _multiplicative_order(root_of_unity(m, p), p) == m


@pytest.mark.parametrize(
    "n", [1, 2, 3, 4, 12, 97, 360, 720, 1001, 1024, 18899, 6 * 2**20, 2**31 - 1]
)
def test_factorization_multiplies_back_and_lists_only_primes(n):
    pairs = factorization(n)
    primes = [q for q, _ in pairs]
    assert primes == sorted(set(primes))
    assert all(is_prime(q) and e >= 1 for q, e in pairs)
    assert math.prod(q**e for q, e in pairs) == n


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12, 15, 28, 35, 60, 64, 105, 256, 720])
def test_unit_generators_generate_the_unit_group(m):
    gens = get_ring(m).unit_generators
    reached, frontier = {1 % m}, [1 % m]
    while frontier:
        x = frontier.pop()
        for t in gens:
            if x * t % m not in reached:
                reached.add(x * t % m)
                frontier.append(x * t % m)
    assert reached == {t for t in range(m) if math.gcd(t, m) == 1}
    assert all(t >= 2 for t in gens) and list(gens) == sorted(gens)


@pytest.mark.parametrize("m", [1, 3, 5, 8, 12, 15, 35, 64, 105])
def test_galois_is_the_dense_substitution_and_a_ring_automorphism(m):
    ring = get_ring(m)
    rng = np.random.default_rng(m)
    a, b = rng.integers(-9, 10, (2, 4, 3, ring.phi))
    for t in [t for t in range(-1, m) if math.gcd(t, m) == 1]:
        dense = a @ ring.red[np.arange(ring.phi) * t % m]  # sum_s a_s zeta**(s t)
        assert np.array_equal(ring.galois(a, t), dense)
        assert np.array_equal(
            ring.galois(ring.multiply(a, b), t), ring.multiply(ring.galois(a, t), ring.galois(b, t))
        )
        # iota_t = iota_1 o sigma_t: the image at z**t is that of sigma_t a at z.
        e = [u for u in range(m) if math.gcd(u, m) == 1].index(t % m)
        at_z = ring.evaluate(ring.galois(a, t), 0, one_point=True)
        assert np.array_equal(ring.evaluate(a, 0)[..., e : e + 1], at_z)
    assert np.array_equal(ring.galois(a, -1), a @ ring.conj)


def test_galois_checks_its_int64_bound():
    ring = get_ring(15)  # red has rows with several nonzeros, so columns of S do too
    big = np.zeros((1, ring.phi), dtype=np.int64)
    big[0, :] = 1 << 61
    with pytest.raises(OverflowError, match="Galois image"):
        ring.galois(big, 2)
    ring = get_ring(64)  # a signed permutation of the basis: no sum, no bound to reach
    top = np.full((1, ring.phi), (1 << 63) - 1, dtype=np.int64)
    assert np.array_equal(np.abs(ring.galois(top, 3)), top)
