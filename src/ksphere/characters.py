"""Character tables and representation-ring operations, all exact.

A table's raw data comes by one of four routes (`_table_data`):
- an abelian group, one with k = |G| classes, gets its dual group in
  closed form: every value is zeta_m**e with m the exponent, and the
  integer exponents e are extended along a chain of subgroups, one
  generator at a time, read off `GroupTable.powers`
  (`_abelian_table_data`; Isaacs, Character Theory of Finite Groups, 1976,
  ch. 2). This covers abelian kernels, which have no spec or factors, and
  a cyclic group is the case of one generator;
- a nonabelian group built as A x B gets chi_(alpha, beta)(x, y) =
  alpha(x) beta(y) from the raw data of A and B, built by the same routes.
  These products are exactly Irr(A x B) (Isaacs 1976, Thm 4.21): each has
  norm <alpha, alpha> <beta, beta> = 1 and two of them are orthogonal
  unless both factors agree, so they are |Irr(A)| |Irr(B)| = k(A x B)
  distinct irreducibles, all of them;
- a nonabelian group with an abelian subgroup H of index 2, the kernel of
  a sign homomorphism lambda, gets Irr(G) from Irr(H) by Clifford theory
  (`_clifford_table_data`; Isaacs 1976, ch. 6). G acts on H through G/H,
  of order 2, so H holds at least |H|/2 = |G|/4 classes of G, and the
  search for H is skipped when 4 k < |G|. Let b be an element with
  lambda(b) = -1 and psi^b(h) = psi(b^-1 h b) the twist of psi in Irr(H),
  an involution of Irr(H). A fixed psi extends to G in exactly two ways,
  chi(b h) = +-c psi(h) with c**2 = psi(b**2); these are linear, and each
  restricts to psi. A swapped pair {psi, psi^b} induces one irreducible of
  degree 2, psi + psi^b on H and 0 off H. With F fixed characters and P
  pairs, F + 2 P = |H|, and the squares of the degrees add up to
  2 F + 4 P = 2 |H| = |G|, so these 2 F + P characters are all of Irr(G);
- every other group, which is nonabelian with no abelian subgroup of
  index 2, goes to Dixon's algorithm (dixon.py).
Once the class order is fixed, Irr(G) is a set of class functions and each
value has one power-basis vector, so the routes differ only in row order.
`_table_data` recurses into the factors and never calls `character_table`,
the one place that sorts (`_canonical_order`, so every route gives the same
bytes), certifies and caches: only served tables are certified.

Every route gives its data in index form: the D distinct values as rows of
`distinct` [D, phi] and `which` [k, k] with values = distinct[which]. The
abelian route has it already (`red` and the exponent table), a product
multiplies each pair of distinct factor values once, the Clifford route
codes each value as a sum of at most two roots and merges equal values
with one np.unique, and Dixon's values take one np.unique. A table has few
distinct values (m on an abelian table of exponent m, against k**2
entries), so the index form is all a table stores: whatever acts on each
value alone is done on `distinct` (evaluated, embedded or bounded once per
value, then gathered by `which`), and rows are compared as integer rows of
`which`. No dense copy of a table is kept: a consumer gathers only the
rows and classes it reads, and a whole-table gather lives as long as the
decomposition or oracle that reads it.

Class-function values live in one cyclotomic ring per group (modulus =
group exponent); subgroup values embed into the ambient modulus when the
two interact, and tables, inputs and outputs stay int64 power-basis arrays.
Bulk operations that sum over classes (the orthogonality certificate and
decomposition, including of pointwise products) run in the evaluation
domain: a value x of Z[zeta_m] maps to its images iota_t(x) = x(z**t) at
the phi primitive m-th roots of unity z**t modulo primes p = 1 (mod m),
the class sums become k x k modular matrix products, and a coefficient
bound computed beforehand fixes how many primes make the CRT lift exact.
Every decomposition is checked for exact integrality at every point of
each prime: a rational integer has the same image at every point, so a
multiplicity whose images differ is non-rational, and it, or a
non-integer one, aborts with a diagnostic rather than rounding.

The certificate needs one point per prime, z itself, when the table is
Galois-closed. Let sigma_t be the automorphism zeta -> zeta**t of
Z[zeta_m], t a unit mod m. Then iota_t = iota_1 o sigma_t, and sigma_t
commutes with complex conjugation, which is sigma_-1. Suppose that for each
generator t of (Z/m)^* (`CyclotomicRing.unit_generators`) there is a
permutation pi_t of Irr with sigma_t chi_a = chi_pi_t(a) exactly. It is
checked in the power basis on the distinct values alone: sigma_t acts on
each value, so with tau_t the lookup of the D images sigma_t(distinct)
among the rows of `distinct` (`CyclotomicRing.galois`), sigma_t(values) =
distinct[tau_t[which]] exactly, and pi_t is the lookup of the k integer
rows tau_t[which] among the rows of `which` (`row_permutation`). A row not
found (an image not found is the entry -1) means sigma_t does not permute
Irr. Composing them gives such a permutation pi_t for every unit t.

The images of the table are those of its distinct values,
iota(distinct)[which]. Let g_ab = sum_j |C_j| chi_a(j) conj(chi_b(j)). Then
sigma_t g_ab = g_pi_t(a)pi_t(b), so iota_t(g_ab) = iota_1(g_pi_t(a)pi_t(b)).
If iota_1(g) = n I mod p for every pair, then iota_t(g_ab) =
n delta_pi_t(a)pi_t(b) = n delta_ab at every point, pi_t being a bijection.
So g equals n I at every point of p exactly when it does at z, and the
one-point certificate gives the all-points verdict; conj(chi_b) at z is
read off as chi_pi_-1(b) at z. When the table is not closed, the
certificate runs at every point, and when z finds a failure, every point
names the failing pairs, so every verdict and message is the one every
point gives. Where phi <= 2 there is at most one point to save, and every
point is taken. The row relation is all the certificate checks: on a
square table it implies the column relation (Isaacs 1976, Thm 2.18). With
X = (chi_c(j)) and D = diag(|C_j|), X D X* = n I makes X invertible with
X^-1 = D X* / n, so X* X = n D^-1, that is sum_c conj(chi_c(i)) chi_c(j) =
(n / |C_i|) delta_ij, for any positive class sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm

import numpy as np

from . import dixon, kernels
from .cyclotomic import (
    Cyclotomic,
    CyclotomicRing,
    eval_prime,
    get_ring,
    prime_count,
    symmetric_lift,
)
from .groups import (
    ConjugacyClasses,
    GroupTable,
    SignHomomorphism,
    SubgroupEmbedding,
    coset_representatives,
    enumerate_sign_homs,
    generators_commute,
    kernel_embedding,
    row_keys,
    schreier_generators,
)


class CharacterTheoryError(ArithmeticError):
    """Exact-arithmetic invariant violated (non-integer multiplicity etc.)."""


@dataclass(eq=False)
class ClassFunction:
    """A function on conjugacy classes with exact cyclotomic values."""

    product: np.ndarray
    classes: ConjugacyClasses
    values: tuple[Cyclotomic, ...]

    @property
    def modulus(self) -> int:
        return self.values[0].modulus

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClassFunction):
            return NotImplemented
        return np.array_equal(self.product, other.product) and self.values == other.values


@dataclass(eq=False)
class CharacterTable:
    """All irreducible characters of a group in canonical order.

    Ordering: ascending degree, then descending lexicographic comparison of
    the coefficient vectors of the value row (so the trivial character
    comes first).

    The table is held in index form alone: its values are few, so each is
    kept once, as a row of `distinct` [D, phi] (pairwise distinct rows), and
    `which[c, j]` [k, k] names the row of chi_c at class j, so the
    coefficients of chi_c at class j in the ring of `modulus` are
    distinct[which[c, j]]. Every permutation of Irr is a lookup of integer
    rows of `which` (`row_permutation`). The group holds its table, so the
    table and its irreducibles keep only what they read of the group (name,
    order, read-only product): they make no reference cycle.
    """

    name: str
    order: int
    product: np.ndarray
    classes: ConjugacyClasses
    ring: CyclotomicRing
    degrees: tuple[int, ...]
    distinct: np.ndarray
    which: np.ndarray
    names: tuple[str, ...]
    trivial_index: int
    # Derived arrays: modulus -> weights of the coefficient bound, (modulus,
    # prime index, one_point) -> evaluation weights at every point or at z
    # alone; unit t mod modulus -> pi with sigma_t chi_c = chi_pi(c), or None
    # when sigma_t does not permute Irr.
    _weights: dict = field(default_factory=dict, init=False, repr=False)
    _galois: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def modulus(self) -> int:
        return self.ring.modulus

    @property
    def count(self) -> int:
        return len(self.degrees)

    @cached_property
    def irreducibles(self) -> tuple[ClassFunction, ...]:
        made = [Cyclotomic.make(self.modulus, v) for v in self.distinct]
        return tuple(
            ClassFunction(self.product, self.classes, tuple(made[d] for d in row))
            for row in self.which.tolist()
        )

    @cached_property
    def _distinct_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _sorted_keys(self.distinct)

    @cached_property
    def _which_keys(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _sorted_keys(self.which)

    def value_indices(self, values: np.ndarray) -> np.ndarray:
        """The d with distinct[d] equal to v exactly, for each value v of
        `values` [..., phi], or -1 where v is not a value of the table."""
        return _find_rows(self._distinct_keys, values)

    @cached_property
    def _root_exponents(self) -> np.ndarray:
        """[D]: the e with distinct[d] = zeta**e, or -1 where distinct[d] is
        not a root of unity; one lookup of the m rows of `red`."""
        root = self.value_indices(self.ring.red)
        exps = np.full(len(self.distinct), -1, dtype=np.int64)
        found = np.flatnonzero(root >= 0)
        exps[root[found]] = found
        return exps

    @cached_property
    def _zeta_multiples(self) -> np.ndarray:
        """[D, m]: entry [d, s] is the index of distinct[d] * zeta**s among the
        rows of `distinct`, or -1 where that product is not a value of the table
        (`linear_product_permutations`).

        A root of unity zeta**e needs index arithmetic alone: its multiples are
        zeta**(e + s), looked up once among the rows of `red`. Every other value
        is multiplied by zeta one step at a time, each step one shift of the
        power basis and one reduction of the coefficient carried past
        z**(phi - 1), by red[phi] = z**phi, and each product is looked up.
        """
        ring, m = self.ring, self.modulus
        exps = self._root_exponents
        root = np.full(m, -1, dtype=np.int64)
        root[exps[exps >= 0]] = np.flatnonzero(exps >= 0)
        out = np.empty((len(exps), m), dtype=np.int64)
        roots = exps >= 0
        out[roots] = root[(exps[roots, None] + np.arange(m)) % m]
        others = np.flatnonzero(~roots)
        if others.size:
            cur = self.distinct[others]
            # |x zeta**s|_inf <= |x|_1 peak for every s, and a step adds a carry
            # times red[phi] to a shifted coefficient.
            bound = int(_l1_norms(cur).max()) * ring.peak * (1 + ring.peak)
            kernels._require_int64(bound, "multiple of zeta")
            carry = ring.red[ring.phi % m]
            shifted = np.zeros_like(cur)
            for s in range(m):
                out[others, s] = self.value_indices(cur)
                shifted[:, 1:] = cur[:, :-1]
                cur = shifted + cur[:, -1:] * carry
        out.setflags(write=False)
        return out


@dataclass(eq=False)
class VirtualCharacter:
    """An integer combination of the irreducible characters of one table."""

    table: CharacterTable
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = self.coeffs.tolist() if isinstance(self.coeffs, np.ndarray) else self.coeffs
        if len(coeffs) != self.table.count:
            raise ValueError("coefficient vector length mismatch")
        self.coeffs = tuple(map(int, coeffs))

    def __eq__(self, other) -> bool:
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return self.table is other.table and self.coeffs == other.coeffs

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        self._check_same(other)
        return VirtualCharacter(self.table, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        self._check_same(other)
        return VirtualCharacter(self.table, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "VirtualCharacter":
        return VirtualCharacter(self.table, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return tensor_product(self, other)

    def _check_same(self, other: "VirtualCharacter"):
        if self.table is not other.table:
            raise CharacterTheoryError("virtual characters belong to different tables")

    def degree(self) -> int:
        return sum(c * d for c, d in zip(self.coeffs, self.table.degrees))

    def as_values(self) -> np.ndarray:
        return values_of_coeffs(self.table, np.asarray([self.coeffs], dtype=np.int64))[0]

    def as_class_function(self) -> ClassFunction:
        t = self.table
        values = tuple(Cyclotomic.make(t.modulus, row) for row in self.as_values())
        return ClassFunction(t.product, t.classes, values)

    @staticmethod
    def unit(table: "CharacterTable", index: int) -> "VirtualCharacter":
        coeffs = [0] * table.count
        coeffs[index] = 1
        return VirtualCharacter(table, tuple(coeffs))


@dataclass(eq=False)
class OrbitData:
    """Orbits of an involution on Irr, in order of their least character."""

    orbits: tuple[tuple[int, ...], ...]

    @property
    def isotropy(self) -> tuple[str, ...]:
        """"G" for each fixed orbit, "H" for each swapped one."""
        return tuple("G" if len(o) == 1 else "H" for o in self.orbits)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(o[0] for o in self.orbits)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The swapped orbits (c, pi(c)) with c < pi(c)."""
        return tuple(o for o in self.orbits if len(o) == 2)

    @property
    def fixed(self) -> tuple[int, ...]:
        return tuple(o[0] for o in self.orbits if len(o) == 1)


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------

# Certified data (degrees, distinct, which, modulus), hit by group objects
# with equal tables: equal kernels, repeated CLI items. A group object holds
# its own table (`GroupTable.table`). Counted over one pass of each benchmark
# workload: 167 hits against 86 builds on verify-sweep, 60 against 20 on
# kgroup-wide, 0 against 10 on chartab-many-classes.
_table_data_cache: dict[bytes, tuple] = {}


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------


def character_table(group: GroupTable) -> CharacterTable:
    """The full table of irreducible characters, exact and canonically sorted."""
    if group.table is not None:
        return group.table
    classes = group.classes
    key = group.fingerprint()
    data = _table_data_cache.get(key)
    fresh = data is None
    if fresh:
        degrees_raw, distinct, which_raw, modulus = _table_data(group, classes)
        order = _canonical_order(degrees_raw, distinct, which_raw)
        degrees = tuple(degrees_raw[c] for c in order)
        data = (degrees, distinct, np.ascontiguousarray(which_raw[order]), modulus)
    table = _assemble_table(group, classes, *data)
    if fresh:
        # Only certified data is cached, so a cache hit needs no certificate.
        failures = table_invariant_failures(table)
        if failures:
            raise dixon.CharacterEngineError(
                f"character table of {group.name} failed self-checks: {failures}"
            )
        _table_data_cache[key] = data
    group.table = table
    return table


def _table_data(group: GroupTable, classes: ConjugacyClasses):
    """Unsorted exact character data in index form: (degrees, distinct [D, phi],
    which [k, k], exponent), the values being distinct[which].

    A function of the group alone. The abelian route comes first, so an
    abelian product such as C2 x C2 takes it too; a product that reaches
    the product route has a nonabelian factor; a group with an abelian
    subgroup of index 2 takes the Clifford route; Dixon serves the rest
    (module docstring).
    """
    if classes.count == group.order:
        return _abelian_table_data(group, classes)
    if group.factors:
        return _product_table_data(group, classes)
    lam = _abelian_half(group, classes)
    if lam is not None:
        return _clifford_table_data(group, classes, lam)
    degrees, values, modulus = dixon.character_table_data(group, classes)
    return (degrees, *_index_form(values), modulus)


def _index_form(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, which) with values [..., phi] == distinct[which] and the rows
    of distinct pairwise distinct: one np.unique over the value keys."""
    flat = values.reshape(-1, values.shape[-1])
    _, first, which = np.unique(row_keys(flat), return_index=True, return_inverse=True)
    return np.ascontiguousarray(flat[first]), which.reshape(values.shape[:-1])


def _abelian_table_data(group: GroupTable, classes: ConjugacyClasses):
    """Irr of an abelian group as integer exponents of zeta_m, m the exponent.

    Irr(G) is the dual group, built along a chain 1 = H_0 < ... < H_r = G.
    H_(i+1) = <H_i, g> for an element g outside H_i of largest order (the
    least such index), and d = min{s : g**s in H_i} is read off the powers
    of g, so H_(i+1) is the disjoint union of the cosets H_i g**j, j < d.
    Each character e of H_i (chi = zeta_m**e) extends in d ways,
    e'(h g**j) = e(h) + j w with w = e(g**d)/d + s m/d, s = 0..d-1: then
    d w = e(g**d) mod m, so e' is a homomorphism, and the d extensions
    differ at g. d divides ord(g), as the s with g**s in H_i are the
    multiples of d, and ord(g) divides m. e(g**d) (taken mod m) is divisible
    by d: chi(g**d) has order dividing ord(g**d) = ord(g)/d, so m d / ord(g)
    divides e(g**d), and d divides that as ord(g) divides m. That gives
    |H_i| d = |H_(i+1)| distinct characters, all of Irr(H_(i+1)). With one
    generator (a cyclic group) this is chi_s(g**j) = zeta_n**(s j).

    The index form is the exponent table itself: distinct is `red`, whose
    row e is zeta_m**e, and which holds the exponents.
    """
    n, m = group.order, lcm(*classes.orders)
    element_orders = np.asarray(classes.orders, dtype=np.int64)[classes.class_of]
    pos = np.full(n, -1, dtype=np.int64)  # column of each element of H_i
    members = np.asarray([group.identity], dtype=np.int64)
    pos[members] = 0
    exps = np.zeros((1, 1), dtype=np.int64)  # exps[c, pos[h]] = e_c(h)
    while members.size < n:
        outside = np.flatnonzero(pos < 0)
        g = int(outside[np.argmax(element_orders[outside])])
        steps = group.powers[1 : element_orders[g] + 1, g]
        d = int(np.argmax(pos[steps] >= 0)) + 1
        base = exps[:, pos[steps[d - 1]]]
        if np.any(base % d):
            raise dixon.CharacterEngineError(
                f"exponent of a character of a subgroup of {group.name} at g**{d} "
                f"is not divisible by {d}"
            )
        j = np.arange(d)
        w = (base // d)[None, :] + (m // d) * j[:, None]  # [s, c], s = 0..d-1
        # e + j w < m + d (m/d + m) <= 3 m**2 before the reduction, far below 2**63.
        exps = (exps[None, :, None, :] + j[None, None, :, None] * w[:, :, None, None]) % m
        exps = exps.reshape(members.size * d, members.size * d)
        members = group.product[members[None, :], group.powers[j, g][:, None]].reshape(-1)
        pos[members] = np.arange(members.size)
    return [1] * n, get_ring(m).red, exps[:, pos[np.asarray(classes.representatives)]], m


def _product_table_data(group: GroupTable, classes: ConjugacyClasses):
    """chi_(alpha, beta)(x, y) = alpha(x) beta(y) on A x B (Isaacs 1976, Thm 4.21).

    `_table_data` sends abelian products to `_abelian_table_data`, so at
    least one factor here is nonabelian. The factors' raw data comes from
    `_table_data` uncertified: the product
    table's certificate checks every value built from it. Factors with equal
    tables (as in S4 x S4) share one build of it. Class j of A x B,
    with least element r = x |B| + y, lies over the classes of x in A and y
    in B; the products are taken in the ring of m = lcm of the factor
    moduli, the exponent of A x B, once for each pair of distinct factor
    values.
    """
    a, b = group.factors
    data_a = _table_data(a, a.classes)
    data_b = data_a if np.array_equal(a.product, b.product) else _table_data(b, b.classes)
    degrees_a, distinct_a, which_a, m_a = data_a
    degrees_b, distinct_b, which_b, m_b = data_b
    ring = get_ring(lcm(m_a, m_b))
    reps = np.asarray(classes.representatives, dtype=np.int64)
    wa = which_a[:, a.classes.class_of[reps // b.order]]  # [ka, k]
    wb = which_b[:, b.classes.class_of[reps % b.order]]  # [kb, k]
    products = ring.multiply(
        _embed(distinct_a, m_a, ring)[:, None], _embed(distinct_b, m_b, ring)[None]
    )
    distinct, pair = _index_form(products)  # pair[u, v]: the row of distinct_a[u] distinct_b[v]
    which = pair[wa[:, None], wb[None]].reshape(-1, classes.count)
    degrees = [da * db for da in degrees_a for db in degrees_b]
    return degrees, distinct, which, ring.modulus


def _abelian_half(group: GroupTable, classes: ConjugacyClasses) -> SignHomomorphism | None:
    """The first sign homomorphism (`enumerate_sign_homs` order) with an
    abelian kernel, or None when G has no abelian subgroup of index 2.

    Such a kernel H holds at least |H|/2 = |G|/4 classes of G, each an orbit
    of conjugation by G, which acts on H through G/H of order 2; so the
    search is skipped when 4 k < |G|. H is abelian when its generators commute.
    """
    if 4 * classes.count < group.order:
        return None
    for lam in enumerate_sign_homs(group):
        if generators_commute(group.product, schreier_generators(group, lam)):
            return lam
    return None


def _clifford_table_data(group: GroupTable, classes: ConjugacyClasses, lam: SignHomomorphism):
    """Irr(G) from the dual group of the abelian kernel H of lambda (Isaacs
    1976, ch. 6; module docstring).

    Each psi in Irr(H) is an exponent row e (psi = zeta_m**e, m = exp(G)),
    and b, the least element with lambda(b) = -1, twists it to psi^b(h) =
    psi(b^-1 h b), looked up among the rows. A fixed psi extends in two ways,
    chi(b h) = +-zeta_m**f psi(h) with 2 f = e(b**2) (mod m); a swapped pair
    induces psi + psi^b on H and 0 off H. So each value is a sum of at most
    two roots zeta_m**a + zeta_m**a', coded as the integer a (m + 1) + a'
    with a <= a' and m standing for no root; the distinct codes become
    power-basis rows, and one `_index_form` over them merges the codes of
    equal values (zeta_m**a + zeta_m**(a + m/2) = 0, for one).
    """
    emb = kernel_embedding(group, lam)
    sub = emb.subgroup
    _, _, sub_exps, sub_modulus = _abelian_table_data(sub, sub.classes)
    m = lcm(*classes.orders)
    e = sub_exps[:, sub.classes.class_of] * (m // sub_modulus)  # e[c, x], x in H
    b = int(lam.negative_indices()[0])
    twist = _find_rows(_sorted_keys(e), e[:, emb.position[group.conjugate(b, emb.inclusion)]])
    rows = np.arange(len(e))
    if np.any(twist < 0) or not np.array_equal(twist[twist], rows):
        raise dixon.CharacterEngineError(
            f"conjugation by {b} does not permute Irr(ker({lam.label})) of {group.name}"
        )
    fixed, pairs = np.flatnonzero(twist == rows), np.flatnonzero(twist > rows)
    # e(b**2) is even: psi(b**2) has order dividing ord(b)/2, and ord(b) divides m.
    square = e[fixed, emb.position[group.powers[2, b]]]
    if np.any(square % 2):
        raise dixon.CharacterEngineError(
            f"exponent of a twist-fixed character of ker({lam.label}) at b**2 "
            f"is odd in {group.name}"
        )
    # Each class representative is h or b h for the subgroup element h.
    reps = np.asarray(classes.representatives, dtype=np.int64)
    inside = emb.position[reps]
    off = inside < 0
    h = np.where(off, emb.position[group.product[group.inverse[b], reps]], inside)
    plus = e[fixed][:, h] + off * (square // 2)[:, None]  # [F, k], the sign +1
    sign = np.asarray([0, m // 2])[:, None, None]
    extended = ((plus + off * sign) % m).reshape(-1, len(reps)) * (m + 1) + m  # [2 F, k]
    psi, psi_b = e[pairs][:, h], e[twist[pairs]][:, h]
    pair_code = np.minimum(psi, psi_b) * (m + 1) + np.maximum(psi, psi_b)
    induced = np.where(off, m * (m + 1) + m, pair_code)  # [P, k]
    codes, code_of = np.unique(np.concatenate([extended, induced]), return_inverse=True)
    red = get_ring(m).red
    roots = np.concatenate([red, np.zeros_like(red[:1])])  # row m: no root
    distinct, merge = _index_form(roots[codes // (m + 1)] + roots[codes % (m + 1)])
    degrees = [1] * (2 * fixed.size) + [2] * pairs.size
    return degrees, distinct, merge[code_of].reshape(len(degrees), len(reps)), m


def _embed(values: np.ndarray, modulus: int, ring: CyclotomicRing) -> np.ndarray:
    """Power-basis values [..., phi] of the ring of `modulus`, in `ring`."""
    if modulus == ring.modulus:
        return values
    return values @ get_ring(modulus).embed_matrix(ring)


def _canonical_order(degrees: list[int], distinct: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Rows by ascending degree, then by descending values read row-major.

    A value row compares as the row of ranks of its values (`_value_ranks`).
    One lexsort, whose last key is primary: sorting ascending by (-degree,
    ranks, -row) and reversing gives the order, with ties kept in row order.
    """
    ranks = _value_ranks(distinct)[which]
    keys = (-np.arange(len(degrees)), *ranks.T[::-1], -np.asarray(degrees, dtype=np.int64))
    return np.lexsort(keys)[::-1]


def _value_ranks(distinct: np.ndarray) -> np.ndarray:
    """The dense rank of each row of `distinct` in lexicographic order of its
    coefficients; as the rows are pairwise distinct, two values compare as
    their ranks do."""
    ranks = np.empty(len(distinct), dtype=np.int64)
    ranks[np.lexsort(distinct.T[::-1])] = np.arange(len(distinct))
    return ranks


def _assemble_table(group, classes, degrees, distinct, which, modulus) -> CharacterTable:
    """The table with values distinct[which], the rows of `distinct` pairwise
    distinct; of `group`, or of a table of it, it reads name, order, product."""
    ring = get_ring(modulus)
    for array in (distinct, which):
        array.setflags(write=False)
    is_one = (distinct[:, 0] == 1) & ~distinct[:, 1:].any(axis=1)
    hits = np.flatnonzero(is_one[which].all(axis=1))
    return CharacterTable(
        name=group.name,
        order=group.order,
        product=group.product,
        classes=classes,
        ring=ring,
        degrees=tuple(int(d) for d in degrees),
        distinct=distinct,
        which=which,
        names=tuple(f"chi{c}" for c in range(len(degrees))),
        trivial_index=int(hits[0]) if hits.size else -1,
    )


def table_invariant_failures(table: CharacterTable) -> list[str]:
    """Exact structural checks; returns one message per violated invariant.

    Row orthogonality is checked mod every prime the coefficient bound asks
    for. Once the table is square, it implies column orthogonality (Isaacs
    1976, Thm 2.18; module docstring), so the row Gram g certifies the table.
    Where phi > 2 and sigma_-1 and each generator t of (Z/m)^* permute Irr,
    sigma_t chi_a = chi_pi_t(a), only the point z is computed:
    iota_t(g_ab) = iota_1(g_pi_t(a)pi_t(b)) and pi_t is a bijection, so g
    equals n I at every point exactly when it does at z. Otherwise, and
    whenever z finds a failure, every point is computed, so the messages do
    not depend on the route.
    """
    out: list[str] = []
    k = table.classes.count
    n = table.order
    if table.count != k:
        out.append(f"irreducible count {table.count} != class count {k}")
        return out
    if table.trivial_index < 0:
        out.append("trivial character missing")
    if sum(d * d for d in table.degrees) != n:
        out.append(f"sum of degree squares {sum(d*d for d in table.degrees)} != order {n}")
    degrees = np.asarray(table.degrees, dtype=np.int64)
    col0 = table.distinct[table.which[:, 0]]
    for c in np.flatnonzero((col0[:, 0] != degrees) | col0[:, 1:].any(axis=1)):
        out.append(f"value at identity class disagrees with degree for chi{c}")
    # Values compare as their ranks do, so rows compare as their rank rows.
    key_mat = np.concatenate(
        [degrees[:, None], -_value_ranks(table.distinct)[table.which]], axis=1
    )
    diff = key_mat[1:] != key_mat[:-1]
    if k > 1:
        any_diff = np.any(diff, axis=1)
        if not np.all(any_diff):
            out.append("duplicate character rows")
        first = np.argmax(diff, axis=1)
        lead = key_mat[np.arange(1, k), first] - key_mat[np.arange(k - 1), first]
        if np.any(lead[any_diff] < 0):
            out.append("characters are not in canonical order")
    # Row orthogonality: sum_j |C_j| chi_a(j) conj(chi_b(j)) = n delta_ab.
    primes = _certificate_primes(table)
    one_point = table.ring.phi > 2 and _galois_closed(table)
    row_bad = _orthogonality_failures(table, primes, one_point)
    if one_point and row_bad.any():
        # Every point names the failing pairs, so they do not depend on the route.
        row_bad = _orthogonality_failures(table, primes, one_point=False)
    if row_bad.any():
        pairs = ", ".join(f"({a},{b})" for a, b in np.argwhere(row_bad)[:5])
        out.append(f"row orthogonality fails at character pairs {pairs}")
    return out


def _certificate_primes(table: CharacterTable) -> int:
    """How many evaluation primes make the lift of the row Gram exact."""
    chi_l1 = _l1_norms(table.distinct)[table.which]  # |chi_c(j)|_1, [c, j]
    bound = _analysis_bound(table, table.ring, chi_l1.max(axis=0).tolist()) + table.order
    return prime_count(table.ring.modulus, bound)


def _orthogonality_failures(table: CharacterTable, primes: int, one_point: bool):
    """The character pairs [k, k] whose row Gram entry differs from n delta at
    some point of one of the first `primes` primes, or at z alone.

    At z alone, for a Galois-closed table, there is a failure exactly when
    there is one at some point (module docstring), though it may name fewer
    pairs.
    """
    ring, k, n = table.ring, table.count, table.order
    bad = np.zeros((k, k), dtype=bool)
    for i in range(primes):
        p = eval_prime(ring.modulus, i)[0]
        images = ring.evaluate(table.distinct, i, one_point)[table.which]
        weights = _analysis_weights(table, ring, i, one_point)
        expected = (n % p) * np.eye(k, dtype=np.int64)[..., None]
        bad |= np.any(kernels.weighted_analysis(images, weights, p) != expected, axis=-1)
    return bad


def _galois_closed(table: CharacterTable) -> bool:
    """Whether sigma_-1 and each generator of (Z/m)^* permute Irr."""
    units = (-1, *table.ring.unit_generators)
    return all(_galois_permutation(table, t) is not None for t in units)


def _galois_permutation(table: CharacterTable, t: int) -> np.ndarray | None:
    """pi with sigma_t chi_c = chi_pi(c) exactly, t taken mod the table's
    modulus, or None when sigma_t does not permute the rows."""
    t %= table.modulus
    if t not in table._galois:
        # sigma_t acts on each value alone: sigma_t distinct[d] = distinct[tau[d]],
        # so sigma_t chi_c has the index row tau[which[c]].
        tau = table.value_indices(table.ring.galois(table.distinct, t))
        try:
            pi = row_permutation(table, tau[table.which])
        except CharacterTheoryError:
            pi = None
        table._galois[t] = pi
    return table._galois[t]


# ---------------------------------------------------------------------------
# bulk engine
# ---------------------------------------------------------------------------


def values_of_coeffs(table: CharacterTable, coeffs: np.ndarray) -> np.ndarray:
    """Class-function value arrays [B, k, phi] of virtual characters [B, k],
    gathered from the rows of Irr with a nonzero coefficient only, in int64
    under a checked bound: sum_c |coeffs[b, c]| times the largest value entry."""
    coeffs = np.asarray(coeffs, dtype=np.int64)
    rows = np.flatnonzero(coeffs.any(axis=0))
    used = coeffs[:, rows]
    l1 = max((sum(map(abs, row)) for row in used.tolist()), default=0)
    kernels._require_int64(l1 * kernels._magnitude(table.distinct), "virtual character values")
    return np.einsum("bc,cjp->bjp", used, table.distinct[table.which[rows]])


def _embedded_values(table: CharacterTable, ring: CyclotomicRing) -> np.ndarray:
    """The table's values [k, k, phi] in `ring`: its D distinct values
    embedded once and gathered by `which`."""
    return _embed(table.distinct, table.modulus, ring)[table.which]


def _l1_norms(varr: np.ndarray) -> np.ndarray:
    """|v|_1 of each power-basis value v in varr [..., phi], in int64 under a checked bound."""
    varr = np.asarray(varr, dtype=np.int64)
    kernels._require_int64(varr.shape[-1] * kernels._magnitude(varr), "l1 norm")
    return np.abs(varr).sum(axis=-1)


def _analysis_bound(table: CharacterTable, ring: CyclotomicRing, l1: list[int]) -> int:
    """Bound on every coefficient of sum_j |C_j| v(j) conj(chi_i(j)) when |v(j)|_1 <= l1[j]."""
    weight = table._weights.get(ring.modulus)
    if weight is None:
        # |C_j| * max_i |conj chi_i(j)|_1, with the l1 norms taken in `ring`.
        distinct = _embed(table.distinct, table.modulus, ring)
        chi_l1 = _l1_norms(distinct)[table.which].max(axis=0).tolist()
        weight = [size * ring.l1 * c for size, c in zip(table.classes.class_sizes, chi_l1)]
        table._weights[ring.modulus] = weight
    return ring.peak * sum(a * b for a, b in zip(l1, weight))


def _analysis_weights(table, ring, i: int, one_point: bool) -> np.ndarray:
    """Evaluation weights conj(chi_c(j)) |C_j| mod the i-th prime of `ring`:
    [k, k, e] at every point, or [k, k, 1] at z alone, where the table must
    be one that sigma_-1 permutes: conj(chi_c) at z is chi_pi(c) at z."""
    key = (ring.modulus, i, one_point)
    w = table._weights.get(key)
    if w is None:
        p, _, neg = eval_prime(ring.modulus, i)
        distinct = _embed(table.distinct, table.modulus, ring)
        images = ring.evaluate(distinct, i, one_point)[table.which]
        sizes = np.asarray(table.classes.class_sizes, dtype=np.int64) % p
        if one_point:
            w = images[_galois_permutation(table, -1)] * sizes[:, None] % p
        else:
            point_major = np.moveaxis(images, -1, 0)[neg]  # [e, c, j], conjugated
            w = np.moveaxis(point_major * sizes % p, 0, -1)
        w.setflags(write=False)
        table._weights[key] = w
    return w


def decompose_values(
    table: CharacterTable,
    varr: np.ndarray,
    ring: CyclotomicRing | None = None,
    factor: np.ndarray | None = None,
) -> np.ndarray:
    """Exact irreducible coordinates of class-function values [B, k, phi].

    With `factor` [F, k, phi], decomposes every pointwise product
    varr[b] * factor[f] instead and returns [B, F, ki]; the products are
    formed only in the evaluation domain.

    Raises CharacterTheoryError when any multiplicity fails to be a rational
    integer: that always signals an internal bug or corrupted input, never a
    legitimate outcome.
    """
    ring = table.ring if ring is None else ring
    varr = np.asarray(varr, dtype=np.int64)
    if factor is not None:
        factor = np.asarray(factor, dtype=np.int64)
    irrational, residues = False, []
    for i in range(_analysis_primes(table, ring, varr, factor)):
        x = _analysis_sums(table, ring, varr, factor, i)
        # A rational integer has the same image at every evaluation point.
        irrational |= np.any(x != x[..., :1], axis=-1)
        residues.append(x[..., 0])
    if np.any(irrational):
        where = np.argwhere(irrational)[0]
        raise CharacterTheoryError(
            f"non-rational multiplicity on {table.name}: "
            f"function {', '.join(str(w) for w in where[:-1])}, irreducible chi{where[-1]}"
        )
    return _exact_multiplicities(table, ring, residues)


def _analysis_primes(table, ring, varr, factor) -> int:
    """How many evaluation primes make the lift of the analysis sums exact."""
    l1 = _l1_norms(varr).max(axis=0, initial=0).tolist()  # per class j, max_b |varr[b, j]|_1
    if factor is not None:
        factor_l1 = _l1_norms(factor).max(axis=0, initial=0).tolist()
        l1 = [a * b * ring.l1 for a, b in zip(l1, factor_l1)]
    return prime_count(ring.modulus, _analysis_bound(table, ring, l1))


def _analysis_sums(table, ring, varr, factor, i) -> np.ndarray:
    """x[b, (f,) c, e] = sum_j |C_j| varr[b, j] (factor[f, j]) conj(chi_c(j))
    mod the i-th prime of `ring`, at every point e."""
    p = eval_prime(ring.modulus, i)[0]
    images = ring.evaluate(varr, i)
    if factor is not None:
        images = images[:, None] * ring.evaluate(factor, i)[None] % p
    weights = _analysis_weights(table, ring, i, one_point=False)
    x = kernels.weighted_analysis(images.reshape((-1,) + images.shape[-2:]), weights, p)
    return x.reshape(images.shape[:-2] + x.shape[-2:])


def _exact_multiplicities(table, ring, residues) -> np.ndarray:
    """|G|^-1 times the CRT lift of the rational analysis sums, checked integral."""
    order = table.order
    c0 = symmetric_lift(residues, ring.modulus)
    if np.any(c0 % order):
        where = np.argwhere(c0 % order)[0]
        raise CharacterTheoryError(
            f"non-integer multiplicity {c0[tuple(where)]}/{order} on {table.name}: "
            f"function {', '.join(str(w) for w in where[:-1])}, irreducible chi{where[-1]}"
        )
    return (c0 // order).astype(np.int64)


# ---------------------------------------------------------------------------
# scalar operations
# ---------------------------------------------------------------------------


def inner_product(f: ClassFunction, g: ClassFunction) -> Cyclotomic:
    """<f, g> = |G|^-1 sum |C_j| f(j) conj(g(j)), exact."""
    if not np.array_equal(f.product, g.product):
        raise CharacterTheoryError("inner product of class functions on different groups")
    m = max(f.modulus, g.modulus)
    if f.modulus % g.modulus and g.modulus % f.modulus:
        raise CharacterTheoryError("incompatible cyclotomic moduli")
    total = Cyclotomic.integer(m, 0)
    for size, a, b in zip(f.classes.class_sizes, f.values, g.values):
        total = total + a.embed(m) * b.embed(m).conjugate() * size
    return total.divide_exact(len(f.product))


# ---------------------------------------------------------------------------
# restriction / induction / twist
# ---------------------------------------------------------------------------


def restrict_values(emb: SubgroupEmbedding, gvals: np.ndarray) -> np.ndarray:
    """Gather ambient class-function values [B, k_G, phi] onto H classes."""
    return np.ascontiguousarray(gvals[:, emb.class_map, :])


def restrict(phi: VirtualCharacter, emb: SubgroupEmbedding) -> VirtualCharacter:
    """Restriction res_H: decompose an ambient virtual character over Irr(H)."""
    table_g = character_table(emb.ambient)
    table_h = character_table(emb.subgroup)
    if phi.table is not table_g:
        raise CharacterTheoryError("character does not live on the ambient group")
    gvals = values_of_coeffs(table_g, np.asarray([phi.coeffs]))
    hvals = restrict_values(emb, gvals)
    coeffs = decompose_values(table_h, hvals, table_g.ring)[0]
    return VirtualCharacter(table_h, coeffs)


def induced_values(emb: SubgroupEmbedding, hvals: np.ndarray) -> np.ndarray:
    """Value-level induction of H class functions [B, k_H, phi] to G classes,
    in int64 under a checked bound: the largest row sum of the induction
    weights times the largest value entry."""
    hvals = np.asarray(hvals, dtype=np.int64)
    weights = emb.induction_weights
    reach = int(weights.sum(axis=1).max())
    kernels._require_int64(reach * kernels._magnitude(hvals), "induced values")
    numer = np.einsum("ai,bip->bap", weights, hvals)
    h_order = emb.subgroup.order
    if np.any(numer % h_order):
        raise CharacterTheoryError("induced values are not algebraic integers")
    return numer // h_order


def induce(chi: VirtualCharacter, emb: SubgroupEmbedding) -> VirtualCharacter:
    """Induction ind_H^G by the finite-index transfer formula, decomposed exactly."""
    table_g = character_table(emb.ambient)
    table_h = character_table(emb.subgroup)
    if chi.table is not table_h:
        raise CharacterTheoryError("character does not live on the subgroup")
    hvals = _embed(values_of_coeffs(table_h, [chi.coeffs]), table_h.modulus, table_g.ring)
    gvals = induced_values(emb, hvals)
    coeffs = decompose_values(table_g, gvals, table_g.ring)[0]
    return VirtualCharacter(table_g, coeffs)


def twist_class_map(emb: SubgroupEmbedding, g: int) -> np.ndarray:
    """Permutation of H classes induced by h -> g^-1 h g."""
    ambient = emb.ambient
    if not 0 <= g < ambient.order:
        raise CharacterTheoryError(f"element {g} is not in the ambient group")
    cls_h = emb.subgroup.classes
    reps = np.asarray(cls_h.representatives, dtype=np.int64)
    hidx = emb.position[ambient.conjugate(g, emb.inclusion[reps])]
    if np.any(hidx < 0):
        raise CharacterTheoryError("subgroup is not normal under this element")
    return cls_h.class_of[hidx]


def row_permutation(table: CharacterTable, rows: np.ndarray) -> np.ndarray:
    """The permutation pi of Irr with rows[c] = which[pi(c)], for integer rows
    [..., k, k] naming values of `table.distinct`, found by one sorted lookup:
    one permutation [..., k] for each leading index.

    Raises when a row is not a row of `which` (an entry -1 names no value) or
    two rows of one permutation coincide.
    """
    pi = _find_rows(table._which_keys, rows)
    if pi.shape[-1:] != (table.count,) or np.any(np.sort(pi, axis=-1) != np.arange(table.count)):
        raise CharacterTheoryError(f"rows are not a permutation of Irr({table.name})")
    pi.setflags(write=False)
    return pi


def _sorted_keys(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The int64 rows [N, w], their row keys (a view) and the order that sorts the keys."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    keys = row_keys(rows)
    return rows, keys, np.argsort(keys, kind="stable")


def _find_rows(sorted_keys: tuple[np.ndarray, ...], rows: np.ndarray) -> np.ndarray:
    """For each row of `rows` [..., w], the least index of an equal row among
    the rows keyed by `sorted_keys` (`_sorted_keys`), or -1 when none is.

    The sorted keys give one candidate per row, and the candidate is compared
    with the row entry by entry, as integers."""
    known, keys, order = sorted_keys
    at = order[np.minimum(np.searchsorted(keys, row_keys(rows), sorter=order), len(keys) - 1)]
    return np.where((known[at] == rows).all(axis=-1), at, -1)


def linear_product_permutations(table: CharacterTable, linear) -> np.ndarray:
    """[L, k]: row l is the permutation pi of Irr with chi_c chi_linear[l] =
    chi_pi(c), for L characters chi_linear[l] of degree 1.

    chi_linear[l](j) = zeta**s_j at every class j, so chi_c chi_linear[l] has
    the index row _zeta_multiples[which[c, j], s_j]. Each of the L k product
    rows is looked up in full (`row_permutation`), so a product that is not
    an irreducible of the table raises.
    """
    linear = np.asarray(linear, dtype=np.intp).reshape(-1)
    s = table._root_exponents[table.which[linear]]  # [L, k]
    bad = (np.asarray(table.degrees)[linear] != 1) | np.any(s < 0, axis=1)
    if bad.any():
        raise CharacterTheoryError(
            f"chi{linear[np.argmax(bad)]} of {table.name} is not a linear character"
        )
    return row_permutation(table, table._zeta_multiples[table.which, s[:, None, :]])


def involution_orbits(perm: np.ndarray) -> OrbitData:
    """Orbits (c,) or (c, perm[c]) for c <= perm[c] of an involution perm on Irr."""
    perm = np.asarray(perm, dtype=np.int64)
    if not np.array_equal(perm[perm], np.arange(perm.size)):
        raise CharacterTheoryError("permutation is not an involution")
    orbits = tuple((c,) if c == t else (c, t) for c, t in enumerate(perm.tolist()) if c <= t)
    return OrbitData(orbits)


def twist_permutation(emb: SubgroupEmbedding, g: int) -> np.ndarray:
    """Permutation sigma on Irr(H) with (g-twist of chi_c) = chi_sigma(c)."""
    table_h = character_table(emb.subgroup)
    return row_permutation(table_h, table_h.which[:, twist_class_map(emb, g)])


def conjugate_twist(chi: VirtualCharacter, emb: SubgroupEmbedding, g: int) -> VirtualCharacter:
    """The twisted character h -> chi(g^-1 h g) as a virtual character on H."""
    table_h = character_table(emb.subgroup)
    if chi.table is not table_h:
        raise CharacterTheoryError("character does not live on the subgroup")
    out = np.zeros(table_h.count, dtype=np.int64)
    out[twist_permutation(emb, g)] = chi.coeffs
    return VirtualCharacter(table_h, out)


def tensor_product(a: VirtualCharacter, b: VirtualCharacter) -> VirtualCharacter:
    """Product in the representation ring, decomposed exactly over Irr."""
    a._check_same(b)
    table = a.table
    va = values_of_coeffs(table, np.asarray([a.coeffs]))
    vb = values_of_coeffs(table, np.asarray([b.coeffs]))
    coeffs = decompose_values(table, va, factor=vb)[0, 0]
    return VirtualCharacter(table, coeffs)


# ---------------------------------------------------------------------------
# lambda context and orbits
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class LambdaContext:
    """Shared data for one (group, sign homomorphism) pair. Of lambda, which
    holds it, the context keeps the label and values: so no reference cycle.
    `restriction` R is the one restriction/induction matrix: induction is R^T.
    R is computed on first read."""

    group: GroupTable
    label: str
    values: np.ndarray
    table_g: CharacterTable
    emb: SubgroupEmbedding
    table_h: CharacterTable
    cosets: list[int]
    b: int
    twist: np.ndarray
    orbits: OrbitData

    @cached_property
    def restriction(self) -> np.ndarray:
        """R[a, i] = multiplicity of chi_i in res(phi_a), looked up on first
        read (`_clifford_restriction`)."""
        return _clifford_restriction(self)


def _clifford_restriction(ctx: LambdaContext) -> np.ndarray:
    """R[a, i] = multiplicity of psi_i in res(phi_a), by an exact lookup.

    H = ker lambda has index 2, so res(phi_a) is a twist-fixed psi_c or the
    orbit sum psi_c + psi_sigma(c) of a swapped pair, and each fixed psi_c
    is the restriction of two irreducibles of G, each pair's sum of one
    (Isaacs 1976, ch. 6). These F + P candidates are put in index form: at
    each class of H a candidate is the pair (d, d') of value indices of H,
    d' = D_H standing for no second term; the distinct pairs alone are
    summed, embedded in the ring of G and looked up among the values of G,
    so each candidate becomes an integer row of value indices of G. Each
    restricted row which_G[a, class_map] is looked up among those rows. A
    row found nowhere, or a candidate found other than two (fixed) or one
    (pair) times, raises.
    """
    table_g, table_h = ctx.table_g, ctx.table_h
    fixed = np.asarray(ctx.orbits.fixed, dtype=np.intp)
    pairs = np.asarray(ctx.orbits.pairs, dtype=np.intp).reshape(-1, 2)
    first = np.concatenate([fixed, pairs[:, 0]])
    none = len(table_h.distinct)
    lone = np.full((fixed.size, table_h.count), none, dtype=np.int64)
    a, b = table_h.which[first], np.concatenate([lone, table_h.which[pairs[:, 1]]])
    codes, code_of = np.unique(np.minimum(a, b) * (none + 1) + np.maximum(a, b), return_inverse=True)
    embedded = _embed(table_h.distinct, table_h.modulus, table_g.ring)
    embedded = np.concatenate([embedded, np.zeros_like(embedded[:1])])  # row D_H: no term
    sums = embedded[codes // (none + 1)] + embedded[codes % (none + 1)]
    candidates = table_g.value_indices(sums)[code_of.reshape(-1)].reshape(a.shape)
    hit = _find_rows(_sorted_keys(candidates), table_g.which[:, ctx.emb.class_map])
    if np.any(hit < 0):
        raise CharacterTheoryError(
            f"restriction of chi{int(np.argmax(hit < 0))} of {table_g.name} to ker({ctx.label}) "
            f"is neither a twist-fixed character nor an orbit sum"
        )
    expected = np.repeat([2, 1], [fixed.size, len(pairs)])
    if not np.array_equal(np.bincount(hit, minlength=first.size), expected):
        raise CharacterTheoryError(
            f"restrictions of Irr({table_g.name}) to ker({ctx.label}) do not meet each "
            f"fixed character twice and each orbit sum once"
        )
    r = np.zeros((table_g.count, table_h.count), dtype=np.int64)
    rows = np.arange(table_g.count)
    r[rows, first[hit]] = 1
    paired = hit >= fixed.size
    r[rows[paired], pairs[hit[paired] - fixed.size, 1]] = 1
    r.setflags(write=False)
    return r


def lambda_index(table_g: CharacterTable, lam: SignHomomorphism) -> int:
    """Index of the degree-1 character whose values are the signs of lambda."""
    signs = np.zeros((2, table_g.ring.phi), dtype=np.int64)
    signs[:, 0] = (1, -1)
    plus, minus = table_g.value_indices(signs)
    row = np.where(lam.values[list(table_g.classes.representatives)] < 0, minus, plus)
    idx = int(_find_rows(table_g._which_keys, row))
    if idx < 0:
        raise CharacterTheoryError("sign character is not in the table")
    return idx


def lambda_context(group: GroupTable, lam: SignHomomorphism) -> LambdaContext:
    """The context of lambda, with the twist by the first coset element.

    The twist on Irr(ker lambda) is the same for every coset element
    (`verification.check_b_independence`), so one context serves lambda.
    """
    ctx = lam.context
    if ctx is None or ctx.group is not group:
        table_g = character_table(group)
        emb = kernel_embedding(group, lam)
        table_h = character_table(emb.subgroup)
        cosets = coset_representatives(group, lam)
        sigma = twist_permutation(emb, cosets[0])
        ctx = LambdaContext(
            group=group,
            label=lam.label,
            values=lam.values,
            table_g=table_g,
            emb=emb,
            table_h=table_h,
            cosets=cosets,
            b=cosets[0],
            twist=sigma,
            orbits=involution_orbits(sigma),
        )
        lam.context = ctx
    return ctx


def g_orbits_on_irr(group: GroupTable, lam: SignHomomorphism) -> OrbitData:
    """Orbits of the canonical-coset twist on Irr(ker lambda)."""
    return lambda_context(group, lam).orbits
