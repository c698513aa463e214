"""Finite groups as explicit multiplication tables, with sign homomorphisms.

Element 0 is always the identity. Every constructor is deterministic:
building the same spec twice yields identical tables, labels, and class
orderings, which downstream code relies on for reproducible bases.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import permutations
from math import factorial

import numpy as np

from .cyclotomic import factorization

DEFAULT_ORDER_CAP = 1024
ORDER_CAP_ENV = "KSPHERE_MAX_ORDER"


class GroupSpecError(ValueError):
    """Invalid group specification."""


class OrderLimitError(GroupSpecError):
    """Requested group exceeds the configured order cap."""


class LambdaSpecError(ValueError):
    """Invalid sign-homomorphism specification."""


def order_cap() -> int:
    raw = os.environ.get(ORDER_CAP_ENV, "").strip()
    if raw:
        try:
            cap = int(raw)
        except ValueError as exc:
            raise GroupSpecError(f"{ORDER_CAP_ENV} must be an integer, got {raw!r}") from exc
        if cap < 1:
            raise GroupSpecError(f"{ORDER_CAP_ENV} must be positive")
        return cap
    return DEFAULT_ORDER_CAP


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupSpec:
    """Recipe for one of the built-in group families."""

    kind: str
    n: int = 0
    factors: tuple["GroupSpec", ...] = ()
    generators: tuple[tuple[int, ...], ...] = ()

    @staticmethod
    def cyclic(n: int) -> "GroupSpec":
        return GroupSpec("cyclic", n=n)

    @staticmethod
    def dihedral(n: int) -> "GroupSpec":
        return GroupSpec("dihedral", n=n)

    @staticmethod
    def quaternion(n: int = 8) -> "GroupSpec":
        return GroupSpec("quaternion", n=n)

    @staticmethod
    def symmetric(n: int) -> "GroupSpec":
        return GroupSpec("symmetric", n=n)

    @staticmethod
    def alternating(n: int) -> "GroupSpec":
        return GroupSpec("alternating", n=n)

    @staticmethod
    def direct_product(a: "GroupSpec", b: "GroupSpec") -> "GroupSpec":
        return GroupSpec("direct_product", factors=(a, b))

    @staticmethod
    def permutation_generators(gens) -> "GroupSpec":
        return GroupSpec("permutation_generators", generators=tuple(tuple(g) for g in gens))

    @property
    def name(self) -> str:
        if self.kind == "cyclic":
            return f"C{self.n}"
        if self.kind == "dihedral":
            return f"D{self.n}"
        if self.kind == "quaternion":
            return f"Q{self.n}"
        if self.kind == "symmetric":
            return f"S{self.n}"
        if self.kind == "alternating":
            return f"A{self.n}"
        if self.kind == "direct_product":
            return "x".join(f.name for f in self.factors)
        if self.kind == "permutation_generators":
            return "perm(" + ";".join(_cycle_notation(g) for g in self.generators) + ")"
        raise GroupSpecError(f"unknown group kind {self.kind!r}")


@dataclass(frozen=True)
class LambdaSpec:
    """How to realize the surjection onto {+1, -1} for a given group."""

    convention: str | None = None
    generator_signs: tuple[int, ...] | None = None

    @property
    def label(self) -> str:
        if self.convention is not None:
            return self.convention
        signs = "".join("+" if s > 0 else "-" for s in self.generator_signs or ())
        return f"gensigns:{signs}"


# ---------------------------------------------------------------------------
# core tables
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GroupTable:
    """A finite group as a dense multiplication table over indices 0..n-1."""

    order: int
    product: np.ndarray
    inverse: np.ndarray
    element_labels: tuple[str, ...]
    identity: int = 0
    generators: tuple[int, ...] = ()
    name: str = "G"

    def __post_init__(self):
        self.product = np.ascontiguousarray(self.product, dtype=np.int64)
        self.inverse = np.ascontiguousarray(self.inverse, dtype=np.int64)
        self.product.setflags(write=False)
        self.inverse.setflags(write=False)

    def fingerprint(self) -> bytes:
        return self.product.tobytes()

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.product, self.product.T))

    def conjugate(self, x, g) -> np.ndarray:
        """x^-1 g x, elementwise over broadcast index arrays."""
        return self.product[self.product[self.inverse[x], g], x]

    @cached_property
    def powers(self) -> np.ndarray:
        """powers[s, x] = x**s for 0 <= s <= exponent, one gather per power."""
        x = np.arange(self.order, dtype=np.int64)
        rows = [np.full_like(x, self.identity), x]
        while np.any(rows[-1] != self.identity):
            rows.append(self.product[rows[-1], x])
        out = np.stack(rows)
        out.setflags(write=False)
        return out

    @cached_property
    def classes(self) -> "ConjugacyClasses":
        """The conjugacy classes, computed on first read."""
        return conjugacy_classes(self)


@dataclass(eq=False)
class ConjugacyClasses:
    """Partition of a group into conjugacy classes, canonically ordered."""

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    representatives: tuple[int, ...]
    class_sizes: tuple[int, ...]
    orders: tuple[int, ...]  # element order of each representative

    def __post_init__(self):
        self.class_of = np.ascontiguousarray(self.class_of, dtype=np.int64)
        self.class_of.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.classes)


@dataclass(eq=False)
class SignHomomorphism:
    """A surjective multiplicative map onto {+1, -1}, stored per element."""

    values: np.ndarray
    label: str

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.int8)
        self.values.setflags(write=False)

    def kernel_indices(self) -> np.ndarray:
        return np.nonzero(self.values > 0)[0]

    def negative_indices(self) -> np.ndarray:
        return np.nonzero(self.values < 0)[0]


@dataclass(eq=False)
class SubgroupEmbedding:
    """An index-2 subgroup with its inclusion into the ambient group.

    `inclusion[e]` is the ambient index of subgroup element e. The transfer
    data derived from it is built on first use.
    """

    subgroup: GroupTable
    inclusion: np.ndarray
    ambient: GroupTable

    def __post_init__(self):
        self.inclusion = np.ascontiguousarray(self.inclusion, dtype=np.int64)
        self.inclusion.setflags(write=False)

    @cached_property
    def position(self) -> np.ndarray:
        """Subgroup index of each ambient element, -1 outside the subgroup."""
        pos = np.full(self.ambient.order, -1, dtype=np.int64)
        pos[self.inclusion] = np.arange(self.subgroup.order)
        pos.setflags(write=False)
        return pos

    @cached_property
    def class_map(self) -> np.ndarray:
        """Ambient class of each subgroup class."""
        reps = np.asarray(self.subgroup.classes.representatives, dtype=np.int64)
        out = self.ambient.classes.class_of[self.inclusion[reps]]
        out.setflags(write=False)
        return out

    @cached_property
    def induction_weights(self) -> np.ndarray:
        """W[a, i] = #{x in G : x^-1 g_a x in subgroup class i}, g_a the a-th class rep.

        Induction of a subgroup class function f is then
        ind(f)(g_a) = |H|^-1 sum_i W[a, i] f(i) (Isaacs, Character Theory of
        Finite Groups, 1976, Definition 5.1). The subgroup is normal (index 2),
        so subgroup class i lies inside the one class a = class_map[i]; as x
        runs over G, x^-1 g_a x covers cl(g_a) |C_G(g_a)| = |G| / |cl(g_a)|
        times. So W[a, i] = |G| |class i| / |cl(g_a)|, and W is zero elsewhere.
        """
        cmap = self.class_map
        sizes_g = np.asarray(self.ambient.classes.class_sizes, dtype=np.int64)
        sizes_h = np.asarray(self.subgroup.classes.class_sizes, dtype=np.int64)
        w = np.zeros((sizes_g.size, sizes_h.size), dtype=np.int64)
        w[cmap, np.arange(sizes_h.size)] = self.ambient.order // sizes_g[cmap] * sizes_h
        w.setflags(write=False)
        return w


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p * q)(i) = p(q(i)): apply q first.
    return tuple(p[q[i]] for i in range(len(p)))


def _perm_parity(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    parity = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length % 2 == 0:
            parity = -parity
    return parity


def _cycle_notation(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def _validate_permutation(g, idx: int, degree: int) -> tuple[int, ...]:
    p = tuple(int(x) for x in g)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise GroupSpecError(
            f"generators[{idx}] is not a permutation of 0..{degree - 1}: {list(g)}"
        )
    return p


def row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque void scalar per row: equal exactly when the rows are equal."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1]))).reshape(rows.shape[:-1])


def _table_from_perms(perms: list[tuple[int, ...]], gen_perms) -> tuple[np.ndarray, list[int]]:
    n, degree = len(perms), len(perms[0])

    def as_rows(ps) -> np.ndarray:
        # A degree-0 permutation acts as the identity on one point.
        rows = np.zeros((len(ps), max(degree, 1)), dtype=np.int64)
        rows[:, :degree] = np.asarray(ps, dtype=np.int64).reshape(len(ps), degree)
        return rows

    arr = as_rows(perms)
    keys = row_keys(arr)
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def index(rows: np.ndarray) -> np.ndarray:
        wanted = row_keys(rows)
        pos = np.minimum(np.searchsorted(sorted_keys, wanted), n - 1)
        missing = np.flatnonzero(sorted_keys[pos] != wanted)
        if missing.size:
            raise KeyError(tuple(int(x) for x in rows[missing[0]]))
        return order[pos]

    product = np.empty((n, n), dtype=np.int64)
    for i in range(n):
        # Row i holds perms[i] * q = perms[i](q(.)) for every q.
        product[i] = index(arr[i][arr])
    return product, index(as_rows(gen_perms)).tolist()


def _perm_closure(gens: list[tuple[int, ...]], cap: int) -> list[tuple[int, ...]]:
    degree = len(gens[0])
    identity = tuple(range(degree))
    elems = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in index:
                    if len(elems) >= cap:
                        raise OrderLimitError(
                            f"generated group exceeds the order cap {cap}"
                        )
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return elems


# ---------------------------------------------------------------------------
# group construction
# ---------------------------------------------------------------------------


def _inverse_from_product(product: np.ndarray, identity: int = 0) -> np.ndarray:
    n = product.shape[0]
    inverse = np.empty(n, dtype=np.int64)
    rows, cols = np.nonzero(product == identity)
    inverse[rows] = cols
    return inverse


def _build_cyclic(n: int) -> GroupTable:
    if n < 1:
        raise GroupSpecError(f"cyclic parameter must be >= 1, got {n}")
    idx = np.arange(n, dtype=np.int64)
    product = (idx[:, None] + idx[None, :]) % n
    labels = tuple("e" if i == 0 else ("a" if i == 1 else f"a^{i}") for i in range(n))
    gens = (1,) if n > 1 else ()
    return GroupTable(n, product, (-idx) % n, labels, generators=gens, name=f"C{n}")


def _build_dihedral(n: int) -> GroupTable:
    if n < 2:
        raise GroupSpecError(f"dihedral parameter must be >= 2, got {n}")
    order = 2 * n
    # Index k*n + i encodes s^k r^i with relations r^n = s^2 = e, r s = s r^-1:
    # r^i * s r^j = s r^(j-i);  s r^i * r^j = s r^(i+j);  s r^i * s r^j = r^(j-i)
    fa, ia = np.divmod(np.arange(order, dtype=np.int64)[:, None], n)
    fb, ib = fa.T, ia.T
    jj = np.where(fb == 1, (ib - ia) % n, (ia + ib) % n)
    product = ((fa + fb) % 2) * n + jj
    rot = ["e", "r"] + [f"r^{i}" for i in range(2, n)]
    ref = ["s", "s*r"] + [f"s*r^{i}" for i in range(2, n)]
    labels = tuple(rot[:n] + ref[:n])
    return GroupTable(
        order, product, _inverse_from_product(product), labels, generators=(1, n), name=f"D{n}"
    )


_QUATERNION_LABELS = ("1", "i", "-1", "-i", "j", "k", "-j", "-k")


def _build_quaternion(n: int) -> GroupTable:
    if n != 8:
        raise GroupSpecError(f"quaternion family supports order 8 only, got {n}")
    product = np.empty((8, 8), dtype=np.int64)
    for a1 in range(4):
        for b1 in range(2):
            for a2 in range(4):
                for b2 in range(2):
                    a = (a1 + (a2 if b1 == 0 else -a2) + 2 * b1 * b2) % 4
                    b = (b1 + b2) % 2
                    product[a1 + 4 * b1, a2 + 4 * b2] = a + 4 * b
    return GroupTable(
        8,
        product,
        _inverse_from_product(product),
        _QUATERNION_LABELS,
        generators=(1, 4),
        name="Q8",
    )


def _symmetric_perms(n: int) -> list[tuple[int, ...]]:
    return sorted(permutations(range(n)))


def _generator_perms(spec: GroupSpec) -> list[tuple[int, ...]]:
    """The generators of a permutation family, in the order of `GroupTable.generators`."""
    n = spec.n
    if spec.kind == "symmetric":  # (0 1), then the n-cycle from n = 3 on
        if n < 2:
            return []
        swap = tuple([1, 0] + list(range(2, n)))
        return [swap] if n == 2 else [swap, tuple(list(range(1, n)) + [0])]
    if spec.kind == "alternating":  # (0 1 2), then an even n- or (n-1)-cycle from n = 4 on
        if n < 3:
            return []
        three = tuple([1, 2, 0] + list(range(3, n)))
        if n == 3:
            return [three]
        if n % 2:
            return [three, tuple(list(range(1, n)) + [0])]
        return [three, tuple([0] + list(range(2, n)) + [1])]
    degree = len(spec.generators[0])
    return [_validate_permutation(g, i, degree) for i, g in enumerate(spec.generators)]


def _build_permutation_group(perms, gen_perms, name: str, cap: int) -> GroupTable:
    if len(perms) > cap:
        raise OrderLimitError(f"group of order {len(perms)} exceeds the order cap {cap}")
    product, gen_idx = _table_from_perms(perms, gen_perms)
    labels = tuple(_cycle_notation(p) for p in perms)
    return GroupTable(
        len(perms),
        product,
        _inverse_from_product(product),
        labels,
        generators=tuple(gen_idx),
        name=name,
    )


def _build_direct_product(a: GroupTable, b: GroupTable, cap: int) -> GroupTable:
    order = a.order * b.order
    if order > cap:
        raise OrderLimitError(f"group of order {order} exceeds the order cap {cap}")
    # Encode (x, y) -> x * |B| + y; axes (x1, y1, x2, y2) flatten to (row, column).
    product = a.product[:, None, :, None] * b.order + b.product[None, :, None, :]
    inverse = a.inverse[:, None] * b.order + b.inverse[None, :]
    labels = tuple(
        f"({la},{lb})" for la in a.element_labels for lb in b.element_labels
    )
    gens = tuple(g * b.order for g in a.generators) + tuple(int(g) for g in b.generators)
    return GroupTable(
        order,
        product.reshape(order, order),
        inverse.reshape(-1),
        labels,
        generators=gens,
        name=f"{a.name}x{b.name}",
    )


def build_group(spec: GroupSpec, cap: int | None = None) -> GroupTable:
    """Construct the multiplication table for a group spec.

    Raises GroupSpecError on invalid parameters and OrderLimitError when the
    resulting order would exceed the cap (default 1024, overridable via the
    KSPHERE_MAX_ORDER environment variable).
    """
    cap = order_cap() if cap is None else cap
    if spec.kind == "cyclic":
        if spec.n > cap:
            raise OrderLimitError(f"group of order {spec.n} exceeds the order cap {cap}")
        return _build_cyclic(spec.n)
    if spec.kind == "dihedral":
        if 2 * spec.n > cap:
            raise OrderLimitError(f"group of order {2 * spec.n} exceeds the order cap {cap}")
        return _build_dihedral(spec.n)
    if spec.kind == "quaternion":
        if spec.n > cap:
            raise OrderLimitError(f"group of order {spec.n} exceeds the order cap {cap}")
        return _build_quaternion(spec.n)
    if spec.kind == "symmetric":
        if not 1 <= spec.n <= 6:
            raise GroupSpecError(f"symmetric parameter must be in 1..6, got {spec.n}")
        if factorial(spec.n) > cap:
            raise OrderLimitError(
                f"group of order {factorial(spec.n)} exceeds the order cap {cap}"
            )
        return _build_permutation_group(
            _symmetric_perms(spec.n), _generator_perms(spec), f"S{spec.n}", cap
        )
    if spec.kind == "alternating":
        if not 1 <= spec.n <= 6:
            raise GroupSpecError(f"alternating parameter must be in 1..6, got {spec.n}")
        perms = [p for p in _symmetric_perms(spec.n) if _perm_parity(p) == 1]
        return _build_permutation_group(perms, _generator_perms(spec), f"A{spec.n}", cap)
    if spec.kind == "direct_product":
        if len(spec.factors) != 2:
            raise GroupSpecError("direct_product requires exactly two factors")
        a = build_group(spec.factors[0], cap)
        b = build_group(spec.factors[1], cap)
        return _build_direct_product(a, b, cap)
    if spec.kind == "permutation_generators":
        if not spec.generators:
            raise GroupSpecError("permutation_generators requires at least one generator")
        gens = _generator_perms(spec)
        perms = _perm_closure(gens, cap)
        return _build_permutation_group(perms, gens, spec.name, cap)
    raise GroupSpecError(f"unknown group kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------


def conjugacy_classes(table: GroupTable) -> ConjugacyClasses:
    """Conjugacy classes ordered by (representative order, size, min index)."""
    n = table.order
    all_g = np.arange(n, dtype=np.int64)
    class_of = np.full(n, -1, dtype=np.int64)
    raw_classes: list[tuple[int, ...]] = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = np.unique(table.conjugate(all_g, x))
        cid = len(raw_classes)
        raw_classes.append(tuple(int(v) for v in orbit))
        class_of[orbit] = cid
    order_of = (np.argmax(table.powers[1:] == table.identity, axis=0) + 1).tolist()
    keys = sorted(
        (order_of[cls[0]], len(cls), cls[0], cid) for cid, cls in enumerate(raw_classes)
    )
    order_perm = [k[3] for k in keys]
    classes = tuple(raw_classes[old] for old in order_perm)
    class_of = np.argsort(order_perm)[class_of]
    return ConjugacyClasses(
        classes=classes,
        class_of=class_of,
        representatives=tuple(c[0] for c in classes),
        class_sizes=tuple(len(c) for c in classes),
        orders=tuple(k[0] for k in keys),
    )


def group_axiom_violations(table: GroupTable, max_order: int = 256) -> list[str]:
    """Exhaustive associativity/identity/inverse check (desk scale only)."""
    n = table.order
    if n > max_order:
        raise ValueError(f"exhaustive check limited to order {max_order}")
    prod = table.product
    out = []
    if not np.array_equal(prod[table.identity], np.arange(n)):
        out.append("identity fails on the left")
    if not np.array_equal(prod[:, table.identity], np.arange(n)):
        out.append("identity fails on the right")
    if not np.array_equal(prod[np.arange(n), table.inverse], np.full(n, table.identity)):
        out.append("inverse law fails")
    for i in range(n):
        rows = prod[prod[i], :]
        cols = prod[i, prod]
        if not np.array_equal(rows, cols):
            out.append(f"associativity fails for left factor {i}")
            break
    for i in range(n):
        if len(set(int(v) for v in prod[i])) != n:
            out.append(f"left multiplication by {i} is not a bijection")
            break
    return out


# ---------------------------------------------------------------------------
# sign homomorphisms
# ---------------------------------------------------------------------------


def make_sign_hom(table: GroupTable, values, label: str) -> SignHomomorphism:
    """Validate and wrap per-element +-1 values as a sign homomorphism."""
    vals = np.asarray(values, dtype=np.int8)
    if vals.shape != (table.order,):
        raise LambdaSpecError("sign vector length does not match the group order")
    if not np.all(np.abs(vals) == 1):
        raise LambdaSpecError("sign values must be +1 or -1")
    expected = vals[:, None] * vals[None, :]
    if not np.array_equal(vals[table.product].astype(np.int16), expected.astype(np.int16)):
        raise LambdaSpecError(f"signs are not multiplicative for {label!r}")
    if not (np.any(vals > 0) and np.any(vals < 0)):
        raise LambdaSpecError(f"sign map {label!r} is not surjective onto {{+1,-1}}")
    hom = SignHomomorphism(values=vals, label=label)
    assert 2 * len(hom.kernel_indices()) == table.order
    return hom


def _signs_from_generators(table: GroupTable, signs: tuple[int, ...], label: str):
    if len(signs) != len(table.generators):
        raise LambdaSpecError(
            f"generator_signs has {len(signs)} entries but the group has "
            f"{len(table.generators)} generators"
        )
    if any(s not in (1, -1) for s in signs):
        raise LambdaSpecError("generator_signs entries must be +1 or -1")
    vals = np.zeros(table.order, dtype=np.int8)
    vals[table.identity] = 1
    frontier = [table.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s, g in zip(signs, table.generators):
                y = int(table.product[x, g])
                if vals[y] == 0:
                    vals[y] = vals[x] * s
                    nxt.append(y)
        frontier = nxt
    if np.any(vals == 0):
        raise LambdaSpecError("listed generators do not generate the group")
    gens = np.asarray(table.generators, dtype=np.int64)
    wrong = np.flatnonzero(vals[gens] != np.asarray(signs, dtype=np.int8))
    if wrong.size:
        i = int(wrong[0])
        g = int(gens[i])
        raise LambdaSpecError(
            f"generator_signs[{i}] = {signs[i]:+d} is not realised by a homomorphism: "
            f"generator {i} ({table.element_labels[g]}) is a product of generators "
            f"with sign {int(vals[g]):+d}"
        )
    return make_sign_hom(table, vals, label)


def _onto_pm1_cyclic(spec: GroupSpec) -> tuple[int, ...]:
    if spec.n % 2 != 0:
        raise LambdaSpecError("onto-pm1 requires an even cyclic group")
    return (-1,)


def _generator_parities(spec: GroupSpec) -> tuple[int, ...]:
    return tuple(_perm_parity(g) for g in _generator_perms(spec))


# The generator signs of each named convention, on `GroupTable.generators`.
_CONVENTIONS = {
    "cyclic": {"onto-pm1": _onto_pm1_cyclic},
    "dihedral": {"reflection-sign": lambda spec: (1, -1)},  # (r, s)
    "quaternion": {"onto-pm1": lambda spec: (1, -1)},  # (i, j)
    "symmetric": {"sign": _generator_parities},
    "alternating": {"sign": _generator_parities},
    "permutation_generators": {"sign": _generator_parities},
    "direct_product": {},
}


def build_sign_hom(table: GroupTable, spec: GroupSpec, lam: LambdaSpec) -> SignHomomorphism:
    """Realize a lambda spec (named convention or generator signs) on a group."""
    if lam.generator_signs is not None:
        return _signs_from_generators(table, tuple(lam.generator_signs), lam.label)
    conv = lam.convention
    if conv is None:
        raise LambdaSpecError("lambda spec needs a convention or generator_signs")
    conventions = _CONVENTIONS.get(spec.kind, {})
    if conv not in conventions:
        avail = ", ".join(conventions) or "generator_signs only"
        raise LambdaSpecError(
            f"convention {conv!r} is not defined for family {spec.kind!r} (available: {avail})"
        )
    return _signs_from_generators(table, conventions[conv](spec), conv)


def _subgroup_closure(table: GroupTable, seed: np.ndarray) -> np.ndarray:
    """The subgroup generated by the identity and seed, ascending."""
    members = np.union1d([table.identity], seed)
    while True:
        grown = np.union1d(members, table.product[np.ix_(members, members)])
        if grown.size == members.size:
            return members
        members = grown


def enumerate_sign_homs(table: GroupTable) -> list[SignHomomorphism]:
    """All surjections G -> {+1,-1}, in a deterministic order.

    They factor through G / <squares, commutators>, an elementary abelian
    2-group, whose nonzero dual functionals are enumerated over an F2 basis.
    """
    n = table.order
    prod = table.product
    # The squares alone generate <squares, commutators>: every commutator is
    # a product of squares, a^-1 b^-1 a b = a^-2 (a b^-1)^2 b^2.
    nsub = _subgroup_closure(table, np.diagonal(prod))
    coset_of = np.full(n, -1, dtype=np.int64)
    coset_reps: list[int] = []
    for x in range(n):
        if coset_of[x] >= 0:
            continue
        members = prod[x, nsub]
        coset_of[members] = len(coset_reps)
        coset_reps.append(x)
    num_cosets = len(coset_reps)
    if num_cosets == 1:
        return []
    # F2 coordinates on the quotient, built greedily from coset reps.
    coords = {0: 0}  # coset id -> bitmask of basis coefficients
    basis: list[int] = []
    for cid in range(num_cosets):
        if cid in coords:
            continue
        bit = 1 << len(basis)
        basis.append(cid)
        for known, vec in list(coords.items()):
            combined = int(coset_of[prod[coset_reps[cid], coset_reps[known]]])
            if combined not in coords:
                coords[combined] = vec | bit
    assert len(coords) == num_cosets
    elem_coords = np.asarray([coords[int(c)] for c in coset_of], dtype=np.int64)
    homs = []
    r = len(basis)
    for eps in range(1, 1 << r):
        par = np.zeros(n, dtype=np.int64)
        masked = elem_coords & eps
        while np.any(masked):
            par += masked & 1
            masked >>= 1
        vals = np.where(par % 2 == 0, 1, -1)
        neg = np.nonzero(vals < 0)[0]
        mask = 0
        for i in neg:
            mask |= 1 << int(i)
        homs.append(make_sign_hom(table, vals, f"neg:{mask:#x}"))
    return homs


# ---------------------------------------------------------------------------
# kernel and cosets
# ---------------------------------------------------------------------------


def kernel_embedding(table: GroupTable, lam: SignHomomorphism) -> SubgroupEmbedding:
    """The kernel H with |H| = |G|/2, re-indexed by ascending ambient index."""
    h_idx = lam.kernel_indices()
    pos = np.full(table.order, -1, dtype=np.int64)
    pos[h_idx] = np.arange(len(h_idx))
    sub_product = pos[table.product[np.ix_(h_idx, h_idx)]]
    if np.any(sub_product < 0):
        raise LambdaSpecError("kernel is not closed under multiplication")
    sub_inverse = pos[table.inverse[h_idx]]
    sub = GroupTable(
        order=len(h_idx),
        product=sub_product,
        inverse=sub_inverse,
        element_labels=tuple(table.element_labels[int(i)] for i in h_idx),
        generators=(),
        name=f"ker({lam.label})<{table.name}",
    )
    return SubgroupEmbedding(sub, h_idx, table)


def coset_representatives(table: GroupTable, lam: SignHomomorphism) -> list[int]:
    """All elements with sign -1, ascending; the canonical b is the first."""
    return [int(i) for i in lam.negative_indices()]


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------


def _partitions(k: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()]
    out = []

    def rec(remaining, largest, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, acc + [part])

    rec(k, k, [])
    return out


def abelian_factor_lists(order: int) -> list[tuple[int, ...]]:
    """All abelian groups of this order, as descending prime-power factor lists."""
    if order == 1:
        return [(1,)]
    per_prime = []
    for p, e in factorization(order):
        per_prime.append([tuple(p**part for part in pt) for pt in _partitions(e)])
    results = [()]
    for options in per_prime:
        results = [acc + opt for acc in results for opt in options]
    return sorted(set(tuple(sorted(r, reverse=True)) for r in results))


def _spec_from_factors(factors: tuple[int, ...]) -> GroupSpec:
    specs = [GroupSpec.cyclic(f) for f in factors]
    return reduce(GroupSpec.direct_product, specs) if len(specs) > 1 else specs[0]


def abelian_specs_upto(max_order: int, min_order: int = 1) -> list[GroupSpec]:
    """One spec per isomorphism type of abelian group in the order range."""
    out = []
    for n in range(min_order, max_order + 1):
        for factors in abelian_factor_lists(n):
            out.append(_spec_from_factors(factors))
    return out


def builtin_specs_upto(max_order: int) -> list[GroupSpec]:
    """The catalog of named groups used by the verification sweeps."""
    specs = list(abelian_specs_upto(max_order))
    specs += [GroupSpec.dihedral(n) for n in range(2, max_order // 2 + 1)]
    if max_order >= 8:
        specs.append(GroupSpec.quaternion(8))
    specs += [GroupSpec.symmetric(n) for n in range(3, 7) if factorial(n) <= max_order]
    specs += [
        GroupSpec.alternating(n) for n in range(4, 7) if factorial(n) // 2 <= max_order
    ]
    return specs


# ---------------------------------------------------------------------------
# JSON specs (shared with the CLI)
# ---------------------------------------------------------------------------

_FAMILY_ALIASES = {
    "c": "cyclic",
    "cyclic": "cyclic",
    "d": "dihedral",
    "dihedral": "dihedral",
    "q": "quaternion",
    "quaternion": "quaternion",
    "s": "symmetric",
    "symmetric": "symmetric",
    "a": "alternating",
    "alternating": "alternating",
    "product": "direct_product",
    "direct_product": "direct_product",
}


def _json_int(value, field: str) -> int:
    """`value` when it is a JSON integer; a boolean is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise GroupSpecError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _group_spec_from_obj(obj: dict) -> GroupSpec:
    if not isinstance(obj, dict):
        raise GroupSpecError("group spec must be a JSON object")
    if "generators" in obj:
        gens = obj["generators"]
        if not isinstance(gens, list) or not gens:
            raise GroupSpecError("field 'generators' must be a non-empty list")
        for i, g in enumerate(gens):
            if not isinstance(g, list):
                raise GroupSpecError(f"field 'generators[{i}]' must be a list, got {g!r}")
            for j, x in enumerate(g):
                _json_int(x, f"generators[{i}][{j}]")
        return GroupSpec.permutation_generators(gens)
    family = obj.get("family")
    if family is None:
        raise GroupSpecError("group spec needs a 'family' or 'generators' field")
    kind = _FAMILY_ALIASES.get(str(family).lower())
    if kind is None:
        raise GroupSpecError(f"unknown family {family!r}")
    if kind == "direct_product":
        factors = obj.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            raise GroupSpecError("field 'factors' must list exactly two group specs")
        return GroupSpec.direct_product(
            _group_spec_from_obj(factors[0]), _group_spec_from_obj(factors[1])
        )
    return GroupSpec(kind, n=_json_int(obj.get("n"), "n"))


def parse_group_document(obj: dict) -> tuple[GroupSpec, LambdaSpec | None]:
    """Parse {'family': ..., 'n': ..., 'lambda': {...}} into spec objects."""
    spec = _group_spec_from_obj(obj)
    lam_obj = obj.get("lambda")
    if lam_obj is None:
        return spec, None
    if not isinstance(lam_obj, dict):
        raise GroupSpecError("field 'lambda' must be an object")
    if "convention" in lam_obj:
        convention = lam_obj["convention"]
        if not isinstance(convention, str):
            raise GroupSpecError(f"field 'lambda.convention' must be a string, got {convention!r}")
        return spec, LambdaSpec(convention=convention)
    if "generator_signs" in lam_obj:
        signs = lam_obj["generator_signs"]
        if not isinstance(signs, list):
            raise GroupSpecError("field 'lambda.generator_signs' must be a list")
        for i, s in enumerate(signs):
            if _json_int(s, f"lambda.generator_signs[{i}]") not in (1, -1):
                raise GroupSpecError(
                    f"field 'lambda.generator_signs[{i}]' must be +1 or -1, got {s}"
                )
        return spec, LambdaSpec(generator_signs=tuple(signs))
    raise GroupSpecError("field 'lambda' needs 'convention' or 'generator_signs'")
