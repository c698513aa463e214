"""Finite groups as explicit multiplication tables, with sign homomorphisms.

Element 0 is always the identity. Every constructor is deterministic:
building the same spec twice yields identical tables, element labels and
class orderings, which downstream code relies on for reproducible bases.
Element labels are rendered on demand, one element at a time
(`GroupTable.label`), so a build does no per-element string work.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
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
    """A finite group as a dense multiplication table over indices 0..n-1.

    `generators` is a generating set, () only for the trivial group (a kernel
    records `schreier_generators`); `is_abelian` and `conjugacy_classes` rely on it.
    `factors` is (A, B) when the group was built as A x B, with element
    (x, y) at index x * |B| + y; it is empty for every other group.
    `render(x)` is the label of element x, a function each builder passes in:
    a closed form for the cyclic, dihedral and quaternion families, the cycle
    notation of one closure row for a permutation group, the factors' labels
    for a product and the ambient group's for a kernel. `label` calls it.
    """

    order: int
    product: np.ndarray
    inverse: np.ndarray
    render: Callable[[int], str] = field(repr=False)
    generators: tuple[int, ...]
    identity: int = 0
    name: str = "G"
    factors: tuple["GroupTable", ...] = ()
    # The character table, set by `characters.character_table`.
    table: "CharacterTable | None" = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.product = np.ascontiguousarray(self.product, dtype=np.int64)
        self.inverse = np.ascontiguousarray(self.inverse, dtype=np.int64)
        self.product.setflags(write=False)
        self.inverse.setflags(write=False)

    def fingerprint(self) -> bytes:
        return self.product.tobytes()

    def label(self, x) -> str:
        """The label of element x, rendered on demand."""
        return self.render(int(x))

    def is_abelian(self) -> bool:
        """Whether the group is abelian, that is, whether its generators commute."""
        return generators_commute(self.product, self.generators)

    def conjugate(self, x, g) -> np.ndarray:
        """x^-1 g x, elementwise over broadcast index arrays."""
        return self.product[self.product[self.inverse[x], g], x]

    @cached_property
    def powers(self) -> np.ndarray:
        """powers[s, x] = x**s for 0 <= s <= exponent, by doubling: with the
        rows s < L known, the rows x**(L + i) = x**L x**i are one block
        gather, so ceil(log2(exponent + 1)) blocks in all."""
        x = np.arange(self.order, dtype=np.int64)
        out = np.stack([np.full_like(x, self.identity), x])
        # The rows s >= 1 found so far with x**s = 1 for every x.
        done = 1 + np.flatnonzero((out[1:] == self.identity).all(axis=1))
        while not done.size:
            top = self.product[out[-1], x]  # x**L, L = len(out)
            block = self.product[top[None, :], out]
            done = len(out) + np.flatnonzero((block == self.identity).all(axis=1))
            out = np.concatenate([out, block])
        out = np.ascontiguousarray(out[: done[0] + 1])
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
    # The lambda context, set by `characters.lambda_context`.
    context: "LambdaContext | None" = field(default=None, init=False, repr=False)

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


def generators_commute(product: np.ndarray, gens) -> bool:
    """Whether `gens` commute pairwise: the S x S block of the table is symmetric."""
    block = product[np.ix_(gens, gens)]
    return bool(np.array_equal(block, block.T))


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------


def _cycles(p: tuple[int, ...]) -> list[list[int]]:
    """The cycles of p, fixed points included, each from its least point."""
    seen = [False] * len(p)
    cycles = []
    for i in range(len(p)):
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        if cyc:
            cycles.append(cyc)
    return cycles


def _perm_parity(p: tuple[int, ...]) -> int:
    return (-1) ** sum(len(c) - 1 for c in _cycles(p))


def _cycle_notation(p: tuple[int, ...], points=None) -> str:
    """The cycles of p that move a point, each from its least point; with
    `points` (ascending), p acts on points[0], points[1], ... in that order."""
    name = str if points is None else (lambda i: str(points[i]))
    parts = ["(" + " ".join(map(name, c)) + ")" for c in _cycles(p) if len(c) > 1]
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
    if not rows.shape[-1]:  # zero-width rows are all equal
        return np.zeros(rows.shape[:-1], dtype="V1")
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1]))).reshape(rows.shape[:-1])


def _perm_closure(gens: np.ndarray, cap: int) -> np.ndarray:
    """The group generated by the rows of `gens` [S, degree], as an
    [n, degree] array in breadth-first order from the identity along the
    edges x -> x g_s (g_s applied first), as in the orbit algorithm (Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005, 4.1).

    Each level is gathered through every generator, and its new elements are
    the first occurrences, in (parent, generator) order, of rows not seen
    before: the order in which a breadth-first queue meets them. The level
    goes in blocks of at most max(n, S) candidate rows, n the elements found
    so far, so no gather outgrows the elements or the generators already
    held. `known` holds the keys of the elements so far, ascending.
    """
    num, degree = gens.shape
    level = np.arange(degree, dtype=np.int64)[None]
    levels, known = [level], row_keys(level)
    while len(level):
        found = []
        block = max(1, known.size // max(1, num))
        for lo in range(0, len(level), block):
            parents = level[lo : lo + block]
            cand = parents[:, gens].reshape(len(parents) * num, degree)  # x g_s, parent-major
            keys = row_keys(cand)
            at = np.minimum(np.searchsorted(known, keys), known.size - 1)
            fresh = np.nonzero(known[at] != keys)[0]
            new, first = np.unique(keys[fresh], return_index=True)
            if known.size + new.size > cap:
                raise OrderLimitError(f"generated group exceeds the order cap {cap}")
            found.append(cand[fresh[np.sort(first)]])
            # Two ascending runs: a stable sort merges them in linear time.
            known = np.sort(np.concatenate([known, new]), kind="stable")
        level = np.concatenate(found)
        levels.append(level)
    return np.concatenate(levels)


def _walk(right: np.ndarray) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Breadth-first walk from element 0 along the edges x -> right[x, s].

    Returns the step (y, x, s) that first reached each element y after the
    first, in order of discovery, and a mask of the elements reached.
    """
    rows = right.tolist()
    reached = [True] + [False] * (len(rows) - 1)
    queue = [0]
    steps = []
    for x in queue:
        for s, y in enumerate(rows[x]):
            if not reached[y]:
                reached[y] = True
                queue.append(y)
                steps.append((y, x, s))
    return steps, np.asarray(reached)


# ---------------------------------------------------------------------------
# group construction
# ---------------------------------------------------------------------------


def _power_label(letter: str, i: int) -> str:
    """The label of letter**i: e, letter, letter^i."""
    return "e" if i == 0 else (letter if i == 1 else f"{letter}^{i}")


def _build_cyclic(n: int) -> GroupTable:
    if n < 1:
        raise GroupSpecError(f"cyclic parameter must be >= 1, got {n}")
    idx = np.arange(n, dtype=np.int64)
    product = (idx[:, None] + idx[None, :]) % n
    gens = (1,) if n > 1 else ()
    render = partial(_power_label, "a")
    return GroupTable(n, product, (-idx) % n, render, generators=gens, name=f"C{n}")


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
    # (r^i)^-1 = r^-i, and every reflection s r^i is its own inverse.
    idx = np.arange(n, dtype=np.int64)
    inverse = np.concatenate([(-idx) % n, n + idx])

    def render(x: int) -> str:
        k, i = divmod(x, n)
        rot = _power_label("r", i)
        return rot if not k else ("s" if i == 0 else f"s*{rot}")

    return GroupTable(order, product, inverse, render, generators=(1, n), name=f"D{n}")


_QUATERNION_LABELS = ("1", "i", "-1", "-i", "j", "k", "-j", "-k")
# x^-1 = -x for every x but +-1: i, j and k all square to -1.
_QUATERNION_INVERSE = (0, 3, 2, 1, 6, 7, 4, 5)


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
        _QUATERNION_INVERSE,
        _QUATERNION_LABELS.__getitem__,
        generators=(1, 4),
        name="Q8",
    )


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


def _build_permutation_group(spec: GroupSpec, degree: int, cap: int) -> GroupTable:
    """The closure of the spec's generators, its table unrolled along the Cayley graph.

    S_n and A_n are relabelled into lexicographic order (one lexsort over
    the columns); generated groups keep the breadth-first order. Either way
    the identity is element 0. `steps[s, x]` is the index of g_s x, and the
    inverse of x is its inverse permutation (argsort): both are looked up
    among the elements' sorted row keys. For y = g_s x, y z = g_s (x z) for
    every z, so row y of the product is row x sent through `steps[s]`. The
    rows are unrolled breadth-first from the identity one level at a time:
    each level and generator is one gather, so about diameter x S gathers
    build the table.
    """
    gens = _generator_perms(spec)
    gens = np.asarray(gens, dtype=np.int64).reshape(len(gens), degree)
    # A point that every generator fixes is fixed by the group, so the group
    # is closed on the moved points alone, renumbered 0, 1, ... in order.
    moved = np.flatnonzero(np.any(gens != np.arange(degree), axis=0))
    gens = np.searchsorted(moved, gens[:, moved])
    perms = _perm_closure(gens, cap)
    if spec.kind != "permutation_generators" and len(perms) > 1:
        perms = perms[np.lexsort(perms.T[::-1])]
    perms.setflags(write=False)
    n = len(perms)
    keys = row_keys(perms)
    by_key = np.argsort(keys)
    keys = keys[by_key]
    # The group holds every g_s x and every inverse, so each key is found; one
    # generator at a time keeps every gather [n, degree].
    steps = np.empty((len(gens), n), dtype=np.int64)
    for s, g in enumerate(gens):
        steps[s] = by_key[np.searchsorted(keys, row_keys(g[perms]))]  # (g_s x)[j] = g_s[x[j]]
    inverse = by_key[np.searchsorted(keys, row_keys(np.argsort(perms, axis=1)))]
    product = np.empty((n, n), dtype=np.int64)
    product[0] = np.arange(n)
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    level = np.zeros(1, dtype=np.int64)
    while level.size:
        found = [level[:0]]  # the trivial group has no generators
        for step in steps:
            # x -> g_s x is injective, so the new ends of one generator are distinct.
            y = step[level]
            new = ~reached[y]
            y = y[new]
            reached[y] = True
            product[y] = step[product[level[new]]]
            found.append(y)
        level = np.concatenate(found)
    return GroupTable(
        n,
        product,
        inverse,
        lambda x: _cycle_notation(perms[x].tolist(), moved.tolist()),
        generators=tuple(steps[:, 0].tolist()),
        name=spec.name,
    )


def _build_direct_product(a: GroupTable, b: GroupTable, cap: int) -> GroupTable:
    order = a.order * b.order
    if order > cap:
        raise OrderLimitError(f"group of order {order} exceeds the order cap {cap}")
    # Encode (x, y) -> x * |B| + y; axes (x1, y1, x2, y2) flatten to (row, column).
    product = a.product[:, None, :, None] * b.order + b.product[None, :, None, :]
    inverse = a.inverse[:, None] * b.order + b.inverse[None, :]
    gens = tuple(g * b.order for g in a.generators) + tuple(int(g) for g in b.generators)
    return GroupTable(
        order,
        product.reshape(order, order),
        inverse.reshape(-1),
        lambda x: f"({a.label(x // b.order)},{b.label(x % b.order)})",
        generators=gens,
        name=f"{a.name}x{b.name}",
        factors=(a, b),
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
    if spec.kind in ("symmetric", "alternating"):
        if not 1 <= spec.n <= 6:
            raise GroupSpecError(f"{spec.kind} parameter must be in 1..6, got {spec.n}")
        order = factorial(spec.n) if spec.kind == "symmetric" else max(factorial(spec.n) // 2, 1)
        if order > cap:
            raise OrderLimitError(f"group of order {order} exceeds the order cap {cap}")
        return _build_permutation_group(spec, spec.n, cap)
    if spec.kind == "direct_product":
        if len(spec.factors) != 2:
            raise GroupSpecError("direct_product requires exactly two factors")
        a = build_group(spec.factors[0], cap)
        b = build_group(spec.factors[1], cap)
        return _build_direct_product(a, b, cap)
    if spec.kind == "permutation_generators":
        if not spec.generators:
            raise GroupSpecError("permutation_generators requires at least one generator")
        return _build_permutation_group(spec, len(spec.generators[0]), cap)
    raise GroupSpecError(f"unknown group kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# conjugacy classes
# ---------------------------------------------------------------------------


def _least_conjugates(table: GroupTable) -> np.ndarray:
    """least[x] = the least element of x's class, as orbits of x -> g^-1 x g
    over the recorded generators g.

    Starting from least = arange(n), each round takes least[x] down to the
    least of least[x] and least[g^-1 x g] over the generators, then composes
    least with itself. Both keep least[x] inside x's class and never raise
    it, so least[x] <= x throughout and the rounds stop. At the fixed point
    least[x] <= least[g^-1 x g] for every x and g; conjugation by g permutes
    G, so summing over G makes each inequality an equality, and least is
    constant along every generator edge. The generators generate G, so least
    is constant on each class; as least[x] <= x lies in the class, it is the
    class's least element.
    """
    gens = np.asarray(table.generators, dtype=np.int64)
    conj = table.conjugate(gens[:, None], np.arange(table.order))  # [s, x] = g_s^-1 x g_s
    least = np.arange(table.order)
    while True:
        step = np.minimum(least, least[conj].min(axis=0))
        step = step[step]
        if np.array_equal(step, least):
            return least
        least = step


def conjugacy_classes(table: GroupTable) -> ConjugacyClasses:
    """Conjugacy classes ordered by (representative order, size, min index).

    Each class is found at its least element, so np.unique lists the classes
    in the order of their least elements, whichever route found them: an
    abelian group has singletons, so an abelian product never reads its
    factors; a nonabelian direct product reads them off its factors; and any
    other group takes the orbits of conjugation by its generators
    (`_least_conjugates`).
    """
    if table.is_abelian():
        least = np.arange(table.order)  # every class is a singleton
    elif table.factors:
        # A class of A x B is clA x clB, whose least element pairs the least
        # elements of clA and clB.
        a, b = table.factors
        least_a = np.asarray(a.classes.representatives)[a.classes.class_of]
        least_b = np.asarray(b.classes.representatives)[b.classes.class_of]
        least = (least_a[:, None] * b.order + least_b[None, :]).reshape(-1)
    else:
        least = _least_conjugates(table)
    reps, class_of = np.unique(least, return_inverse=True)
    sizes = np.bincount(class_of)
    orders = np.argmax(table.powers[1:, reps] == table.identity, axis=0) + 1
    perm = np.lexsort((reps, sizes, orders))
    class_of = np.argsort(perm)[class_of]
    members = np.argsort(class_of, kind="stable").tolist()
    ends = np.cumsum(sizes[perm]).tolist()
    return ConjugacyClasses(
        classes=tuple(tuple(members[a:b]) for a, b in zip([0, *ends], ends)),
        class_of=class_of,
        representatives=tuple(reps[perm].tolist()),
        class_sizes=tuple(sizes[perm].tolist()),
        orders=tuple(orders[perm].tolist()),
    )


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
    gens = np.asarray(table.generators, dtype=np.int64)
    steps, reached = _walk(table.product[:, gens])
    if not reached.all():
        raise LambdaSpecError("listed generators do not generate the group")
    vals = [1] * table.order
    for y, x, s in steps:
        vals[y] = vals[x] * signs[s]
    vals = np.asarray(vals, dtype=np.int8)
    wrong = np.flatnonzero(vals[gens] != np.asarray(signs, dtype=np.int8))
    if wrong.size:
        i = int(wrong[0])
        g = int(gens[i])
        raise LambdaSpecError(
            f"generator_signs[{i}] = {signs[i]:+d} is not realised by a homomorphism: "
            f"generator {i} ({table.label(g)}) is a product of generators "
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
    mask = np.zeros(table.order, dtype=bool)
    mask[table.identity] = True
    mask[seed] = True
    while True:
        members = np.flatnonzero(mask)
        mask[table.product[np.ix_(members, members)]] = True
        if np.count_nonzero(mask) == members.size:
            return members


def enumerate_sign_homs(table: GroupTable) -> list[SignHomomorphism]:
    """All surjections G -> {+1,-1}, in a deterministic order.

    They factor through G / <squares, commutators>, an elementary abelian
    2-group, whose nonzero dual functionals are enumerated over an F2 basis.
    """
    prod = table.product
    # The squares alone generate <squares, commutators>: every commutator is
    # a product of squares, a^-1 b^-1 a b = a^-2 (a b^-1)^2 b^2.
    nsub = _subgroup_closure(table, np.diagonal(prod))
    # Cosets x N numbered by their least elements, in ascending order.
    coset_reps, coset_of = np.unique(prod[:, nsub].min(axis=1), return_inverse=True)
    num_cosets = coset_reps.size
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
    elem_coords = np.asarray([coords[c] for c in range(num_cosets)], dtype=np.int64)[coset_of]
    r = np.arange(len(basis))
    elem_bits = elem_coords[:, None] >> r & 1  # [n, r]
    eps_bits = np.arange(1, 1 << r.size)[:, None] >> r & 1  # [2**r - 1, r]
    negative = (eps_bits @ elem_bits.T % 2).astype(bool)  # [hom, n]
    homs = []
    for neg in negative:
        mask = int.from_bytes(np.packbits(neg, bitorder="little").tobytes(), "little")
        homs.append(make_sign_hom(table, np.where(neg, -1, 1), f"neg:{mask:#x}"))
    return homs


# ---------------------------------------------------------------------------
# kernel and cosets
# ---------------------------------------------------------------------------


def schreier_generators(table: GroupTable, lam: SignHomomorphism) -> list[int]:
    """Generators of ker lambda, as ambient indices: t s rep(t s)^-1 for each
    generator s and t in the transversal {1, b}, b the least element with
    lambda(b) = -1, less the identity and repeats (Schreier's lemma; Holt,
    Eick & O'Brien, Handbook of Computational Group Theory, 2005, 4.1)."""
    prod, b = table.product, int(lam.negative_indices()[0])
    b_inv = table.inverse[b]
    found = []
    for s in table.generators:
        if lam.values[s] > 0:
            found += [s, prod[prod[b, s], b_inv]]
        else:
            found += [prod[s, b_inv], prod[b, s]]
    return [x for x in dict.fromkeys(map(int, found)) if x != table.identity]


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
        render=lambda e: table.label(h_idx[e]),
        generators=tuple(pos[schreier_generators(table, lam)].tolist()),
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
    if "generators" in obj and "family" in obj:
        raise GroupSpecError("group spec takes 'family' or 'generators', not both")
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
    if "convention" in lam_obj and "generator_signs" in lam_obj:
        raise GroupSpecError("field 'lambda' takes 'convention' or 'generator_signs', not both")
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
