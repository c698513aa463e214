"""Group construction, conjugacy classes, sign homomorphisms, catalogs."""

import itertools
from math import lcm

import numpy as np
import pytest

from conftest import (
    all_pairs_classes,
    classes_by_factors,
    compose,
    eager_labels,
    group_axiom_violations,
    inverse_from_product,
    oracle_perms,
    transpose_abelian,
)
from ksphere import groups
from ksphere.groups import (
    GroupSpec,
    GroupSpecError,
    LambdaSpec,
    LambdaSpecError,
    OrderLimitError,
    abelian_factor_lists,
    abelian_specs_upto,
    build_group,
    build_sign_hom,
    builtin_specs_upto,
    conjugacy_classes,
    coset_representatives,
    enumerate_sign_homs,
    kernel_embedding,
    make_sign_hom,
    parse_group_document,
)


def brute_closure(gens):
    """Oracle: plain set closure of permutation tuples under composition."""
    elems = {tuple(range(len(gens[0])))}
    while True:
        new = {
            tuple(p[q[i]] for i in range(len(p)))
            for p in elems
            for q in list(gens) + list(elems)
        }
        if new <= elems:
            return elems
        elems |= new


def brute_classes(table):
    """Oracle: conjugacy classes via direct elementwise conjugation."""
    n = table.order
    prod, inv = table.product, table.inverse
    remaining = set(range(n))
    classes = []
    while remaining:
        x = min(remaining)
        orbit = {int(prod[prod[g, x], inv[g]]) for g in range(n)}
        classes.append(frozenset(orbit))
        remaining -= orbit
    return set(classes)


def test_trivial_group():
    t = build_group(GroupSpec.cyclic(1))
    assert t.order == 1 and t.identity == 0
    assert group_axiom_violations(t) == []


def test_cyclic_four_product_law():
    t = build_group(GroupSpec.cyclic(4))
    for i in range(4):
        for j in range(4):
            assert t.product[i, j] == (i + j) % 4
    assert group_axiom_violations(t) == []


def test_permutation_generators_closure_matches_oracle():
    gens = [(1, 0, 2), (1, 2, 0)]
    oracle = brute_closure([tuple(g) for g in gens])
    assert len(oracle) == 6
    t = build_group(GroupSpec.permutation_generators(gens))
    assert t.order == 6
    assert not t.is_abelian()  # together with order 6 this pins the type


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.cyclic(7),
        GroupSpec.dihedral(4),
        GroupSpec.dihedral(5),
        GroupSpec.quaternion(8),
        GroupSpec.symmetric(4),
        GroupSpec.alternating(4),
        GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.dihedral(3)),
    ],
)
def test_group_axioms_exhaustively(spec):
    t = build_group(spec)
    assert group_axiom_violations(t) == []


def _class_oracle_tables():
    """Every builtin group of order <= 32 (S3, D4, Q8, S4 and A4 among them) and its kernels."""
    tables = []
    for spec in builtin_specs_upto(32):
        t = build_group(spec)
        tables.append(t)
        tables += [kernel_embedding(t, lam).subgroup for lam in enumerate_sign_homs(t)]
    return tables


def _order_oracle(table, x):
    k, y = 1, x
    while y != table.identity:
        k, y = k + 1, int(table.product[y, x])
    return k


def test_conjugacy_classes_match_brute_oracle():
    for t in _class_oracle_tables():
        cls = conjugacy_classes(t)
        assert {frozenset(c) for c in cls.classes} == brute_classes(t), t.name
        assert sum(cls.class_sizes) == t.order
        assert cls.classes[0] == (0,)
        for cid, c in enumerate(cls.classes):
            assert cls.representatives[cid] == min(c)
            assert c == tuple(sorted(c)) and cls.class_sizes[cid] == len(c)
            assert cls.orders[cid] == _order_oracle(t, c[0])
            assert all(cls.class_of[x] == cid for x in c)
        keys = list(zip(cls.orders, cls.class_sizes, cls.representatives))
        assert keys == sorted(keys), t.name


@pytest.mark.parametrize(
    "a, b",
    [
        (GroupSpec.cyclic(2), GroupSpec.dihedral(3)),
        (GroupSpec.quaternion(8), GroupSpec.symmetric(4)),
        (GroupSpec.symmetric(4), GroupSpec.symmetric(4)),
        (GroupSpec.dihedral(8), GroupSpec.dihedral(4)),
        (GroupSpec.alternating(5), GroupSpec.cyclic(6)),
    ],
    ids=["C2xD3", "Q8xS4", "S4xS4", "D8xD4", "A5xC6"],
)
def test_product_classes_match_the_all_pairs_gather(a, b):
    """Classes read off the factors equal those of the all-pairs gather."""
    table = build_group(GroupSpec.direct_product(a, b))
    assert [f.name for f in table.factors] == [a.name, b.name]
    _assert_same_classes(table.classes, all_pairs_classes(table))


def _assert_same_classes(got, want):
    assert got.classes == want.classes
    assert np.array_equal(got.class_of, want.class_of)
    assert (got.representatives, got.class_sizes, got.orders) == (
        want.representatives,
        want.class_sizes,
        want.orders,
    )


def _conjugate_oracle(prod, x, g):
    """The unique y with x y = g x in the table rows prod, by search; reads no inverse."""
    (y,) = [y for y in range(len(prod)) if prod[x][y] == prod[g][x]]
    return y


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.symmetric(4),
        GroupSpec.quaternion(8),
        GroupSpec.dihedral(5),
        GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(4)),
    ],
    ids=lambda s: s.name,
)
def test_conjugate_matches_the_search_oracle(spec):
    t = build_group(spec)
    n = t.order
    prod = t.product.tolist()
    oracle = np.asarray([[_conjugate_oracle(prod, x, g) for g in range(n)] for x in range(n)])
    for x, g in itertools.product(range(n), repeat=2):
        assert t.conjugate(x, g) == oracle[x, g]
    all_g = np.arange(n)
    for e in range(n):
        assert np.array_equal(t.conjugate(all_g, e), oracle[:, e])
        assert np.array_equal(t.conjugate(e, all_g), oracle[e])
    assert np.array_equal(t.conjugate(all_g[:, None], all_g[None, :]), oracle)


def _power_oracle(prod, identity, x):
    """[x**0, x**1, ..., x**order] by repeated multiplication in the table rows prod."""
    walk = [identity, x]
    while walk[-1] != identity:
        walk.append(prod[walk[-1]][x])
    return walk


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.symmetric(4),
        GroupSpec.quaternion(8),
        GroupSpec.dihedral(5),
        GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(4)),
        GroupSpec.alternating(5),
        GroupSpec.symmetric(6),
        GroupSpec.cyclic(1),
    ],
    ids=lambda s: s.name,
)
def test_powers_and_class_orders_match_repeated_multiplication(spec):
    t = build_group(spec)
    prod = t.product.tolist()
    walks = [_power_oracle(prod, t.identity, x) for x in range(t.order)]
    order = [len(w) - 1 for w in walks]
    exponent = lcm(*order)
    assert t.powers.shape == (exponent + 1, t.order)
    assert not t.powers.flags.writeable
    for x, w in enumerate(walks):
        expect = [w[s % order[x]] for s in range(exponent + 1)]
        assert t.powers[:, x].tolist() == expect
    cls = t.classes
    assert exponent == lcm(*cls.orders)
    for c, members in enumerate(cls.classes):
        assert {order[x] for x in members} == {cls.orders[c]}


def _naive_powers(t):
    """[x**s for 0 <= s <= exponent] per element, one row gather per power."""
    x = np.arange(t.order)
    rows = [np.full_like(x, t.identity), x]
    while np.any(rows[-1] != t.identity):
        rows.append(t.product[rows[-1], x])
    return np.stack(rows)


def test_doubled_powers_equal_the_row_by_row_loop():
    specs = builtin_specs_upto(64) + [GroupSpec.cyclic(n) for n in (1, 64, 256)]
    for spec in specs:
        t = build_group(spec)
        assert np.array_equal(t.powers, _naive_powers(t)), t.name
        assert t.powers.flags.c_contiguous


def test_trivial_group_powers_are_one_identity_step():
    t = build_group(GroupSpec.cyclic(1))
    assert t.powers.tolist() == [[0], [0]]
    assert t.classes.orders == (1,)


def test_symmetric3_class_sizes():
    t = build_group(GroupSpec.symmetric(3))
    cls = conjugacy_classes(t)
    assert cls.class_sizes == (1, 3, 2)


def test_dihedral4_class_sizes():
    t = build_group(GroupSpec.dihedral(4))
    cls = conjugacy_classes(t)
    assert cls.class_sizes == (1, 1, 2, 2, 2)


def test_abelian_groups_have_singleton_classes():
    for spec in [GroupSpec.cyclic(12), GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(8))]:
        t = build_group(spec)
        cls = conjugacy_classes(t)
        assert cls.count == t.order
        assert all(s == 1 for s in cls.class_sizes)


def test_abelian_products_are_classed_without_their_factors():
    """Every builtin abelian product up to order 128, C2^7 and C3 x C3 x C3 x C6:
    the singleton route gives the class data of the factor route, and no
    factor's classes are computed."""
    specs = [s for s in abelian_specs_upto(128) if s.kind == "direct_product"]
    c3, c6 = GroupSpec.cyclic(3), GroupSpec.cyclic(6)
    pair = GroupSpec.direct_product
    specs.append(pair(pair(c3, c3), pair(c3, c6)))
    names = set()
    for spec in specs:
        table = build_group(spec)
        got, want = conjugacy_classes(table), classes_by_factors(table)
        assert np.array_equal(got.class_of, want["class_of"]), table.name
        assert (got.representatives, got.class_sizes, got.orders) == (
            want["representatives"], want["class_sizes"], want["orders"]
        ), table.name
        table = build_group(spec)
        assert table.classes.count == table.order
        assert not any("classes" in vars(f) for f in table.factors), table.name
        names.add(table.name)
    assert len(specs) == 203
    assert {"C2xC2xC2xC2xC2xC2xC2", "C3xC3xC3xC6"} <= names


def test_determinism_of_construction():
    spec = GroupSpec.dihedral(6)
    a = build_group(spec)
    b = build_group(spec)
    assert np.array_equal(a.product, b.product)
    assert [a.label(x) for x in range(a.order)] == [b.label(x) for x in range(b.order)]
    ca, cb = conjugacy_classes(a), conjugacy_classes(b)
    assert ca.classes == cb.classes


def test_order_cap_enforced():
    with pytest.raises(OrderLimitError):
        build_group(GroupSpec.cyclic(4096))
    with pytest.raises(OrderLimitError):
        build_group(GroupSpec.symmetric(6), cap=100)


_TWENTY_CYCLE = tuple((i + 1) % 20 for i in range(20))
_TWENTY_FLIP = tuple((-i) % 20 for i in range(20))
_DEGREE_TWENTY = GroupSpec.permutation_generators([_TWENTY_CYCLE, _TWENTY_FLIP])


def _block_swaps(degree, starts):
    """The product of the swaps (s s+1) for s in `starts`, on `degree` points."""
    p = list(range(degree))
    for s in starts:
        p[s], p[s + 1] = s + 1, s
    return tuple(p)


@pytest.mark.parametrize(
    "spec, order, message",
    [
        (GroupSpec.symmetric(6), 720, "group of order 720 exceeds the order cap 719"),
        (GroupSpec.alternating(6), 360, "group of order 360 exceeds the order cap 359"),
        (
            GroupSpec.permutation_generators([_TWENTY_CYCLE, _TWENTY_FLIP]),
            40,
            "generated group exceeds the order cap 39",
        ),
    ],
    ids=["S6", "A6", "degree20"],
)
def test_order_cap_boundary(spec, order, message):
    assert build_group(spec, cap=order).order == order
    with pytest.raises(OrderLimitError) as info:
        build_group(spec, cap=order - 1)
    assert str(info.value) == message


def test_invalid_specs_rejected():
    with pytest.raises(GroupSpecError):
        build_group(GroupSpec.quaternion(16))
    with pytest.raises(GroupSpecError):
        build_group(GroupSpec.symmetric(7))
    with pytest.raises(GroupSpecError):
        build_group(GroupSpec.permutation_generators([(0, 1, 1)]))


# -- sign homomorphisms -------------------------------------------------------


def test_kernel_of_cyclic2_is_trivial():
    t = build_group(GroupSpec.cyclic(2))
    lam = build_sign_hom(t, GroupSpec.cyclic(2), LambdaSpec(convention="onto-pm1"))
    emb = kernel_embedding(t, lam)
    assert emb.subgroup.order == 1
    assert coset_representatives(t, lam) == [1]


def test_kernel_of_symmetric3_sign_is_cyclic3():
    spec = GroupSpec.symmetric(3)
    t = build_group(spec)
    lam = build_sign_hom(t, spec, LambdaSpec(convention="sign"))
    emb = kernel_embedding(t, lam)
    assert emb.subgroup.order == 3
    assert sorted(emb.subgroup.classes.orders) == [1, 3, 3]  # cyclic of order 3
    assert len(coset_representatives(t, lam)) == 3


def test_kernel_of_dihedral4_reflection_sign_is_cyclic4():
    spec = GroupSpec.dihedral(4)
    t = build_group(spec)
    lam = build_sign_hom(t, spec, LambdaSpec(convention="reflection-sign"))
    emb = kernel_embedding(t, lam)
    assert emb.subgroup.order == 4
    assert max(emb.subgroup.classes.orders) == 4  # cyclic
    assert coset_representatives(t, lam) == [4, 5, 6, 7]


def test_kernel_is_normal_and_equals_positive_part():
    spec = GroupSpec.symmetric(4)
    t = build_group(spec)
    lam = build_sign_hom(t, spec, LambdaSpec(convention="sign"))
    emb = kernel_embedding(t, lam)
    h = set(emb.inclusion)
    assert h == {i for i in range(t.order) if lam.values[i] > 0}
    for g in range(t.order):
        for x in h:
            assert int(t.product[t.product[g, x], t.inverse[g]]) in h


_SIGN_SPECS = (
    [GroupSpec.symmetric(n) for n in range(1, 7)]
    + [GroupSpec.alternating(n) for n in range(1, 7)]
    + [
        GroupSpec.permutation_generators(gens)
        for gens in (
            [(1, 0, 2)],
            [(1, 2, 0)],
            [(1, 0, 2, 3), (0, 1, 3, 2)],
            [(1, 2, 3, 4, 0), (4, 3, 2, 1, 0)],
            [(1, 2, 3, 0), (0, 1, 3, 2)],
        )
    ]
)


@pytest.mark.parametrize("spec", _SIGN_SPECS, ids=lambda s: s.name)
def test_sign_convention_is_the_parity_of_every_element(spec):
    # Oracle: the parity of each element's permutation, in table order.
    parities = [groups._perm_parity(p) for p in oracle_perms(spec)]
    t = build_group(spec)
    if -1 not in parities:
        with pytest.raises(LambdaSpecError, match="'sign' is not surjective"):
            build_sign_hom(t, spec, LambdaSpec(convention="sign"))
        return
    lam = build_sign_hom(t, spec, LambdaSpec(convention="sign"))
    assert lam.values.tolist() == parities and lam.label == "sign"


def _signs_oracle(table, signs, label):
    """Reference: generator signs spread by a frontier BFS over table.product[x, g].

    Returns the values of the homomorphism, or the message it is refused with.
    """
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
        return "listed generators do not generate the group"
    for i, g in enumerate(table.generators):
        if vals[g] != signs[i]:
            return (
                f"generator_signs[{i}] = {signs[i]:+d} is not realised by a homomorphism: "
                f"generator {i} ({table.label(g)}) is a product of generators "
                f"with sign {int(vals[g]):+d}"
            )
    try:
        return make_sign_hom(table, vals, label).values.tolist()
    except LambdaSpecError as exc:
        return str(exc)


def test_generator_signs_match_the_frontier_bfs_oracle():
    # Repeated and identity generators: which of them the walk reaches first
    # decides the message of an unrealised sign.
    repeated = [
        GroupSpec.permutation_generators(gens)
        for gens in ([(0, 1), (1, 0)], [(1, 0, 2), (1, 0, 2), (1, 2, 0)],
                     [(1, 2, 0), (0, 1, 2), (2, 0, 1), (1, 2, 0)])
    ]
    specs = builtin_specs_upto(32) + list(_SIGN_SPECS) + repeated
    cases = 0
    for spec in specs:
        t = build_group(spec)
        for signs in itertools.product((1, -1), repeat=len(t.generators)):
            lam = LambdaSpec(generator_signs=signs)
            try:
                got = build_sign_hom(t, spec, lam).values.tolist()
            except LambdaSpecError as exc:
                got = str(exc)
            assert got == _signs_oracle(t, signs, lam.label), (spec.name, signs)
            cases += 1
    assert cases == 444  # every sign vector of every spec above


def test_named_conventions_match_their_closed_forms():
    # Oracle: each convention's values in closed form, in table order.
    cases = [
        (GroupSpec.cyclic(n), "onto-pm1", np.where(np.arange(n) % 2 == 0, 1, -1))
        for n in range(2, 65, 2)
    ]
    cases += [
        (GroupSpec.dihedral(n), "reflection-sign", np.where(np.arange(2 * n) < n, 1, -1))
        for n in range(2, 33)
    ]
    # Q8 presented as x^a y^b with index a + 4b.
    cases.append((GroupSpec.quaternion(8), "onto-pm1", np.where(np.arange(8) < 4, 1, -1)))
    for spec, conv, expected in cases:
        lam = build_sign_hom(build_group(spec), spec, LambdaSpec(convention=conv))
        assert lam.values.tolist() == expected.tolist() and lam.label == conv, spec.name


def test_lambda_must_be_surjective():
    t = build_group(GroupSpec.cyclic(3))
    with pytest.raises(LambdaSpecError):
        make_sign_hom(t, [1, 1, 1], "trivial")
    with pytest.raises(LambdaSpecError):
        build_sign_hom(t, GroupSpec.cyclic(3), LambdaSpec(convention="onto-pm1"))


def test_generator_signs_validated():
    spec = GroupSpec.cyclic(3)
    t = build_group(spec)
    with pytest.raises(LambdaSpecError):
        build_sign_hom(t, spec, LambdaSpec(generator_signs=(-1,)))
    spec = GroupSpec.dihedral(3)
    t = build_group(spec)
    lam = build_sign_hom(t, spec, LambdaSpec(generator_signs=(1, -1)))
    assert list(lam.values[:3]) == [1, 1, 1] and list(lam.values[3:]) == [-1, -1, -1]


def test_enumerate_sign_homs_counts():
    cases = [
        (GroupSpec.cyclic(2), 1),
        (GroupSpec.cyclic(12), 1),
        (GroupSpec.cyclic(3), 0),
        (GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2)), 3),
        (GroupSpec.quaternion(8), 3),
        (GroupSpec.dihedral(5), 1),
        (GroupSpec.dihedral(6), 3),
        (GroupSpec.symmetric(4), 1),
        (GroupSpec.alternating(5), 0),
    ]
    for spec, expected in cases:
        homs = enumerate_sign_homs(build_group(spec))
        assert len(homs) == expected, spec.name
        labels = [h.label for h in homs]
        assert len(set(labels)) == len(labels)


def _sign_hom_labels_oracle(spec, table) -> set[str]:
    """Labels of every surjection reached by trying each generator-sign tuple."""
    labels = set()
    for signs in itertools.product((1, -1), repeat=len(table.generators)):
        try:
            hom = build_sign_hom(table, spec, LambdaSpec(generator_signs=signs))
        except LambdaSpecError:
            continue
        mask = sum(1 << int(i) for i in hom.negative_indices())
        labels.add(f"neg:{mask:#x}")
    return labels


def _sign_hom_labels_loop_reference(t) -> list[str]:
    """Labels in enumeration order, by the coset and parity loops of the former code."""
    n, prod = t.order, t.product
    nsub = groups._subgroup_closure(t, np.diagonal(prod))
    coset_of = np.full(n, -1, dtype=np.int64)
    coset_reps = []
    for x in range(n):
        if coset_of[x] < 0:
            coset_of[prod[x, nsub]] = len(coset_reps)
            coset_reps.append(x)
    coords = {0: 0}
    basis = []
    for cid in range(len(coset_reps)):
        if cid in coords:
            continue
        bit = 1 << len(basis)
        basis.append(cid)
        for known, vec in list(coords.items()):
            combined = int(coset_of[prod[coset_reps[cid], coset_reps[known]]])
            if combined not in coords:
                coords[combined] = vec | bit
    elem_coords = [coords[int(c)] for c in coset_of]
    labels = []
    for eps in range(1, 1 << len(basis)):
        mask = sum(1 << x for x, c in enumerate(elem_coords) if bin(c & eps).count("1") % 2)
        labels.append(f"neg:{mask:#x}")
    return labels


def test_enumerate_sign_homs_matches_the_generator_sign_oracle():
    extra = [
        GroupSpec.symmetric(6),
        GroupSpec.direct_product(GroupSpec.symmetric(4), GroupSpec.cyclic(6)),
    ]
    for spec in builtin_specs_upto(64) + extra:
        t = build_group(spec)
        homs = enumerate_sign_homs(t)
        labels = [h.label for h in homs]
        assert set(labels) == _sign_hom_labels_oracle(spec, t), spec.name
        assert labels == _sign_hom_labels_loop_reference(t), spec.name
        for h in homs:
            mask = sum(1 << int(x) for x in h.negative_indices())
            assert h.label == f"neg:{mask:#x}", spec.name


def test_enumerated_homs_are_valid_and_complete_for_klein():
    t = build_group(GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2)))
    homs = enumerate_sign_homs(t)
    kernels_found = {tuple(sorted(int(i) for i in h.kernel_indices())) for h in homs}
    assert len(kernels_found) == 3  # the three index-2 subgroups


# -- catalogs -----------------------------------------------------------------


def test_abelian_factor_lists_known_counts():
    # number of abelian groups of order n = product of partition counts
    assert len(abelian_factor_lists(1)) == 1
    assert len(abelian_factor_lists(8)) == 3
    assert len(abelian_factor_lists(16)) == 5
    assert len(abelian_factor_lists(32)) == 7
    assert len(abelian_factor_lists(36)) == 4
    assert len(abelian_factor_lists(30)) == 1


def test_abelian_specs_cover_all_types_up_to_32():
    specs = abelian_specs_upto(32)
    expected = sum(len(abelian_factor_lists(n)) for n in range(1, 33))
    assert len(specs) == expected
    for spec in specs:
        assert build_group(spec).is_abelian()


def test_builtin_catalog_orders_within_bound():
    for spec in builtin_specs_upto(24):
        assert build_group(spec).order <= 24


# -- JSON specs ---------------------------------------------------------------


def test_parse_group_document_families():
    spec, lam = parse_group_document({"family": "S", "n": 3, "lambda": {"convention": "sign"}})
    assert spec == GroupSpec.symmetric(3)
    assert lam.convention == "sign"
    spec, lam = parse_group_document({"generators": [[1, 0, 2]], "lambda": {"generator_signs": [-1]}})
    assert spec.kind == "permutation_generators"
    assert lam.generator_signs == (-1,)
    spec, lam = parse_group_document(
        {"family": "product", "factors": [{"family": "C", "n": 2}, {"family": "C", "n": 4}]}
    )
    assert spec.name == "C2xC4" and lam is None


def test_parse_group_document_errors_name_fields():
    with pytest.raises(GroupSpecError, match="family"):
        parse_group_document({"n": 3})
    with pytest.raises(GroupSpecError, match="'n'"):
        parse_group_document({"family": "C"})
    with pytest.raises(GroupSpecError, match="factors"):
        parse_group_document({"family": "product", "factors": [{"family": "C", "n": 2}]})
    with pytest.raises(GroupSpecError, match="lambda"):
        parse_group_document({"family": "C", "n": 2, "lambda": {}})
    with pytest.raises(GroupSpecError, match="group spec takes 'family' or 'generators', not both"):
        parse_group_document({"family": "C", "n": 4, "generators": [[1, 0]]})
    with pytest.raises(
        GroupSpecError, match="field 'lambda' takes 'convention' or 'generator_signs', not both"
    ):
        lam = {"convention": "onto-pm1", "generator_signs": [1]}
        parse_group_document({"family": "C", "n": 4, "lambda": lam})
    for convention in (None, 5):
        with pytest.raises(
            GroupSpecError,
            match=f"field 'lambda.convention' must be a string, got {convention!r}",
        ):
            doc = {"family": "C", "n": 2, "lambda": {"convention": convention}}
            parse_group_document(doc)


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.symmetric(5),
        GroupSpec.alternating(5),
        GroupSpec.symmetric(6),
        GroupSpec.alternating(6),
        GroupSpec.permutation_generators([_TWENTY_CYCLE, _TWENTY_FLIP]),
        GroupSpec.symmetric(1),
        GroupSpec.symmetric(2),
        GroupSpec.alternating(1),
        GroupSpec.alternating(2),
        GroupSpec.alternating(3),
        GroupSpec.permutation_generators([()]),
        GroupSpec.permutation_generators([(1, 0, 2), (1, 2, 0), (1, 0, 2)]),
        GroupSpec.permutation_generators([(0, 1, 2, 3), (1, 0, 3, 2), (0, 1, 2, 3), (2, 3, 0, 1)]),
        GroupSpec.permutation_generators(list(itertools.permutations(range(4)))[::-1]),
        GroupSpec.permutation_generators([(0, 4, 2, 3, 1, 5, 6, 8, 7), (0, 1, 2, 3, 6, 5, 8, 7, 4)]),
        GroupSpec.permutation_generators([_block_swaps(60, (5, 30)), _block_swaps(60, (30, 58))]),
    ],
    ids=[
        "S5", "A5", "S6", "A6", "degree20", "S1", "S2", "A1", "A2", "A3",
        "degree0", "repeat", "identity", "every-element", "fixed-points", "wide",
    ],
)
def test_build_group_matches_compose_oracle(spec):
    perms = oracle_perms(spec)
    index = {p: i for i, p in enumerate(perms)}
    t = build_group(spec)
    assert t.product.tolist() == [[index[compose(p, q)] for q in perms] for p in perms]
    assert tuple(t.label(x) for x in range(t.order)) == tuple(
        groups._cycle_notation(p) for p in perms
    )
    assert t.generators == tuple(index[g] for g in groups._generator_perms(spec))


def test_one_cycle_walk_gives_parity_and_notation():
    for p in itertools.permutations(range(5)):
        inversions = sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5))
        assert groups._perm_parity(p) == (-1) ** inversions
    assert groups._cycle_notation((1, 2, 0, 4, 3, 5)) == "(0 1 2)(3 4)"
    assert groups._cycle_notation((3, 1, 0, 2)) == "(0 3 2)"
    assert groups._cycle_notation((0, 1, 2)) == groups._cycle_notation(()) == "()"
    assert groups._perm_parity(()) == 1


def test_a_wide_generated_group_closes_on_its_moved_points():
    """C2^10 given by 100 generators of degree 2000, each a product of some of
    the swaps (2i 2i+1), i < 10: 1980 points are fixed by every generator,
    and the labels still name the original points."""
    rng = np.random.default_rng(2000)
    gens = [_block_swaps(2000, 2 * np.flatnonzero(rng.integers(0, 2, 10))) for _ in range(100)]
    t = build_group(GroupSpec.permutation_generators(gens))
    assert t.order == 1024 and t.is_abelian()
    assert [t.label(g) for g in t.generators] == [groups._cycle_notation(g) for g in gens]


def test_degree_zero_generators_give_the_trivial_group():
    t = build_group(GroupSpec.permutation_generators([()]))
    assert t.order == 1 and t.product.tolist() == [[0]] and t.generators == (0,)


def _loop_table(order, law):
    """Oracle: the product table filled one entry at a time from a multiplication law."""
    expect = np.empty((order, order), dtype=np.int64)
    for a in range(order):
        for b in range(order):
            expect[a, b] = law(a, b)
    return expect


@pytest.mark.parametrize("n", [2, 3, 8, 17])
def test_dihedral_table_matches_relation_loop_oracle(n):
    # Index k*n + i encodes s^k r^i; r^i * s r^j = s r^(j-i) and s r^i * s r^j = r^(j-i).
    def law(a, b):
        fa, ia = divmod(a, n)
        fb, ib = divmod(b, n)
        jj = (ib - ia) % n if fb == 1 else (ia + ib) % n
        return ((fa + fb) % 2) * n + jj

    assert np.array_equal(build_group(GroupSpec.dihedral(n)).product, _loop_table(2 * n, law))


@pytest.mark.parametrize(
    "a, b",
    [
        (GroupSpec.symmetric(4), GroupSpec.cyclic(6)),
        (GroupSpec.cyclic(2), GroupSpec.dihedral(5)),
        (GroupSpec.quaternion(8), GroupSpec.symmetric(3)),
    ],
    ids=["S4xC6", "C2xD5", "Q8xS3"],
)
def test_direct_product_table_matches_pair_loop_oracle(a, b):
    # Index x * |B| + y encodes the pair (x, y); pairs multiply componentwise.
    ta, tb = build_group(a), build_group(b)

    def law(u, v):
        (x1, y1), (x2, y2) = divmod(u, tb.order), divmod(v, tb.order)
        return ta.product[x1, x2] * tb.order + tb.product[y1, y2]

    table = build_group(GroupSpec.direct_product(a, b))
    assert np.array_equal(table.product, _loop_table(ta.order * tb.order, law))


def test_conjugacy_classes_match_the_all_pairs_conjugation():
    """Each element's class representative is its least conjugate, as the
    [x, g] table of every x^-1 g x gives it, on the builtins of order <= 64
    (A5 among them), their kernels, S6, A6, D512, C1024, S5 and the
    degree-20 group."""
    tables = []
    for spec in builtin_specs_upto(64):
        t = build_group(spec)
        tables += [t] + [kernel_embedding(t, lam).subgroup for lam in enumerate_sign_homs(t)]
    tables += [build_group(GroupSpec.symmetric(6)), build_group(GroupSpec.alternating(6))]
    tables += [build_group(GroupSpec.dihedral(512)), build_group(GroupSpec.cyclic(1024))]
    tables += [build_group(GroupSpec.symmetric(5)), build_group(_DEGREE_TWENTY)]
    for t in tables:
        g = np.arange(t.order, dtype=np.int64)
        least = t.conjugate(g[:, None], g[None, :]).min(axis=0)
        cls = conjugacy_classes(t)
        assert np.array_equal(np.asarray(cls.representatives)[cls.class_of], least), t.name


# The groups whose recorded generators the orbit routes rely on.
_GENERATED_SPECS = [
    *builtin_specs_upto(64),
    *(GroupSpec.symmetric(n) for n in (1, 2, 5, 6)),
    *(GroupSpec.alternating(n) for n in (1, 2, 3, 5, 6)),
    _DEGREE_TWENTY,
    GroupSpec.dihedral(512),
    GroupSpec.cyclic(1024),
]


def test_recorded_generators_generate_the_group():
    """`generators` is a generating set: the Cayley graph on it reaches every
    element of every group and of every kernel, whose Schreier generators
    are neither the identity nor repeated; and `is_abelian`, which reads the
    generators alone, agrees with the transpose compare on all of them."""
    for spec in _GENERATED_SPECS:
        t = build_group(spec)
        tables = [t] + [kernel_embedding(t, lam).subgroup for lam in enumerate_sign_homs(t)]
        for k in tables:
            gens = np.asarray(k.generators, dtype=np.int64)
            assert groups._walk(k.product[:, gens])[1].all(), k.name
            assert k.is_abelian() == transpose_abelian(k), k.name
        for k in tables[1:]:
            assert k.identity not in k.generators, k.name
            assert len(set(k.generators)) == len(k.generators), k.name
            assert k.generators or k.order == 1, k.name


def _with_kernels(specs):
    """(table, eager labels) for each spec's group and each of its kernels."""
    out = []
    for spec in specs:
        t, labels = build_group(spec), eager_labels(spec)
        out.append((t, labels))
        for lam in enumerate_sign_homs(t):
            emb = kernel_embedding(t, lam)
            out.append((emb.subgroup, tuple(labels[i] for i in emb.inclusion)))
    return out


def test_every_builder_inverts_as_the_product_table_does():
    """Each builder's inverse (closed forms, inverse permutations, factor
    pairs, kernel restriction) equals the |G| x |G| scan of its table."""
    specs = [
        *builtin_specs_upto(64),
        GroupSpec.symmetric(6),
        GroupSpec.alternating(6),
        GroupSpec.dihedral(512),
        GroupSpec.cyclic(1024),
        _DEGREE_TWENTY,
        GroupSpec.direct_product(GroupSpec.quaternion(8), GroupSpec.symmetric(3)),
    ]
    for t, _ in _with_kernels(specs):
        assert np.array_equal(t.inverse, inverse_from_product(t.product)), t.name


def test_labels_on_demand_match_the_eager_reference():
    """label(x) renders what the eager reference lists for x, on every group
    family, nonabelian products and kernels."""
    specs = [
        *builtin_specs_upto(64),
        GroupSpec.symmetric(6),
        GroupSpec.dihedral(512),
        GroupSpec.direct_product(GroupSpec.quaternion(8), GroupSpec.symmetric(3)),
        GroupSpec.direct_product(GroupSpec.symmetric(4), GroupSpec.dihedral(4)),
        GroupSpec.direct_product(GroupSpec.cyclic(3), _DEGREE_TWENTY),
    ]
    for t, labels in _with_kernels(specs):
        assert tuple(t.label(x) for x in range(t.order)) == labels, t.name


@pytest.mark.parametrize(
    "spec, kernels",
    [
        (GroupSpec.symmetric(6), 1),
        (GroupSpec.alternating(6), 0),
        (GroupSpec.symmetric(5), 1),
        (GroupSpec.symmetric(4), 1),
        (GroupSpec.dihedral(512), 2),
        (_DEGREE_TWENTY, 2),
    ],
    ids=["S6", "A6", "S5", "S4", "D512", "degree20"],
)
def test_generator_orbit_classes_match_the_all_pairs_gather(spec, kernels):
    """Classes from conjugation by the generators equal those of the gather
    of every x^-1 g x, on the group and on its nonabelian kernels (A6 < S6,
    A5 < S5, A4 < S4, two D256 < D512 and two of order 20 in the degree-20
    group), which conjugate by their Schreier generators."""
    table = build_group(spec)
    subs = [kernel_embedding(table, lam).subgroup for lam in enumerate_sign_homs(table)]
    nonabelian = [sub for sub in subs if not transpose_abelian(sub)]
    assert len(nonabelian) == kernels
    for t in [table, *nonabelian]:
        assert t.generators and not t.is_abelian(), t.name
        _assert_same_classes(t.classes, all_pairs_classes(t))
