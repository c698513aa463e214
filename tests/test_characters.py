"""Character tables and representation-ring operations against scalar oracles.

The oracles here use only the scalar Cyclotomic class and elementwise sums,
never the batched kernel engine, so the two arithmetic paths check each other.
"""

import numpy as np
import pytest

from conftest import (
    class_members,
    dense_mul,
    dense_values,
    group_with_lambda,
    s1_action_by_products,
    two_gram_failures,
)
from ksphere import characters
from ksphere.characters import (
    CharacterTheoryError,
    VirtualCharacter,
    _assemble_table,
    _embedded_values,
    _index_form,
    character_table,
    conjugate_twist,
    decompose_values,
    g_orbits_on_irr,
    inner_product,
    induce,
    involution_orbits,
    lambda_context,
    restrict,
    restrict_values,
    row_permutation,
    table_invariant_failures,
    tensor_product,
    twist_class_map,
    twist_permutation,
    values_of_coeffs,
)
from ksphere.cyclotomic import Cyclotomic, get_ring
from ksphere.groups import (
    GroupSpec,
    SubgroupEmbedding,
    build_group,
    builtin_specs_upto,
    enumerate_sign_homs,
    kernel_embedding,
)
from ksphere.ktheory import k_group_s1_lambda
from ksphere.verification import _element_induction_matrix, corrupt_table


def scalar_values(vc: VirtualCharacter):
    """Per-element values of a virtual character via scalar arithmetic only."""
    table = vc.table
    m = table.modulus
    cls = table.classes
    out = []
    for x in range(table.order):
        j = int(cls.class_of[x])
        total = Cyclotomic.integer(m, 0)
        for c, coeff in enumerate(vc.coeffs):
            if coeff:
                total = total + table.irreducibles[c].values[j] * coeff
        out.append(total)
    return out


def scalar_inner_over_elements(table, avals, bvals):
    """Oracle <a, b> = |G|^-1 sum_x a(x) conj(b(x)) with scalar cyclotomics."""
    m = max(v.modulus for v in avals + bvals)
    total = Cyclotomic.integer(m, 0)
    for a, b in zip(avals, bvals):
        total = total + a.embed(m) * b.embed(m).conjugate()
    return total.divide_exact(table.order)


def frobenius_induced_values(emb, hvals):
    """Oracle: ind(f)(g) = |H|^-1 sum_{x in G, x^-1 g x in H} f(x^-1 g x)."""
    g = emb.ambient
    m_g = character_table(g).modulus
    pos = {amb: i for i, amb in enumerate(emb.inclusion)}
    out = []
    for gg in range(g.order):
        total = Cyclotomic.integer(m_g, 0)
        for x in range(g.order):
            conj = int(g.product[g.product[g.inverse[x], gg], x])
            if conj in pos:
                total = total + hvals[pos[conj]].embed(m_g)
        out.append(total.divide_exact(emb.subgroup.order))
    return out


# -- tables -------------------------------------------------------------------


def test_virtual_character_coefficients_are_python_ints_of_checked_length():
    table = character_table(build_group(GroupSpec.symmetric(3)))
    for coeffs in (np.array([1, -2, 3]), [np.int64(1), -2, 3], (1.0, -2.0, 3.0)):
        chi = VirtualCharacter(table, coeffs)
        assert chi.coeffs == (1, -2, 3) and {type(c) for c in chi.coeffs} == {int}
    with pytest.raises(ValueError, match="coefficient vector length mismatch"):
        VirtualCharacter(table, np.array([1, 2]))


def test_cyclic3_table_rows_exactly():
    t = build_group(GroupSpec.cyclic(3))
    tab = character_table(t)
    w = Cyclotomic.zeta(3)
    one = Cyclotomic.integer(3, 1)
    rows = [tuple(cf.values) for cf in tab.irreducibles]
    assert rows[0] == (one, one, one)
    assert rows[1] == (one, w, w * w)
    assert rows[2] == (one, w * w, w)


def test_symmetric3_table():
    t = build_group(GroupSpec.symmetric(3))
    tab = character_table(t)
    assert tab.degrees == (1, 1, 2)
    two_row = [v.as_int() for v in tab.irreducibles[2].values]
    assert two_row == [2, 0, -1]  # classes: identity, transpositions, 3-cycles


def test_quaternion_degrees():
    tab = character_table(build_group(GroupSpec.quaternion(8)))
    assert tab.degrees == (1, 1, 1, 1, 2)
    assert sum(d * d for d in tab.degrees) == 8


def test_tables_are_deterministic():
    a = character_table(build_group(GroupSpec.dihedral(6)))
    b = character_table(build_group(GroupSpec.dihedral(6)))
    assert np.array_equal(dense_values(a), dense_values(b))
    assert a.degrees == b.degrees


def test_canonical_order_matches_sorted_key_oracle():
    """Ascending degree, then descending values row-major; equal rows keep their order."""
    rng = np.random.default_rng(11)
    for trial in range(200):
        k, phi = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        degrees = rng.integers(1, 4, size=k).tolist()
        values = rng.integers(-2, 3, size=(k, k, phi)).astype(np.int64)
        if k > 2 and trial % 2:
            values[2], degrees[2] = values[0], degrees[0]
        expect = sorted(
            range(k),
            key=lambda c: (degrees[c], tuple(int(-v) for v in values[c].reshape(-1))),
        )
        distinct, which = characters._index_form(values)
        assert characters._canonical_order(degrees, distinct, which).tolist() == expect


@pytest.mark.parametrize("n", range(1, 13))
def test_cyclic_tables_pass_scalar_orthogonality(n):
    tab = character_table(build_group(GroupSpec.cyclic(n)))
    for i in range(tab.count):
        for j in range(tab.count):
            ip = inner_product(tab.irreducibles[i], tab.irreducibles[j])
            assert ip == Cyclotomic.integer(tab.modulus, 1 if i == j else 0)


def test_symmetric4_table_passes_scalar_orthogonality():
    tab = character_table(build_group(GroupSpec.symmetric(4)))
    assert tab.degrees == (1, 1, 2, 3, 3)
    for i in range(tab.count):
        for j in range(i, tab.count):
            ip = inner_product(tab.irreducibles[i], tab.irreducibles[j])
            assert ip.is_rational_integer and ip.as_int() == (1 if i == j else 0)


# -- inner products -----------------------------------------------------------


def test_inner_product_examples():
    t = build_group(GroupSpec.symmetric(3))
    tab = character_table(t)
    trivial = VirtualCharacter.unit(tab, tab.trivial_index)
    regular = VirtualCharacter(tab, tab.degrees)
    ip = inner_product(trivial.as_class_function(), regular.as_class_function())
    assert ip.as_int() == 1
    two = VirtualCharacter.unit(tab, 2)
    vals = scalar_values(two)
    oracle = scalar_inner_over_elements(tab, vals, vals)
    assert oracle.as_int() == 1
    assert inner_product(two.as_class_function(), two.as_class_function()).as_int() == 1


def test_inner_product_rejects_mismatched_groups():
    a = character_table(build_group(GroupSpec.cyclic(3)))
    b = character_table(build_group(GroupSpec.cyclic(4)))
    with pytest.raises(CharacterTheoryError):
        inner_product(a.irreducibles[0], b.irreducibles[0])


# -- restriction --------------------------------------------------------------


def test_restrict_trivial_is_trivial():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    emb = kernel_embedding(t, lam)
    tab_g = character_table(t)
    tab_h = character_table(emb.subgroup)
    res = restrict(VirtualCharacter.unit(tab_g, tab_g.trivial_index), emb)
    assert res == VirtualCharacter.unit(tab_h, tab_h.trivial_index)


def test_restrict_degree2_of_s3_splits_into_both_nontrivial():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    emb = kernel_embedding(t, lam)
    tab_g = character_table(t)
    res = restrict(VirtualCharacter.unit(tab_g, 2), emb)
    assert res.coeffs == (0, 1, 1)


def test_restrict_lambda_character_is_trivial():
    for spec, conv in [
        (GroupSpec.symmetric(3), "sign"),
        (GroupSpec.dihedral(4), "reflection-sign"),
        (GroupSpec.cyclic(6), "onto-pm1"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        ctx = lambda_context(t, lam)
        lam_chi = VirtualCharacter.unit(ctx.table_g, characters.lambda_index(ctx.table_g, lam))
        res = restrict(lam_chi, ctx.emb)
        assert res == VirtualCharacter.unit(ctx.table_h, ctx.table_h.trivial_index)


# -- induction ----------------------------------------------------------------


def test_induce_matches_frobenius_oracle():
    for spec, conv in [
        (GroupSpec.symmetric(3), "sign"),
        (GroupSpec.dihedral(4), "reflection-sign"),
        (GroupSpec.quaternion(8), "onto-pm1"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        emb = kernel_embedding(t, lam)
        tab_h = character_table(emb.subgroup)
        for c in range(tab_h.count):
            chi = VirtualCharacter.unit(tab_h, c)
            ind = induce(chi, emb)
            got = scalar_values(ind)
            hvals = scalar_values(chi)
            expect = frobenius_induced_values(emb, hvals)
            assert got == expect


def test_embedding_transfer_data_matches_element_oracles():
    """position, class_map and induction_weights on every builtin (group, lambda) up to 32."""
    for spec in builtin_specs_upto(32):
        group = build_group(spec)
        cls_g = group.classes
        for lam in enumerate_sign_homs(group):
            ctx = lambda_context(group, lam)
            emb = ctx.emb
            cls_h = emb.subgroup.classes
            members_g = class_members(cls_g)
            pos = {int(x): e for e, x in enumerate(emb.inclusion)}
            assert emb.position.tolist() == [pos.get(x, -1) for x in range(group.order)]
            assert emb.class_map.tolist() == [
                next(a for a, c in enumerate(members_g) if int(emb.inclusion[h[0]]) in c)
                for h in class_members(cls_h)
            ]
            # Element rows of the transfer matrix, summed into H-class columns,
            # give the row of that element's G-class.
            onehot = np.eye(cls_h.count, dtype=np.int64)[cls_h.class_of]
            assert np.array_equal(
                _element_induction_matrix(ctx) @ onehot, emb.induction_weights[cls_g.class_of]
            )


def test_induce_trivial_is_trivial_plus_lambda():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    ctx = lambda_context(t, lam)
    ind = induce(VirtualCharacter.unit(ctx.table_h, ctx.table_h.trivial_index), ctx.emb)
    expect = [0] * ctx.table_g.count
    expect[ctx.table_g.trivial_index] += 1
    expect[characters.lambda_index(ctx.table_g, lam)] += 1
    assert list(ind.coeffs) == expect


def test_induce_omega_of_cyclic3_is_degree2():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    ctx = lambda_context(t, lam)
    ind = induce(VirtualCharacter.unit(ctx.table_h, 1), ctx.emb)
    assert ind.coeffs == (0, 0, 1)
    vals = [v.as_int() for v in ind.as_class_function().values]
    assert vals == [2, 0, -1]


def test_induce_regular_is_regular():
    t, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    ctx = lambda_context(t, lam)
    reg_h = VirtualCharacter(ctx.table_h, ctx.table_h.degrees)
    ind = induce(reg_h, ctx.emb)
    assert ind.coeffs == ctx.table_g.degrees


def test_frobenius_reciprocity_property():
    for spec, conv in [
        (GroupSpec.symmetric(3), "sign"),
        (GroupSpec.dihedral(6), "reflection-sign"),
        (GroupSpec.cyclic(2), "onto-pm1"),
        (GroupSpec.quaternion(8), "onto-pm1"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        ctx = lambda_context(t, lam)
        for i in range(ctx.table_h.count):
            ind = induce(VirtualCharacter.unit(ctx.table_h, i), ctx.emb)
            for a in range(ctx.table_g.count):
                res = restrict(VirtualCharacter.unit(ctx.table_g, a), ctx.emb)
                assert ind.coeffs[a] == res.coeffs[i]


# -- twist ----------------------------------------------------------------


def test_twist_by_subgroup_element_fixes_everything():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    ctx = lambda_context(t, lam)
    for h_amb in ctx.emb.inclusion:
        for c in range(ctx.table_h.count):
            chi = VirtualCharacter.unit(ctx.table_h, c)
            assert conjugate_twist(chi, ctx.emb, h_amb) == chi


def test_twist_by_identity_fixes_everything():
    t, lam = group_with_lambda(GroupSpec.dihedral(5), "reflection-sign")
    ctx = lambda_context(t, lam)
    chi = VirtualCharacter(ctx.table_h, tuple(range(ctx.table_h.count)))
    assert conjugate_twist(chi, ctx.emb, 0) == chi


def test_twist_swaps_omega_characters_of_cyclic3():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    ctx = lambda_context(t, lam)
    b = ctx.cosets[0]
    omega = VirtualCharacter.unit(ctx.table_h, 1)
    omega2 = VirtualCharacter.unit(ctx.table_h, 2)
    assert conjugate_twist(omega, ctx.emb, b) == omega2
    assert conjugate_twist(omega2, ctx.emb, b) == omega


def test_twist_class_map_rejects_outside_elements_and_a_non_normal_subgroup():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    emb = lambda_context(t, lam).emb
    for g in (-1, t.order):
        with pytest.raises(CharacterTheoryError, match="not in the ambient group"):
            twist_class_map(emb, g)
    # <(0 1)> in S3: a 3-cycle conjugates (0 1) out of it.
    labels = [t.label(x) for x in range(t.order)]
    emb = SubgroupEmbedding(build_group(GroupSpec.cyclic(2)), [0, labels.index("(0 1)")], t)
    with pytest.raises(CharacterTheoryError, match="not normal"):
        twist_class_map(emb, labels.index("(0 1 2)"))


def test_twist_is_involution_and_b_independent():
    for spec, conv in [
        (GroupSpec.dihedral(6), "reflection-sign"),
        (GroupSpec.quaternion(8), "onto-pm1"),
        (GroupSpec.symmetric(4), "sign"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        ctx = lambda_context(t, lam)
        sigma = ctx.twist
        assert np.array_equal(sigma[sigma], np.arange(ctx.table_h.count))
        for b in ctx.cosets:
            assert np.array_equal(twist_permutation(ctx.emb, b), sigma)


def test_row_permutation_rejects_a_duplicated_and_a_missing_row():
    table = character_table(build_group(GroupSpec.dihedral(4)))
    k = table.count
    shuffled = np.arange(k)[::-1].copy()
    assert np.array_equal(row_permutation(table, table.which[shuffled]), shuffled)
    duplicated = table.which[[0] + list(range(k - 1))]
    with pytest.raises(CharacterTheoryError, match="not a permutation"):
        row_permutation(table, duplicated)
    missing = table.which.copy()
    missing[k - 1, 0] = -1  # a value the table does not have
    with pytest.raises(CharacterTheoryError, match="not a permutation"):
        row_permutation(table, missing)


def test_integer_row_lookup_finds_shuffled_rows_and_rejects_bad_ones():
    group, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    table = character_table(group)
    k = table.count
    sign = characters.lambda_index(table, lam)
    # Rows are found wherever they are, by the bytes of the whole integer row.
    rng = np.random.default_rng(4)
    for _ in range(10):
        shuffled = rng.permutation(k)
        assert np.array_equal(row_permutation(table, table.which[shuffled]), shuffled)
    assert characters.lambda_index(table, lam) == sign
    assert characters._find_rows(table._which_keys, table.which).tolist() == list(range(k))
    # A row that differs from a row of the table in one entry is not found.
    corrupted = table.which.copy()
    corrupted[0, k - 1] = (corrupted[0, k - 1] + 1) % len(table.distinct)
    assert characters._find_rows(table._which_keys, corrupted[0]) == -1
    for bad in (corrupted, table.which[[0] * k]):
        with pytest.raises(CharacterTheoryError, match="not a permutation"):
            row_permutation(table, bad)
    missing = table.which.copy()
    missing[1, 1] = len(table.distinct)
    with pytest.raises(CharacterTheoryError, match="not a permutation"):
        row_permutation(table, missing)
    # A table whose rows repeat: the lookup finds the first of the two.
    values = dense_values(table)[[2, 0, 0, 3, 4]]
    duplicated = _assemble_table(
        group, table.classes, table.degrees, *_index_form(values), table.modulus
    )
    assert characters._find_rows(duplicated._which_keys, duplicated.which[2]) == 1
    with pytest.raises(CharacterTheoryError, match="not a permutation"):
        row_permutation(duplicated, duplicated.which)


def test_involution_orbits_lists_fixed_points_and_pairs_and_rejects_a_3_cycle():
    data = involution_orbits(np.array([0, 3, 2, 1, 5, 4]))
    assert data.orbits == ((0,), (1, 3), (2,), (4, 5))
    assert data.isotropy == ("G", "H", "G", "H")
    assert data.representatives == (0, 1, 2, 4)
    assert data.pairs == ((1, 3), (4, 5)) and data.fixed == (0, 2)
    with pytest.raises(CharacterTheoryError, match="not an involution"):
        involution_orbits(np.array([1, 2, 0, 3]))


def test_twist_matches_brute_value_permutation():
    t, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    ctx = lambda_context(t, lam)
    b = ctx.b
    binv = int(t.inverse[b])
    pos = {amb: i for i, amb in enumerate(ctx.emb.inclusion)}
    for c in range(ctx.table_h.count):
        chi = ctx.table_h.irreducibles[c]
        twisted_idx = int(ctx.twist[c])
        twisted = ctx.table_h.irreducibles[twisted_idx]
        for i, rep in enumerate(ctx.table_h.classes.representatives):
            amb = ctx.emb.inclusion[rep]
            conj = pos[int(t.product[t.product[binv, amb], b])]
            j = int(ctx.table_h.classes.class_of[conj])
            assert twisted.values[i] == chi.values[j]


# -- orbits ---------------------------------------------------------------


def test_abelian_orbits_all_fixed():
    t, lam = group_with_lambda(GroupSpec.cyclic(8), "onto-pm1")
    data = g_orbits_on_irr(t, lam)
    assert all(iso == "G" for iso in data.isotropy)
    assert all(len(o) == 1 for o in data.orbits)


def test_symmetric3_orbits():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    data = g_orbits_on_irr(t, lam)
    assert data.orbits == ((0,), (1, 2))
    assert data.isotropy == ("G", "H")
    assert data.representatives == (0, 1)


def test_dihedral4_orbits():
    t, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    data = g_orbits_on_irr(t, lam)
    fixed = [o[0] for o, iso in zip(data.orbits, data.isotropy) if iso == "G"]
    swapped = [o for o, iso in zip(data.orbits, data.isotropy) if iso == "H"]
    assert len(fixed) == 2 and len(swapped) == 1
    assert len(swapped[0]) == 2


# -- ring products ---------------------------------------------------------


def test_tensor_product_matches_scalar_values():
    tab = character_table(build_group(GroupSpec.symmetric(4)))
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = VirtualCharacter(tab, tuple(rng.integers(-3, 4, tab.count)))
        b = VirtualCharacter(tab, tuple(rng.integers(-3, 4, tab.count)))
        prod = tensor_product(a, b)
        va, vb, vp = scalar_values(a), scalar_values(b), scalar_values(prod)
        assert all(x * y == z for x, y, z in zip(va, vb, vp))


def test_tensor_product_rejects_cross_table():
    a = character_table(build_group(GroupSpec.cyclic(3)))
    b = character_table(build_group(GroupSpec.cyclic(4)))
    with pytest.raises(CharacterTheoryError):
        tensor_product(VirtualCharacter.unit(a, 0), VirtualCharacter.unit(b, 0))


def test_virtual_character_algebra():
    tab = character_table(build_group(GroupSpec.dihedral(4)))
    a = VirtualCharacter(tab, (1, 0, -2, 0, 1))
    b = VirtualCharacter(tab, (0, 1, 1, 0, 0))
    assert (a + b) - b == a
    assert (-a).coeffs == tuple(-c for c in a.coeffs)
    assert (a * b).degree() == a.degree() * b.degree()


# -- certificate and decomposition in the evaluation domain ------------------


def dense_decompose(table, varr, ring):
    """Oracle: the power-basis contraction against the dense mul tensor, divided by |G|."""
    sizes = np.asarray(table.classes.class_sizes, dtype=np.int64)
    weighted = (_embedded_values(table, ring) @ ring.conj) * sizes[None, :, None]
    at = np.einsum("ijq,pqr->ijpr", weighted, dense_mul(ring))
    x = np.einsum("bjp,ijpr->bir", np.asarray(varr, dtype=np.int64), at)
    assert not np.any(x[..., 1:]) and not np.any(x[..., 0] % table.order)
    return x[..., 0] // table.order


def _prime_spy(monkeypatch):
    """Record (modulus, bound, primes) of every prime_count call in characters."""
    calls = []
    real = characters.prime_count

    def spy(m, bound):
        count = real(m, bound)
        calls.append((m, bound, count))
        return count

    monkeypatch.setattr(characters, "prime_count", spy)
    return calls


CERTIFIED = [
    GroupSpec.cyclic(5),
    GroupSpec.symmetric(3),
    GroupSpec.dihedral(17),
    GroupSpec.dihedral(31),
]


@pytest.mark.parametrize("spec", CERTIFIED, ids=lambda s: f"{s.kind}{s.n}")
def test_certificate_reports_both_orthogonality_failures(spec, monkeypatch):
    tab = character_table(build_group(spec))
    calls = _prime_spy(monkeypatch)
    assert table_invariant_failures(tab) == []
    assert len(calls) == 1
    if spec == GroupSpec.dihedral(31):
        assert calls[0][2] == 2  # the certificate bound needs two primes
    # Coefficient 0 of chi_1 at class 1, then coefficient 1 of chi_2 at class 1.
    shifted = dense_values(tab)
    shifted[2, 1, 1] += 1
    corrupted = [
        corrupt_table(tab, 1, 1),
        _assemble_table(tab, tab.classes, tab.degrees, *_index_form(shifted), tab.modulus),
    ]
    for bad in corrupted:
        failures = table_invariant_failures(bad)
        assert any(f.startswith("row orthogonality fails at character pairs") for f in failures)
        assert two_gram_failures(bad)[1].any()  # the column relation the row one implies fails too


def test_trivial_and_lambda_rows_match_the_loop_reference():
    for spec in builtin_specs_upto(16):
        group = build_group(spec)
        if group.order == 1:
            continue  # one class: corrupt_table has no class 1 to perturb
        tab = character_table(group)
        values = dense_values(tab)
        trivial = np.zeros_like(values[0])
        trivial[:, 0] = 1
        loop = next((c for c in range(tab.count) if np.array_equal(values[c], trivial)), -1)
        assert tab.trivial_index == loop >= 0
        bad = corrupt_table(tab, tab.trivial_index, 1)
        assert bad.trivial_index == -1
        assert "trivial character missing" in table_invariant_failures(bad)
        for lam in enumerate_sign_homs(group):
            row = np.zeros_like(trivial)
            for j, rep in enumerate(tab.classes.representatives):
                row[j, 0] = int(lam.values[rep])
            assert np.array_equal(values[characters.lambda_index(tab, lam)], row)


def test_certificate_names_the_corrupted_pairs():
    tab = character_table(build_group(GroupSpec.symmetric(3)))
    bad = corrupt_table(tab, 2, 1)
    failures = table_invariant_failures(bad)
    pairs = "(0,2), (1,2), (2,0), (2,1), (2,2)"
    assert f"row orthogonality fails at character pairs {pairs}" in failures
    # The column relation fails at these class pairs, and only the reference names them.
    col_pairs = [[0, 1], [1, 0], [1, 1], [1, 2], [2, 1]]
    assert np.argwhere(two_gram_failures(bad)[1]).tolist() == col_pairs
    assert not any(f.startswith("column") for f in failures)


def _one_value_corruptions(table):
    """Every copy of the table with coefficient 0 or 1 of one value moved by +-1."""
    values = dense_values(table)
    for c, j in np.ndindex(table.count, table.count):
        for e in range(min(2, table.ring.phi)):
            for delta in (1, -1):
                shifted = values.copy()
                shifted[c, j, e] += delta
                yield _assemble_table(
                    table, table.classes, table.degrees, *_index_form(shifted), table.modulus
                )


def test_the_row_gram_rejects_exactly_what_both_grams_reject():
    """On a square table the row relation implies the column relation, so the
    one-Gram certificate fails a table exactly when the two-Gram reference
    fails a row or a column, and names the same character pairs."""
    tables = 0
    for spec in builtin_specs_upto(8):
        for bad in _one_value_corruptions(character_table(build_group(spec))):
            row_bad, col_bad = two_gram_failures(bad)
            got = [f for f in table_invariant_failures(bad) if "orthogonality" in f]
            expected = []
            if row_bad.any() or col_bad.any():
                pairs = ", ".join(f"({a},{b})" for a, b in np.argwhere(row_bad)[:5])
                expected = [f"row orthogonality fails at character pairs {pairs}"]
            assert got == expected, (bad.name, got, expected)
            tables += 1
    assert tables == 1526


def test_decompose_values_matches_dense_oracle_on_every_small_builtin():
    rng = np.random.default_rng(32)
    for spec in builtin_specs_upto(32):
        group = build_group(spec)
        tab = character_table(group)
        coeffs = rng.integers(-3, 4, (3, tab.count))
        vals = values_of_coeffs(tab, coeffs)
        got = decompose_values(tab, vals)
        assert np.array_equal(got, coeffs)
        assert np.array_equal(got, dense_decompose(tab, vals, tab.ring))
        homs = enumerate_sign_homs(group)
        if homs:
            # Restriction to ker(lambda), decomposed in the ambient ring.
            ctx = lambda_context(group, homs[0])
            res = restrict_values(ctx.emb, vals)
            got = decompose_values(ctx.table_h, res, tab.ring)
            assert np.array_equal(got, dense_decompose(ctx.table_h, res, tab.ring))


@pytest.mark.parametrize("spec", CERTIFIED[:3], ids=lambda s: f"{s.kind}{s.n}")
def test_decompose_values_rejects_non_rational_and_non_integral_functions(spec):
    tab = character_table(build_group(spec))
    at_identity = np.zeros((1, tab.count, tab.ring.phi), dtype=np.int64)
    at_identity[0, 0, 1] = 1  # zeta at the identity class, zero elsewhere
    with pytest.raises(CharacterTheoryError, match="non-rational multiplicity"):
        decompose_values(tab, at_identity)
    at_identity[0, 0] = 0
    at_identity[0, 0, 0] = 1  # the regular character divided by |G|
    with pytest.raises(CharacterTheoryError, match=f"non-integer multiplicity 1/{tab.order}"):
        decompose_values(tab, at_identity)


def test_s1_lambda_products_on_d17_need_two_primes_and_match_dense_oracle(monkeypatch):
    """The k_G x rank products decomposed at evaluation primes (the reference
    route) need two primes; the action as R N takes none, and matches the
    dense oracle."""
    group, lam = group_with_lambda(GroupSpec.dihedral(17), "reflection-sign")
    ctx = lambda_context(group, lam)
    calls = _prime_spy(monkeypatch)
    pres = k_group_s1_lambda(group, lam)
    assert calls == []
    s1_action_by_products(ctx)
    assert [(m, count) for m, _, count in calls] == [(ctx.table_g.modulus, 2)]

    ring = ctx.table_g.ring
    coeffs = np.asarray([b.character.coeffs for b in pres.basis], dtype=np.int64)
    basis = values_of_coeffs(ctx.table_h, coeffs) @ ctx.table_h.ring.embed_matrix(ring)
    res = restrict_values(ctx.emb, dense_values(ctx.table_g))
    prods = np.einsum("ajp,ejq,pqr->aejr", res, basis, dense_mul(ring))
    t = dense_decompose(ctx.table_h, prods.reshape(-1, *prods.shape[2:]), ring)
    t = t.reshape(ctx.table_g.count, pres.rank, ctx.table_h.count)
    reps = [b.rep for b in pres.basis]
    for a, mat in enumerate(pres.action):
        assert np.array_equal(mat, t[a][:, reps].T)


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.symmetric(4),
        GroupSpec.quaternion(8),
        GroupSpec.cyclic(12),
        GroupSpec.dihedral(17),
    ],
    ids=lambda s: s.name,
)
def test_tensor_product_matches_dense_oracle(spec, monkeypatch):
    tab = character_table(build_group(spec))
    ring, mul = tab.ring, dense_mul(tab.ring)
    calls = _prime_spy(monkeypatch)
    values = dense_values(tab)
    for a in range(tab.count):
        for b in range(tab.count):
            got = tensor_product(VirtualCharacter.unit(tab, a), VirtualCharacter.unit(tab, b))
            prod = np.einsum("jp,jq,pqr->jr", values[a], values[b], mul)
            assert list(got.coeffs) == dense_decompose(tab, prod[None], ring)[0].tolist()
    if spec == GroupSpec.dihedral(17):
        assert max(count for _, _, count in calls) == 2


def test_l1_bounds_are_int64_under_a_checked_bound():
    edge = np.array([[[(1 << 62) - 1, 1]], [[-5, 0]]], dtype=np.int64)  # [B, k, phi]
    assert characters._l1_norms(edge).tolist() == [[1 << 62], [5]]
    over = np.array([[[1 << 62, 0]]], dtype=np.int64)
    message = r"^l1 norm: worst-case magnitude 9223372036854775808 reaches 2\*\*63$"
    with pytest.raises(OverflowError, match=message):
        characters._l1_norms(over)


def test_embedded_values_are_int64_under_a_checked_bound():
    """Z[zeta_3] into Z[zeta_6] sends zeta_3 to zeta_6**2 = zeta_6 - 1, so
    (a, b) goes to (a - b, b); the check names the limit instead of wrapping."""
    ring = get_ring(6)
    edge = np.array([[1 << 61, -(1 << 61)]], dtype=np.int64)
    assert characters._embed(edge, 3, ring).tolist() == [[1 << 62, -(1 << 61)]]
    over = np.array([[1 << 62, -(1 << 62)]], dtype=np.int64)
    message = r"^embedded values: worst-case magnitude 9223372036854775808 reaches 2\*\*63$"
    with pytest.raises(OverflowError, match=message):
        characters._embed(over, 3, ring)


def test_virtual_character_values_are_int64_under_a_checked_bound():
    tab = character_table(build_group(GroupSpec.cyclic(3)))
    edge = VirtualCharacter(tab, ((1 << 62) - 1, 1 << 62, 0))
    assert edge.as_values()[0].tolist() == [(1 << 63) - 1, 0]  # the value at the identity
    over = VirtualCharacter(tab, (1 << 62, 1 << 62, 0))
    assert over.degree() == 1 << 63
    message = (
        r"^virtual character values: worst-case magnitude 9223372036854775808 reaches 2\*\*63$"
    )
    with pytest.raises(OverflowError, match=message):
        over.as_values()
    # Small coefficients give the gathered sum of the rows, as before the check.
    coeffs = np.array([[2, -1, 0], [0, 3, 5]], dtype=np.int64)
    expected = np.einsum("bc,cjp->bjp", coeffs, dense_values(tab))
    assert np.array_equal(values_of_coeffs(tab, coeffs), expected)


def test_induced_values_are_int64_under_a_checked_bound():
    """Induction from C3 to S3 multiplies values by weights whose rows sum to
    |S3| = 6; the check names the limit instead of wrapping."""
    g = build_group(GroupSpec.symmetric(3))
    (lam,) = enumerate_sign_homs(g)
    emb = kernel_embedding(g, lam)
    assert emb.induction_weights.sum(axis=1).max() == 6
    table_h = character_table(emb.subgroup)
    edge = ((1 << 63) - 1) // 6
    assert induce(VirtualCharacter(table_h, (edge, 0, 0)), emb).coeffs == (edge, edge, 0)
    message = r"^induced values: worst-case magnitude 13835058055282163712 reaches 2\*\*63$"
    with pytest.raises(OverflowError, match=message):
        induce(VirtualCharacter(table_h, (1 << 61, 0, 0)), emb)
    with pytest.raises(OverflowError, match="^induced values: "):
        induce(VirtualCharacter(table_h, (edge + 1, 0, 0)), emb)
    # Small values induce as the weighted sum over |H|, as before the check.
    hvals = np.array([[[1], [2], [3]], [[-4], [0], [5]]], dtype=np.int64)
    expected = np.einsum("ai,bip->bap", emb.induction_weights, hvals) // 3
    assert np.array_equal(characters.induced_values(emb, hvals), expected)
