"""K-group presentations against orbit-count and lattice oracles."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    group_with_lambda,
    ideal_generators_by_decomposition,
    in_span,
    induction_by_decomposition,
    restriction_by_decomposition,
    s_lambda_by_context,
    s1_action_by_products,
)
from ksphere import ktheory
from ksphere.characters import (
    CharacterTheoryError,
    VirtualCharacter,
    _clifford_restriction,
    character_table,
    involution_orbits,
    lambda_context,
    lambda_index,
    linear_product_permutations,
    tensor_product,
)
from ksphere.groups import (
    GroupSpec,
    build_group,
    builtin_specs_upto,
    enumerate_sign_homs,
    generators_commute,
)
from ksphere.ktheory import (
    _antiinvariant_coords,
    _lambda_tensor_permutation,
    _pair_differences,
    _s1_action,
    k_group_s1_lambda,
    k_group_s_lambda,
    module_action,
    rank_splitting_report,
    ring_product,
)
from ksphere.lattice import hermite_normal_form, integrally_independent
from ksphere.verification import corrupt_table


def dihedral_rank_oracle(n: int) -> int:
    """Independent count of {k, -k} pairs among the characters of C_n."""
    pairs = set()
    for k in range(n):
        if k != (-k) % n:
            pairs.add(frozenset((k, (-k) % n)))
    return len(pairs)


def test_cyclic2_base_case():
    t, lam = group_with_lambda(GroupSpec.cyclic(2), "onto-pm1")
    assert k_group_s1_lambda(t, lam).rank == 0
    ideal = k_group_s_lambda(t, lam)
    assert ideal.rank == 1
    assert [b.coeffs for b in ideal.basis] == [(1, -1)]


def test_abelian_presentations_are_trivial():
    specs = [
        GroupSpec.cyclic(4),
        GroupSpec.cyclic(6),
        GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(8)),
        GroupSpec.direct_product(
            GroupSpec.cyclic(2), GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2))
        ),
    ]
    for spec in specs:
        t = build_group(spec)
        for lam in enumerate_sign_homs(t):
            pres = k_group_s1_lambda(t, lam)
            assert pres.rank == 0
            assert pres.basis == ()
            assert all(a.shape == (0, 0) for a in pres.action)


def test_symmetric3_presentation():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    pres = k_group_s1_lambda(t, lam)
    assert pres.rank == 1
    assert pres.basis[0].character.coeffs == (0, 1, -1)
    assert pres.basis[0].label == "ind(chi1⊗(ζ-1))"
    # the degree-2 character acts as -1, the sign character as +1
    mats = {name: mat.tolist() for name, mat in zip(pres.action_names, pres.action)}
    assert mats["chi2"] == [[-1]]
    assert mats["chi0"] == [[1]]
    assert mats["chi1"] == [[1]]


def test_dihedral4_presentation():
    t, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    pres = k_group_s1_lambda(t, lam)
    assert pres.rank == 1
    degree2 = pres.ctx.table_g.degrees.index(2)
    assert pres.action[degree2].tolist() == [[0]]


def test_quaternion_presentation():
    t, lam = group_with_lambda(GroupSpec.quaternion(8), "onto-pm1")
    assert k_group_s1_lambda(t, lam).rank == 1


@pytest.mark.parametrize("n", range(3, 13))
def test_dihedral_rank_formula(n):
    t, lam = group_with_lambda(GroupSpec.dihedral(n), "reflection-sign")
    rank = k_group_s1_lambda(t, lam).rank
    assert rank == dihedral_rank_oracle(n)
    assert rank == (n - 1) // 2


def test_rank_halves_the_unfixed_characters():
    for spec, conv in [
        (GroupSpec.symmetric(4), "sign"),
        (GroupSpec.dihedral(7), "reflection-sign"),
        (GroupSpec.quaternion(8), "onto-pm1"),
        (GroupSpec.cyclic(10), "onto-pm1"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        ctx = lambda_context(t, lam)
        fixed = int(np.sum(ctx.twist == np.arange(ctx.table_h.count)))
        assert k_group_s1_lambda(t, lam).rank == (ctx.table_h.count - fixed) // 2


def _class_counts(group, lam):
    """(k_G, number of G-classes whose representative lies in ker lambda)."""
    reps = np.asarray(group.classes.representatives)
    return group.classes.count, int(np.sum(lam.values[reps] > 0))


def test_ranks_are_given_by_class_counts():
    for spec in builtin_specs_upto(64):
        group = build_group(spec)
        for lam in enumerate_sign_homs(group):
            k_g, c_h = _class_counts(group, lam)
            assert k_group_s_lambda(group, lam).rank == k_g - c_h, (spec.name, lam.label)
            assert len(lambda_context(group, lam).orbits.pairs) == 2 * c_h - k_g
            if group.order <= 32:
                assert k_group_s1_lambda(group, lam).rank == 2 * c_h - k_g
            if generators_commute(group.product, group.generators):
                assert 2 * c_h == k_g


def test_rank_checks_reject_wrong_orbits(monkeypatch):
    # S3 with the sign: k_G = 3, c_H = 2, so both ranks are 1.
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    ctx = lambda_context(t, lam)
    assert k_group_s_lambda(t, lam).rank == k_group_s1_lambda(t, lam).rank == 1
    fixed = replace(ctx, orbits=involution_orbits(np.arange(ctx.table_h.count)))
    monkeypatch.setattr(ktheory, "lambda_context", lambda group, lam: fixed)
    with pytest.raises(CharacterTheoryError, match="s1-lambda rank 0, but the class counts give 1"):
        k_group_s1_lambda(t, lam)
    monkeypatch.undo()
    monkeypatch.setattr(
        ktheory, "_lambda_tensor_permutation", lambda table, index: np.arange(table.count)
    )
    with pytest.raises(CharacterTheoryError, match="s-lambda rank 0, but the class counts give 1"):
        k_group_s_lambda(t, lam)


def test_splitting_reports():
    t, lam = group_with_lambda(GroupSpec.dihedral(5), "reflection-sign")
    assert rank_splitting_report(t, lam) == {
        "orbits_isotropy_H": 2,
        "orbits_isotropy_G": 1,
        "rank": 2,
    }
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    assert rank_splitting_report(t, lam) == {
        "orbits_isotropy_H": 1,
        "orbits_isotropy_G": 1,
        "rank": 1,
    }
    t, lam = group_with_lambda(GroupSpec.cyclic(8), "onto-pm1")
    assert rank_splitting_report(t, lam) == {
        "orbits_isotropy_H": 0,
        "orbits_isotropy_G": 4,
        "rank": 0,
    }


def test_basis_is_integrally_independent():
    for spec, conv in [
        (GroupSpec.dihedral(12), "reflection-sign"),
        (GroupSpec.symmetric(4), "sign"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        pres = k_group_s1_lambda(t, lam)
        assert integrally_independent([b.character.coeffs for b in pres.basis])


def test_overlapping_pairs_are_refused():
    table = character_table(build_group(GroupSpec.cyclic(4)))
    assert _pair_differences(table, [(1, 3), (0, 2)]) == [[0, 1, 0, -1], [1, 0, -1, 0]]
    with pytest.raises(CharacterTheoryError, match="^orbit differences are not integrally"):
        _pair_differences(table, [(0, 1), (1, 2)])


# -- the action as R N -----------------------------------------------------


def _r_n_pairs():
    """Every builtin (group, lambda) of order <= 64, then S5 and S6 with the sign."""
    for spec in builtin_specs_upto(64):
        group = build_group(spec)
        for lam in enumerate_sign_homs(group):
            yield group, lam
    for n in (5, 6):
        yield group_with_lambda(GroupSpec.symmetric(n), "sign")


def test_restriction_and_action_match_the_product_route():
    """R by Clifford lookup equals R decomposed, the decomposed induction
    equals R^T, the decomposed (1 - lambda) chi_c span the emitted s-lambda
    basis, and R N equals the k_G x rank products decomposed at evaluation
    primes (`tests/conftest.py`)."""
    count, heavy = 0, {}
    for group, lam in _r_n_pairs():
        ctx = lambda_context(group, lam)
        assert np.array_equal(ctx.restriction, restriction_by_decomposition(ctx)), group.name
        assert np.array_equal(induction_by_decomposition(ctx), ctx.restriction.T), group.name
        basis = [b.coeffs for b in k_group_s_lambda(group, lam).basis]
        generators = ideal_generators_by_decomposition(ctx).tolist()
        assert hermite_normal_form(generators) == hermite_normal_form(basis), group.name
        pres = k_group_s1_lambda(group, lam)
        action = np.asarray(pres.action).reshape(ctx.table_g.count, pres.rank, pres.rank)
        assert np.array_equal(action, s1_action_by_products(ctx)), (group.name, lam.label)
        degrees = {ctx.table_h.degrees[rep] for rep, _ in ctx.orbits.pairs} - {1}
        if degrees:
            heavy[group.name] = degrees
        count += 1
    assert count == 450
    # The swapped pairs of A5 < S5 and A6 < S6 are not linear: N is decomposed.
    assert heavy == {"S5": {3}, "S6": {8}}


def test_the_partner_permutation_is_the_twisted_representative_permutation():
    """psi_partner = psi_rep^sigma, so pi_partner = sigma pi_rep sigma, which
    `_s1_action` takes in place of looking pi_partner up."""
    count = 0
    for group, lam in _r_n_pairs():
        ctx = lambda_context(group, lam)
        sigma = ctx.twist
        pairs = np.asarray(ctx.orbits.pairs, dtype=np.intp).reshape(-1, 2)
        pairs = pairs[np.asarray(ctx.table_h.degrees)[pairs[:, 0]] == 1]
        pi_rep = linear_product_permutations(ctx.table_h, pairs[:, 0])
        partners = linear_product_permutations(ctx.table_h, pairs[:, 1])
        assert np.array_equal(partners, sigma[pi_rep[:, sigma]]), (group.name, lam.label)
        count += len(pairs)
    assert count > 0


@pytest.mark.parametrize("n", [8, 12])
def test_a_repaired_twist_makes_the_action_raise(n):
    """With two pairs (a, b), (c, d) of the twist re-paired as a <-> d, b <-> c,
    sigma pi_rep sigma is no longer the partner's permutation."""
    group, lam = group_with_lambda(GroupSpec.dihedral(n), "reflection-sign")
    ctx = lambda_context(group, lam)
    (a, b), (c, d) = ctx.orbits.pairs[:2]
    twist = ctx.twist.copy()
    twist[[a, d, b, c]] = d, a, c, b
    with pytest.raises(CharacterTheoryError):
        _s1_action(replace(ctx, twist=twist))


def _linear_and_heavy_lambda():
    """S3 x S4 with the lambda whose kernel C3 x S4 has linear and non-linear pairs."""
    group = build_group(GroupSpec.direct_product(GroupSpec.symmetric(3), GroupSpec.symmetric(4)))
    for lam in enumerate_sign_homs(group):
        ctx = lambda_context(group, lam)
        degrees = {ctx.table_h.degrees[rep] for rep, _ in ctx.orbits.pairs}
        if 1 in degrees and len(degrees) > 1:
            return group, lam
    raise AssertionError("no lambda of S3 x S4 has linear and non-linear pairs")


@pytest.mark.parametrize(
    "make",
    [
        lambda: group_with_lambda(GroupSpec.symmetric(5), "sign"),
        lambda: group_with_lambda(GroupSpec.symmetric(6), "sign"),
        lambda: group_with_lambda(GroupSpec.dihedral(12), "reflection-sign"),
        _linear_and_heavy_lambda,
    ],
    ids=["S5-sign", "S6-sign", "D12-reflection-sign", "S3xS4-linear-and-heavy"],
)
def test_one_basis_element_per_block_gives_the_same_action(monkeypatch, make):
    group, lam = make()
    ctx = lambda_context(group, lam)
    monkeypatch.setattr(ktheory, "_ACTION_BLOCK_BYTES", 1)
    assert len(ctx.orbits.pairs) > 0
    assert np.array_equal(_s1_action(ctx), s1_action_by_products(ctx))


def test_a_corrupted_value_of_g_makes_the_restriction_lookup_raise():
    group, lam = group_with_lambda(GroupSpec.dihedral(6), "reflection-sign")
    ctx = lambda_context(group, lam)
    assert ctx.restriction.sum() == 2 * len(ctx.orbits.fixed) + 2 * len(ctx.orbits.pairs)
    bad = replace(ctx, table_g=corrupt_table(ctx.table_g, lambda_index(ctx.table_g, lam), 0))
    with pytest.raises(CharacterTheoryError, match="is neither a twist-fixed character"):
        _clifford_restriction(bad)
    # In D4, chi1 is -1 on the class {r, r^3}; +2 there makes it restrict to
    # the trivial psi0, which three characters of G then meet.
    group, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    ctx = lambda_context(group, lam)
    assert ctx.restriction[:, 0].tolist() == [1, 0, 0, 1, 0]
    bad = replace(ctx, table_g=corrupt_table(ctx.table_g, 1, 4, delta=2))
    with pytest.raises(CharacterTheoryError, match="do not meet each fixed character twice"):
        _clifford_restriction(bad)


def test_a_corrupted_value_of_h_makes_the_permutation_lookup_raise():
    group, lam = group_with_lambda(GroupSpec.dihedral(6), "reflection-sign")
    ctx = lambda_context(group, lam)
    linear = np.asarray(ctx.orbits.pairs).reshape(-1)
    assert linear_product_permutations(ctx.table_h, linear).shape == (linear.size, 6)
    bad = corrupt_table(ctx.table_h, 0, 1)
    with pytest.raises(CharacterTheoryError, match="^rows are not a permutation of Irr"):
        linear_product_permutations(bad, linear)
    with pytest.raises(CharacterTheoryError, match="^chi0 of .* is not a linear character"):
        linear_product_permutations(corrupt_table(ctx.table_h, 0, 0), [0])


@pytest.mark.parametrize(
    "spec",
    [
        GroupSpec.cyclic(12),
        GroupSpec.dihedral(5),
        GroupSpec.quaternion(8),
        GroupSpec.alternating(4),
        GroupSpec.symmetric(4),
        GroupSpec.direct_product(GroupSpec.symmetric(3), GroupSpec.cyclic(4)),
    ],
    ids=lambda s: s.name,
)
def test_linear_products_permute_irr_as_the_decomposed_products_do(spec):
    table = character_table(build_group(spec))
    linear = [c for c, d in enumerate(table.degrees) if d == 1]
    perms = linear_product_permutations(table, linear)
    for lin, pi in zip(linear, perms.tolist()):
        for c in range(table.count):
            product = tensor_product(VirtualCharacter.unit(table, c), VirtualCharacter.unit(table, lin))
            assert product == VirtualCharacter.unit(table, pi[c])


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.cyclic(6), GroupSpec.alternating(5), GroupSpec.symmetric(4), GroupSpec.dihedral(7)],
    ids=lambda s: s.name,
)
def test_zeta_multiples_are_the_products_with_every_root(spec):
    table = character_table(build_group(spec))
    ring = table.ring
    products = ring.multiply(table.distinct[:, None], ring.red[None])  # [D, m, phi]
    assert np.array_equal(table._zeta_multiples, table.value_indices(products))
    # Only the cyclic table has roots of unity alone; the others step by zeta.
    assert (table._root_exponents < 0).any() == (spec.kind != "cyclic")


def test_the_restricted_products_are_int64_under_a_checked_bound():
    group, lam = group_with_lambda(GroupSpec.symmetric(5), "sign")
    ctx = replace(lambda_context(group, lam))
    ctx.restriction = np.full_like(lambda_context(group, lam).restriction, 1 << 61)
    with pytest.raises(OverflowError, match="^restricted products: worst-case magnitude"):
        _s1_action(ctx)


# -- module structure -----------------------------------------------------


def test_action_of_trivial_is_identity():
    for spec, conv in [
        (GroupSpec.symmetric(3), "sign"),
        (GroupSpec.dihedral(8), "reflection-sign"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        pres = k_group_s1_lambda(t, lam)
        triv = pres.ctx.table_g.trivial_index
        assert np.array_equal(pres.action[triv], np.eye(pres.rank, dtype=np.int64))


def test_lambda_character_acts_as_identity():
    for spec, conv in [
        (GroupSpec.symmetric(3), "sign"),
        (GroupSpec.dihedral(6), "reflection-sign"),
        (GroupSpec.quaternion(8), "onto-pm1"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        pres = k_group_s1_lambda(t, lam)
        lam_idx = lambda_index(pres.ctx.table_g, lam)
        assert np.array_equal(pres.action[lam_idx], np.eye(pres.rank, dtype=np.int64))


def test_action_matrices_multiplicative_on_random_virtual_characters():
    rng = np.random.default_rng(42)
    for spec, conv in [
        (GroupSpec.symmetric(4), "sign"),
        (GroupSpec.dihedral(9), "reflection-sign"),
        (GroupSpec.quaternion(8), "onto-pm1"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        pres = k_group_s1_lambda(t, lam)
        tab = pres.ctx.table_g
        for _ in range(25):
            a = VirtualCharacter(tab, tuple(rng.integers(-3, 4, tab.count)))
            b = VirtualCharacter(tab, tuple(rng.integers(-3, 4, tab.count)))
            left = pres.action_matrix(a) @ pres.action_matrix(b)
            right = pres.action_matrix(tensor_product(a, b))
            assert np.array_equal(left, right)
            both = pres.action_matrix(a + b)
            assert np.array_equal(both, pres.action_matrix(a) + pres.action_matrix(b))


def test_module_action_agrees_with_matrices():
    rng = np.random.default_rng(11)
    t, lam = group_with_lambda(GroupSpec.dihedral(7), "reflection-sign")
    pres = k_group_s1_lambda(t, lam)
    tab = pres.ctx.table_g
    for _ in range(15):
        phi = VirtualCharacter(tab, tuple(rng.integers(-2, 3, tab.count)))
        x = pres.element(rng.integers(-4, 5, pres.rank))
        via_rings = module_action(pres, phi, x)
        via_matrix = pres.action_matrix(phi) @ np.asarray(x.coords)
        assert list(via_rings.coords) == list(via_matrix)


def test_action_matrices_and_coordinates_are_int64_under_a_checked_bound():
    group = build_group(GroupSpec.symmetric(3))
    pres = k_group_s1_lambda(group, enumerate_sign_homs(group)[0])
    table = pres.ctx.table_g
    # chi0 and chi1 restrict to the trivial character of C3, so both act as [[1]].
    edge = VirtualCharacter(table, (1 << 62, (1 << 62) - 1, 0))
    assert pres.action_matrix(edge).tolist() == [[(1 << 63) - 1]]
    message = r"^action matrix: worst-case magnitude 9223372036854775808 reaches 2\*\*63$"
    with pytest.raises(OverflowError, match=message):
        pres.action_matrix(VirtualCharacter(table, (1 << 62, 1 << 62, 0)))
    message = r"^module element coordinates: worst-case magnitude 9223372036854775808 reaches"
    with pytest.raises(OverflowError, match=message):
        module_action(pres, VirtualCharacter.unit(table, 0), (1 << 63,))
    small = VirtualCharacter(table, (2, -3, 1))
    assert pres.action_matrix(small).tolist() == [[2 - 3 - 1]]


def test_module_action_validations():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    pres = k_group_s1_lambda(t, lam)
    other_tab = character_table(build_group(GroupSpec.cyclic(5)))
    with pytest.raises(CharacterTheoryError):
        module_action(pres, VirtualCharacter.unit(other_tab, 0), pres.zero())
    with pytest.raises(ValueError):
        pres.element([1, 2])


def test_ring_product_is_identically_zero():
    rng = np.random.default_rng(3)
    for spec, conv in [
        (GroupSpec.symmetric(3), "sign"),
        (GroupSpec.dihedral(4), "reflection-sign"),
        (GroupSpec.dihedral(11), "reflection-sign"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        pres = k_group_s1_lambda(t, lam)
        for _ in range(10):
            a = pres.element(rng.integers(-5, 6, pres.rank))
            b = pres.element(rng.integers(-5, 6, pres.rank))
            assert ring_product(a, b).is_zero()
        assert ring_product(pres.zero(), pres.zero()).is_zero()


def test_ring_product_rejects_mixed_presentations():
    t1, lam1 = group_with_lambda(GroupSpec.symmetric(3), "sign")
    t2, lam2 = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    p1 = k_group_s1_lambda(t1, lam1)
    p2 = k_group_s1_lambda(t2, lam2)
    with pytest.raises(CharacterTheoryError):
        ring_product(p1.element([1]), p2.element([1]))


def _antiinvariant_coords_by_orbit(ctx, t):
    """The per-orbit loop over fixed characters and pairs (oracle)."""
    pairs = [o for o, iso in zip(ctx.orbits.orbits, ctx.orbits.isotropy) if iso == "H"]
    for o, iso in zip(ctx.orbits.orbits, ctx.orbits.isotropy):
        if iso == "G" and np.any(t[..., o[0]]):
            raise CharacterTheoryError(f"vector has weight on twist-fixed character chi{o[0]}")
    for rep, partner in pairs:
        if np.any(t[..., partner] != -t[..., rep]):
            raise CharacterTheoryError(f"vector is not antiinvariant on the pair ({rep},{partner})")
    if not pairs:
        return np.zeros(t.shape[:-1] + (0,), dtype=np.int64)
    return t[..., [rep for rep, _ in pairs]]


def test_antiinvariant_coords_match_the_per_orbit_loop():
    """Every builtin (group, lambda) of order <= 32, on vectors in and off the span."""
    rng = np.random.default_rng(11)
    for spec in builtin_specs_upto(32):
        t = build_group(spec)
        for lam in enumerate_sign_homs(t):
            ctx = lambda_context(t, lam)
            k_h = ctx.table_h.count
            pres = k_group_s1_lambda(t, lam)
            span = rng.integers(-4, 5, (3, pres.rank)) @ np.asarray(
                [b.character.coeffs for b in pres.basis], dtype=np.int64
            ).reshape(pres.rank, k_h)
            assert np.array_equal(
                _antiinvariant_coords(ctx, span), _antiinvariant_coords_by_orbit(ctx, span)
            )
            off = span.copy()
            off[rng.integers(3), rng.integers(k_h)] += 1
            with pytest.raises(CharacterTheoryError) as oracle:
                _antiinvariant_coords_by_orbit(ctx, off)
            with pytest.raises(CharacterTheoryError) as got:
                _antiinvariant_coords(ctx, off)
            assert str(got.value) == str(oracle.value)


def test_antiinvariant_coords_reject_a_fixed_weight_and_an_asymmetric_pair():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    ctx = lambda_context(t, lam)
    assert ctx.orbits.orbits == ((0,), (1, 2))
    assert _antiinvariant_coords(ctx, np.array([0, 3, -3])).tolist() == [3]
    with pytest.raises(CharacterTheoryError, match="twist-fixed character chi0"):
        _antiinvariant_coords(ctx, np.array([1, 3, -3]))
    with pytest.raises(CharacterTheoryError, match=r"not antiinvariant on the pair \(1,2\)"):
        _antiinvariant_coords(ctx, np.array([0, 3, -2]))


# -- the sign sphere -------------------------------------------------------


def test_s_lambda_examples():
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    ideal = k_group_s_lambda(t, lam)
    assert ideal.rank == 1
    assert ideal.basis[0].coeffs == (1, -1, 0)
    assert ideal.fixed == (2,)

    t, lam = group_with_lambda(GroupSpec.cyclic(4), "onto-pm1")
    assert k_group_s_lambda(t, lam).rank == 2


def test_s_lambda_basis_lives_in_the_ideal():
    for spec, conv in [
        (GroupSpec.symmetric(4), "sign"),
        (GroupSpec.cyclic(6), "onto-pm1"),
        (GroupSpec.dihedral(6), "reflection-sign"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        ideal = k_group_s_lambda(t, lam)
        tab = ideal.table
        one_minus = [0] * tab.count
        one_minus[tab.trivial_index] += 1
        one_minus[ideal.lambda_index] -= 1
        gen = VirtualCharacter(tab, tuple(one_minus))
        for rep, _ in ideal.pairs:
            phi = VirtualCharacter.unit(tab, rep)
            assert tensor_product(gen, phi).coeffs in [b.coeffs for b in ideal.basis]


def test_s_lambda_span_matches_lattice_oracle():
    for spec, conv in [
        (GroupSpec.cyclic(2), "onto-pm1"),
        (GroupSpec.symmetric(3), "sign"),
        (GroupSpec.cyclic(4), "onto-pm1"),
        (GroupSpec.quaternion(8), "onto-pm1"),
    ]:
        t, lam = group_with_lambda(spec, conv)
        ideal = k_group_s_lambda(t, lam)
        tab = ideal.table
        one_minus = [0] * tab.count
        one_minus[tab.trivial_index] += 1
        one_minus[ideal.lambda_index] -= 1
        gen = VirtualCharacter(tab, tuple(one_minus))
        rows = [tensor_product(gen, VirtualCharacter.unit(tab, c)).coeffs for c in range(tab.count)]
        oracle = hermite_normal_form(rows)
        assert len(oracle) == ideal.rank
        assert oracle == hermite_normal_form([b.coeffs for b in ideal.basis])
        for row in rows:
            assert in_span(row, oracle)


def test_s_lambda_pairing_matches_tensor_decomposition():
    """The row lookup pairs chi with lambda*chi exactly as the full product does."""
    for spec in builtin_specs_upto(32):
        t = build_group(spec)
        for lam in enumerate_sign_homs(t):
            ideal = k_group_s_lambda(t, lam)
            tab = ideal.table
            lam_chi = VirtualCharacter.unit(tab, ideal.lambda_index)
            partner = []
            for c in range(tab.count):
                coeffs = tensor_product(lam_chi, VirtualCharacter.unit(tab, c)).coeffs
                assert sorted(coeffs) == [0] * (tab.count - 1) + [1]
                partner.append(coeffs.index(1))
            assert ideal.pairs == tuple((c, d) for c, d in enumerate(partner) if c < d)
            assert ideal.fixed == tuple(c for c, d in enumerate(partner) if c == d)


def test_s_lambda_from_irr_g_matches_the_context_route():
    """Every builtin (group, lambda) of order <= 64, and S5 and S6 with the sign:
    the presentation read off Irr(G) and lambda alone equals the one read
    through the lambda context."""
    cases = [(t, lam) for t in map(build_group, builtin_specs_upto(64))
             for lam in enumerate_sign_homs(t)]
    cases += [group_with_lambda(GroupSpec.symmetric(n), "sign") for n in (5, 6)]
    for t, lam in cases:
        ideal = k_group_s_lambda(t, lam)
        want = s_lambda_by_context(t, lam)
        assert ideal.table is lambda_context(t, lam).table_g
        assert {
            "rank": ideal.rank,
            "basis": [list(b.coeffs) for b in ideal.basis],
            "pairs": ideal.pairs,
            "fixed": ideal.fixed,
            "lambda_index": ideal.lambda_index,
        } == want, (t.name, lam.label)
    assert len(cases) > 400


@pytest.mark.parametrize(
    "spec, conv",
    [(GroupSpec.symmetric(3), "sign"), (GroupSpec.dihedral(4), "reflection-sign")],
    ids=["S3", "D4"],
)
def test_lambda_tensor_lookup_rejects_corrupt_table(spec, conv):
    t, lam = group_with_lambda(spec, conv)
    table = character_table(t)
    index = lambda_index(table, lam)
    _lambda_tensor_permutation(table, index)  # control: the clean table gives a permutation
    bad = corrupt_table(table, table.trivial_index, 1)
    with pytest.raises(CharacterTheoryError, match="not a permutation"):
        _lambda_tensor_permutation(bad, index)
