"""The brute-force check suite: passes on valid inputs, fails on corrupted ones."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from conftest import group_with_lambda
from ksphere import characters, ktheory, verification
from ksphere.characters import character_table, lambda_context
from ksphere.groups import GroupSpec, build_group, builtin_specs_upto, enumerate_sign_homs
from ksphere.ktheory import k_group_s1_lambda, k_group_s_lambda
from ksphere.verification import (
    SCHEMA,
    check_b_independence,
    check_corollary,
    check_frobenius_reciprocity,
    check_ideal_lattice,
    check_mackey_restriction,
    check_orbit_multiplicities,
    check_projection_formula,
    check_table,
    corrupt_table,
    reports_to_jsonable,
    run_verification,
    verify_group,
)

SAMPLE = [
    (GroupSpec.symmetric(3), "sign"),
    (GroupSpec.dihedral(4), "reflection-sign"),
    (GroupSpec.dihedral(5), "reflection-sign"),
    (GroupSpec.dihedral(6), "reflection-sign"),
    (GroupSpec.quaternion(8), "onto-pm1"),
    (GroupSpec.symmetric(4), "sign"),
    (GroupSpec.cyclic(2), "onto-pm1"),
    (GroupSpec.cyclic(12), "onto-pm1"),
]

_NEGATIVE = [
    (GroupSpec.symmetric(4), "sign"),
    (GroupSpec.dihedral(6), "reflection-sign"),
    (GroupSpec.quaternion(8), "onto-pm1"),
]


@pytest.mark.parametrize("spec,conv", SAMPLE, ids=lambda v: getattr(v, "name", v))
def test_all_checks_pass(spec, conv):
    t, lam = group_with_lambda(spec, conv)
    reports = verify_group(t, lam)
    bad = [r for r in reports if r.status == "fail"]
    assert not bad, bad


def test_every_lambda_of_small_products_passes():
    spec = GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(4))
    t = build_group(spec)
    for lam in enumerate_sign_homs(t):
        reports = verify_group(t, lam)
        assert all(r.status != "fail" for r in reports)


def test_checks_on_table_without_lambda():
    t = build_group(GroupSpec.alternating(4))
    reports = verify_group(t)
    assert any(r.check == "lambda-sweep" and r.status == "skip" for r in reports)
    assert all(r.status != "fail" for r in reports)


def test_corrupted_table_is_reported():
    t = build_group(GroupSpec.symmetric(3))
    tab = character_table(t)
    bad = corrupt_table(tab, 2, 1, delta=1)
    reports = check_table(t, bad)
    by_name = {r.check: r for r in reports}
    assert by_name["table-row-orthogonality"].status == "fail"
    assert by_name["table-row-orthogonality"].details == (
        "offending pairs (0,2), (1,2), (2,0), (2,1), (2,2)"
    )
    assert by_name["table-column-orthogonality"].status == "fail"
    assert by_name["table-column-orthogonality"].details == (
        "offending pairs (0,1), (1,0), (1,1), (1,2), (2,1)"
    )


def test_corrupting_identity_column_breaks_degree_sum():
    t = build_group(GroupSpec.cyclic(4))
    tab = character_table(t)
    bad = corrupt_table(tab, 1, 0, delta=2)
    reports = {r.check: r for r in check_table(t, bad)}
    assert reports["table-row-orthogonality"].status == "fail"


def test_corollary_reports():
    t, lam = group_with_lambda(GroupSpec.cyclic(6), "onto-pm1")
    (rep,) = check_corollary(t, lam)
    assert rep.status == "pass" and "commutes" in rep.details
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    (rep,) = check_corollary(t, lam)
    assert rep.status == "pass" and "no commuting" in rep.details and "rank = 1" in rep.details


def test_ideal_lattice_examples():
    for spec, conv, rank in [
        (GroupSpec.cyclic(2), "onto-pm1", 1),
        (GroupSpec.symmetric(3), "sign", 1),
        (GroupSpec.cyclic(4), "onto-pm1", 2),
    ]:
        t, lam = group_with_lambda(spec, conv)
        (rep,) = check_ideal_lattice(t, lam)
        assert rep.status == "pass"
        assert f"rank {rank}" in rep.details


def test_mackey_twist_fixed_gives_double():
    # every character of the kernel of an abelian group is twist-fixed
    t, lam = group_with_lambda(GroupSpec.cyclic(8), "onto-pm1")
    (rep,) = check_mackey_restriction(t, lam)
    assert rep.status == "pass"


def test_mackey_reports_a_wrong_twist(monkeypatch):
    # Shifting every twisted value by one H-element leaves only the trivial
    # chi0 of the kernel unchanged, so chi1 is the first to differ.
    t, lam = group_with_lambda(GroupSpec.dihedral(5), "reflection-sign")
    real = verification._brute_twisted_h_values
    monkeypatch.setattr(
        verification,
        "_brute_twisted_h_values",
        lambda ctx, helem, b: np.roll(real(ctx, helem, b), 1, axis=-2),
    )
    assert check_mackey_restriction(t, lam) == [
        verification.CheckReport(
            "mackey-restriction", t.name, lam.label, "fail", "element values differ for chi1"
        )
    ]


def test_individual_checks_pass_on_dihedral5():
    t, lam = group_with_lambda(GroupSpec.dihedral(5), "reflection-sign")
    for chk in (
        check_frobenius_reciprocity,
        check_projection_formula,
        check_mackey_restriction,
        check_orbit_multiplicities,
        check_b_independence,
    ):
        (rep,) = chk(t, lam)
        assert rep.status == "pass", (chk.__name__, rep.details)


def test_b_independence_reports_a_coset_element_with_another_twist(monkeypatch):
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    ctx = lambda_context(t, lam)
    h = int(ctx.emb.inclusion[1])  # a 3-cycle: it centralises the kernel C3, b does not
    assert lam.values[h] == 1

    (rep,) = check_b_independence(t, lam)
    assert rep.status == "pass"  # control
    bad = dataclasses.replace(ctx, cosets=[ctx.b, h])
    monkeypatch.setattr(verification, "lambda_context", lambda group, hom: bad)
    (rep,) = check_b_independence(t, lam)
    assert rep.status == "fail"
    assert rep.details == f"element-level twist differs for coset element {h}"


def test_corollary_reports_the_first_commuting_coset_element():
    # Oracle: the first coset element b with b h = h b for every h in ker lambda.
    for spec in builtin_specs_upto(32):
        t = build_group(spec)
        for lam in enumerate_sign_homs(t):
            ctx = lambda_context(t, lam)
            h = ctx.emb.inclusion
            commuting = (b for b in ctx.cosets if np.array_equal(t.product[b, h], t.product[h, b]))
            first = next(commuting, None)
            (rep,) = check_corollary(t, lam)
            if first is None:
                assert "without a commuting" in rep.details or rep.details.startswith(
                    "no commuting"
                ), (spec.name, lam.label)
            else:
                assert rep.details.startswith(f"element {first} commutes"), (spec.name, lam.label)


def test_report_json_is_sorted_and_round_trips():
    t, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    reports = verify_group(t, lam)
    doc = reports_to_jsonable(reports)
    assert doc["schema"] == SCHEMA
    keys = [(c["check"], c["group"], c["lambda"]) for c in doc["checks"]]
    assert keys == sorted(keys)
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc


def test_run_verification_small_sweep():
    reports = run_verification(12)
    assert all(r.status != "fail" for r in reports)
    groups = {r.group for r in reports}
    assert "S3" in groups and "Q8" in groups and "D6" in groups
    keys = [(r.check, r.group, r.lam) for r in reports]
    assert keys == sorted(keys)


def test_both_element_level_checks_report_a_non_integral_induction(monkeypatch):
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    bad = verification._element_induction_matrix(lambda_context(t, lam)).copy()
    bad[0, 0] += 1  # ind(trivial)(e) = (6 + 1) / 3
    monkeypatch.setattr(verification, "_element_induction_matrix", lambda ctx: bad)
    message = "element-level induction produced non-integral values"
    for check, name in (
        (check_projection_formula, "projection-formula"),
        (check_mackey_restriction, "mackey-restriction"),
    ):
        assert check(t, lam) == [verification.CheckReport(name, t.name, lam.label, "fail", message)]


def test_int64_guards_keep_their_messages():
    with pytest.raises(
        OverflowError, match=r"^l1 norm: worst-case magnitude 9223372036854775808 reaches 2\*\*63$"
    ):
        verification._l1(np.array([[1 << 62, 0]], dtype=np.int64))
    assert verification._l1(np.array([[(1 << 62) - 1, 1]], dtype=np.int64)) == 1 << 62
    transfer = verification._Transfer.of(np.array([[2, 1], [0, 1]], dtype=np.int64))
    with pytest.raises(
        OverflowError,
        match=r"^transfer sum: worst-case magnitude 13835058055282163712 reaches 2\*\*63$",
    ):
        transfer.sums(np.zeros((2, 1), dtype=np.int64), 1 << 62)
    assert transfer.rows.tolist() == [1, 0]  # blocks by ascending nonzero count
    assert transfer.sums(np.ones((2, 1), dtype=np.int64), 1).tolist() == [[1], [3]]


def test_a_group_its_kernel_and_its_lambda_are_freed_after_use():
    """Tables and lambda contexts live on their objects, so nothing module-level
    keeps a group, a kernel or a lambda alive once the caller drops it."""
    group = build_group(GroupSpec.dihedral(6))
    lam = enumerate_sign_homs(group)[0]
    assert all(r.ok for r in verify_group(group, lam))
    k_group_s1_lambda(group, lam)
    k_group_s_lambda(group, lam)
    ctx = lambda_context(group, lam)
    refs = [weakref.ref(group), weakref.ref(ctx.emb.subgroup), weakref.ref(lam)]
    del group, lam, ctx
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None]


@pytest.mark.parametrize(
    "spec", [GroupSpec.symmetric(4), GroupSpec.dihedral(6)], ids=["S4", "D6"]
)
def test_no_reference_cycle_holds_a_group_or_its_lambda(spec):
    """With the cyclic collector off, dropping the names frees the group, its
    kernel, both tables, lambda and its context: nothing points back at its
    owner, so reference counting alone frees them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        group = build_group(spec)
        table_g = character_table(group)
        assert table_g.irreducibles
        homs = enumerate_sign_homs(group)
        ctx = [lambda_context(group, lam) for lam in homs][0]
        assert ctx.table_h.irreducibles
        k_group_s1_lambda(group, homs[0])
        assert all(r.ok for r in verify_group(group))
        refs = [
            weakref.ref(x)
            for x in (group, ctx.emb.subgroup, table_g, ctx.table_h, homs[0], ctx)
        ]
        del group, table_g, homs, ctx
        assert [ref() for ref in refs] == [None] * 6
    finally:
        if enabled:
            gc.enable()


def test_verify_makes_no_decomposition(monkeypatch):
    """R is a Clifford lookup, Frobenius and the ideal lattice read R, and the
    s1-lambda action of a linear pair is permutations of Irr(H): a passing
    `verify` decomposes nothing."""
    calls = []
    real = characters.decompose_values

    def counting(table, varr, *args, **kwargs):
        calls.append(table.name)
        return real(table, varr, *args, **kwargs)

    for module in (characters, ktheory, verification):
        monkeypatch.setattr(module, "decompose_values", counting)
    for spec, conv in (GroupSpec.symmetric(4), "sign"), (GroupSpec.dihedral(8), "reflection-sign"):
        group, lam = group_with_lambda(spec, conv)
        assert all(r.ok for r in verify_group(group, lam))
        assert calls == [], group.name
        assert not lambda_context(group, lam).restriction.flags.writeable


@pytest.mark.parametrize("spec,conv", _NEGATIVE, ids=lambda v: getattr(v, "name", v))
def test_a_moved_restriction_entry_fails_frobenius_and_the_ideal_lattice(monkeypatch, spec, conv):
    group, lam = group_with_lambda(spec, conv)
    ctx = lambda_context(group, lam)
    bad = ctx.restriction.copy()
    bad[0, 0], bad[0, 1] = 0, 1  # res(trivial) moved off the trivial character
    corrupted = dataclasses.replace(ctx)
    corrupted.__dict__["restriction"] = bad  # the cached-property slot
    monkeypatch.setattr(verification, "lambda_context", lambda g, l: corrupted)
    assert check_frobenius_reciprocity(group, lam) == [
        verification.CheckReport(
            "frobenius-reciprocity", group.name, lam.label, "fail",
            "mismatch at (chi0, chi0): ind gives 1, res gives 0",
        )
    ]
    (report,) = check_ideal_lattice(group, lam)
    assert report.status == "fail" and report.details.endswith("span equal: False")


@pytest.mark.parametrize("spec,conv", _NEGATIVE, ids=lambda v: getattr(v, "name", v))
def test_a_dropped_or_doubled_basis_element_fails_the_ideal_lattice(monkeypatch, spec, conv):
    """Dropping a basis element lowers the rank. Doubling one keeps the rank
    and stays in ker R, but its span is not saturated (an HNF pivot of 2)."""
    group, lam = group_with_lambda(spec, conv)
    ideal = k_group_s_lambda(group, lam)
    first, rest = ideal.basis[0], ideal.basis[1:]
    for basis in rest, (first + first,) + rest:
        emitted = dataclasses.replace(ideal, basis=basis, rank=len(basis))
        monkeypatch.setattr(verification, "k_group_s_lambda", lambda g, l: emitted)
        assert check_ideal_lattice(group, lam) == [
            verification.CheckReport(
                "ideal-lattice", group.name, lam.label, "fail",
                f"oracle rank {ideal.rank}, emitted rank {len(basis)}, span equal: False",
            )
        ]
