"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons are exact integer/cyclotomic equalities; the only numeric
bounds here are wall-clock budgets.
"""

import json
import time

import numpy as np

from conftest import group_with_lambda, run_cli
from ksphere.characters import VirtualCharacter, lambda_context, tensor_product
from ksphere.groups import (
    GroupSpec,
    abelian_specs_upto,
    build_group,
    builtin_specs_upto,
    enumerate_sign_homs,
)
from ksphere.ktheory import k_group_s1_lambda, k_group_s_lambda, ring_product
from ksphere.verification import (
    check_b_independence,
    check_frobenius_reciprocity,
    check_ideal_lattice,
    check_mackey_restriction,
    check_orbit_multiplicities,
    check_projection_formula,
    check_table,
)


def _announce(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_abelian_triviality():
    t0 = time.perf_counter()
    pairs = 0
    for spec in abelian_specs_upto(32):
        group = build_group(spec)
        for lam in enumerate_sign_homs(group):
            pres = k_group_s1_lambda(group, lam)
            assert pres.rank == 0, (spec.name, lam.label)
            pairs += 1
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 1: every abelian group of order <= 32 has rank 0 for every lambda",
        pairs > 0 and elapsed < 10.0,
        f"{pairs} (group, lambda) pairs in {elapsed:.2f}s",
    )


def test_criterion_2_order_two_base_case():
    t, lam = group_with_lambda(GroupSpec.cyclic(2), "onto-pm1")
    pres = k_group_s1_lambda(t, lam)
    ideal = k_group_s_lambda(t, lam)
    (lattice_report,) = check_ideal_lattice(t, lam)
    ok = (
        pres.rank == 0
        and ideal.rank == 1
        and [b.coeffs for b in ideal.basis] == [(1, -1)]
        and lattice_report.status == "pass"
    )
    _announce(
        "criterion 2: order-2 base case (rank 0; sign-sphere ideal of rank 1 with basis 1 - sigma)",
        ok,
        f"lattice oracle: {lattice_report.details}",
    )


def test_criterion_3_nonabelian_witnesses():
    t0 = time.perf_counter()
    t, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    pres = k_group_s1_lambda(t, lam)
    assert pres.rank == 1
    assert pres.action[pres.ctx.table_g.degrees.index(2)].tolist() == [[-1]]
    t1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    t, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    pres = k_group_s1_lambda(t, lam)
    assert pres.rank == 1
    assert pres.action[pres.ctx.table_g.degrees.index(2)].tolist() == [[0]]
    t2 = time.perf_counter() - t0

    t0 = time.perf_counter()
    expected = [(n - 1) // 2 for n in range(3, 13)]  # frozen regression values
    got = []
    for n in range(3, 13):
        t, lam = group_with_lambda(GroupSpec.dihedral(n), "reflection-sign")
        got.append(k_group_s1_lambda(t, lam).rank)
        # independent orbit-count oracle: pairs {k, -k mod n}
        oracle = len({frozenset((k, (-k) % n)) for k in range(n) if k != (-k) % n})
        assert got[-1] == oracle
    assert got == expected
    t3 = time.perf_counter() - t0

    t0 = time.perf_counter()
    t, lam = group_with_lambda(GroupSpec.quaternion(8), "onto-pm1")
    ctx = lambda_context(t, lam)
    assert ctx.emb.subgroup.order == 4
    assert max(ctx.emb.subgroup.classes.orders) == 4
    assert k_group_s1_lambda(t, lam).rank == 1
    t4 = time.perf_counter() - t0

    ok = max(t1, t2, t3, t4) < 5.0
    _announce(
        "criterion 3: nonabelian witnesses (S3, D4, dihedral ladder, quaternion)",
        ok,
        f"dihedral ranks 3..12 = {got}; slowest step {max(t1, t2, t3, t4):.2f}s",
    )


def test_criterion_4_character_table_invariants():
    t0 = time.perf_counter()
    groups = 0
    for spec in builtin_specs_upto(48):
        group = build_group(spec)
        reports = check_table(group)
        bad = [r for r in reports if r.status == "fail"]
        assert not bad, (spec.name, bad)
        groups += 1
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 4: exact orthogonality/degree/class-count invariants up to order 48",
        groups > 0,
        f"{groups} groups in {elapsed:.2f}s, zero tolerance",
    )


def test_criterion_5_proof_identity_suite():
    checks = (
        check_frobenius_reciprocity,
        check_projection_formula,
        check_mackey_restriction,
        check_orbit_multiplicities,
        check_b_independence,
    )
    t0 = time.perf_counter()
    pairs = 0
    for spec in builtin_specs_upto(64):
        group = build_group(spec)
        for lam in enumerate_sign_homs(group):
            for chk in checks:
                reports = chk(group, lam)
                assert all(r.status == "pass" for r in reports), (
                    spec.name,
                    lam.label,
                    reports,
                )
            pairs += 1
    elapsed = time.perf_counter() - t0
    _announce(
        "criterion 5: reciprocity/projection/restriction-of-induction/orbit/coset-choice "
        "suite up to order 64",
        pairs > 0 and elapsed < 60.0,
        f"{pairs} (group, lambda) pairs x 5 checks in {elapsed:.2f}s",
    )


def test_criterion_6_module_structure():
    rng = np.random.default_rng(20260810)
    groups = 0
    for spec in builtin_specs_upto(48):
        group = build_group(spec)
        if group.is_abelian():
            continue
        homs = enumerate_sign_homs(group)
        if not homs:
            continue  # no sign homomorphism, no module to test
        lam = homs[0]
        pres = k_group_s1_lambda(group, lam)
        tab = pres.ctx.table_g
        triv = tab.trivial_index
        assert np.array_equal(pres.action[triv], np.eye(pres.rank, dtype=np.int64))
        for _ in range(100):
            a = VirtualCharacter(tab, tuple(int(v) for v in rng.integers(-3, 4, tab.count)))
            b = VirtualCharacter(tab, tuple(int(v) for v in rng.integers(-3, 4, tab.count)))
            ma, mb = pres.action_matrix(a), pres.action_matrix(b)
            assert np.array_equal(pres.action_matrix(a + b), ma + mb)
            assert np.array_equal(ma @ mb, pres.action_matrix(tensor_product(a, b)))
        x = pres.element(rng.integers(-5, 6, pres.rank))
        y = pres.element(rng.integers(-5, 6, pres.rank))
        assert ring_product(x, y).is_zero()
        groups += 1
    _announce(
        "criterion 6: module axioms on 100 random virtual characters per nonabelian group "
        "up to order 48; internal product identically zero",
        groups > 0,
        f"{groups} groups",
    )


def test_criterion_7_determinism(tmp_path):
    docs = []
    for tag in ("run1", "run2"):
        kpath = tmp_path / f"kgroup-{tag}.json"
        vpath = tmp_path / f"verify-{tag}.json"
        for args, path in [
            (["kgroup", '{"family":"S","n":3,"lambda":{"convention":"sign"}}'], kpath),
            (["verify", '{"family":"D","n":6,"lambda":{"convention":"reflection-sign"}}'], vpath),
        ]:
            proc = run_cli([*args, "--json", str(path)])
            assert proc.returncode == 0, proc.stderr
        docs.append((kpath.read_bytes(), vpath.read_bytes()))
    ok = docs[0] == docs[1]
    parsed = json.loads(docs[0][0])
    ok = ok and parsed["presentation"]["rank"] == 1
    _announce(
        "criterion 7: independent runs produce byte-identical JSON reports",
        ok,
        f"{len(docs[0][0]) + len(docs[0][1])} bytes compared",
    )
