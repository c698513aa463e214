"""The four routes to a character table agree with Dixon byte for byte.

Abelian groups get their tables in closed form, nonabelian groups built as
A x B from their factors, and groups with an abelian subgroup of index 2
from that subgroup by Clifford theory; Dixon's algorithm is the oracle of
all three. Once the class order is fixed a table is unique up to its row
order, so after the canonical sort the bytes must be equal.
"""

import functools
import json
import re
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from ksphere import characters, cli, dixon, groups
from ksphere.characters import (
    _abelian_half,
    _abelian_table_data,
    _analysis_weights,
    _canonical_order,
    _clifford_table_data,
    _index_form,
    _table_data,
    character_table,
    lambda_context,
    table_invariant_failures,
)
from ksphere.dixon import CharacterEngineError
from ksphere.groups import (
    GroupSpec,
    row_keys,
    abelian_specs_upto,
    build_group,
    build_sign_hom,
    builtin_specs_upto,
    enumerate_sign_homs,
    generators_commute,
    kernel_embedding,
    parse_group_document,
)
from ksphere.ktheory import k_group_s_lambda
from ksphere.verification import corrupt_table, run_verification

from conftest import certified_records, dense_values, galois_permutation_oracle

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"


def _workload_groups(*names):
    """The distinct groups of the named workloads, in file order, by spec name."""
    doc = json.loads(WORKLOADS.read_text())
    specs = {}
    for name in names:
        for item in doc[name]:
            spec, _ = parse_group_document(json.loads(item["argv"][1]))
            specs.setdefault(spec.name, spec)
    return list(specs.values())


WORKLOAD_GROUPS = _workload_groups("chartab-many-classes", "kgroup-wide")
KGROUP_GROUPS = _workload_groups("kgroup-wide")
# S6 and A6 have no route but Dixon; D48 and D32 take the Clifford route,
# tested below with their kernels.
ROUTED_GROUPS = [s for s in WORKLOAD_GROUPS if s.kind in ("cyclic", "direct_product")]


def _sorted_bytes(degrees, distinct, which, modulus):
    order = _canonical_order(degrees, distinct, which)
    values = np.ascontiguousarray(distinct[which[order]])
    return [degrees[c] for c in order], values.tobytes(), modulus


def _assert_matches_dixon(group, route=_table_data):
    got = _sorted_bytes(*route(group, group.classes))
    degrees, values, modulus = dixon.character_table_data(group, group.classes)
    expected = _sorted_bytes(degrees, *_index_form(values), modulus)
    assert got == expected, group.name


def _clifford_route(group, classes):
    return _clifford_table_data(group, classes, _abelian_half(group, classes))


def _has_abelian_half(group):
    """Whether some index-2 subgroup of the group is abelian: every kernel tried."""
    return any(
        generators_commute(sub.product, sub.generators)
        for sub in (kernel_embedding(group, lam).subgroup for lam in enumerate_sign_homs(group))
    )


def _route(group):
    if group.classes.count == group.order:
        return "abelian"
    if group.factors:
        return "product"
    return "clifford" if _abelian_half(group, group.classes) is not None else "dixon"


C8xC64_SIGNS = {
    "family": "direct_product",
    "factors": [{"family": "cyclic", "n": 8}, {"family": "cyclic", "n": 64}],
    "lambda": {"generator_signs": [-1, -1]},
}


@pytest.fixture
def fresh_caches(monkeypatch):
    """An empty table registry, so every table in the test is built afresh."""
    monkeypatch.setattr(groups, "_registry", {})


@pytest.fixture
def certified(monkeypatch):
    """The names of the groups whose tables run the certificate, in call order."""
    names = []
    real_certificate = characters.table_invariant_failures

    def counting_certificate(table):
        names.append(table.name)
        return real_certificate(table)

    monkeypatch.setattr(characters, "table_invariant_failures", counting_certificate)
    return names


def test_cyclic_and_product_routes_match_dixon_on_small_builtins():
    specs = [s for s in builtin_specs_upto(32) if s.kind in ("cyclic", "direct_product")]
    assert len(specs) == len(abelian_specs_upto(32))
    for spec in specs:
        _assert_matches_dixon(build_group(spec))


def test_workload_groups_are_the_sixteen_named():
    assert len({spec.name for spec in WORKLOAD_GROUPS}) == 16
    names = {spec.name for spec in ROUTED_GROUPS}
    assert len(names) == 12
    assert {"Q8xS4", "S4xS4", "D8xD4", "Q8xC8", "C64"} <= names


@pytest.mark.parametrize("spec", ROUTED_GROUPS, ids=lambda s: s.name)
def test_routes_match_dixon_on_the_workload_groups(spec):
    _assert_matches_dixon(build_group(spec))


def test_cyclic_route_matches_dixon_on_the_cyclic_kernels():
    cyclic = []
    for spec in KGROUP_GROUPS:
        group = build_group(spec)
        for lam in enumerate_sign_homs(group):
            sub = kernel_embedding(group, lam).subgroup
            if sub.order in sub.classes.orders:
                cyclic.append(sub)
                _assert_matches_dixon(sub)
    # Among them the kernel C32 of C64, and the rotations of D48 and D32.
    assert {sub.order for sub in cyclic} >= {32, 48}
    assert any(sub.name.endswith("<C64") for sub in cyclic)


def test_abelian_route_matches_dixon_on_every_abelian_kernel_upto_64():
    kernels = {}
    for spec in builtin_specs_upto(64):
        group = build_group(spec)
        for lam in enumerate_sign_homs(group):
            sub = kernel_embedding(group, lam).subgroup
            if sub.classes.count == sub.order:
                kernels.setdefault(sub.record, sub)
    for sub in kernels.values():
        _assert_matches_dixon(sub, _abelian_table_data)
    noncyclic = [sub for sub in kernels.values() if sub.order not in sub.classes.orders]
    assert (len(kernels), len(noncyclic)) == (96, 46)


def _c8xc64_kernel():
    spec, lam_spec = parse_group_document(C8xC64_SIGNS)
    group = build_group(spec)
    return kernel_embedding(group, build_sign_hom(group, spec, lam_spec)).subgroup


def _cyclic_product(*orders):
    spec = GroupSpec.cyclic(orders[-1])
    for n in reversed(orders[:-1]):
        spec = GroupSpec.direct_product(GroupSpec.cyclic(n), spec)
    return build_group(spec)


@pytest.mark.parametrize(
    "make",
    [
        _c8xc64_kernel,
        lambda: _cyclic_product(*[2] * 7),
        lambda: _cyclic_product(3, 3, 3, 6),
        lambda: _cyclic_product(256),
    ],
    ids=["ker<C8xC64", "C2^7", "C3xC3xC3xC6", "C256"],
)
def test_abelian_route_matches_dixon_on_large_abelian_groups(make):
    group = make()
    assert group.order in (128, 162, 256)
    _assert_matches_dixon(group, _abelian_table_data)


def test_clifford_route_matches_dixon_on_the_small_builtins_and_their_kernels():
    """Every builtin group of order <= 64, its nonabelian kernels, and D48, D32
    and their kernels: the route finds an abelian subgroup of index 2 exactly
    when one exists, and then gives Dixon's table."""
    specs = builtin_specs_upto(64) + [GroupSpec.dihedral(48), GroupSpec.dihedral(32)]
    distinct = {}
    for spec in specs:
        group = build_group(spec)
        kernels = [kernel_embedding(group, lam).subgroup for lam in enumerate_sign_homs(group)]
        for sub in [group, *kernels]:
            if sub.classes.count < sub.order and not sub.factors:
                distinct.setdefault(sub.record, sub)
    routed = []
    for group in distinct.values():
        found = _abelian_half(group, group.classes)
        assert (found is not None) == _has_abelian_half(group), group.name
        if found is not None:
            sub = kernel_embedding(group, found).subgroup
            assert generators_commute(sub.product, sub.generators)
            _assert_matches_dixon(group, _clifford_route)
            routed.append(group.name)
    # A nonabelian dihedral kernel has the bytes of the builtin dihedral group
    # of half the order, so it is checked once; A4 = ker<S4, S4 and A5 have
    # no abelian subgroup of index 2.
    left = sorted(group.name for group in distinct.values() if group.name not in routed)
    assert (len(routed), left) == (33, ["A5", "S4", "ker(neg:0x666666)<S4"])
    assert {"S3", "Q8", "D48", "D32"} <= set(routed)


@functools.cache
def _index_form_groups():
    """Every builtin group of order <= 64, the workload groups and C256, each
    holding its served table: every route, abelian, product and Dixon."""
    specs = builtin_specs_upto(64) + WORKLOAD_GROUPS + [GroupSpec.cyclic(256)]
    groups = [build_group(spec) for spec in specs]
    for group in groups:
        character_table(group)
    return groups


def test_index_form_gives_the_values_on_every_route():
    routes = set()
    for group in _index_form_groups():
        table, distinct, which = group.table, group.table.distinct, group.table.which
        assert np.unique(row_keys(distinct)).size == len(distinct), group.name
        assert which.shape == (table.count, table.count)
        # Every distinct value is a value of the table, so a bound taken over
        # `distinct` is the bound over the table's values.
        assert np.array_equal(np.unique(which), np.arange(len(distinct))), group.name
        # The raw data of each route is already in index form.
        degrees, raw_distinct, raw_which, modulus = _table_data(group, group.classes)
        assert (modulus, raw_distinct.shape[1]) == (table.modulus, table.ring.phi)
        assert np.unique(row_keys(raw_distinct)).size == len(raw_distinct), group.name
        assert np.array_equal(np.unique(raw_which), np.arange(len(raw_distinct))), group.name
        sorted_values = _sorted_bytes(degrees, raw_distinct, raw_which, modulus)[1]
        assert sorted_values == dense_values(table).tobytes()
        routes.add(_route(group))
    assert routes == {"abelian", "product", "clifford", "dixon"}
    assert {group.name for group in _index_form_groups()} >= {"C256", "S6", "Q8xS4"}


def test_certificate_and_s_lambda_never_gather_the_dense_values(fresh_caches, certified):
    """A table stores only its index form: certifying C2 x C48 at one point
    and building every s-lambda presentation on it read no dense values."""
    group = build_group(GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(48)))
    table = character_table(group)
    assert certified == ["C2xC48"] and table.ring.phi > 2
    assert characters._galois_closed(table)  # so the certificate took the one-point route
    lams = enumerate_sign_homs(group)
    for lam in lams:
        k_group_s_lambda(group, lam)
    assert certified == ["C2xC48"]  # s-lambda read no kernel table
    tables = [table] + [lambda_context(group, lam).table_h for lam in lams]
    assert len(tables) == 4
    # No dense copy of the values exists to be gathered into.
    assert not any(hasattr(t, name) for t in tables for name in ("values", "_embedded"))


def test_galois_permutations_from_integer_rows_equal_the_power_basis_oracle():
    """Every unit t, except on C256, whose 67 MB values take the oracle 0.2 s a
    unit: there the units below 32 (among them the generators 3 and 5) and -1."""
    checked = 0
    for table in (group.table for group in _index_form_groups()):
        m = table.modulus
        units = [t for t in range(1, m + 1) if gcd(t, m) == 1]
        if m == 256:
            units = [t for t in units if t < 32] + [-1]
        for t in units:
            pi = characters._galois_permutation(table, t)
            assert pi is not None and pi.tolist() == galois_permutation_oracle(table, t)
            checked += 1
    assert checked > 2000


def test_dixon_never_runs_on_a_builtin_abelian_group(fresh_caches, certified, monkeypatch):
    calls, abelian, halves = [], [], []
    real_dixon = dixon.character_table_data

    def counting_dixon(group, classes):
        calls.append(group.name)
        abelian.append(classes.count == group.order)
        halves.append(_has_abelian_half(group))
        return real_dixon(group, classes)

    monkeypatch.setattr(dixon, "character_table_data", counting_dixon)
    specs = abelian_specs_upto(64)
    for spec in specs:
        assert character_table(build_group(spec)).count == build_group(spec).order
    assert calls == []
    # Every served table passed the certificate once, and no factor was served.
    assert len(certified) == len(certified_records()) == len(specs)
    # The counter sees Dixon where it still runs.
    character_table(build_group(GroupSpec.symmetric(4)))
    assert calls == ["S4"]
    # Over the whole sweep, Dixon runs only on groups with no abelian
    # subgroup of index 2, so on nonabelian groups only.
    run_verification(64)
    assert len(calls) > 1 and not any(abelian) and not any(halves)


def test_abelian_route_rejects_a_power_map_no_character_extends_along():
    group = build_group(GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2)))
    # The chain adjoins h = 1 first, then g = 2. A power map claiming g**2 = h
    # asks for chi(g) with chi(g)**2 = chi(h) = -1 for the sign chi of <h>,
    # and no square root of unity is one.
    classes = group.classes
    powers = group.powers.copy()
    powers[2, 2] = 1
    group.__dict__["powers"] = powers
    with pytest.raises(
        CharacterEngineError,
        match=r"^exponent of a character of a subgroup of C2xC2 at g\*\*2 is not divisible by 2$",
    ):
        _abelian_table_data(group, classes)


def _c4xs3_by_generators():
    """C4 x S3 given by permutations, so that neither the product route nor
    Dixon serves it: the abelian half is C4 x C3, and b inverts C3 alone."""
    return build_group(
        GroupSpec.permutation_generators(
            [[1, 2, 3, 0, 4, 5, 6], [0, 1, 2, 3, 5, 6, 4], [0, 1, 2, 3, 5, 4, 6]]
        )
    )


def test_clifford_route_rejects_a_twist_that_does_not_permute_irr(monkeypatch):
    group = build_group(GroupSpec.dihedral(6))
    classes, lam = group.classes, _abelian_half(group, group.classes)
    assert lam is not None
    b = int(lam.negative_indices()[0])
    h = lam.kernel_indices()
    # b^-1 h b is read as (b^-1 h) b: swap b^-1 h for two elements h of the
    # kernel, so that the twist moves the identity, which no automorphism does.
    product = group.product.copy()
    row = group.inverse[b]
    product[row, h[0]], product[row, h[1]] = product[row, h[1]], product[row, h[0]]
    monkeypatch.setattr(group, "product", product)
    with pytest.raises(
        CharacterEngineError,
        match=rf"^conjugation by {b} does not permute Irr\(ker\({lam.label}\)\) of D6$",
    ):
        _clifford_table_data(group, classes, lam)


def test_clifford_route_rejects_a_square_of_b_with_an_odd_exponent():
    group = _c4xs3_by_generators()
    classes, lam = group.classes, _abelian_half(group, group.classes)
    assert group.order == 24 and lam is not None
    b = int(lam.negative_indices()[0])
    # The twist fixes every character of C4 x C3 that is trivial on C3, and
    # one of them sends an element c of order 4 to i = zeta_12**3. A power map
    # claiming b**2 = c asks for 2 f = 3 (mod 12).
    c = next(x for x in lam.kernel_indices() if classes.orders[classes.class_of[x]] == 4)
    powers = group.powers.copy()
    powers[2, b] = c
    group.__dict__["powers"] = powers
    with pytest.raises(
        CharacterEngineError,
        match=rf"^exponent of a twist-fixed character of ker\({lam.label}\) at b\*\*2 "
        rf"is odd in {re.escape(group.name)}$",
    ):
        _clifford_table_data(group, classes, lam)
    # The unpatched group takes the route, and its table is Dixon's.
    _assert_matches_dixon(_c4xs3_by_generators(), _clifford_route)


def _corrupting(route):
    """The route with chi_1's value at class 1 changed to another of its values."""

    def corrupted(group, classes, *args):
        degrees, distinct, which, modulus = route(group, classes, *args)
        which = which.copy()
        which[1, 1] = (which[1, 1] + 1) % len(distinct)
        return degrees, distinct, which, modulus

    return corrupted


@pytest.mark.parametrize(
    "route, spec",
    [
        ("_abelian_table_data", GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2))),
        (
            "_product_table_data",
            GroupSpec.direct_product(GroupSpec.quaternion(8), GroupSpec.symmetric(3)),
        ),
        ("_abelian_table_data", GroupSpec.cyclic(5)),
        ("_clifford_table_data", GroupSpec.dihedral(6)),
        ("_clifford_table_data", GroupSpec.quaternion(8)),
    ],
    ids=["C2xC2", "Q8xS3", "C5", "D6", "Q8"],
)
def test_certificate_rejects_a_corrupted_value_on_the_new_routes(
    route, spec, fresh_caches, monkeypatch
):
    monkeypatch.setattr(characters, route, _corrupting(getattr(characters, route)))
    group = build_group(spec)
    message = rf"^character table of {group.name} failed self-checks: .*row orthogonality fails"
    with pytest.raises(CharacterEngineError, match=message):
        character_table(group)
    # The rejected data was not cached: an equal group is built and rejected again.
    with pytest.raises(CharacterEngineError, match=message):
        character_table(build_group(spec))


def test_chartab_of_a_nested_product_certifies_only_the_served_table(
    fresh_caches, certified, capsys
):
    c2 = {"family": "cyclic", "n": 2}
    c2xc2 = {"family": "direct_product", "factors": [c2, c2]}
    spec = {"family": "direct_product", "factors": [c2, c2xc2]}
    assert cli.main(["chartab", json.dumps(spec)]) == 0
    assert "group C2xC2xC2" in capsys.readouterr().out
    assert certified == ["C2xC2xC2"]


def test_equal_factors_share_one_dixon_run(fresh_caches, monkeypatch):
    """S4 x S4 builds its factors' raw data once for both, so Dixon runs on
    one S4; A4 x S4, whose factors differ, builds each factor's own."""
    calls = []
    real_dixon = dixon.character_table_data

    def counting_dixon(group, classes):
        calls.append(group.name)
        return real_dixon(group, classes)

    monkeypatch.setattr(dixon, "character_table_data", counting_dixon)
    s4 = GroupSpec.symmetric(4)
    character_table(build_group(GroupSpec.direct_product(s4, s4)))
    assert calls == ["S4"]
    calls.clear()
    character_table(build_group(GroupSpec.direct_product(GroupSpec.alternating(4), s4)))
    assert calls == ["A4", "S4"]


def test_a_product_table_leaves_no_table_of_its_factors(fresh_caches):
    group = build_group(GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(128)))
    character_table(group)
    a, b = group.factors
    assert group.table is not None
    assert a.table is None and b.table is None
    assert len(certified_records()) == 1


def test_a_corrupted_copy_computes_its_own_analysis_weights():
    table = character_table(build_group(GroupSpec.symmetric(3)))
    assert table_invariant_failures(table) == []
    weights = dict(table._weights)
    bad = corrupt_table(table, 1, 1)
    assert bad._weights == {}
    assert any("row orthogonality fails" in f for f in table_invariant_failures(bad))
    assert bad._weights.keys() == weights.keys()
    tensors = [key for key in weights if isinstance(key, tuple)]
    assert tensors
    fresh = corrupt_table(table, 1, 1)
    for key in tensors:
        assert not np.array_equal(bad._weights[key], weights[key])
        # The copy's weights are those of its own values, computed afresh.
        assert np.array_equal(_analysis_weights(fresh, fresh.ring, *key[1:]), bad._weights[key])
    # The source table's weights are untouched.
    assert all(table._weights[key] is weights[key] for key in weights)
