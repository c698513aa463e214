"""The one-point route of the certificate.

When each generator of Gal(Q(zeta_m)/Q) permutes the rows of a table, its
row Gram at z itself decides what every point decides (characters.py
module docstring). These tests check that the certificate takes the route
wherever it applies, and that a table it does not cover falls back to
every point with the same messages. Decompositions take every point of
each prime; the last two tests pin the result for a C5 batch that sigma_t
does not permute, and the message for one it permutes whose
multiplicities are irrational.
"""

import numpy as np
import pytest

from conftest import dense_values
from ksphere import characters, groups, kernels
from ksphere.characters import (
    _analysis_weights,
    _certificate_primes,
    _galois_closed,
    _orthogonality_failures,
    character_table,
    lambda_context,
    table_invariant_failures,
)
from ksphere.groups import GroupSpec, build_group, builtin_specs_upto, enumerate_sign_homs
from ksphere.verification import corrupt_table

SMALL = [build_group(spec) for spec in builtin_specs_upto(64)]


@pytest.fixture
def routes(monkeypatch):
    """Fresh table caches, and (group, phi, route) for every orthogonality
    check the certificate runs: "one-point" or "all-points"."""
    for group in SMALL:
        monkeypatch.setattr(group, "table", None)
        monkeypatch.delitem(vars(group), "record", raising=False)
    monkeypatch.setattr(groups, "_registry", {})
    log = []
    real = characters._orthogonality_failures

    def spy(table, primes, one_point):
        log.append((table.name, table.ring.phi, "one-point" if one_point else "all-points"))
        return real(table, primes, one_point)

    monkeypatch.setattr(characters, "_orthogonality_failures", spy)
    return log


def test_one_point_weights_are_the_first_point_of_the_all_points_weights():
    """conj(chi_c) at z read as chi_pi_-1(c) at z equals z's column of the
    conjugated images, on every certified builtin table with phi > 2."""
    checked = 0
    for group in SMALL:
        table = character_table(group)
        if table.ring.phi <= 2:
            continue
        one = _analysis_weights(table, table.ring, 0, True)
        every = _analysis_weights(table, table.ring, 0, False)
        assert one.shape == (table.count, table.count, 1)
        assert np.array_equal(one[..., 0], every[..., 0]), group.name
        checked += 1
    assert checked > 20


def _fails_at_one_point(table):
    return _orthogonality_failures(table, _certificate_primes(table), one_point=True).any()


@pytest.mark.parametrize(
    "spec, route",
    [(GroupSpec.dihedral(31), "one-point"), (GroupSpec.symmetric(3), "all-points")],
    ids=["D31", "S3"],
)
def test_the_certificate_contracts_one_gram_per_prime(spec, route, routes, monkeypatch):
    table = character_table(build_group(spec))
    grams = []
    real = kernels.weighted_analysis

    def spy(v, w, p):
        grams.append(p)
        return real(v, w, p)

    monkeypatch.setattr(kernels, "weighted_analysis", spy)
    del routes[:]
    assert table_invariant_failures(table) == []
    assert [r for _, _, r in routes] == [route]
    primes = _certificate_primes(table)
    assert len(grams) == primes == (2 if spec == GroupSpec.dihedral(31) else 1)
    assert len(set(grams)) == primes  # one row Gram per evaluation prime


def test_every_certified_builtin_table_takes_the_one_point_route(routes):
    for group in SMALL:
        character_table(group)
        for lam in enumerate_sign_homs(group):
            lambda_context(group, lam)
    assert len(routes) > 100
    big = [route for _, phi, route in routes if phi > 2]
    assert big and set(big) == {"one-point"}  # and no fallback to every point
    # Where phi <= 2 there is at most one point to save, and all points are taken.
    assert {route for _, phi, route in routes if phi <= 2} == {"all-points"}


def test_a_rational_corruption_keeps_closure_but_fails_the_one_point_gram(routes):
    s3 = character_table(build_group(GroupSpec.symmetric(3)))
    bad = corrupt_table(s3, 2, 1)  # a rational value changed: every sigma_t still permutes
    assert _galois_closed(bad)
    assert _fails_at_one_point(bad)
    # The certificate of S4 (phi = 4) tries z first, then names the pairs from every point.
    s4 = character_table(build_group(GroupSpec.symmetric(4)))
    bad = corrupt_table(s4, 2, 1)
    assert _galois_closed(bad)
    del routes[:]
    failures = table_invariant_failures(bad)
    assert routes == [("S4", 4, "one-point"), ("S4", 4, "all-points")]
    assert failures == [
        "row orthogonality fails at character pairs (0,2), (1,2), (2,0), (2,1), (2,2)",
    ]


# 1 added to an irrational value, chi_1 of C5 and chi_2 of D17 at a rotation
# class, and the certificate's messages as every point gives them.
IRRATIONAL = [
    (
        GroupSpec.cyclic(5),
        (1, 1),
        [
            "characters are not in canonical order",
            "row orthogonality fails at character pairs (0,1), (1,0), (1,1), (1,2), (1,3)",
        ],
    ),
    (
        GroupSpec.dihedral(17),
        (2, 2),
        [
            "row orthogonality fails at character pairs (0,2), (1,2), (2,0), (2,1), (2,2)",
        ],
    ),
]


@pytest.mark.parametrize("spec, where, messages", IRRATIONAL, ids=["C5", "D17"])
def test_an_irrational_corruption_breaks_closure_and_falls_back(spec, where, messages, routes):
    table = character_table(build_group(spec))
    assert table_invariant_failures(table) == []
    bad = corrupt_table(table, *where)
    assert dense_values(bad)[where][1:].any()  # the corrupted value is irrational
    assert not _galois_closed(bad)
    del routes[:]
    assert table_invariant_failures(bad) == messages
    assert routes == [(table.name, table.ring.phi, "all-points")]


def test_a_batch_not_closed_up_to_sign_decomposes():
    table = character_table(build_group(GroupSpec.cyclic(5)))
    varr = dense_values(table)[1:2]  # chi_1 alone: sigma_2 chi_1 = chi_2 is not in the batch
    got = characters.decompose_values(table, varr)
    assert got.tolist() == [[0, 1, 0, 0, 0]]


def test_a_closed_batch_with_irrational_multiplicities_is_reported():
    table = character_table(build_group(GroupSpec.cyclic(5)))
    ring = table.ring
    varr = np.zeros((4, table.count, ring.phi), dtype=np.int64)
    varr[:, 0] = ring.red[1:5]  # zeta**a at the identity class, a = 1..4: sigma_t permutes them
    message = "^non-rational multiplicity on C5: function 0, irreducible chi0$"
    with pytest.raises(characters.CharacterTheoryError, match=message):
        characters.decompose_values(table, varr)
