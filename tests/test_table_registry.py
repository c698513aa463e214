"""The table registry: one record per distinct product table.

A group finds its record by a sample of its table and confirms it by the
record's Cayley columns, product[:, record.generators]. Equal tables share a
record, and with it their classes and certified character data, whatever
generators each group records; different tables never do, even when their
samples agree.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import certified_records
from ksphere import characters, cli, groups
from ksphere.characters import character_table
from ksphere.groups import GroupSpec, build_group, enumerate_sign_homs, kernel_embedding

S6 = '{"family":"S","n":6}'


@pytest.fixture
def registry(monkeypatch):
    """An empty registry, and the conjugacy_classes calls made while it is in use."""
    calls = []
    real = groups.conjugacy_classes

    def counting(table):
        calls.append(table.name)
        return real(table)

    monkeypatch.setattr(groups, "conjugacy_classes", counting)
    monkeypatch.setattr(groups, "_registry", {})
    return calls


@pytest.mark.parametrize(
    "first, second",
    [
        (GroupSpec.cyclic(4), GroupSpec.direct_product(GroupSpec.cyclic(2), GroupSpec.cyclic(2))),
        (GroupSpec.cyclic(6), GroupSpec.symmetric(3)),
    ],
    ids=["C4-C2xC2", "C6-S3"],
)
def test_different_tables_with_one_key_get_separate_records(
    first, second, registry, monkeypatch
):
    """Negative control: with every table of one order sampled to the same
    key, two different tables still get their own records, classes and
    certified data."""
    monkeypatch.setattr(groups, "_table_key", lambda product: (len(product), 0))
    a, b = build_group(first), build_group(second)
    assert not np.array_equal(a.product, b.product)
    table_a, table_b = character_table(a), character_table(b)
    assert groups._registry[a.order, 0] == [a.record, b.record]
    assert a.record is not b.record
    assert a.classes.orders != b.classes.orders
    assert registry[:2] == [a.name, b.name]  # S3 classes its kernel C3 too
    assert a.record.data is not b.record.data
    assert table_a.modulus != table_b.modulus or table_a.count != table_b.count
    # A second object of each table finds its own record among the two.
    assert build_group(second).record is b.record and build_group(first).record is a.record


def test_equal_tables_with_different_generators_share_one_record(registry):
    """Positive control: C3 as the sign kernel of C3 x C2 (Schreier
    generators (1,)) and of D3 (the rotations, (1, 2)) is one table, so one
    record, classed and certified once; so is C6 recorded with the
    generator 5 in place of 1."""
    kernels = []
    for spec in (
        GroupSpec.direct_product(GroupSpec.cyclic(3), GroupSpec.cyclic(2)),
        GroupSpec.dihedral(3),
    ):
        group = build_group(spec)
        (lam,) = enumerate_sign_homs(group)
        kernels.append(kernel_embedding(group, lam).subgroup)
    a, b = kernels
    assert a.generators == (1,) and b.generators == (1, 2)
    assert np.array_equal(a.product, b.product)
    assert a.record is b.record and b.classes is a.classes
    assert registry == [b.name]  # b was classed first
    assert character_table(b).count == 3 and a.record.data is not None
    assert len(certified_records()) == 1
    c6 = build_group(GroupSpec.cyclic(6))
    other = dataclasses.replace(c6, generators=(5,))
    assert other.record is c6.record and other.classes is c6.classes


def test_no_record_holds_a_whole_table(registry, capsys):
    """After `chartab` of S6 (720 elements), every array the registry holds
    has fewer than n**2 / 100 entries, and finding the record of a second
    S6 allocates less than 1/64 of one copy of its table."""
    assert cli.main(["chartab", S6]) == 0
    assert "group S6" in capsys.readouterr().out
    (record,) = [rec for recs in groups._registry.values() for rec in recs]
    n = len(record.columns)
    degrees, distinct, which, modulus = record.data
    arrays = [record.generators, record.columns, record.classes.class_of, distinct, which]
    assert n == 720 and max(arr.size for arr in arrays) < n * n // 100
    again = build_group(GroupSpec.symmetric(6))
    tracemalloc.start()
    try:
        found = groups.table_record(again.product, again.generators)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is record
    assert peak < again.product.nbytes // 64  # the 4096-entry sample and the columns


def test_the_certified_data_is_kept_only_on_records(registry):
    """character_table keeps no module cache: a second group object with an
    equal table reads the record's data, classed and certified once."""
    assert not hasattr(characters, "_table_data_cache")
    assert not hasattr(groups.GroupTable, "fingerprint")
    s4 = build_group(GroupSpec.symmetric(4))
    table = character_table(s4)
    again = build_group(GroupSpec.symmetric(4))
    assert character_table(again).which is table.which
    assert len(certified_records()) == 1 and registry == ["S4"]
