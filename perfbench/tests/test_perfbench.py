"""Tests of the benchmark harness itself: python3 -m pytest perfbench/tests -q"""

import itertools
import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        ("root", 0.0, 10.0, -1, "a"),
        ("left", 1.0, 4.0, 0, "a"),
        ("leaf", 2.0, 3.0, 1, "a"),
        ("right", 5.0, 7.0, 0, "a"),
        ("other", 20.0, 21.5, -1, "b"),
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1, None), ("c", 1.0, 6.0, 0, None), ("c", 4.0, 12.0, 0, None)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_do_not_double_count_recursion():
    spans = [
        ("f", 0.0, 8.0, -1, None),
        ("f", 1.0, 5.0, 0, None),
        ("g", 2.0, 3.0, 1, None),
    ]
    totals = tracer.layer_totals(spans)
    assert totals["f"] == {"calls": 2, "s": 8.0, "self_s": 7.0}
    assert totals["g"] == {"calls": 1, "s": 1.0, "self_s": 1.0}


def test_contraction_mults_follow_operand_shapes():
    mul = np.zeros((4, 4, 4), dtype=np.int64)
    assert tracer.contraction_mults("mul_into", np.zeros((2, 3, 4)), mul) == 6 * 64
    at = np.zeros((5, 3, 4, 4))
    assert tracer.contraction_mults("weighted_analysis", np.zeros((2, 3, 4)), at) == 2 * 5 * 3 * 16
    assert tracer.contraction_mults("pair_gram", np.zeros((7, 3, 4)), at) == 7 * at.size


def test_item_order_is_deterministic_per_seed_and_changes_with_it():
    items = run.load_items("verify-sweep")
    first = [i["id"] for i in run.ordered_items(items, 7, 0)]
    assert first == [i["id"] for i in run.ordered_items(items, 7, 0)]
    assert first != [i["id"] for i in run.ordered_items(items, 8, 0)]
    assert first[::-1] == [i["id"] for i in run.ordered_items(items, 7, 1)]
    third = [i["id"] for i in run.ordered_items(items, 7, 2)]
    assert third != first and third == [i["id"] for i in run.ordered_items(items, 7, 2)]
    assert sorted(first) == sorted(i["id"] for i in items)


def test_items_of_a_group_run_together_in_file_order():
    items = run.load_items("kgroup-wide")
    for pass_index in (0, 1):
        order = run.ordered_items(items, 3, pass_index)
        runs = [k for k, _ in itertools.groupby(i["group"] for i in order)]
        assert len(runs) == len({i["group"] for i in items}) == 6
        for group in runs:
            assert [i for i in order if i["group"] == group] == [
                i for i in items if i["group"] == group
            ]


def test_workloads_have_golden_digests():
    with open(os.path.join(BENCH, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)
    assert {k: len(v) for k, v in workloads.items()} == {
        "verify-sweep": 74,
        "kgroup-wide": 40,
        "chartab-many-classes": 10,
    }
    for items in workloads.values():
        for item in items:
            assert len(item["sha256"]) == 64


def test_scaling_divides_by_the_calibrations_around_each_item():
    ref = run.CALIB_REF_S
    # calibs[k] is timed before item k and calibs[k + 1] after it; twice the
    # calibration time means a host twice as slow, so the scaled time halves.
    assert run.scaled([1.0, 2.0], [ref, ref, ref]) == [1.0, 2.0]
    assert run.scaled([1.0, 2.0], [2 * ref, 2 * ref, 2 * ref]) == [0.5, 1.0]
    assert run.scaled([1.0], [ref, 4 * ref]) == [pytest.approx(0.5)]


def test_item_latency_is_the_median_over_pairs_of_the_pair_mean():
    # "a" builds a shared table in one pass of each pair and reads it in the other.
    times = [{"a": 2.0, "b": 1.0}, {"a": 1.0, "b": 1.2}, {"a": 2.2, "b": 0.9}, {"a": 0.8, "b": 1.1}]
    times += [{"a": 9.0, "b": 1.0}, {"a": 9.0, "b": 1.0}]
    latencies = run.item_latencies([{"items": t} for t in times])
    assert latencies == {"a": pytest.approx(1.5), "b": pytest.approx(1.0)}


def test_corrupted_output_counts_as_failure():
    item = {"id": "x", "argv": [], "sha256": "a" * 64}
    good = {"error": None, "code": 0, "sha256": "a" * 64}
    assert not run.is_failure(item, good)
    assert run.is_failure(item, dict(good, sha256="b" * 64))
    assert run.is_failure(item, dict(good, sha256=None))
    assert run.is_failure(item, dict(good, code=1))


def test_pass_flags_a_digest_mismatch(tmp_path):
    (item,) = [i for i in run.load_items("verify-sweep") if i["id"] == "verify:C2"]
    corrupt = dict(item, sha256="0" * 64)
    deadline = run.perf_counter() + 60
    result = run.run_pass([item, corrupt], deadline, str(tmp_path))
    assert result["failures"] == [(item["id"], "golden digest mismatch")]
    assert set(result["items"]) == {item["id"]}
    assert result["final"]["maxrss_kb"] > 0


def _bindings():
    """Every binding the tracer may replace, by identity."""
    modules = {k: m for k, m in sys.modules.items() if k == "ksphere" or k.startswith("ksphere.")}
    out = {}
    for key, module in modules.items():
        for attr, value in vars(module).items():
            out[(key, attr)] = value
            if isinstance(value, tuple):
                out[(key, attr, "items")] = tuple(value)
    cyclotomic = modules["ksphere.cyclotomic"].Cyclotomic
    out[("Cyclotomic", "make")] = vars(cyclotomic)["make"]
    return out


def test_tracer_wraps_every_binding_and_restores_it():
    from ksphere import characters, cli, cyclotomic, verification

    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        assert characters.decompose_values is not t.originals["characters.decompose_values"]
        assert verification.decompose_values is characters.decompose_values
        assert verification.LAMBDA_CHECKS[0] is not before[
            ("ksphere.verification", "LAMBDA_CHECKS", "items")
        ][0]
        t.item = "S3"
        with redirect_stdout(StringIO()):
            assert cli.main(["verify", '{"family":"S","n":3}']) == 0
    finally:
        restored = t.restore()
    assert restored
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before if len(k) == 2)
    assert all(a is b for k in before if len(k) == 3 for a, b in zip(after[k], before[k]))
    assert cyclotomic.Cyclotomic.make is t.originals["cyclotomic.Cyclotomic.make"]

    names = {s[0] for s in t.spans}
    assert {"cli.main", "verification.check_table", "cyclotomic.get_ring"} <= names
    assert all(s[4] == "S3" and s[2] >= s[1] for s in t.spans)
    roots = [s for s in t.spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    assert t.counters["kernels.pair_gram.mults"] > 0
