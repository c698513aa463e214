"""Byte identity of the JSON reports on the benchmark's fixed spec set.

Every item of `perfbench/workloads.json` (read only) is a CLI argv with the
sha256 of the `--json` report it must produce. Running them all in-process
makes the byte-identical contract part of the test suite, as does one
larger report beyond that set.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ksphere import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
ITEMS = [item for items in json.loads(WORKLOADS.read_text()).values() for item in items]


def test_every_workload_item_has_a_digest():
    assert len(ITEMS) == 124
    assert all(len(item["sha256"]) == 64 for item in ITEMS)


@pytest.mark.parametrize("item", ITEMS, ids=[item["id"] for item in ITEMS])
def test_json_report_matches_golden_digest(item, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(item["argv"] + ["--json", str(path)]) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == item["sha256"]


# The order-256 kernel of C8 x C64 under generator signs (-1, -1) is abelian
# and noncyclic, so this report guards the closed-form abelian route at
# order 256, where Dixon would take seconds.
C8xC64_SIGNS = (
    '{"family":"direct_product","factors":[{"family":"cyclic","n":8},'
    '{"family":"cyclic","n":64}],"lambda":{"generator_signs":[-1,-1]}}'
)


def test_kgroup_report_of_the_large_abelian_kernel_matches_golden_digest(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["kgroup", C8xC64_SIGNS, "--sphere", "s1-lambda", "--json", str(path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "9d4d32540176d1011c547bc0a8a5a34b568be16cf1527af738c76a5217e5dd10"
    )
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "1924f2c608b1b165808edd18bbe90b2708b834b9e2e5631e6f9b405b8e992ad3"
    )
