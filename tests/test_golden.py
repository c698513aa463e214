"""Byte identity of the JSON reports on the benchmark's fixed spec set.

Every item of `perfbench/workloads.json` (read only) is a CLI argv with the
sha256 of the `--json` report it must produce. Running them all in-process
makes the byte-identical contract part of the test suite.
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
