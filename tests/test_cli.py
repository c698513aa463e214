"""CLI behavior: outputs, exit codes, JSON round trips, byte determinism."""

import hashlib
import json
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from conftest import chartab_reference_doc, dense_values, run_cli, run_python
from ksphere import cli
from ksphere.characters import character_table
from ksphere.cyclotomic import Cyclotomic
from ksphere.groups import build_group, parse_group_document
from ksphere import characters, groups, ktheory, verification
from ksphere.ktheory import k_group_s1_lambda, k_group_s_lambda
from ksphere.verification import CheckReport

S3_SPEC = '{"family":"S","n":3,"lambda":{"convention":"sign"}}'
C6_SPEC = '{"family":"C","n":6,"lambda":{"convention":"onto-pm1"}}'
D4_SPEC = '{"family":"D","n":4,"lambda":{"convention":"reflection-sign"}}'


def test_chartab_inline(capsys):
    assert cli.main(["chartab", '{"family":"S","n":3}']) == 0
    out = capsys.readouterr().out
    assert "group S3" in out and "chi2" in out


def test_chartab_from_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(S3_SPEC, encoding="utf-8")
    assert cli.main(["chartab", str(path)]) == 0
    assert "chi2" in capsys.readouterr().out


def _product(a: str, b: str) -> str:
    return f'{{"family":"product","factors":[{a},{b}]}}'


C2 = '{"family":"C","n":2}'
# k = 1; phi = 1; phi = 8 with several nonzero coefficients; a product of
# two Dixon tables; k = 128, an abelian product of seven factors.
CHARTAB_REFERENCE_SPECS = {
    "C1": '{"family":"C","n":1}',
    "S3": '{"family":"S","n":3}',
    "A5xC6": _product('{"family":"A","n":5}', '{"family":"C","n":6}'),
    "D8xD4": _product('{"family":"D","n":8}', '{"family":"D","n":4}'),
    "C2^7": reduce(_product, [C2] * 7),
}


@pytest.mark.parametrize(
    "spec", CHARTAB_REFERENCE_SPECS.values(), ids=CHARTAB_REFERENCE_SPECS.keys()
)
def test_chartab_report_is_the_reference_document_encoded(spec, tmp_path, capsys):
    path = tmp_path / "chartab.json"
    assert cli.main(["chartab", spec, "--json", str(path)]) == 0, capsys.readouterr().err
    group = build_group(parse_group_document(json.loads(spec))[0])
    table = character_table(group)
    reference = json.dumps(
        chartab_reference_doc(group, table),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )
    raw = path.read_bytes()
    assert raw == (reference + "\n").encode("ascii")
    doc = json.loads(raw)
    values = [
        [Cyclotomic.from_json(v) for v in irr["values"]] for irr in doc["irreducibles"]
    ]
    assert all(v.modulus == table.modulus and v.den == 1 for row in values for v in row)
    assert np.array_equal(
        np.array([[v.num for v in row] for row in values], dtype=np.int64), dense_values(table)
    )


def test_only_chartab_renders_labels_and_only_its_representatives(monkeypatch, tmp_path, capsys):
    """Labels are rendered on demand: chartab S6 renders at most k + |S| of
    its 720, with or without --json, and kgroup and verify render none."""
    rendered = []
    real_label = groups.GroupTable.label

    def counting_label(self, x):
        rendered.append(int(x))
        return real_label(self, x)

    monkeypatch.setattr(groups.GroupTable, "label", counting_label)
    s6 = '{"family":"S","n":6}'
    assert cli.main(["chartab", s6, "--json", str(tmp_path / "s6.json")]) == 0
    group = build_group(parse_group_document(json.loads(s6))[0])
    reps = group.classes.representatives
    assert set(rendered) == set(reps)
    assert len(rendered) <= len(reps) + len(group.generators)
    rendered.clear()
    s4 = '{"family":"S","n":4,"lambda":{"convention":"sign"}}'
    for sphere in ("s1-lambda", "s-lambda"):
        assert cli.main(["kgroup", s4, "--sphere", sphere]) == 0
    d4 = '{"family":"D","n":4,"lambda":{"convention":"reflection-sign"}}'
    for spec in (s4, d4):
        assert cli.main(["verify", spec]) == 0
    assert rendered == []
    capsys.readouterr()


def test_kgroup_s1_lambda_s3(tmp_path, capsys):
    out_json = tmp_path / "out.json"
    assert cli.main(["kgroup", S3_SPEC, "--sphere", "s1-lambda", "--json", str(out_json)]) == 0
    out = capsys.readouterr().out
    assert "rank 1" in out
    doc = json.loads(out_json.read_text())
    pres = doc["presentation"]
    assert pres["rank"] == 1
    assert pres["basis"][0]["coeffs"] == [0, 1, -1]
    assert pres["action"]["matrices"][2] == [[-1]]
    assert pres["product_rule"] == "zero"


def test_kgroup_rank_zero_for_cyclic6(capsys):
    assert cli.main(["kgroup", C6_SPEC, "--sphere", "s1-lambda"]) == 0
    assert "rank 0" in capsys.readouterr().out


def test_kgroup_s_lambda(tmp_path, capsys):
    out_json = tmp_path / "out.json"
    assert cli.main(
        ["kgroup", '{"family":"C","n":2,"lambda":{"convention":"onto-pm1"}}',
         "--sphere", "s-lambda", "--json", str(out_json)]
    ) == 0
    doc = json.loads(out_json.read_text())
    assert doc["presentation"]["rank"] == 1
    assert doc["presentation"]["basis"] == [[1, -1]]


def test_verify_single_group(capsys):
    assert cli.main(["verify", D4_SPEC]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_verify_all_upto(capsys):
    assert cli.main(["verify", "--all-upto", "12"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    def always_fails(group, lam):
        return [CheckReport("forced", group.name, lam.label, "fail", "synthetic")]

    monkeypatch.setattr(verification, "LAMBDA_CHECKS", (always_fails,))
    assert cli.main(["verify", D4_SPEC]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_input_error_exit_codes(tmp_path, monkeypatch, capsys):
    assert cli.main(["chartab", '{"family":"X","n":3}']) == 2
    assert "unknown family" in capsys.readouterr().err
    assert cli.main(["kgroup", '{"family":"S","n":3}']) == 2
    assert "lambda" in capsys.readouterr().err
    assert cli.main(["chartab", "not-a-file.json"]) == 2
    capsys.readouterr()
    assert cli.main(["chartab", '{"family":"S","n":3,']) == 2
    assert "invalid JSON" in capsys.readouterr().err
    assert cli.main(["kgroup", '{"family":"C","n":5,"lambda":{"convention":"onto-pm1"}}']) == 2
    assert "even" in capsys.readouterr().err
    assert cli.main(["chartab", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"family":"S","n":3,"name":"Gruppe \xfc"}'.encode("latin-1"))
    assert cli.main(["chartab", str(latin1)]) == 2
    assert "'utf-8' codec can't decode" in capsys.readouterr().err
    # JSON integers only: no booleans, floats or non-unit signs.
    for command, doc, field in [
        ("chartab", '{"family":"C","n":true}', "'n'"),
        ("chartab", '{"generators":[[1.0,0.0,2.0]]}', "'generators[0][0]'"),
        ("chartab", '{"generators":[[true,false]]}', "'generators[0][0]'"),
        ("chartab", '{"generators":[3]}', "'generators[0]'"),
        ("kgroup", '{"family":"D","n":3,"lambda":{"generator_signs":[1.7,-1]}}',
         "'lambda.generator_signs[0]'"),
        ("kgroup", '{"family":"D","n":3,"lambda":{"generator_signs":[1,2]}}',
         "'lambda.generator_signs[1]'"),
        # A spec that names two things is refused, not resolved silently.
        ("chartab", '{"family":"C","n":4,"generators":[[1,0]]}',
         "group spec takes 'family' or 'generators', not both"),
        ("kgroup", '{"family":"C","n":4,"lambda":{"convention":"onto-pm1","generator_signs":[1]}}',
         "field 'lambda' takes 'convention' or 'generator_signs', not both"),
        # Signs that no homomorphism realises: the first generator is the
        # identity, and then two equal generators with opposite signs.
        ("kgroup", '{"generators":[[0,1],[1,0]],"lambda":{"generator_signs":[-1,-1]}}',
         "generator_signs[0] = -1 is not realised"),
        ("kgroup",
         '{"generators":[[1,0,2],[1,0,2],[1,2,0]],"lambda":{"generator_signs":[-1,1,1]}}',
         "generator_signs[1] = +1 is not realised"),
    ]:
        assert cli.main([command, doc]) == 2, doc
        assert field in capsys.readouterr().err, doc
    # A sweep takes no group spec and needs N >= 1.
    for argv, needle in [
        (["verify", '{"family":"S","n":5}', "--all-upto", "2"], "--all-upto takes no group spec"),
        (["verify", "not-a-file", "--all-upto", "2"], "'not-a-file'"),
        (["verify", "--all-upto", "0"], "--all-upto N needs N >= 1, got 0"),
        (["verify", "--all-upto", "-3"], "--all-upto N needs N >= 1, got -3"),
    ]:
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and needle in captured.err, argv
    # An inline JSON array is parsed, not taken for a file name.
    assert cli.main(["chartab", "[1]"]) == 2
    assert "group spec must be a JSON object" in capsys.readouterr().err
    # A --json path that cannot be written is rejected before any group is built.
    c3 = '{"family":"C","n":3}'
    with monkeypatch.context() as patch:
        patch.setattr(cli, "build_group", None)  # calling it would raise TypeError
        for argv in [
            ["chartab", c3, "--json", str(tmp_path)],
            ["chartab", c3, "--json", str(tmp_path / "no" / "x.json")],
            ["chartab", c3, "--json", ""],
            ["kgroup", c3, "--json", str(tmp_path)],
            ["verify", "--all-upto", "2", "--json", ""],
        ]:
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            needle = f"--json path {argv[-1]!r} must name a file in an existing directory"
            assert captured.out == "" and needle in captured.err, argv
    # A write that fails anyway (a symlink into a missing directory) also exits 2.
    dangling = tmp_path / "dangling.json"
    dangling.symlink_to(tmp_path / "missing" / "x.json")
    assert cli.main(["chartab", c3, "--json", str(dangling)]) == 2
    assert f"cannot write --json path {dangling}" in capsys.readouterr().err
    # Rejected before the sweep builds any group below the cap.
    monkeypatch.setenv("KSPHERE_MAX_ORDER", "10")
    assert cli.main(["verify", "--all-upto", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "order cap 10" in captured.err


def test_order_cap_env():
    s4 = '{"family":"S","n":4}'
    proc = run_cli(["chartab", s4], env={"KSPHERE_MAX_ORDER": "10"})
    assert proc.returncode == 2, proc.stderr
    assert "order cap 10" in proc.stderr
    # Control: S4 has order 24, so a cap of exactly 24 admits it.
    proc = run_cli(["chartab", s4], env={"KSPHERE_MAX_ORDER": "24"})
    assert proc.returncode == 0, proc.stderr


def test_order_cap_env_bounds_the_verify_sweep():
    proc = run_cli(["verify", "--all-upto", "11"], env={"KSPHERE_MAX_ORDER": "10"})
    assert proc.returncode == 2, proc.stderr
    assert "order cap 10" in proc.stderr and proc.stdout == ""
    # Control: a sweep up to exactly the cap runs.
    proc = run_cli(["verify", "--all-upto", "10"], env={"KSPHERE_MAX_ORDER": "10"})
    assert proc.returncode == 0, proc.stderr
    assert "0 failures" in proc.stdout


def test_json_outputs_are_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        proc = run_cli(["kgroup", S3_SPEC, "--json", str(path)])
        assert proc.returncode == 0, proc.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()

    vpaths = [tmp_path / "va.json", tmp_path / "vb.json"]
    for path in vpaths:
        proc = run_cli(["verify", D4_SPEC, "--json", str(path)])
        assert proc.returncode == 0, proc.stderr
    assert vpaths[0].read_bytes() == vpaths[1].read_bytes()


def test_kgroup_json_round_trip_bit_for_bit(tmp_path):
    path = tmp_path / "pres.json"
    assert cli.main(["kgroup", D4_SPEC, "--json", str(path)]) == 0
    raw = path.read_text()
    doc = json.loads(raw)
    re_encoded = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"
    assert re_encoded == raw
    from ksphere.ktheory import k_group_s1_lambda
    from conftest import group_with_lambda
    from ksphere.groups import GroupSpec

    t, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    pres = k_group_s1_lambda(t, lam)
    assert doc["presentation"]["rank"] == pres.rank
    assert doc["presentation"]["basis"] == [
        {"rep": b.rep, "partner": b.partner, "label": b.label, "coeffs": list(b.character.coeffs)}
        for b in pres.basis
    ]
    assert doc["presentation"]["action"]["matrices"] == [a.tolist() for a in pres.action]


def test_version_and_help():
    proc = run_cli(["--version"])
    assert proc.returncode == 0 and "ksphere" in proc.stdout
    proc = run_cli(["--help"])
    assert proc.returncode == 0 and "reflection-sign" in proc.stdout


@pytest.mark.parametrize(
    "n, expected",
    [
        (32, "06d20efc6fdc5ecaa68bdbcbdea2c80bd090f1ad82598bfc97502777dd2ffe65"),
        # At 64 the induction matrices and ideal generators reach phi = 32.
        (64, "2897b52a5be16f3631f2cb2d71871787622f497550b1a083601eb3ffb84e02a9"),
    ],
    ids=["32", "64"],
)
def test_verify_all_upto_json_is_byte_identical(n, expected, tmp_path, capsys):
    path = tmp_path / f"verify{n}.json"
    assert cli.main(["verify", "--all-upto", str(n), "--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected


def test_the_parser_is_built_once_on_first_use(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        assert cli.main(["chartab", '{"family":"C","n":3}']) == 0
        assert cli.main(["chartab", '{"family":"C","n":4}']) == 0
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert "group C4" in capsys.readouterr().out


def test_the_cli_paths_do_not_import_numpy_ma():
    """numpy.ma costs about 12 ms of import, pulled in by a bare np.unique or
    np.union1d; no subcommand needs it."""
    script = f"""
import sys
from ksphere import cli
for argv in (
    ["chartab", {D4_SPEC!r}],
    ["kgroup", {D4_SPEC!r}, "--sphere", "s1-lambda"],
    ["kgroup", {D4_SPEC!r}, "--sphere", "s-lambda"],
    ["verify", {S3_SPEC!r}],
):
    assert cli.main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    proc = run_python(["-c", script])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
S6_SIGN = '{"family":"S","n":6,"lambda":{"convention":"sign"}}'
C64_SIGN = '{"family":"C","n":64,"lambda":{"convention":"onto-pm1"}}'
D512_REFLECTION_SIGN = '{"family":"dihedral","n":512,"lambda":{"convention":"reflection-sign"}}'
# AGL(1, 31): x -> x + 1 and x -> 3 x on the 31 points; 3 generates (Z/31)^*,
# so the second generator is a 30-cycle, odd.
AGL_1_31_SIGN = json.dumps({
    "generators": [[(x + 1) % 31 for x in range(31)], [3 * x % 31 for x in range(31)]],
    "lambda": {"convention": "sign"},
})


def _count_calls(monkeypatch, name: str, calls: list) -> list:
    """Append `name` to `calls` at each call of the function `name`, through
    every module that binds it."""
    real = getattr(characters, name)

    def counting(*args):
        calls.append(name)
        return real(*args)

    for module in (groups, characters, ktheory, verification, cli):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize(
    "spec, table_embeddings",
    [(S6_SIGN, 0), (D512_REFLECTION_SIGN, 1), (AGL_1_31_SIGN, 0)],
    ids=["S6", "D512", "AGL(1,31)"],
)
def test_kgroup_s_lambda_builds_no_kernel(spec, table_embeddings, monkeypatch, tmp_path, capsys):
    """The s-lambda report reads Irr(G) and lambda alone: no lambda context,
    so no Irr(ker lambda) and no twist, and no kernel embedding but those
    that building Irr(G) makes, as `chartab` does (the Clifford route of
    D512 embeds its abelian half, the rotations, once)."""
    calls = []
    for name in ("kernel_embedding", "lambda_context"):
        _count_calls(monkeypatch, name, calls)
    monkeypatch.setattr(characters, "_table_data_cache", {})
    assert cli.main(["chartab", spec]) == 0
    assert calls == ["kernel_embedding"] * table_embeddings
    calls.clear()
    monkeypatch.setattr(characters, "_table_data_cache", {})
    path = tmp_path / "report.json"
    assert cli.main(["kgroup", spec, "--sphere", "s-lambda", "--json", str(path)]) == 0
    assert json.loads(path.read_text())["presentation"]["rank"] > 0
    assert calls == ["kernel_embedding"] * table_embeddings
    capsys.readouterr()


def test_kgroup_s1_lambda_never_looks_up_the_lambda_index(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, "_sign_character_index", [])
    assert cli.main(["kgroup", S6_SIGN, "--sphere", "s1-lambda"]) == 0
    assert "rank 1" in capsys.readouterr().out
    assert calls == []
    # Control: the s-lambda report looks it up once.
    assert cli.main(["kgroup", S6_SIGN, "--sphere", "s-lambda"]) == 0
    assert len(calls) == 1
    capsys.readouterr()


def _kgroup_cases():
    items = json.loads(WORKLOADS.read_text())["kgroup-wide"]
    cases = [item["argv"][1:] for item in items]
    cases += [[C64_SIGN, "--sphere", "s1-lambda"], [S3_SPEC, "--sphere", "s1-lambda"]]
    return cases


def test_kgroup_json_is_the_whole_report_encoded(tmp_path, capsys):
    """On every `kgroup-wide` item, on C64 (rank 0) and on S3 (a negative
    entry), the report spliced from the matrix texts is `_encode` of the
    whole report."""
    ranks, entries = set(), set()
    for spec, _, sphere in _kgroup_cases():
        path = tmp_path / "report.json"
        assert cli.main(["kgroup", spec, "--sphere", sphere, "--json", str(path)]) == 0
        capsys.readouterr()
        _, group, lam = cli._resolve(spec, need_lambda=True)
        build = k_group_s1_lambda if sphere == "s1-lambda" else k_group_s_lambda
        pres = build(group, lam)
        report = {
            "schema": cli.KGROUP_SCHEMA,
            "group": {"name": group.name, "order": group.order},
            "lambda": lam.label,
            "presentation": pres.to_jsonable(),
        }
        assert path.read_text() == cli._encode(report) + "\n", (group.name, lam.label, sphere)
        if sphere == "s1-lambda":
            ranks.add(pres.rank)
            entries.update(np.unique(pres.action).tolist())
    assert 0 in ranks and min(entries) < 0
