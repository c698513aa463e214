"""CLI behavior: outputs, exit codes, JSON round trips, byte determinism."""

import json

from conftest import run_cli
from ksphere import cli
from ksphere import verification
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
