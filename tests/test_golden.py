"""Byte identity of the JSON reports on the benchmark's fixed spec set.

Every item of `perfbench/workloads.json` (read only) is a CLI argv with the
sha256 of the `--json` report it must produce. Running them all in-process
makes the byte-identical contract part of the test suite, as do larger
reports beyond that set: `kgroup` of C8 x C64, `chartab` of C256 and C512,
the `chartab` and both `kgroup` reports of D512, the `chartab` report of S5
given by generators, the s1-lambda `kgroup` report of S5 with the sign and the
s-lambda `kgroup` report of S6 with the sign. The text tables
that `chartab` prints for the items of `chartab-many-classes`, for C256,
C512 and D512 are pinned here too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ksphere import cli

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.json"
WORKLOAD_ITEMS = json.loads(WORKLOADS.read_text())
ITEMS = [item for items in WORKLOAD_ITEMS.values() for item in items]


# sha256 of the stdout of each `chartab-many-classes` item.
CHARTAB_STDOUT_SHA256 = {
    "chartab:S6": "21210276c7ffcfc6e4e2440c3b3c8d07332dfc1510374246ff0f54c39a61b7d3",
    "chartab:A6": "5642658a86ef756e53f1f86bf2dabc8b7a997f15b7da34090fbd36a0fa9cd3ec",
    "chartab:S5xC2": "b98c7dd9849602df539cb1309166dd97b6d9bb8383f69122a8bd822219281446",
    "chartab:S4xS4": "43ecc23b5bbba309d1e031c11c96350a8e15c701949032069fe62de0a2db5776",
    "chartab:C2xC2xC2xC2xC2xC2xC2": (
        "5a0fa1c29cbadc38695f7091caed95b9a992bbc46441e895ece9de7290e5b38e"
    ),
    "chartab:C3xC3xC3xC6": "8361ce9f2b186b6f6c10ebe8846f161ba5a2372e1fc1a352427320649c8371dd",
    "chartab:A5xC6": "7ea5c388a7ba0dade992a366fc8a3609b151d6c54d0e57369061aef7673bad9c",
    "chartab:S4xD6": "c795b4d4603053875492a3efb436719e66fa7f36a2778e4ac84728ee50fdc36c",
    "chartab:Q8xS4": "822c1dc197f937d847b138ab94684a5061a3edffb5f471c66d7510c4fdb73456",
    "chartab:D8xD4": "855521a48200dd291ba67e40dcf29b30bc799c019048ac51ac59d0f18c59574c",
}
CHARTAB_ITEMS = WORKLOAD_ITEMS["chartab-many-classes"]


def test_every_workload_item_has_a_digest():
    assert len(ITEMS) == 124
    assert all(len(item["sha256"]) == 64 for item in ITEMS)


@pytest.mark.parametrize("item", ITEMS, ids=[item["id"] for item in ITEMS])
def test_json_report_matches_golden_digest(item, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(item["argv"] + ["--json", str(path)]) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == item["sha256"]


def test_every_chartab_item_has_a_stdout_digest():
    assert sorted(item["id"] for item in CHARTAB_ITEMS) == sorted(CHARTAB_STDOUT_SHA256)


@pytest.mark.parametrize("item", CHARTAB_ITEMS, ids=[item["id"] for item in CHARTAB_ITEMS])
def test_chartab_stdout_matches_golden_digest(item, capsys):
    assert cli.main(item["argv"]) == 0, capsys.readouterr().err
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == CHARTAB_STDOUT_SHA256[item["id"]]


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


# C256 has the largest table the tests build (k = 256, phi = 128): its
# 19 MB report is written one irreducible at a time.
def test_chartab_of_c256_matches_golden_digests(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["chartab", '{"family":"C","n":256}', "--json", str(path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "69fd80e509c0816eebdec7261244a7ec7fefa24ec77f372f5d53cf77bc353d02"
    )
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "a071cd25ae5d9f9936fc7b9a942ff5eddcc46fe0226c9427eee489cf98eb9e0d"
    )


# C512 is the largest abelian table the suite builds (k = 512, phi = 256),
# where the orthogonality certificate is the largest share of the time.
def test_chartab_of_c512_matches_golden_digests(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["chartab", '{"family":"cyclic","n":512}', "--json", str(path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "d1ab793f7e7112aaaa6e976766603a82d5fd96136732e092620c62cd182e6608"
    )
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "94959e2b1f028307cc1c0b865e58d345665d50c54d5069ec1367a544527c6854"
    )


# D512 (order 1024) has the abelian subgroup C512 of index 2, so its table
# comes from C512 by Clifford theory; Dixon took about 35 s on it. The pins
# were taken from Dixon's table. The s1-lambda action is R N: 255 pairs of
# permutations of Irr(C512), and its 135 MB of matrices are the largest
# report the suite writes.
D512 = '{"family":"dihedral","n":512}'
D512_REFLECTION_SIGN = '{"family":"dihedral","n":512,"lambda":{"convention":"reflection-sign"}}'


@pytest.mark.parametrize(
    "argv, json_sha256, stdout_sha256",
    [
        (
            ["chartab", D512],
            "7297f9cc7ae26ac8d659bfae13309988b7eaeb30d8be7096fb885e9b9ac96868",
            "d6a55ecef655489dd172e0348797c79a647704421ea92566cbec09066ea8c6fe",
        ),
        (
            ["kgroup", D512_REFLECTION_SIGN, "--sphere", "s-lambda"],
            "3da7bbeb76882b3b737141cc05fad10041699fdc15a49d160bb5cbf4c7da3289",
            "fe8f470b2ea0ac8d5aef7d1f885d3e497fe18a5f611aac55954d2d469771ab75",
        ),
        (
            ["kgroup", D512_REFLECTION_SIGN, "--sphere", "s1-lambda"],
            "248194ebbad6434915214a415a4657f9ad8660c0261f376c16647f2c396f2433",
            "f82c261952f37017dd5139b7bbc2b388cf94a858c37f05a877f68dcbf3589079",
        ),
    ],
    ids=["chartab", "kgroup-s-lambda", "kgroup-s1-lambda"],
)
def test_reports_of_d512_match_golden_digests(argv, json_sha256, stdout_sha256, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert cli.main(argv + ["--json", str(path)]) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == json_sha256
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == stdout_sha256


# A group given by generators keeps its breadth-first labels (S_n and A_n
# are relabelled lexicographically), so this S5 pins the other labelling.
S5_BY_GENERATORS = '{"generators": [[1,0,2,3,4],[1,2,3,4,0]]}'


def test_chartab_of_a_generated_group_matches_golden_digests(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["chartab", S5_BY_GENERATORS, "--json", str(path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "c1f3205020787d7565eb0f926e88f6ccec72a1b0994791f47d0dacdab732bfb5"
    )
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "153a91e427201313cb6cb8230b792624ec576629442adf487c719b1de04c2486"
    )


# The sign of S5 has kernel A5, whose one swapped pair has degree 3, so its
# s1-lambda action decomposes the products psi_c (psi_1 - psi_2) over Irr(A5).
S5_SIGN = '{"family":"S","n":5,"lambda":{"convention":"sign"}}'


def test_kgroup_report_of_a_non_linear_pair_matches_golden_digests(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["kgroup", S5_SIGN, "--sphere", "s1-lambda", "--json", str(path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "56600523134fcf89a07d424df2de5f1d32e4e837d3fc269c759b37ed12bf23cb"
    )
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "d58b075930667902adb876e022e4688e67083a8764f41c053820a0b26bd26655"
    )


# The s-lambda report of S6 with the sign reads Irr(S6) and the sign alone;
# its kernel A6 would need Dixon's algorithm.
S6_SIGN = '{"family":"S","n":6,"lambda":{"convention":"sign"}}'


def test_kgroup_s_lambda_report_of_s6_matches_golden_digests(tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["kgroup", S6_SIGN, "--sphere", "s-lambda", "--json", str(path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "a88c5061bfcf9927ac4c6b1b39b7243584cec2cceb28aa18221c0bed8e28fdb9"
    )
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == (
        "aa42795e9f472c39fafbe8607e4a53e35965a86719d65b5ef91760eb95cfbbca"
    )
