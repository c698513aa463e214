#!/usr/bin/env python3
"""Regenerate perfbench/workloads.json: the benchmark items and their golden digests.

Run from the repository root:  python3 perfbench/make_workloads.py

Each item is one `ksphere` command line, tagged with the group it runs on.
Its golden digest is the sha256 of
the bytes that command writes through `--json`, computed by this script
from the current source. Every item must exit 0; the script refuses to
write a golden file otherwise. A later change that alters any report byte
then shows up as a failed item in the benchmark.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "workloads.json")


# Group docs use the CLI's JSON spec format.
def C(n):
    return {"family": "cyclic", "n": n}


def D(n):
    return {"family": "dihedral", "n": n}


def S(n):
    return {"family": "symmetric", "n": n}


def A(n):
    return {"family": "alternating", "n": n}


Q8 = {"family": "quaternion", "n": 8}


def prod(*docs):
    """Left-nested binary direct product, as the builtin catalogue builds them."""
    out = docs[0]
    for d in docs[1:]:
        out = {"family": "product", "factors": [out, d]}
    return out


KGROUP_GROUPS = [C(64), prod(C(2), C(48)), prod(C(4), C(16)), D(48), D(32), prod(Q8, C(8))]
CHARTAB_GROUPS = [
    S(6),
    A(6),
    prod(S(5), C(2)),
    prod(S(4), S(4)),
    prod(*[C(2)] * 7),
    prod(C(3), C(3), C(3), C(6)),
    prod(A(5), C(6)),
    prod(S(4), D(6)),
    prod(Q8, S(4)),
    prod(D(8), D(4)),
]
VERIFY_MAX_ORDER = 32


def spec_doc(spec) -> dict:
    if spec.kind == "direct_product":
        return {"family": "product", "factors": [spec_doc(f) for f in spec.factors]}
    return {"family": spec.kind, "n": spec.n}


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def build_items() -> dict[str, list[dict]]:
    from ksphere.groups import (
        LambdaSpec,
        LambdaSpecError,
        build_group,
        build_sign_hom,
        builtin_specs_upto,
        parse_group_document,
    )

    verify = [
        {"id": f"verify:{spec.name}", "group": spec.name, "argv": ["verify", dumps(spec_doc(spec))]}
        for spec in builtin_specs_upto(VERIFY_MAX_ORDER)
    ]

    kgroup = []
    for doc in KGROUP_GROUPS:
        spec, _ = parse_group_document(doc)
        group = build_group(spec)
        for signs in itertools.product((1, -1), repeat=len(group.generators)):
            if all(s == 1 for s in signs):
                continue
            try:
                build_sign_hom(group, spec, LambdaSpec(generator_signs=signs))
            except LambdaSpecError:
                continue
            lam_doc = dict(doc, **{"lambda": {"generator_signs": list(signs)}})
            label = "".join("+" if s > 0 else "-" for s in signs)
            for sphere in ("s1-lambda", "s-lambda"):
                kgroup.append(
                    {
                        "id": f"kgroup:{spec.name}:{label}:{sphere}",
                        "group": spec.name,
                        "argv": ["kgroup", dumps(lam_doc), "--sphere", sphere],
                    }
                )

    chartab = []
    for doc in CHARTAB_GROUPS:
        spec, _ = parse_group_document(doc)
        chartab.append(
            {"id": f"chartab:{spec.name}", "group": spec.name, "argv": ["chartab", dumps(doc)]}
        )

    return {"verify-sweep": verify, "kgroup-wide": kgroup, "chartab-many-classes": chartab}


def json_digest(argv: list[str], path: str) -> str:
    from ksphere import cli

    with redirect_stdout(StringIO()):
        code = cli.main(argv + ["--json", path])
    if code != 0:
        raise SystemExit(f"item {argv!r} exited {code}; refusing to record a golden digest")
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workloads = build_items()
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "out.json")
        for name, items in workloads.items():
            for item in items:
                item["sha256"] = json_digest(item["argv"], path)
            print(f"{name}: {len(items)} items", file=sys.stderr)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(workloads, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
