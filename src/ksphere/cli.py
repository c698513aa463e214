"""Command-line interface: character tables, K-group presentations, verification.

Group specs are JSON, inline or in a file:

    {"family": "S", "n": 3, "lambda": {"convention": "sign"}}
    {"family": "D", "n": 4, "lambda": {"convention": "reflection-sign"}}
    {"family": "product", "factors": [{"family": "C", "n": 2}, {"family": "C", "n": 4}],
     "lambda": {"generator_signs": [-1, 1]}}
    {"generators": [[1, 0, 2], [1, 2, 0]], "lambda": {"convention": "sign"}}

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .characters import CharacterTheoryError, character_table
from .cyclotomic import Cyclotomic
from .groups import (
    GroupSpecError,
    LambdaSpecError,
    ORDER_CAP_ENV,
    build_group,
    build_sign_hom,
    parse_group_document,
)
from .ktheory import S1_LAMBDA, S_LAMBDA, k_group_s1_lambda, k_group_s_lambda
from .verification import reports_to_jsonable, run_verification, verify_group

CHARTAB_SCHEMA = "ksphere-chartab/1"
KGROUP_SCHEMA = "ksphere-kgroup/1"

_EPILOG = f"""\
lambda conventions per family:
  cyclic (even n)     onto-pm1          sign of the exponent
  dihedral            reflection-sign   +1 on rotations, -1 on reflections
  quaternion          onto-pm1          kernel is the cyclic subgroup of order 4
  symmetric / perms   sign              permutation parity
  any family          generator_signs   explicit +-1 per standard generator

environment:
  {ORDER_CAP_ENV}   override the group order cap (default 1024)
"""


class InputError(Exception):
    """CLI-level invalid input (maps to exit code 2)."""


def _load_document(arg: str) -> dict:
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        path = Path(arg)
        if not path.exists():
            raise InputError(f"group spec file not found: {arg}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read group spec file {arg}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in group spec: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("group spec must be a JSON object")
    return obj


def _resolve(arg: str, need_lambda: bool):
    obj = _load_document(arg)
    try:
        spec, lam_spec = parse_group_document(obj)
        group = build_group(spec)
        lam = None
        if lam_spec is not None:
            lam = build_sign_hom(group, spec, lam_spec)
    except (GroupSpecError, LambdaSpecError) as exc:
        raise InputError(str(exc)) from exc
    if need_lambda and lam is None:
        raise InputError(
            "this command needs a 'lambda' field "
            "({'convention': ...} or {'generator_signs': [...]})"
        )
    return spec, group, lam


def _check_json_path(path: str) -> None:
    """Reject a --json path that cannot be written, before any group is built."""
    if not path or Path(path).is_dir() or not Path(path).parent.is_dir():
        raise InputError(f"--json path {path!r} must name a file in an existing directory")


def _encode(obj) -> str:
    """The one JSON encoding of every report, and of every fragment of one."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _write_json(parts, path: str) -> None:
    """Write the encoded parts of one report in turn, then a newline."""
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.writelines(parts)
            out.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write --json path {path}: {exc}") from exc


def _dump_json(doc: dict, path: str) -> None:
    _write_json([_encode(doc)], path)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _chartab_json(group, table, labels, value_json: np.ndarray):
    """The chartab report as encoded parts in sorted key order: a head, one
    part per irreducible and a tail, written in turn by `_write_json`.

    `labels[j]` is the label of class j's representative. `value_json[d]` is
    `table.distinct[d]` encoded, so each distinct value is
    encoded once rather than once per table cell. The joined parts equal
    `_encode` of the whole document: keys are spliced in the order `sort_keys`
    gives (classes, group, irreducibles, modulus, schema; degree, name,
    values), and every other part goes through `_encode`.
    """
    classes = table.classes
    class_doc = [
        {"label": label, "size": size, "element_order": order}
        for label, size, order in zip(labels, classes.class_sizes, classes.orders)
    ]
    yield (
        f'{{"classes":{_encode(class_doc)},'
        f'"group":{_encode({"name": group.name, "order": group.order})},'
        f'"irreducibles":['
    )
    for c, (degree, name, row) in enumerate(zip(table.degrees, table.names, table.which)):
        yield (
            f'{"," if c else ""}{{"degree":{_encode(degree)},"name":{_encode(name)},'
            f'"values":[{",".join(value_json[row])}]}}'
        )
    yield f'],"modulus":{_encode(table.modulus)},"schema":{_encode(CHARTAB_SCHEMA)}}}'


def _cmd_chartab(args) -> int:
    spec, group, lam = _resolve(args.groupspec, need_lambda=False)
    table = character_table(group)
    classes = table.classes
    m, which = table.modulus, table.which
    # Render and encode each distinct value of the table once; `which[c, j]`
    # picks chi_c's value at class j.
    rendered = [Cyclotomic.make(m, v) for v in table.distinct]
    texts = [str(v) for v in rendered]
    lens = np.array(list(map(len, texts)), dtype=np.int64)
    labels = [group.label(rep) for rep in classes.representatives]
    cols = [labels, [str(s) for s in classes.class_sizes], [str(o) for o in classes.orders]]
    header_w = [max(map(len, cells)) for cells in zip(*cols)]
    col_w = np.maximum(lens[which].max(axis=0), header_w)
    name_w = max(len(name) for name in (*table.names, "class")) + 2
    # Each distinct text padded once to each distinct column width:
    # padded[d, w] is texts[d] right-justified to widths[w].
    widths, width_of = np.unique(col_w, return_inverse=True)
    padded = np.array([[t.rjust(w) for w in widths.tolist()] for t in texts], dtype=object)

    def line(first: str, cells) -> str:
        return first.ljust(name_w) + "  ".join(cells)

    lines = [f"group {group.name}: order {group.order}, exponent {m}, {classes.count} classes"]
    lines += [
        line(label, map(str.rjust, row, col_w.tolist()))
        for label, row in zip(("class", "size", "order"), cols)
    ]
    lines += [line(name, row) for name, row in zip(table.names, padded[which, width_of])]
    print("\n".join(lines))
    if args.json:
        value_json = np.array([_encode(v.to_json()) for v in rendered], dtype=object)
        _write_json(_chartab_json(group, table, labels, value_json), args.json)
    return 0


def _kgroup_s1_json(report: dict, matrix_texts: list[str]):
    """`report` encoded with its empty action matrices replaced by the texts,
    as parts for `_write_json`. The text of a list of int rows is its
    `_encode` with a space after each comma. Inside an encoded string a quote
    is escaped, so the key `"matrices":[` occurs once."""
    head, key, tail = _encode(report).partition('"matrices":[')
    yield head + key
    for a, text in enumerate(matrix_texts):
        yield ("," if a else "") + text.replace(" ", "")
    yield tail


def _cmd_kgroup(args) -> int:
    spec, group, lam = _resolve(args.groupspec, need_lambda=True)
    report = {
        "schema": KGROUP_SCHEMA,
        "group": {"name": group.name, "order": group.order},
        "lambda": lam.label,
    }
    if args.sphere == S1_LAMBDA:
        pres = k_group_s1_lambda(group, lam)
        table_h = pres.ctx.table_h
        doc = pres.to_jsonable()
        # Each matrix is rendered once, for stdout and for --json alike.
        texts = [str(mat) for mat in doc["action"]["matrices"]]
        doc["action"]["matrices"] = []
        print(f"group {group.name}, lambda {lam.label}, sphere {S1_LAMBDA}")
        print(f"kernel subgroup of order {table_h.order} with "
              f"{table_h.count} irreducible characters")
        print(f"rank {pres.rank}")
        for i, b in enumerate(doc["basis"]):
            print(f"  basis[{i}] {b['label']} = chi{b['rep']} - chi{b['partner']}  "
                  f"coeffs {b['coeffs']}")
        print("action of the ambient irreducibles:")
        for name, text in zip(doc["action"]["names"], texts):
            print(f"  {name}: {text}")
        print("product rule: zero (alpha*beta = 0 for all elements)")
        parts = _kgroup_s1_json({**report, "presentation": doc}, texts)
    else:
        pres = k_group_s_lambda(group, lam)
        print(f"group {group.name}, lambda {lam.label}, sphere {S_LAMBDA}")
        print(f"rank {pres.rank} (ideal generated by 1 - lambda, "
              f"lambda = {pres.table.names[pres.lambda_index]})")
        for i, b in enumerate(pres.basis):
            rep, partner = pres.pairs[i]
            print(f"  basis[{i}] chi{rep} - chi{partner}  coeffs {list(b.coeffs)}")
        if pres.fixed:
            fixed = ", ".join(f"chi{c}" for c in pres.fixed)
            print(f"fixed by tensoring with lambda: {fixed}")
        parts = [_encode({**report, "presentation": pres.to_jsonable()})]
    if args.json:
        _write_json(parts, args.json)
    return 0


def _cmd_verify(args) -> int:
    if args.all_upto is not None:
        if args.groupspec is not None:
            raise InputError(f"--all-upto takes no group spec, got {args.groupspec!r}")
        if args.all_upto < 1:
            raise InputError(f"--all-upto N needs N >= 1, got {args.all_upto}")
        reports = run_verification(args.all_upto)
    else:
        if args.groupspec is None:
            raise InputError("verify needs a group spec or --all-upto N")
        spec, group, lam = _resolve(args.groupspec, need_lambda=False)
        reports = verify_group(group, lam)
    reports = sorted(reports, key=lambda r: (r.check, r.group, r.lam))
    fails = 0
    for r in reports:
        tag = r.status.upper()
        if r.status == "fail":
            fails += 1
        detail = f"  ({r.details})" if r.details else ""
        print(f"{tag:4s} {r.check} {r.group} {r.lam}{detail}")
    print(f"{len(reports)} checks, {fails} failures")
    if args.json:
        _dump_json(reports_to_jsonable(reports), args.json)
    return 1 if fails else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksphere",
        description="Exact reduced equivariant K-groups of involution spheres "
        "for finite groups.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"ksphere {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chartab", help="print the exact character table")
    p.add_argument("groupspec", help="inline JSON group spec or path to a spec file")
    p.add_argument("--json", metavar="PATH", help="write a machine-readable report")
    p.set_defaults(func=_cmd_chartab)

    p = sub.add_parser("kgroup", help="print a reduced K-group presentation")
    p.add_argument("groupspec", help="inline JSON group spec or path to a spec file")
    p.add_argument(
        "--sphere",
        choices=[S_LAMBDA, S1_LAMBDA],
        default=S1_LAMBDA,
        help="which representation sphere (default: s1-lambda)",
    )
    p.add_argument("--json", metavar="PATH", help="write a machine-readable report")
    p.set_defaults(func=_cmd_kgroup)

    p = sub.add_parser("verify", help="run the brute-force identity checks")
    p.add_argument("groupspec", nargs="?", help="inline JSON group spec or spec file")
    p.add_argument(
        "--all-upto",
        type=int,
        metavar="N",
        help="sweep every builtin group of order <= N with every valid lambda",
    )
    p.add_argument("--json", metavar="PATH", help="write a machine-readable report")
    p.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every `main` call in this process, built on first use so
    that importing the CLI stays cheap."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.json is not None:
            _check_json_path(args.json)
        return args.func(args)
    except (InputError, GroupSpecError, LambdaSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CharacterTheoryError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
