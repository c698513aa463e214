import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ksphere
from ksphere import groups, kernels
from ksphere.characters import (
    _analysis_bound,
    _analysis_weights,
    _embed,
    _l1_norms,
    decompose_values,
)
from ksphere.cli import CHARTAB_SCHEMA
from ksphere.cyclotomic import Cyclotomic, eval_prime, prime_count
from ksphere.groups import ConjugacyClasses, GroupSpec, LambdaSpec, build_group, build_sign_hom
from ksphere.lattice import hermite_normal_form


def dense_mul(ring):
    """The dense reference tensor mul[p, q] = z**(p + q) = red[(p + q) % m]: 8 phi**3 bytes."""
    p = np.arange(ring.phi)
    return ring.red[(p[:, None] + p[None, :]) % ring.modulus]


def dense_values(table):
    """The table's values [k, k, phi], chi_c at class j: distinct[which]."""
    return table.distinct[table.which]


def restriction_by_decomposition(ctx):
    """Reference: R [k_G, k_H], each restricted row of Irr(G) decomposed over
    Irr(H) at evaluation primes."""
    table_g = ctx.table_g
    res_vals = table_g.distinct[table_g.which[:, ctx.emb.class_map]]  # [k_G, k_H, phi]
    return decompose_values(ctx.table_h, res_vals, table_g.ring)


def s1_action_by_products(ctx):
    """Reference: the s1-lambda action matrices [k_G, rank, rank] from the
    k_G x rank products res(phi_a) (psi_rep - psi_partner), decomposed over
    Irr(H) at evaluation primes and read off on the pair representatives."""
    table_g, table_h = ctx.table_g, ctx.table_h
    pairs = ctx.orbits.pairs
    if not pairs:
        return np.zeros((table_g.count, 0, 0), dtype=np.int64)
    distinct_h = _embed(table_h.distinct, table_h.modulus, table_g.ring)
    reps, partners = np.asarray(pairs, dtype=np.intp).T
    basis_vals = distinct_h[table_h.which[reps]] - distinct_h[table_h.which[partners]]
    res_all = table_g.distinct[table_g.which[:, ctx.emb.class_map]]  # [k_G, k_H, phi]
    t = decompose_values(table_h, res_all, table_g.ring, factor=basis_vals)
    return np.swapaxes(t[..., reps], 1, 2)


def two_gram_failures(table):
    """Reference: the (row, column) masks [k, k] of a square table's two Grams,
    g_ab = sum_j |C_j| chi_a(j) conj(chi_b(j)) and s_ij = sum_c chi_c(i)
    conj(chi_c(j)) |C_j|, where they differ from n delta at some point of as
    many primes as the larger of their two coefficient bounds asks for."""
    ring, k, n = table.ring, table.count, table.order
    chi_l1 = _l1_norms(table.distinct)[table.which]  # |chi_c(j)|_1, [c, j]
    row_bound = _analysis_bound(table, ring, chi_l1.max(axis=0).tolist()) + n
    col_bound = ring.peak * ring.l1 * max(table.classes.class_sizes) * sum(
        c * c for c in chi_l1.max(axis=1).tolist()
    ) + n
    row_bad = np.zeros((k, k), dtype=bool)
    col_bad = np.zeros((k, k), dtype=bool)
    for i in range(prime_count(ring.modulus, max(row_bound, col_bound))):
        p = eval_prime(ring.modulus, i)[0]
        images = ring.evaluate(table.distinct, i, False)[table.which]
        weights = _analysis_weights(table, ring, i, False)
        expected = (n % p) * np.eye(k, dtype=np.int64)[..., None]
        gram = kernels.weighted_analysis(images, weights, p)
        row_bad |= np.any(gram != expected, axis=-1)
        col = kernels.weighted_analysis(images.transpose(1, 0, 2), weights.transpose(1, 0, 2), p)
        col_bad |= np.any(col != expected, axis=-1)
    return row_bad, col_bad


def all_pairs_classes(table):
    """Reference: the classes from the [x, g] gather of every x^-1 g x, each
    found at its least element, ordered by (representative order, size,
    least element). Row x of the gather holds (x^-1 g) x read along row x of
    the transposed table, so every gather runs along contiguous rows."""
    product = table.product
    right = np.ascontiguousarray(product.T)  # right[x, y] = y x
    least = np.take_along_axis(right, product[table.inverse], axis=1).min(axis=0).tolist()
    members = {}
    for x, r in enumerate(least):
        members.setdefault(r, []).append(x)

    def element_order(x):
        y, s = x, 1
        while y != table.identity:
            y, s = int(product[y, x]), s + 1
        return s

    key = {r: (element_order(r), len(m), r) for r, m in members.items()}
    reps = sorted(members, key=key.get)
    class_of = np.empty(table.order, dtype=np.int64)
    for c, r in enumerate(reps):
        class_of[members[r]] = c
    return ConjugacyClasses(
        classes=tuple(tuple(members[r]) for r in reps),
        class_of=class_of,
        representatives=tuple(reps),
        class_sizes=tuple(len(members[r]) for r in reps),
        orders=tuple(key[r][0] for r in reps),
    )


def compose(p, q):
    """(p * q)(i) = p(q(i)): apply q first."""
    return tuple(p[q[i]] for i in range(len(p)))


def bfs_closure(gens, degree):
    """Reference: the elements generated by gens, frontier by frontier from the identity."""
    identity = tuple(range(degree))
    elems, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    elems.append(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def oracle_perms(spec):
    """Reference element list in table order: S_n and A_n sorted, generated groups by BFS."""
    if spec.kind == "symmetric":
        return sorted(itertools.permutations(range(spec.n)))
    if spec.kind == "alternating":
        return [p for p in sorted(itertools.permutations(range(spec.n)))
                if groups._perm_parity(p) == 1]
    return bfs_closure(spec.generators, len(spec.generators[0]))


def eager_labels(spec: GroupSpec) -> tuple[str, ...]:
    """Reference: the label of every element of the spec's group as one
    tuple in table order, built family by family from the spec alone."""
    if spec.kind == "cyclic":
        return tuple("e" if i == 0 else ("a" if i == 1 else f"a^{i}") for i in range(spec.n))
    if spec.kind == "dihedral":
        rot = ["e", "r"] + [f"r^{i}" for i in range(2, spec.n)]
        ref = ["s", "s*r"] + [f"s*r^{i}" for i in range(2, spec.n)]
        return tuple(rot[: spec.n] + ref[: spec.n])
    if spec.kind == "quaternion":
        return ("1", "i", "-1", "-i", "j", "k", "-j", "-k")
    if spec.kind == "direct_product":
        labels_a, labels_b = map(eager_labels, spec.factors)
        return tuple(f"({a},{b})" for a in labels_a for b in labels_b)
    return tuple(groups._cycle_notation(p) for p in oracle_perms(spec))


def inverse_from_product(product: np.ndarray, identity: int = 0) -> np.ndarray:
    """Reference: the inverse of each element, read off the |G| x |G| table."""
    inverse = np.empty(product.shape[0], dtype=np.int64)
    rows, cols = np.nonzero(product == identity)
    inverse[rows] = cols
    return inverse


def group_axiom_violations(table, max_order: int = 256) -> list[str]:
    """Reference: exhaustive associativity/identity/inverse check (desk scale only)."""
    n = table.order
    if n > max_order:
        raise ValueError(f"exhaustive check limited to order {max_order}")
    prod = table.product
    out = []
    if not np.array_equal(prod[table.identity], np.arange(n)):
        out.append("identity fails on the left")
    if not np.array_equal(prod[:, table.identity], np.arange(n)):
        out.append("identity fails on the right")
    if not np.array_equal(prod[np.arange(n), table.inverse], np.full(n, table.identity)):
        out.append("inverse law fails")
    for i in range(n):
        rows = prod[prod[i], :]
        cols = prod[i, prod]
        if not np.array_equal(rows, cols):
            out.append(f"associativity fails for left factor {i}")
            break
    for i in range(n):
        if len(set(int(v) for v in prod[i])) != n:
            out.append(f"left multiplication by {i} is not a bijection")
            break
    return out


def transpose_abelian(table) -> bool:
    """Reference: whether the whole multiplication table equals its transpose."""
    return bool(np.array_equal(table.product, table.product.T))


def same_span(rows_a, rows_b) -> bool:
    """Whether two integer row sets span the same lattice: equal canonical HNFs."""
    return hermite_normal_form(rows_a) == hermite_normal_form(rows_b)


def in_span(vector, hnf: tuple[tuple[int, ...], ...]) -> bool:
    """Exact membership of an integer vector in the row span of an HNF."""
    v = [int(x) for x in vector]
    pivots = {}
    for i, row in enumerate(hnf):
        for c, x in enumerate(row):
            if x != 0:
                pivots[c] = i
                break
    for c in range(len(v)):
        if v[c] == 0:
            continue
        i = pivots.get(c)
        if i is None:
            return False
        piv = hnf[i][c]
        if v[c] % piv != 0:
            return False
        q = v[c] // piv
        v = [a - q * b for a, b in zip(v, hnf[i])]
    return all(x == 0 for x in v)


def galois_permutation_oracle(table, t):
    """pi with sigma_t chi_c = chi_pi(c), or None when some image is not a row:
    sigma_t of the whole power-basis values array, then a lookup of each image
    row by its bytes."""
    values = dense_values(table)
    where = {row.tobytes(): c for c, row in enumerate(values)}
    found = [where.get(row.tobytes()) for row in table.ring.galois(values, t)]
    return None if None in found else found


def chartab_reference_doc(group, table) -> dict:
    """The chartab report as one document of dicts, one value dict per table cell.

    `ksphere chartab --json` writes `json.dumps(doc, sort_keys=True,
    separators=(",", ":"), ensure_ascii=True)` of this document, spliced from
    per-value strings.
    """
    classes, m = table.classes, table.modulus
    return {
        "schema": CHARTAB_SCHEMA,
        "group": {"name": group.name, "order": group.order},
        "modulus": m,
        "classes": [
            {
                "label": group.label(rep),
                "size": classes.class_sizes[j],
                "element_order": classes.orders[j],
            }
            for j, rep in enumerate(classes.representatives)
        ],
        "irreducibles": [
            {
                "name": table.names[c],
                "degree": table.degrees[c],
                "values": [Cyclotomic.make(m, v).to_json() for v in row],
            }
            for c, row in enumerate(dense_values(table))
        ],
    }


def group_with_lambda(spec: GroupSpec, convention: str):
    table = build_group(spec)
    lam = build_sign_hom(table, spec, LambdaSpec(convention=convention))
    return table, lam


# The directory that holds the ksphere this process imported. CLI subprocesses
# put it first on PYTHONPATH, so they run the same code as the test process
# whether ksphere is installed or reached through PYTHONPATH, from any cwd.
KSPHERE_ROOT = str(Path(ksphere.__file__).resolve().parents[1])


def run_python(args, env=None):
    """Run ``python *args`` in a fresh process that imports this ksphere;
    ``env`` sets variables on top of this process's environment."""
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [KSPHERE_ROOT, child_env.get("PYTHONPATH")])
    )
    child_env.update(env or {})
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env)


def run_cli(args, env=None):
    """Run ``python -m ksphere.cli`` in a fresh process."""
    return run_python(["-m", "ksphere.cli", *args], env)
