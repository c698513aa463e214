"""Brute-force oracles for every character-level identity the K-groups use.

Each check recomputes its identity through a route independent of the
library's fast path: sums run over raw group elements instead of weighted
classes, induction uses a per-element transfer matrix instead of the
class-level one, and twists conjugate elements directly. Checks return
report entries instead of raising, so failures (including deliberately
corrupted inputs) surface as data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels, lattice
from .characters import (
    CharacterTable,
    LambdaContext,
    _assemble_table,
    _embedded_values,
    character_table,
    decompose_values,
    induced_values,
    lambda_context,
    restrict_values,
    twist_permutation,
    values_of_coeffs,
)
from .groups import (
    GroupTable,
    OrderLimitError,
    SignHomomorphism,
    build_group,
    builtin_specs_upto,
    enumerate_sign_homs,
    order_cap,
)
from .ktheory import k_group_s1_lambda, k_group_s_lambda

SCHEMA = "ksphere-report/1"


@dataclass(frozen=True)
class CheckReport:
    check: str
    group: str
    lam: str
    status: str  # "pass" | "fail" | "skip"
    details: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_jsonable(self) -> dict:
        return {
            "check": self.check,
            "group": self.group,
            "lambda": self.lam,
            "status": self.status,
            "details": self.details,
        }


def reports_to_jsonable(reports) -> dict:
    ordered = sorted(reports, key=lambda r: (r.check, r.group, r.lam))
    return {"schema": SCHEMA, "checks": [r.to_jsonable() for r in ordered]}


def _elem_values(class_vals: np.ndarray, class_of: np.ndarray) -> np.ndarray:
    """Expand class-function values [..., k, phi] to per-element values."""
    return np.ascontiguousarray(class_vals[..., class_of, :])


# ---------------------------------------------------------------------------
# character table checks
# ---------------------------------------------------------------------------


def check_table(group: GroupTable, table: CharacterTable | None = None) -> list[CheckReport]:
    """Orthogonality, degree and class-count certificates, element by element."""
    if table is None:
        table = character_table(group)
    name = group.name
    out = []
    k = table.classes.count
    n = group.order
    ring = table.ring

    status = "pass" if table.count == k else "fail"
    out.append(
        CheckReport(
            "table-class-count", name, "-", status, f"{table.count} rows, {k} classes"
        )
    )
    dsq = sum(d * d for d in table.degrees)
    out.append(
        CheckReport(
            "table-degree-squares",
            name,
            "-",
            "pass" if dsq == n else "fail",
            f"sum d^2 = {dsq}, order = {n}",
        )
    )

    elem = _elem_values(table.values, table.classes.class_of)  # [k, n, phi]
    conj_elem = elem @ ring.conj
    gram = kernels.pair_gram(elem, kernels.mul_into(conj_elem, ring.mul))  # [a, b, phi]
    expected = np.zeros_like(gram)
    expected[np.arange(k), np.arange(k), 0] = n
    if np.array_equal(gram, expected):
        out.append(CheckReport("table-row-orthogonality", name, "-", "pass"))
    else:
        bad = np.argwhere(np.any(gram != expected, axis=-1))
        pairs = ", ".join(f"({a},{b})" for a, b in bad[:5])
        out.append(
            CheckReport(
                "table-row-orthogonality", name, "-", "fail", f"offending pairs {pairs}"
            )
        )

    # Column orthogonality over the irreducibles, on class representatives.
    conj_vals = table.values @ ring.conj
    cm = kernels.mul_into(conj_vals, ring.mul)
    col = kernels.pair_gram(table.values.transpose(1, 0, 2), cm.transpose(1, 0, 2, 3))
    col_expected = np.zeros_like(col)
    sizes = np.asarray(table.classes.class_sizes, dtype=np.int64)
    col_expected[np.arange(k), np.arange(k), 0] = n // sizes
    if np.array_equal(col, col_expected):
        out.append(CheckReport("table-column-orthogonality", name, "-", "pass"))
    else:
        bad = np.argwhere(np.any(col != col_expected, axis=-1))
        pairs = ", ".join(f"({i},{j})" for i, j in bad[:5])
        out.append(
            CheckReport(
                "table-column-orthogonality", name, "-", "fail", f"offending pairs {pairs}"
            )
        )
    return out


def corrupt_table(table: CharacterTable, char_index: int, class_index: int, delta: int = 1):
    """A copy of the table with one value perturbed (negative-control input)."""
    values = table.values.copy()
    values[char_index, class_index, 0] += delta
    return _assemble_table(
        table.group, table.classes, table.degrees, values, table.modulus
    )


# ---------------------------------------------------------------------------
# per-lambda machinery
# ---------------------------------------------------------------------------


def _element_induction_matrix(ctx: LambdaContext) -> np.ndarray:
    """EW[g, e] = #{x in G : x^-1 g x = (e-th element of H)}, exact transfer data."""
    g = ctx.group
    n = g.order
    prod = g.product
    inv = g.inverse
    all_g = np.arange(n, dtype=np.int64)
    ew = np.zeros((n, ctx.emb.subgroup.order), dtype=np.int64)
    for gg in range(n):
        conj = prod[prod[inv[all_g], gg], all_g]
        inside = ctx.emb.position[conj]
        hits = inside[inside >= 0]
        if hits.size:
            ew[gg] = np.bincount(hits, minlength=ew.shape[1])
    return ew


def _element_induced(ctx: LambdaContext, ew: np.ndarray, helem: np.ndarray) -> np.ndarray | None:
    """Per-element induction of H values [..., |H|, phi] to G, or None if not integral."""
    numer = np.einsum("ge,...ep->...gp", ew, helem)
    h_order = ctx.emb.subgroup.order
    if np.any(numer % h_order):
        return None
    return numer // h_order


def _h_element_values(ctx: LambdaContext, coeffs: np.ndarray) -> np.ndarray:
    """Per-H-element value arrays of virtual H-characters, in the ambient ring."""
    vals = np.einsum(
        "bc,cjp->bjp",
        np.asarray(coeffs, dtype=np.int64),
        _embedded_values(ctx.table_h, ctx.table_g.ring),
    )
    return _elem_values(vals, ctx.table_h.classes.class_of)


def _g_element_values(ctx: LambdaContext, coeffs: np.ndarray) -> np.ndarray:
    vals = values_of_coeffs(ctx.table_g, coeffs)
    return _elem_values(vals, ctx.table_g.classes.class_of)


def _brute_twisted_h_values(ctx: LambdaContext, helem: np.ndarray, b: int) -> np.ndarray:
    """Values of h -> f(b^-1 h b) by direct element conjugation."""
    g = ctx.group
    conj = ctx.emb.position[g.product[g.product[g.inverse[b], ctx.emb.inclusion], b]]
    if np.any(conj < 0):
        raise ValueError("kernel is not normal (impossible at index 2)")
    return helem[..., conj, :]


def _restriction_matrix(ctx: LambdaContext) -> np.ndarray:
    """R[a, i] = multiplicity of chi_i in res(phi_a)."""
    res_vals = restrict_values(ctx.emb, ctx.table_g.values)
    return decompose_values(ctx.table_h, res_vals, ctx.table_g.ring)


def _induction_matrix(ctx: LambdaContext) -> np.ndarray:
    """T[i, a] = multiplicity of phi_a in ind(chi_i)."""
    hvals = _embedded_values(ctx.table_h, ctx.table_g.ring)
    ind_vals = induced_values(ctx.emb, hvals)
    return decompose_values(ctx.table_g, ind_vals, ctx.table_g.ring)


# ---------------------------------------------------------------------------
# lambda-dependent checks
# ---------------------------------------------------------------------------


def check_frobenius_reciprocity(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """<ind chi, phi>_G = <chi, res phi>_H for all irreducibles, via both matrices."""
    ctx = lambda_context(group, lam)
    r = _restriction_matrix(ctx)
    t = _induction_matrix(ctx)
    if np.array_equal(t, r.T):
        return [CheckReport("frobenius-reciprocity", group.name, lam.label, "pass")]
    bad = np.argwhere(t != r.T)[0]
    return [
        CheckReport(
            "frobenius-reciprocity",
            group.name,
            lam.label,
            "fail",
            f"mismatch at (chi{bad[0]}, chi{bad[1]}): ind gives {t[bad[0], bad[1]]}, "
            f"res gives {r.T[bad[0], bad[1]]}",
        )
    ]


def check_projection_formula(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """phi (x) ind(chi) = ind(res(phi) (x) chi), checked per element for all pairs."""
    ctx = lambda_context(group, lam)
    ring = ctx.table_g.ring
    k_g, k_h = ctx.table_g.count, ctx.table_h.count
    ew = _element_induction_matrix(ctx)

    phi_elem = _g_element_values(ctx, np.eye(k_g, dtype=np.int64))  # [k_g, n, phi]
    chi_helem = _h_element_values(ctx, np.eye(k_h, dtype=np.int64))  # [k_h, |H|, phi]

    ind_elem = _element_induced(ctx, ew, chi_helem)  # [k_h, n, phi]
    if ind_elem is None:
        return [
            CheckReport(
                "projection-formula", group.name, lam.label, "fail",
                "element-level induction produced non-integral values",
            )
        ]
    lhs = kernels.pair_products(phi_elem, kernels.mul_into(ind_elem, ring.mul))

    res_phi_helem = phi_elem[:, ctx.emb.inclusion, :]  # [k_g, |H|, phi]
    inner = kernels.pair_products(res_phi_helem, kernels.mul_into(chi_helem, ring.mul))
    rhs = _element_induced(ctx, ew, inner)
    if rhs is None:
        return [
            CheckReport(
                "projection-formula", group.name, lam.label, "fail",
                "element-level induction of the product is non-integral",
            )
        ]
    if np.array_equal(lhs, rhs):
        return [CheckReport("projection-formula", group.name, lam.label, "pass")]
    bad = np.argwhere(np.any(lhs != rhs, axis=(2, 3)))[0]
    return [
        CheckReport(
            "projection-formula",
            group.name,
            lam.label,
            "fail",
            f"sides differ for (phi=chi{bad[0]}, chi=chi{bad[1]})",
        )
    ]


def check_mackey_restriction(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """res(ind(chi)) = chi + twist(chi) for every irreducible chi of H."""
    ctx = lambda_context(group, lam)
    k_h = ctx.table_h.count
    chi_helem = _h_element_values(ctx, np.eye(k_h, dtype=np.int64))
    ind_elem = _element_induced(ctx, _element_induction_matrix(ctx), chi_helem)
    if ind_elem is None:
        return [
            CheckReport(
                "mackey-restriction", group.name, lam.label, "fail",
                "element-level induction produced non-integral values",
            )
        ]
    res_ind = ind_elem[:, ctx.emb.inclusion, :]
    twisted = _brute_twisted_h_values(ctx, chi_helem, ctx.b)
    value_ok = np.array_equal(res_ind, chi_helem + twisted)
    # Coordinate shadow: T then R must equal I + twist permutation.
    r = _restriction_matrix(ctx)
    t = _induction_matrix(ctx)
    perm = np.eye(k_h, dtype=np.int64)[ctx.twist]
    coords = t @ r  # coords[i, j] = multiplicity of chi_j in res(ind(chi_i))
    coord_ok = np.array_equal(coords, np.eye(k_h, dtype=np.int64) + perm)
    if value_ok and coord_ok:
        return [CheckReport("mackey-restriction", group.name, lam.label, "pass")]
    detail = []
    if not value_ok:
        bad = int(np.argwhere(np.any(res_ind != chi_helem + twisted, axis=(1, 2)))[0])
        detail.append(f"element values differ for chi{bad}")
    if not coord_ok:
        detail.append("coordinate identity res.ind != 1 + twist")
    return [
        CheckReport("mackey-restriction", group.name, lam.label, "fail", "; ".join(detail))
    ]


def check_orbit_multiplicities(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """Restriction multiplicities are constant along twist orbits."""
    ctx = lambda_context(group, lam)
    ring = ctx.table_g.ring
    k_g, k_h = ctx.table_g.count, ctx.table_h.count
    phi_elem = _g_element_values(ctx, np.eye(k_g, dtype=np.int64))
    chi_helem = _h_element_values(ctx, np.eye(k_h, dtype=np.int64))
    res_phi = phi_elem[:, ctx.emb.inclusion, :]
    twisted = _brute_twisted_h_values(ctx, chi_helem, ctx.b)
    conj = lambda arr: arr @ ring.conj  # noqa: E731
    lhs = kernels.pair_gram(res_phi, kernels.mul_into(conj(chi_helem), ring.mul))
    rhs = kernels.pair_gram(res_phi, kernels.mul_into(conj(twisted), ring.mul))
    if np.array_equal(lhs, rhs):
        return [CheckReport("orbit-multiplicities", group.name, lam.label, "pass")]
    bad = np.argwhere(np.any(lhs != rhs, axis=-1))[0]
    return [
        CheckReport(
            "orbit-multiplicities",
            group.name,
            lam.label,
            "fail",
            f"<res phi{bad[0]}, chi{bad[1]}> differs from the twisted multiplicity",
        )
    ]


def check_b_independence(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """The twist agrees for every coset element, by element conjugation and on Irr.

    The presentation reads the coset element only through the twist
    permutation, so equal permutations give the same presentation.
    """
    ctx = lambda_context(group, lam)
    k_h = ctx.table_h.count
    chi_helem = _h_element_values(ctx, np.eye(k_h, dtype=np.int64))
    base_twisted = _brute_twisted_h_values(ctx, chi_helem, ctx.b)
    for b in ctx.cosets:
        twisted = _brute_twisted_h_values(ctx, chi_helem, b)
        if not np.array_equal(twisted, base_twisted):
            return [
                CheckReport(
                    "b-independence", group.name, lam.label, "fail",
                    f"element-level twist differs for coset element {b}",
                )
            ]
        if not np.array_equal(twist_permutation(ctx.emb, b), ctx.twist):
            return [
                CheckReport(
                    "b-independence", group.name, lam.label, "fail",
                    f"twist permutation differs for coset element {b}",
                )
            ]
    return [CheckReport("b-independence", group.name, lam.label, "pass")]


def check_corollary(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """Commuting coset element forces rank 0 (sufficient direction only)."""
    ctx = lambda_context(group, lam)
    h_idx = ctx.emb.inclusion
    prod = group.product
    commuting = None
    for b in ctx.cosets:
        if np.array_equal(prod[b, h_idx], prod[h_idx, b]):
            commuting = b
            break
    rank = k_group_s1_lambda(group, lam).rank
    if commuting is not None:
        status = "pass" if rank == 0 else "fail"
        detail = f"element {commuting} commutes with the kernel; rank = {rank}"
    elif rank == 0:
        status = "pass"
        detail = "rank 0 without a commuting coset element (informational)"
    else:
        status = "pass"
        detail = f"no commuting coset element; rank = {rank}"
    return [CheckReport("corollary-triviality", group.name, lam.label, status, detail)]


def check_ideal_lattice(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """The emitted sign-sphere basis spans the same lattice as all (1-lambda)phi."""
    ctx = lambda_context(group, lam)
    table = ctx.table_g
    ideal = k_group_s_lambda(group, lam)
    one_minus = np.zeros((1, table.count), dtype=np.int64)
    one_minus[0, table.trivial_index] = 1
    one_minus[0, ctx.lambda_index] -= 1
    if ctx.lambda_index == table.trivial_index:
        return [
            CheckReport(
                "ideal-lattice", group.name, lam.label, "fail",
                "sign character equals the trivial character",
            )
        ]
    # Row c decomposes (1 - lambda) * chi_c.
    one_minus_vals = values_of_coeffs(table, one_minus)
    gen_rows = decompose_values(table, table.values, factor=one_minus_vals)[:, 0]
    oracle = lattice.hermite_normal_form([tuple(int(v) for v in row) for row in gen_rows])
    emitted = lattice.hermite_normal_form([b.coeffs for b in ideal.basis])
    if oracle == emitted and len(oracle) == ideal.rank:
        return [
            CheckReport(
                "ideal-lattice", group.name, lam.label, "pass",
                f"lattice rank {ideal.rank}",
            )
        ]
    return [
        CheckReport(
            "ideal-lattice", group.name, lam.label, "fail",
            f"oracle rank {len(oracle)}, emitted rank {ideal.rank}, span equal: {oracle == emitted}",
        )
    ]


LAMBDA_CHECKS = (
    check_frobenius_reciprocity,
    check_projection_formula,
    check_mackey_restriction,
    check_orbit_multiplicities,
    check_b_independence,
    check_corollary,
    check_ideal_lattice,
)


def verify_group(group: GroupTable, lam: SignHomomorphism | None = None) -> list[CheckReport]:
    """All checks for one group; lambda checks for one hom or every valid one."""
    reports = check_table(group)
    homs = [lam] if lam is not None else enumerate_sign_homs(group)
    if not homs:
        reports.append(
            CheckReport(
                "lambda-sweep", group.name, "-", "skip",
                "no surjection onto {+1,-1} exists",
            )
        )
        return reports
    for hom in homs:
        for check in LAMBDA_CHECKS:
            reports.extend(check(group, hom))
    return reports


def run_verification(max_order: int = 64) -> list[CheckReport]:
    """Sweep the builtin catalog up to `max_order` with every valid lambda.

    A sweep past the order cap is rejected before any group is built.
    """
    cap = order_cap()
    if max_order > cap:
        raise OrderLimitError(f"sweep up to order {max_order} exceeds the order cap {cap}")
    reports: list[CheckReport] = []
    for spec in builtin_specs_upto(max_order):
        reports.extend(verify_group(build_group(spec)))
    return sorted(reports, key=lambda r: (r.check, r.group, r.lam))
