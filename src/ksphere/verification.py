"""Brute-force oracles for every character-level identity the K-groups use.

Each check recomputes its identity through a route independent of the
library's fast path: sums run over raw group elements instead of weighted
classes, induction runs through the nonzeros of a per-element transfer
matrix instead of the class-level one, and twists conjugate elements
through `GroupTable.conjugate` instead of permuting Irr. Frobenius
reciprocity and the ideal lattice read the Clifford restriction lookup R
instead: class-level induced values are compared with the values of R^T,
and the emitted s-lambda basis with the saturated kernel of R, so a passing
run decomposes nothing. The orthogonality, projection and orbit identities
are compared in the evaluation domain, as images at the primitive roots of
unity modulo oracle-only primes: indices from
`cyclotomic.ORACLE_PRIME_START`, whose primes the library never uses. Each
check first bounds, in Python ints, the coefficients of the difference of
its two sides, and takes primes until their product exceeds twice that
bound, so equal images prove equal cyclotomic integers. Every int64 sum has
a bound that is checked first. Checks return report entries instead of
raising, so failures (including deliberately corrupted inputs) surface as
data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels, lattice
from .characters import (
    CharacterTable,
    LambdaContext,
    _assemble_table,
    _embed,
    _embedded_values,
    _index_form,
    _l1_norms,
    character_table,
    decompose_values,
    induced_values,
    lambda_context,
    values_of_coeffs,
)
from .cyclotomic import ORACLE_PRIME_START, eval_prime, prime_count
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


def _h_distinct(ctx: LambdaContext) -> np.ndarray:
    """The distinct values of Irr(H) [D_H, phi], embedded in the ambient ring."""
    return _embed(ctx.table_h.distinct, ctx.table_h.modulus, ctx.table_g.ring)


def _l1(values: np.ndarray) -> int:
    """Largest l1 norm of a power-basis value in [..., phi], as a Python int."""
    return int(_l1_norms(values).max(initial=0))


def _oracle_primes(m: int, bound: int) -> range:
    """Indices of the oracle-only evaluation primes of modulus m whose product
    exceeds 2 * bound: equal images there prove equal cyclotomic integers
    whose coefficient difference is at most bound."""
    return range(
        ORACLE_PRIME_START, ORACLE_PRIME_START + prime_count(m, bound, ORACLE_PRIME_START)
    )


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
    r = table.count
    n = group.order
    ring = table.ring

    status = "pass" if r == k else "fail"
    out.append(
        CheckReport(
            "table-class-count", name, "-", status, f"{r} rows, {k} classes"
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

    # Rows: sum_x chi_a(x) conj(chi_b(x)) over the n elements = n delta_ab.
    # Columns, on class representatives: sum_c chi_c(i) conj(chi_c(j)) =
    # (n / |C_i|) delta_ij. Both are compared as images at oracle-only primes;
    # a bound on the coefficients of each side's difference fixes their number.
    # Every value of the table is a row of `distinct`, so that is what is bounded
    # and evaluated; the images are gathered by `which`.
    peak_l1 = ring.peak * ring.l1 * _l1(table.distinct) ** 2
    row_bound = n * peak_l1 + n
    col_bound = r * peak_l1 + n
    row_expected = n * np.eye(r, dtype=np.int64)
    col_expected = np.diag(n // np.asarray(table.classes.class_sizes, dtype=np.int64))
    row_bad = np.zeros((r, r), dtype=bool)
    col_bad = np.zeros((k, k), dtype=bool)
    elem_which = table.which[:, table.classes.class_of]  # [r, n]
    for i in _oracle_primes(ring.modulus, max(row_bound, col_bound)):
        p, _, neg = eval_prime(ring.modulus, i)
        images = ring.evaluate(table.distinct, i)  # [D, e]
        elem = images[elem_which]  # [r, n, e]
        gram = kernels.weighted_analysis(elem, elem[..., neg], p)
        row_bad |= np.any(gram != row_expected[..., None] % p, axis=-1)
        cols = images[table.which.T]  # [k, r, e]
        col = kernels.weighted_analysis(cols, cols[..., neg], p)
        col_bad |= np.any(col != col_expected[..., None] % p, axis=-1)
    if not row_bad.any():
        out.append(CheckReport("table-row-orthogonality", name, "-", "pass"))
    else:
        pairs = ", ".join(f"({a},{b})" for a, b in np.argwhere(row_bad)[:5])
        out.append(
            CheckReport(
                "table-row-orthogonality", name, "-", "fail", f"offending pairs {pairs}"
            )
        )
    if not col_bad.any():
        out.append(CheckReport("table-column-orthogonality", name, "-", "pass"))
    else:
        pairs = ", ".join(f"({i},{j})" for i, j in np.argwhere(col_bad)[:5])
        out.append(
            CheckReport(
                "table-column-orthogonality", name, "-", "fail", f"offending pairs {pairs}"
            )
        )
    return out


def corrupt_table(table: CharacterTable, char_index: int, class_index: int, delta: int = 1):
    """A copy of the table with one value perturbed (negative-control input)."""
    values = table.distinct[table.which]
    values[char_index, class_index, 0] += delta
    return _assemble_table(
        table, table.classes, table.degrees, *_index_form(values), table.modulus
    )


# ---------------------------------------------------------------------------
# per-lambda machinery
# ---------------------------------------------------------------------------


def _element_induction_matrix(ctx: LambdaContext) -> np.ndarray:
    """EW[g, e] = #{x in G : x^-1 g x = (e-th element of H)}, exact transfer data."""
    g = ctx.group
    n, h_order = g.order, ctx.emb.subgroup.order
    all_g = np.arange(n, dtype=np.int64)
    inside = ctx.emb.position[g.conjugate(all_g[:, None], all_g[None, :])]  # [x, g]
    hit = inside >= 0
    keys = np.broadcast_to(all_g * h_order, inside.shape)[hit] + inside[hit]
    return np.bincount(keys, minlength=n * h_order).reshape(n, h_order)


class _Transfer(NamedTuple):
    """The nonzeros of the transfer matrix EW, in blocks of rows with equally many.

    In a block (rows, cols, weights), row rows[s] of EW has the nonzeros
    weights[s, t] at the H-elements cols[s, t]. Rows without a nonzero are
    left out, since induced values vanish on them. There are
    sum_{h in H} |cl_G(h)| nonzeros, |H| for abelian G. reach is the largest
    l1 norm of a row.
    """

    blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    reach: int

    @staticmethod
    def of(ew: np.ndarray) -> "_Transfer":
        counts = np.count_nonzero(ew, axis=1)
        blocks = []
        for length in np.flatnonzero(np.bincount(counts)[1:]) + 1:
            rows = np.flatnonzero(counts == length)
            cols = np.nonzero(ew[rows])[1].reshape(rows.size, length)
            blocks.append((rows, cols, np.take_along_axis(ew[rows], cols, axis=1)))
        return _Transfer(tuple(blocks), int(np.abs(ew).sum(axis=1).max()))

    @property
    def rows(self) -> np.ndarray:
        """The rows of EW with a nonzero, in the order `sums` returns them."""
        return np.concatenate([rows for rows, _, _ in self.blocks])

    def sums(self, vals: np.ndarray, magnitude: int) -> np.ndarray:
        """out[..., s, :] = sum_x EW[rows[s], x] vals[..., x, :] over the nonzeros.

        `magnitude` bounds every |vals| entry; the int64 sums are exact by
        a bound checked first.
        """
        kernels._require_int64(self.reach * magnitude, "transfer sum")
        return np.concatenate(
            [(vals[..., cols, :] * w[:, :, None]).sum(axis=-2) for _, cols, w in self.blocks],
            axis=-2,
        )


def _element_induced(ctx: LambdaContext, transfer: _Transfer, helem: np.ndarray) -> np.ndarray | None:
    """Per-element induction of H values [..., |H|, phi] to G, or None if not integral."""
    numer = transfer.sums(helem, int(np.abs(helem).max(initial=0)))
    h_order = ctx.emb.subgroup.order
    if np.any(numer % h_order):
        return None
    out = np.zeros(helem.shape[:-2] + (ctx.group.order, helem.shape[-1]), dtype=np.int64)
    out[..., transfer.rows, :] = numer // h_order
    return out


def _element_induction(ctx: LambdaContext, check: str):
    """(transfer data, Irr(H) per H-element [k_h, |H|, phi], their induction [k_h, n, phi]).

    Induction runs through the element transfer matrix; when it gives a
    non-integral value, the failing report of `check` is returned instead.
    """
    transfer = _Transfer.of(_element_induction_matrix(ctx))
    chi_helem = _h_element_values(ctx)
    ind_elem = _element_induced(ctx, transfer, chi_helem)
    if ind_elem is None:
        return CheckReport(
            check, ctx.group.name, ctx.label, "fail",
            "element-level induction produced non-integral values",
        )
    return transfer, chi_helem, ind_elem


def _h_element_values(ctx: LambdaContext) -> np.ndarray:
    """Per-H-element values [k_H, |H|, phi] of Irr(H), in the ambient ring."""
    return _h_distinct(ctx)[ctx.table_h.which[:, ctx.table_h.classes.class_of]]


def _g_element_values(ctx: LambdaContext) -> np.ndarray:
    """Per-element values [k_G, n, phi] of Irr(G)."""
    table = ctx.table_g
    return table.distinct[table.which[:, table.classes.class_of]]


def _twisted_positions(ctx: LambdaContext, b) -> np.ndarray:
    """H-index of b^-1 h b for each element h of H, elementwise over broadcast b."""
    conj = ctx.emb.position[ctx.group.conjugate(b, ctx.emb.inclusion)]
    if np.any(conj < 0):
        raise ValueError("kernel is not normal (impossible at index 2)")
    return conj


def _brute_twisted_h_values(ctx: LambdaContext, helem: np.ndarray, b: int) -> np.ndarray:
    """Values of h -> f(b^-1 h b) by direct element conjugation."""
    return helem[..., _twisted_positions(ctx, b), :]


# ---------------------------------------------------------------------------
# lambda-dependent checks
# ---------------------------------------------------------------------------


def check_frobenius_reciprocity(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """<ind chi, phi>_G = <chi, res phi>_H: the induced values of each chi_i of
    H equal sum_a R[a, i] phi_a, R the Clifford restriction lookup. A certified
    Irr(G) is linearly independent, so this is exact; only a mismatch is
    decomposed, to name the first differing coordinate."""
    ctx = lambda_context(group, lam)
    table_g, r = ctx.table_g, ctx.restriction
    induced = induced_values(ctx.emb, _embedded_values(ctx.table_h, table_g.ring))
    if np.array_equal(induced, values_of_coeffs(table_g, r.T)):
        return [CheckReport("frobenius-reciprocity", group.name, lam.label, "pass")]
    t = decompose_values(table_g, induced)
    i, a = np.argwhere(t != r.T)[0]
    return [
        CheckReport(
            "frobenius-reciprocity", group.name, lam.label, "fail",
            f"mismatch at (chi{i}, chi{a}): ind gives {t[i, a]}, res gives {r[a, i]}",
        )
    ]


def check_projection_formula(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """phi (x) ind(chi) = ind(res(phi) (x) chi), checked per element for all pairs.

    ind(chi) is induced in the power basis and tested for integrality. Then
    numer = sum_x EW[g, x] (res phi_a chi_b)(x) is compared with
    |H| phi_a(g) ind(chi_b)(g) as images at oracle-only primes: equality
    proves at once that ind of the product is integral and equals the left
    side. Offending pairs are rerun in the power basis, which picks the
    failure message.
    """
    ctx = lambda_context(group, lam)
    ring = ctx.table_g.ring
    h_order = ctx.emb.subgroup.order
    induced = _element_induction(ctx, "projection-formula")
    if isinstance(induced, CheckReport):
        return [induced]
    transfer, chi_helem, ind_elem = induced
    rows = transfer.rows
    ind_rows = ind_elem[:, rows]  # both sides vanish on the other rows
    table_g, table_h = ctx.table_g, ctx.table_h
    chi_distinct = _h_distinct(ctx)
    bound = ring.peak * _l1(table_g.distinct) * (
        h_order * _l1(ind_rows) + transfer.reach * _l1(chi_distinct)
    )
    g_class_of = table_g.classes.class_of
    res_classes = g_class_of[ctx.emb.inclusion]
    chi_elem = table_h.which[:, table_h.classes.class_of]  # [k_h, |H|]
    bad = np.zeros((table_g.count, table_h.count), dtype=bool)
    for i in _oracle_primes(ring.modulus, bound):
        p = eval_prime(ring.modulus, i)[0]
        phi_img = ring.evaluate(table_g.distinct, i)[table_g.which]
        chi_img = ring.evaluate(chi_distinct, i)[chi_elem]
        product = phi_img[:, None, res_classes] * chi_img[None]  # [k_g, k_h, |H|, e]
        numer = transfer.sums(product, (p - 1) ** 2)
        ind_img = ring.evaluate(ind_rows, i) * h_order % p
        lhs = phi_img[:, None, g_class_of[rows]] * ind_img[None]
        bad |= np.any((numer - lhs) % p, axis=(2, 3))
    if not bad.any():
        return [CheckReport("projection-formula", group.name, lam.label, "pass")]
    return [
        CheckReport(
            "projection-formula", group.name, lam.label, "fail",
            _projection_failure(ctx, transfer, chi_helem, np.argwhere(bad)),
        )
    ]


def _projection_failure(ctx, transfer, chi_helem, pairs) -> str:
    """The power-basis route on the offending (a, b) pairs only.

    Every pair whose product induces to a non-integral value is offending,
    since |H| phi_a ind(chi_b) is divisible by |H|; every other offending
    pair has sides that differ.
    """
    res_phi = _g_element_values(ctx)[:, ctx.emb.inclusion]
    for a, b in pairs:
        inner = ctx.table_g.ring.multiply(res_phi[a], chi_helem[b])  # [|H|, phi]
        if _element_induced(ctx, transfer, inner) is None:
            return "element-level induction of the product is non-integral"
    a, b = pairs[0]
    return f"sides differ for (phi=chi{a}, chi=chi{b})"


def check_mackey_restriction(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """res(ind(chi)) = chi + twist(chi) for every irreducible chi of H, per element.

    Its coordinate form R^T R = 1 + twist holds by construction of R
    (`characters._clifford_restriction`), and Frobenius ties induction to R^T.
    """
    ctx = lambda_context(group, lam)
    induced = _element_induction(ctx, "mackey-restriction")
    if isinstance(induced, CheckReport):
        return [induced]
    _, chi_helem, ind_elem = induced
    res_ind = ind_elem[:, ctx.emb.inclusion, :]
    twisted = _brute_twisted_h_values(ctx, chi_helem, ctx.b)
    differs = np.any(res_ind != chi_helem + twisted, axis=(1, 2))
    if not differs.any():
        return [CheckReport("mackey-restriction", group.name, lam.label, "pass")]
    detail = f"element values differ for chi{int(np.argmax(differs))}"
    return [CheckReport("mackey-restriction", group.name, lam.label, "fail", detail)]


def check_orbit_multiplicities(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """Restriction multiplicities are constant along twist orbits.

    sum_h res phi_a(h) conj(chi_b(h)) is compared with the same sum over the
    element-twisted chi_b, as images at oracle-only primes.
    """
    ctx = lambda_context(group, lam)
    table_g, table_h = ctx.table_g, ctx.table_h
    ring = table_g.ring
    chi_distinct = _h_distinct(ctx)
    res_phi_which = table_g.which[:, table_g.classes.class_of[ctx.emb.inclusion]]  # [k_g, |H|]
    chi_elem = table_h.which[:, table_h.classes.class_of]  # [k_h, |H|]
    bound = (
        2 * ctx.emb.subgroup.order * ring.peak * _l1(table_g.distinct) * ring.l1 * _l1(chi_distinct)
    )
    bad = np.zeros((table_g.count, table_h.count), dtype=bool)
    for i in _oracle_primes(ring.modulus, bound):
        p, _, neg = eval_prime(ring.modulus, i)
        res_phi = ring.evaluate(table_g.distinct, i)[res_phi_which]
        chi_conj = ring.evaluate(chi_distinct, i)[:, neg][chi_elem]
        twisted = _brute_twisted_h_values(ctx, chi_conj, ctx.b)
        lhs = kernels.weighted_analysis(res_phi, chi_conj, p)
        rhs = kernels.weighted_analysis(res_phi, twisted, p)
        bad |= np.any(lhs != rhs, axis=-1)
    if not bad.any():
        return [CheckReport("orbit-multiplicities", group.name, lam.label, "pass")]
    a, b = np.argwhere(bad)[0]
    return [
        CheckReport(
            "orbit-multiplicities",
            group.name,
            lam.label,
            "fail",
            f"<res phi{a}, chi{b}> differs from the twisted multiplicity",
        )
    ]


def check_b_independence(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """The twist agrees for every coset element, by element conjugation.

    For each coset element b, the H-classes of b^-1 h b over all h in H form
    one row of a single gather, compared with the row of the canonical b.
    Equal rows give equal values f(b^-1 h b) for every class function f of
    H, so the element-level twists of all of Irr(H) agree. They also give
    equal twist permutations on Irr: `characters.twist_permutation` for b is
    a row lookup of exactly these classes at the class representatives. The
    presentation reads the coset element only through that permutation, so
    every coset element gives the same presentation. The comparison reads no
    character table.
    """
    ctx = lambda_context(group, lam)
    elems = np.asarray([ctx.b, *ctx.cosets], dtype=np.int64)
    classes = ctx.emb.subgroup.classes.class_of[_twisted_positions(ctx, elems[:, None])]
    differs = np.flatnonzero(np.any(classes[1:] != classes[0], axis=1))
    if differs.size:
        return [
            CheckReport(
                "b-independence", group.name, lam.label, "fail",
                f"element-level twist differs for coset element {ctx.cosets[differs[0]]}",
            )
        ]
    return [CheckReport("b-independence", group.name, lam.label, "pass")]


def check_corollary(group: GroupTable, lam: SignHomomorphism) -> list[CheckReport]:
    """Commuting coset element forces rank 0 (sufficient direction only)."""
    ctx = lambda_context(group, lam)
    h_idx = ctx.emb.inclusion
    cosets = np.asarray(ctx.cosets, dtype=np.int64)
    fixes = np.all(group.conjugate(cosets[:, None], h_idx[None, :]) == h_idx, axis=1)
    commuting = int(cosets[fixes.argmax()]) if fixes.any() else None
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
    """The emitted basis B spans the ideal generated by 1 - lambda.

    That ideal is ker(res: R(G) -> R(H)) (Segal, Equivariant K-theory, 1968),
    saturated and of rank k_G - rank R, R the Clifford restriction lookup. So
    B spans it exactly when B R = 0 (int64 under a checked bound) and the HNF
    of B has unit pivots (span B is saturated) and k_G - rank R rows.
    """
    ctx = lambda_context(group, lam)
    table = ctx.table_g
    ideal = k_group_s_lambda(group, lam)
    if ideal.lambda_index == table.trivial_index:
        return [
            CheckReport(
                "ideal-lattice", group.name, lam.label, "fail",
                "sign character equals the trivial character",
            )
        ]
    rows = np.reshape([b.coeffs for b in ideal.basis], (-1, table.count))
    basis, r = kernels._dense_checked(rows, ctx.restriction, table.count, "ideal-lattice product")
    emitted = lattice.hermite_normal_form(basis.tolist())
    oracle_rank = table.count - lattice.lattice_rank(r.tolist())
    pivots = {next(x for x in row if x) for row in emitted}
    span_equal = not np.any(basis @ r) and pivots <= {1} and len(emitted) == oracle_rank
    if span_equal and oracle_rank == ideal.rank:
        return [
            CheckReport(
                "ideal-lattice", group.name, lam.label, "pass",
                f"lattice rank {ideal.rank}",
            )
        ]
    return [
        CheckReport(
            "ideal-lattice", group.name, lam.label, "fail",
            f"oracle rank {oracle_rank}, emitted rank {ideal.rank}, span equal: {span_equal}",
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
