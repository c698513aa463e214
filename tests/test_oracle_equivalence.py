"""The evaluation-domain oracles against the dense power-basis route.

`check_table`, `check_projection_formula` and `check_orbit_multiplicities`
compare images at oracle-only evaluation primes. The dense route below,
power-basis products through `kernels.mul_into`, `pair_products` and
`pair_gram` and induction through the dense transfer matrix, is their
reference: every report, pass or fail, must be equal word for word.
"""

import dataclasses

import numpy as np
import pytest

from conftest import dense_mul, dense_values, group_with_lambda
from ksphere import characters, cyclotomic, kernels, verification
from ksphere.characters import (
    _assemble_table,
    _embedded_values,
    _index_form,
    character_table,
    lambda_context,
)
from ksphere.cyclotomic import ORACLE_PRIME_START, eval_prime
from ksphere.groups import GroupSpec, build_group, builtin_specs_upto, enumerate_sign_homs
from ksphere.verification import (
    CheckReport,
    check_orbit_multiplicities,
    check_projection_formula,
    check_table,
    corrupt_table,
    run_verification,
)

# ---------------------------------------------------------------------------
# dense reference route
# ---------------------------------------------------------------------------


def _elem(vals, class_of):
    return np.ascontiguousarray(vals[..., class_of, :])


def dense_table_grams(table):
    ring = table.ring
    values = dense_values(table)
    elem = _elem(values, table.classes.class_of)
    gram = kernels.pair_gram(elem, kernels.mul_into(elem @ ring.conj, dense_mul(ring)))
    col = kernels.pair_gram(
        values.transpose(1, 0, 2),
        kernels.mul_into(values @ ring.conj, dense_mul(ring)).transpose(1, 0, 2, 3),
    )
    return gram, col


def dense_check_table(group, table):
    name, n = group.name, group.order
    k, r = table.classes.count, table.count
    out = [
        CheckReport(
            "table-class-count", name, "-", "pass" if r == k else "fail", f"{r} rows, {k} classes"
        ),
    ]
    dsq = sum(d * d for d in table.degrees)
    out.append(
        CheckReport(
            "table-degree-squares", name, "-", "pass" if dsq == n else "fail",
            f"sum d^2 = {dsq}, order = {n}",
        )
    )
    gram, col = dense_table_grams(table)
    expected = np.zeros_like(gram)
    expected[np.arange(r), np.arange(r), 0] = n
    col_expected = np.zeros_like(col)
    sizes = np.asarray(table.classes.class_sizes, dtype=np.int64)
    col_expected[np.arange(k), np.arange(k), 0] = n // sizes
    for check, got, want in (
        ("table-row-orthogonality", gram, expected),
        ("table-column-orthogonality", col, col_expected),
    ):
        if np.array_equal(got, want):
            out.append(CheckReport(check, name, "-", "pass"))
        else:
            bad = np.argwhere(np.any(got != want, axis=-1))
            pairs = ", ".join(f"({a},{b})" for a, b in bad[:5])
            out.append(CheckReport(check, name, "-", "fail", f"offending pairs {pairs}"))
    return out


def dense_induced(ctx, ew, helem):
    numer = np.einsum("ge,...ep->...gp", ew, helem)
    h_order = ctx.emb.subgroup.order
    return None if np.any(numer % h_order) else numer // h_order


def dense_projection_terms(ctx):
    """(EW, phi per element, ind(chi) per element or None, res(phi) chi per H-element)."""
    ring = ctx.table_g.ring
    ew = verification._element_induction_matrix(ctx)
    phi_elem = _elem(dense_values(ctx.table_g), ctx.table_g.classes.class_of)
    chi_helem = _elem(_embedded_values(ctx.table_h, ring), ctx.table_h.classes.class_of)
    inner = kernels.pair_products(
        phi_elem[:, ctx.emb.inclusion], kernels.mul_into(chi_helem, dense_mul(ring))
    )
    return ew, phi_elem, dense_induced(ctx, ew, chi_helem), inner


def dense_projection(ctx):
    ew, phi_elem, ind_elem, inner = dense_projection_terms(ctx)
    if ind_elem is None:
        return "element-level induction produced non-integral values"
    mul = dense_mul(ctx.table_g.ring)
    lhs = kernels.pair_products(phi_elem, kernels.mul_into(ind_elem, mul))
    rhs = dense_induced(ctx, ew, inner)
    if rhs is None:
        return "element-level induction of the product is non-integral"
    if np.array_equal(lhs, rhs):
        return ""
    a, b = np.argwhere(np.any(lhs != rhs, axis=(2, 3)))[0]
    return f"sides differ for (phi=chi{a}, chi=chi{b})"


def dense_orbit_sides(ctx):
    ring = ctx.table_g.ring
    phi_elem = _elem(dense_values(ctx.table_g), ctx.table_g.classes.class_of)
    chi_helem = _elem(_embedded_values(ctx.table_h, ring), ctx.table_h.classes.class_of)
    res_phi = phi_elem[:, ctx.emb.inclusion]
    twisted = verification._brute_twisted_h_values(ctx, chi_helem, ctx.b)
    lhs = kernels.pair_gram(res_phi, kernels.mul_into(chi_helem @ ring.conj, dense_mul(ring)))
    rhs = kernels.pair_gram(res_phi, kernels.mul_into(twisted @ ring.conj, dense_mul(ring)))
    return lhs, rhs


def dense_orbit(ctx):
    lhs, rhs = dense_orbit_sides(ctx)
    if np.array_equal(lhs, rhs):
        return ""
    a, b = np.argwhere(np.any(lhs != rhs, axis=-1))[0]
    return f"<res phi{a}, chi{b}> differs from the twisted multiplicity"


def _details(reports):
    (rep,) = reports
    assert (rep.status == "pass") == (rep.details == "")
    return rep.details


def _lambda_checks_match(group, lam, monkeypatch, ctx=None):
    """Projection and orbit reports of `ctx` (default: the cached context) equal the dense route."""
    ctx = lambda_context(group, lam) if ctx is None else ctx
    monkeypatch.setattr(verification, "lambda_context", lambda *_: ctx)
    got = (
        _details(check_projection_formula(group, lam)),
        _details(check_orbit_multiplicities(group, lam)),
    )
    assert got == (dense_projection(ctx), dense_orbit(ctx)), (group.name, lam.label)
    return got


def _corruptions(table):
    for i in range(min(3, table.count)):
        for j in range(min(3, table.classes.count)):
            for delta in (1, 2, -1):
                yield corrupt_table(table, i, j, delta)


def _pairs_upto(order):
    for spec in builtin_specs_upto(order):
        group = build_group(spec)
        yield group, enumerate_sign_homs(group)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def test_check_table_equals_dense_route_on_builtins_and_corruptions():
    # Corruptions stop at order 24: the dense reference costs k n phi**3 per
    # table, and the prime cyclic groups of order 29 and 31 alone take 3 s.
    for group, _ in _pairs_upto(32):
        table = character_table(group)
        assert check_table(group, table) == dense_check_table(group, table)
        if group.order <= 24:
            for bad in _corruptions(table):
                assert check_table(group, bad) == dense_check_table(group, bad), group.name


def test_check_table_reports_short_and_long_tables():
    group = build_group(GroupSpec.symmetric(3))
    t = character_table(group)
    values = dense_values(t)
    short = _assemble_table(group, t.classes, t.degrees[:2], *_index_form(values[:2]), t.modulus)
    long = _assemble_table(
        group,
        t.classes,
        t.degrees + t.degrees[:1],
        *_index_form(np.concatenate([values, values[:1]])),
        t.modulus,
    )
    for table, rows in ((short, 2), (long, 4)):
        reports = check_table(group, table)
        assert reports == dense_check_table(group, table)
        by_name = {r.check: r for r in reports}
        assert by_name["table-class-count"].status == "fail"
        assert by_name["table-class-count"].details == f"{rows} rows, 3 classes"
        assert by_name["table-column-orthogonality"].status == "fail"
    assert {r.check: r.status for r in check_table(group, short)}["table-row-orthogonality"] == "pass"
    long_rows = {r.check: r for r in check_table(group, long)}["table-row-orthogonality"]
    assert long_rows.status == "fail" and long_rows.details == "offending pairs (0,3), (3,0)"


def test_lambda_checks_equal_dense_route_on_every_builtin_pair(monkeypatch):
    pairs = 0
    for group, homs in _pairs_upto(32):
        for lam in homs:
            assert _lambda_checks_match(group, lam, monkeypatch) == ("", "")
            pairs += 1
    assert pairs == 179


def _perturbed_transfers(monkeypatch, ctx):
    """Transfer matrices with one entry raised by 1 or by |H|, installed in turn."""
    real = verification._element_induction_matrix
    ew = real(ctx)
    h_order = ctx.emb.subgroup.order
    for g, x in {(0, 0), (0, h_order - 1), (ew.shape[0] - 1, 0)}:
        for delta in (1, h_order):
            bad = ew.copy()
            bad[g, x] += delta
            monkeypatch.setattr(verification, "_element_induction_matrix", lambda c, b=bad: b)
            yield
    monkeypatch.setattr(verification, "_element_induction_matrix", real)


def test_lambda_checks_equal_dense_route_on_corrupted_inputs(monkeypatch):
    # A corrupted table is still a table of class functions, for which the
    # projection formula and orbit constancy hold: both checks pass on it. A
    # perturbed transfer matrix makes the projection check fail.
    projection_failures = set()
    for group, homs in _pairs_upto(16):
        for lam in homs[:1]:
            ctx = lambda_context(group, lam)
            for bad_g in _corruptions(ctx.table_g):
                bad = dataclasses.replace(ctx, table_g=bad_g)
                assert _lambda_checks_match(group, lam, monkeypatch, bad) == ("", "")
            for bad_h in _corruptions(ctx.table_h):
                bad = dataclasses.replace(ctx, table_h=bad_h)
                assert _lambda_checks_match(group, lam, monkeypatch, bad) == ("", "")
            for _ in _perturbed_transfers(monkeypatch, ctx):
                got = _lambda_checks_match(group, lam, monkeypatch, ctx)
                projection_failures.add(got[0].split(" (")[0])
    assert projection_failures == {
        "",
        "element-level induction produced non-integral values",
        "sides differ for",
    }


def _peak(a):
    return int(np.abs(a).max())


def test_oracle_bounds_cover_the_coefficients_they_certify(monkeypatch):
    # Each check's bound must cover the coefficients of both of its sides, as
    # the dense route computes them, or equal images would prove nothing.
    bounds = []
    real = verification.prime_count

    def spy(m, bound, start):
        bounds.append(bound)
        return real(m, bound, start)

    monkeypatch.setattr(verification, "prime_count", spy)
    for group, homs in _pairs_upto(16):
        table = character_table(group)
        check_table(group, table)
        gram, col = dense_table_grams(table)
        assert bounds.pop() >= max(_peak(gram), _peak(col)) + group.order
        for lam in homs:
            ctx = lambda_context(group, lam)
            check_projection_formula(group, lam)
            ew, phi_elem, ind_elem, inner = dense_projection_terms(ctx)
            numer = np.einsum("ge,...ep->...gp", ew, inner)
            mul = dense_mul(ctx.table_g.ring)
            lhs = kernels.pair_products(phi_elem, kernels.mul_into(ind_elem, mul))
            assert bounds.pop() >= _peak(numer) + ctx.emb.subgroup.order * _peak(lhs)
            check_orbit_multiplicities(group, lam)
            assert bounds.pop() >= sum(map(_peak, dense_orbit_sides(ctx)))
    assert not bounds


# ---------------------------------------------------------------------------
# negative controls for the lambda checks
# ---------------------------------------------------------------------------


def test_projection_reports_sides_that_differ(monkeypatch):
    # EW[e, r] raised by |H| = 3 keeps every induction integral, but the
    # 3-cycle r is not conjugate to e, and the degree-2 phi = chi2 tells them apart.
    group, lam = group_with_lambda(GroupSpec.symmetric(3), "sign")
    real = verification._element_induction_matrix

    def perturbed(ctx):
        ew = real(ctx).copy()
        ew[ctx.emb.inclusion[0], 1] += ctx.emb.subgroup.order
        return ew

    monkeypatch.setattr(verification, "_element_induction_matrix", perturbed)
    projection, orbit = _lambda_checks_match(group, lam, monkeypatch)
    assert projection == "sides differ for (phi=chi2, chi=chi0)"
    assert orbit == ""


def test_projection_reports_a_non_integral_induction(monkeypatch):
    group, lam = group_with_lambda(GroupSpec.dihedral(4), "reflection-sign")
    real = verification._element_induction_matrix

    def perturbed(ctx):
        ew = real(ctx).copy()
        ew[0, 1] += 1
        return ew

    monkeypatch.setattr(verification, "_element_induction_matrix", perturbed)
    projection, _ = _lambda_checks_match(group, lam, monkeypatch)
    assert projection == "element-level induction produced non-integral values"


def test_projection_reports_a_non_integral_product_induction(monkeypatch):
    # With the true tables, an integral ind(chi) for every irreducible chi
    # forces an integral ind(res(phi) chi). A transfer row that gains 1 at
    # both elements of H = C2 keeps ind(chi) integral; a corrupted value of
    # phi at the identity then makes the product's induction non-integral.
    group, lam = group_with_lambda(GroupSpec.cyclic(4), "onto-pm1")
    ctx = lambda_context(group, lam)
    real = verification._element_induction_matrix

    def perturbed(c):
        ew = real(c).copy()
        ew[1] += 1
        return ew

    monkeypatch.setattr(verification, "_element_induction_matrix", perturbed)
    bad = dataclasses.replace(ctx, table_g=corrupt_table(ctx.table_g, 1, 0))
    projection, _ = _lambda_checks_match(group, lam, monkeypatch, bad)
    assert projection == "element-level induction of the product is non-integral"


def test_orbit_multiplicities_report_a_wrong_twist(monkeypatch):
    group, lam = group_with_lambda(GroupSpec.dihedral(5), "reflection-sign")
    real = verification._brute_twisted_h_values

    def shifted(ctx, helem, b):
        return np.roll(real(ctx, helem, b), 1, axis=-2)

    monkeypatch.setattr(verification, "_brute_twisted_h_values", shifted)
    projection, orbit = _lambda_checks_match(group, lam, monkeypatch)
    assert projection == ""
    assert orbit.startswith("<res phi") and orbit.endswith("differs from the twisted multiplicity")


# ---------------------------------------------------------------------------
# transfer data and primes
# ---------------------------------------------------------------------------


def _loop_induction_matrix(ctx):
    g = ctx.group
    prod, inv, all_g = g.product, g.inverse, np.arange(g.order, dtype=np.int64)
    ew = np.zeros((g.order, ctx.emb.subgroup.order), dtype=np.int64)
    for gg in range(g.order):
        inside = ctx.emb.position[prod[prod[inv[all_g], gg], all_g]]
        hits = inside[inside >= 0]
        if hits.size:
            ew[gg] = np.bincount(hits, minlength=ew.shape[1])
    return ew


def test_transfer_matrix_and_sparse_induction_equal_the_loop_and_dense_routes():
    for group, homs in _pairs_upto(32):
        for lam in homs:
            ctx = lambda_context(group, lam)
            ew = verification._element_induction_matrix(ctx)
            assert np.array_equal(ew, _loop_induction_matrix(ctx))
            transfer = verification._Transfer.of(ew)
            sizes = np.asarray(group.classes.class_sizes)[group.classes.class_of]
            nonzeros = sum(cols.size for _, cols, _ in transfer.blocks)
            assert nonzeros == sizes[ctx.emb.inclusion].sum()  # sum |cl_G(h)|
            helem = verification._h_element_values(ctx)
            got = verification._element_induced(ctx, transfer, helem)
            assert np.array_equal(got, dense_induced(ctx, ew, helem))


def test_transfer_sums_check_their_int64_bound():
    ew = np.array([[0, 3, 0], [1, 0, -1], [0, 0, 0], [0, 0, 2]], dtype=np.int64)
    transfer = verification._Transfer.of(ew)
    assert transfer.reach == 3 and transfer.rows.tolist() == [0, 3, 1]
    vals = np.array([[[1], [2], [5]]], dtype=np.int64)
    assert transfer.sums(vals, 5).tolist() == [[[6], [10], [-4]]]
    transfer.sums(vals, (1 << 63) // 3)
    with pytest.raises(OverflowError):
        transfer.sums(vals, (1 << 63) // 3 + 1)


def test_oracle_and_library_use_disjoint_primes(monkeypatch):
    used = {"characters": set(), "verification": set()}

    def spy_for(module):
        real = cyclotomic.prime_count

        def spy(m, bound, start=0):
            count = real(m, bound, start)
            used[module] |= {eval_prime(m, i)[0] for i in range(start, start + count)}
            if module == "verification":
                assert start == ORACLE_PRIME_START
            return count

        return spy

    monkeypatch.setattr(characters, "prime_count", spy_for("characters"))
    monkeypatch.setattr(verification, "prime_count", spy_for("verification"))
    monkeypatch.setattr(characters, "_table_data_cache", {})  # certify every table afresh
    run_verification(32)
    assert used["characters"] and used["verification"]
    assert not used["characters"] & used["verification"]
