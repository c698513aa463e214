"""Presentations of the reduced equivariant K-groups of the two spheres.

Both pair the swapped orbits of an involution on irreducibles. For the sphere
with a one-dimensional sign action the group is the ideal generated by
1 - lambda in R(G), spanned by phi - lambda*phi over the swapped orbits of
tensoring by lambda (Segal, Equivariant K-theory, 1968). It needs Irr(G) and
lambda alone, so it builds no lambda context: no kernel, no Irr(ker lambda),
no twist. For the two-sphere with the extra trivial coordinate it is the
span of chi - (twist of chi) over Irr(ker lambda), with an identically zero
internal product. The twist does not depend on the coset element. Both carry
exact integer data and are verified against lattice oracles in the test
suite.

The s1-lambda action. phi_a in Irr(G) acts on the basis element
e = psi_rep - psi_partner as res(phi_a) e, read in the pair basis. Write
res(phi_a) = sum_c R[a, c] psi_c and let N_e[c] be the coordinates of
psi_c e over Irr(H), H = ker lambda; then the coordinates of res(phi_a) e
are t[a, e] = R[a] N_e.
- R. H has index 2, so by Clifford theory (Isaacs 1976, ch. 6) res(phi_a)
  is a twist-fixed psi_c or an orbit sum psi_c + psi_sigma(c), with
  multiplicity one. `LambdaContext.restriction` finds which by an exact
  lookup of the restricted row among those candidates, in index form.
- N for a linear psi_rep. Then psi_partner is linear too, and psi_c psi_rep
  is irreducible: it is psi_pi(c) for a permutation pi of Irr(H)
  (`linear_product_permutations`). So N_e has rows e_pi_rep(c) -
  e_pi_partner(c), and t[a, e, i] = R[a, pi_rep^-1(i)] - R[a, pi_partner^-1(i)]:
  two gathers of R. Only pi_rep is looked up: psi_partner = psi_rep^sigma,
  sigma the twist, so psi_c psi_partner = (psi_sigma(c) psi_rep)^sigma and
  pi_partner = sigma pi_rep sigma.
- N for a non-linear psi_rep (the degree-3 pair of A5 < S5, the degree-8
  pair of A6 < S6) comes from one decomposition of the k_H x e products
  psi_c (psi_rep - psi_partner), in the ring of H, at every point of each
  prime, as every decomposition is.
The product is bounded in int64 before it is formed, and every t is checked
twist-antiinvariant before its pair coordinates are read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .characters import (
    CharacterTable,
    CharacterTheoryError,
    LambdaContext,
    VirtualCharacter,
    character_table,
    decompose_values,
    involution_orbits,
    lambda_context,
    lambda_index,
    linear_product_permutations,
    restrict,
    row_permutation,
    tensor_product,
)
from .groups import GroupTable, SignHomomorphism

S_LAMBDA = "s-lambda"
S1_LAMBDA = "s1-lambda"


@dataclass(eq=False)
class BasisElement:
    """One generator chi - twist(chi), tagged with its symbolic bundle label."""

    rep: int
    partner: int
    character: VirtualCharacter
    label: str


@dataclass(eq=False)
class KGroupPresentation:
    """Free-abelian presentation with action matrices and zero product."""

    sphere: str
    rank: int
    basis: tuple[BasisElement, ...]
    action_names: tuple[str, ...]
    action: tuple[np.ndarray, ...]
    ctx: LambdaContext

    def zero(self) -> "KElement":
        return KElement(self, (0,) * self.rank)

    def element(self, coords) -> "KElement":
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(coords)}")
        return KElement(self, coords)

    def action_matrix(self, phi: VirtualCharacter) -> np.ndarray:
        """Matrix of a virtual character, extended linearly from irreducibles."""
        if phi.table is not self.ctx.table_g:
            raise CharacterTheoryError("character does not act on this presentation")
        bound = sum(abs(c) * kernels._magnitude(a) for c, a in zip(phi.coeffs, self.action) if c)
        kernels._require_int64(bound, "action matrix")
        out = np.zeros((self.rank, self.rank), dtype=np.int64)
        for c, a in zip(phi.coeffs, self.action):
            if c:
                out += c * a
        return out

    def to_jsonable(self) -> dict:
        return {
            "sphere": self.sphere,
            "rank": self.rank,
            "basis": [
                {
                    "rep": b.rep,
                    "partner": b.partner,
                    "label": b.label,
                    "coeffs": list(b.character.coeffs),
                }
                for b in self.basis
            ],
            "action": {
                "names": list(self.action_names),
                "matrices": [a.tolist() for a in self.action],
            },
            "product_rule": "zero",
        }


@dataclass(eq=False)
class KElement:
    """An element of a K-group presentation in basis coordinates."""

    presentation: KGroupPresentation
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KElement):
            return NotImplemented
        return self.presentation is other.presentation and self.coords == other.coords


@dataclass(eq=False)
class IdealPresentation:
    """Basis of the ideal generated by 1 - lambda inside R(G), on `table`,
    the table of G; `lambda_index` is lambda's index in it."""

    sphere: str
    rank: int
    basis: tuple[VirtualCharacter, ...]
    pairs: tuple[tuple[int, int], ...]
    fixed: tuple[int, ...]
    lambda_index: int
    table: CharacterTable

    def to_jsonable(self) -> dict:
        return {
            "sphere": self.sphere,
            "rank": self.rank,
            "lambda_index": self.lambda_index,
            "basis": [list(b.coeffs) for b in self.basis],
            "pairs": [list(p) for p in self.pairs],
            "fixed": list(self.fixed),
        }


# ---------------------------------------------------------------------------
# the sphere with the extra trivial coordinate
# ---------------------------------------------------------------------------


def _antiinvariant_coords(ctx: LambdaContext, t: np.ndarray, axis: int = -1) -> np.ndarray:
    """Coordinates of twist-antiinvariant integer vectors of Z^Irr(H), laid
    along `axis` of t, in the pair basis.

    Raises when a vector is not in the span (nonzero on a fixed character or
    asymmetric on a pair): such input signals an internal invariant violation.
    """
    t = np.asarray(t)
    axis %= t.ndim
    others = tuple(a for a in range(t.ndim) if a != axis)
    bad = np.any(np.take(t, ctx.twist, axis=axis) != -t, axis=others)
    if bad.any():
        c = int(np.argmax(bad))
        s = int(ctx.twist[c])
        raise CharacterTheoryError(
            f"vector has weight on twist-fixed character chi{c}"
            if s == c
            else f"vector is not antiinvariant on the pair ({min(c, s)},{max(c, s)})"
        )
    reps = np.asarray([rep for rep, _ in ctx.orbits.pairs], dtype=np.intp)
    return np.take(t, reps, axis=axis)


def _pair_differences(table: CharacterTable, pairs) -> list[list[int]]:
    """Coefficient rows [len(pairs), k] of chi_rep - chi_partner, checked independent.

    When the 2 len(pairs) indices are pairwise distinct, row e alone is
    nonzero at column rep_e, so every integer relation among the rows is
    trivial; otherwise the rows are refused.
    """
    flat = [c for pair in pairs for c in pair]
    if len(set(flat)) != len(flat):
        raise CharacterTheoryError("orbit differences are not integrally independent")
    coeffs = [[0] * table.count for _ in pairs]
    for row, (rep, partner) in zip(coeffs, pairs):
        row[rep], row[partner] = 1, -1
    return coeffs


def _check_class_count_rank(
    table_g: CharacterTable, values: np.ndarray, sphere: str, rank: int
) -> None:
    """Raise unless `rank` is k_G - c_H (s-lambda) or 2 c_H - k_G (s1-lambda),
    c_H being the number of G-classes inside H = ker lambda: H is normal, so
    a union of classes, and c_H counts the representatives where the
    lambda `values` (one sign per element) are +1.

    The orbit sums chi + lambda*chi are a basis of the class functions that
    vanish off H, so there are c_H orbits, k_G - c_H of them swapped pairs.
    By Clifford theory for index 2 (Isaacs 1976, ch. 6) the 2 c_H - k_G fixed
    characters of G match the swapped pairs of the twist on Irr(H).
    """
    k_g = table_g.count
    c_h = int(np.count_nonzero(values[list(table_g.classes.representatives)] > 0))
    expected = k_g - c_h if sphere == S_LAMBDA else 2 * c_h - k_g
    if rank != expected:
        raise CharacterTheoryError(f"{sphere} rank {rank}, but the class counts give {expected}")


def k_group_s1_lambda(group: GroupTable, lam: SignHomomorphism) -> KGroupPresentation:
    """Presentation with basis {chi - twist(chi)} over swapped orbit pairs."""
    ctx = lambda_context(group, lam)
    table_g, table_h = ctx.table_g, ctx.table_h
    pairs = ctx.orbits.pairs
    rank = len(pairs)
    _check_class_count_rank(table_g, ctx.values, S1_LAMBDA, rank)
    basis = tuple(
        BasisElement(rep, partner, VirtualCharacter(table_h, row), f"ind(chi{rep}⊗(ζ-1))")
        for (rep, partner), row in zip(pairs, _pair_differences(table_h, pairs))
    )
    mats = tuple(_s1_action(ctx))
    if not np.array_equal(mats[table_g.trivial_index], np.eye(rank, dtype=np.int64)):
        raise CharacterTheoryError("trivial character does not act as the identity")
    return KGroupPresentation(
        sphere=S1_LAMBDA,
        rank=rank,
        basis=basis,
        action_names=table_g.names,
        action=mats,
        ctx=ctx,
    )


# Bytes of one block of basis elements in `_s1_action`: its [block, k_H, k_H]
# int64 product rows and its [block, k_H, k_G] product coordinates.
_ACTION_BLOCK_BYTES = 1 << 25


def _s1_action(ctx: LambdaContext) -> np.ndarray:
    """The action matrices [k_G, rank, rank]: entry [a, f, e] is the
    coordinate on basis_f of res(phi_a) basis_e, as R[a] N_e (module docstring).

    The coordinates over Irr(H) are laid out [e, i, a], so that each gather
    moves rows of R^T, in the least integer type that holds their checked
    bound. They go in blocks of basis elements: each block looks up pi_rep
    for its linear representatives, takes pi_partner = sigma pi_rep sigma,
    and is checked twist-antiinvariant (`_antiinvariant_coords`).
    """
    table_h, sigma = ctx.table_h, ctx.twist
    pairs = np.asarray(ctx.orbits.pairs, dtype=np.intp).reshape(-1, 2)
    k_g, k_h, rank = ctx.table_g.count, table_h.count, len(pairs)
    if not rank:
        return np.zeros((k_g, 0, 0), dtype=np.int64)
    r = ctx.restriction
    linear = np.asarray(table_h.degrees)[pairs[:, 0]] == 1
    heavy = np.flatnonzero(~linear)
    # products[c, f, i]: coordinate on psi_i of psi_c (psi_rep - psi_partner) for heavy[f].
    products = np.zeros((k_h, 0, k_h), dtype=np.int64)
    if heavy.size:
        values = table_h.distinct[table_h.which]
        reps, partners = table_h.which[pairs[heavy, 0]], table_h.which[pairs[heavy, 1]]
        factor = table_h.distinct[reps] - table_h.distinct[partners]
        products = decompose_values(table_h, values, factor=factor)
    # |t[a, e, i]| <= sum_c |R[a, c]| max |N_e|, and a linear N_e has rows
    # e_pi_rep(c) - e_pi_partner(c), of entries at most 1.
    bound = max(sum(map(abs, row)) for row in r.tolist()) * max(1, kernels._magnitude(products))
    kernels._require_int64(bound, "restricted products")
    dtype = np.min_scalar_type(-bound - 1)  # holds -t too
    r_t = np.ascontiguousarray(r.T, dtype=dtype)  # [k_H, k_G]
    slot = np.cumsum(~linear) - 1  # position of a heavy e in `products`
    coords = np.empty((rank, rank, k_g), dtype=dtype)  # [e, f, a]
    block = max(1, _ACTION_BLOCK_BYTES // (k_h * max(8 * k_h, dtype.itemsize * k_g)))
    for lo in range(0, rank, block):
        part = np.arange(lo, min(rank, lo + block))
        lin = linear[part]
        t = np.empty((part.size, k_h, k_g), dtype=dtype)
        if lin.any():
            # inv[f, i]: the c with psi_c psi_rep = psi_i; psi_partner = psi_rep^sigma,
            # so psi_c psi_partner = (psi_sigma(c) psi_rep)^sigma and its c is sigma inv sigma.
            inv = np.argsort(linear_product_permutations(table_h, pairs[part[lin], 0]), axis=-1)
            t[lin] = r_t[inv] - r_t[sigma[inv[:, sigma]]]
        t[~lin] = np.einsum("ac,cfi->fia", r, products[:, slot[part[~lin]]])
        coords[part] = _antiinvariant_coords(ctx, t, axis=1)
    return np.ascontiguousarray(coords.transpose(2, 1, 0), dtype=np.int64)


def module_action(pres: KGroupPresentation, phi: VirtualCharacter, x) -> KElement:
    """Act by a virtual character: restrict, multiply in R(H), re-coordinate."""
    coords = x.coords if isinstance(x, KElement) else tuple(int(c) for c in x)
    if isinstance(x, KElement) and x.presentation is not pres:
        raise CharacterTheoryError("element belongs to a different presentation")
    if len(coords) != pres.rank:
        raise ValueError(f"expected {pres.rank} coordinates, got {len(coords)}")
    ctx = pres.ctx
    if phi.table is not ctx.table_g:
        raise CharacterTheoryError("character does not act on this presentation")
    if pres.rank == 0:
        return pres.zero()
    # Basis coefficients are +-1 and 0, so no entry of xh exceeds sum |coords|.
    kernels._require_int64(sum(map(abs, coords)), "module element coordinates")
    xh = np.zeros(ctx.table_h.count, dtype=np.int64)
    for c, b in zip(coords, pres.basis):
        if c:
            xh += c * np.asarray(b.character.coeffs, dtype=np.int64)
    res = restrict(phi, ctx.emb)
    prod = tensor_product(res, VirtualCharacter(ctx.table_h, xh))
    out = _antiinvariant_coords(ctx, np.asarray(prod.coeffs, dtype=np.int64))
    return KElement(pres, tuple(out.tolist()))


def ring_product(alpha: KElement, beta: KElement) -> KElement:
    """The internal product: identically zero for every pair of elements."""
    if alpha.presentation is not beta.presentation:
        raise CharacterTheoryError("elements belong to different presentations")
    return alpha.presentation.zero()


# ---------------------------------------------------------------------------
# the sign sphere
# ---------------------------------------------------------------------------


def _lambda_tensor_permutation(table: CharacterTable, index: int) -> np.ndarray:
    """Permutation pi of Irr(G) with lambda * chi_c = chi_pi(c), lambda being
    chi_index.

    lambda is +-1 on every class, so lambda * chi_c is chi_c's value row with
    its values negated where lambda = -1: in index form, the row of `which`
    with nu applied on those classes, nu the negation map on the distinct
    values, and its index is a lookup of that integer row.
    """
    nu = table.value_indices(-table.distinct)  # -distinct[d] = distinct[nu[d]], or -1
    flip = table.distinct[table.which[index], 0] < 0
    return row_permutation(table, np.where(flip, nu[table.which], table.which))


def k_group_s_lambda(group: GroupTable, lam: SignHomomorphism) -> IdealPresentation:
    """Basis {phi - lambda*phi} over swapped orbits of tensoring by the sign.

    It reads Irr(G) and lambda alone: no kernel, no Irr(ker lambda), no twist.
    """
    table = character_table(group)
    index = lambda_index(table, lam)
    orbits = involution_orbits(_lambda_tensor_permutation(table, index))
    _check_class_count_rank(table, lam.values, S_LAMBDA, len(orbits.pairs))
    basis = tuple(VirtualCharacter(table, row) for row in _pair_differences(table, orbits.pairs))
    return IdealPresentation(
        sphere=S_LAMBDA,
        rank=len(basis),
        basis=basis,
        pairs=orbits.pairs,
        fixed=orbits.fixed,
        lambda_index=index,
        table=table,
    )


def rank_splitting_report(group: GroupTable, lam: SignHomomorphism) -> dict:
    """Orbit counts by isotropy type and the resulting free rank."""
    ctx = lambda_context(group, lam)
    n_h = len(ctx.orbits.pairs)
    return {"orbits_isotropy_H": n_h, "orbits_isotropy_G": len(ctx.orbits.fixed), "rank": n_h}
