"""Presentations of the reduced equivariant K-groups of the two spheres.

Both pair the swapped orbits of an involution on irreducibles. For the sphere
with a one-dimensional sign action the group is the ideal generated by
1 - lambda in R(G), spanned by phi - lambda*phi; for the two-sphere with the
extra trivial coordinate it is the span of chi - (twist of chi) over
Irr(ker lambda), with an identically zero internal product. The twist does
not depend on the coset element. Both carry exact integer data and are
verified against lattice oracles in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lattice
from .characters import (
    CharacterTable,
    CharacterTheoryError,
    LambdaContext,
    VirtualCharacter,
    decompose_values,
    involution_orbits,
    lambda_context,
    restrict,
    restrict_values,
    row_permutation,
    tensor_product,
    _embedded_values,
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
    """Basis of the ideal generated by 1 - lambda inside R(G)."""

    sphere: str
    rank: int
    basis: tuple[VirtualCharacter, ...]
    pairs: tuple[tuple[int, int], ...]
    fixed: tuple[int, ...]
    lambda_index: int
    ctx: LambdaContext

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


def _antiinvariant_coords(ctx: LambdaContext, t: np.ndarray) -> np.ndarray:
    """Coordinates of twist-antiinvariant vectors of Z^Irr(H) in the pair basis.

    Raises when a vector is not in the span (nonzero on a fixed character or
    asymmetric on a pair): such input signals an internal invariant violation.
    """
    t = np.asarray(t, dtype=np.int64)
    bad = np.any((t[..., ctx.twist] != -t).reshape(-1, t.shape[-1]), axis=0)
    if bad.any():
        c = int(np.argmax(bad))
        s = int(ctx.twist[c])
        raise CharacterTheoryError(
            f"vector has weight on twist-fixed character chi{c}"
            if s == c
            else f"vector is not antiinvariant on the pair ({min(c, s)},{max(c, s)})"
        )
    return t[..., np.asarray([rep for rep, _ in ctx.orbits.pairs], dtype=np.intp)]


def _pair_differences(table: CharacterTable, pairs) -> np.ndarray:
    """Coefficient rows [len(pairs), k] of chi_rep - chi_partner, checked independent."""
    coeffs = np.zeros((len(pairs), table.count), dtype=np.int64)
    for e, (rep, partner) in enumerate(pairs):
        coeffs[e, rep], coeffs[e, partner] = 1, -1
    if not lattice.integrally_independent(coeffs.tolist()):
        raise CharacterTheoryError("orbit differences are not integrally independent")
    return coeffs


def _check_class_count_rank(ctx: LambdaContext, sphere: str, rank: int) -> None:
    """Raise unless `rank` is k_G - c_H (s-lambda) or 2 c_H - k_G (s1-lambda),
    c_H being the number of G-classes inside H = ker lambda.

    The orbit sums chi + lambda*chi are a basis of the class functions that
    vanish off H, so there are c_H orbits, k_G - c_H of them swapped pairs.
    By Clifford theory for index 2 (Isaacs 1976, ch. 6) the 2 c_H - k_G fixed
    characters of G match the swapped pairs of the twist on Irr(H).
    """
    k_g, c_h = ctx.table_g.count, np.unique(ctx.emb.class_map).size
    expected = k_g - c_h if sphere == S_LAMBDA else 2 * c_h - k_g
    if rank != expected:
        raise CharacterTheoryError(f"{sphere} rank {rank}, but the class counts give {expected}")


def k_group_s1_lambda(group: GroupTable, lam: SignHomomorphism) -> KGroupPresentation:
    """Presentation with basis {chi - twist(chi)} over swapped orbit pairs."""
    ctx = lambda_context(group, lam)
    table_g, table_h = ctx.table_g, ctx.table_h
    pairs = ctx.orbits.pairs
    rank = len(pairs)
    _check_class_count_rank(ctx, S1_LAMBDA, rank)
    coeff_mat = _pair_differences(table_h, pairs)
    basis = tuple(
        BasisElement(rep, partner, VirtualCharacter(table_h, row), f"ind(chi{rep}⊗(ζ-1))")
        for (rep, partner), row in zip(pairs, coeff_mat)
    )
    if rank:
        ring_g = table_g.ring
        basis_vals = np.einsum("ec,cjp->ejp", coeff_mat, _embedded_values(table_h, ring_g))
        res_all = restrict_values(ctx.emb, table_g.values)
        # t[a, e] = coordinates of res(phi_a) * basis_e over Irr(H).
        t = decompose_values(table_h, res_all, ring_g, factor=basis_vals)
        mats = tuple(np.ascontiguousarray(m.T) for m in _antiinvariant_coords(ctx, t))
    else:
        mats = tuple(np.zeros((0, 0), dtype=np.int64) for _ in range(table_g.count))
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
    xh = np.zeros(ctx.table_h.count, dtype=np.int64)
    for c, b in zip(coords, pres.basis):
        if c:
            xh += c * np.asarray(b.character.coeffs, dtype=np.int64)
    res = restrict(phi, ctx.emb)
    prod = tensor_product(res, VirtualCharacter(ctx.table_h, tuple(int(v) for v in xh)))
    out = _antiinvariant_coords(ctx, np.asarray(prod.coeffs, dtype=np.int64))
    return KElement(pres, tuple(int(v) for v in out))


def ring_product(alpha: KElement, beta: KElement) -> KElement:
    """The internal product: identically zero for every pair of elements."""
    if alpha.presentation is not beta.presentation:
        raise CharacterTheoryError("elements belong to different presentations")
    return alpha.presentation.zero()


# ---------------------------------------------------------------------------
# the sign sphere
# ---------------------------------------------------------------------------


def _lambda_tensor_permutation(ctx: LambdaContext) -> np.ndarray:
    """Permutation pi of Irr(G) with lambda * chi_c = chi_pi(c).

    lambda is +-1 on every class, so lambda * chi_c is chi_c's value row with
    the signs of lambda applied, and its index is a row lookup in the table.
    """
    table = ctx.table_g
    return row_permutation(table, table.values * table.values[ctx.lambda_index][:, :1])


def k_group_s_lambda(group: GroupTable, lam: SignHomomorphism) -> IdealPresentation:
    """Basis {phi - lambda*phi} over swapped orbits of tensoring by the sign."""
    ctx = lambda_context(group, lam)
    table = ctx.table_g
    orbits = involution_orbits(_lambda_tensor_permutation(ctx))
    _check_class_count_rank(ctx, S_LAMBDA, len(orbits.pairs))
    basis = tuple(VirtualCharacter(table, row) for row in _pair_differences(table, orbits.pairs))
    return IdealPresentation(
        sphere=S_LAMBDA,
        rank=len(basis),
        basis=basis,
        pairs=orbits.pairs,
        fixed=orbits.fixed,
        lambda_index=ctx.lambda_index,
        ctx=ctx,
    )


def rank_splitting_report(group: GroupTable, lam: SignHomomorphism) -> dict:
    """Orbit counts by isotropy type and the resulting free rank."""
    ctx = lambda_context(group, lam)
    n_h = len(ctx.orbits.pairs)
    return {"orbits_isotropy_H": n_h, "orbits_isotropy_G": len(ctx.orbits.fixed), "rank": n_h}
