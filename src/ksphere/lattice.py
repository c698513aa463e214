"""Canonical integer row lattices via Hermite normal form.

Used as the independent oracle for span/rank claims about bases built
elsewhere by orbit pairing: two generating sets span the same sublattice
of Z^n exactly when their canonical forms coincide. Plain Python integers
keep everything exact regardless of size.
"""

from __future__ import annotations


def hermite_normal_form(rows) -> tuple[tuple[int, ...], ...]:
    """Canonical row HNF (positive pivots, entries above reduced into [0, pivot))."""
    mat = [[int(x) for x in row] for row in rows]
    if not mat:
        return ()
    n_rows = len(mat)
    n_cols = len(mat[0])
    if any(len(row) != n_cols for row in mat):
        raise ValueError("ragged matrix")
    r = 0
    for c in range(n_cols):
        if r >= n_rows:
            break
        while True:
            nz = [i for i in range(r, n_rows) if mat[i][c] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[piv] = mat[piv], mat[r]
            done = True
            for i in range(r + 1, n_rows):
                if mat[i][c]:
                    q = mat[i][c] // mat[r][c]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        done = False
            if done:
                break
        if r < n_rows and mat[r][c] != 0:
            if mat[r][c] < 0:
                mat[r] = [-a for a in mat[r]]
            for i in range(r):
                q = mat[i][c] // mat[r][c]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
    return tuple(tuple(row) for row in mat[:r])


def lattice_rank(rows) -> int:
    return len(hermite_normal_form(rows))


def integrally_independent(rows) -> bool:
    rows = list(rows)
    return lattice_rank(rows) == len(rows)
