"""Exact sparse linear algebra over GF(p).

The one elimination kernel: the ranks of the Hom complexes over F_ell, by
forward elimination with pivot insertion.  Rows arrive one at a time; a
table maps each leading column to its pivot row, and an incoming row is
reduced only by the pivots its leading entries meet, so a row operation
walks only the nonzeros of one pivot row and no other row is ever
scanned.  The kernel returns the row rank profile, from which the rank of
every leading submatrix can be read.  Python ints are exact at any size,
but p stays below 2^31 (`MAX_MODULUS`), the supported range that
`tree_algebra` also checks fields against."""

from __future__ import annotations

from dataclasses import dataclass

# Exclusive upper bound on the supported modulus.
MAX_MODULUS = 2 ** 31


@dataclass
class SparseMatrix:
    """A rows x cols matrix; rows[i] maps column -> entry, and a column
    missing from it holds zero.  Entries need not be reduced or nonzero:
    the kernel reduces its own copy of each row."""

    shape: tuple[int, int]
    rows: list[dict[int, int]]


def rref_mod_prime(a: SparseMatrix, p: int) -> list[tuple[int, int]]:
    """Row rank profile of `a` over GF(p), p prime, by pivot insertion.

    Returns one (row, leading column) pair for each row that is
    independent of the rows above it, in row order: the row's leading
    column once it is reduced by the pivot rows above.  The pivot rows are
    in echelon form, so for every R and C the rank of the leading R x C
    submatrix is the number of pairs with row < R and column < C.  `a` is
    left as it is.  Raises ValueError unless 1 < p < 2^31.

    The name is older than the kernel: `perfbench/layertrace.py` binds it
    for the rank counters until ROADMAP item 1 renames it.
    """
    if not 1 < p < MAX_MODULUS:
        raise ValueError(f"p = {p} outside 1 < p < 2^31")
    pivots: dict[int, dict[int, int]] = {}     # leading column -> monic row
    profile: list[tuple[int, int]] = []
    for r, entries in enumerate(a.rows):
        row = {c: v for c, x in entries.items() if (v := x % p)}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: v * inv % p for k, v in row.items()}
                profile.append((r, c))
                break
            # only nonzero entries are stored, so the pivot's columns are
            # all nonzero and one that cancels was already in the row
            f = row[c]
            for k, v in prow.items():
                if x := (row.get(k, 0) - f * v) % p:
                    row[k] = x
                else:
                    del row[k]
    return profile
