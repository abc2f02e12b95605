"""Exact sparse linear algebra over GF(p).

The one elimination kernel: the ranks of the Hom complexes over F_ell.  A
row operation walks only the nonzeros of the pivot row.  Python ints are
exact at any size, but p stays below 2^31 (`MAX_MODULUS`), the supported
range that `tree_algebra` also checks fields against."""

from __future__ import annotations

from dataclasses import dataclass

# Exclusive upper bound on the supported modulus.
MAX_MODULUS = 2 ** 31


@dataclass
class SparseMatrix:
    """A rows x cols matrix; rows[i] maps column -> entry, and a column
    missing from it holds zero.  Entries need not be reduced or nonzero:
    `rref_mod_prime` reduces its own copy."""

    shape: tuple[int, int]
    rows: list[dict[int, int]]


def rref_mod_prime(a: SparseMatrix, p: int) -> tuple[SparseMatrix, list[int]]:
    """Gauss-Jordan elimination over GF(p), p prime.

    Returns (reduced row echelon form, pivot columns).  The pivot of a
    column is its first nonzero entry at or below the current row; a column
    without one is skipped.  The result has its entries in [1, p); `a` is
    left as it is.  Raises ValueError unless 1 < p < 2^31.
    """
    if not 1 < p < MAX_MODULUS:
        raise ValueError(f"p = {p} outside 1 < p < 2^31")
    n_rows, n_cols = a.shape
    rows = [{c: v for c, x in row.items() if (v := x % p)} for row in a.rows]
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        # only nonzero entries are stored, and mod p each is a unit
        for pivot in range(r, n_rows):
            if c in rows[pivot]:
                break
        else:
            continue
        inv = pow(rows[pivot][c], -1, p)
        prow = {k: v * inv % p for k, v in rows[pivot].items()}
        rows[pivot], rows[r] = rows[r], prow
        for row in rows:
            f = row.get(c)
            if f and row is not prow:
                for k, v in prow.items():
                    row[k] = (row.get(k, 0) - f * v) % p
                    if not row[k]:
                        del row[k]
        pivots.append(c)
        r += 1
    return SparseMatrix((n_rows, n_cols), rows), pivots


def rank_mod_prime(a: SparseMatrix, p: int) -> int:
    return len(rref_mod_prime(a, p)[1])
