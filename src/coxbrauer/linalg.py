"""Exact sparse linear algebra over Z/m (m a prime or a prime power).

Every elimination runs on one sparse kernel over Python ints: the ranks of
the Hom complexes over GF(p) and the oracle's solve over Z/p^N.  A row
operation walks only the nonzeros of the pivot row.  Python ints are exact
at any size, but moduli stay below 2^31 (`MAX_MODULUS`), the supported
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

    @classmethod
    def from_dense(cls, rows: list[list[int]]) -> "SparseMatrix":
        return cls((len(rows), len(rows[0]) if rows else 0),
                   [{c: x for c, x in enumerate(row) if x} for row in rows])

    def tolist(self) -> list[list[int]]:
        return [[row.get(c, 0) for c in range(self.shape[1])] for row in self.rows]


def rref_mod_prime(a: SparseMatrix, p: int,
                   modulus: int | None = None) -> tuple[SparseMatrix, list[int]]:
    """Unit-pivot Gauss-Jordan elimination over Z/modulus, modulus = p^N.

    Returns (reduced matrix, pivot columns).  The pivot of a column is its
    first entry at or below the current row that is not divisible by p; a
    column without one is skipped.  With the default modulus p this is the
    reduced row echelon form over GF(p).  The result has its entries in
    [0, modulus); `a` is left as it is.  Raises ValueError unless 1 < p <=
    modulus < 2^31 with the modulus a power of p.
    """
    if modulus is None:
        modulus = p
    if not 1 < p <= modulus < MAX_MODULUS:
        raise ValueError(f"modulus {modulus} of p = {p} outside "
                         f"1 < p <= modulus < 2^31")
    power = modulus
    while power % p == 0:
        power //= p
    if power != 1:
        raise ValueError(f"modulus {modulus} is not a power of {p}")
    n_rows, n_cols = a.shape
    rows = [{c: v for c, x in row.items() if (v := x % modulus)} for row in a.rows]
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        for pivot in range(r, n_rows):
            if rows[pivot].get(c, 0) % p:
                break
        else:
            continue
        inv = pow(rows[pivot][c], -1, modulus)
        prow = {k: v * inv % modulus for k, v in rows[pivot].items()}
        rows[pivot], rows[r] = rows[r], prow
        for row in rows:
            f = row.get(c)
            if f and row is not prow:
                for k, v in prow.items():
                    row[k] = (row.get(k, 0) - f * v) % modulus
                    if not row[k]:
                        del row[k]
        pivots.append(c)
        r += 1
    return SparseMatrix((n_rows, n_cols), rows), pivots


def rank_mod_prime(a: SparseMatrix, p: int) -> int:
    return len(rref_mod_prime(a, p)[1])
