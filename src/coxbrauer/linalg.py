"""Exact dense linear algebra over Z/m (m a prime or a prime power).

Every elimination runs on one row-vectorised int64 kernel: the rank
computations over GF(p) and the oracle's solve over Z/p^N.  Callers build
int64 matrices with entries in [0, modulus); arrays of Python ints (object
dtype) of any size are reduced first.  Entries stay in [0, modulus) and are
reduced after every step, so a product of two entries stays below 2^62 and
the kernel is exact for every modulus below 2^31.  Larger moduli are
rejected."""

from __future__ import annotations

import numpy as np

# Exclusive upper bound on the modulus of the int64 elimination kernel.
MAX_MODULUS = 2 ** 31


def rref_mod_prime(a: np.ndarray, p: int,
                   modulus: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Unit-pivot Gauss-Jordan elimination over Z/modulus, modulus = p^N.

    Returns (reduced matrix, pivot columns).  The pivot of a column is its
    first entry at or below the current row that is not divisible by p; a
    column without one is skipped.  With the default modulus p this is the
    reduced row echelon form over GF(p).  The result is an int64 array with
    entries in [0, modulus).  Raises ValueError unless 1 < p <= modulus <
    2^31, the range in which the int64 kernel is exact, with the modulus a
    power of p.
    """
    if modulus is None:
        modulus = p
    if not 1 < p <= modulus < MAX_MODULUS:
        raise ValueError(f"modulus {modulus} of p = {p} outside "
                         f"1 < p <= modulus < 2^31 of the int64 kernel")
    power = modulus
    while power % p == 0:
        power //= p
    if power != 1:
        raise ValueError(f"modulus {modulus} is not a power of {p}")
    a = np.asarray(a)
    if a.dtype == object:
        a = a % modulus
    m = a.astype(np.int64) % modulus
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        units = np.flatnonzero(m[r:, c] if modulus == p else m[r:, c] % p)
        if not units.size:
            continue
        pivot = r + int(units[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        # over a field the columns left of c are zero in row r and below, so
        # work from c on; over Z/p^N a skipped column may hold non-units there
        lo = c if modulus == p else 0
        m[r, lo:] = m[r, lo:] * pow(int(m[r, c]), -1, modulus) % modulus
        col = m[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            m[hit, lo:] = (m[hit, lo:] - np.outer(col[hit], m[r, lo:])) % modulus
        pivots.append(c)
        r += 1
    return m, pivots


def rank_mod_prime(a: np.ndarray, p: int) -> int:
    return len(rref_mod_prime(a, p)[1])
