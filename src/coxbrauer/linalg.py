"""Exact dense linear algebra over Z/m (m a prime or a prime power).

Matrix containers are numpy arrays with dtype=object holding Python ints,
so products and powers never overflow and never touch floating point.
Row reduction over GF(p), which every rank computation runs on, is one
row-vectorised int64 kernel: entries stay in [0, p) and are reduced mod p
after every step, so a product of two entries stays below 2^62 and the
kernel is exact for every prime 1 < p < 2^31.  Larger p are rejected.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

# Exclusive upper bound on the modulus of the int64 elimination kernel.
MAX_PRIME = 2 ** 31


def obj_matrix(rows) -> np.ndarray:
    a = np.array(rows, dtype=object)
    if a.ndim == 1:
        a = a.reshape((len(rows), -1)) if len(rows) else a.reshape((0, 0))
    return a


def zeros(n: int, m: int) -> np.ndarray:
    return np.zeros((n, m), dtype=object)


def identity(n: int) -> np.ndarray:
    a = zeros(n, n)
    for i in range(n):
        a[i, i] = 1
    return a


def mat_mod(a: np.ndarray, mod: int) -> np.ndarray:
    out = a.copy()
    for idx in np.ndindex(out.shape):
        out[idx] = int(out[idx]) % mod
    return out


def mat_mul(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = zeros(n, m)
    for i in range(n):
        for j in range(m):
            s = 0
            for t in range(k):
                s += int(a[i, t]) * int(b[t, j])
            out[i, j] = s % mod
    return out


def rref_mod_prime(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p); returns (rref, pivot columns).

    The rref is an int64 array with entries in [0, p).  Raises ValueError
    unless 1 < p < 2^31, the range in which the int64 kernel is exact.
    """
    if not 1 < p < MAX_PRIME:
        raise ValueError(f"modulus {p} outside 1 < p < 2^31 of the int64 kernel")
    a = np.asarray(a)
    if a.dtype == object:
        a = a % p
    m = a.astype(np.int64) % p
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        pivot = r + int(nonzero[0])
        if pivot != r:
            m[[r, pivot]] = m[[pivot, r]]
        # columns left of c are zero in row r and below, so work from c on
        m[r, c:] = m[r, c:] * pow(int(m[r, c]), -1, p) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        if hit.size:
            m[hit, c:] = (m[hit, c:] - np.outer(col[hit], m[r, c:])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank_mod_prime(a: np.ndarray, p: int) -> int:
    return len(rref_mod_prime(a, p)[1])


def charpoly(a: np.ndarray, mod: int | None = None) -> list[int]:
    """Characteristic polynomial det(T*I - a), ascending coefficients, monic.

    Faddeev-LeVerrier over exact rationals; the divisions cancel so the
    result is integral.  Reduced mod `mod` when given.
    """
    n = a.shape[0]
    if n == 0:
        return [1]
    af = np.array([[Fraction(int(x)) for x in row] for row in a], dtype=object)
    coeffs = [Fraction(1)] + [Fraction(0)] * n  # c[n], c[n-1], ..., c[0] filled below
    m = np.array([[Fraction(0)] * n for _ in range(n)], dtype=object)
    c = Fraction(1)
    for k in range(1, n + 1):
        for i in range(n):
            m[i, i] += c
        m = af.dot(m)
        c = -sum(m[i, i] for i in range(n)) / k
        coeffs[k] = c
    asc = [coeffs[n - i] for i in range(n + 1)]
    out = []
    for x in asc:
        assert x.denominator == 1
        v = int(x)
        out.append(v % mod if mod is not None else v)
    return out


def poly_eval_matrix(poly: list[int], a: np.ndarray, mod: int) -> np.ndarray:
    """Evaluate a polynomial (ascending coefficients) at a square matrix."""
    n = a.shape[0]
    out = zeros(n, n)
    for c in reversed(poly):
        out = mat_mul(out, a, mod)
        for i in range(n):
            out[i, i] = (int(out[i, i]) + c) % mod
    return out
