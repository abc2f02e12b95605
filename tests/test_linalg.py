"""The int64 elimination kernel against a pure-Python reference."""

import random

import numpy as np
import pytest

from coxbrauer import linalg

PRIMES = (2, 3, 31, 65521, 2 ** 31 - 1)


def reference_rref(rows, p):
    """Schoolbook Gauss-Jordan on lists of Python ints."""
    m = [[x % p for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def random_matrix(rng, p, rows, cols, rank=None):
    """Entries spread over [-p^2, p^2]; with `rank`, a product of a
    rows x rank and a rank x cols factor, so the rank is at most `rank`."""
    def entries(n, m):
        return [[rng.randint(-p * p, p * p) for _ in range(m)] for _ in range(n)]
    if rank is None:
        return entries(rows, cols)
    left, right = entries(rows, rank), entries(rank, cols)
    return [[sum(left[i][k] * right[k][j] for k in range(rank))
             for j in range(cols)] for i in range(rows)]


def cases(p):
    rng = random.Random(p)
    for _ in range(12):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        yield random_matrix(rng, p, rows, cols)
        yield random_matrix(rng, p, rows, cols, rank=rng.randint(0, min(rows, cols) - 1))
    yield [[0] * 4 for _ in range(3)]


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_reference(p):
    for rows in cases(p):
        want, want_pivots = reference_rref(rows, p)
        reduced = [[x % p for x in row] for row in rows]
        # object arrays of unreduced Python ints, and int64 arrays
        for mat in (np.array(rows, dtype=object), np.array(reduced, dtype=np.int64)):
            got, pivots = linalg.rref_mod_prime(mat, p)
            assert got.dtype == np.int64
            assert pivots == want_pivots
            assert got.tolist() == want
            assert linalg.rank_mod_prime(mat, p) == len(want_pivots)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_rref_of_empty_matrices(p, shape):
    got, pivots = linalg.rref_mod_prime(linalg.zeros(*shape), p)
    assert got.shape == shape and pivots == []


@pytest.mark.parametrize("p", [2 ** 31, 2 ** 31 + 11, 2 ** 61 - 1, 1, 0, -7])
def test_rref_rejects_moduli_outside_the_kernel(p):
    with pytest.raises(ValueError, match="2\\^31"):
        linalg.rref_mod_prime(np.array([[1, 2], [3, 4]], dtype=object), p)
