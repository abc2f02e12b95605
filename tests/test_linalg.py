"""The int64 elimination kernel against a pure-Python reference, over
GF(p) and over Z/p^N."""

import random
from pathlib import Path

import numpy as np
import pytest

from coxbrauer import linalg

PRIMES = (2, 3, 31, 65521, 2 ** 31 - 1)
# (31, 31) passes the default modulus explicitly
PRIME_POWERS = ((31, 31), (7, 7 ** 2), (5, 5 ** 4), (7, 7 ** 4))


def reference_rref(rows, p, modulus=None):
    """Schoolbook unit-pivot Gauss-Jordan over Z/modulus on lists of ints."""
    modulus = modulus or p
    m = [[x % modulus for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if m[i][c] % p), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, modulus)
        m[r] = [x * inv % modulus for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % modulus for x, y in zip(m[i], m[r])]
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


@pytest.mark.parametrize("p, modulus", PRIME_POWERS)
def test_rref_over_prime_powers_matches_reference(p, modulus):
    rng = random.Random(modulus)
    mats = list(cases(p))
    for _ in range(12):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        mats.append(random_matrix(rng, modulus, rows, cols))
    # a leading column of non-units, nonzero mod the modulus, is skipped
    # but must still be reduced by the later pivots
    mats += [[[p * x for x in row[:1]] + row[1:] for row in rows] for rows in mats]
    for rows in mats:
        want, want_pivots = reference_rref(rows, p, modulus)
        got, pivots = linalg.rref_mod_prime(np.array(rows, dtype=object), p, modulus)
        assert got.dtype == np.int64
        assert pivots == want_pivots
        assert got.tolist() == want
    got, pivots = linalg.rref_mod_prime(np.array([[7, 1], [14, 3]]), 7, 49)
    assert pivots == [1] and got.tolist() == [[7, 1], [42, 0]]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_rref_of_empty_matrices(p, shape):
    got, pivots = linalg.rref_mod_prime(np.zeros(shape, dtype=np.int64), p)
    assert got.shape == shape and pivots == []


@pytest.mark.parametrize("p", [2 ** 31, 2 ** 31 + 11, 2 ** 61 - 1, 1, 0, -7])
def test_rref_rejects_moduli_outside_the_kernel(p):
    with pytest.raises(ValueError, match="2\\^31"):
        linalg.rref_mod_prime(np.array([[1, 2], [3, 4]], dtype=object), p)


@pytest.mark.parametrize("p, modulus", [(7, 98), (7, 14), (5, 7), (4, 8), (7, 5)])
def test_rref_rejects_moduli_that_are_not_powers_of_p(p, modulus):
    with pytest.raises(ValueError, match="power of|p <= modulus"):
        linalg.rref_mod_prime(np.array([[1, 2], [3, 4]], dtype=object), p, modulus)


@pytest.mark.parametrize("p, modulus", [(2, 2 ** 31), (3, 3 ** 20), (46349, 46349 ** 2)])
def test_rref_rejects_prime_powers_from_2_31(p, modulus):
    with pytest.raises(ValueError, match="2\\^31"):
        linalg.rref_mod_prime(np.array([[1, 2], [3, 4]], dtype=object), p, modulus)


def test_no_object_dtype_matrices_in_the_package():
    # every matrix the package builds is int64; object arrays of Python ints
    # are accepted by the kernel but made nowhere in the package
    src = Path(linalg.__file__).parent
    offenders = [f.name for f in sorted(src.glob("**/*.py"))
                 if "dtype=object" in f.read_text(encoding="utf-8")]
    assert offenders == []
