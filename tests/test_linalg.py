"""The sparse elimination kernel against a pure-Python dense reference
over GF(p)."""

import ast
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coxbrauer import linalg

PRIMES = (2, 3, 31, 65521, 2 ** 31 - 1)


def sparse(rows):
    return linalg.SparseMatrix((len(rows), len(rows[0]) if rows else 0),
                               [{c: x for c, x in enumerate(row) if x} for row in rows])


def dense(a):
    return [[row.get(c, 0) for c in range(a.shape[1])] for row in a.rows]


def reference_rref(rows, p):
    """Schoolbook Gauss-Jordan over GF(p) on lists of ints."""
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


def sparse_fill_in_matrix(rng, p, rows, cols):
    """2 or 3 nonzeros per column, with some columns repeated verbatim or
    as multiples, so eliminating one column fills in others."""
    out = [[0] * cols for _ in range(rows)]
    for c in range(cols):
        if c and rng.random() < 0.3:
            src, k = rng.randrange(c), rng.randrange(1, p)
            for row in out:
                row[c] = row[src] * k % p
            continue
        for r in rng.sample(range(rows), min(rows, rng.randint(2, 3))):
            out[r][c] = rng.randrange(1, p)
    return out


def cases(p):
    rng = random.Random(p)
    for _ in range(12):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        yield random_matrix(rng, p, rows, cols)
        yield random_matrix(rng, p, rows, cols, rank=rng.randint(0, min(rows, cols) - 1))
    for _ in range(12):
        rows, cols = rng.randint(3, 24), rng.randint(3, 24)
        yield sparse_fill_in_matrix(rng, p, rows, cols)
    yield [[0] * 4 for _ in range(3)]


def check_against_reference(rows, p):
    want, want_pivots = reference_rref(rows, p)
    a = sparse(rows)
    before = [dict(row) for row in a.rows]
    got, pivots = linalg.rref_mod_prime(a, p)
    assert a.rows == before                     # the input is not modified
    assert pivots == want_pivots
    assert got.shape == a.shape
    assert dense(got) == want
    # only nonzero entries are stored, all in [1, p)
    assert all(0 < x < p for row in got.rows for x in row.values())


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_reference(p):
    for rows in cases(p):
        # unreduced Python ints, and their residues
        for mat in (rows, [[x % p for x in row] for row in rows]):
            check_against_reference(mat, p)
            assert (linalg.rank_mod_prime(sparse(mat), p)
                    == len(reference_rref(mat, p)[1]))


def test_rows_handed_over_unreduced():
    # stored zeros, multiples of p and negative entries, as a Hom-complex
    # matrix hands them over; the kernel reduces its own copy once
    a = linalg.SparseMatrix((2, 3), [{0: 0, 1: 10, 2: -3}, {0: 5, 1: 7, 2: 12}])
    got, pivots = linalg.rref_mod_prime(a, 5)
    want, want_pivots = reference_rref([[0, 10, -3], [5, 7, 12]], 5)
    assert pivots == want_pivots == [1, 2] and dense(got) == want
    assert all(0 < x < 5 for row in got.rows for x in row.values())
    assert a.rows == [{0: 0, 1: 10, 2: -3}, {0: 5, 1: 7, 2: 12}]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_rref_of_empty_matrices(p, shape):
    a = linalg.SparseMatrix(shape, [{} for _ in range(shape[0])])
    got, pivots = linalg.rref_mod_prime(a, p)
    assert got.shape == shape and pivots == []
    assert dense(got) == [[]] * shape[0]


SQUARE = sparse([[1, 2], [3, 4]])


@pytest.mark.parametrize("p", [2 ** 31, 2 ** 31 + 11, 2 ** 61 - 1, 1, 0, -7])
def test_rref_rejects_moduli_outside_the_kernel(p):
    with pytest.raises(ValueError, match="2\\^31"):
        linalg.rref_mod_prime(SQUARE, p)


@pytest.mark.parametrize("p, modulus", [(2, 2 ** 31), (3, 3 ** 20), (46349, 46349 ** 2)])
def test_rref_rejects_prime_powers_from_2_31(p, modulus):
    # the prime is a field of the kernel, its power from 2^31 on is refused
    assert linalg.rank_mod_prime(SQUARE, p) == (1 if p == 2 else 2)
    with pytest.raises(ValueError, match="2\\^31"):
        linalg.rref_mod_prime(SQUARE, modulus)


def test_no_numpy_import_in_the_package():
    src = Path(linalg.__file__).parent
    offenders = [f.name for f in sorted(src.glob("**/*.py"))
                 if any(line.lstrip().startswith(("import numpy", "from numpy"))
                        for line in f.read_text(encoding="utf-8").splitlines())]
    assert offenders == []


def test_every_definition_in_the_package_is_referenced():
    """Each function, method and class name under the package, dunders
    aside, occurs as a name or attribute somewhere in the package outside
    its own definition."""
    src = Path(linalg.__file__).parent
    allowed = {"cli._Parser.error"}             # called by argparse

    def used(node):
        return Counter(n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    modules = {f.stem: ast.parse(f.read_text(encoding="utf-8"))
               for f in sorted(src.glob("**/*.py"))}
    everywhere = sum(map(used, modules.values()), Counter())
    unreferenced = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name, qualname = child.name, prefix + child.name
                dunder = name.startswith("__") and name.endswith("__")
                if (not dunder and qualname not in allowed
                        and everywhere[name] == used(child)[name]):
                    unreferenced.append(qualname)
                visit(child, qualname + ".")
            else:
                visit(child, prefix)

    for stem, tree in modules.items():
        visit(tree, stem + ".")
    assert unreferenced == []


def test_importing_the_cli_does_not_load_numpy():
    src = str(Path(linalg.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import coxbrauer.cli; "
         "print('numpy' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
