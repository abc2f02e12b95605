"""The sparse elimination kernel against a pure-Python dense reference
over GF(p): the row rank profile it returns must give the rank of every
leading submatrix."""

import ast
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from coxbrauer import linalg
import reference

PRIMES = (2, 3, 31, 65521, 2 ** 31 - 1)


def sparse(rows):
    return reference.sparse(rows, len(rows[0]) if rows else 0)


def prefix_ranks(rows, p):
    """[rank of the first R rows over GF(p) for R = 0 .. len(rows)], by
    schoolbook elimination of each row against a dense echelon basis."""
    basis: dict[int, list[int]] = {}           # pivot column -> monic row
    ranks = [0]
    for row in rows:
        v = [x % p for x in row]
        for c, b in sorted(basis.items()):
            if v[c]:
                f = v[c]
                v = [(x - f * y) % p for x, y in zip(v, b)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], -1, p)
            basis[lead] = [x * inv % p for x in v]
        ranks.append(len(basis))
    return ranks


def check_profile(rows, p, n_cols):
    """The profile against brute-force ranks: its rows are those that raise
    the rank of their prefix, and for every R and C the rank of the leading
    R x C submatrix is the number of pairs inside it."""
    a = linalg.SparseMatrix((len(rows), n_cols),
                            [{c: x for c, x in enumerate(row) if x} for row in rows])
    before = [dict(row) for row in a.rows]
    profile = linalg.rref_mod_prime(a, p)
    assert a.rows == before                     # the input is not modified
    ranks = prefix_ranks(rows, p)
    assert [r for r, _ in profile] == [r for r in range(len(rows))
                                       if ranks[r + 1] > ranks[r]]
    for n in range(n_cols + 1):
        want = prefix_ranks([row[:n] for row in rows], p)
        got = [sum(r < m and c < n for r, c in profile) for m in range(len(rows) + 1)]
        assert got == want, (n, profile)
    return profile


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


@pytest.mark.parametrize("p", PRIMES)
def test_rref_matches_reference(p):
    for rows in cases(p):
        # unreduced Python ints give the profile of their residues
        profile = check_profile(rows, p, len(rows[0]))
        assert linalg.rref_mod_prime(sparse([[x % p for x in row] for row in rows]),
                                     p) == profile


def test_rows_handed_over_unreduced():
    # stored zeros, multiples of p and negative entries, as a Hom-complex
    # matrix hands them over; the kernel reduces its own copy of each row.
    # Row 0 leads in column 2 (10 is 0 mod 5), row 1 is 0 mod 5, and row 3
    # leads in column 3 once the pivots of columns 1 and 2 have met it
    rows = [[0, 10, -3, 1], [5, -15, 0, 25], [0, 7, -1, 2], [5, 7, 12, 3]]
    profile = check_profile(rows, 5, 4)
    assert profile == [(0, 2), (2, 1), (3, 3)]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_rref_of_empty_matrices(p, shape):
    rows = [[0] * shape[1] for _ in range(shape[0])]
    a = linalg.SparseMatrix(shape, [{} for _ in range(shape[0])])
    assert linalg.rref_mod_prime(a, p) == []
    assert check_profile(rows, p, shape[1]) == []


SQUARE = sparse([[1, 2], [3, 4]])


@pytest.mark.parametrize("p", [2 ** 31, 2 ** 31 + 11, 2 ** 61 - 1, 1, 0, -7])
def test_rref_rejects_moduli_outside_the_kernel(p):
    with pytest.raises(ValueError, match="2\\^31"):
        linalg.rref_mod_prime(SQUARE, p)


@pytest.mark.parametrize("p, modulus", [(2, 2 ** 31), (3, 3 ** 20), (46349, 46349 ** 2)])
def test_rref_rejects_prime_powers_from_2_31(p, modulus):
    # the prime is a field of the kernel, its power from 2^31 on is refused
    assert len(linalg.rref_mod_prime(SQUARE, p)) == (1 if p == 2 else 2)
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
    allowed = {"cli._Parser.error",             # called by argparse
               "homotopy.homotopy_hom"}         # called by perfbench's trim jobs

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


def _unused_imports(source):
    """The names an import binds in a module's source, `from __future__`
    aside, that the module never reads and does not list in __all__."""
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    bound = [alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names]
    return [name for name in bound if name not in read]


def test_every_import_in_the_package_is_used():
    """Each name imported into a package module is read in that module,
    or re-exported through its __all__; a stale import fails here."""
    src = Path(linalg.__file__).parent
    unused = [f"{f.stem}.{name}" for f in sorted(src.glob("**/*.py"))
              for name in _unused_imports(f.read_text(encoding="utf-8"))]
    assert unused == []
    # negative control: an import left behind by a deleted function
    stale = ("from .brauer_tree import EXC, height, perversity\n"
             "import json as js\n"
             "def ends(tree, j):\n    return EXC, height(tree, j)\n")
    assert _unused_imports(stale) == ["perversity", "js"]


def test_every_dataclass_field_is_read():
    """Each annotated field of each dataclass under the package is read as
    an attribute, by name, somewhere in the package."""
    src = Path(linalg.__file__).parent

    def is_dataclass(node):
        return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                   == "dataclass" for d in node.decorator_list)

    modules = {f.stem: ast.parse(f.read_text(encoding="utf-8"))
               for f in sorted(src.glob("**/*.py"))}
    read = {n.attr for tree in modules.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{stem}.{cls.name}.{stmt.target.id}"
              for stem, tree in modules.items()
              for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert unread == []


def test_importing_the_cli_does_not_load_numpy():
    src = str(Path(linalg.__file__).parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import coxbrauer.cli; "
         "print('numpy' in sys.modules)", src],
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
