"""Reference helpers shared by the tests: literal constructions that the
fast paths of the package are compared against."""

from coxbrauer import linalg


def dense(a):
    """The rows of a SparseMatrix, every cell written out."""
    return [[row.get(c, 0) for c in range(a.shape[1])] for row in a.rows]


def sparse(rows, width):
    """A SparseMatrix of dense rows of the given width, storing their
    nonzero cells only."""
    return linalg.SparseMatrix((len(rows), width),
                               [{c: x for c, x in enumerate(r) if x} for r in rows])
