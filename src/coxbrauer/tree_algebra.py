"""Brauer tree algebras as quivers with relations over a prime field.

The quiver has one vertex per tree edge.  Around every tree node whose
cycle length (degree times multiplicity) exceeds one, each incident edge e
receives an arrow e -> f where e is the anticlockwise successor of f; the
arrows therefore step clockwise, which makes Ext^1(S_i, S_j) nonzero
exactly when i is the anticlockwise successor of j.  Relations: a step
around one node followed by a step around the other node of the shared
edge vanishes, the two full cycles at an edge are identified (the socle),
and anything longer than a full cycle vanishes.

The nonzero path classes form an explicit basis: for each edge the trivial
path, the proper partial cycles around each of its nodes, and one socle
element.  Everything downstream (Hom spaces between projectives, complexes
and their Hom complexes) is written on this basis.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from . import linalg
from .brauer_tree import EXC, PlanarBrauerTree
from .numtheory import is_prime

# The most basis paths an algebra may have, counted from the tree's shape
# before any is built: the largest power of two at which `algebra` on the
# tree of single-edge branches answers within 1 GiB.
MAX_PATHS = 2 ** 21

# path kinds
_ID = "id"
_CYC = "cyc"
_SOC = "soc"


class FieldTooSmall(ValueError):
    """The prime field lacks roots of unity some optional labeling needs."""


class NotComposable(ValueError):
    """Two paths were concatenated although the first does not end where
    the second starts."""


class Path(NamedTuple):
    """A nonzero path class: source edge, kind, node walked around, length.

    A named tuple, so that the dict lookups of every Hom-complex matrix
    hash and compare paths in C."""

    src: int
    kind: str
    node: object = None
    steps: int = 0


class TreeAlgebra:
    """Basic algebra of a planar Brauer tree over F_ell.

    Elements are dicts {Path: coefficient mod ell}; the product is
    diagrammatic concatenation.  Projectives are the right ideals e_j A
    (paths out of j), so Hom(P_i, P_j) acts by left multiplication by
    paths from j to i.
    """

    def __init__(self, tree: PlanarBrauerTree, ell: int):
        if ell >= linalg.MAX_MODULUS:
            raise ValueError(f"field order {ell} is not below 2^31, the "
                             f"supported limit of the elimination kernel")
        if not is_prime(ell):
            raise ValueError(f"field order {ell} is not prime")
        self.tree = tree
        self.ell = ell
        self.vertices = tuple(tree.edges)
        # node -> length of its cycle of arrows (degree times multiplicity);
        # every vertex is a node, as the end of the edge of its index
        self.cycle_length: dict[object, int] = {
            node: len(tree.cyclic_order_at(node)) * tree.node_multiplicity(node)
            for node in (EXC, *self.vertices)}
        self.degenerate = (len(self.vertices) == 1
                           and all(c == 1 for c in self.cycle_length.values()))
        self._check_star_label_field()
        # an edge's basis paths (`_enumerate_paths`) number the cycle
        # lengths of its two ends added up
        size = sum(self.cycle_length[a] + self.cycle_length[b]
                   for a, b in map(tree.ends, self.vertices))
        if size > MAX_PATHS:
            raise ValueError(f"the algebra would have {size} basis paths, more "
                             f"than the {MAX_PATHS} supported")
        # the one basis table: every basis path and its target, in basis
        # order (a cyclic path ends `steps` clockwise steps around its node)
        self.targets: dict[Path, int] = dict(self._enumerate_paths())
        self.dim = len(self.targets)
        # per source, its basis paths as (target, path) pairs in basis
        # order; and the arrows, the basis paths of length one, as the one
        # arrow out of src around node: a step around the node, or the
        # socle loop of a lone edge of multiplicity one (its node is None)
        self.paths_out: dict[int, list[tuple[int, Path]]] = {v: [] for v in self.vertices}
        for p, tgt in self.targets.items():
            self.paths_out[p.src].append((tgt, p))
        self.arrow_at = {(p.node, p.src): p for p in self.targets if p.steps == 1
                         or (self.degenerate and p.kind == _SOC)}

    # -- construction -----------------------------------------------------

    def _check_star_label_field(self):
        star = self.tree.star
        if star is not None and (self.ell - 1) % star.e_order:
            raise FieldTooSmall(
                f"F_{self.ell} has no primitive {star.e_order}-th roots of "
                f"unity for the eigencharacter labels")

    def _enumerate_paths(self) -> Iterator[tuple[Path, int]]:
        """Per edge, with their targets: its trivial path, the proper
        partial cycles around both of its ends, and its socle element."""
        for e in self.vertices:
            yield Path(e, _ID), e
            for node in self.tree.ends(e):
                for t in range(1, self.cycle_length[node]):
                    yield Path(e, _CYC, node, t), self.tree.predecessor_at(node, e, t)
            # one socle element per edge; in the doubly degenerate
            # single-edge multiplicity-one case it plays the loop arrow
            yield Path(e, _SOC), e

    # -- path structure ----------------------------------------------------

    def target(self, p: Path) -> int:
        return self.targets[p]

    def compose(self, p: Path, q: Path) -> Path | None:
        """Concatenation p then q (target of p must be the source of q);
        None encodes the zero product."""
        if self.targets[p] != q.src:
            raise NotComposable(f"{p} ends at {self.targets[p]}, {q} starts "
                                f"at {q.src}")
        if p.kind == _ID:
            return q
        if q.kind == _ID:
            return p
        if p.kind == _SOC or q.kind == _SOC:
            return None
        if p.node != q.node:
            return None
        cyclen = self.cycle_length[p.node]
        total = p.steps + q.steps
        if total < cyclen:
            return Path(p.src, _CYC, p.node, total)
        if total == cyclen:
            return Path(p.src, _SOC)
        return None

    # -- element arithmetic (elements are {Path: coeff} dicts) -------------

    def elt(self, p: Path, c: int = 1) -> dict:
        c %= self.ell
        return {p: c} if c else {}

    def unit_path(self, edge: int) -> Path:
        """The trivial path at edge, the unit of e_edge A e_edge."""
        return Path(edge, _ID)

    def unit(self, edge: int) -> dict:
        return self.elt(self.unit_path(edge))

    def elt_add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for p, c in y.items():
            v = (out.get(p, 0) + c) % self.ell
            if v:
                out[p] = v
            else:
                out.pop(p, None)
        return out

    def elt_scale(self, x: dict, c: int) -> dict:
        c %= self.ell
        return {p: v * c % self.ell for p, v in x.items()} if c else {}

    def elt_mul(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for p, a in x.items():
            tp = self.target(p)
            for q, b in y.items():
                if tp != q.src:
                    continue
                r = self.compose(p, q)
                if r is None:
                    continue
                v = (out.get(r, 0) + a * b) % self.ell
                if v:
                    out[r] = v
                else:
                    out.pop(r, None)
        return out

    # -- matrices of elements (entry [r][c] maps P_c -> P_r) --------------

    def mat_mul(self, a: list[list[dict]], b: list[list[dict]]) -> list[list[dict]]:
        """Product of two element matrices: the composite map, first b,
        then a.  Empty entries are skipped."""
        cols = len(b[0]) if b else 0
        out = []
        for a_row in a:
            row = [{} for _ in range(cols)]
            for x, b_row in zip(a_row, b):
                if x:
                    for c, y in enumerate(b_row):
                        if y:
                            row[c] = self.elt_add(row[c], self.elt_mul(x, y))
            out.append(row)
        return out

    def unipotent_inverse(self, units: list[int], nil: list[list[dict]]) -> list[list[dict]]:
        """Inverse of 1 + nil, for a nilpotent matrix nil of maps between
        the P_units[i]: the series 1 - nil + nil^2 - ..., which ends at the
        first vanishing power."""
        out = [[self.unit(v) if i == j else {} for j in range(len(units))]
               for i, v in enumerate(units)]
        power = neg = [[self.elt_scale(e, -1) for e in row] for row in nil]
        while any(e for row in power for e in row):
            out = [[self.elt_add(x, y) for x, y in zip(o_row, p_row)]
                   for o_row, p_row in zip(out, power)]
            power = self.mat_mul(power, neg)
        return out

    def local_inverse(self, x: dict, edge: int) -> dict:
        """Inverse of a unit of the local ring e_edge A e_edge.

        Units are exactly the elements whose trivial-path coefficient c is
        nonzero; x = c (1 + rad) with rad in the radical, so the inverse is
        c^-1 times the unipotent inverse of 1 + rad.
        """
        one = self.unit_path(edge)
        c = x.get(one, 0) % self.ell
        if not c:
            raise ZeroDivisionError("not a unit of the local endomorphism ring")
        cinv = pow(c, -1, self.ell)
        rad = self.elt_scale(self.elt_add(x, self.elt(one, -c)), cinv)
        return self.elt_scale(self.unipotent_inverse([edge], [[rad]])[0][0], cinv)


def from_tree(tree: PlanarBrauerTree, ell: int) -> TreeAlgebra:
    return TreeAlgebra(tree, ell)


def hom_grid(alg: TreeAlgebra) -> linalg.SparseMatrix:
    """[dim Hom(P_i, P_j)] over the vertices 0..h0-1, from one pass over the
    path table: Hom(P_i, P_j) has a basis of the paths from j to i, each
    acting by left multiplication."""
    return _vertex_grid(alg, ((i, j) for j, out in alg.paths_out.items() for i, _ in out))


def ext1_grid(alg: TreeAlgebra) -> linalg.SparseMatrix:
    """[dim Ext^1(S_i, S_j)] over the vertices 0..h0-1: the number of quiver
    arrows from i to j."""
    return _vertex_grid(alg, ((a.src, alg.targets[a]) for a in alg.arrow_at.values()))


def _vertex_grid(alg: TreeAlgebra, cells) -> linalg.SparseMatrix:
    """The vertices-by-vertices grid counting how often each (i, j) occurs
    in `cells`: O(h0 + len(cells))."""
    size = len(alg.vertices)
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    for i, j in cells:
        rows[i][j] = rows[i].get(j, 0) + 1
    return linalg.SparseMatrix((size, size), rows)
