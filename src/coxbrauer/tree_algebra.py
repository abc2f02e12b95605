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

from typing import NamedTuple

from . import linalg
from .brauer_tree import EXC, PlanarBrauerTree
from .numtheory import is_prime

# The most basis paths an algebra may have, counted from the tree's shape
# before any is built.  Under 1 GiB, `algebra` on single1447, the largest
# tree of single-edge branches below it, peaks at 478 MB.
MAX_PATHS = 2 ** 21

# Path(...) without the named tuple's Python-level __new__: the 129 algebras
# of a `trees` pass (seed 7919) build in 5.5 ms, not 6.8 ms (Python 3.11, 2-core x86-64)
_new = tuple.__new__
_ID, _CYC, _SOC = "id", "cyc", "soc"     # path kinds


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
    paths from j to i.  A basis path's target is read off the cyclic orders
    in `_ring`; `paths_out` is the one per-path table.
    """

    def __init__(self, tree: PlanarBrauerTree, ell: int):
        if ell >= linalg.MAX_MODULUS:
            raise ValueError(f"field order {ell} is not below 2^31, the "
                             f"supported limit of the elimination kernel")
        if not is_prime(ell):
            raise ValueError(f"field order {ell} is not prime")
        star = tree.star
        if star is not None and (ell - 1) % star.e_order:
            raise FieldTooSmall(f"F_{ell} has no primitive {star.e_order}-th roots "
                                f"of unity for the eigencharacter labels")
        self.tree, self.ell = tree, ell
        self.vertices = tuple(tree.edges)
        # node -> its cyclic order repeated mu times, as long as its cycle of
        # arrows (each vertex is a node); an edge's place in it is j - node
        # at a vertex and its branch's place, `_exc_place`, at EXC
        self._ring: dict[object, tuple[int, ...]] = {
            node: tree.cyclic_order_at(node) * tree.node_multiplicity(node)
            for node in (EXC, *self.vertices)}
        self._exc_place = {j: i for i, j in enumerate(tree.cyclic_order_at(EXC))}
        # an edge has as many basis paths as its ends' cycle lengths add to
        self.dim = sum(len(self._ring[a]) + len(self._ring[b])
                       for a, b in map(tree.ends, self.vertices))
        if self.dim > MAX_PATHS:
            raise ValueError(f"the algebra would have {self.dim} basis paths, "
                             f"more than the {MAX_PATHS} supported")
        self.degenerate = self.dim == 2     # one edge of cycle lengths one
        # per source, its basis paths as (target, path) pairs in basis order;
        # the arrows, the paths of length one, keyed by (node, source)
        self.paths_out: dict[int, list[tuple[int, Path]]] = {}
        self.arrow_at: dict[tuple[object, int], Path] = {}
        self._enumerate_paths()

    # -- construction -----------------------------------------------------

    def _enumerate_paths(self):
        """Per edge, with their targets: its trivial path, the proper partial
        cycles around both of its ends (each first step an arrow), its socle."""
        for e in self.vertices:
            out = self.paths_out[e] = [(e, _new(Path, (e, _ID, None, 0)))]
            for node in self.tree.ends(e):
                ring = self._ring[node]
                i = self._place(e, node)
                out += [(ring[i - t], _new(Path, (e, _CYC, node, t))) for t in range(1, len(ring))]
                if len(ring) > 1:
                    self.arrow_at[node, e] = out[1 - len(ring)][1]
            out.append((e, _new(Path, (e, _SOC, None, 0))))
        if self.degenerate:
            self.arrow_at[None, 0] = self.paths_out[0][-1][1]

    # -- path structure ----------------------------------------------------

    def _place(self, e: int, node) -> int:
        """Where edge e sits in the cyclic order at node, one of its ends."""
        return self._exc_place[e] if node == EXC else e - node

    def target(self, p: Path) -> int:
        """Where a basis path ends, for a cyclic one `steps` places clockwise
        of its source; KeyError for a path outside the basis."""
        src, kind, node, steps = p
        if kind == _CYC and (ring := self._ring.get(node)) is not None:
            i = self._exc_place.get(src, -1) if node == EXC else src - node
            if 0 <= i < len(ring) and 0 < steps < len(ring):
                return ring[i - steps]
        elif kind in (_ID, _SOC) and node is None and steps == 0 and src in self.paths_out:
            return src
        raise KeyError(f"{p} is not a basis path")

    def compose(self, p: Path, q: Path) -> Path | None:
        """Concatenation p then q (target of p must be the source of q);
        None encodes the zero product."""
        # `target`, inlined: a call would slow this innermost loop by ~40 %
        src, kind, node, steps = p
        tgt = None
        if kind == _CYC and (ring := self._ring.get(node)) is not None:
            cyclen = len(ring)
            i = self._exc_place.get(src, -1) if node == EXC else src - node
            if 0 <= i < cyclen and 0 < steps < cyclen:
                tgt = ring[i - steps]
        elif kind in (_ID, _SOC) and node is None and steps == 0 and src in self.paths_out:
            tgt = src
        if tgt is None:
            raise KeyError(f"{p} is not a basis path")
        if tgt != q.src:
            raise NotComposable(f"{p} ends at {tgt}, {q} starts at {q.src}")
        if kind == _ID:
            return q
        if q.kind == _ID:
            return p
        if kind == _SOC or q.kind == _SOC or node != q.node:
            return None
        total = steps + q.steps
        if total < cyclen:
            return _new(Path, (src, _CYC, node, total))
        if total == cyclen:
            return _new(Path, (src, _SOC, None, 0))
        return None

    def paths_between(self, src: int, tgt: int) -> list[Path]:
        """The basis paths from src to tgt, in basis order, read off the
        node the two edges share (a tree has at most one): around it, the
        cyclic paths whose step count is the clockwise distance from src
        to tgt plus a multiple of the node's cyclic order, below its cycle
        length.  For tgt = src that distance is the order's length, at
        either end, between the trivial path and the socle.  Costs the
        number of paths, with no per-target table."""
        ends = self.tree.ends(src)
        shared = ends if tgt == src else [n for n in self.tree.ends(tgt) if n in ends]
        out = [self.unit_path(src)] if tgt == src else []
        for node in shared:
            ring = self._ring[node]
            order = len(ring) // self.tree.node_multiplicity(node)
            first = (self._place(src, node) - self._place(tgt, node)) % order or order
            out += [_new(Path, (src, _CYC, node, t)) for t in range(first, len(ring), order)]
        if tgt == src:
            out.append(_new(Path, (src, _SOC, None, 0)))
        return out

    # -- element arithmetic (elements are {Path: coeff} dicts) -------------

    def elt(self, p: Path, c: int = 1) -> dict:
        c %= self.ell
        return {p: c} if c else {}

    def unit_path(self, edge: int) -> Path:
        """The trivial path at edge, the unit of e_edge A e_edge."""
        return _new(Path, (edge, _ID, None, 0))

    def unit(self, edge: int) -> dict:
        return self.elt(self.unit_path(edge))

    def elt_add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        self._add_into(out, y)
        return out

    def _add_into(self, out: dict, y: dict):
        """out += y in place."""
        for p, c in y.items():
            v = (out.get(p, 0) + c) % self.ell
            if v:
                out[p] = v
            else:
                out.pop(p, None)

    def elt_scale(self, x: dict, c: int) -> dict:
        c %= self.ell
        return {p: v * c % self.ell for p, v in x.items()} if c else {}

    def elt_mul(self, x: dict, y: dict) -> dict:
        """The product x y, one `compose` per pair of paths, which reads
        the target of the first once; paths that do not meet multiply to
        zero (no product of the maps between projectives has such a pair)."""
        out: dict = {}
        for p, a in x.items():
            for q, b in y.items():
                try:
                    r = self.compose(p, q)
                except NotComposable:
                    continue
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
                            self._add_into(row[c], self.elt_mul(x, y))
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
    return _vertex_grid(alg, ((a.src, alg.target(a)) for a in alg.arrow_at.values()))


def _vertex_grid(alg: TreeAlgebra, cells) -> linalg.SparseMatrix:
    """The vertices-by-vertices grid counting how often each (i, j) occurs
    in `cells`: O(h0 + len(cells))."""
    size = len(alg.vertices)
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    for i, j in cells:
        rows[i][j] = rows[i].get(j, 0) + 1
    return linalg.SparseMatrix((size, size), rows)
