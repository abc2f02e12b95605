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
# before any is built.  On single1447, the largest tree of single-edge
# branches below it, `rickard --vertex 0`, whose Hom complexes build the
# out-lists, peaks at 376 MB; `algebra`, which builds no per-path record,
# at 121 MB.
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
    in `_ring`.  Building the algebra costs O(h0): it counts the basis from
    the tree's shape and holds the arrows, and no per-path record.  The one
    per-path table, the out-lists, is built the first time `out_lists` is
    asked for it.
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
        self._edges = frozenset(self.vertices)      # the sources, for validation
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
        # the arrows, the paths of length one, keyed by (node, source) in
        # basis order: a step around each end of cycle length above one, or
        # the socle loop of a lone edge
        self.arrow_at: dict[tuple[object, int], Path] = {
            (node, e): _new(Path, (e, _CYC, node, 1))
            for e in self.vertices for node in tree.ends(e)
            if len(self._ring[node]) > 1}
        if self.degenerate:
            self.arrow_at[None, 0] = _new(Path, (0, _SOC, None, 0))
        self._out_lists: dict[int, list[tuple[int, Path]]] | None = None

    # -- construction -----------------------------------------------------

    def out_lists(self) -> dict[int, list[tuple[int, Path]]]:
        """Per source, its basis paths as (target, path) pairs in basis
        order, built on the first call and held from then on.  A plain
        method filling a plain attribute, which callers hoist out of their
        loops: a lazy attribute (`cached_property`, `__getattr__`) slowed
        the trim jobs by 3-9 % on CPython 3.11."""
        if self._out_lists is None:
            self._out_lists = self._enumerate_paths()
        return self._out_lists

    def _enumerate_paths(self) -> dict[int, list[tuple[int, Path]]]:
        """Per edge, with their targets: its trivial path, the proper partial
        cycles around each end of cycle length above one, in the order of
        `arrow_at` (basis order), each first step the arrow object, and
        its socle."""
        table = {e: [(e, _new(Path, (e, _ID, None, 0)))] for e in self.vertices}
        for (node, e), arrow in self.arrow_at.items():
            if node is not None:        # not the socle loop of a lone edge
                ring = self._ring[node]
                i = self._place(e, node)
                out = table[e]
                out.append((ring[i - 1], arrow))
                out += [(ring[i - t], _new(Path, (e, _CYC, node, t))) for t in range(2, len(ring))]
        soc = self.arrow_at.get((None, 0))      # a lone edge's socle is its arrow
        for e, out in table.items():
            out.append((e, soc or _new(Path, (e, _SOC, None, 0))))
        return table

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
        elif kind in (_ID, _SOC) and node is None and steps == 0 and src in self._edges:
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
        elif kind in (_ID, _SOC) and node is None and steps == 0 and src in self._edges:
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
        """Inverse of 1 + nil, for a strictly lower triangular matrix nil of
        maps between the P_units[i], by forward substitution: row i of the
        inverse is e_i minus the sum over k < i of nil[i][k] times row k.
        ValueError when nil has an entry on or above the diagonal."""
        if any(e for i, row in enumerate(nil) for e in row[i:]):
            raise ValueError("unipotent_inverse needs a strictly lower "
                             "triangular matrix")
        out: list[list[dict]] = []
        for i, (v, row) in enumerate(zip(units, nil)):
            acc = [{} for _ in range(i)]    # sum of nil[i][k] times row k
            for k, x in enumerate(row[:i]):
                if x:
                    # row k is e_k plus its entries left of k, and
                    # nil[i][k] e_k is nil[i][k] itself
                    self._add_into(acc[k], x)
                    for j, y in enumerate(out[k][:k]):
                        if y:
                            self._add_into(acc[j], self.elt_mul(x, y))
            out.append([self.elt_scale(a, -1) for a in acc] + [self.unit(v)]
                       + [{} for _ in units[i + 1:]])
        return out

    def local_inverse(self, x: dict, edge: int) -> dict:
        """Inverse of a unit of the local ring e_edge A e_edge.

        Units are exactly the elements whose trivial-path coefficient c is
        nonzero; x = c (1 + rad) with rad in the radical, so the inverse is
        c^-1 (1 - rad + rad^2 - ...), which ends at the first vanishing
        power.
        """
        one = self.unit_path(edge)
        ell = self.ell
        c = x.get(one, 0) % ell
        if not c:
            raise ZeroDivisionError("not a unit of the local endomorphism ring")
        cinv = pow(c, -1, ell)
        neg_rad = {p: v for p, a in x.items() if p != one and (v := -a * cinv % ell)}
        out, power = {one: 1}, neg_rad
        while power:
            self._add_into(out, power)
            power = self.elt_mul(power, neg_rad)
        return self.elt_scale(out, cinv)


def from_tree(tree: PlanarBrauerTree, ell: int) -> TreeAlgebra:
    return TreeAlgebra(tree, ell)


def hom_grid(alg: TreeAlgebra) -> linalg.SparseMatrix:
    """[dim Hom(P_i, P_j)] over the vertices 0..h0-1, counted per node in
    O(nonzeros): Hom(P_i, P_j) has a basis of the paths from j to i, each
    acting by left multiplication.  Around a node of multiplicity m the
    cyclic paths out of j reach every other edge there m times and j
    itself m - 1 times; the trivial path and the socle add 2 at j."""
    tree = alg.tree
    rows: list[dict[int, int]] = [{j: 2} for j in alg.vertices]
    for node in (EXC, *alg.vertices):
        order = tree.cyclic_order_at(node)
        m = tree.node_multiplicity(node)
        for j in order:
            for i in order:
                rows[i][j] = rows[i].get(j, 0) + m - (i == j)
    return linalg.SparseMatrix((len(rows), len(rows)), rows)


def ext1_grid(alg: TreeAlgebra) -> linalg.SparseMatrix:
    """[dim Ext^1(S_i, S_j)] over the vertices 0..h0-1: the number of quiver
    arrows from i to j, O(h0)."""
    size = len(alg.vertices)
    rows: list[dict[int, int]] = [{} for _ in range(size)]
    for a in alg.arrow_at.values():
        j = alg.target(a)
        rows[a.src][j] = rows[a.src].get(j, 0) + 1
    return linalg.SparseMatrix((size, size), rows)
