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
element.  Everything downstream (projectives, Hom spaces, complexes) is
written on this basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import linalg
from .brauer_tree import EXC, PlanarBrauerTree
from .numtheory import is_prime

# path kinds
_ID = "id"
_CYC = "cyc"
_SOC = "soc"


class FieldTooSmall(ValueError):
    """The prime field lacks roots of unity some optional labeling needs."""


class NotStar(ValueError):
    """Operation requires the algebra of a star tree."""


@dataclass(frozen=True)
class Path:
    """A nonzero path class: source edge, kind, node walked around, length."""

    src: int
    kind: str
    node: object = None
    steps: int = 0


@dataclass(frozen=True)
class Arrow:
    node: object
    src: int
    tgt: int


class TreeAlgebra:
    """Basic algebra of a planar Brauer tree over F_ell.

    Elements are dicts {Path: coefficient mod ell}; the product is
    diagrammatic concatenation.  Projectives are the right ideals e_j A
    (paths out of j), so Hom(P_i, P_j) acts by left multiplication by
    paths from j to i.
    """

    def __init__(self, tree: PlanarBrauerTree, ell: int, debug: bool = False):
        if ell >= linalg.MAX_MODULUS:
            raise ValueError(f"field order {ell} is not below 2^31, the limit "
                             f"of the exact int64 elimination kernel")
        if not is_prime(ell):
            raise ValueError(f"field order {ell} is not prime")
        self.tree = tree
        self.ell = ell
        self.vertices = tuple(sorted(tree.edge_indices()))
        # node -> (anticlockwise edge cycle, multiplicity, cycle length)
        self.nodes: dict[object, tuple[tuple[int, ...], int, int]] = {}
        nodes = {EXC} | {end for e in tree.edges for end in e.ends}
        for node in nodes:
            cycle = tree.cyclic_order_at(node)
            mult = tree.node_multiplicity(node)
            self.nodes[node] = (cycle, mult, len(cycle) * mult)
        self.degenerate = (len(self.vertices) == 1
                           and all(c == 1 for _, _, c in self.nodes.values()))
        self._check_star_label_field()
        self.paths = self._enumerate_paths()
        self.dim = len(self.paths)
        self.arrows = self._enumerate_arrows()
        # lookup tables: the target of every basis path (a cyclic path ends
        # `steps` clockwise steps around its node), the basis paths from src
        # to tgt in the order of self.paths, and the arrow counts
        self._targets = {p: (tree.predecessor_at(p.node, p.src, p.steps)
                             if p.kind == _CYC else p.src)
                         for p in self.paths}
        self.paths_between: dict[tuple[int, int], list[Path]] = {}
        for p in self.paths:
            self.paths_between.setdefault((p.src, self._targets[p]), []).append(p)
        self.arrow_counts = Counter((a.src, a.tgt) for a in self.arrows)
        if debug:
            self._check_associativity()

    # -- construction -----------------------------------------------------

    def _check_star_label_field(self):
        meta = dict(self.tree.star_meta or ())
        if meta and meta.get("e_order", 1) > 1 and (self.ell - 1) % meta["e_order"]:
            raise FieldTooSmall(
                f"F_{self.ell} has no primitive {meta['e_order']}-th roots of "
                f"unity for the eigencharacter labels")

    def _node_ends(self, edge: int):
        return self.tree.edge(edge).ends

    def _pred(self, node, edge: int) -> int:
        return self.tree.predecessor_at(node, edge)

    def _enumerate_paths(self) -> list[Path]:
        paths: list[Path] = []
        for e in self.vertices:
            paths.append(Path(e, _ID))
            for node in self._node_ends(e):
                _, _, cyclen = self.nodes[node]
                for t in range(1, cyclen):
                    paths.append(Path(e, _CYC, node, t))
            # one socle element per edge; in the doubly degenerate
            # single-edge multiplicity-one case it plays the loop arrow
            if self.degenerate or any(self.nodes[n][2] > 1 for n in self._node_ends(e)):
                paths.append(Path(e, _SOC))
        return paths

    def _enumerate_arrows(self) -> list[Arrow]:
        arrows = []
        for node, (cycle, _, cyclen) in sorted(self.nodes.items(), key=str):
            if cyclen > 1:
                for e in cycle:
                    arrows.append(Arrow(node, e, self._pred(node, e)))
        if self.degenerate:
            e = self.vertices[0]
            arrows.append(Arrow(self._node_ends(e)[0], e, e))
        return arrows

    # -- path structure ----------------------------------------------------

    def target(self, p: Path) -> int:
        return self._targets[p]

    def source(self, p: Path) -> int:
        return p.src

    def path_length(self, p: Path) -> int:
        if p.kind == _ID:
            return 0
        if p.kind == _CYC:
            return p.steps
        if self.degenerate:
            return 1
        node = next(n for n in self._node_ends(p.src) if self.nodes[n][2] > 1)
        return self.nodes[node][2]

    def compose(self, p: Path, q: Path) -> Path | None:
        """Concatenation p then q (target of p must be the source of q);
        None encodes the zero product."""
        assert self.target(p) == q.src, "paths are not composable"
        if p.kind == _ID:
            return q
        if q.kind == _ID:
            return p
        if p.kind == _SOC or q.kind == _SOC:
            return None
        if p.node != q.node:
            return None
        cyclen = self.nodes[p.node][2]
        total = p.steps + q.steps
        if total < cyclen:
            return Path(p.src, _CYC, p.node, total)
        if total == cyclen:
            return Path(p.src, _SOC)
        return None

    def arrow_path(self, a: Arrow) -> Path:
        if self.degenerate:
            return Path(a.src, _SOC)
        return Path(a.src, _CYC, a.node, 1)

    # -- element arithmetic (elements are {Path: coeff} dicts) -------------

    def elt(self, p: Path, c: int = 1) -> dict:
        c %= self.ell
        return {p: c} if c else {}

    def unit(self, edge: int) -> dict:
        return self.elt(Path(edge, _ID))

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

    def local_inverse(self, x: dict, edge: int) -> dict:
        """Inverse of a unit of the local ring e_edge A e_edge.

        Units are exactly the elements whose trivial-path coefficient is
        nonzero; the radical part is nilpotent so a Neumann series ends.
        """
        c = x.get(Path(edge, _ID), 0) % self.ell
        if not c:
            raise ZeroDivisionError("not a unit of the local endomorphism ring")
        cinv = pow(c, -1, self.ell)
        rad = self.elt_scale(self.elt_add(x, self.elt(Path(edge, _ID), -c)), cinv)
        out = self.unit(edge)
        term = self.unit(edge)
        while True:
            term = self.elt_scale(self.elt_mul(term, rad), -1)
            if not term:
                return self.elt_scale(out, cinv)
            out = self.elt_add(out, term)

    # -- sanity -------------------------------------------------------------

    def _check_associativity(self):
        for p in self.paths:
            for q in self.paths:
                if self.target(p) != q.src:
                    continue
                pq = self.compose(p, q)
                for s in self.paths:
                    if self.target(q) != s.src:
                        continue
                    qs = self.compose(q, s)
                    left = self.compose(pq, s) if pq is not None else None
                    right = self.compose(p, qs) if qs is not None else None
                    assert left == right, (p, q, s)


def from_tree(tree: PlanarBrauerTree, ell: int, debug: bool = False) -> TreeAlgebra:
    return TreeAlgebra(tree, ell, debug=debug)


def dimension_formula(tree: PlanarBrauerTree) -> int:
    """Sum over edges of 2 + sum over nodes of (degree * mult - 1)."""
    total = 0
    for e in tree.edges:
        total += 2
        for node in e.ends:
            s = len(tree.edges_at(node))
            total += s * tree.node_multiplicity(node) - 1
    return total


def ext1(alg: TreeAlgebra, i: int, j: int) -> int:
    """dim Ext^1(S_i, S_j) = number of quiver arrows from i to j."""
    return alg.arrow_counts[(i, j)]


def hom_space(alg: TreeAlgebra, i: int, j: int) -> list[dict]:
    """Basis of Hom(P_i, P_j): left multiplications by paths from j to i."""
    return [alg.elt(p) for p in alg.paths_between.get((j, i), ())]


@dataclass
class AlgModule:
    """A finite dimensional right module on an explicit vertex-graded basis.

    `basis` lists (grade vertex, tag); `action` maps each arrow (by its
    index in alg.arrows) to a matrix sending the source-grade component to
    the target-grade component, written on the full basis.
    """

    alg: TreeAlgebra
    basis: list[tuple[int, object]]
    action: dict[int, np.ndarray]
    radical_layers: list[Counter]

    @property
    def dims(self) -> Counter:
        return Counter(v for v, _ in self.basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _radical_filtration(alg: TreeAlgebra, basis, action) -> list[Counter]:
    """Layers of the radical series, each as a Counter of simples."""
    n = len(basis)
    ell = alg.ell
    current = linalg.identity(n)
    layers: list[Counter] = []
    while current.shape[1]:
        # radical of the span: images of all arrows applied to it
        cols = []
        for a_idx in range(len(alg.arrows)):
            img = linalg.mat_mul(action[a_idx], current, ell)
            for k in range(img.shape[1]):
                if any(int(x) % ell for x in img[:, k]):
                    cols.append([int(img[r, k]) for r in range(n)])
        nxt = linalg.zeros(n, len(cols))
        for k, col in enumerate(cols):
            for r in range(n):
                nxt[r, k] = col[r]
        # column-reduce to a basis of the radical
        nxt = _column_basis(nxt, ell)
        layer = _graded_quotient_dims(alg, basis, current, nxt, ell)
        layers.append(layer)
        if nxt.shape[1] == current.shape[1]:
            raise AssertionError("radical series does not terminate")
        current = nxt
    return layers


def _column_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the column span, read off the rref of the transpose."""
    if mat.shape[1] == 0:
        return mat
    r, pivots = linalg.rref_mod_prime(mat.T, p)
    return r[:len(pivots)].T.astype(object)


def _graded_quotient_dims(alg, basis, span, subspan, ell) -> Counter:
    layer: Counter = Counter()
    for v in sorted({g for g, _ in basis}):
        rows = [i for i, (g, _) in enumerate(basis) if g == v]
        a = span[rows, :] if span.shape[1] else linalg.zeros(len(rows), 0)
        b = subspan[rows, :] if subspan.shape[1] else linalg.zeros(len(rows), 0)
        d = linalg.rank_mod_prime(a, ell) - linalg.rank_mod_prime(b, ell)
        if d:
            layer[v] = d
    return layer


def projective(alg: TreeAlgebra, j: int) -> AlgModule:
    """P_j = e_j A on its path basis, graded by path targets."""
    if j not in alg.vertices:
        raise KeyError(j)
    basis_paths = [p for p in alg.paths if p.src == j]
    basis = [(alg.target(p), p) for p in basis_paths]
    index = {p: i for i, (_, p) in enumerate(basis)}
    n = len(basis)
    action: dict[int, np.ndarray] = {}
    for a_idx, arrow in enumerate(alg.arrows):
        mat = linalg.zeros(n, n)
        ap = alg.arrow_path(arrow)
        for i, (grade, p) in enumerate(basis):
            if grade != arrow.src:
                continue
            r = alg.compose(p, ap)
            if r is not None:
                mat[index[r], i] = 1
        action[a_idx] = mat
    layers = _radical_filtration(alg, basis, action)
    return AlgModule(alg, basis, action, layers)


def check_relations(module: AlgModule) -> bool:
    """Verify the defining relations on the action matrices."""
    alg = module.alg
    ell = alg.ell
    n = module.dim

    def act(path_seq):
        out = linalg.identity(n)
        for a_idx in path_seq:
            out = linalg.mat_mul(module.action[a_idx], out, ell)
        return out

    arrow_at = {(a.node, a.src): i for i, a in enumerate(alg.arrows)}
    # mixed two-node compositions vanish
    for i, a in enumerate(alg.arrows):
        for jdx, b in enumerate(alg.arrows):
            if b.src == a.tgt and b.node != a.node:
                prod = linalg.mat_mul(module.action[jdx], module.action[i], ell)
                if any(int(x) % ell for x in prod.flat):
                    return False
    # full cycles at the two nodes of an edge agree; overlong paths vanish
    for e in alg.vertices:
        cycles = []
        for node in alg._node_ends(e):
            _, _, cyclen = alg.nodes[node]
            if cyclen <= 1:
                continue
            seq = []
            cur = e
            for _ in range(cyclen):
                seq.append(arrow_at[(node, cur)])
                cur = alg._pred(node, cur)
            cycles.append((node, seq))
        mats = [act(seq) for _, seq in cycles]
        if len(mats) == 2 and not np.array_equal(mats[0], mats[1]):
            return False
        for (node, seq), mat in zip(cycles, mats):
            extra = linalg.mat_mul(module.action[arrow_at[(node, e)]], mat, ell)
            if any(int(x) % ell for x in extra.flat):
                return False
    return True


def uniserial_module(alg: TreeAlgebra, m: int, M: int) -> AlgModule:
    """The uniserial star-algebra module with top S_M and socle S_m.

    Layers descend one index per step: S_M, S_(M-1), ..., S_m.  Only
    defined over the algebra of a star tree.
    """
    if not alg.tree.is_star():
        raise NotStar("uniserial branch modules live over the star algebra")
    h0 = alg.tree.h0
    if not (0 <= m < h0 and 0 <= M < h0 and m <= M):
        raise ValueError("need 0 <= m <= M < h0")
    length = M - m
    cyclen = alg.nodes[EXC][2]
    if length >= cyclen:
        raise ValueError("branch longer than the exceptional cycle")
    # quotient of P_M by paths of length > M - m
    proj = projective(alg, M)
    keep = [i for i, (_, p) in enumerate(proj.basis)
            if alg.path_length(p) <= length]
    basis = [proj.basis[i] for i in keep]
    reindex = {old: new for new, old in enumerate(keep)}
    n = len(basis)
    action = {}
    for a_idx in range(len(alg.arrows)):
        mat = linalg.zeros(n, n)
        src_mat = proj.action[a_idx]
        for old_col in keep:
            for old_row in keep:
                if int(src_mat[old_row, old_col]):
                    mat[reindex[old_row], reindex[old_col]] = int(src_mat[old_row, old_col])
        action[a_idx] = mat
    layers = _radical_filtration(alg, basis, action)
    mod = AlgModule(alg, basis, action, layers)
    assert all(sum(layer.values()) == 1 for layer in layers), "module is not uniserial"
    assert layers[0] == Counter({M: 1}) and layers[-1] == Counter({m: 1})
    return mod
