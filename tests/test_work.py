"""Work counts of the tilting check and the oracle's orthogonality check,
pinned exactly.

Each count is taken by a monkeypatch wrapper on fixed inputs, so it does
not move with the machine's speed the way a timing does.  A change that
lowers a count updates its pin and logs the old and new values; one that
raises a count needs a logged reason.
"""

import random
from collections import Counter
from math import log2

import pytest

from coxbrauer import brauer_tree as bt
from coxbrauer import homotopy as ho
from coxbrauer import linalg
from coxbrauer import oracle as orc
from coxbrauer import tree_algebra as ta


def single_branches(b):
    """The star-shaped tree of b single-edge branches, mu = 1."""
    series = bt.SeriesDatum(b, tuple(bt.Branch(0, i, i) for i in range(b)))
    return bt.assemble_tree(series, 1, 1)


class _WalkedOutLists(dict):
    """An algebra's `paths_out` whose lists count the entries iterated."""

    def __init__(self, table, counts):
        super().__init__(table)
        self.counts = counts

    def __getitem__(self, v):
        return _WalkedList(super().__getitem__(v), self.counts)


class _WalkedList(list):
    def __init__(self, entries, counts):
        super().__init__(entries)
        self.counts = counts

    def __iter__(self):
        self.counts["walked"] += len(self)
        return super().__iter__()


def hom_work(monkeypatch, run):
    """The work of run(): Hom complexes built, their basis maps, entries
    walked while building them (out-list entries iterated, plus vertices
    of C1 whose paths from a summand of C2 are looked up), elimination
    kernel calls and path compositions."""
    counts = dict.fromkeys(("hom_complexes", "basis_maps", "walked",
                            "rank_calls", "compose_calls"), 0)
    init, rref, compose, between = (ho.HomComplex.__init__, linalg.rref_mod_prime,
                                    ta.TreeAlgebra.compose, ta.TreeAlgebra.paths_between)

    def counted_init(self, cx1, cx2):
        alg = cx1.alg
        out = alg.paths_out
        alg.paths_out = _WalkedOutLists(out, counts)
        try:
            init(self, cx1, cx2)
        finally:
            alg.paths_out = out
        counts["hom_complexes"] += 1
        counts["basis_maps"] += sum(map(len, self.basis.values()))

    def counted_between(self, src, tgt):
        counts["walked"] += 1
        return between(self, src, tgt)

    def counted_rref(*args, **kwargs):
        counts["rank_calls"] += 1
        return rref(*args, **kwargs)

    def counted_compose(self, p, q):
        counts["compose_calls"] += 1
        return compose(self, p, q)

    with monkeypatch.context() as patch:
        patch.setattr(ho.HomComplex, "__init__", counted_init)
        patch.setattr(ta.TreeAlgebra, "paths_between", counted_between)
        patch.setattr(linalg, "rref_mod_prime", counted_rref)
        patch.setattr(ta.TreeAlgebra, "compose", counted_compose)
        run()
    return counts


def tilting_work(monkeypatch, tree):
    """The work of `check_tilting` on tree over F_31."""
    def run():
        alg = ta.from_tree(tree, 31)
        assert ho.check_tilting(alg, tree) == ho.star_algebra_dimension(tree.h0, 1)
    return hom_work(monkeypatch, run)


# singleB: B^2 Hom complexes of two stalks P_j, P_j', each looking up the
# paths from j' to the one vertex j of C1 (where walking the B + 1 basis
# paths out of j' took B^2 (B + 1) entries: 576 at B = 8, 4,352 at 16), and
# keeping the B^2 + B of them that run from j' to j; a line tree is one
# branch, so one Hom complex of its top with itself, walked from C2's
# out-lists, as its top has more vertices than any edge has paths
@pytest.mark.parametrize("tree, want", [
    (single_branches(8), dict(hom_complexes=64, basis_maps=72, walked=64,
                              rank_calls=0, compose_calls=0)),
    (single_branches(16), dict(hom_complexes=256, basis_maps=272, walked=256,
                               rank_calls=0, compose_calls=0)),
    (bt.assemble_tree(bt.line_series(40), 1, 1),
     dict(hom_complexes=1, basis_maps=158, walked=158, rank_calls=2,
          compose_calls=272)),
], ids=["single8", "single16", "line40"])
def test_tilting_work_is_pinned(monkeypatch, tree, want):
    assert tilting_work(monkeypatch, tree) == want


def test_the_single_branch_walk_grows_as_b_squared(monkeypatch):
    """From B = 8 to 16 the walk grows by 2^2, B^2: the check builds B^2
    Hom complexes and each looks up one vertex (the walk of the paths out
    of a summand grew by 2^2.92, about B^3)."""
    small = tilting_work(monkeypatch, single_branches(8))["walked"]
    large = tilting_work(monkeypatch, single_branches(16))["walked"]
    assert round(log2(large / small), 2) == 2


# one trim round trip: the branch complex of S_4 on line7 (mu 2) padded
# three times and mixed, trimmed back, and Hom_K of the trimmed complex
# and of the original into the original at every shift.  Two Hom
# complexes, (trimmed, cx) and (cx, cx), serve the 2 x 9 shifts, each
# degree's rank profile once; one Hom complex per call took 18 Hom
# complexes, 342 basis maps, 8 rank calls and 146 compositions (46 of them
# in padding, mixing and trimming)
def test_trim_round_trip_work_is_pinned(monkeypatch):
    def run():
        rng = random.Random(7919)
        tree = bt.assemble_tree(bt.line_series(7), 2, 1)
        alg = ta.from_tree(tree, 31)
        cx = ho.rickard_complex(alg, tree, 4)
        padded = cx
        for _ in range(3):
            padded = ho.pad_with_contractible(
                padded, rng.randint(cx.lo - 1, cx.hi), rng.choice(alg.vertices))
        trimmed = ho.trim(ho.mix_basis(padded, rng), cx.lo, cx.hi)
        shifts = range(cx.lo - cx.hi, cx.hi - cx.lo + 1)
        assert ([ho.homotopy_hom(trimmed, cx, i) for i in shifts]
                == [ho.homotopy_hom(cx, cx, i) for i in shifts])

    assert hom_work(monkeypatch, run) == dict(
        hom_complexes=2, basis_maps=38, walked=40, rank_calls=4, compose_calls=96)


def orthogonality_work(monkeypatch, group):
    """The work of `check_orthogonality` on the character table of group:
    the Gram reductions per ring level L/gh and the accumulator slots
    summed over every Gram entry, L/g each."""
    levels, slots = Counter(), 0
    fold, gram_sum = orc.fold, orc._gram_sum

    def counted_fold(n, acc):
        levels[n] += 1
        return fold(n, acc)

    def counted_gram_sum(*args):
        nonlocal slots
        acc = gram_sum(*args)
        slots += len(acc)
        return acc

    with monkeypatch.context() as patch:
        patch.setattr(orc.CharacterTable, "verify", lambda self: None)
        table = orc.character_table(group)
        patch.setattr(orc, "fold", counted_fold)
        patch.setattr(orc, "_gram_sum", counted_gram_sum)
        assert table.check_orthogonality()
    return dict(levels), slots


# 494 and 575 Gram entries, one Gram row per Galois orbit of rows; an
# accumulator of L slots for every entry would be 494 * 125 = 61,750 and
# 575 * 1029 = 591,675 slots
@pytest.mark.parametrize("group, want", [
    (orc.MetacyclicGroup(125, 1, 1),
     ({125: 397, 25: 78, 5: 15, 1: 4}, 54366)),
    (orc.MetacyclicGroup(343, 3, 18),
     ({343: 505, 49: 58, 7: 7, 3: 3, 1: 2}, 245545)),
], ids=["125-1-1", "343-3-18"])
def test_orthogonality_work_is_pinned(monkeypatch, group, want):
    assert orthogonality_work(monkeypatch, group) == want
