"""Work counts of the tilting check and the oracle's orthogonality check,
pinned exactly.

Each count is taken by a monkeypatch wrapper on fixed inputs, so it does
not move with the machine's speed the way a timing does.  A change that
lowers a count updates its pin and logs the old and new values; one that
raises a count needs a logged reason.
"""

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
    """An algebra's `paths_out` that counts the entries handed out."""

    def __init__(self, table, counts):
        super().__init__(table)
        self.counts = counts

    def __getitem__(self, v):
        out = super().__getitem__(v)
        self.counts["walked"] += len(out)
        return out


def tilting_work(monkeypatch, tree):
    """The work of `check_tilting` on tree over F_31: Hom complexes built,
    their basis maps, out-list entries walked while building them,
    elimination kernel calls and path compositions."""
    counts = dict.fromkeys(("hom_complexes", "basis_maps", "walked",
                            "rank_calls", "compose_calls"), 0)
    init, rref, compose = (ho.HomComplex.__init__, linalg.rref_mod_prime,
                           ta.TreeAlgebra.compose)

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

    def counted_rref(*args, **kwargs):
        counts["rank_calls"] += 1
        return rref(*args, **kwargs)

    def counted_compose(self, p, q):
        counts["compose_calls"] += 1
        return compose(self, p, q)

    with monkeypatch.context() as patch:
        patch.setattr(ho.HomComplex, "__init__", counted_init)
        patch.setattr(linalg, "rref_mod_prime", counted_rref)
        patch.setattr(ta.TreeAlgebra, "compose", counted_compose)
        alg = ta.from_tree(tree, 31)
        assert ho.check_tilting(alg, tree) == ho.star_algebra_dimension(tree.h0, 1)
    return counts


# singleB: B^2 Hom complexes of two stalks P_j, P_j', each walking the
# B + 1 basis paths out of one edge, B^2 (B + 1) entries in all, and
# keeping the B^2 + B of them that run from j' to j; a line tree is one
# branch, so one Hom complex of its top with itself
@pytest.mark.parametrize("tree, want", [
    (single_branches(8), dict(hom_complexes=64, basis_maps=72, walked=576,
                              rank_calls=0, compose_calls=0)),
    (single_branches(16), dict(hom_complexes=256, basis_maps=272, walked=4352,
                               rank_calls=0, compose_calls=0)),
    (bt.assemble_tree(bt.line_series(40), 1, 1),
     dict(hom_complexes=1, basis_maps=158, walked=158, rank_calls=2,
          compose_calls=272)),
], ids=["single8", "single16", "line40"])
def test_tilting_work_is_pinned(monkeypatch, tree, want):
    assert tilting_work(monkeypatch, tree) == want


def test_the_single_branch_walk_grows_as_b_cubed(monkeypatch):
    """From B = 8 to 16 the walk grows by 2^2.92, about B^3: the check
    builds B^2 Hom complexes and each walks B + 1 entries."""
    small = tilting_work(monkeypatch, single_branches(8))["walked"]
    large = tilting_work(monkeypatch, single_branches(16))["walked"]
    assert round(log2(large / small), 2) == 2.92


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
