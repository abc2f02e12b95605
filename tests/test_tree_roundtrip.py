"""Property test of the tree JSON format.

Every generated tree object either round-trips through obj_to_tree and
tree_to_obj, or is refused with a located ParseError, and then the CLI
refuses it too with exit code 1.  Half the objects are tree_to_obj of a
generated tree; the other half change one field anywhere in such an
object: a value of the wrong type, a small integer, a deleted key or an
added one.
"""

import contextlib
import io
import json
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxbrauer import brauer_tree as bt
from coxbrauer import cli

SMALL = st.integers(-2, 9)
ANY = st.one_of(SMALL, st.booleans(), st.none(), st.just(""), st.text(max_size=3),
                st.lists(SMALL, max_size=3), st.dictionaries(st.text(max_size=2),
                                                             SMALL, max_size=2))


@st.composite
def valid_objects(draw):
    """tree_to_obj of a tree with a random series, or of a star tree."""
    if draw(st.integers(0, 4)) == 0:
        d, e, n = draw(st.sampled_from([(7, 3, 2), (7, 2, 6), (9, 2, 8),
                                        (13, 4, 5), (5, 1, 1)]))
        obj = bt.tree_to_obj(bt.star_tree(d, e, n))
        obj["r"] = draw(st.integers(0, 3))
        return obj
    h0 = draw(st.integers(1, 7))
    cuts = sorted(draw(st.sets(st.integers(1, h0 - 1), max_size=3))) if h0 > 1 else []
    bounds = [0, *cuts, h0]
    zetas = draw(st.permutations(range(len(bounds) - 1)))
    series = bt.SeriesDatum(h0=h0, branches=tuple(
        bt.Branch(z, bounds[k], bounds[k + 1] - 1) for k, z in enumerate(zetas)))
    vertices = st.integers(0, h0 - 1)
    labels = draw(st.dictionaries(vertices, st.text(min_size=1, max_size=4),
                                  max_size=3))
    annotations = draw(st.dictionaries(vertices, st.tuples(SMALL, SMALL),
                                       max_size=3))
    tree = bt.assemble_tree(series, draw(st.integers(1, 4)), draw(st.integers(0, 3)),
                            labels=labels, annotations=annotations)
    return bt.tree_to_obj(tree)


def _locations(obj, where=()):
    """Every (container path, key) inside a JSON object."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, val in items:
        yield where, key
        if isinstance(val, (dict, list)):
            yield from _locations(val, where + (key,))


@st.composite
def tree_objects(draw):
    """A valid tree object, or one with one field replaced, deleted or
    added."""
    obj = draw(valid_objects())
    if draw(st.booleans()):
        return obj
    where, key = draw(st.sampled_from(list(_locations(obj))))
    node = obj
    for k in where:
        node = node[k]
    action = draw(st.sampled_from(["replace", "small", "delete", "add"]))
    if action == "replace":
        node[key] = draw(ANY)
    elif action == "small":
        node[key] = draw(SMALL)
    elif isinstance(node, dict) and action == "delete":
        del node[key]
    elif isinstance(node, dict):
        node[draw(st.one_of(st.integers(-1, 8).map(str), st.text(max_size=2)))] = \
            draw(ANY)
    else:
        node.append(draw(ANY))
    return obj


def _cli_tree(obj) -> int:
    saved = sys.stdin
    sys.stdin = io.StringIO(json.dumps(obj))
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["tree", "--tree", "-"])
    finally:
        sys.stdin = saved


ONE_EDGE = {"h0": 1, "r": 0, "multiplicity": 1,
            "branches": [{"zeta": 0, "m": 0, "M": 0}]}


@settings(max_examples=400, deadline=None)
@given(tree_objects())
# each of these once escaped as a TypeError or was accepted and then lost
@example({**ONE_EDGE, "cyclic_order": 0})
@example({**ONE_EDGE, "cyclic_order": [False]})
@example({**ONE_EDGE, "labels": {"0": ""}})
@example({**ONE_EDGE, "annotations": {"0": [True, 1]}})
def test_tree_object_round_trips_or_is_refused_with_a_location(obj):
    try:
        tree = bt.obj_to_tree(obj)
    except bt.ParseError as exc:
        assert exc.location.startswith("$")
        assert str(exc).startswith(exc.location + ": ")
        assert _cli_tree(obj) == cli.EXIT_USAGE == 1
        return
    back = bt.tree_to_obj(tree)
    assert bt.obj_to_tree(back) == tree
    assert bt.obj_to_tree(json.loads(json.dumps(back))) == tree
    # an optional field given as null counts as absent
    for key in ("h0", "r", "multiplicity", "cyclic_order", "star"):
        if obj.get(key) is not None:
            assert back[key] == obj[key]
    if obj.get("annotations"):
        assert back["annotations"] == obj["annotations"]
    assert back.get("labels", {}) == (obj.get("labels") or {})
    assert _cli_tree(obj) == cli.EXIT_OK
