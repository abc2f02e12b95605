"""The bytes of a report, and a CLI that can be called again.

`cli._dumps` yields the chunks of what `json.dumps(obj, sort_keys=True,
indent=2)` gives; joined, they must equal it byte for byte.  Three property
tests hold it to json: one on generated values of every kind, one on long
int rows that are mostly zero (the plain-int join, and the values it must
refuse: a False, None or 0.0 among the zeros), and one on SparseMatrix
values, which are written as the list of their dense rows, each zero run
whole.  Every report captured under tests/golden/ must re-emit unchanged.
`cli.build_parser` is built once per process, so a sequence of `cli.main`
calls in one process must print what fresh processes print.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxbrauer import cli
from coxbrauer.linalg import SparseMatrix
from reference import dense, sparse

GOLDEN = Path(__file__).parent / "golden"
# inputs kept in compact JSON, not reports: the tree files and the validate grid
INPUTS = {"two_branch20.tree.json", "wide48.tree.json", "validate_grid.json"}


def dumps(obj) -> str:
    """The report text: the chunks of cli._dumps, joined."""
    return "".join(cli._dumps(obj))


TEXT = (st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7f é€😀'), max_size=6)
        | st.text())
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(-2 ** 80, 2 ** 80),
    st.floats(allow_nan=False, allow_infinity=False), TEXT)
INT_LISTS = st.lists(st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans(),
                               st.none()), max_size=6)
VALUES = st.recursive(
    st.one_of(LEAVES, INT_LISTS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=30)

NONZERO = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80)).filter(bool)
NOT_INT_ZEROS = st.sampled_from([False, None, 0.0])


@st.composite
def sparse_rows(draw):
    """Rows of up to 300 entries, mostly zero, so that runs of zeros open,
    split and close them; now and then a False, None or 0.0 stands among
    the zeros and the row is no longer all int."""
    row = [0] * draw(st.integers(0, 300))
    if row:
        places = st.integers(0, len(row) - 1)
        for i in draw(st.sets(places, max_size=8)):
            row[i] = draw(NONZERO)
        for x in draw(st.lists(NOT_INT_ZEROS, max_size=1)):
            row[draw(places)] = x
    return row


SPARSE = st.one_of(
    sparse_rows(),
    st.lists(sparse_rows(), max_size=4),
    st.lists(sparse_rows(), max_size=4).map(tuple),
    st.dictionaries(st.sampled_from(["cartan", "ext1", "matrix"]),
                    st.lists(sparse_rows().map(tuple), max_size=3), max_size=3))


@settings(max_examples=200, deadline=None)
@given(VALUES)
@example({})
@example([[], {}, ()])
@example([1, True, 2, False, None, -3])
@example([0, True, 1, False])
@example([[7, True], [False]])
@example([-(2 ** 64) - 1, 2 ** 100, 0])
@example([-0.0, 1e16, 0.1, 1e-7, -2.5e300])
@example({'q"uo\\te': 'a"b\\c\n\x01\x7fé€😀', "": [0.5, {"x": []}]})
@example({"ok": True, "results": [{"detail": "dim 21", "name": "7-algebra",
                                   "ok": True, "seconds": 0.012}]})
def test_dumps_is_json_with_sorted_keys_and_two_space_indent(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


@settings(max_examples=200, deadline=None)
@given(SPARSE)
@example([0] * 300)
@example([0] * 31 + [5])
@example([7] + [0] * 40)
@example([0] * 40 + [-(2 ** 64) - 1] + [0] * 40 + [2 ** 65])
@example([0] * 40 + [False] + [0] * 40)
@example([0] * 40 + [None, 3] + [0] * 40)
@example({"cartan": [[0] * 50, [0.0] + [0] * 49, [0] * 49 + [1]]})
def test_sparse_int_rows_are_json(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_zero_runs_are_written_whole(monkeypatch):
    sep = ",\n  "
    row = [0] * 40 + [-2] + [0] * 19 + [2 ** 70] + [0] * 39
    text = sep.join(map(str, row))
    items = [(40, -2), (60, 2 ** 70)]
    # the row writer converts only the entries it is given, and writes
    # each zero run, the last entry's too, as one repeated string
    converted = []
    monkeypatch.setattr(cli, "str", lambda x: converted.append(x) or repr(x),
                        raising=False)
    assert cli._int_items(items, len(row), sep) == text
    assert converted == [-2, 2 ** 70]
    converted.clear()
    # a nonzero last entry is written without a separator after it
    assert cli._int_items([*items, (99, 5)], len(row), sep) == text[:-1] + "5"
    assert converted == [-2, 2 ** 70, 5]


EXC_ROW = {0: 1, 5: 1, 32: 1}
MATRICES = {
    "no rows": SparseMatrix((0, 5), []),
    "no columns": SparseMatrix((3, 0), [{}, {}, {}]),
    "1 x 1": SparseMatrix((1, 1), [{0: 7}]),
    "1 x 1 zero": SparseMatrix((1, 1), [{}]),
    "last column": sparse([[0] * 39 + [4], [0] * 40, [3] + [0] * 39], 40),
    "all-zero rows": sparse([[0] * 50] * 3, 50),
    **{f"width {n}": sparse([[0] * (n - 1) + [1], [2] + [0] * (n - 1),
                             [0] * (n // 2) + [-1] + [0] * (n - n // 2 - 1),
                             list(range(1, n + 1))], n)
       for n in (31, 32, 33)},
    # mu copies of one row object, as the exceptional rows are stored
    "repeated row": SparseMatrix((5, 33), [{1: 1}, {}] + [EXC_ROW] * 3),
    "big values": sparse([[0] * 10 + [-(2 ** 64) - 1] + [0] * 30 + [2 ** 70],
                          [2 ** 70] + [0] * 41], 42),
    # entries stored out of column order, and a zero stored
    "unsorted": SparseMatrix((2, 34), [{33: 2, 0: 1, 17: 0}, {20: 3, 2: 1}]),
}


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_sparse_matrix_is_json_of_its_dense_rows(name):
    a = MATRICES[name]
    cells = dense(a)
    assert dumps(a) == json.dumps(cells, indent=2)
    # inside a report, one level down
    report = {"cartan": a, "h0": a.shape[1], "zeros": [0] * 40}
    assert dumps(report) == json.dumps({**report, "cartan": cells},
                                       sort_keys=True, indent=2)


@settings(max_examples=100, deadline=None)
@given(st.lists(sparse_rows(), max_size=4), st.integers(0, 3))
def test_generated_sparse_matrices_are_json(rows, copies):
    width = min(map(len, rows), default=0)
    rows = [[x if type(x) is int else 0 for x in row[:width]] for row in rows]
    # the last row object repeated `copies` more times
    stored = sparse(rows, width).rows
    stored += stored[-1:] * copies
    a = SparseMatrix((len(stored), width), stored)
    assert dumps(a) == json.dumps(dense(a), indent=2)


def test_non_string_keys_are_refused():
    with pytest.raises(TypeError, match="keys must be str"):
        dumps({"cartan": {1: [2]}})


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")
                                        if p.name not in INPUTS))
def test_every_golden_report_re_emits_unchanged(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert dumps(json.loads(text)) + "\n" == text


def _in_process(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def _fresh(argv) -> tuple[int, str]:
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "coxbrauer.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout


def test_parser_reuse_leaks_no_state(tmp_path):
    out = tmp_path / "star.json"
    rickard = ["rickard", "--fixture", "line3", "--mu", "2", "--vertex", "2"]
    star = ["star", "--d", "7", "--e", "3", "--n", "2"]
    calls = [["rickard", "--fixture", "line3", "--mu", "2"],
             [*rickard, "--check-tilting"],
             rickard,
             [*star, "--out", str(out)],
             star]
    results = [_in_process(argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    assert [code for code, _ in results] == [1, 0, 0, 0, 0]
    assert json.loads(results[1][1])["tilting"]["ok"] is True
    assert json.loads(results[2][1])["tilting"] is None
    assert results[3][1] == "" and out.read_text(encoding="utf-8") == results[4][1]
    out.unlink()
    assert results == [_fresh(argv) for argv in calls]
