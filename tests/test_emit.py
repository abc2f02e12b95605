"""The bytes of a report, and a CLI that can be called again.

`cli._dumps` lays out what `json.dumps(obj, sort_keys=True, indent=2)`
gives, byte for byte: a property test holds it to json on generated
values and every report captured under tests/golden/ must re-emit
unchanged.  `cli.build_parser` is built once per process, so a sequence
of `cli.main` calls in one process must print what fresh processes print.
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

GOLDEN = Path(__file__).parent / "golden"
# inputs kept in compact JSON, not reports: a tree file and the validate grid
INPUTS = {"two_branch20.tree.json", "validate_grid.json"}

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
    assert cli._dumps(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_non_string_keys_are_refused():
    with pytest.raises(TypeError, match="keys must be str"):
        cli._dumps({"cartan": {1: [2]}})


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")
                                        if p.name not in INPUTS))
def test_every_golden_report_re_emits_unchanged(name):
    text = (GOLDEN / name).read_text(encoding="utf-8")
    assert cli._dumps(json.loads(text)) + "\n" == text


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
