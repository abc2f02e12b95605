import json

import jsonschema
import pytest

from coxbrauer import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_info_schema_and_values(capsys):
    code, obj = run_json(capsys, "info", "--type", "2G2")
    assert code == 0
    jsonschema.validate(obj, cli.SCHEMAS["info"])
    assert obj["h"] == 12 and obj["h0"] == 6 and obj["delta"] == 2
    assert obj["torus_order"]["pretty"] == "1 - q*sqrt(3) + q^2"


def test_info_requires_rank(capsys):
    code, _, err = run(capsys, "info", "--type", "A")
    assert code == 1 and "rank" in err


def test_validate_valid(capsys):
    code, obj = run_json(capsys, "validate", "--type", "A", "--rank", "2",
                         "--qsq", "2", "--ell", "7")
    assert code == 0
    jsonschema.validate(obj, cli.SCHEMAS["validate"])
    assert obj["valid"] and obj["eigenvalue_table"] == [1, 2, 4]


def test_validate_invalid(capsys):
    code, obj = run_json(capsys, "validate", "--type", "A", "--rank", "2",
                         "--qsq", "2", "--ell", "3")
    assert code == 2
    jsonschema.validate(obj, cli.SCHEMAS["validate"])
    assert not obj["valid"] and "W^F" in obj["reason"]


def test_tree_fixture_json(capsys):
    code, obj = run_json(capsys, "tree", "--fixture", "2g2",
                         "--qsq", "27", "--ell", "19")
    assert code == 0
    jsonschema.validate(obj, cli.SCHEMAS["tree"])
    assert obj["multiplicity"] == 3 and obj["cyclic_order"] == [0, 2, 3, 4, 5]


def test_tree_dot_output(capsys):
    code, out, _ = run(capsys, "tree", "--fixture", "2g2", "--format", "dot")
    assert code == 0
    from coxbrauer.selftest import REE_DOT
    assert out == REE_DOT


def test_tree_deterministic(capsys):
    _, first, _ = run(capsys, "tree", "--fixture", "line3", "--mu", "2")
    _, second, _ = run(capsys, "tree", "--fixture", "line3", "--mu", "2")
    assert first == second


def test_tree_roundtrip_via_file(tmp_path, capsys):
    code, out, _ = run(capsys, "tree", "--fixture", "line3", "--mu", "2")
    path = tmp_path / "tree.json"
    path.write_text(out)
    code, obj = run_json(capsys, "decmatrix", "--tree", str(path))
    assert code == 0
    jsonschema.validate(obj, cli.SCHEMAS["decmatrix"])
    assert obj["rows"] == ["chi0", "chi1", "chi2", "exc0", "exc1"]
    assert obj["matrix"] == [[1, 1, 0], [0, 1, 1], [0, 0, 1],
                             [1, 0, 0], [1, 0, 0]]
    assert obj["unitriangular"] is True


def test_decmatrix_star(capsys):
    code, obj = run_json(capsys, "star", "--d", "7", "--e", "3", "--n", "2",
                         "--verify")
    assert code == 0
    jsonschema.validate(obj, cli.SCHEMAS["star"])
    assert obj["match"] is True
    assert obj["decomposition"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                    [1, 1, 1], [1, 1, 1]]
    assert obj["oracle"] == obj["decomposition"]


def test_star_singular_system_exits_with_verification_failure(capsys, monkeypatch):
    # with the trivial lift the Brauer character matrix is singular mod ell
    from coxbrauer import oracle as orc
    from coxbrauer.ell_arith import TruncatedPadic
    monkeypatch.setattr(orc.MetacyclicGroup, "zeta_lift",
                        lambda self: TruncatedPadic(1, self.ell, self.alpha + 1))
    code, out, err = run(capsys, "star", "--d", "7", "--e", "3", "--n", "2",
                         "--verify")
    assert code == 2 and out == ""
    assert err.startswith("verification failed: ") and "not invertible" in err


def test_star_without_verify(capsys):
    code, obj = run_json(capsys, "star", "--d", "5", "--e", "1", "--n", "1")
    assert code == 0
    assert obj["match"] is None and obj["oracle"] is None


def test_algebra_report(capsys):
    code, obj = run_json(capsys, "algebra", "--fixture", "line2", "--mu", "1")
    assert code == 0
    jsonschema.validate(obj, cli.SCHEMAS["algebra"])
    assert obj["dimension"] == 6
    assert obj["cartan"] == [[2, 1], [1, 2]]
    assert obj["ext1"] == [[0, 1], [1, 0]]


def test_rickard_report(capsys):
    code, obj = run_json(capsys, "rickard", "--fixture", "line3", "--mu", "2",
                         "--vertex", "2", "--check-tilting")
    assert code == 0
    jsonschema.validate(obj, cli.SCHEMAS["rickard"])
    assert obj["degrees"] == [1, 2, 3]
    assert obj["euler"] == {"chi": [0, 0, 1], "exc": 1}
    assert obj["tilting"]["ok"] is True
    assert obj["tilting"]["end_dimension"] == 21


def test_rickard_vertex_out_of_range(capsys):
    code, _, err = run(capsys, "rickard", "--fixture", "line3", "--vertex", "5")
    assert code == 1 and "out of range" in err


def test_tree_requires_source(capsys):
    code, _, err = run(capsys, "tree")
    assert code == 1


def test_unknown_fixture(capsys):
    for name in ("nosuch", "line0", "line", "line-3", "foo"):
        code, out, err = run(capsys, "tree", "--fixture", name)
        assert code == 1 and out == ""
        assert err == (f"error: unknown fixture {name!r}: expected 2g2, or lineN "
                       f"with N >= 1\n")


def dot_statements(text):
    """The statements of a DOT graph as token lists, split at ';' and at
    braces outside double-quoted strings; a quoted string is one token,
    unescaped."""
    import re
    token = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"'          # a quoted string
                       r'|(--|[^\s"{};\[\]=,]+|[\[\]=,])'   # a word or punctuation
                       r'|([{};]))')                        # the end of a statement
    statements, current, pos = [], [], 0
    while text[pos:].strip():
        m = token.match(text, pos)
        assert m, f"not DOT at {text[pos:pos + 20]!r}"
        quoted, word, stop = m.groups()
        if stop:
            if current:
                statements.append(current)
            current = []
        else:
            current.append(re.sub(r"\\(.)", r"\1", quoted) if quoted is not None
                           else word)
        pos = m.end()
    return statements + ([current] if current else [])


def test_dot_labels_are_escaped(monkeypatch, capsys):
    import io
    labels = {"0": 'St"; x [label="pwn', "1": "ends in a backslash \\"}
    obj = {"h0": 2, "r": 1, "multiplicity": 1,
           "branches": [{"zeta": 0, "m": 0, "M": 1}], "labels": labels}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(obj)))
    code, out, _ = run(capsys, "tree", "--tree", "-", "--format", "dot")
    assert code == 0
    # exactly h0 + 1 node statements, each label read back verbatim
    nodes = [st for st in dot_statements(out) if st[0] != "graph" and "--" not in st]
    assert [st[0] for st in nodes] == ["exc", "v0", "v1"]
    for st, label in zip(nodes[1:], labels.values()):
        assert st[st.index("label") + 2] == label


@pytest.mark.parametrize("command, argv, offending", [
    ("tree", ["--tree", "{tree}", "--fixture", "2g2"], ["--fixture"]),
    ("tree", ["--fixture", "line3", "--qsq", "27"], ["--qsq"]),
    ("decmatrix", ["--fixture", "line3", "--ell", "19"], ["--ell"]),
    ("tree", ["--tree", "{tree}", "--qsq", "27", "--ell", "19"],
     ["--qsq", "--ell"]),
    ("tree", ["--fixture", "2g2", "--mu", "4"], ["--mu"]),
    ("algebra", ["--fixture", "2g2", "--r", "0"], ["--r"]),
    ("tree", ["--tree", "{tree}", "--mu", "4"], ["--mu"]),
    ("rickard", ["--tree", "{tree}", "--r", "2", "--vertex", "1"], ["--r"]),
])
def test_options_that_do_not_apply_to_the_tree_source_are_refused(
        tmp_path, capsys, command, argv, offending):
    code, out, _ = run(capsys, "tree", "--fixture", "line3")
    path = tmp_path / "line3.json"
    path.write_text(out)
    argv = [a.replace("{tree}", str(path)) for a in argv]
    code, out, err = run(capsys, command, *argv)
    assert code == 1 and out == ""
    assert f"{', '.join(offending)} cannot be used with" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "decmatrix", "--tree", "/nonexistent/x.json")
    assert code == 1


def test_selftest_filter(capsys):
    code, out, err = run(capsys, "selftest", "--filter", "torus")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, cli.SCHEMAS["selftest"])
    assert [r["name"] for r in obj["results"]] == ["2-torus-orders"]
    assert "PASS" in err


def test_selftest_filter_that_matches_nothing_is_a_usage_error(capsys):
    code, out, err = run(capsys, "selftest", "--filter", "zzz")
    assert code == 1
    assert out == ""
    assert err == "error: no selftest criterion matches 'zzz'\n"


def test_byte_identical_reports(capsys):
    args = ("star", "--d", "7", "--e", "3", "--n", "2", "--verify")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "info", "--type", "G2", "--out", str(path))
    assert code == 0 and out == ""
    obj = json.loads(path.read_text())
    assert obj["h"] == 6


def test_selftest_failure_exit_code(capsys, monkeypatch):
    from coxbrauer import selftest as st

    def broken():
        return False, "deliberately failing"

    monkeypatch.setattr(st, "CRITERIA", [("0-forced-failure", broken, None)])
    code, out, err = run(capsys, "selftest")
    assert code == 2
    assert "FAIL" in err
    assert json.loads(out)["ok"] is False


def test_console_script_entry():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "coxbrauer.cli", "info", "--type", "2B2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["h"] == 8


def test_r_zero_is_kept(capsys):
    code, obj = run_json(capsys, "tree", "--fixture", "line3", "--r", "0")
    assert code == 0 and obj["r"] == 0
    code, obj = run_json(capsys, "rickard", "--fixture", "line3", "--r", "0",
                         "--vertex", "2")
    assert code == 0 and obj["degrees"] == [0, 1, 2]


def test_mu_zero_is_rejected(capsys):
    code, out, err = run(capsys, "tree", "--fixture", "line3", "--mu", "0")
    assert code == 1 and out == ""
    assert "multiplicity must be >= 1" in err


def test_field_beyond_the_kernel_limit(capsys):
    code, out, err = run(capsys, "algebra", "--fixture", "line3",
                         "--field", "2147483659")
    assert code == 1 and out == ""
    assert "2^31" in err


def line3_obj(capsys, **extra):
    code, obj = run_json(capsys, "tree", "--fixture", "line3")
    assert code == 0
    return {**obj, **extra}


def run_tree_obj(capsys, tmp_path, command, obj, *argv):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(obj))
    return run(capsys, command, "--tree", str(path), *argv)


def test_label_on_a_missing_vertex_is_rejected(tmp_path, capsys):
    obj = line3_obj(capsys, labels={"7": "ghost"})
    code, out, err = run_tree_obj(capsys, tmp_path, "tree", obj)
    assert code == 1 and out == ""
    assert "$.labels.7: names no vertex of a tree with h0 = 3" in err


def test_label_key_that_is_not_an_index_is_rejected(tmp_path, capsys):
    obj = line3_obj(capsys, labels={"x": "ghost"})
    code, out, err = run_tree_obj(capsys, tmp_path, "tree", obj)
    assert code == 1 and out == ""
    assert "$.labels.x: names no vertex" in err


def test_annotation_on_a_missing_vertex_is_rejected(tmp_path, capsys):
    obj = line3_obj(capsys, annotations={"3": [0, 0]})
    code, out, err = run_tree_obj(capsys, tmp_path, "decmatrix", obj)
    assert code == 1 and out == ""
    assert "$.annotations.3: names no vertex" in err


def test_star_metadata_on_a_line_tree_is_rejected(tmp_path, capsys):
    # used to make `algebra` report field 7
    obj = line3_obj(capsys, star={"d_order": 7})
    code, out, err = run_tree_obj(capsys, tmp_path, "algebra", obj)
    assert code == 1 and out == ""
    assert "$.star: " in err


def test_star_metadata_of_no_star_is_rejected(tmp_path, capsys):
    # used to crash `algebra` with a TypeError traceback
    obj = line3_obj(capsys, star={"d_order": 12})
    code, out, err = run_tree_obj(capsys, tmp_path, "algebra", obj)
    assert code == 1 and out == ""
    assert "$.star: " in err
    # complete, but |D| = 12 is no prime power
    obj = line3_obj(capsys, star={"d_order": 12, "e_order": 3, "n": 2,
                                  "zeta": 2, "zeta_precision": 2})
    code, out, err = run_tree_obj(capsys, tmp_path, "algebra", obj)
    assert code == 1 and "$.star: not the data of a star tree" in err


def test_star_metadata_must_match_the_tree(tmp_path, capsys):
    code, obj = run_json(capsys, "star", "--d", "7", "--e", "3", "--n", "2")
    tree = obj["tree"]
    # another action exponent: the zeta lift in the metadata no longer fits
    code, out, err = run_tree_obj(capsys, tmp_path, "algebra",
                                  {**tree, "star": {**tree["star"], "n": 4}})
    assert code == 1 and "$.star: differs from the star tree" in err
    # the star of the metadata has mu = 2, this tree mu = 1
    code, out, err = run_tree_obj(capsys, tmp_path, "algebra",
                                  {**tree, "multiplicity": 1})
    assert code == 1 and "$.star: the tree does not have the shape" in err


def test_star_tree_takes_its_field_from_d(tmp_path, capsys):
    code, obj = run_json(capsys, "star", "--d", "49", "--e", "3", "--n", "18")
    code, out, err = run_tree_obj(capsys, tmp_path, "algebra", obj["tree"])
    assert code == 0 and json.loads(out)["field"] == 7


def test_field_is_not_guessed_from_the_shape(tmp_path, capsys):
    # the Ree fixture works over F_19, the ell of its regime, or over --ell
    code, obj = run_json(capsys, "algebra", "--fixture", "2g2")
    assert code == 0 and obj["field"] == 19
    code, obj = run_json(capsys, "algebra", "--fixture", "2g2", "--field", "31")
    assert code == 0 and obj["field"] == 31
    # the same tree read from JSON carries no regime: F_5 unless --field
    code, tree = run_json(capsys, "tree", "--fixture", "2g2")
    code, out, _ = run_tree_obj(capsys, tmp_path, "algebra", tree)
    assert code == 0 and json.loads(out)["field"] == 5
    code, out, _ = run_tree_obj(capsys, tmp_path, "algebra", tree, "--field", "19")
    assert code == 0 and json.loads(out)["field"] == 19


def test_field_zero_is_refused(capsys):
    code, out, err = run(capsys, "algebra", "--fixture", "line3", "--field", "0")
    assert code == 1 and out == "" and "not prime" in err


def test_validate_with_a_61_bit_ell_is_quick(capsys):
    import time
    start = time.perf_counter()
    code, obj = run_json(capsys, "validate", "--type", "A", "--rank", "1",
                         "--qsq", "2", "--ell", "2305843009213693951")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and obj["valid"] is False
    assert obj["reason"].startswith("NotDividing")


def test_star_with_a_61_bit_e_is_refused_quickly(capsys):
    import time
    start = time.perf_counter()
    code, out, err = run(capsys, "star", "--d", "7", "--e", "2305843009213693951",
                         "--n", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == "" and "does not divide ell - 1 = 6" in err


def test_validate_beyond_the_primality_bound_is_an_error(capsys):
    code, out, err = run(capsys, "validate", "--type", "A", "--rank", "1",
                         "--qsq", "2", "--ell", str(10 ** 30 + 57))
    assert code == 1 and out == "" and "too large" in err


# the child times its own cli.main, so interpreter start-up is not counted;
# its address space is capped, so a refusal that comes too late ends in a
# MemoryError there and not in a machine out of memory
_TIMED_MAIN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from coxbrauer import cli
start = time.perf_counter()
code = cli.main(sys.argv[1:])
sys.stderr.write(f"seconds {time.perf_counter() - start}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("argv, message", [
    (["tree", "--fixture", "line10000000000000"],
     "error: h0 = 10000000000000 is more than the 65536 edges supported"),
    (["tree", "--tree", "HUGE"],
     "error: $.h0: h0 = 10000000000000 is more than the 65536 edges supported"),
    (["star", "--d", "70368744181907", "--e", "35184372090953", "--n", "4"],
     "error: |E| = 35184372090953 is more than the 65536 edges supported"),
    (["decmatrix", "--fixture", "line3", "--mu", "10000000000000"],
     "error: multiplicity = 10000000000000 is more than the 65536 supported"),
    (["algebra", "--fixture", "line3", "--mu", "10000000000000"],
     "error: multiplicity = 10000000000000 is more than the 65536 supported"),
    (["tree", "--tree", "HEAVY"],
     "error: $.multiplicity: 10000000000000 is more than the 65536 supported"),
    (["star", "--d", "70368744181907", "--e", "2", "--n", "70368744181906"],
     "error: multiplicity (|D| - 1)/|E| = 35184372090953 is more than the "
     "65536 supported"),
], ids=["fixture", "tree-json", "star", "decmatrix-mu", "algebra-mu",
        "tree-json-mu", "star-mu"])
def test_oversized_trees_are_refused_before_any_per_edge_work(argv, message,
                                                              tmp_path):
    import os
    import subprocess
    import sys
    files = {"HUGE": {"h0": 10 ** 13, "r": 0, "multiplicity": 1,
                      "branches": [{"zeta": 0, "m": 0, "M": 10 ** 13 - 1}]},
             "HEAVY": {"h0": 3, "r": 0, "multiplicity": 10 ** 13,
                       "branches": [{"zeta": 0, "m": 0, "M": 2}]}}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TIMED_MAIN, *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    err, seconds = proc.stderr.rsplit("seconds ", 1)
    assert proc.returncode == 1 and proc.stdout == ""
    assert err == message + "\n"
    assert float(seconds) < 1.0



def test_oversized_character_tables_are_refused_before_the_table_is_built():
    """mu = 65536 is accepted for the tree, but the oracle's dense table
    would have mu + |E| = 65537 classes."""
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _TIMED_MAIN, "star", "--d", "65537",
                           "--e", "1", "--n", "1", "--verify"],
                          capture_output=True, text=True, env=env, timeout=120)
    err, seconds = proc.stderr.rsplit("seconds ", 1)
    assert proc.returncode == 1 and proc.stdout == ""
    assert err == ("error: the character table would have 65537 classes, "
                   "more than the 1024 supported\n")
    assert float(seconds) < 1.0

def test_the_edge_bound_is_inclusive():
    from coxbrauer import brauer_tree as bt
    assert bt.line_series(bt.MAX_EDGES).h0 == 65536 == bt.MAX_EDGES
    with pytest.raises(bt.InvalidSeries, match="more than the 65536 edges"):
        bt.line_series(bt.MAX_EDGES + 1)
    # 65537 is prime and 3 is a primitive root mod it
    assert bt.MetacyclicGroup(65537, bt.MAX_EDGES, 3).e_order == bt.MAX_EDGES
    series = bt.line_series(3)
    assert bt.MAX_MULTIPLICITY == 65536
    assert bt.assemble_tree(series, 65536, 1).multiplicity == 65536
    with pytest.raises(bt.InvalidSeries, match="multiplicity = 65537 is more"):
        bt.assemble_tree(series, 65537, 1)
    obj = bt.tree_to_obj(bt.assemble_tree(series, 1, 1))
    assert bt.obj_to_tree({**obj, "multiplicity": 65536}).multiplicity == 65536
    with pytest.raises(bt.ParseError, match=r"^\$\.multiplicity: 65537 is more"):
        bt.obj_to_tree({**obj, "multiplicity": 65537})
    # mu = (|D| - 1)/|E|: 65536 for |D| = 65537, and 131070 for the prime 2^17 - 1
    assert bt.MetacyclicGroup(65537, 1, 1).d_order == 65537
    with pytest.raises(bt.BadAction, match="= 131070 is more than the 65536"):
        bt.MetacyclicGroup(131071, 1, 1)


def _child(script, *argv):
    """A python child running `script` on argv, with this checkout's src
    first on its path."""
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["info", "--type", "A", "--rank", "513"],
    ["info", "--type", "D513"],
    ["validate", "--type", "2A", "--rank", "513", "--qsq", "2", "--ell", "7"],
], ids=["info", "info-inline", "validate"])
def test_ranks_above_the_bound_are_refused_quickly(argv):
    proc = _child(_TIMED_MAIN, *argv)
    err, seconds = proc.stderr.rsplit("seconds ", 1)
    assert proc.returncode == 1 and proc.stdout == ""
    assert err == "error: rank 513 is more than the 512 supported\n"
    assert float(seconds) < 1.0


def test_the_rank_bound_is_inclusive():
    from coxbrauer import root_data
    assert root_data.MAX_RANK == 512
    for family in ("A", "B", "C", "D", "2A", "2D"):
        assert root_data.parse_type(family, 512).rank == 512
        with pytest.raises(root_data.UnsupportedType,
                           match="^rank 513 is more than the 512 supported$"):
            root_data.parse_type(family, 513)


# _TIMED_MAIN with the child's files capped at 1 MiB too: a report that got
# through would end the child, not fill the disk
_TIMED_MAIN_SMALL_FILES = _TIMED_MAIN.replace(
    "from coxbrauer",
    "resource.setrlimit(resource.RLIMIT_FSIZE, (1 << 20, 1 << 20))\nfrom coxbrauer")


@pytest.mark.parametrize("argv, cells", [
    (["decmatrix", "--fixture", "line8192"], (2 * 8192 + 1) * 8192),
    (["algebra", "--fixture", "line8192"], 2 * 8192 ** 2),
    (["star", "--d", "65537", "--e", "65536", "--n", "3"], 65537 * 65536),
    (["decmatrix", "--fixture", "line4096", "--mu", "65536"],
     (2 * 4096 + 65536) * 4096),
], ids=["decmatrix", "algebra", "star", "decmatrix-mu"])
def test_dense_reports_are_refused_before_they_are_built(argv, cells, tmp_path):
    """Each report would hold more than MAX_REPORT_CELLS = 2^26 cells; the
    refusal comes from (h0, mu) or (|E|, mu), before the matrix or grid.
    A report that got through would go to a file, not into this process."""
    out = tmp_path / "report.json"
    proc = _child(_TIMED_MAIN_SMALL_FILES, *argv, "--out", str(out))
    err, seconds = proc.stderr.rsplit("seconds ", 1)
    report = {"decmatrix": "decmatrix report", "algebra": "algebra report",
              "star": "star decomposition matrix"}[argv[0]]
    assert proc.returncode == 1 and proc.stdout == "" and not out.exists()
    assert err == (f"error: the {report} would have {cells} cells, more than "
                   f"the 67108864 supported\n")
    assert float(seconds) < 1.0


@pytest.mark.parametrize("argv, cells", [
    (["decmatrix", "--fixture", "line3", "--mu", "2"], (2 * 3 + 2) * 3),
    (["algebra", "--fixture", "line3"], 2 * 3 ** 2),
    (["star", "--d", "7", "--e", "3", "--n", "2"], (3 + 2) * 3),
], ids=["decmatrix", "algebra", "star"])
def test_the_report_cell_bound_is_inclusive(argv, cells, capsys, monkeypatch):
    from coxbrauer import brauer_tree as bt
    assert bt.MAX_REPORT_CELLS == 2 ** 26
    bt.check_report_cells("report", bt.MAX_REPORT_CELLS)
    with pytest.raises(ValueError, match="would have 67108865 cells, more than"):
        bt.check_report_cells("report", bt.MAX_REPORT_CELLS + 1)
    # each command counts its report exactly: at the bound it is accepted,
    # one cell more and it is refused
    monkeypatch.setattr(bt, "MAX_REPORT_CELLS", cells)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setattr(bt, "MAX_REPORT_CELLS", cells - 1)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"would have {cells} cells, more than the {cells - 1} supported" in err


@pytest.mark.parametrize("argv", [["algebra"], ["rickard", "--vertex", "0"]],
                         ids=["algebra", "rickard"])
def test_algebras_with_too_many_paths_are_refused_before_they_are_built(argv,
                                                                        tmp_path):
    """single3000, the tree of 3000 single-edge branches, passes the edge
    bound, but its algebra would have 3000 * 3001 basis paths: counted
    from the tree's shape, it is refused before any path is built, where
    it used to end in a MemoryError traceback at 1 GiB."""
    b = 3000
    path = tmp_path / "single3000.json"
    path.write_text(json.dumps({
        "h0": b, "r": 1, "multiplicity": 1, "cyclic_order": list(range(b)),
        "branches": [{"zeta": 0, "m": i, "M": i} for i in range(b)]}))
    proc = _child(_TIMED_MAIN, *argv, "--tree", str(path), "--field", "31")
    err, seconds = proc.stderr.rsplit("seconds ", 1)
    assert proc.returncode == 1 and proc.stdout == ""
    assert err == ("error: the algebra would have 9003000 basis paths, more "
                   "than the 2097152 supported\n")
    assert float(seconds) < 1.0


@pytest.mark.parametrize("argv, terms", [
    (["star", "--d", "65537", "--e", "128", "--n", "13987", "--verify"], 33636864),
    (["star", "--d", "65537", "--e", "256", "--n", "141", "--verify"], 16908544),
], ids=["e128", "e256"])
def test_oracle_tables_with_too_many_terms_are_refused_before_they_are_built(argv, terms):
    """Both groups pass the class bound, with 640 and 512 classes, but
    their character tables would hold more exponent terms than the 2^23
    supported: counted from (|D|, |E|), they are refused before any cell is
    built, where they used to end in a MemoryError traceback at 1 GiB."""
    proc = _child(_TIMED_MAIN, *argv)
    err, seconds = proc.stderr.rsplit("seconds ", 1)
    assert proc.returncode == 1 and proc.stdout == ""
    assert err == (f"error: the character table of |D| = 65537, |E| = {argv[4]} "
                   f"would hold {terms} exponent terms, more than the 8388608 "
                   f"supported\n")
    assert float(seconds) < 1.0


def test_the_end_grid_bound_is_inclusive(monkeypatch):
    """Only a failing family builds the End grid, so the bound is met
    where it is built: a sabotaged family of size s fails with its grid at
    a bound of s^2 cells and is refused at s^2 - 1."""
    from coxbrauer import brauer_tree as bt
    from coxbrauer import homotopy as ho
    from coxbrauer import tree_algebra as ta
    tree = bt.assemble_tree(bt.line_series(3), 2, 1)
    alg = ta.from_tree(tree, 5)
    fam = [ho.rickard_complex(alg, tree, j) for j in range(3)]
    fam[1] = ho.ProjComplex(alg, fam[1].lo, [list(t) for t in fam[1].terms],
                            [[[{}]], []])
    monkeypatch.setattr(bt, "MAX_REPORT_CELLS", 3 ** 2)
    with pytest.raises(ho.TiltingFailure) as failure:
        ho.check_tilting(alg, tree, fam)
    assert len(failure.value.end_grid) == 3
    monkeypatch.setattr(bt, "MAX_REPORT_CELLS", 3 ** 2 - 1)
    with pytest.raises(ValueError, match="^the End grid of the tilting check "
                       "would have 9 cells, more than the 8 supported$"):
        ho.check_tilting(alg, tree, fam)


@pytest.mark.parametrize("argv", [
    ["rickard", "--fixture", "line65536", "--vertex", "3"],
    ["rickard", "--fixture", "line8192", "--vertex", "8000"],
], ids=["line65536", "line8192"])
def test_long_line_complexes_are_reported_in_bounded_memory(argv):
    """Without the tilting check the report is the complex of one vertex:
    its Euler character is read off the edge ends and its cohomology off
    one Hom complex, so nothing grows with h0^2."""
    proc = _child(_TIMED_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["degrees"] == list(range(1, int(argv[-1]) + 2))
    assert float(proc.stderr.rsplit("seconds ", 1)[1]) < 3.0


# a wrapper whose only child is one cli run: RUSAGE_CHILDREN is that run's
_CHILD_MAX_RSS = """
import resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "coxbrauer.cli", *sys.argv[1:]],
                      stdout=subprocess.DEVNULL)
print(proc.returncode, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_passing_tilting_check_holds_no_per_pair_data():
    """line400 has 160,000 member pairs; a pass certifies them all from one
    Hom complex and builds no End grid, so the run stays far below the
    112 MB that per-pair tables took."""
    proc = _child(_CHILD_MAX_RSS, "rickard", "--fixture", "line400", "--mu", "1",
                  "--field", "31", "--vertex", "3", "--check-tilting")
    code, max_rss_kb = map(int, proc.stdout.split())
    assert code == 0
    assert max_rss_kb < 60 * 1024


# a wrapper whose only child runs the script given first (_TIMED_MAIN) on
# the rest: its exit code, the seconds of its cli.main and its max RSS
_TIMED_CHILD_MAX_RSS = """
import resource, subprocess, sys
proc = subprocess.run([sys.executable, "-c", *sys.argv[1:]], text=True,
                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
seconds = proc.stderr.rsplit("seconds ", 1)[1].strip()
print(proc.returncode, seconds, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_tilting_check_at_the_end_grid_bound_answers_in_bounded_time():
    """line8192 has 2^26 member pairs, as many as the End-grid bound
    accepts, and line8193 more: a passing check builds no grid, so the
    bound does not refuse it.  Read pair by pair line8192 took 117.6 s and
    567 MB; certified from the degree counts and rank profiles of one Hom
    complex, the check answers within seconds, in a child capped at 1 GiB
    of address space."""
    for fixture in ("line8192", "line8193"):
        proc = _child(_TIMED_CHILD_MAX_RSS, _TIMED_MAIN, "rickard", "--fixture",
                      fixture, "--mu", "1", "--field", "31", "--vertex", "3",
                      "--check-tilting")
        code, seconds, max_rss_kb = proc.stdout.split()
        assert int(code) == 0
        assert float(seconds) < 5.0
        assert int(max_rss_kb) < 100 * 1024


@pytest.mark.parametrize("command", ["decmatrix", "algebra"])
def test_report_grids_are_held_as_their_nonzeros(command):
    """line2048 at mu = 2 prints 75 MB of grids, 0.1 % of the cells nonzero;
    held as their nonzeros and written row by row, the run stays far below
    the 82 MB that dense h0 x h0 lists took."""
    proc = _child(_CHILD_MAX_RSS, command, "--fixture", "line2048", "--mu", "2")
    code, max_rss_kb = map(int, proc.stdout.split())
    assert code == 0
    assert max_rss_kb < 40 * 1024
