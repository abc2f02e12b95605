"""Byte-identity of CLI reports against captured golden output.

Every capture under tests/golden/ is the stdout of one CLI invocation.
Refactors and speed-ups must leave all of them byte for byte as they are.
`coxbrauer selftest` reports timings, so only its shape is captured: the
report with the seconds of each criterion taken out, which keeps the
criteria names, PASS/FAIL and details.  The failure reports of the tilting
check on sabotaged families run to megabytes, so each is captured as the
exit code and SHA-256 digest of its stdout.  Regenerate only when a report
is meant to change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coxbrauer import cli
from coxbrauer import homotopy as ho

GOLDEN = Path(__file__).parent / "golden"
TWO_BRANCH = str(GOLDEN / "two_branch20.tree.json")
# h0 = 48 in six branches, mu = 3, with labels: grids that are mostly zero
WIDE = str(GOLDEN / "wide48.tree.json")

CAPTURES = {
    "2g2_decmatrix.json": ["decmatrix", "--fixture", "2g2"],
    "2g2_algebra.json": ["algebra", "--fixture", "2g2"],
    "2g2_rickard_tilting.json": ["rickard", "--fixture", "2g2", "--vertex", "1",
                                 "--check-tilting"],
    "line12_rickard_tilting.json": ["rickard", "--fixture", "line12", "--mu", "2",
                                    "--r", "1", "--field", "31", "--vertex", "7",
                                    "--check-tilting"],
    "two_branch20_decmatrix.json": ["decmatrix", "--tree", TWO_BRANCH],
    "two_branch20_algebra.json": ["algebra", "--tree", TWO_BRANCH,
                                  "--field", "31"],
    "two_branch20_rickard_tilting.json": ["rickard", "--tree", TWO_BRANCH,
                                          "--field", "31", "--vertex", "17",
                                          "--check-tilting"],
    "wide48_decmatrix.json": ["decmatrix", "--tree", WIDE],
    "wide48_algebra.json": ["algebra", "--tree", WIDE, "--field", "31"],
    "wide48_rickard_tilting.json": ["rickard", "--tree", WIDE, "--field", "31",
                                    "--vertex", "40", "--check-tilting"],
    "line40.dot": ["tree", "--fixture", "line40", "--format", "dot"],
    # one exceptional row object, with one nonzero, printed three times
    "line40_mu3_decmatrix.json": ["decmatrix", "--fixture", "line40", "--mu", "3"],
    "line40_mu3_algebra.json": ["algebra", "--fixture", "line40", "--mu", "3",
                                "--field", "31"],
    "2g2_tree.json": ["tree", "--fixture", "2g2"],
    "two_branch20_tree.json": ["tree", "--tree", TWO_BRANCH],
    "star_d7_e3_n2_verify.json": ["star", "--d", "7", "--e", "3", "--n", "2",
                                  "--verify"],
    "star_d27_e2_n26_verify.json": ["star", "--d", "27", "--e", "2", "--n", "26",
                                    "--verify"],
    "2g2_validate_q27_ell19.json": ["validate", "--type", "2G2", "--qsq", "27",
                                    "--ell", "19"],
    "2g2_info.json": ["info", "--type", "2G2"],
    "2f4_info.json": ["info", "--type", "2F4"],
    "3d4_info.json": ["info", "--type", "3D4"],
    "2e6_info.json": ["info", "--type", "2E6"],
    "e8_info.json": ["info", "--type", "E8"],
    "star_d121_e5_n3_verify.json": ["star", "--d", "121", "--e", "5", "--n", "3",
                                    "--verify"],
    "star_d125_e4_n57_verify.json": ["star", "--d", "125", "--e", "4", "--n", "57",
                                     "--verify"],
}

SELFTEST_SHAPE = "selftest_shape.json"

# The tilting captures rerun with one complex of the canonical family
# sabotaged: its boundaries zeroed, its lowest degree shifted up by one, or
# the complex dropped.  The targets are branch tops, and members below the
# top where a tree has fewer than three branches.  C_2 and C_5 of 2g2 are
# stalks, which have no boundary to zero: those two families must pass.
SABOTAGE_TARGETS = {
    "line12_rickard_tilting.json": (11, 10, 5),
    "2g2_rickard_tilting.json": (1, 2, 5),
    "two_branch20_rickard_tilting.json": (11, 19, 18),
    "wide48_rickard_tilting.json": (8, 22, 47),
}
SABOTAGES = ("zero", "shift", "drop")
SABOTAGE_DIGESTS = "tilting_failures.sha256"
SABOTAGED = [f"{name} {kind} {target}" for name, targets in SABOTAGE_TARGETS.items()
             for kind in SABOTAGES for target in targets]


def _without_seconds(stdout: str) -> str:
    """A selftest report with the timing of each criterion taken out."""
    report = json.loads(stdout)
    for result in report["results"]:
        del result["seconds"]
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _selftest_shape() -> tuple[int, str]:
    """Exit code and report of `coxbrauer selftest` without the timings."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["selftest"])
    return code, _without_seconds(buf.getvalue())


@pytest.mark.parametrize("name", sorted(CAPTURES))
def test_report_is_byte_identical(name, capsys):
    code = cli.main(CAPTURES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_selftest_shape_is_byte_identical():
    code, shape = _selftest_shape()
    assert code == 0
    assert shape == (GOLDEN / SELFTEST_SHAPE).read_text(encoding="utf-8")


def _sabotaged_run(family: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one tilting capture run on a
    sabotaged family ("<capture> <sabotage> <target>")."""
    name, kind, target = family.split()
    target = int(target)
    real = ho.check_tilting

    def sabotaged(alg, tree):
        fam = [ho.rickard_complex(alg, tree, j) for j in sorted(alg.vertices)]
        cx = fam[target]
        if kind == "zero":
            fam[target] = ho.ProjComplex(alg, cx.lo, cx.terms)
        elif kind == "shift":
            fam[target] = ho.ProjComplex(alg, cx.lo + 1, cx.terms, cx.diffs)
        else:
            del fam[target]
        return real(alg, tree, fam)

    out, err = io.StringIO(), io.StringIO()
    ho.check_tilting = sabotaged
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(CAPTURES[name])
    finally:
        ho.check_tilting = real
    return code, out.getvalue(), err.getvalue()


def _digest_line(family: str) -> str:
    code, out, err = _sabotaged_run(family)
    if err:
        raise AssertionError(f"{family}: stderr {err!r}")
    return f"{code} {hashlib.sha256(out.encode()).hexdigest()} {family}\n"


def _recorded_digests() -> dict[str, str]:
    lines = (GOLDEN / SABOTAGE_DIGESTS).read_text(encoding="utf-8").splitlines()
    return {line.split(" ", 2)[2]: line + "\n" for line in lines}


def test_sabotaged_families_are_all_recorded():
    recorded = _recorded_digests()
    assert sorted(recorded) == sorted(SABOTAGED) and len(SABOTAGED) == 36
    passing = {f for f, line in recorded.items() if not line.startswith("2 ")}
    assert passing == {"2g2_rickard_tilting.json zero 2",
                       "2g2_rickard_tilting.json zero 5"}


@pytest.mark.parametrize("family", SABOTAGED)
def test_tilting_failure_report_is_byte_identical(family):
    """Each sabotaged family gets the exit code and the stdout, with its end
    grid and Hom dimensions, that were captured."""
    assert _digest_line(family) == _recorded_digests()[family]


def _run_optimized(argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI run as a child under python -O, which strips bare asserts."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-O", "-m", "coxbrauer.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


def test_selftest_holds_under_python_O():
    """The selftest must not rest on any bare assert."""
    proc = _run_optimized(["selftest"])
    assert proc.returncode == 0, proc.stderr
    assert (_without_seconds(proc.stdout)
            == (GOLDEN / SELFTEST_SHAPE).read_text(encoding="utf-8"))


def test_star_verify_holds_under_python_O():
    """The oracle's checks must not rest on any bare assert either."""
    name = "star_d125_e4_n57_verify.json"
    proc = _run_optimized(CAPTURES[name])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text(encoding="utf-8")


def _write_captures():
    for name, argv in sorted(CAPTURES.items()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / name).write_text(buf.getvalue(), encoding="utf-8")
        print(f"wrote {name}")
    code, shape = _selftest_shape()
    if code != 0:
        raise SystemExit(f"{SELFTEST_SHAPE}: exit code {code}")
    (GOLDEN / SELFTEST_SHAPE).write_text(shape, encoding="utf-8")
    print(f"wrote {SELFTEST_SHAPE}")
    (GOLDEN / SABOTAGE_DIGESTS).write_text(
        "".join(map(_digest_line, SABOTAGED)), encoding="utf-8")
    print(f"wrote {SABOTAGE_DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_golden.py --write")
    _write_captures()
