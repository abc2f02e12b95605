"""Regime decisions of `coxbrauer validate` over a fixed grid of triples.

tests/golden/validate_grid.json holds, for every family (one rank each
where the family needs one), every q in QS (and, for the Suzuki and Ree
types, q^2 = p, p^3, p^5, p^7), and every prime ell dividing
|T_c(q)| * h * |W^F| plus 2 and 3, the exit code of `validate` and its
reason or eigenvalue table.  The replay takes the triples from the file
and factors nothing.  Regenerate only when a decision is meant to change:

    PYTHONPATH=src python tests/test_validate_grid.py --write
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from coxbrauer import cli

GRID = Path(__file__).parent / "golden" / "validate_grid.json"

RANKS = {"A": 3, "B": 3, "C": 3, "D": 4, "2A": 3, "2D": 4}
QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


def _validate(type_name: str, qsq: int, ell: int) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["validate", "--type", type_name, "--qsq", str(qsq),
                         "--ell", str(ell)])
    return code, buf.getvalue()


def _report(code: int, outcome) -> str:
    """The full `validate` report of a grid entry (reason or table)."""
    valid = code == 0
    obj = {"valid": valid, "reason": None if valid else outcome,
           "eigenvalue_table": outcome if valid else None}
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_validate_grid_replays():
    cases = json.loads(GRID.read_text(encoding="utf-8"))["cases"]
    for type_name, qsq, ell, code, outcome in cases:
        assert _validate(type_name, qsq, ell) == (code, _report(code, outcome)), \
            (type_name, qsq, ell)
    outcomes = {"valid" if code == 0 else outcome.split(":")[0]
                for _, _, _, code, outcome in cases}
    assert outcomes == {"valid", "BadParameter", "DividesWeylOrder",
                        "NotDividing", "WrongOrder"}


def _grid_triples():
    from coxbrauer.numtheory import factorize
    from coxbrauer.root_data import (FAMILIES, coxeter_datum, parse_type,
                                     torus_order_poly, weyl_fixed_order)
    for family in FAMILIES:
        datum = coxeter_datum(parse_type(family, RANKS.get(family)))
        p = datum.type.sqrt_prime
        qs = set(QS) | ({p, p ** 3, p ** 5, p ** 7} if p else set())
        for qsq in sorted(qs):
            try:
                torus = torus_order_poly(datum).evaluate(qsq)
            except ValueError:        # q^2 not an odd power of p
                torus = 1
            primes = set(factorize(torus * datum.h * weyl_fixed_order(datum)))
            for ell in sorted(primes | {2, 3}):
                yield datum.type.name, qsq, ell


def _write_grid():
    cases = []
    for type_name, qsq, ell in _grid_triples():
        code, out = _validate(type_name, qsq, ell)
        report = json.loads(out)
        outcome = report["eigenvalue_table"] if code == 0 else report["reason"]
        cases.append([type_name, qsq, ell, code, outcome])
    text = ",\n".join(json.dumps(c) for c in cases)
    GRID.write_text('{"cases": [\n' + text + "\n]}\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GRID.name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_validate_grid.py --write")
    _write_grid()
