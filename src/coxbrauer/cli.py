"""Command line surface.

Subcommands: info, validate, tree, decmatrix, algebra, rickard, star,
selftest.  Every report is deterministic JSON with sorted keys; DOT output
is available for trees.  Exit codes: 0 for success and verified checks,
2 when a mathematical verification fails (regime invalid, oracle mismatch,
tilting failure, selftest failure), 1 for usage or IO errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import brauer_tree as bt
from . import homotopy as ho
from . import oracle as orc
from . import selftest as st
from . import tree_algebra as ta
from .ell_arith import BadRegime, eigenvalue_table, validate_regime
from .linalg import SparseMatrix
from .root_data import (coxeter_datum, group_order_poly, parse_type,
                        torus_order_poly)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(ValueError):
    pass


# JSON schemas published for the reports (draft-07 subset)
POLY_SCHEMA = {
    "type": "object",
    "properties": {
        "coeffs": {"type": "array",
                   "items": {"type": "array", "items": {"type": "integer"},
                             "minItems": 2, "maxItems": 2}},
        "sqrt_prime": {"type": ["integer", "null"]},
        "pretty": {"type": "string"},
    },
    "required": ["coeffs", "sqrt_prime", "pretty"],
}

TREE_SCHEMA = {
    "type": "object",
    "properties": {
        "h0": {"type": "integer"},
        "r": {"type": "integer"},
        "multiplicity": {"type": "integer"},
        "branches": {"type": "array", "items": {
            "type": "object",
            "properties": {"zeta": {"type": "integer"},
                           "m": {"type": "integer"},
                           "M": {"type": "integer"}},
            "required": ["zeta", "m", "M"]}},
        "cyclic_order": {"type": "array", "items": {"type": "integer"}},
        "labels": {"type": "object"},
        "annotations": {"type": "object"},
        "star": {"type": "object"},
    },
    "required": ["h0", "r", "multiplicity", "branches", "cyclic_order"],
}

SCHEMAS = {
    "info": {
        "type": "object",
        "properties": {
            "type": {"type": "string"}, "rank": {"type": "integer"},
            "h": {"type": "integer"}, "h0": {"type": "integer"},
            "delta": {"type": "integer"}, "r": {"type": "integer"},
            "degrees": {"type": "array", "items": {"type": "integer"}},
            "group_order": POLY_SCHEMA, "torus_order": POLY_SCHEMA,
        },
        "required": ["type", "h", "h0", "delta", "r", "degrees",
                     "group_order", "torus_order"],
    },
    "validate": {
        "type": "object",
        "properties": {
            "valid": {"type": "boolean"},
            "reason": {"type": ["string", "null"]},
            "eigenvalue_table": {"type": ["array", "null"],
                                 "items": {"type": "integer"}},
        },
        "required": ["valid", "reason", "eigenvalue_table"],
    },
    "tree": TREE_SCHEMA,
    "decmatrix": {
        "type": "object",
        "properties": {
            "rows": {"type": "array", "items": {"type": "string"}},
            "columns": {"type": "array", "items": {"type": "integer"}},
            "matrix": {"type": "array",
                       "items": {"type": "array", "items": {"type": "integer"}}},
            "cartan": {"type": "array",
                       "items": {"type": "array", "items": {"type": "integer"}}},
            "unitriangular": {"type": "boolean"},
            "order": {"type": "array", "items": {"type": "integer"}},
        },
        "required": ["rows", "columns", "matrix", "cartan", "unitriangular"],
    },
    "algebra": {
        "type": "object",
        "properties": {
            "dimension": {"type": "integer"},
            "field": {"type": "integer"},
            "cartan": {"type": "array",
                       "items": {"type": "array", "items": {"type": "integer"}}},
            "ext1": {"type": "array",
                     "items": {"type": "array", "items": {"type": "integer"}}},
            "vertices": {"type": "array", "items": {"type": "integer"}},
        },
        "required": ["dimension", "field", "cartan", "ext1", "vertices"],
    },
    "rickard": {
        "type": "object",
        "properties": {
            "vertex": {"type": "integer"},
            "degrees": {"type": "array", "items": {"type": "integer"}},
            "terms": {"type": "object"},
            "euler": {"type": "object"},
            "cohomology": {"type": "object"},
            "tilting": {"type": ["object", "null"]},
        },
        "required": ["vertex", "degrees", "terms", "euler", "cohomology",
                     "tilting"],
    },
    "star": {
        "type": "object",
        "properties": {
            "tree": TREE_SCHEMA,
            "decomposition": {"type": "array",
                              "items": {"type": "array",
                                        "items": {"type": "integer"}}},
            "oracle": {"type": ["array", "null"],
                       "items": {"type": "array", "items": {"type": "integer"}}},
            "match": {"type": ["boolean", "null"]},
        },
        "required": ["tree", "decomposition", "oracle", "match"],
    },
    "selftest": {
        "type": "object",
        "properties": {
            "results": {"type": "array", "items": {
                "type": "object",
                "properties": {"name": {"type": "string"},
                               "ok": {"type": "boolean"},
                               "detail": {"type": "string"},
                               "seconds": {"type": "number"}},
                "required": ["name", "ok", "detail", "seconds"]}},
            "ok": {"type": "boolean"},
        },
        "required": ["results", "ok"],
    },
}


def _emit(obj, out_path: str | None):
    _write(chain(_dumps(obj), ["\n"]), out_path)


def _dumps(obj, indent: str = "\n", lead: str = ""):
    """The chunks of what json.dumps gives with sorted keys and a two-space
    indent, byte for byte, with `lead` (the text before the value) put in
    front of the first chunk.  A SparseMatrix is written as the list of its
    rows, each row spliced from its stored entries (see _matrix_rows).

    json uses its C encoder only for compact output, so the containers are
    laid out here and every key and leaf goes through the C encoder.  The
    chunks are yielded as they are laid out, so that no report is held as
    one string: a leaf, a whole list of plain ints or of plain strs (each
    str through json's own ASCII escaper) or a matrix row with what leads
    up to it, or a closing bracket.  Keys must be str."""
    if isinstance(obj, SparseMatrix):
        yield from _matrix_rows(obj, indent, lead)
        return
    if not obj or not isinstance(obj, (dict, list, tuple)):
        yield lead + json.dumps(obj)
        return
    inner = indent + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError(f"report keys must be str: {list(obj)!r}")
        head = lead + "{" + inner
        for k, v in sorted(obj.items()):
            yield from _dumps(v, inner, head + json.dumps(k) + ": ")
            head = sep
        yield indent + "}"
        return
    # one C-level pass over the item types; a bool is not an int here, and
    # a str subclass takes the generic path
    types = set(map(type, obj))
    if types == {int} or types == {str}:
        leaf = str if types == {int} else encode_basestring_ascii
        yield lead + "[" + inner + sep.join(map(leaf, obj)) + indent + "]"
        return
    head = lead + "[" + inner
    for x in obj:
        yield from _dumps(x, inner, head)
        head = sep
    yield indent + "]"


def _matrix_rows(a: SparseMatrix, indent: str, lead: str):
    """The chunks of a SparseMatrix laid out as _dumps lays out the list of
    its dense rows: one chunk per row.  The text of an all-zero row is
    built once per matrix, and each row is that text with str(x) of each
    stored entry spliced in at its column's offset, so a row costs its
    entries plus the bytes written.  A row object repeated, as the
    exceptional rows of a decomposition matrix are, is written once."""
    n_rows, n = a.shape
    if not n_rows:
        yield lead + "[]"
        return
    inner = indent + "  "
    cell = inner + "  "
    # column c's "0" sits at offset start + c * step of the zero row
    zero_row = "[" + cell + ("," + cell).join(["0"] * n) + inner + "]" if n else "[]"
    start, step = 1 + len(cell), 2 + len(cell)
    head, last, text = lead + "[" + inner, None, ""
    for row in a.rows:
        if row is not last:
            last = row
            parts, done = [], 0
            for c, x in sorted(row.items()):
                at = start + c * step
                parts += (zero_row[done:at], str(x))
                done = at + 1
            parts.append(zero_row[done:])
            text = "".join(parts)
        yield head + text
        head = "," + inner
    yield indent + "]"


def _write(chunks, out_path: str | None):
    if out_path in (None, "-"):
        sys.stdout.writelines(chunks)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _poly_obj(poly):
    return {"coeffs": [list(c) for c in poly.coeffs],
            "sqrt_prime": poly.p, "pretty": poly.pretty()}


def _refuse(args, options, source: str):
    """Usage error naming each of `options` given, none applying to `source`."""
    given = [f"--{o}" for o in options if getattr(args, o) is not None]
    if given:
        raise _UsageError(f"{', '.join(given)} cannot be used with {source}")


def _load_tree(args) -> bt.PlanarBrauerTree:
    """Resolve the mutually exclusive --tree / --fixture input sources."""
    if args.tree is not None:
        _refuse(args, ("fixture", "qsq", "ell", "mu", "r"), "--tree")
        if args.tree == "-":
            return bt.from_json(sys.stdin.read())
        with open(args.tree, encoding="utf-8") as fh:
            return bt.from_json(fh.read())
    name = args.fixture
    if name is None:
        raise _UsageError("one of --tree or --fixture is required")
    if name.lower() == "2g2":
        _refuse(args, ("mu", "r"), "the 2g2 fixture")
        return bt.ree_tree(bt.REE_QSQ if args.qsq is None else args.qsq,
                           bt.REE_ELL if args.ell is None else args.ell)
    series, labels = bt.fixture_series(name)
    _refuse(args, ("qsq", "ell"), f"the {name} fixture")
    mu = args.mu if args.mu is not None else 1
    r = args.r if args.r is not None else 1
    return bt.assemble_tree(series, mu, r, labels=labels)


def _tree_args(sub, with_field=False):
    sub.add_argument("--tree", help="tree JSON file, or - for stdin")
    sub.add_argument("--fixture", help="builtin fixture: 2g2 or lineN")
    sub.add_argument("--qsq", type=int, help="q^2 for the 2g2 fixture (default 27)")
    sub.add_argument("--ell", type=int, help="the prime ell for the 2g2 fixture (default 19)")
    sub.add_argument("--mu", type=int, help="multiplicity for line fixtures")
    sub.add_argument("--r", type=int, help="homological offset for line fixtures")
    if with_field:
        sub.add_argument("--field", type=int, default=None,
                         help="prime field order for the tree algebra")
    sub.add_argument("--out", default="-", help="output path, - for stdout")


def _field_for(tree, args) -> int:
    """--field if given; else the ell the tree comes from: the star's
    (its metadata is checked on load) or the Ree fixture's regime; else 5."""
    if args.field is not None:
        return args.field
    if tree.star is not None:
        return tree.star.ell
    if args.tree is None and args.fixture.lower() == "2g2":
        return bt.REE_ELL if args.ell is None else args.ell
    return 5


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="coxbrauer", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="Coxeter datum and order polynomials")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--out", default="-")

    p = subs.add_parser("validate", help="check a (type, q, ell) regime")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int)
    p.add_argument("--qsq", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--out", default="-")

    p = subs.add_parser("tree", help="build a planar Brauer tree")
    _tree_args(p)
    p.add_argument("--format", choices=["json", "dot"], default="json")

    p = subs.add_parser("decmatrix", help="decomposition and Cartan matrices")
    _tree_args(p)

    p = subs.add_parser("algebra", help="tree algebra invariants")
    _tree_args(p, with_field=True)

    p = subs.add_parser("rickard", help="branch complex of a vertex")
    _tree_args(p, with_field=True)
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--check-tilting", action="store_true")

    p = subs.add_parser("star", help="star tree with the metacyclic oracle")
    p.add_argument("--d", type=int, required=True, help="|D|, a prime power")
    p.add_argument("--e", type=int, required=True, help="|E|")
    p.add_argument("--n", type=int, required=True, help="action exponent")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out", default="-")

    p = subs.add_parser("selftest", help="run the acceptance fixture suite")
    p.add_argument("--filter", help="run only criteria whose name contains this")
    p.add_argument("--out", default="-")
    return parser


def _cmd_info(args) -> int:
    datum = coxeter_datum(parse_type(args.type, args.rank))
    _emit({
        "type": datum.type.family, "rank": datum.type.rank,
        "h": datum.h, "h0": datum.h0, "delta": datum.delta, "r": datum.r,
        "degrees": list(datum.degrees),
        "group_order": _poly_obj(group_order_poly(datum)),
        "torus_order": _poly_obj(torus_order_poly(datum)),
    }, args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    datum = coxeter_datum(parse_type(args.type, args.rank))
    try:
        ctx = validate_regime(datum, args.qsq, args.ell)
    except BadRegime as exc:
        _emit({"valid": False, "reason": str(exc), "eigenvalue_table": None},
              args.out)
        return EXIT_VERIFICATION
    table = eigenvalue_table(ctx)
    _emit({"valid": True, "reason": None,
           "eigenvalue_table": [table[j] for j in range(ctx.h0)]}, args.out)
    return EXIT_OK


def _cmd_tree(args) -> int:
    tree = _load_tree(args)
    if args.format == "dot":
        _write([bt.to_dot(tree)], args.out)
    else:
        _emit(bt.tree_to_obj(tree), args.out)
    return EXIT_OK


def _cmd_decmatrix(args) -> int:
    tree = _load_tree(args)
    # the matrix, h0 + mu rows of h0, and the h0 x h0 Cartan matrix
    bt.check_report_cells("decmatrix report",
                          (2 * tree.h0 + tree.multiplicity) * tree.h0)
    d = bt.decomposition_matrix(tree)
    ok, order = bt.check_unitriangular(d)
    _emit({
        "rows": [f"{kind}{idx}" for kind, idx in d.row_labels],
        "columns": d.col_edges,
        "matrix": d.matrix,
        "cartan": bt.cartan_matrix(d),
        "unitriangular": ok,
        "order": order,
    }, args.out)
    return EXIT_OK


def _cmd_algebra(args) -> int:
    tree = _load_tree(args)
    bt.check_report_cells("algebra report", 2 * tree.h0 ** 2)   # cartan, ext1
    alg = ta.from_tree(tree, _field_for(tree, args))
    report = {
        "dimension": alg.dim,
        "field": alg.ell,
        "vertices": alg.vertices,
        "cartan": ta.hom_grid(alg),
        "ext1": ta.ext1_grid(alg),
    }
    del tree, alg       # only the report is held while it is written
    _emit(report, args.out)
    return EXIT_OK


def _cmd_rickard(args) -> int:
    tree = _load_tree(args)
    if args.vertex not in tree.edges:
        raise _UsageError(f"vertex {args.vertex} out of range "
                          f"0..{tree.h0 - 1}")
    alg = ta.from_tree(tree, _field_for(tree, args))
    cx = ho.rickard_complex(alg, tree, args.vertex)
    coh = ho.cohomology(cx)
    chi, exc = ho.euler_character(tree, cx)
    report = {
        "vertex": args.vertex,
        "degrees": list(cx.degrees()),
        "terms": {str(d): sorted(cx.term(d)) for d in cx.degrees()},
        "euler": {"chi": list(chi), "exc": exc},
        "cohomology": {str(d): {str(v): c for v, c in sorted(counts.items())}
                       for d, counts in sorted(coh.items())},
        "tilting": None,
    }
    code = EXIT_OK
    if args.check_tilting:
        try:
            end_dim = ho.check_tilting(alg, tree)
            report["tilting"] = {"ok": True, "end_dimension": end_dim,
                                 "expected_end_dimension": end_dim}
        except ho.TiltingFailure as exc:
            report["tilting"] = {
                "ok": False, "detail": exc.summary(),
                "end_grid": {"labels": list(range(len(exc.end_grid))),
                             "dims": exc.end_grid,
                             "expected": exc.expected_end_grid},
                "hom_dims": [list(x) for x in exc.hom_dims]}
            code = EXIT_VERIFICATION
    _emit(report, args.out)
    return code


def _cmd_star(args) -> int:
    tree = bt.star_tree(args.d, args.e, args.n)
    bt.check_report_cells("star decomposition matrix",
                          (tree.h0 + tree.multiplicity) * tree.h0)
    tree_d = bt.decomposition_matrix(tree).matrix
    report = {"tree": bt.tree_to_obj(tree), "decomposition": tree_d,
              "oracle": None, "match": None}
    code = EXIT_OK
    if args.verify:
        oracle_d = orc.brute_decomposition_matrix(tree.star)
        report["oracle"] = oracle_d
        try:
            report["match"] = orc.verify_star(tree, tree.star, oracle_d, tree_d)
        except orc.Mismatch as exc:
            report["match"] = False
            report["mismatch"] = str(exc)
            code = EXIT_VERIFICATION
    _emit(report, args.out)
    return code


def _cmd_selftest(args) -> int:
    results = st.run_all(args.filter)
    if not results:
        raise _UsageError(f"no selftest criterion matches {args.filter!r}")
    for r in results:
        sys.stderr.write(r.line() + "\n")
    _emit({"ok": all(r.ok for r in results),
           "results": [{"name": r.name, "ok": r.ok, "detail": r.detail,
                        "seconds": round(r.elapsed, 3)} for r in results]},
          args.out)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFICATION


_COMMANDS = {
    "info": _cmd_info,
    "validate": _cmd_validate,
    "tree": _cmd_tree,
    "decmatrix": _cmd_decmatrix,
    "algebra": _cmd_algebra,
    "rickard": _cmd_rickard,
    "star": _cmd_star,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (orc.Mismatch, orc.SingularSystem, ho.TiltingFailure) as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
