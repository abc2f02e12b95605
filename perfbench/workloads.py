"""Seeded job lists for the two benchmark workloads, and the checks that
hold every report to values computed here, independently of coxbrauer.

A job is one `coxbrauer` CLI invocation (run in-process through
`coxbrauer.cli.main`) or, for a trim job, one sequence of public
`coxbrauer.homotopy` calls.  `trees` holds the tilting, trim and
tree-scale jobs, which run the tree, algebra and complex code; `oracle`
holds the star oracle jobs, which bypass it.  Each job family has a fixed
ladder of input shapes: the shapes set how much work a job does, and the seed picks every
detail that does not (branch order, root-of-unity tags, homological
offset, vertex, field, action exponent, padding and basis mixing, job
order).  The figures of two seeds
are therefore comparable, while no seed's inputs are the same as
another's.
"""

from __future__ import annotations

import functools
import io
import json
import random
import signal
import sys
import time
from dataclasses import dataclass, field

WORKLOADS = ("trees", "oracle")

# A job running longer than this is stopped and recorded as "timeout".
JOB_CAP_S = 30.0


class JobTimeout(BaseException):
    """Raised inside a job when it hits its cap.  A BaseException, so that
    no handler in the program under test can swallow it."""


@dataclass
class Job:
    kind: str                       # rickard, star, decmatrix, algebra, trim
    label: str
    argv: list[str] = field(default_factory=list)
    stdin: str | None = None
    spec: dict = field(default_factory=dict)


@dataclass
class Outcome:
    status: str                     # ok, failed, error or timeout
    seconds: float
    cpu_seconds: float
    code: int | None = None         # exit code of the job
    text: str = ""                  # its report
    reason: str = ""


# ---------------------------------------------------------------------------
# input ladders

# (h0, branch lengths, mu): long branches make large Hom complexes.  The
# multiplicity is fixed per shape: it moves a job's cost by up to a fifth.
TILTING_SHAPES = (
    (16, (16,), 1), (20, (20,), 2), (24, (24,), 1),
    (16, (10, 6), 1), (17, (9, 8), 2), (17, (13, 4), 1), (18, (12, 6), 2),
    (19, (10, 9), 1), (19, (15, 4), 2), (20, (14, 6), 1), (21, (11, 10), 2),
    (22, (16, 6), 1), (22, (11, 11), 2), (23, (17, 6), 1), (24, (16, 8), 2),
)
TILTING_FIELD = 31

# (|D|, |E|, jobs); the action exponents n are seeded, distinct within a
# stratum.  (49, 6) comes twice so that the median job is not one of the
# 0.1 s jobs, whose times scatter most.  |D| = 49 with |E| = 1 (2 s) and
# |D| = 125 with |E| = 1 or 2 (18 s or more per job) are left out to keep
# a pass near 10 s; they wait for a faster oracle.
ORACLE_STRATA = (
    (25, 1, 1), (25, 4, 1), (27, 1, 1), (27, 2, 1),
    (49, 2, 1), (49, 3, 1), (49, 6, 2), (125, 4, 1),
)

# (h0, branch lengths, mu); each tree is one decmatrix and one algebra job.
TREE_SCALE_SHAPES = (
    (100, (100,), 1),
    (108, (60, 48), 2),
    (116, (50, 40, 26), 3),
    (124, (40, 36, 28, 20), 4),
    (132, (40, 32, 24, 20, 16), 1),
    (140, (36, 30, 26, 20, 16, 12), 2),
    (150, (30, 26, 24, 20, 18, 16, 10, 6), 4),
    (160, (90, 70), 3),
)
TREE_SCALE_FIELDS = (5, 7, 11, 13)

TRIM_H0 = range(5, 10)
TRIM_MU = (1, 2, 3)
TRIM_PADS = (2, 3, 4)           # taken in turn, so each count is a third
TRIM_FIELDS = (5, 7, 11, 13, 17, 19, 23, 29, 31)

# The tiny inputs of --smoke: every layer is still reached.
SMOKE_TILTING_SHAPES = ((4, (4,), 2), (5, (3, 2), 1))
SMOKE_ORACLE_STRATA = ((25, 4, 1), (27, 2, 1))
SMOKE_TREE_SCALE_SHAPES = ((12, (7, 5), 2),)
SMOKE_TRIM_H0 = range(3, 4)


def build(workload: str, seed: int, smoke: bool = False) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    families = {"trees": (_tilting_jobs, _trim_jobs, _tree_scale_jobs),
                "oracle": (_oracle_jobs,)}[workload]
    jobs = [job for family in families for job in family(rng, smoke)]
    rng.shuffle(jobs)
    return jobs


def _branches(rng, lengths) -> list[tuple[int, int]]:
    """Consecutive intervals [m, M] with the lengths in a seeded order."""
    order = list(lengths)
    rng.shuffle(order)
    out, m = [], 0
    for length in order:
        out.append((m, m + length - 1))
        m += length
    return out


def _tree_obj(rng, h0: int, branches, mu: int, r: int, labels: bool) -> dict:
    obj = {
        "h0": h0, "r": r, "multiplicity": mu,
        "branches": [{"zeta": rng.randrange(4 * h0), "m": m, "M": M}
                     for m, M in branches],
        # the successor rule m' = M + 1 visits consecutive intervals in order
        "cyclic_order": [m for m, _ in branches],
    }
    if labels:
        picks = rng.sample(range(h0), k=min(4, h0))
        obj["labels"] = {str(v): f"chi{v}" for v in sorted(picks)}
    return obj


def _tilting_jobs(rng, smoke) -> list[Job]:
    jobs = []
    ree_vertex = rng.randrange(6)
    jobs.append(Job("rickard", "ree-F19",
                    ["rickard", "--fixture", "2g2", "--vertex", str(ree_vertex),
                     "--check-tilting"],
                    spec={"h0": 6, "mu": 3, "r": None, "vertex": ree_vertex,
                          "branches": [(0, 1), (2, 2), (3, 3), (4, 4), (5, 5)]}))
    for h0, lengths, mu in (SMOKE_TILTING_SHAPES if smoke else TILTING_SHAPES):
        vertex = rng.randrange(h0)
        branches = _branches(rng, lengths)
        spec = {"h0": h0, "mu": mu, "vertex": vertex, "branches": branches}
        if len(lengths) == 1:
            # a line fixture; --r 0 is read as 1, so offsets start at 1
            r = rng.choice((1, 2))
            argv = ["rickard", "--fixture", f"line{h0}", "--mu", str(mu),
                    "--r", str(r)]
            stdin = None
        else:
            r = rng.choice((0, 1, 2))
            argv = ["rickard", "--tree", "-"]
            stdin = json.dumps(_tree_obj(rng, h0, branches, mu, r, False))
        argv += ["--field", str(TILTING_FIELD), "--vertex", str(vertex),
                 "--check-tilting"]
        jobs.append(Job("rickard", f"h0={h0} branches={list(lengths)} mu={mu}",
                        argv, stdin, dict(spec, r=r)))
    return jobs


def _trim_jobs(rng, smoke) -> list[Job]:
    jobs = []
    for h0 in (SMOKE_TRIM_H0 if smoke else TRIM_H0):
        for mu in TRIM_MU:
            for vertex in range(h0):
                n_pads = TRIM_PADS[len(jobs) % len(TRIM_PADS)]
                spec = {"h0": h0, "mu": mu, "vertex": vertex,
                        "field": rng.choice(TRIM_FIELDS),
                        "r": rng.choice((0, 1, 2)), "pads": n_pads,
                        "rng": rng.getrandbits(64)}
                jobs.append(Job("trim", f"line{h0} mu={mu} S{vertex} "
                                        f"pads={n_pads}", spec=spec))
    return jobs


def action_exponents(d: int, e: int) -> list[int]:
    """Every n in 1..d-1 with n^e = 1 mod d whose residue mod ell has
    order exactly e, found by brute force."""
    ell = next(p for p in range(2, d + 1) if d % p == 0)

    def order_mod_ell(x):
        k, y = 1, x % ell
        while y != 1:
            y, k = y * x % ell, k + 1
        return k

    return [n for n in range(1, d)
            if pow(n, e, d) == 1 and n % ell and order_mod_ell(n) == e]


def _oracle_jobs(rng, smoke) -> list[Job]:
    jobs = []
    for d, e, count in (SMOKE_ORACLE_STRATA if smoke else ORACLE_STRATA):
        for n in rng.sample(action_exponents(d, e), count):
            jobs.append(Job("star", f"D={d} E={e} n={n}",
                            ["star", "--d", str(d), "--e", str(e), "--n", str(n),
                             "--verify"],
                            spec={"d": d, "e": e, "n": n}))
    return jobs


def _tree_scale_jobs(rng, smoke) -> list[Job]:
    jobs = []
    for h0, lengths, mu in (SMOKE_TREE_SCALE_SHAPES if smoke
                            else TREE_SCALE_SHAPES):
        branches = _branches(rng, lengths)
        obj = _tree_obj(rng, h0, branches, mu, rng.randrange(4), True)
        text = json.dumps(obj)
        spec = {"h0": h0, "mu": mu, "branches": branches,
                "field": rng.choice(TREE_SCALE_FIELDS)}
        label = f"h0={h0} branches={len(lengths)} mu={mu}"
        jobs.append(Job("decmatrix", label, ["decmatrix", "--tree", "-"],
                        text, spec))
        jobs.append(Job("algebra", label,
                        ["algebra", "--tree", "-", "--field", str(spec["field"])],
                        text, spec))
    return jobs


# ---------------------------------------------------------------------------
# running one job

class _Alarm:
    """SIGALRM-based cap on the wall time of one job."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def _fire(self, signum, frame):
        raise JobTimeout()

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def _run_cli(cli, job: Job) -> tuple[int, str]:
    out = io.StringIO()
    sys.stdout = out
    if job.stdin is not None:
        sys.stdin = io.StringIO(job.stdin)
    return cli.main(list(job.argv)), out.getvalue()


def _run_trim(api, job: Job) -> tuple[int, str]:
    bt, ta, ho = api.brauer_tree, api.tree_algebra, api.homotopy
    s = job.spec
    rng = random.Random(s["rng"])
    tree = bt.assemble_tree(bt.line_series(s["h0"]), s["mu"], s["r"])
    alg = ta.from_tree(tree, s["field"])
    cx = ho.rickard_complex(alg, tree, s["vertex"])
    padded = cx
    for _ in range(s["pads"]):
        padded = ho.pad_with_contractible(
            padded, rng.randint(cx.lo - 1, cx.hi), rng.choice(alg.vertices))
    mixed = ho.mix_basis(padded, rng)
    trimmed = ho.trim(mixed, cx.lo, cx.hi)
    span = cx.hi - cx.lo
    shifts = range(-span, span + 1)
    report = {
        "lo": trimmed.lo,
        "terms": trimmed.terms,
        "padded_terms": [len(t) for t in mixed.terms],
        "diffs": [[[sorted([p.src, p.kind, str(p.node), p.steps, c]
                           for p, c in entry.items()) for entry in row]
                   for row in mat] for mat in trimmed.diffs],
        "hom_trimmed": [ho.homotopy_hom(trimmed, cx, i) for i in shifts],
        "hom_original": [ho.homotopy_hom(cx, cx, i) for i in shifts],
    }
    return 0, json.dumps(report, sort_keys=True)


def run_job(api, job: Job, cap: float = JOB_CAP_S) -> Outcome:
    """Run one job under its cap and check its report; `api` is the
    imported coxbrauer package."""
    saved = sys.stdout, sys.stdin
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with _Alarm(cap):
            if job.kind == "trim":
                code, text = _run_trim(api, job)
            else:
                code, text = _run_cli(api.cli, job)
    except JobTimeout:
        return Outcome("timeout", time.perf_counter() - t0,
                       time.process_time() - c0, reason=f"hit the {cap:g} s cap")
    except Exception as exc:        # a crash of the program is a failed job
        return Outcome("error", time.perf_counter() - t0,
                       time.process_time() - c0,
                       reason=f"{type(exc).__name__}: {exc}")
    finally:
        # restored here, after the one-shot alarm is spent or disarmed
        sys.stdout, sys.stdin = saved
    seconds, cpu = time.perf_counter() - t0, time.process_time() - c0
    reason = check(job, code, text)
    return Outcome("failed" if reason else "ok", seconds, cpu, code, text,
                   reason or "")


# ---------------------------------------------------------------------------
# expected values

def check(job: Job, code: int, text: str) -> str | None:
    """None when the report is right, else the first discrepancy."""
    if code != 0:
        return f"exit code {code}"
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    return _CHECKS[job.kind](job.spec, report)


def _expect(name, got, want):
    return None if got == want else f"{name}: got {got!r}, want {want!r}"


def _first(*results):
    return next((r for r in results if r), None)


def _check_rickard(s, rep):
    h0, mu, j = s["h0"], s["mu"], s["vertex"]
    m = next(m for m, M in s["branches"] if m <= j <= M)
    end_dim = h0 * (h0 * mu + 1)          # the star algebra of (h0, mu)
    degrees = rep.get("degrees")
    if not degrees or not isinstance(degrees, list):
        return f"degrees: got {degrees!r}"
    # the Ree fixture takes its offset from the Coxeter datum
    lo = degrees[0] if s["r"] is None else s["r"]
    want_degrees = list(range(lo, lo + j - m + 1))
    return _first(
        _expect("vertex", rep.get("vertex"), j),
        _expect("degrees", rep.get("degrees"), want_degrees),
        _expect("terms", rep.get("terms"),
                {str(d): [m + d - lo] for d in want_degrees}),
        _expect("tilting", rep.get("tilting"),
                {"ok": True, "end_dimension": end_dim,
                 "expected_end_dimension": end_dim}))


def star_decomposition(e: int, mu: int) -> list[list[int]]:
    """Identity rows for the e linear characters over mu all-ones rows."""
    return ([[int(i == j) for j in range(e)] for i in range(e)]
            + [[1] * e for _ in range(mu)])


def _check_star(s, rep):
    d, e = s["d"], s["e"]
    mu = (d - 1) // e
    want = star_decomposition(e, mu)
    tree = rep.get("tree") or {}
    return _first(
        _expect("match", rep.get("match"), True),
        _expect("decomposition", rep.get("decomposition"), want),
        _expect("oracle", rep.get("oracle"), want),
        _expect("tree.h0", tree.get("h0"), e),
        _expect("tree.multiplicity", tree.get("multiplicity"), mu),
        _expect("tree.star.d_order", (tree.get("star") or {}).get("d_order"), d))


def _tree_facts(s):
    return _facts_of(s["h0"], s["mu"], tuple(map(tuple, s["branches"])))


@functools.lru_cache(maxsize=32)
def _facts_of(h0, mu, branches):
    """Decomposition matrix, Cartan matrix, dimension, arrows and height
    order of a generated tree."""
    start = {}
    for m, M in branches:
        for j in range(m, M + 1):
            start[j] = m
    # D: chi_v is an end of S_v and, inside its branch, of S_(v+1)
    dec = [[0] * h0 for _ in range(h0 + mu)]
    for j in range(h0):
        dec[j][j] = 1
        if start[j] == j:
            for t in range(mu):
                dec[h0 + t][j] = 1
        else:
            dec[j - 1][j] = 1
    cartan = [[0] * h0 for _ in range(h0)]
    for row in dec:                         # D^T D, one sparse row at a time
        ones = [c for c, x in enumerate(row) if x]
        for a in ones:
            for b in ones:
                cartan[a][b] += 1
    # dimension: sum over edges of 2 + sum over its ends of (deg * mult - 1)
    n_branches = len(branches)
    last = {M for _, M in branches}
    dim = 0
    for j in range(h0):
        exc_or_inner = n_branches * mu - 1 if start[j] == j else 1
        outer = 0 if j in last else 1
        dim += 2 + exc_or_inner + outer
    # arrows e -> predecessor of e at every node whose cycle has length > 1
    ext1 = [[0] * h0 for _ in range(h0)]
    starts = [m for m, _ in branches]
    if len(starts) * mu > 1:
        for k, e in enumerate(starts):
            ext1[e][starts[k - 1]] += 1
    for m, M in branches:
        for v in range(m, M):               # chi_v joins S_v and S_(v+1)
            ext1[v][v + 1] += 1
            ext1[v + 1][v] += 1
    heights = [j - start[j] for j in range(h0)]
    order = sorted(range(h0), key=lambda j: (-heights[j], j))
    return dec, cartan, dim, ext1, order


def _check_decmatrix(s, rep):
    dec, cartan, _, _, order = _tree_facts(s)
    h0, mu = s["h0"], s["mu"]
    return _first(
        _expect("rows", rep.get("rows"),
                [f"chi{j}" for j in range(h0)] + [f"exc{t}" for t in range(mu)]),
        _expect("columns", rep.get("columns"), list(range(h0))),
        _expect("matrix", rep.get("matrix"), dec),
        _expect("cartan", rep.get("cartan"), cartan),
        _expect("unitriangular", rep.get("unitriangular"), True),
        _expect("order", rep.get("order"), order))


def _check_algebra(s, rep):
    _, cartan, dim, ext1, _ = _tree_facts(s)
    return _first(
        _expect("dimension", rep.get("dimension"), dim),
        _expect("field", rep.get("field"), s["field"]),
        _expect("vertices", rep.get("vertices"), list(range(s["h0"]))),
        _expect("cartan", rep.get("cartan"), cartan),
        _expect("ext1", rep.get("ext1"), ext1))


def _check_trim(s, rep):
    # on a line tree the branch complex of S_j is P_0 -> ... -> P_j from r
    j = s["vertex"]
    return _first(
        _expect("lo", rep.get("lo"), s["r"]),
        _expect("terms", rep.get("terms"), [[i] for i in range(j + 1)]),
        _expect("padded terms", sum(rep.get("padded_terms", [])),
                j + 1 + 2 * s["pads"]),
        _expect("homotopy_hom", rep.get("hom_trimmed"), rep.get("hom_original")))


_CHECKS = {"rickard": _check_rickard, "star": _check_star,
           "decmatrix": _check_decmatrix, "algebra": _check_algebra,
           "trim": _check_trim}

# The field a corrupted report has one added to.
_CORRUPT_PATH = {"rickard": ("tilting", "end_dimension"),
                 "star": ("decomposition", 0, 0),
                 "decmatrix": ("cartan", 0, 0),
                 "algebra": ("dimension",),
                 "trim": ("lo",)}


def corrupt_report(job: Job, text: str) -> str:
    """The report with one checked number off by one."""
    try:
        report = json.loads(text)
        *path, last = _CORRUPT_PATH[job.kind]
        node = report
        for key in path:
            node = node[key]
        node[last] += 1
    except (json.JSONDecodeError, KeyError, IndexError, TypeError):
        return text + "corrupted"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
