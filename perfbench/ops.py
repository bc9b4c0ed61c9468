"""Operations of the benchmark workloads, how to run them, and how to check them.

Every workload draws its operations from a fixed, finite universe so that the
stdout of each one can be pinned by a sha256 digest recorded once
(`record_digests.py` writes `digests.json`). A seed only chooses among
equivalent queries and sets the order of a round.

The checks here do not trust the program under test: they recompute what
they can (thresholds, verdicts, leaf counts) from first principles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify-sweep", "region-audit", "query-mix")

# Every weight below is an assumption: no usage data exists. Each workload
# gives every input it covers the same weight, and a seed changes only which
# of a few equivalent inputs is asked (query-mix) and the order of the round;
# the work a round does is the same for every seed.

# verify-sweep: consecutive blocks of r from 10 into the low thousands. The
# block 10..19 holds the irrational thresholds; above it, 50 r per call keep
# search and surface, not the CLI's fixed cost, the bulk of each operation.
SMALL_BLOCK = (10, 19)
BLOCK = 50
SWEEP_HI = 1519

# region-audit: the acceptance-criterion-5 jobs, each at every power-of-two
# precision 2^-e between 2^-16 and 2^-256.
REGION_JOBS = ((10, 6), (11, 5), (12, 4)) + tuple((r, 3) for r in range(13, 20))
EXPONENTS = (16, 32, 64, 128, 256)
WIDTH_ENV = "SESHADRI_SQRT_WIDTH_EXPONENT"

# query-mix: at every r of QUERY_R, one classify on each side of mu0(r), one
# coverage and one table; at r = 10 the classify pair is the README's.
QUERY_R = range(10, 41)
README_CLASSIFY = ((10, Fraction(7, 2)), (10, Fraction(16, 5)))
CLASSIFY_PER_SIDE = 4
TABLE_FIXED_R = 12
TABLE_FIXED_ROWS = 27

# trace-only probes
PROBE_PRIME = 1000000000039  # 13-digit prime: worst case for trial division
PROBE_SWEEP_HI = 319  # the probes run the verify-sweep blocks up to this r
PROBE_CACHE = "probe-cache"


@dataclass(frozen=True)
class Op:
    kind: str  # verify, region, classify, coverage, table
    argv: tuple[str, ...]
    exponent: int | None = None  # region only: SESHADRI_SQRT_WIDTH_EXPONENT

    @property
    def key(self) -> str:
        prefix = f"{WIDTH_ENV}={self.exponent} " if self.exponent is not None else ""
        return prefix + " ".join(self.argv)


def verify_op(lo: int, hi: int, *extra: str) -> Op:
    return Op("verify", ("verify", "--r", f"{lo}..{hi}", *extra))


def region_op(r: int, t0: int, exponent: int) -> Op:
    return Op("region", ("region", "--r", str(r), "--t0", str(t0)), exponent)


def classify_op(r: int, mu: Fraction) -> Op:
    return Op("classify", ("classify", "--r", str(r), "--mu", str(mu)))


def coverage_op(r: int) -> Op:
    return Op("coverage", ("coverage", "--r", str(r)))


def table_op(r: int, mu0: str) -> Op:
    return Op("table", ("table", "--r", str(r), "--mu0", mu0))


# --------------------------------------------------------------------------
# independent arithmetic: mu0(r) and comparisons against it


def _less_than_a_plus_b_sqrt(x: Fraction, a: Fraction, b: Fraction, n: int) -> bool:
    """x < a + b*sqrt(n), decided with rationals only."""
    d = x - a  # compare d with b*sqrt(n)
    if b >= 0:
        return d < 0 or d * d < b * b * n
    return d < 0 and d * d > b * b * n


def below_mu0(r: int, mu: Fraction) -> bool:
    """mu < mu0(r), from the published thresholds (77/24, 4 - sqrt(3)/3,
    sqrt(13), (26 - sqrt(13))/6 for r = 10..13, sqrt(r+1) beyond)."""
    if r == 10:
        return mu < Fraction(77, 24)
    if r == 11:
        return _less_than_a_plus_b_sqrt(mu, Fraction(4), Fraction(-1, 3), 3)
    if r == 12:
        return _less_than_a_plus_b_sqrt(mu, Fraction(0), Fraction(1), 13)
    if r == 13:
        return _less_than_a_plus_b_sqrt(mu, Fraction(13, 3), Fraction(-1, 6), 13)
    return _less_than_a_plus_b_sqrt(mu, Fraction(0), Fraction(1), r + 1)


def _is_square(x: Fraction) -> bool:
    return x >= 0 and all(math.isqrt(v) ** 2 == v for v in (x.numerator, x.denominator))


def classify_candidates(r: int) -> tuple[list[Fraction], list[Fraction]]:
    """Rationals mu > sqrt(r): the simplest few below mu0(r) and above it."""
    below, above = set(), set()
    for q in range(1, 17):
        p = math.isqrt(r * q * q)
        while True:
            p += 1
            mu = Fraction(p, q)
            if below_mu0(r, mu):
                below.add(mu)
            elif mu < math.isqrt(r) + 3:
                if q <= 6:
                    above.add(mu)
            else:
                break
    simplest = lambda mu: (mu.denominator, mu)  # noqa: E731
    return (
        sorted(below, key=simplest)[:CLASSIFY_PER_SIDE],
        sorted(above, key=simplest)[:CLASSIFY_PER_SIDE],
    )


def table_thresholds(r: int) -> list[str]:
    """--mu0 values as users type them: sqrt of a small multiple of r, or the
    simplest halves and thirds above sqrt(r+1)."""
    values = [f"sqrt({k * r})" for k in (1, 2, 3, 4)]
    for q in (2, 3):
        p = math.isqrt((r + 1) * q * q) + 1
        values.append(str(Fraction(p, q)))
    return list(dict.fromkeys(values))  # p/2 and p/3 can both be an integer


# --------------------------------------------------------------------------
# universes and seeded rounds


def sweep_blocks(hi: int = SWEEP_HI) -> list[tuple[int, int]]:
    """SMALL_BLOCK, then BLOCK-r blocks up to `hi`."""
    return [SMALL_BLOCK] + [(lo, lo + BLOCK - 1)
                            for lo in range(SMALL_BLOCK[1] + 1, hi + 1, BLOCK)]


def _query_choices(r: int) -> list[list[Op]]:
    """The equivalent queries at one r, one list per query asked."""
    if r == README_CLASSIFY[0][0]:
        sides = [[classify_op(*query)] for query in README_CLASSIFY]
    else:
        sides = [[classify_op(r, mu) for mu in side] for side in classify_candidates(r)]
    return sides + [[coverage_op(r)], [table_op(r, x) for x in table_thresholds(r)]]


def universe(workload: str) -> list[Op]:
    """Every operation a round of this workload can contain."""
    if workload == "verify-sweep":
        return [verify_op(lo, hi) for lo, hi in sweep_blocks()]
    if workload == "region-audit":
        return [region_op(r, t0, e) for r, t0 in REGION_JOBS for e in EXPONENTS]
    if workload == "query-mix":
        return [op for r in QUERY_R for choices in _query_choices(r) for op in choices]
    raise ValueError(f"unknown workload {workload!r}")


def make_round(workload: str, seed: int) -> list[Op]:
    """The seed's round, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "query-mix":
        ops = [rng.choice(choices) for r in QUERY_R for choices in _query_choices(r)]
    else:
        ops = universe(workload)
    rng.shuffle(ops)
    return ops


def probe_ops() -> dict[str, list[Op]]:
    """Trace-only probes for the pool and cache decisions, by metric name:
    the verify-sweep blocks up to PROBE_SWEEP_HI, serially, with a pool of
    two processes, and twice against one cache directory (cold when it is
    fresh, then warm)."""
    blocks = sweep_blocks(PROBE_SWEEP_HI)
    cached = [verify_op(lo, hi, "--cache-dir", PROBE_CACHE) for lo, hi in blocks]
    return {
        "cli.serial_wall_s": [verify_op(lo, hi) for lo, hi in blocks],
        "cli.jobs2_wall_s": [verify_op(lo, hi, "--jobs", "2") for lo, hi in blocks],
        "cli.cache_cold_s": cached,
        "cli.cache_warm_s": cached,
    }


# --------------------------------------------------------------------------
# running one operation in-process


@dataclass
class Outcome:
    op: Op
    seconds: float
    codes: list  # exit code per CLI call; None where main raised
    artifacts: list[bytes]  # stdout per call, plus the certificate file for region
    stderr: str

    @property
    def digests(self) -> list[str]:
        return [hashlib.sha256(a).hexdigest() for a in self.artifacts]


def _call(cli, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an escaped exception is an operation failure
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def execute(op: Op, cli) -> Outcome:
    """Run one operation as a single user would, timing only the CLI calls.

    `cli` is the imported seshadri.cli module; `main` is looked up on it at
    each call, so a tracer's patch is honoured. Runs in the current working
    directory, with SESHADRI_* cleared except the region precision.
    """
    if op.exponent is not None:
        os.environ[WIDTH_ENV] = str(op.exponent)
    try:
        start = time.perf_counter()
        code, out, err = _call(cli, list(op.argv))
        codes, artifacts, errors = [code], [out.encode()], [err]
        if op.kind == "region":
            cert = Path(f"certificate-r{op.argv[2]}-t{op.argv[4]}.json")
            code2, out2, err2 = _call(cli, ["audit-certificate", str(cert)])
            seconds = time.perf_counter() - start
            cert_bytes = cert.read_bytes() if cert.exists() else b""
            codes.append(code2)
            artifacts += [cert_bytes, out2.encode()]
            errors.append(err2)
        else:
            seconds = time.perf_counter() - start
    finally:
        os.environ.pop(WIDTH_ENV, None)
    return Outcome(op, seconds, codes, artifacts, "".join(errors))


# --------------------------------------------------------------------------
# checks


def _walk_certificate(tree) -> tuple[int, int]:
    """(leaves, max depth) of a certificate tree, counted iteratively."""
    leaves, deepest = 0, 0
    stack = [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        children = node.get("children")
        if children:
            stack += [(child, depth + 1) for child in children]
        else:
            leaves += 1
            deepest = max(deepest, depth)
    return leaves, deepest


def facts(outcome: Outcome) -> dict:
    """Counts read from an operation's outputs, for the tracer coverage check
    and the per-layer metrics. Assumes the operation passed `check`."""
    op, texts = outcome.op, outcome.artifacts
    if op.kind == "region":
        summary = json.loads(texts[0])
        leaves, depth = _walk_certificate(json.loads(texts[1])["tree"])
        return {
            "stdout_bytes": len(texts[0]) + len(texts[2]),
            "summary_leaves": summary["leaf_count"],
            "leaves": leaves,
            "max_depth": depth,
            "certificate_bytes": len(texts[1]),
        }
    counts = {"stdout_bytes": len(texts[0])}
    if op.kind == "verify":
        doc = json.loads(texts[0])
        docs = doc["results"] if "results" in doc else [doc]
        counts["check_pair_rows"] = sum(
            len(d["pairs"]) + len(d["small_degree_pairs"] or []) for d in docs
        )
    elif op.kind == "table":
        counts["check_pair_rows"] = _markdown_rows(texts[0].decode())
    return counts


def _markdown_rows(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("|")) - 2


def _check_verify(op: Op, texts: list[bytes], stderr: str) -> list[str]:
    problems = []
    if any(line.startswith("FAIL") for line in stderr.splitlines()):
        problems.append("stderr has a FAIL line")
    doc = json.loads(texts[0])
    docs = doc["results"] if "results" in doc else [doc]
    lo, hi = (int(x) for x in op.argv[2].split(".."))
    if [d["r"] for d in docs] != list(range(lo, hi + 1)):
        problems.append("documents do not cover the requested r range")
    if not all(d["all_pass"] is True for d in docs):
        problems.append("all_pass is not true")
    return problems


def _check_region(op: Op, texts: list[bytes], stderr: str) -> list[str]:
    problems = []
    summary = json.loads(texts[0])
    cert = json.loads(texts[1])
    audit = json.loads(texts[2])
    r, t0 = int(op.argv[2]), int(op.argv[4])
    if (summary["r"], summary["t0"], cert["r"], cert["t0"]) != (r, t0, r, t0):
        problems.append("certificate is for another job")
    if cert["sqrt_width"] != f"1/{2 ** op.exponent}":
        problems.append(f"certificate width {cert['sqrt_width']} ignores {WIDTH_ENV}")
    leaves, depth = _walk_certificate(cert["tree"])
    if leaves != summary["leaf_count"] or depth != summary["max_depth"]:
        problems.append(
            f"certificate has {leaves} leaves at depth {depth}, summary says "
            f"{summary['leaf_count']} at {summary['max_depth']}"
        )
    if audit["ok"] is not True or audit["problems"]:
        problems.append(f"audit rejected the certificate: {audit['problems']}")
    return problems


def _check_classify(op: Op, texts: list[bytes], stderr: str) -> list[str]:
    doc = json.loads(texts[0])
    r, mu = int(op.argv[2]), Fraction(op.argv[4])
    below = below_mu0(r, mu)
    if not below:
        expected = "RationalWithWitness"
    elif _is_square(mu * mu - r):
        expected = "RationalSqrt"
    else:
        expected = "ConditionallyIrrational"
    problems = []
    if (doc["r"], doc["mu"]) != (r, str(mu)):
        problems.append("answer is for another query")
    if doc["verdict"] != expected or doc["mu_below_mu0"] is not below:
        problems.append(f"verdict {doc['verdict']}, expected {expected}")
    if (doc["witness"] is None) == (expected == "RationalWithWitness"):
        problems.append("witness presence does not match the verdict")
    if doc["l_squared"] != str(mu * mu - r):
        problems.append("l_squared is wrong")
    return problems


def _check_coverage(op: Op, texts: list[bytes], stderr: str) -> list[str]:
    doc = json.loads(texts[0])
    if doc["r"] != int(op.argv[2]) or doc["covered"] is not True or doc["gaps"]:
        return [f"coverage reports gaps {doc['gaps']}"]
    return []


def _check_table(op: Op, texts: list[bytes], stderr: str) -> list[str]:
    text = texts[0].decode()
    rows = _markdown_rows(text)
    if not text.startswith(f"## r = {op.argv[2]} "):
        return ["table is for another r"]
    if op.argv[2] == str(TABLE_FIXED_R) and rows != TABLE_FIXED_ROWS:
        return [f"table --r 12 has {rows} rows, expected {TABLE_FIXED_ROWS}"]
    if rows < 1:
        return ["table has no rows"]
    return []


_SEMANTIC_CHECKS = {
    "region": _check_region,
    "verify": _check_verify,
    "classify": _check_classify,
    "coverage": _check_coverage,
    "table": _check_table,
}


def check(outcome: Outcome, digests: dict | None) -> list[str]:
    """Problems with one operation's outputs; empty when it passed.

    Exit codes must be 0, the semantic checks must hold, and, when `digests`
    is given, every artifact must match its digest recorded at the seed.
    """
    op = outcome.op
    if outcome.codes != [0] * len(outcome.codes):
        return [f"{op.key}: exit codes {outcome.codes}: {outcome.stderr.strip()[-300:]}"]
    try:
        problems = _SEMANTIC_CHECKS[op.kind](op, outcome.artifacts, outcome.stderr)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        problems = [f"malformed output: {exc!r}"]
    if digests is not None:
        expected = digests.get(op.key)
        if expected is None:
            problems.append("no digest recorded for this operation")
        elif outcome.digests != expected:
            problems.append("output differs from the digest recorded at the seed")
    return [f"{op.key}: {p}" for p in problems]
