"""Command-line interface.

Subcommands
-----------
table              critical pairs at one r, Table-style (default markdown)
enumerate          critical pairs over a range of r (default json)
verify             check every critical pair against the threshold; exit 1 on failure
region             certify the multiplicity cut-off by bisection; writes a certificate
classify           rationality status of epsilon(mu) at a rational mu
coverage           chain the witness catalog over the target ray; exit 1 on gaps
audit-certificate  replay a previously written region certificate; exit 1 on defects

Exit codes: 0 pass, 1 verification failure, 2 usage error (also a
certificate that cannot be written), 3 inconclusive (bisection hit its depth
limit before closing every piece), 4 internal error (any other exception,
such as a broken premise the search checks: one stderr line
`internal error: <Type>: <message>`, no traceback).

Every command line takes one of two routes. A well-formed one (a command,
then its exact flags, each but --approx with one value that does not start
with "-", every required one given) is read straight from the option table
_COMMANDS, from which build_parser also makes its parsers. Any other goes
to the two-level parse of build_parser: the top-level parser, which hands
the rest to the subparser.
Both give the same namespace, and every usage line, help text, error and
exit code is the two-level parse's own. The handler takes one argument, the
parsed command line that resolve_config has checked and completed, and
returns its documents, each with its stderr lines (FAIL and AUDIT lines);
table, enumerate, verify and coverage share one handler, driven by
_RANGE_COMMANDS, whose per-r builders each take the call's one _RangePlan
and return the document and its FAIL lines, written where the failing check
is made. The plan holds the --mu0 and sqrt(r + 1) for every r, from one
sieve over the block. Every mu0 printed without a --mu0 comes from
thresholds.threshold, checked above sqrt(r). No handler reads the output
format: _write_documents alone reads --format and --approx. It writes each
document as soon as it is built, so a range holds one at a time, and hands
main the lines of each document written;
main picks the exit code: 1 when there is a line or a document whose
verdict (all_pass, covered or ok) is false, else 0. Handlers raise usage
errors and inconclusive bisections, which main turns into exit codes 2 and
3; a stdout whose reader has gone is exit 2 too, help and version included.
Any other exception is exit 4, after what a range wrote before it. Every
exit writes the lines of the documents written, then main's own one-line
message. A format the command does not offer (csv outside the range
commands) is refused before the handler runs.

Settings are flags (--format, --cache-dir, --depth, --jobs, --approx), with
their defaults in the option table. The one exception is the width 2^-e of
the sqrt enclosures region starts from, which region alone reads from
SESHADRI_SQRT_WIDTH_EXPONENT (e in 1..256): every other command prints the
same bytes whatever the variable holds. No config file and no other
variable is read. Every r is computed in this process, in ascending order:
--jobs is accepted and has no effect, and --cache-dir only names the
directory region writes its certificate to; the other commands accept it
and ignore it.

Reports always carry exact values as canonical strings ("77/24",
"4 - 1/3*sqrt(3)"); --approx appends 6-digit decimal columns next to them.
JSON output is serialized with sorted keys so reruns are byte-identical.
Every JSON document (stdout and certificates) is written by `_dumps`, whose
output matches `json.dumps(doc, sort_keys=True, indent=2)` byte for byte:
one walk over the document, each dict sorting its own keys. verify's
documents from r = 20 on are fixed by what their checks decided, apart from
a few ints and texts: written as JSON, each is a template that `_dumps`
wrote once per command and decision, filled with that r's ints and texts.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import __version__
from .errors import (
    DepthLimitExceeded,
    InvalidT,
    InvalidT0,
    NotAboveSqrtR,
    SeshadriError,
    UnsupportedR,
)
from .exact import (
    DEFAULT_SQRT_WIDTH_EXPONENT,
    QuadraticNumber,
    parse_quadratic,
    read_rendered,
    sqrt_block,
)
from .region import (
    DEFAULT_DEPTH_LIMIT,
    MAX_DEPTH_LIMIT,
    MAX_NUMBER_LENGTH,
    audit_certificate,
    large_r_inequalities,
    verify_t_bound,
)
from .search import (
    Outcome as PairOutcome,
    check_pair,
    small_degree_pairs,
    total_multiplicity_bound,
    verify_no_counterexample,
)
from .thresholds import classify, threshold, verify_coverage

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

FORMATS = ("json", "markdown", "csv")

MAX_RADICAND = 10**18
# Largest r any command takes. A range command over several r splits every
# r + 1 of its block by one segmented sieve over the primes up to the cube
# root of the largest (exact.sqrt_block). On a 2-vCPU host the sieve takes
# about 17 ms for the first r near 10^18, nearly all of it listing the
# primes up to 10^6, and about 1 microsecond for each further r. A single r
# + 1 is split by trial division (exact.squarefree_decomposition), about
# 25 ms there. Both grow as the cube root of r: one r ran past 20 s at
# 10^29. region spells r in the certificate file name.
MAX_R = 10**18
# Most values of r one range may hold. Each r costs time, but memory stays
# flat, since each document is written as soon as it is built: on a 2-vCPU
# host verify --r 20..100019 peaks at 40 MB, and the costliest range the two
# caps admit, verify --r (10^18 - 99999)..10^18 (which ran for 44 minutes
# before the sieve), at 44 MB, with or without --approx.
MAX_R_COUNT = 10**5
# Largest --t0 that region takes: the certificate file name spells it, and
# far larger values outgrow file names and the interpreter's limit on
# int-to-string conversion.
MAX_T0 = 10**18
# Most digits a --mu may have in its numerator or denominator as written.
# classify prints mu^2 - r, whose terms have twice as many, and this keeps
# them within MAX_NUMBER_LENGTH (and the interpreter's 4300-digit limit on
# int-to-string conversion).
MAX_MU_DIGITS = MAX_NUMBER_LENGTH // 2
_RADICAND_RE = re.compile(r"sqrt\((\d+)\)")
# Every text Fraction reads, and a few it refuses: p/q, or a decimal with an
# optional exponent; digits may carry underscores.
_MU_RE = re.compile(
    r"\s*[-+]?(?P<whole>[\d_]*)(?:\s*/\s*(?P<den>[\d_]+)"
    r"|(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?)\s*"
)


class UsageError(SeshadriError):
    """Bad command line, bad configuration, or out-of-domain request."""


def parse_r_range(text: str) -> tuple[int, int]:
    """"12" -> (12, 12); "10..19" -> (10, 19). An r past MAX_R, or a range
    of more than MAX_R_COUNT values, is refused."""
    s = text.strip()
    try:
        if ".." in s:
            lo_text, _, hi_text = s.partition("..")
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(s)
    except ValueError:
        raise UsageError(f"cannot parse r range from {text!r}") from None
    if lo > hi:
        raise UsageError(f"empty r range {text!r}")
    if hi > MAX_R:
        raise UsageError(f"--r must be at most {MAX_R}")
    if hi - lo >= MAX_R_COUNT:
        raise UsageError(f"an --r range may hold at most {MAX_R_COUNT} values")
    return lo, hi


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Check a parsed command line and complete it in place: the flags,
    range-checked; r_min and r_max, from --r (0 without one); and
    cache_dir, None when empty. It reads no environment. Returns args."""
    if not 1 <= args.bisection_depth <= MAX_DEPTH_LIMIT:
        raise UsageError(
            f"--depth must be in 1..{MAX_DEPTH_LIMIT}, got {args.bisection_depth}"
        )
    if args.parallelism < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.parallelism}")
    args.r_min = args.r_max = 0
    if getattr(args, "r", None) is not None:
        args.r_min, args.r_max = parse_r_range(args.r)
    args.cache_dir = args.cache_dir or None
    return args


# --------------------------------------------------------------------------
# result documents (pure data)


class _RangePlan:
    """What a range command over lo..hi computes once per call and reads at
    every r: given, the --mu0 parsed once, or None; and roots, sqrt(r + 1)
    for each r, from exact.sqrt_block (one sieve over the block of r + 1
    when it holds several), or None under a --mu0, since sqrt(r + 1) then
    feeds nothing. cmd_range builds the plan and hands it to each per-r
    builder; it knows nothing of how the documents are written."""

    __slots__ = ("given", "lo", "roots")

    def __init__(self, lo: int, hi: int, mu0: QuadraticNumber | None) -> None:
        self.given = mu0
        self.lo = lo
        self.roots = sqrt_block(lo + 1, hi + 1) if mu0 is None else None

    def mu0(self, r: int) -> QuadraticNumber:
        """The --mu0 given, else threshold(r, sqrt(r + 1)).mu0, which
        passes ThresholdEntry's check that it sits above sqrt(r)."""
        if self.given is not None:
            return self.given
        return threshold(r, self.roots[r - self.lo]).mu0


def _pair_record(text: str, t: int, total: int, delta: int, mu_minus, outcome: str) -> dict:
    """A pair row: the pair's class text, t and M, and its verdict's delta,
    mu_minus text (None when delta < 0) and outcome."""
    return {
        "class": text,
        "t": t,
        "M": total,
        "delta": delta,
        "mu_minus": mu_minus,
        "outcome": outcome,
    }


def _below_mu0_line(r: int, text: str, t: int, mu_minus: str, mu0_text: str) -> str:
    return f"FAIL r={r}: {text} t={t} has mu_minus = {mu_minus} below mu0 = {mu0_text}"


def _pair_rows(r: int, mu0: QuadraticNumber) -> tuple[str, list[dict], list[str]]:
    """mu0's text, a pair row per critical pair of verify_no_counterexample,
    and a FAIL line per pair that does not pass."""
    report = verify_no_counterexample(r, mu0)
    mu0_text = report.mu0.render()
    rows, lines = [], []
    for pair, verdict in report.pairs:
        text, t, mu_minus = pair.curve.render(), pair.t, verdict.mu_minus
        mu_minus = None if mu_minus is None else mu_minus.render()
        rows.append(_pair_record(
            text, t, pair.curve.total_multiplicity, verdict.delta, mu_minus,
            verdict.outcome.value,
        ))
        if not verdict.passed:
            lines.append(_below_mu0_line(r, text, t, mu_minus, mu0_text))
    return mu0_text, rows, lines


def _pairs_doc(command: str, r: int, plan: _RangePlan) -> tuple[dict, list[str]]:
    """table and enumerate at r: the pair rows alone, which fail nothing."""
    mu0_text, rows, _ = _pair_rows(r, plan.mu0(r))
    return {"command": command, "r": r, "mu0": mu0_text, "rows": rows}, []


def _verify_doc(r: int, plan: _RangePlan) -> tuple[dict | tuple, list[str]]:
    """verify at r, with a FAIL line for each check that fails where it is
    made: a pair below mu0, a small-degree pair with delta >= 0, large-r
    inequalities that do not hold. all_pass is the absence of FAIL lines.
    mu0 is plan.mu0(r): the --mu0 given, else threshold(r) from the plan's
    sqrt(r + 1).

    For r = 10..19 the document is a dict, with the pair rows and FAIL
    lines of _pair_rows, the writer _pairs_doc uses too, from
    verify_no_counterexample. From r = 20 on it is the checks of
    _large_r_checks, (pairs, key, values): the pairs checked, what the
    checks decided and the ints and texts they gave. _write_documents lays
    them out (_large_r_layout), or fills the key's JSON template with them.
    """
    if r < 20:
        mu0_text, pairs, lines = _pair_rows(r, plan.mu0(r))
        return {
            "command": "verify",
            "r": r,
            "mu0": mu0_text,
            "all_pass": not lines,
            "pairs": pairs,
            "small_degree_pairs": None,
            "large_r": None,
        }, lines
    return _large_r_checks(r, plan)


def _large_r_checks(r: int, plan: _RangePlan) -> tuple[tuple[tuple, tuple, list], list[str]]:
    """verify's checks at an r >= 20, (pairs, key, values): the five pairs of
    small_degree_pairs(r), the document's key and values, in the order
    _large_r_layout reads them; and the FAIL lines.

    A pair with M <= total_multiplicity_bound(r) is a critical pair (the
    rule of enumerate_critical_pairs, held equal to it by the tests) and
    gets a pair row, and every pair gets a small-degree row. Each row is
    written from its own check_pair call, so a pair with both rows is
    checked twice. A FAIL line renders the class of the pair that failed.
    The FAIL lines keep the order of the checks: pair rows, then
    small-degree rows, then the large-r inequalities. The key is a flat
    tuple of what the checks decided: per pair, its pair row's outcome
    (None without one) and whether its delta is negative; then (i), (ii)
    and all_pass. The values are r, mu0's text, and each row's delta and
    mu_minus text (which a pair row has unless its outcome is
    PassNegativeDelta).

    large_r_inequalities(r) gives degree_five_inequality, (i), which rules
    out every degree d >= 5, and small_degree_inequality, (ii), the
    hi(c) < 0 condition of the t0 = 3 root leaf. No small-degree row is
    derived from (ii); the document keeps its name because the verify bytes
    are pinned.
    """
    mu0 = plan.mu0(r)
    mu0_text = mu0.render()
    bound = total_multiplicity_bound(r)
    pairs = small_degree_pairs(r)
    key, values, lines, small_lines = [], [r, mu0_text], [], []
    for pair in pairs:
        outcome = None
        if pair.curve.total_multiplicity <= bound:
            verdict = check_pair(pair, mu0)
            outcome, mu_minus = verdict.outcome, verdict.mu_minus
            values.append(verdict.delta)
            if mu_minus is not None:
                mu_minus = mu_minus.render()
                values.append(mu_minus)
            if not verdict.passed:
                text = pair.curve.render()
                lines.append(_below_mu0_line(r, text, pair.t, mu_minus, mu0_text))
        delta = check_pair(pair, mu0).delta
        values.append(delta)
        key += (outcome, delta < 0)
        if delta >= 0:
            small_lines.append(f"FAIL r={r}: small-degree pair {pair.curve.render()} "
                               f"t={pair.t} has delta = {delta} >= 0")
    lines += small_lines
    first, second = large_r_inequalities(r)
    if not (first and second):
        lines.append(f"FAIL r={r}: large-r inequalities do not hold")
    key += (first, second, not lines)
    return (pairs, tuple(key), values), lines


def _large_r_layout(pairs: tuple, key: tuple, values) -> dict:
    """verify's document at an r >= 20: each row's class text, t and M from
    the pairs, and the key and values of _large_r_checks, read in its order.
    It computes nothing else and never looks into a value, so marker values
    give the key's template (_json_template)."""
    take = iter(values).__next__
    decided = iter(key).__next__
    r, mu0_text = take(), take()
    pair_records, small_records = [], []
    for pair in pairs:
        text, t, total = pair.curve.render(), pair.t, pair.curve.total_multiplicity
        outcome = decided()
        if outcome is not None:
            delta = take()
            mu_minus = None if outcome is PairOutcome.PASS_NEGATIVE_DELTA else take()
            pair_records.append(_pair_record(text, t, total, delta, mu_minus, outcome.value))
        small_records.append({
            "class": text,
            "t": t,
            "M": total,
            "delta": take(),
            "negative_delta": decided(),
        })
    large_r = {"degree_five_inequality": decided(), "small_degree_inequality": decided()}
    return {
        "command": "verify",
        "r": r,
        "mu0": mu0_text,
        "all_pass": decided(),
        "pairs": pair_records,
        "small_degree_pairs": small_records,
        "large_r": large_r,
    }


def _coverage_doc(r: int, plan: _RangePlan) -> tuple[dict, list[str]]:
    """Coverage at r, with a FAIL line per gap. sqrt(r + 1) comes from the
    plan; coverage takes no --mu0."""
    doc = {"command": "coverage", **verify_coverage(r, plan.roots[r - plan.lo]).to_json_dict()}
    return doc, [f"FAIL r={r}: coverage gap ({lo}, {hi})" for lo, hi in doc["gaps"]]


# The commands over an r range: per-r builder, called as build(r, plan)
# and returning the document and its FAIL lines, and the smallest r.
_RANGE_COMMANDS = {
    "table": (functools.partial(_pairs_doc, "table"), 10),
    "enumerate": (functools.partial(_pairs_doc, "enumerate"), 10),
    "verify": (_verify_doc, 10),
    "coverage": (_coverage_doc, 1),
}
# A document whose field of one of these names is false fails its command.
_VERDICT_FIELDS = ("all_pass", "covered", "ok")
# What every handler returns: each document (a dict, or verify's checks at an
# r >= 20) and its stderr lines.
Outcome = Iterable[tuple[dict | tuple, list[str]]]


# --------------------------------------------------------------------------
# JSON


# The text _dumps writes for _json_template's marker value "\x00<index>\x00".
_MARKER_RE = re.compile(r'"\\u0000(\d+)\\u0000"')


def _json_text(doc: object, depth: int) -> str:
    """_dumps(doc) at nesting depth `depth` of a larger document: 2 * depth
    more spaces after each newline, as _dumps writes none inside a string."""
    text = _dumps(doc)
    return text.replace("\n", "\n" + "  " * depth) if depth else text


def _json_template(
    pairs: tuple, key: tuple, values: list, depth: int
) -> tuple[bytes, tuple, itemgetter]:
    """The template of the _large_r_layout of these pairs and this key, for
    values of the same types as these (each an int or a str): its _json_text
    at this nesting depth, filled with marker values, with each marker's
    text made a slot, %s for a text and %d for an int (every other %
    doubled), as ASCII bytes; the indices of the texts; and an itemgetter of
    the values in slot order. The template % the values so ordered, each
    text given as the bytes of its encode_basestring_ascii, is the
    _json_text of _large_r_layout(pairs, key, values) at that depth. bytes %
    finds each slot with memchr, where str % reads every character: on a
    2-vCPU host a 1.2 KB document fills in 0.3 against 0.7 microseconds,
    decoding included. The layout places each value once, as it is, in a
    slot of its own."""
    count = len(values)
    texts = tuple(i for i, value in enumerate(values) if type(value) is str)
    markers = [f"\x00{i}\x00" for i in range(count)]
    text = _json_text(_large_r_layout(pairs, key, markers), depth)
    order = []

    def slot(match: re.Match) -> str:
        i = int(match[1])
        order.append(i)
        return "%s" if i in texts else "%d"

    template = _MARKER_RE.sub(slot, text.replace("%", "%%"))
    if sorted(order) != list(range(count)):
        raise RuntimeError(f"the layout placed its {count} values in slots {order}")
    return template.encode(), texts, itemgetter(*order)


def _dumps(doc: object) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)`, byte for byte.

    `indent` sends `json` to its pure-Python encoder, which this walk
    outpaces. Strings go through the C routine `encode_basestring_ascii`
    and ints through `int.__repr__`, as `json` does. It takes dicts with str
    keys, lists, tuples, str, int, bool and None, and raises TypeError on
    anything else. Containers are entered with an explicit stack, so nesting
    depth is not bounded by the recursion limit; each frame is the iterator
    of a container's (prefix, child) pairs and the text that closes it."""
    parts: list[str] = []
    append = parts.append
    stack: list[tuple] = []
    items = iter((("", doc),))
    close = ""
    while True:
        for prefix, value in items:
            append(prefix)
            kind = type(value)
            if kind is str:
                append(encode_basestring_ascii(value))
            elif kind is int:
                append(int.__repr__(value))
            elif value is None:
                append("null")
            elif value is True:
                append("true")
            elif value is False:
                append("false")
            elif kind is dict or kind is list or kind is tuple:
                if not value:
                    append("{}" if kind is dict else "[]")
                    continue
                newline = "\n" + "  " * len(stack)
                inner = newline + "  "
                if kind is dict:
                    keys = sorted(value)
                    # encode_basestring_ascii raises TypeError on a non-str key
                    prefixes = [
                        "," + inner + encode_basestring_ascii(key) + ": " for key in keys
                    ]
                    prefixes[0] = prefixes[0][1:]
                    children = zip(prefixes, map(value.__getitem__, keys))
                    append("{")
                    closing = newline + "}"
                else:
                    children = zip(chain((inner,), repeat("," + inner)), value)
                    append("[")
                    closing = newline + "]"
                stack.append((items, close))
                items, close = children, closing
                break
            else:
                raise TypeError(f"cannot write {kind.__name__} as JSON")
        else:
            append(close)
            if not stack:
                return "".join(parts)
            items, close = stack.pop()


# --------------------------------------------------------------------------
# certificate file


def _atomic_write(path: str, text: str) -> None:
    """Write text to path through a temporary file in its directory. A path
    that cannot be written (under a regular file, say) is a UsageError.

    The rename is what a rerun of region pays for. On ext4, renaming over an
    existing file flushes the new file's data first: replacing a 175 KB
    certificate took 50-75 ms on a 2-vCPU host, with or without an fsync,
    against 0.04 ms under a fresh name. So region's wall time, and a
    benchmark that rewrites one name, follow the disk. Preallocating the
    file with posix_fallocate skips that flush (0.08 ms), but after a crash
    it could leave a zero-filled certificate under the final name, so the
    write stays as it is."""
    import tempfile  # only region writes a file

    directory, name = os.path.split(path)
    directory = directory or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


# --------------------------------------------------------------------------
# rendering


def _approx_string(exact: str | None) -> str | None:
    if exact is None:
        return None
    return read_rendered(exact).approx_decimal(6)


def _augment_approx(doc: dict) -> None:
    """Add *_approx fields next to the document's exact strings, in place:
    each document is its handler's own and is written once."""
    if isinstance(doc.get("mu0"), str):
        doc["mu0_approx"] = _approx_string(doc["mu0"])
    for field in ("rows", "pairs"):
        if isinstance(doc.get(field), list):
            for row in doc[field]:
                row["mu_minus_approx"] = _approx_string(row.get("mu_minus"))


def _cell(value) -> str:
    """A markdown or CSV table cell: None is empty."""
    return "" if value is None else str(value)


def _markdown_table(columns: list[str], rows: list[dict]) -> list[str]:
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(_cell(row[c]) for c in columns) + " |")
    return lines


def _csv_lines(rows) -> str:
    """CSV lines of rows of cells, each ending in a newline."""
    import csv  # only --format csv reads it

    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _table_columns(command: str, approx: bool, csv_format: bool) -> list[str]:
    """Columns of a range command's table, whose rows are critical pairs or
    the links of the coverage chain. A CSV row also carries its r first, and
    for coverage the verdict."""
    if command == "coverage":
        columns = ["class", "t", "locus"]
        return ["r", "covered", *columns] if csv_format else columns
    columns = ["class", "t", "M", "delta", "mu_minus"]
    if approx:
        columns.append("mu_minus_approx")
    if csv_format or command == "verify":
        columns.append("outcome")
    return ["r", *columns] if csv_format else columns


def _table_rows(doc: dict) -> list[dict]:
    return doc.get("rows", doc.get("pairs", doc.get("chain", [])))


def _render_markdown(doc: dict, command: str, approx: bool) -> str:
    if command not in _RANGE_COMMANDS:
        lines = []
        for key, value in sorted(doc.items()):
            if isinstance(value, dict):
                value = json.dumps(value, sort_keys=True)
            lines.append(f"- {key}: {value}")
        return "\n".join(lines)
    table = _markdown_table(_table_columns(command, approx, False), _table_rows(doc))
    if command == "coverage":
        lines = [
            f"## coverage r = {doc['r']}: {'COVERED' if doc['covered'] else 'GAPS'}",
            "",
            f"target: {doc['target']}",
            "",
            *table,
        ]
        lines += [f"- gap: ({lo}, {hi})" for lo, hi in doc["gaps"]]
        return "\n".join(lines)
    lines = [f"## r = {doc['r']} (mu0 = {doc['mu0']})", "", *table]
    if command == "verify":
        lines += ["", f"all_pass: {doc['all_pass']}"]
        for record in doc.get("small_degree_pairs") or []:
            lines.append(
                f"- small-degree pair {record['class']} t={record['t']}: "
                f"delta = {record['delta']} "
                f"({'negative' if record['negative_delta'] else 'NOT NEGATIVE'})"
            )
        if doc.get("large_r") is not None:
            lines.append(
                "- large-r inequalities: "
                f"degree_five={doc['large_r']['degree_five_inequality']} "
                f"small_degree={doc['large_r']['small_degree_inequality']}"
            )
    return "\n".join(lines)


def _write_documents(args: argparse.Namespace, outcome: Outcome, lines: list[str]) -> bool:
    """Write each document of outcome to stdout as it arrives, nothing
    before the first, and append its stderr lines to lines once it is
    written; return whether the command failed. The one reader of --format
    (default markdown for table, json elsewhere) and --approx. A JSON
    document stands alone for a single r (or none) and sits at depth 2 in
    a range's wrapper's results list; a range's markdown documents go a
    blank line apart, and its CSV rows under one header.

    verify's checks at an r >= 20, (pairs, key, values), fail exactly when
    they have lines. As JSON without --approx they fill their key's
    template, which _json_template writes from the first r of the key and
    keeps for the call: the values go in by one bytes %, each text as the
    bytes of its encode_basestring_ascii (in place in values). A range has
    at most six row sets of pair rows, times the sign changes of five
    deltas linear in r. Otherwise _large_r_layout lays them out as a dict."""
    command, approx = args.command, args.approx
    fmt = args.output_format or ("markdown" if command == "table" else "json")
    depth = 0 if args.r_min == args.r_max else 2
    templates = {} if fmt == "json" and not approx else None  # key -> template
    start, between, end = "", "\n\n", "\n"
    if fmt == "csv":
        columns = _table_columns(command, approx, True)
        start, between, end = _csv_lines([columns]), "", ""
    elif fmt == "json" and depth:
        start = '{\n  "command": ' + encode_basestring_ascii(command) + ',\n  "results": [\n    '
        between, end = ",\n    ", "\n  ]\n}\n"
    write = sys.stdout.write
    failed, separator = False, start
    for doc, doc_lines in outcome:
        if type(doc) is tuple:  # verify's checks at an r >= 20
            pairs, key, values = doc
            if templates is None:
                doc = _large_r_layout(pairs, key, values)
            else:
                template = templates.get(key)
                if template is None:
                    template = templates[key] = _json_template(pairs, key, values, depth)
                text, texts, order = template
                for i in texts:
                    values[i] = encode_basestring_ascii(values[i]).encode()
                doc = (text % order(values)).decode()
        if type(doc) is dict:
            failed = failed or any(doc.get(field) is False for field in _VERDICT_FIELDS)
            if approx:
                _augment_approx(doc)
            if fmt == "json":
                doc = _json_text(doc, depth)
            elif fmt == "csv":  # a row takes r (and covered) from its document
                doc = _csv_lines([_cell(row[c] if c in row else doc.get(c)) for c in columns]
                                 for row in _table_rows(doc))
            else:
                doc = _render_markdown(doc, command, approx)
        write(separator + doc)  # one write per document: stdout may be unbuffered
        lines += doc_lines
        separator = between
    write(end)
    sys.stdout.flush()  # a reader that has gone shows here, not at exit
    return failed or bool(lines)


# --------------------------------------------------------------------------
# command handlers


def _require_r(args: argparse.Namespace, minimum: int) -> None:
    if args.r_min < minimum:
        raise UsageError(f"{args.command} needs r >= {minimum}, got {args.r_min}")


def _require_single_r(args: argparse.Namespace) -> int:
    if args.r_min != args.r_max:
        raise UsageError(f"{args.command} takes a single r, got {args.r_min}..{args.r_max}")
    return args.r_min


def _validated_mu0(text: str | None) -> QuadraticNumber | None:
    """The --mu0 value, once it parses and every radicand is at most
    MAX_RADICAND, which bounds the cost of reducing it to squarefree form."""
    if text is None:
        return None
    try:
        if any(
            len(n.lstrip("0")) > len(str(MAX_RADICAND)) or int(n) > MAX_RADICAND
            for n in _RADICAND_RE.findall(text)
        ):
            raise UsageError(f"--mu0 radicands must be at most {MAX_RADICAND}")
        return parse_quadratic(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _written_digits(match: re.Match) -> int:
    """Most digits of the numerator or denominator of a _MU_RE match as
    written, before reduction: a decimal d.f with exponent e is d f * 10^k
    with k = e - len(f)."""
    whole, den, frac, exp = (
        (text or "").replace("_", "") for text in match.group("whole", "den", "frac", "exp")
    )
    if match.group("den") is not None:
        return max(len(whole.lstrip("0")), len(den.lstrip("0")))
    if len(exp.lstrip("+-0")) > 9:  # |e| >= 10^9 is past the cap for any real f
        return 10**9
    k = int(exp or "0") - len(frac)
    return max(len((whole + frac).lstrip("0")) + max(k, 0), 1 + max(-k, 0))


def _parse_mu(text: str) -> Fraction:
    """The --mu value. One whose numerator or denominator would pass
    MAX_MU_DIGITS digits is refused on the text, before Fraction expands an
    exponent such as 1e100000000."""
    match = _MU_RE.fullmatch(text)
    if match is not None and _written_digits(match) > MAX_MU_DIGITS:
        raise UsageError(
            f"--mu numerator and denominator must have at most {MAX_MU_DIGITS} digits"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse mu from {text!r}: {exc}") from None


def cmd_range(args: argparse.Namespace) -> Outcome:
    """table, enumerate, verify and coverage: build(r, plan) for each r in
    ascending order, each called as the writer asks for the next document,
    with plan the range's _RangePlan, built once with the --mu0 (if the
    command takes one) parsed. The documents are the same whatever the
    output format: _write_documents alone formats them."""
    build, smallest_r = _RANGE_COMMANDS[args.command]
    _require_r(args, smallest_r)
    plan = _RangePlan(args.r_min, args.r_max, _validated_mu0(getattr(args, "mu0", None)))
    return map(build, range(args.r_min, args.r_max + 1), repeat(plan))


# The one setting that has no flag, read by region alone: the width of the
# sqrt enclosures the bisection starts from, as an exponent e for a width of
# 2^-e.
WIDTH_VARIABLE = "SESHADRI_SQRT_WIDTH_EXPONENT"


def _sqrt_width() -> Fraction:
    """2^-e, e from WIDTH_VARIABLE (default DEFAULT_SQRT_WIDTH_EXPONENT). An
    e that is not an integer in 1..256 is a UsageError."""
    text = os.environ.get(WIDTH_VARIABLE, str(DEFAULT_SQRT_WIDTH_EXPONENT))
    try:
        exponent = int(text)
    except ValueError:
        exponent = 0  # refused below
    if not 1 <= exponent <= 256:
        raise UsageError(f"{WIDTH_VARIABLE} must be an integer in 1..256, got {text!r}")
    return Fraction(1, 2**exponent)


def cmd_region(args: argparse.Namespace) -> Outcome:
    from pathlib import Path  # only region and audit-certificate name a file

    width = _sqrt_width()
    r = _require_single_r(args)
    _require_r(args, 10)
    if args.t0 is None:
        raise UsageError("region needs --t0")
    if args.t0 > MAX_T0:
        raise UsageError(f"region --t0 must be at most {MAX_T0}")
    doc = verify_t_bound(
        r, args.t0, depth_limit=args.bisection_depth, sqrt_width=width
    ).to_json_dict()
    # Path spells the name ("./c" as "c"), which os.path.join would not
    out_path = str(Path(args.cache_dir or ".") / f"certificate-r{r}-t{args.t0}.json")
    _atomic_write(out_path, _dumps(doc) + "\n")
    del doc["tree"]  # the summary is the certificate without its tree
    return [({**doc, "command": "region", "certificate_path": out_path}, [])]


def cmd_classify(args: argparse.Namespace) -> Outcome:
    r = _require_single_r(args)
    _require_r(args, 10)
    result = classify(r, _parse_mu(args.mu))
    return [({"command": "classify", **result.to_json_dict()}, [])]


def cmd_audit(args: argparse.Namespace) -> Outcome:
    from pathlib import Path  # only region and audit-certificate name a file

    if not args.certificate:  # Path("") would read the working directory
        raise UsageError("cannot read certificate '': the path is empty")
    path = Path(args.certificate)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise UsageError(f"cannot read certificate {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise UsageError(f"certificate {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise UsageError(f"certificate {path} is nested too deeply to read") from None
    ok, problems = audit_certificate(doc)
    summary = {
        "command": "audit-certificate",
        "certificate_path": str(path),
        "ok": ok,
        "problems": problems,
    }
    return [(summary, [f"AUDIT: {problem}" for problem in problems])]


# --------------------------------------------------------------------------
# argument parsing


# Every command's options, declared once: each is a flag (or a positional's
# name) and the keyword arguments of its add_argument call. build_parser
# makes the parsers from them, and _parse_command_line reads a well-formed
# command line straight from them. Every command takes _COMMON_OPTIONS, then
# its own; _COMMANDS maps each name to its help, handler and own options.
_COMMON_OPTIONS = (
    ("--format", dict(dest="output_format", choices=FORMATS, default=None,
                      help="output format (defaults: markdown for table, json elsewhere)")),
    ("--cache-dir", dict(dest="cache_dir", default=None, help="directory region writes "
                         "its certificate to (the other commands ignore it)")),
    ("--depth", dict(dest="bisection_depth", type=int, default=DEFAULT_DEPTH_LIMIT,
                     help=f"bisection depth limit (default {DEFAULT_DEPTH_LIMIT})")),
    ("--jobs", dict(dest="parallelism", type=int, default=1,
                    help="accepted and has no effect: every r is computed in this process")),
    ("--approx", dict(dest="approx", action="store_true", default=False,
                      help="append 6-digit decimal approximations to exact values")),
)
_COMMANDS = {
    "table": ("critical pairs at r, Table-style", cmd_range, (
        ("--r", dict(required=True, help="point count, e.g. 12 or 10..13")),
        ("--mu0", dict(default=None, help="threshold override, e.g. 7/2 or sqrt(13)")),
    )),
    "enumerate": ("critical pairs over a range of r", cmd_range, (
        ("--r", dict(required=True, help="point count range, e.g. 10..13")),
        ("--mu0", dict(default=None, help="threshold override")),
    )),
    "verify": ("check critical pairs against the threshold", cmd_range, (
        ("--r", dict(required=True, help="point count range, e.g. 10..19")),
        ("--mu0", dict(default=None, help="threshold override")),
    )),
    "region": ("certify the multiplicity cut-off t0 by bisection; writes "
               "certificate-r<r>-t<t0>.json to --cache-dir when set, else to the "
               "working directory", cmd_region, (
        ("--r", dict(required=True, help="point count (single value)")),
        ("--t0", dict(type=int, required=True, help="multiplicity to exclude")),
    )),
    "classify": ("rationality status of epsilon(mu) at rational mu", cmd_classify, (
        ("--r", dict(required=True, help="point count (single value)")),
        ("--mu", dict(required=True, help="rational mu, e.g. 7/2")),
    )),
    "coverage": ("chain the witness catalog over the target ray", cmd_range, (
        ("--r", dict(required=True, help="point count range, e.g. 8..13")),
    )),
    "audit-certificate": ("replay a region certificate from scratch", cmd_audit, (
        ("certificate", dict(help="path to a certificate JSON file")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The command line's parser: top level, then one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="seshadri",
        allow_abbrev=False,
        description="Exact certification of Seshadri-function rationality "
        "on blow-ups of the plane at r very general points.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    # copied into each subparser: 35 add_argument calls took 0.5 ms more (2 vCPUs)
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _COMMON_OPTIONS:
        common.add_argument(flag, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, options) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text, allow_abbrev=False)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=handler)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every command line _parse_command_line does not read,
    built on first use and kept: parsing leaves it unchanged."""
    return build_parser()


@functools.cache
def _command_options(name: str) -> tuple[dict, dict, set]:
    """What _parse_command_line reads of command name: its namespace when no
    option is given (name, handler, defaults), each flag's dest and keywords
    (the positional's under None), and the dests that must be given."""
    _, handler, options = _COMMANDS[name]
    by_flag = {
        flag if flag.startswith("-") else None: (kwargs.get("dest", flag.lstrip("-")), kwargs)
        for flag, kwargs in (*_COMMON_OPTIONS, *options)
    }
    required = {dest for flag, (dest, kwargs) in by_flag.items()
                if flag is None or kwargs.get("required")}
    defaults = {dest: kwargs.get("default") for dest, kwargs in by_flag.values()
                if dest not in required}
    return {"command": name, "handler": handler, **defaults}, by_flag, required


def _parse_command_line(argv: list[str]) -> argparse.Namespace:
    """argv parsed as `build_parser().parse_args(argv)` parses it. A
    well-formed command line (a command, then its exact flags, each but
    --approx with a value that does not start with "-" and that its type and
    choices accept, at most one positional, every required option; the last
    repeat wins) is read from _COMMANDS. Anything else goes to the two-level
    parse, which prints its own usage, help or error."""
    if argv and argv[0] in _COMMANDS:
        defaults, by_flag, required = _command_options(argv[0])
        values = dict(defaults)
        tokens = iter(argv[1:])
        for token in tokens:
            option = by_flag.get(token)
            if option is None:  # a positional: audit-certificate's path, given once
                option = by_flag.get(None)
                if option is None or option[0] in values or token.startswith("-"):
                    break
                values[option[0]] = token
                continue
            dest, kwargs = option
            if kwargs.get("action") == "store_true":
                values[dest] = True
                continue
            value = next(tokens, "-")  # a missing value falls back too
            if value.startswith("-"):
                break
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                break
            choices = kwargs.get("choices")
            if choices is not None and value not in choices:
                break
            values[dest] = value
        else:
            if required <= values.keys():
                return argparse.Namespace(**values)
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code. Every return writes
    the stderr lines of the documents written, then main's own one-line
    message, if any: stderr comes after stdout and is never interleaved
    with it."""
    lines: list[str] = []
    message = None
    try:
        try:
            args = _parse_command_line(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:  # help, version or a usage error, printed
            sys.stdout.flush()  # a reader that has gone shows here, not at exit
            code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        else:
            args = resolve_config(args)
            if args.output_format == "csv" and args.command not in _RANGE_COMMANDS:
                # refused before the handler runs, so region writes no certificate
                raise UsageError(f"csv output is not available for {args.command}")
            code = EXIT_FAIL if _write_documents(args, args.handler(args), lines) else EXIT_PASS
    except (UsageError, UnsupportedR, InvalidT, InvalidT0, NotAboveSqrtR) as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    except BrokenPipeError as exc:
        if sys.stdout is sys.__stdout__:  # drain its buffer into the null device,
            # not into a flush at exit that fails again
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        code, message = EXIT_USAGE, f"error: cannot write stdout: {exc.strerror or exc}"
    except DepthLimitExceeded as exc:
        code, message = EXIT_INCONCLUSIVE, f"inconclusive: {exc}"
    except Exception as exc:
        # a defect, not a verdict: exit 1 is reserved for failed verification
        text = " ".join(str(exc).splitlines())
        code, message = EXIT_INTERNAL, f"internal error: {type(exc).__name__}: {text}"
    for line in lines if message is None else [*lines, message]:
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
