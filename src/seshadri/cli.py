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
to build_parser's two-level parse (the top-level parser, then the
subparser). Both give the same namespace, and every usage line, help text,
error and exit code is the two-level parse's own. The handler takes one
argument, the parsed command line that resolve_config has checked and
completed, and returns its documents, each with its stderr lines (FAIL and AUDIT lines);
table, enumerate, verify and coverage share one handler, driven by
_RANGE_COMMANDS, whose per-r builders each take the call's one _RangePlan
and return the document and its FAIL lines, written where the failing check
is made. The plan holds the --mu0 and sqrt(r + 1) for every r, from one
sieve over the block. Every mu0 printed without a --mu0 comes from
thresholds.threshold, checked above sqrt(r). No handler reads the output
format: _write_documents alone reads --format and --approx. It writes each
document as soon as it is built, so a range holds one at a time, and hands
main the lines of each document written. main picks the exit code: 1 when
there is a line or a document whose verdict (all_pass, covered or ok) is
false, else 0. Handlers raise usage errors and inconclusive bisections,
which main turns into exit codes 2 and 3; a stdout whose reader has gone
is exit 2 too, help and version included. Any other exception is exit 4,
after what a range wrote before it. Every exit writes the lines of the
documents written, then main's own one-line message.

Settings are flags, and each command takes only the flags it reads: its
row of the option table lists them with their defaults, and the parser
refuses any other (csv outside the range commands included) before the
handler runs. Each flag is checked where it is read: --depth by region,
--jobs by the range commands. The one setting that is not a flag is the
width 2^-e of the sqrt enclosures region starts from, which region alone
reads from SESHADRI_SQRT_WIDTH_EXPONENT (e in 1..256): every other command
prints the same bytes whatever the variable holds. No config file and no
other variable is read. Every r is computed in this process, in ascending
order: the range commands accept --jobs and --cache-dir, and neither has
an effect. On region, --cache-dir names the directory of the certificate.

Reports always carry exact values as canonical strings ("77/24",
"4 - 1/3*sqrt(3)"); --approx appends 6-digit decimal columns next to them.
Every JSON document (stdout and certificates) matches
`json.dumps(doc, sort_keys=True, indent=2)` byte for byte, so reruns are
byte-identical. `_dumps` writes it in one walk, each dict sorting its own
keys, except a certificate's tree (`_certificate_pieces`, one pass) and
verify's documents without --approx, laid out from per-row layouts: filled
at r < 20, and from r = 20 on a template per decision of the checks.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from collections.abc import Iterable, Iterator
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

# The one outcome that fails a pair row, bound once: _large_r_checks tests
# each pair row's outcome against it at every r >= 20.
_COUNTEREXAMPLE = PairOutcome.COUNTEREXAMPLE

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

FORMATS = ("json", "markdown", "csv")

MAX_RADICAND = 10**18
# Largest r any command takes. Splitting r + 1 (exact.sqrt_block's sieve
# for a range, exact.squarefree_decomposition for one r) grows as the cube
# root of r: 17-25 ms near 10^18 (README), past 20 s at 10^29. region
# spells r in the certificate file name.
MAX_R = 10**18
# Most values of r one range may hold. Each r costs time, but memory stays
# flat (README's figures), since each document is written as it is built.
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
    """Complete a parsed command line in place with r_min and r_max, from
    --r (0 without one). It reads no environment, and no other flag: each
    handler checks the flags it reads. Returns args."""
    args.r_min = args.r_max = 0
    if getattr(args, "r", None) is not None:
        args.r_min, args.r_max = parse_r_range(args.r)
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
    return {"class": text, "t": t, "M": total, "delta": delta, "mu_minus": mu_minus,
            "outcome": outcome}


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
    checks decided and the ints and texts they gave. _write_documents fills
    the key's JSON template with them, or lays them out (_large_r_layout).
    """
    if r < 20:
        mu0_text, pairs, lines = _pair_rows(r, plan.mu0(r))
        return {"command": "verify", "r": r, "mu0": mu0_text, "all_pass": not lines,
                "pairs": pairs, "small_degree_pairs": None, "large_r": None}, lines
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
    large_r_inequalities(r) gives degree_five_inequality, (i), and
    small_degree_inequality, (ii), which no small-degree row reads (README).
    """
    mu0 = plan.mu0(r)
    mu0_text = mu0.render()
    bound = total_multiplicity_bound(r)
    pairs = small_degree_pairs(r)
    key, values, lines, small_lines = [], [r, mu0_text], [], []
    decide, give = key.append, values.append
    for pair in pairs:
        outcome = None
        if pair.curve.total_multiplicity <= bound:
            verdict = check_pair(pair, mu0)
            outcome, mu_minus = verdict.outcome, verdict.mu_minus
            give(verdict.delta)
            if mu_minus is not None:
                mu_minus = mu_minus.render()
                give(mu_minus)
            if outcome is _COUNTEREXAMPLE:
                text = pair.curve.render()
                lines.append(_below_mu0_line(r, text, pair.t, mu_minus, mu0_text))
        delta = check_pair(pair, mu0).delta
        give(delta)
        decide(outcome)
        decide(delta < 0)
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
    """verify's document at an r >= 20 as a dict: each row's class text, t and
    M from the pairs, and the key and values of _large_r_checks, in order."""
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
        small_records.append(
            {"class": text, "t": t, "M": total, "delta": take(), "negative_delta": decided()}
        )
    large_r = {"degree_five_inequality": decided(), "small_degree_inequality": decided()}
    return {"command": "verify", "r": r, "mu0": mu0_text, "all_pass": decided(),
            "pairs": pair_records, "small_degree_pairs": small_records, "large_r": large_r}


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


def _json_text(doc: object, depth: int) -> str:
    """_dumps(doc) at nesting depth `depth` of a larger document: 2 * depth
    more spaces after each newline, as _dumps writes none inside a string."""
    text = _dumps(doc)
    return text.replace("\n", "\n" + "  " * depth) if depth else text


# verify's layouts at nesting depth 0 (a single r) and 2 (a range): a pair
# row, a small-degree row, large_r and the document, each a dict of these
# keys (in json's sorted order) as _dumps writes it, a %s slot per value.
_VERIFY_LAYOUTS = {
    depth: tuple(
        "{" + ",".join(f'{pad}  "{key}": %s' for key in keys.split()) + pad + "}"
        for pad, keys in (
            (newline + "    ", "M class delta mu_minus outcome t"),
            (newline + "    ", "M class delta negative_delta t"),
            (newline + "  ", "degree_five_inequality small_degree_inequality"),
            (newline, "all_pass command large_r mu0 pairs r small_degree_pairs"),
        )
    )
    for depth, newline in ((0, "\n"), (2, "\n    "))
}
_JSON_BOOL = {False: "false", True: "true"}


def _rows_text(rows: list[str], depth: int) -> str:
    """The list of these row texts in a document at this nesting depth."""
    pad = "\n" + "  " * (depth + 2)
    return "[" + pad + ("," + pad).join(rows) + pad[:-2] + "]" if rows else "[]"


def _verify_text(doc: dict, depth: int) -> str:
    """_json_text(doc, depth) of verify's document at an r < 20, which has
    pair rows and neither small-degree rows nor large_r."""
    pair, _, _, document = _VERIFY_LAYOUTS[depth]
    text = encode_basestring_ascii
    rows = [pair % (row["M"], text(row["class"]), row["delta"],
                    "null" if row["mu_minus"] is None else text(row["mu_minus"]),
                    text(row["outcome"]), row["t"]) for row in doc["pairs"]]
    return document % (_JSON_BOOL[doc["all_pass"]], '"verify"', "null", text(doc["mu0"]),
                       _rows_text(rows, depth), doc["r"], "null")


def _json_template(
    pairs: tuple, key: tuple, values: list, depth: int
) -> tuple[bytes, tuple, itemgetter]:
    """The template of the _large_r_layout of these pairs and this key, for
    values in _large_r_checks' order, as ASCII bytes: its _json_text at
    this nesting depth, laid out from the layouts with each pair's class,
    t, M and outcome written in (each % of a text doubled) and a slot for
    each value, %s for mu0 and each mu_minus text and %d for each int; the
    indices of the texts; and an itemgetter of the values in slot order.
    The template % the values so ordered, each text given as the bytes of
    its encode_basestring_ascii, is that _json_text. bytes % finds each
    slot with memchr, where str % reads every character: on a 2-vCPU host
    a 1.2 KB document fills in 0.3 against 0.7 microseconds."""
    pair_row, small_row, large_r, document = _VERIFY_LAYOUTS[depth]
    decided, take = iter(key).__next__, iter(range(2, len(values))).__next__
    # r and mu0 are values 0 and 1: mu0's slot comes first, r's after the pair rows
    texts, order, small_order, pair_rows, small_rows = [1], [1], [0], [], []
    for pair in pairs:
        text = encode_basestring_ascii(pair.curve.render()).replace("%", "%%")
        t, total, outcome = pair.t, pair.curve.total_multiplicity, decided()
        if outcome is not None:
            order.append(take())
            mu_minus = "null"
            if outcome is not PairOutcome.PASS_NEGATIVE_DELTA:
                mu_minus = "%s"
                texts.append(take())
                order.append(texts[-1])
            outcome = encode_basestring_ascii(outcome.value).replace("%", "%%")
            pair_rows.append(pair_row % (total, text, "%d", mu_minus, outcome, t))
        small_order.append(take())
        small_rows.append(small_row % (total, text, "%d", _JSON_BOOL[decided()], t))
    large_r %= (_JSON_BOOL[decided()], _JSON_BOOL[decided()])
    template = document % (_JSON_BOOL[decided()], '"verify"', large_r, "%s",
                           _rows_text(pair_rows, depth), "%d", _rows_text(small_rows, depth))
    order += small_order
    if sorted(order) != list(range(len(values))):
        raise RuntimeError(f"the layout placed its {len(values)} values in slots {order}")
    return template.encode(), tuple(texts), itemgetter(*order)


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


def _certificate_pieces(doc: dict) -> Iterator[str]:
    """_dumps(doc) + "\n" in pieces, for a certificate whose tree
    verify_t_bound built: the header from _dumps, then a piece per node in
    one pre-order pass over an explicit stack (so depth is not bounded by
    the recursion limit). The tree has two node shapes, a split (children,
    mu_hi, mu_lo) and a leaf (mu_hi, mu_lo, rule, witnesses of two texts),
    and only texts that JSON writes unescaped (canonical rationals, rule
    and witness names), so each node is laid out as _dumps lays it out."""
    header = _dumps({key: value for key, value in doc.items() if key != "tree"})
    # "tree" sorts last: the header's closing "\n}" goes after the tree
    yield header[:-2] + ',\n  "tree": '
    pads = ["\n"]  # pads[k]: a newline and k levels of indent
    stack: list = [(doc["tree"], 1, "")]
    while stack:
        entry = stack.pop()
        if type(entry) is str:
            yield entry
            continue
        node, level, before = entry
        while len(pads) < level + 4:
            pads.append(pads[-1] + "  ")
        p0, p1, p2, p3 = pads[level:level + 4]
        ends = f'{p1}"mu_hi": "{node["mu_hi"]}",{p1}"mu_lo": "{node["mu_lo"]}"'
        if "children" in node:
            left, right = node["children"]
            yield f'{before}{{{p1}"children": ['
            stack.append(f"{p1}],{ends}{p0}}}")
            stack.append((right, level + 2, "," + p2))
            stack.append((left, level + 2, p2))
        else:
            witnesses = ",".join(
                f'{p2}"{name}": [{p3}"{lo}",{p3}"{hi}"{p2}]'
                for name, (lo, hi) in sorted(node["witnesses"].items())
            )
            yield (
                f'{before}{{{ends},{p1}"rule": "{node["rule"]}",'
                f'{p1}"witnesses": {{{witnesses}{p1}}}{p0}}}'
            )
    yield "\n}\n"


def _atomic_write(path: str, pieces: Iterable[str]) -> None:
    """Write the pieces of a text to path, as they come, through a temporary
    file in its directory. A path that cannot be written (under a regular
    file, say) is a UsageError.

    On ext4, renaming over an existing file flushes the new file's data
    first, so a rerun of region follows the disk (README: 50-75 ms for a
    175 KB certificate; posix_fallocate would skip it, unsafely)."""
    import tempfile  # only region writes a file

    directory, name = os.path.split(path)
    directory = directory or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.writelines(pieces)
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

    As JSON without --approx, verify's documents come from the row layouts:
    a dict (r < 20) filled by _verify_text; the checks at an r >= 20,
    (pairs, key, values), which fail exactly when they have lines, by one
    bytes % into their key's template (_json_template, laid out at the
    key's first r and kept for the call), each text as the bytes of its
    encode_basestring_ascii (in place in values). A range has at most six
    row sets, times the sign changes of five deltas linear in r. Otherwise
    _large_r_layout lays the checks out as a dict."""
    command, approx = args.command, getattr(args, "approx", False)
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
                doc = (_json_text if approx or command != "verify" else _verify_text)(doc, depth)
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
    """The one r of region and classify, which must be at least 10."""
    if args.r_min != args.r_max:
        raise UsageError(f"{args.command} takes a single r, got {args.r_min}..{args.r_max}")
    _require_r(args, 10)
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
    if args.parallelism < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.parallelism}")
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

    width, depth = _sqrt_width(), args.bisection_depth
    if not 1 <= depth <= MAX_DEPTH_LIMIT:
        raise UsageError(f"--depth must be in 1..{MAX_DEPTH_LIMIT}, got {depth}")
    r = _require_single_r(args)
    if args.t0 > MAX_T0:
        raise UsageError(f"region --t0 must be at most {MAX_T0}")
    doc = verify_t_bound(r, args.t0, depth_limit=depth, sqrt_width=width).to_json_dict()
    # Path spells the name ("./c" as "c"), which os.path.join would not
    out_path = str(Path(args.cache_dir or ".") / f"certificate-r{r}-t{args.t0}.json")
    _atomic_write(out_path, _certificate_pieces(doc))
    del doc["tree"]  # the summary is the certificate without its tree
    return [({**doc, "command": "region", "certificate_path": out_path}, [])]


def cmd_classify(args: argparse.Namespace) -> Outcome:
    r = _require_single_r(args)
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
# command line straight from them. _COMMANDS maps each command to its help,
# its handler and its one row of options, the flags it reads and no other:
# those it shares with the other range commands (_RANGE_OPTIONS, or none),
# then its own.
_RANGE_OPTIONS = (
    ("--format", dict(dest="output_format", choices=FORMATS,
                      help="output format (defaults: markdown for table, json elsewhere)")),
    ("--cache-dir", dict(dest="cache_dir", help="accepted and has no effect: nothing is cached")),
    ("--jobs", dict(dest="parallelism", type=int, default=1,
                    help="accepted and has no effect: every r is computed in this process")),
)
_FORMAT = ("--format", dict(dest="output_format", choices=FORMATS[:2],
                            help="output format (default json)"))
_APPROX = ("--approx", dict(dest="approx", action="store_true", default=False,
                            help="append 6-digit decimal approximations to exact values"))
_COMMANDS = {
    "table": ("critical pairs at r, Table-style", cmd_range, _RANGE_OPTIONS, (
        _APPROX,
        ("--r", dict(required=True, help="point count, e.g. 12 or 10..13")),
        ("--mu0", dict(help="threshold override, e.g. 7/2 or sqrt(13)")),
    )),
    "enumerate": ("critical pairs over a range of r", cmd_range, _RANGE_OPTIONS, (
        _APPROX,
        ("--r", dict(required=True, help="point count range, e.g. 10..13")),
        ("--mu0", dict(help="threshold override")),
    )),
    "verify": ("check critical pairs against the threshold", cmd_range, _RANGE_OPTIONS, (
        _APPROX,
        ("--r", dict(required=True, help="point count range, e.g. 10..19")),
        ("--mu0", dict(help="threshold override")),
    )),
    "region": ("certify the multiplicity cut-off t0 by bisection; writes "
               "certificate-r<r>-t<t0>.json to --cache-dir when set, else to the "
               "working directory", cmd_region, (), (
        _FORMAT,
        ("--cache-dir", dict(dest="cache_dir", help="directory the certificate is written "
                             "to (default: the working directory)")),
        ("--depth", dict(dest="bisection_depth", type=int, default=DEFAULT_DEPTH_LIMIT,
                         help=f"bisection depth limit (default {DEFAULT_DEPTH_LIMIT})")),
        ("--r", dict(required=True, help="point count (single value)")),
        ("--t0", dict(type=int, required=True, help="multiplicity to exclude")),
    )),
    "classify": ("rationality status of epsilon(mu) at rational mu", cmd_classify, (), (
        _FORMAT, _APPROX,
        ("--r", dict(required=True, help="point count (single value)")),
        ("--mu", dict(required=True, help="rational mu, e.g. 7/2")),
    )),
    "coverage": ("chain the witness catalog over the target ray", cmd_range, _RANGE_OPTIONS, (
        ("--r", dict(required=True, help="point count range, e.g. 8..13")),
    )),
    "audit-certificate": ("replay a region certificate from scratch", cmd_audit, (), (
        _FORMAT,
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
    # copied into each range command's subparser: adding the options to each
    # in place took 0.91 against 0.86 ms per build_parser (2 vCPUs)
    ranged = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _RANGE_OPTIONS:
        ranged.add_argument(flag, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, shared, options) in _COMMANDS.items():
        parents = [ranged] if shared else []
        p = sub.add_parser(name, parents=parents, help=help_text, allow_abbrev=False)
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
    _, handler, shared, options = _COMMANDS[name]
    by_flag = {
        flag if flag.startswith("-") else None: (kwargs.get("dest", flag.lstrip("-")), kwargs)
        for flag, kwargs in (*shared, *options)
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
