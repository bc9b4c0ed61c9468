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

Every command takes one route. main parses the command line in one argparse
pass: when the first argument names a command, that command's subparser
alone parses the rest, and main adds the name to its namespace. The
two-level parse of build_parser (the top-level parser, which hands the rest
to the subparser) runs only when no command comes first (no arguments, -h,
--version, an unknown command, --) or the subparser leaves arguments over.
Both give the same namespace, and every usage line, help text, error and
exit code is the two-level parse's own. The handler takes one argument, the
parsed command line that resolve_config has checked and completed, and
returns its documents and its stderr lines (FAIL and AUDIT lines); table,
enumerate, verify and coverage share one handler, driven by _RANGE_COMMANDS,
whose per-r builders each return the document and its FAIL lines, written
where the failing check is made. main alone writes the documents in the
chosen format, then the lines, and picks the exit code: 1 when there is a
line or a document whose verdict (all_pass, covered or ok) is false, else 0.
Handlers raise usage errors and inconclusive bisections, which main turns
into exit codes 2 and 3; any other exception is exit 4. A format the command
does not offer (csv outside the range commands) is refused before the
handler runs.

Settings are flags (--format, --cache-dir, --depth, --jobs, --approx), with
their defaults in the parser. The one exception is the width 2^-e of the
sqrt enclosures region starts from, read from SESHADRI_SQRT_WIDTH_EXPONENT
(e in 1..256). No config file and no other variable is read. Every r is
computed in this process, in ascending order: --jobs is accepted and has no
effect, and --cache-dir only names the directory region writes its
certificate to; the other commands accept it and ignore it.

Reports always carry exact values as canonical strings ("77/24",
"4 - 1/3*sqrt(3)"); --approx appends 6-digit decimal columns next to them.
JSON output is serialized with sorted keys so reruns are byte-identical.
Every JSON document (stdout and certificates) is written by `_dumps`, whose
output matches `json.dumps(doc, sort_keys=True, indent=2)` byte for byte.
It sorts and encodes the keys of each dict shape (nesting depth and keys)
once per call, in a write plan that it reuses for every later dict of that
shape and drops when it returns.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from collections.abc import Mapping
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
from .exact import DEFAULT_SQRT_WIDTH_EXPONENT, QuadraticNumber, parse_quadratic
from .region import (
    DEFAULT_DEPTH_LIMIT,
    MAX_DEPTH_LIMIT,
    MAX_NUMBER_LENGTH,
    audit_certificate,
    large_r_inequalities,
    verify_t_bound,
)
from .search import (
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
# Largest r any command takes. threshold(r) reduces r + 1 to squarefree form
# by trial division, whose cost grows with r: on a 2-vCPU host verify at r
# near 10^18 costs about 25 ms per r (the 101 values up to 10^18 took 2.5 s,
# nearly all of it squarefree_decomposition(r + 1)), and one r ran past 20 s
# at 10^29. region spells r in the certificate file name.
MAX_R = 10**18
# Most values of r one range may hold. Each r costs time and memory, and a
# range's documents are all held until they are written: on a 2-vCPU host
# verify --r 20..10019 takes about 0.27 s and 77 MB, and 10^5 values 2.9 s
# and 620 MB. Together with MAX_R the cap admits
# verify --r (10^18 - 99999)..10^18, which at 25 ms per r runs for about
# 42 minutes.
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


# The one setting that has no flag: the width of the sqrt enclosures the
# bisection starts from, as an exponent e for a width of 2^-e.
WIDTH_VARIABLE = "SESHADRI_SQRT_WIDTH_EXPONENT"


def resolve_config(
    args: argparse.Namespace, env: Mapping[str, str] | None = None
) -> argparse.Namespace:
    """Check a parsed command line and complete it in place: the flags,
    range-checked; sqrt_width_exponent, from WIDTH_VARIABLE in env (default
    os.environ); r_min and r_max, from --r (0 without one); and cache_dir,
    None when empty. Returns args."""
    env = os.environ if env is None else env
    if not 1 <= args.bisection_depth <= MAX_DEPTH_LIMIT:
        raise UsageError(
            f"--depth must be in 1..{MAX_DEPTH_LIMIT}, got {args.bisection_depth}"
        )
    if args.parallelism < 1:
        raise UsageError(f"--jobs must be >= 1, got {args.parallelism}")
    width = env.get(WIDTH_VARIABLE, str(DEFAULT_SQRT_WIDTH_EXPONENT))
    try:
        sqrt_width_exponent = int(width)
    except ValueError:
        sqrt_width_exponent = 0  # refused below
    if not 1 <= sqrt_width_exponent <= 256:
        raise UsageError(f"{WIDTH_VARIABLE} must be an integer in 1..256, got {width!r}")

    args.r_min = args.r_max = 0
    if getattr(args, "r", None) is not None:
        args.r_min, args.r_max = parse_r_range(args.r)
    args.sqrt_width_exponent = sqrt_width_exponent
    args.cache_dir = args.cache_dir or None
    return args


# --------------------------------------------------------------------------
# result documents (pure data)


def _pair_record(text: str, t: int, total: int, verdict) -> dict:
    """A pair row: the pair's class text, t and M, and its verdict."""
    mu_minus = verdict.mu_minus
    return {
        "class": text,
        "t": t,
        "M": total,
        "delta": verdict.delta,
        "mu_minus": None if mu_minus is None else mu_minus.render(),
        "outcome": verdict.outcome.value,
    }


def _pairs_doc(command: str, r: int, mu0: QuadraticNumber | None) -> tuple[dict, list[str]]:
    report = verify_no_counterexample(r, mu0)
    rows = [
        _pair_record(p.curve.render(), p.t, p.curve.total_multiplicity, v)
        for p, v in report.pairs
    ]
    return {"command": command, "r": r, "mu0": report.mu0.render(), "rows": rows}, []


def _below_mu0_line(r: int, record: dict, mu0_text: str) -> str:
    return (
        f"FAIL r={r}: {record['class']} t={record['t']} has "
        f"mu_minus = {record['mu_minus']} below mu0 = {mu0_text}"
    )


def _verify_doc(r: int, mu0: QuadraticNumber | None) -> tuple[dict, list[str]]:
    """verify at r, with a FAIL line for each check that fails where it is
    made: a pair below mu0, a small-degree pair with delta >= 0, large-r
    inequalities that do not hold. all_pass is the absence of FAIL lines.

    For r = 10..19 the pair rows are verify_no_counterexample's. From r = 20
    on, one pass over small_degree_pairs(r) builds each of the five pairs
    and renders its class once: a pair with M <= total_multiplicity_bound(r)
    is a critical pair (the rule of enumerate_critical_pairs, held equal to
    it by the tests) and gets a pair row, and every pair gets a small-degree
    row. Each row is written from its own check_pair call, so a pair with
    both rows is checked twice. The FAIL lines keep the order of the
    checks: pair rows, then small-degree rows, then the large-r
    inequalities.

    large_r holds large_r_inequalities(r): degree_five_inequality is (i),
    which rules out every degree d >= 5, and small_degree_inequality is
    (ii), the hi(c) < 0 condition of the t0 = 3 root leaf. No small-degree
    row is derived from (ii); the key keeps its name because the verify
    bytes are pinned.
    """
    pairs, lines = [], []
    if r < 20:
        report = verify_no_counterexample(r, mu0)
        mu0_text = report.mu0.render()
        for pair, verdict in report.pairs:
            curve = pair.curve
            record = _pair_record(curve.render(), pair.t, curve.total_multiplicity, verdict)
            pairs.append(record)
            if not verdict.passed:
                lines.append(_below_mu0_line(r, record, mu0_text))
        small_records = large_r = None
    else:
        if mu0 is None:
            mu0 = threshold(r).mu0
        mu0_text = mu0.render()
        bound = total_multiplicity_bound(r)
        small_records, small_lines = [], []
        for pair in small_degree_pairs(r):
            curve, t = pair.curve, pair.t
            text = curve.render()
            total = curve.total_multiplicity
            if total <= bound:
                verdict = check_pair(pair, mu0)
                record = _pair_record(text, t, total, verdict)
                pairs.append(record)
                if not verdict.passed:
                    lines.append(_below_mu0_line(r, record, mu0_text))
            delta = check_pair(pair, mu0).delta
            small_records.append({
                "class": text,
                "t": t,
                "M": total,
                "delta": delta,
                "negative_delta": delta < 0,
            })
            if delta >= 0:
                small_lines.append(
                    f"FAIL r={r}: small-degree pair {text} "
                    f"t={t} has delta = {delta} >= 0"
                )
        lines += small_lines
        first, second = large_r_inequalities(r)
        large_r = {
            "degree_five_inequality": first,
            "small_degree_inequality": second,
        }
        if not (first and second):
            lines.append(f"FAIL r={r}: large-r inequalities do not hold")
    return {
        "command": "verify",
        "r": r,
        "mu0": mu0_text,
        "all_pass": not lines,
        "pairs": pairs,
        "small_degree_pairs": small_records,
        "large_r": large_r,
    }, lines


def _coverage_doc(r: int, mu0: None) -> tuple[dict, list[str]]:
    """Coverage at r, with a FAIL line per gap; coverage takes no --mu0, so
    mu0 is None."""
    doc = {"command": "coverage", **verify_coverage(r).to_json_dict()}
    return doc, [f"FAIL r={r}: coverage gap ({lo}, {hi})" for lo, hi in doc["gaps"]]


# The commands over an r range: per-r builder, called as build(r, mu0) and
# returning the document and its FAIL lines, and the smallest r.
_RANGE_COMMANDS = {
    "table": (functools.partial(_pairs_doc, "table"), 10),
    "enumerate": (functools.partial(_pairs_doc, "enumerate"), 10),
    "verify": (_verify_doc, 10),
    "coverage": (_coverage_doc, 1),
}
# A document whose field of one of these names is false fails its command.
_VERDICT_FIELDS = ("all_pass", "covered", "ok")


# --------------------------------------------------------------------------
# JSON


def _dict_plan(keys: tuple, depth: int) -> tuple[itemgetter, list[str], str]:
    """How to write a dict with these keys at this nesting depth: a getter
    of its values in sorted key order, the text before each value (the
    first opens the dict, the others start with a comma), and the text that
    closes it.

    itemgetter of one key returns the bare value, not a tuple; a one-key
    dict gets that key twice, and the zip with its one prefix reads the
    first of the two values alone."""
    newline = "\n" + "  " * depth
    inner = newline + "  "
    ordered = sorted(keys)
    # encode_basestring_ascii raises TypeError on a non-str key
    prefixes = ["," + inner + encode_basestring_ascii(key) + ": " for key in ordered]
    prefixes[0] = "{" + prefixes[0][1:]
    getter = itemgetter(*ordered) if len(ordered) > 1 else itemgetter(ordered[0], ordered[0])
    return getter, prefixes, newline + "}"


def _list_plan(depth: int) -> tuple[str, str, str]:
    """How to write a list at this nesting depth: the text before its first
    item, before every later item, and the text that closes it."""
    newline = "\n" + "  " * depth
    inner = newline + "  "
    return "[" + inner, "," + inner, newline + "]"


def _dumps(doc: object) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2)`, byte for byte.

    `indent` sends `json` to its pure-Python encoder, which this walk
    outpaces. Strings go through the C routine `encode_basestring_ascii`
    and ints through `int.__repr__`, as `json` does. It takes dicts with str
    keys, lists, tuples, str, int, bool and None, and raises TypeError on
    anything else. Containers are entered with an explicit stack, so nesting
    depth is not bounded by the recursion limit; each frame is the iterator
    of a container's (prefix, child) pairs and the text that closes it.

    A document repeats a few dict shapes (nesting depth and keys in
    insertion order) many times: a range's per-r documents, their pair
    records. The first dict of a shape builds its plan (_dict_plan) and every
    later one reuses it, so keys are sorted and encoded once per shape, and
    the plan's itemgetter fetches each dict's values in C. Lists take their
    opening, separating and closing texts from a plan per depth
    (_list_plan) in the same table. Plans live in this call alone; nothing
    is kept between calls.
    """
    parts: list[str] = []
    append = parts.append
    encode = encode_basestring_ascii
    int_repr = int.__repr__
    # dict shapes (depth, *keys) and list depths to their plans
    plans: dict[object, tuple] = {}
    stack: list[tuple] = []
    items = iter((("", doc),))
    close = ""
    while True:
        for prefix, value in items:
            append(prefix)
            kind = type(value)
            if kind is str:
                append(encode(value))
            elif kind is int:
                append(int_repr(value))
            elif value is None:
                append("null")
            elif value is True:
                append("true")
            elif value is False:
                append("false")
            elif kind is dict:
                if not value:
                    append("{}")
                    continue
                depth = len(stack)
                shape = (depth, *value)
                plan = plans.get(shape)
                if plan is None:
                    plan = plans[shape] = _dict_plan(shape[1:], depth)
                getter, prefixes, closing = plan
                stack.append((items, close))
                items, close = zip(prefixes, getter(value)), closing
                break
            elif kind is list or kind is tuple:
                if not value:
                    append("[]")
                    continue
                depth = len(stack)
                plan = plans.get(depth)
                if plan is None:
                    plan = plans[depth] = _list_plan(depth)
                opening, separator, closing = plan
                stack.append((items, close))
                items, close = zip(chain((opening,), repeat(separator)), value), closing
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
    return parse_quadratic(exact).approx_decimal(6)


def _augment_approx(doc: dict) -> dict:
    """Copy of the document with *_approx fields next to exact strings."""
    out = dict(doc)
    if isinstance(out.get("mu0"), str):
        out["mu0_approx"] = _approx_string(out["mu0"])
    for field in ("rows", "pairs"):
        if isinstance(out.get(field), list):
            rows = []
            for row in out[field]:
                row = dict(row)
                row["mu_minus_approx"] = _approx_string(row.get("mu_minus"))
                rows.append(row)
            out[field] = rows
    return out


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


def _csv_table(columns: list[str], rows: list[dict]) -> str:
    import csv  # only --format csv reads it

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c]) for c in columns] for row in rows)
    return buffer.getvalue().rstrip("\n")


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


def _emit_docs(args: argparse.Namespace, docs: list[dict]) -> None:
    command = args.command
    fmt = args.output_format or ("markdown" if command == "table" else "json")
    if args.approx:
        docs = [_augment_approx(doc) for doc in docs]
    if fmt == "json":
        print(_dumps(docs[0] if len(docs) == 1 else {"command": command, "results": docs}))
    elif fmt == "csv":
        rows = [
            {"r": doc["r"], "covered": doc.get("covered"), **row}
            for doc in docs
            for row in _table_rows(doc)
        ]
        print(_csv_table(_table_columns(command, args.approx, True), rows))
    else:
        print("\n\n".join(_render_markdown(doc, command, args.approx) for doc in docs))


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


# What every handler returns: its documents and its stderr lines. main writes
# both and picks the exit code.
Outcome = tuple[list[dict], list[str]]


def cmd_range(args: argparse.Namespace) -> Outcome:
    """table, enumerate, verify and coverage: build(r, mu0) for each r in
    ascending order, with mu0 the --mu0 text (if the command takes one)
    parsed once per command; the documents in order, and their FAIL lines."""
    build, smallest_r = _RANGE_COMMANDS[args.command]
    _require_r(args, smallest_r)
    mu0 = _validated_mu0(getattr(args, "mu0", None))
    built = [build(r, mu0) for r in range(args.r_min, args.r_max + 1)]
    return [doc for doc, _ in built], [line for _, lines in built for line in lines]


def cmd_region(args: argparse.Namespace) -> Outcome:
    from pathlib import Path  # only region and audit-certificate name a file

    r = _require_single_r(args)
    _require_r(args, 10)
    if args.t0 is None:
        raise UsageError("region needs --t0")
    if args.t0 > MAX_T0:
        raise UsageError(f"region --t0 must be at most {MAX_T0}")
    width = Fraction(1, 2**args.sqrt_width_exponent)
    doc = verify_t_bound(
        r, args.t0, depth_limit=args.bisection_depth, sqrt_width=width
    ).to_json_dict()
    # Path spells the name ("./c" as "c"), which os.path.join would not
    out_path = str(Path(args.cache_dir or ".") / f"certificate-r{r}-t{args.t0}.json")
    _atomic_write(out_path, _dumps(doc) + "\n")
    del doc["tree"]  # the summary is the certificate without its tree
    return [{**doc, "command": "region", "certificate_path": out_path}], []


def cmd_classify(args: argparse.Namespace) -> Outcome:
    r = _require_single_r(args)
    _require_r(args, 10)
    result = classify(r, _parse_mu(args.mu))
    return [{"command": "classify", **result.to_json_dict()}], []


def cmd_audit(args: argparse.Namespace) -> Outcome:
    from pathlib import Path  # only region and audit-certificate name a file

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
    return [summary], [f"AUDIT: {problem}" for problem in problems]


# --------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    """The command line's parser: top level, then one subparser per command."""
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand table, which maps each command
    name to its subparser (the `choices` of the subparsers action)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", dest="output_format", choices=FORMATS, default=None,
        help="output format (defaults: markdown for table, json elsewhere)",
    )
    common.add_argument("--cache-dir", dest="cache_dir", default=None,
                        help="directory region writes its certificate to "
                        "(the other commands ignore it)")
    common.add_argument("--depth", dest="bisection_depth", type=int,
                        default=DEFAULT_DEPTH_LIMIT,
                        help=f"bisection depth limit (default {DEFAULT_DEPTH_LIMIT})")
    common.add_argument("--jobs", dest="parallelism", type=int, default=1,
                        help="accepted and has no effect: every r is computed "
                        "in this process")
    common.add_argument("--approx", dest="approx", action="store_true",
                        help="append 6-digit decimal approximations to exact values")

    parser = argparse.ArgumentParser(
        prog="seshadri",
        description="Exact certification of Seshadri-function rationality "
        "on blow-ups of the plane at r very general points.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", parents=[common],
                       help="critical pairs at r, Table-style")
    p.add_argument("--r", required=True, help="point count, e.g. 12 or 10..13")
    p.add_argument("--mu0", default=None, help="threshold override, e.g. 7/2 or sqrt(13)")
    p.set_defaults(handler=cmd_range)

    p = sub.add_parser("enumerate", parents=[common],
                       help="critical pairs over a range of r")
    p.add_argument("--r", required=True, help="point count range, e.g. 10..13")
    p.add_argument("--mu0", default=None, help="threshold override")
    p.set_defaults(handler=cmd_range)

    p = sub.add_parser("verify", parents=[common],
                       help="check critical pairs against the threshold")
    p.add_argument("--r", required=True, help="point count range, e.g. 10..19")
    p.add_argument("--mu0", default=None, help="threshold override")
    p.set_defaults(handler=cmd_range)

    p = sub.add_parser("region", parents=[common],
                       help="certify the multiplicity cut-off t0 by bisection; "
                       "writes certificate-r<r>-t<t0>.json to --cache-dir "
                       "when set, else to the working directory")
    p.add_argument("--r", required=True, help="point count (single value)")
    p.add_argument("--t0", type=int, required=True, help="multiplicity to exclude")
    p.set_defaults(handler=cmd_region)

    p = sub.add_parser("classify", parents=[common],
                       help="rationality status of epsilon(mu) at rational mu")
    p.add_argument("--r", required=True, help="point count (single value)")
    p.add_argument("--mu", required=True, help="rational mu, e.g. 7/2")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("coverage", parents=[common],
                       help="chain the witness catalog over the target ray")
    p.add_argument("--r", required=True, help="point count range, e.g. 8..13")
    p.set_defaults(handler=cmd_range)

    p = sub.add_parser("audit-certificate", parents=[common],
                       help="replay a region certificate from scratch")
    p.add_argument("certificate", help="path to a certificate JSON file")
    p.set_defaults(handler=cmd_audit)

    return parser, sub.choices


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and the subcommand table `main` parses with,
    built on first use and kept for the process: parsing leaves a parser
    unchanged, and building them costs about 1 ms. main runs the named
    command's subparser alone, and the top-level parser only when no command
    comes first or the subparser leaves arguments over (_parse_command_line)."""
    return _build_parsers()


def _parse_command_line(argv: list[str]) -> argparse.Namespace:
    """argv parsed as `build_parser().parse_args(argv)` parses it. The
    top-level parser would hand a named command's subparser exactly argv[1:]
    and add only the name, so that subparser alone parses them; anything
    else, including arguments left over, goes to the two-level parse, which
    prints its own usage, help or error."""
    parser, commands = _parser()
    subparser = commands.get(argv[0]) if argv else None
    if subparser is not None:
        args, rest = subparser.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_command_line(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        args = resolve_config(args)
        if args.output_format == "csv" and args.command not in _RANGE_COMMANDS:
            # refused before the handler runs, so region writes no certificate
            raise UsageError(f"csv output is not available for {args.command}")
        docs, lines = args.handler(args)
        _emit_docs(args, docs)
    except (UsageError, UnsupportedR, InvalidT, InvalidT0, NotAboveSqrtR) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DepthLimitExceeded as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:
        # a defect, not a verdict: exit 1 is reserved for failed verification
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    for line in lines:
        print(line, file=sys.stderr)
    failed = lines or any(doc.get(field) is False for doc in docs for field in _VERDICT_FIELDS)
    return EXIT_FAIL if failed else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
