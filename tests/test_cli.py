"""End-to-end command-line behavior: formats, exit codes, config."""

import argparse
import contextlib
import fractions
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seshadri import cli, exact, region, search, surface, thresholds
from seshadri.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_PASS,
    EXIT_USAGE,
    MAX_MU_DIGITS,
    MAX_R,
    MAX_R_COUNT,
    MAX_RADICAND,
    MAX_T0,
    UsageError,
    build_parser,
    main,
    parse_r_range,
    resolve_config,
)

@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    """Run every test in a scratch directory, where region writes its
    certificates, without the one variable region reads."""
    monkeypatch.delenv(cli.WIDTH_VARIABLE, raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_parse_r_range():
    assert parse_r_range("12") == (12, 12)
    assert parse_r_range("10..19") == (10, 19)
    assert parse_r_range(" 14 ") == (14, 14)
    with pytest.raises(UsageError):
        parse_r_range("abc")
    with pytest.raises(UsageError):
        parse_r_range("19..10")
    with pytest.raises(UsageError):
        parse_r_range("10..x")
    top = f"{MAX_R - MAX_R_COUNT + 1}..{MAX_R}"
    assert parse_r_range(top) == (MAX_R - MAX_R_COUNT + 1, MAX_R)
    with pytest.raises(UsageError):
        parse_r_range(f"10..{MAX_R + 1}")


def test_r_range_length_cap(capsys):
    """A range of MAX_R_COUNT values parses and one more is refused, before
    any r is listed: the largest range is one line on stderr and exit 2."""
    assert parse_r_range(f"10..{9 + MAX_R_COUNT}") == (10, 9 + MAX_R_COUNT)
    with pytest.raises(UsageError, match=f"at most {MAX_R_COUNT} values"):
        parse_r_range(f"10..{10 + MAX_R_COUNT}")
    assert main(["verify", "--r", f"10..{MAX_R}"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: an --r range may hold at most {MAX_R_COUNT} values\n"


def _namespace(*argv):
    return build_parser().parse_args(list(argv))


def test_resolve_config_precedence(monkeypatch):
    """A flag overrides its default, which the parser holds, and a command's
    namespace holds only the flags it takes. The width variable is not
    read: resolve_config completes a command line that names no width,
    whatever the variable holds."""
    monkeypatch.setenv(cli.WIDTH_VARIABLE, "junk")
    cfg = resolve_config(_namespace("verify", "--r", "10"))
    assert (cfg.output_format, cfg.cache_dir, cfg.parallelism,
            cfg.approx) == (None, None, 1, False)
    flagged = _namespace("verify", "--r", "10", "--jobs", "3",
                         "--approx", "--format", "csv", "--cache-dir", "c")
    cfg = resolve_config(flagged)
    assert (cfg.output_format, cfg.cache_dir, cfg.parallelism,
            cfg.approx) == ("csv", "c", 3, True)
    assert not hasattr(cfg, "sqrt_width_exponent")
    assert not hasattr(cfg, "bisection_depth")
    cfg = resolve_config(_namespace("region", "--r", "10", "--t0", "6", "--depth", "11"))
    assert (cfg.bisection_depth, cfg.cache_dir) == (11, None)
    assert not hasattr(cfg, "approx") and not hasattr(cfg, "parallelism")


def test_resolve_config_validation(monkeypatch, isolated):
    """--depth and --jobs are checked by the handler that reads them, before
    it computes or writes anything: resolve_config passes them through."""
    for argv, message in (
        (("region", "--r", "13", "--t0", "3", "--depth", "0"),
         f"--depth must be in 1..{region.MAX_DEPTH_LIMIT}, got 0"),
        (("region", "--r", "13", "--t0", "3", "--depth", str(region.MAX_DEPTH_LIMIT + 1)),
         f"--depth must be in 1..{region.MAX_DEPTH_LIMIT}, got {region.MAX_DEPTH_LIMIT + 1}"),
        (("verify", "--r", "10", "--jobs", "0"), "--jobs must be >= 1, got 0"),
    ):
        resolve_config(_namespace(*argv))
        assert _call(argv) == ("", f"error: {message}\n", EXIT_USAGE), argv
    assert list(isolated.iterdir()) == []
    # region's width, read by region alone
    for width in ("0", "500", "junk"):
        monkeypatch.setenv(cli.WIDTH_VARIABLE, width)
        with pytest.raises(UsageError, match=cli.WIDTH_VARIABLE):
            cli._sqrt_width()
    monkeypatch.setenv(cli.WIDTH_VARIABLE, " 256 ")
    assert cli._sqrt_width() == Fraction(1, 2**256)


def test_region_alone_reads_the_width(monkeypatch):
    """region --r 13 --t0 3 writes the width the variable names into its
    certificate, and a malformed value fails it with exit 2 and one error
    line; verify prints the same bytes and exits 0 under any value."""
    argv = ("region", "--r", "13", "--t0", "3")
    for exponent, width in ((16, "1/65536"), (256, str(Fraction(1, 2**256)))):
        monkeypatch.setenv(cli.WIDTH_VARIABLE, str(exponent))
        assert _call(argv)[2] == EXIT_PASS
        certificate = json.loads(Path("certificate-r13-t3.json").read_text())
        assert certificate["sqrt_width"] == width, exponent
    monkeypatch.delenv(cli.WIDTH_VARIABLE)
    plain = _call(("verify", "--r", "10"))
    monkeypatch.setenv(cli.WIDTH_VARIABLE, "junk")
    message = f"error: {cli.WIDTH_VARIABLE} must be an integer in 1..256, got 'junk'\n"
    assert _call(argv) == ("", message, EXIT_USAGE)
    assert plain[2] == EXIT_PASS and _call(("verify", "--r", "10")) == plain


def test_ambient_configuration_is_ignored(monkeypatch, tmp_path):
    """A seshadri.conf in the working directory and SESHADRI_* copies of the
    flags change no output byte and no exit code: settings are flags."""
    runs = (("verify", "--r", "10"), ("region", "--r", "10", "--t0", "6"))
    clean = [_call(argv) for argv in runs]
    Path("seshadri.conf").write_text("output_format = markdown\nnot a setting\n")
    monkeypatch.setenv("SESHADRI_OUTPUT_FORMAT", "markdown")
    monkeypatch.setenv("SESHADRI_BISECTION_DEPTH", "3")
    monkeypatch.setenv("SESHADRI_CONFIG", "no/such/file")
    assert [_call(argv) for argv in runs] == clean
    assert [code for _, _, code in clean] == [EXIT_PASS, EXIT_PASS]


def test_table_markdown_r12(capsys):
    assert main(["table", "--r", "12"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.startswith("## r = 12 (mu0 = sqrt(13))")
    rows = [line for line in out.splitlines() if line.startswith("| (")]
    assert len(rows) == 27
    assert any("(13;4^8,3^4)" in line for line in rows)


def test_table_requires_r_at_least_10(capsys):
    assert main(["table", "--r", "9"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_verify_pass_and_fail(capsys):
    assert main(["verify", "--r", "10..13"]) == EXIT_PASS
    capsys.readouterr()
    assert main(["verify", "--r", "12", "--mu0", "7/2"]) == EXIT_PASS
    capsys.readouterr()
    assert main(["verify", "--r", "12", "--mu0", "9/2"]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert "FAIL r=12" in captured.err
    doc = json.loads(captured.out)
    assert doc["all_pass"] is False
    assert any(row["outcome"] == "Counterexample" for row in doc["pairs"])


def test_verify_json_shape(capsys):
    assert main(["verify", "--r", "20"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is True
    assert len(doc["small_degree_pairs"]) == 5
    assert all(rec["negative_delta"] for rec in doc["small_degree_pairs"])
    assert doc["large_r"] == {
        "degree_five_inequality": True,
        "small_degree_inequality": True,
    }


def test_usage_errors(capsys):
    assert main(["verify", "--r", "19..10"]) == EXIT_USAGE
    assert main(["table", "--r", "12", "--mu0", "not-a-number"]) == EXIT_USAGE
    assert main(["classify", "--r", "10..12", "--mu", "7/2"]) == EXIT_USAGE
    assert main(["classify", "--r", "10", "--mu", "abc"]) == EXIT_USAGE
    assert main(["classify", "--r", "10", "--mu", "7/2", "--format", "csv"]) == EXIT_USAGE
    assert main(["audit-certificate", "no-such-file.json"]) == EXIT_USAGE
    assert main(["region", "--r", "12"]) == EXIT_USAGE  # missing --t0
    capsys.readouterr()


def test_mu0_radicand_cap(capsys):
    big = f"sqrt({MAX_RADICAND + 1})"
    for argv in (["verify", "--r", "12", "--mu0", big],
                 ["table", "--r", "12", "--mu0", f"1 - 2*{big}"],
                 ["verify", "--r", "12", "--mu0", "sqrt(" + "9" * 5000 + ")"]):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --mu0 radicands") and err.count("\n") == 1
    assert main(["verify", "--r", "12", "--mu0", f"sqrt({MAX_RADICAND})"]) == EXIT_FAIL


def test_mu0_zero_denominator_is_a_usage_error(capsys):
    for mu0 in ("1/0", "1/0*sqrt(2)", "3 + 1/0*sqrt(2)", "1/0 + sqrt(2)"):
        assert main(["verify", "--r", "12", "--mu0", mu0]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: zero denominator in quadratic number {mu0!r}\n"
        )


def test_region_argument_cap(capsys, tmp_path):
    """--r past MAX_R and --t0 past MAX_T0 are one-line usage errors, not an
    over-long file name or a digit-limit traceback; the caps themselves run."""
    huge_r, huge_t0 = "1" + "0" * 300, "1" + "0" * 3000
    for argv, message in (
        (["region", "--r", huge_r, "--t0", "3"], f"--r must be at most {MAX_R}"),
        (["region", "--r", "10", "--t0", huge_t0], f"region --t0 must be at most {MAX_T0}"),
        (["region", "--r", str(MAX_R + 1), "--t0", "3"], f"--r must be at most {MAX_R}"),
        (["region", "--r", "10", "--t0", str(MAX_T0 + 1)],
         f"region --t0 must be at most {MAX_T0}"),
    ):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
    r_cap, t0_cap = str(MAX_R), str(MAX_T0)
    assert main(["region", "--r", r_cap, "--t0", t0_cap]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["t0"] == MAX_T0
    assert (tmp_path / f"certificate-r{r_cap}-t{t0_cap}.json").exists()


def test_mu_digit_cap(capsys):
    """A --mu whose numerator or denominator would pass MAX_MU_DIGITS digits
    is a one-line usage error, refused before the exponent is expanded; a
    --mu at the cap runs, since mu^2 - r then stays printable."""
    for mu in ("1e5000", "1e100000000", "1e2200", "1e-5000", "1e" + "9" * 5000,
               "1" * (MAX_MU_DIGITS + 1) + "/7", "7/1" + "0" * MAX_MU_DIGITS,
               f"1e{MAX_MU_DIGITS}", f"1e-{MAX_MU_DIGITS}"):
        assert main(["classify", "--r", "10", "--mu", mu]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == (f"error: --mu numerator and denominator must have at most "
                       f"{MAX_MU_DIGITS} digits\n")
    at_cap = "9" * MAX_MU_DIGITS + "/1" + "0" * (MAX_MU_DIGITS - 1)
    for mu in (at_cap, f"1e{MAX_MU_DIGITS - 1}", "0.5e3"):
        assert main(["classify", "--r", "10", "--mu", mu]) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["mu"] == str(Fraction(mu))
    for mu in ("0" * 5000 + "1", "1/0", "7 / 2 / 3"):
        assert main(["classify", "--r", "10", "--mu", mu]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot parse mu") and err.count("\n") == 1


# Every command that takes --r, with the other arguments it needs to run.
R_COMMANDS = {
    "classify": ["--mu", str(10**9 + 1)],
    "coverage": [],
    "enumerate": [],
    "region": ["--t0", "3"],
    "table": [],
    "verify": [],
}


@pytest.mark.parametrize("command", sorted(R_COMMANDS))
def test_r_cap(command, capsys):
    """An r past MAX_R, alone or at the top of a range, is a one-line usage
    error for every command; r = MAX_R itself runs, with no class of length r."""
    extra = R_COMMANDS[command]
    for r in (str(MAX_R + 1), "1" + "0" * 300, f"{MAX_R - 1}..{MAX_R + 1}"):
        assert main([command, "--r", r, *extra]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --r must be at most {MAX_R}\n"
    assert main([command, "--r", str(MAX_R), *extra, "--format", "json"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["r"] == MAX_R


def _plan(r, mu0=None):
    """The plan cmd_range builds for one r."""
    return cli._RangePlan(r, r, mu0)


def _laid_out(doc):
    """A range handler's document as a dict: verify's checks at an r >= 20,
    (pairs, key, values), laid out by _large_r_layout, and any other
    document as it is."""
    return cli._large_r_layout(*doc) if type(doc) is tuple else doc


def _record_splits(monkeypatch):
    """The list of every radicand squarefree_decomposition splits from now
    on, at any module that binds it."""
    radicands = []
    split = exact.squarefree_decomposition

    def recording(n):
        radicands.append(n)
        return split(n)

    for name, module in list(sys.modules.items()):
        if name == "seshadri" or name.startswith("seshadri."):
            for attr, value in list(vars(module).items()):
                if value is split:
                    monkeypatch.setattr(module, attr, recording)
    return radicands


def test_verify_doc_needs_no_enclosures(capsys, monkeypatch):
    """Thresholds and pair checks decide signs without enclosures, and build
    at most the one radicand sqrt(r + 1) from scratch at large r. Over a
    range, sqrt(r + 1) comes from the range's sieve: 1,000 values of r near
    MAX_R make no squarefree split of any r + 1, at any module that binds
    squarefree_decomposition, and render each small-degree class once."""
    calls = {"enclosure": 0, "sqrt_enclosure": 0, "squarefree": 0, "cross_field": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def counting_compare(x, y):
        if getattr(x, "rad", 0) and getattr(y, "rad", 0) and x.rad != y.rad:
            calls["cross_field"] += 1
        return exact.compare(x, y)

    monkeypatch.setattr(exact.QuadraticNumber, "enclosure",
                        counting("enclosure", exact.QuadraticNumber.enclosure))
    monkeypatch.setattr(exact, "sqrt_enclosure", counting("sqrt_enclosure", exact.sqrt_enclosure))
    monkeypatch.setattr(region, "sqrt_enclosure", exact.sqrt_enclosure)
    monkeypatch.setattr(exact, "squarefree_decomposition",
                        counting("squarefree", exact.squarefree_decomposition))
    monkeypatch.setattr(surface, "squarefree_decomposition", exact.squarefree_decomposition)
    monkeypatch.setattr(search, "compare", counting_compare)
    for r in range(10, 20):
        cli._verify_doc(r, _plan(r))
    assert calls["cross_field"] > 0
    calls["squarefree"] = 0
    cli._verify_doc(1500, _plan(1500))
    assert calls["enclosure"] == 0
    assert calls["sqrt_enclosure"] == 0
    assert calls["squarefree"] <= 1

    radicands, rendered = _record_splits(monkeypatch), []
    render = surface.CurveClass.render

    def counting_render(self):
        rendered.append(render(self))
        return rendered[-1]

    monkeypatch.setattr(surface.CurveClass, "render", counting_render)
    assert main(["verify", "--r", f"{MAX_R - 999}..{MAX_R}"]) == EXIT_PASS
    docs = json.loads(capsys.readouterr().out)["results"]
    assert len(docs) == 1000 and docs[-1]["mu0"] == "sqrt(1000000000000000001)"
    assert radicands == []
    assert rendered == [row["class"] for row in docs[0]["small_degree_pairs"]]
    assert len(rendered) == 5
    assert calls["enclosure"] == calls["sqrt_enclosure"] == 0


def test_approx_splits_no_radicand_near_max_r(capsys, monkeypatch):
    """--approx writes each rendered exact string as a decimal from the
    parts it reads, with no second split of its radicand: 1,000 values of r
    near MAX_R make no squarefree split, and the decimals are the ones the
    canonicalised numbers give."""
    radicands = _record_splits(monkeypatch)
    assert main(["verify", "--r", f"{MAX_R - 999}..{MAX_R}", "--approx"]) == EXIT_PASS
    docs = json.loads(capsys.readouterr().out)["results"]
    assert radicands == []
    assert len(docs) == 1000 and docs[-1]["mu0"] == "sqrt(1000000000000000001)"
    for doc in (docs[0], docs[-1]):
        assert doc["mu0_approx"] == exact.parse_quadratic(doc["mu0"]).approx_decimal(6)


def test_range_thresholds_pass_the_check_above_sqrt_r(capsys, monkeypatch):
    """Every mu_0(r) a command prints comes through threshold and
    ThresholdEntry's check, a range's from its plan's sqrt(r + 1), classify's
    and coverage's from their own: a rule that put mu_0 below sqrt(r) is an
    internal error, not a verdict."""
    monkeypatch.setitem(thresholds._TABLED_MU0, 10, exact.QuadraticNumber(3))
    argvs = [[command, "--r", r_range]
             for command in ("verify", "enumerate", "table")
             for r_range in ("10", "10..25")]
    argvs += [["classify", "--r", "10", "--mu", "7/2"], ["coverage", "--r", "10"]]
    for argv in argvs:
        assert main(argv) == EXIT_INTERNAL, argv
        out, err = capsys.readouterr()
        assert (out, err) == ("", "internal error: ValueError: mu0 = 3 sits below sqrt(10)\n")


def test_verify_doc_builds_at_most_one_fraction(monkeypatch):
    """At large r, sqrt(r + 1) and its string are built from integers: the
    one Fraction made is the coefficient of the root."""
    calls = 0
    original = vars(fractions.Fraction)["__new__"]

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", staticmethod(counting))
    doc, _ = cli._verify_doc(1500, _plan(1500))
    assert _laid_out(doc)["mu0"] == "sqrt(1501)"
    assert calls <= 1


def test_mu0_is_parsed_once_per_command(capsys, monkeypatch):
    """A large --mu0 radicand is reduced to squarefree form once per command,
    not once per r."""
    big = 999999999999999989
    calls = []

    def counting(n):
        if n == big:
            calls.append(n)
        return squarefree(n)

    squarefree = exact.squarefree_decomposition
    monkeypatch.setattr(exact, "squarefree_decomposition", counting)
    counts = []
    for r_range in ("10..10", "10..29"):
        calls.clear()
        argv = ["verify", "--r", r_range, "--mu0", f"sqrt({big})"]
        assert main(argv) in (EXIT_PASS, EXIT_FAIL)
        capsys.readouterr()
        counts.append(len(calls))
    assert counts == [1, 1]


def test_classify_json(capsys):
    assert main(["classify", "--r", "10", "--mu", "7/2"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "classify"
    assert doc["verdict"] == "RationalWithWitness"
    assert doc["witness"]["class"] == "(3;1^9)"
    assert main(["classify", "--r", "10", "--mu", "3"]) == EXIT_USAGE


def test_region_writes_certificate_and_audit_accepts(capsys, tmp_path):
    assert main(["region", "--r", "12", "--t0", "4"]) == EXIT_PASS
    summary = json.loads(capsys.readouterr().out)
    cert_path = Path(summary["certificate_path"])
    assert cert_path.name == "certificate-r12-t4.json"
    assert cert_path.exists()
    assert "tree" not in summary
    assert summary["kind"] == "q_negativity_certificate"

    assert main(["audit-certificate", str(cert_path)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["problems"] == []

    tampered = json.loads(cert_path.read_text())
    tampered["leaf_count"] += 1
    cert_path.write_text(json.dumps(tampered))
    assert main(["audit-certificate", str(cert_path)]) == EXIT_FAIL
    captured = capsys.readouterr()
    assert "AUDIT:" in captured.err

    cert_path.write_text("{ not json")
    assert main(["audit-certificate", str(cert_path)]) == EXIT_USAGE
    capsys.readouterr()


# Edits of the region --r 13 --t0 3 certificate, each with the one problem
# the audit finds: four header values out of range, refused before the
# tree is walked (r = 9 with the root lower end moved to 3, so that it
# stays in (0, sqrt(9)]), and a node whose lower end is not its parent's
# split.
AUDIT_REFUSALS = {
    "r": (lambda doc: doc.update(r=9, mu_lo="3"), "r = 9 out of range"),
    "t0": (lambda doc: doc.update(t0=1), "t0 = 1 out of range"),
    "sqrt_width": (lambda doc: doc.update(sqrt_width="0"), "sqrt_width = 0 not positive"),
    "mu_hi": (lambda doc: doc.update(mu_hi="37/10"),
              "root upper end 37/10 does not sit at or above sqrt(14)"),
    "node": (lambda doc: doc["tree"]["children"][1].update(mu_lo=doc["mu_lo"]),
             "node claims [3871431203/1073741824, 8035148055/2147483648], "
             "expected [15778010461/4294967296, 8035148055/2147483648]"),
}


@pytest.mark.parametrize("field", sorted(AUDIT_REFUSALS))
def test_audit_refuses_an_edited_certificate(field):
    edit, problem = AUDIT_REFUSALS[field]
    assert _call(("region", "--r", "13", "--t0", "3"))[2] == EXIT_PASS
    doc = json.loads(Path("certificate-r13-t3.json").read_text())
    edit(doc)
    Path("edited.json").write_text(json.dumps(doc))
    out, err, code = _call(("audit-certificate", "edited.json"))
    assert (err, code) == (f"AUDIT: {problem}\n", EXIT_FAIL)
    assert json.loads(out)["problems"] == [problem]


def test_internal_error_is_one_line_and_exit_4(capsys, monkeypatch):
    """An exception no handler expects (here a broken premise of the search)
    is exit 4 with one stderr line, not a traceback under exit 1."""
    def broken(d, t, r):
        raise RuntimeError(f"maximal M not monotone in d at r={r}, t={t}, d={d}")

    monkeypatch.setattr(search, "_max_total_satisfying_edim", broken)
    assert main(["verify", "--r", "10"]) == EXIT_INTERNAL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "internal error: RuntimeError: maximal M not monotone in d at r=10, t=1, d=2\n"
    )


def test_region_depth_limit_is_inconclusive(capsys):
    assert main(["region", "--r", "10", "--t0", "6", "--depth", "1"]) == EXIT_INCONCLUSIVE
    assert "inconclusive" in capsys.readouterr().err


def test_deep_bisection_is_inconclusive_not_a_crash(capsys):
    """t0 = 2 never closes at r = 10; the bisection runs down to a depth far
    past the interpreter's recursion limit and reports it as inconclusive."""
    argv = ["region", "--r", "10", "--t0", "2", "--depth", "1500"]
    assert main(argv) == EXIT_INCONCLUSIVE
    err = capsys.readouterr().err
    assert err.startswith("inconclusive: ") and "at depth 1500" in err
    assert err.count("\n") == 1


def test_audit_of_unreadable_certificate_is_a_usage_error(capsys, tmp_path):
    """JSON nested past the recursion limit, or holding an integer past the
    digit limit, is refused with one line on stderr and exit 2."""
    deep = tmp_path / "deep.json"
    deep.write_text('{"tree": ' + '{"children": [' * 3000 + "]}" * 3000 + "}")
    huge = tmp_path / "huge.json"
    huge.write_text('{"r": ' + "1" * 5000 + "}")
    for path in (deep, huge):
        assert main(["audit-certificate", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: certificate ") and err.count("\n") == 1


def test_audit_of_an_empty_path_is_a_usage_error(capsys):
    """An empty certificate path is refused by name, not read as the
    working directory (Path("") is ".")."""
    assert main(["audit-certificate", ""]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot read certificate '': the path is empty\n"


def test_region_defaults_come_from_the_library(capsys):
    cfg = resolve_config(_namespace("region", "--r", "10", "--t0", "6"))
    assert cfg.bisection_depth == region.DEFAULT_DEPTH_LIMIT
    assert cli._sqrt_width() == exact.DEFAULT_SQRT_WIDTH
    assert main(["region", "--help"]) == EXIT_PASS
    assert f"(default {region.DEFAULT_DEPTH_LIMIT})" in capsys.readouterr().out


def test_region_certificate_goes_to_cache_dir(capsys, tmp_path):
    cache = tmp_path / "certs"
    argv = ["region", "--r", "13", "--t0", "3", "--cache-dir", str(cache)]
    assert main(argv) == EXIT_PASS
    capsys.readouterr()
    out = cache / "certificate-r13-t3.json"
    # the certificate is the one file region writes there
    assert [p.name for p in cache.iterdir()] == ["certificate-r13-t3.json"]
    assert main(argv) == EXIT_PASS
    capsys.readouterr()
    assert main(["audit-certificate", str(out)]) == EXIT_PASS
    capsys.readouterr()


UNWRITABLE_RUNS = (
    ("region", "--r", "13", "--t0", "3", "--cache-dir", "plain-file/sub"),
)


@pytest.mark.parametrize("argv", UNWRITABLE_RUNS, ids=lambda argv: argv[0])
def test_unwritable_output_directory_is_a_usage_error(capsys, argv):
    """A certificate under a regular file cannot be written:
    one error line and exit 2, not a traceback and exit 1 (which reads as a
    failed verification). A path under a file fails for root too, where a
    read-only directory would not."""
    Path("plain-file").write_text("")
    assert main(list(argv)) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: cannot write plain-file/sub/")
    assert err.endswith(": Not a directory\n") and err.count("\n") == 1


def test_json_output_is_deterministic(capsys):
    assert main(["verify", "--r", "10..12"]) == EXIT_PASS
    first = capsys.readouterr().out
    assert main(["verify", "--r", "10..12"]) == EXIT_PASS
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["command"] == "verify"
    assert [d["r"] for d in doc["results"]] == [10, 11, 12]


# sha256 of stdout, recorded before the critical-pair search moved to the
# closed form of (**) on balanced classes; the output must not change.
GOLDEN_STDOUT_SHA256 = {
    ("verify", "--r", "10..200"):
        "1623d7685798e8ed24c41dc9a40e2dadafbca96d92aec2328b88581705167b18",
    ("table", "--r", "12", "--format", "csv"):
        "219208b5b04b75ac77d37c00d22c33878c02fb9eeb230435a346efded60f3d06",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_STDOUT_SHA256))
def test_stdout_matches_golden_digest(capsys, argv):
    assert main(list(argv)) == EXIT_PASS
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT_SHA256[argv]


# sha256 of the certificate file, recorded before the leaf rule moved from
# generic interval arithmetic to the endpoint formulas of q_coefficients.
GOLDEN_CERTIFICATE_SHA256 = {
    (10, 6, 16): "600fa187d4708b432c7eae9288736e97f2f14e52ccec0997d160fdae12f897cc",
    (13, 3, 16): "98611fee768d54146b722b95062872a9aa239b3d109e9ab4bc76736c897e485b",
    (10, 6, 256): "1865a7a4eb006c924bf88b5fc8ffdb0d16f33832c9508d39aee807b082bfa089",
    (13, 3, 256): "4e452cae5fc0a6a85efb7aca85b84c698be09bf1db0c3a005fed0cf8d708f321",
}


@pytest.mark.parametrize("job", sorted(GOLDEN_CERTIFICATE_SHA256))
def test_certificate_matches_golden_digest(capsys, monkeypatch, tmp_path, job):
    r, t0, exponent = job
    monkeypatch.setenv("SESHADRI_SQRT_WIDTH_EXPONENT", str(exponent))
    assert main(["region", "--r", str(r), "--t0", str(t0)]) == EXIT_PASS
    capsys.readouterr()
    data = (tmp_path / f"certificate-r{r}-t{t0}.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CERTIFICATE_SHA256[job]


# sha256 over the certificate texts, or DepthLimitExceeded messages, of every
# (r, t0, width) below, recorded before region cancelled the bracket's and
# a's denominators from the bounds it builds.
BROAD_CERTIFICATE_SHA256 = (
    "c59acc4208add9e608232fcfbbe623c049be228e4cb94d056008c151d003acdc"
)


def test_certificates_over_a_broad_grid_match_their_recorded_digest(
    monkeypatch, isolated
):
    """525 certificates at the five CLI widths, 30 of them inconclusive,
    and nine at widths whose bracket denominator is not a power of two.
    The bytes region writes are _dumps of its certificate and a newline,
    and they hash, with the DepthLimitExceeded texts region reports for
    the inconclusive jobs, to the recorded digest."""
    jobs = [
        (r, t0, Fraction(1, 2**exponent))
        for r in range(10, 31)
        for t0 in (3, 4, 5, 6, 8)
        for exponent in (16, 32, 64, 128, 256)
    ] + [
        (r, t0, Fraction(width))
        for width in ("1/3", "2/7", "1/1000")
        for r, t0 in ((10, 6), (12, 4), (13, 3))
    ]
    proofs = []
    prove = cli.verify_t_bound

    def recorded(*args, **kwargs):
        proofs.append(prove(*args, **kwargs))
        return proofs[-1]

    monkeypatch.setattr(cli, "verify_t_bound", recorded)
    digest, inconclusive = hashlib.sha256(), 0
    for r, t0, width in jobs:
        monkeypatch.setattr(cli, "_sqrt_width", lambda: width)
        proofs.clear()
        _, err, code = _call(("region", "--r", str(r), "--t0", str(t0)))
        if code == EXIT_INCONCLUSIVE:
            assert err.startswith("inconclusive: ") and not proofs
            digest.update(err.removeprefix("inconclusive: ").encode("utf-8"))
            inconclusive += 1
            continue
        assert (err, code) == ("", EXIT_PASS)
        path = isolated / f"certificate-r{r}-t{t0}.json"
        data = path.read_bytes()
        path.unlink()  # a fresh name each time: renaming over a file flushes it
        text = cli._dumps(proofs[0].to_json_dict()) + "\n"
        assert data == text.encode("utf-8"), (r, t0, width)
        digest.update(data)
    assert (len(jobs), inconclusive) == (534, 37)
    assert digest.hexdigest() == BROAD_CERTIFICATE_SHA256


def _comb_certificate(levels):
    """A certificate-shaped tree `levels` splits deep: each level holds one
    closed leaf, with a rule and witnesses (keys in reverse order), and one
    split, on the left at even levels and on the right at odd ones."""
    rules = (
        ("c_negative", ("c", "b", "a")),
        ("vertex_negative", ("vertex", "c", "b", "a")),
        ("outside_strip", ("mu_sq",)),
    )
    tree = node = {"mu_lo": "3", "mu_hi": "4"}
    for level in range(levels + 1):
        rule, names = rules[level % 3]
        closed = {
            "rule": rule,
            "witnesses": {name: [f"-{level}/7", str(level)] for name in names},
        }
        if level == levels:
            node.update(closed)
            break
        lo, hi = node["mu_lo"], node["mu_hi"]
        mid = str((Fraction(lo) + Fraction(hi)) / 2)
        left, right = {"mu_lo": lo, "mu_hi": mid}, {"mu_lo": mid, "mu_hi": hi}
        node["children"] = [left, right]
        leaf, node = (right, left) if level % 2 == 0 else (left, right)
        leaf.update(closed)
    return region.Certificate(
        r=10, t0=6, depth_limit=region.MAX_DEPTH_LIMIT, sqrt_width=Fraction(1, 2**32),
        mu_lo=Fraction(3), mu_hi=Fraction(4), max_depth=levels, leaf_count=levels + 1,
        tree=tree,
    )


def test_region_writes_a_comb_deeper_than_the_recursion_limit(monkeypatch, isolated):
    cert = _comb_certificate(sys.getrecursionlimit() + 100)
    monkeypatch.setattr(cli, "verify_t_bound", lambda *args, **kw: cert)
    assert _call(("region", "--r", "10", "--t0", "6"))[2] == EXIT_PASS
    data = (isolated / "certificate-r10-t6.json").read_text()
    assert data == cli._dumps(cert.to_json_dict()) + "\n"


def test_region_passes_no_tree_to_dumps(monkeypatch):
    """region writes its certificate's tree in one pass of its own: _dumps
    writes the header and the summary, never a document with the tree."""
    holds_tree = []
    dumps = cli._dumps
    monkeypatch.setattr(
        cli, "_dumps", lambda doc: holds_tree.append("tree" in doc) or dumps(doc)
    )
    assert _call(("region", "--r", "10", "--t0", "6"))[2] == EXIT_PASS
    assert holds_tree == [False, False]


def test_region_peak_memory_is_within_three_certificates(isolated):
    """The certificate is streamed to its file as it is laid out, so the
    traced peak of a region run, tree included, stays within three times
    the bytes it writes (a joined text and its copy reached four)."""
    import tracemalloc

    _call(("region", "--r", "10", "--t0", "99"))  # builds the parser
    tracemalloc.start()
    try:
        assert _call(("region", "--r", "10", "--t0", "100"))[2] == EXIT_PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (isolated / "certificate-r10-t100.json").stat().st_size
    assert size == 771_993
    assert peak <= 3 * size, peak / size


def test_range_flags_start_nothing_and_write_nothing(monkeypatch, isolated):
    """--jobs and --cache-dir still parse on a range command and change
    nothing: the bytes of the plain run, no directory created, and no
    process started."""
    import multiprocessing.process

    def no_process(self):
        raise AssertionError("a range command started a process")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    plain = _call(("verify", "--r", "10..13"))
    assert plain[2] == EXIT_PASS
    flagged = ("verify", "--r", "10..13", "--jobs", "2", "--cache-dir", "D")
    assert _call(flagged) == plain
    assert list(isolated.iterdir()) == []


# A command line of each command with its required arguments alone;
# audit-certificate reads the certificate region writes.
FLAG_BASES = {
    "table": ("table", "--r", "12"),
    "enumerate": ("enumerate", "--r", "10..11"),
    "verify": ("verify", "--r", "10..11"),
    "coverage": ("coverage", "--r", "8..13"),
    "region": ("region", "--r", "13", "--t0", "3"),
    "classify": ("classify", "--r", "10", "--mu", "7/2"),
    "audit-certificate": ("audit-certificate", "certificate-r13-t3.json"),
}
# A value other than its default for each optional flag that takes one and
# has no choices; a flag with choices is given each of them.
FLAG_VALUES = {"--mu0": "7/2", "--depth": "2", "--cache-dir": "elsewhere", "--jobs": "2"}
# The flags the range commands take and do not read.
NO_EFFECT_FLAGS = {"--jobs", "--cache-dir"}


def test_every_optional_flag_changes_something(isolated, monkeypatch):
    """Each optional flag a command's parser takes changes what the command
    line does: its stdout, stderr, exit code or the files it leaves (region's
    certificate). Each choice of a flag gives its own outcome, one of them
    the outcome without the flag. The exceptions, --jobs and --cache-dir on
    the range commands, change nothing."""
    assert _call(FLAG_BASES["region"])[2] == EXIT_PASS
    certificate = Path("certificate-r13-t3.json").read_bytes()

    def outcome(argv):
        """argv's stdout, stderr and exit code, and every file of the fresh
        directory it runs in, which held the certificate alone."""
        directory = Path(tempfile.mkdtemp(dir=isolated))
        (directory / "certificate-r13-t3.json").write_bytes(certificate)
        monkeypatch.chdir(directory)
        call = _call(argv)
        files = {str(path.relative_to(directory)): path.read_bytes()
                 for path in directory.rglob("*") if path.is_file()}
        return call, files

    parser = build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    assert commands.keys() == FLAG_BASES.keys()
    checked = 0
    for name, base in FLAG_BASES.items():
        plain = outcome(base)
        assert plain[0][2] == EXIT_PASS, base
        for action in commands[name]._actions:
            if not action.option_strings or action.required or action.dest == "help":
                continue
            (flag,) = action.option_strings
            if action.choices:
                given = [(flag, choice) for choice in action.choices]
            elif action.nargs == 0:
                given = [(flag,)]
            else:
                given = [(flag, FLAG_VALUES[flag])]
            outcomes = [outcome((*base, *option)) for option in given]
            if name in cli._RANGE_COMMANDS and flag in NO_EFFECT_FLAGS:
                assert outcomes == [plain], (name, flag)
            elif action.choices:
                distinct = {repr(each) for each in outcomes}
                assert len(distinct) == len(outcomes) and plain in outcomes, (name, flag)
            else:
                assert outcomes[0] != plain, (name, flag)
            checked += 1
    assert checked == 24  # the option table's 33 slots, less 8 required flags and a path


def test_coverage_gap_fails_the_command(capsys, monkeypatch):
    """A coverage document whose covered field is false exits 1 with one
    FAIL line per gap: with the exceptional class as the whole catalog, the
    chain at r = 10 leaves (mu0, sqrt(11)) uncovered. The field alone sets
    the exit code: without its FAIL lines the command still exits 1."""
    catalog = thresholds.catalog

    def only_exceptional(r):
        return [cc for cc in catalog(r) if cc.curve.is_exceptional]

    monkeypatch.setattr(thresholds, "catalog", only_exceptional)
    assert main(["coverage", "--r", "10"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert json.loads(out)["gaps"] == [["77/24", "sqrt(11)"]]
    assert err == "FAIL r=10: coverage gap (77/24, sqrt(11))\n"

    build, smallest_r = cli._RANGE_COMMANDS["coverage"]

    def without_lines(r, plan):
        doc, _ = build(r, plan)
        return doc, []

    monkeypatch.setitem(cli._RANGE_COMMANDS, "coverage", (without_lines, smallest_r))
    assert main(["coverage", "--r", "10"]) == EXIT_FAIL
    assert capsys.readouterr().err == ""


def _nonnegative_delta(pair, mu0):
    """A stand-in for cli's check_pair, which checks every r >= 20 row: the
    real verdict of a small-degree pair (delta < 0 at every r >= 20) with its
    delta negated, passing at mu0."""
    verdict = search.check_pair(pair, mu0)
    assert verdict.delta < 0
    return search.Verdict(-verdict.delta, mu0, search.Outcome.PASS_MU_MINUS_ABOVE_THRESHOLD)


def test_verify_large_r_failures_fail_the_command(capsys, monkeypatch):
    """verify's two r >= 20 checks, made to fail: small-degree pairs with
    delta >= 0 and large-r inequalities that do not hold. No real r fails
    either, so a stand-in serves cli's check_pair (whose pair rows it passes)
    and large_r_inequalities."""
    monkeypatch.setattr(cli, "check_pair", _nonnegative_delta)
    monkeypatch.setattr(cli, "large_r_inequalities", lambda r: (True, False))
    assert main(["verify", "--r", "188..189"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    docs = json.loads(out)["results"]
    assert [doc["all_pass"] for doc in docs] == [False, False]
    assert err == "\n".join([
        "FAIL r=188: small-degree pair (2;1^5) t=1 has delta = 539 >= 0",
        "FAIL r=188: small-degree pair (3;1^9) t=1 has delta = 1423 >= 0",
        "FAIL r=188: small-degree pair (4;1^14) t=1 has delta = 2624 >= 0",
        "FAIL r=188: small-degree pair (3;1^8) t=2 has delta = 876 >= 0",
        "FAIL r=188: small-degree pair (4;1^13) t=2 has delta = 2087 >= 0",
        "FAIL r=188: large-r inequalities do not hold",
        "FAIL r=189: small-degree pair (2;1^5) t=1 has delta = 542 >= 0",
        "FAIL r=189: small-degree pair (3;1^9) t=1 has delta = 1431 >= 0",
        "FAIL r=189: small-degree pair (4;1^14) t=1 has delta = 2639 >= 0",
        "FAIL r=189: small-degree pair (3;1^8) t=2 has delta = 881 >= 0",
        "FAIL r=189: small-degree pair (4;1^13) t=2 has delta = 2099 >= 0",
        "FAIL r=189: large-r inequalities do not hold",
    ]) + "\n"


def _oracle_verify_failures(doc):
    """verify's FAIL lines read back from a finished document: the pass
    the CLI made over every row before its builders wrote their own lines."""
    r = doc["r"]
    lines = [
        f"FAIL r={r}: {row['class']} t={row['t']} has "
        f"mu_minus = {row['mu_minus']} below mu0 = {doc['mu0']}"
        for row in doc["pairs"]
        if row["outcome"] == "Counterexample"
    ]
    lines += [
        f"FAIL r={r}: small-degree pair {record['class']} "
        f"t={record['t']} has delta = {record['delta']} >= 0"
        for record in doc.get("small_degree_pairs") or []
        if not record["negative_delta"]
    ]
    if doc.get("large_r") is not None and not all(doc["large_r"].values()):
        lines.append(f"FAIL r={r}: large-r inequalities do not hold")
    return lines


def _oracle_coverage_failures(doc):
    if doc["covered"]:
        return []
    return [f"FAIL r={doc['r']}: coverage gap ({lo}, {hi})" for lo, hi in doc["gaps"]]


def test_builder_lines_match_the_document_oracle(monkeypatch):
    """Each range builder's FAIL lines are the ones read back from its
    document, and verify's all_pass is their absence: r = 10..19 at the
    published thresholds and at --mu0 7/2, 9/2, 4 and sqrt(13) (several
    fail), r = 20..40 as they are and with their checks made to fail,
    coverage over r = 1..40, and a coverage gap."""
    build_verify, _ = cli._RANGE_COMMANDS["verify"]
    build_coverage, _ = cli._RANGE_COMMANDS["coverage"]
    runs = [(r, None) for r in range(10, 41)] + [
        (r, cli._validated_mu0(text))
        for text in ("7/2", "9/2", "4", "sqrt(13)")
        for r in range(10, 20)
    ]
    failing = 0
    for r, mu0 in runs:
        doc, lines = build_verify(r, _plan(r, mu0))
        doc = _laid_out(doc)
        assert lines == _oracle_verify_failures(doc), (r, mu0)
        assert doc["all_pass"] == (not lines), (r, mu0)
        failing += bool(lines)
    assert failing > 0
    for r in range(1, 41):
        doc, lines = build_coverage(r, _plan(r))
        assert lines == _oracle_coverage_failures(doc) == [], r
    catalog = thresholds.catalog
    monkeypatch.setattr(
        thresholds, "catalog",
        lambda r: [cc for cc in catalog(r) if cc.curve.is_exceptional],
    )
    doc, lines = build_coverage(10, _plan(10))
    assert lines == _oracle_coverage_failures(doc) == [
        "FAIL r=10: coverage gap (77/24, sqrt(11))"
    ]
    # the r >= 20 checks made to fail, as no real r fails them
    monkeypatch.setattr(cli, "check_pair", _nonnegative_delta)
    monkeypatch.setattr(cli, "large_r_inequalities", lambda r: (False, True))
    for r in range(20, 41):
        doc, lines = build_verify(r, _plan(r))
        doc = _laid_out(doc)
        assert len(lines) == 6 and lines == _oracle_verify_failures(doc), r
        assert doc["all_pass"] is False


def _composed_verify_doc(r, mu0):
    """verify at r composed from the library as the CLI once did: every
    critical pair through verify_no_counterexample, then each of
    small_degree_pairs(r) built and checked again at r >= 20, then
    large_r_inequalities; FAIL lines in that order."""
    report = search.verify_no_counterexample(r, mu0)
    mu0_text = report.mu0.render()
    pairs, lines = [], []
    for pair, verdict in report.pairs:
        record = {
            "class": pair.curve.render(),
            "t": pair.t,
            "M": pair.total_multiplicity,
            "delta": verdict.delta,
            "mu_minus": verdict.mu_minus.render() if verdict.mu_minus is not None else None,
            "outcome": verdict.outcome.value,
        }
        pairs.append(record)
        if not verdict.passed:
            lines.append(
                f"FAIL r={r}: {record['class']} t={record['t']} has "
                f"mu_minus = {record['mu_minus']} below mu0 = {mu0_text}"
            )
    small_records = large_r = None
    if r >= 20:
        small_records = []
        for pair in search.small_degree_pairs(r):
            verdict = search.check_pair(pair, report.mu0)
            small_records.append({
                "class": pair.curve.render(),
                "t": pair.t,
                "M": pair.total_multiplicity,
                "delta": verdict.delta,
                "negative_delta": verdict.delta < 0,
            })
            if verdict.delta >= 0:
                lines.append(
                    f"FAIL r={r}: small-degree pair {pair.curve.render()} "
                    f"t={pair.t} has delta = {verdict.delta} >= 0"
                )
        first, second = region.large_r_inequalities(r)
        large_r = {"degree_five_inequality": first, "small_degree_inequality": second}
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


@pytest.mark.parametrize("mu0_text", [None, "7/2", "sqrt(1000)", "100"])
def test_verify_doc_matches_the_composed_oracle(mu0_text):
    """verify's one pass over the small-degree pairs at r >= 20 writes the
    bytes and FAIL lines of the library composition, on r = 10..3000 and at
    10^6, 10^12, 10^18 - 1 and 10^18, at the published thresholds and at
    three --mu0 values (each of which some r < 20 fails)."""
    mu0 = cli._validated_mu0(mu0_text)
    failing = 0
    for r in [*range(10, 3001), 10**6, 10**12, 10**18 - 1, 10**18]:
        doc, lines = cli._verify_doc(r, _plan(r, mu0))
        want_doc, want_lines = _composed_verify_doc(r, mu0)
        assert cli._dumps(_laid_out(doc)) == cli._dumps(want_doc), (r, mu0_text)
        assert lines == want_lines, (r, mu0_text)
        failing += bool(lines)
    assert (failing > 0) == (mu0 is not None)


def _small_degree_table(*entries):
    """A stand-in for search._SMALL_DEGREE: the pair (d; 1^M) at t for each
    (d, M, t), built at r = 20 as the real table is."""
    return tuple(
        search.BalancedPair(surface.CurveClass(d, ((1, total),), 20), t)
        for d, total, t in entries
    )


def test_verify_small_degree_failures_at_r_20(capsys, monkeypatch):
    """A small-degree entry with delta >= 0 at r = 20 fails both of its
    rows: (2;1^9) at t = 1 has delta = 81 - 20*3 = 21 and
    mu_minus = (18 - sqrt(21))/3 below mu0 = sqrt(21), and M = 9 is within
    the bound, so its pair row FAILs before its small-degree row. Over
    verify --r 20..25 the class texts, which a range's JSON templates
    render, follow the patched table too."""
    monkeypatch.setattr(search, "_SMALL_DEGREE", _small_degree_table((2, 9, 1)))
    # both readers of the table follow it at call time
    for pairs in (search.small_degree_pairs(20), search.enumerate_critical_pairs(20)):
        assert [(p.d, p.total_multiplicity, p.t) for p in pairs] == [(2, 9, 1)]
    assert main(["verify", "--r", "20"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["all_pass"] is False
    assert [row["outcome"] for row in doc["pairs"]] == ["Counterexample"]
    assert err == (
        "FAIL r=20: (2;1^9) t=1 has mu_minus = 6 - 1/3*sqrt(21) below mu0 = sqrt(21)\n"
        "FAIL r=20: small-degree pair (2;1^9) t=1 has delta = 21 >= 0\n"
    )
    for r in range(20, 41):
        doc, lines = cli._verify_doc(r, _plan(r))
        want_doc, want_lines = _composed_verify_doc(r, None)
        assert cli._dumps(_laid_out(doc)) == cli._dumps(want_doc), r
        assert lines == want_lines, r
    # a range's templates render the class texts from the table as it is
    # when the command runs
    assert main(["verify", "--r", "20..25"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    composed = [_composed_verify_doc(r, None) for r in range(20, 26)]
    assert json.loads(out)["results"] == [doc for doc, _ in composed]
    assert err == "".join(line + "\n" for _, lines in composed for line in lines)
    docs = json.loads(out)["results"]
    assert [[row["class"] for row in doc["small_degree_pairs"]] for doc in docs] == [
        ["(2;1^9)"]
    ] * 6
    # every r fails its small-degree row, and r = 20..23 its pair row too
    assert err.count("small-degree pair (2;1^9)") == 6 and err.count("\n") == 10


def _dict_route_output(r_spec, mu0_text):
    """stdout, stderr and exit code of verify --r r_spec [--mu0 mu0_text]
    written from the range's documents, laid out as dicts, by json.dumps."""
    lo, hi = parse_r_range(r_spec)
    plan = cli._RangePlan(lo, hi, cli._validated_mu0(mu0_text))
    built = [cli._verify_doc(r, plan) for r in range(lo, hi + 1)]
    docs = [_laid_out(doc) for doc, _ in built]
    lines = [line for _, doc_lines in built for line in doc_lines]
    doc = docs[0] if len(docs) == 1 else {"command": "verify", "results": docs}
    out = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    return out, "".join(line + "\n" for line in lines), EXIT_FAIL if lines else EXIT_PASS


VERIFY_R_SPECS = (
    "20..3000", "10..25", "19..20", "10", "19", "20", "30", "189", "3000",
    str(10**6), str(10**12), str(10**18 - 1), str(10**18), f"{10**18 - 1}..{10**18}",
)


@pytest.mark.parametrize("mu0_text", [None, "7/2", "sqrt(1000)", "100"])
def test_verify_templates_write_the_dict_route_bytes(mu0_text):
    """verify's JSON documents, laid out from the row layouts (filled at
    r < 20, a template per row set from r = 20 on), are the bytes
    json.dumps writes for the dict documents: a single r (depth 0) below
    and above 20, ranges crossing 19/20 (depth 2), r = 20..3000 and r near
    10^6, 10^12 and 10^18, with the same stderr lines and exit code."""
    mu0_args = () if mu0_text is None else ("--mu0", mu0_text)
    failing = set()
    for r_spec in VERIFY_R_SPECS:
        got = _call(("verify", "--r", r_spec, *mu0_args))
        assert got == _dict_route_output(r_spec, mu0_text), (r_spec, mu0_text)
        if got[2] == EXIT_FAIL:
            failing.add(parse_r_range(r_spec)[0] >= 20)
    # every --mu0 here fails some r < 20, and none an r >= 20, where every
    # small-degree pair has delta < 0 and passes whatever mu0 is
    assert failing == ({False} if mu0_text else set())


def test_verify_template_writes_a_failing_small_degree_pair(monkeypatch):
    """With (2;1^9) at t = 1 as the whole small-degree table, r = 20 has
    delta = 21 >= 0: the template's slots take a mu_minus text, a
    Counterexample outcome, negative_delta and all_pass false, and the
    command prints the FAIL lines and exits 1, alone and in ranges. M = 9
    is within the multiplicity bound up to r = 96 only, so r = 97 and 98
    write an empty pair list."""
    monkeypatch.setattr(search, "_SMALL_DEGREE", _small_degree_table((2, 9, 1)))
    for r_spec in ("20", "19..25", "20..40"):
        out, err, code = got = _call(("verify", "--r", r_spec))
        assert got == _dict_route_output(r_spec, None), r_spec
        assert code == EXIT_FAIL and err.startswith("FAIL r=20: (2;1^9) t=1 has mu_minus")
        doc = json.loads(out)
        docs = [doc] if r_spec == "20" else doc["results"]
        doc = next(doc for doc in docs if doc["r"] == 20)
        assert doc["all_pass"] is False
        assert doc["pairs"][0]["mu_minus"] == "6 - 1/3*sqrt(21)"
        assert doc["pairs"][0]["outcome"] == "Counterexample"
        assert doc["small_degree_pairs"][0]["negative_delta"] is False
    out, err, code = got = _call(("verify", "--r", "95..98"))
    assert got == _dict_route_output("95..98", None) and (err, code) == ("", EXIT_PASS)
    assert [len(doc["pairs"]) for doc in json.loads(out)["results"]] == [1, 1, 0, 0]


def test_verify_range_writes_one_template_per_row_set(monkeypatch):
    """verify --r 20..10019 builds one template per row set and calls
    _dumps not at all: the templates are laid out from the row layouts, the
    documents are filled templates, and the range's wrapper is written by
    hand. A template serves one key, what the checks decided; every delta
    here is negative, so the key is the row set (which of the five
    small-degree pairs are critical pairs)."""
    lo, hi = 20, 10019
    row_sets = {
        tuple(pair.total_multiplicity <= search.total_multiplicity_bound(r)
              for pair in search.small_degree_pairs(r))
        for r in range(lo, hi + 1)
    }
    assert len(row_sets) == 5  # the set shrinks at r = 30, 34, 97 and 189
    calls = {}

    def counting(name):
        real, calls[name] = getattr(cli, name), 0

        def count(*args):
            calls[name] += 1
            return real(*args)

        return count

    for name in ("_dumps", "_json_template"):
        monkeypatch.setattr(cli, name, counting(name))
    out, err, code = _call(("verify", "--r", f"{lo}..{hi}"))
    assert (code, err) == (EXIT_PASS, "")
    assert len(json.loads(out)["results"]) == hi - lo + 1
    assert calls == {"_dumps": 0, "_json_template": len(row_sets)}


def test_verify_builds_one_template_per_key(monkeypatch):
    """With (2;1^9) and (3;1^14) at t = 1 as the small-degree table, the
    deltas 81 - 3r and 196 - 8r turn negative at r = 28 and r = 25, and
    (3;1^14) stops being a critical pair at r = 30, so the documents of
    verify --r 20..40 differ in their outcomes, negative_delta and all_pass
    as well as in their row sets. The command writes the dict route's
    bytes, FAIL lines and exit code, and builds one template per key: per
    pair, its pair row's outcome or its absence and whether its delta is
    negative, counted here from the library."""
    monkeypatch.setattr(search, "_SMALL_DEGREE", _small_degree_table((2, 9, 1), (3, 14, 1)))
    lo, hi = 20, 40
    keys, row_sets = set(), set()
    for r in range(lo, hi + 1):
        mu0 = thresholds.threshold(r).mu0
        bound = search.total_multiplicity_bound(r)
        critical = [pair.total_multiplicity <= bound for pair in search.small_degree_pairs(r)]
        verdicts = [search.check_pair(pair, mu0) for pair in search.small_degree_pairs(r)]
        keys.add(tuple(
            (verdict.outcome if kept else None, verdict.delta < 0)
            for kept, verdict in zip(critical, verdicts)
        ))
        row_sets.add(tuple(critical))
    assert len(row_sets) == 2 and len(keys) > len(row_sets)
    assert {outcome for key in keys for outcome, _ in key} == {*search.Outcome, None}
    templates = 0
    json_template = cli._json_template

    def counting(*args):
        nonlocal templates
        templates += 1
        return json_template(*args)

    monkeypatch.setattr(cli, "_json_template", counting)
    got = _call(("verify", "--r", f"{lo}..{hi}"))
    assert got == _dict_route_output(f"{lo}..{hi}", None)
    assert got[2] == EXIT_FAIL
    assert templates == len(keys)


LAYOUT_TEXTS = st.text() | st.sampled_from(
    ["(4;2^2,1^8)", ",", "%", "%d%%s%", '"', "\\", "\x00", "\u00e9\u2028", "\U0001f600"]
)
LAYOUT_INTS = st.integers(min_value=-(2**80), max_value=2**80)


@st.composite
def large_r_checks(draw):
    """Checks as _large_r_checks gives them, (pairs, key, values), for up to
    five stand-in pairs of any class text, t and M, any outcome or none and
    any bool decided, and any delta, r and texts."""
    pairs, key, values = [], [], [draw(LAYOUT_INTS), draw(LAYOUT_TEXTS)]
    for _ in range(draw(st.integers(0, 5))):
        curve = SimpleNamespace(render=draw(LAYOUT_TEXTS).__str__,
                                total_multiplicity=draw(LAYOUT_INTS))
        pairs.append(SimpleNamespace(curve=curve, t=draw(LAYOUT_INTS)))
        outcome = draw(st.sampled_from([None, *search.Outcome]))
        if outcome is not None:
            values.append(draw(LAYOUT_INTS))
            if outcome is not search.Outcome.PASS_NEGATIVE_DELTA:
                values.append(draw(LAYOUT_TEXTS))  # mu_minus
        values.append(draw(LAYOUT_INTS))
        key += (outcome, draw(st.booleans()))
    key += draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    return tuple(pairs), tuple(key), values


@settings(max_examples=300, deadline=None, database=None)
@given(large_r_checks(), st.sampled_from([0, 2]))
def test_verify_layouts_write_what_dumps_writes(checks, depth):
    """Each row layout, filled, is _json_text of the same dict at depth 0
    and 2: a template filled as _write_documents fills it gives the bytes of
    the _large_r_layout document, and _verify_text those of the document
    with its small-degree rows and large_r null, as at an r < 20, for class
    texts with commas, %, quotes and non-ASCII characters, deltas of any
    sign and size, mu_minus null and a text, each outcome and both values
    of every bool."""
    pairs, key, values = checks
    doc = cli._large_r_layout(pairs, key, values)
    template, texts, order = cli._json_template(pairs, key, values, depth)
    filled = list(values)
    for i in texts:
        filled[i] = encode_basestring_ascii(filled[i]).encode()
    assert (template % order(filled)).decode() == cli._json_text(doc, depth)
    small_r = {**doc, "small_degree_pairs": None, "large_r": None}
    assert cli._verify_text(small_r, depth) == cli._json_text(small_r, depth)


class _CountingStdout(io.StringIO):
    """A stdout that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


FENCED_RUNS = (
    ("verify", "--r", "17..22"),  # dicts below r = 20, template texts from it
    ("coverage", "--r", "1..5"),
    ("table", "--r", "12..14"),  # markdown
    ("verify", "--r", "10..12", "--format", "csv"),
    ("coverage", "--r", "8..10", "--format", "csv"),
    ("verify", "--r", "18..21", "--approx"),
)


@pytest.mark.parametrize("argv", FENCED_RUNS)
def test_range_documents_are_written_as_they_are_built(argv, monkeypatch):
    """Each document of a range is written before the next is built, and
    nothing before the first: at each call of the range's builder, stdout
    has had more writes than at the call before, and holds the start of the
    output of the same run unfenced."""
    want = _call(argv)
    build, smallest_r = cli._RANGE_COMMANDS[argv[0]]
    out, seen = _CountingStdout(), []

    def fenced(r, plan):
        seen.append((out.writes, out.getvalue()))
        return build(r, plan)

    monkeypatch.setitem(cli._RANGE_COMMANDS, argv[0], (fenced, smallest_r))
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert (out.getvalue(), err.getvalue(), code) == want
    lo, hi = parse_r_range(argv[2])
    counts = [writes for writes, _ in seen]
    assert len(counts) == hi - lo + 1 and counts[0] == 0
    assert all(a < b for a, b in zip(counts, [*counts[1:], out.writes])), counts
    assert all(want[0].startswith(text) for _, text in seen)


def test_a_late_error_leaves_the_documents_written_before_it(monkeypatch):
    """A range whose builder raises at r = 12 is exit 4 with one stderr
    line, and stdout keeps the documents written before the error: the
    output of verify --r 10..11 without the close of its wrapper."""
    whole = _call(("verify", "--r", "10..11"))[0]
    build, smallest_r = cli._RANGE_COMMANDS["verify"]

    def broken(r, plan):
        if r == 12:
            raise RuntimeError(f"no document at r={r}")
        return build(r, plan)

    monkeypatch.setitem(cli._RANGE_COMMANDS, "verify", (broken, smallest_r))
    out, err, code = _call(("verify", "--r", "10..13"))
    assert (err, code) == ("internal error: RuntimeError: no document at r=12\n", EXIT_INTERNAL)
    closing = "\n  ]\n}\n"
    assert whole.endswith(closing) and out == whole[: -len(closing)]


def test_a_late_error_keeps_the_fail_lines_written_before_it(monkeypatch):
    """A range whose large-r inequalities fail at r = 20..24 and raise at
    r = 25 is exit 4, and stderr holds the FAIL lines of the five documents
    written, then the internal-error line."""

    def inequalities(r):
        if r == 25:
            raise RuntimeError(f"no inequalities at r={r}")
        return True, False

    monkeypatch.setattr(cli, "large_r_inequalities", inequalities)
    out, err, code = _call(("verify", "--r", "20..30"))
    assert code == EXIT_INTERNAL
    assert err == "".join(
        f"FAIL r={r}: large-r inequalities do not hold\n" for r in range(20, 25)
    ) + "internal error: RuntimeError: no inequalities at r=25\n"
    assert [doc["r"] for doc in json.loads(out + "\n  ]\n}\n")["results"]] == [*range(20, 25)]


class _GoneStdout(io.StringIO):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_range_stops_at_the_first_failed_write(monkeypatch):
    """When stdout cannot be written, a range builds no document past the
    one it failed to write, and the command is exit 2 with one line."""
    build, smallest_r = cli._RANGE_COMMANDS["verify"]
    built = []

    def counting(r, plan):
        built.append(r)
        return build(r, plan)

    monkeypatch.setitem(cli._RANGE_COMMANDS, "verify", (counting, smallest_r))
    err = io.StringIO()
    with contextlib.redirect_stdout(_GoneStdout()), contextlib.redirect_stderr(err):
        code = main(["verify", "--r", "10..3000"])
    assert (built, err.getvalue(), code) == (
        [10], "error: cannot write stdout: Broken pipe\n", EXIT_USAGE
    )


@pytest.mark.parametrize("r_range", ["999999999999999981..1000000000000000000", "10..200"])
def test_range_output_matches_single_r_output(capsys, r_range):
    """A range command prints what the same command prints one r at a time:
    the JSON documents of the single runs in one results list, or their
    markdown one after another, a blank line apart; the same stderr lines
    and the same exit code. A range splits every r + 1 by one sieve, and a
    single r by trial division, so near MAX_R this holds the sieve to its
    oracle."""
    lo, hi = parse_r_range(r_range)
    for command in ("verify", "coverage", "enumerate", "table"):
        code = main([command, "--r", r_range])
        out, err = capsys.readouterr()
        codes, outs, errs = [], [], []
        for r in range(lo, hi + 1):
            codes.append(main([command, "--r", str(r)]))
            single = capsys.readouterr()
            outs.append(single.out)
            errs.append(single.err)
        assert code == max(codes) == EXIT_PASS, command
        assert err == "".join(errs), command
        if command == "table":
            assert out == "\n".join(outs), command
            continue
        docs = [json.loads(text) for text in outs]
        wrapper = {"command": command, "results": docs}
        assert out == json.dumps(wrapper, sort_keys=True, indent=2) + "\n", command


def test_parallel_matches_serial(capsys):
    assert main(["enumerate", "--r", "10..13"]) == EXIT_PASS
    serial = capsys.readouterr().out
    assert main(["enumerate", "--r", "10..13", "--jobs", "2"]) == EXIT_PASS
    parallel = capsys.readouterr().out
    assert parallel == serial
    doc = json.loads(serial)
    assert [len(d["rows"]) for d in doc["results"]] == [100, 51, 27, 13]


def test_approx_fields(capsys):
    assert main(["table", "--r", "12", "--approx", "--format", "json"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["mu0_approx"] == "3.605551"
    four = [row for row in doc["rows"] if row["mu_minus"] == "4"]
    assert four and all(row["mu_minus_approx"] == "4.000000" for row in four)

    assert main(["table", "--r", "12", "--approx", "--format", "csv"]) == EXIT_PASS
    csv_out = capsys.readouterr().out
    header = csv_out.splitlines()[0]
    assert header == "r,class,t,M,delta,mu_minus,mu_minus_approx,outcome"


def test_csv_output(capsys):
    assert main(["table", "--r", "12", "--format", "csv"]) == EXIT_PASS
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,class,t,M,delta,mu_minus,outcome"
    assert len(lines) == 1 + 27
    assert lines[1].startswith("12,")



def test_unavailable_format_is_refused_before_the_handler_runs(isolated):
    """region writes no certificate and audit-certificate reads nothing when
    csv is asked for: the parser refuses the format before either runs."""
    refusal = "error: argument --format: invalid choice: 'csv' (choose from 'json', 'markdown')\n"
    out, err, code = _call(["region", "--r", "13", "--t0", "3", "--format", "csv"])
    assert (out, code) == ("", EXIT_USAGE) and err.endswith(refusal)
    assert list(isolated.iterdir()) == []
    out, err, code = _call(["audit-certificate", "missing.json", "--format", "csv"])
    assert (out, code) == ("", EXIT_USAGE) and err.endswith(refusal)


def test_coverage_command(capsys):
    assert main(["coverage", "--r", "8..13"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert all(d["covered"] for d in doc["results"])
    assert main(["coverage", "--r", "10", "--format", "markdown"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "COVERED" in out and "[77/24, 13/4]" in out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("seshadri ")


def _call(argv):
    """stdout, stderr and exit code of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return out.getvalue(), err.getvalue(), code


def _lone_call(argv):
    """_call with a freshly built parser."""
    cli._parser.cache_clear()
    return _call(argv)


def test_parser_reuse_leaks_nothing_between_calls():
    """main builds its parser once per process; flags and defaults of one
    call do not carry into the next."""
    sequence = (
        ("verify",),  # usage error: --r is missing
        ("--version",),
        ("classify", "--r", "10", "--mu", "7/2", "--approx"),
        ("verify", "--r", "10..11", "--format", "csv"),
        ("verify", "--r", "10..11"),
    )
    lone = [_lone_call(argv) for argv in sequence]
    assert [code for _, _, code in lone] == [EXIT_USAGE, 0, EXIT_PASS, EXIT_PASS, EXIT_PASS]
    assert lone[0][1].startswith("usage: seshadri verify")
    assert '"mu0_approx"' not in lone[4][0] and lone[4][0].startswith("{")
    cli._parser.cache_clear()
    parser = cli._parser()
    assert [_call(argv) for argv in sequence] == lone
    assert cli._parser() is parser


# Command lines main must treat exactly as the two-level parse does: each
# command with valid arguments (region first, to write the certificate the
# audit reads); no command first; a subparser that leaves arguments over or
# refuses one; argparse spellings (an abbreviation, --opt=value, a bad
# choice); and the edges of the direct route: an option or --approx given
# twice, an empty value, values that start with "-" (argparse takes -3 as a
# negative number and refuses -7/2), --mu as table's abbreviation of --mu0,
# --approx=1, two audit paths or "-" as one, and -- in the middle.
ROUTE_CORPUS = (
    ("table", "--r", "12"),
    ("enumerate", "--r", "10..11", "--format", "csv"),
    ("verify", "--r", "10", "--approx"),
    ("region", "--r", "10", "--t0", "6", "--depth", "12"),
    ("classify", "--r", "10", "--mu", "7/2"),
    ("coverage", "--r", "9..10"),
    ("audit-certificate", "certificate-r10-t6.json"),
    (),
    ("--version",),
    ("-h",),
    ("verify", "-h"),
    ("verify",),
    ("verify", "--r", "x"),
    ("verify", "--r", "10", "--bogus"),
    ("verify", "--r", "10", "extra"),
    ("verify", "--version"),
    ("bogus",),
    ("--", "verify", "--r", "10"),
    ("verify", "--r", "10", "--", "x"),
    ("classify", "--r", "12", "--mu", "7/2", "--app"),
    ("verify", "--r=10"),
    ("table", "--r", "12", "--format", "xml"),
    ("verify", "--r", "12", "--r", "10", "--format", "csv", "--format", "json"),
    ("verify", "--r", "10", "--approx", "--approx"),
    ("verify", "--r", ""),
    ("table", "--r", "12", "--mu0", "-3"),
    ("classify", "--r", "10", "--mu", "-7/2"),
    ("table", "--r", "12", "--mu", "7/2"),
    ("classify", "--r", "10", "--mu", "7/2", "--approx=1"),
    ("audit-certificate", "certificate-r10-t6.json", "certificate-r10-t6.json"),
    ("audit-certificate", "-"),
    ("audit-certificate", ""),
    ("classify", "--r", "10", "--", "--mu", "7/2"),
)


def _two_level(argv):
    return build_parser().parse_args(argv)


def _parsed(parse, argv):
    """vars() of the namespace parse(argv) returns, or the exit code it
    raises; what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code


def test_main_parses_as_the_two_level_parser_does(monkeypatch):
    """main's one-pass dispatch gives the same exit code, stdout, stderr and
    namespace as build_parser().parse_args on every command line of the
    corpus."""
    one_pass = [(_call(argv), _parsed(cli._parse_command_line, argv))
                for argv in ROUTE_CORPUS]
    monkeypatch.setattr(cli, "_parse_command_line", _two_level)
    two_level = [(_call(argv), _parsed(_two_level, argv)) for argv in ROUTE_CORPUS]
    for argv, got, want in zip(ROUTE_CORPUS, one_pass, two_level):
        assert got == want, argv
    outcomes = [(code, type(parsed)) for (_, _, code), parsed in one_pass]
    assert outcomes[:7] == [(EXIT_PASS, dict)] * 7
    assert {code for code, _ in outcomes[7:]} == {0, EXIT_USAGE}


def test_a_command_takes_one_argparse_pass(monkeypatch):
    """A well-formed command line makes no parse_known_args call: it is read
    from the option table. Any other runs the two-level parse alone, which
    reports what is wrong."""
    calls = []
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        calls.append(self.prog)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    assert _call(("classify", "--r", "10", "--mu", "7/2"))[2] == EXIT_PASS
    assert calls == []
    assert _call(("verify", "--r", "10", "extra"))[2] == EXIT_USAGE
    assert calls == ["seshadri", "seshadri verify"]


# sha256 of the stdout of main([*command, "-h"]) at 80 columns: the help text,
# usage lines and defaults of the parsers. The top level's dates from before
# the parsers were made from the option table; each command's was recorded
# when it came to take only the flags it reads.
HELP_DIGESTS = {
    (): "539ba704d0871fedbc96de80d7e6ce8a86f0a31cdee0fb76c6ff7089d27cae79",
    ("table",): "95b779f3180f79f7a78550aa8bc5724127e9fe3069cd8f4cad5e0a565b80e7a6",
    ("enumerate",): "c5c175195275ed9cd694032192cf8b31b1f93a42a8e77912227f2cebd110d68c",
    ("verify",): "94dc37aceeaf0cdb0bc2df34d755c9c6853b66d63926a97ba5bc5bb42f004c29",
    ("region",): "cfac35e48ba96c0739fff52ad66954cd12623a58301fbffaf8505ca2c656ee59",
    ("classify",): "78d070480388f17ca5d7396e01c33e34c47d4a53068b5b193ca4072df046288c",
    ("coverage",): "512a7e8b9bc08a4cc450679ce3b65fe26338c5b5cc85e7ec6335c03b0a34a058",
    ("audit-certificate",): "09fb7fd6bbbb70dd5046a6d561de4653b2381be99df22ed289cd57c34a55a3dd",
}


def test_help_text_is_unchanged(monkeypatch):
    """Every command's help, and the top level's, prints the recorded bytes."""
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_DIGESTS.items():
        out, err, code = _call((*command, "-h"))
        assert (code, err) == (0, ""), command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def _entry_point(*argv):
    """`python -m seshadri argv` in a fresh interpreter: stdout, stderr and
    exit code."""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "seshadri", *argv],
        capture_output=True, text=True, env=env, timeout=60, check=False,
    )
    return done.stdout, done.stderr, done.returncode


def test_entry_point_runs_the_cli():
    """The real entry point, not main in-process: --version, a verify whose
    stdout matches the in-process run, and a certificate directory under a
    regular file."""
    out, _, code = _entry_point("--version")
    assert code == 0 and out.startswith("seshadri ")
    assert _entry_point("verify", "--r", "10..11") == (*_call(["verify", "--r", "10..11"])[:2], 0)
    Path("plain-file").write_text("")
    (unwritable,) = UNWRITABLE_RUNS
    out, err, code = _entry_point(*unwritable)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_closed_stdout_is_a_usage_error():
    """A command whose stdout has no reader (the read end of its pipe
    closed) is exit 2 with one error line, as a certificate that cannot be
    written is, whether stdout is buffered or not, and leaves no message at
    interpreter exit. So is help or version text on a buffered stdout
    (unbuffered, argparse drops the failed write and exits 0)."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    runs = [
        (argv, unbuffered)
        for argv in (("classify", "--r", "10", "--mu", "7/2"), ("verify", "--r", "20..3000"))
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"})
    ]
    runs += [(argv, {}) for argv in (("--version",), ("-h",), ("verify", "-h"))]
    for argv, unbuffered in runs:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "seshadri", *argv], stdout=write_end,
                stderr=subprocess.PIPE, text=True, env={**env, **unbuffered},
                timeout=60, check=False,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (
            EXIT_USAGE, "error: cannot write stdout: Broken pipe\n"
        ), (argv, unbuffered)


ABBREVIATED_RUNS = (
    ("table", "--r", "12", "--mu", "7/2"),
    ("verify", "--r", "10", "--app"),
    ("verify", "--r", "10", "--dep", "3"),
    ("verify", "--r", "10", "--cache", "cache"),
)


@pytest.mark.parametrize("argv", ABBREVIATED_RUNS)
def test_abbreviated_flags_are_usage_errors(argv):
    """A flag is read only as written: a prefix of another flag (--mu of
    --mu0, --app, --dep, --cache) is a usage error, not that flag."""
    out, err, code = _call(argv)
    assert (out, code) == ("", EXIT_USAGE)
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[3:])}\n")


# --------------------------------------------------------------------------
# random command lines


def _option(flag, values):
    return st.tuples(st.just(flag), values)


def _values(valid, malformed):
    """Texts of the integers valid, or one of the texts malformed."""
    return valid.map(str) | st.sampled_from(malformed)


R_VALUES = (
    st.integers(min_value=10, max_value=60).map(str)
    | st.builds(lambda lo, count: f"{lo}..{lo + count - 1}",
                st.integers(min_value=1, max_value=45), st.integers(min_value=1, max_value=30))
    | st.integers(min_value=-1, max_value=3).map(lambda k: str(MAX_R - k))
    | st.sampled_from(["-1", "0", "1", "9", "", "ten", "10..", "..10", "12..10", "1e3",
                       "10...12", "10..12..14", " 11 ", "1_0", "0x10", "\uff11\uff10",
                       "1" + "0" * 40])
)
MU_VALUES = st.sampled_from([
    "7/2", "16/5", "77/24", "10/3", "1", "0", "-7/2", "sqrt(13)", "sqrt(11)", "sqrt(50)",
    "4 - 1/3*sqrt(3)", "(26 - sqrt(13))/6", "9" * 40 + "/7", "3.5", "1e2", "-3",
]) | st.sampled_from([
    "1/0", "", "abc", "sqrt(-1)", "2**10", "sqrt(10**19)", "7/2/3", "sqrt(r)", "1" * 3000,
])
# The optional flags of every command, each drawn for any command, a repeated
# --r, and misspellings; paths are relative to the scratch directory the test
# runs in, which it fills first.
COMMON_OPTIONS = st.lists(
    _option("--format", st.sampled_from([*cli.FORMATS, "yaml"]))
    | st.just(("--approx",))
    | _option("--jobs", _values(st.integers(min_value=1, max_value=3), ["0", "-1", "x"]))
    | _option("--cache-dir", st.sampled_from([".", "a-directory", "missing/sub", "malformed.json",
                                              ""]))
    | _option("--depth", _values(st.integers(min_value=1, max_value=12), ["0", "-1", "x"]))
    | _option("--r", R_VALUES)
    | st.sampled_from([("-h",), ("--version",), ("--approx", "--approx"), ("--approx=1",),
                       ("--",)]),
    max_size=2,
)
AUDIT_PATHS = st.sampled_from(["certificate.json", "missing.json", "a-directory",
                               "malformed.json", "not-an-object.json", "-", ""])
MU0 = _option("--mu0", MU_VALUES) | st.just(())
T0 = _option("--t0", _values(st.integers(min_value=2, max_value=6), ["1", "-1", "x"]))
# A command and the arguments it is given, with or without --mu0.
WELL_FORMED_SHAPES = [
    ("table", [_option("--r", R_VALUES), MU0]),
    ("enumerate", [_option("--r", R_VALUES), MU0]),
    ("verify", [_option("--r", R_VALUES), MU0]),
    ("region", [_option("--r", R_VALUES), T0]),
    ("classify", [_option("--r", R_VALUES), _option("--mu", MU_VALUES)]),
    ("coverage", [_option("--r", R_VALUES)]),
    ("audit-certificate", [st.tuples(AUDIT_PATHS)]),
]
# audit-certificate with two paths, table with --mu (a prefix of --mu0, which
# the parsers refuse), an unknown command and none, and two that leave out an
# option the command needs.
MALFORMED_SHAPES = [
    ("audit-certificate", [st.tuples(AUDIT_PATHS), st.tuples(AUDIT_PATHS)]),
    ("table", [_option("--r", R_VALUES), _option("--mu", MU_VALUES)]),
    ("no-such-command", []),
    (None, []),
    ("verify", [MU0]),
    ("classify", [_option("--mu", MU_VALUES)]),
]
COMMAND_SHAPES = WELL_FORMED_SHAPES + MALFORMED_SHAPES


def _mostly(common, rare):
    """A draw from common, or about one time in eight from rare."""
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda k: rare if k == 1 else common
    )


def _command_lines(shapes, options_of):
    """Command lines of a shape drawn from shapes, with the flags that
    options_of(command) draws after it."""
    return shapes.flatmap(
        lambda shape: st.builds(
            lambda arguments, options: [
                token for part in ((shape[0],) if shape[0] else (), *arguments, *options)
                for token in part
            ],
            st.tuples(*shape[1]),
            options_of(shape[0]),
        )
    )


# A command line of one shape, with up to two common flags after it.
COMMAND_LINES = _command_lines(
    st.sampled_from(COMMAND_SHAPES), lambda command: COMMON_OPTIONS
)

# The values of each optional flag of cli._COMMANDS that takes a value and
# has no choices; --format draws from its command's choices and "yaml".
RANDOM_FLAG_VALUES = {
    "--jobs": _values(st.integers(min_value=1, max_value=3), ["0", "-1", "x"]),
    "--cache-dir": st.sampled_from([".", "a-directory", "missing/sub", "malformed.json", ""]),
    "--depth": _values(st.integers(min_value=1, max_value=12), ["0", "-1", "x"]),
    "--r": R_VALUES,
    "--mu0": MU_VALUES,
    "--mu": MU_VALUES,
    "--t0": _values(st.integers(min_value=2, max_value=6), ["1", "-1", "x"]),
}


def _row_option(flag, kwargs):
    """The flag and a value for it, as its add_argument keywords take one."""
    if kwargs.get("action") == "store_true":
        return st.just((flag,))
    if "choices" in kwargs:
        return _option(flag, st.sampled_from([*kwargs["choices"], "yaml"]))
    return _option(flag, RANDOM_FLAG_VALUES[flag])


# command: {flag: strategy of that flag and its value} for its _COMMANDS row
ROW_OPTIONS = {
    command: {flag: _row_option(flag, kwargs)
              for flag, kwargs in (*shared, *options) if flag.startswith("-")}
    for command, (_, _, shared, options) in cli._COMMANDS.items()
}
SPECIAL_TOKENS = st.sampled_from([("-h",), ("--version",), ("--approx=1",), ("--",)])


def _row_flags(command):
    """Up to two flags, each from command's row or, about one time in
    eight, from another command's row or a special token.  A command that is
    not in _COMMANDS draws from every row."""
    row = ROW_OPTIONS.get(command, {})
    foreign = st.one_of(
        *(option for name, options in ROW_OPTIONS.items() if name != command
          for flag, option in options.items() if flag not in row),
        SPECIAL_TOKENS,
    )
    return st.lists(_mostly(st.one_of(*row.values()), foreign) if row else foreign,
                    max_size=2)


# A command line of a well-formed shape, or about one time in eight a
# malformed one, with up to two flags from its command's row after it.
ROW_COMMAND_LINES = _command_lines(
    _mostly(st.sampled_from(WELL_FORMED_SHAPES), st.sampled_from(MALFORMED_SHAPES)),
    _row_flags,
)


def test_random_command_lines_exit_cleanly():
    """Any command line over a bounded vocabulary (every command and an
    unknown one; r values small, near MAX_R and malformed; mu values well
    formed and not; every format and an unknown one; audit paths to a
    certificate, missing, a directory or malformed) exits 0..3, with no
    traceback and no internal error on stderr."""
    os.mkdir("a-directory")
    Path("malformed.json").write_text('{"kind": ')
    Path("not-an-object.json").write_text("[1, 2]")
    assert _call(["region", "--r", "12", "--t0", "4"])[2] == EXIT_PASS
    os.rename("certificate-r12-t4.json", "certificate.json")

    @settings(max_examples=800, deadline=None, database=None, derandomize=True)
    @given(ROW_COMMAND_LINES)
    def exits_cleanly(argv):
        _, err, code = _call(argv)
        assert code in (EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_INCONCLUSIVE), (argv, err)
        assert "Traceback" not in err and "internal error" not in err, (argv, err)

    exits_cleanly()


@settings(max_examples=800, deadline=None, database=None, derandomize=True)
@given(COMMAND_LINES)
def test_direct_route_parses_as_the_two_level_parser_does(argv):
    """On every command line of COMMAND_LINES, _parse_command_line gives the
    namespace, or the exit code, of build_parser().parse_args."""
    assert _parsed(cli._parse_command_line, argv) == _parsed(_two_level, argv), argv


JSON_SCALARS = (
    st.text()
    | st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", "/"])
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.booleans()
    | st.none()
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None, database=None)
@given(JSON_TREES)
def test_dumps_matches_indented_json_dumps(doc):
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_dumps_edge_values():
    for doc in ({}, [], {"a": {}, "b": [], "c": [[]]}, [2**64, -(2**64) - 1, 0],
                "\x00\"\\\u00e9", (1, (2,)), {"t": ()}):
        assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)
    for bad in (1.5, [0.0], {"x": 2.5}, {1: "a"}, {"a": {None: 1}}, {1, 2}, b"x"):
        with pytest.raises(TypeError):
            cli._dumps(bad)


def _certificate_chain(depth):
    """A certificate-shaped tree: a chain of pieces, each one object whose
    children array holds the next, `depth` pieces deep."""
    node = {"mu_hi": "1/2", "mu_lo": "0"}
    for _ in range(depth):
        node = {"children": [node]}
    return node


def _shape(text):
    """Lines and deepest indentation of an indented JSON text."""
    lines = text.splitlines()
    return len(lines), max(len(line) - len(line.lstrip(" ")) for line in lines)


def test_dumps_serialises_trees_past_the_recursion_limit():
    """A bisection closing near --depth MAX_DEPTH_LIMIT nests 2 * MAX_DEPTH_LIMIT
    JSON containers (an object and a children array per piece). json.dumps
    with indent=2 recurses per container and raises RecursionError; _dumps
    keeps an explicit stack and writes it."""
    depth = region.MAX_DEPTH_LIMIT
    deep = _certificate_chain(depth)
    with pytest.raises(RecursionError):
        json.dumps(deep, sort_keys=True, indent=2)
    # the indented text grows linearly in lines and indentation per piece
    one, two = (_shape(cli._dumps(_certificate_chain(d))) for d in (1, 2))
    assert _shape(cli._dumps(deep)) == tuple(
        a + (depth - 1) * (b - a) for a, b in zip(one, two)
    )
    shallow = _certificate_chain(200)
    assert cli._dumps(shallow) == json.dumps(shallow, sort_keys=True, indent=2)
    assert json.loads(cli._dumps(shallow)) == shallow


# Dicts whose keys come from a small alphabet, so one key set recurs at
# several depths and in several insertion orders, and each dict sorts its
# own keys wherever it sits.
SHAPED_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "b", "", "\u00e9"]), children, max_size=3),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, database=None)
@given(SHAPED_TREES)
def test_dumps_sorts_recurring_key_sets_at_any_depth(doc):
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


@pytest.mark.parametrize("doc", [
    {"a": 1},  # a one-key dict
    {"a": {"a": {"a": None}}},  # one key at three depths
    [{"k": [1]}, {"k": "v"}, {"k": {}}],
    {"a": "x", "b": [{"a": 1}]},
    # one key set in two insertion orders, at one depth and at another
    [{"x": 1, "y": 2}, {"y": 3, "x": 4}, [{"y": 5, "x": 6}]],
    {"b": 1, "a": 2, "c": {"c": [{"a": 3, "c": 4, "b": 5}], "a": 6, "b": 7}},
    # one shape at two depths
    {"p": {"x": 1, "y": True}, "q": [{"x": 2, "y": False}], "r": [[{"x": 3, "y": 4}]]},
    # lists nested at several depths, empty ones among them
    [[[1, [2, [3, []]]], []], [[4]], 5, ["six", [None]]],
    {"l": [[{"m": [[], [[7]]]}]], "n": [[8, [9]], {}]},
])
def test_dumps_plans_on_hand_made_shapes(doc):
    """_dumps matches json.dumps on hand-made nestings: one key set at several
    depths and in several insertion orders, and lists nested at several
    depths."""
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


def _handler_documents(*argv):
    """The documents argv's handler returns, each laid out as a dict."""
    args = resolve_config(cli._parse_command_line(list(argv)))
    return args, [_laid_out(doc) for doc, _ in args.handler(args)]


def _dict_documents(*argv):
    """The documents of argv as dicts: its one document, or a range's
    inside its results wrapper."""
    args, docs = _handler_documents(*argv)
    return docs[0] if len(docs) == 1 else {"command": args.command, "results": docs}


@pytest.mark.parametrize("argv", [
    ("verify", "--r", "10..200"),
    ("coverage", "--r", "1..60"),
    ("table", "--r", "12"),
    ("table", "--r", "12..13", "--mu0", "7/2"),
])
def test_dumps_writes_real_documents_as_json_does(argv):
    """main's JSON stdout is what json.dumps writes for the same documents
    as dicts, with a range's wrapper around them: for verify at r >= 20,
    main writes the texts of the range's templates, and the wrapper by
    hand."""
    want = json.dumps(_dict_documents(*argv), sort_keys=True, indent=2) + "\n"
    assert _call((*argv, "--format", "json")) == (want, "", EXIT_PASS)


@pytest.mark.parametrize("argv", [
    ("verify", "--r", "15..40"),
    ("table", "--r", "19..22"),
    ("enumerate", "--r", "19..22"),
    ("coverage", "--r", "8..30"),
], ids=lambda argv: argv[0])
def test_range_documents_do_not_depend_on_the_output_settings(argv):
    """A range handler's documents, laid out as dicts, are the same for
    every --format, with and without --approx where the command takes it:
    only the writer reads them."""
    _, want = _handler_documents(*argv)
    for fmt in cli.FORMATS:
        for approx in ((), ("--approx",)) if argv[0] != "coverage" else ((),):
            _, docs = _handler_documents(*argv, "--format", fmt, *approx)
            assert docs == want, (fmt, approx)


def test_dumps_writes_a_certificate_as_json_does():
    doc = region.verify_t_bound(10, 6).to_json_dict()
    assert cli._dumps(doc) == json.dumps(doc, sort_keys=True, indent=2)


# --------------------------------------------------------------------------
# every command's output, pinned


# Each command with arguments that run it; audit-certificate reads the
# certificate that region wrote just before it.
MATRIX_RUNS = (
    ("table", "--r", "12"),
    ("table", "--r", "12..13", "--mu0", "7/2"),
    ("enumerate", "--r", "10..11"),
    ("verify", "--r", "10..11"),
    ("verify", "--r", "19..20"),
    ("verify", "--r", "12", "--mu0", "9/2"),  # fails: counterexamples below mu0
    ("coverage", "--r", "8..13"),
    ("classify", "--r", "10", "--mu", "7/2"),
    ("classify", "--r", "10", "--mu", "16/5"),
    ("region", "--r", "13", "--t0", "3"),
    ("audit-certificate", "certificate-r13-t3.json"),
    ("audit-certificate", "bad-certificate.json"),  # fails with AUDIT lines
)
MATRIX_EXTRAS = (
    ("region", "--r", "10", "--t0", "3", "--depth", "3"),  # inconclusive
    ("verify", "--r", "19..10"),
    ("table", "--r", "9"),
    ("coverage", "--r", "0"),
    ("table", "--r", "12", "--mu0", "not-a-number"),
    ("verify", "--r", "12", "--mu0", f"sqrt({MAX_RADICAND + 1})"),
    ("classify", "--r", "10", "--mu", "3"),
    ("classify", "--r", "10..11", "--mu", "7/2"),
    ("region", "--r", "10..11", "--t0", "3"),
    ("audit-certificate", "no-such-file.json"),
    ("enumerate", "--r", "10..11", "--jobs", "2"),
    ("verify", "--r", "10..11", "--cache-dir", "cache"),
    ("verify", "--r", "10..11", "--cache-dir", "cache"),
    ("coverage", "--r", "9..10", "--cache-dir", "cache", "--format", "csv"),
    ("region", "--r", "12", "--t0", "4", "--cache-dir", "cache"),
    ("region", "--r", "12", "--t0", "4", "--cache-dir", "cache"),
    ("audit-certificate", "cache/certificate-r12-t4.json", "--format", "markdown"),
    # r >= 20, where the small-degree pairs are the whole enumeration: every
    # point where the set shrinks (r = 30, 34, 97, 189) and r near 10^18.
    ("verify", "--r", "20..200"),
    ("enumerate", "--r", "20..200"),
    ("table", "--r", "29..35"),
    ("verify", "--r", "999999999999999995..1000000000000000000"),
)
OUTPUT_MATRIX = tuple(
    (*run, *fmt, *approx)
    for run in MATRIX_RUNS
    for fmt in ((), ("--format", "json"), ("--format", "markdown"), ("--format", "csv"))
    for approx in ((), ("--approx",))
) + MATRIX_EXTRAS
OUTPUT_DIGESTS_PATH = Path(__file__).with_name("cli_output_digests.json")


def _output_matrix_digests():
    """{argv: [sha256 of stdout, sha256 of stderr, exit code]} over
    OUTPUT_MATRIX, run in order in the current directory."""
    Path("bad-certificate.json").write_text('{"kind": "q_negativity_certificate", "r": 13}')
    digests = {}
    for argv in OUTPUT_MATRIX:
        out, err, code = _call(argv)
        digests[" ".join(argv)] = [
            hashlib.sha256(out.encode("utf-8")).hexdigest(),
            hashlib.sha256(err.encode("utf-8")).hexdigest(),
            code,
        ]
    return digests


def test_every_command_output_matches_recorded_digests():
    """stdout, stderr and exit code of each command in every format, with and
    without --approx, plus failing, inconclusive and usage-error runs. The
    digests were recorded before the command handlers were merged into one
    route; any change to them must be deliberate."""
    recorded = json.loads(OUTPUT_DIGESTS_PATH.read_text())
    assert _output_matrix_digests() == recorded
