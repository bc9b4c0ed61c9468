"""perfbench's tracer still finds every function it wraps, only the value
types whose __post_init__ it wraps define one, every command line the
benchmark runs still parses, check_pair runs once per row it prints (the
traced benchmark's count check), verify makes every large-r check at every
r, a traced verify-sweep and query-mix round meets the benchmark's
coverage check, every verify-sweep and query-mix output matches the
benchmark's recorded digest, the CLI imports no private library name,
every module uses each name it imports, the package exports resolve, the
documentation names only environment variables the CLI reads, the README's
Python example and command lines run as written, and starting the CLI
loads none of the modules it does not need.

perfbench/tracer.py, perfbench/ops.py and perfbench/run.py are loaded by
path and left as they are: a rename, a deletion or a settings change in seshadri that would stop
`perfbench/run.py` (with BindingMissed, a KeyError or a usage error) fails
here instead.
"""

import argparse
import ast
import collections
import doctest
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import seshadri
import seshadri.cli  # noqa: F401 - the tracer patches every loaded seshadri module

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    """perfbench/<name>.py, loaded by path; it imports only the stdlib. It is
    registered in sys.modules first, as its dataclasses need."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_perfbench("tracer")
    assert tracer.TARGETS
    for module, path in tracer.TARGETS:
        owner = importlib.import_module(f"seshadri.{module}")
        if "." in path:  # a method, patched on its class
            cls_name, attr = path.split(".")
            target = vars(getattr(owner, cls_name)).get(attr)
        else:
            target = getattr(owner, path, None)
        assert callable(target), f"seshadri.{module}.{path}"


def test_post_init_only_where_the_tracer_wraps_it():
    """The value types that define __post_init__ are exactly the tracer's
    __post_init__ targets, and the six records that check nothing keep no
    __init__ of their own (Frozen's binds their fields)."""
    tracer = _load_perfbench("tracer")
    classes = seshadri.exact.Frozen.__subclasses__()
    assert len(classes) == 13  # every value type derives from Frozen directly
    defining = {(cls.__module__.rpartition(".")[2], f"{cls.__name__}.__post_init__")
                for cls in classes if "__post_init__" in vars(cls)}
    targets = {(module, path) for module, path in tracer.TARGETS
               if path.endswith(".__post_init__")}
    assert defining == targets
    records = {"VerificationReport", "OracleReport", "Certificate", "CatalogCurve",
               "CoverageReport", "Classification"}
    assert {cls.__name__ for cls in classes if "__init__" not in vars(cls)} == records


def test_tracer_installs_and_uninstalls():
    tracer = _load_perfbench("tracer")
    originals = {
        (module, path): getattr(importlib.import_module(f"seshadri.{module}"), path)
        for module, path in tracer.TARGETS
        if "." not in path
    }
    t = tracer.Tracer()
    try:
        t.install()  # raises BindingMissed if a binding stays unwrapped
        for module, path in originals:
            wrapped = getattr(importlib.import_module(f"seshadri.{module}"), path)
            assert wrapped.__wrapped__ is originals[module, path]
    finally:
        t.uninstall()
    for (module, path), original in originals.items():
        assert getattr(importlib.import_module(f"seshadri.{module}"), path) is original


def test_benchmark_command_lines_resolve(monkeypatch):
    """Every operation of every workload, every trace probe (--jobs 2 and
    --cache-dir among them), and the audit-certificate <path> that follows
    each region operation parse on main's direct route with no argparse
    pass, to the namespace of the two-level parse, and pass resolve_config;
    with the operation's width variable set, region reads that width. No
    command is run."""
    ops = _load_perfbench("ops")
    assert ops.WIDTH_ENV == seshadri.cli.WIDTH_VARIABLE
    every_op = [op for workload in ops.WORKLOADS for op in ops.universe(workload)]
    every_op += [op for probe in ops.probe_ops().values() for op in probe]
    # (command line, width exponent or None), as ops.execute runs them
    lines = []
    for op in every_op:
        lines.append((op.argv, op.exponent))
        if op.kind == "region":
            certificate = f"certificate-r{op.argv[2]}-t{op.argv[4]}.json"
            lines.append((("audit-certificate", certificate), op.exponent))
    parser = seshadri.cli.build_parser()
    passes = 0
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        nonlocal passes
        passes += 1
        return original(self, *args, **kwargs)

    resolved, widths = [], set()  # region's widths
    for argv, exponent in lines:
        passes = 0
        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
            args = seshadri.cli._parse_command_line(list(argv))
        assert passes == 0, argv  # no fall-back to the two-level parse
        assert vars(args) == vars(parser.parse_args(list(argv))), argv
        args = seshadri.cli.resolve_config(args)
        assert args.command == argv[0], argv
        if args.command == "region":
            with monkeypatch.context() as patch:
                patch.setenv(ops.WIDTH_ENV, str(exponent))
                assert seshadri.cli._sqrt_width() == Fraction(1, 2**exponent), argv
            widths.add(exponent)
        resolved.append(args)
    assert any(args.parallelism == 2 for args in resolved)
    assert any(args.cache_dir == ops.PROBE_CACHE for args in resolved)
    assert 256 in widths
    assert any(args.command == "audit-certificate" for args in resolved)


def test_check_pair_calls_equal_the_rows_they_print(capsys, monkeypatch):
    """perfbench --trace 1 reports correct: false unless check_pair runs once
    per pair row and small-degree row of verify and once per table row, so a
    verdict reused to skip a call fails here, on either side of the r = 19/20
    seam and with a --mu0. check_pair is wrapped at every module that binds
    it, as the tracer wraps it."""
    calls = 0
    original = seshadri.search.check_pair

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "seshadri" or name.startswith("seshadri."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    assert seshadri.cli.check_pair is counting
    rows = 0
    for argv in (["--r", "10..200"], ["--r", "1000..1009"], ["--r", "15..25"],
                 ["--r", "15..25", "--mu0", "7/2"]):
        assert seshadri.cli.main(["verify", *argv]) == 0
        for doc in json.loads(capsys.readouterr().out)["results"]:
            rows += len(doc["pairs"]) + len(doc["small_degree_pairs"] or [])
    assert seshadri.cli.main(["table", "--r", "12"]) == 0
    table = capsys.readouterr().out
    table_rows = sum(1 for line in table.splitlines() if line.startswith("|")) - 2
    assert table_rows == 27
    assert calls == rows + table_rows


def _count_calls(monkeypatch, functions):
    """A Counter of the calls to each of functions, by name, from now on:
    each is wrapped at every seshadri module that binds it, as the tracer
    wraps it."""
    calls = collections.Counter()

    def counted(original):
        def counting(*args, **kwargs):
            calls[original.__name__] += 1
            return original(*args, **kwargs)

        return counting

    for original in functions:
        wrapper = counted(original)
        for name, module in list(sys.modules.items()):
            if name == "seshadri" or name.startswith("seshadri."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return calls


def test_verify_makes_every_large_r_check_at_every_r(capsys, monkeypatch):
    """verify over r = 20..1019 calls total_multiplicity_bound,
    large_r_inequalities and small_degree_pairs exactly once per r, and
    threshold once per r without a --mu0 and never with one: no check is
    made once for a range, or its result carried from one r to the next."""
    calls = _count_calls(monkeypatch, (
        seshadri.search.total_multiplicity_bound,
        seshadri.search.small_degree_pairs,
        seshadri.region.large_r_inequalities,
        seshadri.thresholds.threshold,
    ))
    lo, hi = 20, 1019
    count = hi - lo + 1
    for mu0_args, thresholds in (((), count), (("--mu0", "sqrt(1000)"), 0)):
        calls.clear()
        assert seshadri.cli.main(["verify", "--r", f"{lo}..{hi}", *mu0_args]) == 0
        assert len(json.loads(capsys.readouterr().out)["results"]) == count
        assert calls == collections.Counter({
            "total_multiplicity_bound": count,
            "small_degree_pairs": count,
            "large_r_inequalities": count,
            "threshold": thresholds,
        }), mu0_args


def test_traced_benchmark_rounds_meet_the_coverage_check(monkeypatch, tmp_path):
    """One verify-sweep and one query-mix round at seed 1, run under
    perfbench's own Tracer as run.py runs a traced round (an untraced pass
    first, then the tracer installed around the round): install raises no
    BindingMissed, every output passes its check, and the traced counts
    meet run._coverage_problems, so check_pair runs once per printed row,
    and classify, verify_coverage and cli.main once per operation of their
    kind. verify-sweep calls threshold once per r. A traced function called
    out of the tracer's reach fails here, not only in a --trace 1 run."""
    tracer = _load_perfbench("tracer")
    ops = _load_perfbench("ops")
    # run.py imports its siblings by their plain names
    monkeypatch.setitem(sys.modules, "tracer", tracer)
    monkeypatch.setitem(sys.modules, "ops", ops)
    run = _load_perfbench("run")
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())["ops"]
    monkeypatch.chdir(tmp_path)
    for name in [k for k in os.environ if k.startswith("SESHADRI_")]:
        monkeypatch.delenv(name)
    runner = run.Runner(seshadri.cli, digests)
    for workload in ("verify-sweep", "query-mix"):
        round_ops = ops.make_round(workload, 1)
        runner.run_round(round_ops)
        traced = tracer.Tracer()
        traced.install()  # raises BindingMissed if a binding stays unwrapped
        try:
            outcomes = []
            for i, op in enumerate(round_ops):
                traced.op_id = i
                outcomes.append(runner.run(op))
        finally:
            traced.uninstall()
        assert runner.problems == [] and None not in outcomes, workload
        facts = collections.Counter()
        for outcome in outcomes:
            facts.update(ops.facts(outcome))
        metrics = traced.layer_metrics()
        assert run._coverage_problems(metrics, facts, round_ops) == [], workload
        kinds = [op.kind for op in round_ops]
        assert metrics["search.check_pair.calls"] == facts["check_pair_rows"] > 0
        assert metrics["cli.main.calls"] == len(round_ops)
        assert metrics["thresholds.classify.calls"] == kinds.count("classify")
        assert metrics["thresholds.verify_coverage.calls"] == kinds.count("coverage")
        if workload == "verify-sweep":
            documents = sum(hi - lo + 1 for lo, hi in ops.sweep_blocks())
            assert metrics["thresholds.threshold.calls"] == documents
    assert runner.failed == 0 and list(tmp_path.iterdir()) == []


def test_benchmark_operations_match_their_recorded_digests(monkeypatch, tmp_path):
    """Every verify-sweep and query-mix operation of perfbench/ops.py, run in
    process through ops.execute as the benchmark runs it, passes ops.check
    against perfbench/digests.json: an output byte that drifts fails here,
    before the benchmark refuses the run. region-audit writes certificates
    and is left to the benchmark."""
    ops = _load_perfbench("ops")
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())["ops"]
    monkeypatch.chdir(tmp_path)
    for name in [k for k in os.environ if k.startswith("SESHADRI_")]:
        monkeypatch.delenv(name)
    checked = 0
    for workload in ("verify-sweep", "query-mix"):
        for op in ops.universe(workload):
            assert ops.check(ops.execute(op, seshadri.cli), digests) == []
            checked += 1
    assert checked == len(ops.sweep_blocks()) + len(ops.universe("query-mix"))
    assert list(tmp_path.iterdir()) == []


# Modules that `import seshadri.cli` plus build_parser() must not load: the
# dataclasses machinery (with the inspect, ast, dis and tokenize it pulls
# in), typing, and what only region (tempfile), --format csv (csv) or the
# commands that name a file (pathlib) use.
UNNEEDED_AT_START = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
                     "tempfile", "csv", "pathlib")


def test_cli_start_loads_no_unneeded_module():
    """A fresh interpreter under -S, so no site .pth file preloads anything,
    imports the CLI and builds its parser."""
    code = (
        "import sys, seshadri.cli; seshadri.cli.build_parser(); "
        f"print(' '.join(m for m in {UNNEEDED_AT_START!r} if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        timeout=60, check=True,
    )
    assert result.stdout.split() == []


def test_modules_parse_as_the_oldest_declared_python():
    """pyproject declares requires-python >= 3.10: every module of the
    package parses with the grammar of 3.10."""
    declared = re.search(
        r'^requires-python = ">=3\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    )
    assert declared is not None and declared[1] == "10"
    paths = sorted((ROOT / "src" / "seshadri").glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_cli_imports_no_private_name():
    """The CLI reaches the library through its public names alone: cli.py
    has no `from .<module> import _name`."""
    tree = ast.parse((ROOT / "src" / "seshadri" / "cli.py").read_text())
    private = [
        f"from .{node.module} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and node.module
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_modules_use_every_name_they_import():
    """Every name a module of the package imports at module level is
    referenced in that module, so no import outlives the code that used it.
    __init__.py imports to re-export, and is left out."""
    paths = sorted((ROOT / "src" / "seshadri").glob("*.py"))
    unused = []
    for path in paths:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [
            (alias.asname or alias.name).partition(".")[0]
            for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert len(paths) >= 9 and unused == []


def test_package_exports_resolve():
    assert len(set(seshadri.__all__)) == len(seshadri.__all__)
    for name in seshadri.__all__:
        assert hasattr(seshadri, name), name


class _RecordingEnviron(dict):
    """A copy of the environment that records every name looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def test_documented_variables_are_the_ones_read(capsys, monkeypatch, tmp_path):
    """Every SESHADRI_* name in README.md or the cli docstring is a variable
    the CLI reads, and it reads one: the sqrt width of region."""
    documented = set(re.findall(
        r"SESHADRI_[A-Z_]+", (ROOT / "README.md").read_text() + seshadri.cli.__doc__
    ))
    environ = _RecordingEnviron(os.environ)
    monkeypatch.setattr(os, "environ", environ)
    monkeypatch.chdir(tmp_path)
    for argv in (["verify", "--r", "10"], ["region", "--r", "10", "--t0", "6"],
                 ["audit-certificate", "certificate-r10-t6.json"]):
        assert seshadri.cli.main(argv) == 0
    capsys.readouterr()
    read = {name for name in environ.read if name.startswith("SESHADRI_")}
    assert read == {seshadri.cli.WIDTH_VARIABLE}
    assert documented and documented <= read


def test_readme_python_example_runs():
    """The README's ```python block, run as a doctest; the closing fence
    would otherwise read as expected output of the last example."""
    readme = ROOT / "README.md"
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(readme), 0)
    result = doctest.DocTestRunner().run(test)
    assert result.attempted == 6
    assert result.failed == 0


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    """Every `seshadri ...` line of the README's ```sh blocks, its comment
    stripped, exits 0 through cli.main, in order: region writes the
    certificate that audit-certificate reads."""
    monkeypatch.delenv(seshadri.cli.WIDTH_VARIABLE, raising=False)
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"^```sh\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    commands = [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("seshadri ")
    ]
    assert len(commands) == 7
    for argv in commands:
        assert seshadri.cli.main(argv[1:]) == 0, argv
        capsys.readouterr()
    assert (tmp_path / "certificate-r12-t4.json").is_file()
