"""perfbench's tracer still finds every function it wraps, only the value
types whose __post_init__ it wraps define one, every command line the
benchmark runs still parses, check_pair runs once per row it prints (the
traced benchmark's count check), every verify-sweep and query-mix output
matches the benchmark's recorded digest, the package exports resolve,
the documentation names only environment variables the CLI reads, the
README's Python example and command lines run as written, and starting the
CLI loads none of the modules it does not need.

perfbench/tracer.py and perfbench/ops.py are loaded by path and left as they
are: a rename, a deletion or a settings change in seshadri that would stop
`perfbench/run.py` (with BindingMissed, a KeyError or a usage error) fails
here instead.
"""

import argparse
import doctest
import importlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
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
    """Every operation of every workload, and every trace probe (--jobs 2
    and --cache-dir among them), parses on the route main takes in one
    argparse pass, to the namespace of the two-level parse, and passes
    resolve_config with its width variable set. No command is run."""
    ops = _load_perfbench("ops")
    assert ops.WIDTH_ENV == seshadri.cli.WIDTH_VARIABLE
    every_op = [op for workload in ops.WORKLOADS for op in ops.universe(workload)]
    every_op += [op for probe in ops.probe_ops().values() for op in probe]
    parser = seshadri.cli.build_parser()
    passes = 0
    original = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        nonlocal passes
        passes += 1
        return original(self, *args, **kwargs)

    resolved = []
    for op in every_op:
        env = {} if op.exponent is None else {ops.WIDTH_ENV: str(op.exponent)}
        passes = 0
        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
            args = seshadri.cli._parse_command_line(list(op.argv))
        assert passes == 1, op.key  # no fall-back to the two-level parse
        assert vars(args) == vars(parser.parse_args(list(op.argv))), op.key
        args = seshadri.cli.resolve_config(args, env=env)
        assert args.command == op.argv[0], op.key
        if op.exponent is not None:
            assert args.sqrt_width_exponent == op.exponent, op.key
        resolved.append(args)
    assert any(args.parallelism == 2 for args in resolved)
    assert any(args.cache_dir == ops.PROBE_CACHE for args in resolved)


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
