"""Benchmark of the seshadri command line, end to end and layer by layer.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/`. One process calls `seshadri.cli.main(argv)` in a closed loop (one
caller; each command is issued when the previous one has returned) over
seeded rounds of operations from `ops.py`, and checks every output.

--trace 0 prints the end-to-end metrics: setup_s (import plus build_parser
in a fresh interpreter, median of several), ops_per_s (operations completed
over the time they took), latency_ms.p50 and .p90 over the round's
operations, each at its median over the passes, and peak_rss_mb;
error_rate and the sample counts are printed alongside. Its times are
scaled to a reference speed of the host, which a calibration loop measures
between every two steps (see Clock). --trace 1 repeats one round untraced
and traced (see tracer.py), prints per-function calls and self times,
checks those counts against the outputs, runs the pool, cache and
squarefree probes, and writes the first traced round's spans to
.perfbench-spans/ as JSON lines.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every output
was correct.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import ops
from tracer import LAYERS, NAMES, BindingMissed, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench-spans"
DIGESTS = HERE / "digests.json"

SETUP_SAMPLES = 15
MIN_PASSES = 4
MIN_BEYOND_P90 = 10  # operations run whose median lies beyond p90
MIN_TRACED_REPEATS = 3
OVERRUN_S = 60  # stop this long after --seconds even if short of samples
PROBE_REPEATS = 3
CALIBRATION_LOOPS = 10_000
CALIBRATION_BIG_LOOPS = 500
CALIBRATION_MODULUS = 2**521 - 1
CALIBRATION_SPAN = 3  # calibrations either side of a step
REFERENCE_CALIBRATION_S = 0.0015  # about the loop's median time on the reference host

_SETUP_CODE = """\
import json, time
start = time.perf_counter()
import seshadri.cli
seshadri.cli.build_parser()
elapsed = time.perf_counter() - start
print(json.dumps({"seconds": elapsed, "file": seshadri.cli.__file__}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def hermetic_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SESHADRI_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "seshadri").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def commit_hash() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


@contextlib.contextmanager
def session():
    """Import seshadri from this checkout's src/ and work in a fresh directory.

    Clears every SESHADRI_* variable, so no configuration leaks in, and runs
    in an empty temporary directory, so no stray seshadri.conf is read. The
    directory is inside the checkout, since the benchmark writes nowhere
    else, and is deleted on exit. Yields the seshadri.cli module and the
    directory.
    """
    if not (SRC / "seshadri" / "cli.py").is_file():
        raise BenchError(f"no seshadri sources under {SRC}")
    for key in [k for k in os.environ if k.startswith("SESHADRI_")]:
        del os.environ[key]
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    old_cwd = os.getcwd()
    try:
        sys.path.insert(0, str(SRC))
        cli = importlib.import_module("seshadri.cli")
        if Path(cli.__file__).resolve().parent != SRC / "seshadri":
            raise BenchError(f"seshadri imported from {cli.__file__}, not {SRC}")
        os.chdir(workdir)
        yield cli, workdir
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def setup_seconds(workdir: Path) -> float:
    """Seconds to import seshadri.cli and build the parser in a fresh
    interpreter."""
    done = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=workdir,
                          env=hermetic_env(), capture_output=True, text=True,
                          timeout=120)
    if done.returncode != 0:
        raise BenchError(f"import failed in a fresh interpreter:\n{done.stderr}")
    report = json.loads(done.stdout)
    if Path(report["file"]).resolve().parent != SRC / "seshadri":
        raise BenchError(f"fresh interpreter imported {report['file']}")
    return report["seconds"]


class Runner:
    """Executes and checks operations, keeping the tally of failures."""

    def __init__(self, cli, digests: dict) -> None:
        self.cli = cli
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, op: ops.Op) -> ops.Outcome | None:
        """The outcome of one operation, or None when it failed a check."""
        outcome = ops.execute(op, self.cli)
        problems = ops.check(outcome, self.digests)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
            return None
        return outcome

    def run_round(self, round_ops: list[ops.Op]) -> list[ops.Outcome]:
        """Outcomes of the operations that passed."""
        return [o for o in map(self.run, round_ops) if o is not None]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def calibration_seconds() -> float:
    """Seconds the host takes for a fixed pure-Python loop.

    Half of the loop is small-integer arithmetic and half is 521-bit
    multiplication, which allocates as the program's Fraction arithmetic
    does: a slow spell of the host stretches this mix by about as much as
    it stretches the program, where the small integers alone stretch less.
    The loop creates no object the garbage collector tracks, so it costs
    the same whatever the program under test has left on the heap.
    """
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i % 7
    y = 12345678901234567890
    for i in range(CALIBRATION_BIG_LOOPS):
        y = (y * y + i) % CALIBRATION_MODULUS
    return time.perf_counter() - start


class Clock:
    """Times scaled to the reference speed of the host.

    A shared host runs the same code 30% faster or slower from one half
    minute to the next, on every CPU at once. The calibration loop is run
    between every two measured steps, and each step's time is multiplied
    by REFERENCE_CALIBRATION_S over the median calibration time near it, so
    a figure reads as it would on a host at the reference speed.
    """

    def __init__(self) -> None:
        self.calibrations: list[float] = []
        self.steps: list[tuple[float, int]] = []  # (seconds, calibrations before)
        self.calibrate()

    def calibrate(self, times: int = 1) -> None:
        self.calibrations += [calibration_seconds() for _ in range(times)]

    def record(self, seconds: float) -> None:
        """Record a step that has just ended, and calibrate after it."""
        self.steps.append((seconds, len(self.calibrations)))
        self.calibrate()

    def scaled(self) -> list[float]:
        cal = self.calibrations
        return [seconds * REFERENCE_CALIBRATION_S
                / statistics.median(cal[max(0, i - CALIBRATION_SPAN): i + CALIBRATION_SPAN])
                for seconds, i in self.steps]

    def raw(self) -> list[float]:
        return [seconds for seconds, _ in self.steps]


def sample_setup(clock: Clock, workdir: Path) -> None:
    """One set-up sample, with the calibrations on both sides of it taken
    right next to it."""
    clock.calibrate(CALIBRATION_SPAN)
    clock.record(setup_seconds(workdir))
    clock.calibrate(CALIBRATION_SPAN - 1)


def _typical_ms(keys: list[str], seconds: list[float]) -> dict[str, float]:
    """Each operation's median latency over the passes, in ms."""
    by_op: dict[str, list[float]] = {}
    for key, t in zip(keys, seconds):
        by_op.setdefault(key, []).append(t * 1000)
    return {key: statistics.median(ts) for key, ts in by_op.items()}


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float,
               workdir: Path) -> tuple[dict, list[str]]:
    """Repeat the seed's round for `seconds`, in whole passes. Latency
    percentiles are over the round's operations, each at its median over
    the passes; ops_per_s is over every operation of every pass. Set-up
    samples are spread over the run. Every time is scaled to the host's
    reference speed."""
    round_ops = ops.make_round(workload, seed)
    setup_seconds(workdir)  # unmeasured: compiles bytecode
    setup, latency = Clock(), Clock()
    keys: list[str] = []  # the operation of each latency step
    passes = 0
    next_setup = 0.0
    start = time.perf_counter()
    while True:
        for op in round_ops:
            outcome = runner.run(op)
            if outcome is not None:
                latency.record(outcome.seconds)
                keys.append(op.key)
        passes += 1
        elapsed = time.perf_counter() - start
        if len(setup.steps) < SETUP_SAMPLES and elapsed >= next_setup:
            sample_setup(setup, workdir)
            next_setup = elapsed + seconds / SETUP_SAMPLES
        if elapsed >= seconds + OVERRUN_S or (elapsed >= seconds and passes >= MIN_PASSES):
            break
    while len(setup.steps) < SETUP_SAMPLES:
        sample_setup(setup, workdir)
    if not keys:
        raise BenchError("no operation passed: " + "; ".join(runner.problems[:5]))
    scaled, raw = latency.scaled(), latency.raw()
    by_op = _typical_ms(keys, scaled)
    typical = list(by_op.values())
    p90 = percentile(typical, 90)
    beyond_p90 = sum(1 for key in keys if by_op[key] > p90)
    if beyond_p90 < MIN_BEYOND_P90:
        raise BenchError(f"only {beyond_p90} operations lie beyond p90, need {MIN_BEYOND_P90}")
    raw_typical = list(_typical_ms(keys, raw).values())
    metrics = {
        "setup_s": (statistics.median(setup.scaled()), "s"),
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "latency_ms.p50": (percentile(typical, 50), "ms"),
        "latency_ms.p90": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"setup_s: median of {len(setup.steps)} fresh interpreters",
        f"latency_ms: {len(scaled)} operations, {passes} passes of a "
        f"{len(round_ops)}-operation round (closed loop, one caller); percentiles "
        f"of {len(typical)} per-operation medians, {beyond_p90} operations beyond p90; "
        "ops_per_s: operations over the time they took",
        f"unscaled: setup_s {statistics.median(setup.raw()):.6g}, "
        f"ops_per_s {len(raw) / sum(raw):.6g}, "
        f"latency_ms.p50 {percentile(raw_typical, 50):.6g}, "
        f"latency_ms.p90 {percentile(raw_typical, 90):.6g}; host speed "
        f"{REFERENCE_CALIBRATION_S / statistics.median(latency.calibrations):.4g} "
        "of the reference (median)",
    ]
    return metrics, notes


def _coverage_problems(first: dict, facts: dict, round_ops: list[ops.Op]) -> list[str]:
    """Traced call counts must agree with counts read from the outputs."""
    kinds = [op.kind for op in round_ops]
    expected = {
        "search.check_pair.calls": facts.get("check_pair_rows", 0),
        "thresholds.classify.calls": kinds.count("classify"),
        "thresholds.verify_coverage.calls": kinds.count("coverage"),
        "region.verify_t_bound.calls": kinds.count("region"),
        "region.audit_certificate.calls": kinds.count("region"),
        "cli.main.calls": len(kinds) + kinds.count("region"),
    }
    problems = [f"tracer coverage: {name} = {first[name]}, outputs give {want}"
                for name, want in expected.items() if first[name] != want]
    if facts.get("leaves", 0) != facts.get("summary_leaves", 0):
        problems.append(f"tracer coverage: certificates hold {facts.get('leaves')} leaves, "
                        f"region summaries say {facts.get('summary_leaves')}")
    return problems


def _probes(runner: Runner, workdir: Path) -> dict:
    """Untraced probes for open ROADMAP decisions, medians of a few repeats."""
    exact = importlib.import_module("seshadri.exact")
    times: dict[str, list[float]] = {"exact.squarefree_decomposition.probe_s": []}
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        q = exact.parse_quadratic(f"sqrt({ops.PROBE_PRIME})")
        times["exact.squarefree_decomposition.probe_s"].append(time.perf_counter() - start)
        if (q.a, q.b, q.rad) != (0, 1, ops.PROBE_PRIME):
            runner.problems.append(f"parse_quadratic(sqrt({ops.PROBE_PRIME})) gave {q}")
        runner.attempted += 1
        shutil.rmtree(workdir / ops.PROBE_CACHE, ignore_errors=True)  # cold again
        for name, probe in ops.probe_ops().items():
            times.setdefault(name, []).append(
                sum(o.seconds for o in runner.run_round(probe)))
    return {name: statistics.median(t) for name, t in times.items()}


def traced(runner: Runner, workload: str, seed: int, seconds: float,
           workdir: Path) -> tuple[dict, list[str]]:
    round_ops = ops.make_round(workload, seed)
    untraced_walls, traced_walls, runs = [], [], []
    first_tracer = None
    facts: dict[str, int] = {}
    start = time.perf_counter()
    while True:
        untraced_walls.append(sum(o.seconds for o in runner.run_round(round_ops)))
        tracer = Tracer()
        tracer.install()
        try:
            outcomes = []
            for i, op in enumerate(round_ops):
                tracer.op_id = i
                outcome = runner.run(op)
                if outcome is not None:
                    outcomes.append(outcome)
        finally:
            tracer.uninstall()
        traced_walls.append(sum(o.seconds for o in outcomes))
        runs.append(tracer.layer_metrics())
        if first_tracer is None:
            first_tracer = tracer
            for outcome in outcomes:
                for key, value in ops.facts(outcome).items():
                    old = facts.get(key, 0)
                    facts[key] = max(old, value) if key == "max_depth" else old + value
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_TRACED_REPEATS and elapsed >= seconds:
            break
        if elapsed >= seconds + OVERRUN_S:
            break
    first = runs[0]
    metrics = {}
    for name in first:
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(run[name] for run in runs)
        else:
            metrics[name] = first[name]
    if any(run[f"{n}.calls"] != first[f"{n}.calls"] for run in runs for n in NAMES):
        runner.problems.append("call counts differ between traced repeats of one round")
    runner.problems += _coverage_problems(first, facts, round_ops)
    metrics["region.leaves"] = facts.get("leaves", 0)
    metrics["region.max_depth"] = facts.get("max_depth", 0)
    metrics["region.certificate_bytes"] = facts.get("certificate_bytes", 0)
    metrics["cli.stdout_bytes"] = facts.get("stdout_bytes", 0)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                       / statistics.median(untraced_walls))
    metrics.update(_probes(runner, workdir))
    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{workload}-seed{seed}.jsonl"
    first_tracer.write_spans(spans_path)
    shares = sorted(((metrics[f"{layer}.self_s"], layer) for layer in LAYERS), reverse=True)
    total = sum(s for s, _ in shares) or 1.0
    notes = [
        f"traced {len(runs)} repeats of one {len(round_ops)}-operation round; "
        f"counts from the first, self times are medians; its spans are in {spans_path}",
        "self-time shares: " + ", ".join(f"{layer} {s / total:.0%}" for s, layer in shares),
    ]
    return {name: (value, _unit(name)) for name, value in metrics.items()}, notes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_per_call", "_per_edim")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        digests = json.loads(DIGESTS.read_text())
        with session() as (cli, workdir):
            runner = Runner(cli, digests["ops"])
            print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
            print("env " + json.dumps({
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "commit": commit_hash(),
                "src_sha256": src_digest(),
                "digests_recorded_at": digests["commit"],
            }))
            if args.trace:
                metrics, notes = traced(runner, args.workload, args.seed, args.seconds,
                                        workdir)
            else:
                metrics, notes = end_to_end(runner, args.workload, args.seed,
                                            args.seconds, workdir)
    except (BenchError, BindingMissed, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = runner.failed
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>14.6g} {unit}")
    if not args.trace:
        rate = failed / runner.attempted
        print(f"{'error_rate':48s} {rate:>14.6g} ratio ({failed} of {runner.attempted})")
    for note in notes:
        print(note)
    correct = not runner.problems
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
