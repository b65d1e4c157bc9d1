"""Benchmark of the plates engine: four workloads, end-to-end and per-layer.

Run from the repository root (the package is used from src/, not installed):

    python3 benchmarks/run.py --workload geometric --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 0 --seconds 1 --trace 0

Each workload is a closed loop with one client: its jobs run one after
another, each CLI job in a fresh process (``python3 -m plates.cli``), the
session job as one process that issues its request list twice.  A pass runs
the job list once; passes repeat until ``--seconds`` is spent.  The seed is
passed to ``--seed`` of the oracle-backed jobs and to ``SamplePlan`` in the
session; pass p uses seed + p * PASS_SEED_STRIDE, so one run samples several
oracle seeds and the first pass uses the seed itself.  Traced passes replay
the seeds of the untraced ones.

With ``--trace 0`` (at least MIN_PASSES passes) the last line reports the
end-to-end metrics:

- wall_s: one pass over the job list, each job timed by its median over the
  passes;
- setup_s: interpreter start plus ``import plates``, median of several fresh
  processes, as every CLI call pays it;
- peak_rss_mb: the largest resident set of any process of a pass, median
  over the passes.

With ``--trace 1`` half the time runs untraced passes and half traced ones
(see tracer.py), and the last line reports the per-layer metrics, the command
times and failure ratio of the untraced passes, and the tracing overhead.

Every output is checked (see workloads.py); ``failed`` counts jobs that did
not deliver a checked result, and ``correct`` is false when any output
contradicts mathematics.  A line before the last records the provenance and
the job list.  ``python3 benchmarks/selftest.py`` tests the benchmark itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import OK, SHORT, WORKLOADS, WRONG, Job, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
MIN_PASSES = 4  # untraced passes per run, so that each job's time is a median of four
PASS_SEED_STRIDE = 1000
RUN_LIMIT_S = 170  # a run must end within 180 s, timeouts included
COMMANDS = ("verify", "dims", "expand", "character")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class JobResult:
    job: Job
    wall_s: float
    rss_mb: float
    status: str
    reason: str | None


class Runner:
    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
            PYTHONHASHSEED="0",
        )

    def spawn(self, argv: list[str]) -> tuple[int | None, float, float]:
        """Run a child to completion; returns (exit code or None on timeout,
        wall seconds, peak resident set in MB).  The child is killed when the
        run's deadline passes."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(OUT / "stdout", "wb") as out, open(OUT / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=self.env)
            killed = threading.Event()

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (None if killed.is_set() else proc.returncode), wall, usage.ru_maxrss / 1024

    def run_job(self, job: Job, spans: Path | None) -> JobResult:
        if spans is not None:
            argv = [sys.executable, str(BENCH / "tracer.py"), str(spans), job.kind, *job.args]
        elif job.kind == "cli":
            argv = [sys.executable, "-m", "plates.cli", *job.args]
        else:
            argv = [sys.executable, str(BENCH / "session.py"), *job.args]
        code, wall, rss = self.spawn(argv)
        status, reason = judge(job, code, (OUT / "stdout").read_bytes())
        return JobResult(job, wall, rss, status, reason)

    def run_pass(self, jobs: list[Job], traced: bool) -> tuple[float, list[JobResult], dict]:
        results, span_files = [], []
        start = time.perf_counter()
        for i, job in enumerate(jobs):
            spans = OUT / f"spans-{i}.bin" if traced else None
            results.append(self.run_job(job, spans))
            if spans is not None:
                span_files.append(spans)
        wall = time.perf_counter() - start
        layers = {}
        if traced:
            layers = tracer.summarize([p for p in span_files if p.exists()])
            for p in span_files:
                p.unlink(missing_ok=True)
        return wall, results, layers

    def setup_seconds(self) -> float:
        times = []
        for _ in range(SETUP_REPEATS):
            code, wall, _ = self.spawn([sys.executable, "-c", "import plates"])
            if code != 0:
                raise SystemExit("error: `import plates` failed in a fresh process")
            times.append(wall)
        return statistics.median(times)


def judge(job: Job, code: int | None, stdout: bytes) -> tuple[str, str | None]:
    if code is None:
        return WRONG, "timeout"
    if code not in (0, 1):  # negative: killed by that signal
        return WRONG, f"exit code {code}"
    try:
        status, reason = job.check(json.loads(stdout.decode().strip().splitlines()[-1]))
    except (ValueError, IndexError, KeyError, TypeError, AttributeError) as exc:
        return WRONG, f"malformed output: {exc!r}"
    if status != WRONG and code != (1 if status == SHORT else 0):
        return WRONG, f"exit code {code} with a {status} output"
    return status, reason


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "plates").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def pass_seconds(passes: list, command: str | None = None) -> float:
    """Time of one pass over the jobs (of one command, if given), each job
    timed by its median over the passes: a slow spell of the machine or a
    costly seed in one pass moves the result less than a median of pass
    totals would."""
    per_job = zip(*(results for _, results, _ in passes))
    return sum(
        statistics.median(r.wall_s for r in runs)
        for runs in per_job
        if command is None or runs[0].job.command == command
    )


def layer_metric_units() -> dict[str, str]:
    """Every metric a traced run reports, with its unit."""
    units = tracer.metric_units()
    units["trace.overhead_ratio"] = "ratio"
    units.update({f"cli.{command}.wall_s": "s" for command in COMMANDS})
    units["cli.fail_ratio"] = "ratio"
    return units


def run_workload(name: str, jobs: Workload, seed: int, seconds: float, trace: bool, runner: Runner) -> dict:
    setup_s = runner.setup_seconds()
    start = time.perf_counter()
    untraced_until = start + (seconds / 2 if trace else seconds)
    passes = {False: [], True: []}
    for traced in ([False, True] if trace else [False]):
        until = untraced_until if not traced else start + seconds
        least = 1 if trace else MIN_PASSES
        while True:
            pass_seed = seed + len(passes[traced]) * PASS_SEED_STRIDE
            wall, results, layers = runner.run_pass(jobs(pass_seed), traced)
            passes[traced].append((wall, results, layers))
            if len(passes[traced]) >= least and time.perf_counter() + wall > until:
                break
    all_results = [r for kind in passes.values() for _, results, _ in kind for r in results]
    failed = [r for r in all_results if r.status != OK]
    plain = passes[False]
    report = {
        "wall_s": pass_seconds(plain),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in rs) for _, rs, _ in plain),
        "fail_ratio": len(failed) / len(all_results),
    }
    for command in COMMANDS:
        report[f"{command}_s"] = pass_seconds(plain, command)
    if trace:
        values = {
            key: statistics.median(layers[key] for _, _, layers in passes[True])
            for key in tracer.metric_units()
        }
        values["trace.overhead_ratio"] = pass_seconds(passes[True]) / report["wall_s"] - 1
        for command in COMMANDS:
            values[f"cli.{command}.wall_s"] = report[f"{command}_s"]
        values["cli.fail_ratio"] = report["fail_ratio"]
        metrics = {key: (values[key], unit) for key, unit in layer_metric_units().items()}
    else:
        metrics = {key: (report[key], unit) for key, unit in END_TO_END.items()}
    return {
        "workload": name,
        "pass_walls": {
            "untraced": [w for w, _, _ in passes[False]],
            "traced": [w for w, _, _ in passes[True]],
        },
        "jobs": [{"job": j.label, "reason": j.reason} for j in jobs(seed)],
        "report": report,
        "failures": [
            {"job": r.job.label, "status": r.status, "reason": r.reason} for r in failed
        ],
        "correct": all(r.status != WRONG for r in all_results),
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": metrics,
    }


def print_report(result: dict) -> None:
    report = result["report"]
    print(f"{result['workload']}: pass walls {result['pass_walls']}")
    for key, value in report.items():
        unit = "ratio" if key == "fail_ratio" else END_TO_END.get(key, "s")
        print(f"  {key:<14} {value:10.4f} {unit}")
    for failure in result["failures"]:
        print(f"  {failure['status']:<6} {failure['job']}: {failure['reason']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "plates" / "__init__.py").is_file():
        print(f"error: no plates package under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runner = Runner(time.monotonic() + RUN_LIMIT_S * len(names))
    try:
        # compile bytecode once, outside every measurement
        if runner.spawn([sys.executable, "-c", "import plates.cli"])[0] != 0:
            print("error: plates does not import", file=sys.stderr)
            return 2
        results = []
        for name in names:
            result = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace), runner)
            print_report(result)
            results.append(result)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    with open(ROOT / "BENCHMARK.json") as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    record = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": [
            {"why": why.get(r["workload"]), **{k: r[k] for k in ("workload", "jobs", "pass_walls", "report", "failures")}}
            for r in results
        ],
    }
    print("record " + json.dumps(record, sort_keys=True))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
