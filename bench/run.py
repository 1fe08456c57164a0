"""galekit benchmark: one workload, one seed, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload subset-scans --seed 0 --seconds 34 --trace 0

The client runs in one process and one thread; the next job starts only
after the previous one has finished and been checked.  Rounds of the
workload's job list are run until ``--seconds`` of job time has passed, each
round with fresh inputs drawn from the seed (see ``workloads.py`` and
``NOTES.md``).  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the untraced loop runs for
half the time (and at least the workload's fixed number of traced rounds),
those first rounds are replayed under span wrappers, and the last line
carries the per-layer metrics.  The exit code is 0 only when every job
passed its invariants, its digest and the work-count checks.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 11
# One thread throughout, child interpreters included.  galekit's numpy work
# is int64 and never calls BLAS, but the BLAS thread pool that numpy starts
# at import made set-up time bimodal on a 2-CPU host.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import galekit.cli; galekit.cli.build_parser()"
)
# Tail percentile per workload: the highest of 50/75/90/95/99 with at least
# ten samples beyond it in a 30-second run at the baseline, fixed so that
# later runs report the same quantity.
TAIL_PERCENTILE = {"subset-scans": 75, "wide-eliminations": 95, "field-enumeration": 75}
# Rounds replayed under the span wrappers: fixed per workload, whatever the
# untraced loop reached, so per-layer counts cover the same inputs in every
# run at a seed and on every commit.  About half of a 30-second run each.
TRACE_ROUNDS = {"subset-scans": 2, "wide-eliminations": 5, "field-enumeration": 5}
END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_galekit():
    """Put the checkout's sources first on the path and import from there."""
    if not (SRC / "galekit" / "__init__.py").is_file():
        raise ImportError(f"no galekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import galekit

    if Path(galekit.__file__).resolve().parent != SRC / "galekit":
        raise ImportError(f"galekit imported from {galekit.__file__}, not from {SRC}")


@dataclass
class RoundResult:
    seconds: float = 0.0  # execute + check time of every job
    busy: float = 0.0  # execute time of every job, failed ones too
    latencies: dict = field(default_factory=dict)  # job index -> seconds, verified jobs
    digests: list = field(default_factory=list)
    counts: collections.Counter = field(default_factory=collections.Counter)
    problems: list = field(default_factory=list)
    failed: set = field(default_factory=set)


def run_round(jobs, tracer=None, first_job: int = 0) -> RoundResult:
    res = RoundResult()
    start = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_job + i
        t0 = perf_counter()
        t1 = None
        try:
            result = job.execute(job.spec)
            t1 = perf_counter()
            material, problem, counts = job.check(job.spec, result)
        except Exception as e:  # a failing job is counted, not fatal
            res.busy += (t1 or perf_counter()) - t0
            res.digests.append("error")
            res.failed.add(i)
            res.problems.append(f"job {i} ({job.kind}): {type(e).__name__}: {e}")
            continue
        res.busy += t1 - t0
        res.digests.append(hashlib.sha256(material.encode()).hexdigest()[:16])
        res.counts.update(counts)
        if problem:
            res.failed.add(i)
            res.problems.append(f"job {i} ({job.kind}): {problem}")
        else:
            res.latencies[i] = t1 - t0
    res.seconds = perf_counter() - start
    return res


def compare_digests(res: RoundResult, jobs, digests, what: str) -> None:
    """Mark jobs whose digest differs from the reference as failed."""
    for i, (got, want) in enumerate(zip(res.digests, digests)):
        if got != want and i not in res.failed:
            res.failed.add(i)
            del res.latencies[i]
            res.problems.append(f"job {i} ({jobs[i].kind}): digest {got} != {what} {want}")


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate: a mean of all order statistics, the i-th
    weighted by the Beta(q(n+1), (1-q)(n+1)) mass on ((i-1)/n, i/n], q = p/100.

    A workload's latencies are a mix of job shapes whose costs differ by
    orders of magnitude.  Interpolating between the two nearest ranks jumps
    whenever the percentile falls in a gap between two shapes; the weighted
    mean moves smoothly with the samples."""
    s = sorted(values)
    n = len(s)
    if n == 1:
        return s[0]
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    steps = 16  # midpoints per rank's interval; the density is smooth there
    logs = [[(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
             for x in ((i + (j + 0.5) / steps) / n for j in range(steps))]
            for i in range(n)]
    top = max(map(max, logs))
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, s)) / sum(weights)


def time_setup() -> float:
    """Wall time of a fresh interpreter importing galekit and building its
    command-line parser.  Popen.wait without a timeout blocks in waitpid;
    with one it polls in steps of up to 50 ms."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def git_sha() -> str:
    """HEAD of the checkout's own repository; git does not search above it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_metadata() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    lines = {}
    for path in sorted((SRC / "galekit").glob("*.py")):
        with open(path, "rb") as fh:
            lines[path.name] = fh.read().count(b"\n")
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "src_lines": {"total": sum(lines.values()), **lines},
    }


def load_expected(workload: str, seed: int) -> list:
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed), [])
    except FileNotFoundError:
        return []


def untraced_rounds(workloads, args, budget: float, min_rounds: int, workdir: str,
                    reference: list):
    """Run fresh rounds until `budget` seconds of job time have passed and
    at least `min_rounds` rounds are done.  Set-up is timed before the
    first SETUP_REPEATS rounds (and after the last, when there are fewer),
    so its samples spread over the run."""
    rounds, setups, elapsed = [], [], 0.0
    while elapsed < budget or len(rounds) < min_rounds:
        k = len(rounds)
        if len(setups) < SETUP_REPEATS:
            setups.append(time_setup())
        jobs = workloads.build_round(args.workload, args.seed, k, workdir)
        res = run_round(jobs)
        if k < len(reference):
            compare_digests(res, jobs, reference[k], "recorded")
        rounds.append((jobs, res))
        elapsed += res.seconds
    while len(setups) < SETUP_REPEATS:
        setups.append(time_setup())
    return rounds, statistics.median(setups)


def traced_replay(spans, rounds):
    """Replay `rounds` under the span wrappers.  Each must reproduce its
    untraced digests and input-derived counts, and round 0, replayed once
    more under a fresh tracer, its wrapper counts."""
    tracer = spans.Tracer()
    traced, work, problems = [], [], []
    tracer.install()
    try:
        for k, (jobs, untraced) in enumerate(rounds):
            first_span = len(tracer.spans)
            res = run_round(jobs, tracer, first_job=k * len(jobs))
            work.append(spans.work_counts(tracer.spans[first_span:], first_span))
            compare_digests(res, jobs, untraced.digests, "untraced run")
            if res.counts != untraced.counts:
                problems.append(f"round {k}: work counts {dict(res.counts)} drifted from "
                                f"untraced run {dict(untraced.counts)}")
            traced.append(res)
    finally:
        tracer.uninstall()

    again = spans.Tracer()
    again.install()
    try:
        repeat = run_round(rounds[0][0], again)
    finally:
        again.uninstall()
    compare_digests(repeat, rounds[0][0], rounds[0][1].digests, "untraced run")
    repeat_work = spans.work_counts(again.spans, 0)
    if repeat_work != work[0]:
        problems.append(f"round 0: wrapper counts {repeat_work} drifted from {work[0]} "
                        "on a second replay")
    return tracer, traced + [repeat], work, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("subset-scans", "wide-eliminations", "field-enumeration"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.environ.update(SINGLE_THREAD_ENV)
    try:
        import_galekit()
    except ImportError as e:
        print(f"error: cannot import galekit: {e}", file=sys.stderr)
        return 2
    import spans
    import workloads

    reference = load_expected(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    traced, drift = [], []
    n_traced = TRACE_ROUNDS[args.workload] if args.trace else 0
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds, setup_s = untraced_rounds(workloads, args, budget, n_traced, workdir, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer, traced, wrapper_work, drift = traced_replay(spans, rounds[:n_traced])

    all_results = [res for _, res in rounds] + traced
    attempted = sum(len(res.digests) for res in all_results)
    failed = sum(len(res.failed) for res in all_results)
    problems = drift + [p for res in all_results for p in res.problems]
    correct = failed == 0 and not drift

    latencies = [x for _, res in rounds for x in res.latencies.values()]
    busy_s = sum(res.busy for _, res in rounds)
    tail = TAIL_PERCENTILE[args.workload]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "jobs_per_round": len(rounds[0][0]),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digests_checked_rounds": min(len(rounds), len(reference)),
        "busy_s": busy_s,
        "work_per_round": [dict(res.counts) for _, res in rounds],
        "latency_samples": len(latencies),
        "latency_tail_percentile": tail,
        "problems": problems[:20],
        "meta": run_metadata(),
    }
    if latencies:
        info["latency_beyond_tail"] = sum(
            1 for x in latencies if x > percentile(latencies, tail))

    if args.trace:
        # 1 - traced jobs_per_s / untraced jobs_per_s, over the same jobs
        untraced_busy = sum(res.busy for _, res in rounds[:n_traced])
        overhead = 1 - untraced_busy / sum(res.busy for res in traced[:n_traced])
        metrics = spans.layer_metrics(tracer.spans, n_traced, overhead)
        info["traced_rounds"] = n_traced
        info["wrapper_work_per_round"] = wrapper_work
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        info["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = {
            "jobs_per_s": len(latencies) / busy_s,
            "latency_p50_ms": 1000 * percentile(latencies, 50) if latencies else 0.0,
            "latency_tail_ms": 1000 * percentile(latencies, tail) if latencies else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_share':40s} {failed / attempted:.6g} share ({failed}/{attempted} jobs)")
    for p in problems[:20]:
        print(f"FAILED: {p}")
    print(json.dumps({"info": info}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
