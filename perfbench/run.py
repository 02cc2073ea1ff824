"""taxgames benchmark: time to a checked verdict on two workloads.

    python3 perfbench/run.py --workload {sweep,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src`.
One process pinned to one core sends one request at a time: a closed loop
with one client and no threads (cli starts one process per request).
Requests run in whole passes over the workload's seeded request list until
S seconds of request time have passed; every answer is checked outside the
request's timing (workloads.py).  Set-up (imports, seeded inputs,
documents) runs seven times in fresh processes before timing.

End-to-end metrics (--trace 0):
  setup_s          median wall time of the seven set-ups
  verdicts_per_s   requests completed per second of request time
  verdict_p50_ms   median request latency (Harrell-Davis estimate)
  verdict_p90_ms   90th percentile, printed only with 100 or more requests
  decided_share    share answered yes or no (or, for evaluate and verify,
                   completed) within the per-request limit
  failed_share     share that crashed, exited 2, changed bytes across
                   repeats or failed a check; printed, and in the result
                   line as `failed`
  peak_rss_mb      peak resident memory of the sweep process, or of the
                   largest taxgames process of cli

--trace 1 wraps every public taxgames function (tracing.py), runs one pass
traced, replays it untraced for `trace.overhead_share`, prints the
per-layer metrics (totals over the pass and its set-up) and writes the
spans to .perfbench-work/.  Both modes print a digest of the first pass's
answers, equal for equal answers.  The last line of stdout is one JSON
object with the result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7
P90_MIN_REQUESTS = 100

UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "decided_share": "share",
    "failed_share": "share",
    "peak_rss_mb": "MB",
}
# Printed, but not in the result line: zero at the seed commit, and p90
# exists only on workloads with enough requests.
PRINT_ONLY = ("verdict_p90_ms", "failed_share")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TAXGAMES_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def prepare(workload: str, seed: int, workdir: Path):
    import taxgames as tg
    import workloads

    if not Path(tg.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"taxgames imported from {tg.__file__}, not {ROOT / 'src'}")
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "sweep":
        return workloads.Sweep(tg, seed)
    return workloads.Commands(tg, seed, workdir, child_env())


def time_setups(args, workdir: Path) -> list[float]:
    times = []
    for k in range(SETUPS):
        target = workdir / f"setup{k}"
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only", str(target)],
            env=child_env(), check=True,
        )
        times.append(time.perf_counter() - start)
        shutil.rmtree(target)
    return times


def drive(bench, seconds: float, tracer=None, count: int | None = None):
    """Closed loop over the workload's stream.  Stops after `count` requests
    when given, else at the end of the first pass that ends after `seconds`
    of request time, so every run holds whole passes."""
    bench.tracer = tracer
    stream = bench.stream()
    outcomes = []
    busy = 0.0
    while True:
        if count is not None:
            if len(outcomes) >= count:
                break
        elif stream.pass_done() and busy >= seconds:
            break
        outcome = bench.run(stream.next(), stream, tracer, len(outcomes))
        busy += outcome.seconds
        outcomes.append(outcome)
    stream.pass_done()
    return outcomes, busy, stream.first_pass


def answer_digest(outcomes) -> str:
    import workloads

    return workloads.digest(*(f"{o.key}={o.answer}" for o in outcomes))


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of the order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  Sweep
    latencies mix request sizes that differ a hundredfold, and the sample
    median jumped by 10-15% between runs when neighbouring requests
    swapped ranks across a gap; the weighted estimate moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    scale = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return 0.0
        return math.exp(scale + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))

    steps = 16  # Simpson's rule per order statistic
    weights = []
    for i in range(n):
        lo, h = i / n, 1 / (n * steps)
        total = density(lo) + density(lo + steps * h)
        for j in range(1, steps):
            total += (4 if j % 2 else 2) * density(lo + j * h)
        weights.append(total * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def end_to_end(outcomes, busy: float, setup: list[float], workload: str) -> dict:
    latencies = [o.seconds * 1e3 for o in outcomes]
    n = len(outcomes)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": n / busy,
        "verdict_p50_ms": quantile(latencies, 0.5),
        "decided_share": sum(o.decided for o in outcomes) / n,
        "failed_share": sum(bool(o.problems) for o in outcomes) / n,
        "peak_rss_mb": (own if workload == "sweep" else children) / 1024,
    }
    if n >= P90_MIN_REQUESTS:
        metrics["verdict_p90_ms"] = quantile(latencies, 0.9)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("sweep", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "taxgames" / "__init__.py").is_file():
        print(f"error: no taxgames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("TAXGAMES_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        prepare(args.workload, args.seed, Path(args.setup_only))
        return 0
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    setup = time_setups(args, workdir)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.request = "setup"
    bench = prepare(args.workload, args.seed, workdir / "run")
    if tracer is not None:
        tracer.end_request()

    # a traced run is one pass, so its totals are those of one pass
    seconds = 0 if tracer is not None else args.seconds
    outcomes, busy, digest_count = drive(bench, seconds, tracer)
    answers = answer_digest(outcomes[:digest_count])
    failures = [(o.key, p) for o in outcomes for p in o.problems]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(outcomes)} requests in {busy:.2f} s of request time")
    print(f"digest {args.workload}/{args.seed} {answers} "
          f"(first {digest_count} requests)")

    if tracer is None:
        metrics = end_to_end(outcomes, busy, setup, args.workload)
        n = len(outcomes)
        notes = {
            "setup_s": f"median of {SETUPS} set-ups",
            "verdicts_per_s": f"{n} requests / {busy:.2f} s, "
                              f"{n // digest_count} passes",
            "failed_share": f"{len(set(k for k, _ in failures))} keys",
        }
        for name, value in metrics.items():
            note = notes.get(name, f"n={n}")
            print(f"{name} {value:.6g} {UNITS[name]} ({note})")
        if "verdict_p90_ms" not in metrics:
            print(f"verdict_p90_ms not reported: {n} < {P90_MIN_REQUESTS} requests")
        units = UNITS
        reported = {k: v for k, v in metrics.items() if k not in PRINT_ONLY}
    else:
        from tracing import summarize, unit

        tracer.enabled = False
        request_ms = {i: o.seconds * 1e3 for i, o in enumerate(outcomes)}
        commands = args.workload != "sweep"
        start_ms = {i: o.start_ms for i, o in enumerate(outcomes) if commands}
        outside_ms = {i: o.outside_ms for i, o in enumerate(outcomes) if commands}
        reported = summarize(tracer, request_ms, start_ms, outside_ms)
        tracer.uninstall()
        plain, plain_busy, _ = drive(bench, args.seconds, None, len(outcomes))
        reported["trace.overhead_share"] = (busy - plain_busy) / plain_busy
        for traced, untraced in zip(outcomes, plain):
            if untraced.answer != traced.answer:
                traced.problems.append("untraced answer differs")
            traced.problems += [f"untraced: {p}" for p in untraced.problems]
        failures = [(o.key, p) for o in outcomes for p in o.problems]
        print(f"digest untraced {answer_digest(plain[:digest_count])}")
        spans = ROOT / ".perfbench-work" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        units = {name: unit(name) for name in reported}
        for name, value in reported.items():
            print(f"{name} {value:.6g} {units[name]}")
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}")

    for key, problem in failures:
        print(f"FAILED {key}: {problem}", file=sys.stderr)
    failed = sum(bool(o.problems) for o in outcomes)
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
