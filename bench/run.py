"""kummerlat benchmark: one workload per run, closed loop, outputs checked.

    python3 bench/run.py --workload census-sweep --seed 1 --seconds 45 --trace 0

Run from the repository root.  The library is imported from ./src.  One
caller on one thread issues each operation when the previous one returns.
Every output is checked against an oracle; a timeout, an escaped exception
or a wrong output is a failed operation.  With --trace 0 the end-to-end
metrics are reported; with --trace 1 the same operations run once untraced
and once with spans around the library's public functions, and the
per-layer metrics are reported.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The workloads
and why each was chosen are listed in BENCHMARK.json; bench/README.md has
the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "kummerlat", "__init__.py")):
    raise SystemExit(f"no kummerlat sources under {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)

import workloads  # noqa: E402  (imports kummerlat from SRC)
from deadline import DeadlineExceeded, deadline  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = os.path.join(ROOT, "bench", "out")

DEADLINE_S = 30.0  # per operation
# Fresh interpreters timed before each round and after the last one, so
# that a slow phase of the machine falls on a share of the probes, not on
# all of them.  One more probe at the start only warms the bytecode cache.
SETUP_PROBES_PER_GAP = 2
PROBE = ("import time; t = time.perf_counter(); import kummerlat; "
         "print(time.perf_counter() - t)")

# nominal seconds per round on a 2-vCPU machine, to turn --seconds into a
# fixed amount of work: the same work on every commit
ROUND_S = {"census-sweep": 5.6, "lattice-build": 4.5}
ROUND = {"census-sweep": workloads.census_round, "lattice-build": workloads.lattice_round}


@dataclass
class Sample:
    op: workloads.Op
    round: int
    seconds: float
    status: str  # "ok", "timeout", "error: ...", "wrong: ..."


def workload_reasons() -> dict[str, str]:
    """Workload name -> why it was chosen, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {w["name"]: w["why"] for w in json.load(fh)["workloads"]}


def probe_setup(n: int) -> list[float]:
    """Seconds to `import kummerlat` in n fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"cannot import kummerlat from {SRC}")
        times.append(float(proc.stdout))
    return times


def build_rounds(name: str, rng: random.Random, seconds: int) -> list[list[workloads.Op]]:
    return [ROUND[name](rng) for _ in range(max(1, round(seconds / ROUND_S[name])))]


def run_op(op: workloads.Op, k: int) -> Sample:
    t0 = time.perf_counter()
    try:
        with deadline(DEADLINE_S):
            result = op.call()
    except DeadlineExceeded:
        return Sample(op, k, time.perf_counter() - t0, "timeout")
    except Exception as exc:  # an escaped exception is a failed operation
        return Sample(op, k, time.perf_counter() - t0, f"error: {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    try:
        problem = op.check(result)
    except Exception as exc:  # an output of the wrong shape is a wrong output
        problem = f"{type(exc).__name__}: {exc}"
    return Sample(op, k, seconds, "ok" if problem is None else f"wrong: {problem}")


def run_rounds(rounds) -> tuple[list[Sample], list[float]]:
    """(samples of every operation, import times probed between rounds)."""
    probe_setup(1)
    samples: list[Sample] = []
    setup: list[float] = []
    for k, ops in enumerate(rounds):
        setup += probe_setup(SETUP_PROBES_PER_GAP)
        samples += [run_op(op, k) for op in ops]
    setup += probe_setup(SETUP_PROBES_PER_GAP)
    return samples, setup


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least ten
    operations beyond it; the maximum when there are ten or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 100.0, xs[-1]
    return 100.0 * (n - 10) / n, xs[n - 11]


def per_round(samples: list[Sample], kinds: tuple[str, ...] | None, agg) -> float | None:
    """Median over rounds of agg(latencies of the round's ops of these kinds)."""
    by_round: dict[int, list[float]] = {}
    for s in samples:
        if kinds is None or s.op.kind in kinds:
            by_round.setdefault(s.round, []).append(s.seconds)
    if not by_round:
        return None
    return statistics.median(agg(v) for v in by_round.values())


def end_to_end(samples: list[Sample], setup: list[float]) -> tuple[dict, dict]:
    """(metrics reported to BENCHMARK.json, further per-workload figures)."""
    walls = per_round(samples, None, sum)
    ok = sum(s.status == "ok" for s in samples)
    total = sum(s.seconds for s in samples)
    latencies = [s.seconds for s in samples]
    pct, tail_s = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (walls, "s"),
        "ops_per_s": (ok / total, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "op_tail_percentile": (pct, "%"),
        "op_samples": (len(samples), "count"),
        "fail_ratio": ((len(samples) - ok) / len(samples), "ratio"),
    }
    for name, kinds, agg in (("check_max_ms", ("check",), max),
                             ("saturation_ms", ("saturation",), sum),
                             ("quotient_ms", ("quotient",), sum)):
        value = per_round(samples, kinds, agg)
        if value is not None:
            extra[name] = (1e3 * value, "ms")
    return metrics, extra


def traced_run(rounds) -> tuple[list[Sample], dict, Tracer]:
    """Each operation once untraced and once traced, alternating which goes
    first so that warm caches favour neither; per-layer metrics come from
    the traced calls."""
    tracer = Tracer()
    samples: list[Sample] = []
    wall = {False: 0.0, True: 0.0}
    cpu = 0.0
    i = 0
    for k, ops in enumerate(rounds):
        for op in ops:
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                if traced:
                    tracer.install()
                c0 = time.process_time()
                try:
                    sample = run_op(op, k)
                finally:
                    tracer.uninstall()
                if not traced:
                    cpu += time.process_time() - c0
                wall[traced] += sample.seconds
                samples.append(sample)
            i += 1
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (wall[True] / wall[False], "ratio")
    metrics["process.cpu_s"] = (cpu, "s")
    return samples, metrics, tracer


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description="kummerlat benchmark")
    reasons = workload_reasons()
    ap.add_argument("--workload", required=True, choices=sorted(reasons))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    # the traced run does half the work twice, untraced and traced
    work_s = max(1, args.seconds // 2) if args.trace else args.seconds
    rounds = build_rounds(args.workload, rng, work_s)
    n_ops = sum(len(r) for r in rounds)
    print(f"# workload {args.workload}, seed {args.seed}, seconds {args.seconds}, "
          f"trace {args.trace}")
    print(f"# why: {reasons[args.workload]}")
    print(f"# python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.platform()}, commit {commit()}")
    print(f"# closed loop, one caller, one thread: {len(rounds)} round(s), {n_ops} "
          f"operations, deadline {DEADLINE_S} s per operation")

    if args.trace:
        samples, metrics, tracer = traced_run(rounds)
        os.makedirs(OUT, exist_ok=True)
        tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        samples, setup = run_rounds(rounds)
        metrics, extra = end_to_end(samples, setup)
        for name, (value, unit) in extra.items():
            print(f"{name} {value} {unit}")

    failed = [s for s in samples if s.status != "ok"]
    for s in failed:
        print(f"# FAILED {s.op.name}: {s.status} after {s.seconds:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    # every workload is chosen so that no operation fails: a timeout is as
    # wrong as a wrong verdict
    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
