"""spinlab benchmark: one workload, one process, one closed-loop client.

    python3 bench/run.py --workload hub-oracle --seed 1 --seconds 20 --trace 0

Run from the repository root; spinlab is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
executes every op twice, untraced and traced, and reports per-layer metrics
and the tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import reference
from tracing import SETUP, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / "bench" / "out"
# One client and no added threads: every BLAS pool is pinned to one thread.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
# op_ms_tail needs ten ops beyond the reported one.  hub-sampling and
# potts-meanfield (about 1 s an op) run 12-17 ops in 20 s, which moves the
# tail between p17 and p41 from run to run; at least 16 ops keeps it near
# p38 without stretching their runs much.
MIN_OPS = 16
TRACE_COUNT_OPS = range(4)  # per-layer counts come from these ops only
HARD_STOP_S = 150.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def environment(args) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_setup(args) -> list[float]:
    """Seconds from starting a fresh process until its first op is ready.

    Not scaled by the reference kernel: set-up (process start, imports, page
    faults) does not follow the kernel's speed, and dividing by it tripled
    the spread of the samples (CV 9% unscaled, 24% scaled)."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code}, said {line!r})")
        samples.append(ready - start)
    return samples


def run_op(workload, tracer: Tracer, i: int, inp: dict, traced: bool) -> metrics.OpRecord:
    def execute():
        if traced:
            tracer.install(i)
        try:
            return workload.execute(inp)
        finally:
            if traced:
                tracer.uninstall()

    return metrics.attempt(execute, lambda out: workload.check(inp, out, record=not traced))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spinlab" / "__init__.py").is_file():
        print(f"bench: no spinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUTDIR.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()

    if args.setup_only:
        workloads.WORKLOADS[args.workload](args.seed, tracer, OUTDIR).warm()
        print("ready", flush=True)
        return 0

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    setup_samples = [] if args.trace else time_setup(args)

    if args.trace:
        workloads.instrument(tracer)
        tracer.install(SETUP)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tracer, OUTDIR)
        workload.warm()
    finally:
        tracer.uninstall()

    plain: list[metrics.OpRecord] = []
    traced: list[metrics.OpRecord] = []
    # Untraced runs time the reference kernel before each op and after the
    # last one; the op times are scaled to its nominal speed.
    refs: list[float] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        min_ops = len(TRACE_COUNT_OPS) if args.trace else MIN_OPS
        enough = elapsed >= args.seconds and i >= min_ops
        if enough or elapsed >= HARD_STOP_S:
            break
        inp = workload.prepare(i)
        if not args.trace:
            refs.append(reference.seconds())
        plain.append(run_op(workload, tracer, i, inp, traced=False))
        if args.trace:
            traced.append(run_op(workload, tracer, i, inp, traced=True))
        i += 1
    if not args.trace:
        refs.append(reference.seconds())

    records = plain + traced
    failures = [r for r in records if r.failure]
    problems = workload.finish()
    for r in failures[:5]:
        print(f"bench: op failed: {r.failure}\n{r.trace}", file=sys.stderr)
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)

    def ops_per_s(latencies) -> float:
        return len(latencies) / sum(latencies) if latencies else 0.0

    def passed(recs) -> list[float]:
        return [r.latency_s for r in recs if not r.failure]

    print(f"{args.workload} seed={args.seed}: {len(records)} ops attempted, {len(failures)} failed, "
          f"fail_frac={len(failures) / max(len(records), 1):.4g}")
    if args.trace:
        overhead = ops_per_s(passed(traced)) - ops_per_s(passed(plain))
        print(f"tracing overhead: {overhead:+.4g} ops/s ({ops_per_s(passed(plain)):.4g} untraced, "
              f"{ops_per_s(passed(traced)):.4g} traced, {len(plain)} op pairs)")
        values = workloads.layer_metrics(tracer, workload, TRACE_COUNT_OPS)
        values["trace.overhead_ops_per_s"] = (overhead, "1/s")
        path = OUTDIR / f"trace-{args.workload}-{args.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"env": env}) + "\n")
            for (name, start_s, end_s, parent, op), self_s in zip(tracer.spans, tracer.self_times()):
                fh.write(json.dumps({"name": name, "start": start_s, "end": end_s,
                                     "parent": parent, "op": op, "self": self_s}) + "\n")
            for (op, name), amount in sorted(tracer.counts.items()):
                fh.write(json.dumps({"count": name, "op": op, "amount": amount}) + "\n")
        print(f"spans and counts written to {path.relative_to(ROOT)}")
    else:
        wall = passed(plain)
        scaled = reference.scale([r.latency_s for r in plain], refs, workload.SPEED_EXPONENT)
        latencies = [t for t, r in zip(scaled, plain) if not r.failure]
        tail = metrics.tail_latency(latencies)
        tail_ms, tail_pct = (1000.0 * tail[0], tail[1]) if tail else (1000.0 * max(latencies, default=0.0), 100.0)
        print(f"machine speed: reference kernel took {1000 * statistics.median(refs):.4g} ms "
              f"(median of {len(refs)}), nominal {1000 * reference.NOMINAL_S:.4g} ms")
        print(f"unscaled wall time: {ops_per_s(wall):.4g} ops/s, "
              f"op p50 {1000 * statistics.median(wall) if wall else 0.0:.4g} ms")
        print(f"setup samples (s, unscaled): {', '.join(f'{s:.4g}' for s in setup_samples)}")
        print(f"op_ms_tail is p{tail_pct:.3g} of {len(latencies)} ops")
        values = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "ops_per_s": (ops_per_s(latencies), "1/s"),
            "op_ms_p50": (1000.0 * statistics.median(latencies) if latencies else 0.0, "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, (value, unit) in values.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    result = {
        "correct": not failures and not problems,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
