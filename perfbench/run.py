"""Pipeline benchmark: one workload per run, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The line
before it records the environment and input sizes.  The exit code is 1 when
any output is wrong and 2 when the checkout lacks the program or fixtures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("verify-corpus", "tate-models", "good-places", "batch-cli")
SETUP_PROBES = 5
RUN_TIMEOUT_S = 175

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--curves", type=int, default=None, help="use only the first N fixture curves (smoke runs)")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args):
    from workloads import WORKLOADS, load_corpus

    return WORKLOADS[args.workload](load_corpus(ROOT, args.curves), args.seed)


def measure_setup(args) -> list[float]:
    """Fresh interpreter to ready, several times: import, fixtures, inputs,
    and the sympy import the first fixture load triggers."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.curves is not None:
        cmd += ["--curves", str(args.curves)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"setup probe failed: {line!r}")
    return times


class Passes:
    """Whole passes over the workload's items, each item timed on its own."""

    def __init__(self) -> None:
        self.latency_ns: list[int] = []
        self.outputs: list[tuple] = []
        self.walls_ns: list[int] = []
        self.peak_rss_kb = 0

    @property
    def wall_s(self) -> float:
        return sum(self.walls_ns) / 1e9


def run_passes(wl, seconds: float, passes: int | None = None, tracer=None) -> Passes:
    """Repeat whole passes while another one fits in ``seconds`` (at least
    one), or exactly ``passes`` of them.  Whole passes keep the item mix, and
    so the throughput, the same whatever the seed's order."""
    res = Passes()
    while True:
        t0 = time.perf_counter_ns()
        for item in wl.items:
            s = time.perf_counter_ns()
            try:
                if tracer is None:
                    out = wl.run_item(item)
                else:
                    with tracer.span("item"):
                        out = wl.run_item(item)
            except Exception as exc:  # a failed item is counted, the loop goes on
                traceback.print_exc()
                out = exc
            res.latency_ns.append(time.perf_counter_ns() - s)
            res.outputs.append((item, out))
        res.walls_ns.append(time.perf_counter_ns() - t0)
        done = len(res.walls_ns)
        if done == 1:
            # later passes only add retained outputs, which depend on the pass count
            res.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if passes is not None:
            if done >= passes:
                return res
        elif sum(res.walls_ns) * (done + 1) / done > seconds * 1e9:
            return res


def count_failures(wl, res: Passes) -> int:
    return sum(
        wl.rows_per_item
        for item, out in res.outputs
        if isinstance(out, Exception) or not wl.correct(item, out)
    )


def percentile_ms(latency_ns: list[int], q: int) -> float:
    return statistics.quantiles(latency_ns, n=100, method="inclusive")[q - 1] / 1e6


def environment(args, wl, res: Passes) -> dict:
    import sympy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except OSError:
            sha = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": dict(wl.sizes, passes=len(res.walls_ns), latency_samples=len(res.latency_ns)),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def untraced_run(args, workdir: Path):
    from workloads import BatchCli

    setup_times = measure_setup(args)
    wl = setup(args)
    if isinstance(wl, BatchCli):
        wl.prepare(workdir)
    res = run_passes(wl, args.seconds)
    peak_kb = wl.peak_rss_kb if isinstance(wl, BatchCli) else res.peak_rss_kb
    failed = count_failures(wl, res)
    attempted = len(res.outputs) * wl.rows_per_item
    values = {
        "setup_s": statistics.median(setup_times),
        # median over passes, so one pass slowed by a noisy neighbour weighs less
        "items_per_s": statistics.median(len(wl.items) * wl.rows_per_item * 1e9 / ns for ns in res.walls_ns),
        "latency_p50_ms": percentile_ms(res.latency_ns, 50),
        "latency_p90_ms": percentile_ms(res.latency_ns, 90),
        "ok_share": (attempted - failed) / attempted,
        "peak_rss_mb": peak_kb / 1024,
    }
    info = environment(args, wl, res)
    info["setup_samples_s"] = setup_times
    return attempted, failed, {name: (values[name], unit) for name, unit in END_TO_END}, info


def traced_run(args, workdir: Path):
    from spans import LAYER_METRICS, Tracer, leftover_wrappers, tracing
    from workloads import BatchCli

    setup_tracer = Tracer()
    with tracing(setup_tracer):
        wl = setup(args)
    batch = isinstance(wl, BatchCli)
    if batch:
        wl.prepare(workdir)
    res = run_passes(wl, args.seconds)
    tracer = Tracer()
    if batch:
        # The pool workers are out of reach of in-process wrappers: trace the
        # same rows in process instead, after an untraced serial pass.
        t0 = time.perf_counter_ns()
        for p in wl.items:
            wl.expect(p, wl.serial_rows(p))
        serial_ns = time.perf_counter_ns() - t0
        with tracing(tracer):
            t0 = time.perf_counter_ns()
            for p in wl.items:
                with tracer.span("item"):
                    wl.serial_rows(p)
            traced_ns = time.perf_counter_ns() - t0
    else:
        with tracing(tracer):
            traced = run_passes(wl, args.seconds, passes=len(res.walls_ns), tracer=tracer)
        serial_ns, traced_ns = sum(res.walls_ns), sum(traced.walls_ns)
    left = leftover_wrappers()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")

    values = tracer.layer_metrics()
    setup_layers = setup_tracer.layer_metrics()
    for key in ("calls", "total_s", "self_s"):
        values[f"lmfdb.fetch_curve.{key}"] = setup_layers[f"lmfdb.fetch_curve.{key}"]
    values["trace.overhead_ratio"] = traced_ns / serial_ns
    per_pass_s = res.wall_s / len(res.walls_ns)
    values["cli.batch.parallel_efficiency"] = serial_ns / 1e9 / (wl.jobs * per_pass_s) if batch else 0.0
    values["cli.batch.report_bytes"] = wl.report_bytes / len(res.walls_ns) if batch else 0

    failed = count_failures(wl, res)
    if not batch:
        failed += count_failures(wl, traced)
    attempted = len(res.outputs) * wl.rows_per_item * (1 if batch else 2)
    info = environment(args, wl, res)
    info["trace_wall_s"] = values["trace.wall_s"]
    info["trace_unattributed_s"] = values["trace.unattributed_s"]
    stem = OUT / f"trace-{args.workload}-seed{args.seed}"
    setup_tracer.write(f"{stem}-setup.jsonl")
    tracer.write(f"{stem}-passes.jsonl")
    return attempted, failed, {name: (values[name], unit) for name, unit in LAYER_METRICS}, info


def run_all(args) -> int:
    """Every workload, each in its own process; a table of the metrics."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.curves is not None:
            cmd += ["--curves", str(args.curves)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if result is None:
            print(f"{name}: exit {proc.returncode}, no result")
            ok = False
            continue
        ok = ok and result["correct"] and proc.returncode == 0
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:45s} {m['value']:14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tamagawa" / "__init__.py").is_file() or not (
        ROOT / "tests" / "fixtures" / "corpus.json"
    ).is_file():
        print(f"perfbench: {ROOT} holds no src/tamagawa or tests/fixtures; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup(args)
        print("ready", flush=True)
        return 0
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        attempted, failed, metrics, info = (traced_run if args.trace else untraced_run)(args, Path(workdir))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=2) + "\n"
    )
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
