"""Smoke test for the benchmark itself.

A tiny run of each workload, untraced and traced, must print every metric
that BENCHMARK.json names with its unit, and must pass its output checks.
A traced run must leave no wrapper installed, so that an untraced run never
measures one.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--seed", "7", "--seconds", "0.1", "--curves", "3"]


def check_run(workload: str, trace: int, spec: dict) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--trace", str(trace), *TINY]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{workload} trace={trace}: metric names/units differ: {set(got) ^ set(want)}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, (name, m)
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool), (name, m)


def check_wrappers_restored() -> None:
    import run as bench
    from spans import Tracer, leftover_wrappers, tracing

    assert not leftover_wrappers(), leftover_wrappers()
    with tracing(Tracer()):
        assert leftover_wrappers(), "an installed wrapper must be visible to the check"
    try:
        with tracing(Tracer()):
            raise KeyError("raised inside a traced block")
    except KeyError:
        pass
    assert not leftover_wrappers(), leftover_wrappers()
    bench.OUT.mkdir(exist_ok=True)
    for workload in bench.WORKLOAD_NAMES:
        args = bench.parse_args(["--workload", workload, "--trace", "1", *TINY])
        with tempfile.TemporaryDirectory(dir=bench.OUT) as workdir:
            bench.traced_run(args, Path(workdir))
        assert not leftover_wrappers(), (workload, leftover_wrappers())


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from run import WORKLOAD_NAMES

    listed = {w["name"] for w in spec["workloads"]}
    assert listed <= set(WORKLOAD_NAMES), listed - set(WORKLOAD_NAMES)
    # every workload, also the ones BENCHMARK.json leaves to runs by hand
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            check_run(workload, trace, spec)
            print(f"ok  {workload} trace={trace}")
    check_wrappers_restored()
    print("ok  no wrapper left installed after traced runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
