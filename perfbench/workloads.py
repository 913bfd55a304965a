"""The four benchmark workloads: seeded inputs, the timed call per item, and
an oracle for every output.

Each workload is a closed loop with one client: the next item starts when
the previous one finishes.  The seed decides the inputs; the program sees
only the generated curves.  Oracles run outside the timed region.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# The timed calls go through module attributes, so the trace's wrappers
# (installed on those attributes) see them.
from tamagawa import euler, lmfdb, localorders
from tamagawa.curves import FiniteFieldCurve, WeierstrassCurve, count_p_torsion_mod, transform

PRIMES_P = (3, 5, 7)
# _residue_roots switches from brute force to the Frobenius gcd above this.
RESIDUE_SWITCH = 3000
CLI_TIMEOUT_S = 150


def load_corpus(root: Path, curves: int | None):
    """The committed fixture records, in corpus order."""
    fixtures = root / "tests" / "fixtures"
    labels = json.loads((fixtures / "corpus.json").read_text())["labels"]
    if curves is not None:
        labels = labels[:curves]
    return [lmfdb.fetch_curve(label, fixtures_dir=fixtures) for label in labels]


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(n) if sieve[i]]


def _rows_match(data, row) -> bool:
    return (
        data.kodaira.serialize() == row.kodaira
        and data.f == row.f
        and data.c == row.c
        and (row.split is None or data.split == row.split)
    )


def _local_data_matches(local_data: dict, rec) -> bool:
    """Tate data at exactly the conductor primes, agreeing with the fixture."""
    rows = {row.prime: row for row in rec.local_data}
    return set(local_data) == set(rows) and all(_rows_match(local_data[q], rows[q]) for q in rows)


class VerifyCorpus:
    """verify_main_theorem over every fixture curve x p in {3, 5, 7}: the
    paper's headline computation.  Root certification at bad primes does most
    of the work, so a squarefree or root-count change shows here."""

    name = "verify-corpus"
    rows_per_item = 1

    def __init__(self, corpus, seed: int) -> None:
        self.records = {rec.label: rec for rec in corpus}
        self.items = [(rec.label, rec.curve(), p) for rec in corpus for p in PRIMES_P]
        random.Random(seed).shuffle(self.items)
        self.sizes = {"curves": len(corpus), "items": len(self.items)}

    def run_item(self, item):
        label, curve, p = item
        return euler.verify_main_theorem(curve, p, label=label)

    def correct(self, item, ledger) -> bool:
        label, _, p = item
        rec = self.records[label]
        bad = {q: d for q, d in ledger.local_data.items() if d.vdelta > 0}
        torsion = p if any(d % p == 0 for d in rec.torsion_structure) else 1
        rhs = 1
        for row in rec.local_data:
            rhs *= p if row.c % p == 0 else 1
        return (
            ledger.passed
            and _local_data_matches(bad, rec)
            and ledger.global_torsion == torsion
            and ledger.mt_rhs == rhs
        )


class TateModels:
    """local_data_for_bad_primes on each fixture curve under seeded integral
    coordinate changes.  Non-minimal models force Tate's rescale restarts
    and large coefficients; no root counting runs."""

    name = "tate-models"
    rows_per_item = 1
    MODELS_PER_CURVE = 8
    INVERSE_U = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)

    def __init__(self, corpus, seed: int) -> None:
        rng = random.Random(seed)
        self.records = {rec.label: rec for rec in corpus}
        self.items = []
        for rec in corpus:
            curve = rec.curve()
            for _ in range(self.MODELS_PER_CURVE):
                k = rng.choice(self.INVERSE_U)
                r, s, t = (rng.randint(-3, 3) for _ in range(3))
                model = transform(curve, (Fraction(1, k), r, s, t))
                self.items.append((rec.label, WeierstrassCurve(*model.integer_ainvs())))
        rng.shuffle(self.items)
        self.sizes = {"curves": len(corpus), "items": len(self.items)}

    def run_item(self, item):
        return euler.local_data_for_bad_primes(item[1])

    def correct(self, item, local_data) -> bool:
        return _local_data_matches(local_data, self.records[item[0]])


class GoodPlaces:
    """local_torsion_order at seeded good primes, half below and half above
    the residue-root switch.  Each (curve, p) reuses one psi_p across its
    primes, so a cache or residue-root change shows here first."""

    name = "good-places"
    rows_per_item = 1
    PRIMES_PER_SIDE = 2

    def __init__(self, corpus, seed: int) -> None:
        rng = random.Random(seed)
        primes = _primes_below(2 * RESIDUE_SWITCH)
        low = [q for q in primes if 5 <= q < RESIDUE_SWITCH]
        high = [q for q in primes if q > RESIDUE_SWITCH]
        groups = []
        for rec in corpus:
            curve = rec.curve()
            disc = abs(curve.discriminant.numerator)
            for p in PRIMES_P:
                # l != p: only then is E(Q_l)[p] the p-torsion of the reduction
                ells: list[int] = []
                for pool in (low, high):
                    ells += [q for q in rng.sample(pool, len(pool)) if q != p and disc % q][: self.PRIMES_PER_SIDE]
                groups.append([(rec.label, curve, p, ell) for ell in ells])
        rng.shuffle(groups)
        self.items = [item for group in groups for item in group]
        self._expected: dict[tuple[str, int, int], int] = {}
        self.sizes = {"curves": len(corpus), "items": len(self.items)}

    def run_item(self, item):
        _, curve, p, ell = item
        return localorders.local_torsion_order(curve, localorders.Place.finite(ell), p)

    def correct(self, item, count) -> bool:
        label, curve, p, ell = item
        key = (label, p, ell)
        if key not in self._expected:
            self._expected[key] = self._reduction_torsion(curve, ell, p)
        return count == self._expected[key]

    @staticmethod
    def _reduction_torsion(curve, ell: int, p: int) -> int:
        """#E~(F_l)[p] from point counting.  With E~(F_l) = Z/n1 x Z/n2,
        n1 | n2 and n1 | l - 1, the p-part is p^(number of n_i divisible by
        p), so only p^2 | n with p | l - 1 needs the full scan."""
        n = FiniteFieldCurve(curve, ell).order()
        if n % p:
            return 1
        if n % (p * p) or (ell - 1) % p:
            return p
        return count_p_torsion_mod(curve, ell, p)


class BatchCli:
    """`python -m tamagawa.cli batch --jobs $(nproc)` over a generated CSV,
    one invocation per p: process start, the process-pool fan-out, the
    slowest-row tail and report writing."""

    name = "batch-cli"

    def __init__(self, corpus, seed: int) -> None:
        rows = list(corpus)
        random.Random(seed).shuffle(rows)
        self.rows = rows
        self.csv = "".join(",".join(str(a) for a in rec.ainvs) + f",{rec.label}\n" for rec in rows)
        self.items = list(PRIMES_P)
        self.rows_per_item = len(rows)
        self.jobs = len(os.sched_getaffinity(0))
        self.sizes = {"curves": len(rows), "items": len(self.items), "rows_per_item": len(rows), "jobs": self.jobs}
        self.workdir: Path | None = None
        self.peak_rss_kb = 0
        self.report_bytes = 0
        self._expected: dict[int, bytes] = {}

    def prepare(self, workdir: Path) -> None:
        self.workdir = workdir
        (workdir / "curves.csv").write_text(self.csv)

    def run_item(self, p: int) -> bytes:
        out = self.workdir / f"report-{p}.json"
        out.unlink(missing_ok=True)
        cmd = [sys.executable, "-m", "tamagawa.cli", "batch", "--input", str(self.workdir / "curves.csv"),
               "--out", str(out), "-p", str(p), "--jobs", str(self.jobs)]
        env = dict(os.environ, PYTHONPATH=str(Path(euler.__file__).parents[1]))
        with open(self.workdir / f"cli-{p}.log", "wb") as log:
            proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, start_new_session=True)
            status, rusage = _wait_with_rusage(proc, CLI_TIMEOUT_S)
        self.peak_rss_kb = max(self.peak_rss_kb, rusage.ru_maxrss)
        if status != 0:
            log_tail = (self.workdir / f"cli-{p}.log").read_text(errors="replace")[-2000:]
            raise RuntimeError(f"batch -p {p} exited {status}:\n{log_tail}")
        data = out.read_bytes()
        self.report_bytes += len(data)
        return data

    def serial_rows(self, p: int) -> list[dict]:
        """The same rows in process, one after another (also the oracle)."""
        out = []
        for index, rec in enumerate(self.rows):
            ledger = euler.verify_main_theorem(WeierstrassCurve(*rec.ainvs), p, label=rec.label)
            record = ledger.to_record()
            record["index"] = index
            record["status"] = "passed" if ledger.passed else "failed"
            out.append(record)
        return out

    def expect(self, p: int, rows: list[dict]) -> None:
        # every row must pass, so a failed ledger makes the report differ
        summary = {"passed": len(rows), "failed": 0, "undecided": 0}
        doc = {"p": p, "summary": summary, "rows": rows}
        self._expected[p] = (json.dumps(doc, indent=2) + "\n").encode("utf-8")

    def correct(self, p: int, data: bytes) -> bool:
        if p not in self._expected:
            self.expect(p, self.serial_rows(p))
        return data == self._expected[p]


def _wait_with_rusage(proc: subprocess.Popen, timeout: float):
    """Reap the child with its resource usage (peak RSS of it and the pool
    workers it waited for); kill its whole process group on timeout."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, rusage
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise TimeoutError(f"{proc.args[:5]} ran past {timeout} s")
        time.sleep(0.002)


WORKLOADS = {w.name: w for w in (VerifyCorpus, TateModels, GoodPlaces, BatchCli)}
