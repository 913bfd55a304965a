"""End-to-end CLI behaviour: output shapes, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from tamagawa.cli import main

ELEVEN_A1 = "0,-1,1,-10,-20"


@pytest.fixture()
def runner():
    return CliRunner()


def test_localdata_all_bad(runner):
    result = runner.invoke(main, ["localdata", "--curve", ELEVEN_A1, "--all-bad"])
    assert result.exit_code == 0, result.output
    rows = json.loads(result.output)
    assert rows == [{
        "prime": 11, "kodaira": "In:5", "vdelta": 5, "f": 1, "c": 5,
        "phi_geom": [5], "phi_arith": [5], "split": True, "m": 5,
    }]


def test_localdata_single_prime_good(runner):
    result = runner.invoke(main, ["localdata", "--curve", "0,0,0,0,1", "--prime", "5"])
    assert result.exit_code == 0
    rows = json.loads(result.output)
    assert rows[0]["kodaira"] == "I0" and rows[0]["f"] == 0 and rows[0]["c"] == 1


def test_localdata_csv(runner):
    result = runner.invoke(main, ["localdata", "--curve", ELEVEN_A1, "--all-bad", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "prime,kodaira,vdelta,f,c,phi_geom,phi_arith,split,m"
    assert lines[1] == "11,In:5,5,1,5,5,5,true,5"


def test_localdata_singular_exits_3(runner):
    result = runner.invoke(main, ["localdata", "--curve", "0,0,0,0,0", "--all-bad"])
    assert result.exit_code == 3


def test_localdata_parse_error_exits_2(runner):
    result = runner.invoke(main, ["localdata", "--curve", "1,2,3", "--all-bad"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["localdata", "--curve", ELEVEN_A1])
    assert result.exit_code == 2  # neither --prime nor --all-bad


@pytest.mark.parametrize("command", [["verify", "-p", "5"], ["localdata", "--all-bad"]])
@pytest.mark.parametrize("source", [[], ["--curve", ELEVEN_A1, "--label", "11a1"]], ids=["neither", "both"])
def test_curve_and_label_not_exactly_one_exit_2(runner, command, source):
    result = runner.invoke(main, [*command, *source])
    assert result.exit_code == 2
    assert "provide exactly one of --curve or --label" in result.output
    assert "{" not in result.output  # no report printed


def test_localdata_prime_and_all_bad_together_exit_2(runner):
    result = runner.invoke(main, ["localdata", "--curve", "0,0,0,0,1", "--prime", "5", "--all-bad"])
    assert result.exit_code == 2
    assert "provide exactly one of --prime or --all-bad" in result.output
    assert "{" not in result.output  # no row printed


@pytest.mark.parametrize("prime", [
    "12",
    "-5",
    "318665857834031151167461",  # psi_12 = 399165290221 * 798330580441
    "3317044064679887385962123",  # a prime above psi_13, beyond the exact primality test
])
def test_localdata_bad_prime_exits_2(runner, prime):
    result = runner.invoke(main, ["localdata", "--curve", ELEVEN_A1, "--prime", prime])
    assert result.exit_code == 2
    assert result.output.startswith("error: --prime: ")
    assert len(result.output.strip().splitlines()) == 1  # one line, no traceback


def test_bad_prime_beyond_psi_13_is_worked_at_but_not_taken_as_prime_option(runner):
    """A bad prime >= psi_13 comes from the sympy fallback of the factoring
    and is worked at; --prime accepts only values the exact test proves prime."""
    curve, big = "6486,6406,1577,-3015,-1670", 3791265333299677286047919
    result = runner.invoke(main, ["localdata", "--curve", curve, "--all-bad"])
    assert result.exit_code == 0, result.output
    assert [row["prime"] for row in json.loads(result.output)] == [11, big]
    result = runner.invoke(main, ["verify", "--curve", curve, "-p", "7"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["S"] == ["real", 7, 11, big]
    result = runner.invoke(main, ["localdata", "--curve", curve, "--prime", str(big)])
    assert result.exit_code == 2 and "psi_13" in result.output


def test_localdata_label_lookup(runner, fixtures_dir):
    result = runner.invoke(main, ["localdata", "--label", "11a1", "--all-bad",
                                  "--fixtures", str(fixtures_dir)])
    assert result.exit_code == 0
    assert json.loads(result.output)[0]["c"] == 5


def _broken_fixtures(fixtures_dir):
    good = json.loads((fixtures_dir / "11a1.json").read_text())
    no_local_data = {k: v for k, v in good.items() if k != "local_data"}
    return {
        "not-json": "{ this is not json",
        "singular": json.dumps(dict(good, ainvs=[0, 0, 0, 0, 0])),
        "no-local-data": json.dumps(no_local_data),
    }


@pytest.mark.parametrize("broken", ["not-json", "singular", "no-local-data"])
@pytest.mark.parametrize("command", [["verify", "-p", "5"], ["localdata", "--all-bad"]])
def test_malformed_fixture_exits_2(runner, fixtures_dir, tmp_path, broken, command):
    (tmp_path / "11a1.json").write_text(_broken_fixtures(fixtures_dir)[broken])
    result = runner.invoke(main, [*command, "--label", "11a1", "--fixtures", str(tmp_path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith("Error: fixture for 11a1: ")


def test_verify_all_passes(runner):
    result = runner.invoke(main, ["verify", "--curve", ELEVEN_A1, "-p", "5", "--check", "all"])
    assert result.exit_code == 0, result.output
    record = json.loads(result.output)
    assert record["mt_rhs"] == 5
    assert record["verdicts"]["main_identity"] is True


def test_verify_euler_only(runner):
    result = runner.invoke(main, ["verify", "--curve", "0,0,0,1,0", "-p", "3", "--check", "euler"])
    assert result.exit_code == 0
    assert json.loads(result.output)["chi_selmer"] == "1"


@pytest.mark.parametrize("check, status", [("euler", 0), ("main-theorem", 1), ("all", 1)])
def test_verify_exits_1_when_a_checked_verdict_fails(runner, monkeypatch, check, status):
    """A phi_p of p at each finite place of S (5 and 11) makes the right
    side of 11a1's main identity at 5 read 25, not 5, and leaves the Euler
    characteristic alone: the check decides the exit, and the report is
    printed either way."""
    import tamagawa.euler as euler_mod

    monkeypatch.setattr(euler_mod, "phi_p_part_order", lambda data, p: p)
    result = runner.invoke(main, ["verify", "--curve", ELEVEN_A1, "-p", "5", "--check", check])
    assert result.exit_code == status, result.output
    verdicts = json.loads(result.output)["verdicts"]
    assert verdicts["main_identity"] is False and verdicts["euler_characteristic_is_one"] is True


def test_verify_rejects_even_p(runner):
    result = runner.invoke(main, ["verify", "--curve", ELEVEN_A1, "-p", "2"])
    assert result.exit_code == 2


def test_verify_takes_an_odd_prime_above_7(runner):
    # split I11 at 3, so the identity's right side is 11
    result = runner.invoke(main, ["verify", "--curve", "1,0,0,0,177147", "-p", "11", "--check", "all"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["mt_rhs"] == 11


@pytest.mark.parametrize("p", ["2", "9", "37", "abc"])
def test_verify_and_batch_reject_p_outside_the_rule(runner, tmp_path, p):
    result = runner.invoke(main, ["verify", "--curve", ELEVEN_A1, "-p", p])
    assert result.exit_code == 2, result.output
    inp = tmp_path / "curves.csv"
    inp.write_text(ELEVEN_A1 + "\n")
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", p])
    assert result.exit_code == 2, result.output
    assert not out.exists()


def test_label_outside_the_fixture_directory_exits_2(runner, fixtures_dir):
    # ../fixtures/11a1 would name tests/fixtures/11a1.json, a real file
    result = runner.invoke(main, ["localdata", "--label", "../fixtures/11a1", "--fixtures", str(fixtures_dir), "--all-bad"])
    assert result.exit_code == 2, result.output
    assert "not a curve label" in result.output


@pytest.mark.parametrize("fixture, label, error", [
    ("missing", "11a1", "Error: no fixture for 11a1 in fixtures"),
    ("directory", "11a1", "Error: fixture for 11a1: "),
    ("mismatched", "14a1", "Error: fixture for 14a1: bad oracle record: "),
], ids=["missing", "directory", "mismatched"])
def test_label_without_its_fixture_exits_2_and_writes_nothing(runner, fixtures_dir, fixture, label, error):
    """--label with no fixture, a directory in its place, or a fixture of
    another curve under its name: exit 2, one error line, and the working
    directory (the default fixture directory's parent) is left as it was."""
    with runner.isolated_filesystem():
        cwd = Path.cwd()
        if fixture == "directory":
            (cwd / "fixtures" / "11a1.json").mkdir(parents=True)
        elif fixture == "mismatched":
            (cwd / "fixtures").mkdir()
            (cwd / "fixtures" / "14a1.json").write_bytes((fixtures_dir / "11a1.json").read_bytes())
        before = sorted(cwd.rglob("*"))
        result = runner.invoke(main, ["verify", "--label", label, "-p", "5"], env={"TAMAGAWA_FIXTURE_DIR": None})
        assert sorted(cwd.rglob("*")) == before
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and errors[0].startswith(error), result.output


def test_verify_csv_order_table(runner):
    result = runner.invoke(main, ["verify", "--curve", ELEVEN_A1, "-p", "5", "--format", "csv"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "place,torsion,kummer,phi_p,relaxed,restricted,tt_p"
    assert lines[1].startswith("real,5,1,1,")
    assert lines[-1] == "11,25,25,5,125,5,5"


def test_verify_undecided_exits_4(runner, monkeypatch):
    import tamagawa.euler as euler_mod
    from tamagawa.padic import PrecisionExhausted

    def boom(curve, place, p, **kwargs):
        if place.is_real:
            raise PrecisionExhausted(2048)
        raise PrecisionExhausted(2048)

    monkeypatch.setattr(euler_mod, "global_torsion_order", lambda c, p, **kwargs: 1)
    monkeypatch.setattr(euler_mod, "assemble_local_orders", boom)
    result = runner.invoke(main, ["verify", "--curve", ELEVEN_A1, "-p", "5"])
    assert result.exit_code == 4


def test_verify_exits_4_when_lift_and_split_reaches_the_cap(runner, monkeypatch):
    # a real exhaustion, not a stubbed raise: psi_3 of 14a1 needs more than
    # three levels of lift-and-split at place 2
    from tamagawa import padic

    monkeypatch.setattr(padic, "PRECISION_HARD_CAP", 3)
    result = runner.invoke(main, ["verify", "--curve", "1,0,1,4,-6", "-p", "3"])
    assert result.exit_code == 4, result.output
    assert "undecided at precision 3" in result.output


def test_verify_singular_curve_exits_3_with_one_line(runner):
    result = runner.invoke(main, ["verify", "--curve", "0,0,0,0,0", "-p", "3"])
    assert result.exit_code == 3
    assert result.output.splitlines() == ["error: singular curve: discriminant is zero"]


def test_batch_exits_4_when_a_row_is_undecided(runner, monkeypatch, tmp_path):
    # the exhaustion of the verify test above, met inside a batch worker
    from tamagawa import padic

    monkeypatch.setattr(padic, "PRECISION_HARD_CAP", 3)
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, ["1,0,1,4,-6,14a1"])
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3", "--jobs", "1"])
    assert result.exit_code == 4, result.output
    report = json.loads(out.read_text())
    assert report["summary"] == {"passed": 0, "failed": 0, "undecided": 1}
    [row] = report["rows"]
    assert row["status"] == "undecided"
    assert row["undecided"] == ["place 2: undecided at precision 3"]


def test_verify_answers_under_the_cap_where_the_deep_branch_is_proved_empty(runner, monkeypatch):
    # at place 2, psi_5 of 14a1 has a branch deeper than three levels that
    # holds no root; its constant term's valuation proves so before the
    # walk descends into it, so a cap of three levels changes nothing
    from tamagawa import padic

    args = ["verify", "--curve", "1,0,1,4,-6", "-p", "5"]
    uncapped = runner.invoke(main, args)
    monkeypatch.setattr(padic, "PRECISION_HARD_CAP", 3)
    capped = runner.invoke(main, args)
    assert capped.exit_code == uncapped.exit_code == 0, capped.output
    assert json.loads(capped.output) == json.loads(uncapped.output)


def _write_batch_input(path, rows):
    path.write_text("\n".join(rows) + "\n")


def test_batch_end_to_end(runner, tmp_path):
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, [
        "0,-1,1,-10,-20,11a1",
        "0,0,0,1,0",
        "0,0,1,0,0,27a3",
    ])
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3"])
    assert result.exit_code == 0, result.output
    assert "3 passed, 0 failed, 0 undecided" in result.output
    report = json.loads(out.read_text())
    assert report["summary"] == {"passed": 3, "failed": 0, "undecided": 0}
    assert [r["status"] for r in report["rows"]] == ["passed"] * 3
    assert report["rows"][0]["label"] == "11a1"


def test_batch_empty_file(runner, tmp_path):
    inp = tmp_path / "empty.csv"
    inp.write_text("")
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3"])
    assert result.exit_code == 0
    assert "0 passed, 0 failed, 0 undecided" in result.output


def test_batch_isolates_bad_rows(runner, tmp_path):
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, [
        "0,0,0,0,0,singular",
        "0,-1,1,-10,-20,11a1",
        "not,a,curve,at,all",
    ])
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "5"])
    assert result.exit_code == 1
    report = json.loads(out.read_text())
    statuses = [r["status"] for r in report["rows"]]
    assert statuses == ["failed-parse", "passed", "failed-parse"]


def test_batch_input_not_utf8_exits_2(runner, tmp_path):
    inp = tmp_path / "curves.csv"
    inp.write_bytes(b"0,-1,1,-10,-20,11a1\n\xff\xfe0,0,0,0,1\n")
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert errors == ["Error: Invalid value for '--input': not UTF-8 text (invalid start byte)"]
    assert not out.exists()


def test_batch_input_with_a_byte_order_mark(runner, tmp_path):
    """A spreadsheet export starts with a UTF-8 byte-order mark; the first
    row still parses, and the report is the one of the same file without it."""
    body = b"0,-1,1,-10,-20,11a1\n0,0,0,0,1\n"
    reports = []
    for name, data in (("bom.csv", b"\xef\xbb\xbf" + body), ("plain.csv", body)):
        inp, out = tmp_path / name, tmp_path / f"{name}.json"
        inp.write_bytes(data)
        result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3"])
        assert result.exit_code == 0, result.output
        assert "2 passed, 0 failed, 0 undecided" in result.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_batch_empty_label_column_is_no_label(runner, tmp_path):
    """A spreadsheet writes an empty label column as a trailing comma; that
    row has no label, as the row without the comma has none, and the two
    reports are the same bytes."""
    reports = []
    for name, row in (("comma.csv", "0,-1,1,-10,-20,"), ("plain.csv", "0,-1,1,-10,-20")):
        inp, out = tmp_path / name, tmp_path / f"{name}.json"
        _write_batch_input(inp, [row, "0,0,0,0,1, "])
        result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3"])
        assert result.exit_code == 0, result.output
        assert [r["label"] for r in json.loads(out.read_text())["rows"]] == [None, None]
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_batch_out_in_a_missing_directory_exits_2_before_any_row(runner, tmp_path, monkeypatch):
    import tamagawa.cli as cli

    def no_row(task):
        raise AssertionError("a row ran although --out cannot be written")

    monkeypatch.setattr(cli, "_batch_worker", no_row)
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, ["0,-1,1,-10,-20,11a1", "0,0,0,0,1,36a1"])
    missing = tmp_path / "missing"
    for jobs in ("1", "2"):
        result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(missing / "report.json"),
                                      "-p", "3", "--jobs", jobs])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)  # no traceback
        assert result.output.splitlines() == [f"error: --out: directory {missing} does not exist"]
        assert not missing.exists()


def test_batch_deterministic_bytes(runner, tmp_path):
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, ["0,-1,1,-10,-20,11a1", "0,0,0,0,1,36a1"])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    r1 = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out1), "-p", "3"])
    r2 = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out2), "-p", "3"])
    assert r1.exit_code == r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_batch_jobs_parallel_same_bytes(runner, tmp_path):
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, ["0,-1,1,-10,-20,11a1", "0,0,0,0,1,36a1", "0,0,1,0,0,27a3"])
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    r1 = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out1), "-p", "3", "--jobs", "1"])
    r2 = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out2), "-p", "3", "--jobs", "2"])
    assert r1.exit_code == r2.exit_code == 0, r2.output
    assert out1.read_bytes() == out2.read_bytes()


def test_batch_rows_keep_input_order_with_failed_rows_between(runner, tmp_path):
    """Comment and blank lines take no index; rows that fail to parse, a
    singular curve and good curves keep their input order under one job and
    under a pool, and both write the same bytes."""
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, [
        "# a1,a2,a3,a4,a6,label",
        "0,-1,1,-10,-20,11a1",
        "0,0,0,1",
        "",
        "0,0,0,0,0,singular",
        "1,x,0,0,0",
        "0,0,1,0,0,27a3",
    ])
    reports = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3", "--jobs", jobs])
        assert result.exit_code == 1, result.output
        assert "2 passed, 3 failed, 0 undecided" in result.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    rows = json.loads(reports[0])["rows"]
    assert [r["index"] for r in rows] == [0, 1, 2, 3, 4]
    assert [r["status"] for r in rows] == ["passed", "failed-parse", "failed-parse", "failed-parse", "passed"]
    assert [r["label"] for r in rows] == ["11a1", None, "singular", None, "27a3"]
    assert [r.get("error") for r in rows[1:4]] == [
        "expected 5 integers", "singular curve: discriminant is zero", "non-integer coefficient"]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no
    process and maps in this one."""

    started: list[int] = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize(
    "rows, jobs, cpus, started",
    [(2, 500, 64, [2]), (3, 2, 64, [2]), (3, 8, 3, [3]), (3, 8, 1, []), (1, 4, 64, [])],
)
def test_batch_starts_at_most_one_worker_per_row_and_cpu(runner, tmp_path, monkeypatch, rows, jobs, cpus, started):
    import tamagawa.cli as cli

    monkeypatch.setattr(_RecordingPool, "started", [])
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, ["0,-1,1,-10,-20,11a1", "0,0,0,0,1,36a1", "0,0,1,0,0,27a3"][:rows])
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3", "--jobs", str(jobs)])
    assert result.exit_code == 0, result.output
    assert _RecordingPool.started == started
    assert json.loads(out.read_text())["summary"]["passed"] == rows


@pytest.mark.parametrize("jobs", ["0", "-1", "-500"])
def test_batch_jobs_below_one_exits_2(runner, tmp_path, jobs):
    inp = tmp_path / "curves.csv"
    _write_batch_input(inp, ["0,-1,1,-10,-20,11a1"])
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(inp), "--out", str(out), "-p", "3", "--jobs", jobs])
    assert result.exit_code == 2
    assert not out.exists()


def test_usable_cpus_is_the_affinity_mask():
    from tamagawa.cli import _usable_cpus

    expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert _usable_cpus() == expected >= 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_batch_report_bytes_pinned(runner, corpus, fixtures_dir, tmp_path, p):
    """The corpus report is byte-for-byte what the committed digests record."""
    digests = json.loads((fixtures_dir / "report_digests.json").read_text())["batch"]
    curves = tmp_path / "corpus.csv"
    curves.write_text("".join(",".join(map(str, rec.ainvs)) + f",{rec.label}\n" for rec in corpus))
    out = tmp_path / "report.json"
    result = runner.invoke(main, ["batch", "--input", str(curves), "--out", str(out), "-p", str(p)])
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[str(p)]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_localdata_report_bytes_pinned(runner, corpus, fixtures_dir, fmt):
    """localdata --all-bad over the corpus, one output after another in
    corpus order, is byte-for-byte what the committed digests record."""
    digests = json.loads((fixtures_dir / "report_digests.json").read_text())["localdata"]
    out = hashlib.sha256()
    for rec in corpus:
        curve = ",".join(map(str, rec.ainvs))
        result = runner.invoke(main, ["localdata", "--curve", curve, "--all-bad", "--format", fmt])
        assert result.exit_code == 0, (rec.label, result.output)
        out.update(result.output.encode())
    assert out.hexdigest() == digests[fmt]


_IMPORT_GUARD = """
import json, sys
from concurrent.futures import ProcessPoolExecutor
from tamagawa.cli import _batch_worker, main

def run(args):
    try:
        main(args, standalone_mode=False)
    except SystemExit as exc:
        assert not exc.code, exc.code

def loaded(tasks):
    for task in tasks:
        _batch_worker(task)
    return sorted(m for m in ("sympy", "urllib.request") if m in sys.modules)

curves, out = sys.argv[1], sys.argv[2]
run(["verify", "--curve", "0,-1,1,-10,-20", "-p", "7"])
run(["batch", "--input", curves, "--out", out, "-p", "5", "--jobs", "2"])
with ProcessPoolExecutor(max_workers=1) as pool:
    worker = pool.submit(loaded, [(0, (0, 0, 1, -7, 6), None, 7), (1, (1, 0, 1, 4, -6), None, 3)]).result()
print(json.dumps({"main": loaded([]), "worker": worker}))
"""


def test_cli_runs_without_sympy_or_urllib(tmp_path):
    """verify and a two-row parallel batch import neither sympy nor urllib.request."""
    curves = tmp_path / "curves.csv"
    _write_batch_input(curves, ["0,-1,1,-10,-20,11a1", "0,0,1,-1,0,37a1"])
    script = tmp_path / "guard.py"
    script.write_text(_IMPORT_GUARD)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script), str(curves), str(tmp_path / "report.json")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"main": [], "worker": []}
    assert json.loads((tmp_path / "report.json").read_text())["summary"]["passed"] == 2
