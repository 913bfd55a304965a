"""Command-line front end: local reduction data, identity verification, and
batch runs over curve files.  Reports are JSON by default (stable field
order, no timestamps) with a CSV option for the order tables.

Exit codes: 0 success, 1 a requested verdict failed (verify) or a row
failed (batch), 2 parse/usage error (also a --label with no readable fixture
or a broken one, a batch --input that is not UTF-8, and a batch --out in a
directory that does not exist), 3 singular curve, 4 undecided (precision
ceiling reached somewhere).
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import click

from .curves import SingularCurveError, WeierstrassCurve, parse_ainvs
from .euler import IDENTITY_VERDICTS, local_data_for_bad_primes, verify_main_theorem
from .lmfdb import FIXTURE_DIR_ENV, OracleNotFoundError, OracleSchemaError, fetch_curve
from .localorders import P_MAX, check_p
from .padic import PrecisionExhausted, _is_prime
from .tate import tate_local

EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_UNDECIDED = 4


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=False)


def _resolve_curve(curve: str | None, label: str | None, fixtures: str | None) -> tuple[WeierstrassCurve, str | None]:
    if (curve is None) == (label is None):
        raise click.UsageError("provide exactly one of --curve or --label")
    if curve is not None:
        try:
            return parse_ainvs(curve), None
        except SingularCurveError:
            raise
        except ValueError as exc:
            raise click.UsageError(str(exc)) from exc
    try:
        record = fetch_curve(label, fixtures_dir=fixtures)
    except OracleNotFoundError as exc:
        raise click.UsageError(str(exc)) from exc
    except (OracleSchemaError, OSError) as exc:  # OSError: a fixture that cannot be read
        raise click.UsageError(f"fixture for {label}: {exc}") from exc
    return record.curve(), label


@click.group()
def main() -> None:
    """Local arithmetic of elliptic curves over Q and order-identity checks."""


@main.command("localdata")
@click.option("--curve", "curve_spec", help='five comma-separated integers "a1,a2,a3,a4,a6"')
@click.option("--label", help="curve label read from the fixture directory")
@click.option("--prime", "prime", type=int, help="single prime to analyze")
@click.option("--all-bad", "all_bad", is_flag=True, help="every prime of bad reduction")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--fixtures", envvar=FIXTURE_DIR_ENV, default=None, help="fixture directory")
def cmd_localdata(curve_spec, label, prime, all_bad, fmt, fixtures) -> None:
    """Per-prime reduction data (Kodaira type, f, c, component groups)."""
    if (prime is not None) == all_bad:
        raise click.UsageError("provide exactly one of --prime or --all-bad")
    try:
        curve, _ = _resolve_curve(curve_spec, label, fixtures)
        if prime is not None:
            try:  # exact test only: --prime takes no value it cannot prove prime
                if not _is_prime(prime):
                    raise ValueError(f"{prime} is not prime")
            except ValueError as exc:
                click.echo(f"error: --prime: {exc}", err=True)
                sys.exit(EXIT_USAGE)
            rows = [tate_local(curve, prime).serialize()]
        else:
            rows = [data.serialize() for _, data in sorted(local_data_for_bad_primes(curve).items())]
    except SingularCurveError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_SINGULAR)
    if fmt == "json":
        click.echo(_dump_json(rows))
    else:
        click.echo(_csv(("prime", "kodaira", "vdelta", "f", "c", "phi_geom", "phi_arith", "split", "m"), rows), nl=False)


def _cell(value):
    """A report value as a CSV cell: a component group as its invariant
    factors joined by "x" ("1" when trivial), a flag in lower case; the
    writer prints None as an empty cell."""
    if isinstance(value, list):
        return "x".join(map(str, value)) or "1"
    return str(value).lower() if isinstance(value, bool) else value


def _csv(columns: tuple[str, ...], rows: list[dict]) -> str:
    """The header ``columns``, then each row's values under them."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[name]) for name in columns] for row in rows)
    return buf.getvalue()


def _checked_p(ctx, param, p: int) -> int:
    try:
        check_p(p)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    return p


_P_OPTION = click.option("-p", "p", type=int, required=True, callback=_checked_p, help=f"an odd prime <= {P_MAX}")

_CHECK_VERDICTS = {
    "euler": ("euler_characteristic_is_one",),
    "main-theorem": ("main_identity", "square_chain_identity"),
    "all": IDENTITY_VERDICTS,
}


@main.command("verify")
@click.option("--curve", "curve_spec", help='five comma-separated integers "a1,a2,a3,a4,a6"')
@click.option("--label", help="curve label read from the fixture directory")
@_P_OPTION
@click.option("--check", "check", type=click.Choice(sorted(_CHECK_VERDICTS)), default="all")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json")
@click.option("--fixtures", envvar=FIXTURE_DIR_ENV, default=None, help="fixture directory")
def cmd_verify(curve_spec, label, p, check, fmt, fixtures) -> None:
    """Verify the Euler-characteristic and product identities for one curve."""
    try:
        curve, lbl = _resolve_curve(curve_spec, label, fixtures)
        ledger = verify_main_theorem(curve, p, label=lbl)
    except SingularCurveError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_SINGULAR)
    except PrecisionExhausted as exc:
        click.echo(f"undecided: {exc}", err=True)
        sys.exit(EXIT_UNDECIDED)
    record = ledger.to_record()
    if fmt == "json":
        click.echo(_dump_json(record))
    else:
        click.echo(_csv(("place", "torsion", "kummer", "phi_p", "relaxed", "restricted", "tt_p"), record["places"]), nl=False)
    if ledger.undecided:
        sys.exit(EXIT_UNDECIDED)
    if not all(ledger.verdicts[k] is True for k in _CHECK_VERDICTS[check]):
        sys.exit(1)


def _batch_worker(args: tuple[int, tuple[int, int, int, int, int], str | None, int]) -> dict:
    index, ainvs, label, p = args
    error_row = {"index": index, "label": label, "curve": list(ainvs)}
    try:
        ledger = verify_main_theorem(WeierstrassCurve(*ainvs), p, label=label)
    except SingularCurveError as exc:
        return {**error_row, "status": "failed-parse", "error": str(exc)}
    except PrecisionExhausted as exc:
        return {**error_row, "status": "undecided", "error": str(exc)}
    return {**ledger.to_record(), "index": index, "status": ledger.status}


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@main.command("batch")
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help='CSV lines "a1,a2,a3,a4,a6[,label]"')
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@_P_OPTION
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="parallel workers (across curves); no more than one per curve or per usable CPU start")
def cmd_batch(input_path, out_path, p, jobs) -> None:
    """Run the verification over a curve file and write a JSON report."""
    out_dir = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(out_dir):  # checked before any row runs, not after all of them
        click.echo(f"error: --out: directory {out_dir} does not exist", err=True)
        sys.exit(EXIT_USAGE)
    rows: list[dict | None] = []  # in input order; None while the row's worker runs
    tasks: list[tuple[int, tuple[int, int, int, int, int], str | None, int]] = []
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet exports start with
        with open(input_path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise click.BadParameter(f"not UTF-8 text ({exc.reason})", param_hint="'--input'") from exc
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [s.strip() for s in line.split(",")]
        label = None
        if len(parts) == 6:
            label = parts[5] or None
            parts = parts[:5]
        error_row = {"index": len(rows), "label": label, "line": line, "status": "failed-parse"}
        if len(parts) != 5:
            rows.append({**error_row, "error": "expected 5 integers"})
            continue
        try:
            ainvs = tuple(int(s) for s in parts)
        except ValueError:
            rows.append({**error_row, "error": "non-integer coefficient"})
            continue
        tasks.append((len(rows), ainvs, label, p))
        rows.append(None)

    # a forked pool starts all its workers at once, so more than one per
    # row or per usable CPU would only cost process starts
    workers = min(jobs, len(tasks), _usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_batch_worker, tasks))
    else:
        records = map(_batch_worker, tasks)
    for record in records:
        rows[record["index"]] = record

    counts = {"passed": 0, "failed": 0, "undecided": 0}
    for row in rows:  # "failed-parse" counts as failed
        counts["failed" if row["status"].startswith("failed") else row["status"]] += 1
    report = {"p": p, "summary": counts, "rows": rows}
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(_dump_json(report) + "\n")
    click.echo(f"{counts['passed']} passed, {counts['failed']} failed, {counts['undecided']} undecided")
    if counts["failed"]:
        sys.exit(1)
    if counts["undecided"]:
        sys.exit(EXIT_UNDECIDED)


if __name__ == "__main__":
    main()
