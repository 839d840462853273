"""The benchmark's own test: its report checks accept the program's reports
and reject corrupted copies of them.

    python3 -m pytest -q perfbench/test_checks.py

Inputs are generated at reduced sizes so the test takes a few seconds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
from pscore.cli import main  # noqa: E402

SMALL_RECORDS = {"ingest": (20, 4, 300, 3000), "solve": (200, 8, 100, 2000)}
SMALL_AUTHORS = (100, 10, 2000, 5000)


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def report(request, tmp_path_factory, monkeypatch_module):
    monkeypatch_module.setattr(gen, "RECORD_SIZES", SMALL_RECORDS)
    monkeypatch_module.setattr(gen, "AUTHOR_SIZES", SMALL_AUTHORS)
    workdir = tmp_path_factory.mktemp(request.param)
    argv, _, check = bench.prepare(request.param, 7, workdir)
    out = workdir / "report.tsv"
    assert main([*argv, "-o", str(out)]) == 0
    return out.read_text(encoding="utf-8"), check


@pytest.fixture(scope="module")
def monkeypatch_module():
    with pytest.MonkeyPatch.context() as mp:
        yield mp


def _split(text: str):
    lines = text.splitlines(keepends=True)
    start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[:start], [line.rstrip("\n").split("\t") for line in lines[start:]]


def _join(head, rows) -> str:
    return "".join(head) + "".join("\t".join(r) + "\n" for r in rows)


def _value_column(rows) -> int:
    return 1 if len(rows[0]) == 3 and not rows[0][0].isdigit() else 2


def test_worked_example():
    oracle.check_worked_example(HERE.parent)


def test_traced_metrics_match_manifest():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    printed = [*spans.METRICS, "trace.overhead_s"]
    assert sorted(printed) == sorted(declared)
    assert all(bench.unit_of(name) == declared[name] for name in printed)


def test_program_report_passes(report):
    text, check = report
    check(text)


def test_last_digit_altered(report):
    text, check = report
    head, rows = _split(text)
    col = _value_column(rows)
    values = [float(r[col]) for r in rows]
    # a row whose neighbours are far enough away that a changed last digit
    # keeps the order, so only the comparison with the oracle can catch it
    k = next(i for i in range(1, len(rows) - 1) if "e" not in rows[i][col]
             and abs(values[i - 1] - values[i]) > 2e-6 and abs(values[i] - values[i + 1]) > 2e-6)
    cell = rows[k][col]
    rows[k][col] = cell[:-1] + ("8" if cell[-1] == "9" else str(int(cell[-1]) + 1))
    with pytest.raises(oracle.CheckError, match="oracle"):
        check(_join(head, rows))


def test_rows_swapped(report):
    text, check = report
    head, rows = _split(text)
    col = _value_column(rows)
    k = next(i for i in range(len(rows) - 1) if rows[i][col] != rows[i + 1][col])
    rows[k], rows[k + 1] = rows[k + 1], rows[k]
    with pytest.raises(oracle.CheckError):
        check(_join(head, rows))


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
