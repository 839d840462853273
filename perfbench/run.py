"""Benchmark of the pscore CLI on seeded synthetic inputs.

    python3 perfbench/run.py --workload ingest|solve|authors --seed N --seconds S --trace 0|1

Run from a checkout of the repository. One operation is one CLI invocation
(``python -m pscore.cli`` with ``src`` on ``PYTHONPATH``); it fails on a
non-zero exit or a report that fails the oracle checks. Each round spawns
one interpreter that only imports ``pscore.cli`` (the set-up sample) and
one CLI run, until ``--seconds`` have passed; timings are medians over the
rounds. With ``--trace 1`` each round also calls ``pscore.cli.main``
in-process with spans around the layer functions, and the per-layer
metrics replace the end-to-end ones. The last line of standard output is
the JSON result; the spans of a traced run go to
``.perfbench_work/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracle
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("ingest", "solve", "authors")


def prepare(workload: str, seed: int, workdir: Path):
    """Write the inputs; return (CLI argv, main input lines, report check)."""
    if workload == "authors":
        inputs = gen.make_authors(seed, workdir)
        argv = ["authors", "--venue-scores", str(inputs.venue_scores),
                "--author-pubs", str(inputs.author_pubs)]
        expected = oracle.expected_authors(inputs)
        return argv, inputs.lines, lambda text: oracle.check_ranking(text, expected)
    inputs = gen.make_records(workload, seed, workdir)
    dataset = ["--input", str(inputs.records), "--groups-file", str(inputs.groups_file)]
    if workload == "ingest":
        rows = oracle.expected_venues(inputs.tally)
        return ["venues", *dataset], inputs.lines, lambda text: oracle.check_venues(text, rows)
    expected = oracle.expected_groups(inputs.tally)
    return ["groups", *dataset], inputs.lines, lambda text: oracle.check_ranking(text, expected)


class Launcher:
    """Front end of launch.py, which spawns and times every child."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launch.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def spawn(self, argv: list[str], stderr_path: Path) -> tuple[float, float, int]:
        """Run one child to exit; return (wall s, its own peak RSS MiB, exit code)."""
        request = {"argv": [sys.executable, *argv], "stderr": str(stderr_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["maxrss_kb"] / 1024.0, reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Session:
    """Counts operations and checks every report against the first one."""

    def __init__(self, check):
        self.check = check
        self.first: bytes | None = None
        self.attempted = self.failed = 0
        self.wrong = False

    def judge(self, exit_code: int, report: Path, stderr_path: Path | None) -> None:
        self.attempted += 1
        if exit_code != 0:
            self.failed += 1
            tail = stderr_path.read_text(errors="replace")[-400:] if stderr_path else ""
            print(f"operation failed with exit {exit_code}: {tail}", file=sys.stderr)
            return
        data = report.read_bytes()
        try:
            if self.first is None:
                self.check(data.decode("utf-8"))
                self.first = data
            elif data != self.first:
                raise oracle.CheckError("report differs from the first report of this run")
        except (oracle.CheckError, UnicodeDecodeError, ValueError) as exc:
            self.failed += 1
            self.wrong = True
            print(f"report check failed: {exc}", file=sys.stderr)


def traced_call(tracer: spans.Tracer, argv: list[str]) -> tuple[int, list]:
    tracer.install()
    try:
        code = sys.modules["pscore.cli"].main(argv)
    finally:
        tracer.uninstall()
    return code, tracer.take()


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        launcher: Launcher) -> dict:
    oracle.check_worked_example(ROOT)
    argv, lines, check = prepare(workload, seed, workdir)
    cli = ["-m", "pscore.cli", *argv, "-o", str(workdir / "report.out")]
    setup = ["-c", "import pscore.cli"]
    err = workdir / "stderr.txt"
    session = Session(check)
    walls, rss, setups, layer_rounds, dump = [], [], [], [], []
    tracer = spans.Tracer()
    if trace:
        sys.path.insert(0, str(SRC))
        import pscore.cli  # noqa: F401  (loads every layer module before wrapping)

    launcher.spawn(setup, err)  # writes bytecode caches; not timed
    deadline = time.perf_counter() + seconds
    while True:
        setups.append(launcher.spawn(setup, err)[0])
        wall, peak, code = launcher.spawn(cli, err)
        walls.append(wall)
        rss.append(peak)
        session.judge(code, workdir / "report.out", err)
        if trace:
            code, round_spans = traced_call(tracer, [*argv, "-o", str(workdir / "traced.out")])
            session.judge(code, workdir / "traced.out", None)
            layer_rounds.append(spans.round_metrics(round_spans))
            dump.extend(spans.span_dump(round_spans, len(layer_rounds)))
        if time.perf_counter() >= deadline:
            break

    wall_s, setup_s = statistics.median(walls), statistics.median(setups)
    print(f"{workload} seed {seed}: {len(walls)} rounds; median CLI wall {wall_s:.4f} s, "
          f"set-up {setup_s:.4f} s, peak RSS {statistics.median(rss):.1f} MiB; "
          f"{lines} input lines")
    if trace:
        WORK.mkdir(exist_ok=True)
        (WORK / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(dump))
        # a function the workload never calls spent 0 s on 0 items
        metrics = {k: statistics.median([r[k] for r in layer_rounds if k in r] or [0])
                   for k in spans.METRICS}
        metrics["trace.overhead_s"] = metrics["cli.main_s"] - (wall_s - setup_s)
        unreached = sorted(k for k in spans.SELF_METRIC.values()
                           if not any(k in r for r in layer_rounds))
        print(f"spans that never fired (reported as 0): {', '.join(unreached) or 'none'}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "lines_per_s": {"value": lines / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    return {"correct": not session.wrong, "attempted": session.attempted,
            "failed": session.failed, "metrics": metrics}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"records.kept_per_line": "ratio", "chain.reduced_bytes": "B_computed",
            "solver.gth_flops": "flop_computed"}.get(metric, "count")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pscore" / "cli.py").is_file():
        print(f"perfbench: no pscore sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    launcher = Launcher()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir, launcher)
    except oracle.CheckError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
