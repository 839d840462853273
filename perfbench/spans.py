"""Spans around the pscore layer functions, for the traced run.

Each traced function is replaced, wherever a ``pscore`` module holds a
reference to it, by a wrapper that records a span (name, start, end,
parent). ``make_ranking``, for example, is reached both from ``cli`` and
from inside ``scoring.rank_authors``; both references are wrapped, so a
later move of a call site keeps its span. Spans stay in memory; counts
are taken from the recorded arguments and results after the traced call
returns, so counting adds nothing to any span.

The traced functions are the ones the per-layer metrics name. The other
public functions on a workload's path (``build_alpha``, ``build_beta``,
``run``, ``build_parser``) run inside a traced one and count in its self
time. ``normalize_name`` and ``fold`` are not traced: they run once per
name, millions of times per run, and a wrapper there would time the
tracer.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

LAYERS = {
    "records": ("parse_records", "build_dataset"),
    "counts": ("aggregate",),
    "chain": ("build_chain", "check_irreducible", "build_reduced"),
    "solver": ("gth_steady_state",),
    "scoring": ("venue_scores", "group_consistency_check", "normalize_max_one",
                "make_ranking", "rank_authors", "ranking_to_tsv"),
    "cli": ("main", "solve_pipeline", "load_author_pubs", "load_venue_scores",
            "venue_report_tsv"),
}

# span name -> metric reporting its self time (cli.main is reported both ways)
SELF_METRIC = {f"{layer}.{fn}": f"{layer}.{fn}_s" for layer, fns in LAYERS.items() for fn in fns}
SELF_METRIC["cli.main"] = "cli.self_s"
SELF_METRIC["cli.solve_pipeline"] = "cli.solve_pipeline_self_s"

# every metric round_metrics can produce; a traced result reports each of them
METRICS = (*SELF_METRIC.values(), "cli.main_s", "records.lines", "records.kept",
           "records.dropped_foreign", "records.dedup_merged", "records.kept_per_line",
           "counts.groups", "counts.venues", "counts.nonzeros", "chain.reduced_bytes",
           "solver.gth_flops", "scoring.entities_ranked", "cli.author_lines",
           "cli.unknown_venues")


class Span:
    __slots__ = ("name", "start", "end", "parent", "args", "result")

    def __init__(self, name, start, parent, args):
        self.name, self.start, self.end, self.parent, self.args = name, start, None, parent, args
        self.result = None


class Tracer:
    """Installs the wrappers and collects the spans of one traced call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else None, args)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            return span.result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "pscore" or n.startswith("pscore.")]
        for layer, fns in LAYERS.items():
            home = sys.modules[f"pscore.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced call; a span that never fired adds none."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, span in enumerate(spans):
        duration = span.end - span.start
        add(SELF_METRIC[span.name], duration - child_time[i])
        if span.name == "cli.main":
            add("cli.main_s", duration)
        r = span.result
        if r is None:  # the call raised; its counts are unknown
            continue
        if span.name == "records.parse_records":
            add("records.lines", len(r))
        elif span.name == "records.build_dataset":
            add("records.kept", len(r.records))
            add("records.dropped_foreign", r.dropped_foreign)
            add("records.dedup_merged", r.dedup_merged)
        elif span.name == "counts.aggregate":
            add("counts.groups", r.num_groups)
            add("counts.venues", r.num_venues)
            add("counts.nonzeros", int(np.count_nonzero(r.n_group_venue)))
        elif span.name == "chain.build_reduced":
            add("chain.reduced_bytes", 8 * r.shape[0] ** 2)
        elif span.name == "solver.gth_steady_state":
            add("solver.gth_flops", 2 * np.shape(span.args[0])[0] ** 3 / 3)
        elif span.name == "scoring.make_ranking":
            add("scoring.entities_ranked", len(r.entries))
        elif span.name == "cli.load_author_pubs":
            with open(span.args[0].name, "rb") as fh:
                add("cli.author_lines", sum(1 for line in fh if line.strip()))
        elif span.name == "scoring.rank_authors":
            # both name sets arrive whitespace-normalized
            scored = {n.casefold() for n in span.args[1].names}
            venues = {v.casefold() for pubs in span.args[0].values() for v in pubs}
            add("cli.unknown_venues", len(venues - scored))
    if "records.kept" in out and out.get("records.lines"):
        out["records.kept_per_line"] = out["records.kept"] / out["records.lines"]
    return out


def span_dump(spans: list[Span], round_no: int) -> list[dict]:
    return [
        {"round": round_no, "id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
        for i, s in enumerate(spans)
    ]
