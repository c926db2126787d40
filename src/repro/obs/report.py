"""Trace analyzer: JSONL trace file -> timelines and latency breakdowns.

The functions here (and the CLI: ``python -m repro.obs.report trace.jsonl``)
turn a span dump into the two views the experiments need:

* **per-itinerary hop timelines** — every span of one trace in causal
  order: launch, each hop's execution, its checkpoint barrier wait, the
  rear-guard releases, and the migrations between hops;
* **p50/p99 breakdowns** — spans grouped per (source, destination) pair,
  per subsystem (``kind``), or per span name.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["load_trace", "build_trees", "trace_ids", "hop_timeline",
           "format_timeline", "breakdown", "percentile", "main"]


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace file into a list of span dicts (blank-line safe)."""
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def trace_ids(spans: Iterable[Dict[str, Any]],
              include_infra: bool = False) -> List[str]:
    """Distinct trace ids, agent traces first, each ordered by first start."""
    first_start: Dict[str, float] = {}
    for span in spans:
        tid = span["trace_id"]
        if not include_infra and tid.startswith("~"):
            continue
        start = span.get("start", 0.0)
        if tid not in first_start or start < first_start[tid]:
            first_start[tid] = start
    return sorted(first_start, key=lambda tid: (first_start[tid], tid))


class SpanNode:
    """One span plus its children (sorted by start time, then id)."""

    __slots__ = ("span", "children")

    def __init__(self, span: Dict[str, Any]):
        self.span = span
        self.children: List["SpanNode"] = []

    @property
    def duration(self) -> float:
        return self.span.get("end", self.span.get("start", 0.0)) - \
            self.span.get("start", 0.0)

    def walk(self, depth: int = 0):
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)

    def tree_shape(self) -> Tuple:
        """Hashable (id, children-shapes) tuple for tree-equality asserts."""
        return (self.span["span_id"],
                tuple(child.tree_shape() for child in self.children))


def build_trees(spans: Iterable[Dict[str, Any]]
                ) -> Dict[str, List[SpanNode]]:
    """Group spans by trace and link parents to children.

    Returns ``{trace_id: [root SpanNode, ...]}``.  A span whose parent is
    missing from the dump (ring overflow, sampling boundary) is promoted
    to a root rather than dropped.
    """
    by_trace: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        by_trace[span["trace_id"]].append(span)
    trees: Dict[str, List[SpanNode]] = {}
    for tid, members in by_trace.items():
        nodes = {span["span_id"]: SpanNode(span) for span in members}
        roots: List[SpanNode] = []
        for node in nodes.values():
            parent = node.span.get("parent_id")
            if parent is not None and parent in nodes:
                nodes[parent].children.append(node)
            else:
                roots.append(node)
        order = lambda node: (node.span.get("start", 0.0), node.span["span_id"])
        for node in nodes.values():
            node.children.sort(key=order)
        roots.sort(key=order)
        trees[tid] = roots
    return trees


def hop_timeline(spans: Iterable[Dict[str, Any]],
                 trace_id: str) -> List[Dict[str, Any]]:
    """One trace's spans as flat causal-order rows (depth included).

    The itinerary view: roots first, children nested beneath their
    parents, each row carrying name/site/start/end/duration/attrs.
    """
    trees = build_trees(span for span in spans
                        if span["trace_id"] == trace_id)
    rows: List[Dict[str, Any]] = []
    for root in trees.get(trace_id, []):
        for depth, node in root.walk():
            span = node.span
            row = {
                "depth": depth,
                "name": span["name"],
                "span_id": span["span_id"],
                "parent_id": span.get("parent_id"),
                "site": span.get("site", ""),
                "start": span.get("start", 0.0),
                "end": span.get("end", span.get("start", 0.0)),
                "duration": node.duration,
            }
            if span.get("source"):
                row["source"] = span["source"]
            if span.get("destination"):
                row["destination"] = span["destination"]
            if span.get("attrs"):
                row["attrs"] = span["attrs"]
            rows.append(row)
    return rows


def format_timeline(rows: Sequence[Dict[str, Any]]) -> str:
    """Render :func:`hop_timeline` rows as an indented text timeline."""
    lines = []
    for row in rows:
        indent = "  " * row["depth"]
        where = row.get("site") or ""
        if row.get("source"):
            where = f"{row['source']}->{row.get('destination', '?')}"
        extra = ""
        if row.get("attrs"):
            extra = " " + " ".join(f"{key}={value}" for key, value
                                   in sorted(row["attrs"].items()))
        lines.append(f"{indent}{row['start']:>12.6f}s  {row['name']:<12} "
                     f"{where:<18} +{row['duration']:.6f}s{extra}")
    return "\n".join(lines)


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of *values* (None when empty)."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


_BREAKDOWN_KEYS = {
    "pair": lambda span: (f"{span['source']}->{span['destination']}"
                          if span.get("source") and span.get("destination")
                          else None),
    "subsystem": lambda span: span.get("kind") or None,
    "name": lambda span: span.get("name") or None,
    "site": lambda span: span.get("site") or None,
}


def breakdown(spans: Iterable[Dict[str, Any]],
              by: str = "subsystem") -> Dict[str, Dict[str, Any]]:
    """Duration stats per key: count, total, mean, p50, p99 (sim seconds).

    ``by`` is one of ``"pair"`` (source->destination), ``"subsystem"``
    (span kind), ``"name"``, or ``"site"``; spans without that key are
    skipped.
    """
    try:
        key_of = _BREAKDOWN_KEYS[by]
    except KeyError:
        raise ValueError(f"unknown breakdown key {by!r} "
                         f"(one of {sorted(_BREAKDOWN_KEYS)})") from None
    groups: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        key = key_of(span)
        if key is None:
            continue
        groups[key].append(span.get("end", span.get("start", 0.0))
                           - span.get("start", 0.0))
    out: Dict[str, Dict[str, Any]] = {}
    for key, durations in sorted(groups.items()):
        out[key] = {
            "count": len(durations),
            "total": sum(durations),
            "mean": sum(durations) / len(durations),
            "p50": percentile(durations, 0.50),
            "p99": percentile(durations, 0.99),
        }
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: print timelines + breakdowns for a JSONL trace file."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.obs.report TRACE.jsonl "
              "[--trace TRACE_ID] [--by pair|subsystem|name|site]")
        return 0 if argv else 2
    path = argv[0]
    wanted: Optional[str] = None
    by = "subsystem"
    rest = argv[1:]
    while rest:
        flag = rest.pop(0)
        if flag == "--trace" and rest:
            wanted = rest.pop(0)
        elif flag == "--by" and rest:
            by = rest.pop(0)
            if by not in _BREAKDOWN_KEYS:
                print(f"unknown --by key {by!r}; one of "
                      f"{', '.join(sorted(_BREAKDOWN_KEYS))}", file=sys.stderr)
                return 2
        else:
            print(f"unknown argument {flag!r}", file=sys.stderr)
            return 2
    spans = load_trace(path)
    print(f"{len(spans)} spans in {path}")
    targets = [wanted] if wanted else trace_ids(spans)[:10]
    for tid in targets:
        rows = hop_timeline(spans, tid)
        if not rows:
            continue
        print(f"\n== trace {tid} ({len(rows)} spans) ==")
        print(format_timeline(rows))
    print(f"\n== breakdown by {by} (sim seconds) ==")
    for key, stats in breakdown(spans, by=by).items():
        print(f"{key:<28} n={stats['count']:<7} total={stats['total']:.6f} "
              f"mean={stats['mean']:.6f} p50={stats['p50']:.6f} "
              f"p99={stats['p99']:.6f}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
