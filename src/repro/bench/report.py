"""Plain-text experiment tables, one format for every experiment benchmark.

The paper has no numeric tables of its own (it is a position paper), so the
reproduction defines its experiment tables in the docstrings of
``benchmarks/bench_e*.py`` and every benchmark regenerates its own through
this tiny reporter: fixed-width columns, one row per parameter point,
printed to stdout so ``pytest benchmarks/bench_e*.py -s`` shows them (and
saved under ``benchmarks/results/``).
"""

from __future__ import annotations

import os
import subprocess
from typing import Any, Dict, List, Optional, Sequence, Union

__all__ = ["Table", "Report", "run_stamp"]

Cell = Union[str, int, float]


def _git_sha() -> str:
    """The current commit's SHA, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_stamp(seed: Optional[int] = None, backend: Optional[Any] = None,
              **extra: Any) -> Dict[str, Any]:
    """Provenance stamp for benchmark JSON results.

    Every payload written to ``benchmarks/results/`` carries one of
    these, so perf trajectories are comparable across PRs: which commit
    produced the numbers, which seed drove the workload, and which
    execution backend(s) ran it.  *extra* keys ride along verbatim.
    """
    stamp: Dict[str, Any] = {"git_sha": _git_sha(), "seed": seed,
                             "backend": backend}
    stamp.update(extra)
    return stamp


def _format_cell(value: Cell) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (abs(value) < 0.01 and value != 0):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".") or "0"
    return str(value)


class Table:
    """One experiment table: a title, column headers, and rows."""

    def __init__(self, title: str, columns: Sequence[str]):
        if not columns:
            raise ValueError("a table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        self.notes: List[str] = []

    def add_row(self, *cells: Cell, **named: Cell) -> None:
        """Append a row given positionally or by column name."""
        if cells and named:
            raise ValueError("pass cells positionally or by name, not both")
        if named:
            cells = tuple(named.get(column, "") for column in self.columns)
        if len(cells) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} cells, got {len(cells)}")
        self.rows.append([_format_cell(cell) for cell in cells])

    def add_note(self, note: str) -> None:
        """Attach a free-text note printed under the table."""
        self.notes.append(note)

    def column(self, name: str) -> List[str]:
        """All values of one column (as formatted strings)."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def render(self) -> str:
        """The table as fixed-width text."""
        widths = [len(column) for column in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(column.ljust(widths[index])
                           for index, column in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * width for width in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[index])
                                   for index, cell in enumerate(row)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)

    def __str__(self) -> str:
        return self.render()


class Report:
    """A collection of tables for one experiment, printable and saveable."""

    def __init__(self, experiment_id: str, description: str = ""):
        self.experiment_id = experiment_id
        self.description = description
        self.tables: List[Table] = []

    def table(self, title: str, columns: Sequence[str]) -> Table:
        """Create, register and return a new table."""
        table = Table(title, columns)
        self.tables.append(table)
        return table

    def render(self) -> str:
        """All tables of the experiment as one text block."""
        header = f"[{self.experiment_id}] {self.description}".rstrip()
        parts = [header, "#" * len(header)]
        for table in self.tables:
            parts.append("")
            parts.append(table.render())
        return "\n".join(parts)

    def print(self) -> None:
        """Print to stdout (what the benchmark harness does)."""
        print()
        print(self.render())

    def save(self, directory: str) -> str:
        """Write the report next to the benchmark outputs; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment_id.lower()}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render() + "\n")
        return path

    def __str__(self) -> str:
        return self.render()
