"""Result tables and simple statistics for the benchmark harness.

The paper reports averages over five runs with 95 % confidence intervals
(section 4.2); :func:`mean_ci95` reproduces that reporting and
:func:`format_table` renders aligned text tables the benches print and
archive.
"""

from __future__ import annotations

import math
import os
import platform
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Two-sided 97.5 % Student-t quantiles for small sample sizes (index =
#: degrees of freedom); enough for the five-run experiments.
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
    6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
}


def host_info() -> Dict[str, object]:
    """The host a result file was measured on — core count, affinity
    mask, python and numpy versions — written beside every wall-clock
    number a bench archives: a wall is only comparable with another
    from a host of the same width."""
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else [])
    return {
        "cpu_count": os.cpu_count() or 1,
        "affinity": affinity,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def mean_ci95(samples: Sequence[float]) -> Tuple[float, float]:
    """Mean and 95 % confidence half-width of a small sample."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    mean = sum(samples) / n
    if n == 1:
        return mean, 0.0
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    t = _T_975.get(n - 1, 1.96)
    return mean, t * math.sqrt(variance / n)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    cells = [[str(h) for h in headers]]
    cells += [[_fmt(v) for v in row] for row in rows]
    widths = [
        max(len(row[col]) for row in cells)
        for col in range(len(headers))
    ]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(
            value.rjust(width) for value, width in zip(row, widths)
        ))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


@dataclass
class Table:
    """A titled result table that can print and archive itself."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, *row: object) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        parts = [f"== {self.title} ==",
                 format_table(self.headers, self.rows)]
        parts.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(parts)

    def emit(self, directory: Optional[str] = None) -> str:
        """Print the table and optionally archive it under ``directory``."""
        text = self.render()
        print("\n" + text)
        if directory is not None:
            os.makedirs(directory, exist_ok=True)
            slug = "".join(
                ch if ch.isalnum() else "_" for ch in self.title.lower()
            ).strip("_")
            path = os.path.join(directory, f"{slug}.txt")
            with open(path, "w") as f:
                f.write(text + "\n")
        return text
