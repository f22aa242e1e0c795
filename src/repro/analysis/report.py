"""Paper-style result tables.

:class:`ResultTable` renders measured values side by side with the
paper's reference values.  The experiments that fill them, and the
normalizations they use, live in :mod:`repro.exp.library`.
"""

from __future__ import annotations

import dataclasses
from typing import List


@dataclasses.dataclass
class ResultTable:
    """Rows of measured numbers with optional paper reference values."""

    title: str
    columns: List[str]
    rows: List[List[str]] = dataclasses.field(default_factory=list)

    def add(self, *cells) -> None:
        self.rows.append([str(c) for c in cells])

    def render(self) -> str:
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self.rows)) if self.rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        def fmt(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
        lines = [self.title, fmt(self.columns), fmt(["-" * w for w in widths])]
        lines += [fmt(r) for r in self.rows]
        return "\n".join(lines)
