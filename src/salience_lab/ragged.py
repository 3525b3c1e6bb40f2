"""Ragged tables: many variable-length traces held as columns.

Row columns hold one entry per row, trace columns one per trace, and trace i
is rows offsets[i]:offsets[i + 1].  telemetry.SessionTable and
features.FeatureTable share this layout and the arithmetic on it below.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import ClassVar, Sequence

import numpy as np


@dataclass(frozen=True)
class TraceView:
    """Trace `index` of a table, viewed in place: each row column of the table reads
    as this trace's slice of it (or None), and each trace column as its entry."""

    table: RaggedTable
    index: int

    @property
    def rows(self) -> slice:
        return slice(*self.table.offsets[self.index:self.index + 2].tolist())

    @property
    def length(self) -> int:
        rows = self.rows
        return rows.stop - rows.start

    def __getattr__(self, name: str):
        table = vars(self).get("table")  # absent while copy or pickle rebuilds the view
        if table is not None and name in table.ROW_COLUMNS:
            column = getattr(table, name)
            return None if column is None else column[self.rows]
        if table is not None and name in table.TRACE_COLUMNS:
            return getattr(table, name)[self.index].item()
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")


class RaggedTable:
    """The offset arithmetic of a frozen dataclass table with an `offsets` field.

    A subclass names its row columns (a column may be None), its trace columns
    and the TraceView subclass of one trace.  An int index, or iterating the
    table, gives views; a slice gives take(range).  `+` joins two tables.
    """

    ROW_COLUMNS: ClassVar[tuple[str, ...]]
    TRACE_COLUMNS: ClassVar[tuple[str, ...]]
    VIEW: ClassVar[type[TraceView]]
    offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(range(len(self))[index])
        return self.VIEW(self, range(len(self))[index])

    def __iter__(self):
        return (self.VIEW(self, i) for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return all(
            (a is None and b is None) or (a is not None and b is not None and np.array_equal(a, b))
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )

    def __add__(self, other):
        def joined(name: str):
            a, b = getattr(self, name), getattr(other, name)
            return None if a is None or b is None else np.concatenate((a, b))

        return replace(self, offsets=np.r_[self.offsets, other.offsets[1:] + self.offsets[-1]],
                       **{name: joined(name) for name in self.ROW_COLUMNS + self.TRACE_COLUMNS})

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def first_rows(self) -> np.ndarray:
        return self.offsets[:-1]

    @property
    def last_rows(self) -> np.ndarray:
        return self.offsets[1:] - 1

    @property
    def session_index(self) -> np.ndarray:
        """Each row's position in its trace, from 1."""
        return np.arange(self.offsets[-1]) + 1 - np.repeat(self.first_rows, self.lengths)

    def take(self, traces: Sequence[int] | np.ndarray):
        """A table of the given traces, in the given order; views, not copies, of the
        columns for a range of step 1 within the table."""
        if isinstance(traces, range) and traces.step == 1 \
                and 0 <= traces.start <= traces.stop <= len(self):
            pick = slice(traces.start, traces.stop)
            offsets = self.offsets[traces.start:traces.stop + 1]
            rows, offsets = slice(*offsets[[0, -1]].tolist()), offsets - offsets[0]
        else:
            pick = np.asarray(traces, dtype=np.int64)
            lengths = self.lengths[pick]
            offsets = np.concatenate(([0], np.cumsum(lengths)))
            rows = np.arange(offsets[-1]) + np.repeat(self.offsets[pick] - offsets[:-1], lengths)
        return replace(self, offsets=offsets, **{
            name: None if (column := getattr(self, name)) is None else column[rows]
            for name in self.ROW_COLUMNS}, **{
            name: getattr(self, name)[pick] for name in self.TRACE_COLUMNS})
