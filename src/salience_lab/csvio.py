"""Column-at-a-time CSV reading on numpy's C parser, and CSV writing in row chunks.

Every CSV file of the pipeline is written by ``csv.writer`` with its default
dialect: comma-separated, CRLF line ends, and a field that holds a comma, a
double quote, CR or LF enclosed in double quotes with each inner quote doubled.
``read_columns`` accepts exactly that quoting.  ``#`` is an ordinary character.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_DTYPES = {str: str, int: np.int64, float: np.float64}


def read_columns(path: Path, columns: Mapping[str, type],
                 error: Callable[[str], Exception]) -> dict[str, np.ndarray]:
    """Each column of a CSV file whose header is exactly `columns`, as one array.

    `columns` maps each name, in file order, to str, int or float, read as a str,
    int64 or float64 array (an int column never goes through float).  A wrong
    header, or a row with a field that does not parse, raises `error` naming the
    file or the line.  A file with only its header gives empty columns.
    """
    names = tuple(columns)
    with path.open(newline="", encoding="utf-8") as fh:
        line = fh.readline()
        header = next(csv.reader([line]), []) if line else None
        if header is None or tuple(header) != names:
            raise error(f"{path}: header must be {','.join(names)}, got {header}")
        body = fh.tell()
        empty = not fh.read(1)
        out: dict[str, np.ndarray] = {}
        for kind, dtype in _DTYPES.items():
            used = [i for i, name in enumerate(names) if columns[name] is kind]
            if not used:
                continue
            if empty:
                block = np.empty((0, len(used)), dtype=dtype)
            else:
                fh.seek(body)
                try:
                    # comments=None: the default '#' would cut an id such as u#1
                    block = np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"',
                                       comments=None, usecols=used, ndmin=2)
                except ValueError as exc:
                    raise error(_first_bad_row(path, columns, exc)) from exc
            out.update((names[i], block[:, j]) for j, i in enumerate(used))
    return out


def _first_bad_row(path: Path, columns: Mapping[str, type], exc: ValueError) -> str:
    """A message naming the first data line that numpy could not parse."""
    kinds = tuple(columns.values())
    with path.open(newline="", encoding="utf-8") as fh:
        rows = (row for row in csv.reader(fh) if row)  # numpy skips blank lines too
        next(rows)
        for line_no, row in enumerate(rows, start=2):
            try:
                if len(row) < len(kinds):
                    raise ValueError(f"{len(row)} fields, expected {len(kinds)}")
                for value, kind in zip(row, kinds):
                    kind(value)
            except ValueError as bad:
                return f"line {line_no}: malformed row ({bad})"
    return f"{path}: malformed row ({exc})"


def chunks(items: Sequence[T], rows: Callable[[T], int], limit: int = 4096) -> Iterator[list[T]]:
    """Consecutive runs of items, each closed once it holds at least `limit` rows."""
    chunk: list[T] = []
    count = 0
    for item in items:
        chunk.append(item)
        count += rows(item)
        if count >= limit:
            yield chunk
            chunk, count = [], 0
    if chunk:
        yield chunk


def write_rows(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write header and rows by csv.writer, which writes a float as its repr."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
