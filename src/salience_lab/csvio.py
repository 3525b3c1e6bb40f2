"""The pipeline's file formats: column-at-a-time CSV, and JSON objects.

Every CSV file of the pipeline holds what ``csv.writer`` writes with its default
dialect: comma-separated, CRLF line ends, and a field that holds a comma, a
double quote, CR or LF enclosed in double quotes with each inner quote doubled.
``write_columns`` writes those bytes and ``read_columns`` accepts exactly that
quoting, on numpy's C parser.  ``#`` is an ordinary character; NUL is rejected.
Every JSON file holds one object, written by ``write_json`` and read by ``read_json``.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

_DTYPES = {str: str, int: np.int64, float: np.float64}


def read_columns(path: Path, columns: Mapping[str, type] | Sequence[Mapping[str, type]],
                 error: Callable[[str], Exception]) -> dict[str, np.ndarray]:
    """Each column of a CSV file whose header is exactly `columns`, as one array.

    `columns` maps each name, in file order, to str, int or float, read as a str,
    int64 or float64 array (an int column never goes through float).  A sequence
    of such layouts accepts any of them: the first whose names are the header
    gives the columns read.  A wrong header (the message names each accepted
    one), a field that holds NUL (a str array would drop a trailing one, so
    that ``u1\\x00`` read as ``u1``), rows whose last line has no line end (a
    file cut short, whose last row may still parse), a row with a field that
    does not parse, or a file that is not UTF-8, raises `error` with a message
    that starts with the file's path and names the line where one is to blame.
    A file with only its header gives empty columns.
    """
    layouts = [columns] if isinstance(columns, Mapping) else list(columns)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            line = fh.readline()
            header = next(csv.reader([line]), []) if line else None
            columns = next((layout for layout in layouts
                            if header is not None and tuple(header) == tuple(layout)), None)
            if columns is None:
                wanted = " or ".join(",".join(layout) for layout in layouts)
                raise error(f"{path}: header must be {wanted}, got {header}")
            names = tuple(columns)
            body = fh.tell()
            empty = not fh.read(1)
            with path.open("rb") as raw:  # UTF-8 has a 0 byte only where the text holds NUL
                while chunk := raw.read(1 << 20):
                    if b"\x00" in chunk:
                        raise error(_first_nul(path, names))
                    last = chunk[-1:]
            if not empty and last != b"\n":
                raise error(f"{path}: the last line has no line end (is the file cut short?)")
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
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc
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
                return f"{path}: line {line_no}: malformed row ({bad})"
    return f"{path}: malformed row ({exc})"


def _first_nul(path: Path, names: Sequence[str]) -> str:
    """A message naming the first data line, and its column, that holds NUL."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = (row for row in csv.reader(fh) if row)
        next(rows)
        for line_no, row in enumerate(rows, start=2):
            for name, value in zip(names, row):
                if "\x00" in value:
                    return f"{path}: line {line_no}: NUL in {name}"
    return f"{path}: NUL outside the columns"


#: Rows formatted and written at a time, so that a large file never exists as text at once.
BLOCK_ROWS = 4096


def write_columns(path: Path, header: Sequence[str], columns: Sequence) -> None:
    """Write header and then the rows whose fields are the columns' entries.

    Each column is an array, or a list that np.asarray makes one: a float column
    is written as each value's repr, an int column as its digits, and a str
    column as csv.writer quotes each distinct value.  So the file holds the
    bytes that csv.writer would write for the same rows of Python floats, ints
    and strs.  Rows are formatted a column at a time, BLOCK_ROWS rows at a time.
    """
    columns = [np.asarray(column) for column in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(column) != n_rows for column in columns):
        raise ValueError(f"{path}: columns of unequal length")
    quoted: list[dict] = [{} for _ in columns]  # per str column: value -> field text
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, n_rows, BLOCK_ROWS):
            fields = [_field_texts(column[start:start + BLOCK_ROWS], memo)
                      for column, memo in zip(columns, quoted)]
            if len(fields) == 1:  # csv.writer quotes a row's only field when it is empty
                fields[0] = [text or '""' for text in fields[0]]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _field_texts(values: np.ndarray, memo: dict) -> list[str]:
    """The CSV field of each entry; memo caches the quoted text of str values."""
    kind = values.dtype.kind
    if kind == "f":
        return list(map(float.__repr__, values.tolist()))
    if kind in "iu":
        return list(map(int.__repr__, values.tolist()))
    if kind != "U":
        raise TypeError(f"cannot write a column of dtype {values.dtype}")
    values = values.tolist()
    new = set(values).difference(memo)
    if new:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        for value in new:  # the value and an empty field: its text is all but ",\r\n"
            buffer.seek(0)
            buffer.truncate()
            writer.writerow((value, ""))
            memo[value] = buffer.getvalue()[:-3]
    return list(map(memo.__getitem__, values))


def write_json(path: Path, payload: Mapping) -> None:
    """Write payload with sorted keys, a 2-space indent and a final newline, in UTF-8."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def read_json(path: Path, error: type[Exception], parse: Callable[[dict], object]):
    """parse(the object in the JSON file at path), or `error` naming the file if it cannot
    be read, is not UTF-8 JSON, holds no object, or lacks a key or holds a wrong type that
    parse looks for.  A ValueError subclass, as each error class of this package is, is
    parse's own message and passes unchanged; a plain one, as float("abc") raises, does not."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise error(f"{path}: not a readable JSON file ({exc})") from exc
    if not isinstance(value, dict):
        raise error(f"{path}: must hold a JSON object, got {type(value).__name__}")
    try:
        return parse(value)
    except (LookupError, TypeError, AttributeError, ArithmeticError, ValueError) as exc:
        if isinstance(exc, ValueError) and type(exc) is not ValueError:
            raise
        raise error(f"{path}: not the expected layout ({type(exc).__name__}: {exc})") from exc
