"""How gridswap reads its input tables and what counts as a number in them.

Every CSV the package reads (orders, coalition instances, residential units,
SFCs, games, EV populations, agent series) is opened with `table`. It checks
the header, skips blank lines as csv.DictReader does, hands the caller the
cells it names, and turns a bad-input error raised while the caller builds a
row into one SchemaError naming file:line. `columns` is the fast path for
large numeric tables: numpy's C parser reads the named columns, and any file
it cannot read exactly as `table` would goes back to `table`, whose rows and
error messages stay the reference. `distinct_ids` rejects the first row of an
agent table whose id repeats an earlier one. `finite` is the one parser for
numeric text, in files, configs and command-line flags alike; `positive`
parses the counts command-line flags take, and `positive_up_to` those it
caps.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import InputError, SchemaError

# what a malformed row raises while it is turned into objects
_BAD_INPUT = (csv.Error, InputError, KeyError, TypeError, ValueError)


def finite(text: str) -> float:
    """The finite float `text` spells; ValueError for anything else, nan and inf included."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def positive(text: str, limit: int | None = None) -> int:
    """The integer >= 1, and <= `limit` when one is given, that `text` spells;
    ValueError for anything else."""
    value = int(text)
    if value < 1 or (limit is not None and value > limit):
        bound = "" if limit is None else f" and <= {limit}"
        raise ValueError(f"expected an integer >= 1{bound}, got {text!r}")
    return value


def positive_up_to(limit: int):
    """`positive` capped at `limit`, for a flag whose count sets the work done.

    The parser keeps the name `positive`, so argparse reports an out-of-range
    value as it reports one below 1.
    """
    return functools.wraps(positive)(functools.partial(positive, limit=limit))


class Table:
    """An open CSV past its header."""

    def __init__(self, header: list[str], reader) -> None:
        self.header = header
        self._reader = reader

    def rows(self, *names: str):
        """Yield, per data row, a tuple of the cells under two or more `names`.

        Blank lines are skipped. A cell past the end of a short row, or under
        a column the header lacks, reads as "".
        """
        column = {name: i for i, name in enumerate(self.header)}
        index = [column.get(name, len(self.header)) for name in names]
        pick = itemgetter(*index)
        width = max(index) + 1
        pad = [""] * width
        for row in self._reader:
            if len(row) < width:
                if not row:
                    continue
                row += pad[len(row):]
            yield pick(row)


def distinct_ids(rows):
    """Pass `rows` through, raising InputError at the first whose first cell,
    stripped, repeats an earlier row's; read inside `table`, the error names
    the repeat's line."""
    seen = set()
    for row in rows:
        rid = row[0].strip()
        if rid in seen:
            raise InputError(f"repeated id {rid!r}")
        seen.add(rid)
        yield row


@contextmanager
def table(path, required):
    """Open the CSV at `path` as a Table whose header has every `required` column.

    A bad-input error raised in the block, or by the header check, becomes a
    SchemaError naming the line being read.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [name for name in required if name not in header]
            if missing:
                raise InputError(f"header lacks column(s) {','.join(missing)}")
            yield Table(header, reader)
        except _BAD_INPUT as exc:
            raise SchemaError(f"{path}:{max(reader.line_num, 1)}: {exc}") from exc


def columns(path, ints=(), floats=()):
    """The named columns of the CSV at `path` as int64 (`ints`) and float64
    (`floats`) arrays keyed by name, or None when only `table` can read them.

    numpy's C parser converts a float cell with the routine `float` uses,
    and an integer cell by a stricter rule than `int` (no `1_000`, no `1.0`),
    so a value it returns is the value the row reader would build. None
    means: a named column is missing; the file holds a quote, which `csv`
    would interpret, or a NUL; numpy raised or warned (a malformed or short
    row, no data rows); or a float is not finite. The caller then reads the
    file with `table`, whose error and file:line are the ones reported.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            text = fh.read()
    except (OSError, ValueError):
        return None
    if '"' in text or "\0" in text:
        return None
    header = next(csv.reader([text.partition("\n")[0]]), [])
    del text
    column = {name: i for i, name in enumerate(header)}
    names = (*ints, *floats)
    if not all(name in column for name in names):
        return None
    dtype = [(name, np.int64) for name in ints] + [(name, np.float64) for name in floats]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(
                path, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                usecols=[column[name] for name in names], ndmin=1,
            )
    except Exception:  # any failure at all: the row reader then reports what went wrong
        return None
    if not all(np.isfinite(data[name]).all() for name in floats):
        return None
    return {name: np.ascontiguousarray(data[name]) for name in names}
