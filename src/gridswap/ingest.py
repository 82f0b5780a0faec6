"""How gridswap reads its input tables and what counts as a number in them.

Every CSV the package reads (orders, coalition instances, residential units,
SFCs, games, EV populations, agent series) is opened with `table`. It checks
the header, skips blank lines as csv.DictReader does, hands the caller the
cells it names, and turns a bad-input error raised while the caller builds a
row into one SchemaError naming file:line. `finite` is the one parser for
numeric text, in files, configs and command-line flags alike; `positive` parses
the counts command-line flags take.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path

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


def positive(text: str) -> int:
    """The integer >= 1 `text` spells; ValueError for anything else."""
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text!r}")
    return value


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
