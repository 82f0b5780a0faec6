"""How gridswap reads its input files and what counts as a number in them.

Each input is hashed by the reader that parses it, from the one read of its
bytes that it parses, so no file is read for its digest alone. `_read` alone
decodes a whole file, in one step, in the encoding `open` uses by default; a
byte that does not decode is reported at its file:line. A line ends at "\n",
"\r" or "\r\n", as `csv` counts lines, in every file:line of a CSV or config.
Every CSV the package reads is opened with `table`. It checks the header,
skips blank lines as csv.DictReader does, hands the caller the cells it
names, and turns a bad-input error raised while the caller builds a row into
one SchemaError naming file:line. `columns` is the fast path for large
numeric tables: it decodes the header line only, numpy's C parser reads and
decodes the named columns, and any file it cannot read exactly as `table`
would goes back to `table`, whose rows and error messages stay the reference.
numpy opens the file a second time, the one input read twice, so there the
digest is of the bytes `columns` read and checked. `read_text` reads a
scenario config. `distinct_ids` rejects the first row of an agent table
whose id repeats an earlier one. `finite` is the one parser for numeric
text. A setting, from a config key or a flag, has one parser that both call:
an `integer`, a `finite_over`, a `Range` or a `Choice`, whose ValueError
says why it refuses a text. `physical` holds every physical quantity read to
its kind's range, and `physical_mask` a column of them.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import locale
import math
import re
import warnings
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

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


class Range(NamedTuple):
    """A kind of input quantity: its unit and the values it may take besides
    0. Called on text, it parses a setting of its kind."""
    unit: str
    smallest: float
    largest: float

    def refusal(self, value: float) -> str:
        span = f"[{self.smallest:g}, {self.largest:g}] {self.unit}".rstrip()
        return f"must lie in {span}, got {float(value)!r}"

    def __call__(self, text: str) -> float:
        value = finite(text)
        if self.smallest <= value <= self.largest or value == 0:
            return value
        raise ValueError(self.refusal(value))


# Each kind of physical input's range, refused outside it where it is read: far
# past any community's values, yet narrow enough to keep every mechanism's
# arithmetic finite and its rounding small. All are >= 0; a net by its magnitude.
# ENERGY: capacities, requirements, nets, loads, generation, orders, c_min, c_max,
#   d_max, sfc_requirement totals. Squared (storage utilities) at most 1e18; with
#   N <= 32 members exact Shapley rounds by N max|e| p_rp 2**-52, $2e-6 at 0.3.
# PRICE: bids, reservation and limit prices, p_wp, p_rp, l2, grid prices, margins.
#   Grid price caps stay under $20/kWh; the storage price grid, of step 1e-4,
#   then has at most 1.5e7 points, a 1.5x misreport's too.
# QUADRATIC: reluctance and l1. From 1e-9 a best response (p - r) / alpha and
#   a seller's slope 1 / (2 l1) stay under 1e12, where a subnormal one overflows.
# WILLINGNESS: an EV's w. From 1e-6 the EV auction's price steps, which grow as
#   1 / w, stay finite; to 1e6 its answer at the 1e-9 $/kWh price floor, w / p,
#   stays under 1e15 kWh.
ENERGY = Range("kWh", 0.0, 1e9)
PRICE = Range("$/kWh", 0.0, 1e3)
QUADRATIC = Range("$/kWh^2", 1e-9, 1e9)
WILLINGNESS = Range("$", 1e-6, 1e6)


def physical(value: float, kind: Range, name: str, owner=None) -> float:
    """`value` if it is 0 or within `kind`'s range, else InputError naming the
    quantity `name.format(owner)`; a chained comparison refuses NaN too."""
    if kind[1] <= value <= kind[2] or value == 0:
        return value
    raise InputError(f"{name.format(owner)} {kind.refusal(value)}")


def physical_mask(values: np.ndarray, kind: Range) -> np.ndarray:
    """Which of `values` `physical` accepts."""
    return ((kind.smallest <= values) & (values <= kind.largest)) | (values == 0)


def integer(low: int, high: float = math.inf):
    """The parser of an integer setting from `low` to `high`: integer text
    parses exactly, and a float spelling of a whole number (`96.0`, `5e3`) as
    that integer; a ValueError says why any other text is refused."""
    bound = f">= {low}" if high == math.inf else f"from {low} to {high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = finite(text)
        if not (value == int(value) and low <= value <= high):
            raise ValueError(f"must be an integer {bound}, got {text}")
        return int(value)

    parse.__name__ = "nonnegative" if low == 0 else "positive"  # argparse's name for it
    return parse


def finite_over(low: float, high: float = math.inf):
    """`finite`, also requiring low < value <= high, for a setting with a range;
    it keeps the name `finite`, so argparse reports a value out of range as it
    reports a non-finite one."""
    bound = f"> {low:g}" if high == math.inf else f"in ({low:g}, {high:g}]"

    def parse(text: str) -> float:
        value = finite(text)
        if not low < value <= high:
            raise ValueError(f"must be {bound}, got {text}")
        return value

    return functools.wraps(finite)(parse)


class Choice(tuple):
    """The parser of one of the tuple's words, and a flag's argparse `choices`."""

    def __call__(self, text: str) -> str:
        if text not in self:
            raise ValueError(f"must be {' or '.join(self)}, got {text!r}")
        return text


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
def table(path, required, sources):
    """Open the CSV at `path` as a Table whose header has every `required` column.

    The rows are parsed from one read of the file's bytes, whose sha256 goes
    into `sources` under `path` once the block completes. A bad-input error
    raised in the block, or by the header check, becomes a SchemaError naming
    the line being read.
    """
    path = Path(path)
    digest = hashlib.sha256()
    reader = csv.reader(io.StringIO(_read(path, digest), newline=""))
    try:
        header = next(reader, [])
        missing = [name for name in required if name not in header]
        if missing:
            raise InputError(f"header lacks column(s) {','.join(missing)}")
        yield Table(header, reader)
    except _BAD_INPUT as exc:
        raise SchemaError(f"{path}:{max(reader.line_num, 1)}: {exc}") from exc
    sources[path] = digest.hexdigest()


def columns(path, sources, ints=(), floats=(), strings=()):
    """The named columns of the CSV at `path` as int64 (`ints`), float64
    (`floats`) and object arrays of str (`strings`) keyed by name, in that
    order, or None when only `table` can read them. `ints` may instead be a
    function that picks them from the header's names. When the columns are
    returned, the sha256 of the bytes read goes into `sources` under `path`.

    numpy's C parser converts a float cell with the routine `float` uses,
    and an integer cell by a stricter rule than `int` (no `1_000`, no `1.0`),
    so a value it returns is the value the row reader would build. A string
    cell is the cell's text as `table` yields it, unstripped. None means: a
    named column is missing; the file holds a quote, which `csv` would
    interpret, or a NUL; numpy raised or warned (a malformed or short row, a
    line of only blanks, no data rows); or a float is not finite. The caller
    then reads the file with `table`, whose error and file:line are the ones
    reported.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
        if b'"' in raw or b"\0" in raw:
            return None
        first = re.match(rb"[^\r\n]*", raw)[0].decode(locale.getpreferredencoding(False))
    except (OSError, UnicodeDecodeError):
        return None
    header = next(csv.reader([first]), [])
    if callable(ints):
        ints = ints(header)
    column = {name: i for i, name in enumerate(header)}
    names = (*ints, *floats, *strings)
    if not all(name in column for name in names):
        return None
    dtype = ([(name, np.int64) for name in ints] + [(name, np.float64) for name in floats]
             + [(name, object) for name in strings])
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
    sources[path] = hashlib.sha256(raw).hexdigest()
    return {name: np.ascontiguousarray(data[name]) for name in names}


def read_text(path, sources) -> str:
    """The file's text as `Path.read_text` reads it, from one read of its
    bytes, whose sha256 goes into `sources` under `path`."""
    path = Path(path)
    digest = hashlib.sha256()
    text = _read(path, digest)
    sources[path] = digest.hexdigest()
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read(path: Path, digest) -> str:
    """The file's text, newlines untranslated, from one read of its bytes,
    which are fed to `digest`; an undecodable byte raises SchemaError naming
    its file:line, and the decoder's message gives its offset in the file."""
    raw = path.read_bytes()
    digest.update(raw)
    try:
        return raw.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError as exc:
        before = raw[:exc.start]
        line = 1 + before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n")
        raise SchemaError(f"{path}:{line}: {exc}") from exc
