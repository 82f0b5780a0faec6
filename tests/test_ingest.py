"""The columnar fast path reads order books, game and series tables exactly as the
row reader does."""

import itertools
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

from gridswap import cli, coalition, ev, ingest, market, scenario, storage
from gridswap.errors import GridswapError


def _outcome(read, path):
    """("ok", arrays) or (error type, message): what the reader makes of the file."""
    try:
        value = read(path)
    except GridswapError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):
        return "ok", value
    return "ok", (value.utilities,)


def _assert_paths_agree(read, path):
    """The reader gives the same arrays, bit for bit, or the same error, with or without
    the fast path. Returns how it read the file: ("ok" or the error type, "columnar"
    when it read no row, else "row")."""
    with mock.patch.object(ingest.Table, "rows", autospec=True,
                           side_effect=ingest.Table.rows) as rows_read:
        fast = _outcome(read, path)
    with mock.patch.object(ingest, "columns", return_value=None):
        rows = _outcome(read, path)
    assert fast[0] == rows[0], (fast, rows)
    if fast[0] != "ok":
        assert fast[1] == rows[1]
    else:
        for got, want in zip(fast[1], rows[1], strict=True):
            if isinstance(got, market.Book):
                assert got.agent_ids.tolist() == want.agent_ids.tolist()
                got = np.stack([got.quantity, got.limit_price])
                want = np.stack([want.quantity, want.limit_price])
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
    return fast[0], "row" if rows_read.called else "columnar"


def _series_reader(horizon):
    return lambda path: scenario._read_series(path, horizon, "a", {})


def _read_game(path):
    return cli._read_game(path, {})


def _read_orders(path):
    return cli._read_orders(path, {})


# cell spellings; each takes the intended value and may change or break it
_INT_SPELLINGS = [
    "{}", " {} ", "+{}", "0{}", "{}.0", "{}e0", '"{}"', "{}_0", "-1", "x", "", "1e500",
]
_FLOAT_SPELLINGS = [
    "{}", " {} ", "+{}", '"{}"', "{}\x85", "1_000", "1e500", "nan", "-inf", "-0", "-1", "1e-400",
    "x", "",
]
_ID_SPELLINGS = ["{}", " {} ", '"{}"', '"{}, jr"', '"{}""s"', "", "{}\t"]
_SIDE_SPELLINGS = ["{}", " {} ", '"{}"', "bid", "", "BUY"]
_DECIMAL = hst.from_regex(r"[0-9]{1,20}(\.[0-9]{0,20})?([eE][-+]?[0-9]{1,3})?", fullmatch=True)
_FLOAT = hst.one_of(
    _DECIMAL,
    hst.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(repr),
    hst.floats(allow_nan=False, allow_infinity=False).map(repr),
)
_EXTRA = [("source", ["grid", "pv", '"a,b"', ""]), ("note", ["x", "1", "#"]), ("s9", ["0", "3"])]


@hst.composite
def _text(draw, names, rows):
    """The file text for `rows` (each a dict of column -> (kind, value)) under a
    header of `names` and drawn extra columns in drawn order, spelled cleanly or noisily."""
    spellings = {"int": _INT_SPELLINGS, "float": _FLOAT_SPELLINGS, "id": _ID_SPELLINGS,
                 "side": _SIDE_SPELLINGS}
    extras = draw(hst.lists(hst.sampled_from(_EXTRA), max_size=2, unique_by=lambda e: e[0]))
    header = draw(hst.permutations(names + [name for name, _ in extras]))
    noisy = draw(hst.booleans())
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for name in header:
            if name in row:
                kind, value = row[name]
                spelling = draw(hst.sampled_from(spellings[kind])) if noisy else "{}"
                cells.append(spelling.format(value))
            else:
                cells.append(draw(hst.sampled_from(dict(extras)[name])))
        if noisy and draw(hst.integers(0, 9)) == 0:  # short row, or trailing cells
            cells = cells[: draw(hst.integers(0, len(cells)))] or [""]
            if draw(hst.booleans()):
                cells += ["1", "tail"]
        lines.append(",".join(cells))
    if noisy:
        for _ in range(draw(hst.integers(0, 2))):
            junk = draw(hst.sampled_from(
                ["", "", "   ", "\t", "\x0c", "\u2028", "# comment", "#" + lines[-1], ","]))
            lines.insert(draw(hst.integers(1, len(lines))), junk)
    end = draw(hst.sampled_from(["\n", "\r\n", "\r"])) if noisy else "\n"
    return end.join(lines) + end


@hst.composite
def _game(draw):
    n = draw(hst.integers(1, 3))
    dims = [draw(hst.integers(1, 3)) for _ in range(n)]
    keys = draw(hst.permutations(list(itertools.product(range(n), *map(range, dims)))))
    if draw(hst.integers(0, 4)) == 0:  # a missing, repeated or stray row
        keys = draw(hst.sampled_from([keys[1:], keys + keys[:1], keys[1:] + keys[-1:],
                                      keys + [(0,) + (dims[0],) * n]]))
    names = ["player", *(f"s{i}" for i in range(n)), "utility"]
    rows = [
        dict(zip(names, [*(("int", k) for k in key), ("float", draw(_FLOAT))]))
        for key in keys
    ]
    return draw(_text(names, rows))


@hst.composite
def _series(draw):
    horizon = draw(hst.integers(0, 5))
    slots = list(range(horizon))
    if draw(hst.integers(0, 4)) == 0:  # slots out of order or miscounted
        slots = draw(hst.sampled_from([slots[::-1], [t + 1 for t in slots], [-1] + slots]))
    names = ["slot_index", "load_kwh", "gen_kwh"]
    rows = [
        {"slot_index": ("int", t), "load_kwh": ("float", draw(_FLOAT)),
         "gen_kwh": ("float", draw(_FLOAT))}
        for t in slots
    ]
    return draw(_text(names, rows)), horizon + draw(hst.sampled_from([0, 0, 0, 1, -1]))


@hst.composite
def _orders(draw):
    names = ["agent_id", "side", "quantity", "limit_price"]
    slots = draw(hst.sampled_from([None, [3], [0, 0, 1]]))
    if slots is not None:
        names.append("slot")
    rows = []
    for k in range(draw(hst.integers(0, 5))):
        row = {"agent_id": ("id", draw(hst.sampled_from(["a", "b7", "c-1"]))),
               "side": ("side", draw(hst.sampled_from(["buy", "sell"]))),
               "quantity": ("float", draw(_FLOAT)), "limit_price": ("float", draw(_FLOAT))}
        if slots is not None:
            row["slot"] = ("int", slots[k % len(slots)])
        rows.append(row)
    return draw(_text(names, rows))


def _write(tmp, text):
    path = Path(tmp) / "table.csv"
    path.write_text(text, newline="")
    return path


class TestFastPathMatchesRows:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=_game())
    def test_game(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            event("%s by the %s path" % _assert_paths_agree(_read_game, _write(tmp, text)))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(drawn=_series())
    def test_series(self, drawn):
        text, horizon = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, text)
            event("%s by the %s path" % _assert_paths_agree(_series_reader(max(horizon, 0)), path))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(text=_orders())
    def test_orders(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            event("%s by the %s path" % _assert_paths_agree(_read_orders, _write(tmp, text)))

    @pytest.mark.parametrize(
        "text, fast",
        [
            ("agent_id,side,quantity,limit_price\nB1,buy,5,0.2\nS1,sell,1.5,0.1\n", True),
            ("side,limit_price,quantity,agent_id,slot\r\nbuy,0.2,5, B1 ,4\r\n\r\nsell,0,1,S1,4\r\n",
             True),
            ("agent_id,side,quantity,limit_price\nB1,buy,5,0.2\nS1, sell,1.5,0.1\n", False),
            ('agent_id,side,quantity,limit_price\n"B,1",buy,5,0.2\n', False),
            ("agent_id,side,quantity,limit_price\nB1,buy,0,0.2\n", False),
            ("agent_id,side,quantity,limit_price\nB1,buy,1,-0.2\n", False),
            # past ingest.ENERGY and ingest.PRICE: the row reader names the line
            ("agent_id,side,quantity,limit_price\nB1,buy,1e9,1e3\nS1,sell,1e10,0.1\n", False),
            ("agent_id,side,quantity,limit_price\nB1,buy,1e9,1e3\nS1,sell,1,1e308\n", False),
            ("agent_id,side,quantity,limit_price,slot\nB1,buy,1,0.2,3\nS1,sell,1,0.1,4\n", False),
            ("agent_id,side,quantity,limit_price,slot\nB1,buy,1,0.2,\n", False),
            ("agent_id,side,quantity,limit_price\nB1,buy,1,0.2\n  \n", False),
            ("agent_id,side,quantity,limit_price\n", False),
        ],
    )
    def test_orders_corpus(self, text, fast):
        with tempfile.TemporaryDirectory() as tmp:
            _, path_taken = _assert_paths_agree(_read_orders, _write(tmp, text))
            assert path_taken == ("columnar" if fast else "row")

    @pytest.mark.parametrize(
        "text, fast",
        [
            ("player,s0,utility\n0,0,1.5\n0,1,-2\n", True),
            ("player,s0,utility\r\n0,0,1.5\r\n\r\n0,1,-2\r\n", True),
            ("player,s0,utility\r0,0,1.5\r0,1,-2\r", True),
            ("utility,s0,player,source\n 1.5 ,0,0,pv\n-2,+1,0,\n", True),
            ("player,s0,utility\n0,0,1_000\n0,1,2\n", False),
            ("player,s0,utility\n0,0,1e500\n0,1,2\n", False),
            ("player,s0,utility\n0,0,nan\n0,1,2\n", False),
            ("player,s0,utility\n0,1.0,1\n0,0,2\n", False),
            ("player,s0,utility\n0,1e0,1\n0,0,2\n", False),
            ('player,s0,utility\n0,0,"1"\n0,1,2\n', False),
            ("player,s0,utility\n0,0,1\n#0,1,2\n", False),
            ("player,s0,utility\n0,0,1\n   \n0,1,2\n", False),
            ("player,s0,utility\n0,0,1\n0,1\n", False),
            ("player,s0,utility\n", False),
            ("player,s0,utility\n\n\n", False),
            # a repeated row and a missing one: the right row count, an incomplete tensor
            ("player,s0,utility\n0,0,1\n0,0,2\n0,2,3\n", False),
        ],
    )
    def test_game_corpus(self, text, fast):
        with tempfile.TemporaryDirectory() as tmp:
            _, path_taken = _assert_paths_agree(_read_game, _write(tmp, text))
            assert path_taken == ("columnar" if fast else "row")

    @pytest.mark.parametrize(
        "text, fast",
        [
            ("slot_index,load_kwh,gen_kwh\n0,1.5,2\n1,2.5,3\n", True),
            # numpy would split the quoted cell and read slot_index from `note`,
            # load_kwh from slot_index and gen_kwh from load_kwh
            ('source,note,slot_index,load_kwh,gen_kwh\n"a,b",0,0,1.5,2\n"a,b",1,1,2.5,3\n', False),
            ("slot_index,load_kwh,gen_kwh\n0,1.5,2\n2,2.5,3\n", False),
            ("slot_index,load_kwh,gen_kwh\n0,1.5,-2\n1,2.5,3\n", False),
            ("slot_index,load_kwh,gen_kwh\n0,1e9,0\n1,0,1e9\n", True),
            ("slot_index,load_kwh,gen_kwh\n0,1e9,0\n1,0,1.0000000000000001e9\n", False),
            ("slot_index,load_kwh,gen_kwh\n0,1e200,0\n1,0,1\n", False),
        ],
    )
    def test_series_corpus(self, text, fast):
        with tempfile.TemporaryDirectory() as tmp:
            _, path_taken = _assert_paths_agree(_series_reader(2), _write(tmp, text))
            assert path_taken == ("columnar" if fast else "row")

    def test_no_data_rows_is_none_under_any_warning_filter(self):
        # numpy only warns on a header-only file; `columns` must not rely on the caller's filter
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = _write(tmp, "player,s0,utility\n")
            assert ingest.columns(path, {}, ints=("player", "s0"), floats=("utility",)) is None

    def test_header_only_reports_no_rows(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, "player,s0,utility\n")
            with pytest.raises(GridswapError, match="no utility rows"):
                _read_game(path)

    def test_huge_index_allocates_nothing(self):
        # one row naming strategy 10**12: the row count check stops it before any tensor
        with tempfile.TemporaryDirectory() as tmp:
            path = _write(tmp, f"player,s0,utility\n0,{10**12},1\n")
            parsed = ingest.columns(path, {}, ints=("player", "s0"), floats=("utility",))
            assert cli._game_tensor(parsed, ("player", "s0")) is None
            with pytest.raises(GridswapError, match="expected 1000000000001 utility rows"):
                _read_game(path)


# each reader, its header and a data row numbered by {} so that ids stay distinct
_READERS = {
    "units": (lambda p: cli._read_agents(p, {}, storage.ResidentialUnit, "capacity",
                                         "reservation_price", "reluctance"),
              "id,capacity,reservation_price,reluctance", "r{},60,0.10,0.002"),
    "sfcs": (lambda p: cli._read_agents(p, {}, storage.SfcAgent, "requirement", "bid_price"),
             "id,requirement,bid_price", "s{},120,0.35"),
    "instance": (lambda p: cli._read_agents(p, {}, coalition.Customer, "role", "net_kwh"),
                 "id,role,net_kwh", "c{},user,-8"),
    "population": (lambda p: ev.read_ev_population_csv(p, {}),
                   "id,role,w,l1,l2,c_min,c_max,d_max", "v{},charging,1.9,,,6,15,"),
    "orders": (_read_orders, "agent_id,side,quantity,limit_price", "B{},buy,1,0.2"),
    "game": (_read_game, "player,s0,utility", "0,{},1.5"),
    "series": (_series_reader(1), "slot_index,load_kwh,gen_kwh", "{},0.5,1.5"),
}

# (newline, data rows before the bad one): the bad byte opens line rows + 2,
# and 1,000 rows put it past the first 8 KiB
_LAYOUTS = [("\n", 2), ("\r\n", 3), ("\r", 5), ("\n", 1000)]
_LAYOUT_IDS = ["lf", "crlf", "cr", "lf-past-8KiB"]


def _bad_byte_on_last_line(lines, newline):
    """The file's bytes, with \\xe9 opening a last line after `lines`, and that byte's offset."""
    before = "".join(line + newline for line in lines).encode()
    return before + b"\xe9" + lines[-1].encode() + newline.encode(), len(before)


class TestUndecodableByte:
    @pytest.mark.parametrize("newline, rows", _LAYOUTS, ids=_LAYOUT_IDS)
    @pytest.mark.parametrize("reader", list(_READERS))
    def test_reader_names_its_line_and_offset(self, tmp_path, reader, newline, rows):
        read, header, row = _READERS[reader]
        data, offset = _bad_byte_on_last_line([header] + [row.format(k) for k in range(rows)],
                                              newline)
        path = tmp_path / "table.csv"
        path.write_bytes(data)
        with pytest.raises(GridswapError) as info:
            read(path)
        assert str(info.value).startswith(f"{path}:{rows + 2}: 'utf-8' codec can't decode")
        assert f"byte 0xe9 in position {offset}:" in str(info.value)

    @pytest.mark.parametrize("newline, rows", _LAYOUTS, ids=_LAYOUT_IDS)
    def test_config_names_its_line_and_offset(self, tmp_path, newline, rows):
        lines = ["horizon = 2"] + [f"# note {k}" for k in range(rows)]
        data, offset = _bad_byte_on_last_line(lines, newline)
        path = tmp_path / "bad.cfg"
        path.write_bytes(data + b"agent = p1 prosumer -\n")
        with pytest.raises(GridswapError) as info:
            scenario.load_scenario(path)
        assert str(info.value).startswith(f"{path}:{rows + 2}: 'utf-8' codec can't decode")
        assert f"byte 0xe9 in position {offset}:" in str(info.value)
