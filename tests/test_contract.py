"""The CLI contract over extreme values, one test per subcommand.

Every number in a call's input is drawn from the edge values (0, the smallest
subnormal, the largest floats and each range of `ingest` at its bounds and at
the floats next to them), log-uniformly over 1e-300 to 1e300, or
log-uniformly inside its own kind's range, so that calls also succeed. Each
call either exits 0, every number it writes finite and the subcommand's
invariants holding (efficiency, budget balance, the price bracket), or exits 1
with exactly one line on stderr. pytest raises warnings as errors, so a numpy
overflow on the way fails the test too.
"""

import contextlib
import csv
import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as hst

from gridswap import ingest
from gridswap.cli import main

_MAX = float(np.finfo(float).max)
_KINDS = (ingest.ENERGY, ingest.PRICE, ingest.QUADRATIC, ingest.WILLINGNESS)
EDGES = sorted({0.0, 5e-324, _MAX, -_MAX} | {
    float(x) for kind in _KINDS for bound in kind[1:] if bound
    for x in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, math.inf))
})
# a few examples per test, the same ones on every run: about a second each
_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def value(kind: ingest.Range):
    """An edge value, a magnitude anywhere in 1e-300..1e300, or, as often as
    both together, one inside `kind`'s range."""
    low = math.log10(kind.smallest or 1e-12)
    inside = hst.floats(low, math.log10(kind.largest)).map(lambda e: 10.0 ** e)
    return hst.one_of(hst.sampled_from(EDGES), hst.floats(-300, 300).map(lambda e: 10.0 ** e),
                      inside, inside)


@contextlib.contextmanager
def _called(files: dict, *argv: str):
    """Run gridswap on `files`, written to a temporary directory (an argument
    naming one becomes its path), and yield (exit code, output directory)
    once the contract on the exit code, stderr and written numbers holds."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in files.items():
            (tmp / name).write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*(str(tmp / a) if a in files else a for a in argv),
                         "--out", str(tmp / "out"), "--quiet"])
        err = err.getvalue()
        if code == 1:
            assert err.startswith("gridswap: ") and err.count("\n") == 1, err
        else:
            assert code == 0 and err == "", err
            for written in (tmp / "out").iterdir():
                if written.name != "manifest.json":
                    for token in re.split(r"[\s,=]+", written.read_text()):
                        try:
                            number = float(token)
                        except ValueError:
                            continue
                        assert math.isfinite(number), (written.name, token)
        yield code, tmp / "out"


def _summary(out: Path, name: str = "summary.txt") -> dict:
    """A key = value file's values, as floats where numeric, None where blank."""
    pairs = (line.split(" = ") for line in (out / name).read_text().splitlines())
    return {k: float(v) if re.fullmatch(r"[-+.\deE]+|inf|nan", v) else v or None for k, v in pairs}


def _rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text())))


def _close(a: float, b: float, scale: float) -> bool:
    """a and b within 1e-9 of `scale` plus a picodollar (or picowatt-hour)."""
    return abs(a - b) <= 1e-9 * scale + 1e-12


def _table(header: str, rows) -> str:
    return header + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


@_SETTINGS
@given(orders=hst.lists(hst.tuples(hst.sampled_from("abc"), hst.sampled_from(["buy", "sell"]),
                                   value(ingest.ENERGY), value(ingest.PRICE)),
                        min_size=1, max_size=5),
       pricing=hst.sampled_from(["marginal_bid", "midpoint"]))
def test_clear(orders, pricing):
    rows = [(a, side, repr(q), repr(p)) for a, side, q, p in orders]
    files = {"orders.csv": _table("agent_id,side,quantity,limit_price", rows)}
    with _called(files, "clear", "--orders", "orders.csv", "--pricing", pricing) as (code, out):
        if code:
            return
        summary, matches = _summary(out, "clearing.txt"), _rows(out / "matches.csv")
        bids = [(q, p) for _, side, q, p in orders if side == "buy"]
        asks = [(q, p) for _, side, q, p in orders if side == "sell"]
        # efficiency: merit order trades the most any one uniform price can
        most = max((min(math.fsum(q for q, b in bids if b >= p),
                        math.fsum(q for q, a in asks if a <= p)) for _, p in bids + asks),
                   default=0.0)
        total = math.fsum(q for q, _ in bids + asks)
        assert _close(summary["matched_volume"], most, total)
        assert _close(math.fsum(float(m["quantity"]) for m in matches), most, total)
        # the price bracket: each match's buyer bids at least the price and its
        # seller asks at most the price
        price = summary["clearing_price"]
        for m in matches:
            assert any(p >= price for a, side, _, p in orders
                       if (a, side) == (m["buyer_id"], "buy"))
            assert any(p <= price for a, side, _, p in orders
                       if (a, side) == (m["seller_id"], "sell"))


@_SETTINGS
@given(members=hst.lists(hst.tuples(hst.sampled_from(["supplier", "user"]), value(ingest.ENERGY)),
                         min_size=1, max_size=5),
       prices=hst.tuples(value(ingest.PRICE), value(ingest.PRICE)).map(sorted),
       samples=hst.sampled_from([None, 1, 2, 3, 8]))
def test_shapley(members, prices, samples):
    nets = [q if role == "supplier" else -q for role, q in members]
    rows = [(f"m{k}", role, repr(e)) for k, ((role, _), e) in enumerate(zip(members, nets))]
    flags = ["--exact"] if samples is None else ["--samples", str(samples)]
    p_wp, p_rp = prices
    with _called({"instance.csv": _table("id,role,net_kwh", rows)}, "shapley",
                 "--instance", "instance.csv", *flags, f"--p-wp={p_wp!r}", f"--p-rp={p_rp!r}"
                 ) as (code, out):
        if code:
            return
        summary = _summary(out)
        payoffs = [float(row["payoff"]) for row in _rows(out / "allocation.csv")]
        # the rounding ingest.ENERGY's comment states, with room for the sums' order
        tol = 64 * len(nets) * max(map(abs, nets)) * p_rp * 2.0**-52 + 1e-12
        # efficiency, which is budget balance for a coalition
        assert abs(summary["total_payoff"] - summary["grand_value"]) <= tol
        # the price bracket: every member trades between p_wp and p_rp per kWh
        for e, x in zip(nets, payoffs):
            assert min(p_wp * e, p_rp * e) - tol <= x <= max(p_wp * e, p_rp * e) + tol


@_SETTINGS
@given(units=hst.lists(hst.tuples(value(ingest.ENERGY), value(ingest.PRICE),
                                  value(ingest.QUADRATIC)), min_size=1, max_size=3),
       sfcs=hst.lists(hst.tuples(value(ingest.ENERGY), value(ingest.PRICE)),
                      min_size=1, max_size=3),
       rule=hst.sampled_from(["proportional", "equal"]))
def test_storage_auction(units, sfcs, rule):
    files = {
        "rus.csv": _table("id,capacity,reservation_price,reluctance",
                          [(f"r{k}", *map(repr, u)) for k, u in enumerate(units)]),
        "sfcs.csv": _table("id,requirement,bid_price",
                           [(f"s{k}", *map(repr, s)) for k, s in enumerate(sfcs)]),
    }
    with _called(files, "storage-auction", "--rus", "rus.csv", "--sfcs", "sfcs.csv",
                 "--rule", rule) as (code, out):
        if code:
            return
        summary = _summary(out)
        price = summary["auction_price"]
        if price is None:
            return
        wanted = {f"s{k}": s for k, s in enumerate(sfcs)}
        taken = {row["id"]: float(row["allocated_kwh"]) for row in _rows(out / "sfcs.csv")}
        # the price bracket: from the Vickrey price to the top participating bid
        top = max(wanted[sid][1] for sid in taken)
        assert summary["vickrey_price"] <= price <= top * (1 + 2.0**-50)
        for sid, got in taken.items():
            assert 0 <= got <= wanted[sid][0]
        for row in _rows(out / "units.csv"):
            assert 0 <= float(row["burden_kwh"]) <= float(row["share_kwh"])
        shared, sold = summary["total_shared_kwh"], summary["total_allocated_kwh"]
        # budget balance: the units are paid for the space the SFCs pay for
        assert _close(shared - summary["total_burden_kwh"], sold, shared)
        # efficiency: space is left over only once every SFC bidding the price is full
        if summary["total_burden_kwh"] > 1e-9 * shared + 1e-12:
            assert all(_close(got, wanted[sid][0], shared) for sid, got in taken.items()
                       if wanted[sid][1] >= price)


@_SETTINGS
@given(chargers=hst.lists(hst.tuples(value(ingest.WILLINGNESS), value(ingest.ENERGY),
                                     hst.none() | value(ingest.ENERGY)), min_size=1, max_size=3),
       sellers=hst.lists(hst.tuples(value(ingest.QUADRATIC), value(ingest.PRICE),
                                    value(ingest.ENERGY)), min_size=1, max_size=3))
def test_ev_auction(chargers, sellers):
    rows = [(f"c{k}", "charging", repr(w), "", "", repr(lo), "" if hi is None else repr(hi), "")
            for k, (w, lo, hi) in enumerate(chargers)]
    rows += [(f"d{k}", "discharging", "", repr(l1), repr(l2), "", "", repr(d))
             for k, (l1, l2, d) in enumerate(sellers)]
    files = {"pop.csv": _table("id,role,w,l1,l2,c_min,c_max,d_max", rows)}
    with _called(files, "ev-auction", "--population", "pop.csv", "--max-iter", "40"
                 ) as (code, out):
        if code:
            return
        summary = _summary(out)
        cash = {side: math.fsum(float(r["cash"]) for r in _rows(out / "settlement.csv")
                                if r["side"] == side) for side in ("buyer", "seller")}
        # budget balance: buyers pay what sellers receive
        assert _close(cash["buyer"], cash["seller"], cash["buyer"])
        assert summary["price"] is None or summary["price"] >= 0
        if summary["converged"] == "True":
            # efficiency: certified within eps of the optimum
            assert summary["gap"] <= 1e-4 and summary["feasibility_residual"] <= 1e-9


@_SETTINGS
@given(mechanism=hst.sampled_from(["double_auction", "coalition"]),
       series=hst.lists(hst.lists(hst.tuples(value(ingest.ENERGY), value(ingest.ENERGY)),
                                  min_size=2, max_size=2), min_size=1, max_size=3),
       prices=hst.tuples(value(ingest.PRICE), value(ingest.PRICE)).map(sorted),
       seed=hst.sampled_from([0, 7, 2**63, 2**64, 10**20]))
def test_config_run(mechanism, series, prices, seed):
    p_wp, p_rp = prices
    files = {f"a{k}.csv": _table("slot_index,load_kwh,gen_kwh",
                                 [(t, repr(load), repr(gen)) for t, (load, gen) in enumerate(s)])
             for k, s in enumerate(series)}
    files["run.cfg"] = (f"mechanism = {mechanism}\nhorizon = 2\nseed = {seed}\n"
                        f"p_wp = {p_wp!r}\np_rp = {p_rp!r}\n"
                        + "".join(f"agent = a{k} prosumer a{k}.csv\n" for k in range(len(series))))
    with _called(files, "run", "--config", "run.cfg") as (code, out):
        if code:
            return
        system = _summary(out)
        report = _rows(out / "report.csv")
        net = math.fsum(float(r["revenue"]) - float(r["bill"]) for r in report)
        scale = p_rp * math.fsum(load + gen for s in series for load, gen in s)
        if mechanism == "coalition":
            # efficiency: the members share each slot's pooled value exactly
            pooled = [math.fsum(gen - load for load, gen in (s[t] for s in series))
                      for t in range(2)]
            value_of = math.fsum(p_wp * x if x > 0 else p_rp * x for x in pooled)
            assert abs(net - value_of) <= 64 * len(series) * scale * 2.0**-52 + 1e-12
        else:
            # budget balance: peer cash cancels, leaving the grid's
            grid = p_wp * system["grid_export_kwh"] - p_rp * system["grid_import_kwh"]
            assert _close(net, grid, scale)
            # the price bracket: every kWh trades between p_wp and p_rp
            for key in ("avg_buy_price", "avg_sell_price"):
                if system[key] is not None:
                    assert p_wp * (1 - 1e-9) - 1e-12 <= system[key] <= p_rp * (1 + 1e-9) + 1e-12
