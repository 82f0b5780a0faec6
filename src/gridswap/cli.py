"""Command-line interface.

main checks that every input path is a regular file before it creates the
output directory. Each subcommand then writes deterministic files there
through one _Out, and main drops a manifest.json recording the command, the
seed, the sha256 of every file the call read (the series files a scenario
config names included), as the reader that parsed it recorded it in
`_Out.sources`, and the names of the files it wrote, so a run can be
reproduced byte for byte.

Exit codes: 0 success, 1 domain error (bad data, infeasible instance),
2 usage error (unknown flags, input paths that are not regular files, an
--out that cannot be a directory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import coalition as co
from . import ev as evx
from . import games
from . import ingest
from . import market as mk
from . import scenario as sim
from . import storage as st
from .errors import GridswapError, InputError, SizeError
from .ingest import finite, integer

# ic-check prices about 170 misreported auctions per trial
_MAX_TRIALS = 10_000
# 20x the default; an auction that never meets --eps runs every iteration
_MAX_ITER = 10_000


def _fmt(value) -> str:
    # floats and strings are most cells, so they are tested first
    if isinstance(value, float):
        return repr(float(value))
    if isinstance(value, str):
        return str(value)
    if value is None:
        return ""
    return str(value)


class _Out:
    """One call's output directory and the names written into it.

    Every output goes through these methods, so the manifest lists exactly
    what the call wrote. `sources` maps each file the call read to the
    sha256 of the bytes its reader parsed (see `ingest`).
    """

    def __init__(self, directory: Path):
        self.dir = directory
        self.written: set[str] = set()
        self.sources: dict[Path, str] = {}

    def _path(self, name: str) -> Path:
        self.written.add(name)
        return self.dir / name

    def text(self, name: str, text: str) -> None:
        self._path(name).write_text(text)

    def rows(self, name: str, header: list[str], rows) -> None:
        """Write a CSV whose cells are already text, byte for byte as csv.writer would.

        The table is joined into one text. csv.writer renders it instead only
        if some cell needs quoting: a comma or LF in a cell makes more commas
        or newlines than the cell and row counts allow, a quote or CR is found
        by `in`, and a row of one empty cell (written `""`) leaves an empty
        line. A NUL goes to csv.writer too, which refuses it on Python 3.10.
        """
        table = [header, *rows]
        text = "\n".join(map(",".join, table)) + "\n"
        if (text.count(",") != sum(map(len, table)) - len(table)
                or text.count("\n") != len(table) or text.startswith("\n") or "\n\n" in text
                or '"' in text or "\r" in text or "\0" in text):
            buffer = io.StringIO()
            csv.writer(buffer, lineterminator="\n").writerows(table)
            text = buffer.getvalue()
        with self._path(name).open("w", newline="") as fh:
            fh.write(text)

    def csv(self, name: str, header: list[str], rows) -> None:
        self.rows(name, header, ([_fmt(v) for v in row] for row in rows))

    def kv(self, name: str, pairs: dict) -> None:
        self.text(name, "\n".join(f"{k} = {_fmt(v)}" for k, v in pairs.items()) + "\n")


def _manifest(out: _Out, args, argv: list[str]) -> None:
    doc = {
        "command": args.command,
        "argv": argv,
        "inputs": {str(p): out.sources[p] for p in sorted(out.sources)},
        "outputs": sorted(out.written),
        "package": "gridswap",
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    (out.dir / "manifest.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _progress(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# input readers


def _order_books(cols) -> tuple[mk.Book, mk.Book] | None:
    """The bids and asks in parsed order columns, or None unless the row
    reader would accept every row and find one slot."""
    side, quantity, price = cols["side"], cols["quantity"], cols["limit_price"]
    buy, sell = side == "buy", side == "sell"
    slot = cols.get("slot")
    if not ((buy | sell).all() and (slot is None or (slot == slot[0]).all())):
        return None
    ids = np.array([aid.strip() for aid in cols["agent_id"].tolist()], dtype=object)
    try:
        return (mk.Book(ids[buy], quantity[buy], price[buy]),
                mk.Book(ids[sell], quantity[sell], price[sell]))
    except InputError:  # a bad order: the row reader names its line
        return None


def _read_orders(path: Path, sources: dict) -> tuple[mk.Book, mk.Book]:
    """The file's bids and asks; every order must name the same slot."""
    needed = ("agent_id", "side", "quantity", "limit_price")
    cols = ingest.columns(path, sources, floats=needed[2:], strings=needed[:2],
                          ints=lambda header: ("slot",) if "slot" in header else ())
    books = None if cols is None else _order_books(cols)
    if books is not None:
        return books
    orders = {"buy": ([], [], []), "sell": ([], [], [])}
    slots = set()
    with ingest.table(path, needed, sources) as table:
        for agent, side, quantity, price, slot in table.rows(*needed, "slot"):
            side, quantity, price = side.strip(), finite(quantity), finite(price)
            slots.add(int(slot or 0))
            if side not in orders:
                raise InputError(f"order side must be 'buy' or 'sell', got {side!r}")
            mk.check_order(quantity, price)
            for column, value in zip(orders[side], (agent.strip(), quantity, price)):
                column.append(value)
    if len(slots) > 1:
        raise InputError(f"orders span multiple slots: {sorted(slots)}")
    return mk.Book(*orders["buy"]), mk.Book(*orders["sell"])


def _read_agents(path: Path, sources: dict, build, *columns: str) -> list:
    """`build(id, *cells)` of each row's id and `columns`: the ids distinct and
    stripped, a role stripped and every other cell a finite number."""
    with ingest.table(path, ("id", *columns), sources) as table:
        return [build(aid.strip(), *(cell.strip() if name == "role" else finite(cell)
                                     for name, cell in zip(columns, cells)))
                for aid, *cells in ingest.distinct_ids(table.rows("id", *columns))]


def _game_tensor(cols, index) -> np.ndarray | None:
    """The utility tensor from parsed columns, or None unless they fill it exactly once.

    The row count must equal players * prod(dims) before anything is
    allocated, so a huge index cannot ask for a huge tensor.
    """
    keys = np.stack([cols[name] for name in index])
    if keys.min() < 0:
        return None
    shape = tuple(int(m) + 1 for m in keys.max(axis=1))
    if shape[0] != len(index) - 1 or keys.shape[1] != math.prod(shape):
        return None
    flat = np.ravel_multi_index(keys, shape)
    if not (np.bincount(flat, minlength=keys.shape[1]) == 1).all():
        return None
    u = np.empty(shape)
    u.flat[flat] = cols["utility"]
    return u


def _game_index(header) -> tuple[str, ...]:
    """The player column and the strategy columns s0, s1, ... the header
    names; any other column is ignored."""
    n = next(k for k in itertools.count() if f"s{k}" not in header)
    return ("player", *(f"s{k}" for k in range(n)))


def _read_game(path: Path, sources: dict) -> games.FiniteGame:
    """The game the file tabulates."""
    cols = ingest.columns(path, sources, ints=_game_index, floats=("utility",))
    # the int columns, player and strategies, come before utility
    u = None if cols is None else _game_tensor(cols, tuple(cols)[:-1])
    if u is not None:
        return games.FiniteGame(u)
    entries = {}
    with ingest.table(path, ("player", "utility"), sources) as table:
        index = _game_index(table.header)
        n = len(index) - 1
        for utility, *key in table.rows("utility", *index):
            key = tuple(map(int, key))
            if min(key) < 0:
                raise InputError(f"player and strategy indices must be >= 0, got {key}")
            if key in entries:
                raise InputError(f"repeated row for player {key[0]}, profile {key[1:]}")
            entries[key] = finite(utility)
    if not entries:
        raise InputError(f"{path}: no utility rows")
    dims = tuple(max(k[i + 1] for k in entries) + 1 for i in range(n))
    players = max(k[0] for k in entries) + 1
    if players != n:
        raise InputError(
            f"{path}: {players} players but {n} strategy columns"
        )
    expected = players * math.prod(dims)
    if len(entries) != expected:
        raise InputError(
            f"{path}: expected {expected} utility rows for a complete tensor, got {len(entries)}"
        )
    u = np.empty((players,) + dims)
    for key, val in entries.items():
        u[key] = val
    return games.FiniteGame(u)


# ---------------------------------------------------------------------------
# subcommands


_REPORT_COLUMNS = (
    "id", "role", "bill", "revenue", "fit_bill", "fit_revenue", "savings", "savings_pct",
    "energy_bought_kwh", "energy_sold_kwh", "utility",
)


def _scenario(args, out: _Out) -> sim.Scenario:
    """The --config scenario under --seed, the config and its series files
    recorded for the manifest."""
    scenario = sim.load_scenario(args.config)
    out.sources.update(scenario.sources)
    if args.seed is not None:
        scenario.seed = args.seed
    return scenario


def _cmd_run(args, out: _Out) -> None:
    scenario = _scenario(args, out)
    _progress(args, f"running {scenario.mechanism} scenario over {scenario.horizon} slots")
    report = sim.run_simulation(scenario)

    agent_rows = [[aid, *(report.per_agent[aid][k] for k in _REPORT_COLUMNS[1:])]
                  for aid in report.agent_ids()]
    out.csv("report.csv", list(_REPORT_COLUMNS), agent_rows)
    out.kv("summary.txt", dict(sorted(report.system.items())))

    rows, notes = sim.compare_baselines(scenario, report)
    if rows:
        header = sorted(rows[0])
        out.csv("baselines.csv", header, [[r.get(k) for k in header] for r in rows])
    out.text("baseline_notes.txt", "".join(n + "\n" for n in notes))


def _cmd_clear(args, out: _Out) -> None:
    buys, sells = _read_orders(args.orders, out.sources)
    clearing = mk.clear_double_auction(buys, sells, pricing=args.pricing)
    out.rows(
        "matches.csv",
        ["buyer_id", "seller_id", "quantity", "price"],
        zip(clearing.buyer_ids, clearing.seller_ids, map(repr, clearing.quantities),
            itertools.repeat(_fmt(clearing.clearing_price))),
    )
    residuals = [
        (aid, side, repr(qty))
        for side, residual in (("buy", clearing.residual_buys), ("sell", clearing.residual_sells))
        for aid, qty in sorted(residual.items())
    ]
    out.rows("residuals.csv", ["agent_id", "side", "quantity"], residuals)
    out.kv(
        "clearing.txt",
        {
            "clearing_price": clearing.clearing_price,
            "matched_volume": clearing.matched_volume,
            "matches": len(clearing.quantities),
        },
    )


def _cmd_ev_auction(args, out: _Out) -> None:
    chargers, dischargers = evx.read_ev_population_csv(args.population, out.sources)
    _progress(args, f"{len(chargers)} charging / {len(dischargers)} discharging vehicles")
    alloc, result = evx.run_iterative_auction(
        chargers, dischargers, eta=args.eta, eps=args.eps, max_iter=args.max_iter
    )
    j, i = np.nonzero(alloc.sent > 1e-12)
    sent = alloc.sent[j, i]
    rows = zip([dischargers[k].id for k in j.tolist()], [chargers[k].id for k in i.tolist()],
               sent.tolist(), (alloc.eta * sent).tolist())
    out.csv("allocation.csv", ["from", "to", "sent_kwh", "delivered_kwh"], rows)
    out.csv(
        "trace.csv",
        ["iteration", "welfare", "gap", "max_price_change"],
        [list(row) for row in result.trace.checks],
    )
    settle_rows = [
        ["buyer", cid, cash] for cid, cash in sorted(result.settlement.buyer_payments.items())
    ] + [
        ["seller", sid, cash] for sid, cash in sorted(result.settlement.seller_receipts.items())
    ]
    out.csv("settlement.csv", ["side", "agent_id", "cash"], settle_rows)
    out.kv(
        "summary.txt",
        {
            "converged": result.trace.converged,
            "iterations": result.trace.iterations,
            "price": result.settlement.price,
            "welfare": result.trace.checks[-1][1],
            "gap": result.trace.checks[-1][2],
            "feasibility_residual": result.trace.residual,
        },
    )


def _cmd_shapley(args, out: _Out) -> None:
    tariff = mk.Tariff(p_wp=args.p_wp, p_rp=args.p_rp)
    customers = _read_agents(args.instance, out.sources, co.Customer, "role", "net_kwh")
    instance = co.CoalitionInstance(tuple(customers), tariff)
    if args.exact:
        alloc = co.shapley_exact(instance)
        method = "exact"
    else:
        alloc = co.shapley_monte_carlo(instance, args.samples, seed=args.seed)
        method = f"monte_carlo[{args.samples}]"
    prices = {p.customer_id: p for p in co.implied_p2p_prices(instance, alloc)}
    rows = []
    for c in instance.customers:
        p = prices.get(c.id)
        rows.append(
            [
                c.id,
                c.role,
                c.net_energy,
                alloc.payoffs[c.id],
                p.price if p else None,
                p.within_band if p else None,
            ]
        )
    out.csv("allocation.csv", ["id", "role", "net_kwh", "payoff", "implied_price", "within_band"],
            rows)
    # the core check runs at every exact size; above it both keys stay blank
    try:
        shortfall, ids = co.core_shortfall(alloc, instance)
    except SizeError:
        shortfall = ids = None
    blocking = None if ids is None else ";".join(ids)
    # the largest member's standard error; blank when exact or from under two
    # antithetic pairs
    error = None if alloc.standard_error is None else max(alloc.standard_error.values())
    out.kv(
        "summary.txt",
        {
            "method": method,
            "grand_value": co.coalition_value(instance.customers, tariff),
            "total_payoff": alloc.total(),
            "core_shortfall": shortfall,
            "blocking_coalition": blocking,
            "standard_error": error,
        },
    )


def _cmd_storage_auction(args, out: _Out) -> None:
    rus = _read_agents(args.rus, out.sources, st.ResidentialUnit,
                       "capacity", "reservation_price", "reluctance")
    sfcs = _read_agents(args.sfcs, out.sources, st.SfcAgent, "requirement", "bid_price")
    outcome = st.run_storage_auction(rus, sfcs, rule=args.rule)
    ru_rows = [
        [
            rid,
            outcome.shares.get(rid),
            outcome.burdens.get(rid),
            outcome.ru_utilities.get(rid),
        ]
        for rid in sorted(outcome.participating_rus)
    ]
    out.csv("units.csv", ["id", "share_kwh", "burden_kwh", "utility"], ru_rows)
    sfc_rows = [
        [sid, outcome.sfc_allocations.get(sid), outcome.sfc_utilities.get(sid)]
        for sid in sorted(outcome.participating_sfcs)
    ]
    out.csv("sfcs.csv", ["id", "allocated_kwh", "utility"], sfc_rows)
    out.kv(
        "summary.txt",
        {
            "vickrey_price": outcome.vickrey_price,
            "auction_price": outcome.auction_price,
            "total_shared_kwh": outcome.total_shared(),
            "total_allocated_kwh": outcome.total_allocated(),
            "total_burden_kwh": outcome.total_burden(),
            "rule": args.rule,
        },
    )


def _cmd_ic_check(args, out: _Out) -> None:
    scenarios = st.make_ic_scenarios(args.trials, seed=args.seed, rule=args.rule)
    _progress(args, f"searching misreports across {args.trials} scenarios")
    report = st.check_incentive_compatibility(scenarios)
    out.csv(
        "ic_violations.csv",
        ["scenario", "agent_id", "parameter", "factor", "gain"],
        report.profitable_deviations,
    )
    out.csv("ir_violations.csv", ["scenario", "agent_id", "utility"], report.ir_violations)
    out.kv(
        "summary.txt",
        {
            "scenarios": report.scenarios_checked,
            "deviations_checked": report.deviations_checked,
            "auctions_priced": report.auctions_priced,
            "auctions_searched": report.auctions_searched,
            "profitable_deviations": len(report.profitable_deviations),
            "largest_gain": report.largest_gain,
            "ir_violations": len(report.ir_violations),
            "clean": report.clean,
            "factor_low": min(st._FACTORS),
            "factor_high": max(st._FACTORS),
            "factors": len(st._FACTORS),
        },
    )


def _cmd_nash(args, out: _Out) -> None:
    game = _read_game(args.game, out.sources)
    equilibria = games.find_pure_nash(game)
    out.csv(
        "equilibria.csv",
        [f"s{k}" for k in range(game.n_players)],
        [list(profile) for profile in equilibria],
    )
    out.kv(
        "summary.txt",
        {
            "players": game.n_players,
            "strategies": "x".join(str(k) for k in game.strategy_counts),
            "pure_equilibria": len(equilibria),
        },
    )


def _cmd_sweep(args, out: _Out) -> None:
    scenario = _scenario(args, out)
    values = [v for v in args.values.split(",") if v.strip() != ""]
    _progress(args, f"sweeping {len(values)} points")
    rows = sim.sweep(scenario, args.param, values)
    header = list(rows[0]) if rows else ["value"]
    out.csv("sweep.csv", header, [[r.get(k) for k in header] for r in rows])


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later one.

    It holds only fixed configuration, and each parse_args returns a fresh
    Namespace, so no state carries from one main() call to the next. Callers
    must not change it.
    """
    parser = argparse.ArgumentParser(
        prog="gridswap",
        description="Peer-to-peer energy trading simulations",
    )
    parser.add_argument("--version", action="version", version=f"gridswap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, **inputs):
        """A subparser whose required path flags, named by keyword, map to their labels."""
        p = sub.add_parser(name, help=help)
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True)
        p.set_defaults(handler=handler, inputs=inputs)
        return p

    # a flag that gives a setting of a scenario config parses it as the config does
    setting = sim.SETTINGS

    def common(p, seed_default=None):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=setting["seed"].parse, default=seed_default,
                       help="random seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress text")

    p = command("run", _cmd_run, "run a full scenario simulation", config="config file")
    common(p)

    p = command("clear", _cmd_clear, "clear one slot's double auction from an orders CSV",
                orders="orders file")
    p.add_argument("--pricing", choices=["marginal_bid", "midpoint"], default="marginal_bid")
    common(p)

    p = command("ev-auction", _cmd_ev_auction, "EV price auction from a population CSV",
                population="population file")
    p.add_argument("--eta", type=setting["eta"].parse, default=setting["eta"].default)
    p.add_argument("--eps", type=setting["eps"].parse, default=setting["eps"].default,
                   help="stop once the certified welfare gap is at most this ($)")
    p.add_argument("--max-iter", type=integer(1, _MAX_ITER), default=evx.DEFAULT_MAX_ITER,
                   help="at most this many price steps; a stop here is reported unconverged")
    common(p)

    p = command("shapley", _cmd_shapley, "coalition payoff division from an instance CSV",
                instance="instance file")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=setting["mc_samples"].parse, default=50_000)
    p.add_argument("--p-wp", type=finite, default=mk.DEFAULT_TARIFF.p_wp)
    p.add_argument("--p-rp", type=finite, default=mk.DEFAULT_TARIFF.p_rp)
    common(p, seed_default=0)

    p = command("storage-auction", _cmd_storage_auction,
                "storage-sharing auction from RU/SFC CSVs",
                rus="residential-units file", sfcs="SFC file")
    p.add_argument("--rule", choices=setting["rule"].parse, default=setting["rule"].default)
    common(p)

    p = command("ic-check", _cmd_ic_check, "search storage-auction misreports for profit")
    p.add_argument("--trials", type=integer(1, _MAX_TRIALS), default=100)
    p.add_argument("--rule", choices=setting["rule"].parse, default=setting["rule"].default)
    common(p, seed_default=0)

    p = command("nash", _cmd_nash, "enumerate pure equilibria of a small game CSV",
                game="game file")
    common(p)

    p = command("sweep", _cmd_sweep, "run a parameter sweep over a scenario",
                config="config file")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    common(p)

    return parser


def _error(message: str, code: int) -> int:
    print(f"gridswap: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Check the inputs, make --out, run the subcommand and write its manifest."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(argv)
    for flag, label in args.inputs.items():
        path = Path(getattr(args, flag))
        if not path.is_file():
            return _error(f"{label} {path} "
                          + ("is not a regular file" if path.exists() else "not found"), 2)
        setattr(args, flag, path)
    out = _Out(Path(args.out))
    try:
        out.dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _error(f"--out {out.dir} cannot be made a directory ({exc.strerror})", 2)
    try:
        args.handler(args, out)
    except GridswapError as exc:
        return _error(str(exc), 1)
    _manifest(out, args, argv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
