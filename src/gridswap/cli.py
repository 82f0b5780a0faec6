"""Command-line interface.

Every subcommand reads its inputs, writes deterministic files into the output
directory, and drops a manifest.json recording the command, the seed, and
sha256 digests of every input so a run can be reproduced byte for byte.

Exit codes: 0 success, 1 domain error (bad data, infeasible instance),
2 usage error (unknown flags, missing input paths).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
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
from .errors import GridswapError, InputError
from .ingest import finite, finite_over, nonnegative, positive, positive_up_to

# ic-check prices about 170 misreported auctions per trial
_MAX_TRIALS = 10_000
# 20x the default; an auction that never meets --eps runs every iteration
_MAX_ITER = 10_000


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, np.bool_):
        return str(bool(value))
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_rows(path: Path, header: list[str], rows) -> None:
    """Write a CSV whose cells are already text."""
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_csv(path: Path, header: list[str], rows) -> None:
    _write_rows(path, header, ([_fmt(v) for v in row] for row in rows))


def _write_kv(path: Path, pairs: dict) -> None:
    lines = [f"{k} = {_fmt(v)}" for k, v in pairs.items()]
    path.write_text("\n".join(lines) + "\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _manifest(out_dir: Path, args, inputs: list[Path], outputs: list[str]) -> None:
    doc = {
        "command": args.command,
        "argv": sys.argv[1:] if args.from_argv else args.raw_argv,
        "inputs": {str(p): _sha256(p) for p in sorted(set(inputs))},
        "outputs": sorted(outputs),
        "package": "gridswap",
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n"
    )


def _progress(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _require(path_text: str, what: str) -> Path:
    path = Path(path_text)
    if not path.exists():
        raise FileNotFoundError(f"{what} {path} not found")
    return path


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# input readers


def _order_books(cols) -> tuple[mk.Book, mk.Book] | None:
    """The bids and asks in parsed order columns, or None unless the row
    reader would accept every row and find one slot."""
    side, quantity, price = cols["side"], cols["quantity"], cols["limit_price"]
    buy, sell = side == "buy", side == "sell"
    slot = cols.get("slot")
    if not ((buy | sell).all() and (quantity > 0).all() and (price >= 0).all()
            and (slot is None or (slot == slot[0]).all())):
        return None
    ids = np.array([aid.strip() for aid in cols["agent_id"].tolist()], dtype=object)
    return (mk.Book(ids[buy], quantity[buy], price[buy]),
            mk.Book(ids[sell], quantity[sell], price[sell]))


def _read_orders(path: Path) -> tuple[mk.Book, mk.Book]:
    """The file's bids and asks; every order must name the same slot."""
    needed = ("agent_id", "side", "quantity", "limit_price")
    with ingest.table(path, needed) as table:
        slot = ("slot",) if "slot" in table.header else ()
        cols = ingest.columns(path, ints=slot, floats=needed[2:], strings=needed[:2])
        books = None if cols is None else _order_books(cols)
        if books is not None:
            return books
        orders = {"buy": ([], [], []), "sell": ([], [], [])}
        slots = set()
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


def _read_instance(path: Path, tariff: mk.Tariff) -> co.CoalitionInstance:
    needed = ("id", "role", "net_kwh")
    with ingest.table(path, needed) as table:
        customers = tuple(
            co.Customer(cid.strip(), role.strip(), finite(net))
            for cid, role, net in ingest.distinct_ids(table.rows(*needed))
        )
    return co.CoalitionInstance(customers, tariff)


def _read_rus(path: Path):
    needed = ("id", "capacity", "reservation_price", "reluctance")
    with ingest.table(path, needed) as table:
        return [
            st.ResidentialUnit(rid.strip(), finite(capacity), finite(reservation), finite(alpha))
            for rid, capacity, reservation, alpha in ingest.distinct_ids(table.rows(*needed))
        ]


def _read_sfcs(path: Path):
    needed = ("id", "requirement", "bid_price")
    with ingest.table(path, needed) as table:
        return [
            st.SfcAgent(sid.strip(), finite(requirement), finite(bid))
            for sid, requirement, bid in ingest.distinct_ids(table.rows(*needed))
        ]


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


def _read_game(path: Path) -> games.FiniteGame:
    with ingest.table(path, ("player", "utility")) as table:
        # the strategy columns are s0, s1, ... by name; any other column is ignored
        n = next(k for k in itertools.count() if f"s{k}" not in table.header)
        index = ("player", *(f"s{k}" for k in range(n)))
        cols = ingest.columns(path, ints=index, floats=("utility",))
        u = None if cols is None else _game_tensor(cols, index)
        if u is not None:
            return games.FiniteGame(u)
        entries = {}
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


def _cmd_run(args) -> int:
    config = _require(args.config, "config file")
    out = _out_dir(args)
    scenario = sim.load_scenario(config)
    if args.seed is not None:
        scenario.seed = args.seed
    _progress(args, f"running {scenario.mechanism} scenario over {scenario.horizon} slots")
    report = sim.run_simulation(scenario)

    agent_rows = [[aid, *(report.per_agent[aid][k] for k in _REPORT_COLUMNS[1:])]
                  for aid in report.agent_ids()]
    _write_csv(out / "report.csv", list(_REPORT_COLUMNS), agent_rows)
    _write_kv(out / "summary.txt", dict(sorted(report.system.items())))

    outputs = ["report.csv", "summary.txt", "baseline_notes.txt"]
    rows, notes = sim.compare_baselines(scenario, report)
    if rows:
        header = sorted(rows[0])
        _write_csv(out / "baselines.csv", header, [[r.get(k) for k in header] for r in rows])
        outputs.append("baselines.csv")
    (out / "baseline_notes.txt").write_text("".join(n + "\n" for n in notes))

    _manifest(out, args, [config], outputs)
    return 0


def _cmd_clear(args) -> int:
    orders_path = _require(args.orders, "orders file")
    out = _out_dir(args)
    buys, sells = _read_orders(orders_path)
    clearing = mk.clear_double_auction(buys, sells, pricing=args.pricing)
    buyers, sellers, quantities = zip(*clearing.matches) if clearing.matches else ((), (), ())
    _write_rows(
        out / "matches.csv",
        ["buyer_id", "seller_id", "quantity", "price"],
        zip(buyers, sellers, map(repr, quantities),
            itertools.repeat(_fmt(clearing.clearing_price))),
    )
    residuals = [
        (aid, side, repr(qty))
        for side, residual in (("buy", clearing.residual_buys), ("sell", clearing.residual_sells))
        for aid, qty in sorted(residual.items())
    ]
    _write_rows(out / "residuals.csv", ["agent_id", "side", "quantity"], residuals)
    _write_kv(
        out / "clearing.txt",
        {
            "clearing_price": clearing.clearing_price,
            "matched_volume": clearing.matched_volume,
            "matches": len(clearing.matches),
        },
    )
    _manifest(out, args, [orders_path], ["matches.csv", "residuals.csv", "clearing.txt"])
    return 0


def _cmd_ev_auction(args) -> int:
    pop_path = _require(args.population, "population file")
    out = _out_dir(args)
    chargers, dischargers = evx.read_ev_population_csv(pop_path)
    _progress(args, f"{len(chargers)} charging / {len(dischargers)} discharging vehicles")
    alloc, result = evx.run_iterative_auction(
        chargers, dischargers, eta=args.eta, eps=args.eps, max_iter=args.max_iter
    )
    rows = []
    for j, s in enumerate(dischargers):
        for i, c in enumerate(chargers):
            if alloc.sent[j, i] > 1e-12:
                rows.append([s.id, c.id, alloc.sent[j, i], alloc.eta * alloc.sent[j, i]])
    _write_csv(out / "allocation.csv", ["from", "to", "sent_kwh", "delivered_kwh"], rows)
    _write_csv(
        out / "trace.csv",
        ["iteration", "welfare", "gap", "max_price_change"],
        [list(row) for row in result.trace.checks],
    )
    settle_rows = [
        ["buyer", cid, cash] for cid, cash in sorted(result.settlement.buyer_payments.items())
    ] + [
        ["seller", sid, cash] for sid, cash in sorted(result.settlement.seller_receipts.items())
    ]
    _write_csv(out / "settlement.csv", ["side", "agent_id", "cash"], settle_rows)
    _write_kv(
        out / "summary.txt",
        {
            "converged": result.trace.converged,
            "iterations": result.trace.iterations,
            "price": result.settlement.price,
            "welfare": result.trace.checks[-1][1],
            "gap": result.trace.checks[-1][2],
            "feasibility_residual": result.trace.residual,
        },
    )
    _manifest(
        out, args, [pop_path],
        ["allocation.csv", "trace.csv", "settlement.csv", "summary.txt"],
    )
    return 0


def _cmd_shapley(args) -> int:
    inst_path = _require(args.instance, "instance file")
    out = _out_dir(args)
    tariff = mk.Tariff(p_wp=args.p_wp, p_rp=args.p_rp)
    instance = _read_instance(inst_path, tariff)
    if args.exact:
        alloc = co.shapley_exact(instance)
        method = "exact"
    else:
        alloc = co.shapley_monte_carlo(instance, args.samples, seed=args.seed or 0)
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
    _write_csv(
        out / "allocation.csv",
        ["id", "role", "net_kwh", "payoff", "implied_price", "within_band"],
        rows,
    )
    # the core check runs at every exact size; above it both keys stay blank
    shortfall = blocking = None
    if instance.n <= co._EXACT_LIMIT:
        energies = np.array([c.net_energy for c in instance.customers])
        x = np.array([alloc.payoffs[c.id] for c in instance.customers])
        shortfall, mask = co._core_gap(x, energies, tariff)
        if shortfall > co._core_tolerance(instance):
            blocking = ";".join(c.id for k, c in enumerate(instance.customers) if mask >> k & 1)
    _write_kv(
        out / "summary.txt",
        {
            "method": method,
            "grand_value": co.coalition_value(instance.customers, tariff),
            "total_payoff": alloc.total(),
            "core_shortfall": shortfall,
            "blocking_coalition": blocking,
        },
    )
    _manifest(out, args, [inst_path], ["allocation.csv", "summary.txt"])
    return 0


def _cmd_storage_auction(args) -> int:
    rus_path = _require(args.rus, "residential-units file")
    sfcs_path = _require(args.sfcs, "SFC file")
    out = _out_dir(args)
    rus = _read_rus(rus_path)
    sfcs = _read_sfcs(sfcs_path)
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
    _write_csv(out / "units.csv", ["id", "share_kwh", "burden_kwh", "utility"], ru_rows)
    sfc_rows = [
        [sid, outcome.sfc_allocations.get(sid), outcome.sfc_utilities.get(sid)]
        for sid in sorted(outcome.participating_sfcs)
    ]
    _write_csv(out / "sfcs.csv", ["id", "allocated_kwh", "utility"], sfc_rows)
    _write_kv(
        out / "summary.txt",
        {
            "vickrey_price": outcome.vickrey_price,
            "auction_price": outcome.auction_price,
            "total_shared_kwh": outcome.total_shared(),
            "total_allocated_kwh": outcome.total_allocated(),
            "total_burden_kwh": outcome.total_burden(),
            "rule": args.rule,
        },
    )
    _manifest(out, args, [rus_path, sfcs_path], ["units.csv", "sfcs.csv", "summary.txt"])
    return 0


def _cmd_ic_check(args) -> int:
    out = _out_dir(args)
    scenarios = st.make_ic_scenarios(args.trials, seed=args.seed or 0, rule=args.rule)
    _progress(args, f"searching misreports across {args.trials} scenarios")
    report = st.check_incentive_compatibility(scenarios)
    _write_csv(
        out / "ic_violations.csv",
        ["scenario", "agent_id", "parameter", "factor", "gain"],
        report.profitable_deviations,
    )
    _write_csv(
        out / "ir_violations.csv",
        ["scenario", "agent_id", "utility"],
        report.ir_violations,
    )
    _write_kv(
        out / "summary.txt",
        {
            "scenarios": report.scenarios_checked,
            "deviations_checked": report.deviations_checked,
            "profitable_deviations": len(report.profitable_deviations),
            "largest_gain": report.largest_gain,
            "ir_violations": len(report.ir_violations),
            "clean": report.clean,
        },
    )
    _manifest(out, args, [], ["ic_violations.csv", "ir_violations.csv", "summary.txt"])
    return 0


def _cmd_nash(args) -> int:
    game_path = _require(args.game, "game file")
    out = _out_dir(args)
    game = _read_game(game_path)
    equilibria = games.find_pure_nash(game)
    _write_csv(
        out / "equilibria.csv",
        [f"s{k}" for k in range(game.n_players)],
        [list(profile) for profile in equilibria],
    )
    _write_kv(
        out / "summary.txt",
        {
            "players": game.n_players,
            "strategies": "x".join(str(k) for k in game.strategy_counts),
            "pure_equilibria": len(equilibria),
        },
    )
    _manifest(out, args, [game_path], ["equilibria.csv", "summary.txt"])
    return 0


def _cmd_sweep(args) -> int:
    config = _require(args.config, "config file")
    out = _out_dir(args)
    scenario = sim.load_scenario(config)
    if args.seed is not None:
        scenario.seed = args.seed
    try:
        values = [finite(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad sweep values {args.values!r} ({exc})") from exc
    _progress(args, f"sweeping {len(values)} points")
    rows = sim.sweep(scenario, args.param, values)

    if rows:
        header = list(rows[0])
        _write_csv(out / "sweep.csv", header, [[r.get(k) for k in header] for r in rows])
    else:
        _write_csv(out / "sweep.csv", ["value"], [])
    _manifest(out, args, [config], ["sweep.csv"])
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridswap",
        description="Peer-to-peer energy trading simulations",
    )
    parser.add_argument("--version", action="version", version=f"gridswap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_default=None):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=nonnegative, default=seed_default, help="random seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress text")

    p = sub.add_parser("run", help="run a full scenario simulation")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("clear", help="clear one slot's double auction from an orders CSV")
    p.add_argument("--orders", required=True)
    p.add_argument("--pricing", choices=["marginal_bid", "midpoint"], default="marginal_bid")
    common(p)
    p.set_defaults(handler=_cmd_clear)

    p = sub.add_parser("ev-auction", help="EV price auction from a population CSV")
    p.add_argument("--population", required=True)
    p.add_argument("--eta", type=finite_over(0.0, 1.0), default=evx.DEFAULT_ETA)
    p.add_argument("--eps", type=finite_over(0.0), default=1e-4,
                   help="stop once the certified welfare gap is at most this ($)")
    p.add_argument("--max-iter", type=positive_up_to(_MAX_ITER), default=500,
                   help="at most this many price steps; a stop here is reported unconverged")
    common(p)
    p.set_defaults(handler=_cmd_ev_auction)

    p = sub.add_parser("shapley", help="coalition payoff division from an instance CSV")
    p.add_argument("--instance", required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--samples", type=positive_up_to(co.MAX_SAMPLES), default=50_000)
    p.add_argument("--p-wp", type=finite, default=0.05)
    p.add_argument("--p-rp", type=finite, default=0.30)
    common(p, seed_default=0)
    p.set_defaults(handler=_cmd_shapley)

    p = sub.add_parser("storage-auction", help="storage-sharing auction from RU/SFC CSVs")
    p.add_argument("--rus", required=True)
    p.add_argument("--sfcs", required=True)
    p.add_argument("--rule", choices=[st.PROPORTIONAL, st.EQUAL], default=st.PROPORTIONAL)
    common(p)
    p.set_defaults(handler=_cmd_storage_auction)

    p = sub.add_parser("ic-check", help="search storage-auction misreports for profit")
    p.add_argument("--trials", type=positive_up_to(_MAX_TRIALS), default=100)
    p.add_argument("--rule", choices=[st.PROPORTIONAL, st.EQUAL], default=st.PROPORTIONAL)
    common(p, seed_default=0)
    p.set_defaults(handler=_cmd_ic_check)

    p = sub.add_parser("nash", help="enumerate pure equilibria of a small game CSV")
    p.add_argument("--game", required=True)
    common(p)
    p.set_defaults(handler=_cmd_nash)

    p = sub.add_parser("sweep", help="run a parameter sweep over a scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    common(p)
    p.set_defaults(handler=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    args.from_argv = argv is None
    args.raw_argv = list(argv) if argv is not None else []
    try:
        return args.handler(args)
    except FileNotFoundError as exc:
        print(f"gridswap: {exc}", file=sys.stderr)
        return 2
    except GridswapError as exc:
        print(f"gridswap: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
