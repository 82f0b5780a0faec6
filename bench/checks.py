"""Output checks, one per CLI subcommand.

Each factory returns a function of the call's output directory that raises
CheckFailed when an output file is missing, malformed or wrong. A CLI call
that exits 0 but fails its check counts as a failed call, so a speed-up that
breaks an output is never counted as a gain.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from gridswap import games


class CheckFailed(Exception):
    """An output file contradicts what the subcommand guarantees."""


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_summary(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


def _number(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: {value} is not finite")
    return value


def _finite_cells(rows: list[dict], where: str, skip=("id", "role")) -> None:
    """Every non-blank cell outside `skip` holds a finite number."""
    for k, row in enumerate(rows):
        for col, text in row.items():
            if col not in skip and text != "":
                _number(text, f"{where} row {k} {col}")


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(scale))


def run(agent_ids):
    """One report row per agent, finite values, energy balance to 1e-6 kWh."""
    expected = sorted(agent_ids)

    def check(out: Path) -> None:
        rows = read_rows(out / "report.csv")
        ids = sorted(r["id"] for r in rows)
        if ids != expected:
            raise CheckFailed(f"report.csv has {len(ids)} agent rows, expected {len(expected)}")
        _finite_cells(rows, "report.csv")
        summary = read_summary(out / "summary.txt")
        residual = _number(summary["energy_balance_residual_kwh"], "summary.txt")
        if abs(residual) > 1e-6:
            raise CheckFailed(f"energy balance residual {residual} kWh")

    return check


def clear(limit_prices: dict[str, float]):
    """The clearing price lies within every matched bid and ask limit."""

    def check(out: Path) -> None:
        matches = read_rows(out / "matches.csv")
        if not matches:
            raise CheckFailed("a crossing book cleared no matches")
        _finite_cells(matches, "matches.csv", skip=("buyer_id", "seller_id"))
        price = _number(read_summary(out / "clearing.txt")["clearing_price"], "clearing.txt")
        lowest_bid = min(limit_prices[m["buyer_id"]] for m in matches)
        highest_ask = max(limit_prices[m["seller_id"]] for m in matches)
        if not highest_ask - 1e-12 <= price <= lowest_bid + 1e-12:
            raise CheckFailed(
                f"price {price} outside matched limits [{highest_ask}, {lowest_bid}]"
            )

    return check


def ev_auction(chargers: dict[str, dict], dischargers: dict[str, dict], eta: float):
    """Row sums <= d_max, column sums in [c_min/eta, c_max/eta], budget balance."""

    def check(out: Path) -> None:
        rows = read_rows(out / "allocation.csv")
        _finite_cells(rows, "allocation.csv", skip=("from", "to"))
        sent_from = {j: 0.0 for j in dischargers}
        sent_to = {i: 0.0 for i in chargers}
        for r in rows:
            sent_from[r["from"]] += float(r["sent_kwh"])
            sent_to[r["to"]] += float(r["sent_kwh"])
        for j, total in sent_from.items():
            if total > dischargers[j]["d_max"] + 1e-6:
                raise CheckFailed(f"discharger {j} sends {total} > d_max")
        for i, total in sent_to.items():
            lo = chargers[i]["c_min"] / eta - 1e-6
            hi = chargers[i]["c_max"] / eta + 1e-6
            if not lo <= total <= hi:
                raise CheckFailed(f"charger {i} receives {total} outside [{lo}, {hi}]")
        cash = read_rows(out / "settlement.csv")
        _finite_cells(cash, "settlement.csv", skip=("side", "agent_id"))
        paid = math.fsum(float(r["cash"]) for r in cash if r["side"] == "buyer")
        received = math.fsum(float(r["cash"]) for r in cash if r["side"] == "seller")
        if not _close(paid, received, paid):
            raise CheckFailed(f"settlement not budget-balanced: {paid} vs {received}")

    return check


def shapley():
    """The payoffs sum to the grand coalition's value."""

    def check(out: Path) -> None:
        rows = read_rows(out / "allocation.csv")
        _finite_cells(rows, "allocation.csv", skip=("id", "role", "within_band"))
        total = math.fsum(float(r["payoff"]) for r in rows)
        grand = _number(read_summary(out / "summary.txt")["grand_value"], "summary.txt")
        if not _close(total, grand, grand):
            raise CheckFailed(f"payoffs sum to {total}, grand value is {grand}")

    return check


def storage_auction(max_bid: float):
    """The auction price lies in [Vickrey price, highest bid]."""

    def check(out: Path) -> None:
        summary = read_summary(out / "summary.txt")
        vickrey = _number(summary["vickrey_price"], "summary.txt")
        price = _number(summary["auction_price"], "summary.txt")
        if not vickrey - 1e-12 <= price <= max_bid + 1e-12:
            raise CheckFailed(f"price {price} outside [{vickrey}, {max_bid}]")
        for name in ("units.csv", "sfcs.csv"):
            _finite_cells(read_rows(out / name), name)

    return check


def ic_check():
    """No profitable misreport and no individual-rationality violation."""

    def check(out: Path) -> None:
        clean = read_summary(out / "summary.txt").get("clean")
        if clean != "True":
            raise CheckFailed(f"ic-check reports clean = {clean}")

    return check


def nash(game, planted: tuple[int, ...]):
    """Every listed profile is a pure equilibrium; the planted one is listed."""

    def check(out: Path) -> None:
        profiles = [
            tuple(int(v) for v in row.values()) for row in read_rows(out / "equilibria.csv")
        ]
        for p in profiles:
            if not games.is_nash(game, p)[0]:
                raise CheckFailed(f"profile {p} is not a Nash equilibrium")
        if planted not in profiles:
            raise CheckFailed(f"planted equilibrium {planted} is missing")

    return check


def sweep(points: int):
    """One row per swept value, every cell a finite number."""

    def check(out: Path) -> None:
        rows = read_rows(out / "sweep.csv")
        if len(rows) != points:
            raise CheckFailed(f"sweep.csv has {len(rows)} rows for {points} values")
        _finite_cells(rows, "sweep.csv", skip=())

    return check
