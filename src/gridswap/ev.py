"""Vehicle-to-vehicle energy exchange.

Charging vehicles earn log-shaped satisfaction above their minimum demand,
discharging vehicles carry quadratic-plus-linear supply costs, and energy
loses a factor eta in transit. The social optimum maximizes total
satisfaction minus cost over the bipartite flow matrix; the iterative double
auction reaches the same point through price messages alone: vehicles quote
their marginal values and costs, the auctioneer nudges the allocation toward
the reported surplus gradient, and the loop stops once quotes settle.

Prices per delivered kWh are used on the buyer side; asks are per sent kWh,
one quote per counterparty flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ingest
from .errors import DomainError, InfeasibleError, InputError
from .ingest import finite

DEFAULT_ETA = 0.9
DEFAULT_ETA_HYBRID = 0.7


@dataclass(frozen=True)
class ChargingEV:
    """Buyer: w weights the log satisfaction, demand lies in [c_min, c_max]."""

    id: str
    w: float
    c_min: float
    c_max: float = math.inf

    def __post_init__(self) -> None:
        if not (math.isfinite(self.w) and math.isfinite(self.c_min)):
            raise InputError(f"charging EV {self.id!r} needs finite w and c_min")
        if self.w <= 0:
            raise InputError(f"charging EV {self.id!r} needs willingness w > 0")
        # c_max may be inf (no cap); the negated test also rejects a NaN cap
        if self.c_min < 0 or not self.c_max >= self.c_min:
            raise InputError(
                f"charging EV {self.id!r} needs 0 <= c_min <= c_max, "
                f"got [{self.c_min}, {self.c_max}]"
            )


@dataclass(frozen=True)
class DischargingEV:
    """Seller: cost l1*sum(d^2) + l2*sum(d), at most d_max kWh supplied."""

    id: str
    l1: float
    l2: float
    d_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.l1, self.l2, self.d_max))):
            raise InputError(f"discharging EV {self.id!r} needs finite l1, l2 and d_max")
        if self.l1 < 0 or self.l2 < 0:
            raise InputError(f"discharging EV {self.id!r} cost factors must be >= 0")
        if self.l1 == 0 and self.l2 == 0:
            raise InputError(f"discharging EV {self.id!r} needs a nonzero cost factor")
        if self.d_max <= 0:
            raise InputError(f"discharging EV {self.id!r} needs d_max > 0")


def satisfaction(ev: ChargingEV, received, eta: float) -> float:
    """Satisfaction w*ln(eta*sum(received) - c_min + 1).

    `received` holds the kWh dispatched toward this vehicle, metered before
    transmission losses; eta converts them to delivered energy.
    """
    total = math.fsum(received)
    arg = eta * total - ev.c_min + 1.0
    if arg <= 0:
        raise DomainError(
            f"under-delivery for {ev.id!r}: eta*sum - c_min + 1 = {arg:.6g} <= 0"
        )
    return ev.w * math.log(arg)


def discharge_cost(ev: DischargingEV, sent) -> float:
    """Supply cost l1*sum(d^2) + l2*sum(d) of the per-buyer sent vector."""
    sent = list(sent)
    if any(x < 0 for x in sent):
        raise InputError(f"negative sent quantity for {ev.id!r}")
    return ev.l1 * math.fsum(x * x for x in sent) + ev.l2 * math.fsum(sent)


@dataclass
class EvAllocation:
    """Bipartite transfer: sent[j, i] kWh from discharger j toward charger i."""

    sent: np.ndarray
    eta: float

    @property
    def delivered(self) -> np.ndarray:
        """delivered[i, j] = eta * sent[j, i]."""
        return self.eta * self.sent.T

    def delivered_per_charger(self) -> np.ndarray:
        return self.eta * self.sent.sum(axis=0)

    def sent_per_discharger(self) -> np.ndarray:
        return self.sent.sum(axis=1)


def welfare(
    sent: np.ndarray,
    chargers: list[ChargingEV],
    dischargers: list[DischargingEV],
    eta: float,
) -> float:
    """Total satisfaction minus discharge cost of a sent-energy matrix."""
    total = 0.0
    for i, ev in enumerate(chargers):
        total += satisfaction(ev, sent[:, i], eta)
    for j, ev in enumerate(dischargers):
        total -= discharge_cost(ev, sent[j, :])
    return total


# ---------------------------------------------------------------------------
# feasible-set projection


_DYKSTRA_TOL = 1e-12  # stop once x and both corrections move less than this
_DYKSTRA_CYCLES = 3000


def _project_rows(y: np.ndarray, lo, hi) -> np.ndarray:
    """Euclidean projection of each row y[k] onto {x >= 0, lo[k] <= sum(x) <= hi[k]}.

    Rows are summed contiguously, in the pairwise order of a 1-D numpy sum,
    whatever the layout of y.
    """
    y = np.ascontiguousarray(y, dtype=float)
    x = np.maximum(y, 0.0)
    total = x.sum(axis=1)
    inside = (lo - 1e-15 <= total) & (total <= hi + 1e-15)
    target = np.where(total < lo, lo, hi)
    out = np.where(inside[:, None], x, 0.0)
    rows = np.flatnonzero(~inside & (target > 0))
    if not rows.size:
        return out
    y, target = y[rows], target[rows]
    # x(tau) = max(y + tau, 0); with k actives they are the k largest entries
    order = np.sort(y, axis=1)[:, ::-1]
    prefix = np.cumsum(order, axis=1)
    tau = (target[:, None] - prefix) / np.arange(1, y.shape[1] + 1)
    fits = order + tau > 0
    fits[:, :-1] &= order[:, 1:] + tau[:, :-1] <= 1e-15
    k = np.argmax(fits, axis=1)
    candidate = np.maximum(y + tau[np.arange(rows.size), k][:, None], 0.0)
    ok = fits.any(axis=1) & (
        np.abs(candidate.sum(axis=1) - target) <= 1e-9 * np.maximum(1.0, target)
    )
    out[rows[ok]] = candidate[ok]
    # the active-set scan can stall when target is tiny against the entries
    # (float absorption); those rows fall back to bisection on the shift
    for r in np.flatnonzero(~ok):
        lo_tau, hi_tau = -float(np.max(y[r])) - 1.0, float(target[r])
        for _ in range(200):
            t = 0.5 * (lo_tau + hi_tau)
            if np.maximum(y[r] + t, 0.0).sum() < target[r]:
                lo_tau = t
            else:
                hi_tau = t
        out[rows[r]] = np.maximum(y[r] + hi_tau, 0.0)
    return out


def _project_feasible(
    y: np.ndarray,
    row_caps: np.ndarray,
    col_lo: np.ndarray,
    col_hi: np.ndarray,
) -> np.ndarray:
    """Dykstra projection onto the transfer polytope.

    Rows satisfy 0 <= sum <= row_cap (discharger capacity in sent kWh),
    columns satisfy col_lo <= sum <= col_hi (demand window in sent kWh).
    Rows touch disjoint entries, and so do columns, so each half-cycle
    projects all of them in one pass.
    """
    x = np.asarray(y, dtype=float)
    e_rows = np.zeros_like(x)
    e_cols = np.zeros_like(x)
    for _ in range(_DYKSTRA_CYCLES):
        v = x + e_rows
        by_rows = _project_rows(v, 0.0, row_caps)
        new_e_rows = v - by_rows
        v = by_rows + e_cols
        new_x = _project_rows(v.T, col_lo, col_hi).T
        new_e_cols = v - new_x
        # the iterate alone can stall while corrections still move, so the
        # stop test must cover all of the algorithm's state
        moved = max(
            np.max(np.abs(new_x - x)),
            np.max(np.abs(new_e_rows - e_rows)),
            np.max(np.abs(new_e_cols - e_cols)),
        )
        x, e_rows, e_cols = new_x, new_e_rows, new_e_cols
        if moved < _DYKSTRA_TOL:
            break
    # callers sum the result along both axes; row-major keeps those sums' order
    return np.ascontiguousarray(x)


def _check_feasible(chargers, dischargers, eta) -> None:
    if not chargers or not dischargers:
        raise InputError("need at least one charging and one discharging EV")
    if not 0 < eta <= 1:
        raise InputError(f"transmission efficiency must be in (0, 1], got {eta}")
    deliverable = eta * math.fsum(d.d_max for d in dischargers)
    needed = math.fsum(c.c_min for c in chargers)
    if deliverable < needed - 1e-9:
        raise InfeasibleError(
            "binding constraint: total deliverable capacity "
            f"eta*sum(d_max) = {deliverable:.6g} kWh cannot cover the minimum "
            f"demand sum(c_min) = {needed:.6g} kWh"
        )


def _polytope(chargers, dischargers, eta):
    row_caps = np.array([d.d_max for d in dischargers], dtype=float)
    col_lo = np.array([c.c_min / eta for c in chargers], dtype=float)
    col_hi = np.array([c.c_max / eta for c in chargers], dtype=float)
    return row_caps, col_lo, col_hi


# ---------------------------------------------------------------------------
# social-welfare optimum

_LOG_KNEE = 0.5  # below this the log gets a concave quadratic extension


def _safe_log(arg: np.ndarray):
    """log with a C2 concave quadratic extension below the knee."""
    a = _LOG_KNEE
    inside = arg >= a
    val = np.where(inside, np.log(np.maximum(arg, a)), 0.0)
    grad = np.where(inside, 1.0 / np.maximum(arg, a), 0.0)
    t = arg - a
    val = np.where(inside, val, math.log(a) + t / a - t * t / (2 * a * a))
    grad = np.where(inside, grad, 1.0 / a - t / (a * a))
    return val, grad


def solve_social_welfare(
    chargers: list[ChargingEV],
    dischargers: list[DischargingEV],
    eta: float = DEFAULT_ETA,
) -> tuple[EvAllocation, float]:
    """Maximize total satisfaction minus discharge cost.

    The program is concave with linear constraints (strictly concave in the
    flows whenever l1 > 0), so the SLSQP point is the global optimum; the
    returned welfare is reliable to well under 1e-6 on desk-scale instances.
    Raises InfeasibleError when capacity cannot cover minimum demand.
    """
    # imported here: scipy more than doubles the package's import time and
    # memory, and no CLI subcommand solves this program
    from scipy.optimize import minimize

    _check_feasible(chargers, dischargers, eta)
    nj, ni = len(dischargers), len(chargers)
    row_caps, col_lo, col_hi = _polytope(chargers, dischargers, eta)

    w = np.array([c.w for c in chargers])
    cmin = np.array([c.c_min for c in chargers])
    l1 = np.array([d.l1 for d in dischargers])
    l2 = np.array([d.l2 for d in dischargers])

    def neg_welfare(flat):
        d = flat.reshape(nj, ni)
        arg = eta * d.sum(axis=0) - cmin + 1.0
        logv, logg = _safe_log(arg)
        util = float((w * logv).sum())
        cost = float((l1 * (d ** 2).sum(axis=1)).sum() + (l2 * d.sum(axis=1)).sum())
        grad = (
            -eta * (w * logg)[None, :]
            + 2.0 * l1[:, None] * d
            + l2[:, None]
        )
        return cost - util, grad.ravel()

    start = np.full((nj, ni), max(col_lo.sum(), 1.0) * 1.1 / (nj * ni))
    x0 = _project_feasible(start, row_caps, col_lo, col_hi)

    constraints = [
        {
            "type": "ineq",
            "fun": lambda f, j=j: row_caps[j] - f.reshape(nj, ni)[j].sum(),
            "jac": lambda f, j=j: _row_jac(nj, ni, j),
        }
        for j in range(nj)
    ]
    for i in range(ni):
        constraints.append(
            {
                "type": "ineq",
                "fun": lambda f, i=i: f.reshape(nj, ni)[:, i].sum() - col_lo[i],
                "jac": lambda f, i=i: _col_jac(nj, ni, i),
            }
        )
        if math.isfinite(col_hi[i]):
            constraints.append(
                {
                    "type": "ineq",
                    "fun": lambda f, i=i: col_hi[i] - f.reshape(nj, ni)[:, i].sum(),
                    "jac": lambda f, i=i: -_col_jac(nj, ni, i),
                }
            )

    res = minimize(
        neg_welfare,
        x0.ravel(),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, float(rc)) for rc in np.repeat(row_caps, ni)],
        constraints=constraints,
        options={"maxiter": 600, "ftol": 1e-12},
    )
    d = _project_feasible(res.x.reshape(nj, ni), row_caps, col_lo, col_hi)
    best = welfare(d, chargers, dischargers, eta)
    x0_w = welfare(x0, chargers, dischargers, eta)
    if x0_w > best:
        d, best = x0, x0_w
    return EvAllocation(sent=d, eta=eta), float(best)


def _row_jac(nj, ni, j):
    g = np.zeros((nj, ni))
    g[j, :] = -1.0
    return g.ravel()


def _col_jac(nj, ni, i):
    g = np.zeros((nj, ni))
    g[:, i] = 1.0
    return g.ravel()


# ---------------------------------------------------------------------------
# iterative double auction


@dataclass
class AuctionTrace:
    welfare_history: list = field(default_factory=list)
    price_change_history: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


@dataclass
class EvSettlement:
    price: float | None
    buyer_payments: dict[str, float]
    seller_receipts: dict[str, float]

    def collected_minus_paid(self) -> float:
        return math.fsum(self.buyer_payments.values()) - math.fsum(
            self.seller_receipts.values()
        )


@dataclass
class EvAuctionResult:
    allocation: EvAllocation
    trace: AuctionTrace
    settlement: EvSettlement
    chargers: list[ChargingEV]
    dischargers: list[DischargingEV]
    eta: float
    eps: float
    max_iter: int


def _marginal_bids(chargers, delivered) -> np.ndarray:
    """Buyer marginal value per delivered kWh at current deliveries."""
    w = np.array([c.w for c in chargers])
    cmin = np.array([c.c_min for c in chargers])
    return w / np.maximum(delivered - cmin + 1.0, 1e-9)


def _marginal_asks(dischargers, sent) -> np.ndarray:
    """Seller marginal cost per sent kWh, one quote per counterparty flow."""
    l1 = np.array([d.l1 for d in dischargers])
    l2 = np.array([d.l2 for d in dischargers])
    return 2.0 * l1[:, None] * sent + l2[:, None]


def run_iterative_auction(
    chargers: list[ChargingEV],
    dischargers: list[DischargingEV],
    eta: float = DEFAULT_ETA,
    eps: float = 1e-4,
    max_iter: int = 500,
) -> tuple[EvAllocation, EvAuctionResult]:
    """Price-quote auction that converges to the welfare optimum.

    Each round the vehicles report marginal values/costs at the standing
    allocation and the auctioneer maximizes the quoted surplus under a
    proximal step (a damped projected-gradient update; an undamped
    linear-surplus argmax jumps between polytope vertices and never settles).
    A fixed point of the loop satisfies the welfare program's optimality
    conditions exactly. Stops when quotes move less than eps in the max norm;
    hitting max_iter first flags the trace as non-converged instead of
    raising.

    Settlement applies one uniform price per delivered kWh to both sides: the
    midpoint of the mean final bid and the mean final ask. Budget balance is
    exact by construction; individual rationality holds in the needs-adjusted
    sense (energy up to c_min is a hard requirement, so buyers' surplus is
    measured on deliveries beyond it).
    """
    if eps <= 0:
        raise InputError("eps must be > 0")
    _check_feasible(chargers, dischargers, eta)
    nj, ni = len(dischargers), len(chargers)
    row_caps, col_lo, col_hi = _polytope(chargers, dischargers, eta)

    w_max = max(c.w for c in chargers)
    l1_max = max(d.l1 for d in dischargers)
    lipschitz = nj * eta * eta * w_max + 2.0 * l1_max
    step = 1.0 / max(lipschitz, 1e-9)

    d = _project_feasible(np.zeros((nj, ni)), row_caps, col_lo, col_hi)
    trace = AuctionTrace()
    prev_prices = None
    converged = False

    for it in range(max_iter):
        delivered = eta * d.sum(axis=0)
        bids = _marginal_bids(chargers, delivered)
        asks = _marginal_asks(dischargers, d)
        prices = np.concatenate([bids, asks.ravel()])

        trace.welfare_history.append(welfare(d, chargers, dischargers, eta))
        if prev_prices is not None:
            change = float(np.max(np.abs(prices - prev_prices)))
            trace.price_change_history.append(change)
            if change < eps:
                trace.iterations = it + 1
                converged = True
                break
        prev_prices = prices

        gradient = eta * bids[None, :] - asks
        d = _project_feasible(d + step * gradient, row_caps, col_lo, col_hi)
    else:
        trace.iterations = max_iter
    trace.converged = converged

    allocation = EvAllocation(sent=d, eta=eta)
    settlement = _settle(chargers, dischargers, allocation)
    result = EvAuctionResult(
        allocation=allocation,
        trace=trace,
        settlement=settlement,
        chargers=list(chargers),
        dischargers=list(dischargers),
        eta=eta,
        eps=eps,
        max_iter=max_iter,
    )
    return allocation, result


def _settle(chargers, dischargers, allocation: EvAllocation) -> EvSettlement:
    d = allocation.sent
    eta = allocation.eta
    delivered = eta * d.sum(axis=0)
    sent = d.sum(axis=1)
    if sent.sum() <= 1e-12:
        return EvSettlement(None, {c.id: 0.0 for c in chargers},
                            {s.id: 0.0 for s in dischargers})
    bids = _marginal_bids(chargers, delivered)
    l1 = np.array([s.l1 for s in dischargers])
    l2 = np.array([s.l2 for s in dischargers])
    active = sent > 1e-12
    avg_ask = np.where(
        active, (2.0 * l1 * (d ** 2).sum(axis=1) + l2 * sent) / np.maximum(sent, 1e-12), 0.0
    )
    # per delivered kWh on both sides
    price = 0.5 * (float(bids.mean()) + float(avg_ask[active].mean()) / eta)
    payments = {c.id: price * float(delivered[i]) for i, c in enumerate(chargers)}
    receipts = {s.id: price * eta * float(sent[j]) for j, s in enumerate(dischargers)}
    return EvSettlement(price, payments, receipts)


def is_individually_rational(result: EvAuctionResult, tol: float = 1e-9) -> bool:
    """Needs-adjusted buyer surplus and seller profit both nonnegative."""
    price = result.settlement.price
    if price is None:
        return True
    d = result.allocation.sent
    eta = result.eta
    delivered = eta * d.sum(axis=0)
    for i, c in enumerate(result.chargers):
        value = satisfaction(c, d[:, i], eta)
        discretionary = max(delivered[i] - c.c_min, 0.0)
        if value < price * discretionary - tol:
            return False
    for j, s in enumerate(result.dischargers):
        if result.settlement.seller_receipts[s.id] < discharge_cost(s, d[j, :]) - tol:
            return False
    return True


def apply_disconnection(
    result: EvAuctionResult, departing_id: str, penalty_rate: float = 0.02
) -> tuple[EvAuctionResult, float]:
    """Restart the auction without a departed vehicle.

    The deserter owes penalty_rate $/kWh on its previously allocated energy
    (delivered for chargers, sent for dischargers).
    """
    charger_ids = [c.id for c in result.chargers]
    discharger_ids = [s.id for s in result.dischargers]
    if departing_id in charger_ids:
        i = charger_ids.index(departing_id)
        prior = float(result.allocation.delivered_per_charger()[i])
        chargers = [c for c in result.chargers if c.id != departing_id]
        dischargers = result.dischargers
    elif departing_id in discharger_ids:
        j = discharger_ids.index(departing_id)
        prior = float(result.allocation.sent_per_discharger()[j])
        chargers = result.chargers
        dischargers = [s for s in result.dischargers if s.id != departing_id]
    else:
        raise InputError(f"agent {departing_id!r} did not participate")
    penalty = penalty_rate * prior
    _, rerun = run_iterative_auction(
        chargers, dischargers, result.eta, result.eps, result.max_iter
    )
    return rerun, penalty


# ---------------------------------------------------------------------------
# direct-trade comparison against a grid-mediated hybrid


@dataclass(frozen=True)
class HybridBuyer:
    id: str
    demand_kwh: float  # delivered energy required


@dataclass(frozen=True)
class HybridSeller:
    id: str
    supply_kwh: float  # sendable energy on offer
    ask_price: float  # $/kWh sent


@dataclass(frozen=True)
class HybridScenario:
    buyers: tuple[HybridBuyer, ...]
    sellers: tuple[HybridSeller, ...]
    eta_p2p: float = DEFAULT_ETA
    eta_hybrid: float = DEFAULT_ETA_HYBRID


def simulate_trading(
    buyers,
    sellers,
    eta: float,
    grid_sell_price: float | None = None,
    grid_buy_price: float | None = None,
) -> dict:
    """One dispatch round: buyers fill delivered demand from the cheapest
    sources, sellers send to the highest-paying sink.

    With grid prices set (hybrid mode) the grid offers unlimited energy at
    grid_sell_price and buys back at grid_buy_price; sellers asking less than
    the buy-back divert their whole supply to the grid. Prices are quoted per
    transacted (sent) kWh, so reported averages follow the meter, not the
    delivered amount.
    """
    demand = math.fsum(b.demand_kwh for b in buyers)
    pool = []
    receipts = {s.id: 0.0 for s in sellers}
    sent = {s.id: 0.0 for s in sellers}
    grid_bought = 0.0

    for s in sorted(sellers, key=lambda s: (s.ask_price, s.id)):
        if grid_buy_price is not None and s.ask_price < grid_buy_price:
            receipts[s.id] += grid_buy_price * s.supply_kwh
            sent[s.id] += s.supply_kwh
            grid_bought += s.supply_kwh
        else:
            pool.append(s)

    sources = [(s.ask_price, s.id, s.supply_kwh, s.id) for s in pool]
    if grid_sell_price is not None:
        sources.append((grid_sell_price, "~grid", math.inf, None))
    sources.sort(key=lambda t: (t[0], t[1]))

    to_deliver = demand
    payments = 0.0
    bought = 0.0
    for price, _, avail, seller_id in sources:
        if to_deliver <= 1e-12:
            break
        take = min(avail, to_deliver / eta)
        payments += price * take
        bought += take
        to_deliver -= take * eta
        if seller_id is not None:
            receipts[seller_id] += price * take
            sent[seller_id] += take

    # wire flows: buyer-side purchases plus seller-to-grid diversions
    transmitted = bought + grid_bought
    delivered = demand - max(to_deliver, 0.0)
    seller_sent = math.fsum(sent.values())
    return {
        "avg_buying_price": payments / bought if bought > 0 else None,
        "avg_selling_price": (
            math.fsum(receipts.values()) / seller_sent if seller_sent > 0 else None
        ),
        "transmitted_kwh": transmitted,
        "delivered_kwh": delivered,
        "demand_kwh": demand,
        "buyer_payments": payments,
        "seller_receipts": dict(receipts),
        "unserved_kwh": max(to_deliver, 0.0),
    }


def compare_hybrid(
    scenario: HybridScenario,
    grid_sell_out_price: float,
    grid_buy_back_price: float,
) -> dict:
    """Direct trading at eta_p2p versus grid-assisted trading at eta_hybrid."""
    p2p = simulate_trading(scenario.buyers, scenario.sellers, scenario.eta_p2p)
    hybrid = simulate_trading(
        scenario.buyers,
        scenario.sellers,
        scenario.eta_hybrid,
        grid_sell_price=grid_sell_out_price,
        grid_buy_price=grid_buy_back_price,
    )
    return {
        "grid_sell_out_price": grid_sell_out_price,
        "grid_buy_back_price": grid_buy_back_price,
        "p2p": p2p,
        "hybrid": hybrid,
    }


def hybrid_price_sweep(scenario: HybridScenario, sell_out_prices, buy_back_price: float):
    """Comparison table: one row per grid sell-out price point."""
    return [
        compare_hybrid(scenario, float(p), buy_back_price) for p in sell_out_prices
    ]


# ---------------------------------------------------------------------------
# population file ingestion


def read_ev_population_csv(path) -> tuple[list[ChargingEV], list[DischargingEV]]:
    """Load a population file with columns id, role, w, l1, l2, c_min, c_max, d_max.

    Role is 'charging' or 'discharging'; irrelevant columns may be blank.
    """
    chargers: list[ChargingEV] = []
    dischargers: list[DischargingEV] = []
    columns = ("id", "role", "w", "l1", "l2", "c_min", "c_max", "d_max")
    with ingest.table(path, ("id", "role")) as table:
        rows = ingest.distinct_ids(table.rows(*columns))
        for rid, role, w, l1, l2, c_min, c_max, d_max in rows:
            role = role.strip()
            if role == "charging":
                chargers.append(
                    ChargingEV(
                        rid.strip(),
                        w=finite(w),
                        c_min=finite(c_min),
                        c_max=finite(c_max) if c_max.strip() else math.inf,
                    )
                )
            elif role == "discharging":
                dischargers.append(
                    DischargingEV(rid.strip(), l1=finite(l1), l2=finite(l2), d_max=finite(d_max))
                )
            else:
                raise InputError(f"role must be charging or discharging, got {role!r}")
    return chargers, dischargers
