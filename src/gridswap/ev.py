"""Vehicle-to-vehicle energy exchange.

Charging vehicles earn log-shaped satisfaction above their minimum demand,
discharging vehicles carry quadratic-plus-linear supply costs, and energy
loses a factor eta in transit. The social optimum maximizes total
satisfaction minus cost over the bipartite flow matrix; the iterative double
auction reaches the same point through price messages alone: the auctioneer
posts one price per charger, each vehicle answers with its best response,
prices move against the excess supply, and the loop stops once a duality gap
certifies the allocation.

Auction prices are per sent kWh; settlement prices are per delivered kWh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ingest
from .errors import DomainError, InfeasibleError, InputError
from .ingest import ENERGY, PRICE, QUADRATIC, WILLINGNESS, finite, physical

DEFAULT_ETA = 0.9
DEFAULT_EPS = 1e-4
DEFAULT_MAX_ITER = 500
DEFAULT_ETA_HYBRID = 0.7


@dataclass(frozen=True)
class ChargingEV:
    """Buyer: w weights the log satisfaction, demand lies in [c_min, c_max]."""

    id: str
    w: float
    c_min: float
    c_max: float = math.inf

    def __post_init__(self) -> None:
        physical(self.w, WILLINGNESS, "charging EV {!r} w", self.id)
        physical(self.c_min, ENERGY, "charging EV {!r} c_min", self.id)
        if self.c_max != math.inf:  # inf: no cap
            physical(self.c_max, ENERGY, "charging EV {!r} c_max", self.id)
        if self.w == 0:
            raise InputError(f"charging EV {self.id!r} needs willingness w > 0")
        if self.c_max < self.c_min:
            raise InputError(f"charging EV {self.id!r} needs 0 <= c_min <= c_max, "
                             f"got [{self.c_min}, {self.c_max}]")


@dataclass(frozen=True)
class DischargingEV:
    """Seller: cost l1*sum(d^2) + l2*sum(d), at most d_max kWh supplied."""

    id: str
    l1: float
    l2: float
    d_max: float

    def __post_init__(self) -> None:
        physical(self.l1, QUADRATIC, "discharging EV {!r} l1", self.id)
        physical(self.l2, PRICE, "discharging EV {!r} l2", self.id)
        physical(self.d_max, ENERGY, "discharging EV {!r} d_max", self.id)
        if self.l1 == 0 and self.l2 == 0:
            raise InputError(f"discharging EV {self.id!r} needs a nonzero cost factor")
        if self.d_max == 0:
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
    from scipy.optimize import LinearConstraint, minimize

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

    # each constraint one-sided: scipy warns on a side pair that meets
    # (c_min == c_max), and an empty constraint fails inside it
    rows = np.kron(np.eye(nj), np.ones(ni))  # row j sums flat[j*ni:(j+1)*ni]
    cols = np.tile(np.eye(ni), nj)  # column i sums flat[i::ni]
    capped = np.isfinite(col_hi)
    constraints = [LinearConstraint(rows, -np.inf, row_caps),
                   LinearConstraint(cols, col_lo, np.inf)]
    if capped.any():
        constraints.append(LinearConstraint(cols[capped], -np.inf, col_hi[capped]))

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


# ---------------------------------------------------------------------------
# iterative price auction


@dataclass
class AuctionTrace:
    # one (iteration, welfare, gap, max_price_change) row per certificate check
    checks: list = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    residual: float = math.inf  # feasibility residual of the returned allocation


@dataclass
class EvSettlement:
    price: float | None
    buyer_payments: dict[str, float]
    seller_receipts: dict[str, float]


@dataclass
class EvAuctionResult:
    trace: AuctionTrace
    settlement: EvSettlement


def _marginal_bids(chargers, delivered) -> np.ndarray:
    """Buyer marginal value per delivered kWh at current deliveries."""
    w = np.array([c.w for c in chargers])
    cmin = np.array([c.c_min for c in chargers])
    return w / np.maximum(delivered - cmin + 1.0, 1e-9)


_PRICE_FLOOR = 1e-9  # $/sent kWh; keeps every buyer's answer finite
_CHECK_EVERY = 10  # price steps between certificates
_FEASIBILITY_TOL = 1e-9  # kWh a certified allocation may miss a constraint by
# nonmonotone line search (Grippo, Lampariello & Lucidi 1986): a step must
# lower the dual below the largest of its last _MEMORY values, and is halved
# at most _BACKTRACKS times until it does
_MEMORY = 10
_BACKTRACKS = 30
# a linear seller's proximal weight, as a share of the curvature the rest of
# the market shows it; smaller weights move the centre further per round but
# leave the inner dual steeper
_PROX_SHARE = 0.3
# the centre moves once the proximal problem's own gap is below this share of
# the certified gap: solving it further could not shrink the certified gap much
_RECENTRE = 0.1


class _Market:
    """The vehicles' parameters as arrays and their answers to posted prices.

    Prices p are per sent kWh, one per charger. Dualizing each charger's
    column sum splits the welfare program into one closed-form problem per
    vehicle, so g(p), the sum of their optima, bounds the welfare optimum from
    above at any p > 0.
    """

    def __init__(self, chargers, dischargers, eta):
        self.eta = eta
        self.w = np.array([c.w for c in chargers])
        self.c_min = np.array([c.c_min for c in chargers])
        self.l1 = np.array([d.l1 for d in dischargers])
        self.l2 = np.array([d.l2 for d in dischargers])
        self.row_caps, self.col_lo, self.col_hi = _polytope(chargers, dischargers, eta)
        # opening prices: each buyer's bid at an even split of the fleet's capacity
        even = np.clip(self.row_caps.sum() / len(chargers), self.col_lo, self.col_hi)
        self.opening = np.maximum(eta * _marginal_bids(chargers, eta * even), _PRICE_FLOOR)
        # a seller with l1 = 0 answers with a vertex, so the dual has kinks that
        # stall the price steps; a proximal term (rho/2)|x - centre|^2 smooths
        # its answer (Rockafellar 1976). The curvature the market shows such a
        # seller: the quadratic sellers' and buyers' supply and demand slopes
        linear = self.l1 == 0
        slopes = np.sum(1.0 / (2.0 * self.l1[~linear])) + np.mean(self.w / self.opening**2)
        self.rho = np.where(linear, _PROX_SHARE / slopes, 0.0)

    def demand(self, p):
        """Each charger's best response in sent kWh: its log value minus p*s, maximized."""
        return np.clip((self.w * self.eta / p - 1.0 + self.c_min) / self.eta,
                       self.col_lo, self.col_hi)

    def supply(self, p, centre):
        """Each discharger's best response row: (p - l2).x - l1|x|^2 - rho/2 |x - centre|^2."""
        target = (p[None, :] - self.l2[:, None] + self.rho[:, None] * centre) / (
            2.0 * self.l1 + self.rho
        )[:, None]
        return _project_rows(target, 0.0, self.row_caps)

    def surplus(self, p, s, x):
        """The buyers' summed surplus at demands s, and each seller's profit on rows x."""
        buyers = float(np.sum(self.w * np.log(self.eta * s - self.c_min + 1.0) - p * s))
        sellers = ((p[None, :] - self.l2[:, None]) * x).sum(axis=1) - self.l1 * (x * x).sum(axis=1)
        return buyers, sellers

    def dual(self, p) -> float:
        """g(p) >= the welfare optimum; equal to it at the optimal prices."""
        s, x = self.demand(p), self.supply(p, 0.0)
        buyers, sellers = self.surplus(p, s, x)
        # a linear seller sends all it has to the best price above its cost
        vertex = self.row_caps * np.maximum(0.0, np.max(p[None, :] - self.l2[:, None], axis=1))
        return buyers + float(np.where(self.l1 > 0, sellers, vertex).sum())

    def residual(self, sent) -> float:
        """Largest violation of the transfer polytope's bounds, in kWh."""
        rows, cols = sent.sum(axis=1), sent.sum(axis=0)
        return float(max(0.0, -sent.min(), np.max(rows - self.row_caps),
                         np.max(self.col_lo - cols), np.max(cols - self.col_hi)))


def run_iterative_auction(
    chargers: list[ChargingEV],
    dischargers: list[DischargingEV],
    eta: float = DEFAULT_ETA,
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[EvAllocation, EvAuctionResult]:
    """Per-charger price auction that stops on a certified welfare gap.

    The auctioneer posts one price per charger (per sent kWh). Each charger
    answers with the energy that maximizes its satisfaction minus its bill,
    each discharger with the flows that maximize its revenue minus its cost,
    and the prices move against the excess supply by Barzilai-Borwein steps
    (IMA JNA 1988) under a nonmonotone line search: the message pattern of
    Kang et al.'s iterative double auction (IEEE TII 2017). Sellers with
    l1 = 0 get a proximal term whose centre moves to the latest allocation
    between rounds; with every l1 > 0 there is one round.

    Every _CHECK_EVERY steps, and at max_iter, the sellers' answers are
    projected onto the transfer polytope. That allocation's welfare W is
    certified by gap = g(p) - W, where g is the closed-form dual and so bounds
    the optimum from above. `converged` means gap <= eps (in $) and a
    feasibility residual <= 1e-9 kWh. Hitting max_iter first, or a state in
    which neither the prices nor the centre can move any more (a gap at
    rounding level, above eps), returns the last allocation with `converged`
    False instead of raising.

    Settlement applies one uniform price per delivered kWh to both sides: the
    midpoint of the mean final bid and the mean final ask. Budget balance is
    exact by construction; individual rationality holds in the needs-adjusted
    sense (energy up to c_min is a hard requirement, so buyers' surplus is
    measured on deliveries beyond it).
    """
    if eps <= 0:
        raise InputError("eps must be > 0")
    if max_iter < 1:
        raise InputError("max_iter must be >= 1")
    _check_feasible(chargers, dischargers, eta)
    market = _Market(chargers, dischargers, eta)
    centre = np.zeros((len(dischargers), len(chargers)))

    def answer(p):
        """The sellers' rows, the excess supply and the proximal dual's value at p."""
        s, x = market.demand(p), market.supply(p, centre)
        buyers, sellers = market.surplus(p, s, x)
        value = buyers + float(np.sum(sellers - 0.5 * market.rho * ((x - centre) ** 2).sum(axis=1)))
        return x, x.sum(axis=0) - s, value

    p = market.opening
    x, excess, value = answer(p)
    # first step: the inverse of a bound on the dual's curvature at p
    step = 1.0 / (np.sum(1.0 / (2.0 * market.l1 + market.rho)) + np.max(market.w / p**2))
    recent = [value]
    checked = None  # the prices at the last certificate
    trace = AuctionTrace()
    for it in range(1, max_iter + 1):
        direction = np.maximum(p - step * excess, _PRICE_FLOOR) - p
        descent = float(np.sum(excess * direction))
        shrink = 1.0
        for _ in range(_BACKTRACKS):
            new_p = p + shrink * direction
            x, new_excess, value = answer(new_p)
            if value <= max(recent) + 1e-4 * shrink * descent:
                break
            shrink *= 0.5
        recent = (recent + [value])[-_MEMORY:]
        moved, turned = new_p - p, new_excess - excess
        curvature = float(np.sum(moved * turned))
        if curvature > 0:
            step = float(np.sum(moved * moved)) / curvature
        p, excess = new_p, new_excess
        if it % _CHECK_EVERY and it < max_iter:
            continue

        sent = _project_feasible(x, market.row_caps, market.col_lo, market.col_hi)
        # looked up at call time, so a wrapper installed on the module sees it
        achieved = welfare(sent, chargers, dischargers, eta)
        gap = market.dual(p) - achieved
        trace.residual = market.residual(sent)
        trace.checks.append((it, achieved, gap, float(np.max(np.abs(moved)))))
        if gap <= eps and trace.residual <= _FEASIBILITY_TOL:
            trace.converged = True
            break
        # prices that no step could move since the last certificate have
        # solved the proximal problem as far as rounding allows
        frozen = np.array_equal(p, checked)
        if frozen and np.array_equal(sent, centre):
            break  # nothing left to change: the gap stays where rounding put it
        prox = 0.5 * float(np.sum(market.rho * ((sent - centre) ** 2).sum(axis=1)))
        if frozen or value - (achieved - prox) <= _RECENTRE * gap:
            centre = sent
            x, excess, value = answer(p)
            recent = [value]
        checked = p
    trace.iterations = it

    allocation = EvAllocation(sent=sent, eta=eta)
    return allocation, EvAuctionResult(trace, _settle(chargers, dischargers, allocation))


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


# ---------------------------------------------------------------------------
# population file ingestion


def read_ev_population_csv(path, sources) -> tuple[list[ChargingEV], list[DischargingEV]]:
    """Load a population file with columns id, role, w, l1, l2, c_min, c_max, d_max.

    Role is 'charging' or 'discharging'; irrelevant columns may be blank. The
    sha256 of the bytes parsed goes into `sources` under the path.
    """
    chargers: list[ChargingEV] = []
    dischargers: list[DischargingEV] = []
    columns = ("id", "role", "w", "l1", "l2", "c_min", "c_max", "d_max")
    with ingest.table(path, ("id", "role"), sources) as table:
        rows = ingest.distinct_ids(table.rows(*columns))
        for rid, role, w, l1, l2, c_min, c_max, d_max in rows:
            role = role.strip()
            if role == "charging":
                chargers.append(ChargingEV(rid.strip(), finite(w), finite(c_min),
                                           finite(c_max) if c_max.strip() else math.inf))
            elif role == "discharging":
                dischargers.append(
                    DischargingEV(rid.strip(), l1=finite(l1), l2=finite(l2), d_max=finite(d_max))
                )
            else:
                raise InputError(f"role must be charging or discharging, got {role!r}")
    return chargers, dischargers
