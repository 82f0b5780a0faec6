"""Every input guard raises its own error class and message.

The first table calls the library directly; the second drives the CLI, which
must turn each refusal into exit code 1 and a one-line message.
"""

import math

import numpy as np
import pytest

from gridswap import coalition as co
from gridswap import ev as evx
from gridswap import games
from gridswap import market as mk
from gridswap import storage as st
from gridswap.cli import main
from gridswap.errors import InputError

TARIFF = mk.Tariff(p_wp=0.05, p_rp=0.30)
CHARGER = evx.ChargingEV("c", w=1.0, c_min=1.0)
SELLER = evx.DischargingEV("d", l1=0.1, l2=0.02, d_max=5.0)
UNIT = st.ResidentialUnit("r", capacity=10.0, reservation_price=0.1, reluctance=0.01)
SUPPLIER = co.Customer("s", co.SUPPLIER, 2.0)
BOOK = mk.Book(["a"], [1.0], [0.2])

# (call, message): each call must raise InputError with this message
LIBRARY = {
    "customer net_energy": (lambda: co.Customer("s", co.SUPPLIER, math.nan),
                            "customer 's' |net_energy| must lie in [0, 1e+09] kWh, "
                            "got nan"),
    "customer role": (lambda: co.Customer("s", "buyer", 1.0),
                      "customer role must be 'supplier' or 'user', got 'buyer'"),
    "empty instance": (lambda: co.CoalitionInstance((), TARIFF),
                       "a coalition instance needs at least one customer"),
    "repeated customer": (lambda: co.CoalitionInstance((SUPPLIER, SUPPLIER), TARIFF),
                          "customer ids must be unique"),
    "no samples": (lambda: co.shapley_monte_carlo(co.CoalitionInstance((SUPPLIER,), TARIFF),
                                                  0, seed=0),
                   "sample_count must be >= 1"),
    "charger w": (lambda: evx.ChargingEV("c", w=math.nan, c_min=0.0),
                  "charging EV 'c' w must lie in [1e-06, 1e+06] $, got nan"),
    "seller l2": (lambda: evx.DischargingEV("d", l1=0.1, l2=math.inf, d_max=1.0),
                  "discharging EV 'd' l2 must lie in [0, 1000] $/kWh, got inf"),
    "seller l1 sign": (lambda: evx.DischargingEV("d", l1=-0.1, l2=0.0, d_max=1.0),
                       "discharging EV 'd' l1 must lie in [1e-09, 1e+09] $/kWh^2, got -0.1"),
    "seller d_max": (lambda: evx.DischargingEV("d", l1=0.1, l2=0.0, d_max=0.0),
                     "discharging EV 'd' needs d_max > 0"),
    "auction without sellers": (lambda: evx.run_iterative_auction([CHARGER], []),
                                "need at least one charging and one discharging EV"),
    "optimum without chargers": (lambda: evx.solve_social_welfare([], [SELLER]),
                                 "need at least one charging and one discharging EV"),
    "auction eta": (lambda: evx.run_iterative_auction([CHARGER], [SELLER], eta=1.5),
                    "transmission efficiency must be in (0, 1], got 1.5"),
    "auction eps": (lambda: evx.run_iterative_auction([CHARGER], [SELLER], eps=0.0),
                    "eps must be > 0"),
    "empty strategy set": (lambda: games.FiniteGame(np.zeros((2, 0, 3))),
                           "every strategy set must be nonempty"),
    "tariff": (lambda: mk.Tariff(p_wp=math.nan, p_rp=0.3),
               "wholesale price p_wp must lie in [0, 1000] $/kWh, got nan"),
    "pricing rule": (lambda: mk.clear_double_auction(BOOK, BOOK, pricing="average"),
                     "unknown pricing rule 'average'"),
    "unit capacity": (lambda: st.ResidentialUnit("r", math.inf, 0.1, 0.01),
                      "RU 'r' capacity must lie in [0, 1e+09] kWh, got inf"),
    "unit reluctance": (lambda: st.ResidentialUnit("r", 10.0, 0.1, 0.0),
                        "RU 'r' reluctance must be > 0"),
    # subnormal and near-overflow values pass a sign check; they overflowed or
    # crashed a mechanism's arithmetic
    "subnormal reluctance": (lambda: st.ResidentialUnit("r", 10.0, 0.1, 5e-324),
                             "RU 'r' reluctance must lie in [1e-09, 1e+09] $/kWh^2, got 5e-324"),
    "subnormal seller l1": (lambda: evx.DischargingEV("d", l1=1e-320, l2=0.0, d_max=1.0),
                            "discharging EV 'd' l1 must lie in [1e-09, 1e+09] $/kWh^2, got 1e-320"),
    "largest bid": (lambda: st.SfcAgent("f", 5.0, 1.7976931348623157e308),
                    "SFC 'f' bid must lie in [0, 1000] $/kWh, "
                    "got 1.7976931348623157e+308"),
    "huge c_min": (lambda: evx.ChargingEV("c", w=1.0, c_min=1e308),
                   "charging EV 'c' c_min must lie in [0, 1e+09] kWh, got 1e+308"),
    "huge order": (lambda: mk.check_order(1e10, 0.1),
                   "order quantity must lie in [0, 1e+09] kWh, got 10000000000.0"),
    "unit reservation": (lambda: st.ResidentialUnit("r", 10.0, -0.1, 0.01),
                         "RU 'r' reservation price must lie in [0, 1000] $/kWh, got -0.1"),
    "no bids": (lambda: st.vickrey_price([]), "at least one SFC bid is required"),
    "negative posted price": (lambda: st.follower_best_response(UNIT, -0.1),
                              "price must be >= 0"),
    "leader without units": (lambda: st.stackelberg_price([], [(5.0, 0.3)], 0.1, 0.3),
                             "no participating residential units"),
    "leader without demand": (lambda: st.stackelberg_price([UNIT], [], 0.1, 0.3),
                              "total requirement must be > 0"),
    "leader grid": (lambda: st.stackelberg_price([UNIT], [(5.0, 0.3)], 0.0, 1e12),
                    "bounds [0.0, 1000000000000.0] span too many grid points"),
    "shares without reservations": (lambda: st.allocate_shares([1.0], [1.0], st.PROPORTIONAL),
                                    "proportional allocation needs reservation prices"),
    "reservations per share": (
        lambda: st.allocate_shares([1.0], [1.0], st.PROPORTIONAL, [0.1, 0.2]),
        "one reservation price per share is required"),
    # NaN passes a `< 0` check; these returned NaN or infinite burdens
    "NaN share": (lambda: st.allocate_shares([math.nan, 2.0], [5.0], st.EQUAL),
                  "shares and requirements must be finite and nonnegative"),
    "infinite share": (lambda: st.allocate_shares([math.inf, 2.0], [5.0], st.EQUAL),
                       "shares and requirements must be finite and nonnegative"),
    "NaN requirement": (lambda: st.allocate_shares([1.0], [math.nan], st.EQUAL),
                        "shares and requirements must be finite and nonnegative"),
    "NaN reservation": (
        lambda: st.allocate_shares([4.0, 2.0], [1.0], st.PROPORTIONAL, [math.nan, 0.2]),
        "reservation prices must be finite"),
}


@pytest.mark.parametrize("case", list(LIBRARY))
def test_library_guard(case):
    call, message = LIBRARY[case]
    with pytest.raises(InputError) as info:
        call()
    assert str(info.value) == message


EV = "mechanism = ev_auction\nagent = c1 ev - w=1.9 c_min=6\nagent = d1 ev - l1=0.04 d_max=16\n"
STORAGE = ("mechanism = storage_auction\n"
           "agent = r1 residential_unit - capacity=60 reservation=0.26 reluctance=0.0005\n"
           "agent = f1 sfc - requirement=100 bid=0.40\n")
DOUBLE = "agent = p1 prosumer -\nagent = c1 consumer -\n"

# (config, extra argv, message): `run`, or `sweep` when argv is given, exits 1
CLI = {
    "line without =": ("horizon 4\n" + DOUBLE, [], "bad.cfg:1: expected 'key = value'"),
    "mechanism": ("mechanism = barter\n" + DOUBLE, [], "bad.cfg:1: unknown mechanism 'barter'"),
    "rule": ("rule = fair\n" + STORAGE, [],
             "bad.cfg:1: rule must be proportional or equal, got 'fair'"),
    "short agent": ("agent = p1 prosumer\n", [],
                    "bad.cfg:1: agent needs '<id> <role> <series|-> [k=v ...]'"),
    "parameter token": (EV + "agent = c2 ev - w\n", [],
                        "bad.cfg:4: bad parameter token 'w'"),
    "no agents": ("horizon = 4\n", [], "bad.cfg: no agents declared"),
    "storage without units": ("mechanism = storage_auction\n"
                              "agent = f1 sfc - requirement=100 bid=0.40\n", [],
                              "bad.cfg: storage_auction needs at least one residential_unit "
                              "agent"),
    "ev without sellers": ("mechanism = ev_auction\nagent = c1 ev - w=1.9\n", [],
                           "bad.cfg: ev_auction needs at least one discharging ev agent"),
    "seller cost sign": (EV + "agent = d2 ev - l1=-1 d_max=4\n", [],
                         "bad.cfg:4: discharging EV 'd2' l1 must lie in [1e-09, 1e+09] $/kWh^2, "
                         "got -1.0"),
    "seller without d_max": (EV + "agent = d2 ev - l1=0.1\n", [],
                             "bad.cfg:4: discharging EV 'd2' needs d_max > 0"),
    "unit reluctance": (STORAGE + "agent = r2 residential_unit - capacity=1 reservation=0.2 "
                        "reluctance=0\n", [], "bad.cfg:4: RU 'r2' reluctance must be > 0"),
    # the Tariff refuses the pair, named at the line of the price given last
    "prices reversed": ("p_rp = 0.2\np_wp = 0.3\n" + DOUBLE, [],
                        "bad.cfg:2: retail price must exceed wholesale price, "
                        "got p_rp=0.2 <= p_wp=0.3"),
    "wholesale price alone": ("horizon = 2\np_wp = 0.3\n" + DOUBLE, [],
                              "bad.cfg:2: retail price must exceed wholesale price, "
                              "got p_rp=0.3 <= p_wp=0.3"),
    "retail price range": ("p_rp = 1e4\n" + DOUBLE, [],
                           "bad.cfg:1: p_rp must lie in [0, 1000] $/kWh, "
                           "got 10000.0"),
    "margin range": ("seller_margin = 0:2000\n" + DOUBLE, [],
                     "bad.cfg:1: seller_margin must lie in [0, 1000] $/kWh, "
                     "got 2000.0"),
    "grid price range": (EV + "grid_sell_out = 1e300\n", [],
                         "bad.cfg:4: grid_sell_out must lie in [0, 1000] $/kWh, got 1e+300"),
    "subnormal reluctance": (STORAGE + "agent = r2 residential_unit - capacity=1 "
                             "reservation=0.2 reluctance=5e-324\n", [],
                             "bad.cfg:4: RU 'r2' reluctance must lie in [1e-09, 1e+09] $/kWh^2, "
                             "got 5e-324"),
    "slot longer than a day": ("slot_minutes = 1e20\n" + DOUBLE, ["solar_fraction", "0.5"],
                               "bad.cfg:1: slot_minutes must be an integer from 1 to 1440, "
                               "got 1e20"),
    "grid_price range": (EV, ["grid_price", "2000"],
                         "grid_price must lie in [0, 1000] $/kWh, got 2000.0"),
    "sfc_requirement range": (STORAGE, ["sfc_requirement", "1e10"],
                              "sfc_requirement must lie in [0, 1e+09] kWh, "
                              "got 10000000000.0"),
    "sfc_requirement sweep": (DOUBLE, ["sfc_requirement", "100"],
                              "sfc_requirement sweep is read by the storage_auction mechanism "
                              "only, not by double_auction"),
    "grid_price sweep": (DOUBLE, ["grid_price", "0.5"],
                         "grid_price sweep is read by the ev_auction mechanism only, "
                         "not by double_auction"),
    "solar_fraction sweep": (DOUBLE, ["solar_fraction", "0.5"],
                             "solar_fraction sweep needs generating agents"),
    "supplier_count sweep": (DOUBLE, ["supplier_count", "2"],
                             "supplier_count sweep is read by the coalition mechanism only, "
                             "not by double_auction"),
}


@pytest.mark.parametrize("case", list(CLI))
def test_cli_guard(tmp_path, capsys, case):
    text, sweep, message = CLI[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    argv = ["run", "--config", str(cfg)]
    if sweep:
        argv = ["sweep", "--config", str(cfg), "--param", sweep[0], "--values", sweep[1]]
    code = main([*argv, "--out", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 1
    # one line, no traceback, the message last
    assert err.startswith("gridswap: ") and err.endswith(f"{message}\n") and err.count("\n") == 1
