"""CLI subcommands: outputs, exit codes, determinism."""

import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as hst

import gridswap
from gridswap import coalition, ev, ingest, scenario, storage, synth
from gridswap.cli import _Out, _build_parser, _fmt, main
from gridswap.errors import SchemaError
from gridswap.market import Tariff

from oracles import fmt_reference


def snapshot(out_dir):
    return {
        p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
    }


@pytest.fixture
def orders_csv(tmp_path):
    path = tmp_path / "orders.csv"
    path.write_text(
        "agent_id,side,quantity,limit_price\n"
        "B1,buy,5,0.20\n"
        "S1,sell,5,0.10\n"
    )
    return path


@pytest.fixture
def instance_csv(tmp_path):
    path = tmp_path / "instance.csv"
    path.write_text(
        "id,role,net_kwh\n"
        "s1,supplier,10\n"
        "u1,user,-8\n"
        "s2,supplier,4\n"
    )
    return path


@pytest.fixture
def scenario_cfg(tmp_path):
    series = tmp_path / "pro.csv"
    series.write_text(
        "slot_index,load_kwh,gen_kwh\n" + "".join(f"{k},0.5,1.5\n" for k in range(4))
    )
    series2 = tmp_path / "con.csv"
    series2.write_text(
        "slot_index,load_kwh,gen_kwh\n" + "".join(f"{k},1.2,0.0\n" for k in range(4))
    )
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        textwrap.dedent(
            """
            mechanism = double_auction
            horizon = 4
            seed = 3
            agent = pro1 prosumer pro.csv
            agent = con1 consumer con.csv
            """
        )
    )
    return cfg


class TestClear:
    def test_crossing_pair(self, orders_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["clear", "--orders", str(orders_csv), "--out", str(out), "--quiet"])
        assert rc == 0
        matches = (out / "matches.csv").read_text().splitlines()
        assert matches[0] == "buyer_id,seller_id,quantity,price"
        assert matches[1] == "B1,S1,5.0,0.2"
        assert "clearing_price = 0.2" in (out / "clearing.txt").read_text()

    def test_missing_orders_is_usage_error(self, tmp_path):
        rc = main(["clear", "--orders", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2

    def test_bad_orders_is_domain_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("agent_id,side,quantity,limit_price\nB1,buy,-2,0.2\n")
        rc = main(["clear", "--orders", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1

    @pytest.mark.parametrize(
        "rows, line, message",
        [
            ("B1,buy,5,0.2\nB2,buy,-2,0.2\n", 3,
             "order quantity must lie in [0, 1e+09] kWh, got -2.0"),
            ("B1,buy,nan,0.2\n", 2, "expected a finite number, got 'nan'"),
            ("S1,sell,1,0.1\nB1,bid,5,0.2\n", 3, "order side must be 'buy' or 'sell', got 'bid'"),
            ("B1,buy,5,-0.5\n", 2, "limit price must lie in [0, 1000] $/kWh, got -0.5"),
        ],
    )
    def test_bad_order_named_at_its_line(self, tmp_path, capsys, rows, line, message):
        orders = tmp_path / "orders.csv"
        orders.write_text("agent_id,side,quantity,limit_price\n" + rows)
        rc = main(["clear", "--orders", str(orders), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"gridswap: {orders}:{line}: {message}\n"
        assert not (tmp_path / "o" / "matches.csv").exists()

    def test_orders_of_two_slots_rejected(self, tmp_path, capsys):
        orders = tmp_path / "orders.csv"
        orders.write_text("agent_id,side,quantity,limit_price,slot\nB1,buy,1,0.2,3\n"
                          "S1,sell,1,0.1,4\n")
        rc = main(["clear", "--orders", str(orders), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert "orders span multiple slots: [3, 4]" in capsys.readouterr().err

    def test_quoted_ids_round_trip(self, tmp_path):
        # the quotes send the file to the row reader; csv quotes the ids again on output
        orders = tmp_path / "orders.csv"
        orders.write_text(
            'agent_id,side,quantity,limit_price,slot\n'
            '"Smith, J",buy,2.5,0.25,7\n'
            '"the ""north"" roof",sell,1.5,0.1,7\n'
            ' plain ,sell,4,0.3,7\n'
        )
        out = tmp_path / "o"
        assert main(["clear", "--orders", str(orders), "--out", str(out), "--quiet"]) == 0
        assert (out / "matches.csv").read_text() == (
            "buyer_id,seller_id,quantity,price\n"
            '"Smith, J","the ""north"" roof",1.5,0.25\n'
        )
        assert (out / "residuals.csv").read_text() == (
            "agent_id,side,quantity\n"
            '"Smith, J",buy,1.0\n'
            "plain,sell,4.0\n"
        )


class TestRun:
    def test_writes_report_and_manifest(self, scenario_cfg, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(scenario_cfg), "--out", str(out), "--quiet"])
        assert rc == 0
        for name in ("report.csv", "summary.txt", "baselines.csv", "manifest.json"):
            assert (out / name).exists(), name

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestShapley:
    def test_exact_matches_hand_enumeration(self, instance_csv, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "shapley", "--exact", "--instance", str(instance_csv),
            "--p-wp", "0.05", "--p-rp", "0.10", "--out", str(out), "--quiet",
        ])
        assert rc == 0
        rows = (out / "allocation.csv").read_text().splitlines()
        header = rows[0].split(",")
        payoffs = {}
        for line in rows[1:]:
            cells = dict(zip(header, line.split(",")))
            payoffs[cells["id"]] = float(cells["payoff"])
        # oracle: direct enumeration over the 3! join orders
        import itertools

        energies = {"s1": 10.0, "u1": -8.0, "s2": 4.0}

        def value(group):
            net = sum(energies[g] for g in group)
            return 0.05 * max(net, 0.0) - 0.10 * max(-net, 0.0)

        expected = {k: 0.0 for k in energies}
        for perm in itertools.permutations(energies):
            prev, run = 0.0, []
            for pid in perm:
                run.append(pid)
                v = value(run)
                expected[pid] += v - prev
                prev = v
        for k in expected:
            expected[k] /= 6.0
            assert payoffs[k] == pytest.approx(expected[k], abs=1e-9)

    def test_monte_carlo_runs(self, instance_csv, tmp_path):
        out = tmp_path / "out"
        rc = main([
            "shapley", "--instance", str(instance_csv), "--samples", "500",
            "--seed", "9", "--out", str(out), "--quiet",
        ])
        assert rc == 0

    @pytest.mark.parametrize("flags", [["--exact"], ["--samples", "500"]])
    def test_core_keys(self, tmp_path, flags):
        def summary(name, rows):
            path = tmp_path / f"{name}.csv"
            path.write_text("id,role,net_kwh\n" + "".join(f"{r}\n" for r in rows))
            out = tmp_path / name
            argv = ["shapley", "--instance", str(path), *flags, "--out", str(out), "--quiet"]
            assert main(argv) == 0
            lines = (out / "summary.txt").read_text().splitlines()
            return dict(line.split(" = ") for line in lines)

        # two members: the Shapley split halves the pooling gain, so no one blocks
        paired = summary("paired", ["s,supplier,5", "u,user,-5"])
        assert float(paired["core_shortfall"]) <= 1e-9
        assert paired["blocking_coalition"] == ""
        # long supply: the big supplier and both users do better alone
        unbalanced = summary("unbalanced", [
            "s0,supplier,11.37", "s1,supplier,18.16", "s2,supplier,5.09",
            "u0,user,-8.83", "u1,user,-5.39",
        ])
        assert float(unbalanced["core_shortfall"]) > 0.5
        assert unbalanced["blocking_coalition"] == "s1;u0;u1"
        if flags == ["--exact"]:
            assert unbalanced["core_shortfall"] == "0.6255833333333333"
        else:
            # above the exact limit both keys stay blank
            large = summary("large", [f"m{k},supplier,{k + 1}" for k in range(33)])
            assert large["core_shortfall"] == large["blocking_coalition"] == ""

    @pytest.mark.parametrize("flags, blank", [
        (["--exact"], True), (["--samples", "1"], True), (["--samples", "400"], False),
    ])
    def test_standard_error_key(self, tmp_path, flags, blank):
        path = tmp_path / "inst.csv"
        path.write_text("id,role,net_kwh\ns0,supplier,11.37\ns1,supplier,5.09\n"
                        "u0,user,-8.83\nu1,user,-5.39\n")
        out = tmp_path / "o"
        argv = ["shapley", "--instance", str(path), *flags, "--seed", "2", "--out", str(out)]
        assert main([*argv, "--quiet"]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        error = dict(line.split(" = ") for line in lines)["standard_error"]
        if blank:
            assert error == ""
        else:
            assert 0 < float(error) < 0.1
            inst = coalition.CoalitionInstance(
                tuple(coalition.Customer(i, r, e) for i, r, e in [
                    ("s0", "supplier", 11.37), ("s1", "supplier", 5.09),
                    ("u0", "user", -8.83), ("u1", "user", -5.39)]),
                Tariff(p_wp=0.05, p_rp=0.30))
            alloc = coalition.shapley_monte_carlo(inst, 400, 2)
            assert error == repr(max(alloc.standard_error.values()))

    @pytest.mark.parametrize("samples", [1, 2, 3, 4])
    def test_standard_error_needs_two_pairs(self, tmp_path, samples):
        """shapley's standard_error and a sampled coalition run's
        shapley_standard_error are blank, not nan, until the join orders
        hold two complete antithetic pairs."""
        path = tmp_path / "inst.csv"
        path.write_text("id,role,net_kwh\ns0,supplier,11.37\ns1,supplier,5.09\n"
                        "u0,user,-8.83\nu1,user,-5.39\n")
        agents = []
        for k in range(coalition._EXACT_LIMIT + 1):
            load, gen = (0.5, 1.5 + 0.25 * k) if k % 2 else (1.0 + 0.125 * k, 0.0)
            (tmp_path / f"a{k}.csv").write_text(
                "slot_index,load_kwh,gen_kwh\n" + "".join(f"{t},{load},{gen}\n" for t in range(2))
            )
            agents.append(f"agent = a{k} {'prosumer' if k % 2 else 'consumer'} a{k}.csv\n")
        cfg = tmp_path / "co.cfg"
        cfg.write_text(f"mechanism = coalition\nhorizon = 2\nmc_samples = {samples}\n"
                       + "".join(agents))
        for argv, key in (
            (["shapley", "--instance", str(path), "--samples", str(samples), "--seed", "2"],
             "standard_error"),
            (["run", "--config", str(cfg)], "shapley_standard_error"),
        ):
            out = tmp_path / argv[0]
            assert main([*argv, "--out", str(out), "--quiet"]) == 0
            lines = (out / "summary.txt").read_text().splitlines()
            summary = dict(line.split(" = ") for line in lines)
            assert summary.get("shapley_sampled_slots", "2") == "2"
            if samples < 4:
                assert summary[key] == ""
            else:
                assert float(summary[key]) >= 0


    # nets past ingest.ENERGY: the first overflowed the Shapley sums; with the
    # second, exact Shapley paid 0.2458 in all against a grand value of 0.1 and
    # called that division stable
    @pytest.mark.parametrize("big", [1e200, 1.6759759912428246e147, math.nextafter(1e9, math.inf)])
    @pytest.mark.parametrize("flags", [["--exact"], ["--samples", "400"]])
    def test_nets_that_overflow_the_sums_exit_1(self, tmp_path, capsys, flags, big):
        path = tmp_path / "inst.csv"
        path.write_text(f"id,role,net_kwh\na,supplier,{big!r}\nb,supplier,5\n"
                        f"c,user,{-big!r}\nd,user,-3\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["shapley", "--instance", str(path), *flags, "--out", str(out), "--quiet"])
        assert code == 1 and caught == []
        assert capsys.readouterr().err == (
            f"gridswap: {path}:2: customer 'a' |net_energy| must lie in [0, 1e+09] kWh, "
            f"got {big!r}\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("nets", [(1e9, 5.0, -1e9, -3.0), (1e9, 5.3, -999999999.3, -3.1),
                                      (1e9, 1e9, -1e9, -0.7)])
    def test_exact_division_at_the_bound_is_efficient(self, tmp_path, nets):
        """At the largest nets ingest.ENERGY takes, exact Shapley pays out the
        grand value within N max|e| p_rp 2**-52, the rounding its comment states."""
        path = tmp_path / "inst.csv"
        path.write_text("id,role,net_kwh\n" + "".join(
            f"m{k},{'supplier' if e > 0 else 'user'},{e!r}\n" for k, e in enumerate(nets)))
        out = tmp_path / "o"
        assert main(["shapley", "--exact", "--instance", str(path), "--out", str(out),
                     "--quiet"]) == 0
        summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
        rounding = len(nets) * max(map(abs, nets)) * 0.30 * 2.0**-52
        assert abs(float(summary["total_payoff"]) - float(summary["grand_value"])) <= rounding

    def test_nets_at_the_bound_keep_a_finite_standard_error(self, tmp_path):
        """The largest nets the range lets four members have, at the most join
        orders --samples takes."""
        big = ingest.ENERGY.largest
        path = tmp_path / "inst.csv"
        path.write_text(f"id,role,net_kwh\na,supplier,{big!r}\nb,supplier,5\n"
                        f"c,user,{-big!r}\nd,user,-3\n")
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["shapley", "--instance", str(path), "--samples",
                         str(coalition.MAX_SAMPLES), "--out", str(out), "--quiet"])
        assert code == 0 and caught == []
        lines = (out / "summary.txt").read_text().splitlines()
        assert math.isfinite(float(dict(line.split(" = ") for line in lines)["standard_error"]))


class TestStorageAuctionCmd:
    def test_outcome_files(self, tmp_path):
        rus = tmp_path / "rus.csv"
        rus.write_text(
            "id,capacity,reservation_price,reluctance\n"
            "r1,60,0.10,0.002\nr2,60,0.12,0.003\n"
        )
        sfcs = tmp_path / "sfcs.csv"
        sfcs.write_text("id,requirement,bid_price\na,120,0.35\nb,80,0.28\n")
        out = tmp_path / "out"
        rc = main(["storage-auction", "--rus", str(rus), "--sfcs", str(sfcs),
                   "--out", str(out), "--quiet"])
        assert rc == 0
        assert (out / "units.csv").exists()
        assert "auction_price" in (out / "summary.txt").read_text()


class TestHugeCapacity:
    # a capacity past ingest.ENERGY is refused at its line, as 1e200, whose
    # square overflows, was; one at the bound runs
    @pytest.mark.parametrize("capacity, reluctance, code",
                             [("1e200", "1e-200", 1), ("1e9", "1e-9", 0),
                              (repr(math.nextafter(1e9, math.inf)), "1e-9", 1)])
    @pytest.mark.parametrize("command", ["storage-auction", "run", "sweep"])
    def test_refused_at_its_line(self, tmp_path, capsys, command, capacity, reluctance, code):
        if command == "storage-auction":
            where = tmp_path / "rus.csv"
            where.write_text("id,capacity,reservation_price,reluctance\n"
                             f"u1,{capacity},0.01,{reluctance}\n")
            sfcs = tmp_path / "sfcs.csv"
            sfcs.write_text("id,requirement,bid_price\na,5,0.35\nb,1,0.28\n")
            argv = [command, "--rus", str(where), "--sfcs", str(sfcs)]
        else:
            where = tmp_path / "st.cfg"
            where.write_text(
                "mechanism = storage_auction\n"
                f"agent = u1 residential_unit - capacity={capacity} reservation=0.01 "
                f"reluctance={reluctance}\n"
                "agent = a sfc - requirement=5 bid=0.35\nagent = b sfc - requirement=1 bid=0.28\n"
            )
            argv = [command, "--config", str(where)]
            if command == "sweep":
                argv += ["--param", "sfc_requirement", "--values", "10"]
        assert main([*argv, "--out", str(tmp_path / "out"), "--quiet"]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err == (f"gridswap: {where}:2: RU 'u1' capacity must lie in [0, 1e+09] kWh, "
                           f"got {float(capacity)!r}\n")


class TestNash:
    def test_coordination_game(self, tmp_path):
        game = tmp_path / "game.csv"
        lines = ["player,s0,s1,utility"]
        payoff = {(0, 0): 2.0, (1, 1): 1.0, (0, 1): 0.0, (1, 0): 0.0}
        for player in (0, 1):
            for a in (0, 1):
                for b in (0, 1):
                    lines.append(f"{player},{a},{b},{payoff[(a, b)]}")
        game.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["nash", "--game", str(game), "--out", str(out), "--quiet"])
        assert rc == 0
        body = (out / "equilibria.csv").read_text().splitlines()
        assert body[1:] == ["0,0", "1,1"]

    # only (s0=1, s1=0) is an equilibrium: payoff[player][s0, s1]
    # (read with s0 and s1 swapped, (0, 1) would be one too)
    ONE_EQUILIBRIUM = {0: {(0, 0): 0, (0, 1): 0, (1, 0): 1, (1, 1): 0},
                       1: {(0, 0): 1, (0, 1): 0, (1, 0): 2, (1, 1): 0}}

    @pytest.mark.parametrize("path", ["columns", "rows"])
    @pytest.mark.parametrize(
        "header, row",
        [
            # strategy columns are read by name, not by header position
            ("player,s1,s0,utility", "{p},{b},{a},{u}"),
            # columns other than player, s0..sN and utility are ignored
            ("source,player,s0,s1,utility", "grid,{p},{a},{b},{u}"),
            ("player,s0,s1,utility,s3", "{p},{a},{b},{u},9"),
        ],
    )
    def test_strategy_columns_by_name(self, tmp_path, monkeypatch, path, header, row):
        if path == "rows":
            monkeypatch.setattr(ingest, "columns", lambda *args, **kwargs: None)
        lines = [header] + [
            row.format(p=p, a=a, b=b, u=u)
            for p, payoff in self.ONE_EQUILIBRIUM.items() for (a, b), u in payoff.items()
        ]
        game = tmp_path / "game.csv"
        game.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["nash", "--game", str(game), "--out", str(out), "--quiet"]) == 0
        assert (out / "equilibria.csv").read_text().splitlines() == ["s0,s1", "1,0"]


class TestGameRepeatedRow:
    COMPLETE = ["player,s0,s1,utility"] + [
        f"{p},{a},{b},{1 if a == b else 0}" for p in (0, 1) for a in (0, 1) for b in (0, 1)
    ]

    @pytest.mark.parametrize(
        "lines, line",
        [
            # a complete 2x2 game plus a repeat of its first row, on line 10
            (COMPLETE + ["0,0,0,9"], 10),
            # the last row missing as well: the repeat, on line 9, is what is reported
            (COMPLETE[:-1] + ["0,0,0,9"], 9),
        ],
    )
    def test_rejected_with_its_line(self, tmp_path, capsys, lines, line):
        game = tmp_path / "game.csv"
        game.write_text("\n".join(lines) + "\n")
        assert main(["nash", "--game", str(game), "--out", str(tmp_path / "o"), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert f"game.csv:{line}: repeated row for player 0, profile (0, 0)" in err


class TestRepeatedIdRejected:
    RUS = "id,capacity,reservation_price,reluctance\na,60,0.10,0.002\nb,50,0.12,0.003\n"
    SFCS = "id,requirement,bid_price\nx,500,0.35\ny,300,0.28\n"

    @pytest.mark.parametrize(
        "name, text, line",
        [
            ("rus.csv", RUS + "a,40,0.05,0.004\n", 4),
            ("sfcs.csv", SFCS + "\nx,100,0.30\n", 5),
            ("pop.csv", "id,role,w,l1,l2,c_min,c_max,d_max\nc1,charging,1.9,,,6,15,\n"
             "c1,charging,2.0,,,5,14,\nd1,discharging,,0.04,0.02,,,16\n", 3),
            ("instance.csv", "id,role,net_kwh\ns1,supplier,10\nu1,user,-8\n s1 ,supplier,4\n", 4),
        ],
    )
    def test_rejected_with_its_line(self, tmp_path, capsys, name, text, line):
        (tmp_path / "rus.csv").write_text(self.RUS)
        (tmp_path / "sfcs.csv").write_text(self.SFCS)
        (tmp_path / name).write_text(text)
        storage = ["storage-auction", "--rus", str(tmp_path / "rus.csv"),
                   "--sfcs", str(tmp_path / "sfcs.csv")]
        argv = {
            "rus.csv": storage,
            "sfcs.csv": storage,
            "pop.csv": ["ev-auction", "--population", str(tmp_path / name)],
            "instance.csv": ["shapley", "--exact", "--instance", str(tmp_path / name)],
        }[name]
        assert main([*argv, "--out", str(tmp_path / "o"), "--quiet"]) == 1
        assert f"{name}:{line}: repeated id " in capsys.readouterr().err


class TestSeriesSlotIndex:
    @pytest.mark.parametrize("path", ["columns", "rows"])
    @pytest.mark.parametrize(
        "slots, line",
        [
            (["0", "x", "2"], 3),
            (["x", "7", "2"], 2),
            (["-1", "1", "2"], 2),
            (["0", "1.5", "2"], 3),
            (["0", "2", "1"], 3),
        ],
    )
    def test_must_count_from_zero(self, tmp_path, capsys, monkeypatch, path, slots, line):
        if path == "rows":
            monkeypatch.setattr(ingest, "columns", lambda *args, **kwargs: None)
        header = "slot_index,load_kwh,gen_kwh\n"
        (tmp_path / "pro.csv").write_text(header + "".join(f"{t},0.5,1.5\n" for t in slots))
        (tmp_path / "con.csv").write_text(header + "".join(f"{t},1.2,0\n" for t in range(3)))
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("horizon = 3\nagent = p1 prosumer pro.csv\nagent = c1 consumer con.csv\n")
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
        assert code == 1
        assert f"pro.csv:{line}: " in capsys.readouterr().err


class TestSweep:
    def test_sfc_requirement_sweep(self, tmp_path):
        cfg = tmp_path / "st.cfg"
        cfg.write_text(
            textwrap.dedent(
                """
                mechanism = storage_auction
                horizon = 1
                agent = r1 residential_unit - capacity=60 reservation=0.26 reluctance=0.0005
                agent = f1 sfc - requirement=100 bid=0.40
                agent = f2 sfc - requirement=100 bid=0.28
                """
            )
        )
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(cfg), "--param", "sfc_requirement",
                   "--values", "100,200,300", "--out", str(out), "--quiet"])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4

    def test_unknown_param_is_domain_error(self, scenario_cfg, tmp_path):
        rc = main(["sweep", "--config", str(scenario_cfg), "--param", "voltage",
                   "--values", "1,2", "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1


class TestIcCheck:
    def test_small_run_clean(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["ic-check", "--trials", "4", "--seed", "5",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        summary = (out / "summary.txt").read_text()
        assert "clean = True" in summary
        assert "largest_gain = 0.0" in summary

    @pytest.mark.parametrize("rule", ["proportional", "equal"])
    def test_summary_counts_what_the_screen_left(self, tmp_path, rule):
        # the floor screen prices all but 78 of the 16,960 auctions; the grid searches the rest
        out = tmp_path / "out"
        assert main(["ic-check", "--trials", "100", "--seed", "1", "--rule", rule,
                     "--out", str(out), "--quiet"]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[1:4] == ["deviations_checked = 16860", "auctions_priced = 16960",
                              "auctions_searched = 78"]

    def test_summary_names_the_factors_searched(self, tmp_path):
        out = tmp_path / "out"
        assert main(["ic-check", "--trials", "2", "--out", str(out), "--quiet"]) == 0
        lines = (out / "summary.txt").read_text().splitlines()
        assert lines[-3:] == ["factor_low = 0.5", "factor_high = 1.5", "factors = 20"]


class TestEvRunDiagnostics:
    """An EV `run` writes the diagnostics of the one auction every slot replays."""

    def test_equal_to_ev_auction_on_the_same_vehicles(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text(
            "id,role,w,l1,l2,c_min,c_max,d_max\n"
            "c1,charging,1.9,,,6,15,\n"
            "c2,charging,1.4,,,5,14,\n"
            "d1,discharging,,0.04,0.02,,,16\n"
            "d2,discharging,,0.05,0.03,,,13\n"
        )
        cfg = tmp_path / "ev.cfg"
        cfg.write_text(
            "mechanism = ev_auction\nhorizon = 4\neta = 0.85\neps = 1e-6\n"
            "agent = c1 ev - w=1.9 c_min=6 c_max=15\n"
            "agent = c2 ev - w=1.4 c_min=5 c_max=14\n"
            "agent = d1 ev - l1=0.04 l2=0.02 d_max=16\n"
            "agent = d2 ev - l1=0.05 l2=0.03 d_max=13\n"
        )
        assert main(["ev-auction", "--population", str(pop), "--eta", "0.85", "--eps", "1e-6",
                     "--out", str(tmp_path / "auction"), "--quiet"]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run"), "--quiet"]) == 0
        auction, run = (dict(line.split(" = ") for line in
                             (tmp_path / name / "summary.txt").read_text().splitlines())
                        for name in ("auction", "run"))
        keys = ("iterations", "gap", "feasibility_residual")
        assert {k: run[k] for k in keys} == {k: auction[k] for k in keys}
        assert run["converged_slots"] == "4" and auction["converged"] == "True"
        assert int(run["iterations"]) > 0 and float(run["gap"]) <= 1e-6


class TestEvAuctionCmd:
    def test_numeric_cells_are_plain_floats(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text(
            "id,role,w,l1,l2,c_min,c_max,d_max\n"
            "c1,charging,1.9,,,6,15,\n"
            "d1,discharging,,0.04,0.02,,,16\n"
        )
        out = tmp_path / "out"
        assert main(["ev-auction", "--population", str(pop),
                     "--out", str(out), "--quiet"]) == 0
        for name in ("allocation.csv", "trace.csv", "settlement.csv", "summary.txt"):
            text = (out / name).read_text()
            assert "np." not in text, name

    def test_allocation_rows_equal_the_pair_loop(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text(
            "id,role,w,l1,l2,c_min,c_max,d_max\n"
            "c1,charging,1.9,,,6,15,\n"
            "c2,charging,1.4,,,5,14,\n"
            "c3,charging,0.6,,,0,3,\n"
            "d1,discharging,,0.04,0.02,,,16\n"
            "d2,discharging,,0,0.03,,,13\n"
            "d3,discharging,,0.2,0.5,,,2\n"
        )
        # the costly d3 sends nothing and d2 nothing to c3, so the threshold drops cells
        out = tmp_path / "out"
        assert main(["ev-auction", "--population", str(pop), "--out", str(out), "--quiet"]) == 0
        chargers, dischargers = ev.read_ev_population_csv(pop, {})
        alloc, _ = ev.run_iterative_auction(chargers, dischargers, eta=ev.DEFAULT_ETA,
                                            eps=1e-4, max_iter=500)
        expected = ["from,to,sent_kwh,delivered_kwh"]
        for j, s in enumerate(dischargers):
            for i, c in enumerate(chargers):
                if alloc.sent[j, i] > 1e-12:
                    cells = [s.id, c.id, alloc.sent[j, i], alloc.eta * alloc.sent[j, i]]
                    expected.append(",".join(fmt_reference(v) for v in cells))
        assert (out / "allocation.csv").read_text().splitlines() == expected


    def test_linear_seller_converges(self, tmp_path):
        pop = tmp_path / "pop.csv"
        pop.write_text(
            "id,role,w,l1,l2,c_min,c_max,d_max\n"
            "c1,charging,1.9,,,6,15,\n"
            "c2,charging,1.4,,,5,14,\n"
            "d1,discharging,,0.04,0.02,,,16\n"
            "d2,discharging,,0,0.03,,,13\n"
        )
        out = tmp_path / "out"
        assert main(["ev-auction", "--population", str(pop),
                     "--out", str(out), "--quiet"]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        assert "converged = True" in summary
        values = dict(line.split(" = ") for line in summary)
        assert float(values["gap"]) <= 1e-4
        assert float(values["feasibility_residual"]) <= 1e-9
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,welfare,gap,max_price_change"
        assert trace[-1].split(",")[:3] == [values["iterations"], values["welfare"], values["gap"]]


@pytest.fixture
def every_call(tmp_path, scenario_cfg, orders_csv, instance_csv):
    """One argv per subcommand (two for shapley) that exits 0, without --out."""
    rus = tmp_path / "rus.csv"
    rus.write_text(
        "id,capacity,reservation_price,reluctance\nr1,60,0.10,0.002\n"
    )
    sfcs = tmp_path / "sfcs.csv"
    sfcs.write_text("id,requirement,bid_price\na,120,0.35\nb,80,0.28\n")
    pop = tmp_path / "pop.csv"
    pop.write_text(
        "id,role,w,l1,l2,c_min,c_max,d_max\n"
        "c1,charging,1.9,,,6,15,\n"
        "d1,discharging,,0.04,0.02,,,16\n"
    )
    game = tmp_path / "game.csv"
    game.write_text(
        "player,s0,s1,utility\n0,0,0,1\n0,0,1,0\n0,1,0,0\n0,1,1,1\n"
        "1,0,0,1\n1,0,1,0\n1,1,0,0\n1,1,1,1\n"
    )
    # the supplier_count sweep reads a coalition config; this one shares the series
    coalition_cfg = tmp_path / "coalition.cfg"
    coalition_cfg.write_text(
        scenario_cfg.read_text().replace("double_auction", "coalition")
    )
    return [
        ["run", "--config", str(scenario_cfg)],
        ["clear", "--orders", str(orders_csv)],
        ["ev-auction", "--population", str(pop)],
        ["shapley", "--exact", "--instance", str(instance_csv)],
        ["shapley", "--instance", str(instance_csv), "--samples", "200", "--seed", "4"],
        ["storage-auction", "--rus", str(rus), "--sfcs", str(sfcs)],
        ["ic-check", "--trials", "2", "--seed", "1"],
        ["nash", "--game", str(game)],
        ["sweep", "--config", str(coalition_cfg), "--param", "supplier_count",
         "--values", "2,3"],
    ]


class TestDeterminism:
    def test_every_subcommand_byte_identical(self, tmp_path, every_call):
        for k, argv in enumerate(every_call):
            out = tmp_path / f"det{k}"
            full = argv + ["--out", str(out), "--quiet"]
            assert main(full) == 0, argv
            first = snapshot(out)
            for f in out.iterdir():
                f.unlink()
            assert main(full) == 0, argv
            assert snapshot(out) == first, argv[0]


# each input flag, with the argv that gives every other input a regular file
_INPUT_FLAGS = [
    (["run"], "config", "config file"),
    (["clear"], "orders", "orders file"),
    (["ev-auction"], "population", "population file"),
    (["shapley"], "instance", "instance file"),
    (["storage-auction", "--sfcs", "ok.csv"], "rus", "residential-units file"),
    (["storage-auction", "--rus", "ok.csv"], "sfcs", "SFC file"),
    (["nash"], "game", "game file"),
    (["sweep", "--param", "supplier_count", "--values", "2"], "config", "config file"),
]


# a run and a sweep of a double-auction config, without --config
_CONFIG_CALLS = [["run"], ["sweep", "--param", "solar_fraction", "--values", "0.5"]]


class TestFileProtocol:
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("argv, flag, label", _INPUT_FLAGS,
                             ids=[f"{a[0]}-{f}" for a, f, _ in _INPUT_FLAGS])
    def test_input_not_a_file_exits_2_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                     argv, flag, label, kind):
        monkeypatch.chdir(tmp_path)
        Path("ok.csv").write_text("id\n")
        if kind == "directory":
            Path("given").mkdir()
        rc = main([*argv, f"--{flag}", "given", "--out", "out", "--quiet"])
        assert rc == 2
        problem = "not found" if kind == "missing" else "is not a regular file"
        assert capsys.readouterr().err == f"gridswap: {label} given {problem}\n"
        assert not Path("out").exists()

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_naming_a_file_exits_2_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                      out):
        monkeypatch.chdir(tmp_path)
        Path("afile").write_text("kept\n")
        rc = main(["ic-check", "--trials", "1", "--out", out, "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gridswap: --out {out} ") and err.count("\n") == 1
        assert os.listdir() == ["afile"] and Path("afile").read_text() == "kept\n"

    def test_manifest_lists_exactly_the_files_written(self, tmp_path, every_call):
        for k, argv in enumerate(every_call):
            out = tmp_path / f"fresh{k}"
            assert main([*argv, "--out", str(out), "--quiet"]) == 0, argv
            outputs = json.loads((out / "manifest.json").read_text())["outputs"]
            assert sorted(outputs + ["manifest.json"]) == sorted(os.listdir(out)), argv

    @pytest.mark.parametrize("argv", _CONFIG_CALLS, ids=["run", "sweep"])
    def test_manifest_hashes_the_series_files(self, tmp_path, scenario_cfg, argv):
        def inputs(out):
            assert main([*argv, "--config", str(scenario_cfg), "--out", str(out), "--quiet"]) == 0
            return json.loads((out / "manifest.json").read_text())["inputs"]

        first = inputs(tmp_path / "first")
        assert sorted(first) == sorted(str(tmp_path / f) for f in ("scenario.cfg", "pro.csv",
                                                                   "con.csv"))
        series = tmp_path / "con.csv"
        series.write_text(series.read_text().replace("1.2", "1.3"))
        second = inputs(tmp_path / "second")
        assert second[str(scenario_cfg)] == first[str(scenario_cfg)]
        assert second[str(series)] != first[str(series)]

    def test_manifest_digests_are_the_sha256_of_each_file(self, tmp_path, scenario_cfg):
        # CRLF line ends, which text mode reads as LF, and a quoted cell, which
        # sends the file to the row reader, still hash the bytes on disk
        pro = tmp_path / "pro.csv"
        pro.write_bytes(pro.read_bytes().replace(b"\n", b"\r\n"))
        con = tmp_path / "con.csv"
        con.write_text(con.read_text().replace("0,1.2", '0,"1.2"'))
        out = tmp_path / "out"
        assert main(["run", "--config", str(scenario_cfg), "--out", str(out), "--quiet"]) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {str(f): hashlib.sha256(f.read_bytes()).hexdigest()
                          for f in sorted((scenario_cfg, pro, con))}

    def test_stale_file_in_out_is_not_listed(self, tmp_path, scenario_cfg):
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.csv").write_text("old\n")
        assert main(["run", "--config", str(scenario_cfg), "--out", str(out), "--quiet"]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert "stale.csv" not in outputs
        assert sorted(outputs + ["manifest.json", "stale.csv"]) == sorted(os.listdir(out))

    def _game(self, tmp_path, cell="1.5"):
        game = tmp_path / "game.csv"
        game.write_text("player,s0,utility\n" f"0,0,{cell}\n0,1,-2\n")
        return game

    @pytest.mark.parametrize("kind", ["nash", "clear"])
    def test_parsed_input_hashed_from_the_bytes_read(self, tmp_path, orders_csv, kind):
        # the text read and numpy's parse; the manifest reads it no more
        path = self._game(tmp_path) if kind == "nash" else orders_csv
        argv = [kind, "--game" if kind == "nash" else "--orders", str(path)]
        out = tmp_path / "out"
        with _opens() as opened:
            assert main([*argv, "--out", str(out), "--quiet"]) == 0
        assert opened.count(str(path)) == 2
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}

    @pytest.mark.parametrize("unread", [False, True])
    def test_row_reader_input_still_hashed(self, tmp_path, monkeypatch, unread):
        # a quoted cell is read, hashed and sent to the row reader; a file the
        # fast path could not read at all is hashed by the row reader that parses it
        if unread:
            _fast_path_unread(monkeypatch)
        game = self._game(tmp_path, cell='"1.5"')
        out = tmp_path / "out"
        assert main(["nash", "--game", str(game), "--out", str(out), "--quiet"]) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {str(game): hashlib.sha256(game.read_bytes()).hexdigest()}

    @pytest.mark.parametrize("kind", ["nash", "clear"])
    @pytest.mark.parametrize("unread", [False, True], ids=["quoted", "unread"])
    def test_row_reader_hashes_the_bytes_it_parsed(self, tmp_path, monkeypatch, orders_csv,
                                                   kind, unread):
        # the file gains a blank line after each read of its rows, so a manifest
        # that read it again would name bytes that were never parsed
        if unread:
            _fast_path_unread(monkeypatch)
            path = self._game(tmp_path) if kind == "nash" else orders_csv
        elif kind == "nash":
            path = self._game(tmp_path, cell='"1.5"')
        else:
            path = orders_csv
            path.write_text(path.read_text().replace("B1", '"B1"'))
        table, parsed = ingest.table, []

        @contextmanager
        def changed_after(*args):
            with table(*args) as rows:
                parsed.append(Path(args[0]).read_bytes())
                yield rows
            Path(args[0]).write_bytes(parsed[-1] + b"\n")

        monkeypatch.setattr(ingest, "table", changed_after)
        argv = [kind, "--game" if kind == "nash" else "--orders", str(path)]
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {str(path): hashlib.sha256(parsed[-1]).hexdigest()}
        assert path.read_bytes() != parsed[-1]

    @pytest.mark.parametrize("command", ["run", "sweep", "shapley", "storage-auction",
                                         "ev-auction"])
    def test_input_opened_once(self, tmp_path, every_call, command):
        # each file read as a whole is opened once; a series file twice, by the
        # fast path's text read and numpy's parse
        argv = next(argv for argv in every_call if argv[0] == command)
        args = _build_parser().parse_args(argv)
        once = [getattr(args, flag) for flag in args.inputs]
        twice = _series_named(Path(args.config)) if "config" in args.inputs else []
        with _opens() as opened:
            assert main([*argv, "--out", str(tmp_path / "out"), "--quiet"]) == 0
        assert [opened.count(path) for path in once] == [1] * len(once)
        assert [opened.count(str(path)) for path in twice] == [2] * len(twice)

    def test_manifest_names_every_file_read(self, tmp_path, every_call):
        # each input flag's file and each series file a config names, with the
        # sha256 of its bytes on disk
        for k, argv in enumerate(every_call):
            out = tmp_path / f"inputs{k}"
            assert main([*argv, "--out", str(out), "--quiet"]) == 0, argv
            args = _build_parser().parse_args(argv)
            read = [Path(getattr(args, flag)) for flag in args.inputs]
            if "config" in args.inputs:
                read += _series_named(read[0])
            inputs = json.loads((out / "manifest.json").read_text())["inputs"]
            assert inputs == {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                              for p in read}, argv

    @pytest.mark.parametrize("command", ["storage-auction", "shapley", "ev-auction"])
    def test_table_hashed_from_the_bytes_parsed(self, tmp_path, monkeypatch, every_call,
                                                command):
        # each file gains a blank line once its rows are read, so a manifest that
        # read it again would name bytes that were never parsed
        table, parsed = ingest.table, {}

        @contextmanager
        def changed_after(*args):
            with table(*args) as rows:
                parsed[str(args[0])] = Path(args[0]).read_bytes()
                yield rows
            Path(args[0]).write_bytes(parsed[str(args[0])] + b"\n")

        monkeypatch.setattr(ingest, "table", changed_after)
        argv = next(argv for argv in every_call if argv[0] == command)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out), "--quiet"]) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {path: hashlib.sha256(data).hexdigest() for path, data in parsed.items()}
        assert all(Path(path).read_bytes() != data for path, data in parsed.items())

    @pytest.mark.parametrize("argv", _CONFIG_CALLS, ids=["run", "sweep"])
    def test_config_hashed_from_the_bytes_parsed(self, tmp_path, monkeypatch, scenario_cfg,
                                                 argv):
        # the config gains a comment once it is loaded, so a manifest that read
        # it again would name bytes that were never parsed
        load, parsed = scenario.load_scenario, []

        def changed_after(path):
            loaded = load(path)
            parsed.append(Path(path).read_bytes())
            Path(path).write_bytes(parsed[-1] + b"# changed\n")
            return loaded

        monkeypatch.setattr(scenario, "load_scenario", changed_after)
        out = tmp_path / "out"
        assert main([*argv, "--config", str(scenario_cfg), "--out", str(out), "--quiet"]) == 0
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs[str(scenario_cfg)] == hashlib.sha256(parsed[-1]).hexdigest()
        assert scenario_cfg.read_bytes() != parsed[-1]

    @pytest.mark.parametrize("argv", _CONFIG_CALLS, ids=["run", "sweep"])
    def test_config_that_does_not_decode_exits_1_writes_nothing(self, tmp_path, capsys, argv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"horizon = 2\n# caf\xe9\nagent = p1 prosumer -\n")
        out = tmp_path / "out"
        assert main([*argv, "--config", str(cfg), "--out", str(out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"gridswap: {cfg}:2: ") and "can't decode byte 0xe9" in err
        assert "Traceback" not in err and os.listdir(out) == []

    def test_config_comment_ends_at_a_newline_only(self, tmp_path):
        # the form feed is inside the comment, so horizon is given once
        cfg = tmp_path / "ff.cfg"
        cfg.write_bytes(b"horizon = 2\n# old setting\x0chorizon = 3\nagent = p1 prosumer -\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        assert scenario.load_scenario(cfg).horizon == 2

    @pytest.mark.parametrize("unread", [False, True])
    def test_series_hashed_from_the_bytes_parsed(self, tmp_path, monkeypatch, scenario_cfg,
                                                 unread):
        # a series file whose text read fails is parsed, and hashed, by the row reader
        row_reads = []
        if unread:
            _fast_path_unread(monkeypatch)
            table = ingest.table

            def counted(*args):
                row_reads.append(args[0])
                return table(*args)
            monkeypatch.setattr(ingest, "table", counted)
        out = tmp_path / "out"
        assert main(["run", "--config", str(scenario_cfg), "--out", str(out), "--quiet"]) == 0
        assert len(row_reads) == (2 if unread else 0)
        inputs = json.loads((out / "manifest.json").read_text())["inputs"]
        assert inputs == {str(tmp_path / name): hashlib.sha256((tmp_path / name).read_bytes())
                          .hexdigest() for name in ("scenario.cfg", "pro.csv", "con.csv")}
        assert hashlib.sha256().hexdigest() not in inputs.values()


def _fast_path_unread(monkeypatch):
    """Make `ingest.columns` fail to read its file, as it would an unreadable one."""
    columns = ingest.columns

    def refused(path):
        raise OSError("refused")

    def unread(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(Path, "read_bytes", refused)
            return columns(*args, **kwargs)

    monkeypatch.setattr(ingest, "columns", unread)


def _series_named(cfg: Path) -> list[Path]:
    """The series files the config's agent lines name."""
    decls = [line.split("=", 1)[1].split() for line in cfg.read_text().splitlines()
             if line.split("=", 1)[0].strip() == "agent"]
    return [cfg.parent / decl[2] for decl in decls if decl[2] != "-"]


_OPEN_LOGS = []


def _log_open(event, args):
    # args[0] is the path as given to open, or a file descriptor
    if event == "open" and _OPEN_LOGS and not isinstance(args[0], int):
        _OPEN_LOGS[-1].append(os.fsdecode(args[0]))


@functools.cache
def _audit_opens() -> None:
    # an audit hook cannot be removed, so it is added once and logs only inside `_opens`
    sys.addaudithook(_log_open)


@contextmanager
def _opens():
    """The paths that `open` audit events name inside the block."""
    _audit_opens()
    log = []
    _OPEN_LOGS.append(log)
    try:
        yield log
    finally:
        _OPEN_LOGS.remove(log)


def _fresh_cli(argv):
    """`gridswap <argv>` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(gridswap.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "gridswap", *argv],
                          capture_output=True, text=True, timeout=120, env=env)


class TestParserReuse:
    def test_calls_in_one_process_equal_fresh_processes(self, tmp_path, instance_csv, capsys):
        calls = [
            ["ic-check", "--trials", "3", "--rule", "equal", "--seed", "3"],
            ["ic-check", "--trials", "3"],
            ["ic-check", "--trials", "0"],  # a usage error: exit 2 through SystemExit
            ["shapley", "--instance", str(instance_csv), "--samples", "500", "--seed", "7"],
            ["--version"],
            ["shapley", "--instance", str(instance_csv), "--samples", "500"],
        ]
        def with_out(argv, name):
            if argv == ["--version"]:
                return argv
            return [*argv, "--out", str(tmp_path / name), "--quiet"]

        _build_parser.cache_clear()
        for k, argv in enumerate(calls):
            try:
                code = main(with_out(argv, f"in{k}"))
            except SystemExit as exc:
                code = exc.code
            printed = capsys.readouterr()
            fresh = _fresh_cli(with_out(argv, f"fresh{k}"))
            assert (code, printed.out, printed.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv
            if code == 0 and argv != ["--version"]:
                ours, theirs = snapshot(tmp_path / f"in{k}"), snapshot(tmp_path / f"fresh{k}")
                del ours["manifest.json"], theirs["manifest.json"]
                assert ours == theirs, argv
        assert _build_parser.cache_info().misses == 1
        assert _build_parser.cache_info().hits == len(calls) - 1

    def test_import_builds_no_parser(self):
        env = dict(os.environ, PYTHONPATH=str(Path(gridswap.__file__).parents[1]))
        probe = "import gridswap.cli as c; print(c._build_parser.cache_info().misses)"
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              timeout=60, env=env)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "0"


class TestFmt:
    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1, 1 / 3,
         np.float64(0.1), np.float64(-0.0), np.float64(math.nan), np.float64(-math.inf),
         0, -7, 2**70, np.int64(-3), True, False, np.bool_(True), np.bool_(False),
         None, "", "s1", np.str_("u1")],
    )
    def test_equals_the_isinstance_chain(self, value):
        assert _fmt(value) == fmt_reference(value)


def _csv_text(table) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(table)
    return buffer.getvalue()


# cells csv quotes or refuses, cells it writes as they are, and the empty cell
_CELL = (hst.sampled_from(["", "s1", "0.25", "a b", "a,b", 'a"b', "a\nb", "a\rb", "a\0b"])
         | hst.text(alphabet=[",", '"', "\r", "\n", "\0", " ", "\u2028", "a"], max_size=3))
_ROW = hst.lists(_CELL, min_size=1, max_size=4) | hst.just([""])


class TestOutRows:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(header=_ROW, rows=hst.lists(_ROW, max_size=4))
    def test_equals_csv_writer(self, header, rows):
        with tempfile.TemporaryDirectory() as tmp:
            out = _Out(Path(tmp))
            try:
                want = _csv_text([header, *rows])
            except csv.Error:  # a NUL, which Python 3.10's csv refuses
                with pytest.raises(csv.Error):
                    out.rows("t.csv", header, iter(rows))
                return
            out.rows("t.csv", header, iter(rows))
            assert (Path(tmp) / "t.csv").read_bytes() == want.encode()
            plain = "".join(f"{','.join(row)}\n" for row in [header, *rows])
            event("written as joined" if want == plain else "quoted by csv")

    @pytest.mark.parametrize(
        "cell, quoted",
        [("a b", False), ("", False), ("a,b", True), ('a"b', True), ("a\rb", True),
         ("a\nb", True), ("a\0b", True)],
    )
    def test_csv_writer_only_for_a_cell_it_must_quote(self, tmp_path, monkeypatch, cell,
                                                     quoted):
        # csv quotes a bare CR from Python 3.13 on, so it goes to csv.writer on every version
        calls = []
        writer = csv.writer

        def counted(*args, **kwargs):
            calls.append(args)
            return writer(*args, **kwargs)

        monkeypatch.setattr(csv, "writer", counted)
        _Out(tmp_path).rows("t.csv", ["id", "x"], [["s1", cell]])
        assert len(calls) == quoted

    @pytest.mark.parametrize("table", [[[""]], [["id"], [""]], [["id"], ["s1"], [""]],
                                       [["id"], []], [["id", "x"], ["", ""]]])
    def test_empty_rows(self, tmp_path, table):
        _Out(tmp_path).rows("t.csv", table[0], table[1:])
        assert (tmp_path / "t.csv").read_bytes() == _csv_text(table).encode()


class TestRunComputesOnce:
    EV = """
        mechanism = ev_auction
        horizon = 4
        agent = c1 ev - w=1.9 c_min=6 c_max=15
        agent = d1 ev - l1=0.04 l2=0.02 d_max=16
        """
    STORAGE = """
        mechanism = storage_auction
        horizon = 4
        agent = r1 residential_unit - capacity=60 reservation=0.26 reluctance=0.0005
        agent = f1 sfc - requirement=100 bid=0.40
        agent = f2 sfc - requirement=100 bid=0.28
        """

    @pytest.mark.parametrize(
        "module, kernel, config",
        [(ev, "run_iterative_auction", EV), (storage, "run_storage_auction", STORAGE)],
        ids=["ev", "storage"],
    )
    def test_one_simulation_and_one_auction(self, tmp_path, monkeypatch, module, kernel, config):
        calls = []

        def count(mod, attr):
            original = getattr(mod, attr)

            def counted(*args, **kwargs):
                calls.append(attr)
                return original(*args, **kwargs)

            monkeypatch.setattr(mod, attr, counted)

        count(scenario, "run_simulation")
        count(module, kernel)
        cfg = tmp_path / "s.cfg"
        cfg.write_text(textwrap.dedent(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert sorted(calls) == sorted(["run_simulation", kernel])

    def test_fourteen_member_coalition_is_never_sampled(self, tmp_path, monkeypatch):
        monkeypatch.setattr(coalition, "shapley_monte_carlo", None)
        agents = []
        for k in range(14):
            load, gen = (0.5, 1.5 + 0.25 * k) if k < 8 else (1.0 + 0.5 * k, 0.0)
            (tmp_path / f"a{k}.csv").write_text(
                "slot_index,load_kwh,gen_kwh\n" + "".join(f"{t},{load},{gen}\n" for t in range(4))
            )
            agents.append(f"agent = a{k} {'prosumer' if k < 8 else 'consumer'} a{k}.csv\n")
        cfg = tmp_path / "co.cfg"
        cfg.write_text("mechanism = coalition\nhorizon = 4\n" + "".join(agents))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        summary = (out / "summary.txt").read_text()
        assert "shapley_exact_slots = 4\n" in summary
        assert "shapley_sampled_slots = 0\n" in summary
        assert "shapley_standard_error = \n" in summary


class TestNonFiniteRejected:
    CHARGER = "c1,charging,1.9,,,6,15,"
    DISCHARGER = "d1,discharging,,0.04,0.02,,,16"

    def _cli(self, tmp_path, argv):
        # a separate process under a timeout: a NaN that slipped through could spin the solver
        env = dict(os.environ, PYTHONPATH=str(Path(gridswap.__file__).parents[1]))
        return subprocess.run(
            [sys.executable, "-m", "gridswap", *argv, "--out", str(tmp_path / "o"), "--quiet"],
            capture_output=True, text=True, timeout=60, env=env,
        )

    @pytest.mark.parametrize(
        "row",
        [
            "c1,charging,1.9,,,6,inf,",
            "c1,charging,nan,,,6,15,",
            "c1,charging,1.9,,,inf,15,",
            "d1,discharging,,nan,0.02,,,16",
            "d1,discharging,,0.04,inf,,,16",
            "d1,discharging,,0.04,0.02,,,inf",
        ],
    )
    def test_ev_population(self, tmp_path, row):
        other = self.DISCHARGER if row.startswith("c1") else self.CHARGER
        pop = tmp_path / "pop.csv"
        pop.write_text(f"id,role,w,l1,l2,c_min,c_max,d_max\n{row}\n{other}\n")
        proc = self._cli(tmp_path, ["ev-auction", "--population", str(pop)])
        assert proc.returncode == 1
        assert "finite" in proc.stderr and "Traceback" not in proc.stderr

    def test_coalition_instance(self, tmp_path):
        inst = tmp_path / "instance.csv"
        inst.write_text("id,role,net_kwh\ns1,supplier,nan\nu1,user,-8\n")
        proc = self._cli(tmp_path, ["shapley", "--exact", "--instance", str(inst)])
        assert proc.returncode == 1
        assert "finite" in proc.stderr and "Traceback" not in proc.stderr

    # the probes below stop before any solver loop a NaN could spin, so they run in-process
    def _main(self, tmp_path, capsys, argv):
        try:
            code = main([*argv, "--out", str(tmp_path / "o"), "--quiet"])
        except SystemExit as exc:  # argparse rejected a flag
            code = exc.code
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, location",
        [
            ("rus.csv", "id,capacity,reservation_price,reluctance\nr1,nan,0.1,0.002\n",
             "rus.csv:2"),
            ("sfcs.csv", "id,requirement,bid_price\na,120,inf\nb,80,0.28\n", "sfcs.csv:2"),
            ("orders.csv", "agent_id,side,quantity,limit_price\nB1,buy,nan,0.2\n",
             "orders.csv:2"),
            # a short row after a blank line: the message names the file's own line
            ("orders.csv", "agent_id,side,quantity,limit_price\nB1,buy,5,0.2\n\nS1\n",
             "orders.csv:4"),
            ("game.csv", "player,s0,utility\n0,0,nan\n0,1,1\n", "game.csv:2"),
            ("game.csv", "player,s0,utility\n0,1,1\n0,-1,2\n", "game.csv:3"),
        ],
    )
    def test_data_file(self, tmp_path, capsys, name, text, location):
        rus = tmp_path / "rus.csv"
        rus.write_text("id,capacity,reservation_price,reluctance\nr1,60,0.10,0.002\n")
        sfcs = tmp_path / "sfcs.csv"
        sfcs.write_text("id,requirement,bid_price\na,120,0.35\nb,80,0.28\n")
        (tmp_path / name).write_text(text)
        argv = {
            "rus.csv": ["storage-auction", "--rus", str(rus), "--sfcs", str(sfcs)],
            "sfcs.csv": ["storage-auction", "--rus", str(rus), "--sfcs", str(sfcs)],
            "orders.csv": ["clear", "--orders", str(tmp_path / name)],
            "game.csv": ["nash", "--game", str(tmp_path / name)],
        }[name]
        code, err = self._main(tmp_path, capsys, argv)
        assert code == 1
        assert f"{location}: " in err

    @pytest.mark.parametrize("values", ["nan,100", "inf"])
    def test_sweep_values(self, tmp_path, capsys, values):
        cfg = tmp_path / "st.cfg"
        cfg.write_text(
            "mechanism = storage_auction\n"
            "agent = r1 residential_unit - capacity=60 reservation=0.26 reluctance=0.0005\n"
            "agent = f1 sfc - requirement=100 bid=0.40\n"
        )
        argv = ["sweep", "--config", str(cfg), "--param", "sfc_requirement", "--values", values]
        code, err = self._main(tmp_path, capsys, argv)
        assert code == 1
        assert "finite" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--eps", "inf"), ("--eps", "nan"), ("--eta", "nan"), ("--p-wp", "nan"),
         ("--p-rp", "inf")],
    )
    def test_float_flag(self, tmp_path, capsys, flag, value):
        if flag in ("--eps", "--eta"):
            pop = tmp_path / "pop.csv"
            pop.write_text(
                f"id,role,w,l1,l2,c_min,c_max,d_max\n{self.CHARGER}\n{self.DISCHARGER}\n"
            )
            argv = ["ev-auction", "--population", str(pop)]
        else:
            inst = tmp_path / "instance.csv"
            inst.write_text("id,role,net_kwh\ns1,supplier,10\nu1,user,-8\n")
            argv = ["shapley", "--exact", "--instance", str(inst)]
        code, err = self._main(tmp_path, capsys, [*argv, flag, value])
        assert code == 2
        assert f"{flag}: invalid finite value" in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--eta", "0"), ("--eta", "-0.5"), ("--eta", "1.5"), ("--eps", "0"), ("--eps", "-1")],
    )
    def test_ev_auction_range_flag(self, tmp_path, capsys, flag, value):
        pop = tmp_path / "pop.csv"
        pop.write_text(f"id,role,w,l1,l2,c_min,c_max,d_max\n{self.CHARGER}\n{self.DISCHARGER}\n")
        code, err = self._main(tmp_path, capsys, ["ev-auction", "--population", str(pop),
                                                  flag, value])
        assert code == 2
        assert f"argument {flag}: invalid finite value: '{value}'" in err
        assert not (tmp_path / "o").exists()

    def test_ev_auction_range_ends(self):
        # parsing only: eta may be exactly 1 and eps any positive number
        parsed = _build_parser().parse_args(
            ["ev-auction", "--population", "p.csv", "--eta", "1", "--eps", "1e-300"])
        assert (parsed.eta, parsed.eps) == (1.0, 1e-300)

    @pytest.mark.parametrize("value", ["0", "-2", "x"])
    @pytest.mark.parametrize("flag", ["--trials", "--max-iter", "--samples"])
    def test_count_flag(self, tmp_path, capsys, flag, value):
        if flag == "--trials":
            argv = ["ic-check"]
        elif flag == "--max-iter":
            pop = tmp_path / "pop.csv"
            pop.write_text(
                f"id,role,w,l1,l2,c_min,c_max,d_max\n{self.CHARGER}\n{self.DISCHARGER}\n"
            )
            argv = ["ev-auction", "--population", str(pop)]
        else:
            inst = tmp_path / "instance.csv"
            inst.write_text("id,role,net_kwh\ns1,supplier,10\nu1,user,-8\n")
            argv = ["shapley", "--instance", str(inst)]
        code, err = self._main(tmp_path, capsys, [*argv, flag, value])
        assert code == 2
        assert f"{flag}: invalid positive value" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, flag, cap",
        [
            (["ic-check"], "--trials", 10_000),
            (["shapley", "--instance", "i.csv"], "--samples", coalition.MAX_SAMPLES),
            (["ev-auction", "--population", "p.csv"], "--max-iter", 10_000),
        ],
    )
    def test_count_flag_cap(self, capsys, argv, flag, cap):
        # parsing only: the capped sizes themselves never run
        parsed = _build_parser().parse_args([*argv, flag, str(cap)])
        assert getattr(parsed, flag[2:].replace("-", "_")) == cap
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args([*argv, flag, str(cap + 1)])
        assert exc.value.code == 2
        assert f"{flag}: invalid positive value: '{cap + 1}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "decl, message",
        [
            ("r1 residential_unit - reservation=0.26 reluctance=0.0005",
             "bad.cfg:1: agent 'r1' needs parameter 'capacity'"),
            ("c1 ev - w=abc c_min=1", "bad.cfg:1: agent 'c1' w: expected a number"),
        ],
    )
    def test_agent_parameter(self, tmp_path, capsys, decl, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"agent = {decl}\n")
        code, err = self._main(tmp_path, capsys, ["run", "--config", str(cfg)])
        assert code == 1
        assert message in err



class TestMcSamples:
    _main = TestNonFiniteRejected._main

    @pytest.mark.parametrize("value", ["2.5", "0", "-5", "1e12", "1000001"])
    def test_rejected_at_load(self, tmp_path, capsys, value):
        cfg = tmp_path / "co.cfg"
        cfg.write_text(
            "mechanism = coalition\n"
            f"mc_samples = {value}\n"
            "agent = s1 prosumer -\n"
        )
        code, err = self._main(tmp_path, capsys, ["run", "--config", str(cfg)])
        assert code == 1
        assert f"co.cfg:2: mc_samples must be an integer from 1 to 1000000, got {value}" in err
        assert not (tmp_path / "o" / "report.csv").exists()

    @pytest.mark.parametrize("value, parsed", [("1", 1), ("5e3", 5000), ("1000000", 1_000_000)])
    def test_accepted_as_an_integer(self, tmp_path, value, parsed):
        cfg = tmp_path / "co.cfg"
        cfg.write_text(f"mechanism = coalition\nmc_samples = {value}\nagent = s1 prosumer -\n")
        samples = scenario.load_scenario(cfg).options["mc_samples"]
        assert samples == parsed and type(samples) is int


class TestSeedAndSlotIntegers:
    _main = TestNonFiniteRejected._main

    @pytest.mark.parametrize("command", ["run", "shapley", "ic-check", "sweep"])
    def test_negative_seed_flag_is_a_usage_error(self, tmp_path, capsys, scenario_cfg,
                                                 instance_csv, command):
        argv = {
            "run": ["run", "--config", str(scenario_cfg)],
            "shapley": ["shapley", "--instance", str(instance_csv), "--samples", "10"],
            "ic-check": ["ic-check", "--trials", "1"],
            "sweep": ["sweep", "--config", str(scenario_cfg), "--param", "solar_fraction",
                      "--values", "0.5"],
        }[command]
        code, err = self._main(tmp_path, capsys, [*argv, "--seed", "-1"])
        assert code == 2
        assert "--seed: invalid nonnegative value: '-1'" in err
        assert not (tmp_path / "o").exists()

    def test_seeds_past_int64_run_a_sampled_coalition(self, tmp_path):
        """Per-slot seeds are the seed plus the slot, as Python ints: a config
        seed of 1e20 or a --seed of 2**64 runs, and reruns byte for byte."""
        agents = []
        for k in range(coalition._EXACT_LIMIT + 1):  # one more member than exact Shapley takes
            (tmp_path / f"a{k}.csv").write_text(
                "slot_index,load_kwh,gen_kwh\n" + "".join(
                    f"{t},{0.5 + 0.1 * k},{1.5 * (k % 2) + 0.2 * t}\n" for t in range(2)))
            agents.append(f"agent = a{k} prosumer a{k}.csv\n")
        cfg = tmp_path / "co.cfg"
        cfg.write_text("mechanism = coalition\nhorizon = 2\nmc_samples = 50\n"
                       "seed = 100000000000000000000\n" + "".join(agents))
        outputs = []
        for name, flags in (("config", []), ("flag1", ["--seed", str(2**64)]),
                            ("flag2", ["--seed", str(2**64)])):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), *flags, "--out", str(out), "--quiet"]) == 0
            assert "shapley_sampled_slots = 2" in (out / "summary.txt").read_text()
            outputs.append({k: v for k, v in snapshot(out).items() if k != "manifest.json"})
        assert outputs[1] == outputs[2] != outputs[0]

    @pytest.mark.parametrize(
        "key, value, bound",
        [
            ("horizon", "1.7", "from 1 to 105408"),
            ("horizon", "0", "from 1 to 105408"),
            ("horizon", "105409", "from 1 to 105408"),
            ("horizon", "1000000000000", "from 1 to 105408"),
            ("slot_minutes", "-15", "from 1 to 1440"),
            ("slot_minutes", "7.5", "from 1 to 1440"),
            ("slot_minutes", "0", "from 1 to 1440"),
            ("slot_minutes", "1441", "from 1 to 1440"),
            ("slot_minutes", "100000000000000000000", "from 1 to 1440"),
            ("seed", "-3", ">= 0"),
            ("seed", "0.5", ">= 0"),
        ],
    )
    def test_config_value_rejected_at_load(self, tmp_path, capsys, key, value, bound):
        cfg = tmp_path / "da.cfg"
        cfg.write_text(
            f"mechanism = double_auction\n{key} = {value}\n"
            "agent = p1 prosumer -\nagent = c1 consumer -\n"
        )
        code, err = self._main(tmp_path, capsys, ["run", "--config", str(cfg)])
        assert code == 1
        assert f"da.cfg:2: {key} must be an integer {bound}, got {value}" in err
        assert not (tmp_path / "o" / "report.csv").exists()

    @pytest.mark.parametrize(
        "key, value, parsed",
        [("horizon", "96.0", 96), ("horizon", "105408", 105_408), ("slot_minutes", "1", 1),
         ("slot_minutes", "1440", 1440), ("seed", "100000000000000000000", 10**20),
         ("seed", "18446744073709551617", 2**64 + 1), ("seed", "0", 0), ("seed", "12", 12)],
    )
    def test_config_value_accepted_as_an_integer(self, tmp_path, key, value, parsed):
        cfg = tmp_path / "da.cfg"
        cfg.write_text(f"{key} = {value}\nagent = p1 prosumer -\n")
        read = getattr(scenario.load_scenario(cfg), key)
        assert read == parsed and type(read) is int


# agents for a config of each mechanism, one line each
_AGENTS = {
    "double_auction": "agent = p1 prosumer -\nagent = c1 consumer -\n",
    "ev_auction": "agent = c1 ev - w=1.9 c_min=6\nagent = d1 ev - l1=0.04 d_max=16\n",
    "coalition": "agent = s1 prosumer -\n",
    "storage_auction": ("agent = r1 residential_unit - capacity=60 reservation=0.26 "
                        "reluctance=0.0005\nagent = f1 sfc - requirement=100 bid=0.40\n"),
}


def _option_config(line, mechanism=None):
    """`line` second in a config of `mechanism`, by default the one that reads its option."""
    key = line.split("=")[0].strip()
    mechanism = mechanism or next(m for m, spec in scenario._MECHANISMS.items()
                                  if key in spec.options)
    return f"p_rp = 0.3\n{line}\nmechanism = {mechanism}\n{_AGENTS[mechanism]}"


class TestOptionRange:
    _main = TestNonFiniteRejected._main

    @pytest.mark.parametrize(
        "line, message",
        [
            ("eps = -1", "eps must be > 0, got -1"),
            ("eps = 0", "eps must be > 0, got 0"),
            ("eta = 1.5", "eta must be in (0, 1], got 1.5"),
            ("eta = 0", "eta must be in (0, 1], got 0"),
            ("seller_margin = 0.1:0.02", "seller_margin lo:hi must satisfy 0 <= lo <= hi, got 0.1:0.02"),
            ("seller_margin = -0.01", "seller_margin must lie in [0, 1000] $/kWh, got -0.01"),
            ("buyer_margin = 0.5:0.6",
             "buyer_margin lo:hi must satisfy 0 <= lo <= hi <= p_rp = 0.3, got 0.5:0.6"),
            ("buyer_margin = -0.05:0.01", "buyer_margin must lie in [0, 1000] $/kWh, got -0.05"),
            ("grid_sell_out = -0.1", "grid_sell_out must lie in [0, 1000] $/kWh, got -0.1"),
            ("grid_buy_back = -1e-3", "grid_buy_back must lie in [0, 1000] $/kWh, got -0.001"),
        ],
    )
    def test_rejected_at_load(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(_option_config(line))
        code, err = self._main(tmp_path, capsys, ["run", "--config", str(cfg)])
        assert code == 1
        assert f"opt.cfg:2: {message}" in err
        assert not (tmp_path / "o" / "report.csv").exists()

    @pytest.mark.parametrize("line", ["eta = 1", "eps = 1e-9", "buyer_margin = 0.3",
                                      "seller_margin = 0:0", "buyer_margin = 0.02:0.1",
                                      "grid_sell_out = 0", "grid_buy_back = 0"])
    def test_accepted_at_the_bounds(self, tmp_path, line):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(_option_config(line))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0


# each setting that a flag gives too: (config key, flag, a command line that takes the flag)
_FLAG_SETTINGS = [
    ("seed", "--seed", "run --config c.cfg"),
    ("seed", "--seed", "shapley --instance i.csv"),
    ("eta", "--eta", "ev-auction --population p.csv"),
    ("eps", "--eps", "ev-auction --population p.csv"),
    ("mc_samples", "--samples", "shapley --instance i.csv"),
    ("rule", "--rule", "storage-auction --rus r.csv --sfcs s.csv"),
    ("rule", "--rule", "ic-check"),
]
# (text, its value, None when it is refused): accepted, boundary and refused texts
_SETTING_TEXTS = {
    "seed": [("0", 0), ("96.0", 96), ("5e3", 5000), ("100000000000000000000", 10**20),
             ("18446744073709551617", 2**64 + 1), ("-1", None), ("0.5", None),
             ("nan", None), ("x", None)],
    "eta": [("1", 1.0), ("0.9", 0.9), ("1e-300", 1e-300), ("0", None), ("1.5", None),
            ("-0.5", None), ("inf", None)],
    "eps": [("1e-300", 1e-300), ("5e3", 5000.0), ("0", None), ("-1", None), ("nan", None)],
    "mc_samples": [("1", 1), ("5e3", 5000), ("1e6", 1_000_000), ("1000000", 1_000_000),
                   ("0", None), ("2.5", None), ("1000001", None), ("1e12", None), ("x", None)],
    "rule": [("proportional", "proportional"), ("equal", "equal"), ("fair", None),
             ("Equal", None)],
}


class TestSettingParity:
    """A config key and the flag that gives the same setting read its text
    with one parser: the same value from both, or a refusal by both, exit
    code 1 from the config and 2 from the flag."""

    _main = TestNonFiniteRejected._main

    @pytest.mark.parametrize("key, flag, call", _FLAG_SETTINGS)
    def test_flag_takes_the_config_parser(self, key, flag, call):
        command = _build_parser()._subparsers._group_actions[0].choices[call.split()[0]]
        action = command._option_string_actions[flag]
        parse = scenario.SETTINGS[key].parse
        assert (action.choices if key == "rule" else action.type) is parse

    @pytest.mark.parametrize("key, flag, call, text, value", [
        (key, flag, call, text, value) for key, flag, call in _FLAG_SETTINGS
        for text, value in _SETTING_TEXTS[key]])
    def test_config_and_flag_agree(self, tmp_path, capsys, key, flag, call, text, value):
        mechanism = "double_auction" if key == "seed" else None
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(_option_config(f"{key} = {text}", mechanism))
        if value is None:
            code, err = self._main(tmp_path, capsys, ["run", "--config", str(cfg)])
            assert code == 1 and f"opt.cfg:2: {key} " in err
            with pytest.raises(SystemExit) as exc:
                _build_parser().parse_args([*call.split(), flag, text])
            assert exc.value.code == 2
            assert f"argument {flag}: invalid " in capsys.readouterr().err
            return
        loaded = scenario.load_scenario(cfg)
        from_config = loaded.seed if key == "seed" else loaded.options[key]
        from_flag = getattr(_build_parser().parse_args([*call.split(), flag, text]), flag[2:])
        for read in (from_config, from_flag):
            assert read == value and type(read) is type(value)


class TestOptionOfAnotherMechanism:
    _main = TestNonFiniteRejected._main
    _VALUES = {"eta": "0.9", "eps": "1e-4", "grid_sell_out": "0.3", "grid_buy_back": "0.05",
               "mc_samples": "100", "rule": "equal", "buyer_margin": "0.02:0.1",
               "seller_margin": "0.02:0.1"}

    @pytest.mark.parametrize("key, owner, mechanism", [
        (key, owner, mechanism) for owner, spec in scenario._MECHANISMS.items()
        for key in spec.options
        for mechanism in scenario.MECHANISMS if mechanism != owner
    ])
    def test_refused_at_load(self, tmp_path, key, owner, mechanism):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(_option_config(f"{key} = {self._VALUES[key]}", mechanism))
        with pytest.raises(SchemaError) as exc:
            scenario.load_scenario(cfg)
        assert str(exc.value) == (f"{cfg}:2: {key} is read by the {owner} mechanism only, "
                                  f"not by {mechanism}")

    def test_run_exits_1(self, tmp_path, capsys):
        # the double auction ignored a storage rule, a sample count and an efficiency
        cfg = tmp_path / "da.cfg"
        cfg.write_text(f"rule = equal\nmc_samples = 5\neta = 0.5\n{_AGENTS['double_auction']}")
        code, err = self._main(tmp_path, capsys, ["run", "--config", str(cfg)])
        assert code == 1
        assert "da.cfg:1: rule is read by the storage_auction mechanism only, not by " \
               "double_auction" in err
        assert "Traceback" not in err and not (tmp_path / "o" / "report.csv").exists()


_SERIES = "slot_index,load_kwh,gen_kwh\n" + "".join(f"{k},0.5,{k % 3}\n" for k in range(4))
_DEMAND = "slot_index,load_kwh,gen_kwh\n" + "".join(f"{k},2,0\n" for k in range(4))


class TestUnreadAgentRefused:
    """An agent whose role the config's mechanism does not read, or a series
    file on an agent that reads parameters, exits 1 at load with `file:line`,
    before any series of that agent is read or any output written."""

    _main = TestNonFiniteRejected._main

    @pytest.mark.parametrize("text, message", [
        # the storage auction read the prosumer's series and dropped its generation
        (f"mechanism = storage_auction\n{_AGENTS['storage_auction']}agent = p1 prosumer s.csv\n",
         "bad.cfg:4: prosumer agent 'p1' is not read by the storage_auction mechanism "
         "(it reads: residential_unit, sfc)"),
        # the double auction ran SFCs and vehicles as agents with zero series
        (f"{_AGENTS['double_auction']}agent = f1 sfc - requirement=100 bid=0.40\n",
         "bad.cfg:3: sfc agent 'f1' is not read by the double_auction mechanism "
         "(it reads: consumer, prosumer)"),
        (f"{_AGENTS['double_auction']}agent = e1 ev - w=1.9 c_min=6\n",
         "bad.cfg:3: ev agent 'e1' is not read by the double_auction mechanism "
         "(it reads: consumer, prosumer)"),
        (f"mechanism = ev_auction\n{_AGENTS['ev_auction']}agent = h1 consumer s.csv\n",
         "bad.cfg:4: consumer agent 'h1' is not read by the ev_auction mechanism "
         "(it reads: ev)"),
        (f"mechanism = coalition\n{_AGENTS['coalition']}agent = u1 residential_unit - "
         "capacity=60 reservation=0.26 reluctance=0.0005\n",
         "bad.cfg:3: residential_unit agent 'u1' is not read by the coalition mechanism "
         "(it reads: consumer, prosumer)"),
        # parameter agents read no series: the file is neither read nor hashed
        (f"mechanism = ev_auction\n{_AGENTS['ev_auction']}agent = c2 ev missing.csv w=1.4\n",
         "bad.cfg:4: ev agent 'c2' reads parameters, not a series; give '-' for 'missing.csv'"),
        ("mechanism = storage_auction\nagent = r1 residential_unit s.csv capacity=60 "
         "reservation=0.26 reluctance=0.0005\nagent = f1 sfc - requirement=100 bid=0.40\n",
         "bad.cfg:2: residential_unit agent 'r1' reads parameters, not a series; "
         "give '-' for 's.csv'"),
        (f"mechanism = storage_auction\n{_AGENTS['storage_auction']}"
         "agent = f2 sfc s.csv requirement=50 bid=0.3\n",
         "bad.cfg:4: sfc agent 'f2' reads parameters, not a series; give '-' for 's.csv'"),
    ])
    @pytest.mark.parametrize("argv", [[], ["sfc_requirement", "100"], ["grid_price", "0.5"],
                                      ["solar_fraction", "0.5"]])
    def test_exits_1(self, tmp_path, capsys, text, message, argv):
        (tmp_path / "s.csv").write_text(_SERIES)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        command = ["sweep", "--config", str(cfg), "--param", *argv[:1], "--values", *argv[1:]]
        code, err = self._main(tmp_path, capsys, command if argv else ["run", "--config", str(cfg)])
        assert code == 1
        assert err == f"gridswap: {tmp_path / message}\n"
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())

    def test_the_line_names_the_first_refused_agent(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mechanism = storage_auction\nagent = e1 ev - w=1\nagent = p1 prosumer -\n")
        with pytest.raises(SchemaError, match=r"bad\.cfg:2: ev agent 'e1' is not read"):
            scenario.load_scenario(cfg)


class TestOptionDefaults:
    """Scenario fills in each option the config leaves out with its default,
    so a config that spells every option out at its default writes the same
    bytes. The EV grid prices default to the config's tariff."""

    # every option each mechanism reads, at the default the README gives
    _DEFAULTS = {
        "double_auction": "buyer_margin = 0.02:0.10\nseller_margin = 0.02:0.1\n",
        "ev_auction": "eta = 0.9\neps = 1e-4\ngrid_sell_out = 0.35\ngrid_buy_back = 0.04\n",
        "coalition": "mc_samples = 20000\n",
        "storage_auction": "rule = proportional\n",
    }
    _AGENTS = {**_AGENTS,
               "double_auction": "agent = p1 prosumer s.csv\nagent = c1 consumer c.csv\n",
               "coalition": "agent = p1 prosumer s.csv\nagent = p2 prosumer s.csv\n"
                            "agent = c1 consumer c.csv\n"}
    _SWEEPS = {"double_auction": [("solar_fraction", "0,0.5,1")],
               "ev_auction": [("grid_price", "0.2,0.5")],
               "coalition": [("supplier_count", "2,5"), ("solar_fraction", "0,1")],
               "storage_auction": [("sfc_requirement", "100,250")]}

    def _outputs(self, cfg, command, out):
        assert main([*command, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}

    @pytest.mark.parametrize("mechanism", scenario.MECHANISMS)
    def test_spelt_out_defaults_write_the_same_bytes(self, tmp_path, mechanism):
        (tmp_path / "s.csv").write_text(_SERIES)
        (tmp_path / "c.csv").write_text(_DEMAND)
        head = f"mechanism = {mechanism}\nhorizon = 4\nseed = 2\np_wp = 0.04\np_rp = 0.35\n"
        bare, full = tmp_path / "bare.cfg", tmp_path / "full.cfg"
        bare.write_text(head + self._AGENTS[mechanism])
        full.write_text(head + self._DEFAULTS[mechanism] + self._AGENTS[mechanism])
        commands = [["run"]] + [["sweep", "--param", param, "--values", values]
                                for param, values in self._SWEEPS[mechanism]]
        for k, command in enumerate(commands):
            written = self._outputs(bare, command, tmp_path / f"bare{k}")
            assert written == self._outputs(full, command, tmp_path / f"full{k}")
            assert written
        assert scenario.load_scenario(bare).options == scenario.load_scenario(full).options


class TestEachPartyBuiltOnce:
    """load_scenario builds each agent's vehicle, residential unit or SFC
    once; the replay, the baselines and the grid_price sweep reuse it."""

    @pytest.mark.parametrize("mechanism, argv", [
        ("storage_auction", ["run"]),
        ("ev_auction", ["run"]),
        ("ev_auction", ["sweep", "--param", "grid_price", "--values", "0.2,0.5,0.9"]),
    ])
    def test_built_once(self, tmp_path, monkeypatch, mechanism, argv):
        built = []
        for cls in (storage.ResidentialUnit, storage.SfcAgent, ev.ChargingEV, ev.DischargingEV):
            def counted(party, aid, *args, _init=cls.__init__, **kwargs):
                built.append(aid)
                _init(party, aid, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"mechanism = {mechanism}\nhorizon = 5\n{_AGENTS[mechanism]}")
        ids = [line.split()[2] for line in _AGENTS[mechanism].splitlines()]
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert sorted(built) == sorted(ids)


class TestSweepValueRange:
    _main = TestNonFiniteRejected._main

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("supplier_count", "0,2", "supplier_count must be an integer from 1 to 200, got 0"),
            ("supplier_count", "2,-3", "supplier_count must be an integer from 1 to 200, got -3"),
            ("supplier_count", "2.5", "supplier_count must be an integer from 1 to 200, got 2.5"),
            ("supplier_count", "2,201", "supplier_count must be an integer from 1 to 200, got 201"),
            ("supplier_count", "1e6", "supplier_count must be an integer from 1 to 200, got 1e6"),
            ("solar_fraction", "-1", "solar_fraction must lie in [0, 1], got -1.0"),
            ("solar_fraction", "0.5,2", "solar_fraction must lie in [0, 1], got 2.0"),
            ("grid_price", "-1", "grid_price must lie in [0, 1000] $/kWh, got -1.0"),
            ("grid_price", "0.5,-0.01", "grid_price must lie in [0, 1000] $/kWh, got -0.01"),
        ],
    )
    def test_rejected_before_any_draw(self, tmp_path, capsys, scenario_cfg, param, values,
                                      message, monkeypatch):
        # a draw before the check would call one of these and fail
        for module, name in ((scenario.co, "supplier_count_sweep"),
                             (synth, "solar_series"), (synth, "wind_series")):
            monkeypatch.setattr(module, name, None)
        argv = ["sweep", "--config", str(scenario_cfg), "--param", param, "--values", values]
        code, err = self._main(tmp_path, capsys, argv)
        assert code == 1
        assert message in err
        assert not (tmp_path / "o" / "sweep.csv").exists()


# (well-formed, malformed) cell texts
_NUM = (["1", "2.5", " 0.5 ", "0.25"], ["0", "-1", "nan", "inf", "-inf", "", "x"])
_SIGNED = (["1", "-2.5", " 0.5 ", "-0.25"], ["0", "nan", "inf", "-inf", "", "x"])
_INT = (["0", "1"], ["-1", "1.5", "", "x"])
_ID = (["a", "b", "c"], [""])
# every input table the CLI reads: its columns and the cells each may hold
_TABLES = {
    "orders.csv": [("agent_id", _ID), ("side", (["buy", "sell"], ["x"])), ("quantity", _NUM),
                   ("limit_price", _NUM), ("slot", _INT)],
    "instance.csv": [("id", _ID), ("role", (["supplier", "user"], ["x"])), ("net_kwh", _SIGNED)],
    "rus.csv": [("id", _ID), ("capacity", _NUM), ("reservation_price", _NUM),
                ("reluctance", _NUM)],
    "sfcs.csv": [("id", _ID), ("requirement", _NUM), ("bid_price", _NUM)],
    "game.csv": [("player", (["0"], ["1", *_INT[1]])), ("s0", _INT), ("utility", _NUM)],
    "pop.csv": [("id", _ID), ("role", (["charging", "discharging"], ["x"])), ("w", _NUM),
                ("l1", _NUM), ("l2", _NUM), ("c_min", (["0"], _NUM[1])), ("c_max", _NUM),
                ("d_max", _NUM)],
    "series.csv": [("slot_index", _INT), ("load_kwh", _NUM), ("gen_kwh", _NUM)],
}


@hst.composite
def _table(draw, name):
    """The text of one input table, and whether it is noisy.

    A noisy table may hold malformed cells and short rows, and may lack a column.
    A clean series counts its slots 0, 1, 2, ...
    """
    columns = _TABLES[name]
    noisy = draw(hst.booleans())
    if noisy and draw(hst.booleans()):
        dropped = draw(hst.sampled_from(columns))
        columns = [c for c in columns if c != dropped]
    lines = [",".join(column for column, _ in columns)]
    for k in range(draw(hst.integers(2, 4))):
        # rotated by row, so rows differ (ids, roles, signs) even where the draws repeat
        cells = [
            str(k) if column == "slot_index" and not noisy else
            draw(hst.sampled_from(good[k % len(good):] + good[: k % len(good)]
                                  + (bad if noisy else [])))
            for column, (good, bad) in columns
        ]
        if noisy and draw(hst.booleans()):
            cells = cells[: draw(hst.integers(0, len(cells) - 1))]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n", noisy


# the numeric columns the columnar fast path reads, as (ints, floats)
_COLUMNAR = {
    "game.csv": (("player", "s0"), ("utility",)),
    "series.csv": (("slot_index",), ("load_kwh", "gen_kwh")),
}


class TestReadersNeverCrash:
    @pytest.mark.parametrize("name", sorted(_TABLES))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(data=hst.data())
    def test_exit_0_or_1_and_finite_outputs(self, name, data):
        text, noisy = data.draw(_table(name))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / name).write_text(text)
            if name in _COLUMNAR and not noisy:
                # a clean table takes the fast path; a malformed cell sends a noisy one back
                ints, floats = _COLUMNAR[name]
                assert ingest.columns(tmp / name, {}, ints=ints, floats=floats) is not None
            (tmp / "rus_ok.csv").write_text(
                "id,capacity,reservation_price,reluctance\nr1,60,0.10,0.002\n")
            (tmp / "sfcs_ok.csv").write_text("id,requirement,bid_price\na,120,0.35\nb,80,0.28\n")
            horizon = text.count("\n") - 1
            (tmp / "con.csv").write_text(
                "slot_index,load_kwh,gen_kwh\n" + "".join(f"{t},1.2,0\n" for t in range(horizon)))
            (tmp / "scenario.cfg").write_text(
                f"horizon = {horizon}\n"
                "agent = p1 prosumer series.csv\nagent = c1 consumer con.csv\n"
            )
            path = str(tmp / name)
            argv = {
                "orders.csv": ["clear", "--orders", path],
                "instance.csv": ["shapley", "--exact", "--instance", path],
                "rus.csv": ["storage-auction", "--rus", path, "--sfcs", str(tmp / "sfcs_ok.csv")],
                "sfcs.csv": ["storage-auction", "--rus", str(tmp / "rus_ok.csv"), "--sfcs", path],
                "game.csv": ["nash", "--game", path],
                "pop.csv": ["ev-auction", "--population", path],
                "series.csv": ["run", "--config", str(tmp / "scenario.cfg")],
            }[name]
            out = tmp / "out"
            assert main([*argv, "--out", str(out), "--quiet"]) in (0, 1)
            for written in out.iterdir():
                if written.name == "manifest.json":
                    continue
                for token in re.split(r"[\s,=]+", written.read_text()):
                    try:
                        value = float(token)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (written.name, token)


def test_cli_import_leaves_scipy_out():
    # scipy runs only in the welfare reference solver, which no subcommand calls
    env = dict(os.environ, PYTHONPATH=str(Path(gridswap.__file__).parents[1]))
    probe = ("import sys, gridswap.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestConfigInputNothingReads:
    """Config input that no part of the run reads is refused, named at its line."""

    _main = TestNonFiniteRejected._main
    EV = ("mechanism = ev_auction\nhorizon = 1\n"
          "agent = c1 ev - w=1.9 c_min=6 c_max=15\nagent = d1 ev - l1=0.04 l2=0.02 d_max=16\n")

    def _refused(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, err = self._main(tmp_path, capsys, ["run", "--config", str(cfg)])
        assert code == 1
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o" / "report.csv").exists()

    @pytest.mark.parametrize("key", ["horizn", "agents", "Horizon"])
    def test_unknown_key(self, tmp_path, capsys, key):
        self._refused(tmp_path, capsys, self.EV + f"{key} = 5\n",
                      f"bad.cfg:5: unknown key {key!r}")

    @pytest.mark.parametrize("key, value", [("horizon", "2"), ("horizon", "1"),
                                            ("mechanism", "ev_auction")])
    def test_key_given_twice(self, tmp_path, capsys, key, value):
        self._refused(tmp_path, capsys, self.EV + f"{key} = {value}\n",
                      f"bad.cfg:5: key {key!r} given twice (first on line ")

    @pytest.mark.parametrize(
        "decl, message",
        [
            ("c2 ev - w=1.0 cmin=5", "charging ev agent 'c2' does not read parameter 'cmin'"),
            ("c2 ev - w=1.0 l1=0.1", "charging ev agent 'c2' does not read parameter 'l1'"),
            ("d2 ev - l2=0.05 d_max=4 c_max=3",
             "discharging ev agent 'd2' does not read parameter 'c_max'"),
            ("h1 consumer - foo=1", "consumer agent 'h1' does not read parameter 'foo'"),
            ("p1 prosumer - w=1", "prosumer agent 'p1' does not read parameter 'w'"),
            ("f1 sfc - requirement=9 bid=0.3 capacity=1",
             "sfc agent 'f1' does not read parameter 'capacity'"),
            ("r1 residential_unit - capacity=60 reservation=0.2 reluctance=0.001 bid=0.3",
             "residential_unit agent 'r1' does not read parameter 'bid'"),
        ],
    )
    def test_parameter_its_kind_never_reads(self, tmp_path, capsys, decl, message):
        self._refused(tmp_path, capsys, self.EV + f"agent = {decl}\n", f"bad.cfg:5: {message}")

    @pytest.mark.parametrize("decl", ["c2 ev - w=1 w=2", "d2 ev - l1=0.1 d_max=3 d_max=4"])
    def test_parameter_given_twice(self, tmp_path, capsys, decl):
        name = decl.split()[-1].split("=")[0]
        self._refused(tmp_path, capsys, self.EV + f"agent = {decl}\n",
                      f"bad.cfg:5: agent {decl.split()[0]!r} parameter {name!r} given twice")


class TestRunFlags:
    def test_seed_flag_equals_the_config_seed(self, tmp_path, scenario_cfg):
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(scenario_cfg.read_text().replace("seed = 3", "seed = 11"))
        outputs = {}
        for name, argv in (("flag", [str(scenario_cfg), "--seed", "11"]),
                           ("config", [str(seeded)]), ("own", [str(scenario_cfg)])):
            out = tmp_path / name
            assert main(["run", "--config", *argv, "--out", str(out), "--quiet"]) == 0
            outputs[name] = snapshot(out)
            del outputs[name]["manifest.json"]
        assert outputs["flag"] == outputs["config"]
        assert outputs["flag"]["report.csv"] != outputs["own"]["report.csv"]

    def test_progress_line_unless_quiet(self, tmp_path, scenario_cfg, capsys):
        argv = ["run", "--config", str(scenario_cfg), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert capsys.readouterr().err == "running double_auction scenario over 4 slots\n"
        assert main([*argv, "--quiet"]) == 0
        assert capsys.readouterr().err == ""


# (text, its value, None when it is refused): accepted, boundary and refused sweep values
_SWEEP_TEXTS = {
    "supplier_count": [("1", 1), ("200", 200), ("2.0", 2), ("2e2", 200), (" 3", 3), ("0", None),
                       ("201", None), ("2.5", None), ("-3", None), ("nan", None), ("x", None)],
    "solar_fraction": [("0", 0.0), ("1", 1.0), ("0.25", 0.25), ("5e-324", 5e-324),
                       ("-0.01", None), ("1.5", None), ("inf", None)],
    "sfc_requirement": [("0", 0.0), ("1e9", 1e9), ("100", 100.0), ("1e10", None), ("-5", None),
                        ("nan", None)],
    "grid_price": [("0", 0.0), ("1000", 1000.0), ("0.3", 0.3), ("1000.5", None),
                   ("-0.01", None), ("inf", None)],
}
# each sweep parameter's readers, as its refusal on another mechanism names them
_SWEEP_OWNERS = {
    "supplier_count": "the coalition mechanism",
    "solar_fraction": "the double_auction and coalition mechanisms",
    "sfc_requirement": "the storage_auction mechanism",
    "grid_price": "the ev_auction mechanism",
}


class TestSweepParity:
    """Each `--values` item is read, as text, by its parameter's row of
    `scenario.SWEEPS` before anything is drawn, and a parameter is refused on
    each mechanism its row does not name."""

    _main = TestNonFiniteRejected._main

    def test_every_parameter_is_covered(self):
        assert set(_SWEEP_TEXTS) == set(_SWEEP_OWNERS) == set(scenario.SWEEPS)

    @pytest.mark.parametrize("param, text, value", [
        (param, text, value) for param, rows in _SWEEP_TEXTS.items() for text, value in rows])
    def test_values_take_the_row_parser(self, tmp_path, capsys, monkeypatch, param, text, value):
        row = scenario.SWEEPS[param]
        read, swept = [], []

        def parse(item):
            read.append(item)
            return row.parse(item)

        monkeypatch.setitem(scenario.SWEEPS, param, row._replace(
            parse=parse, run=lambda sc, values: swept.append(values) or []))
        cfg = tmp_path / "sw.cfg"
        cfg.write_text(f"mechanism = {row.mechanisms[0]}\n{_AGENTS[row.mechanisms[0]]}")
        code, err = self._main(tmp_path, capsys, ["sweep", "--config", str(cfg), "--param", param,
                                                  f"--values={text},"])
        assert read == [text]
        if value is None:
            with pytest.raises(ValueError) as exc:
                row.parse(text)
            assert (code, err, swept) == (1, f"gridswap: {param} {exc.value}\n", [])
        else:
            assert (code, swept) == (0, [[value]]) and type(swept[0][0]) is type(value)

    @pytest.mark.parametrize("param, mechanism", [
        (param, mechanism) for param, row in scenario.SWEEPS.items()
        for mechanism in scenario.MECHANISMS if mechanism not in row.mechanisms])
    def test_refused_on_other_mechanisms(self, tmp_path, capsys, monkeypatch, param, mechanism):
        value = next(text for text, value in _SWEEP_TEXTS[param] if value is not None)
        # a draw or an auction before the refusal would call one of these and fail
        for module, name in ((coalition, "supplier_count_sweep"), (synth, "solar_series"),
                             (synth, "wind_series"), (storage, "requirement_sweep"),
                             (ev, "run_iterative_auction")):
            monkeypatch.setattr(module, name, None)
        cfg = tmp_path / "sw.cfg"
        cfg.write_text(f"mechanism = {mechanism}\n{_AGENTS[mechanism]}")
        code, err = self._main(tmp_path, capsys, ["sweep", "--config", str(cfg), "--param", param,
                                                  "--values", value])
        assert (code, err) == (1, f"gridswap: {param} sweep is read by {_SWEEP_OWNERS[param]} "
                                  f"only, not by {mechanism}\n")
        assert not (tmp_path / "o" / "sweep.csv").exists()

    @pytest.mark.parametrize("mechanism, agent, kind", [
        ("storage_auction", "f1 sfc - requirement=100 bid=0.40", "residential_unit"),
        ("storage_auction", "r1 residential_unit - capacity=60 reservation=0.26 reluctance=0.0005",
         "sfc"),
        ("ev_auction", "d1 ev - l1=0.04 d_max=16", "charging ev"),
        ("ev_auction", "c1 ev - w=1.9 c_min=6", "discharging ev"),
    ])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_missing_kind_refused_at_load(self, tmp_path, capsys, mechanism, agent, kind,
                                          command):
        cfg = tmp_path / "kind.cfg"
        cfg.write_text(f"mechanism = {mechanism}\nagent = {agent}\n")
        argv = [command, "--config", str(cfg)]
        if command == "sweep":
            param = next(p for p, row in scenario.SWEEPS.items() if mechanism in row.mechanisms)
            argv += ["--param", param, "--values", "0.5"]
        code, err = self._main(tmp_path, capsys, argv)
        assert (code, err) == (1, f"gridswap: {cfg}: {mechanism} needs at least one {kind} "
                                  "agent\n")
        with pytest.raises(SchemaError) as exc:
            scenario.load_scenario(cfg)
        assert str(exc.value) == f"{cfg}: {mechanism} needs at least one {kind} agent"
