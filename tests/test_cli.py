"""CLI subcommands: outputs, exit codes, determinism."""

import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import gridswap
from gridswap import coalition, ev, ingest, scenario, storage, synth
from gridswap.cli import _build_parser, main


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
            ("B1,buy,5,0.2\nB2,buy,-2,0.2\n", 3, "order quantity must be > 0, got -2.0"),
            ("B1,buy,nan,0.2\n", 2, "expected a finite number, got 'nan'"),
            ("S1,sell,1,0.1\nB1,bid,5,0.2\n", 3, "order side must be 'buy' or 'sell', got 'bid'"),
            ("B1,buy,5,-0.5\n", 2, "limit price must be finite and >= 0, got -0.5"),
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

    def test_missing_config_exits_2_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["run", "--config", str(tmp_path / "none.cfg"),
                   "--out", str(out), "--quiet"])
        assert rc == 2
        assert not out.exists()

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


class TestDeterminism:
    def test_every_subcommand_byte_identical(self, tmp_path, scenario_cfg,
                                             orders_csv, instance_csv):
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
        invocations = [
            ["run", "--config", str(scenario_cfg)],
            ["clear", "--orders", str(orders_csv)],
            ["ev-auction", "--population", str(pop)],
            ["shapley", "--exact", "--instance", str(instance_csv)],
            ["shapley", "--instance", str(instance_csv), "--samples", "200", "--seed", "4"],
            ["storage-auction", "--rus", str(rus), "--sfcs", str(sfcs)],
            ["ic-check", "--trials", "2", "--seed", "1"],
            ["nash", "--game", str(game)],
            ["sweep", "--config", str(scenario_cfg), "--param", "supplier_count",
             "--values", "2,3"],
        ]
        for k, argv in enumerate(invocations):
            out = tmp_path / f"det{k}"
            full = argv + ["--out", str(out), "--quiet"]
            assert main(full) == 0, argv
            first = snapshot(out)
            for f in out.iterdir():
                f.unlink()
            assert main(full) == 0, argv
            assert snapshot(out) == first, argv[0]


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

    @pytest.mark.parametrize(
        "key, value, bound",
        [
            ("horizon", "1.7", "from 1 to 105408"),
            ("horizon", "0", "from 1 to 105408"),
            ("horizon", "105409", "from 1 to 105408"),
            ("horizon", "1000000000000", "from 1 to 105408"),
            ("slot_minutes", "-15", ">= 1"),
            ("slot_minutes", "7.5", ">= 1"),
            ("slot_minutes", "0", ">= 1"),
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
         ("seed", "0", 0), ("seed", "12", 12)],
    )
    def test_config_value_accepted_as_an_integer(self, tmp_path, key, value, parsed):
        cfg = tmp_path / "da.cfg"
        cfg.write_text(f"{key} = {value}\nagent = p1 prosumer -\n")
        read = getattr(scenario.load_scenario(cfg), key)
        assert read == parsed and type(read) is int


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
            ("seller_margin = -0.01", "seller_margin lo:hi must satisfy 0 <= lo <= hi, got -0.01"),
            ("buyer_margin = 0.5:0.6",
             "buyer_margin lo:hi must satisfy 0 <= lo <= hi <= p_rp = 0.3, got 0.5:0.6"),
            ("buyer_margin = -0.05:0.01",
             "buyer_margin lo:hi must satisfy 0 <= lo <= hi <= p_rp = 0.3, got -0.05:0.01"),
        ],
    )
    def test_rejected_at_load(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(f"p_rp = 0.3\n{line}\nagent = p1 prosumer -\nagent = c1 consumer -\n")
        code, err = self._main(tmp_path, capsys, ["run", "--config", str(cfg)])
        assert code == 1
        assert f"opt.cfg:2: {message}" in err
        assert not (tmp_path / "o" / "report.csv").exists()

    @pytest.mark.parametrize("line", ["eta = 1", "eps = 1e-9", "buyer_margin = 0.3",
                                      "seller_margin = 0:0", "buyer_margin = 0.02:0.1"])
    def test_accepted_at_the_bounds(self, tmp_path, line):
        cfg = tmp_path / "opt.cfg"
        cfg.write_text(f"p_rp = 0.3\n{line}\nagent = p1 prosumer -\nagent = c1 consumer -\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0


class TestSweepValueRange:
    _main = TestNonFiniteRejected._main

    @pytest.mark.parametrize(
        "param, values, message",
        [
            ("supplier_count", "0,2", "supplier_count must be an integer >= 1, got 0"),
            ("supplier_count", "2,-3", "supplier_count must be an integer >= 1, got -3"),
            ("supplier_count", "2.5", "supplier_count must be an integer >= 1, got 2.5"),
            ("supplier_count", "2,201", "supplier_count must be <= 200, got 201"),
            ("supplier_count", "1e6", "supplier_count must be <= 200, got 1e+06"),
            ("solar_fraction", "-1", "solar_fraction must lie in [0, 1], got -1"),
            ("solar_fraction", "0.5,2", "solar_fraction must lie in [0, 1], got 2"),
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
                assert ingest.columns(tmp / name, ints=ints, floats=floats) is not None
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
