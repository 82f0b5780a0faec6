"""Scenario engine: config ingestion, simulation, baselines, sweeps."""

import gc
import textwrap
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from gridswap import coalition, market
from gridswap import scenario as sim
from gridswap import ev as evx
from gridswap.errors import InputError, SchemaError
from gridswap.market import Tariff
from gridswap.scenario import (
    AgentProfile,
    Scenario,
    compare_baselines,
    load_scenario,
    run_simulation,
    sweep,
)

from oracles import (
    coalition_replay_loop,
    double_auction_replay_loop,
    double_auction_stream_loop,
    solar_fraction_loop,
)


def write_series(path, rows):
    lines = ["slot_index,load_kwh,gen_kwh"]
    for k, (load, gen) in enumerate(rows):
        lines.append(f"{k},{load},{gen}")
    path.write_text("\n".join(lines) + "\n")


def write_config(path, text):
    path.write_text(textwrap.dedent(text))
    return path


@pytest.fixture
def minimal(tmp_path):
    write_series(tmp_path / "pro.csv", [(0.0, 3.0)] * 4)
    write_series(tmp_path / "con.csv", [(3.0, 0.0)] * 4)
    cfg = write_config(
        tmp_path / "scenario.cfg",
        """
        mechanism = double_auction
        horizon = 4
        seed = 7
        p_wp = 0.05
        p_rp = 0.30
        agent = pro1 prosumer pro.csv
        agent = con1 consumer con.csv
        """,
    )
    return cfg


class TestLoadScenario:
    def test_minimal_config(self, minimal):
        sc = load_scenario(minimal)
        assert len(sc.agents) == 2
        assert sc.horizon == 4 and sc.slot_minutes == 15
        assert sc.tariff.p_rp == 0.30

    def test_length_mismatch_names_agent(self, tmp_path):
        write_series(tmp_path / "short.csv", [(1.0, 0.0)] * 95)
        cfg = write_config(
            tmp_path / "bad.cfg",
            """
            horizon = 96
            agent = h1 consumer short.csv
            """,
        )
        with pytest.raises(SchemaError, match="h1"):
            load_scenario(cfg)

    def test_degenerate_tariff_rejected(self, tmp_path):
        write_series(tmp_path / "s.csv", [(1.0, 0.0)])
        cfg = write_config(
            tmp_path / "bad.cfg",
            """
            p_wp = 0.10
            p_rp = 0.10
            agent = h1 consumer s.csv
            """,
        )
        with pytest.raises(SchemaError):
            load_scenario(cfg)

    def test_negative_series_rejected(self, tmp_path):
        (tmp_path / "neg.csv").write_text(
            "slot_index,load_kwh,gen_kwh\n0,-1.0,0.0\n"
        )
        cfg = write_config(tmp_path / "bad.cfg", "agent = h1 consumer neg.csv\n")
        with pytest.raises(SchemaError, match=r"neg.csv:2: load_kwh must lie in \[0, 1e\+09\] kWh"):
            load_scenario(cfg)

    def test_missing_series_file(self, tmp_path):
        cfg = write_config(tmp_path / "bad.cfg", "agent = h1 consumer ghost.csv\n")
        with pytest.raises(SchemaError, match="ghost.csv"):
            load_scenario(cfg)

    def test_series_naming_a_directory(self, tmp_path):
        (tmp_path / "adir").mkdir()
        cfg = write_config(tmp_path / "bad.cfg", "agent = h1 consumer adir\n")
        with pytest.raises(SchemaError, match="adir is not a regular file"):
            load_scenario(cfg)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "none.cfg")

    def test_unknown_role_rejected(self, tmp_path):
        write_series(tmp_path / "s.csv", [(1.0, 0.0)])
        cfg = write_config(tmp_path / "bad.cfg", "agent = h1 wizard s.csv\n")
        with pytest.raises(SchemaError, match="wizard"):
            load_scenario(cfg)

    def test_duplicate_ids_rejected(self, tmp_path):
        write_series(tmp_path / "s.csv", [(1.0, 0.0)])
        cfg = write_config(
            tmp_path / "bad.cfg",
            "agent = h1 consumer s.csv\nagent = h1 consumer s.csv\n",
        )
        with pytest.raises(SchemaError, match="duplicate"):
            load_scenario(cfg)


class TestConfigLines:
    # a line ends at "\n", "\r" or "\r\n" only; a form feed, NEL or line
    # separator in a comment is part of the comment
    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"], ids=["ff", "nel", "ls"])
    def test_separator_leaves_comment_whole(self, tmp_path, sep):
        cfg = tmp_path / "sep.cfg"
        text = (f"horizon = 2\n# old setting{sep}horizon = 3\n"
                f"# was: seed = 9{sep}seed = 4\r\nagent = p1 prosumer -\r")
        cfg.write_bytes(text.encode())
        sc = load_scenario(cfg)
        assert (sc.horizon, sc.seed, [a.id for a in sc.agents]) == (2, 0, ["p1"])
        cfg.write_bytes((text + "horizon = 5\n").encode())
        with pytest.raises(SchemaError) as info:
            load_scenario(cfg)
        assert str(info.value) == f"{cfg}:5: key 'horizon' given twice (first on line 1)"


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "config, series_row, location",
        [
            ("agent = h1 consumer s.csv", "nan,0.0", "s.csv:2"),
            ("agent = h1 consumer s.csv", "1.0,inf", "s.csv:2"),
            ("p_wp = nan\nagent = h1 consumer s.csv", "1.0,0.0", "bad.cfg:1"),
            ("horizon = inf\nagent = h1 consumer s.csv", "1.0,0.0", "bad.cfg:1"),
            ("buyer_margin = 0.02:nan\nagent = h1 consumer s.csv", "1.0,0.0", "bad.cfg:1"),
            ("mechanism = ev_auction\nagent = c1 ev - w=nan c_min=1", "0,0", "bad.cfg:2"),
            ("mechanism = storage_auction\nagent = f1 sfc - requirement=9 bid=inf",
             "0,0", "bad.cfg:2"),
        ],
    )
    def test_rejected_with_location(self, tmp_path, config, series_row, location):
        (tmp_path / "s.csv").write_text(f"slot_index,load_kwh,gen_kwh\n0,{series_row}\n")
        cfg = write_config(tmp_path / "bad.cfg", config + "\n")
        with pytest.raises(SchemaError, match=f"{location}: .*finite"):
            load_scenario(cfg)

    @pytest.mark.parametrize(
        "config, series_row, message",
        [
            ("agent = h1 consumer s.csv", "1.0", "s.csv:2: expected a number, got ''"),
            ("mechanism = storage_auction\nagent = r1 residential_unit - reservation=0.2 "
             "reluctance=0.001", "0,0", "bad.cfg:2: agent 'r1' needs parameter 'capacity'"),
            ("mechanism = ev_auction\nagent = c1 ev - w=abc c_min=1", "0,0",
             "bad.cfg:2: agent 'c1' w: expected a number, got 'abc'"),
            ("agent = c1 ev - c_min=1", "0,0", "bad.cfg:1: ev agent 'c1' needs either w"),
            ("agent = f1 sfc - requirement=-5 bid=0.3", "0,0",
             "bad.cfg:1: SFC 'f1' requirement must lie in [0, 1e+09] kWh, got -5.0"),
        ],
    )
    def test_malformed_rejected_with_location(self, tmp_path, config, series_row, message):
        (tmp_path / "s.csv").write_text(f"slot_index,load_kwh,gen_kwh\n0,{series_row}\n")
        cfg = write_config(tmp_path / "bad.cfg", config + "\n")
        with pytest.raises(SchemaError) as info:
            load_scenario(cfg)
        assert message in str(info.value)

    def test_nan_residual_fails_identity_check(self):
        agent = AgentProfile("h1", "consumer", np.array([np.nan]), np.array([0.0]))
        sc = Scenario([agent], Tariff(p_wp=0.05, p_rp=0.30), "double_auction", 1)
        with pytest.raises(InputError, match="identity"):
            run_simulation(sc)


class TestRunSimulation:
    def test_exact_balance_clears_peer_to_peer(self, minimal):
        report = run_simulation(load_scenario(minimal))
        assert report.system["matched_kwh"] == pytest.approx(12.0)
        assert report.system["grid_import_kwh"] == pytest.approx(0.0)
        assert report.system["grid_export_kwh"] == pytest.approx(0.0)

    def test_savings_against_fit_are_nonnegative(self, minimal):
        report = run_simulation(load_scenario(minimal))
        for row in report.per_agent.values():
            assert row["savings"] >= -1e-9

    def test_pure_consumers_match_fit(self, tmp_path):
        write_series(tmp_path / "c1.csv", [(2.0, 0.0)] * 3)
        write_series(tmp_path / "c2.csv", [(1.0, 0.0)] * 3)
        cfg = write_config(
            tmp_path / "cfg",
            """
            horizon = 3
            agent = c1 consumer c1.csv
            agent = c2 consumer c2.csv
            """,
        )
        report = run_simulation(load_scenario(cfg))
        assert report.system["matched_kwh"] == 0.0
        for row in report.per_agent.values():
            assert row["bill"] == pytest.approx(row["fit_bill"])

    def test_seeded_multi_agent_energy_identity(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = ["mechanism = double_auction", "horizon = 96", "seed = 11"]
        for k in range(10):
            series = [
                (float(rng.uniform(0, 2)), float(rng.uniform(0, 2))) for _ in range(96)
            ]
            write_series(tmp_path / f"a{k}.csv", series)
            lines.append(f"agent = a{k} prosumer a{k}.csv")
        cfg = write_config(tmp_path / "cfg", "\n".join(lines) + "\n")
        report = run_simulation(load_scenario(cfg))
        assert abs(report.system["energy_balance_residual_kwh"]) < 1e-6

    def test_money_conservation(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["horizon = 24", "seed = 2"]
        for k in range(6):
            series = [
                (float(rng.uniform(0, 1.5)), float(rng.uniform(0, 1.5)))
                for _ in range(24)
            ]
            write_series(tmp_path / f"a{k}.csv", series)
            lines.append(f"agent = a{k} prosumer a{k}.csv")
        cfg = write_config(tmp_path / "cfg", "\n".join(lines) + "\n")
        report = run_simulation(load_scenario(cfg))
        agent_net = sum(r["bill"] - r["revenue"] for r in report.per_agent.values())
        grid_net = (
            0.30 * report.system["grid_import_kwh"]
            - 0.05 * report.system["grid_export_kwh"]
        )
        assert agent_net == pytest.approx(grid_net, abs=1e-9)

    def test_determinism(self, minimal):
        a = run_simulation(load_scenario(minimal))
        b = run_simulation(load_scenario(minimal))
        assert a.per_agent == b.per_agent
        assert a.system == b.system


def _double_auction_scenario(seed, options):
    """Twelve agents listed out of id order over 24 slots, drawn so that some
    slots hold no orders, only bids, only asks, or nets within 1e-12 of zero."""
    rng = np.random.default_rng(seed)
    agents = []
    for k in range(12):
        load = rng.uniform(0.0, 2.0, 24) * (rng.random(24) < 0.7)
        gen = rng.uniform(0.0, 3.0, 24) * (rng.random(24) < 0.5)
        load[0] = gen[0] = 0.0  # no orders
        load[1], gen[1] = 0.0, 1.0 + k  # asks only
        load[2], gen[2] = 1.0 + k, 0.0  # bids only
        load[3], gen[3] = 0.0, 5e-13 * (k % 3)  # nets too small to post
        agents.append(AgentProfile(f"a{(5 * k) % 12:02d}", "prosumer", load, gen))
    return Scenario(agents, Tariff(p_wp=0.05, p_rp=0.30), "double_auction", 24,
                    seed=seed, options=options)


def _assert_stream_equals_the_loop(scenario):
    """Each chunk the double-auction replay lists, cut as run_simulation cuts
    the horizon, equals the per-entry loop's stream of the same slots term
    for term, in order, to the bit."""
    spec = sim._MECHANISMS["double_auction"]
    cells = sim._Cells(scenario.agents, {**dict.fromkeys(sim._ENERGY_TOTALS, float), **spec.totals})
    chunk = spec.replay(scenario, cells)[0]
    size = max(1, sim._CHUNK_BYTES // (sim._SLOT_ORDER_BYTES * len(scenario.agents)))
    firsts = range(0, scenario.horizon, size)
    pieces = [chunk(first, min(first + size, scenario.horizon)) for first in firsts]
    for (at, amount), first in zip(pieces, firsts):
        ref_at, ref_amount = double_auction_stream_loop(scenario, cells, first, first + size)
        assert at.dtype == np.intp and amount.dtype == np.float64
        assert at.tolist() == ref_at.tolist()
        assert amount.tobytes() == ref_amount.tobytes()
    return pieces


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize(
    "options",
    [
        {},
        {"buyer_margin": (0.0, 0.25), "seller_margin": (0.0, 0.25)},
        # every bid at most 0.10, every ask at least 0.25: no slot crosses
        {"buyer_margin": (0.2, 0.3), "seller_margin": (0.2, 0.25)},
    ],
)
def test_double_auction_equals_the_loop_replay(seed, options):
    """run_simulation adds every double-auction sum in the order the per-slot
    dict replay does, so both report the same floats bit for bit. The slots
    include ones with no order, no buyer (slot 1), no seller (slot 2), nets
    under 1e-12 (slot 3) and, in the last case, no match at all; the replay's
    stream equals the per-entry loop's term for term."""
    _assert_stream_equals_the_loop(_double_auction_scenario(seed, options))
    report = run_simulation(_double_auction_scenario(seed, options))
    per_agent, system = double_auction_replay_loop(_double_auction_scenario(seed, options))
    assert repr({aid: sorted(row.items()) for aid, row in report.per_agent.items()}) == repr(
        {aid: sorted(row.items()) for aid, row in per_agent.items()})
    assert repr(sorted(report.system.items())) == repr(sorted(system.items()))


def test_double_auction_chunks_equal_the_loop_replay(monkeypatch):
    """With a chunk budget of five slots of twelve agents, the 24 slots clear
    in five merges, each chunk's stream equals the per-entry loop's, and
    every sum is added as the per-slot replay adds it."""
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 5 * 12 * sim._SLOT_ORDER_BYTES)
    merges = []
    clear_rows = market._clear_rows

    def counted(*args):
        merges.append(len(args[1]))
        return clear_rows(*args)

    monkeypatch.setattr(market, "_clear_rows", counted)
    options = {"buyer_margin": (0.0, 0.25), "seller_margin": (0.0, 0.25)}
    report = run_simulation(_double_auction_scenario(2, options))
    assert merges == [5, 5, 5, 5, 4]
    assert len(_assert_stream_equals_the_loop(_double_auction_scenario(2, options))) == 5
    per_agent, system = double_auction_replay_loop(_double_auction_scenario(2, options))
    assert repr({aid: sorted(row.items()) for aid, row in report.per_agent.items()}) == repr(
        {aid: sorted(row.items()) for aid, row in per_agent.items()})
    assert repr(sorted(report.system.items())) == repr(sorted(system.items()))


class _RecordingNumpy:
    """numpy, except that `add.at` records the arrays it is handed before it adds them."""

    def __init__(self):
        self.handed = []
        self.add = types.SimpleNamespace(at=self._at)

    def _at(self, sums, at, amount):
        self.handed.append((at, amount))
        np.add.at(sums, at, amount)

    def __getattr__(self, name):
        return getattr(np, name)


def test_double_auction_sums_large_pieces_uncopied(monkeypatch):
    """With a budget of five slots of twelve agents, each of the five chunks
    reaches np.add.at as the replay listed it, uncopied, and the sums still
    equal the per-slot replay."""
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 5 * 12 * sim._SLOT_ORDER_BYTES)
    spec = sim._MECHANISMS["double_auction"]
    listed = []

    def recorded(scenario, cells):
        chunk, finish = spec.replay(scenario, cells)

        def kept(first, stop):
            listed.append(chunk(first, stop))
            return listed[-1]
        return kept, finish

    monkeypatch.setitem(sim._MECHANISMS, "double_auction", spec._replace(replay=recorded))
    numpy = _RecordingNumpy()
    monkeypatch.setattr(sim, "np", numpy)
    options = {"buyer_margin": (0.0, 0.25), "seller_margin": (0.0, 0.25)}
    report = run_simulation(_double_auction_scenario(2, options))
    assert len(listed) == len(numpy.handed) == 5
    for (at, amount), (added_at, added) in zip(listed, numpy.handed):
        assert added_at is at and added is amount
    per_agent, system = double_auction_replay_loop(_double_auction_scenario(2, options))
    assert repr({aid: sorted(row.items()) for aid, row in report.per_agent.items()}) == repr(
        {aid: sorted(row.items()) for aid, row in per_agent.items()})
    assert repr(sorted(report.system.items())) == repr(sorted(system.items()))


class TestDoubleAuctionStream:
    def test_zero_nets(self):
        """Every net is zero, one of them -0.0: no orders, only feed-in
        terms of 0.0 and the two grid totals."""
        agents = [AgentProfile(f"a{k}", "prosumer", np.full(6, 1.5 * k),
                               np.full(6, 1.5 * k)) for k in range(3)]
        agents.append(AgentProfile("z", "consumer", np.zeros(6), np.full(6, -0.0)))
        scenario = Scenario(agents, Tariff(p_wp=0.05, p_rp=0.30), "double_auction", 6, seed=4)
        [(at, amount)] = _assert_stream_equals_the_loop(scenario)
        assert len(at) == 6 * (2 + 4) and not amount.any()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=hst.data())
    def test_small_random_scenarios(self, data):
        """Up to five agents over up to eight slots, loads and generation from
        a few values (equal nets tie, tiny ones post no order), margins that
        may tie every bid or every ask, and any chunk length."""
        n = data.draw(hst.integers(1, 5), label="agents")
        horizon = data.draw(hst.integers(1, 8), label="horizon")
        kwh = hst.lists(hst.sampled_from([0.0, 5e-13, 0.5, 1.0, 2.5]),
                        min_size=horizon, max_size=horizon)
        agents = [AgentProfile(f"a{(3 * k) % 5}", "prosumer", np.array(data.draw(kwh)),
                               np.array(data.draw(kwh))) for k in range(n)]
        margin = hst.sampled_from([(0.02, 0.10), (0.05, 0.05), (0.0, 0.25)])
        options = {"buyer_margin": data.draw(margin), "seller_margin": data.draw(margin)}
        scenario = Scenario(agents, Tariff(p_wp=0.05, p_rp=0.30), "double_auction", horizon,
                            seed=data.draw(hst.integers(0, 3)), options=options)
        chunk = data.draw(hst.integers(1, horizon), label="chunk slots")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sim, "_CHUNK_BYTES", chunk * n * sim._SLOT_ORDER_BYTES)
            _assert_stream_equals_the_loop(scenario)


def _repeating_scenario(mechanism, horizon):
    """Six agents whose every slot repeats slot 0: a double auction whose
    books cross, a coalition of the same agents, or a storage auction
    cleared once and added in every slot."""
    if mechanism in ("double_auction", "coalition"):
        agents = [AgentProfile(f"a{k}", "prosumer", np.full(horizon, 1.0 + k % 3),
                               np.full(horizon, 3.0 * (k % 2))) for k in range(6)]
    else:
        zero = np.zeros(horizon)
        agents = [AgentProfile(f"r{k}", "residential_unit", zero, zero,
                               {"capacity": 100.0, "reservation": 0.26, "reluctance": 5e-4})
                  for k in range(3)]
        agents += [AgentProfile(f"f{k}", "sfc", zero, zero, {"requirement": 150.0, "bid": 0.4})
                   for k in range(3)]
    return Scenario(agents, Tariff(p_wp=0.05, p_rp=0.30), mechanism, horizon, seed=1)


@pytest.mark.parametrize("mechanism", ["double_auction", "coalition", "storage_auction"])
def test_replay_memory_does_not_grow_with_the_horizon(monkeypatch, mechanism):
    """With a budget of eight slots of six agents, the horizon is replayed
    and summed in chunks of eight slots, so four times the horizon peaks at
    about the same memory."""
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 8 * 6 * sim._SLOT_ORDER_BYTES)
    # A first run at the longer horizon fills the caches and the tuple free
    # lists the replay meets. A full collection would empty those lists, and
    # tracemalloc would count their refilling as growth, so none runs while
    # tracing.
    run_simulation(_repeating_scenario(mechanism, 800))
    peaks = []
    gc.disable()
    try:
        for horizon in (200, 800):
            scenario = _repeating_scenario(mechanism, horizon)
            tracemalloc.start()
            try:
                report = run_simulation(scenario)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert report.system["matched_kwh"] > 0
    finally:
        gc.enable()
    assert peaks[1] < 1.25 * peaks[0]


@pytest.mark.parametrize("mechanism", ["ev_auction", "storage_auction"])
def test_repeated_slot_chunks_equal_one_chunk(monkeypatch, mechanism):
    """An auction cleared once and added in every slot sums to the same
    floats in chunks of five slots, the last one shorter, as in one chunk."""
    if mechanism == "storage_auction":
        make = lambda: _repeating_scenario(mechanism, 12)  # noqa: E731
    else:
        zero = np.zeros(12)
        agents = [AgentProfile("c1", "ev", zero, zero, {"w": 1.9, "c_min": 6, "c_max": 15}),
                  AgentProfile("d1", "ev", zero, zero, {"l1": 0.04, "l2": 0.02, "d_max": 16}),
                  AgentProfile("d2", "ev", zero, zero, {"l1": 0.05, "l2": 0.03, "d_max": 13})]
        make = lambda: Scenario(agents, Tariff(p_wp=0.05, p_rp=0.30), mechanism, 12)  # noqa: E731
    whole = run_simulation(make())
    monkeypatch.setattr(sim, "_CHUNK_BYTES", 5 * len(make().agents) * sim._SLOT_ORDER_BYTES)
    _same_report(run_simulation(make()), whole.per_agent, whole.system)
    assert whole.system["matched_kwh"] > 0


@pytest.fixture
def ev_config(tmp_path):
    return write_config(
        tmp_path / "ev.cfg",
        """
        mechanism = ev_auction
        horizon = 1
        eta = 0.9
        agent = c1 ev - w=1.9 c_min=6 c_max=15
        agent = c2 ev - w=1.4 c_min=5 c_max=14
        agent = d1 ev - l1=0.04 l2=0.02 d_max=16
        agent = d2 ev - l1=0.05 l2=0.03 d_max=13
        """,
    )


class TestEvScenario:
    def test_runs_and_accounts_losses(self, ev_config):
        report = run_simulation(load_scenario(ev_config))
        s = report.system
        assert s["loss_kwh"] == pytest.approx(0.1 * s["generation_kwh"], rel=1e-6)
        assert abs(s["energy_balance_residual_kwh"]) < 1e-6

    def test_hybrid_baseline_column(self, ev_config):
        sc = load_scenario(ev_config)
        rows, notes = compare_baselines(sc, run_simulation(sc))
        assert any("ed baseline" in n for n in notes)
        assert all("hybrid_cost" in r for r in rows)


@pytest.fixture
def coalition_config(tmp_path):
    write_series(tmp_path / "s1.csv", [(0.0, 4.0)] * 2)
    write_series(tmp_path / "s2.csv", [(0.0, 2.0)] * 2)
    write_series(tmp_path / "u1.csv", [(5.0, 0.0)] * 2)
    return write_config(
        tmp_path / "co.cfg",
        """
        mechanism = coalition
        horizon = 2
        agent = s1 prosumer s1.csv
        agent = s2 prosumer s2.csv
        agent = u1 consumer u1.csv
        """,
    )


class TestCoalitionScenario:
    def test_pooled_beats_fit_in_aggregate(self, coalition_config):
        sc = load_scenario(coalition_config)
        rows, _ = compare_baselines(sc, run_simulation(sc))
        p2p = sum(r["p2p_cost"] for r in rows)
        fit = sum(r["fit_cost"] for r in rows)
        assert p2p <= fit + 1e-9


def _coalition_scenario(seed, n_agents, horizon, options=None, quiet=0.0):
    """Agents listed out of id order whose nets fall within 1e-12 of zero in
    some slots, so the member count varies from slot to slot; `quiet` is the
    share of (slot, agent) nets that are zero."""
    rng = np.random.default_rng(seed)
    agents = []
    for k in range(n_agents):
        # magnitudes spread over four decades, so the order of a sum shows in its last bits
        load = rng.uniform(0.0, 3.0, horizon) * 10.0 ** rng.uniform(-2, 2, horizon)
        gen = rng.uniform(0.0, 4.0, horizon) * 10.0 ** rng.uniform(-2, 2, horizon)
        gen *= rng.random(horizon) < 0.6
        still = rng.random(horizon) < quiet
        load[still], gen[still] = 0.0, 5e-13 * (k % 2)
        agents.append(AgentProfile(f"a{(11 * k) % n_agents:02d}", "prosumer", load, gen))
    return Scenario(agents, Tariff(p_wp=0.05, p_rp=0.30), "coalition", horizon,
                    seed=seed, options=options or {})


def _same_report(report, per_agent, system):
    assert repr({aid: sorted(row.items()) for aid, row in report.per_agent.items()}) == repr(
        {aid: sorted(row.items()) for aid, row in per_agent.items()})
    assert repr(sorted(report.system.items())) == repr(sorted(system.items()))


class TestCoalitionReplay:
    """run_simulation divides each member count's slots of a chunk in one
    Shapley batch and sums every term in the order the per-slot dict replay
    does."""

    @pytest.mark.parametrize("seed", [4, 5])
    def test_member_count_varies(self, seed):
        make = lambda: _coalition_scenario(seed, 16, 12, quiet=0.2)  # noqa: E731
        report = run_simulation(make())
        assert len({s for s in _member_counts(make())}) > 3
        _same_report(report, *coalition_replay_loop(make()))

    def test_sampled_slots_above_the_exact_limit(self):
        make = lambda: _coalition_scenario(  # noqa: E731
            3, coalition._EXACT_LIMIT + 3, 6, {"mc_samples": 25}, quiet=0.05)
        counts = _member_counts(make())
        assert max(counts) > coalition._EXACT_LIMIT >= min(counts)
        report = run_simulation(make())
        assert report.system["shapley_sampled_slots"] > 0
        assert report.system["shapley_exact_slots"] > 0
        _same_report(report, *coalition_replay_loop(make()))

    @pytest.mark.parametrize("n_agents, options", [(16, {}), (coalition._EXACT_LIMIT + 3,
                                                            {"mc_samples": 25})],
                             ids=["exact", "sampled"])
    def test_chunks_equal_the_slot_loop(self, monkeypatch, n_agents, options):
        """With a budget of five slots, twelve slots replay in three chunks;
        the sampled rows keep the seeds of their slots in the horizon."""
        monkeypatch.setattr(sim, "_CHUNK_BYTES", 5 * n_agents * sim._SLOT_ORDER_BYTES)
        make = lambda: _coalition_scenario(6, n_agents, 12, options, quiet=0.05)  # noqa: E731
        report = run_simulation(make())
        if options:
            assert report.system["shapley_sampled_slots"] > 5
        _same_report(report, *coalition_replay_loop(make()))

    def test_no_slot_has_members(self):
        make = lambda: _coalition_scenario(4, 5, 8, quiet=1.0)  # noqa: E731
        report = run_simulation(make())
        assert report.system["shapley_exact_slots"] == 0
        _same_report(report, *coalition_replay_loop(make()))

    def test_one_kernel_call_per_member_count(self, monkeypatch):
        calls = []
        kernel = coalition._shapley_rows

        def counted(energies, tariff):
            calls.append(energies.shape)
            return kernel(energies, tariff)

        monkeypatch.setattr(coalition, "_shapley_rows", counted)
        sc = _coalition_scenario(5, 14, 96, quiet=0.15)
        run_simulation(sc)
        counts = _member_counts(sc)
        assert sorted(n for _, n in calls) == sorted(set(counts) - {0})
        assert sum(rows for rows, _ in calls) == sum(1 for n in counts if n)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_solar_fraction_equals_the_slot_loop(self, seed):
        sc = _coalition_scenario(seed, 7, 48, quiet=0.2)
        fractions = [0.0, 0.25, 0.5, 1.0]
        assert repr(sweep(sc, "solar_fraction", fractions)) == repr(
            solar_fraction_loop(sc, fractions))

    def test_wind_sweep_does_not_depend_on_the_slot_length(self):
        """Each wind series is scaled from its supplier's mean kWh per slot, so
        the same series read as 15- or 60-minute slots value alike."""
        values = {}
        for minutes in (15, 60):
            sc = _coalition_scenario(3, 7, 48, quiet=0.2)
            sc.slot_minutes = minutes
            rows = sweep(sc, "solar_fraction", [0.0])
            assert repr(rows) == repr(solar_fraction_loop(sc, [0.0]))
            values[minutes] = rows[0]["community_value"]
        assert values[60] == pytest.approx(values[15], rel=1e-12, abs=0.0)


def _member_counts(scenario):
    nets = np.stack([a.gen - a.load for a in scenario.agents], axis=1)
    return (np.abs(nets) >= 1e-12).sum(axis=1).tolist()


@pytest.fixture
def storage_config(tmp_path):
    return write_config(
        tmp_path / "st.cfg",
        """
        mechanism = storage_auction
        horizon = 1
        rule = equal
        agent = r1 residential_unit - capacity=100 reservation=0.26 reluctance=0.0005
        agent = r2 residential_unit - capacity=100 reservation=0.265 reluctance=0.0004
        agent = f1 sfc - requirement=150 bid=0.40
        agent = f2 sfc - requirement=150 bid=0.28
        """,
    )


class TestStorageScenario:
    def test_p2p_dominates_ed_and_fit(self, storage_config):
        sc = load_scenario(storage_config)
        rows, notes = compare_baselines(sc, run_simulation(sc))
        assert rows, "expected residential unit rows"
        for r in rows:
            assert r["p2p_utility"] >= r["ed_utility"] - 1e-9
            assert r["p2p_utility"] >= r["fit_utility"] - 1e-9


class TestSweep:
    def test_unknown_parameter_lists_names(self, minimal):
        sc = load_scenario(minimal)
        with pytest.raises(InputError, match="supplier_count"):
            sweep(sc, "voltage", [1, 2])

    def test_empty_values_empty_table(self, minimal):
        assert sweep(load_scenario(minimal), "supplier_count", []) == []

    def test_sfc_requirement_rows(self, storage_config):
        sc = load_scenario(storage_config)
        rows = sweep(sc, "sfc_requirement", [100, 200, 300])
        assert [r["total_requirement"] for r in rows] == [100.0, 200.0, 300.0]

    def test_grid_price_rows(self, ev_config):
        sc = load_scenario(ev_config)
        rows = sweep(sc, "grid_price", [0.05, 0.50])
        assert len(rows) == 2
        assert rows[0]["hybrid_avg_buying_price"] == pytest.approx(0.05)

    def test_run_and_grid_price_sweep_share_the_auction_options(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "ev.cfg",
            """
            mechanism = ev_auction
            horizon = 1
            eta = 0.85
            eps = 1e-7
            agent = c1 ev - w=1.9 c_min=6 c_max=15
            agent = d1 ev - l1=0.04 l2=0.02 d_max=16
            """,
        )
        seen = []
        auction = evx.run_iterative_auction

        def recorded(chargers, dischargers, eta, eps):
            seen.append((eta, eps))
            return auction(chargers, dischargers, eta, eps)

        monkeypatch.setattr(evx, "run_iterative_auction", recorded)
        sc = load_scenario(cfg)
        run_simulation(sc)
        sweep(sc, "grid_price", [0.5])
        assert seen == [(0.85, 1e-7), (0.85, 1e-7)]

    def test_grid_price_sweep_sends_what_the_auction_sent(self, tmp_path):
        # the direct trade dispatches at the config's eta, so its wire flow is
        # the auction's sent energy, not the energy a 0.9 link would need
        cfg = write_config(
            tmp_path / "ev.cfg",
            """
            mechanism = ev_auction
            horizon = 1
            eta = 0.85
            eps = 1e-7
            agent = c1 ev - w=1.9 c_min=6 c_max=15
            agent = d1 ev - l1=0.04 l2=0.02 d_max=16
            """,
        )
        sc = load_scenario(cfg)
        sent = run_simulation(sc).system["generation_kwh"]
        rows = sweep(sc, "grid_price", [0.2, 0.5])
        assert sent == pytest.approx(8.574, abs=1e-3)
        for row in rows:
            assert abs(row["p2p_transmitted_kwh"] - sent) <= 1e-9

    def test_solar_fraction_rows(self, coalition_config):
        sc = load_scenario(coalition_config)
        rows = sweep(sc, "solar_fraction", [0.0, 0.5, 1.0])
        assert [r["solar_fraction"] for r in rows] == [0.0, 0.5, 1.0]

    def test_supplier_count_rows(self, coalition_config):
        sc = load_scenario(coalition_config)
        rows = sweep(sc, "supplier_count", [2, 4])
        assert [r["supplier_count"] for r in rows] == [2, 4]

    def test_supplier_count_samples_the_run_default(self, coalition_config, monkeypatch):
        """Above the exact limit a sweep with no mc_samples draws as many join
        orders as a coalition run does."""
        drawn = []
        sampled_row = coalition._sampled_row

        def counted(energies, tariff, sample_count, seed):
            drawn.append(sample_count)
            return sampled_row(energies, tariff, sample_count, seed)

        monkeypatch.setattr(coalition, "_sampled_row", counted)
        # 30 suppliers and the 3 users the sweep adds at least
        rows = sweep(load_scenario(coalition_config), "supplier_count", [30])
        assert drawn == [coalition.DEFAULT_SAMPLES] == [20_000]
        assert rows[0]["supplier_count"] == 30
