"""Write a seeded community: one series file per agent and a scenario config naming them.

A script for the fresh-process CI steps; pytest does not collect it:

    python tests/community.py CONFIG AGENTS --rng SEED KEY=VALUE ... [--book N] [--instance N]

The config is written at CONFIG, with one `key = value` line per KEY=VALUE in
the order given (`horizon` and `slot_minutes` also set the series' length and
slot width), then one agent line per agent. Agent k is aKK: an even k is a
consumer whose series has no generation, an odd k a prosumer with solar
generation at scale 3. Each series file, aKK.csv, sits next to the config. The
draws continue from the same generator into an order book of N orders
(book.csv) or a coalition instance of N suppliers and N users (instance.csv)
when one is asked for.
"""

import argparse
from pathlib import Path

import numpy as np

from gridswap import synth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("config", type=Path)
    parser.add_argument("agents", type=int)
    parser.add_argument("keys", nargs="+", metavar="KEY=VALUE")
    parser.add_argument("--rng", type=int, required=True, help="seed of the one generator")
    parser.add_argument("--book", type=int, default=0, help="orders in book.csv")
    parser.add_argument("--instance", type=int, default=0,
                        help="suppliers, and as many users, in instance.csv")
    args = parser.parse_args()
    keys = dict(pair.split("=", 1) for pair in args.keys)
    horizon, minutes = int(keys["horizon"]), int(keys.get("slot_minutes", 15))
    where = args.config.parent
    rng = np.random.default_rng(args.rng)
    cfg = [f"{key} = {value}" for key, value in keys.items()]
    for k in range(args.agents):
        load = synth.load_series(rng, horizon, minutes)
        gen = synth.solar_series(rng, horizon, minutes, scale=3.0) if k % 2 else 0.0 * load
        rows = "".join(f"{t},{x!r},{y!r}\n" for t, (x, y) in enumerate(zip(load.tolist(),
                                                                           gen.tolist())))
        (where / f"a{k:02d}.csv").write_text("slot_index,load_kwh,gen_kwh\n" + rows)
        cfg.append(f"agent = a{k:02d} {'prosumer' if k % 2 else 'consumer'} a{k:02d}.csv")
    args.config.write_text("\n".join(cfg) + "\n")
    if args.book:
        book = ["agent_id,side,quantity,limit_price"]
        for k in range(args.book):
            side = "buy" if k % 2 else "sell"
            book.append(f"o{k},{side},{rng.uniform(0.1, 5.0)!r},{rng.uniform(0.05, 0.3)!r}")
        (where / "book.csv").write_text("\n".join(book) + "\n")
    if args.instance:
        members = [f"s{k},supplier,{rng.uniform(0.5, 20.0)!r}" for k in range(args.instance)]
        members += [f"u{k},user,{-rng.uniform(0.5, 15.0)!r}" for k in range(args.instance)]
        (where / "instance.csv").write_text("id,role,net_kwh\n" + "\n".join(members) + "\n")


if __name__ == "__main__":
    main()
