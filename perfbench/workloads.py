"""Seeded workload generators for the benchmark.

Each generator is a pure function of its shape parameters and a seed: it
returns a scenario document (a dict in the format ``parse_scenario`` reads)
and touches no global state, so one seed always gives byte-identical JSON.

The seed drives the document's content: prices, datums, who buys from whom,
and when.  Block timing comes from the simulation's ``rng_seed``, which is
``BLOCK_SEED`` in every document.  The number of blocks in a horizon is
random, and the host time of a run grows with it, so a fixed block seed
keeps the simulated work equal across seeds and their host-time figures
comparable.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# A one-input, two-output key-hash transfer serializes to 236 bytes.
TRANSFER_TX_BYTES = 236

# The simulation's rng_seed, which drives block timing (see above).
BLOCK_SEED = 1
NODES = 2
MEAN_BLOCK_INTERVAL_S = 600.0
# market: datastores, and every how many sensors one sells a long datum.
STORES = 3
LONG_DATUM_EVERY = 5
# mempool_backlog: funding outputs per payer.
COINS_PER_PAYER = 4


def _rng(kind: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{kind}/{seed}")


def _datum(rng: random.Random, long: bool) -> str:
    """A reading of the form ``name=value``.

    Short readings fit the 80-byte payload once encrypted (at most 19
    bytes of plaintext); long ones are a series too big for it, so their
    delivery goes through the datastore by anchor.
    """
    if not long:
        return f"t={rng.uniform(-20, 40):.2f}"
    series = ",".join(f"{rng.uniform(0, 100):.1f}" for _ in range(10))
    return f"series={series}"


def market(
    seed: int,
    sensors: int = 20,
    requesters: int = 40,
    purchases: int = 400,
    blocks: int = 200,
) -> dict:
    """Registered sensors selling datums to requesters, one purchase at a time.

    Purchases fall uniformly in the first 75 % of the horizon, so each one
    has time to be paid, confirmed and answered before it ends.  Every
    ``LONG_DATUM_EVERY``-th sensor sells a datum too long for the payload.
    """
    rng = _rng("market", seed)
    horizon = blocks * MEAN_BLOCK_INTERVAL_S
    actors: list[dict] = [
        {"id": f"store{i}", "kind": "store", "store_id": i} for i in range(STORES)
    ]
    sensor_names = []
    for i in range(sensors):
        long = i % LONG_DATUM_EVERY == LONG_DATUM_EVERY - 1
        name = f"sensor{i:02d}"
        sensor_names.append(name)
        actor = {
            "id": f"s{i:02d}",
            "kind": "sensor",
            "funding": 20_000,
            "node": i % NODES,
            "name": name,
            "data_type": "series" if long else "reading",
            "price": rng.randrange(50, 151),
            "datum": _datum(rng, long),
        }
        if long:
            actor["replication"] = STORES
        actors.append(actor)
    for i in range(requesters):
        actors.append({
            "id": f"r{i:02d}", "kind": "requester", "funding": 100_000,
            "node": (i + 1) % NODES,
        })
    steps: list[dict] = [
        {"at": 0, "op": "register_sensor", "actor": f"s{i:02d}"} for i in range(sensors)
    ]
    times = sorted(round(rng.uniform(1_200, 0.75 * horizon), 3) for _ in range(purchases))
    for t in times:
        steps.append({
            "at": t, "op": "purchase",
            "actor": f"r{rng.randrange(requesters):02d}",
            "sensor": rng.choice(sensor_names),
        })
    return {
        "name": "perfbench_market",
        "config": _config(),
        "horizon_s": horizon,
        "actors": actors,
        "steps": steps,
        "assertions": _safety_assertions(),
    }


def channel_stream(
    seed: int,
    channels: int = 8,
    payments_per_channel: int = 1_250,
) -> dict:
    """Subscriptions: each requester opens one channel to its own sensor,
    pays it ``payments_per_channel`` times off-chain, then settles.

    Payment intervals vary with the seed, but the close and the horizon do
    not, so the chain has the same blocks for every seed.
    """
    rng = _rng("channel_stream", seed)
    max_interval = 10.0
    stream_start = 1_000.0
    close_at = stream_start + channels + max_interval * payments_per_channel + 60.0
    actors: list[dict] = []
    opens, subscribes = [], []
    assertions = _safety_assertions() + [
        {"path": "chain.tx_count", "equals": 2 * channels},
    ]
    for i in range(channels):
        rate = rng.randrange(5, 21)
        interval = round(rng.uniform(max_interval / 2, max_interval), 3)
        deposit = rate * payments_per_channel + 1_000
        actors.append({
            "id": f"r{i}", "kind": "requester", "funding": deposit + 5_000, "node": i % NODES,
        })
        actors.append({
            "id": f"s{i}", "kind": "sensor", "funding": 1_000, "node": (i + 1) % NODES,
            "datum": _datum(rng, False),
        })
        opens.append({
            "at": 10 + i, "op": "open_channel", "actor": f"r{i}", "sensor": f"s{i}",
            "channel": f"ch{i}", "deposit": deposit, "expiry_height": 10_000,
        })
        subscribes.append({
            "at": stream_start + i, "op": "subscribe", "channel": f"ch{i}",
            "rate": rate, "interval": interval, "count": payments_per_channel,
        })
        assertions += [
            {"path": f"channels.ch{i}.sequence", "equals": payments_per_channel},
            {"path": f"channels.ch{i}.paid_total", "equals": rate * payments_per_channel},
            {"path": f"channels.ch{i}.datums_delivered", "equals": payments_per_channel},
            {"path": f"channels.ch{i}.onchain_tx_count", "equals": 2},
        ]
    closes = [
        {"at": close_at, "op": "close_channel", "channel": f"ch{i}"} for i in range(channels)
    ]
    return {
        "name": "perfbench_channel_stream",
        "config": _config(),
        # Ample time after the close for both settlements to confirm.
        "horizon_s": close_at + 20 * MEAN_BLOCK_INTERVAL_S,
        "actors": actors,
        "steps": opens + subscribes + closes,
        "assertions": assertions,
    }


def mempool_backlog(
    seed: int,
    payers: int = 50,
    transfers: int = 3_000,
    blocks: int = 30,
    txs_per_block: int = 66,
    part: int = 0,
) -> dict:
    """Payers sending each other coins faster than blocks can hold them.

    All transfers fall in the first half of the horizon and blocks are capped
    at about ``txs_per_block`` plain transfers, so the producer's pool stays
    deep and every block is full.  ``part`` numbers independent documents
    made from one seed.
    """
    rng = _rng(f"mempool_backlog/{part}", seed)
    horizon = blocks * MEAN_BLOCK_INTERVAL_S
    actors = [
        {
            "id": f"p{i:02d}", "kind": "payer", "node": i % NODES,
            "funding": [rng.randrange(5_000, 20_001) for _ in range(COINS_PER_PAYER)],
        }
        for i in range(payers)
    ]
    times = sorted(round(rng.uniform(1.0, horizon / 2), 3) for _ in range(transfers))
    steps = []
    for t in times:
        src = rng.randrange(payers)
        dst = (src + rng.randrange(1, payers)) % payers
        steps.append({
            "at": t, "op": "transfer", "from": f"p{src:02d}", "to": f"p{dst:02d}",
            "amount": rng.randrange(1, 101),
        })
    return {
        "name": f"perfbench_mempool_backlog_{part}",
        "config": {**_config(), "max_block_size": txs_per_block * TRANSFER_TX_BYTES},
        "horizon_s": horizon,
        "actors": actors,
        "steps": steps,
        "assertions": _safety_assertions(),
    }


def bundled(scenario_dir: Path) -> list[dict]:
    """The scenarios shipped with the package, in name order, unchanged.

    They run with their own ``rng_seed``, as users run them.  Another seed
    would move their block timing, and with it their chain heights and
    host times, by up to a quarter.
    """
    return [json.loads(p.read_text()) for p in sorted(scenario_dir.glob("*.json"))]


def _config() -> dict:
    return {
        "rng_seed": BLOCK_SEED,
        "mean_block_interval_s": MEAN_BLOCK_INTERVAL_S,
        "propagation_delay_s": 1.0,
        "num_nodes": NODES,
    }


def _safety_assertions() -> list[dict]:
    return [
        {"path": "safety.double_spend_free", "equals": True},
        {"path": "safety.value_conserved", "equals": True},
    ]


# How many mempool_backlog documents one iteration runs.  Which transfers
# fail depends on the seed, and with them the pool depth and the work of
# block template selection; independent documents average that out.
BACKLOG_PARTS = 6


def documents(workload: str, seed: int, scenario_dir: Path) -> list[dict]:
    """The scenario documents one iteration of ``workload`` runs, in order.

    ``bundled`` is the same for every seed.
    """
    if workload == "market":
        return [market(seed)]
    if workload == "channel_stream":
        return [channel_stream(seed)]
    if workload == "mempool_backlog":
        return [mempool_backlog(seed, part=part) for part in range(BACKLOG_PARTS)]
    if workload == "bundled":
        return bundled(scenario_dir)
    raise ValueError(f"unknown workload {workload!r}")


def to_text(doc: dict) -> str:
    """The canonical text handed to ``parse_scenario``."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
