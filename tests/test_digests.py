"""Report digests pinned to known values.

A report's digest covers the whole chain outcome (exchanges, balances,
events, registry), so an unchanged digest shows that a refactor or speedup
kept the simulated behaviour byte for byte.  A change that is meant to move
the output must update these values and say why.
"""

import json
from pathlib import Path

import pytest

import sensormarket
from sensormarket.scenario import run_scenario

SCENARIOS = Path(sensormarket.__file__).parent / "scenarios"

BUNDLED_DIGESTS = {
    "air_quality_crowdfund": "21b0f34757e639886c78d21d308a7b8278146e7421700023773a78138e8f2d68",
    "atomic_exchange": "29c280629fb4aeda03e56878d62ce11f5ac55d8143fc91caa018a070e683c1f1",
    "escrow_dispute": "d26d4d0486a8dff9d088df4c1ddb776d9379f930f4ceb3662f7752e30a99c603",
    "registry_collision": "27a355245682b33760d31d7c02368a0946e19cbc21664879ecb1891b9c07fe6b",
    "tampered_datastore": "75b03a0e836081e6a72560689ccb44accfcb4e9a5f371871aa58b2a888bc8379",
    "weather_bet_oracle": "5f8eb9d58889f34606756c49aabe65bebf52977ad5ce9b3e02ec2e22b8ab30d8",
    "weather_subscription_channel": "08a1b8594fcefdf4e9da6dae8f25819a8e417eed957063b9f2c59162e271065f",
}

MARKET_DIGEST = "b434a06272c1f2934c094645d26309e5710dea1eacae00cce6100ba3a2f7a9a3"


def small_market() -> dict:
    """Four sensors (one selling a datum too long for the payload), four
    requesters and 24 purchases, every actor waiting for 2 confirmations.

    One purchase underpays and one payer sends a sensor a plain transfer,
    which the sensor answers like any other payment.
    """
    actors = [{"id": f"store{i}", "kind": "store", "store_id": i} for i in range(3)]
    for i in range(4):
        long = i == 3
        actors.append({
            "id": f"s{i}", "kind": "sensor", "funding": 5_000, "node": i % 2,
            "name": f"sensor{i}", "data_type": "series" if long else "reading",
            "price": 60 + 20 * i, "confirmations": 2,
            "datum": "series=" + ",".join(str(10 * i + k) for k in range(12))
            if long else f"t={i}.5",
            **({"replication": 3} if long else {}),
        })
    for i in range(4):
        actors.append({
            "id": f"r{i}", "kind": "requester", "funding": 50_000,
            "node": (i + 1) % 2, "confirmations": 2,
        })
    actors.append({"id": "payer", "kind": "payer", "funding": 10_000, "node": 1})
    steps = [{"at": 0, "op": "register_sensor", "actor": f"s{i}"} for i in range(4)]
    for k in range(24):
        step = {
            "at": 1_200 + 330 * k, "op": "purchase",
            "actor": f"r{k % 4}", "sensor": f"sensor{(3 * k + k // 4) % 4}",
        }
        if k == 9:
            step["amount"] = 10  # below every price
        steps.append(step)
    steps.append({"at": 4_000, "op": "transfer", "from": "payer", "to": "s1", "amount": 500})
    steps.sort(key=lambda s: s["at"])
    return {
        "name": "small_market",
        "config": {
            "rng_seed": 5, "mean_block_interval_s": 600,
            "propagation_delay_s": 1, "num_nodes": 2,
        },
        "horizon_s": 13_200,
        "actors": actors,
        "steps": steps,
        "assertions": [
            {"path": "safety.double_spend_free", "equals": True},
            {"path": "safety.value_conserved", "equals": True},
        ],
    }


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_scenario_digest(name):
    report, code = run_scenario(SCENARIOS / f"{name}.json")
    assert code == 0
    assert report["digest"] == BUNDLED_DIGESTS[name]


def test_small_market_digest(tmp_path):
    path = tmp_path / "small_market.json"
    path.write_text(json.dumps(small_market()))
    report, code = run_scenario(path)
    assert code == 0
    assert report["chain"]["height"] >= 15
    assert report["exchanges"]["fulfilled"] >= 20
    rows = report["exchanges"]["rows"]
    assert any(r["plaintext"].startswith("series=") for r in rows)  # anchored
    assert report["digest"] == MARKET_DIGEST
