"""Each transaction and block is hashed once, and its memos stay true.

``txid`` keeps the length of the bytes it hashed (``tx_size``), ``sighash``
keeps a tx's SIGHASH_ALL message, and ``block_hash`` keeps a block's hash.
Every memo left by a real run must equal the value computed again on a
fresh copy decoded from the block's bytes, which carries no memo.
"""

import json

import pytest

from sensormarket import ledger
from sensormarket.cli import bundled_scenarios
from sensormarket.ledger import (
    block_hash,
    deserialize_block,
    serialize_block,
    sighash,
    tx_size,
    txid,
)
from sensormarket.scenario import ScenarioRun, load_scenario, parse_scenario

from test_digests import small_market


def executed(name):
    scenario = (parse_scenario(json.dumps(small_market())) if name == "small_market"
                else load_scenario(bundled_scenarios()[name]))
    run = ScenarioRun(scenario)
    run.execute()
    return run.sim.chain


@pytest.mark.parametrize("name", sorted(bundled_scenarios()) + ["small_market"])
def test_memos_equal_a_fresh_computation(name):
    anyone_can_pay = 0
    for block in executed(name).blocks:
        fresh = deserialize_block(serialize_block(block))
        assert block_hash(block) == block_hash(fresh)
        for tx, fresh_tx in zip(block.transactions, fresh.transactions):
            assert (txid(tx), tx_size(tx)) == (txid(fresh_tx), tx_size(fresh_tx))
            for i, inp in enumerate(tx.inputs):
                assert sighash(tx, i) == sighash(fresh_tx, i)
                anyone_can_pay += inp.anyone_can_pay
    if name == "air_quality_crowdfund":
        assert anyone_can_pay  # the pledges' per-input messages were compared too


def test_each_confirmed_tx_is_serialized_at_most_twice(monkeypatch):
    """Once for its txid (which keeps its size), once in its block's hash,
    however many nodes admit it."""
    calls = 0
    serialize_tx = ledger.serialize_tx

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return serialize_tx(*args, **kwargs)

    monkeypatch.setattr(ledger, "serialize_tx", counting)
    chain = executed("small_market")
    confirmed = sum(len(block.transactions) for block in chain.blocks)
    assert confirmed > 40
    assert calls <= 2 * confirmed
