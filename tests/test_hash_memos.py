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
    PayToKeyHash,
    TxOutput,
    block_hash,
    deserialize_block,
    serialize_block,
    sighash,
    tx_fee,
    tx_size,
    txid,
    validate_transaction,
)
from sensormarket.scenario import ScenarioRun, load_scenario, parse_scenario
from sensormarket.wallet import Wallet

from conftest import make_keypair, make_sim
from test_digests import small_market


def executed(name):
    scenario = (parse_scenario(json.dumps(small_market())) if name == "small_market"
                else load_scenario(bundled_scenarios()[name]))
    run = ScenarioRun(scenario)
    run.execute()
    return run.sim.chain


@pytest.mark.parametrize("name", sorted(bundled_scenarios()) + ["small_market"])
def test_memos_equal_a_fresh_computation(name):
    anyone_can_pay = co_signed = 0
    for block in executed(name).blocks:
        fresh = deserialize_block(serialize_block(block))
        assert block_hash(block) == block_hash(fresh)
        for tx, fresh_tx in zip(block.transactions, fresh.transactions):
            assert (txid(tx), tx_size(tx)) == (txid(fresh_tx), tx_size(fresh_tx))
            for i, inp in enumerate(tx.inputs):
                assert sighash(tx, i) == sighash(fresh_tx, i)
                anyone_can_pay += inp.anyone_can_pay
                co_signed += len(inp.witness.signatures) > 1
    if name == "air_quality_crowdfund":
        assert anyone_can_pay  # the pledges' per-input messages were compared too
    if name in ("escrow_dispute", "weather_bet_oracle", "weather_subscription_channel"):
        assert co_signed  # so were those of txs signed by two chained sign_inputs calls


def count_calls(monkeypatch, name):
    """Wrap ``ledger.<name>``; the returned list grows by one per call."""
    calls = []
    wrapped = getattr(ledger, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(ledger, name, counting)
    return calls


def test_each_confirmed_tx_is_serialized_at_most_twice(monkeypatch):
    """Once for its txid (which keeps its size), once in its block's hash,
    however many nodes admit it."""
    calls = count_calls(monkeypatch, "serialize_tx")
    chain = executed("small_market")
    confirmed = sum(len(block.transactions) for block in chain.blocks)
    assert confirmed > 40
    assert len(calls) <= 2 * confirmed


def test_a_wallet_tx_validates_without_building_its_sighash_again(monkeypatch):
    """Signing keeps the unsigned tx's SIGHASH_ALL message, which leaves
    witnesses out, so the signed tx's first validation builds none."""
    a = make_keypair(0)
    sim = make_sim([(a, 1000), (a, 2000)])
    payment = TxOutput(2500, PayToKeyHash(make_keypair(1).key_digest))
    tx = Wallet(a, sim.nodes[0]).create_tx([payment], fee=10)
    assert len(tx.inputs) == 2
    tails = count_calls(monkeypatch, "_serialize_tail")
    fee = validate_transaction(tx, sim.chain.utxo, 1)
    assert not tails
    assert fee == tx_fee(tx, sim.chain.utxo) == 10
