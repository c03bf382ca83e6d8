"""Unidirectional payment channels: open, update off-chain, settle or refund."""

import pytest

from sensormarket.channels import Channel
from sensormarket.errors import (
    AlreadyClosed,
    DecryptFailed,
    InsufficientChannelBalance,
    InsufficientSigners,
    TimelockNotExpired,
)
from sensormarket.ledger import (
    Transaction,
    TxInput,
    scan_chain_safety,
    txid,
    validate_transaction,
)
from sensormarket.wallet import Wallet, sign_inputs

from conftest import make_keypair, make_sim, run_blocks


FEE = 50
DEPOSIT = 20_000


def open_channel(expiry=1_000, funds=50_000, datum=b"temp_c=21"):
    funder_kp, sensor_kp = make_keypair(30), make_keypair(31)
    sim = make_sim([(funder_kp, funds), (sensor_kp, 1_000)], num_nodes=2)
    funder_wallet = Wallet(funder_kp, sim.nodes[0])
    channel = Channel(
        funder_wallet, sensor_kp,
        deposit=DEPOSIT, expiry_height=expiry, datum=datum,
    )
    return sim, channel, funder_wallet, sensor_kp


def chain_tx_count(sim):
    return sum(len(b.transactions) for b in sim.chain.blocks[1:])


def test_open_confirms_funding():
    sim, channel, wallet, _ = open_channel()
    assert sim.chain.confirmations(channel.funding_txid) is None
    run_blocks(sim, 3)
    assert sim.chain.confirmations(channel.funding_txid) >= 1
    assert chain_tx_count(sim) == 1
    assert channel.state.sequence == 0
    assert channel.state.balance_requester == DEPOSIT
    assert wallet.balance == 50_000 - DEPOSIT - FEE


def test_expiry_must_be_future():
    with pytest.raises(ValueError):
        open_channel(expiry=0)


def test_pay_moves_balance_off_chain():
    sim, channel, _, _ = open_channel()
    run_blocks(sim, 2)
    state = channel.pay(250)
    assert (state.sequence, state.balance_requester, state.balance_sensor) == (
        1, DEPOSIT - 250, 250
    )
    channel.pay(100)
    assert channel.summary()["paid_total"] == 350
    assert chain_tx_count(sim) == 1  # still only the funding transaction


def test_overdraw_rejected():
    sim, channel, _, _ = open_channel()
    run_blocks(sim, 2)
    with pytest.raises(InsufficientChannelBalance):
        channel.pay(DEPOSIT + 1)
    # State unchanged by the failed attempt.
    assert channel.state.sequence == 0


def test_hundred_payments_two_onchain_transactions():
    sim, channel, funder_wallet, sensor_kp = open_channel()
    run_blocks(sim, 2)
    expected_total = 0
    for i in range(100):
        expected_total += 10
        state = channel.pay(10)
        assert state.balance_sensor == expected_total  # independent accumulator
    assert chain_tx_count(sim) == 1
    channel.close()
    run_blocks(sim, 3)
    assert chain_tx_count(sim) == 2
    assert channel.summary()["onchain_tx_count"] == 2
    # The settlement splits the deposit minus a shared fee.
    sensor_wallet = Wallet(sensor_kp, sim.nodes[0])
    assert sensor_wallet.balance == 1_000 + 1_000 - FEE // 2
    assert funder_wallet.balance == 50_000 - DEPOSIT - FEE + (19_000 - FEE // 2)
    scan_chain_safety(sim.chain)


def signers(tx):
    return [public_key for public_key, _ in tx.inputs[0].witness.signatures]


def test_payment_is_the_funders_signature_alone():
    sim, channel, funder_wallet, sensor_kp = open_channel()
    run_blocks(sim, 2)
    assert signers(channel.state.settlement_tx) == [
        funder_wallet.keypair.public_key, sensor_kp.public_key
    ]  # the refund is co-signed before the funding tx is broadcast
    state = channel.pay(10)
    assert signers(state.settlement_tx) == [funder_wallet.keypair.public_key]
    with pytest.raises(InsufficientSigners):
        validate_transaction(state.settlement_tx, sim.chain.utxo, sim.chain.height + 1)


def test_close_countersigns_the_latest_settlement():
    sim, channel, funder_wallet, sensor_kp = open_channel()
    run_blocks(sim, 2)
    channel.pay(10)
    unsigned = channel.state.settlement_tx
    unsigned = Transaction(tuple(TxInput(i.prev_txid, i.prev_index) for i in unsigned.inputs),
                           unsigned.outputs, unsigned.lock_height)
    settlement = channel.close()
    assert signers(settlement) == [funder_wallet.keypair.public_key, sensor_kp.public_key]
    assert txid(settlement) == txid(sign_inputs(unsigned, funder_wallet.keypair, sensor_kp))
    assert channel.settle_txid == txid(settlement)
    run_blocks(sim, 3)
    assert channel.summary()["onchain_tx_count"] == 2
    assert txid(settlement) in {txid(tx) for b in sim.chain.blocks for tx in b.transactions}


def test_close_before_funding_confirms_still_two_txs():
    sim, channel, _, _ = open_channel()
    channel.pay(10)  # updates are fine while funding is in the mempool
    channel.close()
    run_blocks(sim, 4)
    assert chain_tx_count(sim) == 2
    assert channel.summary()["onchain_tx_count"] == 2


def test_double_close_rejected():
    sim, channel, _, _ = open_channel()
    run_blocks(sim, 2)
    channel.close()
    with pytest.raises(AlreadyClosed):
        channel.close()
    with pytest.raises(AlreadyClosed):
        channel.refund_after_expiry()
    with pytest.raises(AlreadyClosed):
        channel.pay(10)
    assert channel.state.sequence == 0


def test_refund_after_expiry():
    sim, channel, funder_wallet, _ = open_channel(expiry=3)
    run_blocks(sim, 2)
    if sim.chain.height < 3:
        with pytest.raises(TimelockNotExpired):
            channel.refund_after_expiry()
    run_blocks(sim, 3)
    channel.refund_after_expiry()
    run_blocks(sim, 3)
    assert chain_tx_count(sim) == 2
    # Full fee on the requester side when the sensor got nothing.
    assert funder_wallet.balance == 50_000 - DEPOSIT - FEE + (DEPOSIT - FEE)
    scan_chain_safety(sim.chain)


def test_datum_per_payment():
    funder_kp, sensor_kp = make_keypair(30), make_keypair(31)
    sim = make_sim([(funder_kp, 50_000)], num_nodes=2)
    wallet = Wallet(funder_kp, sim.nodes[0])
    channel = Channel(
        wallet, sensor_kp,
        deposit=DEPOSIT, expiry_height=1_000,
        datum=b"temp_c=22",
    )
    run_blocks(sim, 2)
    for _ in range(5):
        channel.pay(10)
    assert channel.datums_delivered == [b"temp_c=22"] * 5
    assert channel.summary()["datums_delivered"] == 5


def test_datum_is_sealed_to_its_sequence_and_channel():
    sim, channel, _, _ = open_channel()
    run_blocks(sim, 2)
    channel.pay(10)
    sensor_side, funder_side = channel._sensor_session, channel._funder_session
    sealed = sensor_side.seal(2, b"temp_c=22", channel.funding_txid)
    assert funder_side.open(2, sealed, channel.funding_txid) == b"temp_c=22"
    flipped = bytes([sealed[0] ^ 1]) + sealed[1:]
    for number, associated, blob in [
        (3, channel.funding_txid, sealed),  # another sequence
        (2, bytes(32), sealed),  # another channel's funding txid
        (2, channel.funding_txid, flipped),  # one flipped byte
    ]:
        with pytest.raises(DecryptFailed):
            funder_side.open(number, blob, associated)
