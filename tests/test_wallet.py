"""Wallet coin tracking and transaction building."""

import pytest

from sensormarket.errors import InsufficientFunds
from sensormarket.ledger import (
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    serialize_tx,
    txid,
)
from sensormarket.wallet import Wallet, sign_inputs

from conftest import make_keypair, make_sim, run_blocks, tx_fee


def test_balance_tracks_confirmed_outputs():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 10_000)])
    wallet = Wallet(kp, sim.nodes[0])
    assert wallet.balance == 10_000
    tx = wallet.create_tx([TxOutput(3_000, PayToKeyHash(other.key_digest))])
    # Inputs deducted immediately, change credited immediately.
    assert wallet.balance == 10_000 - 3_000 - 50
    sim.broadcast(tx, sim.nodes[0])
    run_blocks(sim, 2)
    assert wallet.balance == 6_950
    their_wallet = Wallet(other, sim.nodes[0])
    assert their_wallet.balance == 3_000


def test_change_spendable_before_confirmation():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 10_000)])
    wallet = Wallet(kp, sim.nodes[0])
    payment = TxOutput(1_000, PayToKeyHash(other.key_digest))
    t1 = wallet.create_tx([payment])
    t2 = wallet.create_tx([payment])  # spends t1's change
    assert t2.inputs[0].prev_txid == txid(t1)
    sim.broadcast(t1, sim.nodes[0])
    sim.broadcast(t2, sim.nodes[0])
    run_blocks(sim, 2)
    assert Wallet(other, sim.nodes[0]).balance == 2_000


def test_create_tx_pays_the_default_fee():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 1_000)], default_fee=7)
    tx = Wallet(kp, sim.nodes[0]).create_tx([TxOutput(300, PayToKeyHash(other.key_digest))])
    assert tx_fee(tx, sim.chain.utxo) == 7


def test_insufficient_funds():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 100)], default_fee=1)
    wallet = Wallet(kp, sim.nodes[0])
    with pytest.raises(InsufficientFunds):
        wallet.create_tx([TxOutput(100, PayToKeyHash(other.key_digest))])


def test_exact_utxo_split_and_take():
    kp = make_keypair(0)
    sim = make_sim([(kp, 10_000)])
    wallet = Wallet(kp, sim.nodes[0])
    with pytest.raises(InsufficientFunds):
        wallet.take_exact_utxo(400)  # no output of exactly 400 yet
    split = wallet.create_tx([TxOutput(400, PayToKeyHash(kp.key_digest))])
    sim.broadcast(split, sim.nodes[0])
    run_blocks(sim, 2)
    outpoint = wallet.take_exact_utxo(400)
    assert outpoint == (txid(split), 0)
    assert sim.chain.utxo.get(outpoint).value == 400
    assert outpoint not in wallet.utxos
    with pytest.raises(InsufficientFunds):
        wallet.take_exact_utxo(400)  # the only one was taken


def test_wallet_on_existing_chain_scans_history():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 10_000)])
    wallet = Wallet(kp, sim.nodes[0])
    sim.broadcast(wallet.create_tx([TxOutput(2_500, PayToKeyHash(other.key_digest))]),
                  sim.nodes[0])
    run_blocks(sim, 2)
    late = Wallet(other, sim.nodes[0])
    assert late.balance == 2_500


def test_one_call_with_two_signers_equals_chained_calls():
    a, b = make_keypair(0), make_keypair(1)

    def unsigned():  # a fresh tx each time, so neither path sees the other's memo
        return Transaction(
            inputs=(
                TxInput(b"\x01" * 32, 0, Witness(oracle_signature=b"o" * 64)),
                TxInput(b"\x02" * 32, 1),
                TxInput(b"\x03" * 32, 2, anyone_can_pay=True),
            ),
            outputs=(TxOutput(5, PayToKeyHash(a.key_digest)),),
        )

    chained = sign_inputs(sign_inputs(unsigned(), a), b)
    once = sign_inputs(unsigned(), a, b)
    assert serialize_tx(once) == serialize_tx(chained)
    assert vars(once)["_sighash_all"] == vars(chained)["_sighash_all"]
    assert [[pk for pk, _ in inp.witness.signatures] for inp in once.inputs] == [
        [a.public_key, b.public_key]] * 3
