"""The signature cache: a tx's verified signatures are memoised until it confirms."""

from dataclasses import replace

import pytest

from sensormarket import crypto
from sensormarket.errors import BadSignature, InvalidTxInBlock
from sensormarket.ledger import (
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    satisfy,
    sighash,
    txid,
    validate_transaction,
    verified_signatures,
)
from sensormarket.wallet import Wallet, sign_inputs

from conftest import make_chain, make_keypair, make_sim, next_block, run_blocks


A, B = make_keypair(0), make_keypair(1)


@pytest.fixture
def verify_calls(monkeypatch):
    calls = []
    real = crypto.verify

    def counting(public_key, message, signature):
        calls.append(signature)
        return real(public_key, message, signature)

    monkeypatch.setattr(crypto, "verify", counting)
    return calls


def spend_genesis(chain, fee=10, signer=A):
    outpoint = (txid(chain.blocks[0].transactions[0]), 0)
    tx = Transaction(
        inputs=(TxInput(*outpoint),),
        outputs=(TxOutput(1000 - fee, PayToKeyHash(B.key_digest)),),
    )
    return sign_inputs(tx, signer)


def with_signature(tx, signature):
    inp = tx.inputs[0]
    [(pk, _)] = inp.witness.signatures
    return replace(tx, inputs=(replace(inp, witness=Witness(((pk, signature),))),))


def test_validation_memoises_and_reuses_verified_signatures(verify_calls):
    chain = make_chain((A, 1000))
    tx = spend_genesis(chain)
    assert verified_signatures(tx) is None
    validate_transaction(tx, chain.utxo, 1)
    [(pk, message, sig)] = verified_signatures(tx)
    assert (pk, message) == (A.public_key, sighash(tx, 0))
    validate_transaction(tx, chain.utxo, 1)
    validate_transaction(tx, chain.utxo, 1)
    assert len(verify_calls) == 1


def test_bad_signature_is_never_cached(verify_calls):
    sim = make_sim([(A, 1000)], num_nodes=2, mean_block_interval_s=1e9)
    good = spend_genesis(sim.chain)
    bad = with_signature(good, bytes(64))
    for _ in range(3):
        for node in sim.nodes:
            assert not node.receive_tx(bad)
        with pytest.raises(InvalidTxInBlock):
            sim.chain.apply_block(next_block(sim.chain, [bad], 10))
        assert verified_signatures(bad) is None
    assert len(verify_calls) == 9  # every check verified afresh
    reasons = [e["reason"] for e in sim.events_log if e["kind"] == "tx_rejected"]
    assert reasons == ["BadSignature"] * 6


def test_cached_triple_admits_no_other_signature_for_the_same_key_and_message():
    chain = make_chain((A, 1000))
    tx = spend_genesis(chain)
    validate_transaction(tx, chain.utxo, 1)
    cache = verified_signatures(tx)
    message = sighash(tx, 0)
    [(pk, sig)] = tx.inputs[0].witness.signatures
    forged = bytes([sig[0] ^ 1]) + sig[1:]
    predicate = PayToKeyHash(A.key_digest)
    with pytest.raises(BadSignature):
        satisfy(predicate, Witness(((pk, forged),)), message, cache)
    assert (pk, message, forged) not in cache
    # The forged tx has the same key and message, so it reaches the same
    # check; it carries no memo of its own and fails there.
    with pytest.raises(BadSignature):
        validate_transaction(with_signature(tx, forged), chain.utxo, 1)


def test_memo_is_dropped_when_the_block_applies():
    chain = make_chain((A, 1000))
    tx = spend_genesis(chain)
    validate_transaction(tx, chain.utxo, 1)
    assert verified_signatures(tx)
    chain.apply_block(next_block(chain, [tx], 10))
    assert verified_signatures(tx) is None


def test_rejected_block_keeps_the_memo_of_its_valid_txs():
    chain = make_chain((A, 1000))
    tx = spend_genesis(chain)
    validate_transaction(tx, chain.utxo, 1)
    with pytest.raises(InvalidTxInBlock):
        chain.apply_block(next_block(chain, [tx], 11))  # wrong fee reward
    assert verified_signatures(tx)


def test_simulation_holds_no_memo_for_confirmed_txs():
    sim = make_sim([(A, 10_000)], num_nodes=2, default_fee=10)
    wallet = Wallet(A, sim.nodes[0])
    tx = wallet.create_tx([TxOutput(100, PayToKeyHash(B.key_digest))])
    sim.broadcast(tx, sim.nodes[0])
    assert verified_signatures(tx)
    run_blocks(sim, 2)
    assert sim.chain.confirmations(txid(tx)) is not None
    assert verified_signatures(tx) is None


def test_verify_calls_per_confirmed_tx(verify_calls):
    # Payments between wallets on both nodes, some spending unconfirmed
    # change.  Each node's mempool and the block apply all check every tx;
    # without the cache that is three or more verifies per tx.
    keys = [make_keypair(i) for i in range(4)]
    sim = make_sim([(k, 50_000) for k in keys], num_nodes=2, default_fee=20)
    wallets = [Wallet(k, sim.nodes[i % 2]) for i, k in enumerate(keys)]
    for round_ in range(6):
        for i, wallet in enumerate(wallets):
            payee = keys[(i + round_ + 1) % len(keys)]
            tx = wallet.create_tx([TxOutput(100 + round_, PayToKeyHash(payee.key_digest))])
            sim.broadcast(tx, wallet.node)
        run_blocks(sim, 1)
    run_blocks(sim, 3)
    confirmed = sum(len(b.transactions) for b in sim.chain.blocks[1:])
    assert confirmed == 24
    assert len(verify_calls) / confirmed <= 1.5
