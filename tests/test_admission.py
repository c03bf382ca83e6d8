"""Mempool admission turns every malformed transaction into a logged rejection."""

import pytest
from hypothesis import given, settings, strategies as st

from sensormarket import wire
from sensormarket.errors import MalformedTx
from sensormarket.ledger import (
    MultiSig,
    OracleGated,
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    txid,
    validate_transaction,
)
from sensormarket.wallet import sign_inputs

from conftest import make_keypair, make_sim


A = make_keypair(0)
FUNDS = 1000


def funded_sim():
    sim = make_sim([(A, FUNDS)], num_nodes=2, mean_block_interval_s=1e9)
    return sim, (txid(sim.chain.blocks[0].transactions[0]), 0)


def spend(outpoint, *outputs, lock_height=None):
    """Unsigned: a tx that does not serialize has no signature message either."""
    return Transaction(
        inputs=(TxInput(*outpoint),), outputs=tuple(outputs), lock_height=lock_height
    )


def nested_gates(gates):
    predicate = PayToKeyHash(A.key_digest)
    for _ in range(gates):
        predicate = OracleGated(A.public_key, "x", predicate)
    return predicate


def rejections(sim):
    return [(e["txid"], e["reason"]) for e in sim.events_log if e["kind"] == "tx_rejected"]


@pytest.mark.parametrize("packer, value", [
    (wire.u8, 256), (wire.u8, -1), (wire.u16, 1 << 16), (wire.u32, -1),
    (wire.u64, 1 << 64), (wire.u64, -1), (wire.u64, "1"), (wire.f64, "x"),
])
def test_packers_raise_malformed_tx_out_of_range(packer, value):
    with pytest.raises(MalformedTx):
        packer(value)


def test_varbytes_longer_than_u16_is_malformed():
    with pytest.raises(MalformedTx):
        wire.varbytes(bytes(1 << 16))


@pytest.mark.parametrize("tx_of", [
    lambda op: spend(op, TxOutput(-1, PayToKeyHash(A.key_digest))),
    lambda op: spend(op, TxOutput(900, PayToKeyHash(A.key_digest)), lock_height=1 << 64),
    lambda op: spend(op, TxOutput(900, PayToKeyHash(A.key_digest), bytes(70_000))),
    lambda op: spend(op, TxOutput(900, nested_gates(2))),  # a gate in a gate
    lambda op: spend((op[0] + b"\x01", op[1]), TxOutput(900, PayToKeyHash(A.key_digest))),
    lambda op: Transaction((TxInput(*op, anyone_can_pay="yes"),),
                           (TxOutput(900, PayToKeyHash(A.key_digest)),)),
    lambda op: spend(op, TxOutput(900, nested_gates(5000))),  # not a RecursionError
    lambda op: spend(op, TxOutput("x", PayToKeyHash(A.key_digest))),
    lambda op: spend(op, TxOutput(None, PayToKeyHash(A.key_digest))),
])
def test_unserializable_tx_is_rejected_without_a_txid(tx_of):
    sim, outpoint = funded_sim()
    tx = tx_of(outpoint)
    assert sim.nodes[0].receive_tx(tx) is False
    assert rejections(sim) == [(None, "MalformedTx")]
    assert len(sim.nodes[0].mempool) == 0
    with pytest.raises(MalformedTx):  # also when validated directly, without a txid first
        validate_transaction(tx, sim.chain.utxo, sim.chain.height + 1)


def test_rejection_of_a_serializable_tx_logs_its_txid():
    sim, outpoint = funded_sim()
    tx = sign_inputs(spend(outpoint, TxOutput(FUNDS + 1, PayToKeyHash(A.key_digest))), A)
    assert sim.nodes[0].receive_tx(tx) is False
    assert rejections(sim) == [(txid(tx).hex(), "NegativeFee")]


# Integers well outside every field's width, next to ones that fit.
WIDE_INT = st.one_of(st.integers(-3, 300), st.integers(-(1 << 70), 1 << 70))
KEY = st.one_of(st.just(A.public_key), st.binary(max_size=70))


def _many(element, sizes=(0, 1, 2, 256)):
    """Tuples of ``element``, including one too long for a u8 count."""
    return st.sampled_from(sizes).flatmap(
        lambda n: element.map(lambda x: (x,) * n) if n > 2 else st.tuples(*[element] * n)
    )


# Gates over gates too: admission must refuse them, not only never build them.
PREDICATE = st.recursive(
    st.one_of(
        st.builds(PayToKeyHash, st.one_of(st.just(A.key_digest), st.binary(max_size=24))),
        st.builds(MultiSig, WIDE_INT, _many(KEY)),
    ),
    lambda inner: st.builds(OracleGated, KEY, st.text(max_size=4), inner),
    max_leaves=3,
)
FLAG = st.one_of(st.booleans(), st.sampled_from([2, "yes", None]))
PAYLOAD = st.one_of(st.none(), st.binary(max_size=90), st.just(bytes(70_000)))
WITNESS = st.builds(
    Witness,
    _many(st.tuples(KEY, st.binary(max_size=70))),
    st.one_of(st.none(), st.binary(max_size=70)),
)


def _serializable(tx) -> bool:
    try:
        txid(tx)
        return True
    except MalformedTx:
        return False


@settings(max_examples=150)
@given(st.data())
def test_arbitrary_transactions_never_make_receive_tx_raise(data):
    sim, outpoint = funded_sim()
    prev = st.one_of(st.just(outpoint), st.tuples(st.binary(max_size=33), WIDE_INT))
    inputs = data.draw(st.lists(
        st.builds(lambda op, w, acp: TxInput(op[0], op[1], w, acp), prev, WITNESS, FLAG),
        max_size=3,
    ))
    outputs = data.draw(st.lists(st.builds(TxOutput, WIDE_INT, PREDICATE, PAYLOAD), max_size=3))
    lock_height = data.draw(st.one_of(st.none(), WIDE_INT))
    tx = Transaction(tuple(inputs), tuple(outputs), lock_height)
    if data.draw(st.booleans()) and inputs:
        tx = sign_inputs(tx, A) if _serializable(tx) else tx
    for node in sim.nodes:
        if node.receive_tx(tx):
            assert txid(tx) in node.mempool
    assert len(rejections(sim)) == sum(len(n.mempool) == 0 for n in sim.nodes)

