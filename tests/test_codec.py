"""The transaction and registry codecs are canonical.

Bytes that decode re-encode to themselves, and every other byte string is a
MalformedTx: a flag is exactly 0 or 1, a prev_txid exactly 32 bytes, an
elided field is never also written out, and an oracle gate holds a key hash
or a multisig, never another gate, so no predicate can exhaust the stack.
"""

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
    deserialize_tx,
    serialize_tx,
    txid,
)
from sensormarket.registry import SensorRecord

from conftest import make_keypair


# --- fixed width prev_txid ------------------------------------------------------

P, Q31 = bytes(range(32)), bytes(range(100, 131))
OUTPUTS = (TxOutput(5, PayToKeyHash(bytes(20))),)


def test_prev_txid_of_another_length_does_not_serialize():
    # With unchecked lengths these two distinct transactions had one encoding:
    # the 33rd txid byte of the second is the first index byte of the first.
    first = Transaction((TxInput(P, 0x04030201), TxInput(b"\x00" + Q31, 9)), OUTPUTS)
    second = Transaction((TxInput(P + b"\x01", 0x00040302), TxInput(Q31, 9)), OUTPUTS)
    assert deserialize_tx(serialize_tx(first)) == first
    with pytest.raises(MalformedTx):
        serialize_tx(second)
    with pytest.raises(MalformedTx):
        txid(second)
    with pytest.raises(MalformedTx):
        serialize_tx(Transaction((TxInput(Q31, 9),), OUTPUTS))


# --- flags ------------------------------------------------------------------------

# Every flag set to 1 and followed by what it announces, so that any other
# non-zero byte in its place would otherwise decode.
FLAGGED = serialize_tx(Transaction(
    (TxInput(bytes(32), 0, Witness((), b"s"), anyone_can_pay=True),),
    (TxOutput(5, PayToKeyHash(bytes(20)), b"p"),),
    lock_height=7,
))
FLAG_OFFSETS = {
    "anyone_can_pay": 2 + 32 + 4,
    "oracle signature": 2 + 32 + 4 + 1 + 1,
    "payload": len(FLAGGED) - 8 - 1 - 3 - 1,
    "lock height": len(FLAGGED) - 8 - 1,
}


@pytest.mark.parametrize("offset", FLAG_OFFSETS.values(), ids=FLAG_OFFSETS.keys())
@pytest.mark.parametrize("byte", [0x02, 0x80, 0xFF])
def test_transaction_flag_other_than_0_or_1_is_malformed(offset, byte):
    assert FLAGGED[offset] == 1
    with pytest.raises(MalformedTx):
        deserialize_tx(FLAGGED[:offset] + bytes([byte]) + FLAGGED[offset + 1:])


def test_reader_flag():
    r = wire.Reader(b"\x00\x01\x02")
    assert r.flag() is False
    assert r.flag() is True
    with pytest.raises(MalformedTx):
        r.flag()


OWNER, OTHER = make_keypair(100).key_digest, make_keypair(101).key_digest
PAYMENT_FLAG = 2 + len("abc") + len(OWNER)


def _record(payment):
    return SensorRecord("abc", OWNER, payment, "weather", 100, "inline").serialize()


@pytest.mark.parametrize("byte", [0x02, 0xFF])
def test_registry_payment_flag_other_than_0_or_1_is_malformed(byte):
    data = _record(OTHER)
    assert data[PAYMENT_FLAG] == 1
    with pytest.raises(MalformedTx):
        SensorRecord.deserialize(data[:PAYMENT_FLAG] + bytes([byte]) + data[PAYMENT_FLAG + 1:])


def test_registry_payment_digest_equal_to_owner_must_be_elided():
    elided, distinct = _record(OWNER), _record(OTHER)
    assert elided[PAYMENT_FLAG] == 0
    assert distinct.replace(OTHER, OWNER) != elided
    with pytest.raises(MalformedTx):
        SensorRecord.deserialize(distinct.replace(OTHER, OWNER))


# --- predicate nesting ------------------------------------------------------------

GATE = wire.u8(0x04) + wire.varbytes(b"o") + wire.varbytes(b"x")  # a gate's tag and fields
KEY_HASH = wire.u8(0x01) + bytes(20)


def _tx_bytes(predicate):
    """A tx with no inputs and one output of value 1 locked by ``predicate``."""
    return wire.u16(0) + wire.u16(1) + wire.u64(1) + predicate + b"\x00" + b"\x00"


def test_predicate_nesting_is_bounded_at_decode():
    gated = OracleGated(b"o", "x", PayToKeyHash(bytes(20)))
    one_gate = Transaction((), (TxOutput(1, gated),))
    assert serialize_tx(one_gate) == _tx_bytes(GATE + KEY_HASH)
    assert deserialize_tx(serialize_tx(one_gate)) == one_gate
    # A gate in a gate neither encodes nor decodes.
    with pytest.raises(MalformedTx):
        serialize_tx(Transaction((), (TxOutput(1, OracleGated(b"o", "x", gated)),)))
    with pytest.raises(MalformedTx):
        deserialize_tx(_tx_bytes(GATE + GATE + KEY_HASH))


def test_deeply_nested_predicate_bytes_are_malformed_not_a_recursion_error():
    with pytest.raises(MalformedTx):
        deserialize_tx(_tx_bytes(GATE * 5000 + KEY_HASH))


# --- round-trip properties --------------------------------------------------------

SHORT = st.binary(max_size=8)
U8, U32, U64 = (st.integers(0, (1 << bits) - 1) for bits in (8, 32, 64))
UNGATED = st.one_of(
    st.builds(PayToKeyHash, st.binary(min_size=20, max_size=20)),
    st.builds(MultiSig, U8, st.lists(SHORT, max_size=3).map(tuple)),
)
PREDICATE = UNGATED | st.builds(OracleGated, SHORT, st.text(max_size=4), UNGATED)
TRANSACTION = st.builds(
    Transaction,
    st.lists(st.builds(
        TxInput,
        st.binary(min_size=32, max_size=32),
        U32,
        st.builds(Witness, st.lists(st.tuples(SHORT, SHORT), max_size=2).map(tuple),
                  st.none() | SHORT),
        st.booleans(),
    ), max_size=2).map(tuple),
    st.lists(st.builds(TxOutput, U64, PREDICATE, st.none() | SHORT), max_size=2).map(tuple),
    st.none() | U64,
)
RECORD_STRATEGY = st.builds(
    SensorRecord,
    st.text(max_size=6),
    st.just(OWNER),
    st.sampled_from([OWNER, OTHER]),
    st.text(max_size=6),
    U64,
    st.text(max_size=6),
)


def _edited(valid):
    """Encodings of valid values with a few bytes overwritten, cut or extended."""

    def edits(data):
        position = st.integers(0, max(len(data) - 1, 0))
        return st.tuples(
            st.just(data),
            # Small values often land on a flag, count or tag and still decode.
            st.lists(st.tuples(position, st.integers(0, 3) | st.integers(0, 255)), max_size=3),
            st.integers(0, 2),
            st.binary(max_size=2),
        )

    def apply(edit):
        data, changes, cut, extra = edit
        data = bytearray(data)
        for pos, byte in changes:
            if data:
                data[pos] = byte
        return bytes(data[:len(data) - cut]) + extra

    return valid.flatmap(edits).map(apply)


def _assert_canonical(decode, encode, data):
    try:
        value = decode(data)
    except MalformedTx:
        return
    assert encode(value) == data


@settings(max_examples=400)
@given(st.one_of(st.binary(max_size=120), _edited(TRANSACTION.map(serialize_tx))))
def test_transaction_bytes_decode_to_themselves_or_are_malformed(data):
    _assert_canonical(deserialize_tx, serialize_tx, data)


@settings(max_examples=400)
@given(st.one_of(st.binary(max_size=80), _edited(RECORD_STRATEGY.map(SensorRecord.serialize))))
def test_registry_record_bytes_decode_to_themselves_or_are_malformed(data):
    _assert_canonical(SensorRecord.deserialize, SensorRecord.serialize, data)
