"""Transaction serialization, predicate satisfaction and chain application."""

import itertools
import struct

import pytest

from sensormarket import crypto
from sensormarket.errors import (
    BadParent,
    BadSignature,
    InsufficientSigners,
    InvalidTxInBlock,
    MalformedTx,
    MissingUtxo,
    NegativeFee,
    OracleSignatureMissing,
    TimelockNotExpired,
)
from sensormarket.ledger import (
    Block,
    MAX_PAYLOAD,
    MultiSig,
    OracleGated,
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    block_hash,
    check_predicate,
    deserialize_block,
    deserialize_tx,
    scan_chain_safety,
    serialize_block,
    serialize_tx,
    sighash,
    txid,
    validate_transaction,
)
from sensormarket.wallet import sign_inputs

from conftest import make_chain, make_keypair, mine, next_block


A, B, C, D = (make_keypair(i) for i in range(4))


def spend(chain, outpoint, outputs, signer, lock_height=None):
    tx = Transaction(
        inputs=(TxInput(*outpoint),), outputs=tuple(outputs), lock_height=lock_height
    )
    return sign_inputs(tx, signer)


def genesis_outpoint(chain, index=0):
    return (txid(chain.blocks[0].transactions[0]), index)


# --- serialization ----------------------------------------------------------

def test_independent_serializer_oracle():
    # Byte layout recomputed here by hand with struct, independent of `wire`.
    prev = bytes(range(32))
    pk, sig = b"\xaa" * 64, b"\xbb" * 64
    digest20 = b"\xcc" * 20
    payload = b"hello"
    tx = Transaction(
        inputs=(TxInput(prev, 3, Witness(((pk, sig),)), anyone_can_pay=True),),
        outputs=(TxOutput(1234, PayToKeyHash(digest20), payload),),
        lock_height=77,
    )
    expected = struct.pack("<H", 1)                      # input count
    expected += prev + struct.pack("<IB", 3, 1)          # outpoint + acp flag
    expected += struct.pack("<B", 1)                     # one signature
    expected += struct.pack("<H", 64) + pk + struct.pack("<H", 64) + sig
    expected += struct.pack("<B", 0)                     # no oracle signature
    expected += struct.pack("<H", 1)                     # output count
    expected += struct.pack("<Q", 1234)
    expected += b"\x01" + digest20                       # pay-to-key-hash
    expected += struct.pack("<B", 1)                     # payload present
    expected += struct.pack("<H", 5) + payload
    expected += struct.pack("<B", 1) + struct.pack("<Q", 77)  # lock height
    assert serialize_tx(tx) == expected
    assert txid(tx) == crypto.digest(expected)


@pytest.mark.parametrize(
    "predicate",
    [
        PayToKeyHash(b"\x11" * 20),
        MultiSig(2, (b"\x01" * 64, b"\x02" * 64, b"\x03" * 64)),
        OracleGated(b"\x04" * 64, "rained_out", MultiSig(2, (b"\x05" * 64, b"\x06" * 64))),
        OracleGated(b"\x07" * 64, "x", PayToKeyHash(b"\x33" * 20)),
    ],
)
def test_tx_roundtrip(predicate):
    tx = Transaction(
        inputs=(TxInput(b"\x00" * 32, 0, Witness(((b"\x09" * 64, b"\x0a" * 64),), b"\x0b" * 64)),),
        outputs=(TxOutput(5, predicate), TxOutput(0, PayToKeyHash(b"\x44" * 20), b"data")),
        lock_height=None,
    )
    assert deserialize_tx(serialize_tx(tx)) == tx


def test_non_utf8_expression_id_is_malformed():
    gated = OracleGated(b"\x04" * 64, "EXPR_ID!", PayToKeyHash(B.key_digest))
    data = serialize_tx(Transaction(inputs=(), outputs=(TxOutput(5, gated),)))
    assert data.count(b"EXPR_ID!") == 1
    with pytest.raises(MalformedTx):
        deserialize_tx(data.replace(b"EXPR_ID!", b"\xff" * 8))


def test_txid_depends_on_every_field():
    base = Transaction(
        inputs=(TxInput(b"\x00" * 32, 0),),
        outputs=(TxOutput(5, PayToKeyHash(B.key_digest)),),
    )
    variants = [
        Transaction(base.inputs, base.outputs, lock_height=1),
        Transaction(base.inputs, (TxOutput(6, PayToKeyHash(B.key_digest)),)),
        Transaction((TxInput(b"\x00" * 32, 1),), base.outputs),
    ]
    ids = {txid(t) for t in [base] + variants}
    assert len(ids) == 4


def test_predicate_limits():
    check_predicate(MultiSig(1, (b"k" * 64,)))
    with pytest.raises(MalformedTx):
        check_predicate(MultiSig(0, (b"k" * 64,)))
    with pytest.raises(MalformedTx):
        check_predicate(MultiSig(2, (b"k" * 64,)))
    with pytest.raises(MalformedTx):
        check_predicate(MultiSig(1, tuple(bytes([i]) * 64 for i in range(16))))
    gate = OracleGated(b"o" * 64, "x", MultiSig(1, (b"k" * 64,)))
    check_predicate(gate)
    with pytest.raises(MalformedTx):  # the gate's inner predicate is checked too
        check_predicate(OracleGated(b"o" * 64, "x", MultiSig(0, (b"k" * 64,))))
    with pytest.raises(MalformedTx):  # one gate level: never a gate in a gate
        check_predicate(OracleGated(b"o" * 64, "y", gate))


def test_sighash_excludes_witnesses():
    tx = Transaction(
        inputs=(TxInput(b"\x01" * 32, 0),),
        outputs=(TxOutput(5, PayToKeyHash(B.key_digest)),),
    )
    signed = sign_inputs(tx, A)
    assert sighash(tx, 0) == sighash(signed, 0)


def test_anyone_can_pay_sighash_covers_only_own_input():
    out = (TxOutput(10, PayToKeyHash(A.key_digest)),)
    one = Transaction(
        inputs=(TxInput(b"\x01" * 32, 0, anyone_can_pay=True),), outputs=out
    )
    two = Transaction(
        inputs=(
            TxInput(b"\x01" * 32, 0, anyone_can_pay=True),
            TxInput(b"\x02" * 32, 0, anyone_can_pay=True),
        ),
        outputs=out,
    )
    # Adding a second input does not change the first input's message...
    assert sighash(one, 0) == sighash(two, 0)
    # ...but a normal (non-acp) signature would be invalidated.
    normal_one = Transaction(
        inputs=(TxInput(b"\x01" * 32, 0),), outputs=out
    )
    normal_two = Transaction(
        inputs=(TxInput(b"\x01" * 32, 0), TxInput(b"\x02" * 32, 0)), outputs=out
    )
    assert sighash(normal_one, 0) != sighash(normal_two, 0)


# --- validation -------------------------------------------------------------

def test_validate_spend_happy_path():
    chain = make_chain((A, 1000))
    tx = spend(chain, genesis_outpoint(chain),
               [TxOutput(990, PayToKeyHash(B.key_digest))], A)
    validate_transaction(tx, chain.utxo, 1)


def test_missing_utxo_and_self_cycle():
    chain = make_chain((A, 1000))
    tx = spend(chain, (b"\xff" * 32, 0), [TxOutput(1, PayToKeyHash(B.key_digest))], A)
    with pytest.raises(MissingUtxo):
        validate_transaction(tx, chain.utxo, 1)


def test_wrong_signer_rejected():
    chain = make_chain((A, 1000))
    tx = spend(chain, genesis_outpoint(chain), [TxOutput(990, PayToKeyHash(B.key_digest))], B)
    with pytest.raises(BadSignature):
        validate_transaction(tx, chain.utxo, 1)


def test_duplicate_outpoint_rejected():
    chain = make_chain((A, 1000))
    op = genesis_outpoint(chain)
    tx = Transaction(
        inputs=(TxInput(*op), TxInput(*op)),
        outputs=(TxOutput(1, PayToKeyHash(B.key_digest)),),
    )
    with pytest.raises(MalformedTx):
        validate_transaction(sign_inputs(tx, A), chain.utxo, 1)


def test_outputs_exceeding_inputs_rejected():
    chain = make_chain((A, 1000))
    tx = spend(chain, genesis_outpoint(chain),
               [TxOutput(1001, PayToKeyHash(B.key_digest))], A)
    with pytest.raises(NegativeFee):
        validate_transaction(tx, chain.utxo, 1)


def test_payload_cap_enforced():
    chain = make_chain((A, 1000))
    ok = spend(chain, genesis_outpoint(chain),
               [TxOutput(1, PayToKeyHash(B.key_digest), b"x" * MAX_PAYLOAD)], A)
    validate_transaction(ok, chain.utxo, 1)
    fat = spend(chain, genesis_outpoint(chain),
                [TxOutput(1, PayToKeyHash(B.key_digest), b"x" * (MAX_PAYLOAD + 1))], A)
    with pytest.raises(MalformedTx):
        validate_transaction(fat, chain.utxo, 1)


def test_multisig_two_of_three_all_subsets():
    chain = make_chain((A, 1000))
    escrow = MultiSig(2, (A.public_key, B.public_key, C.public_key))
    fund = spend(chain, genesis_outpoint(chain), [TxOutput(900, escrow)], A)
    mine(chain, [fund], 100)
    for subset in itertools.chain.from_iterable(
        itertools.combinations((A, B, C), r) for r in range(4)
    ):
        tx = Transaction(
            inputs=(TxInput(txid(fund), 0),),
            outputs=(TxOutput(850, PayToKeyHash(D.key_digest)),),
        )
        for signer in subset:
            tx = sign_inputs(tx, signer)
        if len(subset) >= 2:
            validate_transaction(tx, chain.utxo, 2)
        else:
            with pytest.raises(InsufficientSigners):
                validate_transaction(tx, chain.utxo, 2)


def test_multisig_ignores_foreign_signatures():
    chain = make_chain((A, 1000))
    escrow = MultiSig(2, (A.public_key, B.public_key, C.public_key))
    fund = spend(chain, genesis_outpoint(chain), [TxOutput(900, escrow)], A)
    mine(chain, [fund], 100)
    tx = Transaction(
        inputs=(TxInput(txid(fund), 0),),
        outputs=(TxOutput(850, PayToKeyHash(D.key_digest)),),
    )
    tx = sign_inputs(sign_inputs(tx, A), D)  # D is not in the escrow set
    with pytest.raises(InsufficientSigners):
        validate_transaction(tx, chain.utxo, 2)


def test_tx_lock_height():
    chain = make_chain((A, 1000))
    tx = spend(chain, genesis_outpoint(chain),
               [TxOutput(990, PayToKeyHash(B.key_digest))], A, lock_height=10)
    with pytest.raises(TimelockNotExpired):
        validate_transaction(tx, chain.utxo, 9)
    validate_transaction(tx, chain.utxo, 10)


def test_oracle_gated_requires_oracle_signature():
    oracle = make_keypair(40)
    chain = make_chain((A, 1000))
    gated = OracleGated(oracle.public_key, "expr", PayToKeyHash(A.key_digest))
    fund = spend(chain, genesis_outpoint(chain), [TxOutput(900, gated)], A)
    mine(chain, [fund], 100)
    claim = spend(chain, (txid(fund), 0), [TxOutput(890, PayToKeyHash(B.key_digest))], A)
    with pytest.raises(OracleSignatureMissing):
        validate_transaction(claim, chain.utxo, 2)
    msg = sighash(claim, 0)
    good = Transaction(
        inputs=(TxInput(txid(fund), 0,
                        Witness(claim.inputs[0].witness.signatures,
                                crypto.sign(oracle, msg))),),
        outputs=claim.outputs,
    )
    validate_transaction(good, chain.utxo, 2)
    bad = Transaction(
        inputs=(TxInput(txid(fund), 0,
                        Witness(claim.inputs[0].witness.signatures,
                                crypto.sign(B, msg))),),
        outputs=claim.outputs,
    )
    with pytest.raises(BadSignature):
        validate_transaction(bad, chain.utxo, 2)


# --- blocks and chain -------------------------------------------------------

def _double_spend(chain):
    return spend(chain, genesis_outpoint(chain), [TxOutput(980, PayToKeyHash(C.key_digest))], A)


def _unserializable(chain):
    # No txid: the value does not encode, so the tx cannot be named either.
    return Transaction((TxInput(*genesis_outpoint(chain, 1)),),
                       (TxOutput("x", PayToKeyHash(C.key_digest)),))


@pytest.mark.parametrize("second", [_double_spend, _unserializable],
                         ids=["double_spend", "unserializable_after_valid"])
def test_double_spend_within_block_rejected(second):
    chain = make_chain((A, 1000), (B, 500))
    t1 = spend(chain, genesis_outpoint(chain), [TxOutput(990, PayToKeyHash(B.key_digest))], A)
    utxo_before = dict(chain.utxo)
    index_before = dict(chain.tx_index)
    blocks_before = list(chain.blocks)
    with pytest.raises(InvalidTxInBlock):
        chain.apply_block(next_block(chain, [t1, second(chain)], 30))
    # Failed application must leave no trace.
    assert chain.utxo == utxo_before
    assert chain.tx_index == index_before
    assert chain.blocks == blocks_before
    mine(chain, [t1], 10)
    assert chain.confirmations(txid(t1)) == 1


def test_fee_reward_must_match_collected_fees():
    chain = make_chain((A, 1000))
    tx = spend(chain, genesis_outpoint(chain),
               [TxOutput(990, PayToKeyHash(B.key_digest))], A)
    with pytest.raises(InvalidTxInBlock):
        chain.apply_block(next_block(chain, [tx], 11))  # actual fee is 10
    chain.apply_block(next_block(chain, [tx], 10))


def test_block_linkage_enforced():
    chain = make_chain((A, 1000))
    block = next_block(chain, [], 0)
    wrong_parent = Block(block.height, b"\x00" * 32, block.timestamp, (), 0)
    with pytest.raises(BadParent):
        chain.apply_block(wrong_parent)
    stale_time = Block(block.height, block.prev_block_hash, 0.0, (), 0)
    with pytest.raises(BadParent):
        chain.apply_block(stale_time)
    chain.apply_block(block)
    with pytest.raises(BadParent):
        chain.apply_block(block)  # height no longer matches


def test_block_serialization_roundtrip():
    chain = make_chain((A, 1000))
    tx = spend(chain, genesis_outpoint(chain),
               [TxOutput(990, PayToKeyHash(B.key_digest))], A)
    block = mine(chain, [tx], 10)
    again = deserialize_block(serialize_block(block))
    assert again == block
    assert block_hash(again) == block_hash(block)


def test_confirmations_and_find_tx():
    chain = make_chain((A, 1000))
    tx = spend(chain, genesis_outpoint(chain),
               [TxOutput(990, PayToKeyHash(B.key_digest))], A)
    assert chain.confirmations(txid(tx)) is None
    mine(chain, [tx], 10)
    assert chain.confirmations(txid(tx)) == 1
    mine(chain, [], 0)
    assert chain.confirmations(txid(tx)) == 2
    assert chain.confirmations(txid(tx), as_of_height=1) == 1
    assert chain.confirmations(txid(tx), as_of_height=0) is None
    assert chain.find_tx(txid(tx)) == tx
    assert chain.find_tx(b"\x00" * 32) is None


def test_find_tx_uses_block_position():
    chain = make_chain((A, 1000), (B, 500))
    t1 = spend(chain, genesis_outpoint(chain, 0),
               [TxOutput(990, PayToKeyHash(C.key_digest))], A)
    t2 = spend(chain, genesis_outpoint(chain, 1),
               [TxOutput(490, PayToKeyHash(C.key_digest))], B)
    mine(chain, [t1, t2], 20)
    assert chain.tx_index[txid(t1)] == (1, 0)
    assert chain.tx_index[txid(t2)] == (1, 1)
    assert chain.find_tx(txid(t2)) == t2
    assert chain.find_tx(txid(chain.blocks[0].transactions[0])) is chain.blocks[0].transactions[0]


def test_rejected_block_repeating_a_confirmed_tx_keeps_its_index():
    chain = make_chain((A, 1000))
    tx = spend(chain, genesis_outpoint(chain),
               [TxOutput(990, PayToKeyHash(B.key_digest))], A)
    mine(chain, [tx], 10)
    with pytest.raises(InvalidTxInBlock):
        chain.apply_block(next_block(chain, [tx], 10))
    assert chain.find_tx(txid(tx)) == tx
    assert chain.confirmations(txid(tx)) == 1


def test_scan_chain_safety_accepts_honest_history():
    chain = make_chain((A, 1000))
    t1 = spend(chain, genesis_outpoint(chain),
               [TxOutput(600, PayToKeyHash(B.key_digest)),
                TxOutput(390, PayToKeyHash(A.key_digest))], A)
    mine(chain, [t1], 10)
    t2 = spend(chain, (txid(t1), 0), [TxOutput(595, PayToKeyHash(C.key_digest))], B)
    mine(chain, [t2], 5)
    scan_chain_safety(chain)


def test_scan_chain_safety_rejects_violations():
    # Blocks injected past apply_block, which would refuse them.
    chain = make_chain((A, 1000))
    t1 = spend(chain, genesis_outpoint(chain), [TxOutput(990, PayToKeyHash(B.key_digest))], A)
    mine(chain, [t1], 10)
    scan_chain_safety(chain)
    honest = list(chain.blocks)

    again = spend(chain, genesis_outpoint(chain), [TxOutput(980, PayToKeyHash(C.key_digest))], A)
    chain.blocks.append(next_block(chain, [again], 20))
    with pytest.raises(AssertionError, match="double spend or missing UTXO detected"):
        scan_chain_safety(chain)

    chain.blocks[:] = honest
    chain.blocks[1] = Block(1, honest[1].prev_block_hash, honest[1].timestamp, (t1,), 11)
    with pytest.raises(AssertionError, match="value not conserved at height 1"):
        scan_chain_safety(chain)


def test_genesis_must_not_spend():
    from sensormarket.ledger import Chain
    bad = Transaction(
        inputs=(TxInput(b"\x00" * 32, 0),),
        outputs=(TxOutput(1, PayToKeyHash(B.key_digest)),),
    )
    with pytest.raises(InvalidTxInBlock):
        Chain((bad,))
