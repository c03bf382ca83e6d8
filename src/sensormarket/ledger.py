"""Minimal UTXO transaction model with a predicate-script algebra.

Outputs are locked by one of three predicate forms instead of a stack-based
script interpreter: a key hash, an m-of-n multisig, or an oracle gate over one
of those two, never over another gate.  Canonical serialization (see `wire`)
defines txids, signature messages and block sizes.  The UTXO set maps each
unspent outpoint to its ``TxOutput``.

Signature messages ("sighash"): the transaction is serialized with all
witnesses stripped.  For a normal input the message covers every input's
outpoint and flag plus all outputs and the lock height.  For an input with
``anyone_can_pay`` set, the message covers only that input's own outpoint and
flag (plus outputs and lock height), which lets independently signed inputs
be combined into one transaction later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterator, Optional, Union

from . import crypto, wire
from .errors import (
    BadParent,
    BadSignature,
    InsufficientSigners,
    InvalidTxInBlock,
    MalformedTx,
    MissingUtxo,
    NegativeFee,
    OracleSignatureMissing,
    TimelockNotExpired,
    ValidationError,
)

MAX_PAYLOAD = 80
MAX_MULTISIG_KEYS = 15
TXID_LEN = 32
GENESIS_PREV_HASH = b"\x00" * 32


# --- predicates -------------------------------------------------------------

@dataclass(frozen=True)
class PayToKeyHash:
    key_digest: bytes


@dataclass(frozen=True)
class MultiSig:
    m: int
    public_keys: tuple[bytes, ...]

    @property
    def n(self) -> int:
        return len(self.public_keys)


@dataclass(frozen=True)
class OracleGated:
    oracle_key: bytes
    expression_id: str
    inner: Union[PayToKeyHash, MultiSig]  # one gate level: never another gate


Predicate = Union[PayToKeyHash, MultiSig, OracleGated]

_GATE_IN_GATE = "an oracle gate may not hold another gate"


def check_predicate(p: Predicate) -> None:
    if isinstance(p, OracleGated):
        p = p.inner
        if isinstance(p, OracleGated):
            raise MalformedTx(_GATE_IN_GATE)
    if isinstance(p, PayToKeyHash) and len(p.key_digest) != crypto.KEY_DIGEST_LEN:
        raise MalformedTx("bad key digest length")
    if isinstance(p, MultiSig):
        if not 1 <= p.m <= p.n <= MAX_MULTISIG_KEYS:
            raise MalformedTx(f"bad multisig bounds m={p.m} n={p.n}")


def serialize_predicate(p: Predicate) -> bytes:
    # No recursion: a gate's inner predicate is a key hash or a multisig, so a
    # chain of gates built in-program is a MalformedTx, never a RecursionError.
    data = b""
    if isinstance(p, OracleGated):
        data = wire.u8(0x04) + wire.varbytes(p.oracle_key) + wire.varbytes(p.expression_id.encode())
        p = p.inner
    if isinstance(p, PayToKeyHash):
        return data + wire.u8(0x01) + p.key_digest
    if isinstance(p, MultiSig):
        data += wire.u8(0x02) + wire.u8(p.m) + wire.u8(p.n)
        for pk in p.public_keys:
            data += wire.varbytes(pk)
        return data
    raise MalformedTx(_GATE_IN_GATE if isinstance(p, OracleGated) else f"unknown predicate {p!r}")


def read_predicate(r: wire.Reader) -> Predicate:
    # As `serialize_predicate`: a gate tag after a gate is a MalformedTx, so a
    # long run of gate tags never recurses.
    tag = r.u8()
    gate = None
    if tag == 0x04:
        gate = (r.varbytes(), r.text())
        tag = r.u8()
    if tag == 0x01:
        p = PayToKeyHash(r.read(crypto.KEY_DIGEST_LEN))
    elif tag == 0x02:
        m, n = r.u8(), r.u8()
        p = MultiSig(m, tuple(r.varbytes() for _ in range(n)))
    else:
        raise MalformedTx(_GATE_IN_GATE if tag == 0x04 else f"unknown predicate tag {tag:#x}")
    return p if gate is None else OracleGated(*gate, p)


# --- transactions -----------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    signatures: tuple[tuple[bytes, bytes], ...] = ()  # (public_key, signature)
    oracle_signature: Optional[bytes] = None


EMPTY_WITNESS = Witness()


@dataclass(frozen=True)
class TxOutput:
    value: int
    predicate: Predicate
    payload: Optional[bytes] = None


@dataclass(frozen=True)
class TxInput:
    prev_txid: bytes
    prev_index: int
    witness: Witness = EMPTY_WITNESS
    anyone_can_pay: bool = False

    @property
    def outpoint(self) -> tuple[bytes, int]:
        return (self.prev_txid, self.prev_index)


@dataclass(frozen=True)
class Transaction:
    inputs: tuple[TxInput, ...]
    outputs: tuple[TxOutput, ...]
    lock_height: Optional[int] = None


def _serialize_output(out: TxOutput) -> bytes:
    data = wire.u64(out.value) + serialize_predicate(out.predicate)
    if out.payload is None:
        data += wire.u8(0)
    else:
        data += wire.u8(1) + wire.varbytes(out.payload)
    return data


def _read_output(r: wire.Reader) -> TxOutput:
    value = r.u64()
    predicate = read_predicate(r)
    payload = r.varbytes() if r.flag() else None
    return TxOutput(value, predicate, payload)


def _serialize_witness(w: Witness) -> bytes:
    data = wire.u8(len(w.signatures))
    for pk, sig in w.signatures:
        data += wire.varbytes(pk) + wire.varbytes(sig)
    if w.oracle_signature is None:
        data += wire.u8(0)
    else:
        data += wire.u8(1) + wire.varbytes(w.oracle_signature)
    return data


def _read_witness(r: wire.Reader) -> Witness:
    sigs = tuple((r.varbytes(), r.varbytes()) for _ in range(r.u8()))
    oracle_sig = r.varbytes() if r.flag() else None
    return Witness(sigs, oracle_sig)


def _serialize_input(inp: TxInput, with_witness: bool) -> bytes:
    # A fixed width keeps the encoding unambiguous: with any other length the
    # txid bytes could run into the index and flag that follow them.
    if len(inp.prev_txid) != TXID_LEN:
        raise MalformedTx(f"prev_txid must be {TXID_LEN} bytes, got {len(inp.prev_txid)}")
    data = inp.prev_txid + wire.u32(inp.prev_index) + wire.flag(inp.anyone_can_pay)
    if with_witness:
        data += _serialize_witness(inp.witness)
    return data


def serialize_tx(tx: Transaction) -> bytes:
    data = wire.u16(len(tx.inputs))
    for inp in tx.inputs:
        data += _serialize_input(inp, with_witness=True)
    return data + _serialize_tail(tx)


def _serialize_tail(tx: Transaction) -> bytes:
    """The bytes after the inputs, in a tx and in its signature messages:
    outputs and lock height."""
    data = wire.u16(len(tx.outputs))
    for out in tx.outputs:
        data += _serialize_output(out)
    if tx.lock_height is None:
        data += wire.u8(0)
    else:
        data += wire.u8(1) + wire.u64(tx.lock_height)
    return data


def deserialize_tx(data: bytes) -> Transaction:
    r = wire.Reader(data)
    tx = read_tx(r)
    r.expect_end()
    return tx


def read_tx(r: wire.Reader) -> Transaction:
    n_in = r.u16()
    inputs = []
    for _ in range(n_in):
        prev_txid = r.read(TXID_LEN)
        prev_index = r.u32()
        flag = r.flag()
        witness = _read_witness(r)
        inputs.append(TxInput(prev_txid, prev_index, witness, flag))
    outputs = tuple(_read_output(r) for _ in range(r.u16()))
    lock_height = r.u64() if r.flag() else None
    return Transaction(tuple(inputs), outputs, lock_height)


# Memos on the frozen instance: its fields never change, so neither do the
# bytes they serialize to.  They live in the instance dict, outside the
# dataclass fields, so equality and hashing still see only the fields.

def txid(tx: Transaction) -> bytes:
    cached = getattr(tx, "_txid", None)
    if cached is None:
        data = serialize_tx(tx)
        cached = crypto.digest(data)
        object.__setattr__(tx, "_size", len(data))
        object.__setattr__(tx, "_txid", cached)
    return cached


def tx_size(tx: Transaction) -> int:
    txid(tx)  # serializes once, keeping the length beside the txid
    return tx._size


def first_signer(tx: Transaction) -> Optional[bytes]:
    """Public key of the first signature on the first signed input: the tx's sender."""
    for inp in tx.inputs:
        if inp.witness.signatures:
            return inp.witness.signatures[0][0]
    return None


def outputs_paying(tx: Transaction, key_digest: bytes) -> Iterator[tuple[int, TxOutput]]:
    """``(index, output)`` of each bare ``PayToKeyHash`` output of ``key_digest``."""
    for i, out in enumerate(tx.outputs):
        if isinstance(out.predicate, PayToKeyHash) and out.predicate.key_digest == key_digest:
            yield i, out


def sighash(tx: Transaction, index: int) -> bytes:
    """Message signed by witnesses of input ``index``.

    The SIGHASH_ALL message is the same for every input, so it is hashed once
    per tx; an anyone-can-pay input's message is its own and is not kept.
    """
    inp = tx.inputs[index]
    if inp.anyone_can_pay:
        return crypto.digest(
            wire.u8(0xA1) + _serialize_input(inp, with_witness=False) + _serialize_tail(tx)
        )
    cached = getattr(tx, "_sighash_all", None)
    if cached is None:
        data = wire.u8(0xA0)
        for other in tx.inputs:
            data += _serialize_input(other, with_witness=False)
        cached = crypto.digest(data + _serialize_tail(tx))
        object.__setattr__(tx, "_sighash_all", cached)
    return cached


def _verify(public_key: bytes, message: bytes, signature: bytes,
            verified: set) -> bool:
    """``crypto.verify`` through ``verified``, a set of triples known to verify;
    a triple that verifies is added to it, one that fails never is."""
    triple = (public_key, message, signature)
    if triple in verified:
        return True
    if crypto.verify(public_key, message, signature):
        verified.add(triple)
        return True
    return False


def satisfy(predicate: Predicate, witness: Witness, message: bytes, verified: set) -> None:
    """Raise the first failing rule, or return on success.

    ``verified`` is the signature cache the checks go through (see ``_verify``).
    """
    if isinstance(predicate, OracleGated):
        if witness.oracle_signature is None:
            raise OracleSignatureMissing("oracle signature required")
        if not _verify(predicate.oracle_key, message, witness.oracle_signature, verified):
            raise BadSignature("oracle signature does not verify")
        predicate = predicate.inner
    if isinstance(predicate, PayToKeyHash):
        for pk, sig in witness.signatures:
            if crypto.key_digest(pk) == predicate.key_digest:
                if _verify(pk, message, sig, verified):
                    return
                raise BadSignature("signature does not verify for key-hash output")
        raise BadSignature("no witness key matches the output's key digest")
    if isinstance(predicate, MultiSig):
        provided = dict(witness.signatures)
        valid = 0
        for pk in predicate.public_keys:
            sig = provided.get(pk)
            if sig is not None and _verify(pk, message, sig, verified):
                valid += 1
        if valid < predicate.m:
            raise InsufficientSigners(
                f"{valid} valid signatures, {predicate.m} required"
            )
        return
    raise MalformedTx(f"unknown predicate {predicate!r}")


# --- UTXO set ---------------------------------------------------------------

Utxos = dict[tuple[bytes, int], TxOutput]  # a UTXO set: outpoint -> unspent output


class UtxoView:
    """A UTXO set with pending changes on top: ``base``, a plain dict such as
    ``Chain.utxo``, less the outpoints in ``spent``, plus the outputs of
    ``created``.

    The mempool passes its ``spent_by`` and ``created``; ``Chain.apply_block``
    passes a set and a dict that gather the spends and outputs of the block's
    txs checked so far.  Only ``get`` is offered, all that validation reads.
    """

    def __init__(self, base: Utxos, spent: Container[tuple[bytes, int]], created: Utxos):
        self._base = base
        self._spent = spent
        self._created = created

    def get(self, outpoint: tuple[bytes, int]) -> Optional[TxOutput]:
        if outpoint in self._spent:
            return None
        out = self._base.get(outpoint)
        if out is not None:
            return out
        return self._created.get(outpoint)


def validate_transaction(tx: Transaction, utxo: Union[Utxos, UtxoView], height: int) -> int:
    """Return the fee, or raise a ValidationError naming the first failing rule.

    Signature cache: the triples of a tx that passes are memoised on the tx
    (``verified_signatures``), so validating it again, at another node's
    mempool or in its block, looks them up instead of re-verifying.
    ``Chain.apply_block`` drops the memo once the tx is confirmed.
    """
    txid(tx)  # memoised; a field that does not encode is MalformedTx, not a TypeError below
    if not tx.outputs:
        raise MalformedTx("transaction has no outputs")
    if not tx.inputs:
        raise MalformedTx("transaction has no inputs")
    seen: set[tuple[bytes, int]] = set()
    for inp in tx.inputs:
        if inp.outpoint in seen:
            raise MalformedTx("duplicate input outpoint")
        seen.add(inp.outpoint)
    for out in tx.outputs:  # a negative value does not encode, so ``txid`` refused it
        if out.payload is not None and len(out.payload) > MAX_PAYLOAD:
            raise MalformedTx(f"payload exceeds {MAX_PAYLOAD} bytes")
        check_predicate(out.predicate)
    if tx.lock_height is not None and height < tx.lock_height:
        raise TimelockNotExpired(f"lock height {tx.lock_height} > height {height}")
    verified = verified_signatures(tx) or set()
    total_in = 0
    for i, inp in enumerate(tx.inputs):
        prev = utxo.get(inp.outpoint)
        if prev is None:
            raise MissingUtxo(
                f"input {inp.prev_txid.hex()[:16]}:{inp.prev_index} not unspent"
            )
        total_in += prev.value
        satisfy(prev.predicate, inp.witness, sighash(tx, i), verified)
    fee = total_in - sum(out.value for out in tx.outputs)
    if fee < 0:
        raise NegativeFee("outputs exceed inputs")
    if verified:
        object.__setattr__(tx, "_verified", verified)  # memo on the frozen instance
    return fee


def verified_signatures(tx: Transaction) -> Optional[set]:
    """The tx's signature-cache memo: (public key, message, signature) triples
    that verified when it last passed validation; None once confirmed."""
    return getattr(tx, "_verified", None)


# --- blocks and chain -------------------------------------------------------

@dataclass(frozen=True)
class Block:
    height: int
    prev_block_hash: bytes
    timestamp: float
    transactions: tuple[Transaction, ...]
    fee_reward: int


def serialize_block(block: Block) -> bytes:
    data = (
        wire.u64(block.height)
        + block.prev_block_hash
        + wire.f64(block.timestamp)
        + wire.u64(block.fee_reward)
        + wire.u16(len(block.transactions))
    )
    for tx in block.transactions:
        data += serialize_tx(tx)
    return data


def deserialize_block(data: bytes) -> Block:
    r = wire.Reader(data)
    height = r.u64()
    prev_hash = r.read(32)
    timestamp = r.f64()
    fee_reward = r.u64()
    txs = tuple(read_tx(r) for _ in range(r.u16()))
    r.expect_end()
    return Block(height, prev_hash, timestamp, txs, fee_reward)


def block_hash(block: Block) -> bytes:
    cached = getattr(block, "_hash", None)
    if cached is None:
        cached = crypto.digest(serialize_block(block))
        object.__setattr__(block, "_hash", cached)  # memo, as for ``txid``
    return cached


def _touch(touching: dict[bytes, list[int]], predicate: Predicate, pos: int) -> None:
    """Record that the tx at ``pos`` touches ``predicate``'s key digest, if it
    is a bare key hash; positions arrive in block order, so each is kept once."""
    if isinstance(predicate, PayToKeyHash):
        positions = touching.setdefault(predicate.key_digest, [])
        if not positions or positions[-1] != pos:
            positions.append(pos)


class Chain:
    """Append-only block chain.

    Height 0 is the genesis block; its transactions carry no inputs and mint
    the scenario's money supply, so value conservation is asserted from
    height 1 onward.

    ``utxo`` is the UTXO set, a plain dict from outpoint to ``TxOutput``.
    A block applies whole or not at all: ``apply_block`` checks every tx
    against a ``UtxoView`` of ``utxo``, and only a block that
    passes is connected.  A failing block changes nothing, so nothing is
    ever rolled back.  There is no revert either: the simulator has one
    producer and no forks.

    Each applied block is indexed by key digest as it is connected: for every
    digest, the positions of the block's transactions that create or spend a
    bare ``PayToKeyHash`` output of it (``txs_touching``).
    """

    def __init__(self, genesis_funding: tuple[Transaction, ...]):
        if any(tx.inputs for tx in genesis_funding):
            raise InvalidTxInBlock("genesis transactions must not spend inputs")
        self.blocks: list[Block] = []
        self.utxo: Utxos = {}
        self.tx_index: dict[bytes, tuple[int, int]] = {}  # txid -> (height, position)
        self._touching: list[dict[bytes, list[int]]] = []  # per height
        self._connect(Block(
            height=0,
            prev_block_hash=GENESIS_PREV_HASH,
            timestamp=0.0,
            transactions=genesis_funding,
            fee_reward=0,
        ))

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def apply_block(self, block: Block) -> None:
        """Check ``block`` against a view of the UTXO set, then connect it."""
        if block.prev_block_hash != block_hash(self.tip):
            raise BadParent("block does not extend the current tip")
        if block.height != self.height + 1:
            raise BadParent(f"expected height {self.height + 1}, got {block.height}")
        if block.timestamp <= self.tip.timestamp:
            raise BadParent("block timestamp not increasing")
        spent: set[tuple[bytes, int]] = set()
        created: Utxos = {}
        view = UtxoView(self.utxo, spent, created)
        total_fees = 0
        for tx in block.transactions:
            try:
                tid = txid(tx)
                total_fees += validate_transaction(tx, view, block.height)
            except ValidationError as exc:
                raise InvalidTxInBlock(str(exc)) from exc
            spent.update(inp.outpoint for inp in tx.inputs)
            for i, out in enumerate(tx.outputs):
                created[(tid, i)] = out
        if block.fee_reward != total_fees:
            raise InvalidTxInBlock(
                f"fee_reward {block.fee_reward} != collected fees {total_fees}"
            )
        self._connect(block)

    def _connect(self, block: Block) -> None:
        """Spend the inputs and add the outputs of ``block``, a checked block."""
        touching: dict[bytes, list[int]] = {}
        for pos, tx in enumerate(block.transactions):
            tid = txid(tx)
            for inp in tx.inputs:
                _touch(touching, self.utxo.pop(inp.outpoint).predicate, pos)
            for i, out in enumerate(tx.outputs):
                self.utxo[(tid, i)] = out
                _touch(touching, out.predicate, pos)
            self.tx_index[tid] = (block.height, pos)
            vars(tx).pop("_verified", None)  # confirmed: its signatures are not checked again
        self.blocks.append(block)
        self._touching.append(touching)

    def txs_touching(self, block: Block, key_digest: bytes) -> list[Transaction]:
        """The transactions of ``block``, a block of this chain, that create or
        spend a bare ``PayToKeyHash`` output of ``key_digest``, in block order."""
        txs = block.transactions
        return [txs[pos] for pos in self._touching[block.height].get(key_digest, ())]

    def confirmations(self, tid: bytes, as_of_height: Optional[int] = None) -> Optional[int]:
        """Burial depth at ``as_of_height`` (default tip); None if unconfirmed."""
        h, _ = self.tx_index.get(tid, (None, None))
        if h is None:
            return None
        top = self.height if as_of_height is None else as_of_height
        if h > top:
            return None
        return top - h + 1

    def find_tx(self, tid: bytes) -> Optional[Transaction]:
        height, pos = self.tx_index.get(tid, (None, None))
        if height is None:
            return None
        return self.blocks[height].transactions[pos]


def scan_chain_safety(chain: Chain) -> None:
    """Post-hoc audit: no double spends ever, conservation at every height > 0.

    Replays one outpoint -> value map.  Raises AssertionError on violation;
    used by reports and acceptance tests.
    """
    unspent: dict[tuple[bytes, int], int] = {}
    for block in chain.blocks:
        total_in = 0
        total_out = 0
        for tx in block.transactions:
            for inp in tx.inputs:
                value = unspent.pop(inp.outpoint, None)
                assert value is not None, "double spend or missing UTXO detected"
                total_in += value
            tid = txid(tx)
            for i, out in enumerate(tx.outputs):
                total_out += out.value
                unspent[(tid, i)] = out.value
        if block.height > 0:
            assert total_in == total_out + block.fee_reward, (
                f"value not conserved at height {block.height}"
            )
