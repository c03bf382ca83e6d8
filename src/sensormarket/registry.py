"""Decentralized sensor registry: first-claim-wins name records on the chain.

Records ride ordinary transaction payloads.  A registration or update counts
only if the carrying transaction's first input witness is signed by the
record's owner key (registration) or the current owner (update).  Collisions
inside one block resolve deterministically: for registrations the lower txid
wins, for updates the later position in the block wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import crypto, datastore, wire
from .errors import AnchorMismatch, MalformedTx, UnknownName
from .ledger import Block, PayToKeyHash, Transaction, TxOutput, first_signer, txid
from .wallet import Wallet

MAX_NAME_LEN = 64


@dataclass(frozen=True)
class SensorRecord:
    name: str
    owner_key_digest: bytes
    payment_digest: bytes
    data_type: str
    price_per_datum: int
    endpoint: str  # datastore locator hint, or "inline"

    def serialize(self) -> bytes:
        name_bytes = self.name.encode()
        if len(name_bytes) > MAX_NAME_LEN:
            raise MalformedTx(f"name exceeds {MAX_NAME_LEN} bytes")
        # The payment digest is elided when it equals the owner digest (the
        # common case), which keeps typical records inside the payload cap.
        if self.payment_digest == self.owner_key_digest:
            payment = wire.u8(0)
        else:
            payment = wire.u8(1) + self.payment_digest
        return (
            wire.varbytes(name_bytes)
            + self.owner_key_digest
            + payment
            + wire.varbytes(self.data_type.encode())
            + wire.u64(self.price_per_datum)
            + wire.varbytes(self.endpoint.encode())
        )

    @classmethod
    def deserialize(cls, data: bytes) -> "SensorRecord":
        r = wire.Reader(data)
        name = r.text()
        if len(name.encode()) > MAX_NAME_LEN:
            raise MalformedTx("name too long")
        owner = r.read(crypto.KEY_DIGEST_LEN)
        payment = owner
        if r.flag():
            payment = r.read(crypto.KEY_DIGEST_LEN)
            if payment == owner:  # `serialize` elides it, so this would not round-trip
                raise MalformedTx("payment digest equal to the owner's is not elided")
        data_type = r.text()
        price = r.u64()
        endpoint = r.text()
        r.expect_end()
        return cls(name, owner, payment, data_type, price, endpoint)


@dataclass
class IndexEntry:
    record: SensorRecord
    registration_txid: bytes
    last_update_height: int


class Registry:
    """Name index maintained incrementally from the block-apply path."""

    def __init__(self, stores: Optional[list[datastore.Store]] = None):
        self.index: dict[str, IndexEntry] = {}
        self.stores = stores or []

    def apply_block(self, block: Block) -> None:
        registrations: dict[str, list[tuple[bytes, SensorRecord]]] = {}
        updates: list[tuple[bytes, SensorRecord, bytes]] = []
        for tx in block.transactions:
            signer_key = first_signer(tx)
            if signer_key is None:
                continue
            signer = crypto.key_digest(signer_key)
            for out in tx.outputs:
                kind = datastore.kind(out.payload)
                if kind not in (datastore.REGISTER, datastore.UPDATE):
                    continue
                try:
                    record = SensorRecord.deserialize(datastore.unseal(out.payload, self.stores))
                except (MalformedTx, AnchorMismatch):
                    continue  # malformed or unfetchable records are simply not indexed
                if kind == datastore.REGISTER:
                    if record.owner_key_digest == signer:
                        registrations.setdefault(record.name, []).append((txid(tx), record))
                else:
                    updates.append((txid(tx), record, signer))
        for name, claims in registrations.items():
            if name in self.index:
                continue  # first valid registration in an earlier block wins
            tid, record = min(claims, key=lambda c: c[0])
            self.index[name] = IndexEntry(record, tid, block.height)
        # Updates apply in block position order; within one block the later
        # transaction's record stands.
        for tid, record, signer in updates:
            entry = self.index.get(record.name)
            if entry is None:
                continue
            if entry.record.owner_key_digest != signer:
                continue  # not the owner: ignored
            if record.owner_key_digest != entry.record.owner_key_digest:
                continue  # ownership transfers are out of scope
            entry.record = record
            entry.last_update_height = block.height

    def lookup(self, name: str) -> SensorRecord:
        entry = self.index.get(name)
        if entry is None:
            raise UnknownName(name)
        return entry.record

    def dump(self) -> list[dict]:
        return [
            {
                "name": name,
                "owner": entry.record.owner_key_digest.hex(),
                "payment_digest": entry.record.payment_digest.hex(),
                "data_type": entry.record.data_type,
                "price_per_datum": entry.record.price_per_datum,
                "endpoint": entry.record.endpoint,
                "registration_txid": entry.registration_txid.hex(),
                "last_update_height": entry.last_update_height,
            }
            for name, entry in sorted(self.index.items())
        ]


def _registry_tx(
    wallet: Wallet,
    record: SensorRecord,
    kind: str,
    stores: Optional[list[datastore.Store]],
    replication: int,
) -> Transaction:
    data = datastore.seal(record.serialize(), kind, stores or [], replication)
    return wallet.send([TxOutput(0, PayToKeyHash(wallet.key_digest), data)])


def register_sensor(
    wallet: Wallet,
    record: SensorRecord,
    stores: Optional[list[datastore.Store]] = None,
    replication: int = 2,
) -> Transaction:
    """Broadcast a registration; the index honors it once confirmed (and only
    if the wallet key matches the record's owner digest)."""
    return _registry_tx(wallet, record, datastore.REGISTER, stores, replication)


def update_record(
    wallet: Wallet,
    record: SensorRecord,
    stores: Optional[list[datastore.Store]] = None,
    replication: int = 2,
) -> Transaction:
    return _registry_tx(wallet, record, datastore.UPDATE, stores, replication)
