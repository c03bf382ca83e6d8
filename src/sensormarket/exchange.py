"""The atomic datum-for-cash exchange: requester and sensor state machines.

Flow: the requester pays the sensor's address on-chain; the sensor notices
the confirmed payment, recovers the payer's public key from the payment's
first input witness, and answers with a delivery transaction whose payload
carries the datum encrypted for that key (inline if it fits the payload cap,
otherwise anchored in the datastore).  The requester decrypts on receipt.
Exactly two on-chain transactions per honest exchange.

Each actor takes its wallet, which holds its key pair and its node, and
follows that node (``Node.follow``) at its confirmation depth: it
is handed every block once, when that block is deep enough, and reads only
the block's transactions that pay or spend its own key digest
(``Chain.txs_touching``); a payment or a delivery always pays it.  So it
examines a confirmed transaction that concerns it once, and no other.  That
follow hook is each actor's only hook: the sensor's takes the block's payments
as notices and then answers every pending one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import crypto, datastore
from .errors import (
    AnchorMismatch,
    DecryptFailed,
    MalformedTx,
    NoSensorFunds,
    ReplicationUnsatisfiable,
)
from .ledger import Block, PayToKeyHash, Transaction, TxOutput, first_signer, outputs_paying, txid
from .wallet import Wallet

MARKER_VALUE = 1  # delivery transactions need one spendable unit to address the buyer


@dataclass
class PaymentNotice:
    payment_txid: bytes
    payer_public_key: bytes


@dataclass
class DatumDelivery:
    payment_txid: Optional[bytes]
    delivery_txid: bytes
    plaintext: bytes
    sensor_digest: bytes
    request_time: Optional[float]
    delivery_time: float
    latency_blocks: int


class SensorActor:
    """Sells one datum per confirmed payment of at least ``price_per_datum``."""

    def __init__(
        self,
        wallet: Wallet,
        price_per_datum: int,
        datum: bytes,
        confirmation_depth: int = 1,
        stores: Optional[list[datastore.Store]] = None,
        replication: int = 2,
        actor_id: str = "sensor",
    ):
        self.wallet = wallet
        self.sim = wallet.node.sim
        self.price_per_datum = price_per_datum
        self.datum = datum
        self.stores = stores or []
        self.replication = replication
        self.actor_id = actor_id
        self._pending: list[PaymentNotice] = []
        self._rng = self.sim.rng(f"sensor/{actor_id}")
        wallet.node.follow(self._on_deep_block, confirmation_depth)

    def _on_deep_block(self, block: Block) -> None:
        """Take the block's payments as notices, then try every pending one."""
        self._scan_payments(block)
        for notice in self.detect_payment():
            try:
                self.fulfill(notice)
            except NoSensorFunds as exc:
                # Every notice needs the same funds: all stay pending until the next block.
                self.sim.log_event("sensor_unfunded", sensor=self.actor_id,
                                   payment_txid=notice.payment_txid.hex(), error=str(exc))
                return
            except ReplicationUnsatisfiable as exc:  # too few stores: give the payment up
                self._pending.remove(notice)
                self.sim.log_event("sensor_unfulfillable", sensor=self.actor_id,
                                   payment_txid=notice.payment_txid.hex(), error=str(exc))

    def detect_payment(self) -> list[PaymentNotice]:
        """Confirmed, not-yet-fulfilled incoming payments meeting the price.

        A notice stays pending until ``fulfill`` removes it: one whose
        fulfilment failed (``NoSensorFunds``) is offered again, ahead of
        those from blocks confirmed since.
        """
        return list(self._pending)

    def _scan_payments(self, block: Block) -> None:
        for tx in self.sim.chain.txs_touching(block, self.wallet.key_digest):
            payer_key = first_signer(tx)
            if payer_key is None or crypto.key_digest(payer_key) == self.wallet.key_digest:
                continue  # our own spend (change back to us) is not a payment
            if not self._is_plain_payment(tx):
                continue  # contract settlements are not datum requests
            amount = sum(out.value for _, out in outputs_paying(tx, self.wallet.key_digest))
            if amount == 0:
                continue
            if amount < self.price_per_datum:
                self.sim.log_event(
                    "underpayment",
                    sensor=self.actor_id,
                    payment_txid=txid(tx).hex(),
                    amount=amount,
                    price=self.price_per_datum,
                )
                continue
            self._pending.append(PaymentNotice(txid(tx), payer_key))

    def _is_plain_payment(self, tx: Transaction) -> bool:
        """True when every input spends an ordinary key-hash output."""
        for inp in tx.inputs:
            prev = self.sim.chain.find_tx(inp.prev_txid)
            if prev is None:
                return False
            if not isinstance(prev.outputs[inp.prev_index].predicate, PayToKeyHash):
                return False
        return True

    def fulfill(self, notice: PaymentNotice) -> Transaction:
        # Checked before the datum is sealed and stored: a failed fulfilment stores nothing.
        fee = self.sim.config.default_fee
        if self.wallet.balance < MARKER_VALUE + fee:
            raise NoSensorFunds(f"need {MARKER_VALUE + fee}, wallet has {self.wallet.balance}")
        envelope = crypto.encrypt_for(
            notice.payer_public_key, self.datum, ephemeral_seed=self._rng.randbytes(32)
        )
        data = datastore.seal(envelope, datastore.DATUM, self.stores, self.replication)
        payer_digest = crypto.key_digest(notice.payer_public_key)
        tx = self.wallet.send([TxOutput(MARKER_VALUE, PayToKeyHash(payer_digest), data)])
        self._pending.remove(notice)
        return tx


@dataclass
class _Request:
    payment_txid: bytes
    sensor_digest: bytes
    time: float
    height: int


class RequesterActor:
    """Buys datums and decrypts confirmed deliveries."""

    def __init__(
        self,
        wallet: Wallet,
        confirmation_depth: int = 1,
        stores: Optional[list[datastore.Store]] = None,
        actor_id: str = "requester",
    ):
        self.wallet = wallet
        self.sim = wallet.node.sim
        self.stores = stores or []
        self.actor_id = actor_id
        self.outstanding: list[_Request] = []
        self.deliveries: list[DatumDelivery] = []
        self.on_datum: list[Callable[[DatumDelivery], None]] = []
        wallet.node.follow(self.receive_datum, confirmation_depth)

    def initiate_purchase(
        self, sensor_payment_digest: bytes, price: int, amount: Optional[int] = None
    ) -> Transaction:
        pay_amount = price if amount is None else amount
        tx = self.wallet.send([TxOutput(pay_amount, PayToKeyHash(sensor_payment_digest))])
        self.outstanding.append(_Request(txid(tx), sensor_payment_digest, self.sim.clock,
                                         self.wallet.node.known_height))
        return tx

    def receive_datum(self, block: Block) -> None:
        """Decrypt the block's deliveries that match outstanding requests.

        A delivery that is malformed or fails to decrypt is logged once as a
        ``delivery_failed`` event; its request stays outstanding.
        """
        for tx in self.sim.chain.txs_touching(block, self.wallet.key_digest):
            delivery = self._try_take_delivery(tx, txid(tx), block.height)
            if delivery is not None:
                self.deliveries.append(delivery)
                for hook in self.on_datum:
                    hook(delivery)

    def _try_take_delivery(
        self, tx: Transaction, tid: bytes, height: int
    ) -> Optional[DatumDelivery]:
        data = next((out.payload for _, out in outputs_paying(tx, self.wallet.key_digest)
                     if datastore.kind(out.payload) == datastore.DATUM), None)
        if data is None:
            return None
        sender_key = first_signer(tx)
        if sender_key is None:
            return None
        sender_digest = crypto.key_digest(sender_key)
        request = next(
            (r for r in self.outstanding if r.sensor_digest == sender_digest), None
        )
        if request is None:
            return None
        try:
            envelope = datastore.unseal(data, self.stores, on_tamper=lambda loc: self.sim.log_event(
                "replica_tampered", requester=self.actor_id, store=loc))
            plaintext = crypto.decrypt(self.wallet.keypair, envelope)
        except (DecryptFailed, AnchorMismatch, MalformedTx) as exc:
            # Request stays outstanding; the failure is surfaced in the report.
            self.sim.log_event(
                "delivery_failed",
                requester=self.actor_id,
                delivery_txid=tid.hex(),
                error=type(exc).__name__,
            )
            return None
        self.outstanding.remove(request)
        return DatumDelivery(
            payment_txid=request.payment_txid,
            delivery_txid=tid,
            plaintext=plaintext,
            sensor_digest=sender_digest,
            request_time=request.time,
            delivery_time=self.sim.clock,
            latency_blocks=height - request.height,
        )
