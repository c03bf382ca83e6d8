"""Unidirectional micropayment channel for sensor subscriptions.

One funding transaction locks the deposit in a 2-of-2 multisig; one
settlement (or the pre-signed, height-locked refund) finally touches the
chain.  Before the funding transaction is broadcast, the counterparty must
co-sign the refund so the funder can always reclaim the deposit after the
expiry height.

In between, a payment costs one signature and one AEAD seal, as in a Spilman
channel: money flows one way, so the payer's signature on the settlement for
the new balance split is the payment, and the sensor adds its own only once,
to the settlement it broadcasts at ``close``.  Each payment is answered with
the sensor's datum, the bytes the channel was opened with, sealed under one
session key per channel, agreed once at open from an ephemeral X25519 key
(``crypto.session_to``), with the payment's sequence number as its nonce and
the funding txid as associated data.

Misbehaviour is out of model: actors are honest by contract, so no update's
signature is verified off-chain (the chain checks the settlement that is
broadcast), and ``close`` always settles the latest state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import crypto
from .errors import (
    AlreadyClosed,
    ExpiryPassed,
    InsufficientChannelBalance,
    TimelockNotExpired,
)
from .ledger import (
    MultiSig,
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    txid,
)
from .wallet import Wallet, sign_inputs


@dataclass
class ChannelState:
    sequence: int
    balance_requester: int
    balance_sensor: int
    settlement_tx: Transaction  # signed by the payer; the sensor signs at close


class Channel:
    """Both ends of one requester-to-sensor channel, driven by the event loop."""

    def __init__(
        self,
        funder_wallet: Wallet,
        sensor_keypair: crypto.KeyPair,
        deposit: int,
        expiry_height: int,
        datum: bytes,
    ):
        self.funder_keypair = funder_wallet.keypair
        self.node = funder_wallet.node
        self.sim = self.node.sim
        if expiry_height <= self.sim.chain.height:
            raise ExpiryPassed("expiry height must lie in the future")
        self.sensor_keypair = sensor_keypair
        self.expiry_height = expiry_height
        self.datum = datum
        self.closed = False
        self.settle_txid: Optional[bytes] = None
        self.datums_delivered: list[bytes] = []

        funding = funder_wallet.create_tx(
            [TxOutput(deposit, MultiSig(2, (self.funder_keypair.public_key,
                                            sensor_keypair.public_key)))])
        self.funding_txid = txid(funding)
        refund = self._build_settlement(deposit, 0, sensor_keypair, lock_height=expiry_height)
        self.state = ChannelState(0, deposit, 0, refund)
        self._initial_refund = refund
        # The sensor's side seals, the funder's opens: one agreement per channel.
        ephemeral_key, self._sensor_session = crypto.session_to(
            self.funder_keypair.public_key,
            self.sim.rng("channel-datum").randbytes(32),
        )
        self._funder_session = crypto.session_from(self.funder_keypair, ephemeral_key)
        self.sim.broadcast(funding, self.node)

    # --- internals ----------------------------------------------------------

    def _build_settlement(
        self, balance_requester: int, balance_sensor: int, *cosigners: crypto.KeyPair,
        lock_height: Optional[int] = None,
    ) -> Transaction:
        """The settlement for this split, signed by the funder, then ``cosigners``."""
        fee = self.sim.config.default_fee
        share_r = fee // 2 if balance_sensor else fee
        share_s = fee - share_r if balance_sensor else 0
        outputs = []
        if balance_requester - share_r > 0:
            outputs.append(
                TxOutput(balance_requester - share_r,
                         PayToKeyHash(self.funder_keypair.key_digest))
            )
        if balance_sensor - share_s > 0:
            outputs.append(
                TxOutput(balance_sensor - share_s,
                         PayToKeyHash(self.sensor_keypair.key_digest))
            )
        tx = Transaction(
            inputs=(TxInput(self.funding_txid, 0),),
            outputs=tuple(outputs),
            lock_height=lock_height,
        )
        return sign_inputs(tx, self.funder_keypair, *cosigners)

    # --- operations ---------------------------------------------------------

    def pay(self, amount: int) -> ChannelState:
        """Move ``amount`` to the sensor side; the funder signs off-chain."""
        if self.closed:
            raise AlreadyClosed("channel already settled")
        if amount > self.state.balance_requester:
            raise InsufficientChannelBalance(
                f"payment {amount} exceeds requester balance {self.state.balance_requester}"
            )
        new_r = self.state.balance_requester - amount
        new_s = self.state.balance_sensor + amount
        settlement = self._build_settlement(new_r, new_s)
        sequence = self.state.sequence + 1
        self.state = ChannelState(sequence, new_r, new_s, settlement)
        # Sensor answers each signed update with a sealed datum, delivered
        # directly between the actors (no chain traffic).  The sequence rises
        # within the channel, so no nonce repeats under its key.
        sealed = self._sensor_session.seal(sequence, self.datum, self.funding_txid)
        self.datums_delivered.append(
            self._funder_session.open(sequence, sealed, self.funding_txid))
        return self.state

    def close(self) -> Transaction:
        """Countersign the latest settlement and broadcast it."""
        if self.closed:
            raise AlreadyClosed("channel already settled")
        self.closed = True
        settlement = sign_inputs(self.state.settlement_tx, self.sensor_keypair)
        self.settle_txid = txid(settlement)
        self.node.when_confirmed(
            self.funding_txid, 1, lambda: self.sim.broadcast(settlement, self.node)
        )
        return settlement

    def refund_after_expiry(self) -> Transaction:
        if self.closed:
            raise AlreadyClosed("channel already settled")
        if self.sim.chain.height < self.expiry_height:
            raise TimelockNotExpired(
                f"height {self.sim.chain.height} < expiry {self.expiry_height}"
            )
        self.closed = True
        # Honest funder can only reclaim via the pre-signed sequence-0 state.
        refund = self._initial_refund
        self.settle_txid = txid(refund)
        self.sim.broadcast(refund, self.node)
        return refund

    def summary(self) -> dict:
        return {
            "funding_txid": self.funding_txid.hex(),
            "settle_txid": self.settle_txid.hex() if self.settle_txid else None,
            "sequence": self.state.sequence,
            "balance_requester": self.state.balance_requester,
            "balance_sensor": self.state.balance_sensor,
            "paid_total": self.state.balance_sensor,
            "onchain_tx_count": sum(
                1 for tid in (self.funding_txid, self.settle_txid)
                if tid is not None and self.sim.chain.confirmations(tid) is not None),
            "stale_flagged": False,  # close settles the latest state, never an older one
            "datums_delivered": len(self.datums_delivered),
        }
