"""Per-actor UTXO tracking and transaction building.

A wallet watches one node for confirmed blocks and keeps the set of
pay-to-key-hash outputs it controls.  Change outputs become spendable
immediately (unconfirmed chaining), which lets back-to-back purchases spend
each other's change without conflicts.
"""

from __future__ import annotations

from . import crypto
from .errors import InsufficientFunds
from .ledger import (
    Block,
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    outputs_paying,
    sighash,
    txid,
)
from .simnet import Node


def sign_inputs(tx: Transaction, *keypairs: crypto.KeyPair) -> Transaction:
    """Attach each key pair's (pubkey, signature) witness, in order, to every
    input, keeping each input's oracle signature: the one signer of every spend."""
    inputs = list(tx.inputs)
    for i in range(len(inputs)):
        message = sighash(tx, i)
        old = inputs[i]
        witness = Witness(
            signatures=old.witness.signatures
            + tuple((kp.public_key, crypto.sign(kp, message)) for kp in keypairs),
            oracle_signature=old.witness.oracle_signature,
        )
        inputs[i] = TxInput(old.prev_txid, old.prev_index, witness, old.anyone_can_pay)
    signed = Transaction(tuple(inputs), tx.outputs, tx.lock_height)
    # The SIGHASH_ALL message leaves witnesses out, so the memo holds for both.
    if "_sighash_all" in vars(tx):
        object.__setattr__(signed, "_sighash_all", tx._sighash_all)
    return signed


class Wallet:
    def __init__(self, keypair: crypto.KeyPair, node: Node):
        self.keypair = keypair
        self.node = node
        self.utxos: dict[tuple[bytes, int], int] = {}
        node.follow(self._scan_block)

    @property
    def key_digest(self) -> bytes:
        return self.keypair.key_digest

    @property
    def balance(self) -> int:
        return sum(self.utxos.values())

    def _scan_block(self, block: Block) -> None:
        # Only a tx that pays or spends our digest can change ``utxos``: it
        # holds nothing but outpoints that pay it.
        for tx in self.node.sim.chain.txs_touching(block, self.key_digest):
            for inp in tx.inputs:
                self.utxos.pop(inp.outpoint, None)
            tid = txid(tx)
            for i, out in outputs_paying(tx, self.key_digest):
                self.utxos.setdefault((tid, i), out.value)

    def _select_coins(self, needed: int) -> list[tuple[tuple[bytes, int], int]]:
        picked = []
        total = 0
        for outpoint in sorted(self.utxos, key=lambda o: (o[0], o[1])):
            picked.append((outpoint, self.utxos[outpoint]))
            total += self.utxos[outpoint]
            if total >= needed:
                return picked
        raise InsufficientFunds(f"need {needed}, wallet holds {total}")

    def create_tx(self, payments: list[TxOutput], fee: int) -> Transaction:
        """Build, sign and account for a transaction paying ``payments``.

        Inputs are deducted from the wallet immediately and any change output
        becomes spendable right away.
        """
        total_out = sum(p.value for p in payments)
        coins = self._select_coins(total_out + fee)
        total_in = sum(v for _, v in coins)
        outputs = list(payments)
        change = total_in - total_out - fee
        if change > 0:
            outputs.append(TxOutput(change, PayToKeyHash(self.key_digest)))
        tx = Transaction(
            inputs=tuple(TxInput(op[0], op[1]) for op, _ in coins),
            outputs=tuple(outputs),
        )
        tx = sign_inputs(tx, self.keypair)
        tid = txid(tx)
        for outpoint, _ in coins:
            del self.utxos[outpoint]
        if change > 0:
            self.utxos[(tid, len(outputs) - 1)] = change
        return tx

    def send(self, payments: list[TxOutput]) -> Transaction:
        """``create_tx`` at the default fee, broadcast from this wallet's node:
        how an actor pays."""
        sim = self.node.sim
        tx = self.create_tx(payments, sim.config.default_fee)
        sim.broadcast(tx, self.node)
        return tx

    def take_exact_utxo(self, amount: int) -> tuple[bytes, int]:
        """Remove and return an outpoint of exactly ``amount`` from the wallet."""
        for outpoint, value in sorted(self.utxos.items()):
            if value == amount:
                del self.utxos[outpoint]
                return outpoint
        raise InsufficientFunds(f"no UTXO of exactly {amount}")
