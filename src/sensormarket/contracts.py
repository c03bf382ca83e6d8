"""Contract patterns on top of the predicate algebra.

Escrow: 2-of-3 multisig between buyer, seller and a mediator who can never
move the funds alone.  Assurance contract: anyone-can-pay pledges that only
combine into a valid transaction once the campaign goal is covered.  Oracle:
a keyed service that signs a settlement only while its registered expression
evaluates true against its fact base.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from typing import Optional

from . import crypto
from .errors import (
    DoubleSpentPledge,
    InsufficientPledges,
    UnknownExpression,
)
from .ledger import (
    MultiSig,
    OracleGated,
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    Witness,
    sighash,
    txid,
)
from .simnet import Node
from .wallet import Wallet, sign_inputs


# --- escrow -----------------------------------------------------------------

@dataclass
class EscrowAgreement:
    seller_key: bytes
    amount: int
    outpoint: tuple[bytes, int]
    status: str = "Funded"


def fund_escrow(
    buyer_wallet: Wallet, seller: bytes, mediator: bytes, amount: int
) -> EscrowAgreement:
    """Lock ``amount`` under the 2-of-3 escrow of the buyer's, the seller's and
    the mediator's public keys; the release pays its fee out of ``amount``, so
    ``amount`` must exceed the default fee."""
    fee = buyer_wallet.node.sim.config.default_fee
    if amount <= fee:
        raise ValueError(f"escrow amount {amount} does not exceed the fee {fee}")
    tx = buyer_wallet.send(
        [TxOutput(amount, MultiSig(2, (buyer_wallet.keypair.public_key, seller, mediator)))]
    )
    return EscrowAgreement(seller_key=seller, amount=amount, outpoint=(txid(tx), 0))


def build_escrow_spend(
    agreement: EscrowAgreement, destination_digest: bytes, fee: int
) -> Transaction:
    return Transaction(
        inputs=(TxInput(*agreement.outpoint),),
        outputs=(TxOutput(agreement.amount - fee, PayToKeyHash(destination_digest)),),
    )


def escrow_release(
    node: Node,
    agreement: EscrowAgreement,
    signer_a: crypto.KeyPair,
    signer_b: crypto.KeyPair,
    destination_digest: bytes,
) -> Transaction:
    """Spend the escrow to ``destination`` under two of the three keys.

    The signers are key pairs, which need not hold a wallet, so the release is
    broadcast from ``node``.  Signature validity is enforced by ledger
    validation on broadcast; calling this with keys outside the escrow set
    produces a transaction the chain rejects.  The agreement's status follows
    the chain: it becomes ``Released`` (paid to the seller) or ``Refunded``
    once the release confirms at ``node``, and a rejected release leaves it
    ``Funded``.
    """
    tx = build_escrow_spend(agreement, destination_digest, node.sim.config.default_fee)
    tx = sign_inputs(tx, signer_a, signer_b)
    node.sim.broadcast(tx, node)
    seller_digest = crypto.key_digest(agreement.seller_key)
    status = "Released" if destination_digest == seller_digest else "Refunded"
    node.when_confirmed(txid(tx), 1, lambda: setattr(agreement, "status", status))
    return tx


# --- assurance contracts ----------------------------------------------------

@dataclass(frozen=True)
class Campaign:
    entrepreneur_digest: bytes
    goal: int

    @property
    def goal_output(self) -> TxOutput:
        return TxOutput(self.goal, PayToKeyHash(self.entrepreneur_digest))


@dataclass(frozen=True)
class Pledge:
    tx_input: TxInput  # anyone-can-pay, signed against the goal output
    amount: int


def make_pledge(wallet: Wallet, campaign: Campaign, amount: int) -> Pledge:
    """Sign a contribution of one exact-value UTXO toward the campaign goal.

    The signature covers only this input plus the goal output, so pledges
    from different contributors can be merged later.  The partial transaction
    is invalid on its own whenever ``amount`` is below the goal.
    """
    if amount <= 0:
        raise ValueError("pledge amount must be positive")
    outpoint = wallet.take_exact_utxo(amount)
    template = Transaction(
        inputs=(TxInput(*outpoint, anyone_can_pay=True),),
        outputs=(campaign.goal_output,),
    )
    return Pledge(tx_input=sign_inputs(template, wallet.keypair).inputs[0], amount=amount)


def assemble_assurance(node: Node, pledges: list[Pledge], campaign: Campaign) -> Transaction:
    """Combine pledges into the goal transaction once they cover the goal."""
    total = 0
    for pledge in pledges:
        out = node.sim.chain.utxo.get(pledge.tx_input.outpoint)
        if out is None:
            raise DoubleSpentPledge(
                f"pledge UTXO {pledge.tx_input.prev_txid.hex()[:16]} already spent"
            )
        total += out.value
    if total < campaign.goal:
        raise InsufficientPledges(campaign.goal - total)
    tx = Transaction(
        inputs=tuple(p.tx_input for p in pledges),
        outputs=(campaign.goal_output,),
    )
    node.sim.broadcast(tx, node)
    return tx


# --- oracle service ---------------------------------------------------------

_EXPR_RE = re.compile(r"^\s*(\w+)\s*(<=|>=|==|<|>)\s*(-?\d+(?:\.\d+)?)\s*$")


def parse_expression(text: str) -> tuple[str, str, float]:
    """``(fact, op, number)`` of an oracle expression ``<fact> <op> <number>``;
    ValueError when ``text`` does not follow that grammar."""
    m = _EXPR_RE.match(text)
    if m is None:
        raise ValueError(f"expression {text!r} is not '<fact> <op> <number>'")
    fact, op, number = m.groups()
    return fact, op, float(number)


_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        "==": operator.eq}


@dataclass
class OracleService:
    """Signs settlements only while the registered expression holds."""

    keypair: crypto.KeyPair
    expressions: dict[str, tuple[str, str, float]] = field(default_factory=dict)
    facts: dict[str, float] = field(default_factory=dict)

    def register_expression(self, expression_id: str, text: str) -> None:
        self.expressions[expression_id] = parse_expression(text)

    def set_fact(self, name: str, value: float) -> None:
        self.facts[name] = value

    def evaluate(self, expression_id: str) -> bool:
        if expression_id not in self.expressions:
            raise UnknownExpression(expression_id)
        fact, op, number = self.expressions[expression_id]
        if fact not in self.facts:
            return False
        return _OPS[op](self.facts[fact], number)

    def sign_settlement(self, expression_id: str, settlement_tx: Transaction) -> Optional[bytes]:
        """Signature over the settlement's SIGHASH_ALL message, which every
        input of it signs, or None (refusal) if the expression is currently
        false or its fact is unknown."""
        if not self.evaluate(expression_id):
            return None
        return crypto.sign(self.keypair, sighash(settlement_tx, 0))


class OracleBet:
    """Two parties stake on opposite outcomes of one external fact.

    Each party locks its stake in an oracle-gated 2-of-2 output; both stakes
    are broadcast, and the settlement later, from party a's node.  After the
    fact is known, the settlement spending both stakes to the winner gets the
    parties' signatures plus the oracle's, which the oracle grants only for
    the expression that evaluates true.
    """

    def __init__(
        self,
        party_a_wallet: Wallet,
        party_b_wallet: Wallet,
        stake: int,
        oracle: OracleService,
        expression_a_wins: str,
        expression_b_wins: str,
    ):
        self.node = party_a_wallet.node
        self.sim = self.node.sim
        self.key_a = party_a_wallet.keypair
        self.key_b = party_b_wallet.keypair
        self.stake = stake
        self.oracle = oracle
        self.expr_a = expression_a_wins
        self.expr_b = expression_b_wins
        self.settled: Optional[str] = None
        self.settle_txid: Optional[bytes] = None
        oracle_key = oracle.keypair.public_key
        parties = MultiSig(2, (self.key_a.public_key, self.key_b.public_key))
        tx_a = party_a_wallet.create_tx(
            [TxOutput(stake, OracleGated(oracle_key, expression_a_wins, parties))])
        tx_b = party_b_wallet.create_tx(
            [TxOutput(stake, OracleGated(oracle_key, expression_b_wins, parties))])
        self.outpoint_a = (txid(tx_a), 0)
        self.outpoint_b = (txid(tx_b), 0)
        self.sim.broadcast(tx_a, self.node)
        self.sim.broadcast(tx_b, self.node)

    def build_settlement(self, winner_digest: bytes) -> Transaction:
        fee = self.sim.config.default_fee
        return Transaction(
            inputs=(TxInput(*self.outpoint_a), TxInput(*self.outpoint_b)),
            outputs=(TxOutput(2 * self.stake - fee, PayToKeyHash(winner_digest)),),
        )

    def maybe_settle(self) -> Optional[Transaction]:
        """Settle to whichever party's expression currently holds, if any."""
        utxo = self.sim.chain.utxo
        if self.settled or self.outpoint_a not in utxo or self.outpoint_b not in utxo:
            return None  # settled already, or a stake is not confirmed
        try:
            a_wins = self.oracle.evaluate(self.expr_a)
            b_wins = self.oracle.evaluate(self.expr_b)
        except UnknownExpression:
            return None
        if not a_wins and not b_wins:
            return None
        winner_key = self.key_a if a_wins else self.key_b
        expression = self.expr_a if a_wins else self.expr_b
        tx = self.build_settlement(winner_key.key_digest)
        # Both inputs sign the one SIGHASH_ALL message, and Ed25519 is
        # deterministic: one oracle signature serves them both.
        witness = Witness(oracle_signature=self.oracle.sign_settlement(expression, tx))
        tx = Transaction(tuple(TxInput(*inp.outpoint, witness) for inp in tx.inputs), tx.outputs)
        signed = sign_inputs(tx, self.key_a, self.key_b)
        self.sim.broadcast(signed, self.node)
        self.settled = "a" if a_wins else "b"
        self.settle_txid = txid(signed)
        return signed
