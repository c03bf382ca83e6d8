"""Followers read only their own transactions, through ``Chain.txs_touching``.

``RescanWallet``, ``RescanSensor`` and ``RescanRequester`` keep the
full-block scans the index replaced: each walks every transaction of every
block.  Generated histories of key-hash payments drive every follower beside
its rescanning twin on one node; after every step the twins must hold the
same coins, payment notices and deliveries, and the index must list exactly
the transactions that create or spend a key-hash output of each digest.
"""

import pytest
from hypothesis import given, settings, strategies as st

from sensormarket import crypto
from sensormarket.errors import InvalidTxInBlock
from sensormarket.exchange import (
    PaymentNotice,
    RequesterActor,
    SensorActor,
    _Request,
)
from sensormarket.ledger import (
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    first_signer,
    outputs_paying,
    txid,
)
from sensormarket.wallet import Wallet, sign_inputs

from conftest import make_keypair, make_sim, next_block, seed_bytes


KEYS = [make_keypair(i) for i in range(4)]
PRICE = 400
# An inline datum sealed for each key: paid to that key it decrypts, paid to
# another it is a delivery that fails.
DATUMS = [
    b"\x01"  # the inline datum tag
    + crypto.encrypt_for(kp.public_key, b"t=%d" % i, ephemeral_seed=seed_bytes(300 + i))
    for i, kp in enumerate(KEYS)
]


class RescanWallet(Wallet):
    def _scan_block(self, block):
        for tx in block.transactions:
            for inp in tx.inputs:
                self.utxos.pop(inp.outpoint, None)
            tid = txid(tx)
            for i, out in enumerate(tx.outputs):
                if (
                    isinstance(out.predicate, PayToKeyHash)
                    and out.predicate.key_digest == self.key_digest
                ):
                    self.utxos.setdefault((tid, i), out.value)


class RescanSensor(SensorActor):
    def _scan_payments(self, block):
        for tx in block.transactions:
            payer_key = first_signer(tx)
            if payer_key is None or crypto.key_digest(payer_key) == self.wallet.key_digest:
                continue
            if not self._is_plain_payment(tx):
                continue
            amount = sum(out.value for _, out in outputs_paying(tx, self.wallet.key_digest))
            if amount == 0:
                continue
            if amount < self.price_per_datum:
                continue
            self._pending.append(PaymentNotice(txid(tx), payer_key))


class RescanRequester(RequesterActor):
    def receive_datum(self, block):
        for tx in block.transactions:
            delivery = self._try_take_delivery(tx, txid(tx), block.height)
            if delivery is not None:
                self.deliveries.append(delivery)


def touching_by_rescan(chain, block, key_digest):
    """The block's txs with an output, created or spent, paying ``key_digest``."""
    def pays(out):
        return isinstance(out.predicate, PayToKeyHash) and out.predicate.key_digest == key_digest

    return [
        tx for tx in block.transactions
        if any(pays(out) for out in tx.outputs)
        or any(pays(chain.find_tx(i.prev_txid).outputs[i.prev_index]) for i in tx.inputs)
    ]


class Market:
    """One node where every key has a wallet, two keys sell and two buy, each
    follower beside its rescanning twin; blocks are built by hand."""

    def __init__(self):
        self.sim = make_sim([(kp, 1_000) for kp in KEYS * 2], num_nodes=1,
                            mean_block_interval_s=1e9)
        self.chain = self.sim.chain
        node = self.node = self.sim.nodes[0]
        self.wallets = [(Wallet(kp, node), RescanWallet(kp, node)) for kp in KEYS]
        self.sensors = []
        for wallet, _ in self.wallets[:2]:
            twins = [cls(wallet, PRICE, b"x") for cls in (SensorActor, RescanSensor)]
            for sensor in twins:
                sensor.fulfill = lambda notice: None  # scanning only, no fulfilment
            self.sensors.append(twins)
        self.requesters = []
        for wallet, _ in self.wallets[2:]:
            twins = [cls(wallet, actor_id=f"{cls.__name__}/{wallet.key_digest.hex()}")
                     for cls in (RequesterActor, RescanRequester)]
            for requester in twins:
                requester.outstanding = [
                    _Request(bytes([n]) * 32, seller.key_digest, 0.0, 0)
                    for seller in KEYS for n in range(20)
                ]
            self.requesters.append(twins)
        genesis = self.chain.blocks[0].transactions[0]
        # Unspent coins, confirmed or pending: outpoint -> (value, owner).
        self.coins = {(txid(genesis), i): (out.value, KEYS[i % 4])
                      for i, out in enumerate(genesis.outputs)}
        self.pending: list[tuple[Transaction, int]] = []  # (tx, fee) for the next block

    def pay(self, draw) -> None:
        """A tx spending 1-2 coins, maybe pending ones, to 1-3 outputs."""
        if not self.coins:
            return
        picks = draw(st.permutations(sorted(self.coins)))[:draw(st.integers(1, 2))]
        values, owners = zip(*(self.coins.pop(op) for op in picks))
        total_in = sum(values)
        fee = min(draw(st.sampled_from((0, 10))), total_in)
        to = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
        share = (total_in - fee) // len(to)
        values = [share] * (len(to) - 1) + [total_in - fee - share * (len(to) - 1)]
        outputs = tuple(
            TxOutput(v, PayToKeyHash(KEYS[k].key_digest),
                     draw(st.sampled_from((None, DATUMS[k], DATUMS[(k + 1) % 4]))))
            for v, k in zip(values, to)
        )
        tx = Transaction(tuple(TxInput(*op) for op in picks), outputs)
        tx = sign_inputs(tx, *dict.fromkeys(owners))
        for i, (value, k) in enumerate(zip(values, to)):
            self.coins[(txid(tx), i)] = (value, KEYS[k])
        self.pending.append((tx, fee))

    def apply(self, n: int, extra_fee: int = 0):
        """Apply a block of the first ``n`` pending txs."""
        block = next_block(self.chain, [tx for tx, _ in self.pending[:n]],
                           sum(fee for _, fee in self.pending[:n]) + extra_fee)
        self.chain.apply_block(block)
        return block

    def failed_deliveries(self, requester) -> list[dict]:
        """The requester's ``delivery_failed`` events, less its id."""
        return [{k: v for k, v in e.items() if k != "requester"} for e in self.sim.events_log
                if e["kind"] == "delivery_failed" and e["requester"] == requester.actor_id]

    def check(self) -> None:
        for block in self.chain.blocks:
            for kp in KEYS:
                assert [txid(t) for t in self.chain.txs_touching(block, kp.key_digest)] == [
                    txid(t) for t in touching_by_rescan(self.chain, block, kp.key_digest)
                ]
        for wallet, twin in self.wallets:
            assert wallet.utxos == twin.utxos
        for sensor, twin in self.sensors:
            assert sensor._pending == twin._pending
        for requester, twin in self.requesters:
            assert requester.deliveries == twin.deliveries
            assert self.failed_deliveries(requester) == self.failed_deliveries(twin)
            assert requester.outstanding == twin.outstanding


ACTIONS = ("pay", "pay", "pay", "mine", "bad")


@settings(max_examples=40)
@given(st.data())
def test_followers_match_a_full_block_scan(data):
    draw = data.draw
    market = Market()
    market.check()
    for action in draw(st.lists(st.sampled_from(ACTIONS), min_size=4, max_size=24)):
        if action == "pay":
            market.pay(draw)
            continue
        n = len(market.pending)
        if action == "bad":
            # A block that fails to apply leaves nothing behind in the index.
            if n:
                with pytest.raises(InvalidTxInBlock):
                    market.apply(n, extra_fee=1)
        else:
            block = market.apply(n)
            market.pending = market.pending[n:]
            market.node.deliver_block(block)
        market.check()
