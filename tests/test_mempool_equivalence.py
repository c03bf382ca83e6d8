"""The indexed mempool upkeep against the full-rescan code it replaced.

``RescanMempool`` keeps the earlier ``select_for_block`` (restart from the
top of the sorted pool after every pick) and ``drop_confirmed`` (rescan the
whole pool until nothing is stale, which also drops the confirmed members:
their inputs are spent).  Generated histories drive a node-0 and a
node-1 pool of each kind side by side; after every step the selections and
the surviving entries must be the same.
"""

from typing import Optional

from hypothesis import given, settings, strategies as st

from sensormarket.errors import ValidationError
from sensormarket.ledger import PayToKeyHash, Transaction, TxInput, TxOutput, txid
from sensormarket.mempool import Mempool, MempoolEntry
from sensormarket.wallet import sign_inputs

from conftest import make_chain, make_keypair, next_block


A = make_keypair(0)
FEES = (0, 10, 20, 40)  # few distinct rates, so ties fall to the txid order


class RescanMempool(Mempool):
    def drop_confirmed(self, chain):
        while True:
            stale = [
                e.txid
                for e in self.entries.values()
                if any(
                    inp.outpoint not in chain.utxo and inp.outpoint not in self.created
                    for inp in e.tx.inputs
                )
            ]
            if not stale:
                break
            for tid in stale:
                self.remove(tid)

    def select_for_block(self, max_block_size, chain):
        selected: list[MempoolEntry] = []
        selected_ids: set[bytes] = set()
        provided: set[tuple[bytes, int]] = set()
        remaining = max_block_size
        candidates = sorted(self.entries.values(), key=lambda e: (-e.fee_rate, e.txid))
        while True:
            pick: Optional[MempoolEntry] = None
            for entry in candidates:
                if entry.txid in selected_ids or entry.size > remaining:
                    continue
                ok = all(
                    inp.outpoint in chain.utxo or inp.outpoint in provided
                    for inp in entry.tx.inputs
                )
                if ok:
                    pick = entry
                    break
            if pick is None:
                break
            selected.append(pick)
            selected_ids.add(pick.txid)
            remaining -= pick.size
            for i in range(len(pick.tx.outputs)):
                provided.add((pick.txid, i))
        return [e.tx for e in selected]


class PoolPair:
    """A pool under test and its reference twin, fed the same inputs."""

    def __init__(self):
        self.pool, self.ref = Mempool(), RescanMempool()

    def insert(self, tx, chain) -> Optional[str]:
        outcomes = []
        for pool in (self.pool, self.ref):
            try:
                pool.insert(tx, chain)
                outcomes.append(None)
            except ValidationError as exc:
                outcomes.append(type(exc).__name__)
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def select(self, cap, chain) -> list[Transaction]:
        picked = self.pool.select_for_block(cap, chain)
        assert [txid(t) for t in picked] == [
            txid(t) for t in self.ref.select_for_block(cap, chain)
        ]
        return picked

    def deliver(self, chain) -> None:
        self.pool.drop_confirmed(chain)
        self.ref.drop_confirmed(chain)
        self.check()

    def check(self) -> None:
        assert list(self.pool.entries) == list(self.ref.entries)
        assert self.pool.spent_by == self.ref.spent_by
        assert self.pool.created == self.ref.created


def value_of(outpoint, chain, pool) -> int:
    return (chain.utxo.get(outpoint) or pool.created[outpoint]).value


def spend(draw, outpoints, chain, pool) -> Transaction:
    """A signed tx spending 1–2 of ``outpoints`` into 1–3 outputs."""
    n_in = draw(st.integers(1, min(2, len(outpoints))))
    picks = draw(st.permutations(outpoints))[:n_in]
    total = sum(value_of(op, chain, pool) for op in picks) - draw(st.sampled_from(FEES))
    n_out = draw(st.integers(1, 3))
    values = [total // n_out] * (n_out - 1) + [total - (total // n_out) * (n_out - 1)]
    tx = Transaction(
        inputs=tuple(TxInput(*op) for op in picks),
        outputs=tuple(TxOutput(v, PayToKeyHash(A.key_digest)) for v in values),
    )
    return sign_inputs(tx, A)


ACTIONS = ("tx", "tx", "tx", "rival", "mine", "deliver1", "select1")


@settings(max_examples=60)
@given(st.data())
def test_indexed_upkeep_matches_full_rescan(data):
    draw = data.draw
    chain = make_chain(*[(A, 10_000)] * 6)
    node0, node1 = PoolPair(), PoolPair()
    undelivered = []  # blocks applied to the chain, not yet delivered to node 1
    for action in draw(st.lists(st.sampled_from(ACTIONS), min_size=4, max_size=24)):
        pool0 = node0.pool
        if action == "tx":
            free = [op for op, _ in chain.utxo.items() if op not in pool0.spent_by]
            free += [op for op in pool0.created if op not in pool0.spent_by]
            if not free:
                continue
            tx = spend(draw, free, chain, pool0)
            assert node0.insert(tx, chain) is None
            if draw(st.booleans()):
                node1.insert(tx, chain)
        elif action == "rival":
            # A different spend of a confirmed coin that node 0 already saw
            # spent: node 1 sees it first, maybe with a child of its own.
            contested = [op for op, _ in chain.utxo.items() if op in pool0.spent_by]
            if not contested:
                continue
            rival = spend(draw, [draw(st.sampled_from(contested))], chain, pool0)
            if node1.insert(rival, chain) is None and draw(st.booleans()):
                child = spend(draw, [(txid(rival), 0)], chain, node1.pool)
                node1.insert(child, chain)
        elif action == "mine":
            txs = node0.select(draw(st.integers(0, 2_000)), chain)
            fees = sum(pool0.entries[txid(t)].fee for t in txs)
            block = next_block(chain, txs, fees)
            chain.apply_block(block)
            node0.deliver(chain)
            undelivered.append(block)
        elif action == "deliver1" and undelivered:
            undelivered.pop(0)
            node1.deliver(chain)
        elif action == "select1":
            node1.select(draw(st.integers(0, 2_000)), chain)
        node0.check()
        node1.check()
    for _ in undelivered:
        node1.deliver(chain)
    node1.select(1_000_000, chain)
