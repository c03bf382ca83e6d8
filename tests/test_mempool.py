"""Mempool admission, conflict policy and greedy block selection."""

import random

import pytest

from sensormarket.errors import Conflict, MissingUtxo
from sensormarket.ledger import (
    PayToKeyHash,
    Transaction,
    TxInput,
    TxOutput,
    tx_size,
    txid,
)
from sensormarket.mempool import Mempool
from sensormarket.wallet import sign_inputs

from conftest import make_chain, make_keypair, mine


A, B = make_keypair(0), make_keypair(1)


def funded_chain(n_outputs, value=1000):
    return make_chain(*[(A, value)] * n_outputs)


def outpoints(chain):
    tid = txid(chain.blocks[0].transactions[0])
    return [(tid, i) for i in range(len(chain.blocks[0].transactions[0].outputs))]


def simple_spend(outpoint, fee, value=1000, signer=A, to=None):
    tx = Transaction(
        inputs=(TxInput(*outpoint),),
        outputs=(TxOutput(value - fee, PayToKeyHash((to or B).key_digest)),),
    )
    return sign_inputs(tx, signer)


def test_insert_and_contains():
    chain = funded_chain(1)
    pool = Mempool()
    tx = simple_spend(outpoints(chain)[0], fee=10)
    entry = pool.insert(tx, chain)
    assert entry.fee == 10
    assert txid(tx) in pool
    assert len(pool) == 1
    # Re-inserting the same tx is a no-op, not a conflict.
    assert pool.insert(tx, chain) is entry


def test_first_seen_wins():
    chain = funded_chain(1)
    pool = Mempool()
    op = outpoints(chain)[0]
    pool.insert(simple_spend(op, fee=1), chain)
    with pytest.raises(Conflict):
        pool.insert(simple_spend(op, fee=500), chain)  # higher fee does not evict


def test_invalid_tx_rejected():
    chain = funded_chain(1)
    pool = Mempool()
    ghost = simple_spend((b"\xee" * 32, 0), fee=10)
    with pytest.raises(MissingUtxo):
        pool.insert(ghost, chain)
    assert len(pool) == 0


def test_unconfirmed_chaining_allowed():
    chain = funded_chain(1)
    pool = Mempool()
    parent = simple_spend(outpoints(chain)[0], fee=10)
    child = simple_spend((txid(parent), 0), fee=10, value=990, signer=B, to=A)
    pool.insert(parent, chain)
    pool.insert(child, chain)
    assert len(pool) == 2


def test_fee_priority_cap_fits_two():
    chain = funded_chain(3)
    pool = Mempool()
    fees = [5, 3, 1]
    txs = [simple_spend(op, fee=f) for op, f in zip(outpoints(chain), fees)]
    for tx in txs:
        pool.insert(tx, chain)
    cap = 2 * tx_size(txs[0])  # all three are the same size
    picked = pool.select_for_block(cap, chain)
    assert [txid(t) for t in picked] == [txid(txs[0]), txid(txs[1])]


def test_parent_selected_before_child():
    chain = funded_chain(1)
    pool = Mempool()
    parent = simple_spend(outpoints(chain)[0], fee=1)
    child = simple_spend((txid(parent), 0), fee=900, value=990, signer=B, to=A)
    pool.insert(parent, chain)
    pool.insert(child, chain)
    # Cap fits only one transaction: the high-fee child is ineligible until
    # the parent is in, so the parent goes alone.
    picked = pool.select_for_block(tx_size(parent), chain)
    assert [txid(t) for t in picked] == [txid(parent)]
    # With room for both, the parent still precedes the child.
    picked = pool.select_for_block(10_000, chain)
    assert [txid(t) for t in picked] == [txid(parent), txid(child)]


def test_drop_confirmed_evicts_conflicts_and_orphans():
    chain = funded_chain(2)
    pool = Mempool()
    ops = outpoints(chain)
    confirmed = simple_spend(ops[0], fee=10)
    loser = simple_spend(ops[1], fee=10)
    orphan_parent = simple_spend((txid(loser), 0), fee=10, value=990, signer=B, to=A)
    pool.insert(loser, chain)
    pool.insert(orphan_parent, chain)
    # A different spend of loser's input confirms instead.
    rival = simple_spend(ops[1], fee=20, value=1000, to=make_keypair(9))
    mine(chain, [confirmed, rival], 30)
    pool.drop_confirmed(chain)
    # loser conflicts with rival; orphan_parent's parent is gone too.
    assert len(pool) == 0


def test_selection_matches_independent_greedy():
    # 50 single-input transactions with random fees under a tight cap; the
    # reference selection is recomputed here from first principles.
    rng = random.Random(1234)
    chain = funded_chain(50)
    pool = Mempool()
    txs = []
    for op in outpoints(chain):
        tx = simple_spend(op, fee=rng.randrange(1, 200))
        txs.append(tx)
        pool.insert(tx, chain)
    size = tx_size(txs[0])
    cap = 17 * size + size // 2

    ranked = sorted(
        pool.entries.values(), key=lambda e: (-(e.fee / e.size), e.txid)
    )
    expected, budget = [], cap
    for entry in ranked:
        if entry.size <= budget:
            expected.append(entry.txid)
            budget -= entry.size
    picked = [txid(t) for t in pool.select_for_block(cap, chain)]
    assert picked == expected
    assert len(picked) == 17
