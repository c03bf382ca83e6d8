"""Fee-prioritized mempool and greedy block template selection.

First-seen wins: a transaction conflicting with a pool member is rejected.
Unconfirmed chains are allowed — a transaction may spend outputs of another
pool member, and block selection always places the parent first.

Two indices keep upkeep proportional to what changed, not to the pool:

* ``spent_by`` maps each outpoint a member spends to that member.  First-seen
  admission makes it exact: every input of every member is in it, mapped to
  that member, and no two members spend one outpoint.  So the spenders of a
  tx's outputs are ``spent_by[(txid, i)]``, and a block template can release
  a child when its last unconfirmed parent is picked.
* ``created`` maps each outpoint a member creates to its output.

A member is stale when one of its inputs is neither in ``chain.utxo`` nor in
``created``.  Only two events can make a member stale: a block spending an
outpoint it spends, and the removal of a member whose output it spends.  The
chain only grows, and ``_checked_height`` is the last height whose blocks
have been checked, so ``drop_confirmed`` removes just the members confirmed
above it, then tests the holders of outpoints spent there and the spenders
of what it removes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import Conflict
from .ledger import (
    Chain,
    Transaction,
    TxOutput,
    UtxoView,
    tx_size,
    txid,
    validate_transaction,
)


@dataclass
class MempoolEntry:
    tx: Transaction
    txid: bytes
    fee: int
    size: int

    @property
    def fee_rate(self) -> float:
        return self.fee / self.size


class Mempool:
    def __init__(self) -> None:
        self.entries: dict[bytes, MempoolEntry] = {}
        self.spent_by: dict[tuple[bytes, int], bytes] = {}  # outpoint -> txid
        self.created: dict[tuple[bytes, int], TxOutput] = {}
        self._checked_height = 0  # chain blocks up to here have been checked

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, tid: bytes) -> bool:
        return tid in self.entries

    def insert(self, tx: Transaction, chain: Chain) -> MempoolEntry:
        """Validate against the next block height and admit, or raise."""
        tid = txid(tx)
        if tid in self.entries:
            return self.entries[tid]
        for inp in tx.inputs:
            holder = self.spent_by.get(inp.outpoint)
            if holder is not None:
                raise Conflict(
                    f"outpoint already spent by first-seen tx {holder.hex()[:16]}"
                )
        height = chain.height + 1
        fee = validate_transaction(tx, UtxoView(chain.utxo, self.spent_by, self.created), height)
        entry = MempoolEntry(tx=tx, txid=tid, fee=fee, size=tx_size(tx))
        self.entries[tid] = entry
        for inp in tx.inputs:
            self.spent_by[inp.outpoint] = tid
        for i, out in enumerate(tx.outputs):
            self.created[(tid, i)] = out
        return entry

    def remove(self, tid: bytes) -> list[bytes]:
        """Remove an entry; return the members that spent its outputs."""
        entry = self.entries.pop(tid, None)
        if entry is None:
            return []
        for inp in entry.tx.inputs:
            if self.spent_by.get(inp.outpoint) == tid:
                del self.spent_by[inp.outpoint]
        spenders = []
        for i in range(len(entry.tx.outputs)):
            self.created.pop((tid, i), None)
            spender = self.spent_by.get((tid, i))
            if spender is not None:
                spenders.append(spender)
        return spenders

    def drop_confirmed(self, chain: Chain) -> None:
        """Remove the transactions of every chain block above ``_checked_height``,
        then evict entries whose inputs are no longer satisfiable (conflicts
        and orphaned descendants).

        A node hears of a block after the chain applied it, and maybe of more
        than one, so every block it has not checked is scanned.
        """
        suspects: list[bytes] = []
        for block in chain.blocks[self._checked_height + 1:]:
            for tx in block.transactions:
                suspects += self.remove(txid(tx))
                for inp in tx.inputs:
                    holder = self.spent_by.get(inp.outpoint)
                    if holder is not None:
                        suspects.append(holder)
        self._checked_height = chain.height
        utxo, created = chain.utxo, self.created
        while suspects:
            entry = self.entries.get(suspects.pop())
            if entry is not None and any(
                inp.outpoint not in utxo and inp.outpoint not in created
                for inp in entry.tx.inputs
            ):
                suspects += self.remove(entry.txid)

    def select_for_block(self, max_block_size: int, chain: Chain) -> list[Transaction]:
        """Greedy by descending fee rate, ties by ascending txid.

        A transaction is eligible once all of its inputs are confirmed or
        provided by an already-selected pool member, so parents always come
        before their children.  The heap holds the eligible entries; a child
        waits on its count of inputs not in ``chain.utxo`` and is pushed when
        the last of their pool parents is picked.  An entry popped too big
        for the space left is dropped for good, as the space only shrinks.
        """
        utxo = chain.utxo
        heap: list[tuple[float, bytes]] = []
        missing: dict[bytes, int] = {}
        for entry in self.entries.values():
            count = sum(1 for inp in entry.tx.inputs if inp.outpoint not in utxo)
            if count:
                missing[entry.txid] = count
            else:
                heap.append((-entry.fee_rate, entry.txid))
        heapq.heapify(heap)
        selected: list[Transaction] = []
        remaining = max_block_size
        while heap:
            pick = self.entries[heapq.heappop(heap)[1]]
            if pick.size > remaining:
                continue
            selected.append(pick.tx)
            remaining -= pick.size
            for i in range(len(pick.tx.outputs)):
                child = self.spent_by.get((pick.txid, i))
                if child in missing:
                    missing[child] -= 1
                    if not missing[child]:
                        del missing[child]
                        child_entry = self.entries[child]
                        heapq.heappush(heap, (-child_entry.fee_rate, child))
        return selected
