"""Deterministic discrete-event simulation of a small ledger network.

One seeded RNG is split per-subsystem by fixed labels so that adding an actor
never perturbs unrelated draws.  A single designated producer (node 0) builds
blocks at exponentially distributed intervals; there are no forks.  Simulated
time only — wall clock is never consulted.

Each node has one hook list, ``Node.on_block``, run in registration order at
every delivered block.  ``follow``, ``retry`` and ``when_confirmed`` are built
on it; nothing else that reacts to blocks keeps a list or a scan of its own.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ValidationError
from .ledger import Block, Chain, Transaction, block_hash, txid
from .mempool import Mempool


@dataclass
class SimConfig:
    rng_seed: int = 1
    mean_block_interval_s: float = 600.0
    propagation_delay_s: float = 1.0
    max_block_size: int = 1_000_000
    num_nodes: int = 2
    default_fee: int = 50  # flat voluntary fee actors attach per transaction

    def __post_init__(self) -> None:
        if not 0 <= self.rng_seed < 2**64:  # Simulation.rng packs it in 8 bytes
            raise ValueError("rng_seed must lie in [0, 2**64)")
        if not 0 < self.mean_block_interval_s < float("inf"):
            raise ValueError("mean_block_interval_s must be positive and finite")
        if not 0 <= self.propagation_delay_s < float("inf"):  # NaN would stall the event loop
            raise ValueError("propagation_delay_s must be non-negative and finite")
        if self.num_nodes < 1:
            raise ValueError("need at least one node")
        if self.max_block_size < 1:  # else every block is empty
            raise ValueError("max_block_size must be at least 1")
        if self.default_fee < 0:  # nodes reject a negative fee
            raise ValueError("default_fee must not be negative")


def next_block_delay(rng: random.Random, mean: float) -> float:
    """Exponentially distributed inter-block time with the given mean."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    return rng.expovariate(1.0 / mean)


class Node:
    """A network participant holding its own mempool and chain view height."""

    def __init__(self, index: int, sim: "Simulation"):
        self.index = index
        self.sim = sim
        self.mempool = Mempool()
        self.known_height = 0
        self.on_block: list[Callable[[Block], None]] = []

    def receive_tx(self, tx: Transaction) -> bool:
        tid = None
        try:
            tid = txid(tx)
            self.mempool.insert(tx, self.sim.chain)
            return True
        except ValidationError as exc:
            # A tx that does not serialize has no txid.
            self.sim.log_event("tx_rejected", node=self.index,
                              txid=tid and tid.hex(), reason=type(exc).__name__)
            return False

    def deliver_block(self, block: Block) -> None:
        self.known_height = block.height
        self.mempool.drop_confirmed(self.sim.chain)
        for hook in list(self.on_block):
            hook(block)

    def follow(self, hook: Callable[[Block], None], depth: int = 1) -> None:
        """Call hook once per block, in height order from genesis, when the block
        has ``depth`` confirmations here; blocks already that deep pass now."""
        next_height = 0

        def step(_block: Optional[Block] = None) -> None:
            nonlocal next_height
            while next_height <= self.known_height - depth + 1:
                block = self.sim.chain.blocks[next_height]
                next_height += 1
                hook(block)

        self.on_block.append(step)
        step()

    def retry(self, attempt: Callable[[], bool]) -> None:
        """Run attempt now; while it reports failure, retry at each block."""

        def hook(_block: Optional[Block] = None) -> None:
            if attempt():
                self.on_block.remove(hook)

        self.on_block.append(hook)
        hook()

    def when_confirmed(self, tid: bytes, k: int, callback: Callable[[], None]) -> None:
        """Run callback once the tx has >= k confirmations at this node."""

        def attempt() -> bool:
            confs = self.sim.chain.confirmations(tid, as_of_height=self.known_height)
            if confs is None or confs < k:
                return False
            callback()
            return True

        self.retry(attempt)


class Simulation:
    def __init__(self, config: SimConfig, genesis_funding: tuple[Transaction, ...] = ()):
        self.config = config
        self.clock = 0.0
        # (fire_time, seq, kind, callback): seq is unique, so tuple order is
        # time, then FIFO, and never compares a kind or a callback.
        self._heap: list[tuple[float, int, str, Callable[[], None]]] = []
        self._seq = 0
        self._rngs: dict[str, random.Random] = {}
        self.chain = Chain(genesis_funding)
        self.nodes = [Node(i, self) for i in range(config.num_nodes)]
        self.producer = self.nodes[0]
        self.events_log: list[dict] = []
        self._block_rng = self.rng("block-production")
        self._schedule_next_block()

    # --- randomness ---------------------------------------------------------

    def rng(self, label: str) -> random.Random:
        stream = self._rngs.get(label)
        if stream is None:
            material = hashlib.sha256(
                self.config.rng_seed.to_bytes(8, "little") + label.encode()
            ).digest()
            stream = random.Random(int.from_bytes(material, "little"))
            self._rngs[label] = stream
        return stream

    # --- event loop ---------------------------------------------------------

    def schedule(self, at: float, kind: str, callback: Callable[[], None]) -> None:
        if at < self.clock:
            raise ValueError("cannot schedule into the past")
        heapq.heappush(self._heap, (at, self._seq, kind, callback))
        self._seq += 1

    def schedule_in(self, delay: float, kind: str, callback: Callable[[], None]) -> None:
        self.schedule(self.clock + delay, kind, callback)

    def run_until(self, t_end: float) -> None:
        if t_end < self.clock:
            raise ValueError("t_end is in the past")
        while self._heap and self._heap[0][0] <= t_end:
            self.clock, _, _, callback = heapq.heappop(self._heap)
            callback()
        self.clock = t_end

    def log_event(self, kind: str, **details) -> None:
        self.events_log.append({"kind": kind, "time": self.clock, **details})

    # --- network ------------------------------------------------------------

    def broadcast(self, tx: Transaction, origin: Node) -> None:
        origin.receive_tx(tx)
        for node in self.nodes:
            if node is origin:
                continue
            self.schedule_in(
                self.config.propagation_delay_s,
                "tx_broadcast",
                lambda n=node, t=tx: n.receive_tx(t),
            )

    # --- block production ----------------------------------------------------

    def _schedule_next_block(self) -> None:
        delay = next_block_delay(self._block_rng, self.config.mean_block_interval_s)
        self.schedule_in(delay, "block_produced", self._produce_block)

    def _produce_block(self) -> None:
        txs = tuple(
            self.producer.mempool.select_for_block(self.config.max_block_size, self.chain)
        )
        fees = sum(self.producer.mempool.entries[txid(t)].fee for t in txs)
        block = Block(
            height=self.chain.height + 1,
            prev_block_hash=block_hash(self.chain.tip),
            timestamp=self.clock,
            transactions=txs,
            fee_reward=fees,
        )
        self.chain.apply_block(block)
        self.producer.deliver_block(block)
        for node in self.nodes:
            if node is self.producer:
                continue
            self.schedule_in(
                self.config.propagation_delay_s,
                "block_delivery",
                lambda n=node, b=block: n.deliver_block(b),
            )
        self._schedule_next_block()
