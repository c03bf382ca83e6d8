"""Shared fixtures and helpers for the test suite."""

import hashlib

import pytest
from hypothesis import settings

from sensormarket import crypto
from sensormarket.ledger import (
    Block,
    Chain,
    PayToKeyHash,
    Transaction,
    TxOutput,
    block_hash,
)
from sensormarket.simnet import SimConfig, Simulation
from sensormarket.wallet import Wallet

# Crypto-heavy examples can take longer than Hypothesis's default 200 ms
# deadline on a slow runner, and a failing example must repeat on every run.
settings.register_profile("sensormarket", deadline=None, derandomize=True)
settings.load_profile("sensormarket")


def seed_bytes(i: int) -> bytes:
    return hashlib.sha256(b"test-seed-%d" % i).digest()


def make_keypair(i: int) -> crypto.KeyPair:
    return crypto.generate_keypair(seed_bytes(i))


def genesis_tx(*outputs: tuple[crypto.KeyPair, int]) -> Transaction:
    """A mint transaction paying each (keypair, value)."""
    return Transaction(
        inputs=(),
        outputs=tuple(TxOutput(v, PayToKeyHash(kp.key_digest)) for kp, v in outputs),
    )


def make_chain(*outputs: tuple[crypto.KeyPair, int]) -> Chain:
    return Chain((genesis_tx(*outputs),))


def next_block(chain: Chain, txs, fee_reward: int, timestamp: float = None) -> Block:
    if timestamp is None:
        timestamp = chain.tip.timestamp + 600.0
    return Block(
        height=chain.height + 1,
        prev_block_hash=block_hash(chain.tip),
        timestamp=timestamp,
        transactions=tuple(txs),
        fee_reward=fee_reward,
    )


def mine(chain: Chain, txs, fee_reward: int) -> Block:
    block = next_block(chain, txs, fee_reward)
    chain.apply_block(block)
    return block


def make_sim(fundings: list[tuple[crypto.KeyPair, int]], **config_kwargs) -> Simulation:
    config_kwargs.setdefault("rng_seed", 7)
    config_kwargs.setdefault("mean_block_interval_s", 60.0)
    config = SimConfig(**config_kwargs)
    return Simulation(config, (genesis_tx(*fundings),))


def run_blocks(sim: Simulation, n: int, step: float = None) -> None:
    """Advance simulated time until at least n more blocks exist."""
    target = sim.chain.height + n
    step = step or sim.config.mean_block_interval_s
    guard = 0
    while sim.chain.height < target:
        sim.run_until(sim.clock + step)
        guard += 1
        assert guard < 10_000, "block production stalled"


@pytest.fixture
def keys():
    return [make_keypair(i) for i in range(6)]
