"""Event loop, block production timing and network propagation."""

import random

import pytest

from sensormarket.ledger import PayToKeyHash, TxOutput, txid
from sensormarket.simnet import SimConfig, Simulation, next_block_delay
from sensormarket.wallet import Wallet

from conftest import genesis_tx, make_keypair, make_sim, run_blocks


def test_next_block_delay_mean():
    rng = random.Random(42)
    draws = [next_block_delay(rng, 600.0) for _ in range(10_000)]
    mean = sum(draws) / len(draws)
    assert 570.0 <= mean <= 630.0  # within 5% of the configured 600 s
    assert all(d > 0 for d in draws)


def test_next_block_delay_seeded_determinism():
    a = [next_block_delay(random.Random(9), 600.0) for _ in range(100)]
    b = [next_block_delay(random.Random(9), 600.0) for _ in range(100)]
    assert a == b


def test_config_validation():
    for mean in (0, -1, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            SimConfig(mean_block_interval_s=mean)
    with pytest.raises(ValueError):
        SimConfig(num_nodes=0)
    for delay in (-0.5, float("inf"), float("nan")):  # NaN would stall the event loop
        with pytest.raises(ValueError):
            SimConfig(propagation_delay_s=delay)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="rng_seed"):
            SimConfig(rng_seed=seed)
    for size in (0, -1):  # no tx would fit a block
        with pytest.raises(ValueError, match="max_block_size"):
            SimConfig(max_block_size=size)
    with pytest.raises(ValueError, match="default_fee"):
        SimConfig(default_fee=-10)
    assert SimConfig(default_fee=0, max_block_size=1).default_fee == 0


def test_labeled_rng_streams_are_stable_and_independent():
    sim1 = Simulation(SimConfig(rng_seed=5))
    sim2 = Simulation(SimConfig(rng_seed=5))
    assert sim1.rng("x").random() == sim2.rng("x").random()
    # Same stream object on repeated lookups.
    assert sim1.rng("x") is sim1.rng("x")
    sim3 = Simulation(SimConfig(rng_seed=6))
    assert sim1.rng("y").random() != sim3.rng("y").random()


def test_event_ordering_and_scheduling_rules():
    sim = Simulation(SimConfig(rng_seed=1, mean_block_interval_s=1e9))
    fired = []
    sim.schedule(5.0, "b", lambda: fired.append("b"))
    sim.schedule(5.0, "c", lambda: fired.append("c"))  # same time: FIFO by seq
    sim.schedule(1.0, "a", lambda: fired.append("a"))
    sim.run_until(10.0)
    assert fired == ["a", "b", "c"]
    assert sim.clock == 10.0
    with pytest.raises(ValueError):
        sim.schedule(5.0, "past", lambda: None)
    with pytest.raises(ValueError):
        sim.run_until(5.0)


def test_blocks_are_produced_and_heights_track():
    kp = make_keypair(0)
    sim = make_sim([(kp, 10_000)], num_nodes=3, mean_block_interval_s=30.0)
    run_blocks(sim, 5)
    assert sim.chain.height >= 5
    # Non-producer nodes learn heights after the propagation delay.
    sim.run_until(sim.clock + sim.config.propagation_delay_s + 1)
    for node in sim.nodes:
        assert node.known_height == sim.chain.height


def test_broadcast_reaches_all_nodes_after_delay():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 10_000)], num_nodes=3, mean_block_interval_s=1e9, default_fee=10)
    wallet = Wallet(kp, sim.nodes[0])
    tx = wallet.create_tx([TxOutput(100, PayToKeyHash(other.key_digest))])
    sim.broadcast(tx, sim.nodes[0])
    assert txid(tx) in sim.nodes[0].mempool
    assert txid(tx) not in sim.nodes[1].mempool  # not yet delivered
    sim.run_until(sim.config.propagation_delay_s)
    for node in sim.nodes:
        assert txid(tx) in node.mempool


def test_when_confirmed_fires_once_at_depth():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 10_000)], mean_block_interval_s=30.0, default_fee=10)
    wallet = Wallet(kp, sim.nodes[0])
    tx = wallet.create_tx([TxOutput(100, PayToKeyHash(other.key_digest))])
    sim.broadcast(tx, sim.nodes[0])
    hits = []
    sim.nodes[0].when_confirmed(txid(tx), 2, lambda: hits.append(sim.chain.height))
    run_blocks(sim, 6)
    assert len(hits) == 1
    height, _ = sim.chain.tx_index[txid(tx)]
    assert hits[0] >= height + 1  # at least depth 2 when it fired
    assert sum(b.fee_reward for b in sim.chain.blocks) == 10  # the producer kept the one tx's fee


def test_when_confirmed_waits_in_the_hook_list_and_fires_once():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 10_000)], mean_block_interval_s=30.0, default_fee=10)
    node = sim.nodes[0]
    tx = Wallet(kp, node).create_tx([TxOutput(100, PayToKeyHash(other.key_digest))])
    hooks = len(node.on_block)
    waited, deep = [], []
    node.when_confirmed(txid(tx), 1, lambda: waited.append(node.known_height))
    assert len(node.on_block) == hooks + 1
    assert not hasattr(node, "_watches")
    sim.broadcast(tx, node)
    run_blocks(sim, 4)
    # Already deep enough at registration: fires at once.
    node.when_confirmed(txid(tx), 2, lambda: deep.append(node.known_height))
    assert deep == [node.known_height]
    run_blocks(sim, 3)
    assert waited == [1]
    assert len(deep) == 1
    assert len(node.on_block) == hooks


@pytest.mark.parametrize("depth", [1, 3])
def test_follow_passes_each_height_once_in_order(depth):
    sim = make_sim([(make_keypair(0), 10_000)], num_nodes=2)
    node = sim.nodes[1]  # receives blocks after a propagation delay
    seen = []
    node.follow(lambda b: seen.append(b.height), depth)
    assert seen == ([0] if depth == 1 else [])
    run_blocks(sim, 8)
    sim.run_until(sim.clock + 2 * sim.config.propagation_delay_s)
    assert node.known_height == sim.chain.height
    assert seen == list(range(node.known_height - depth + 2))


@pytest.mark.parametrize("depth", [1, 3])
def test_late_follower_receives_deep_blocks_at_once(depth):
    sim = make_sim([(make_keypair(0), 10_000)])
    run_blocks(sim, 5)
    n = sim.nodes[0].known_height
    seen = []
    sim.nodes[0].follow(lambda b: seen.append(b.height), depth)
    assert seen == list(range(n - depth + 2))
    run_blocks(sim, 1)
    assert seen == list(range(sim.nodes[0].known_height - depth + 2))


def test_block_hooks_run_in_registration_order():
    kp, other = make_keypair(0), make_keypair(1)
    sim = make_sim([(kp, 10_000)], mean_block_interval_s=30.0, default_fee=10)
    node = sim.nodes[0]
    tx = Wallet(kp, node).create_tx([TxOutput(100, PayToKeyHash(other.key_digest))])
    sim.broadcast(tx, node)
    order = []
    node.follow(lambda b: order.append("follow"))
    node.when_confirmed(txid(tx), 1, lambda: order.append("confirmed"))
    node.on_block.append(lambda b: order.append("hook"))
    node.retry(lambda: order.append("retry") is None and node.known_height >= 2)
    del order[:]
    run_blocks(sim, 3)
    # The tx confirms in block 1; the retry succeeds at block 2.
    assert order == (
        ["follow", "confirmed", "hook", "retry"]
        + ["follow", "hook", "retry"]
        + ["follow", "hook"] * (node.known_height - 2)
    )


def test_retry_unsubscribes_after_first_success():
    sim = make_sim([(make_keypair(0), 10_000)])
    node = sim.nodes[0]
    calls = []
    hooks = len(node.on_block)
    node.retry(lambda: calls.append(node.known_height) or len(calls) == 3)
    assert calls == [0]
    run_blocks(sim, 5)
    assert calls == [0, 1, 2]
    assert len(node.on_block) == hooks


def test_invalid_tx_logged_not_fatal():
    kp = make_keypair(0)
    sim = make_sim([(kp, 10_000)])
    from sensormarket.ledger import Transaction, TxInput
    ghost = Transaction(
        inputs=(TxInput(b"\x01" * 32, 0),),
        outputs=(TxOutput(1, PayToKeyHash(kp.key_digest)),),
    )
    assert sim.nodes[0].receive_tx(ghost) is False
    kinds = [e["kind"] for e in sim.events_log]
    assert "tx_rejected" in kinds


def test_same_seed_same_history():
    def history(seed):
        kp, other = make_keypair(0), make_keypair(1)
        sim = make_sim([(kp, 50_000)], rng_seed=seed, mean_block_interval_s=40.0, default_fee=10)
        wallet = Wallet(kp, sim.nodes[0])
        for i in range(5):
            sim.schedule(
                i * 100.0,
                "pay",
                lambda w=wallet, o=other: sim.broadcast(
                    w.create_tx([TxOutput(100, PayToKeyHash(o.key_digest))]), sim.nodes[0]
                ),
            )
        sim.run_until(3000.0)
        from sensormarket.ledger import block_hash
        return [block_hash(b).hex() for b in sim.chain.blocks]

    assert history(3) == history(3)
    assert history(3) != history(4)
