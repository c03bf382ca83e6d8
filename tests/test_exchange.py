"""The two-transaction datum purchase flow."""

from collections import Counter

import pytest

from sensormarket import exchange
from sensormarket.datastore import Store
from sensormarket.errors import NoSensorFunds
from sensormarket.exchange import MARKER_VALUE, RequesterActor, SensorActor
from sensormarket.ledger import PayToKeyHash, TxOutput, first_signer, txid
from sensormarket.wallet import Wallet

from conftest import make_keypair, make_sim, run_blocks


PRICE = 100
FEE = 50  # SimConfig.default_fee


def setup_pair(req_funds=100_000, sensor_funds=5_000, datum=b"pm25=12.5",
               stores=None, default_fee=FEE, **sensor_kwargs):
    req_kp, sensor_kp = make_keypair(20), make_keypair(21)
    sim = make_sim(
        [(req_kp, req_funds), (sensor_kp, sensor_funds)],
        num_nodes=2, default_fee=default_fee,
    )
    sensor = SensorActor(
        Wallet(sensor_kp, sim.nodes[1]), PRICE, datum,
        stores=stores, **sensor_kwargs,
    )
    requester = RequesterActor(
        Wallet(req_kp, sim.nodes[0]), stores=stores,
    )
    return sim, requester, sensor


def delivery_tags(sim, sensor):
    """The datum payload tag of each delivery the sensor put on chain, in chain
    order: 0x01 inline, 0x02 anchored."""
    return [out.payload[0] for block in sim.chain.blocks for tx in block.transactions
            if first_signer(tx) == sensor.wallet.keypair.public_key
            for out in tx.outputs if out.payload and out.payload[0] in (0x01, 0x02)]


def failed_deliveries(sim):
    return [e["error"] for e in sim.events_log if e["kind"] == "delivery_failed"]


def test_happy_path_two_transactions():
    sim, requester, sensor = setup_pair()
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 8)
    assert len(requester.deliveries) == 1
    d = requester.deliveries[0]
    assert d.plaintext == b"pm25=12.5"
    assert d.latency_blocks >= 1  # delivery can only follow the confirmed payment
    assert not requester.outstanding
    # Exactly two transactions ever touch the chain.
    assert sum(len(b.transactions) for b in sim.chain.blocks[1:]) == 2


def test_balances_after_exchange():
    sim, requester, sensor = setup_pair()
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 8)
    assert requester.wallet.balance == 100_000 - PRICE - FEE + MARKER_VALUE
    assert sensor.wallet.balance == 5_000 + PRICE - FEE - MARKER_VALUE
    assert sum(b.fee_reward for b in sim.chain.blocks) == 2 * FEE


def test_underpayment_is_flagged_not_fulfilled():
    sim, requester, sensor = setup_pair()
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE, amount=PRICE - 1)
    run_blocks(sim, 8)
    assert not requester.deliveries
    assert len(requester.outstanding) == 1
    events = [e for e in sim.events_log if e["kind"] == "underpayment"]
    assert len(events) == 1 and events[0]["amount"] == PRICE - 1


def test_sequential_purchases_spend_change():
    sim, requester, sensor = setup_pair()
    for _ in range(3):
        requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 10)
    assert len(requester.deliveries) == 3
    assert requester.wallet.balance == 100_000 - 3 * (PRICE + FEE - MARKER_VALUE)


def test_confirmation_depth_delays_fulfillment():
    sim, requester, sensor = setup_pair(confirmation_depth=3)
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    pay_height = None
    run_blocks(sim, 10)
    d = requester.deliveries[0]
    assert d.latency_blocks >= 3


def test_large_datum_goes_through_datastore():
    stores = [Store(0), Store(1), Store(2)]
    datum = b"series=" + b",".join(b"%d" % i for i in range(60))
    sim, requester, sensor = setup_pair(datum=datum, stores=stores, replication=2)
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 8)
    assert requester.deliveries[0].plaintext == datum
    assert delivery_tags(sim, sensor) == [0x02]
    # Two replicas actually hold the sealed blob.
    assert sum(1 for s in stores if s.blobs) == 2


def test_small_datum_stays_inline():
    sim, requester, sensor = setup_pair()
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 8)
    assert delivery_tags(sim, sensor) == [0x01]


def test_all_replicas_corrupt_leaves_request_outstanding():
    stores = [Store(0, byzantine=True), Store(1, byzantine=True)]
    datum = b"series=" + b",".join(b"%d" % i for i in range(60))
    sim, requester, sensor = setup_pair(datum=datum, stores=stores, replication=2)
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 8)
    assert not requester.deliveries
    assert len(requester.outstanding) == 1
    assert failed_deliveries(sim) == ["AnchorMismatch"]
    # The failure is logged exactly once even as more blocks arrive.
    run_blocks(sim, 5)
    assert failed_deliveries(sim) == ["AnchorMismatch"]


def test_honest_replica_saves_the_fetch():
    stores = [Store(0, byzantine=True), Store(1)]
    datum = b"series=" + b",".join(b"%d" % i for i in range(60))
    sim, requester, sensor = setup_pair(datum=datum, stores=stores, replication=2)
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 8)
    assert requester.deliveries[0].plaintext == datum
    tampered = [e for e in sim.events_log if e["kind"] == "replica_tampered"]
    assert tampered and tampered[0]["store"] == 0


@pytest.mark.parametrize("tag", [0x01, 0x02])  # a datum's inline and anchored tags
def test_malformed_datum_payload_is_a_failed_delivery(tag):
    sim, requester, sensor = setup_pair()
    sensor.fulfill = lambda notice: None  # the payment stays pending, unanswered
    payment = requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    bogus = sensor.wallet.create_tx(
        [TxOutput(MARKER_VALUE, PayToKeyHash(requester.wallet.key_digest),
                  bytes([tag]) + b"short")],
        fee=FEE,
    )
    sim.broadcast(bogus, sim.nodes[1])
    run_blocks(sim, 4)
    assert failed_deliveries(sim) == ["MalformedTx"]
    assert [r.payment_txid for r in requester.outstanding] == [txid(payment)]
    assert not requester.deliveries


def test_broke_sensor_logs_and_keeps_running():
    # Even with the incoming payment, the sensor cannot cover a 500 fee.
    sim, requester, sensor = setup_pair(sensor_funds=10, default_fee=500)
    payment = requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 8)
    unfunded = [e for e in sim.events_log if e["kind"] == "sensor_unfunded"]
    assert unfunded and {e["payment_txid"] for e in unfunded} == {txid(payment).hex()}
    assert unfunded[0]["sensor"] == sensor.actor_id
    assert not delivery_tags(sim, sensor)
    assert [n.payment_txid for n in sensor.detect_payment()] == [txid(payment)]


def test_failed_fulfilment_stores_no_replica():
    stores = [Store(0), Store(1), Store(2)]
    datum = b"series=" + b",".join(b"%d" % i for i in range(60))
    sim, requester, sensor = setup_pair(
        sensor_funds=10, default_fee=500, datum=datum, stores=stores
    )
    sensor.fulfill = lambda notice: None  # only the calls below try the notice
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 4)
    [notice] = sensor.detect_payment()
    for _ in range(3):
        with pytest.raises(NoSensorFunds):
            SensorActor.fulfill(sensor, notice)
    assert [len(s.blobs) for s in stores] == [0, 0, 0]
    assert sensor.detect_payment() == [notice]
    run_blocks(sim, 2)
    assert not delivery_tags(sim, sensor)


def test_unrelated_payment_between_actors_is_ignored():
    sim, requester, sensor = setup_pair()
    other = make_keypair(22)
    # A plain transfer from the sensor to the requester carries no datum
    # payload and must not be taken as a delivery.
    tx = sensor.wallet.create_tx([TxOutput(200, PayToKeyHash(requester.wallet.key_digest))],
                                 fee=FEE)
    sim.broadcast(tx, sim.nodes[1])
    run_blocks(sim, 6)
    assert not requester.deliveries


# --- incremental scanning ---------------------------------------------------

def test_failed_fulfilment_is_retried_once_funded():
    sim, requester, sensor = setup_pair(sensor_funds=10, default_fee=500)
    payment = requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 8)
    assert not delivery_tags(sim, sensor)
    # The top-up funds the sensor, and is itself a payment it answers.
    top_up = requester.wallet.create_tx(
        [TxOutput(2_000, PayToKeyHash(sensor.wallet.key_digest))], fee=500)
    sim.broadcast(top_up, sim.nodes[0])
    run_blocks(sim, 8)
    # One delivery each for the payment and the top-up, and neither is still pending.
    assert len(delivery_tags(sim, sensor)) == 2
    assert not sensor.detect_payment()
    assert [d.payment_txid for d in requester.deliveries] == [txid(payment)]


def test_detect_payment_is_idempotent_until_fulfilled():
    sim, requester, sensor = setup_pair()
    sensor.fulfill = lambda notice: None  # notices stay pending until fulfilled below
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 4)
    first = sensor.detect_payment()
    assert len(first) == 2
    assert sensor.detect_payment() == first
    SensorActor.fulfill(sensor, first[0])
    assert sensor.detect_payment() == first[1:]


def test_sensor_built_after_confirmation_sees_the_payment():
    req_kp, sensor_kp = make_keypair(20), make_keypair(21)
    sim = make_sim([(req_kp, 100_000), (sensor_kp, 5_000)], num_nodes=2)
    requester = RequesterActor(Wallet(req_kp, sim.nodes[0]))
    payment = requester.initiate_purchase(sensor_kp.key_digest, PRICE)
    run_blocks(sim, 4)
    assert sim.chain.confirmations(txid(payment)) >= 3
    sensor = SensorActor(Wallet(sensor_kp, sim.nodes[1]), PRICE, b"late")
    # Built on a chain where the payment is deep, it answers the payment at once.
    assert not sensor.detect_payment()
    [delivery] = [entry.tx for entry in sim.nodes[1].mempool.entries.values()]
    assert first_signer(delivery) == sensor_kp.public_key
    run_blocks(sim, 4)
    assert [(d.payment_txid, d.delivery_txid, d.plaintext) for d in requester.deliveries] == [
        (txid(payment), txid(delivery), b"late")]


def test_each_confirmed_tx_is_examined_once_per_actor(monkeypatch):
    seen = Counter()

    def counting_txid(tx):
        tid = txid(tx)
        seen[tid] += 1
        return tid

    monkeypatch.setattr(exchange, "txid", counting_txid)
    sim, requester, sensor = setup_pair()
    for _ in range(3):
        requester.initiate_purchase(sensor.wallet.key_digest, PRICE)
    run_blocks(sim, 12)
    assert len(requester.deliveries) == 3
    confirmed = [txid(tx) for b in sim.chain.blocks[1:] for tx in b.transactions]
    assert len(confirmed) == 6
    # One look by each of the two actors, plus one when the tx was built.
    assert all(seen[tid] <= 3 for tid in confirmed), seen
