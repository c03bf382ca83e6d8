"""On-chain sensor name registry."""

import pytest

from sensormarket.datastore import Store
from sensormarket.errors import MalformedTx, ReplicationUnsatisfiable, UnknownName
from sensormarket.ledger import PayToKeyHash, TxOutput, txid
from sensormarket.registry import (
    MAX_NAME_LEN,
    Registry,
    SensorRecord,
    register_sensor,
    update_record,
)
from sensormarket.wallet import Wallet

from conftest import make_keypair, make_sim, run_blocks


def record_for(kp, name, data_type="weather", price=100, endpoint="inline"):
    return SensorRecord(
        name=name,
        owner_key_digest=kp.key_digest,
        payment_digest=kp.key_digest,
        data_type=data_type,
        price_per_datum=price,
        endpoint=endpoint,
    )


def registry_setup(n_actors=3):
    kps = [make_keypair(100 + i) for i in range(n_actors)]
    sim = make_sim([(kp, 10_000) for kp in kps], num_nodes=2)
    registry = Registry()
    sim.nodes[0].follow(registry.apply_block)
    wallets = [Wallet(kp, sim.nodes[0]) for kp in kps]
    return sim, registry, kps, wallets


def test_record_serialization_roundtrip():
    kp, other = make_keypair(100), make_keypair(101)
    plain = record_for(kp, "city_weather")
    assert SensorRecord.deserialize(plain.serialize()) == plain
    distinct = SensorRecord(
        "station", kp.key_digest, other.key_digest, "air", 7, "store:3"
    )
    assert SensorRecord.deserialize(distinct.serialize()) == distinct


def test_name_length_cap():
    kp = make_keypair(100)
    with pytest.raises(MalformedTx):
        record_for(kp, "x" * (MAX_NAME_LEN + 1)).serialize()


def _non_utf8_name(record):
    """The record's bytes with its name replaced by bytes that are not UTF-8."""
    data = record.serialize()
    name = record.name.encode()
    assert data[2:2 + len(name)] == name
    return data[:2] + b"\xff" * len(name) + data[2 + len(name):]


def test_non_utf8_name_is_malformed():
    with pytest.raises(MalformedTx):
        SensorRecord.deserialize(_non_utf8_name(record_for(make_keypair(100), "abc")))


def test_registration_with_non_utf8_name_is_not_indexed():
    sim, registry, kps, wallets = registry_setup()
    data = b"\x03" + _non_utf8_name(record_for(kps[0], "abc"))  # an inline registration
    tx = wallets[0].create_tx([TxOutput(0, PayToKeyHash(kps[0].key_digest), data)], fee=50)
    sim.broadcast(tx, sim.nodes[0])
    register_sensor(wallets[1], record_for(kps[1], "valid"))
    run_blocks(sim, 3)
    assert txid(tx) in sim.chain.tx_index
    assert list(registry.index) == ["valid"]


def test_register_and_lookup():
    sim, registry, kps, wallets = registry_setup()
    with pytest.raises(UnknownName):
        registry.lookup("city_weather")
    register_sensor(wallets[0], record_for(kps[0], "city_weather"))
    run_blocks(sim, 2)
    record = registry.lookup("city_weather")
    assert record.owner_key_digest == kps[0].key_digest
    assert record.price_per_datum == 100


def test_same_block_collision_lower_txid_wins():
    sim, registry, kps, wallets = registry_setup()
    t0 = register_sensor(wallets[0], record_for(kps[0], "shared"))
    t1 = register_sensor(wallets[1], record_for(kps[1], "shared"))
    run_blocks(sim, 2)
    winner = min([t0, t1], key=txid)
    entry = registry.index["shared"]
    assert entry.registration_txid == txid(winner)
    # Both registrations landed in the same block, so the rule really fired.
    assert sim.chain.tx_index[txid(t0)][0] == sim.chain.tx_index[txid(t1)][0]


def test_earlier_block_beats_later_registration():
    sim, registry, kps, wallets = registry_setup()
    register_sensor(wallets[0], record_for(kps[0], "shared"))
    run_blocks(sim, 2)
    register_sensor(wallets[1], record_for(kps[1], "shared"))
    run_blocks(sim, 2)
    assert registry.lookup("shared").owner_key_digest == kps[0].key_digest


def test_registration_with_foreign_owner_ignored():
    sim, registry, kps, wallets = registry_setup()
    # Wallet 0 signs a record claiming wallet 1 as owner: not honored.
    bogus = record_for(kps[1], "stolen")
    register_sensor(wallets[0], bogus)
    run_blocks(sim, 2)
    with pytest.raises(UnknownName):
        registry.lookup("stolen")


def test_owner_update_applies():
    sim, registry, kps, wallets = registry_setup()
    register_sensor(wallets[0], record_for(kps[0], "s"))
    run_blocks(sim, 2)
    update_record(wallets[0], record_for(kps[0], "s", price=150))
    run_blocks(sim, 2)
    assert registry.lookup("s").price_per_datum == 150


def test_non_owner_update_ignored():
    sim, registry, kps, wallets = registry_setup()
    register_sensor(wallets[0], record_for(kps[0], "s"))
    run_blocks(sim, 2)
    update_record(wallets[1], record_for(kps[0], "s", price=1))
    run_blocks(sim, 2)
    assert registry.lookup("s").price_per_datum == 100


def test_ownership_transfer_ignored():
    sim, registry, kps, wallets = registry_setup()
    register_sensor(wallets[0], record_for(kps[0], "s"))
    run_blocks(sim, 2)
    update_record(wallets[0], record_for(kps[1], "s"))
    run_blocks(sim, 2)
    assert registry.lookup("s").owner_key_digest == kps[0].key_digest


def test_update_before_registration_ignored():
    sim, registry, kps, wallets = registry_setup()
    update_record(wallets[0], record_for(kps[0], "ghost"))
    run_blocks(sim, 2)
    with pytest.raises(UnknownName):
        registry.lookup("ghost")


def test_rescan_matches_incremental_index():
    sim, registry, kps, wallets = registry_setup()
    register_sensor(wallets[0], record_for(kps[0], "a"))
    register_sensor(wallets[1], record_for(kps[1], "b"))
    run_blocks(sim, 2)
    update_record(wallets[0], record_for(kps[0], "a", price=7))
    run_blocks(sim, 2)
    rescanned = Registry.rescan(sim.chain)
    assert rescanned.dump() == registry.dump()


def test_oversized_record_uses_datastore_anchor():
    sim, registry_plain, kps, wallets = registry_setup()
    stores = [Store(0), Store(1)]
    registry = Registry(stores)
    sim.nodes[0].follow(registry.apply_block)
    big = record_for(kps[0], "verbose", endpoint="x" * 120)
    with pytest.raises(ReplicationUnsatisfiable):
        register_sensor(wallets[0], big)  # no stores given
    register_sensor(wallets[0], big, stores=stores)
    run_blocks(sim, 2)
    assert registry.lookup("verbose").endpoint == "x" * 120
    # A registry without datastore access cannot resolve the anchor.
    with pytest.raises(UnknownName):
        registry_plain.lookup("verbose")


def test_oversized_record_with_fewer_stores_than_replication_is_too_large():
    sim, _, kps, wallets = registry_setup()
    stores = [Store(0)]
    big = record_for(kps[0], "verbose", endpoint="x" * 120)
    with pytest.raises(ReplicationUnsatisfiable, match="replication 2 exceeds 1 stores"):
        register_sensor(wallets[0], big, stores=stores, replication=2)
    assert stores[0].blobs == {}
    assert wallets[0].balance == 10_000  # nothing was built or broadcast
