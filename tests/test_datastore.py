"""Replicated blob storage with digest anchors."""

import pytest
from hypothesis import given, settings, strategies as st

from sensormarket import crypto, datastore
from sensormarket.datastore import Anchor, Store, fetch, seal, store, unseal, verify_anchor
from sensormarket.errors import AnchorMismatch, MalformedTx, ReplicationUnsatisfiable
from sensormarket.ledger import MAX_PAYLOAD


def stores(n, byzantine=()):
    return [Store(i, byzantine=i in byzantine) for i in range(n)]


def test_store_and_fetch_roundtrip():
    slist = stores(3)
    anchor = store(slist, b"hello world", replication=2)
    assert anchor.blob_id == crypto.digest(b"hello world")
    assert anchor.locators == (0, 1)
    assert slist[2].blobs == {}
    assert fetch(anchor, slist) == b"hello world"


def test_replication_bounds():
    slist = stores(2)
    with pytest.raises(ReplicationUnsatisfiable):
        store(slist, b"x", replication=3)
    with pytest.raises(ReplicationUnsatisfiable):
        store(slist, b"x", replication=0)


def test_byzantine_store_corrupts_on_put():
    slist = stores(2, byzantine={0})
    anchor = store(slist, b"data", replication=2)
    assert slist[0].get(anchor.blob_id) != b"data"
    assert slist[1].get(anchor.blob_id) == b"data"


def test_fetch_falls_back_past_bad_replicas():
    slist = stores(3, byzantine={0})
    anchor = store(slist, b"data", replication=3)
    tampered = []
    assert fetch(anchor, slist, on_tamper=tampered.append) == b"data"
    assert tampered == [0]


def test_fetch_skips_missing_stores():
    slist = stores(2)
    anchor = store(slist, b"data", replication=2)
    assert fetch(anchor, [slist[1]]) == b"data"  # store 0 unreachable


def test_all_replicas_bad_or_missing():
    slist = stores(2, byzantine={0, 1})
    anchor = store(slist, b"data", replication=2)
    with pytest.raises(AnchorMismatch):
        fetch(anchor, slist)
    with pytest.raises(AnchorMismatch):
        fetch(anchor, [])


def test_explicit_tamper_is_detected():
    slist = stores(1)
    anchor = store(slist, b"important", replication=1)
    slist[0].tamper(anchor.blob_id, position=3)
    with pytest.raises(AnchorMismatch):
        fetch(anchor, slist)


def test_every_single_byte_mutation_detected():
    content = b"series=0.1,0.4,0.9,1.6"
    slist = stores(1)
    anchor = store(slist, content, replication=1)
    for pos in range(len(content)):
        for flip in (0x01, 0xFF):
            mutated = bytearray(content)
            mutated[pos] ^= flip
            assert not verify_anchor(bytes(mutated), anchor)
    assert verify_anchor(content, anchor)


def test_anchor_serialization_roundtrip():
    anchor = Anchor(crypto.digest(b"x"), (3, 65535, 0))
    assert Anchor.deserialize(anchor.serialize()) == anchor
    with pytest.raises(MalformedTx):
        Anchor(crypto.digest(b"x"), tuple(range(9))).serialize()
    bad = bytes([9]) + b"\x00" * 50
    with pytest.raises(MalformedTx):
        Anchor.deserialize(bad)


def test_anchor_fits_payload_cap():
    from sensormarket.ledger import MAX_PAYLOAD
    anchor = Anchor(crypto.digest(b"x"), tuple(range(8)))
    assert 1 + len(anchor.serialize()) <= MAX_PAYLOAD  # with a one-byte marker


@settings(max_examples=100, deadline=None)
@given(
    content=st.binary(min_size=1, max_size=200),
    mutation=st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 10_000), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 10_000), st.just(0)),
        st.tuples(st.just("append"), st.integers(1, 8), st.integers(0, 255)),
    ),
)
def test_random_mutations_never_verify(content, mutation):
    anchor = Anchor(crypto.digest(content), (0,))
    kind, a, b = mutation
    if kind == "flip":
        pos = a % len(content)
        mutated = bytearray(content)
        mutated[pos] ^= b
        mutated = bytes(mutated)
    elif kind == "truncate":
        mutated = content[: a % len(content)]
    else:
        mutated = content + bytes([b] * a)
    assert verify_anchor(content, anchor)
    if mutated != content:
        assert not verify_anchor(mutated, anchor)


# --- the payload codec ------------------------------------------------------

# Each kind with its inline and anchored tag bytes, written out here so that
# these tests pin the on-chain format on their own.
TAG_PAIRS = [
    (datastore.DATUM, 0x01, 0x02),
    (datastore.REGISTER, 0x03, 0x05),
    (datastore.UPDATE, 0x04, 0x06),
]
# Lengths on both sides of the inline limit (MAX_PAYLOAD - 1 bytes) and beyond.
CONTENT = st.one_of(
    st.binary(min_size=MAX_PAYLOAD - 3, max_size=MAX_PAYLOAD + 2),
    st.binary(max_size=3 * MAX_PAYLOAD),
)


@pytest.mark.parametrize("tags", TAG_PAIRS)
@settings(max_examples=150, deadline=None)
@given(content=CONTENT, n_stores=st.integers(0, 4), replication=st.integers(1, 3))
def test_seal_then_unseal_gives_the_content(tags, content, n_stores, replication):
    payload_kind, inline_tag, anchored_tag = tags
    slist = stores(n_stores)
    inline = 1 + len(content) <= MAX_PAYLOAD
    if not inline and replication > n_stores:
        with pytest.raises(ReplicationUnsatisfiable):
            seal(content, payload_kind, slist, replication)
        assert all(not s.blobs for s in slist)
        return
    payload = seal(content, payload_kind, slist, replication)
    assert len(payload) <= MAX_PAYLOAD
    assert datastore.kind(payload) == payload_kind
    if inline:
        assert payload == bytes([inline_tag]) + content
        assert all(not s.blobs for s in slist)
    else:
        anchor = Anchor(crypto.digest(content), tuple(range(replication)))
        assert payload == bytes([anchored_tag]) + anchor.serialize()
    assert unseal(payload, slist) == content


def test_kind_of_any_other_payload_is_none():
    for payload in (None, b"", b"\x00", b"\x07" + b"x" * 10, b"\xff"):
        assert datastore.kind(payload) is None


@pytest.mark.parametrize("tags", TAG_PAIRS)
@settings(max_examples=50, deadline=None)
@given(content=st.binary(min_size=MAX_PAYLOAD, max_size=200), replication=st.integers(1, 3))
def test_unseal_with_every_replica_bad_is_an_anchor_mismatch(tags, content, replication):
    slist = stores(3, byzantine={0, 1, 2})
    payload = seal(content, tags[0], slist, replication)
    tampered = []
    with pytest.raises(AnchorMismatch):
        unseal(payload, slist, on_tamper=tampered.append)
    assert tampered == list(range(replication))
