"""Keys, signatures and hybrid encryption."""

import hashlib

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from sensormarket import crypto
from sensormarket.errors import DecryptFailed, MalformedTx

from conftest import make_keypair, seed_bytes


def test_digest_is_sha256():
    # Golden value: sha256 of the empty string.
    assert crypto.digest(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert crypto.digest(b"abc") == hashlib.sha256(b"abc").digest()


def test_keypair_is_deterministic():
    a = crypto.generate_keypair(seed_bytes(1))
    b = crypto.generate_keypair(seed_bytes(1))
    assert a.public_key == b.public_key
    assert len(a.public_key) == crypto.PUBKEY_LEN
    assert a.public_key != crypto.generate_keypair(seed_bytes(2)).public_key


def test_keypair_rejects_bad_seed_length():
    with pytest.raises(ValueError):
        crypto.generate_keypair(b"short")


def test_signing_and_encryption_keys_differ():
    kp = make_keypair(1)
    assert kp.public_key[:32] != kp.public_key[32:]


def test_thousand_seeds_give_distinct_key_digests():
    digests = {make_keypair(i).key_digest for i in range(1000)}
    assert len(digests) == 1000


def test_sign_verify_roundtrip():
    kp = make_keypair(6)
    msg = b"pay 100 to the weather station"
    sig = crypto.sign(kp, msg)
    assert len(sig) == 64
    assert crypto.verify(kp.public_key, msg, sig)
    # Deterministic signatures (Ed25519).
    assert crypto.sign(kp, msg) == sig


def test_verify_rejects_any_corruption():
    kp = make_keypair(7)
    msg = b"datum payload"
    sig = crypto.sign(kp, msg)
    for pos in range(len(sig)):
        bad = bytearray(sig)
        bad[pos] ^= 0x01
        assert not crypto.verify(kp.public_key, msg, bytes(bad))
    assert not crypto.verify(kp.public_key, msg + b"x", sig)
    assert not crypto.verify(make_keypair(8).public_key, msg, sig)
    assert not crypto.verify(b"\x00" * 10, msg, sig)  # malformed key


def test_encrypt_decrypt_roundtrip():
    kp = make_keypair(9)
    plaintext = b"pm25=12.5"
    envelope = crypto.encrypt_for(kp.public_key, plaintext, ephemeral_seed=seed_bytes(92))
    assert crypto.decrypt(kp, envelope) == plaintext


def test_encrypt_deterministic_with_explicit_seed():
    kp = make_keypair(10)
    e1 = crypto.encrypt_for(kp.public_key, b"data", ephemeral_seed=seed_bytes(90))
    e2 = crypto.encrypt_for(kp.public_key, b"data", ephemeral_seed=seed_bytes(90))
    assert e1 == e2
    e3 = crypto.encrypt_for(kp.public_key, b"data", ephemeral_seed=seed_bytes(91))
    assert e1 != e3


def test_decrypt_with_wrong_key_fails():
    kp, other = make_keypair(11), make_keypair(12)
    envelope = crypto.encrypt_for(kp.public_key, b"secret", ephemeral_seed=seed_bytes(93))
    with pytest.raises(DecryptFailed):
        crypto.decrypt(other, envelope)


def test_every_single_byte_tamper_is_detected():
    kp = make_keypair(13)
    envelope = crypto.encrypt_for(
        kp.public_key, b"series=1,2,3,4,5", ephemeral_seed=seed_bytes(95)
    )
    # Corrupting the ephemeral key yields a different (wrong) shared secret,
    # which fails AEAD authentication, or makes the point invalid outright;
    # both surface as DecryptFailed.
    for pos in range(len(envelope)):
        bad = bytearray(envelope)
        bad[pos] ^= 0x01
        with pytest.raises(DecryptFailed):
            crypto.decrypt(kp, bytes(bad))


def test_short_envelope_is_malformed():
    kp = make_keypair(14)
    envelope = crypto.encrypt_for(kp.public_key, b"x" * 100, ephemeral_seed=seed_bytes(96))
    # ephemeral key (32) || nonce (12) || tag (16) || ciphertext
    assert len(envelope) == 60 + 100
    for short in (b"\x00" * 10, envelope[:59]):
        with pytest.raises(MalformedTx):
            crypto.decrypt(kp, short)
    with pytest.raises(DecryptFailed):  # a whole header with the ciphertext cut off
        crypto.decrypt(kp, envelope[:60])


def test_envelope_bytes_are_pinned():
    # Exchange envelopes go on chain, so their bytes enter the report digests.
    envelope = crypto.encrypt_for(make_keypair(16).public_key, b"pm25=12.5",
                                  ephemeral_seed=seed_bytes(97))
    assert envelope.hex() == (
        "d08eff96778abee3eb129226645aa188b93fc08f60024c7ce19299454d55aa1c"
        "9763d83dd138feab2f959b4c9ee873cb614737efbb719ff5fbd861c8b8db5d1a"
        "8b0148fb73"
    )


def test_session_opens_what_it_sealed_under_one_agreement():
    kp = make_keypair(17)
    ephemeral_key, sender = crypto.session_to(kp.public_key, seed_bytes(98))
    receiver = crypto.session_from(kp, ephemeral_key)
    for number in (1, 2, 1_000):
        sealed = sender.seal(number, b"temp_c=%d" % number, b"channel")
        assert len(sealed) == len(b"temp_c=%d" % number) + crypto.AEAD_TAG_LEN
        assert receiver.open(number, sealed, b"channel") == b"temp_c=%d" % number
    # Same seed, same agreement: the sessions are byte-stable.
    again = crypto.session_to(kp.public_key, seed_bytes(98))
    assert again[0] == ephemeral_key
    assert again[1].seal(1, b"x", b"") == sender.seal(1, b"x", b"")


def test_session_refuses_another_key_number_or_associated_data():
    kp = make_keypair(18)
    ephemeral_key, sender = crypto.session_to(kp.public_key, seed_bytes(99))
    sealed = sender.seal(3, b"temp_c=21", b"channel")
    receiver = crypto.session_from(kp, ephemeral_key)
    stranger = crypto.session_from(make_keypair(19), ephemeral_key)
    for session, number, associated in [
        (receiver, 4, b"channel"), (receiver, 3, b"other"), (stranger, 3, b"channel"),
    ]:
        with pytest.raises(DecryptFailed):
            session.open(number, sealed, associated)
    with pytest.raises(DecryptFailed):
        crypto.session_from(kp, b"\x00" * 31)  # not an X25519 key
    with pytest.raises(MalformedTx):
        crypto.session_to(b"\x00" * 10, seed_bytes(99))


def test_empty_plaintext_rejected():
    with pytest.raises(ValueError):
        crypto.encrypt_for(make_keypair(15).public_key, b"", ephemeral_seed=seed_bytes(94))


def test_key_digest_avalanche():
    kp = make_keypair(16)
    base = crypto.key_digest(kp.public_key)
    flipped = bytearray(kp.public_key)
    flipped[0] ^= 0x01
    other = crypto.key_digest(bytes(flipped))
    assert base != other
    # Digests should differ in many bit positions, not just one.
    diff_bits = sum(bin(a ^ b).count("1") for a, b in zip(base, other))
    assert diff_bits > 40


def test_keypair_from_label_stable():
    assert crypto.keypair_from_label("demo/alice") == crypto.keypair_from_label("demo/alice")
    assert crypto.keypair_from_label("demo/alice") != crypto.keypair_from_label("demo/bob")


def test_sign_matches_a_freshly_loaded_key():
    kp = make_keypair(17)
    for msg in (b"", b"settlement #1", bytes(range(256))):
        expected = Ed25519PrivateKey.from_private_bytes(kp.seed).sign(msg)
        assert crypto.sign(kp, msg) == expected


def test_decrypt_is_the_same_from_a_fresh_and_a_used_keypair():
    used = make_keypair(18)
    envelopes = [
        crypto.encrypt_for(used.public_key, b"datum %d" % i, ephemeral_seed=seed_bytes(200 + i))
        for i in range(3)
    ]
    crypto.sign(used, b"warm the signing key")
    first = [crypto.decrypt(used, e) for e in envelopes]
    assert first == [b"datum 0", b"datum 1", b"datum 2"]
    assert [crypto.decrypt(make_keypair(18), e) for e in envelopes] == first
    assert [crypto.decrypt(used, e) for e in envelopes] == first


def test_each_private_key_is_parsed_at_most_once_per_keypair(monkeypatch):
    built = {"signing": 0, "encryption": 0}

    def counting(kind, build):
        def wrapper(seed):
            built[kind] += 1
            return build(seed)
        return wrapper

    monkeypatch.setattr(crypto, "_signing_key", counting("signing", crypto._signing_key))
    monkeypatch.setattr(crypto, "_encryption_key", counting("encryption", crypto._encryption_key))
    kp = make_keypair(19)  # generating the pair counts too
    envelope = crypto.encrypt_for(kp.public_key, b"pm25=9", ephemeral_seed=seed_bytes(210))
    for i in range(100):
        assert crypto.verify(kp.public_key, b"%d" % i, crypto.sign(kp, b"%d" % i))
        assert crypto.decrypt(kp, envelope) == b"pm25=9"
    assert built["signing"] <= 1
    assert built["encryption"] <= 1


def test_parsed_keys_leave_equality_and_hash_alone():
    used, fresh = make_keypair(20), make_keypair(20)
    crypto.sign(used, b"m")
    crypto.decrypt(used, crypto.encrypt_for(used.public_key, b"x", ephemeral_seed=seed_bytes(220)))
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert len({used, fresh}) == 1
    assert used != make_keypair(21)
