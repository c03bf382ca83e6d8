"""Key pairs, signatures, hybrid encryption and content digests.

Every actor key pair is derived deterministically from a 32-byte seed so that
identical scenario seeds reproduce identical chains byte for byte.  A key
pair's public identity is 64 bytes: an Ed25519 verification key (bytes 0..31)
concatenated with an X25519 encryption key (bytes 32..63), both derived from
the same seed.  Outputs pay, and registry records name, its key digest: the
first 20 bytes of its SHA-256.

Datum confidentiality uses ephemeral X25519 agreement, a SHA-256 key
derivation and ChaCha20-Poly1305: ``encrypt_for`` makes one agreement per
message, a ``Session`` one per stream of numbered messages.  Every caller
passes the 32-byte ephemeral seed of the agreement, drawn from its seeded
RNG, so encryption is as deterministic as the rest of a simulation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .errors import DecryptFailed, MalformedTx

SEED_LEN = 32
PUBKEY_LEN = 64
KEY_DIGEST_LEN = 20
AEAD_TAG_LEN = 16
AEAD_NONCE_LEN = 12


def digest(data: bytes) -> bytes:
    """The one 32-byte content digest used everywhere (SHA-256)."""
    return hashlib.sha256(data).digest()


def key_digest(public_key: bytes) -> bytes:
    return digest(public_key)[:KEY_DIGEST_LEN]


@dataclass(frozen=True)
class KeyPair:
    seed: bytes
    public_key: bytes  # ed25519 pub || x25519 pub

    @cached_property
    def key_digest(self) -> bytes:
        return key_digest(self.public_key)

    # The private keys are parsed at first use and kept: loading one derives
    # its public key, a scalar multiplication that costs as much as a
    # signature.  Like ``key_digest`` they live in the instance dict, outside
    # the dataclass fields, so equality and hashing still see only the seed
    # and the public key.
    @cached_property
    def signing_key(self) -> Ed25519PrivateKey:
        return _signing_key(self.seed)

    @cached_property
    def encryption_key(self) -> X25519PrivateKey:
        return _encryption_key(self.seed)


def _signing_key(seed: bytes) -> Ed25519PrivateKey:
    return Ed25519PrivateKey.from_private_bytes(seed)


def _encryption_key(seed: bytes) -> X25519PrivateKey:
    # Separate scalar per seed so signing and encryption keys never coincide.
    material = hashlib.sha256(b"sensormarket/x25519" + seed).digest()
    return X25519PrivateKey.from_private_bytes(material)


def generate_keypair(seed: bytes) -> KeyPair:
    if len(seed) != SEED_LEN:
        raise ValueError(f"seed must be exactly {SEED_LEN} bytes, got {len(seed)}")
    signing, encryption = _signing_key(seed), _encryption_key(seed)
    ed_pub = signing.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    x_pub = encryption.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    keypair = KeyPair(seed=seed, public_key=ed_pub + x_pub)
    # The keys just parsed become the pair's memos (where cached_property keeps them).
    vars(keypair).update(signing_key=signing, encryption_key=encryption)
    return keypair


def sign(keypair: KeyPair, message: bytes) -> bytes:
    return keypair.signing_key.sign(message)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    if len(public_key) != PUBKEY_LEN:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key[:32]).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def _session_key(shared: bytes, eph_pub: bytes, recipient_x_pub: bytes) -> bytes:
    return hashlib.sha256(b"sensormarket/session" + shared + eph_pub + recipient_x_pub).digest()


def _agree_to(public_key: bytes, ephemeral_seed: bytes) -> tuple[bytes, bytes, bytes]:
    """Sender side of one X25519 agreement with ``public_key``: the ephemeral
    public key to hand over, the shared secret, and the session key derived
    from them."""
    if len(public_key) != PUBKEY_LEN:
        raise MalformedTx("recipient public key has wrong length")
    eph_priv = X25519PrivateKey.from_private_bytes(
        hashlib.sha256(b"sensormarket/ephemeral" + ephemeral_seed).digest()
    )
    eph_pub = eph_priv.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)
    recipient_x_pub = public_key[32:]
    shared = eph_priv.exchange(X25519PublicKey.from_public_bytes(recipient_x_pub))
    return eph_pub, shared, _session_key(shared, eph_pub, recipient_x_pub)


def _agree_from(keypair: KeyPair, ephemeral_key: bytes) -> bytes:
    """Recipient side of ``_agree_to``: the same session key."""
    try:
        ephemeral = X25519PublicKey.from_public_bytes(ephemeral_key)
        shared = keypair.encryption_key.exchange(ephemeral)
    except ValueError:
        raise DecryptFailed("malformed ephemeral key") from None
    return _session_key(shared, ephemeral_key, keypair.public_key[32:])


def _open(aead: ChaCha20Poly1305, nonce: bytes, sealed: bytes,
          associated_data: bytes | None) -> bytes:
    try:
        return aead.decrypt(nonce, sealed, associated_data)
    except InvalidTag:
        raise DecryptFailed("authentication failed") from None


def encrypt_for(public_key: bytes, plaintext: bytes, ephemeral_seed: bytes) -> bytes:
    """``plaintext`` sealed for ``public_key`` as one envelope:
    ``ephemeral_key(32) || nonce(12) || tag(16) || ciphertext``."""
    if not plaintext:
        raise ValueError("plaintext must be non-empty")
    eph_pub, shared, key = _agree_to(public_key, ephemeral_seed)
    nonce = hashlib.sha256(b"sensormarket/nonce" + shared + eph_pub).digest()[:AEAD_NONCE_LEN]
    sealed = ChaCha20Poly1305(key).encrypt(nonce, plaintext, None)
    return eph_pub + nonce + sealed[-AEAD_TAG_LEN:] + sealed[:-AEAD_TAG_LEN]


def decrypt(keypair: KeyPair, envelope: bytes) -> bytes:
    """The plaintext of an ``encrypt_for`` envelope; MalformedTx if it is
    shorter than its 60-byte header, DecryptFailed if it was not sealed for
    ``keypair``."""
    if len(envelope) < 60:
        raise MalformedTx("cipher envelope too short")
    key = _agree_from(keypair, envelope[:32])
    return _open(ChaCha20Poly1305(key), envelope[32:44], envelope[60:] + envelope[44:60], None)


class Session:
    """Many messages under one agreement's key, as Noise's transport keys: the
    caller numbers the messages, and each number is its message's nonce, so
    a number must never repeat within a session."""

    def __init__(self, key: bytes):
        self._aead = ChaCha20Poly1305(key)

    def seal(self, number: int, plaintext: bytes, associated_data: bytes) -> bytes:
        return self._aead.encrypt(number.to_bytes(AEAD_NONCE_LEN, "little"), plaintext,
                                  associated_data)

    def open(self, number: int, sealed: bytes, associated_data: bytes) -> bytes:
        """The plaintext, or DecryptFailed if ``sealed`` was not sealed as
        message ``number`` with ``associated_data`` under this session's key."""
        return _open(self._aead, number.to_bytes(AEAD_NONCE_LEN, "little"), sealed,
                     associated_data)


def session_to(public_key: bytes, ephemeral_seed: bytes) -> tuple[bytes, Session]:
    """The ephemeral public key that the recipient opens the session with
    (``session_from``), and the sender's session with ``public_key``."""
    eph_pub, _, key = _agree_to(public_key, ephemeral_seed)
    return eph_pub, Session(key)


def session_from(keypair: KeyPair, ephemeral_key: bytes) -> Session:
    """The recipient's side of the session ``session_to`` opened to ``keypair``."""
    return Session(_agree_from(keypair, ephemeral_key))


def keypair_from_label(label: str) -> KeyPair:
    """Convenience: a reproducible key pair named by a text label."""
    return generate_keypair(digest(b"sensormarket/keypair/" + label.encode()))

