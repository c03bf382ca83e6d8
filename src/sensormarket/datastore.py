"""Off-chain redundant blob storage with on-chain hash anchoring.

Stores are in-simulation actors; a byzantine store silently corrupts what it
holds.  The anchor carried in a transaction payload is the content digest
plus up to 8 two-byte store locators, which keeps it inside the 80-byte
payload cap.

It also owns the payload codec: one tag byte, naming the kind and whether the
content or its anchor follows, then that content or anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from . import crypto, wire
from .errors import AnchorMismatch, MalformedTx, ReplicationUnsatisfiable
from .ledger import MAX_PAYLOAD

MAX_LOCATORS = 8

# The payload kinds, and each kind's (inline, anchored) tag bytes on the chain.
DATUM, REGISTER, UPDATE = "datum", "register", "update"
_TAGS = {DATUM: (0x01, 0x02), REGISTER: (0x03, 0x05), UPDATE: (0x04, 0x06)}
_KINDS = {tag: k for k, tags in _TAGS.items() for tag in tags}
_ANCHORED = frozenset(anchored for _, anchored in _TAGS.values())


@dataclass
class Store:
    store_id: int
    byzantine: bool = False
    blobs: dict[bytes, bytes] = field(default_factory=dict)

    def put(self, blob_id: bytes, content: bytes) -> None:
        if self.byzantine and content:
            # Silent corruption: flip the first bit of what we were given.
            content = bytes([content[0] ^ 0x01]) + content[1:]
        self.blobs[blob_id] = content

    def get(self, blob_id: bytes) -> Optional[bytes]:
        return self.blobs.get(blob_id)

    def tamper(self, blob_id: bytes, position: int = 0) -> None:
        content = self.blobs.get(blob_id)
        if content and 0 <= position < len(content):  # else there is no byte to flip
            self.blobs[blob_id] = (
                content[:position]
                + bytes([content[position] ^ 0xFF])
                + content[position + 1:]
            )


@dataclass(frozen=True)
class Anchor:
    blob_id: bytes
    locators: tuple[int, ...]

    def serialize(self) -> bytes:
        if len(self.locators) > MAX_LOCATORS:
            raise MalformedTx(f"anchor holds more than {MAX_LOCATORS} locators")
        data = wire.u8(len(self.locators))
        for loc in self.locators:
            data += wire.u16(loc)
        return data + self.blob_id

    @classmethod
    def deserialize(cls, data: bytes) -> "Anchor":
        r = wire.Reader(data)
        count = r.u8()
        if count > MAX_LOCATORS:
            raise MalformedTx("too many locators in anchor")
        locators = tuple(r.u16() for _ in range(count))
        blob_id = r.read(32)
        r.expect_end()
        return cls(blob_id, locators)


def store(stores: list[Store], content: bytes, replication: int) -> Anchor:
    if replication > len(stores):
        raise ReplicationUnsatisfiable(
            f"replication {replication} exceeds {len(stores)} stores"
        )
    if replication < 1:
        raise ReplicationUnsatisfiable("replication must be at least 1")
    blob_id = crypto.digest(content)
    chosen = stores[:replication]
    for s in chosen:
        s.put(blob_id, content)
    return Anchor(blob_id, tuple(s.store_id for s in chosen))


def fetch(
    anchor: Anchor,
    stores: list[Store],
    on_tamper: Optional[Callable[[int], None]] = None,
) -> bytes:
    """Return content from the first replica, in locator order, matching the
    anchored digest; ``AnchorMismatch`` if none does."""
    for loc in anchor.locators:
        s = next((held for held in stores if held.store_id == loc), None)
        if s is None:
            continue
        content = s.get(anchor.blob_id)
        if content is None:
            continue
        if verify_anchor(content, anchor):
            return content
        if on_tamper is not None:
            on_tamper(loc)
    raise AnchorMismatch(
        f"no replica of {anchor.blob_id.hex()[:16]} matches its digest"
    )


def verify_anchor(content: bytes, anchor: Anchor) -> bool:
    """Whether ``content`` is what ``anchor`` names: the one anchor rule."""
    return crypto.digest(content) == anchor.blob_id


def seal(content: bytes, kind: str, stores: list[Store], replication: int) -> bytes:
    """A payload of ``kind``: its inline tag and ``content`` if that fits
    ``MAX_PAYLOAD``, else its anchored tag and the anchor of ``content``
    stored on the first ``replication`` stores."""
    inline, anchored = _TAGS[kind]
    if 1 + len(content) <= MAX_PAYLOAD:
        return bytes([inline]) + content
    return bytes([anchored]) + store(stores, content, replication).serialize()


def kind(payload: Optional[bytes]) -> Optional[str]:
    """The kind of a payload ``seal`` made; None for any other payload."""
    return _KINDS.get(payload[0]) if payload else None


def unseal(payload: bytes, stores: list[Store],
           on_tamper: Optional[Callable[[int], None]] = None) -> bytes:
    """The content ``seal`` put in ``payload``; ``AnchorMismatch`` if no replica matches."""
    if payload[0] not in _ANCHORED:
        return payload[1:]
    return fetch(Anchor.deserialize(payload[1:]), stores, on_tamper)
