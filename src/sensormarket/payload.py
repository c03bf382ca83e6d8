"""Payload type markers for data carried in transaction outputs."""

DATUM_INLINE = 0x01
DATUM_ANCHORED = 0x02
REGISTRY_REGISTER = 0x03
REGISTRY_UPDATE = 0x04
REGISTRY_REGISTER_ANCHORED = 0x05
REGISTRY_UPDATE_ANCHORED = 0x06

# Tags whose payload is an anchor to datastore replicas, not the content itself.
ANCHORED = frozenset({DATUM_ANCHORED, REGISTRY_REGISTER_ANCHORED, REGISTRY_UPDATE_ANCHORED})
