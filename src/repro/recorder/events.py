"""Record schema for flight recordings: canonical, bit-exact JSONL.

Every record is one JSON line of the shape::

    {"v": 1, "seq": N, "kind": K, "tick": T, "node": NAME, "data": {...}}

serialised canonically (sorted keys, no whitespace) so byte equality of
two lines is exactly semantic equality of two records.  Floats are the
classic JSON determinism hazard — ``repr`` round-trips but invites
rounding at every boundary — so every float payload is hex-encoded as
``"f64:" + struct.pack("<d", v).hex()``: sixteen hex digits of the
IEEE-754 little-endian bits, bit-exact by construction.  Strings that
could collide with an encoded float (or with this escape itself) are
escaped with an ``"s:"`` prefix.

Records belong to one of two streams, derived from ``kind``:

* :data:`DETERMINISTIC_KINDS` — the replayable stream.  Two runs built
  from the same recipe must produce byte-identical deterministic
  streams; tier-1 tests enforce it.
* :data:`OPS_KINDS` — service/gateway telemetry (batch flushes, shard
  dispatches, admissions).  Real, but dependent on thread and process
  timing, so excluded from the byte-identity contract.

``seq`` numbers each stream independently, which keeps the
deterministic stream byte-stable no matter how ops events interleave.
"""

from __future__ import annotations

import json
import struct

__all__ = [
    "DETERMINISTIC_KINDS",
    "OPS_KINDS",
    "SCHEMA_VERSION",
    "canonical_line",
    "decode_value",
    "encode_value",
    "is_deterministic",
    "parse_line",
]

SCHEMA_VERSION = 1

#: Replayable record kinds: byte-identical across runs of the same recipe.
DETERMINISTIC_KINDS = frozenset(
    {
        "header",  # schema version + the recipe that produced the run
        "start",  # fleet composition at scheduler start
        "tick",  # per-tick node and hop ("channels") counters + perception deltas
        "observation",  # a cache miss leaving the lookup stage
        "verdict",  # the classification a miss resolved to
        "negotiation",  # sign_observed / protocol_state transitions
        "world",  # any other world-log event (mission lifecycle &c.)
        "bus",  # surveillance EventEmitter traffic (non-escalation)
        "escalation",  # surveillance escalations off the event bus
        "report",  # final FleetReport counters
        "end",  # footer: deterministic event count + stream digest
    }
)

#: Timing-dependent telemetry kinds, excluded from byte-identity checks.
OPS_KINDS = frozenset({"service", "gateway"})

_FLOAT_PREFIX = "f64:"
_STRING_PREFIX = "s:"


def is_deterministic(kind: str) -> bool:
    """Return True if *kind* belongs to the replayable stream."""
    return kind in DETERMINISTIC_KINDS


def encode_value(value):
    """Recursively encode *value* into its canonical JSON-safe form.

    Floats become ``f64:`` hex strings; strings that could be mistaken
    for an encoded float gain an ``s:`` escape; tuples become lists.
    Dict keys must already be strings.
    """
    if isinstance(value, bool) or value is None or isinstance(value, int):
        return value
    if isinstance(value, float):
        return _FLOAT_PREFIX + struct.pack("<d", value).hex()
    if isinstance(value, str):
        if value.startswith((_FLOAT_PREFIX, _STRING_PREFIX)):
            return _STRING_PREFIX + value
        return value
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    raise TypeError(f"cannot record value of type {type(value).__name__}: {value!r}")


def decode_value(value):
    """Invert :func:`encode_value`, restoring floats and escaped strings."""
    if isinstance(value, str):
        if value.startswith(_FLOAT_PREFIX):
            return struct.unpack("<d", bytes.fromhex(value[len(_FLOAT_PREFIX) :]))[0]
        if value.startswith(_STRING_PREFIX):
            return value[len(_STRING_PREFIX) :]
        return value
    if isinstance(value, dict):
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def canonical_line(record: dict) -> str:
    """Serialise an (already encoded) *record* as one canonical JSON line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def parse_line(line: str) -> dict:
    """Parse one canonical line back into its raw (still-encoded) record."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError(f"flight record line is not an object: {line!r}")
    return record
