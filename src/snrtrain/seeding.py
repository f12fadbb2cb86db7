"""Deterministic seed derivation.

All randomness in the pipeline funnels through one master seed. Per-item
streams are derived by hashing the master seed together with string tags
(epoch index, utterance id, purpose), so any single item can be regenerated
without replaying anything else. Python's builtin hash() is salted per
process, so a keyed cryptographic hash is used instead.
"""

import hashlib

import numpy as np


def digest(data: bytes) -> bytes:
    """The 8-byte blake2b digest behind every seed, fingerprint and checksum."""
    return hashlib.blake2b(data, digest_size=8).digest()


def derive_seed(*parts) -> int:
    """64-bit seed from a tuple of hashable parts (ints, strings, floats)."""
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(digest(text.encode("utf-8")), "little")


def derived_rng(*parts) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))
