"""Deterministic random-stream derivation.

Every stochastic routine in the package draws from a stream derived here.
Streams are keyed by (seed, *key) so that independent pieces of work —
chunks of a Monte Carlo run, rounds of a protocol — get independent,
reproducible generators regardless of execution order or worker count.

A stream is ``random.Random`` seeded with a canonical byte encoding of
(purpose, seed, *key); ``random.Random`` hashes a bytes seed with SHA-512, so
distinct encodings give independent streams.  Only the standard library is
involved, which keeps ``numpy.random`` (and OpenSSL through ``hashlib``) out
of every process that merely simulates.
"""

from __future__ import annotations

import operator
import random


def derive_rng(seed: int, *key: int | str) -> random.Random:
    """Return a ``random.Random`` for the stream named by ``key`` under ``seed``.

    The same (seed, key) always yields an identical generator; distinct keys
    yield statistically independent ones.
    """
    return random.Random(_encode(b"rng", seed, key))


def derive_seed(seed: int, *key: int | str) -> int:
    """A 64-bit integer sub-seed for the stream named by ``key``.

    Used where a routine needs an integer seed of its own (so it can derive
    further sub-streams) rather than a generator.
    """
    return random.Random(_encode(b"seed", seed, key)).getrandbits(64)


def _encode(purpose: bytes, seed: int, key: tuple) -> bytes:
    """Injective encoding: each part is a type tag plus a netstring.

    Netstrings carry their length in decimal, so seeds of any size encode
    without a fixed-width field to overflow.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    parts = [_netstring(b"p", purpose), _netstring(b"i", b"%d" % seed)]
    for k in key:
        if isinstance(k, int):
            if k < 0:
                raise ValueError("spawn key parts must be non-negative")
            parts.append(_netstring(b"i", b"%d" % k))
        else:
            parts.append(_netstring(b"s", k.encode("utf-8")))
    return b"".join(parts)


def _netstring(tag: bytes, data: bytes) -> bytes:
    return b"%s%d:%s," % (tag, len(data), data)
