"""Named, counter-keyed random streams.

All randomness in the package flows from a single integer seed through
named substreams, so experiments are reproducible and substreams can be
consumed concurrently without coordination.
"""

from __future__ import annotations

import zlib

import numpy as np

# Trials per pre-drawn chunk. A chunk's counter keys its substreams, so every
# seeded Monte Carlo output depends on this size.
CHUNK = 8192


def _stream_key(name: str) -> int:
    return zlib.crc32(name.encode("utf-8"))


def stream_rng(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Generator for substream `name` at counter `index` under `seed`.

    Distinct (seed, name, index) triples give statistically independent
    streams (Philox keyed through a SeedSequence).
    """
    ss = np.random.SeedSequence(entropy=(int(seed), _stream_key(name), int(index)))
    return np.random.Generator(np.random.Philox(ss))


def chunks(trials: int):
    """(counter, first trial, count) of each chunk of `trials` trials."""
    for counter, first in enumerate(range(0, trials, CHUNK)):
        yield counter, first, min(CHUNK, trials - first)
