"""Counter-based random streams.

Every random draw in this package owns a fixed block of 64-bit counters, so
the j-th draw of a run produces identical bits no matter how draws are
batched or resumed.  numpy's stateful generators cannot be partitioned this
way without constructing one generator per draw, which is far too slow for
millions of draws, so we use a splitmix64-style counter mix instead.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DOUBLE_SCALE = 2.0 ** -53


def _mix64_int(z: int) -> int:
    """splitmix64 finalizer on a Python int (no numpy scalar overflow traps)."""
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def derive_seed(seed: int, *tags: int | str) -> int:
    """Derive an independent 64-bit seed from a parent seed and a tag path.

    Order-sensitive: derive_seed(s, 1, 2) != derive_seed(s, 2, 1).  String
    tags are folded through blake2b so they stay stable across processes.
    """
    s = _mix64_int(seed)
    for tag in tags:
        if isinstance(tag, str):
            tag = int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")
        s = _mix64_int((s * _GAMMA + tag + 1) & _MASK64)
    return s


def counter_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Map uint64 counters to float64 uniforms in [0, 1)."""
    z = counters.astype(np.uint64)  # a copy, mixed in place: one temporary at a time
    z += np.uint64(1)
    z *= _GAMMA_U64
    z += np.uint64(seed & _MASK64)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z * _DOUBLE_SCALE


@dataclass
class DrawStream:
    """A resumable stream of per-draw uniform blocks.

    Draw j (absolute index, counted from stream creation) owns counters
    [j*width, (j+1)*width), so ``uniform_block(a); uniform_block(b)`` equals
    ``uniform_block(a + b)`` row for row.
    """

    seed: int
    cursor: int = 0

    def uniform_block(self, count: int, width: int = 1) -> np.ndarray:
        """Uniforms of shape (count, width) for the next `count` draws."""
        if count < 0 or width < 1:
            raise ValueError("count must be >= 0 and width >= 1")
        base = np.arange(self.cursor, self.cursor + count, dtype=np.uint64) * np.uint64(width)
        counters = base[:, None] + np.arange(width, dtype=np.uint64)[None, :]
        self.cursor += count
        return counter_uniforms(self.seed, counters)

    def rewind(self, count: int) -> None:
        """Give back the last `count` draws (used when a batch overshoots)."""
        if count < 0 or count > self.cursor:
            raise ValueError("cannot rewind past the start of the stream")
        self.cursor -= count

    def spawn(self, *tags: int | str) -> "DrawStream":
        """A fresh stream whose seed is derived from this stream's seed."""
        return DrawStream(derive_seed(self.seed, *tags))


def as_stream(rng: int | DrawStream) -> DrawStream:
    """Accept either a bare seed or an existing stream."""
    if isinstance(rng, DrawStream):
        return rng
    return DrawStream(int(rng))
