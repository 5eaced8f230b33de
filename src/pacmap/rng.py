"""Counter-based random streams.

Every random draw in this package owns a fixed block of 64-bit counters, so
the j-th draw of a run produces identical bits no matter how draws are
batched or resumed.  numpy's stateful generators cannot be partitioned this
way without constructing one generator per draw, which is far too slow for
millions of draws, so we use a splitmix64-style counter mix instead.

Counter c maps to the key z = (c + 1) * GAMMA + seed mod 2^64, then to the
53-bit integer k = mix(z) >> 11, and its uniform is u = k * 2^-53 exactly.
Since the key is affine in c, the key of c + t is counter_keys(seed, c) +
key_offsets(t), so a caller that keys uniforms by (draw, node) precomputes
both parts.  And since u is k scaled by a power of two, a compare of u with
a float x is a compare of k with an integer: u < x iff k < t and x <= u iff
t <= k, for t = unit_thresholds(x).  The sampler draws through these integer
compares and never forms a float uniform, and its draws are those of
counter_uniforms bit for bit.

A stream's cursor is an integer draw index, and its seed, every count of
draws and the seed and every non-string tag of derive_seed are integers:
each is read through operator.index, so numpy integers pass and a float
such as 2.5, which would leave a fractional cursor and repeat draws, is
refused with a ValueError naming it before any draw.
"""

from __future__ import annotations

from dataclasses import dataclass
import hashlib
import operator

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA_U64 = np.uint64(_GAMMA)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFT30, _SHIFT27, _SHIFT31, _SHIFT11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)
_DOUBLE_SCALE = 2.0 ** -53
_UNIT = 2.0 ** 53


def _integer(value, name: str, least: int | None = None) -> int:
    """`value` as an int through operator.index; ValueError naming `name`
    for a value that is not an integer, or is below `least` when given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


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
    tags are folded through blake2b so they stay stable across processes;
    the seed and every other tag are read as integers, like a stream's seed.
    """
    s = _mix64_int(_integer(seed, "seed"))
    for tag in tags:
        if isinstance(tag, str):
            tag = int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")
        else:
            tag = _integer(tag, "tag")
        s = _mix64_int((s * _GAMMA + tag + 1) & _MASK64)
    return s


def counter_keys(seed: int, counters: np.ndarray) -> np.ndarray:
    """The uint64 keys (c + 1) * GAMMA + seed of counters c, a new array."""
    z = counters.astype(np.uint64)
    z += np.uint64(1)
    z *= _GAMMA_U64
    z += np.uint64(seed & _MASK64)
    return z


def key_offsets(offsets: np.ndarray) -> np.ndarray:
    """t * GAMMA for each t: the key of counter c + t is the key of c plus this."""
    return offsets.astype(np.uint64) * _GAMMA_U64


def mix53(z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer of the uint64 keys z, in place, down to the
    top 53 bits: z becomes the integer k with k * 2^-53 the key's uniform.
    Its shifts go through one scratch array of z's shape, `scratch` if given
    (its entries are overwritten), else a new one.  Returns z."""
    if scratch is None:
        scratch = np.empty_like(z)
    np.right_shift(z, _SHIFT30, out=scratch)
    z ^= scratch
    z *= _MIX1
    np.right_shift(z, _SHIFT27, out=scratch)
    z ^= scratch
    z *= _MIX2
    np.right_shift(z, _SHIFT31, out=scratch)
    z ^= scratch
    z >>= _SHIFT11
    return z


def unit_thresholds(x: np.ndarray) -> np.ndarray:
    """uint64 t = ceil(x * 2^53), clamped to 2^53, for floats x >= 0 (+inf
    included): for every 53-bit k and u = k * 2^-53, u < x iff k < t and x
    <= u iff t <= k.  Scaling by 2^53 is exact, and so is the ceiling; a
    clamped x is above every u, and t = 2^53 is above every k."""
    return np.ceil(np.minimum(np.asarray(x, dtype=np.float64) * _UNIT, _UNIT)).astype(np.uint64)


def counter_uniforms(seed: int, counters: np.ndarray) -> np.ndarray:
    """Map uint64 counters to float64 uniforms in [0, 1)."""
    return mix53(counter_keys(seed, counters)) * _DOUBLE_SCALE


@dataclass
class DrawStream:
    """A resumable stream of per-draw uniform blocks.

    Draw j (absolute index, counted from stream creation) owns counters
    [j*width, (j+1)*width), so ``uniform_block(a); uniform_block(b)`` equals
    ``uniform_block(a + b)`` row for row.
    """

    seed: int
    cursor: int = 0

    def __post_init__(self):
        self.seed = _integer(self.seed, "seed")
        self.cursor = _integer(self.cursor, "cursor", 0)

    def uniform_block(self, count: int, width: int = 1) -> np.ndarray:
        """Uniforms of shape (count, width) for the next `count` draws."""
        count, width = _integer(count, "count"), _integer(width, "width")
        if count < 0 or width < 1:
            raise ValueError("count must be >= 0 and width >= 1")
        # Row j holds counters j*width .. (j+1)*width - 1, keyed in place: the
        # range starts at c + 1, so only the multiply and the seed remain.
        start = self.cursor * width + 1
        z = np.arange(start, start + count * width, dtype=np.uint64).reshape(count, width)
        z *= _GAMMA_U64
        z += np.uint64(self.seed & _MASK64)
        self.cursor += count
        return mix53(z) * _DOUBLE_SCALE

    def rewind(self, count: int) -> None:
        """Give back the last `count` draws (used when a batch overshoots)."""
        count = _integer(count, "count")
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
    return DrawStream(rng)
