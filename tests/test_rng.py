import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pacmap.rng import (
    DrawStream,
    as_stream,
    counter_keys,
    counter_uniforms,
    derive_seed,
    key_offsets,
    mix53,
    unit_thresholds,
)


def test_counter_uniforms_frozen_values():
    # Pinned so a silent change to the stream breaks loudly: every seeded
    # experiment in the package depends on these bits.
    u = counter_uniforms(1, np.arange(3, dtype=np.uint64))
    assert u.tolist() == [
        0.5665615751722809,
        0.7457817572627011,
        0.9710027535867962,
    ]


# sha256 of DrawStream(17, cursor=1000).uniform_block(300, width).tobytes(),
# recorded while uniform_block still built its counters from a broadcast add.
UNIFORM_BLOCK_DIGESTS = {
    1: "18609851b23e0f34a6b669055466d7201a835326ae6bd2444a5827b600ffcd14",
    3: "ce26b6630137ee909d84e671df054ba6ddebc3b8f0cc4628523b0ec675932b57",
}


@pytest.mark.parametrize("width", list(UNIFORM_BLOCK_DIGESTS))
def test_uniform_blocks_are_pinned(width):
    stream = DrawStream(17, cursor=1000)
    block = stream.uniform_block(300, width)
    assert (block.dtype, block.shape, stream.cursor) == (np.float64, (300, width), 1300)
    assert hashlib.sha256(block.tobytes()).hexdigest() == UNIFORM_BLOCK_DIGESTS[width]
    # Draw j's counters are j*width .. (j+1)*width - 1.
    counters = np.arange(1000 * width, 1300 * width, dtype=np.uint64).reshape(300, width)
    assert np.array_equal(block, counter_uniforms(17, counters))


def _integer_and_float_compares(seed, counters, thetas):
    """For each counter and theta: (k < threshold, u < theta, threshold <= k,
    theta <= u), with k the counter's 53-bit integer and u its uniform."""
    u = counter_uniforms(seed, counters)[:, None]
    k = mix53(counter_keys(seed, counters))[:, None]
    t = unit_thresholds(thetas)[None, :]
    thetas = np.asarray(thetas)[None, :]
    return k < t, u < thetas, t <= k, thetas <= u


def test_integer_compares_match_float_compares_at_the_edges():
    # The sampler draws a leaf as k < unit_thresholds(theta) and counts a
    # sum's cumulative entries c as unit_thresholds(c) <= k; both must equal
    # the float compares of k's uniform u = k * 2^-53 bit for bit.
    counters = np.arange(64, dtype=np.uint64)
    u = counter_uniforms(7, counters)
    drawn = np.concatenate((u, np.nextafter(u, 0.0), np.nextafter(u, 1.0)))
    thetas = np.concatenate(([0.0, 1.0, 0.5, 5e-324, np.nextafter(1.0, 0.0)], drawn))
    below, below_float, counted, counted_float = _integer_and_float_compares(7, counters, thetas)
    assert np.array_equal(below, below_float) and np.array_equal(counted, counted_float)
    assert below[:, 1].all() and not below[:, 0].any() and counted[:, 0].all()
    # Cumulative sums past the end: +inf and a float sum above 1 are never
    # counted; 0 always is; exactly u counts (u <= u) and its successor not.
    cums = np.concatenate(([0.0, np.inf, 1.0 + 2.0**-52, 1.0], drawn))
    assert unit_thresholds(cums[1:4]).tolist() == [2**53] * 3
    _, _, counted, counted_float = _integer_and_float_compares(7, counters, cums)
    assert np.array_equal(counted, counted_float)
    assert counted[:, 0].all() and not counted[:, 1:4].any()
    assert np.diagonal(counted[:, 4:68]).all() and not np.diagonal(counted[:, 132:196]).any()


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 2**20), st.integers(0, 2**20), st.integers(0, 2**32))
def test_integer_compares_and_key_offsets_match_counter_uniforms(seed, start, offset, theta_bits):
    counters = np.uint64(start) + np.arange(40, dtype=np.uint64) * np.uint64(997)
    u = counter_uniforms(seed, counters)
    thetas = np.concatenate((u[:8], np.nextafter(u[8:16], 0.0), np.nextafter(u[16:24], 1.0), [theta_bits / 2**32]))
    below, below_float, counted, counted_float = _integer_and_float_compares(seed, counters, thetas)
    assert np.array_equal(below, below_float) and np.array_equal(counted, counted_float)
    # The sampler's key of counter c + t is the key of c plus t's offset.
    shifted = counters[counters < np.uint64(2**64 - 2**20)]
    with np.errstate(over="ignore"):
        keys = counter_keys(seed, shifted) + key_offsets(np.full(shifted.size, offset))
    assert np.array_equal(keys, counter_keys(seed, shifted + np.uint64(offset)))


def test_mix53_runs_in_place():
    # With its own scratch or a given one, on a 1-D or a transposed 2-D
    # array, the finalizer gives the uniforms' integers entry by entry.
    counters = np.arange(600, dtype=np.uint64)
    keys = counter_keys(3, counters)
    assert mix53(keys) is keys
    assert np.array_equal(keys * 2.0**-53, counter_uniforms(3, counters))
    scratch = np.empty(600, dtype=np.uint64)
    assert np.array_equal(mix53(counter_keys(3, counters), scratch), keys)
    square = counter_keys(3, counters.reshape(20, 30)).T
    assert np.array_equal(mix53(square, scratch.reshape(30, 20)).T.ravel(), keys)


def test_uniform_range_and_moments():
    u = counter_uniforms(12345, np.arange(200_000, dtype=np.uint64))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


@given(st.integers(0, 2**64 - 1), st.integers(1, 400), st.integers(1, 5))
def test_batch_split_equivalence(seed, count, width):
    whole = DrawStream(seed).uniform_block(count, width)
    stream = DrawStream(seed)
    cut = count // 2
    first = stream.uniform_block(cut, width)
    second = stream.uniform_block(count - cut, width)
    assert np.array_equal(whole, np.concatenate([first, second]))


def test_rewind_replays_draws():
    stream = DrawStream(9)
    a = stream.uniform_block(10, 2)
    stream.rewind(4)
    b = stream.uniform_block(4, 2)
    assert np.array_equal(a[6:], b)
    with pytest.raises(ValueError):
        stream.rewind(100)


def test_derive_seed_is_order_sensitive_and_stable():
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, "partition") == derive_seed(1, "partition")
    assert derive_seed(1, "partition") != derive_seed(1, "evidence")


def test_derive_seed_reads_numpy_integers_as_python_ints():
    assert derive_seed(np.int64(3), np.int32(4)) == derive_seed(3, 4)
    assert derive_seed(np.uint64(2**64 - 1), "t", np.int8(-1)) == derive_seed(2**64 - 1, "t", -1)


def test_spawn_gives_independent_streams():
    parent = DrawStream(5)
    a = parent.spawn("a").uniform_block(8, 1)
    b = parent.spawn("b").uniform_block(8, 1)
    assert not np.array_equal(a, b)
    assert parent.cursor == 0


def test_as_stream_accepts_ints_and_streams():
    s = DrawStream(3, cursor=2)
    assert as_stream(s) is s
    assert as_stream(3).seed == 3
    numpy_ints = as_stream(np.uint64(3)), DrawStream(np.int64(3), cursor=np.int8(2))
    assert [(t.seed, t.cursor) for t in numpy_ints] == [(3, 0), (3, 2)]
    assert numpy_ints[1].uniform_block(np.int64(2)).tolist() == s.uniform_block(2).tolist()


@pytest.mark.parametrize(
    "call,match",
    [
        pytest.param(lambda: DrawStream(0).uniform_block(-1), "count must be >= 0 and width >= 1", id="count"),
        pytest.param(lambda: DrawStream(0).uniform_block(1, 0), "count must be >= 0 and width >= 1", id="width"),
        # A fractional count would leave a fractional cursor, and the next
        # block would repeat a draw.
        pytest.param(lambda: DrawStream(7).uniform_block(2.5), "count must be an integer, not 2.5", id="count-2.5"),
        pytest.param(lambda: DrawStream(7).uniform_block(1, 1.5), "width must be an integer, not 1.5", id="width-1.5"),
        pytest.param(lambda: DrawStream(7, cursor=3).rewind(1.5), "count must be an integer, not 1.5", id="rewind-1.5"),
        pytest.param(lambda: DrawStream(7, cursor=2.5), "cursor must be an integer, not 2.5", id="cursor-2.5"),
        pytest.param(lambda: DrawStream(7, cursor=-1), "cursor must be >= 0", id="cursor-negative"),
        pytest.param(lambda: as_stream(1.5), "seed must be an integer, not 1.5", id="seed-1.5"),
        pytest.param(lambda: derive_seed(2.5), "seed must be an integer, not 2.5", id="derive-seed-2.5"),
        pytest.param(lambda: derive_seed(1, 0.1), "tag must be an integer, not 0.1", id="derive-tag-0.1"),
    ],
)
def test_stream_refusals(call, match):
    with pytest.raises(ValueError, match=re.escape(match)) as err:
        call()
    assert type(err.value) is ValueError
