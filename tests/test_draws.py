"""A node's random draws match np.random.Generator over the same Philox key."""

import random

import numpy as np
import pytest

from lifeline.engine import DRAW_BLOCK, _Draws

# Span 1 draws nothing; 2**32 takes a whole 32-bit half; above it the
# draw switches to whole 64-bit words.
SPANS = [1, 2, 4, 5, 56, 256, 2**31, 2**31 + 1, 2**32 - 2, 2**32 - 1,
         2**32, 2**32 + 1, 2**40 + 3]


def pair(a: int, b: int):
    key = np.array([a, b], dtype=np.uint64)
    return _Draws(key), np.random.Generator(np.random.Philox(key=key))


@pytest.mark.parametrize("seed", range(8))
def test_interleaved_draws_match_generator(seed):
    rng = random.Random(seed)
    draws, gen = pair(seed, 0x0A000001 + seed)
    calls = 3 * DRAW_BLOCK + rng.randrange(DRAW_BLOCK)
    for step in range(calls):
        kind = rng.randrange(3)
        if kind == 0:
            assert draws.random() == gen.random(), step
        elif kind == 1:
            lo = rng.choice([-0.1, 0.0, -3.5, 1e6])
            hi = lo + rng.choice([0.2, 1.0, 7.25, 1e-3])
            assert draws.uniform(lo, hi) == gen.uniform(lo, hi), step
        else:
            span = rng.choice(SPANS)
            lo = rng.randrange(-1000, 1000)
            assert draws.integers(lo, lo + span) == gen.integers(lo, lo + span), (
                step, span)
    # Both streams stand at the same place afterwards.
    assert [draws.random() for _ in range(4)] == list(gen.random(4))


@pytest.mark.parametrize("span", SPANS)
def test_runs_of_one_span_cross_block_edges(span):
    draws, gen = pair(7, span % (1 << 64))
    got = [draws.integers(0, span) for _ in range(2 * DRAW_BLOCK + 3)]
    assert got == [int(gen.integers(0, span)) for _ in range(len(got))]
    assert draws.random() == gen.random()


@pytest.mark.parametrize("seed", range(8))
def test_skips_pass_over_what_random_would_draw(seed):
    # skip(n) stands the stream where n random() calls would, from any
    # place in a block and with or without a 32-bit half pending.
    rng = random.Random(seed)
    draws, gen = pair(seed, 0x0A000101 + seed)
    edges = spares = 0
    for step in range(400):
        kind = rng.randrange(4)
        if kind == 0:
            n = rng.choice([0, 1, 3, 4, 5, DRAW_BLOCK - 1, DRAW_BLOCK,
                            DRAW_BLOCK + 1, rng.randrange(3 * DRAW_BLOCK)])
            edges += n > len(draws._words)
            spares += draws._spare is not None
            draws.skip(n)
            for _ in range(n):
                gen.random()
        elif kind == 1:
            assert draws.random() == gen.random(), step
        elif kind == 2:
            assert draws.uniform(-0.2, 0.2) == gen.uniform(-0.2, 0.2), step
        else:
            span = rng.choice(SPANS)
            assert draws.integers(0, span) == gen.integers(0, span), (step, span)
    assert edges and spares
    assert [draws.random() for _ in range(4)] == list(gen.random(4))


@pytest.mark.parametrize("n", [0, 1, 4, DRAW_BLOCK, 2 * DRAW_BLOCK + 3])
def test_skip_from_a_fresh_stream_and_to_block_edges(n):
    draws, gen = pair(2, n)
    draws.skip(n)   # before any block is fetched
    gen.random(n)
    for extra in (0, 1):
        # A 32-bit half is pending across a skip to the block's edge, and
        # then one word past it.
        assert draws.integers(0, 5) == gen.integers(0, 5)
        left = len(draws._words)
        draws.skip(left + extra)
        gen.random(left + extra)
        assert draws.integers(0, 5) == gen.integers(0, 5)
    assert draws.random() == gen.random()


def test_span_one_consumes_nothing():
    draws, gen = pair(3, 9)
    assert [draws.integers(5, 6) for _ in range(10)] == [5] * 10
    assert draws.random() == gen.random()


def test_empty_span_is_rejected():
    draws, _ = pair(1, 1)
    with pytest.raises(ValueError):
        draws.integers(4, 4)


def test_construction_fetches_no_block():
    key = np.array([11, 12], dtype=np.uint64)
    draws = _Draws(key)
    fresh = np.random.Philox(key=key)
    assert draws._bits.random_raw(3).tolist() == fresh.random_raw(3).tolist()


@pytest.mark.parametrize("seed", range(6))
def test_uniforms_read_where_they_stand_match_the_stream(seed):
    # Words read by position, behind the stream or in its fetched block,
    # are the ones its draws gave or will give, and reading moves nothing.
    rng = random.Random(seed)
    draws, gen = pair(seed, 0x0A000101 + seed)
    drawn = []
    for _ in range(rng.randrange(1, 4)):
        drawn.extend(draws.uniform(-0.2, 0.2) for _ in range(rng.randrange(300)))
        skipped = rng.randrange(2 * DRAW_BLOCK)
        draws.skip(skipped)
        drawn.extend([None] * skipped)
    assert draws.tell() == len(drawn)
    ahead = [gen.uniform(-0.2, 0.2) for _ in range(len(drawn) + 40)]
    assert [x for x in drawn if x is not None] == [
        x for x, d in zip(ahead, drawn) if d is not None]
    for _ in range(20):
        at, n = rng.randrange(len(drawn) + 30), rng.randrange(1, 10)
        assert draws.uniforms_at(at, n, -0.2, 0.2) == ahead[at:at + n]
    assert draws.tell() == len(drawn)
    assert draws.uniform(-0.2, 0.2) == ahead[len(drawn)]
