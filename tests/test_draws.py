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
