import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricount import RandomSource, mix_seed
from tricount.rng import _sources, splitmix64


def test_same_seed_same_stream():
    a = RandomSource(123)
    b = RandomSource(123)
    assert np.array_equal(a.uniform_reals(20), b.uniform_reals(20))
    assert np.array_equal(a.uniform_indices(97, size=20),
                          b.uniform_indices(97, size=20))
    assert np.array_equal(RandomSource(5).uniform_reals(64),
                          RandomSource(5).uniform_reals(64))


def test_uniform_real_range():
    rng = RandomSource(7)
    xs = rng.uniform_reals(10_000)
    assert (xs >= 0).all() and (xs < 1).all()
    assert abs(xs.mean() - 0.5) < 0.02


def test_uniform_index_range_and_coverage():
    rng = RandomSource(9)
    draws = rng.uniform_indices(6, size=6000)
    assert draws.min() >= 0 and draws.max() < 6
    counts = np.bincount(draws, minlength=6)
    # each value equally likely: 1000 +- 5 sigma
    assert (abs(counts - 1000) < 5 * np.sqrt(1000 * 5 / 6)).all()


def test_derive_is_deterministic_and_distinct():
    base = RandomSource(42)
    c1 = base.derive(1)
    c2 = base.derive(2)
    again = RandomSource(42).derive(1)
    assert c1.seed == again.seed == mix_seed(42, 1)
    assert c1.seed != c2.seed
    assert np.array_equal(c1.uniform_reals(8), again.uniform_reals(8))
    # deriving does not consume from the parent stream
    assert np.array_equal(RandomSource(42).uniform_reals(8), base.uniform_reals(8))


def test_derived_streams_look_independent():
    base = RandomSource(0)
    xs = np.array([base.derive(i).uniform_reals(1)[0] for i in range(2000)])
    assert abs(xs.mean() - 0.5) < 0.03
    assert 0.05 < xs.var() < 0.12  # uniform variance is 1/12


def test_mix_seed_keeps_its_values():
    # splitmix64 of state 0 is the generator's published first output.
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    pinned = {(0, 0): 12035550249420947055, (42, 1): 9129838320742759465,
              (2**64 - 1, 7): 12225420764836534112,
              (123, 2**64 - 1): 16138042052757723383,
              (1 << 40, 12345): 7448650083225930224,
              (5, -1): 3846658174030194800}
    for (seed, i), want in pinned.items():
        assert mix_seed(seed, i) == want
        assert mix_seed(seed, np.array([i]).astype(np.uint64)).tolist() == [want]


_SPECIAL_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=16))
@example(seeds=_SPECIAL_SEEDS)
def test_row_path_seeds_as_numpy_does(seeds):
    # The row path repeats numpy's SeedSequence hashing; if numpy ever
    # seeds PCG64 differently, the states part here.
    rows = _sources(np.array(seeds, dtype=np.uint64))
    for seed, row in zip(seeds, rows):
        assert row.seed == seed
        assert row._gen.bit_generator.state == np.random.PCG64(seed).state
        lone = RandomSource(seed)
        assert np.array_equal(row.uniform_reals(4), lone.uniform_reals(4))
        assert np.array_equal(row.uniform_indices(1000, size=4),
                              lone.uniform_indices(1000, size=4))


def test_derive_array_equals_derive_each():
    for seed, idx in [(42, np.arange(300)), (2**64 - 1, np.arange(5, 9)),
                      (7, np.array([3, 0, 3, 2**40], dtype=np.uint64)),
                      (9, np.zeros(0, dtype=np.int64))]:
        base = RandomSource(seed)
        rows = base.derive(idx)
        lone = [base.derive(i) for i in idx.tolist()]
        assert [r.seed for r in rows] == [c.seed for c in lone]
        for r, c in zip(rows, lone):
            assert np.array_equal(r.uniform_reals(3), c.uniform_reals(3))
            assert np.array_equal(r.uniform_indices(50, size=3),
                                  c.uniform_indices(50, size=3))


def test_derive_rejects_non_integer_or_nested_arrays():
    base = RandomSource(0)
    for bad in (np.zeros(3), np.zeros((2, 2), dtype=np.int64), np.array(["1"])):
        with pytest.raises(TypeError, match="1-D integer array"):
            base.derive(bad)


# Highs at the edges of numpy's paths: 2**32 draws one raw uint32 and
# 2**32 + 1 is the first 64-bit range; below that, draws are buffered
# 32-bit ones that can leave half a uint64 in the generator.
_EDGE_HIGHS = [2, 3, 2**31 + 1, 2**32, 2**32 + 1, 2**32 + 2, 2**62]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**64 - 1),
       highs=st.lists(st.one_of(st.integers(2, 2**32), st.integers(2**32 + 1, 2**63 - 1),
                                st.sampled_from(_EDGE_HIGHS)),
                      min_size=1, max_size=9),
       before=st.integers(0, 3))
@example(seed=0, highs=[7, 9, 11], before=1)  # odd, 32-bit, after a draw
@example(seed=1, highs=[7, 9], before=0)  # even, 32-bit
@example(seed=2, highs=[2**40, 5, 2**33 + 1], before=1)  # mixed, odd
@example(seed=3, highs=_EDGE_HIGHS, before=3)
def test_one_call_on_joined_highs_is_two_calls(seed, highs, before):
    # ws phase two draws a trial's i (below d) and j (below d - 1) in one
    # call on the joined highs. That is the stream of two calls only if
    # numpy's array-bounded draws keep the generator's 32-bit buffer
    # across calls; if numpy ever changes that, the streams part here.
    high = np.array(highs, dtype=np.int64)
    joined, apart = RandomSource(seed), RandomSource(seed)
    for src in (joined, apart):
        src.uniform_indices(np.full(before, 5))
    got = joined.uniform_indices(np.concatenate([high, high - 1]))
    want = np.concatenate([apart.uniform_indices(high), apart.uniform_indices(high - 1)])
    assert np.array_equal(got, want)
    # has_uint32 and uinteger, the 32-bit buffer, are in the state.
    assert joined._gen.bit_generator.state == apart._gen.bit_generator.state


def test_joined_draws_can_leave_half_a_word_buffered():
    # The case the test above must cover: an odd count of buffered
    # 32-bit draws leaves the generator holding half a uint64.
    src = RandomSource(0)
    src.uniform_indices(np.array([7, 9, 11]))
    assert src._gen.bit_generator.state["has_uint32"] == 1
