import numpy as np

from tricount import RandomSource, mix_seed


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
