"""Unit tests for the seeded workload random source."""

import pytest

from repro.sim.rand import WorkloadRandom


def test_same_seed_same_stream():
    a = WorkloadRandom(42)
    b = WorkloadRandom(42)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_different_seeds_differ():
    a = WorkloadRandom(1)
    b = WorkloadRandom(2)
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_fork_is_deterministic_and_independent():
    parent_a = WorkloadRandom(7)
    parent_b = WorkloadRandom(7)
    fork_a = parent_a.fork(3)
    fork_b = parent_b.fork(3)
    assert [fork_a.random() for _ in range(5)] == [fork_b.random() for _ in range(5)]
    other = parent_a.fork(4)
    assert fork_a.random() != other.random() or fork_a.random() != other.random()


def test_exponential_mean_converges():
    rng = WorkloadRandom(9)
    samples = [rng.exponential(10.0) for _ in range(20_000)]
    assert sum(samples) / len(samples) == pytest.approx(10.0, rel=0.05)


def test_exponential_zero_mean():
    assert WorkloadRandom(0).exponential(0.0) == 0.0


def test_lognormal_size_respects_cap_and_floor():
    rng = WorkloadRandom(5)
    sizes = [rng.lognormal_size(4000, 1.5, cap=10_000) for _ in range(2000)]
    assert all(1 <= size <= 10_000 for size in sizes)


def test_lognormal_median_roughly_matches():
    rng = WorkloadRandom(6)
    sizes = sorted(rng.lognormal_size(4000, 0.9, cap=10**9) for _ in range(20_000))
    median = sizes[len(sizes) // 2]
    assert median == pytest.approx(4000, rel=0.1)


def test_zipf_index_bounds():
    rng = WorkloadRandom(11)
    for n in (1, 2, 10, 100):
        for _ in range(200):
            assert 0 <= rng.zipf_index(n) < n


def test_zipf_concentrates_on_low_indices():
    rng = WorkloadRandom(12)
    draws = [rng.zipf_index(100, 1.2) for _ in range(10_000)]
    top_ten = sum(1 for draw in draws if draw < 10) / len(draws)
    assert top_ten > 0.5


def test_zipf_rejects_empty():
    with pytest.raises(ValueError):
        WorkloadRandom(0).zipf_index(0)


def test_chance_extremes():
    rng = WorkloadRandom(13)
    assert not any(rng.chance(0.0) for _ in range(100))
    assert all(rng.chance(1.0) for _ in range(100))


def test_choice_and_sample():
    rng = WorkloadRandom(14)
    items = list(range(50))
    assert rng.choice(items) in items
