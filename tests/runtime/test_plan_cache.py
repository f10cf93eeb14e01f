"""Tests for BoundedMemo, the process-wide plan cache on it, and its API integration."""

import re
import sys
import threading

import numpy as np
import pytest

from repro import Insum, clear_plan_cache, get_plan_cache, insum, sparse_einsum
from repro.formats import COO, GroupCOO
from repro.obs.metrics import get_registry
from repro.runtime.plan_cache import BoundedMemo, CachedPlan


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from compilations cached by earlier tests."""
    clear_plan_cache()
    yield
    clear_plan_cache()


def _spmm_tensors(rng, n_cols=4):
    dense = np.where(rng.random((8, 12)) < 0.4, rng.standard_normal((8, 12)), 0.0)
    coo = COO.from_dense(dense)
    return dict(
        C=np.zeros((8, n_cols)),
        AV=coo.values,
        AM=coo.coords[0],
        AK=coo.coords[1],
        B=rng.standard_normal((12, n_cols)),
    )


# ---------------------------------------------------------------------------
# The memo data structure itself
# ---------------------------------------------------------------------------
def test_lru_eviction_order():
    cache = BoundedMemo("lru", maxsize=2)
    cache.put("a", CachedPlan(plan=1, compiled=1))
    cache.put("b", CachedPlan(plan=2, compiled=2))
    assert cache.get("a") is not None  # promotes "a" to MRU
    cache.put("c", CachedPlan(plan=3, compiled=3))  # evicts "b"
    assert "b" not in cache
    assert "a" in cache and "c" in cache
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.size == 2


def test_stats_counters_and_hit_rate():
    cache = BoundedMemo("lru", maxsize=4)
    assert cache.get("missing") is None
    cache.put("k", CachedPlan(plan=None, compiled=None))
    assert cache.get("k") is not None
    stats = cache.stats()
    assert (stats.hits, stats.misses) == (1, 1)
    assert stats.hit_rate == 0.5
    assert "hit rate" in stats.summary()


def test_stats_since_delta():
    cache = BoundedMemo("lru")
    cache.get("x")
    mark = cache.stats()
    cache.put("x", CachedPlan(plan=None, compiled=None))
    cache.get("x")
    cache.get("x")
    delta = cache.stats().since(mark)
    assert (delta.hits, delta.misses) == (2, 0)


def test_resize_evicts_lru():
    cache = BoundedMemo("lru", maxsize=4)
    for key in "abcd":
        cache.put(key, CachedPlan(plan=key, compiled=key))
    cache.resize(2)
    assert len(cache) == 2
    assert "c" in cache and "d" in cache


def test_put_is_first_writer_wins():
    cache = BoundedMemo("lru")
    first = cache.put("k", CachedPlan(plan="first", compiled="first"))
    second = cache.put("k", CachedPlan(plan="second", compiled="second"))
    assert first is second
    assert second.compiled == "first"


def test_invalid_maxsize_rejected():
    with pytest.raises(ValueError):
        BoundedMemo("lru", maxsize=0)


def test_an_eviction_is_counted_under_the_memos_name_on_the_registry():
    memo = BoundedMemo("eviction_probe", maxsize=1)
    memo.put("a", 1)
    memo.put("b", 2)
    assert memo.stats().evictions == 1
    assert 'repro_memo_evictions_total{memo="eviction_probe"}' in get_registry().render_prometheus()


def test_clear_zeroes_the_counters_unless_told_not_to():
    memo = BoundedMemo("lru")
    memo.put("k", 1)
    memo.get("k"), memo.get("missing")
    memo.clear(reset_stats=False)
    assert (len(memo), memo.hits, memo.misses) == (0, 1, 1)
    memo.clear()
    assert (memo.hits, memo.misses) == (0, 0)


def scraped(family: str, memo: str) -> float:
    """The value of ``family{memo=...}`` in a ``/metrics`` scrape of the registry."""
    text = get_registry().render_prometheus()
    match = re.search(rf'^{family}\{{memo="{memo}"\}} (\S+)$', text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


def test_eight_threads_of_hits_on_one_memo_scrape_exactly():
    """A hit counts under the memo's own lock alone and loses no update."""
    memo, each = BoundedMemo("threaded_hit_probe"), 5_000
    memo.put("k", 1)
    before = scraped("repro_memo_hits_total", memo.name)
    start = threading.Barrier(8)

    def work() -> None:
        start.wait(timeout=60)
        for _ in range(each):
            memo.get("k")

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the lookups
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert scraped("repro_memo_hits_total", memo.name) - before == 8 * each
    assert (memo.hits, memo.misses) == (8 * each, 0)


def test_a_reset_of_a_memos_counters_waits_for_the_lookup_in_progress():
    """``MetricsRegistry.reset`` zeroes each child under the child's lock,
    which for a memo's counters is the memo's own: a reset lands before or
    after a lookup's count, never between its read and its write."""
    tally = BoundedMemo("reset_order_probe")._tally
    for counter in (tally.hits, tally.misses, tally.evictions):
        with tally.lock:  # a lookup in progress
            resetter = threading.Thread(target=counter._reset)
            resetter.start()
            resetter.join(timeout=0.2)
            assert resetter.is_alive()
            counter.add_held()
        resetter.join(timeout=60)
        assert not resetter.is_alive()
        assert counter.value() == 0


def test_resets_during_eight_threads_of_hits_lose_no_later_hit():
    """After the last reset the scrape counts exactly the hits that followed
    it: between ``total - hits(after)`` and ``total - hits(before)``."""
    memo, each = BoundedMemo("reset_race_probe"), 5_000
    memo.put("k", 1)
    counter, start, windows = memo._tally.hits, threading.Barrier(9), []

    def work() -> None:
        start.wait(timeout=60)
        for _ in range(each):
            memo.get("k")

    threads = [threading.Thread(target=work) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        start.wait(timeout=60)
        while any(thread.is_alive() for thread in threads):
            before = memo.hits
            counter._reset()  # what MetricsRegistry.reset does to this child
            windows.append((before, memo.hits))
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    before, after = windows[-1]
    assert 8 * each - after <= scraped("repro_memo_hits_total", memo.name) <= 8 * each - before


# ---------------------------------------------------------------------------
# Signature correctness (the dtype satellite fix)
# ---------------------------------------------------------------------------
def test_signature_distinguishes_dtypes(rng):
    tensors = _spmm_tensors(rng)
    op = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]")
    as_f64 = op.compile(**tensors)
    tensors32 = dict(tensors, B=tensors["B"].astype(np.float32))
    as_f32 = op.compile(**tensors32)
    assert as_f64 is not as_f32  # same shapes, different dtypes


def test_signature_shared_for_identical_shapes_and_dtypes(rng):
    tensors = _spmm_tensors(rng)
    op = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]")
    first = op.compile(**tensors)
    second = op.compile(**{k: v.copy() for k, v in tensors.items()})
    assert first is second


def test_no_config_and_the_default_config_share_one_plan(rng):
    from repro import InductorConfig

    tensors = _spmm_tensors(rng)
    mark = get_plan_cache().stats()
    first = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]").compile(**tensors)
    second = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]", config=InductorConfig()).compile(**tensors)
    assert first is second
    assert get_plan_cache().stats().since(mark).misses == 1


# ---------------------------------------------------------------------------
# One-shot helpers route through the global cache
# ---------------------------------------------------------------------------
def test_one_shot_insum_reuses_global_cache(rng):
    tensors = _spmm_tensors(rng)
    expected = get_plan_cache().stats().misses
    insum("C[AM[p],n] += AV[p] * B[AK[p],n]", **tensors)
    insum("C[AM[p],n] += AV[p] * B[AK[p],n]", **tensors)
    insum("C[AM[p],n] += AV[p] * B[AK[p],n]", **tensors)
    stats = get_plan_cache().stats()
    assert stats.misses == expected + 1  # one compile, then pure hits
    assert stats.hits >= 2


def test_one_shot_sparse_einsum_reuses_global_cache(rng):
    dense = np.where(rng.random((16, 24)) < 0.3, rng.standard_normal((16, 24)), 0.0)
    fmt = GroupCOO.from_dense(dense, group_size=4)
    b = rng.standard_normal((24, 5))
    sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=fmt, B=b)
    mark = get_plan_cache().stats()
    out = sparse_einsum("C[m,n] += A[m,k] * B[k,n]", A=fmt, B=b)
    delta = get_plan_cache().stats().since(mark)
    assert delta.misses == 0 and delta.hits == 1
    np.testing.assert_allclose(out, dense @ b, atol=1e-10)


def test_distinct_backends_do_not_share_kernels(rng):
    tensors = _spmm_tensors(rng)
    fused = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]").compile(**tensors)
    eager = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]", backend="eager").compile(**tensors)
    assert fused is not eager


def test_bounds_still_checked_on_cache_hit(rng):
    from repro.errors import EinsumValidationError

    tensors = _spmm_tensors(rng)
    insum("C[AM[p],n] += AV[p] * B[AK[p],n]", **tensors)
    bad = dict(tensors, AM=np.full_like(tensors["AM"], 99))
    with pytest.raises(EinsumValidationError, match="out of"):
        insum("C[AM[p],n] += AV[p] * B[AK[p],n]", **bad)


def test_cross_instance_sharing(rng):
    tensors = _spmm_tensors(rng)
    first = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]").compile(**tensors)
    second = Insum("C[AM[p],n] += AV[p] * B[AK[p],n]").compile(**tensors)
    assert first is second
