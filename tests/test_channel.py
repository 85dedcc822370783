import concurrent.futures
import math
import platform
import re
import resource
import threading
import time

import numpy as np
import pytest

from demapsim.channel import SNR_DB_MAX, chunk_sizes, draw, from_snr_db, map_chunks, transmit, worker_rng
from demapsim.constellation import build_pam8
from demapsim.metrics import evaluate_demappers
from demapsim.reference import exact_llr, maxlog_llr


class TestSnrConversion:
    def test_zero_db(self):
        assert from_snr_db(0.0).sigma == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_ten_db(self):
        # 1 / (2 * 10) = 0.05 by hand
        assert from_snr_db(10.0).sigma == pytest.approx(math.sqrt(0.05), abs=1e-12)

    def test_sigma_strictly_decreasing_in_snr(self):
        sigmas = [from_snr_db(s).sigma for s in np.linspace(-10, 30, 81)]
        assert all(a > b for a, b in zip(sigmas, sigmas[1:]))

    def test_invariant_relation(self):
        p = from_snr_db(7.3)
        assert abs(p.sigma - math.sqrt(1.0 / (2.0 * 10 ** 0.73))) < 1e-12
        assert p.sigma > 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            from_snr_db(float("nan"))

    @pytest.mark.parametrize("snr_db", [float("inf"), -float("inf"), 4000.0, 3080.0, -3100.0, -4000.0])
    def test_sigma_must_be_finite_and_positive(self, snr_db):
        with pytest.raises(ValueError, match="out of range"):
            from_snr_db(snr_db)
        assert 0.0 < from_snr_db(np.sign(snr_db) * 1000.0).sigma < np.inf

    @pytest.mark.parametrize("edge", [-SNR_DB_MAX, SNR_DB_MAX])
    def test_snr_bound_is_inclusive(self, edge):
        assert SNR_DB_MAX == 1000.0
        assert from_snr_db(edge).snr_db == edge
        assert 0.0 < from_snr_db(np.nextafter(edge, 0.0)).sigma < np.inf
        with pytest.raises(ValueError, match=r"out of range: \|snr_db\| must be at most 1000 dB"):
            from_snr_db(np.nextafter(edge, 2.0 * edge))


class TestTransmit:
    def test_deterministic_given_stream(self):
        p = from_snr_db(5.0)
        a = transmit(np.zeros(100), p, worker_rng(99, 0))
        b = transmit(np.zeros(100), p, worker_rng(99, 0))
        np.testing.assert_array_equal(a, b)

    def test_degenerate_noise_limit(self):
        p = from_snr_db(200.0)  # sigma ~ 7e-11
        r = transmit(0.25, p, worker_rng(1, 0))
        assert abs(r - 0.25) < 1e-9

    def test_noise_mean(self):
        p = from_snr_db(3.0)
        n = 10**6
        r = transmit(np.zeros(n), p, worker_rng(2024, 0))
        # CLT bound: 4 sigma / sqrt(n)
        assert abs(r.mean()) < 4.0 * p.sigma / 1000.0

    def test_noise_variance(self):
        p = from_snr_db(3.0)
        n = 10**6
        r = transmit(np.zeros(n), p, worker_rng(2025, 0))
        assert r.var() == pytest.approx(p.sigma**2, rel=0.01)


class TestWorkerStreams:
    def test_same_index_same_stream(self):
        a = worker_rng(7, 3).normal(size=8)
        b = worker_rng(7, 3).normal(size=8)
        np.testing.assert_array_equal(a, b)

    def test_different_index_different_stream(self):
        a = worker_rng(7, 0).normal(size=8)
        b = worker_rng(7, 1).normal(size=8)
        assert not np.allclose(a, b)

    def test_stream_id_separates_experiments(self):
        a = worker_rng(7, 0, stream=0).normal(size=8)
        b = worker_rng(7, 0, stream=1).normal(size=8)
        assert not np.allclose(a, b)


class TestChunking:
    def test_sizes_cover_total(self):
        sizes = chunk_sizes(100_001, 2**14)
        assert sum(sizes) == 100_001
        assert all(s == 2**14 for s in sizes[:-1])

    def test_invalid_total(self):
        with pytest.raises(ValueError):
            chunk_sizes(0)
        for size in (0, -3):
            with pytest.raises(ValueError, match="chunk_size"):
                chunk_sizes(10, size)

    @pytest.mark.parametrize("name, args", [
        ("n_total", (True, 4)), ("n_total", (10.0, 4)), ("n_total", ("10", 4)), ("n_total", (-1, 4)),
        ("chunk_size", (10, True)), ("chunk_size", (10, 4.0)), ("chunk_size", (10, None)),
    ])
    def test_counts_must_be_ints_of_at_least_1(self, name, args):
        bad = args[0] if name == "n_total" else args[1]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer of at least 1, got {re.escape(repr(bad))}$"):
            chunk_sizes(*args)

    def test_numpy_ints_are_accepted(self):
        assert chunk_sizes(np.int64(10), np.int32(4)) == [4, 4, 2]


class TestDraw:
    def test_follows_the_chunk_stream(self):
        # symbol indices first, then the noise, from the stream of (seed, stream, chunk)
        c = build_pam8()
        p = from_snr_db(4.0)
        bits, r = draw(c, p, 21, 3, 5, 1000)
        rng = worker_rng(21, 5, stream=3)
        idx = rng.integers(0, 8, 1000)
        assert bits.dtype == np.uint8
        np.testing.assert_array_equal(bits, c.labels[idx])
        np.testing.assert_array_equal(r, c.points[idx] + rng.normal(0.0, p.sigma, 1000))

    def test_bit_columns_are_contiguous(self):
        bits, _ = draw(build_pam8(), from_snr_db(4.0), 21, 3, 5, 1000)
        assert bits.shape == (1000, 3)
        assert all(bits[:, k].flags.c_contiguous for k in range(3))


class TestMapChunks:
    def test_results_in_chunk_order(self):
        def fn(i, n):
            time.sleep(0.002 * (7 - i))  # early chunks finish last
            return i, n

        expected = list(enumerate(chunk_sizes(100_001, 2**14)))
        assert map_chunks(fn, 100_001, 2**14, 1) == expected
        assert map_chunks(fn, 100_001, 2**14, 3) == expected

    def test_one_worker_opens_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("thread pool opened")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert map_chunks(lambda i, n: n, 10, 4, 1) == [4, 4, 2]

    @pytest.mark.parametrize("n_workers, n_chunks", [(2, 2), (2, 7), (3, 2), (3, 7), (8, 3)])
    def test_caller_runs_chunks_0_w_2w_beside_a_smaller_pool(self, monkeypatch, n_workers, n_chunks):
        pools = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        caller = threading.get_ident()

        def fn(i, n):
            time.sleep(0.001 * (n_chunks - i))  # early chunks finish last
            return i, n, threading.get_ident()

        out = map_chunks(fn, 10 * n_chunks - 3, 10, n_workers)
        assert pools == [n_workers - 1]
        assert [(i, n) for i, n, _ in out] == list(enumerate(chunk_sizes(10 * n_chunks - 3, 10)))
        assert [i for i, _, thread in out if thread == caller] == list(range(0, n_chunks, n_workers))

    @pytest.mark.parametrize("failing", [0, 1, 2])
    def test_an_error_is_raised_after_every_chunk_ends(self, failing):
        # chunk 0 and 3 run on the calling thread, 1, 2 and 4 on the two helpers
        ended = []
        before = threading.active_count()

        def fn(i, n):
            time.sleep(0.01 if i != failing else 0.0)
            ended.append(i)
            if i == failing:
                raise RuntimeError(f"chunk {i}")
            return i

        with pytest.raises(RuntimeError, match=f"chunk {failing}"):
            map_chunks(fn, 50, 10, 3)
        assert {1, 2, 4} <= set(ended)  # every submitted chunk ended before the raise
        assert threading.active_count() == before


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the chunk runner tunes glibc's malloc only")
@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_warm_chunk_runner_does_not_fault_its_pages_back_in(n_workers):
    # with glibc's dynamic thresholds, each chunk's freed working set is
    # trimmed and faulted back in by the next: about 1,000 faults a chunk;
    # and a helper thread that starts before the last one has exited would
    # get a fresh arena and fault in its own working set
    c = build_pam8()
    p = from_snr_db(7.0)
    fns = {"exact": lambda r, k: exact_llr(r, k, c, p), "maxlog": lambda r, k: maxlog_llr(r, k, c, p)}

    def run():
        return evaluate_demappers(fns, c, p, 2 * 65_536, 8, ref_id="exact", n_workers=n_workers)

    first = run()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    second = run()
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 300
    assert second == first
