"""AWGN channel with reproducible per-worker random streams.

SNR here is the one-dimensional definition 1 / (2 sigma^2); no Eb/N0
conversion is offered.  Monte Carlo work is split into fixed logical
chunks, each owning a private stream derived from (master seed, chunk
index), so results do not depend on how chunks are scheduled onto
threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation

# Fixed work-unit size for chunked Monte Carlo; results are invariant to
# the number of threads because streams attach to chunk indices.
DEFAULT_CHUNK_SIZE = 1 << 16


class Nodes(np.ndarray):
    """A view (``a.view(Nodes)``) of a 1-d float64 array that is ascending and finite, made only by
    the code that sorted or built it: nothing checks it.  The LLR rules trust it and take their sliced
    paths (``reference.maxlog_llr``, ``analog.cell_output_v``); any other array takes their general
    path, which checks it and gives the same bits more slowly.  A rising ``AffineMap`` keeps it; numpy
    keeps the type through slicing and ufuncs too, so transform ``np.asarray(nodes)``, not the view."""


@dataclass(frozen=True)
class ChannelParams:
    snr_db: float
    sigma: float

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


# a calibrated LLR of the wrong sign grows like the SNR, and its square in the
# MI sums overflows above about +1538 dB for a soft knee or a narrow window
SNR_DB_MAX = 1000.0


def from_snr_db(snr_db: float) -> ChannelParams:
    """Noise standard deviation from SNR = 1 / (2 sigma^2) in dB; ValueError
    unless |snr_db| is at most ``SNR_DB_MAX``."""
    snr_db = float(snr_db)
    if not abs(snr_db) <= SNR_DB_MAX:
        raise ValueError(f"{snr_db} dB is out of range: |snr_db| must be at most {SNR_DB_MAX:g} dB")
    return ChannelParams(snr_db=snr_db, sigma=float(np.sqrt(1.0 / (2.0 * 10.0 ** (snr_db / 10.0)))))


def transmit(x, p: ChannelParams, rng: np.random.Generator):
    """Add white Gaussian noise of standard deviation p.sigma to x."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return float(x) + rng.normal(0.0, p.sigma)
    return x + rng.normal(0.0, p.sigma, size=x.shape)


def worker_rng(master_seed: int, worker_index: int, stream: int = 0) -> np.random.Generator:
    """Private generator for one logical worker (chunk).

    Derivation hashes (master seed, stream, worker index) through
    SeedSequence, so every chunk sees the same values on every machine
    and under any thread count.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(stream), int(worker_index)))
    return np.random.default_rng(ss)


def chunk_sizes(n_total: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> list[int]:
    """Split n_total samples into fixed-size work units (last one short): the one check of a
    chunked run's counts, each an int (Python or numpy, not bool) of at least 1 or a ValueError."""
    for name, value in (("n_total", n_total), ("chunk_size", chunk_size)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    full, rem = divmod(n_total, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


def draw(c: Constellation, p: ChannelParams, seed: int, stream: int, chunk_index: int, n: int):
    """Uniform symbols of one chunk and their noisy observations.

    Returns the label bits of the drawn points as uint8, shape (n, bits),
    column-major so that each bit position is contiguous, and the
    observations.  Both come from the chunk's private stream.
    """
    rng = worker_rng(seed, chunk_index, stream=stream)
    idx = rng.integers(0, c.points.size, n)
    # uint8 is an eighth of the memory of int labels; np.take gathers far faster than indexing
    bits = np.take(c.labels.T.astype(np.uint8), idx, axis=1).T
    x = c.points[idx]
    del idx  # freed before the noise draw; the stream makes the same calls in the same order
    return bits, transmit(x, p, rng)


@functools.cache
def _steady_heap() -> None:
    """Fix glibc's malloc settings once per process, so the pages a chunk frees stay mapped
    for the next chunk, not trimmed and faulted back in (about 20k minor faults per ``mc-gmi``
    pass); either threshold alone stops glibc's dynamic ones.  No output changes."""
    import ctypes  # not on the set-up path
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)  # None where the C library has none
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD, above every routine chunk array (512 KiB)
        mallopt(-1, 16 << 20)  # M_TRIM_THRESHOLD, above a chunk's working set
        mallopt(-8, 1)  # M_ARENA_MAX, so no pool thread gets a fresh arena (+5 MB kept mapped)


def map_chunks(fn, n_total: int, chunk_size: int, n_workers: int) -> list:
    """``fn(i, n)`` for every chunk i of n of ``chunk_sizes(n_total, chunk_size)``, in chunk order.

    With w > 1 workers the calling thread is one of them: it runs chunks
    0, w, 2w, ... itself while a pool of w - 1 threads runs the rest.
    The results still come back in chunk order, not completion order,
    and an error is raised only once every submitted chunk has ended.
    """
    _steady_heap()
    sizes = chunk_sizes(n_total, chunk_size)
    if n_workers <= 1:
        return [fn(i, n) for i, n in enumerate(sizes)]
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    with ThreadPoolExecutor(max_workers=n_workers - 1) as pool:  # leaving it waits for every chunk
        helped = {i: pool.submit(fn, i, n) for i, n in enumerate(sizes) if i % n_workers}
        own = {i: fn(i, sizes[i]) for i in range(0, len(sizes), n_workers)}
    return [own[i] if i in own else helped[i].result() for i in range(len(sizes))]
