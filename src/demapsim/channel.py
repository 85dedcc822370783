"""AWGN channel with reproducible per-worker random streams.

SNR here is the one-dimensional definition 1 / (2 sigma^2); no Eb/N0
conversion is offered.  Monte Carlo work is split into fixed logical
chunks, each owning a private stream derived from (master seed, chunk
index), so results do not depend on how chunks are scheduled onto
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation

# Fixed work-unit size for chunked Monte Carlo; results are invariant to
# the number of threads because streams attach to chunk indices.
DEFAULT_CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class ChannelParams:
    snr_db: float
    sigma: float

    @property
    def snr_linear(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


def from_snr_db(snr_db: float) -> ChannelParams:
    """Noise standard deviation from SNR = 1 / (2 sigma^2) in dB; ValueError
    unless it is finite and positive, as over- or underflow can make it."""
    snr_db = float(snr_db)
    try:
        sigma = float(np.sqrt(1.0 / (2.0 * 10.0 ** (snr_db / 10.0))))
    except (OverflowError, ZeroDivisionError):
        sigma = 0.0
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"{snr_db} dB is out of range: the noise sigma it gives is not finite and positive")
    return ChannelParams(snr_db=snr_db, sigma=sigma)


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
    """Split n_total samples into fixed-size work units (last one short)."""
    if n_total <= 0:
        raise ValueError(f"n_total must be positive, got {n_total}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    full, rem = divmod(n_total, chunk_size)
    return [chunk_size] * full + ([rem] if rem else [])


def draw(c: Constellation, p: ChannelParams, seed: int, stream: int, chunk_index: int, n: int):
    """Uniform symbols of one chunk and their noisy observations.

    Returns the label bits of the drawn points as uint8, shape (n, 3),
    column-major so that each bit position is contiguous, and the
    observations.  Both come from the chunk's private stream.
    """
    rng = worker_rng(seed, chunk_index, stream=stream)
    idx = rng.integers(0, c.points.size, n)
    # uint8 is an eighth of the memory of int labels; np.take gathers far faster than indexing
    bits = np.take(c.labels.T.astype(np.uint8), idx, axis=1).T
    return bits, transmit(c.points[idx], p, rng)


def map_chunks(fn, n_total: int, chunk_size: int, n_workers: int) -> list:
    """``fn(i, n)`` for every chunk i of n samples, in chunk order.

    With w > 1 workers the calling thread is one of them: it runs chunks
    0, w, 2w, ... itself while a pool of w - 1 threads runs the rest.
    The results still come back in chunk order, not completion order,
    and an error is raised only once every submitted chunk has ended.
    """
    sizes = chunk_sizes(n_total, chunk_size)
    if n_workers <= 1:
        return [fn(i, n) for i, n in enumerate(sizes)]
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    with ThreadPoolExecutor(max_workers=n_workers - 1) as pool:  # leaving it waits for every chunk
        helped = {i: pool.submit(fn, i, n) for i, n in enumerate(sizes) if i % n_workers}
        own = {i: fn(i, sizes[i]) for i in range(0, len(sizes), n_workers)}
    return [own[i] if i in own else helped[i].result() for i in range(len(sizes))]
