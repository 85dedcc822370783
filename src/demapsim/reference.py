"""Digital reference demappers: exact and max-log LLRs.

Both accept scalar or array observations and read the per-bit tables
that ``Constellation`` builds once.  The exact LLR is a log-sum-exp
over each class, shifted by that class's own largest exponent, so it
neither overflows nor underflows at high SNR; one shift shared by both
classes would flush the losing class to zero there.  It runs in blocks
with L2-sized exponent buffers and the bits of one pass.  The max-log
LLR is exactly piecewise linear: on the segment where a is the nearest
class-0 point and b the nearest class-1 point it equals
SNR * ((r - a)^2 - (r - b)^2) = 2 SNR (b - a) (r - (a + b) / 2),
so one sorted search for the segment replaces any minimum search, and
on ``channel.Nodes`` each segment is a slice.
"""

from __future__ import annotations

import numpy as np

from .channel import Nodes
from .constellation import Constellation, bit_row

EXACT_BLOCK = 8192  # samples: a class's (4, 8192) float64 exponents are 256 KiB


def _class_logsumexp(r: np.ndarray, pts: np.ndarray, inv: float) -> np.ndarray:
    """log sum_x exp(-(r - x)^2 * inv) over the points of one class.

    The exponents live in one (points, samples) buffer that is updated
    in place; the per-sample shift is this class's largest exponent.
    """
    e = np.subtract.outer(pts, r)
    np.square(e, out=e)
    e *= -inv
    shift = e.max(axis=0)
    e -= shift
    np.exp(e, out=e)
    out = e.sum(axis=0)
    np.log(out, out=out)
    out += shift
    return out


def exact_llr(r, k: int, c: Constellation, p) -> np.ndarray | float:
    """LLR of bit k from the true Gaussian likelihoods.

    log sum_{i in I_k^1} exp(-(r - x_i)^2 / 2 sigma^2)
      - log sum_{i in I_k^0} exp(-(r - x_i)^2 / 2 sigma^2)
    """
    p0, p1 = c.class_points[bit_row(k)]
    r_arr = np.asarray(r, dtype=float)
    inv = 1.0 / (2.0 * p.sigma * p.sigma)
    flat = r_arr.reshape(-1)
    out = np.empty(flat.size)
    for lo in range(0, flat.size, EXACT_BLOCK):
        rb = flat[lo : lo + EXACT_BLOCK]
        np.subtract(_class_logsumexp(rb, p1, inv), _class_logsumexp(rb, p0, inv), out=out[lo : lo + EXACT_BLOCK])
    return float(out[0]) if r_arr.ndim == 0 else out.reshape(r_arr.shape)


def maxlog_llr(r, k: int, c: Constellation, p) -> np.ndarray | float:
    """Max-log LLR: SNR * (min_{I_k^0} (r - x)^2 - min_{I_k^1} (r - x)^2)."""
    kinks, a, b = c.maxlog_segments[bit_row(k)]
    r_arr = np.asarray(r, dtype=float)
    slopes, mids = maxlog_segment_slopes(k, c, p), (a + b) / 2.0
    if type(r) is Nodes:
        # no gathers; r == kink starts the next segment, as with side="right" below
        edges, out = [0, *np.searchsorted(r_arr, kinks).tolist(), r_arr.size], np.empty_like(r_arr)
        for lo, hi, mid, slope in zip(edges, edges[1:], mids, slopes):
            seg = np.subtract(r_arr[lo:hi], mid, out=out[lo:hi])
            seg *= slope
        return out
    seg = np.searchsorted(kinks, r_arr, side="right")
    out = slopes[seg] * (r_arr - mids[seg])
    return float(out) if r_arr.ndim == 0 else out


def maxlog_segment_slopes(k: int, c: Constellation, p) -> np.ndarray:
    """Slope 2 SNR (b - a) of the max-log LLR on each segment between its kinks."""
    _, a, b = c.maxlog_segments[bit_row(k)]
    return 2.0 * p.snr_linear * (b - a)
