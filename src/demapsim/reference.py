"""Digital reference demappers: exact and max-log LLRs.

Both accept scalar or array observations and read the per-bit tables
that ``Constellation`` builds once.  The exact LLR is a log-sum-exp
over each class, shifted by that class's own largest exponent, so it
neither overflows nor underflows at high SNR; one shift shared by both
classes would flush the losing class to zero there.  The max-log LLR is
exactly piecewise linear: on the segment where a is the nearest class-0
point and b the nearest class-1 point it equals
SNR * ((r - a)^2 - (r - b)^2) = 2 SNR (b - a) (r - (a + b) / 2),
so one sorted search for the segment replaces any minimum search.
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation, bit_row


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
    r1 = np.atleast_1d(r_arr)
    out = _class_logsumexp(r1, p1, inv) - _class_logsumexp(r1, p0, inv)
    return float(out[0]) if r_arr.ndim == 0 else out


def maxlog_llr(r, k: int, c: Constellation, p) -> np.ndarray | float:
    """Max-log LLR: SNR * (min_{I_k^0} (r - x)^2 - min_{I_k^1} (r - x)^2)."""
    kinks, a, b = c.maxlog_segments[bit_row(k)]
    r_arr = np.asarray(r, dtype=float)
    seg = np.searchsorted(kinks, r_arr, side="right")
    out = maxlog_segment_slopes(k, c, p)[seg] * (r_arr - ((a + b) / 2.0)[seg])
    return float(out) if r_arr.ndim == 0 else out


def maxlog_segment_slopes(k: int, c: Constellation, p) -> np.ndarray:
    """Slope of the max-log LLR on each segment between its kinks.

    On a segment where a is the active class-0 point and b the active
    class-1 point, the LLR is SNR * ((r-a)^2 - (r-b)^2), with slope
    2 * SNR * (b - a).
    """
    _, a, b = c.maxlog_segments[bit_row(k)]
    return 2.0 * p.snr_linear * (b - a)
