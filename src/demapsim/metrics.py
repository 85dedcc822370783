"""Monte Carlo evaluation: bit-wise mutual information, GMI, rate
penalty, hard-decision BER and energy accounting.

All demappers at one SNR are evaluated on identical noise realizations
(paired sampling), so penalty and ordering comparisons carry far less
variance than the individual estimates.  Work is chunked per the
channel module's stream contract and reduced in chunk order, making
results independent of the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .constellation import Constellation

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class GmiEstimate:
    """Per-bit mutual information estimates and their average.

    ``gmi`` is the arithmetic mean of ``per_bit_mi`` (per bit position,
    so it lives on a [0, 1] scale for matched LLRs).  ``std_error`` is
    the standard error of the gmi estimate, computed from the per-symbol
    combined summand so inter-bit correlation is accounted for.  Note
    that a per-bit estimate may dip slightly below zero for mismatched
    LLR rules at very low SNR; that is a property of the metric, not an
    estimation artifact.
    """

    per_bit_mi: tuple[float, float, float]
    gmi: float
    std_error: float
    n_samples: int
    per_bit_se: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not math.isclose(self.gmi, sum(self.per_bit_mi) / 3.0, rel_tol=0, abs_tol=1e-12):
            raise ValueError("gmi must equal the mean of per_bit_mi")
        if self.n_samples <= 0:
            raise ValueError("n_samples must be positive")


@dataclass(frozen=True)
class BerEstimate:
    errors: int
    bits: int

    def __post_init__(self):
        if self.bits <= 0 or self.errors < 0 or self.errors > self.bits:
            raise ValueError(f"invalid error count {self.errors}/{self.bits}")

    @property
    def ber(self) -> float:
        return self.errors / self.bits

    @property
    def std_error(self) -> float:
        p = self.ber
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.bits)


# exp(-700) is still a normal float64, so np.exp stays on its fast path
_SOFTPLUS_CLAMP = 700.0


def _softplus_(x: np.ndarray) -> np.ndarray:
    """Overwrite the float array x with ln(1 + e^x) and return it.

    Computes max(x, 0) + log1p(exp(-min(|x|, 700))): the same terms as
    np.logaddexp(0, x) at about half the cost and within a few ulps of
    it, except that below x = -700 the result is about 1e-304, not e^x.
    """
    tail = np.abs(x, out=np.empty_like(x))
    np.minimum(tail, _SOFTPLUS_CLAMP, out=tail)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    np.log1p(tail, out=tail)
    np.maximum(x, 0.0, out=x)
    x += tail
    return x


def mi_summands(bits, llrs) -> np.ndarray:
    """Per-sample values of log2(1 + exp((-1)^b * L)), overflow-safe."""
    s = np.multiply(bits, -2.0, dtype=float)
    s += 1.0  # (-1)^b, so the product below is an exact sign flip
    s *= llrs
    _softplus_(s)
    s /= _LN2
    return s


def rate_penalty(gmi_approx: float, gmi_exact: float) -> float:
    """Relative GMI loss of an approximate demapper, in percent."""
    if not gmi_exact > 0:
        raise ValueError(f"reference GMI must be positive, got {gmi_exact}")
    return 100.0 * (gmi_exact - gmi_approx) / gmi_exact


def energy_per_bit(power_w: float, symbol_rate: float, bits_per_symbol: int) -> float:
    """Energy per transported bit, joules."""
    if power_w <= 0 or symbol_rate <= 0 or bits_per_symbol <= 0:
        raise ValueError("power, symbol rate and bits per symbol must be positive")
    return power_w / (symbol_rate * bits_per_symbol)


@dataclass(frozen=True)
class DemapperEvaluation:
    gmi_est: GmiEstimate
    ber_est: BerEstimate
    # paired mean and std error of gmi(this) - gmi(reference), from the
    # per-symbol (reference summand - this summand); negative on a loss
    gmi_minus_ref: float | None = None
    gmi_minus_ref_se: float | None = None


def _eval_chunk(llr_fns, bits, r, ref_id):
    """Each rule's sums over one chunk, one float64 array per rule:
    [0:5] the sums and [5:10] the sums of squares of, in order, the
    three bit summands, their per-symbol mean, and the paired difference
    ref - this of that mean (0 for the reference); [10] the bit errors.
    """
    sums = {}
    ref_sym = None
    names = sorted(llr_fns, key=lambda name: name != ref_id)  # the reference first, for pairing
    for name in names:
        fn = llr_fns[name]
        t = sums[name] = np.zeros(11)
        sym = np.zeros(r.size)  # per-symbol sum, then mean, of the bit summands
        for k in (1, 2, 3):
            llr = fn(r, k)
            s = mi_summands(bits[:, k - 1], llr)
            t[k - 1] = s.sum()
            t[k + 4] = (s * s).sum()
            sym += s
            del s  # not alive while the next rule runs
            t[10] += np.count_nonzero((llr >= 0.0) != bits[:, k - 1])
        if not np.isfinite(t[:3]).all():
            raise ValueError(f"demapper {name!r}: its LLRs give non-finite information (a NaN, or an inf of the wrong sign)")
        sym /= 3.0
        t[3] = sym.sum()
        t[8] = (sym * sym).sum()
        if name == ref_id:
            ref_sym = sym
        elif ref_sym is not None:
            diff = np.subtract(ref_sym, sym, out=sym)  # negative when this demapper loses rate
            t[4] = diff.sum()
            t[9] = (diff * diff).sum()
    return sums


def _mean_se(total, total_sq, n):
    """Mean and standard error of the mean from a sum and a sum of squares over n."""
    mean = total / n
    return mean, np.sqrt(np.maximum(total_sq / n - mean * mean, 0.0) / n)


def evaluate_demappers(
    llr_fns: dict,
    c: Constellation,
    params,
    n_symbols: int,
    seed: int,
    *,
    ref_id: str | None = None,
    stream: int = 0,
    n_workers: int = 1,
    chunk_size: int = channel.DEFAULT_CHUNK_SIZE,
) -> dict[str, DemapperEvaluation]:
    """Paired Monte Carlo evaluation of several LLR rules at one SNR.

    ``llr_fns`` maps a demapper id to a callable (r_array, k) -> LLR
    array that is pointwise in r.  All rules see identical observations,
    each chunk's in ascending order.  ``ref_id`` selects the rule
    against which paired GMI differences are tracked.  Each chunk job
    sorts its draw and returns one array of sums per rule (layout in
    ``_eval_chunk``); the arrays are added in chunk order, and every
    mean and standard error comes from them through ``_mean_se``.
    """
    if n_symbols < 1:
        raise ValueError("n_symbols must be positive")
    if ref_id is not None and ref_id not in llr_fns:
        raise ValueError(f"ref_id {ref_id!r} is not among the demapper ids {list(llr_fns)}")

    def job(i, n):
        bits, r = channel.draw(c, params, seed, stream, i, n)
        # rules are pointwise in r, so the chunk is evaluated and summed in ascending
        # r; its draw-order arrays and the permutation are freed before any rule runs
        order = np.argsort(r)
        r = r[order]
        bits = np.take(bits.T, order, axis=1).T  # column-major like the draw: each bit contiguous
        del order
        return _eval_chunk(llr_fns, bits, r, ref_id)

    totals = dict.fromkeys(llr_fns, 0.0)
    for result in channel.map_chunks(job, n_symbols, chunk_size, n_workers):
        for name, t in result.items():
            totals[name] += t

    out = {}
    n = n_symbols
    for name, t in totals.items():
        mean, se = _mean_se(t[:5], t[5:10], n)
        per_bit = tuple(float(1.0 - x) for x in mean[:3])
        est = GmiEstimate(
            per_bit_mi=per_bit,
            gmi=sum(per_bit) / 3.0,
            std_error=float(se[3]),
            n_samples=n,
            per_bit_se=tuple(float(x) for x in se[:3]),
        )
        ber = BerEstimate(errors=int(t[10]), bits=3 * n)
        paired = ref_id is not None and name != ref_id  # gmi(this) - gmi(ref) = E[ref summand] - E[this summand]
        out[name] = DemapperEvaluation(
            gmi_est=est,
            ber_est=ber,
            gmi_minus_ref=float(mean[4]) if paired else None,
            gmi_minus_ref_se=float(se[4]) if paired else None,
        )
    return out
