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
    """Energy per transported bit, joules; power and symbol rate finite and positive, bits an int >= 1."""
    if not (0 < power_w < math.inf and 0 < symbol_rate < math.inf):
        raise ValueError(f"power and symbol rate must be positive and finite, got {power_w!r} and {symbol_rate!r}")
    if isinstance(bits_per_symbol, bool) or not isinstance(bits_per_symbol, (int, np.integer)) or bits_per_symbol < 1:
        raise ValueError(f"bits per symbol must be an integer of at least 1, got {bits_per_symbol!r}")
    return power_w / (symbol_rate * bits_per_symbol)


@dataclass(frozen=True)
class DemapperEvaluation:
    """One LLR rule's Monte Carlo estimates at one SNR.

    ``gmi`` is the mean of the per-bit mutual information estimates
    ``per_bit_mi`` (per bit position, so it lives on a [0, 1] scale for
    matched LLRs), and ``std_error`` its standard error, computed from
    the per-symbol combined summand so inter-bit correlation is
    accounted for; ``per_bit_se`` are the per-bit standard errors.  A
    per-bit estimate may dip slightly below zero for mismatched LLR
    rules at very low SNR; that is a property of the metric, not an
    estimation artifact.  ``errors`` counts the hard-decision errors
    among the ``bits`` = 3 ``n_samples`` bit decisions.
    """

    per_bit_mi: tuple[float, float, float]
    per_bit_se: tuple[float, float, float]
    std_error: float
    n_samples: int
    errors: int
    # paired mean and std error of gmi(this) - gmi(reference), from the
    # per-symbol (reference summand - this summand); negative on a loss
    gmi_minus_ref: float | None = None
    gmi_minus_ref_se: float | None = None

    def __post_init__(self):
        n = self.n_samples
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"n_samples must be positive (an integer of at least 1), got {n!r}")
        if not 0 <= self.errors <= self.bits:
            raise ValueError(f"invalid error count {self.errors}/{self.bits}")

    @property
    def gmi(self) -> float:
        return sum(self.per_bit_mi) / 3.0

    @property
    def bits(self) -> int:
        return 3 * self.n_samples

    @property
    def ber(self) -> float:
        return self.errors / self.bits

    @property
    def ber_std_error(self) -> float:
        p = self.ber
        return math.sqrt(max(p * (1.0 - p), 0.0) / self.bits)


def _eval_chunk(llr_fns, bits, r, ref_id):
    """Each rule's sums over one chunk, one float64 row per rule in ``llr_fns`` order, which the
    caller adds in chunk order: [0:5] the sums and [5:10] the sums of squares of, in order, the
    three bit summands, their per-symbol mean, and the paired difference ref - this of that mean
    (0 for the reference); [10] the bit errors.
    """
    sums = np.zeros((len(llr_fns), 11))
    for i, name in sorted(enumerate(llr_fns), key=lambda row: row[1] != ref_id):  # the reference first, for pairing
        fn, t = llr_fns[name], sums[i]
        # every chunk-length array is deleted at its last read, so none outlives it into the next LLR call
        for k in (1, 2, 3):
            llr = fn(r, k)
            t[10] += np.count_nonzero((llr >= 0.0) != bits[:, k - 1])
            s = mi_summands(bits[:, k - 1], llr)
            del llr
            t[k - 1] = s.sum()
            t[k + 4] = (s * s).sum()
            sym = s if k == 1 else np.add(sym, s, out=sym)  # per-symbol sum, then mean; 0 + s == s, so no zero fill
            del s
        if not np.isfinite(t[:3]).all():
            raise ValueError(f"demapper {name!r}: its LLRs give non-finite information (a NaN, or an inf of the wrong sign)")
        sym /= 3.0
        t[3] = sym.sum()
        t[8] = (sym * sym).sum()
        if name == ref_id:
            ref_sym = sym
        elif ref_id is not None:  # the reference ran first
            np.subtract(ref_sym, sym, out=sym)  # ref - this: negative when this demapper loses rate
            t[4] = sym.sum()
            t[9] = (sym * sym).sum()
        del sym
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
    array that is pointwise in r.  All rules see identical observations.
    ``ref_id`` selects the rule against which paired GMI differences are
    tracked.  ``channel.chunk_sizes`` checks ``n_symbols`` and ``chunk_size``
    before any draw.  Each chunk job sorts its draw, passes it to every rule
    as ``channel.Nodes`` and returns one row of sums per rule (layout in
    ``_eval_chunk``); ``sum`` adds them in chunk order, and every mean and
    standard error comes from them through ``_mean_se``.
    """
    if ref_id is not None and ref_id not in llr_fns:
        raise ValueError(f"ref_id {ref_id!r} is not among the demapper ids {list(llr_fns)}")

    def job(i, n):
        bits, r = channel.draw(c, params, seed, stream, i, n)
        # rules are pointwise in r, so the chunk is evaluated and summed in ascending
        # r; its draw-order arrays and the permutation are freed before any rule runs
        order = np.argsort(r)
        r = r[order].view(channel.Nodes)
        bits = np.take(bits.T, order, axis=1).T  # column-major like the draw: each bit contiguous
        del order
        return _eval_chunk(llr_fns, bits, r, ref_id)

    totals = sum(channel.map_chunks(job, n_symbols, chunk_size, n_workers))  # in chunk order
    out = {}
    for name, t in zip(llr_fns, totals):
        mean, se = _mean_se(t[:5], t[5:10], n_symbols)
        paired = ref_id is not None and name != ref_id  # gmi(this) - gmi(ref) = E[ref summand] - E[this summand]
        out[name] = DemapperEvaluation(
            per_bit_mi=tuple(float(1.0 - x) for x in mean[:3]),
            per_bit_se=tuple(float(x) for x in se[:3]),
            std_error=float(se[3]),
            n_samples=n_symbols,
            errors=int(t[10]),
            gmi_minus_ref=float(mean[4]) if paired else None,
            gmi_minus_ref_se=float(se[4]) if paired else None,
        )
    return out
