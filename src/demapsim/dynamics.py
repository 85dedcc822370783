"""First-order settling model with a saturation-exit plateau.

Between symbols the output relaxes exponentially toward the static
value for the current input.  When a symbol transition re-activates a
cell that was in its zero-output state, charge stored in that state
must first drain, modeled as the output holding its pre-transition
value for a fixed plateau time before relaxation begins (plateau time
zero in MOSFET mode).  One engine, ``_settle``, gives the output at
chosen instants of every symbol: ``sampled_outputs`` asks it for the
sampling instant and ``simulate_transient`` for every step of the trace,
so the two agree by construction.  Exit flags come from ``_exit_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel
from .analog import PRESETS, AnalogDemapper, cell_ideal_active, demap_static
from .constellation import Constellation

TAU_DEFAULT = 0.4e-9        # settling time constant: 5 tau = 2 ns
T_PLATEAU_BJT = 2.0e-9      # base-discharge hold after a saturation exit
SAMPLE_FRACTION_DEFAULT = 0.95  # sample near the end of the symbol
# Symbols per BER-vs-rate chunk.  Each chunk starts settled, so this
# length is part of the settling model, not a scheduling choice.
SETTLED_CHUNK_SYMBOLS = 1 << 14


@dataclass(frozen=True)
class DynamicsParams:
    tau: float
    t_plateau: float
    sample_fraction: float = SAMPLE_FRACTION_DEFAULT

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0 <= self.t_plateau < math.inf:
            raise ValueError(f"t_plateau must be non-negative and finite, got {self.t_plateau}")
        if not 0.0 < self.sample_fraction <= 1.0:
            raise ValueError("sample_fraction must lie in (0, 1]")

    @classmethod
    def for_mode(cls, mode: str, *, tau: float = TAU_DEFAULT, t_plateau_bjt: float = T_PLATEAU_BJT,
                 sample_fraction: float = SAMPLE_FRACTION_DEFAULT) -> "DynamicsParams":
        """Parameters of an analog mode: the plateau applies in ``analog-bjt`` only."""
        if mode not in PRESETS:
            raise ValueError(f"unknown mode {mode!r}; expected one of {list(PRESETS)}")
        return cls(tau, t_plateau_bjt if mode == "analog-bjt" else 0.0, sample_fraction)


@dataclass(frozen=True)
class TransientTrace:
    time: np.ndarray
    vout: np.ndarray


def _exit_table(cells, all_cells) -> tuple[np.ndarray, np.ndarray]:
    """Bin edges, each distinct vref of ``all_cells`` and the next float up,
    and per step from bin p to bin q, at p * (edges.size + 1) + q, whether
    it turns one of ``cells`` on.  Activity changes only at a vref, so a
    bin's lower edge (for the first, a float below) stands for the bin."""
    vrefs = np.array(sorted({cell.vref for cell in all_cells}))
    edges = np.column_stack((vrefs, np.nextafter(vrefs, np.inf))).ravel()
    act = np.array([cell_ideal_active(np.append(np.nextafter(vrefs[0], -np.inf), edges), cell) for cell in cells])
    return edges, np.any(~act[:, :, None] & act[:, None, :], axis=0).ravel()


def _exit_steps(vin_sorted: np.ndarray, order: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Each symbol boundary's index into an ``_exit_table`` of ``edges``,
    from where each edge falls in the inputs that ``order`` sorts."""
    counts = np.diff(np.searchsorted(vin_sorted, edges), prepend=0, append=vin_sorted.size)
    bins = np.empty(vin_sorted.size, dtype=np.intp)
    bins[order] = np.repeat(np.arange(counts.size), counts)
    return bins[:-1] * counts.size + bins[1:]


def _exit_flags(vin_seq: np.ndarray, cells) -> np.ndarray:
    """Saturation-exit flags for each symbol boundary, from the cells'
    ``_exit_table`` and each symbol's bin.

    flags[i] refers to the transition into symbol i; flags[0] is False
    (the trace starts settled, with no stored charge).
    """
    (edges, table), vin_seq = _exit_table(cells, cells), np.asarray(vin_seq, dtype=float)
    order = np.argsort(vin_seq)
    flags = np.zeros(vin_seq.size, dtype=bool)
    flags[1:] = table.take(_exit_steps(vin_seq[order], order, edges))
    return flags


def simulate_transient(
    symbol_seq,
    symbol_rate: float,
    d: AnalogDemapper,
    k: int,
    dp: DynamicsParams,
    samples_per_symbol: int = 16,
) -> TransientTrace:
    """Output-voltage trace of a symbol sequence, ``samples_per_symbol`` steps per symbol.

    The trace starts settled on the first symbol.  At each boundary the
    static target switches; if the transition exits saturation the
    output holds its pre-transition value for ``t_plateau`` and then
    relaxes exponentially with ``tau``.  The engine of ``sampled_outputs``
    gives the output at every step of each symbol.
    """
    r_seq = np.asarray(symbol_seq, dtype=float)
    if r_seq.size == 0:
        raise ValueError("symbol sequence must be non-empty")
    if not 0 < symbol_rate < math.inf:
        raise ValueError(f"symbol rate must be positive and finite, got {symbol_rate}")
    if not isinstance(samples_per_symbol, (int, np.integer)):
        raise ValueError(f"samples_per_symbol must be an integer, got {samples_per_symbol!r}")
    if samples_per_symbol < 2:
        raise ValueError("samples_per_symbol must be at least 2")
    dt = 1.0 / symbol_rate / samples_per_symbol
    vin_seq = np.asarray(d.input_map(r_seq), dtype=float)
    targets = demap_static(vin_seq, d, k)
    flags = _exit_flags(vin_seq, d.cells_for_bit(k))
    steps = np.arange(1, samples_per_symbol + 1) * dt
    vout = np.concatenate(([targets[0]], _settle(targets, flags, symbol_rate, dp, steps).ravel()))
    time = np.arange(vout.size) * dt
    return TransientTrace(time=time, vout=vout)


def sampled_outputs(targets: np.ndarray, flags: np.ndarray, symbol_rate: float, dp: DynamicsParams) -> np.ndarray:
    """Output voltage at the sampling instant of every symbol.

    The one-instant case of the engine behind ``simulate_transient``,
    at ``sample_fraction`` of each symbol.
    """
    times = np.array([dp.sample_fraction * (1.0 / symbol_rate)])
    return _settle(targets, flags, symbol_rate, dp, times)[:, 0]


def _settle(targets, flags, symbol_rate: float, dp: DynamicsParams, times: np.ndarray) -> np.ndarray:
    """Output at ``times`` (each in (0, period]) after the start of every
    symbol, shape (symbols, times); the one settling engine.

    The plateau left at symbol i depends only on the symbols since the
    last saturation exit (``flags[0]`` is ignored), so it is looked up in
    a short table of the values a plateau passes through, one period at
    a time, down to its first zero; the table also holds, per plateau
    value and time, whether the output is still held and the decay factor
    that applies otherwise, with the symbol end as a last column.  The
    boundary voltages follow v_b[i] = a[i]*v_b[i-1] + (1 - a[i])*tgt[i],
    with a = 1 for a symbol held to its end, computed by a log-depth
    prefix scan that stops once no step can change a bit (the bits are
    kept); each sample then follows from v_b[i-1] in one step.
    Only a table of three rows or more needs each symbol's last exit:
    with two, its own flag picks its row, and with one, a[i] is one value.
    """
    period = 1.0 / symbol_rate
    tgt = np.asarray(targets, dtype=float)
    n = tgt.size

    # plateau values after an exit, one period apart, down to the first
    # zero; one still running after n symbols is never looked up
    plateaus = [dp.t_plateau]
    while plateaus[-1] > 0.0:
        plateaus.append(max(0.0, plateaus[-1] - period) if len(plateaus) < n else 0.0)
    relax = np.append(times, period) - np.array(plateaus)[:, None]
    hold = relax <= 0.0
    decay = np.array([math.exp(-x / dp.tau) for x in np.maximum(relax, 0.0).ravel().tolist()]).reshape(hold.shape)

    if len(plateaus) == 1:
        a, held, decays = decay[0, -1], hold[0, :-1], decay[0, :-1]
    else:
        if len(plateaus) == 2:  # row 0 at an exit, else row 1
            row = np.logical_not(flags).view(np.uint8)
        else:
            idx = np.arange(n)
            last_exit = np.where(flags, idx, -1)
            last_exit[0] = -1
            np.maximum.accumulate(last_exit, out=last_exit)
            row = np.minimum(np.where(last_exit < 0, n, idx - last_exit), len(plateaus) - 1)
        a, r = decay[:, -1].take(row), row[1:]
        a[0] = 0.0
        held, decays = hold[:, :-1].take(r, axis=0), decay[:, :-1].take(r, axis=0)

    # v_b[i] = a[i]*v_b[i-1] + b[i]; a[0] = 0 starts the trace settled
    b = (1.0 - a) * tgt
    b[0] = tgt[0]
    (_affine_scan_ if np.ndim(a) else _geometric_scan_)(a, b, np.abs(tgt).max())

    out = np.empty((n, relax.shape[1] - 1))
    out[0] = tgt[0]
    prev, t = b[:-1, None], tgt[1:, None]
    out[1:] = np.where(held, prev, t + (prev - t) * decays)
    return out


_NO_BIT = 2.0**-56  # an increment under |b| * 2**-56 is under an eighth of the float gap at b


def _bits_settled(a_max: float, b: np.ndarray, bound: float) -> bool:
    """Whether no doubling step, now or later, can change a bit of ``b`` (see ``_affine_scan_``).
    As min|b| <= bound, the test needs a_max < 2**-56; checking that first skips the min till then."""
    return a_max == 0.0 or a_max < _NO_BIT and a_max * bound < np.abs(b).min() * _NO_BIT


def _affine_scan_(a: np.ndarray, b: np.ndarray, bound: float) -> None:
    """In place: b[i] becomes x[i] of x[i] = a[i]*x[i-1] + b[i] with x[-1] = 0,
    for 0 <= a <= 1 and ``bound`` at least every |b| the scan forms; ``a`` is
    left as scratch.

    Hillis-Steele doubling: after the step of width d, (a[i], b[i]) is
    the affine map of elements i-2d+1..i composed.  The loop stops once
    every a is zero, or once max(a) * bound < min|b[d:]| * 2**-56: each
    increment a[i]*b[i-d] is then under |b[i]| * 2**-56, an eighth of the
    float gap at b[i], so round to nearest leaves b[i] as it is.  As
    0 <= a <= 1, products of a only shrink, and each later step adds to
    the same b on fewer elements, so the test holds for it too: the bits
    are those of doubling until every a is zero.  Rounding, in the test
    and in ``bound``, fits in the factor of two to the quarter gap, and
    a zero b[i] never lets the test pass.  In ``_settle``, a[0] = 0 makes
    max(a) that of a[d:], max|targets| bounds b, convex sums of targets,
    and the steps skipped are those on subnormal a, many times slower.
    """
    d = 1
    while d < a.size and not _bits_settled(a.max(), b[d:], bound):
        b[d:] += a[d:] * b[:-d]
        a[d:] *= a[:-d]
        d *= 2


def _geometric_scan_(alpha: float, b: np.ndarray, bound: float) -> None:
    """``_affine_scan_`` of a[0] = 0 and a[1:] = ``alpha`` bit for bit, steps and
    stop included: before the step of width d, every a[i >= d] is alpha squared
    log2(d) times, every other a is zero, and max(a) is that alpha."""
    d = 1
    while d < b.size and not _bits_settled(alpha, b[d:], bound):
        b[d:] += alpha * b[:-d]
        alpha *= alpha
        d *= 2


def ber_vs_rate(
    rates,
    snr_db: float,
    sweeps: dict,
    n_symbols: int,
    seed: int,
    c: Constellation,
    *,
    stream: int = 0,
    n_workers: int = 1,
) -> dict[str, list[dict]]:
    """Hard-decision BER of settling demappers at each symbol rate.

    ``sweeps`` maps a demapper id to ``(demapper, output_maps,
    DynamicsParams)``; the result maps it to one row per rate.  Symbols
    are drawn uniformly, one noise value per symbol (held over the
    symbol period), pushed through the transient model, sampled at
    ``sample_fraction`` of the period, mapped to LLRs with the per-SNR
    output maps, and sliced by sign.  Each chunk of
    ``SETTLED_CHUNK_SYMBOLS`` symbols is an independent settled sequence
    with its own stream, so results do not depend on the worker count.
    Every demapper sees the same draw of a (rate, chunk), sorted once by
    r (paired sampling); error counts are summed in chunk order.  Every
    rate, then ``n_symbols`` in ``channel.chunk_sizes``, is checked first.
    """
    rates = [float(rate) for rate in rates]
    if not all(0 < rate < math.inf for rate in rates):
        raise ValueError(f"symbol rates must be positive and finite, got {rates}")
    params = channel.from_snr_db(snr_db)
    exits = []  # once per sweep: per demapper with a plateau, an exit table per bit on shared bin edges
    for d, _, dp in sweeps.values():
        cells = [cell for bit_cells in d.cells for cell in bit_cells]
        exits.append({k: _exit_table(bit_cells, cells) for k, bit_cells in enumerate(d.cells, 1)} if dp.t_plateau else None)

    rows = {mode_id: [] for mode_id in sweeps}
    n_bits = len(c.bit_positions) * n_symbols
    for rate_index, rate in enumerate(rates):
        def job(chunk_index, n):
            bits, r = channel.draw(c, params, seed, stream + rate_index, chunk_index, n)
            order = np.argsort(r)  # one sort for every demapper and bit
            return np.array([_chunk_errors(bits, r, order, rate, *sweep, e) for sweep, e in zip(sweeps.values(), exits)])

        errors = sum(channel.map_chunks(job, n_symbols, SETTLED_CHUNK_SYMBOLS, n_workers))
        for mode_rows, e in zip(rows.values(), errors):
            mode_rows.append({"rate_sps": rate, "errors": e, "bits": n_bits, "ber": e / n_bits})
    return rows


def _chunk_errors(bits, r, order, rate: float, d: AnalogDemapper, output_maps: dict, dp: DynamicsParams, exits) -> int:
    """Bit errors of one demapper on a chunk, given the order that sorts r.

    An input map has positive scale, so ``vin_sorted`` is ascending too:
    ``channel.Nodes``.  The targets go back to symbol order.  ``exits``
    maps each bit to its ``_exit_table`` if the demapper has a plateau.
    Returning frees this demapper's arrays before the next one runs.
    """
    vin_sorted = d.input_map(r)[order].view(channel.Nodes)
    targets = np.empty(vin_sorted.size)  # not empty_like: targets in symbol order are no nodes
    flags = np.zeros(vin_sorted.size, dtype=bool)  # kept without a plateau: no flag can matter
    steps = _exit_steps(vin_sorted, order, exits[1][0]) if exits else None
    errors = 0
    for k, output_map in output_maps.items():
        targets[order] = demap_static(vin_sorted, d, k)
        if exits:
            flags = np.concatenate(([False], exits[k][1].take(steps)))
        llr = output_map(sampled_outputs(targets, flags, rate, dp))
        errors += np.count_nonzero((llr >= 0.0) != bits[:, k - 1])
    return errors
