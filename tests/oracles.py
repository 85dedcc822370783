"""Independent oracles used to freeze expected values.

These deliberately avoid the library's computation paths: the exact-LLR
oracle is a straight transcription without log-sum-exp stabilization
(only valid where naive exponentials are safe), and its whole-array
twin is the stabilized formula in one pass, without blocks; the max-log
oracle is an explicit loop, and its gather twin one segment search and
one gather per sample; the mutual-information oracle is Gauss-Hermite
quadrature of the defining expectation, the analog cell oracle is
the softplus hinge written with np.logaddexp, the full-array analog
oracles are the cell kernel's formula applied to every value, the
settling oracles are
the per-symbol and per-step loops, the exit-flag oracle evaluates
every cell at every symbol, and the CSV oracle is ``csv.writer``
fed one formatted cell at a time, on row dicts that ``segment_rows``
expands from segments.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np
from numpy.polynomial.hermite import hermgauss

from demapsim.analog import AnalogDemapper, CellSpec, cell_ideal_active, demap_static
from demapsim.constellation import Constellation
from demapsim.dynamics import TransientTrace


def class_indices(k: int, b: int, c: Constellation) -> np.ndarray:
    """Indices of the points whose bit k (1-indexed, MSB first) is b."""
    return np.flatnonzero(c.labels[:, k - 1] == b)


def naive_exact_llr(r: float, k: int, c: Constellation, sigma: float) -> float:
    """Direct transcription of the exact LLR, no stabilization."""
    num = 0.0
    den = 0.0
    for i in class_indices(k, 1, c):
        num += math.exp(-((r - c.points[i]) ** 2) / (2.0 * sigma * sigma))
    for i in class_indices(k, 0, c):
        den += math.exp(-((r - c.points[i]) ** 2) / (2.0 * sigma * sigma))
    return math.log(num) - math.log(den)


def brute_maxlog_llr(r: float, k: int, c: Constellation, snr_linear: float) -> float:
    """Max-log LLR by explicit minimum search over both index sets."""
    best0 = min((r - c.points[i]) ** 2 for i in class_indices(k, 0, c))
    best1 = min((r - c.points[i]) ** 2 for i in class_indices(k, 1, c))
    return snr_linear * (best0 - best1)


def whole_array_exact_llr(r, k: int, c: Constellation, sigma: float) -> np.ndarray:
    """The exact LLR with each class's log-sum-exp shifted by its own largest
    exponent, over the whole array in one pass, in the library's operation order."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    inv = 1.0 / (2.0 * sigma * sigma)

    def class_logsumexp(b):
        e = np.square(np.subtract.outer(c.points[class_indices(k, b, c)], r)) * -inv
        shift = e.max(axis=0)
        return np.log(np.exp(e - shift).sum(axis=0)) + shift

    return class_logsumexp(1) - class_logsumexp(0)


def gather_maxlog_llr(r, k: int, c: Constellation, snr_linear: float) -> np.ndarray:
    """Max-log LLR from each sample's segment, found by one search of the kinks,
    and that segment's slope and midpoint gathered per sample."""
    r = np.asarray(r, dtype=float)
    kinks, a, b = c.maxlog_segments[k - 1]
    seg = np.searchsorted(kinks, r, side="right")
    return (2.0 * snr_linear * (b - a))[seg] * (r - ((a + b) / 2.0)[seg])


def quadrature_mi_exact(k: int, c: Constellation, sigma: float, n_nodes: int = 160) -> float:
    """Bit-wise MI of the exact demapper by Gauss-Hermite quadrature.

    Averages E[log2(1 + exp((-1)^b L_k(x_i + n)))] over the uniformly
    drawn symbol and the Gaussian noise, with L_k evaluated through a
    locally stabilized transcription so the quadrature stays valid on
    the far tails of each component.
    """
    nodes, weights = hermgauss(n_nodes)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    points = c.points
    sets = {b: class_indices(k, b, c) for b in (0, 1)}

    def llr(r: np.ndarray) -> np.ndarray:
        e = -((r[:, None] - points[None, :]) ** 2) * inv2s2
        shift = e.max(axis=1, keepdims=True)
        num = np.log(np.exp(e[:, sets[1]] - shift).sum(axis=1)) + shift[:, 0]
        den = np.log(np.exp(e[:, sets[0]] - shift).sum(axis=1)) + shift[:, 0]
        return num - den

    total = 0.0
    for i in range(points.size):
        b = int(c.labels[i, k - 1])
        r = points[i] + math.sqrt(2.0) * sigma * nodes
        t = llr(r) * (1.0 if b == 0 else -1.0)
        integrand = np.logaddexp(0.0, t) / math.log(2.0)
        total += (weights @ integrand) / math.sqrt(math.pi) / points.size
    return 1.0 - total


def logaddexp_cell_output_v(vin: np.ndarray, cell: CellSpec) -> np.ndarray:
    """Smoothed cell output with both softplus corners as np.logaddexp."""
    u = vin - cell.vref if cell.orientation == "ramp_above" else cell.vref - vin
    eps_v = cell.gain * cell.knee_eps
    y = eps_v * np.logaddexp(0.0, u / cell.knee_eps)
    y = cell.isat_v - eps_v * np.logaddexp(0.0, (cell.isat_v - y) / eps_v)
    return -y if cell.polarity == "neg" else y


def logaddexp_demap_static(vin: np.ndarray, d: AnalogDemapper, k: int) -> np.ndarray:
    """Static output of bit k summed over ``logaddexp_cell_output_v``."""
    total = np.zeros_like(vin)
    for cell in d.cells_for_bit(k):
        total += logaddexp_cell_output_v(vin, cell)
    return d.vdd - total


def full_array_softplus(x: np.ndarray) -> np.ndarray:
    """max(x, 0) + log1p(exp(-min(|x|, 700))) on every value of x."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.minimum(np.abs(x), 700.0)))


def full_array_cell_output_v(vin, cell: CellSpec):
    """Cell output with the full softplus formula on every value, in input order."""
    v = np.atleast_1d(np.asarray(vin, dtype=float))
    u = v - cell.vref if cell.orientation == "ramp_above" else cell.vref - v
    if cell.knee_eps == 0.0:
        y = np.minimum(cell.gain * np.maximum(u, 0.0), cell.isat_v)
    else:
        eps_v = cell.gain * cell.knee_eps
        y = full_array_softplus(u / cell.knee_eps) * eps_v
        if eps_v > 0.0:
            y = cell.isat_v - full_array_softplus((cell.isat_v - y) / eps_v) * eps_v
        else:
            y = np.minimum(y, cell.isat_v)
    return -y if cell.polarity == "neg" else y


def full_array_demap_static(vin, d: AnalogDemapper, k: int) -> np.ndarray:
    """Static output of bit k summed over ``full_array_cell_output_v``."""
    v = np.atleast_1d(np.asarray(vin, dtype=float))
    total = np.zeros_like(v)
    for cell in d.cells_for_bit(k):
        total += full_array_cell_output_v(v, cell)
    return d.vdd - total


def cellwise_exit_flags(vin_seq: np.ndarray, cells) -> np.ndarray:
    """Saturation-exit flags from every cell's ideal activity at every
    symbol: flags[i] is whether some cell is off at symbol i-1 and on at
    symbol i; flags[0] is False."""
    act = np.stack([cell_ideal_active(vin_seq, cell) for cell in cells])
    flags = np.zeros(vin_seq.size, dtype=bool)
    if vin_seq.size > 1:
        flags[1:] = np.any((~act[:, :-1]) & act[:, 1:], axis=0)
    return flags


def loop_sampled_outputs(targets, flags, symbol_rate: float, dp) -> np.ndarray:
    """Sampled settling outputs by an explicit per-symbol loop."""
    period = 1.0 / symbol_rate
    ts = dp.sample_fraction * period
    tau = dp.tau
    n = targets.size
    out = np.empty(n)
    v_b = float(targets[0])
    out[0] = v_b
    plateau = 0.0
    t_list = targets.tolist()
    f_list = flags.tolist()
    for i in range(1, n):
        plateau = dp.t_plateau if f_list[i] else max(0.0, plateau - period)
        tgt = t_list[i]
        if ts <= plateau:
            v_s = v_b
        else:
            v_s = tgt + (v_b - tgt) * math.exp(-(ts - plateau) / tau)
        out[i] = v_s
        if period <= plateau:
            pass  # held through the whole symbol
        else:
            v_b = tgt + (v_b - tgt) * math.exp(-(period - plateau) / tau)
    return out


def loop_simulate_transient(
    symbol_seq, symbol_rate: float, d: AnalogDemapper, k: int, dp, samples_per_symbol: int = 16
) -> TransientTrace:
    """Settling trace by an explicit per-step loop."""
    r_seq = np.asarray(symbol_seq, dtype=float)
    if r_seq.size == 0:
        raise ValueError("symbol sequence must be non-empty")
    if not symbol_rate > 0:
        raise ValueError(f"symbol rate must be positive, got {symbol_rate}")
    period = 1.0 / symbol_rate
    dt = period / samples_per_symbol
    vin_seq = np.asarray(d.input_map(r_seq), dtype=float)
    targets = demap_static(vin_seq, d, k)
    cells = d.cells_for_bit(k)
    flags = cellwise_exit_flags(vin_seq, cells)

    n_steps = r_seq.size * samples_per_symbol
    time = np.arange(n_steps + 1) * dt
    vout = np.empty(n_steps + 1)
    v = float(targets[0])
    vout[0] = v
    plateau_until = 0.0
    for step in range(n_steps):
        t0 = step * dt
        sym = step // samples_per_symbol
        if step % samples_per_symbol == 0 and flags[sym]:
            plateau_until = t0 + dp.t_plateau
        relax = (t0 + dt) - max(t0, plateau_until)
        if relax > 0.0:
            v = targets[sym] + (v - targets[sym]) * math.exp(-relax / dp.tau)
        vout[step + 1] = v
    return TransientTrace(time=time, vout=vout)


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def csv_writer_write_csv(path, fieldnames: list[str], rows: list[dict]) -> None:
    """CSV table written row by row through ``csv.writer``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(name)) for name in fieldnames])


def segment_rows(segments: list[dict]) -> list[dict]:
    """Row dicts of a table given as segments (see ``harness.write_csv``):
    each array field gives one value per row, every other field repeats."""
    rows = []
    for segment in segments:
        n = next((len(v) for v in segment.values() if isinstance(v, np.ndarray)), 1)
        for j in range(n):
            rows.append({name: float(v[j]) if isinstance(v, np.ndarray) else v for name, v in segment.items()})
    return rows
