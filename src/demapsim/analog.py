"""Behavioral model of the current-steering demapper cells.

A cell contributes a saturating ramp (a clipped hinge) of output
voltage versus input voltage; cells add on a positive or negative
branch and the combined output is pulled down from the supply rail.
All currents appear as output-voltage drops (I times R_out), so the
whole model runs in volts.

``synthesize_cells`` decomposes any continuous piecewise-linear target,
given as its breakpoints and per-segment slopes, into such cells: one
cell per interior slope change, anchored so that every ramp saturates
exactly at a range edge.  ``build_demapper`` feeds it the max-log LLR
of each bit mapped to input volts, with the knee and saturation budget
of an analog mode: a ``PRESETS`` row, keyed by the mode's demapper id.
Interior cells ramp toward the lower edge and the final segment is
covered by one upward ramp; with this orientation the only cells that
leave their zero-output state on an upward input step are the ones
guarding the top of the range, which is what the settling model in
``dynamics`` relies on.

On ``channel.Nodes`` the cells skip their float64-trivial softplus
regimes bit for bit (see ``cell_output_v``).  Nothing here sorts or
checks the order: the callers that sort or build their input mark it.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass, asdict

import numpy as np

from .calibration import AffineMap
from .channel import Nodes, from_snr_db
from .constellation import Constellation, bit_row
from .metrics import _SOFTPLUS_CLAMP, _softplus_
from .reference import maxlog_segment_slopes

VDD_DEFAULT = 1.6  # supply rail, volts
VIN_HARD_MAX = 0.64  # input cap keeping the steering pair in saturation

# The analog modes by demapper id: knee softness and per-cell saturation
# ceiling I_bias * R_out of the two device flavors (sharp mirrors vs
# square-law mirrors).
PRESETS = {
    "analog-bjt": {"knee_eps_v": 1e-3, "isat_v": 0.3},  # 100 uA * 3 kOhm
    "analog-mosfet": {"knee_eps_v": 25e-3, "isat_v": 0.03},  # 10 uA * 3 kOhm
}

# Observation half-span the synthesized ramps stay linear over; wide
# enough to cover the calibration grid at the lowest supported SNR.
R_SPAN_DEFAULT = 5.0

# SNR of the max-log targets: ``synthesize_cells`` rescales the gains,
# which removes the SNR's overall factor, so this sets only output_scales.
_SNR_REF_DB = 10.0

_GAIN_EPS = 1e-12

# Softplus arguments past +-37 take a shortcut in cell_output_v.
_SOFTPLUS_EDGE = 37.0


@dataclass(frozen=True)
class CellSpec:
    """One saturating-ramp stage.

    ``gain`` is output volts per input volt on the ramp, ``isat_v`` the
    ceiling of the ramp (bias current times R_out), ``knee_eps`` the
    softness of both the turn-on corner and the saturation corner in
    input volts (0 gives ideal hinges).  ``orientation`` selects which
    side of ``vref`` ramps; ``polarity`` selects the output branch.
    """

    vref: float
    gain: float
    isat_v: float
    knee_eps: float
    polarity: str  # 'pos' | 'neg'
    orientation: str  # 'ramp_below' | 'ramp_above'

    def __post_init__(self):
        if self.gain < 0 or self.isat_v < 0 or self.knee_eps < 0:
            raise ValueError("gain, isat_v and knee_eps must be non-negative")
        if self.polarity not in ("pos", "neg"):
            raise ValueError(f"polarity must be 'pos' or 'neg', got {self.polarity!r}")
        if self.orientation not in ("ramp_below", "ramp_above"):
            raise ValueError(f"orientation must be 'ramp_below' or 'ramp_above', got {self.orientation!r}")


def _hinge_drive(vin: np.ndarray, cell: CellSpec) -> np.ndarray:
    if cell.orientation == "ramp_below":
        return cell.vref - vin
    return vin - cell.vref


def _softplus_monotone_(x: np.ndarray) -> np.ndarray:
    """``_softplus_`` of a monotone 1-d float array, in place, bit for bit (see ``cell_output_v``)."""
    key = operator.neg if x.size and x[0] > x[-1] else None  # descending: search -x
    i = bisect.bisect_right(x, -_SOFTPLUS_EDGE, key=key)
    j = bisect.bisect_left(x, _SOFTPLUS_EDGE, key=key)
    m = bisect.bisect_left(x, 0.0, i, j, key=key)  # the band's sign change; every search ends before any write
    low, neg, pos = (x[j:], x[m:j], x[i:m]) if key else (x[:i], x[i:m], x[m:j])  # a 0 gives ln 2 in neg or pos
    np.maximum(low, -_SOFTPLUS_CLAMP, out=low)
    np.exp(low, out=low)
    np.log1p(np.exp(neg, out=neg), out=neg)
    tail = np.negative(pos)
    pos += np.log1p(np.exp(tail, out=tail), out=tail)
    return x


def cell_output_v(vin, cell: CellSpec):
    """Signed contribution of one cell, in output volts.

    Ideal form (knee_eps = 0): min(gain * max(u, 0), isat_v) with u the
    drive past vref on the ramping side.  For knee_eps > 0 both corners
    use the softplus hinge eps * softplus(u / eps), the saturation
    corner with the gain-scaled eps so its width in input volts matches
    the turn-on corner:

        y = gain * eps * softplus(u / eps)
        y = isat_v - gain * eps * softplus((isat_v - y) / (gain * eps))

    softplus(x) = max(x, 0) + log1p(exp(-min(|x|, 700))); the clamp
    keeps np.exp off its subnormal path, about 30 times slower per
    value, where the 1 mV BJT knee drives |x| past a thousand.

    Most arguments lie where float64 makes that formula trivial.  For
    x >= 37, log1p(exp(-x)) < 8.6e-17 is under half an ulp of x, so the
    sum rounds to x.  For x <= -37, t = exp(x) < 2**-53, so log1p(t)
    rounds to t.  Both corners' arguments are monotone in the input, the
    turn-on one rising or falling with it and the saturation one the
    other way, so on ascending input three bisections cut each softplus
    buffer into four slices (views, no mask or gather):

    - x >= 37 is left as it is;
    - x <= -37 becomes exp(max(x, -700));
    - the band between splits at 0 into x + log1p(exp(-x)) and
      log1p(exp(x)), the formula with its clamp idle and 0 + t = t.

    Every value thus gets exactly the bits of the full formula, and
    ``tests/test_analog.py`` pins both identities.  They also hold a
    little inside the edges (from about 33.3 up and from about -36.4
    down), so an argument an ulp out of order (exp and log1p rounding) could
    change slice at an edge but not its value, and at 0 by at most an ulp.
    The slices run exactly on ``channel.Nodes``; any other input is checked
    and takes the full formula (``metrics._softplus_``), with the same bits.
    """
    v = np.atleast_1d(np.asarray(vin, dtype=float))  # a plain ndarray, also for a Nodes view
    if type(vin) is not Nodes:
        if v.ndim > 1:
            raise ValueError(f"input voltage must be a scalar or a 1-d array, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("input voltage must be finite")
    softplus = _softplus_monotone_ if type(vin) is Nodes else _softplus_
    u = _hinge_drive(v, cell)
    if cell.knee_eps == 0.0:
        y = np.minimum(cell.gain * np.maximum(u, 0.0), cell.isat_v)
    else:
        eps = cell.knee_eps
        eps_v = cell.gain * eps
        u /= eps
        y = softplus(u)
        y *= eps_v
        if eps_v > 0.0:
            np.subtract(cell.isat_v, y, out=y)
            y /= eps_v
            softplus(y)
            y *= eps_v
            np.subtract(cell.isat_v, y, out=y)
        else:
            np.minimum(y, cell.isat_v, out=y)
    if cell.polarity == "neg":
        np.negative(y, out=y)
    return float(y[0]) if np.ndim(vin) == 0 else y


def cell_ideal_active(vin, cell: CellSpec):
    """Whether the ideal (knee_eps = 0) hinge produces nonzero output."""
    u = _hinge_drive(np.asarray(vin, dtype=float), cell)
    return (u > 0.0) & (cell.gain > 0.0)


@dataclass(frozen=True)
class CellSynthesis:
    cells: tuple[CellSpec, ...]
    output_scale: float  # output volts per unit of target value


def synthesize_cells(
    breakpoints,
    slopes,
    vdd: float,
    knee_eps: float,
    *,
    vin_min: float,
    vin_max: float,
    isat_v: float = PRESETS["analog-bjt"]["isat_v"],
) -> CellSynthesis:
    """Decompose a continuous PWL target into saturating-ramp cells.

    The target is given by strictly increasing ``breakpoints`` and one
    slope per segment, the two unbounded end segments included.  Each
    interior slope change becomes one cell at that breakpoint; the
    final segment is covered by an upward ramp at the last breakpoint,
    or at ``vin_min`` if there is none.  Ramps toward the lower edge
    saturate exactly at ``vin_min`` and the upward ramp at ``vin_max``.
    Gains are scaled uniformly so the largest cell uses exactly its
    ``isat_v`` budget; the scale is reported and, like the target's
    level, absorbed by the downstream affine output fit.
    """
    b = np.asarray(breakpoints, dtype=float)
    s = np.asarray(slopes, dtype=float)
    if b.ndim != 1 or s.ndim != 1 or s.size != b.size + 1:
        raise ValueError("need len(slopes) == len(breakpoints) + 1")
    if np.any(np.diff(b) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    if not np.all(np.isfinite(s)):
        raise ValueError("target slopes must be finite")
    if b.size and not (vin_min < b[0] and b[-1] < vin_max):
        raise ValueError("target breakpoints must lie strictly inside the input range")

    slope_floor = _GAIN_EPS * max(1.0, float(np.abs(s).max()))
    raw: list[tuple[float, float, str]] = []  # (vref, signed slope contribution, orientation)
    n = b.size
    for j in range(n):
        mu = (s[j] - s[j + 1]) if j < n - 1 else s[n - 1]
        if abs(mu) > slope_floor:
            raw.append((float(b[j]), mu, "ramp_below"))
    if abs(s[n]) > slope_floor:  # the last segment; with no breakpoint, the whole target
        raw.append((float(b[n - 1]) if n else vin_min, s[n], "ramp_above"))
    if not raw:
        return CellSynthesis(cells=(), output_scale=1.0)

    isat_req = [
        abs(mu) * ((vref - vin_min) if orient == "ramp_below" else (vin_max - vref))
        for vref, mu, orient in raw
    ]
    scale = isat_v / max(isat_req)

    cells = []
    for (vref, mu, orient), req in zip(raw, isat_req):
        if orient == "ramp_below":
            polarity = "neg" if mu > 0 else "pos"
        else:
            polarity = "pos" if mu > 0 else "neg"
        cells.append(
            CellSpec(
                vref=float(vref),
                gain=float(abs(mu) * scale),
                isat_v=float(req * scale),
                knee_eps=float(knee_eps),
                polarity=polarity,
                orientation=orient,
            )
        )

    # target values at the range edges and breakpoints, relative to vin_min
    knots = np.concatenate([[vin_min], b, [vin_max]])
    values = np.concatenate([[0.0], np.cumsum(s * np.diff(knots))]) * scale
    swing = float(values.max() - values.min())
    if swing > vdd * (1.0 + 1e-12):
        raise ValueError(
            f"target needs {swing:.3f} V of output swing under the chosen scale, exceeding vdd = {vdd} V"
        )
    return CellSynthesis(cells=tuple(cells), output_scale=float(scale))


@dataclass(frozen=True)
class AnalogDemapper:
    """Full three-output demapper: cells per bit plus the input map."""

    vdd: float
    vin_min: float
    vin_max: float
    input_map: AffineMap
    cells: tuple[tuple[CellSpec, ...], tuple[CellSpec, ...], tuple[CellSpec, ...]]
    output_scales: tuple[float, float, float]
    knee_eps: float
    isat_v: float
    mode: str = "custom"

    def __post_init__(self):
        if self.vin_max <= self.vin_min:
            raise ValueError("vin_max must exceed vin_min")
        for k, cell_list in enumerate(self.cells, start=1):
            if len(cell_list) == 0:
                raise ValueError(f"bit position {k} has no cells")
            for cell in cell_list:
                if not (self.vin_min <= cell.vref <= self.vin_max):
                    raise ValueError(f"cell vref {cell.vref} outside input range")

    def cells_for_bit(self, k: int) -> tuple[CellSpec, ...]:
        return self.cells[bit_row(k)]


def demap_static(vin, d: AnalogDemapper, k: int):
    """Static output voltage for bit k: vdd minus the branch difference, with ``vin``
    passed to each cell as it is (``channel.Nodes`` take the fast path; see ``cell_output_v``)."""
    out = 0.0
    for cell in d.cells_for_bit(k):
        out += cell_output_v(vin, cell)
    return d.vdd - out


def build_demapper(
    c: Constellation,
    input_map: AffineMap,
    mode: str = "analog-mosfet",
    *,
    knee_eps: float | None = None,
    isat_v: float | None = None,
    r_span: float = R_SPAN_DEFAULT,
    vdd: float = VDD_DEFAULT,
) -> AnalogDemapper:
    """Synthesize a demapper from the max-log targets of all three bits.

    ``mode`` is a ``PRESETS`` key; ``knee_eps`` and ``isat_v`` override
    its values.  The max-log shape is SNR-independent up to an overall
    factor that the synthesis scales away, so there is no synthesis SNR
    to choose: one cell set serves every operating SNR through the
    per-SNR output calibration.  ``r_span`` sets how far the end ramps
    stay linear, in observation units.
    """
    if mode not in PRESETS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {list(PRESETS)}")
    knee = PRESETS[mode]["knee_eps_v"] if knee_eps is None else float(knee_eps)
    isat = PRESETS[mode]["isat_v"] if isat_v is None else float(isat_v)

    if input_map.scale <= 0.0:
        raise ValueError("input map must have positive scale")
    window_max = input_map(float(c.points[-1]))
    if window_max > VIN_HARD_MAX + 1e-12:
        raise ValueError(f"constellation maps to {window_max:.3f} V, above the {VIN_HARD_MAX} V input cap")

    p_ref = from_snr_db(_SNR_REF_DB)
    vin_min = float(input_map(-r_span))
    vin_max = float(input_map(r_span))
    all_cells = []
    scales = []
    for k in (1, 2, 3):
        # the max-log LLR of bit k over the input voltage
        breakpoints = input_map(c.maxlog_segments[k - 1][0])
        slopes = maxlog_segment_slopes(k, c, p_ref) / input_map.scale
        syn = synthesize_cells(breakpoints, slopes, vdd, knee, vin_min=vin_min, vin_max=vin_max, isat_v=isat)
        all_cells.append(syn.cells)
        scales.append(syn.output_scale)
    return AnalogDemapper(
        vdd=vdd,
        vin_min=vin_min,
        vin_max=vin_max,
        input_map=input_map,
        cells=tuple(all_cells),
        output_scales=tuple(scales),
        knee_eps=knee,
        isat_v=isat,
        mode=mode,
    )


def demapper_to_dict(d: AnalogDemapper) -> dict:
    return {**asdict(d), "cells": {f"b{k}": [asdict(cell) for cell in d.cells_for_bit(k)] for k in (1, 2, 3)}}


def demapper_from_dict(data: dict) -> AnalogDemapper:
    mode = str(data["mode"])
    if mode not in PRESETS and mode != "custom":
        raise ValueError(f"unknown mode {mode!r}; expected one of {[*PRESETS, 'custom']}")
    cells = tuple(
        tuple(CellSpec(**cell) for cell in data["cells"][f"b{k}"]) for k in (1, 2, 3)
    )
    return AnalogDemapper(
        vdd=float(data["vdd"]),
        vin_min=float(data["vin_min"]),
        vin_max=float(data["vin_max"]),
        input_map=AffineMap(scale=float(data["input_map"]["scale"]), offset=float(data["input_map"]["offset"])),
        cells=cells,
        output_scales=tuple(float(x) for x in data["output_scales"]),
        knee_eps=float(data["knee_eps"]),
        isat_v=float(data["isat_v"]),
        mode=mode,
    )
