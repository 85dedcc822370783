"""Unit-energy PAM constellations with binary-reflected Gray labeling; the label width is the bit count."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def gray_code(n_bits: int) -> np.ndarray:
    """Binary-reflected Gray sequence: element i is i ^ (i >> 1)."""
    i = np.arange(1 << n_bits, dtype=int)
    return i ^ (i >> 1)


def bit_row(k: int, bits: int) -> int:
    """Row ``k - 1`` of per-bit tables of ``bits`` rows; ValueError unless k is an int 1..bits, not a bool."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= bits:
        *head, last = range(1, bits + 1)
        raise ValueError(f"bit position k must be {', '.join(map(str, head))}{' or ' if head else ''}{last}, got {k!r}")
    return int(k) - 1


@dataclass(frozen=True)
class Constellation:
    """Equally spaced PAM amplitudes with their Gray labels, one bit per label column.

    ``points`` are strictly increasing, ``labels[i]`` holds the bits
    (b1, b2, ...) of ``points[i]`` read MSB-first, and the scale ``d``
    normalizes the mean squared amplitude to 0.5 (unit energy for the
    QAM constellation built from two of these).  ``bit_positions`` are
    the k = 1, 2, ... that every per-bit function takes.

    The per-bit tables the reference demappers read are built once
    here: ``class_points[k - 1]`` holds the (class-0, class-1) point
    arrays of bit k, and ``maxlog_segments[k - 1]`` its max-log segment
    table (see ``_class_segments``).
    """

    points: np.ndarray
    d: float
    labels: np.ndarray
    class_points: tuple = field(init=False, repr=False, compare=False)
    maxlog_segments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))
        self.points.setflags(write=False)
        self.labels.setflags(write=False)
        classes = tuple(_read_only(*(self.points[bit == b] for b in (0, 1))) for bit in self.labels.T)
        object.__setattr__(self, "class_points", classes)
        object.__setattr__(self, "maxlog_segments", tuple(_class_segments(p0, p1) for p0, p1 in classes))

    @property
    def bit_positions(self) -> range:
        return range(1, self.labels.shape[1] + 1)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _class_segments(p0: np.ndarray, p1: np.ndarray) -> tuple[np.ndarray, ...]:
    """Segments of the observation line by nearest point of each class.

    The nearest class-0 point switches at the midpoints of consecutive
    class-0 points, and likewise for class 1.  Returns the sorted kinks
    (those midpoints, both classes merged) and, for each of the
    ``kinks.size + 1`` segments, the nearest class-0 point ``a`` and
    the nearest class-1 point ``b``.
    """
    mids = np.concatenate([(p0[:-1] + p0[1:]) / 2.0, (p1[:-1] + p1[1:]) / 2.0])
    kinks = np.sort(np.round(mids, 15))
    kinks = kinks[np.concatenate([[True], kinks[1:] != kinks[:-1]])]  # np.unique's values, without numpy.ma
    probes = np.concatenate([[kinks[0] - 1.0], (kinks[:-1] + kinks[1:]) / 2.0, [kinks[-1] + 1.0]])
    a = p0[np.argmin((probes[:, None] - p0) ** 2, axis=1)]
    b = p1[np.argmin((probes[:, None] - p1) ** 2, axis=1)]
    return _read_only(kinks, a, b)


def build_pam8() -> Constellation:
    """Construct the 8-PAM constellation.

    The amplitudes are {-7d, -5d, ..., +7d} with d = sqrt(1/42) so the
    mean squared amplitude is 21 d^2 = 0.5.  Point i carries the Gray
    label gray(i), lowest amplitude getting label 000.
    """
    bits, d = 3, float(np.sqrt(1.0 / 42.0))
    levels = np.arange(1 - (1 << bits), 1 << bits, 2, dtype=float)
    labels = [[(g >> (bits - 1 - j)) & 1 for j in range(bits)] for g in gray_code(bits)]
    return Constellation(points=levels * d, d=d, labels=np.array(labels))
