"""A 2-bit Gray 4-PAM constellation through the per-bit code.

The bit count lives in the constellation's label width: the reference
LLRs, the cell synthesis, the Monte Carlo reduction and the settling
sweep read it from there, so a 4-PAM constellation needs no other
change.  Its oracles are the same independent ones the 8-PAM tests use.
"""

import math

import numpy as np
import pytest

from demapsim.analog import build_demapper, demap_static
from demapsim.calibration import calibration_grid, fit_output_map, input_map
from demapsim.channel import from_snr_db
from demapsim.constellation import Constellation, gray_code
from demapsim.dynamics import DynamicsParams, ber_vs_rate
from demapsim.metrics import evaluate_demappers
from demapsim.reference import exact_llr, maxlog_llr

from oracles import brute_maxlog_llr, naive_exact_llr, quadrature_mi_exact


@pytest.fixture(scope="module")
def pam4():
    d = math.sqrt(0.1)  # 5 d^2 = 0.5
    labels = [[(g >> 1) & 1, g & 1] for g in gray_code(2)]
    return Constellation(points=d * np.array([-3.0, -1.0, 1.0, 3.0]), d=d, labels=np.array(labels))


@pytest.fixture(scope="module")
def pam4_mosfet(pam4):
    return build_demapper(pam4, input_map(pam4, 0.04, 0.60), "analog-mosfet")


def test_bit_positions_follow_the_labels(pam4, c):
    assert pam4.bit_positions == range(1, 3)
    assert c.bit_positions == range(1, 4)
    assert len(pam4.class_points) == len(pam4.maxlog_segments) == 2


def test_third_bit_rejected(pam4):
    p = from_snr_db(10.0)
    for llr in (exact_llr, maxlog_llr):
        with pytest.raises(ValueError, match=r"^bit position k must be 1 or 2, got 3$"):
            llr(0.1, 3, pam4, p)


def test_mosfet_demapper_has_3_plus_2_cells(pam4_mosfet):
    assert [len(cells) for cells in pam4_mosfet.cells] == [3, 2]
    assert len(pam4_mosfet.output_scales) == 2
    with pytest.raises(ValueError, match=r"^bit position k must be 1 or 2, got 3$"):
        pam4_mosfet.cells_for_bit(3)


@pytest.mark.parametrize("snr_db", [0.0, 10.0])
def test_llrs_match_oracles(pam4, snr_db):
    p = from_snr_db(snr_db)
    r = np.array([-1.2, -0.6, -0.31, 0.0, 0.05, 0.4, 0.95, 1.5])
    for k in pam4.bit_positions:
        exact = [naive_exact_llr(x, k, pam4, p.sigma) for x in r]
        maxlog = [brute_maxlog_llr(x, k, pam4, p.snr_linear) for x in r]
        np.testing.assert_allclose(exact_llr(r, k, pam4, p), exact, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(maxlog_llr(r, k, pam4, p), maxlog, rtol=1e-12, atol=1e-12)


def test_monte_carlo_mi_matches_quadrature(pam4):
    p, n = from_snr_db(10.0), 200_000
    fns = {"exact": lambda r, k: exact_llr(r, k, pam4, p), "maxlog": lambda r, k: maxlog_llr(r, k, pam4, p)}
    evals = evaluate_demappers(fns, pam4, p, n, 20240811, ref_id="exact")
    for ev in evals.values():
        assert ev.bits == 2 * n
        assert len(ev.per_bit_mi) == len(ev.per_bit_se) == 2
        assert ev.gmi == sum(ev.per_bit_mi) / 2
    ev = evals["exact"]
    for k in pam4.bit_positions:
        oracle = quadrature_mi_exact(k, pam4, p.sigma)
        assert abs(ev.per_bit_mi[k - 1] - oracle) <= 3 * ev.per_bit_se[k - 1]


@pytest.mark.parametrize("mode", ["analog-mosfet", "analog-bjt"])  # the BJT plateau takes the exit tables
def test_settling_sweep_counts_two_bits_per_symbol(pam4, mode):
    p, demapper = from_snr_db(10.0), build_demapper(pam4, input_map(pam4, 0.04, 0.60), mode)
    grid = calibration_grid(pam4, p.sigma)
    vin = demapper.input_map(grid)
    maps = {k: fit_output_map(k, demap_static(vin, demapper, k), exact_llr(grid, k, pam4, p), grid)
            for k in pam4.bit_positions}
    sweeps = {mode: (demapper, maps, DynamicsParams.for_mode(mode))}
    rows = ber_vs_rate([1e8, 2e9], 10.0, sweeps, 5_000, 3, pam4)[mode]
    assert [row["bits"] for row in rows] == [2 * 5_000] * 2
    # settled at 100 Msps: about Gray 4-PAM's static BER, 3/4 Q(d / sigma) = 0.059 at 10 dB; not at 2 Gsps
    assert 0.045 < rows[0]["ber"] < 0.075 < rows[1]["ber"]
