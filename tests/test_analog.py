import json
import re

import numpy as np
import pytest

from demapsim import analog
from demapsim.analog import (
    AnalogDemapper,
    CellSpec,
    build_demapper,
    cell_ideal_active,
    cell_output_v,
    demap_static,
    demapper_from_dict,
    demapper_to_dict,
    synthesize_cells,
)
from demapsim.calibration import AffineMap, calibration_grid, fit_output_map, input_map
from demapsim.channel import draw, from_snr_db
from demapsim.constellation import build_pam8
from demapsim.reference import maxlog_llr, maxlog_segment_slopes

from oracles import (
    brute_maxlog_llr,
    full_array_cell_output_v,
    full_array_demap_static,
    full_array_softplus,
    logaddexp_cell_output_v,
    logaddexp_demap_static,
)


@pytest.fixture(scope="module")
def c():
    return build_pam8()


@pytest.fixture(scope="module")
def imap(c):
    return input_map(c, 0.04, 0.60)


def ramp_below(vref=0.3, gain=2.0, isat=10.0, knee=0.0, pol="pos"):
    return CellSpec(vref=vref, gain=gain, isat_v=isat, knee_eps=knee, polarity=pol, orientation="ramp_below")


class TestCellOutput:
    def test_zero_at_reference(self):
        assert cell_output_v(0.3, ramp_below()) == 0.0

    def test_linear_region(self):
        # drive of 0.1 V below vref at gain 2 -> 0.2 V
        assert cell_output_v(0.2, ramp_below()) == pytest.approx(0.2, abs=1e-15)

    def test_saturation_clamp(self):
        cell = ramp_below(gain=2.0, isat=0.1)
        assert cell_output_v(-5.0, cell) == pytest.approx(0.1, abs=1e-15)

    def test_polarity_flips_sign(self):
        a = cell_output_v(0.2, ramp_below())
        b = cell_output_v(0.2, ramp_below(pol="neg"))
        assert b == -a

    def test_ramp_above_mirror(self):
        cell = CellSpec(vref=0.3, gain=2.0, isat_v=10.0, knee_eps=0.0, polarity="pos", orientation="ramp_above")
        assert cell_output_v(0.4, cell) == pytest.approx(0.2, abs=1e-15)
        assert cell_output_v(0.2, cell) == 0.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            cell_output_v(float("nan"), ramp_below())

    def test_invalid_fields_rejected(self):
        with pytest.raises(ValueError):
            ramp_below(gain=-1.0)
        with pytest.raises(ValueError):
            CellSpec(vref=0.3, gain=1.0, isat_v=1.0, knee_eps=0.0, polarity="up", orientation="ramp_below")
        with pytest.raises(ValueError, match="orientation must be"):
            CellSpec(vref=0.3, gain=1.0, isat_v=1.0, knee_eps=0.0, polarity="pos", orientation="sideways")

    @pytest.mark.parametrize("pol", ["pos", "neg"])
    def test_zero_gain_soft_knee_outputs_zero(self, pol):
        # gain * knee_eps == 0: the saturation corner is skipped, and the
        # output is exactly 0 on ascending, descending and scalar input
        cell = ramp_below(gain=0.0, knee=1e-3, pol=pol)
        v = np.linspace(-1.0, 1.0, 41)
        np.testing.assert_array_equal(cell_output_v(v, cell), 0.0)
        np.testing.assert_array_equal(cell_output_v(v[::-1], cell), 0.0)
        assert cell_output_v(0.2, cell) == 0.0

    def test_smoothing_error_linear_in_knee(self):
        # deviation from the ideal hinge is bounded by C * knee_eps; fit
        # C at 10 mV and re-check the bound at 5 mV and 1 mV
        v = np.linspace(-0.2, 0.8, 4001)
        ideal = cell_output_v(v, ramp_below(gain=2.0, isat=0.5))

        def maxdev(knee):
            return np.abs(cell_output_v(v, ramp_below(gain=2.0, isat=0.5, knee=knee)) - ideal).max()

        coeff = maxdev(10e-3) / 10e-3
        assert maxdev(5e-3) <= coeff * 5e-3 * 1.05
        assert maxdev(1e-3) <= coeff * 1e-3 * 1.05

    def test_ideal_active_state(self):
        cell = ramp_below()
        assert cell_ideal_active(0.2, cell)
        assert not cell_ideal_active(0.3, cell)
        assert not cell_ideal_active(0.4, cell)


def maxlog_target(k, c, p, imap):
    """(breakpoints, slopes) of the max-log LLR of bit k over the input voltage."""
    return imap(c.maxlog_segments[k - 1][0]), maxlog_segment_slopes(k, c, p) / imap.scale


def ideal_total(v, syn):
    return sum(cell_output_v(v, cell) for cell in syn.cells)


class TestPwlFunction:
    """The continuous PWL target ``synthesize_cells`` takes as
    (breakpoints, slopes), evaluated through its ideal cells."""

    def test_hand_evaluation(self):
        # slopes 0 then 2 with a kink at 1: values 3, 3, 5 at 0, 1, 2
        syn = synthesize_cells([1.0], [0.0, 2.0], 1.6, 0.0, vin_min=-1.0, vin_max=3.0, isat_v=0.3)
        total = ideal_total(np.array([0.0, 1.0, 2.0]), syn)
        np.testing.assert_allclose(total - total[0], syn.output_scale * np.array([0.0, 0.0, 2.0]), atol=1e-15)

    def test_three_segments(self):
        # slopes 1, 0, -1 with kinks at 0 and 1: values 0, 1, 1, -1 at -1, 0.5, 1, 3
        syn = synthesize_cells([0.0, 1.0], [1.0, 0.0, -1.0], 1.6, 0.0, vin_min=-2.0, vin_max=4.0, isat_v=0.3)
        total = ideal_total(np.array([-1.0, 0.5, 1.0, 3.0]), syn)
        np.testing.assert_allclose(total - total[0], syn.output_scale * np.array([0.0, 1.0, 1.0, -1.0]), atol=1e-15)

    def test_unsorted_breakpoints_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            synthesize_cells([1.0, 0.5], [0.0, 1.0, 2.0], 1.6, 0.0, vin_min=0.0, vin_max=2.0)
        with pytest.raises(ValueError, match="len"):
            synthesize_cells([0.5], [0.0, 1.0, 2.0], 1.6, 0.0, vin_min=0.0, vin_max=2.0)


class TestMaxlogPwlVoltage:
    """The max-log LLR over the input voltage, as ``build_demapper`` synthesizes it."""

    def test_matches_reference_through_inverse_map(self, c, imap):
        # ideal cells built at the 10 dB reference SNR follow the max-log
        # LLR of the inverse-mapped voltage, up to output scale and offset
        d = build_demapper(c, imap, "analog-bjt", knee_eps=0.0)
        p = from_snr_db(10.0)
        v = np.linspace(0.04, 0.60, 1000)
        r = np.asarray(imap.inverse(v))
        for k in (1, 2, 3):
            out = demap_static(v, d, k)
            llr = maxlog_llr(r, k, c, p)
            np.testing.assert_allclose((out[0] - out) / d.output_scales[k - 1], llr - llr[0], atol=1e-10)

    def test_msb_odd_about_center(self, c, imap):
        p = from_snr_db(10.0)
        x = np.linspace(0.0, 0.28, 57)
        llr_hi = maxlog_llr(np.asarray(imap.inverse(0.32 + x)), 1, c, p)
        llr_lo = maxlog_llr(np.asarray(imap.inverse(0.32 - x)), 1, c, p)
        np.testing.assert_allclose(llr_hi, -llr_lo, atol=1e-10)
        d = build_demapper(c, imap, "analog-bjt", knee_eps=0.0)
        mid = demap_static(0.32, d, 1)
        np.testing.assert_allclose(demap_static(0.32 + x, d, 1) - mid, mid - demap_static(0.32 - x, d, 1), atol=1e-12)

    def test_center_value_bit2(self, c, imap):
        # brute-force minimum over both index sets at r = 0
        p = from_snr_db(10.0)
        llr = maxlog_llr(float(imap.inverse(0.32)), 2, c, p)
        assert llr == pytest.approx(brute_maxlog_llr(0.0, 2, c, p.snr_linear), abs=1e-12)

    def test_degenerate_map_rejected(self, c):
        for scale in (0.0, -0.04):
            with pytest.raises(ValueError, match="positive scale"):
                build_demapper(c, AffineMap(scale=scale, offset=0.3))


class TestSynthesis:
    def test_single_hinge_gives_one_cell(self):
        syn = synthesize_cells([0.3], [0.0, 5.0], 1.6, 0.0, vin_min=-0.5, vin_max=1.0, isat_v=0.3)
        assert len(syn.cells) == 1
        cell = syn.cells[0]
        assert cell.orientation == "ramp_above"
        assert cell.vref == pytest.approx(0.3)

    def test_falling_hinge_gives_one_cell(self):
        syn = synthesize_cells([0.3], [-5.0, 0.0], 1.6, 0.0, vin_min=-0.5, vin_max=1.0, isat_v=0.3)
        assert len(syn.cells) == 1
        assert syn.cells[0].orientation == "ramp_below"

    def test_triangle_gives_two_mirrored_cells(self):
        syn = synthesize_cells([0.3], [4.0, -4.0], 1.6, 0.0, vin_min=-0.1, vin_max=0.7, isat_v=0.3)
        assert len(syn.cells) == 2
        orientations = sorted(cell.orientation for cell in syn.cells)
        assert orientations == ["ramp_above", "ramp_below"]
        gains = [cell.gain for cell in syn.cells]
        assert gains[0] == pytest.approx(gains[1], rel=1e-12)

    def test_reproduces_target_up_to_affine(self, c, imap):
        # ideal cells against the max-log LLR of the inverse-mapped voltage
        p = from_snr_db(10.0)
        vmin, vmax = float(imap(-5.0)), float(imap(5.0))
        v = np.linspace(vmin, vmax, 10001)
        r = np.asarray(imap.inverse(v))
        for k in (1, 2, 3):
            syn = synthesize_cells(*maxlog_target(k, c, p, imap), 1.6, 0.0, vin_min=vmin, vin_max=vmax, isat_v=0.3)
            total = ideal_total(v, syn)
            llr = maxlog_llr(r, k, c, p)
            np.testing.assert_allclose(total - total[0], syn.output_scale * (llr - llr[0]), atol=1e-9)

    def test_largest_cell_uses_exactly_the_bias_budget(self, c, imap):
        p = from_snr_db(10.0)
        syn = synthesize_cells(
            *maxlog_target(1, c, p, imap), 1.6, 0.0, vin_min=float(imap(-5.0)), vin_max=float(imap(5.0)), isat_v=0.3
        )
        assert max(cell.isat_v for cell in syn.cells) == pytest.approx(0.3, rel=1e-12)

    def test_slope_scale_cancels(self, c, imap):
        # why build_demapper needs no synthesis SNR: the max-log slopes
        # change with it only by an overall factor
        p = from_snr_db(10.0)
        breakpoints, slopes = maxlog_target(2, c, p, imap)
        kw = dict(vin_min=float(imap(-5.0)), vin_max=float(imap(5.0)), isat_v=0.3)
        base = synthesize_cells(breakpoints, slopes, 1.6, 1e-3, **kw)
        for factor in (1e-3, 1e3):
            syn = synthesize_cells(breakpoints, factor * slopes, 1.6, 1e-3, **kw)
            assert len(syn.cells) == len(base.cells)
            for got, want in zip(syn.cells, base.cells):
                assert (got.vref, got.knee_eps, got.polarity, got.orientation) == (
                    want.vref, want.knee_eps, want.polarity, want.orientation)
                assert got.gain == pytest.approx(want.gain, rel=1e-15, abs=0.0)
                assert got.isat_v == pytest.approx(want.isat_v, rel=1e-15, abs=0.0)
            assert syn.output_scale == pytest.approx(base.output_scale / factor, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_slopes_rejected(self, bad):
        with pytest.raises(ValueError, match="slopes must be finite"):
            synthesize_cells([0.3], [0.0, bad], 1.6, 0.0, vin_min=-0.5, vin_max=1.0)

    @pytest.mark.parametrize("slope,polarity", [(2.0, "pos"), (-2.0, "neg")])
    def test_no_breakpoints_gives_one_upward_ramp(self, slope, polarity):
        # one straight segment: a single ramp from vin_min that saturates at vin_max
        syn = synthesize_cells([], [slope], 1.6, 0.0, vin_min=0.0, vin_max=1.0, isat_v=0.3)
        assert len(syn.cells) == 1
        cell = syn.cells[0]
        assert (cell.vref, cell.orientation, cell.polarity) == (0.0, "ramp_above", polarity)
        assert cell.isat_v == pytest.approx(0.3, rel=1e-15)
        v = np.array([0.0, 0.25, 1.0])
        np.testing.assert_allclose(ideal_total(v, syn), syn.output_scale * slope * v, atol=1e-15)

    @pytest.mark.parametrize("breakpoints,slopes", [([], [0.0]), ([0.3, 0.6], [0.0, 0.0, 0.0])])
    def test_flat_target_gives_no_cells(self, breakpoints, slopes):
        syn = synthesize_cells(breakpoints, slopes, 1.6, 0.0, vin_min=0.0, vin_max=1.0)
        assert syn.cells == ()
        assert syn.output_scale == 1.0

    def test_breakpoint_outside_range_rejected(self):
        with pytest.raises(ValueError, match="inside the input range"):
            synthesize_cells([1.5], [0.0, 1.0], 1.6, 0.0, vin_min=0.0, vin_max=1.0, isat_v=0.3)

    def test_excessive_swing_rejected(self):
        with pytest.raises(ValueError, match="output swing"):
            synthesize_cells([0.5], [1.0, -1.0], 1e-6, 0.0, vin_min=0.0, vin_max=1.0, isat_v=0.3)


class TestDemapStatic:
    def test_single_cell_flat_side_gives_vdd(self, imap):
        cell = ramp_below(vref=0.3)
        single = AnalogDemapper(
            vdd=1.6,
            vin_min=0.0,
            vin_max=1.0,
            input_map=imap,
            cells=((cell,), (cell,), (cell,)),
            output_scales=(1.0, 1.0, 1.0),
            knee_eps=0.0,
            isat_v=10.0,
            mode="custom",
        )
        assert demap_static(0.9, single, 1) == pytest.approx(1.6, abs=1e-15)

    def test_opposite_polarity_pair_cancels(self, imap):
        a = ramp_below(pol="pos")
        b = ramp_below(pol="neg")
        dm = AnalogDemapper(
            vdd=1.6, vin_min=0.0, vin_max=1.0, input_map=imap,
            cells=((a, b), (a, b), (a, b)), output_scales=(1.0,) * 3,
            knee_eps=0.0, isat_v=10.0,
        )
        v = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(demap_static(v, dm, 2), 1.6, atol=1e-15)

    def test_ideal_cells_match_maxlog_after_calibration(self, c, imap):
        # the central oracle property, spot-checked at 10 dB
        p = from_snr_db(10.0)
        dm = build_demapper(c, imap, "analog-bjt", knee_eps=0.0)
        grid = calibration_grid(c, p.sigma)
        eval_r = np.linspace(-(7 * c.d + 3 * p.sigma), 7 * c.d + 3 * p.sigma, 10001)
        for k in (1, 2, 3):
            vout = demap_static(np.asarray(imap(grid)), dm, k)
            fit = fit_output_map(k, vout, maxlog_llr(grid, k, c, p), grid)
            approx = fit.scale * demap_static(np.asarray(imap(eval_r)), dm, k) + fit.offset
            assert np.abs(approx - maxlog_llr(eval_r, k, c, p)).max() < 1e-9

    def test_output_range_single_polarity(self, imap):
        cells = (ramp_below(vref=0.2, gain=1.0, isat=0.4), ramp_below(vref=0.6, gain=2.0, isat=0.5))
        dm = AnalogDemapper(
            vdd=1.6, vin_min=0.0, vin_max=1.0, input_map=imap,
            cells=(cells, cells, cells), output_scales=(1.0,) * 3,
            knee_eps=0.0, isat_v=0.5,
        )
        v = np.linspace(0.0, 1.0, 501)
        assert np.all(1.6 - demap_static(v, dm, 1) >= -1e-12)

    def test_output_range_mixed_polarity(self, c, imap):
        dm = build_demapper(c, imap, "analog-mosfet")
        v = np.linspace(dm.vin_min, dm.vin_max, 2001)
        for k in (1, 2, 3):
            bound = sum(cell.isat_v for cell in dm.cells_for_bit(k))
            assert np.abs(1.6 - demap_static(v, dm, k)).max() <= bound + 1e-12

    def test_smoothing_deviation_linear_in_knee(self, c, imap):
        # full static response converges to the ideal PWL as the knee
        # shrinks, with deviation bounded by C * knee_eps
        ideal = build_demapper(c, imap, "analog-mosfet", knee_eps=0.0)
        v = np.linspace(ideal.vin_min + 0.01, ideal.vin_max - 0.01, 2001)
        base = {k: demap_static(v, ideal, k) for k in (1, 2, 3)}

        def maxdev(knee):
            dm = build_demapper(c, imap, "analog-mosfet", knee_eps=knee)
            return max(np.abs(demap_static(v, dm, k) - base[k]).max() for k in (1, 2, 3))

        coeff = maxdev(10e-3) / 10e-3
        assert maxdev(5e-3) <= coeff * 5e-3 * 1.05
        assert maxdev(1e-3) <= coeff * 1e-3 * 1.05

    def test_symmetry_preservation(self, c, imap):
        # smoothed response keeps the target's parity about the center
        for mode in ("analog-bjt", "analog-mosfet"):
            dm = build_demapper(c, imap, mode)
            x = np.linspace(0.0, 0.5, 501)
            y_hi = demap_static(0.32 + x, dm, 1)
            y_lo = demap_static(0.32 - x, dm, 1)
            y_c = demap_static(0.32, dm, 1)
            assert np.abs(y_hi + y_lo - 2 * y_c).max() < 1e-9
            for k in (2, 3):
                even_hi = demap_static(0.32 + x, dm, k)
                even_lo = demap_static(0.32 - x, dm, k)
                assert np.abs(even_hi - even_lo).max() < 1e-9


class TestSoftplusKernel:
    """The in-place, clamped softplus against the np.logaddexp form."""

    # 2 ulp of the 1.6 V supply
    ATOL = 4.5e-16

    @pytest.fixture(scope="class", params=["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    def dm(self, request, c, imap):
        return build_demapper(c, imap, request.param)

    @pytest.fixture(scope="class")
    def vin(self, imap):
        # the paper's observation range densely, then far tails
        r = np.concatenate([np.linspace(-3.0, 3.0, 20001), np.linspace(-1e3, 1e3, 2001)])
        return np.asarray(imap(r))

    def test_cells_match_logaddexp_oracle(self, dm, vin):
        drive = max(np.abs(vin - cell.vref).max() / cell.knee_eps for cell in dm.cells_for_bit(1))
        assert drive > 745.0  # past the float64 underflow of exp(-|u / eps|)
        for k in (1, 2, 3):
            for cell in dm.cells_for_bit(k):
                y = cell_output_v(vin, cell)
                assert np.all(np.isfinite(y))
                np.testing.assert_allclose(y, logaddexp_cell_output_v(vin, cell), rtol=0, atol=self.ATOL)

    def test_demap_static_matches_logaddexp_oracle(self, dm, vin):
        for k in (1, 2, 3):
            out = demap_static(vin, dm, k)
            assert np.all(np.isfinite(out))
            np.testing.assert_allclose(out, logaddexp_demap_static(vin, dm, k), rtol=0, atol=self.ATOL)

    def test_scalar_equals_array_element(self, dm, vin):
        cell = dm.cells_for_bit(2)[0]
        for j in (0, 10000, vin.size - 1):
            y = cell_output_v(float(vin[j]), cell)
            assert isinstance(y, float) and y == cell_output_v(vin, cell)[j]
            out = demap_static(float(vin[j]), dm, 2)
            assert isinstance(out, float) and out == demap_static(vin, dm, 2)[j]

    def test_non_finite_input_rejected(self, dm):
        with pytest.raises(ValueError, match="finite"):
            demap_static(float("nan"), dm, 1)
        cell = dm.cells_for_bit(3)[0]
        # the last three are ascending but for the bad value, which only
        # the two end values or the order test can reveal
        for vin in ([0.3, np.inf], [0.1, 0.2, 0.3, np.inf], [-np.inf, 0.1, 0.2, 0.3], [0.1, 0.2, np.nan, 0.3]):
            with pytest.raises(ValueError, match="finite"):
                demap_static(np.array(vin), dm, 3)
            with pytest.raises(ValueError, match="finite"):
                cell_output_v(np.array(vin), cell)

    def test_empty_input_gives_empty_output(self, dm):
        cell = dm.cells_for_bit(1)[0]
        for out in (demap_static(np.array([]), dm, 1), cell_output_v(np.array([]), cell)):
            assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_multidimensional_input_rejected(self, dm, vin):
        cell = dm.cells_for_bit(2)[0]
        # ascending rows, descending rows, and a 3-d shape
        for grid in (vin[:6].reshape(2, 3), vin[:6][::-1].reshape(2, 3), np.zeros((1, 1, 2))):
            match = "1-d array, got shape " + re.escape(str(grid.shape))
            with pytest.raises(ValueError, match=match):
                demap_static(grid, dm, 2)
            with pytest.raises(ValueError, match=match):
                cell_output_v(grid, cell)


def _softplus_args(vin, cell: CellSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two softplus arguments of a smooth cell, as the kernel forms them."""
    u = vin - cell.vref if cell.orientation == "ramp_above" else cell.vref - vin
    eps_v = cell.gain * cell.knee_eps
    x = u / cell.knee_eps
    return x, (cell.isat_v - eps_v * full_array_softplus(x)) / eps_v


def _edge_points(cell: CellSpec, ulps: int = 4) -> np.ndarray:
    """The ``ulps`` floats on each side of every input where one of the
    cell's softplus arguments crosses -37 or +37 (found by bisection
    down to adjacent floats)."""
    points = []
    for arg in (0, 1):
        for edge in (-37.0, 37.0):
            def above(v):
                return bool(_softplus_args(np.array([v]), cell)[arg][0] >= edge)
            lo, hi = cell.vref - 10.0, cell.vref + 10.0
            if above(lo) == above(hi):
                continue  # this argument never reaches the edge
            while np.nextafter(lo, hi) != hi:
                mid = 0.5 * (lo + hi)
                if above(mid) == above(lo):
                    lo = mid
                else:
                    hi = mid
            for v, step in ((lo, -np.inf), (hi, np.inf)):
                for _ in range(ulps):
                    points.append(v)
                    v = np.nextafter(v, step)
    return np.array(points)


class TestSortedRegimeKernel:
    """The sliced softplus kernel gives the full-array formula's bits."""

    @pytest.fixture(scope="class", params=["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    def dm(self, request, c, imap):
        return build_demapper(c, imap, request.param)

    @staticmethod
    def assert_same_bits(vin, d):
        for k in (1, 2, 3):
            np.testing.assert_array_equal(demap_static(vin, d, k), full_array_demap_static(vin, d, k))
            for cell in d.cells_for_bit(k):
                np.testing.assert_array_equal(cell_output_v(vin, cell), full_array_cell_output_v(vin, cell))

    @pytest.mark.parametrize("snr_db", [-2.0, 7.0, 16.0])
    @pytest.mark.parametrize("order", ["shuffled", "sorted", "descending"])
    def test_monte_carlo_inputs(self, dm, c, imap, snr_db, order):
        _, r = draw(c, from_snr_db(snr_db), 12345, 0, 0, 8192)
        r = {"shuffled": r, "sorted": np.sort(r), "descending": np.sort(r)[::-1]}[order]
        self.assert_same_bits(imap(r), dm)

    def test_points_at_the_regime_edges(self, dm):
        for k in (1, 2, 3):
            cells = dm.cells_for_bit(k)
            for cell in cells:
                vin = _edge_points(cell)
                assert vin.size == 4 * 8  # both arguments cross both edges
                np.testing.assert_array_equal(cell_output_v(vin, cell), full_array_cell_output_v(vin, cell))
                shuffled = np.random.default_rng(1).permutation(vin)
                np.testing.assert_array_equal(cell_output_v(shuffled, cell), full_array_cell_output_v(shuffled, cell))
            vin = np.concatenate([_edge_points(cell) for cell in cells])
            np.testing.assert_array_equal(demap_static(vin, dm, k), full_array_demap_static(vin, dm, k))

    def test_far_tails(self, dm, imap):
        r = np.concatenate([np.linspace(-1e3, 1e3, 20001), [-1e3, 1e3]])  # ends repeated: ties
        self.assert_same_bits(imap(r), dm)
        self.assert_same_bits(imap(np.random.default_rng(2).permutation(r)), dm)

    def test_ideal_hinges(self, c, imap, dm):
        ideal = build_demapper(c, imap, dm.mode, knee_eps=0.0)
        _, r = draw(c, from_snr_db(7.0), 12345, 0, 0, 4096)
        self.assert_same_bits(imap(r), ideal)
        self.assert_same_bits(imap(np.sort(r)), ideal)

    def test_scalars(self, dm, imap):
        for r in (-1e3, -7.0, -0.3, 0.0, 2.5, 7.0, 1e3):
            v = float(imap(r))
            for k in (1, 2, 3):
                out = demap_static(v, dm, k)
                assert isinstance(out, float) and out == full_array_demap_static(v, dm, k)[0]
                for cell in dm.cells_for_bit(k):
                    y = cell_output_v(v, cell)
                    assert isinstance(y, float) and y == full_array_cell_output_v(v, cell)[0]


class TestOrderCheckedOnce:
    """``demap_static`` checks its input's order once and vouches for it to its cells."""

    @pytest.fixture(scope="class")
    def dm(self, c, imap):
        return build_demapper(c, imap, "analog-mosfet")

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        check = analog._ascending_finite

        def counted(v):
            calls.append(v.size)
            return check(v)

        monkeypatch.setattr(analog, "_ascending_finite", counted)
        return calls

    def test_one_check_per_bit_call(self, dm, c, imap, checks):
        _, r = draw(c, from_snr_db(7.0), 12345, 0, 0, 8192)
        vin = imap(np.sort(r))
        for k in (1, 2, 3):
            checks.clear()
            out = demap_static(vin, dm, k)
            assert len(dm.cells_for_bit(k)) > 1 and checks == [8192]
            assert type(out) is np.ndarray
            np.testing.assert_array_equal(out, full_array_demap_static(vin, dm, k))

    def test_unsorted_input_is_checked_per_cell(self, dm, c, imap, checks):
        _, r = draw(c, from_snr_db(7.0), 12345, 0, 0, 8192)
        out = demap_static(imap(r), dm, 1)
        assert len(checks) == 1 + len(dm.cells_for_bit(1))
        assert type(out) is np.ndarray
        np.testing.assert_array_equal(out, full_array_demap_static(imap(r), dm, 1))

    def test_direct_cell_calls_keep_their_check(self, dm, checks):
        cell = dm.cells_for_bit(1)[0]
        cell_output_v(np.linspace(0.1, 0.5, 11), cell)
        assert checks == [11]
        with pytest.raises(ValueError, match="finite"):
            cell_output_v(np.array([0.1, 0.2, 0.3, np.inf]), cell)


class TestSoftplusIdentities:
    """The float64 facts the kernel's slices rely on; a numpy whose exp
    or log1p rounds differently fails here rather than drifting."""

    def test_large_argument_rounds_to_itself(self):
        x = np.linspace(37.0, 1e4, 2_000_001)
        np.testing.assert_array_equal(x + np.log1p(np.exp(-x)), x)

    def test_small_argument_rounds_to_exp(self):
        x = np.linspace(-745.0, -37.0, 2_000_001)
        t = np.exp(x)
        np.testing.assert_array_equal(np.log1p(t), t)


class TestDemapperLifecycle:
    def test_cell_counts(self, c, imap):
        dm = build_demapper(c, imap, "analog-mosfet")
        assert [len(dm.cells_for_bit(k)) for k in (1, 2, 3)] == [7, 6, 4]

    def test_serialization_round_trip(self, c, imap, tmp_path):
        dm = build_demapper(c, imap, "analog-mosfet")
        path = tmp_path / "demapper.json"
        path.write_text(json.dumps(demapper_to_dict(dm)))
        loaded = demapper_from_dict(json.loads(path.read_text()))
        assert loaded.cells == dm.cells
        assert loaded.input_map == dm.input_map
        v = np.linspace(dm.vin_min, dm.vin_max, 301)
        for k in (1, 2, 3):
            np.testing.assert_array_equal(demap_static(v, loaded, k), demap_static(v, dm, k))

    def test_dict_round_trip(self, c, imap):
        dm = build_demapper(c, imap, "analog-bjt")
        assert demapper_from_dict(demapper_to_dict(dm)) == dm

    def test_unknown_mode_rejected_on_load(self, c, imap, tmp_path):
        data = demapper_to_dict(build_demapper(c, imap, "analog-bjt"))
        data["mode"] = "bjt"  # a file saved before the modes took their demapper ids
        with pytest.raises(ValueError, match="'bjt'"):
            demapper_from_dict(data)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="'bjt'"):
            demapper_from_dict(json.loads(path.read_text()))
        data["mode"] = "custom"
        assert demapper_from_dict(data).mode == "custom"

    def test_unknown_mode_rejected(self, c, imap):
        for mode in ("nmos", "bjt", "mosfet"):
            with pytest.raises(ValueError, match="unknown mode"):
                build_demapper(c, imap, mode)
        with pytest.raises(ValueError, match="analog-bjt"):
            build_demapper(c, imap, "nmos", knee_eps=1e-3, isat_v=0.3)

    def test_window_cap_enforced(self, c):
        wide = input_map(c, 0.04, 0.70)
        with pytest.raises(ValueError, match="input cap"):
            build_demapper(c, wide, "analog-mosfet")

    def test_bad_input_range_rejected(self, imap):
        kw = dict(input_map=imap, cells=((ramp_below(vref=0.3),),) * 3, output_scales=(1.0,) * 3, knee_eps=0.0, isat_v=0.3)
        for vin_min, vin_max in ((0.5, 0.5), (1.0, 0.0)):
            with pytest.raises(ValueError, match="vin_max must exceed vin_min"):
                AnalogDemapper(vdd=1.6, vin_min=vin_min, vin_max=vin_max, **kw)
        for vin_min, vin_max in ((0.4, 1.0), (0.0, 0.2)):
            with pytest.raises(ValueError, match="cell vref 0.3 outside input range"):
                AnalogDemapper(vdd=1.6, vin_min=vin_min, vin_max=vin_max, **kw)

    def test_empty_bit_position_rejected(self, imap):
        with pytest.raises(ValueError, match="no cells"):
            AnalogDemapper(
                vdd=1.6, vin_min=0.0, vin_max=1.0, input_map=imap,
                cells=((), (ramp_below(),), (ramp_below(),)), output_scales=(1.0,) * 3,
                knee_eps=0.0, isat_v=0.3,
            )
