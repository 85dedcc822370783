import numpy as np
import pytest

from demapsim.analog import build_demapper, demap_static
from demapsim.calibration import (
    AffineMap,
    calibration_grid,
    fit_output_map,
    fit_residual_rms,
    input_map,
)
from demapsim.channel import from_snr_db
from demapsim.constellation import build_pam8
from demapsim.reference import exact_llr, maxlog_llr


@pytest.fixture(scope="module")
def c():
    return build_pam8()


@pytest.fixture(scope="module")
def imap(c):
    return input_map(c, 0.04, 0.60)


class TestInputMap:
    def test_published_constants(self, imap):
        assert imap.scale == pytest.approx(0.2592, abs=1e-4)
        assert imap.offset == pytest.approx(0.32, abs=1e-12)

    def test_center_maps_to_midpoint(self, imap):
        assert imap(0.0) == pytest.approx(0.32, abs=1e-15)

    def test_endpoints_exact(self, c, imap):
        assert imap(-7 * c.d) == pytest.approx(0.04, abs=1e-15)
        assert imap(7 * c.d) == pytest.approx(0.60, abs=1e-15)

    def test_round_trip(self, c, imap):
        r = np.linspace(-2, 2, 11)
        np.testing.assert_allclose(imap.inverse(imap(r)), r, atol=1e-12)

    def test_zero_scale_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            AffineMap(scale=0.0, offset=0.32).inverse(0.5)

    def test_degenerate_range_rejected(self, c):
        with pytest.raises(ValueError):
            input_map(c, 0.6, 0.6)


class TestOutputFit:
    def test_recovers_exact_affine_relation(self, c):
        p = from_snr_db(10.0)
        grid = np.linspace(-2, 2, 501)
        ref = exact_llr(grid, 2, c, p)
        a, b = 0.025, 1.4
        vout = a * ref + b
        fit = fit_output_map(2, vout, ref, grid)
        assert fit.scale == pytest.approx(1.0 / a, rel=1e-10)
        assert fit.offset == pytest.approx(-b / a, rel=1e-10)
        assert fit_residual_rms(fit, vout, ref) < 1e-9

    def test_ideal_cells_fit_maxlog_with_negligible_residual(self, c, imap):
        p = from_snr_db(10.0)
        dm = build_demapper(c, imap, "analog-mosfet", knee_eps=0.0)
        grid = calibration_grid(c, p.sigma)
        for k in (1, 2, 3):
            vout = demap_static(np.asarray(imap(grid)), dm, k)
            ref = maxlog_llr(grid, k, c, p)
            fit = fit_output_map(k, vout, ref, grid)
            assert fit_residual_rms(fit, vout, ref) < 1e-6

    def test_duplicating_grid_points_leaves_fit_unchanged(self, c):
        p = from_snr_db(10.0)
        grid = np.linspace(-2, 2, 301)
        ref = np.asarray(exact_llr(grid, 1, c, p))
        vout = 0.01 * np.tanh(ref) + 1.5
        fit1 = fit_output_map(1, vout, ref, grid)
        grid2 = np.concatenate([grid, grid])
        fit2 = fit_output_map(1, np.concatenate([vout, vout]), np.concatenate([ref, ref]), grid2)
        assert fit2.scale == pytest.approx(fit1.scale, rel=1e-12)
        assert fit2.offset == pytest.approx(fit1.offset, rel=1e-12)

    def test_fit_is_local_minimum(self, c, imap):
        p = from_snr_db(10.0)
        dm = build_demapper(c, imap, "analog-mosfet")
        grid = calibration_grid(c, p.sigma)
        vout = demap_static(np.asarray(imap(grid)), dm, 1)
        ref = np.asarray(exact_llr(grid, 1, c, p))
        fit = fit_output_map(1, vout, ref, grid)

        def sse(g, z):
            res = g * vout + z - ref
            return float(res @ res)

        base = sse(fit.scale, fit.offset)
        for dg in (-1e-3, 0.0, 1e-3):
            for dz in (-1e-3, 0.0, 1e-3):
                if dg == dz == 0.0:
                    continue
                assert sse(fit.scale + dg, fit.offset + dz) >= base

    def test_fit_is_snr_specific(self, c, imap):
        # a map fitted at 0 dB must lose against the matched 10 dB fit
        dm = build_demapper(c, imap, "analog-mosfet")
        fits = {}
        for snr in (0.0, 10.0):
            p = from_snr_db(snr)
            grid = calibration_grid(c, p.sigma)
            vout = demap_static(np.asarray(imap(grid)), dm, 1)
            ref = np.asarray(exact_llr(grid, 1, c, p))
            fits[snr] = (fit_output_map(1, vout, ref, grid), vout, ref)
        fit10, vout10, ref10 = fits[10.0]
        fit0, _, _ = fits[0.0]
        assert fit_residual_rms(fit0, vout10, ref10) > fit_residual_rms(fit10, vout10, ref10)

    def test_constant_curve_rejected(self, c):
        p = from_snr_db(10.0)
        grid = np.linspace(-2, 2, 101)
        with pytest.raises(ValueError, match="rank deficient"):
            fit_output_map(1, np.full_like(grid, 1.6), exact_llr(grid, 1, c, p), grid)

    def test_shape_mismatch_rejected(self):
        grid = np.linspace(-2, 2, 11)
        for vout, ref in ((grid[:-1], grid), (grid, grid[:-1]), (grid[:, None], grid)):
            with pytest.raises(ValueError, match="match the grid shape"):
                fit_output_map(1, vout, ref, grid)

    def test_tiny_grid_rejected(self, c):
        with pytest.raises(ValueError):
            fit_output_map(1, np.array([1.0]), np.array([1.0]), np.array([0.0]))


class TestGridConvergence:
    def test_zero_residual_fit_is_grid_independent(self, c, imap):
        # with ideal cells against max-log the fit interpolates exactly,
        # so doubling the grid density moves (gamma, zeta) by < 1e-6
        p = from_snr_db(10.0)
        dm = build_demapper(c, imap, "analog-mosfet", knee_eps=0.0)
        fits = []
        for n in (2001, 4001):
            grid = calibration_grid(c, p.sigma, n_points=n)
            vout = demap_static(np.asarray(imap(grid)), dm, 1)
            fits.append(fit_output_map(1, vout, maxlog_llr(grid, 1, c, p), grid))
        assert abs(fits[1].scale - fits[0].scale) < 1e-6
        assert abs(fits[1].offset - fits[0].offset) < 1e-6

    def test_smoothed_fit_converges_as_a_function(self, c, imap):
        # nonzero-residual fits converge at the Riemann O(h^2) rate; the
        # calibrated curve moves by far less than the residual scale
        p = from_snr_db(10.0)
        dm = build_demapper(c, imap, "analog-mosfet")
        fits = []
        for n in (2001, 4001):
            grid = calibration_grid(c, p.sigma, n_points=n)
            vout = demap_static(np.asarray(imap(grid)), dm, 1)
            fits.append(fit_output_map(1, vout, exact_llr(grid, 1, c, p), grid))
        eval_grid = np.linspace(-(7 * c.d + 3 * p.sigma), 7 * c.d + 3 * p.sigma, 2001)
        v = demap_static(np.asarray(imap(eval_grid)), dm, 1)
        curve_shift = np.abs(
            (fits[1].scale * v + fits[1].offset) - (fits[0].scale * v + fits[0].offset)
        ).max()
        assert curve_shift < 1e-3
        assert abs(fits[1].scale - fits[0].scale) / abs(fits[0].scale) < 1e-5
