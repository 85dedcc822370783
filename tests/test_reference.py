import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import demapsim
from demapsim.channel import Nodes, draw, from_snr_db
from demapsim.reference import (
    EXACT_BLOCK,
    exact_llr,
    maxlog_llr,
    maxlog_segment_slopes,
)

from oracles import brute_maxlog_llr, gather_maxlog_llr, naive_exact_llr, whole_array_exact_llr


@pytest.fixture(scope="module")
def p10():
    return from_snr_db(10.0)


class TestExactLlr:
    def test_zero_observation_msb(self, c):
        for snr in (0.0, 10.0, 16.0):
            assert exact_llr(0.0, 1, c, from_snr_db(snr)) == pytest.approx(0.0, abs=1e-12)

    def test_even_bit_symmetry(self, c, p10):
        r = np.linspace(-2, 2, 101)
        np.testing.assert_allclose(exact_llr(r, 2, c, p10), exact_llr(-r, 2, c, p10), atol=1e-10)
        np.testing.assert_allclose(exact_llr(r, 3, c, p10), exact_llr(-r, 3, c, p10), atol=1e-10)

    def test_odd_msb_symmetry(self, c, p10):
        r = np.linspace(-2, 2, 101)
        np.testing.assert_allclose(exact_llr(r, 1, c, p10), -exact_llr(-r, 1, c, p10), atol=1e-10)

    def test_against_naive_transcription(self, c):
        # straight transcription without log-sum-exp, at inputs where the
        # raw exponentials are safe
        for snr in (0.0, 10.0):
            p = from_snr_db(snr)
            for k in (1, 2, 3):
                for r in np.linspace(-1.2, 1.2, 25):
                    expected = naive_exact_llr(float(r), k, c, p.sigma)
                    assert exact_llr(float(r), k, c, p) == pytest.approx(expected, abs=1e-9)

    def test_stated_spotcheck(self, c, p10):
        r = 7 * c.d
        expected = naive_exact_llr(r, 1, c, p10.sigma)
        assert exact_llr(r, 1, c, p10) == pytest.approx(expected, abs=1e-9)

    def test_no_overflow_at_extremes(self, c):
        p = from_snr_db(30.0)
        vals = [exact_llr(r, k, c, p) for k in (1, 2, 3) for r in (-10.0, 10.0)]
        assert all(math.isfinite(v) for v in vals)

    def test_finite_and_symmetric_at_60db_and_far_tails(self, c):
        # one log-sum-exp shift shared by both classes would flush the
        # losing class to exp(-huge) = 0 here and return an infinite LLR
        p = from_snr_db(60.0)
        r = np.concatenate([np.linspace(0.0, 3.0, 301), [10.0, 100.0, 1e3]])
        for k in (1, 2, 3):
            pos, neg = exact_llr(r, k, c, p), exact_llr(-r, k, c, p)
            assert np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))
            mirrored = -neg if k == 1 else neg
            np.testing.assert_allclose(pos, mirrored, rtol=1e-12, atol=1e-9)


class TestBlockedExactLlr:
    """Blocks of ``EXACT_BLOCK`` samples give the bits of one whole-array pass."""

    @pytest.mark.parametrize("snr_db", [-2.0, 16.0, 60.0])
    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 3 * 8192 + 5])
    def test_bit_identical_to_one_pass(self, c, snr_db, n):
        assert EXACT_BLOCK == 8192
        p = from_snr_db(snr_db)
        r = np.random.default_rng(n).uniform(-3.0, 3.0, n)
        r[: min(n, 6)] = [-1e3, 1e3, -100.0, 100.0, -10.0, 10.0][: min(n, 6)]  # far tails
        for k in (1, 2, 3):
            got = exact_llr(r, k, c, p)
            assert got.shape == (n,) and np.all(np.isfinite(got))
            assert got.tobytes() == whole_array_exact_llr(r, k, c, p.sigma).tobytes()
            assert got.tobytes() == exact_llr(np.sort(r), k, c, p)[np.argsort(np.argsort(r))].tobytes()

    def test_scalars_return_float(self, c, p10):
        for r in (-1e3, -0.3, 0.0, 0.3, 1e3):
            for k in (1, 2, 3):
                llr = exact_llr(r, k, c, p10)
                assert isinstance(llr, float) and llr == whole_array_exact_llr(r, k, c, p10.sigma)[0]

    def test_empty_and_two_dimensional_input(self, c, p10):
        assert exact_llr(np.array([]), 1, c, p10).shape == (0,)
        r = np.random.default_rng(3).uniform(-3.0, 3.0, (3, 8195))
        got = exact_llr(r, 2, c, p10)
        assert got.shape == r.shape
        assert got.tobytes() == whole_array_exact_llr(r.ravel(), 2, c, p10.sigma).tobytes()


class TestMaxlogAscendingSlices:
    """``Nodes`` take slices per segment, with the gather path's bits; each
    input that can be nodes is also checked as ``Nodes``."""

    @staticmethod
    def assert_gather_bits(r, c, p):
        for k in (1, 2, 3):
            got = maxlog_llr(r, k, c, p)
            want = gather_maxlog_llr(r, k, c, p.snr_linear)
            if np.ndim(r) == 0:
                assert isinstance(got, float) and got == float(want)
            else:
                assert isinstance(got, np.ndarray) and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("snr_db", [-2.0, 7.0, 16.0])
    def test_sorted_monte_carlo_draws(self, c, snr_db):
        p = from_snr_db(snr_db)
        _, r = draw(c, p, 12345, 0, 0, 65_536)
        self.assert_gather_bits(np.sort(r), c, p)
        self.assert_gather_bits(np.sort(r).view(Nodes), c, p)

    def test_kinks_neighbours_repeats_and_infinite_ends(self, c, p10):
        kinks = np.concatenate([seg[0] for seg in c.maxlog_segments])
        near = [kinks]
        for direction in (-np.inf, np.inf):
            x = kinks
            for _ in range(4):
                x = np.nextafter(x, direction)
                near.append(x)
        r = np.sort(np.concatenate([*near, kinks, [0.0, -0.0, -np.inf, np.inf, np.inf]]))
        assert np.all(r[1:] >= r[:-1]) and r[0] == -np.inf
        self.assert_gather_bits(r, c, p10)
        self.assert_gather_bits(r[np.isfinite(r)].view(Nodes), c, p10)  # nodes are finite

    def test_other_orders_and_sizes_keep_the_gather_path(self, c, p10):
        r = np.random.default_rng(4).uniform(-2.0, 2.0, 1001)
        with_nan = np.sort(r)
        with_nan[500] = np.nan
        singles = (np.array([]), np.array([0.3]), np.array([np.nan]), 0.3, np.float64(-1.2))
        pairs = (np.array([0.4, -0.4]), np.array([-0.4, 0.4]))
        for x in (np.sort(r)[::-1], r, with_nan, *singles, *pairs):
            self.assert_gather_bits(x, c, p10)
        for x in (np.sort(r), np.array([]), np.array([0.3]), pairs[1]):  # the ascending finite ones
            self.assert_gather_bits(x.view(Nodes), c, p10)


class TestMaxlogLlr:
    def test_zero_observation_msb(self, c, p10):
        assert maxlog_llr(0.0, 1, c, p10) == 0.0

    def test_hand_value_4d_msb(self, c, p10):
        # nearest 0-class point is -d, nearest 1-class is 3d or 5d:
        # 10 * (25 d^2 - d^2) = 240/42
        assert maxlog_llr(4 * c.d, 1, c, p10) == pytest.approx(240.0 / 42.0, abs=1e-12)

    def test_hand_value_zero_lsb(self, c, p10):
        # nearest 0-class is +-d, nearest 1-class is +-3d: 10 (d^2 - 9 d^2)
        assert maxlog_llr(0.0, 3, c, p10) == pytest.approx(-80.0 / 42.0, abs=1e-12)

    def test_against_brute_force(self, c):
        rng = np.random.default_rng(5)
        for snr in (0.0, 10.0, 16.0):
            p = from_snr_db(snr)
            for k in (1, 2, 3):
                for r in rng.uniform(-3, 3, 40):
                    expected = brute_maxlog_llr(float(r), k, c, p.snr_linear)
                    assert maxlog_llr(float(r), k, c, p) == pytest.approx(expected, abs=1e-12)

    def test_against_brute_force_at_kinks_points_and_high_snr(self, c):
        rng = np.random.default_rng(11)
        for snr in (0.0, 16.0, 30.0):
            p = from_snr_db(snr)
            for k in (1, 2, 3):
                r = np.concatenate([c.maxlog_segments[k - 1][0], c.points, rng.uniform(-3, 3, 200)])
                got = maxlog_llr(r, k, c, p)
                for rr, llr in zip(r, got):
                    expected = brute_maxlog_llr(float(rr), k, c, p.snr_linear)
                    assert llr == pytest.approx(expected, rel=1e-12, abs=1e-12)
                    assert maxlog_llr(float(rr), k, c, p) == llr

    def test_piecewise_linear(self, c, p10):
        # second differences vanish away from the finitely many kinks
        r = np.linspace(-1.5, 1.5, 6001)
        h = r[1] - r[0]
        for k in (1, 2, 3):
            second = np.abs(np.diff(maxlog_llr(r, k, c, p10), n=2)) / h
            kinks = c.maxlog_segments[k - 1][0]
            interior = np.array(
                [np.all(np.abs(rr - kinks) > 2 * h) for rr in r[1:-1]]
            )
            assert np.all(second[interior] < 1e-8)
            assert np.count_nonzero(second > 1e-6) <= 2 * kinks.size

    def test_breakpoints_are_class_midpoints(self, c):
        np.testing.assert_allclose(
            c.maxlog_segments[0][0], c.d * np.array([-6, -4, -2, 2, 4, 6]), atol=1e-14
        )
        np.testing.assert_allclose(
            c.maxlog_segments[2][0], c.d * np.array([-4, 0, 4]), atol=1e-14
        )

    def test_kinks_are_the_unique_rounded_midpoints_bit_for_bit(self, c):
        for k, (p0, p1) in enumerate(c.class_points):
            mids = np.concatenate([(p0[:-1] + p0[1:]) / 2.0, (p1[:-1] + p1[1:]) / 2.0])
            kinks, unique = c.maxlog_segments[k][0], np.unique(np.round(mids, 15))
            assert np.array_equal(kinks, unique)
            assert kinks.tobytes() == unique.tobytes()  # also tells -0.0 from 0.0

    def test_segment_slopes_match_finite_differences(self, c, p10):
        for k in (1, 2, 3):
            bks = c.maxlog_segments[k - 1][0]
            slopes = maxlog_segment_slopes(k, c, p10)
            probes = np.concatenate([[bks[0] - 0.5], (bks[:-1] + bks[1:]) / 2, [bks[-1] + 0.5]])
            h = 1e-7
            fd = (maxlog_llr(probes + h, k, c, p10) - maxlog_llr(probes - h, k, c, p10)) / (2 * h)
            np.testing.assert_allclose(slopes, fd, rtol=1e-6)


class TestAgreementProperties:
    def test_tail_agreement_msb(self, c, p10):
        """At r = +-20d the max-log error is the stabilization residue
        ln(1 + exp(-56 d^2 / 2 sigma^2)) of the runner-up exponential,
        about 1.62e-6 at 10 dB; it decays to zero further out."""
        q = c.d**2 / (2 * p10.sigma**2)
        expected_gap = math.log(1 + math.exp(-56 * q) + math.exp(-120 * q)) - math.log(
            1 + math.exp(-88 * q)
        )
        for r in (20 * c.d, -20 * c.d):
            gap = abs(exact_llr(r, 1, c, p10) - maxlog_llr(r, 1, c, p10))
            assert gap == pytest.approx(expected_gap, rel=1e-6)
            assert gap < 2e-6
        # strictly shrinking in the tail
        gaps = [
            abs(exact_llr(m * c.d, 1, c, p10) - maxlog_llr(m * c.d, 1, c, p10))
            for m in (20, 22, 25, 30)
        ]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_msb_signs_always_agree(self, c):
        # odd symmetry puts the unique crossing of both curves at r = 0
        for snr in (0.0, 10.0, 16.0):
            p = from_snr_db(snr)
            r = np.linspace(-3, 3, 20001)
            r = r[np.abs(r) > 1e-9]
            assert np.all(np.sign(exact_llr(r, 1, c, p)) == np.sign(maxlog_llr(r, 1, c, p)))

    def test_sign_disagreement_confined_to_narrow_windows_at_high_snr(self, c):
        """For bits 2 and 3 the exact zero crossings sit exponentially
        close to the max-log ones at high SNR; away from those windows
        the signs agree everywhere.  At low SNR the windows widen into
        finite intervals, which is why hard decisions of the two rules
        genuinely differ there (see the acceptance notes)."""
        p = from_snr_db(16.0)
        r = np.linspace(-2.0, 2.0, 40001)
        window_limit = 5e-5
        for k in (2, 3):
            ml = np.asarray(maxlog_llr(r, k, c, p))
            ex = np.asarray(exact_llr(r, k, c, p))
            disagree = np.sign(ml) != np.sign(ex)
            ml_cross = r[:-1][np.diff(np.sign(ml)) != 0]
            for rr in r[disagree]:
                assert np.min(np.abs(rr - ml_cross)) < window_limit


@pytest.mark.parametrize("fn", [exact_llr, maxlog_llr])
@pytest.mark.parametrize("k", [0, 4, -1])
def test_bit_position_outside_1_to_3_rejected(c, p10, fn, k):
    with pytest.raises(ValueError, match=rf"bit position k must be 1, 2 or 3, got {k}$"):
        fn(0.1, k, c, p10)


@pytest.mark.parametrize("fn", [exact_llr, maxlog_llr])
@pytest.mark.parametrize("k", [True, 1.0, "1"], ids=["bool", "float", "str"])
def test_bit_position_must_be_an_int(c, p10, fn, k):
    # True once gave bit 1's LLR, and 1.0 a TypeError from a tuple index
    with pytest.raises(ValueError, match=rf"bit position k must be 1, 2 or 3, got {re.escape(repr(k))}$"):
        fn(0.1, k, c, p10)


@pytest.mark.parametrize("fn", [exact_llr, maxlog_llr])
def test_numpy_bit_position_is_accepted(c, p10, fn):
    r = np.linspace(-1.5, 1.5, 7)
    np.testing.assert_array_equal(fn(r, np.int64(2), c, p10), fn(r, 2, c, p10))


def test_import_does_not_load_scipy():
    src = str(Path(demapsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, demapsim; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
