import numpy as np
import pytest

from demapsim import dynamics
from demapsim.analog import build_demapper, demap_static
from demapsim.calibration import AffineMap, calibration_grid, fit_output_map, input_map
from demapsim.channel import draw, from_snr_db, transmit
from demapsim.constellation import build_pam8
from demapsim.dynamics import (
    DynamicsParams,
    _exit_flags,
    ber_vs_rate,
    sampled_outputs,
    simulate_transient,
)
from demapsim.harness import DEFAULT_CONFIG
from demapsim.metrics import evaluate_demappers
from demapsim.reference import exact_llr
from demapsim.analog import CellSpec
from oracles import loop_sampled_outputs, loop_simulate_transient


@pytest.fixture(scope="module")
def c():
    return build_pam8()


@pytest.fixture(scope="module")
def imap(c):
    return input_map(c, 0.04, 0.60)


@pytest.fixture(scope="module")
def bjt(c, imap):
    return build_demapper(c, imap, "analog-bjt")


@pytest.fixture(scope="module")
def mosfet(c, imap):
    return build_demapper(c, imap, "analog-mosfet")


def bjt_params(**kwargs):
    return DynamicsParams.for_mode("analog-bjt", **kwargs)


def mosfet_params(**kwargs):
    return DynamicsParams.for_mode("analog-mosfet", **kwargs)


def output_maps_for(dm, c, imap, snr_db):
    p = from_snr_db(snr_db)
    grid = calibration_grid(c, p.sigma)
    maps = {}
    for k in (1, 2, 3):
        vout = demap_static(np.asarray(imap(grid)), dm, k)
        maps[k] = fit_output_map(k, vout, exact_llr(grid, k, c, p), grid)
    return maps


class TestParams:
    def test_mode_defaults(self):
        assert bjt_params().t_plateau == pytest.approx(2e-9)
        assert mosfet_params().t_plateau == 0.0
        assert mosfet_params().tau == pytest.approx(0.4e-9)

    def test_unknown_mode_rejected(self):
        for mode in ("nmos", "bjt", "mosfet"):
            with pytest.raises(ValueError, match="unknown mode"):
                DynamicsParams.for_mode(mode)

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicsParams(tau=0.0, t_plateau=0.0)
        with pytest.raises(ValueError):
            DynamicsParams(tau=1e-9, t_plateau=-1.0)
        with pytest.raises(ValueError):
            DynamicsParams(tau=1e-9, t_plateau=0.0, samples_per_symbol=1)
        with pytest.raises(ValueError):
            DynamicsParams(tau=1e-9, t_plateau=0.0, sample_fraction=1.5)


class TestSaturationExit:
    """flags[1] of a two-symbol sequence: the step exits saturation."""

    def test_no_move_no_exit(self, bjt):
        assert not _exit_flags(np.array([0.3, 0.3]), bjt.cells_for_bit(1))[1]

    def test_single_cell_crossing(self):
        cell = CellSpec(vref=0.3, gain=1.0, isat_v=1.0, knee_eps=0.0, polarity="pos", orientation="ramp_below")
        assert _exit_flags(np.array([0.4, 0.2]), [cell])[1]
        assert not _exit_flags(np.array([0.2, 0.4]), [cell])[1]

    def test_canonical_up_transition_exits(self, c, imap, bjt):
        prev = float(imap(3 * c.d))
        nxt = float(imap(7 * c.d))
        assert _exit_flags(np.array([prev, nxt]), bjt.cells_for_bit(1))[1]

    def test_canonical_low_transition_does_not_exit(self, c, imap, bjt):
        prev = float(imap(-7 * c.d))
        nxt = float(imap(-5 * c.d))
        assert not _exit_flags(np.array([prev, nxt]), bjt.cells_for_bit(1))[1]


class TestTransient:
    def test_slow_rate_reaches_static_targets(self, c, bjt):
        dp = bjt_params(samples_per_symbol=64)
        seq = c.d * np.array([3.0, 7.0, -7.0, -5.0, 1.0])
        rate = 1e6  # period 1 us >> 5 tau + plateau
        trace = simulate_transient(seq, rate, bjt, 1, dp)
        vin = np.asarray(bjt.input_map(seq))
        targets = demap_static(vin, bjt, 1)
        sampled = trace.vout[np.arange(1, seq.size + 1) * dp.samples_per_symbol]
        np.testing.assert_allclose(sampled, targets, atol=1e-6)

    def test_plateau_present_on_saturation_exit(self, c, bjt):
        dp = bjt_params(samples_per_symbol=100)
        rate = 1e8
        trace = simulate_transient([3 * c.d, 7 * c.d, 7 * c.d], rate, bjt, 1, dp)
        dt = 1.0 / rate / dp.samples_per_symbol
        # flat run right after the boundary at one symbol period
        post = np.abs(np.diff(trace.vout))[dp.samples_per_symbol:]
        flat_steps = 0
        for step in post:
            if step < 1e-15:
                flat_steps += 1
            else:
                break
        expected = dp.t_plateau / dt
        assert abs(flat_steps - expected) <= 1.0

    def test_no_plateau_without_saturation_exit(self, c, bjt):
        dp = bjt_params(samples_per_symbol=100)
        trace = simulate_transient([-7 * c.d, -5 * c.d, -5 * c.d], 1e8, bjt, 1, dp)
        post = np.abs(np.diff(trace.vout))[dp.samples_per_symbol:]
        flat_steps = 0
        for step in post:
            if step < 1e-15:
                flat_steps += 1
            else:
                break
        assert flat_steps <= 1

    def test_mosfet_settles_within_one_percent_by_2ns(self, c, mosfet):
        dp = mosfet_params(samples_per_symbol=100)
        rate = 1e8
        trace = simulate_transient([3 * c.d, 7 * c.d, 7 * c.d], rate, mosfet, 1, dp)
        boundary = dp.samples_per_symbol
        at_2ns = boundary + 20  # 2 ns at 0.1 ns per step
        final = trace.vout[-1]
        step_size = abs(trace.vout[boundary] - final)
        assert abs(trace.vout[at_2ns] - final) <= 0.01 * step_size

    def test_causality_by_truncation(self, c, bjt):
        dp = bjt_params()
        seq = c.d * np.array([1.0, 7.0, -3.0, 5.0])
        full = simulate_transient(seq, 2e8, bjt, 1, dp)
        part = simulate_transient(seq[:2], 2e8, bjt, 1, dp)
        np.testing.assert_array_equal(full.vout[: part.vout.size], part.vout)

    def test_static_consistency_with_instant_settling(self, c, mosfet):
        dp = DynamicsParams(tau=1e-18, t_plateau=0.0, samples_per_symbol=8)
        seq = c.d * np.array([3.0, -1.0, 7.0])
        trace = simulate_transient(seq, 5e8, mosfet, 2, dp)
        targets = demap_static(np.asarray(mosfet.input_map(seq)), mosfet, 2)
        sampled = trace.vout[np.arange(1, 4) * 8 - 1]
        np.testing.assert_allclose(sampled, np.asarray(targets), atol=1e-9)

    def test_empty_sequence_rejected(self, bjt):
        with pytest.raises(ValueError):
            simulate_transient([], 1e8, bjt, 1, bjt_params())

    @pytest.mark.parametrize("rate", [0.0, -1e8])
    def test_non_positive_rate_rejected(self, c, bjt, rate):
        with pytest.raises(ValueError, match="symbol rate must be positive"):
            simulate_transient([0.0, c.d], rate, bjt, 1, bjt_params())

    def test_trace_lengths_must_match(self):
        with pytest.raises(ValueError, match="equal length"):
            dynamics.TransientTrace(time=np.zeros(3), vout=np.zeros(2))


class TestBerVsRate:
    SNR = 10.0
    N = 30_000

    def test_low_rate_matches_static_exact_ber(self, c, imap, mosfet):
        maps = output_maps_for(mosfet, c, imap, self.SNR)
        p = from_snr_db(self.SNR)
        rows = ber_vs_rate([1e6], self.SNR, mosfet, maps, mosfet_params(), self.N, 99, c)
        static = evaluate_demappers(
            {"exact": lambda r, k: exact_llr(r, k, c, p)}, c, p, self.N, 99, stream=5
        )["exact"].ber_est
        se = np.sqrt(static.ber * (1 - static.ber) / static.bits)
        assert abs(rows[0]["ber"] - static.ber) < 4 * se

    def test_mosfet_flat_and_bjt_monotone(self, c, imap, mosfet, bjt):
        rates = [1e8, 2e8, 3e8, 4e8, 5e8]
        maps_m = output_maps_for(mosfet, c, imap, self.SNR)
        maps_b = output_maps_for(bjt, c, imap, self.SNR)
        rows_m = ber_vs_rate(rates, self.SNR, mosfet, maps_m, mosfet_params(), self.N, 4, c)
        rows_b = ber_vs_rate(rates, self.SNR, bjt, maps_b, bjt_params(), self.N, 4, c)
        bers_m = [row["ber"] for row in rows_m]
        se = np.sqrt(bers_m[0] * (1 - bers_m[0]) / (3 * self.N))
        assert max(bers_m) - min(bers_m) < 4 * se
        bers_b = [row["ber"] for row in rows_b]
        for lo, hi in zip(bers_b, bers_b[1:]):
            assert hi >= lo - 2 * se
        assert bers_b[-1] > bers_b[0] + 10 * se  # clear degradation at 500 Msym/s

    def test_worker_invariance(self, c, imap, bjt):
        maps = output_maps_for(bjt, c, imap, self.SNR)
        a = ber_vs_rate([3e8], self.SNR, bjt, maps, bjt_params(), 20_000, 11, c, n_workers=1)
        b = ber_vs_rate([3e8], self.SNR, bjt, maps, bjt_params(), 20_000, 11, c, n_workers=3)
        assert a == b

    def test_zero_llr_decides_one(self, c, bjt):
        # zero-scale output maps give every sample the LLR of their offset
        bits, _ = draw(c, from_snr_db(self.SNR), 5, 0, 0, 2000)
        ones = int(bits.sum())
        for offset, errors in ((0.0, bits.size - ones), (-1e-12, ones)):
            maps = {k: AffineMap(scale=0.0, offset=offset) for k in (1, 2, 3)}
            (row,) = ber_vs_rate([3e8], self.SNR, bjt, maps, bjt_params(), 2000, 5, c)
            assert row["errors"] == errors

    def test_invalid_inputs(self, c, imap, bjt):
        maps = output_maps_for(bjt, c, imap, self.SNR)
        with pytest.raises(ValueError):
            ber_vs_rate([-1.0], self.SNR, bjt, maps, bjt_params(), 1000, 1, c)
        with pytest.raises(ValueError):
            ber_vs_rate([1e8], self.SNR, bjt, maps, bjt_params(), 0, 1, c)


DEFAULT_RATES = [float(x) for x in DEFAULT_CONFIG["rates_sps"]]


def settling_inputs(d, k, n, seed, snr_db=10.0):
    """Noisy random symbols as input voltages, static targets and exit flags."""
    c = build_pam8()
    rng = np.random.default_rng(seed)
    r = transmit(c.points[rng.integers(0, c.points.size, n)], from_snr_db(snr_db), rng)
    vin = np.asarray(d.input_map(r), dtype=float)
    return vin, demap_static(vin, d, k), _exit_flags(vin, d.cells_for_bit(k))


class TestSampledOutputs:
    """The vectorized settling path against the per-symbol loop."""

    ATOL = 1e-14

    def assert_matches_loop(self, vin, targets, flags, rate, dp):
        got = sampled_outputs(vin, targets, flags, rate, dp)
        want = loop_sampled_outputs(vin, targets, flags, rate, dp)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=self.ATOL)

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    @pytest.mark.parametrize("rate", DEFAULT_RATES + [1e9, 2e9])
    def test_matches_loop_at_every_rate(self, c, imap, preset, rate):
        d = build_demapper(c, imap, preset)
        dp = DynamicsParams.for_mode(preset)
        for k in (1, 2, 3):
            vin, targets, flags = settling_inputs(d, k, 3000, seed=int(rate) % 997 + k)
            if preset == "analog-bjt":
                assert flags.any()
            self.assert_matches_loop(vin, targets, flags, rate, dp)

    def test_period_equal_to_plateau(self, bjt):
        dp = bjt_params()
        assert 1.0 / 5e8 == dp.t_plateau
        vin, targets, flags = settling_inputs(bjt, 1, 2000, seed=3)
        self.assert_matches_loop(vin, targets, flags, 5e8, dp)

    @pytest.mark.parametrize("n", [1, 2])
    def test_shortest_sequences(self, bjt, n):
        vin, targets, _ = settling_inputs(bjt, 1, n, seed=5)
        for flags in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
            for rate in (1e8, 5e8, 2e9):
                self.assert_matches_loop(vin, targets, flags, rate, bjt_params())
        assert sampled_outputs(vin, targets, np.ones(n, dtype=bool), 1e8, bjt_params())[0] == targets[0]

    @pytest.mark.parametrize(
        "pattern",
        ["last", "all", "none", "every-third"],
    )
    def test_flag_patterns(self, bjt, pattern):
        n = 64
        vin, targets, _ = settling_inputs(bjt, 2, n, seed=7)
        flags = np.zeros(n, dtype=bool)
        if pattern == "last":
            flags[-1] = True
        elif pattern == "all":
            flags[:] = True
        elif pattern == "every-third":
            flags[::3] = True
        for rate in DEFAULT_RATES + [1e9, 2e9]:
            self.assert_matches_loop(vin, targets, flags, rate, bjt_params())

    def test_zero_plateau_with_flags(self, bjt):
        dp = bjt_params(t_plateau=0.0)
        vin, targets, flags = settling_inputs(bjt, 1, 2000, seed=9)
        assert flags.any()
        for rate in (5e7, 5e8, 2e9):
            self.assert_matches_loop(vin, targets, flags, rate, dp)

    def test_plateau_longer_than_the_sequence(self, bjt):
        dp = bjt_params(t_plateau=1e-6)
        vin, targets, flags = settling_inputs(bjt, 1, 300, seed=13)
        for rate in (5e8, 2e9):
            self.assert_matches_loop(vin, targets, flags, rate, dp)

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    @pytest.mark.parametrize("sps, fraction", [(20, 0.95), (16, 0.5), (4, 1.0)])
    def test_equals_sampled_transient(self, c, imap, preset, sps, fraction):
        """The docstring's claim: the samples of ``simulate_transient`` at
        step ``round(fraction * sps)`` of each symbol."""
        d = build_demapper(c, imap, preset)
        dp = DynamicsParams.for_mode(preset, samples_per_symbol=sps, sample_fraction=fraction)
        at = np.arange(120) * sps + round(fraction * sps)
        rng = np.random.default_rng(sps)
        for k in (1, 2, 3):
            seq = transmit(c.points[rng.integers(0, c.points.size, 120)], from_snr_db(10.0), rng)
            vin = np.asarray(d.input_map(seq), dtype=float)
            targets = demap_static(vin, d, k)
            flags = _exit_flags(vin, d.cells_for_bit(k))
            for rate in DEFAULT_RATES + [1e9]:
                trace = simulate_transient(seq, rate, d, k, dp)
                got = sampled_outputs(vin, targets, flags, rate, dp)
                np.testing.assert_allclose(got, trace.vout[at], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 101, 12345])
    def test_ber_vs_rate_counts_equal_the_loop(self, c, imap, bjt, mosfet, monkeypatch, seed):
        runs = {}
        for name, fn in (("vectorized", sampled_outputs), ("loop", loop_sampled_outputs)):
            monkeypatch.setattr(dynamics, "sampled_outputs", fn)
            runs[name] = [
                ber_vs_rate(DEFAULT_RATES, 10.0, dm, output_maps_for(dm, c, imap, 10.0), dp, 4000, seed, c)
                for dm, dp in ((bjt, bjt_params()), (mosfet, mosfet_params()))
            ]
        assert runs["vectorized"] == runs["loop"]


class TestTransientEngine:
    """``simulate_transient`` on the settling engine against the per-step loop."""

    ATOL = 1e-12

    def assert_matches_loop(self, seq, rate, d, k, dp):
        got = simulate_transient(seq, rate, d, k, dp)
        want = loop_simulate_transient(seq, rate, d, k, dp)
        np.testing.assert_array_equal(got.time, want.time)
        np.testing.assert_allclose(got.vout, want.vout, rtol=0.0, atol=self.ATOL)

    @staticmethod
    def noisy_symbols(c, n, seed):
        rng = np.random.default_rng(seed)
        return transmit(c.points[rng.integers(0, c.points.size, n)], from_snr_db(10.0), rng)

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    @pytest.mark.parametrize("rate", DEFAULT_RATES + [1e9])
    def test_matches_loop_at_every_rate(self, c, imap, preset, rate):
        d = build_demapper(c, imap, preset)
        dp = DynamicsParams.for_mode(preset)
        seq = self.noisy_symbols(c, 60, seed=int(rate) % 991)
        for k in (1, 2, 3):
            if preset == "analog-bjt":
                assert _exit_flags(np.asarray(d.input_map(seq)), d.cells_for_bit(k)).any()
            self.assert_matches_loop(seq, rate, d, k, dp)

    def test_plateau_longer_than_the_sequence(self, c, bjt):
        dp = bjt_params(t_plateau=1e-6)
        seq = c.d * np.array([3.0, 7.0, -7.0, 5.0, 1.0])
        assert dp.t_plateau > seq.size / 5e8
        for k in (1, 2, 3):
            self.assert_matches_loop(seq, 5e8, bjt, k, dp)

    def test_plateau_ends_within_a_step(self, c, bjt):
        # 1.234 ns ends 34% into the 13th 0.1 ns step after the boundary
        dp = bjt_params(t_plateau=1.234e-9, samples_per_symbol=100)
        seq = c.d * np.array([3.0, 7.0, 7.0, -7.0, 5.0])
        for k in (1, 2, 3):
            self.assert_matches_loop(seq, 1e8, bjt, k, dp)

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    def test_two_samples_per_symbol(self, c, imap, preset):
        d = build_demapper(c, imap, preset)
        dp = DynamicsParams.for_mode(preset, samples_per_symbol=2)
        seq = self.noisy_symbols(c, 80, seed=2)
        for k in (1, 2, 3):
            for rate in (5e7, 3e8, 1e9):
                self.assert_matches_loop(seq, rate, d, k, dp)
