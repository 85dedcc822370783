import dataclasses
import math
import re

import numpy as np
import pytest

from demapsim import dynamics
from demapsim.analog import build_demapper, demap_static
from demapsim.calibration import AffineMap, calibration_grid, fit_output_map, input_map
from demapsim.channel import draw, from_snr_db, transmit
from demapsim.constellation import build_pam8
from demapsim.dynamics import (
    SETTLED_CHUNK_SYMBOLS,
    T_PLATEAU_BJT,
    DynamicsParams,
    _affine_scan_,
    _exit_flags,
    _geometric_scan_,
    ber_vs_rate,
    sampled_outputs,
    simulate_transient,
)
from demapsim.harness import DEFAULT_CONFIG
from demapsim.metrics import evaluate_demappers
from demapsim.reference import exact_llr
from demapsim.analog import CellSpec
from oracles import cellwise_exit_flags, doubling_affine_scan, loop_sampled_outputs, loop_simulate_transient


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


def sweep_one(rates, snr_db, d, maps, dp, *args, **kwargs):
    """``ber_vs_rate`` rows of one demapper swept alone."""
    return ber_vs_rate(rates, snr_db, {d.mode: (d, maps, dp)}, *args, **kwargs)[d.mode]


class TestParams:
    def test_mode_defaults(self):
        assert bjt_params().t_plateau == pytest.approx(2e-9)
        assert mosfet_params().t_plateau == 0.0
        assert mosfet_params().tau == pytest.approx(0.4e-9)

    @pytest.mark.parametrize("t_plateau_bjt", [0.0, 5e-9])
    def test_mosfet_has_no_plateau_and_each_value_has_one_keyword(self, t_plateau_bjt):
        assert mosfet_params(t_plateau_bjt=t_plateau_bjt).t_plateau == 0.0
        assert bjt_params(t_plateau_bjt=t_plateau_bjt).t_plateau == t_plateau_bjt
        for mode in ("analog-mosfet", "analog-bjt"):
            with pytest.raises(TypeError):
                DynamicsParams.for_mode(mode, t_plateau=1e-9)

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
            DynamicsParams(tau=1e-9, t_plateau=0.0, sample_fraction=1.5)

    @pytest.mark.parametrize(
        "tau, t_plateau, field",
        [(np.nan, 0.0, "tau"), (np.inf, 0.0, "tau"), (0.4e-9, np.nan, "t_plateau"), (0.4e-9, np.inf, "t_plateau")],
    )
    def test_non_finite_times_rejected(self, tau, t_plateau, field):
        # a NaN plateau would give simulate_transient NaN samples; an infinite tau, a frozen output
        with pytest.raises(ValueError, match=f"^{field} must be"):
            DynamicsParams(tau=tau, t_plateau=t_plateau)


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

    @staticmethod
    def tie_heavy_inputs(d, n, seed):
        """Inputs of which about half lie exactly on a vref or one ulp from one."""
        vrefs = np.array(sorted({cell.vref for k in (1, 2, 3) for cell in d.cells_for_bit(k)}))
        ties = np.concatenate([vrefs, np.nextafter(vrefs, -np.inf), np.nextafter(vrefs, np.inf)])
        rng = np.random.default_rng(seed)
        vin = rng.uniform(d.vin_min - 0.05, d.vin_max + 0.05, n)
        pick = rng.random(n) < 0.5
        vin[pick] = rng.choice(ties, int(pick.sum()))
        return vin

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    def test_equal_to_the_cellwise_oracle_at_ties(self, c, imap, preset):
        d = build_demapper(c, imap, preset)
        for seed in range(40):  # seeds 0, 1 and 2 also check the shortest inputs
            vin = self.tie_heavy_inputs(d, 400 if seed > 2 else seed, seed)
            for k in (1, 2, 3):
                cells = d.cells_for_bit(k)
                np.testing.assert_array_equal(_exit_flags(vin, cells), cellwise_exit_flags(vin, cells))

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    def test_sweep_flags_equal_the_cellwise_oracle_at_ties(self, c, imap, preset, monkeypatch):
        # the sweep's path: each symbol's bin from the sorted chunk, one table per bit and sweep
        d = dataclasses.replace(build_demapper(c, imap, preset), input_map=AffineMap(scale=1.0, offset=0.0))
        chunks, seen = [], []

        def tie_draw(c, params, seed, stream, chunk_index, n):
            chunks.append(self.tie_heavy_inputs(d, n, 100 * stream + chunk_index))
            return np.zeros((n, 3), dtype=np.uint8), chunks[-1]  # the identity input map: vin is r

        monkeypatch.setattr(dynamics.channel, "draw", tie_draw)
        monkeypatch.setattr(dynamics, "sampled_outputs", lambda targets, flags, rate, dp: seen.append(flags) or targets)
        maps = {k: AffineMap(scale=1.0, offset=0.0) for k in (1, 2, 3)}
        sweeps = {"plateau": (d, maps, bjt_params()), "none": (d, maps, mosfet_params())}
        ber_vs_rate([1e8, 2e9], 10.0, sweeps, 2 * SETTLED_CHUNK_SYMBOLS + 500, 1, c)
        assert len(chunks) == 6 and len(seen) == 6 * 6  # 2 rates x 3 chunks; 2 modes x 3 bits each
        for vin, flags in zip(chunks, (seen[i : i + 6] for i in range(0, len(seen), 6))):
            for k in (1, 2, 3):
                np.testing.assert_array_equal(flags[k - 1], cellwise_exit_flags(vin, d.cells_for_bit(k)))
                assert not flags[k + 2].any()  # no plateau: flags cannot matter


class TestTransient:
    def test_slow_rate_reaches_static_targets(self, c, bjt):
        sps = 64
        seq = c.d * np.array([3.0, 7.0, -7.0, -5.0, 1.0])
        rate = 1e6  # period 1 us >> 5 tau + plateau
        trace = simulate_transient(seq, rate, bjt, 1, bjt_params(), sps)
        vin = np.asarray(bjt.input_map(seq))
        targets = demap_static(vin, bjt, 1)
        sampled = trace.vout[np.arange(1, seq.size + 1) * sps]
        np.testing.assert_allclose(sampled, targets, atol=1e-6)

    def test_plateau_present_on_saturation_exit(self, c, bjt):
        dp, sps = bjt_params(), 100
        rate = 1e8
        trace = simulate_transient([3 * c.d, 7 * c.d, 7 * c.d], rate, bjt, 1, dp, sps)
        dt = 1.0 / rate / sps
        # flat run right after the boundary at one symbol period
        post = np.abs(np.diff(trace.vout))[sps:]
        flat_steps = 0
        for step in post:
            if step < 1e-15:
                flat_steps += 1
            else:
                break
        expected = dp.t_plateau / dt
        assert abs(flat_steps - expected) <= 1.0

    def test_no_plateau_without_saturation_exit(self, c, bjt):
        trace = simulate_transient([-7 * c.d, -5 * c.d, -5 * c.d], 1e8, bjt, 1, bjt_params(), 100)
        post = np.abs(np.diff(trace.vout))[100:]
        flat_steps = 0
        for step in post:
            if step < 1e-15:
                flat_steps += 1
            else:
                break
        assert flat_steps <= 1

    def test_mosfet_settles_within_one_percent_by_2ns(self, c, mosfet):
        rate = 1e8
        trace = simulate_transient([3 * c.d, 7 * c.d, 7 * c.d], rate, mosfet, 1, mosfet_params(), 100)
        boundary = 100
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
        dp = DynamicsParams(tau=1e-18, t_plateau=0.0)
        seq = c.d * np.array([3.0, -1.0, 7.0])
        trace = simulate_transient(seq, 5e8, mosfet, 2, dp, 8)
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

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_non_finite_rate_rejected(self, c, bjt, rate):
        with pytest.raises(ValueError, match="symbol rate must be positive and finite"):
            simulate_transient([0.0, c.d], rate, bjt, 1, bjt_params())

    @pytest.mark.parametrize("sps", [2.5, 16.0, "16"])
    def test_non_integer_samples_per_symbol_rejected(self, c, bjt, sps):
        # at 2.5, dt would be a 2.5th of the period but each symbol 3 steps: 3 symbols at 100 Msym/s in 36 ns
        with pytest.raises(ValueError, match="samples_per_symbol must be an integer"):
            simulate_transient([3 * c.d, 7 * c.d, 7 * c.d], 1e8, bjt, 1, bjt_params(), sps)
        trace = simulate_transient([3 * c.d, 7 * c.d, 7 * c.d], 1e8, bjt, 1, bjt_params(), np.int64(4))
        assert trace.time[-1] == pytest.approx(30e-9, rel=1e-12)

    @pytest.mark.parametrize("sps", [1, 0, -4])
    def test_fewer_than_two_samples_per_symbol_rejected(self, c, bjt, sps):
        with pytest.raises(ValueError, match="samples_per_symbol must be at least 2"):
            simulate_transient([0.0, c.d], 1e8, bjt, 1, bjt_params(), sps)


class TestBerVsRate:
    SNR = 10.0
    N = 30_000

    def test_low_rate_matches_static_exact_ber(self, c, imap, mosfet):
        maps = output_maps_for(mosfet, c, imap, self.SNR)
        p = from_snr_db(self.SNR)
        rows = sweep_one([1e6], self.SNR, mosfet, maps, mosfet_params(), self.N, 99, c)
        static = evaluate_demappers(
            {"exact": lambda r, k: exact_llr(r, k, c, p)}, c, p, self.N, 99, stream=5
        )["exact"]
        se = np.sqrt(static.ber * (1 - static.ber) / static.bits)
        assert abs(rows[0]["ber"] - static.ber) < 4 * se

    def test_mosfet_flat_and_bjt_monotone(self, c, imap, mosfet, bjt):
        rates = [1e8, 2e8, 3e8, 4e8, 5e8]
        maps_m = output_maps_for(mosfet, c, imap, self.SNR)
        maps_b = output_maps_for(bjt, c, imap, self.SNR)
        rows_m = sweep_one(rates, self.SNR, mosfet, maps_m, mosfet_params(), self.N, 4, c)
        rows_b = sweep_one(rates, self.SNR, bjt, maps_b, bjt_params(), self.N, 4, c)
        bers_m = [row["ber"] for row in rows_m]
        se = np.sqrt(bers_m[0] * (1 - bers_m[0]) / (3 * self.N))
        assert max(bers_m) - min(bers_m) < 4 * se
        bers_b = [row["ber"] for row in rows_b]
        for lo, hi in zip(bers_b, bers_b[1:]):
            assert hi >= lo - 2 * se
        assert bers_b[-1] > bers_b[0] + 10 * se  # clear degradation at 500 Msym/s

    def test_worker_invariance(self, c, imap, bjt):
        maps = output_maps_for(bjt, c, imap, self.SNR)
        a = sweep_one([3e8], self.SNR, bjt, maps, bjt_params(), 20_000, 11, c, n_workers=1)
        b = sweep_one([3e8], self.SNR, bjt, maps, bjt_params(), 20_000, 11, c, n_workers=3)
        assert a == b

    def test_zero_llr_decides_one(self, c, bjt):
        # zero-scale output maps give every sample the LLR of their offset
        bits, _ = draw(c, from_snr_db(self.SNR), 5, 0, 0, 2000)
        ones = int(bits.sum())
        for offset, errors in ((0.0, bits.size - ones), (-1e-12, ones)):
            maps = {k: AffineMap(scale=0.0, offset=offset) for k in (1, 2, 3)}
            (row,) = sweep_one([3e8], self.SNR, bjt, maps, bjt_params(), 2000, 5, c)
            assert row["errors"] == errors

    def test_invalid_inputs(self, c, imap, bjt):
        maps = output_maps_for(bjt, c, imap, self.SNR)
        with pytest.raises(ValueError):
            sweep_one([-1.0], self.SNR, bjt, maps, bjt_params(), 1000, 1, c)
        with pytest.raises(ValueError):
            sweep_one([1e8], self.SNR, bjt, maps, bjt_params(), 0, 1, c)

    @pytest.mark.parametrize("rates", [[1e8, 2e8, 0.0], [1e8, np.inf], [np.nan]])
    def test_every_rate_is_checked_before_any_draw(self, c, imap, bjt, monkeypatch, rates):
        maps = output_maps_for(bjt, c, imap, self.SNR)
        draws = []
        monkeypatch.setattr(dynamics.channel, "draw", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match="symbol rates must be positive and finite"):
            sweep_one(rates, self.SNR, bjt, maps, bjt_params(), 100_000, 1, c)
        assert draws == []

    @pytest.mark.parametrize("n_symbols", [True, 2000.0, 0, -1])
    def test_n_symbols_is_checked_by_chunk_sizes_before_any_draw(self, c, imap, bjt, monkeypatch, n_symbols):
        # True once swept one symbol, and 2000.0 failed with a TypeError inside the chunking
        maps = output_maps_for(bjt, c, imap, self.SNR)
        draws = []
        monkeypatch.setattr(dynamics.channel, "draw", lambda *args: draws.append(args))
        with pytest.raises(ValueError, match=rf"^n_total must be an integer of at least 1, got {re.escape(repr(n_symbols))}$"):
            sweep_one([1e8, 2e8], self.SNR, bjt, maps, bjt_params(), n_symbols, 1, c)
        with pytest.raises(ValueError, match="symbol rates must be positive and finite"):  # every rate first
            sweep_one([1e8, 0.0], self.SNR, bjt, maps, bjt_params(), n_symbols, 1, c)
        assert draws == []

    def test_numpy_n_symbols_is_accepted(self, c, imap, bjt):
        maps = output_maps_for(bjt, c, imap, self.SNR)
        a = sweep_one([3e8], self.SNR, bjt, maps, bjt_params(), 3_000, 4, c)
        assert sweep_one([3e8], self.SNR, bjt, maps, bjt_params(), np.int64(3_000), 4, c) == a

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_joint_sweep_equals_one_mode_sweeps(self, c, imap, bjt, mosfet, n_workers):
        # the modes share each draw; each one's rows are those of a sweep of it alone
        rates, stream = [1e8, 4e8], 7
        sweeps = {
            "analog-bjt": (bjt, output_maps_for(bjt, c, imap, self.SNR), bjt_params()),
            "analog-mosfet": (mosfet, output_maps_for(mosfet, c, imap, self.SNR), mosfet_params()),
        }
        joint = ber_vs_rate(rates, self.SNR, sweeps, 20_000, 3, c, stream=stream, n_workers=n_workers)
        assert list(joint) == list(sweeps)
        for mode_id, (d, maps, dp) in sweeps.items():
            alone = sweep_one(rates, self.SNR, d, maps, dp, 20_000, 3, c, stream=stream, n_workers=n_workers)
            assert joint[mode_id] == alone
            assert [row["rate_sps"] for row in alone] == rates


DEFAULT_RATES = [float(x) for x in DEFAULT_CONFIG["rates_sps"]]


def settling_inputs(d, k, n, seed, snr_db=10.0):
    """Static targets and exit flags of noisy random symbols."""
    c = build_pam8()
    rng = np.random.default_rng(seed)
    r = transmit(c.points[rng.integers(0, c.points.size, n)], from_snr_db(snr_db), rng)
    vin = np.asarray(d.input_map(r), dtype=float)
    return demap_static(vin, d, k), _exit_flags(vin, d.cells_for_bit(k))


class TestSampledOutputs:
    """The vectorized settling path against the per-symbol loop."""

    ATOL = 1e-14

    def assert_matches_loop(self, targets, flags, rate, dp):
        got = sampled_outputs(targets, flags, rate, dp)
        want = loop_sampled_outputs(targets, flags, rate, dp)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0.0, atol=self.ATOL)

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    @pytest.mark.parametrize("rate", DEFAULT_RATES + [1e9, 2e9])
    def test_matches_loop_at_every_rate(self, c, imap, preset, rate):
        d = build_demapper(c, imap, preset)
        dp = DynamicsParams.for_mode(preset)
        for k in (1, 2, 3):
            targets, flags = settling_inputs(d, k, 3000, seed=int(rate) % 997 + k)
            if preset == "analog-bjt":
                assert flags.any()
            self.assert_matches_loop(targets, flags, rate, dp)

    def test_period_equal_to_plateau(self, bjt):
        dp = bjt_params()
        assert 1.0 / 5e8 == dp.t_plateau
        targets, flags = settling_inputs(bjt, 1, 2000, seed=3)
        self.assert_matches_loop(targets, flags, 5e8, dp)

    @pytest.mark.parametrize("n", [1, 2])
    def test_shortest_sequences(self, bjt, n):
        targets, _ = settling_inputs(bjt, 1, n, seed=5)
        for flags in (np.zeros(n, dtype=bool), np.ones(n, dtype=bool)):
            for rate in (1e8, 5e8, 2e9):
                self.assert_matches_loop(targets, flags, rate, bjt_params())
        assert sampled_outputs(targets, np.ones(n, dtype=bool), 1e8, bjt_params())[0] == targets[0]

    @pytest.mark.parametrize(
        "pattern",
        ["last", "all", "none", "every-third"],
    )
    def test_flag_patterns(self, bjt, pattern):
        n = 64
        targets, _ = settling_inputs(bjt, 2, n, seed=7)
        flags = np.zeros(n, dtype=bool)
        if pattern == "last":
            flags[-1] = True
        elif pattern == "all":
            flags[:] = True
        elif pattern == "every-third":
            flags[::3] = True
        for rate in DEFAULT_RATES + [1e9, 2e9]:
            self.assert_matches_loop(targets, flags, rate, bjt_params())

    def test_zero_plateau_with_flags(self, bjt):
        dp = bjt_params(t_plateau_bjt=0.0)
        targets, flags = settling_inputs(bjt, 1, 2000, seed=9)
        assert flags.any()
        for rate in (5e7, 5e8, 2e9):
            self.assert_matches_loop(targets, flags, rate, dp)

    def test_plateau_longer_than_the_sequence(self, bjt):
        dp = bjt_params(t_plateau_bjt=1e-6)
        targets, flags = settling_inputs(bjt, 1, 300, seed=13)
        for rate in (5e8, 2e9):
            self.assert_matches_loop(targets, flags, rate, dp)

    @pytest.mark.parametrize("rate", [5e7, 1e8, 2.5e8, 5e8, 1e9, 2e9])
    def test_matches_loop_with_a_five_ns_plateau(self, bjt, rate):
        # the plateau table: two rows while a period outlasts the plateau, three or more from 250 Msps
        dp = bjt_params(t_plateau_bjt=5e-9)
        for k in (1, 2, 3):
            targets, flags = settling_inputs(bjt, k, 3000, seed=int(rate) % 983 + k)
            assert flags.any()
            self.assert_matches_loop(targets, flags, rate, dp)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 1000, SETTLED_CHUNK_SYMBOLS])
    def test_geometric_scan_is_the_affine_scan_bit_for_bit(self, n):
        # the engine's scan without a plateau: a[0] = 0 and every other a[i] one value
        rng = np.random.default_rng(n)
        for alpha in (0.0, 5e-324, math.exp(-50.0), math.exp(-5.0), 0.5, 0.999, 1.0):
            b = rng.normal(size=n)
            a = np.full(n, alpha)
            a[:1] = 0.0
            engine = (1.0 - alpha) * b  # b as ``_settle`` forms it from targets b: max|b| bounds its partial sums
            engine[:1] = b[:1]
            for rhs, bound in ((b, np.abs(b).sum(initial=0.0)), (engine, np.abs(b).max(initial=0.0))):
                want, got = rhs.copy(), rhs.copy()
                steps = scan_steps(_affine_scan_, a.copy(), want, bound)
                assert scan_steps(_geometric_scan_, alpha, got, bound) == steps
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    @pytest.mark.parametrize("sps, fraction", [(20, 0.95), (16, 0.5), (4, 1.0)])
    def test_equals_sampled_transient(self, c, imap, preset, sps, fraction):
        """The docstring's claim: the samples of ``simulate_transient`` at
        step ``round(fraction * sps)`` of each symbol."""
        d = build_demapper(c, imap, preset)
        dp = DynamicsParams.for_mode(preset, sample_fraction=fraction)
        at = np.arange(120) * sps + round(fraction * sps)
        rng = np.random.default_rng(sps)
        for k in (1, 2, 3):
            seq = transmit(c.points[rng.integers(0, c.points.size, 120)], from_snr_db(10.0), rng)
            vin = np.asarray(d.input_map(seq), dtype=float)
            targets = demap_static(vin, d, k)
            flags = _exit_flags(vin, d.cells_for_bit(k))
            for rate in DEFAULT_RATES + [1e9]:
                trace = simulate_transient(seq, rate, d, k, dp, sps)
                got = sampled_outputs(targets, flags, rate, dp)
                np.testing.assert_allclose(got, trace.vout[at], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3, 101, 12345])
    def test_ber_vs_rate_counts_equal_the_loop(self, c, imap, bjt, mosfet, monkeypatch, seed):
        runs = {}
        for name, fn in (("vectorized", sampled_outputs), ("loop", loop_sampled_outputs)):
            monkeypatch.setattr(dynamics, "sampled_outputs", fn)
            sweeps = {
                dm.mode: (dm, output_maps_for(dm, c, imap, 10.0), dp)
                for dm, dp in ((bjt, bjt_params()), (mosfet, mosfet_params()))
            }
            runs[name] = ber_vs_rate(DEFAULT_RATES, 10.0, sweeps, 4000, seed, c)
        assert runs["vectorized"] == runs["loop"]


class TestTransientEngine:
    """``simulate_transient`` on the settling engine against the per-step loop."""

    ATOL = 1e-12

    def assert_matches_loop(self, seq, rate, d, k, dp, samples_per_symbol=16):
        got = simulate_transient(seq, rate, d, k, dp, samples_per_symbol)
        want = loop_simulate_transient(seq, rate, d, k, dp, samples_per_symbol)
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
        dp = bjt_params(t_plateau_bjt=1e-6)
        seq = c.d * np.array([3.0, 7.0, -7.0, 5.0, 1.0])
        assert dp.t_plateau > seq.size / 5e8
        for k in (1, 2, 3):
            self.assert_matches_loop(seq, 5e8, bjt, k, dp)

    def test_plateau_ends_within_a_step(self, c, bjt):
        # 1.234 ns ends 34% into the 13th 0.1 ns step after the boundary
        dp = bjt_params(t_plateau_bjt=1.234e-9)
        seq = c.d * np.array([3.0, 7.0, 7.0, -7.0, 5.0])
        for k in (1, 2, 3):
            self.assert_matches_loop(seq, 1e8, bjt, k, dp, 100)

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    def test_two_samples_per_symbol(self, c, imap, preset):
        d = build_demapper(c, imap, preset)
        dp = DynamicsParams.for_mode(preset)
        seq = self.noisy_symbols(c, 80, seed=2)
        for k in (1, 2, 3):
            for rate in (5e7, 3e8, 1e9):
                self.assert_matches_loop(seq, rate, d, k, dp, 2)


def scan_steps(scan, *args) -> int:
    """Run a settling scan; the doubling steps it took, counted as the stop tests it failed."""
    verdicts = []

    def counted(*test, _settled=dynamics._bits_settled):
        verdicts.append(_settled(*test))
        return verdicts[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_bits_settled", counted)
        scan(*args)
    return verdicts.count(False)


def _is_subnormal(a) -> bool:
    a = np.abs(np.asarray(a, dtype=float))
    return bool(np.any((a > 0.0) & (a < np.finfo(float).tiny)))


class TestScans:
    """The settling scans stop early but keep the bits of the doubling loop
    (``oracles.doubling_affine_scan``), which runs until every a is zero."""

    @staticmethod
    def assert_pinned(a, b, bound):
        """Both scans against the loop, bit for bit; their step counts."""
        want = b.copy()
        before = doubling_affine_scan(a.copy(), want)
        got = b.copy()
        steps = scan_steps(_affine_scan_, a.copy(), got, bound)
        assert got.tobytes() == want.tobytes() and steps <= len(before)
        if a.size and a[0] == 0.0 and np.all(a[1:] == a[-1]):  # a geometric a: the other scan too
            got = b.copy()
            assert scan_steps(_geometric_scan_, float(a[-1]), got, bound) == steps
            assert got.tobytes() == want.tobytes()
        return steps, len(before)

    @pytest.fixture
    def scans(self, monkeypatch):
        """Each scan ``_settle`` runs, checked against the loop: (steps, loop steps,
        whether a step ran on or made a subnormal a)."""
        runs = []

        def affine(a, b, bound):
            want = b.copy()
            before = doubling_affine_scan(a.copy(), want)
            steps = scan_steps(_affine_scan_, a, b, bound)
            assert b.tobytes() == want.tobytes()
            runs.append((steps, len(before), any(map(_is_subnormal, before[:steps])) or _is_subnormal(a)))

        def geometric(alpha, b, bound):
            a = np.full(b.size, alpha)
            a[:1] = 0.0
            want = b.copy()
            before = doubling_affine_scan(a, want)
            steps = scan_steps(_geometric_scan_, alpha, b, bound)
            assert b.tobytes() == want.tobytes()
            powers = [alpha ** (2**j) for j in range(steps + 1)]  # alpha before each step, and after the last
            runs.append((steps, len(before), any(map(_is_subnormal, powers))))

        monkeypatch.setattr(dynamics, "_affine_scan_", affine)
        monkeypatch.setattr(dynamics, "_geometric_scan_", geometric)
        return runs

    @pytest.mark.parametrize("n", [0, 1, 2, SETTLED_CHUNK_SYMBOLS])
    def test_special_values(self, n):
        tiny, sub = 1e-300, 5e-324
        rng = np.random.default_rng(n)
        a = rng.choice([0.0, 1.0, tiny, sub, 2.2e-308, 1e-20, 0.3, 0.999], size=n)
        t = rng.choice([0.0, -0.0, -1.5, 1.6, -1e-300, 0.25, -3.0], size=n)
        # b in the engine's form, so max|t| bounds every partial sum and the stop can fire
        b = (1.0 - a) * t
        self.assert_pinned(a, b, np.abs(t).max(initial=0.0))
        nonzero = np.where(t == 0.0, 1.0, t)
        self.assert_pinned(a, (1.0 - a) * nonzero, np.abs(nonzero).max(initial=0.0))
        # any b: the sum of |b| bounds every partial sum
        self.assert_pinned(a, t, np.abs(t).sum())
        for alpha in (0.0, sub, tiny, 1e-20, 0.3, 1.0):
            g = np.full(n, alpha)
            g[:1] = 0.0
            self.assert_pinned(g, (1.0 - g) * nonzero, np.abs(nonzero).max(initial=0.0))

    def test_the_stop_fires_where_no_bit_can_change(self):
        a = np.full(SETTLED_CHUNK_SYMBOLS, 1e-10)
        a[0] = 0.0
        b = 1.0 - a
        steps, loop_steps = self.assert_pinned(a, b, 1.0)
        assert steps == 1 < loop_steps  # 1e-20 after one step: under 2**-56

    def test_a_zero_target_keeps_the_loop_running(self):
        # a zero target of a settled symbol stays an exact 0 in b: no step may be skipped
        n = 4096
        t = np.linspace(0.2, 1.6, n)
        for a in (np.full(n, 1e-10), np.random.default_rng(0).uniform(0.0, 1e-3, n)):
            a[0] = a[n // 2] = 0.0
            t[n // 2] = 0.0
            steps, loop_steps = self.assert_pinned(a, (1.0 - a) * t, 1.6)
            assert steps == loop_steps
            t[n // 2] = 0.1
            steps, loop_steps = self.assert_pinned(a, (1.0 - a) * t, 1.6)
            assert steps < loop_steps

    @pytest.mark.parametrize("preset", ["analog-bjt", "analog-mosfet"], ids=["bjt", "mosfet"])
    @pytest.mark.parametrize("rate", DEFAULT_RATES + [1e9, 2e9])
    def test_settling_inputs_at_every_rate(self, c, imap, preset, rate, scans):
        d = build_demapper(c, imap, preset)
        plateaus = [T_PLATEAU_BJT, 5e-9] if preset == "analog-bjt" else [0.0]
        for t_plateau in plateaus:
            dp = DynamicsParams.for_mode(preset, t_plateau_bjt=t_plateau)
            for k in (1, 2, 3):
                targets, flags = settling_inputs(d, k, SETTLED_CHUNK_SYMBOLS, seed=int(rate) % 977 + k)
                sampled_outputs(targets, flags, rate, dp)
                targets[k * 1000] = 0.0  # a zero target: the stop must not fire
                sampled_outputs(targets, flags, rate, dp)
        assert len(scans) == 6 * len(plateaus)
        for j, (steps, loop_steps, subnormal) in enumerate(scans):
            assert not subnormal  # work guard: no step runs on, or makes, a subnormal a
            assert steps <= loop_steps
            if j % 2:
                assert steps >= 1  # b holds the zero until the first step
            elif rate == 5e7 and j < 6:  # work guard: settled within a period, no step at all
                assert steps == 0
