import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from demapsim import metrics
from demapsim.channel import DEFAULT_CHUNK_SIZE, draw, from_snr_db
from demapsim.harness import Workbench, load_config
from demapsim.metrics import (
    DemapperEvaluation,
    energy_per_bit,
    evaluate_demappers,
    _softplus_,
    mi_summands,
    rate_penalty,
)
from demapsim.reference import exact_llr, maxlog_llr

from oracles import quadrature_mi_exact


class TestMiBitwise:
    """Bit-wise MI estimate 1 - E[log2(1 + e^{(-1)^b L})] from ``mi_summands``."""

    def test_uninformative_llrs(self):
        bits = np.array([0, 1, 0, 1])
        assert 1.0 - mi_summands(bits, np.zeros(4)).mean() == pytest.approx(0.0, abs=1e-15)

    def test_perfect_llrs(self):
        bits = np.array([0, 1] * 10)
        llrs = np.where(bits == 1, 1000.0, -1000.0)
        assert 1.0 - mi_summands(bits, llrs).mean() == pytest.approx(1.0, abs=1e-9)

    def test_empty_rejected(self, c):
        p = from_snr_db(10.0)
        with pytest.raises(ValueError):
            evaluate_demappers({"exact": lambda r, k: exact_llr(r, k, c, p)}, c, p, 0, 1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, 1000)
        llrs = rng.normal(0, 3, 1000)
        perm = rng.permutation(1000)
        a = mi_summands(bits, llrs).mean()
        assert a == pytest.approx(mi_summands(bits[perm], llrs[perm]).mean(), abs=1e-14)

    def test_matches_quadrature_oracle(self, c):
        p = from_snr_db(10.0)
        ev = evaluate_demappers(
            {"exact": lambda r, k: exact_llr(r, k, c, p)}, c, p, 200_000, 31
        )["exact"]
        oracle = quadrature_mi_exact(1, c, p.sigma)
        assert abs(ev.per_bit_mi[0] - oracle) < 3 * ev.per_bit_se[0]


class TestSoftplus:
    def test_matches_logaddexp_inside_the_clamp(self):
        x = np.concatenate([np.linspace(-700.0, 700.0, 200001), np.linspace(-40.0, 40.0, 8001)])
        np.testing.assert_allclose(_softplus_(x.copy()), np.logaddexp(0.0, x), rtol=4.5e-16, atol=0)

    def test_far_tails_past_the_clamp(self):
        x = np.array([-1e300, -1e4, -745.5, -700.5, 700.5, 745.5, 1e4, 1e300])
        y = _softplus_(x.copy())
        assert np.all((y[:4] > 0.0) & (y[:4] < 1e-304))
        np.testing.assert_array_equal(y[4:], x[4:])

    def test_works_in_place(self):
        x = np.array([-3.0, 0.0, 2.5])
        assert _softplus_(x) is x and x[1] == np.log(2.0)

    def test_mi_summands_take_the_sign_from_the_bit(self):
        llrs = np.array([-800.0, -2.0, 0.0, 2.0, 800.0])
        np.testing.assert_allclose(
            mi_summands(np.zeros(5, dtype=int), llrs), np.logaddexp(0.0, llrs) / np.log(2.0), rtol=4.5e-16, atol=1e-303
        )
        np.testing.assert_array_equal(mi_summands(np.ones(5, dtype=int), llrs), mi_summands(np.zeros(5, dtype=int), -llrs))


class TestScalarMetrics:
    def test_gmi_is_plain_average(self, c):
        p = from_snr_db(5.0)
        fns = {"exact": lambda r, k: exact_llr(r, k, c, p), "maxlog": lambda r, k: maxlog_llr(r, k, c, p)}
        for ev in evaluate_demappers(fns, c, p, 20_000, 3).values():
            assert ev.gmi == pytest.approx(sum(ev.per_bit_mi) / 3.0, abs=1e-15)

    def test_rate_penalty(self):
        assert rate_penalty(1.0, 1.0) == 0.0
        assert rate_penalty(0.95, 1.0) == pytest.approx(5.0, abs=1e-12)
        with pytest.raises(ValueError):
            rate_penalty(0.5, 0.0)

    def test_hard_decide_boundary(self, c):
        # an LLR of exactly 0 counts as a 1 decision: every 0 bit is an error
        p = from_snr_db(5.0)
        bits, _ = draw(c, p, 9, 0, 0, 1000)
        ones = int(bits.sum())
        for llr, errors in ((0.0, bits.size - ones), (-1e-12, ones), (3.7, bits.size - ones)):
            ev = evaluate_demappers({"const": lambda r, k, llr=llr: np.full(r.size, llr)}, c, p, 1000, 9)
            assert ev["const"].errors == errors

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_llrs_name_the_rule(self, c, value):
        p = from_snr_db(5.0)
        fns = {"exact": lambda r, k: exact_llr(r, k, c, p), "broken": lambda r, k: np.full(r.size, value)}
        with pytest.raises(ValueError, match="demapper 'broken': its LLRs give non-finite information"):
            evaluate_demappers(fns, c, p, 1000, 9, ref_id="exact", n_workers=2, chunk_size=300)

    def test_energy_per_bit(self):
        assert energy_per_bit(0.35e-3, 350e6, 3) == pytest.approx(0.3333e-12, abs=1e-15)
        assert energy_per_bit(1.0, 1.0, 1) == 1.0
        assert energy_per_bit(1.0, 2.0, 1) == pytest.approx(energy_per_bit(1.0, 1.0, 1) / 2)
        with pytest.raises(ValueError):
            energy_per_bit(0.0, 1.0, 1)

    @pytest.mark.parametrize("power_w, symbol_rate", [(np.nan, 1e9), (np.inf, 1e9), (-1e-3, 1e9), (1e-3, np.nan), (1e-3, np.inf), (1e-3, 0.0)])
    def test_energy_per_bit_needs_a_finite_positive_power_and_rate(self, power_w, symbol_rate):
        with pytest.raises(ValueError, match="power and symbol rate must be positive and finite"):
            energy_per_bit(power_w, symbol_rate, 3)

    @pytest.mark.parametrize("bits", [2.5, 3.0, True, 0, "3"])
    def test_energy_per_bit_needs_an_int_bit_count(self, bits):
        with pytest.raises(ValueError, match=rf"bits per symbol must be an integer of at least 1, got {re.escape(repr(bits))}$"):
            energy_per_bit(1e-3, 1e9, bits)
        assert energy_per_bit(1e-3, 1e9, np.int64(3)) == energy_per_bit(1e-3, 1e9, 3)


def evaluation(n_samples=10, errors=0):
    return DemapperEvaluation(
        per_bit_mi=(0.5, 0.5, 0.5), per_bit_se=(0.01, 0.01, 0.01), std_error=0.01, n_samples=n_samples, errors=errors
    )


class TestEstimateTypes:
    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_count_must_be_positive(self, n):
        with pytest.raises(ValueError, match="n_samples must be positive"):
            evaluation(n_samples=n)

    @pytest.mark.parametrize("n", [True, 2.5, "3"])
    def test_sample_count_must_be_an_int(self, n):
        # True once gave 3 bits, and 2.5 gave 7.5 bits and a BER of 0.1333 for one error
        with pytest.raises(ValueError, match=rf"^n_samples must be positive \(an integer of at least 1\), got {re.escape(repr(n))}$"):
            evaluation(n_samples=n, errors=1)
        assert evaluation(n_samples=np.int64(3), errors=1).bits == 9

    def test_ber_counts_validated(self):
        with pytest.raises(ValueError):
            evaluation(n_samples=1, errors=5)
        with pytest.raises(ValueError, match="invalid error count -1/30"):
            evaluation(errors=-1)
        est = evaluation(n_samples=4, errors=3)
        assert est.ber == 0.25

    def test_fields_are_only_the_measured_state(self):
        # gmi, bits and the BER figures are derived, never stored
        assert [f.name for f in dataclasses.fields(DemapperEvaluation)] == [
            "per_bit_mi", "per_bit_se", "std_error", "n_samples", "errors", "gmi_minus_ref", "gmi_minus_ref_se",
        ]

    def test_derived_values_are_the_plain_expressions(self, c):
        p = from_snr_db(1.0)
        fns = {"exact": lambda r, k: exact_llr(r, k, c, p), "maxlog": lambda r, k: maxlog_llr(r, k, c, p)}
        for ev in evaluate_demappers(fns, c, p, 5_000, 3, ref_id="exact").values():
            assert ev.errors > 0
            assert ev.gmi == sum(ev.per_bit_mi) / 3.0
            assert ev.bits == 3 * ev.n_samples == 15_000
            assert ev.ber == ev.errors / (3 * ev.n_samples)
            assert ev.ber_std_error == math.sqrt(max(ev.ber * (1.0 - ev.ber), 0.0) / (3 * ev.n_samples))

    def test_matched_estimates_within_unit_range(self, c):
        # for exact LLRs the estimator stays in [0, 1 + 3 se] per bit
        for snr in (0.0, 10.0):
            p = from_snr_db(snr)
            ev = evaluate_demappers(
                {"exact": lambda r, k: exact_llr(r, k, c, p)}, c, p, 100_000, 17
            )["exact"]
            for k in range(3):
                assert 0.0 <= ev.per_bit_mi[k] <= 1.0 + 3 * ev.std_error


class TestPairedEvaluation:
    def test_exact_never_below_maxlog(self, c):
        for snr in (0.0, 5.0, 10.0):
            p = from_snr_db(snr)
            evals = evaluate_demappers(
                {
                    "exact": lambda r, k: exact_llr(r, k, c, p),
                    "maxlog": lambda r, k: maxlog_llr(r, k, c, p),
                },
                c,
                p,
                100_000,
                23,
                ref_id="exact",
            )
            ml = evals["maxlog"]
            assert ml.gmi_minus_ref < 2 * ml.gmi_minus_ref_se

    def test_gmi_minus_ref_is_the_gmi_difference(self, c):
        p = from_snr_db(3.0)
        evals = evaluate_demappers(
            {"exact": lambda r, k: exact_llr(r, k, c, p), "maxlog": lambda r, k: maxlog_llr(r, k, c, p)},
            c,
            p,
            100_000,
            23,
            ref_id="exact",
        )
        ml = evals["maxlog"]
        assert ml.gmi_minus_ref == pytest.approx(ml.gmi - evals["exact"].gmi, rel=0, abs=1e-12)
        assert ml.gmi_minus_ref < -5 * ml.gmi_minus_ref_se < 0  # max-log loses rate

    def test_missing_reference_rejected(self, c):
        # unchecked, every paired difference would silently stay 0.0 +- 0.0
        p = from_snr_db(5.0)
        fns = {"maxlog": lambda r, k: maxlog_llr(r, k, c, p), "const": lambda r, k: np.zeros(r.size)}
        with pytest.raises(ValueError, match=r"'exact' is not among the demapper ids \['maxlog', 'const'\]"):
            evaluate_demappers(fns, c, p, 1000, 9, ref_id="exact")

    @pytest.mark.parametrize(
        "name, value", [("n_symbols", n) for n in (True, 2000.0, 0, -1)] + [("chunk_size", n) for n in (True, 0, 8192.0)]
    )
    def test_counts_are_checked_by_chunk_sizes_before_any_draw(self, c, monkeypatch, name, value):
        # True once ran one symbol, and 2000.0 failed with a TypeError inside the chunking
        draws = []
        monkeypatch.setattr(metrics.channel, "draw", lambda *args: draws.append(args))
        p = from_snr_db(5.0)
        counts = {"n_symbols": 2000, "chunk_size": 8192, name: value}
        arg = "n_total" if name == "n_symbols" else name  # the name chunk_sizes gives the count
        with pytest.raises(ValueError, match=rf"^{arg} must be an integer of at least 1, got {re.escape(repr(value))}$"):
            evaluate_demappers(
                {"exact": lambda r, k: exact_llr(r, k, c, p)}, c, p, counts["n_symbols"], 9, chunk_size=counts["chunk_size"]
            )
        assert draws == []

    def test_numpy_counts_are_accepted(self, c):
        p = from_snr_db(5.0)
        fns = {"exact": lambda r, k: exact_llr(r, k, c, p), "maxlog": lambda r, k: maxlog_llr(r, k, c, p)}
        a = evaluate_demappers(fns, c, p, 2_500, 9, ref_id="exact", chunk_size=1_000)
        b = evaluate_demappers(fns, c, p, np.int64(2_500), 9, ref_id="exact", chunk_size=np.int64(1_000))
        assert a == b

    def test_results_follow_the_order_of_llr_fns_whatever_the_reference(self, c):
        # the reference runs first in each chunk, yet each rule keeps its own row
        p = from_snr_db(5.0)
        fns = {
            "const": lambda r, k: np.full(r.size, 0.3),
            "maxlog": lambda r, k: maxlog_llr(r, k, c, p),
            "exact": lambda r, k: exact_llr(r, k, c, p),
        }
        last = evaluate_demappers(fns, c, p, 2_500, 9, ref_id="exact", chunk_size=1_000)
        first = evaluate_demappers({"exact": fns["exact"], **fns}, c, p, 2_500, 9, ref_id="exact", chunk_size=1_000)
        assert list(last) == list(fns)
        assert all(last[name] == first[name] for name in fns)

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_estimates_match_a_direct_computation(self, c, n_workers):
        # three chunks, the last one short, against the pooled draws of those chunks
        p = from_snr_db(4.0)
        n, seed = 2_500, 5
        fns = {
            "exact": lambda r, k: exact_llr(r, k, c, p),
            "maxlog": lambda r, k: maxlog_llr(r, k, c, p),
            "const": lambda r, k: np.full(r.size, 0.3),
        }
        evals = evaluate_demappers(fns, c, p, n, seed, ref_id="exact", n_workers=n_workers, chunk_size=1_000)
        draws = [draw(c, p, seed, 0, i, size) for i, size in enumerate((1_000, 1_000, 500))]
        bits = np.concatenate([b for b, _ in draws])
        r = np.concatenate([r for _, r in draws])
        summands = {name: np.stack([mi_summands(bits[:, k - 1], fn(r, k)) for k in (1, 2, 3)]) for name, fn in fns.items()}
        ref_sym = summands["exact"].mean(axis=0)
        for name, fn in fns.items():
            ev = evals[name]
            s = summands[name]
            sym = s.mean(axis=0)
            np.testing.assert_allclose(ev.per_bit_mi, 1.0 - s.mean(axis=1), rtol=1e-9, atol=0)
            np.testing.assert_allclose(ev.per_bit_se, s.std(axis=1) / np.sqrt(n), rtol=1e-9, atol=0)
            assert ev.gmi == pytest.approx(1.0 - sym.mean(), rel=1e-9, abs=0)
            assert ev.std_error == pytest.approx(sym.std() / np.sqrt(n), rel=1e-9, abs=0)
            assert ev.errors == sum(np.count_nonzero((fn(r, k) >= 0.0) != bits[:, k - 1]) for k in (1, 2, 3))
            if name == "exact":
                assert ev.gmi_minus_ref is None and ev.gmi_minus_ref_se is None
            else:
                diff = ref_sym - sym
                assert ev.gmi_minus_ref == pytest.approx(diff.mean(), rel=1e-9, abs=0)
                assert ev.gmi_minus_ref_se == pytest.approx(diff.std() / np.sqrt(n), rel=1e-9, abs=0)

    def test_worker_count_does_not_change_results(self, c):
        p = from_snr_db(5.0)
        fns = {
            "exact": lambda r, k: exact_llr(r, k, c, p),
            "maxlog": lambda r, k: maxlog_llr(r, k, c, p),
        }
        a = evaluate_demappers(fns, c, p, 150_000, 7, ref_id="exact", n_workers=1, chunk_size=1 << 14)
        b = evaluate_demappers(fns, c, p, 150_000, 7, ref_id="exact", n_workers=4, chunk_size=1 << 14)
        for name in fns:
            assert a[name] == b[name]

    def test_chunks_get_contiguous_bit_columns(self, c, monkeypatch):
        # each chunk's bits reach the reduction sorted by r, one contiguous column per bit
        seen = []
        eval_chunk = metrics._eval_chunk

        def recording(llr_fns, bits, r, ref_id):
            seen.append((bits.copy(), r.copy(), all(bits[:, k].flags.c_contiguous for k in range(3))))
            return eval_chunk(llr_fns, bits, r, ref_id)

        monkeypatch.setattr(metrics, "_eval_chunk", recording)
        p = from_snr_db(4.0)
        evaluate_demappers({"exact": lambda r, k: exact_llr(r, k, c, p)}, c, p, 2_500, 5, chunk_size=1_000)
        assert len(seen) == 3
        for i, (bits, r, contiguous) in enumerate(seen):
            want_bits, want_r = draw(c, p, 5, 0, i, (1_000, 1_000, 500)[i])
            order = np.argsort(want_r)
            assert contiguous and bits.dtype == np.uint8 and bits.shape == want_bits.shape
            np.testing.assert_array_equal(bits, want_bits[order])
            np.testing.assert_array_equal(r, want_r[order])

    def test_stream_separation(self, c):
        p = from_snr_db(5.0)
        fns = {"exact": lambda r, k: exact_llr(r, k, c, p)}
        a = evaluate_demappers(fns, c, p, 20_000, 7, stream=0)
        b = evaluate_demappers(fns, c, p, 20_000, 7, stream=1)
        assert a["exact"].gmi != b["exact"].gmi


class TestChunkWorkingSet:
    def test_one_chunk_holds_at_most_7_5_chunk_length_arrays(self):
        # r, bits, the reference's per-symbol mean and one analog rule's working set: about 7.2
        # arrays; a rule's accumulator or a bit's LLR kept alive into the next LLR call adds one
        cfg = load_config(overrides={"n_workers": 1})
        bench = Workbench.from_config(cfg)
        bench.calibrate(7.0)
        n = DEFAULT_CHUNK_SIZE

        def run():
            evaluate_demappers(
                {m: bench.rule(m, 7.0) for m in cfg["modes"]}, bench.c, from_snr_db(7.0), n, 1,
                ref_id="exact", n_workers=1, chunk_size=n,
            )

        run()  # warm-up: caches and lazy imports are not the chunk's working set
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert cfg["modes"] == ["exact", "maxlog", "analog-bjt", "analog-mosfet"]
        assert peak <= 7.5 * 8 * n, f"{peak / (8 * n):.2f} chunk-length float64 arrays"
