import numpy as np
import pytest

from demapsim import metrics
from demapsim.channel import draw, from_snr_db
from demapsim.constellation import build_pam8
from demapsim.metrics import (
    BerEstimate,
    GmiEstimate,
    energy_per_bit,
    evaluate_demappers,
    _softplus_,
    mi_summands,
    rate_penalty,
)
from demapsim.reference import exact_llr, maxlog_llr

from oracles import quadrature_mi_exact


@pytest.fixture(scope="module")
def c():
    return build_pam8()


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
        assert abs(ev.gmi_est.per_bit_mi[0] - oracle) < 3 * ev.gmi_est.per_bit_se[0]


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
            assert ev.gmi_est.gmi == pytest.approx(sum(ev.gmi_est.per_bit_mi) / 3.0, abs=1e-15)

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
            assert ev["const"].ber_est.errors == errors

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


class TestEstimateTypes:
    def test_gmi_must_be_mean(self):
        with pytest.raises(ValueError):
            GmiEstimate(per_bit_mi=(0.5, 0.5, 0.5), gmi=0.9, std_error=0.01, n_samples=10)

    @pytest.mark.parametrize("n", [0, -1])
    def test_sample_count_must_be_positive(self, n):
        with pytest.raises(ValueError, match="n_samples must be positive"):
            GmiEstimate(per_bit_mi=(0.5, 0.5, 0.5), gmi=0.5, std_error=0.01, n_samples=n)

    def test_ber_counts_validated(self):
        with pytest.raises(ValueError):
            BerEstimate(errors=5, bits=3)
        est = BerEstimate(errors=3, bits=12)
        assert est.ber == 0.25

    def test_matched_estimates_within_unit_range(self, c):
        # for exact LLRs the estimator stays in [0, 1 + 3 se] per bit
        for snr in (0.0, 10.0):
            p = from_snr_db(snr)
            ev = evaluate_demappers(
                {"exact": lambda r, k: exact_llr(r, k, c, p)}, c, p, 100_000, 17
            )["exact"]
            for k in range(3):
                assert 0.0 <= ev.gmi_est.per_bit_mi[k] <= 1.0 + 3 * ev.gmi_est.std_error


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
        assert ml.gmi_minus_ref == pytest.approx(ml.gmi_est.gmi - evals["exact"].gmi_est.gmi, rel=0, abs=1e-12)
        assert ml.gmi_minus_ref < -5 * ml.gmi_minus_ref_se < 0  # max-log loses rate

    def test_missing_reference_rejected(self, c):
        # unchecked, every paired difference would silently stay 0.0 +- 0.0
        p = from_snr_db(5.0)
        fns = {"maxlog": lambda r, k: maxlog_llr(r, k, c, p), "const": lambda r, k: np.zeros(r.size)}
        with pytest.raises(ValueError, match=r"'exact' is not among the demapper ids \['maxlog', 'const'\]"):
            evaluate_demappers(fns, c, p, 1000, 9, ref_id="exact")

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
            np.testing.assert_allclose(ev.gmi_est.per_bit_mi, 1.0 - s.mean(axis=1), rtol=1e-9, atol=0)
            np.testing.assert_allclose(ev.gmi_est.per_bit_se, s.std(axis=1) / np.sqrt(n), rtol=1e-9, atol=0)
            assert ev.gmi_est.gmi == pytest.approx(1.0 - sym.mean(), rel=1e-9, abs=0)
            assert ev.gmi_est.std_error == pytest.approx(sym.std() / np.sqrt(n), rel=1e-9, abs=0)
            assert ev.ber_est.errors == sum(np.count_nonzero((fn(r, k) >= 0.0) != bits[:, k - 1]) for k in (1, 2, 3))
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
            assert a[name].gmi_est == b[name].gmi_est
            assert a[name].ber_est == b[name].ber_est

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
        assert a["exact"].gmi_est.gmi != b["exact"].gmi_est.gmi
