"""Operator evaluations against direct-summation and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import expsampling as es
from expsampling import (
    ConfigurationError,
    DegenerateDenominatorError,
    EvaluationError,
    ExpSamples,
    LogGrid,
    SamplingConfig,
)
from expsampling.operators import (
    classical_exponential_formula,
    default_half_width,
    evaluate_on_grid,
    generalized_series,
    index_set,
    kantorovich_series,
    max_product_series,
    max_product_series_on_grid,
    take_samples,
)


def mg_bruteforce(kernel, f, x, w, a, b):
    """Displayed ratio of joins over J_w, via the x-domain kernel evaluation."""
    ks = range(math.ceil(w * math.log(a)), math.floor(w * math.log(b)) + 1)
    chi = [kernel.evaluate(math.exp(-k) * x**w) for k in ks]
    fv = [float(f.evaluate(math.exp(k / w))) for k in ks]
    return max(c * v for c, v in zip(chi, fv)) / max(chi)


class TestSamplingConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SamplingConfig(w=0.0)
        with pytest.raises(ConfigurationError):
            SamplingConfig(w=1.0, interval=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            SamplingConfig(w=1.0, interval=(-1.0, 1.0))
        with pytest.raises(ConfigurationError):
            SamplingConfig(w=1.0, window_half_width=0)
        with pytest.raises(ConfigurationError):
            SamplingConfig(w=1.0, quadrature_points=0)
        with pytest.raises(ConfigurationError, match="must be in 1..256, got 257"):
            SamplingConfig(w=1.0, quadrature_points=257)  # leggauss would build a 257 x 257 matrix
        assert SamplingConfig(w=1.0, quadrature_points=256).quadrature_points == 256

    def test_non_finite_rate_rejected(self):
        for w in (math.inf, math.nan):
            with pytest.raises(ConfigurationError):
                SamplingConfig(w=w)
            with pytest.raises(ConfigurationError):
                ExpSamples(w, {0: 1.0})

    def test_non_finite_interval_end_rejected(self):
        # formerly accepted; index_set then raised OverflowError from ceil/floor
        for interval in ((0.5, math.inf), (0.5, math.nan), (math.nan, 2.0)):
            with pytest.raises(ConfigurationError, match="0 < a < b < inf"):
                SamplingConfig(w=8.0, interval=interval)

    def test_empty_index_set_rejected(self):
        # ceil(w log a) > floor(w log b) between lattice points
        with pytest.raises(ConfigurationError):
            SamplingConfig(w=1.0, interval=(1.0001, 1.001))

    def test_index_set_examples(self):
        assert list(index_set(SamplingConfig(w=3.0, interval=(1.0, math.e)))) == [0, 1, 2, 3]
        assert list(index_set(SamplingConfig(w=1.0, interval=(1.0, math.e)))) == [0, 1]
        assert list(index_set(SamplingConfig(w=2.0, interval=(math.e, math.e**2)))) == [2, 3, 4]
        # endpoints e^{m/w} keep their lattice node m although w log e^{m/w} != m
        for w, m in ((5.0, -2), (10.0, 1)):
            cfg = SamplingConfig(w=w, interval=(math.exp(m / w), math.exp((m + w) / w)))
            assert index_set(cfg) == range(m, m + int(w) + 1)

    def test_index_set_requires_interval(self):
        with pytest.raises(ConfigurationError):
            index_set(SamplingConfig(w=2.0))


class TestExpSamples:
    def test_contiguity_enforced(self):
        with pytest.raises(ConfigurationError):
            ExpSamples(1.0, {0: 1.0, 2: 1.0})

    def test_finite_enforced(self):
        with pytest.raises(EvaluationError):
            ExpSamples(1.0, {0: 1.0, 1: math.inf})

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ExpSamples(1.0, {})


class TestTakeSamples:
    def test_constant(self):
        cfg = SamplingConfig(w=2.0, interval=(1.0, math.e))
        s = take_samples(es.get_function("one"), cfg)
        assert set(s.entries) == {0, 1, 2}
        assert all(v == 1.0 for v in s.entries.values())

    def test_log_sample_value(self):
        cfg = SamplingConfig(w=2.0, window_half_width=5)
        s = take_samples(es.get_function("log"), cfg, center_log=2.0)
        assert s.entries[4] == pytest.approx(2.0, rel=1e-15)

    def test_psi_sample_value(self):
        cfg = SamplingConfig(w=1.0, window_half_width=3)
        s = take_samples(es.get_function("psi"), cfg, center_log=1.0)
        assert s.entries[1] == pytest.approx(2.0, rel=1e-15)

    def test_window_mode_requires_half_width(self):
        with pytest.raises(ConfigurationError):
            take_samples(es.get_function("one"), SamplingConfig(w=1.0))

    def test_nonfinite_sample_reported(self):
        def inv_log(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.log(np.asarray(x, dtype=float))

        cfg = SamplingConfig(w=1.0, window_half_width=2)
        with pytest.raises(EvaluationError) as err:
            take_samples(es.WeightedFunction("inv_log", inv_log), cfg, center_log=0.0)
        assert err.value.where == 0


class TestMaxProduct:
    def test_constant_reproduction(self):
        b3 = es.get_kernel("bspline3")
        for c in (1.0, 2.5):
            for w in (1.0, 8.0):
                cfg = SamplingConfig(w=w, interval=(1.0, math.e))
                ks = list(index_set(cfg))
                s = ExpSamples(w, {k: c for k in ks})
                for x in (1.0, math.exp(0.3), math.e):
                    assert max_product_series(b3, s, x, cfg) == pytest.approx(c, rel=1e-14)

    def test_monotone_in_samples(self):
        b3 = es.get_kernel("bspline3")
        cfg = SamplingConfig(w=4.0, interval=(1.0, math.e))
        ks = list(index_set(cfg))
        rng = np.random.default_rng(7)
        for _ in range(50):
            f = rng.uniform(0.0, 1.0, len(ks))
            g = f + rng.uniform(0.0, 1.0, len(ks))
            sf = ExpSamples(4.0, dict(zip(ks, f.tolist())))
            sg = ExpSamples(4.0, dict(zip(ks, g.tolist())))
            for x in (1.1, 1.9, 2.5):
                assert max_product_series(b3, sf, x, cfg) <= max_product_series(b3, sg, x, cfg) + 1e-12

    def test_against_bruteforce_oracle(self):
        b3 = es.get_kernel("bspline3")
        logf = es.get_function("log")
        w = 4.0
        cfg = SamplingConfig(w=w, interval=(1.0, math.e))
        s = take_samples(logf, cfg)
        x = math.exp(0.5)
        got = max_product_series(b3, s, x, cfg)
        want = mg_bruteforce(b3, logf, x, w, 1.0, math.e)
        assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate_denominator(self):
        zero = es.Kernel("zero", lambda t: np.zeros_like(np.asarray(t, float)), 1.0, 0.0)
        cfg = SamplingConfig(w=2.0, interval=(1.0, math.e))
        s = ExpSamples(2.0, {k: 1.0 for k in index_set(cfg)})
        with pytest.raises(DegenerateDenominatorError) as err:
            max_product_series(zero, s, 1.5, cfg)
        assert err.value.w == 2.0
        assert err.value.index_set

    def test_missing_sample_detected(self):
        b3 = es.get_kernel("bspline3")
        cfg = SamplingConfig(w=4.0, interval=(1.0, math.e))
        s = ExpSamples(4.0, {0: 1.0, 1: 1.0})  # J_w needs 0..4
        with pytest.raises(EvaluationError, match="lattice index"):
            max_product_series(b3, s, math.exp(0.9), cfg)

    def test_window_joins_clamp_signed_functions_at_zero(self):
        # the bi-infinite join contains zero-kernel terms, so values never go
        # below 0 when every nearby sample is negative
        b3 = es.get_kernel("bspline3")
        w = 8.0
        cfg = SamplingConfig(w=w, window_half_width=default_half_width(b3, w))
        s = take_samples(es.get_function("log"), cfg, center_log=-2.0)
        assert max_product_series(b3, s, math.exp(-2.0), cfg) >= 0.0

    def test_grid_variant_matches_pointwise(self):
        b3 = es.get_kernel("bspline3")
        cfg = SamplingConfig(w=8.0, interval=(1.0, math.e))
        s = take_samples(es.get_function("damped_log2"), cfg)
        grid = LogGrid(0.0, 1.0, 17)
        vals = max_product_series_on_grid(b3, s, grid, cfg)
        for v, x in zip(vals, grid.values()):
            # pointwise entry goes through an exp/log round trip of x
            assert v == pytest.approx(max_product_series(b3, s, float(x), cfg), rel=1e-12)


class TestGeneralizedSeries:
    def test_partition_reproduces_constants(self):
        one = es.get_function("one")
        for n in (2, 3, 4, 5):
            k = es.get_kernel(f"bspline{n}")
            w = 8.0
            cfg = SamplingConfig(w=w, window_half_width=default_half_width(k, w))
            for v in (0.0, 0.37, -1.2):
                s = take_samples(one, cfg, center_log=v)
                assert generalized_series(k, s, math.exp(v), cfg) == pytest.approx(1.0, abs=1e-12)

    def test_zero_function(self):
        b2 = es.get_kernel("bspline2")
        cfg = SamplingConfig(w=4.0, window_half_width=8)
        s = ExpSamples(4.0, {k: 0.0 for k in range(-16, 17)})
        assert generalized_series(b2, s, math.exp(0.2), cfg) == 0.0

    def test_sinc_lattice_reproduction(self):
        # at lattice points only the matching index contributes
        l0 = es.get_kernel("linc0")
        one = es.get_function("one")
        w = 2.0
        cfg = SamplingConfig(w=w, window_half_width=64)
        for m in (-2, 0, 3):
            s = take_samples(one, cfg, center_log=m / w)
            got = generalized_series(l0, s, math.exp(m / w), cfg)
            assert got == pytest.approx(1.0, abs=1e-12)

    def test_hat_linear_reproduction(self):
        # the hat kernel sum reproduces sequences affine in k
        b2 = es.get_kernel("bspline2")
        logf = es.get_function("log")
        w = 8.0
        cfg = SamplingConfig(w=w, window_half_width=default_half_width(b2, w))
        for v in (0.17, -0.42, 1.03):
            s = take_samples(logf, cfg, center_log=v)
            assert generalized_series(b2, s, math.exp(v), cfg) == pytest.approx(v, abs=1e-12)

    def test_truncation_consistency_all_operators(self):
        # compact support: doubling the window changes no operator, bit for bit
        b3 = es.get_kernel("bspline3")
        f = es.get_function("damped_sin_log")
        w = 4.0
        x = math.exp(0.3)
        narrow = SamplingConfig(w=w, window_half_width=8)
        wide = SamplingConfig(w=w, window_half_width=16)
        s = take_samples(f, wide, center_log=0.3)
        assert generalized_series(b3, s, x, narrow) == generalized_series(b3, s, x, wide)
        assert kantorovich_series(b3, f, x, narrow) == kantorovich_series(b3, f, x, wide)
        assert max_product_series(b3, s, x, narrow) == max_product_series(b3, s, x, wide)


class TestKantorovich:
    def test_constant_cells(self):
        # cell means of a constant are the constant; partition of unity does the rest
        one = es.get_function("one")
        for name in ("bspline2", "bspline3", "bspline4"):
            k = es.get_kernel(name)
            cfg = SamplingConfig(w=8.0)
            assert kantorovich_series(k, one, math.exp(0.4), cfg) == pytest.approx(1.0, abs=1e-12)

    def test_log_cell_mean(self):
        # mean of u over [k/w,(k+1)/w] is (k + 1/2)/w
        from expsampling.operators import _cell_means

        w = 8.0
        ks = np.arange(-3, 4)
        means = _cell_means(es.get_function("log"), ks, w, 8)
        np.testing.assert_allclose(means, (ks + 0.5) / w, atol=1e-14)

    def test_hat_identity_log(self):
        # hat kernel + log integrand telescopes to log x + 1/(2w)
        b2 = es.get_kernel("bspline2")
        logf = es.get_function("log")
        for w in (2.0, 8.0, 32.0):
            cfg = SamplingConfig(w=w)
            for v in (0.3, -1.1, 2.7):
                got = kantorovich_series(b2, logf, math.exp(v), cfg)
                assert got == pytest.approx(v + 1.0 / (2.0 * w), abs=1e-12)

    def test_matches_scipy_quadrature_oracle(self):
        b3 = es.get_kernel("bspline3")
        f = es.get_function("damped_sin_log")
        w = 4.0
        x = math.exp(0.6)
        cfg = SamplingConfig(w=w, quadrature_points=12)
        got = kantorovich_series(b3, f, x, cfg)
        want = 0.0
        for k in range(-20, 21):
            chi = float(b3.log_profile(np.array([w * 0.6 - k]))[0])
            if chi == 0.0:
                continue
            cell, _ = quad(lambda u: float(f.evaluate_log(np.array([u]))[0]), k / w, (k + 1) / w)
            want += chi * w * cell
        assert got == pytest.approx(want, abs=1e-10)

    def test_kantorovich_equals_series_on_constants(self):
        one = es.get_function("one")
        for name in ("bspline2", "bspline3", "gauss1", "linc0"):
            k = es.get_kernel(name)
            w = 4.0
            cfg = SamplingConfig(w=w, window_half_width=32)
            s = take_samples(one, cfg, center_log=0.45)
            x = math.exp(0.45)
            assert kantorovich_series(k, one, x, cfg) == pytest.approx(
                generalized_series(k, s, x, cfg), rel=1e-14
            )


class TestClassicalFormula:
    def test_lattice_interpolation_exact(self):
        for fname in ("damped_log2", "log", "weight"):
            f = es.get_function(fname)
            for T in (1.0, 2.0):
                for m in range(-3, 4):
                    x = math.exp(m / T)
                    assert classical_exponential_formula(f, 0.0, T, x, 50) == float(f.evaluate(x))

    def test_damped_lattice_interpolation(self):
        f = es.get_function("weight")
        x = math.exp(2.0 / 2.0)
        assert classical_exponential_formula(f, 1.0, 2.0, x, 40) == float(f.evaluate(x))

    def test_zero_function(self):
        zero = es.WeightedFunction("zero", lambda x: np.zeros_like(np.asarray(x, float)))
        assert classical_exponential_formula(zero, 0.0, 1.0, 1.7, 100) == 0.0

    def test_slow_tail_reported(self):
        one = es.get_function("one")
        x = math.exp(0.5)
        val = classical_exponential_formula(one, 0.0, 1.0, x, 10_000)
        assert val == pytest.approx(1.0, abs=1e-3)
        # conditional convergence: the doubling residual is visible but small
        wide = classical_exponential_formula(one, 0.0, 1.0, x, 20_000)
        assert 0.0 < abs(wide - val) < 1e-3

    def test_validation(self):
        one = es.get_function("one")
        with pytest.raises(ValueError):
            classical_exponential_formula(one, 0.0, -1.0, 1.0, 10)
        with pytest.raises(ValueError):
            classical_exponential_formula(one, 0.0, 1.0, 1.0, 0)


class TestEvaluateOnGrid:
    def test_constant_gives_constant_vector(self):
        b3 = es.get_kernel("bspline3")
        rows = evaluate_on_grid("MG", es.get_function("one"), b3, SamplingConfig(w=8.0), LogGrid(-1, 1, 33))
        assert len(rows) == 33
        assert all(r.value == pytest.approx(1.0, rel=1e-14) for r in rows)
        assert all(r.error_vs_f <= 1e-14 for r in rows)

    def test_singleton_sequence_matches_pointwise(self):
        b3 = es.get_kernel("bspline3")
        f = es.get_function("damped_log2")
        cfg = SamplingConfig(w=8.0)
        x = math.exp(0.37)
        rows = evaluate_on_grid("MG", f, b3, cfg, [x])
        s = take_samples(f, SamplingConfig(w=8.0, window_half_width=default_half_width(b3, 8.0)), center_log=0.37)
        assert len(rows) == 1
        assert rows[0].value == pytest.approx(max_product_series(b3, s, x, cfg), rel=1e-14)

    def test_output_length_matches_grid(self):
        b2 = es.get_kernel("bspline2")
        for op in ("S", "I", "MG", "E"):
            rows = evaluate_on_grid(op, es.get_function("weight"), b2, SamplingConfig(w=4.0), LogGrid(-1, 1, 21))
            assert len(rows) == 21

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            evaluate_on_grid("Q", es.get_function("one"), es.get_kernel("bspline2"), SamplingConfig(w=1.0), LogGrid(-1, 1, 5))

    def test_degenerate_points_recorded_not_fatal(self):
        zero = es.Kernel("zero", lambda t: np.zeros_like(np.asarray(t, float)), 1.0, 0.0)
        rows = evaluate_on_grid("MG", es.get_function("one"), zero, SamplingConfig(w=2.0), LogGrid(-1, 1, 9))
        assert all(math.isnan(r.value) for r in rows)
        assert all("degenerate" in r.note for r in rows)

    def test_interval_mode_rows(self):
        b3 = es.get_kernel("bspline3")
        cfg = SamplingConfig(w=8.0, interval=(0.5, 2.0))
        rows = evaluate_on_grid("MG", es.get_function("weight"), b3, cfg, LogGrid(-0.6, 0.6, 41))
        assert all(math.isfinite(r.value) for r in rows)

    def test_zero_max_product_values_read_positive_zero(self):
        # the sign of a zero join must not follow the reduction order
        cfg = SamplingConfig(w=13, window_half_width=3)
        rows = evaluate_on_grid("MG", es.get_function("log"), es.get_kernel("linc0"), cfg, LogGrid(-1, 1.5, 301))
        zeros = [r.value for r in rows if r.value == 0.0]
        assert zeros
        assert not any(math.copysign(1.0, v) < 0.0 for v in zeros)
