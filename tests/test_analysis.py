"""Verifier harnesses: bound checks, convergence tables and order fits."""

import dataclasses
import json
import math

import numpy as np
import pytest

import expsampling as es
from expsampling import (
    ConfigurationError,
    DegenerateDenominatorError,
    ErrorRow,
    ErrorTable,
    HypothesisNotMetError,
    InsufficientDataError,
    ExpSamples,
    LogGrid,
    SamplingConfig,
)
from expsampling import analysis
from expsampling.analysis import (
    BoundCheck,
    _tail_decay_checks,
    _unmet,
    checks_to_markdown,
    convergence_experiment,
    denominator_bound_check,
    lemma_suite,
    max_product_lattice_checks,
    moment_dominance_check,
    rate_fit,
    run_suite,
    tail_decay_check,
    verify_operator_norm,
    verify_quantitative_rate,
    verify_weighted_image_bound,
    voronovskaja_check,
)
from expsampling.errors import DivergentMomentError
from expsampling.kernels import Kernel, _frac_grid, discrete_absolute_moment_estimate
from expsampling.operators import (
    _as_log_values,
    _band,
    _join,
    _require_denominator,
    index_set,
    max_product_series_on_grid,
)

GRID = LogGrid(-2.0, 2.0, 129)


class TestRateFit:
    def _table(self, pairs):
        t = ErrorTable("f", "k")
        t.rows = [ErrorRow(w, e, e, "g") for w, e in pairs]
        return t

    def test_exact_first_order(self):
        t = self._table([(w, 3.0 / w) for w in (2, 4, 8, 16)])
        assert rate_fit(t) == pytest.approx(1.0, abs=1e-12)

    def test_exact_second_order(self):
        t = self._table([(w, 5.0 / w**2) for w in (2, 4, 8, 16)])
        assert rate_fit(t) == pytest.approx(2.0, abs=1e-12)

    def test_constant_errors(self):
        t = self._table([(w, 0.25) for w in (2, 4, 8)])
        assert rate_fit(t) == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_rows(self):
        with pytest.raises(InsufficientDataError):
            rate_fit(self._table([(2, 1.0), (4, 0.5)]))
        # zero rows are unusable
        with pytest.raises(InsufficientDataError):
            rate_fit(self._table([(2, 0.0), (4, 0.0), (8, 0.0)]))


class TestImageBound:
    def test_holds_for_good_kernels(self):
        for name in ("bspline3", "gauss1"):
            for w in (4.0, 16.0, 64.0):
                c = verify_weighted_image_bound(es.get_kernel(name), SamplingConfig(w=w), GRID)
                assert c.holds and c.hypothesis_met

    def test_rhs_shrinks_with_rate(self):
        # the 1/w terms vanish, leaving (1+log^2 x) m0 / eta
        k = es.get_kernel("bspline3")
        c8 = verify_weighted_image_bound(k, SamplingConfig(w=8.0), GRID)
        c80 = verify_weighted_image_bound(k, SamplingConfig(w=80.0), GRID)
        d8, d80 = c8.details, c80.details
        rhs8 = d8["m0"] + 2 * d8["m1"] / 8.0 + d8["m2"] / 64.0
        rhs80 = d80["m0"] + 2 * d80["m1"] / 80.0 + d80["m2"] / 6400.0
        assert rhs80 < rhs8
        assert rhs80 == pytest.approx(d80["m0"], rel=1e-2)

    def test_holds_on_unit_interval_grid(self):
        c = verify_weighted_image_bound(
            es.get_kernel("bspline3"), SamplingConfig(w=8.0), LogGrid(0.0, 1.0, 65)
        )
        assert c.holds

    def test_hypothesis_rejected(self):
        with pytest.raises(HypothesisNotMetError):
            verify_weighted_image_bound(es.get_kernel("bspline2"), SamplingConfig(w=8.0), GRID)
        with pytest.raises(HypothesisNotMetError):
            verify_weighted_image_bound(es.get_kernel("linc0"), SamplingConfig(w=8.0), GRID)


class TestOperatorNorm:
    def test_holds_with_default_set(self):
        for name in ("bspline3", "gauss1"):
            c = verify_operator_norm(es.get_kernel(name), SamplingConfig(w=8.0), GRID)
            assert c.holds
            assert c.details["single_eta_bound_holds"]

    def test_constants_ratio_one(self):
        c = verify_operator_norm(
            es.get_kernel("bspline3"),
            SamplingConfig(w=8.0),
            GRID,
            function_set=[es.get_function("one")],
        )
        assert c.lhs == pytest.approx(1.0, rel=1e-12)
        assert c.holds

    def test_weight_function_bounded(self):
        c = verify_operator_norm(
            es.get_kernel("gauss1"),
            SamplingConfig(w=8.0),
            GRID,
            function_set=[es.get_function("weight")],
        )
        assert c.holds


class TestConvergence:
    def test_weighted_errors_decrease(self):
        f = es.get_function("weight")
        t = convergence_experiment(f, es.get_kernel("bspline3"), (4, 8, 16, 32), GRID)
        errs = [r.weighted_sup_error for r in t.rows]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
        assert t.fitted_order is not None and t.fitted_order > 0.5

    def test_constant_errors_zero(self):
        t = convergence_experiment(es.get_function("one"), es.get_kernel("bspline3"), (4, 8, 16), GRID)
        assert all(r.weighted_sup_error <= 1e-14 for r in t.rows)
        assert t.fitted_order is None  # no positive rows to fit

    def test_jump_converges_pointwise_not_uniformly(self):
        f = es.get_function("jump_log")
        k = es.get_kernel("bspline3")
        # at the continuity point x=1 the error vanishes with w
        cont = [
            es.evaluate_on_grid("MG", f, k, SamplingConfig(w=w), [1.0])[0].error_vs_f
            for w in (8.0, 64.0)
        ]
        assert cont[1] <= cont[0] and cont[1] < 1e-8
        # near the jump at log x = 1/2 the sup error stays put
        near = LogGrid(0.45, 0.55, 41)
        sups = []
        for w in (8.0, 64.0):
            rows = es.evaluate_on_grid("MG", f, k, SamplingConfig(w=w), near)
            sups.append(max(r.error_vs_f for r in rows))
        assert sups[-1] > 0.3

    def test_requires_nonnegative(self):
        with pytest.raises(HypothesisNotMetError):
            convergence_experiment(es.get_function("log"), es.get_kernel("bspline3"), (4, 8, 16), GRID)

    def test_rows_sorted_by_rate(self):
        t = convergence_experiment(es.get_function("weight"), es.get_kernel("bspline3"), (16, 4, 8), GRID)
        assert [r.w for r in t.rows] == [4.0, 8.0, 16.0]


class TestQuantitativeRate:
    def test_consistent_for_lipschitz_functions(self):
        grid = LogGrid(-2.0, 2.0, 251)
        for name in ("weight", "damped_log_clip"):
            checks = verify_quantitative_rate(es.get_function(name), es.get_kernel("bspline3"), (8, 16), grid)
            assert all(c.holds for c in checks)
            assert all(c.details["verdict"] == "consistent" for c in checks)
            assert all(c.details["weighted_form_holds"] for c in checks)

    def test_omega_monotone_across_doubling(self):
        checks = verify_quantitative_rate(
            es.get_function("weight"), es.get_kernel("bspline3"), (8, 16), LogGrid(-2, 2, 65)
        )
        assert checks[1].details["omega"] <= checks[0].details["omega"] + 1e-12

    def test_constant_boundary_case(self):
        # modulus of a constant vanishes: both sides collapse to 0 exactly
        checks = verify_quantitative_rate(
            es.get_function("one"), es.get_kernel("bspline3"), (8.0,), LogGrid(-2, 2, 65)
        )
        assert checks[0].lhs == 0.0 and checks[0].rhs == 0.0 and checks[0].holds

    def test_rejects_small_rates(self):
        with pytest.raises(ValueError):
            verify_quantitative_rate(es.get_function("weight"), es.get_kernel("bspline3"), (0.5,), GRID)

    def test_hypothesis_gate(self):
        with pytest.raises(HypothesisNotMetError):
            verify_quantitative_rate(es.get_function("weight"), es.get_kernel("bspline2"), (8,), GRID)
        with pytest.raises(HypothesisNotMetError):
            verify_quantitative_rate(es.get_function("log"), es.get_kernel("bspline3"), (8,), GRID)


class TestVoronovskaja:
    def test_constant_left_side_vanishes(self):
        checks = voronovskaja_check(
            es.get_function("one"), es.get_kernel("bspline3"), 1, (8.0,), GRID,
            require_constant_moments=False,
        )
        assert checks[0].details["left_max"] <= 1e-12
        assert checks[0].holds

    def test_smooth_function_consistent(self):
        checks = voronovskaja_check(
            es.get_function("damped_log2"), es.get_kernel("bspline3"), 1, (8.0, 32.0), GRID,
            require_constant_moments=False,
        )
        assert all(c.holds for c in checks)
        assert checks[1].details["left_max"] <= checks[0].details["left_max"]
        # both companion variants reported
        assert "left_max_const" in checks[0].details
        assert "left_max_absolute" in checks[0].details
        assert checks[0].details["moment_variation"]

    def test_default_requires_constant_moments(self):
        with pytest.raises(HypothesisNotMetError, match="vary across the lattice"):
            voronovskaja_check(es.get_function("damped_log2"), es.get_kernel("bspline3"), 1, (8.0,), GRID)

    def test_left_side_decreases_under_rate_quadrupling(self):
        # qualitative probe: the scaled residual shrinks from w to 4w, both as
        # a grid maximum and at the phase-stable point x = 1
        checks = voronovskaja_check(
            es.get_function("damped_log2"), es.get_kernel("bspline3"), 1, (16.0, 64.0), GRID,
            require_constant_moments=False,
        )
        assert checks[1].details["left_max"] <= checks[0].details["left_max"]
        at_one = voronovskaja_check(
            es.get_function("damped_log2"), es.get_kernel("bspline3"), 1, (16.0, 64.0),
            LogGrid(-1e-9, 1e-9, 2), require_constant_moments=False,
        )
        assert at_one[1].details["left_max"] <= at_one[0].details["left_max"]

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            voronovskaja_check(es.get_function("damped_log2"), es.get_kernel("bspline3"), 0, (8.0,), GRID)

    @pytest.mark.parametrize("grid", [LogGrid(700.0, 800.0, 5), LogGrid(-800.0, -700.0, 5)])
    def test_refuses_a_grid_beyond_the_floats_before_any_scan(self, grid, monkeypatch):
        # e^(log x) overflows, or underflows to 0, there: the Mellin derivatives read NaN
        def no_scan(*args):
            raise AssertionError("the kernel was scanned before the grid was checked")

        monkeypatch.setattr(analysis, "check_kernel_conditions", no_scan)
        with pytest.raises(ConfigurationError, match=f"x-grid {grid.spec()} reaches beyond the floats"):
            voronovskaja_check(es.get_function("weight"), es.get_kernel("bspline3"), 1, (8.0,), grid,
                               require_constant_moments=False)


def oracle_tail_decay_check(
    kernel: Kernel,
    nu: float,
    delta: float,
    w: float,
) -> BoundCheck:
    """The lattice join beyond offset delta*w must fall below m_nu/(delta w)^nu.

    Scans u over one log-period and joins |chi(e^{-k} u)| over the indices
    with |k - log u| > delta w.
    """
    try:
        est = discrete_absolute_moment_estimate(kernel, nu)
    except DivergentMomentError as exc:
        return _unmet(
            "tail_decay", math.inf, math.inf, kernel=kernel.name, nu=nu,
            reason=f"m_{nu:g} divergent at u={exc.witness_u:.6g}",
        )
    m_nu = est.value
    cut = delta * w
    if kernel.log_support_radius is not None:
        reach = int(math.ceil(max(cut, kernel.log_support_radius))) + 2
    else:
        reach = int(math.ceil(cut)) + max(32, est.half_width)
    vs = _frac_grid()
    ks = np.arange(-reach, reach + 2)
    t = vs[None, :] - ks[:, None]
    outside = np.abs(t) > cut
    vals = np.where(outside, np.abs(kernel.log_profile(t)), -np.inf)
    per_u = vals.max(axis=0)
    i = int(np.argmax(per_u))
    lhs = float(per_u[i])
    rhs = m_nu / cut**nu
    return BoundCheck(
        bound_name="tail_decay",
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs + 1e-12 * max(1.0, rhs)),
        slack=rhs - lhs,
        witness=float(math.exp(vs[i])),
        details={"kernel": kernel.name, "nu": nu, "delta": delta, "w": w, "m_nu": m_nu},
    )


# Every registered kernel, three fresh Gaussians, and a kernel with a bump at
# log-offset 50 that its moment scans settle before reaching: only the checks
# whose reach covers 50 may see it.  Each rate's pairs reach cuts below and
# beyond the support and zero radii; nu = 5 diverges for linc.
FAR_BUMP = Kernel(
    "far_bump", lambda t: np.exp(-np.square(t)) + np.exp(-4.0 * np.square(t - 50.0)), None
)
TAIL_KERNELS = [
    *(es.get_kernel(n) for n in sorted(es.KERNELS)),
    *(es.mellin_gaussian(a) for a in (0.75, 1.1, 1.5)),
    FAR_BUMP,
]
TAIL_CASES = {
    1.0: [(1.0, 0.25), (2.0, 0.5), (5.0, 4.0)],
    8.0: [(1.0, 4.0), (2.0, 0.25), (5.0, 0.5)],
    128.0: [(2.0, 0.5), (5.0, 0.25)],
}


class TestLemmaSuite:
    def test_bspline3_all_hold(self):
        checks = lemma_suite(es.get_kernel("bspline3"))
        assert all(c.holds and c.hypothesis_met for c in checks)

    def test_bspline2_denominator_hypothesis_fails(self):
        checks = {c.bound_name: c for c in lemma_suite(es.get_kernel("bspline2"))}
        c = checks["denominator_lower_bound"]
        assert not c.hypothesis_met
        assert "not positive" in c.details["reason"]

    def test_linc0_dominance_hypothesis_fails(self):
        c = moment_dominance_check(es.get_kernel("linc0"))
        assert not c.hypothesis_met
        assert "divergent" in c.details["reason"]

    def test_tail_decay_sweep(self):
        for name in ("bspline3", "gauss1"):
            k = es.get_kernel(name)
            for nu in (1.0, 2.0):
                for delta in (0.25, 0.5):
                    for w in (4.0, 32.0, 128.0):
                        c = tail_decay_check(k, nu, delta, w)
                        assert c.holds and c.hypothesis_met, (name, nu, delta, w)

    @pytest.mark.parametrize("kernel", TAIL_KERNELS, ids=lambda k: k.name)
    def test_lemma_suite_matches_per_call_oracle(self, kernel):
        tails = [oracle_tail_decay_check(kernel, nu, d, 8.0) for nu in (1.0, 2.0) for d in (0.25, 0.5)]
        oracle = [moment_dominance_check(kernel), *tails, denominator_bound_check(kernel)]
        assert [c.to_dict() for c in lemma_suite(kernel)] == [c.to_dict() for c in oracle]

    @pytest.mark.parametrize("kernel", TAIL_KERNELS, ids=lambda k: k.name)
    def test_shared_block_matches_per_call_oracle(self, kernel):
        for w, pairs in TAIL_CASES.items():
            want = [oracle_tail_decay_check(kernel, nu, delta, w).to_dict() for nu, delta in pairs]
            assert [c.to_dict() for c in _tail_decay_checks(kernel, pairs, w)] == want, w
        nu, delta = TAIL_CASES[1.0][0]
        want = oracle_tail_decay_check(kernel, nu, delta, 1.0).to_dict()
        assert tail_decay_check(kernel, nu, delta, 1.0).to_dict() == want

    def test_lemma_tail_checks_share_one_capped_block(self, monkeypatch):
        gauss1, points = es.mellin_gaussian(1.0), []

        def counting(t):
            points.append(np.size(t))
            return gauss1.log_profile(t)

        kernel = dataclasses.replace(gauss1, log_profile=counting)
        for nu in (1.0, 2.0):
            discrete_absolute_moment_estimate(kernel, nu)
        monkeypatch.setattr(analysis, "moment_dominance_check", lambda *a: None)
        monkeypatch.setattr(analysis, "denominator_bound_check", lambda *a: None)
        points.clear()
        lemma_suite(kernel)
        # reach ceil(max(cut, zero radius 27.3)) + 2 = 30: rows -30 ... 31
        assert sum(points) == 62 * 4096

    def test_denominator_bound_both_modes(self):
        for name in ("bspline3", "gauss1", "bspline4"):
            c = denominator_bound_check(es.get_kernel(name))
            assert c.holds and c.hypothesis_met


def _outcome(call):
    """The checks' dicts, or the type and text of the error the call raised."""
    try:
        return [c.to_dict() for c in call()]
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


LATTICE_KERNELS = [*(es.get_kernel(n) for n in sorted(es.KERNELS)), es.mellin_gaussian(1.1)]


def oracle_lattice_checks(kernel, config, grid, n_vectors=200, seed=0):
    """`max_product_lattice_checks` as it ran before it joined the vectors in
    blocks: one vector at a time, the body kept verbatim."""
    if config.interval is None:
        raise HypothesisNotMetError("lattice checks run in interval mode")
    vs = _as_log_values(grid)
    first, chi, mask, active = _band(kernel, config, vs)
    den = _join(chi, mask)
    _require_denominator(kernel, config, vs, den)
    # column -> position in J_w; inactive columns read any sample and are masked
    cols = np.clip(first[:, None] + np.arange(chi.shape[1]) - active.start, 0, len(active) - 1)
    rng = np.random.default_rng(seed)
    worst = {"monotone": -math.inf, "subadd": -math.inf, "absdiff": -math.inf, "homog": -math.inf}

    def mg(vec):
        return _join(chi * vec[cols], mask) / den

    for _ in range(n_vectors):
        fvec = rng.uniform(0.0, 1.0, len(active))
        gvec = rng.uniform(0.0, 1.0, len(active))
        lam = float(rng.uniform(0.1, 10.0))
        mg_f = mg(fvec)
        mg_g = mg(gvec)
        mg_fg = mg(fvec + gvec)
        mg_upper = mg(np.maximum(fvec, gvec))
        mg_abs = mg(np.abs(fvec - gvec))
        mg_lam = mg(lam * fvec)
        worst["monotone"] = max(worst["monotone"], float(np.max(mg_f - mg_upper)))
        worst["subadd"] = max(worst["subadd"], float(np.max(mg_fg - mg_f - mg_g)))
        worst["absdiff"] = max(worst["absdiff"], float(np.max(np.abs(mg_f - mg_g) - mg_abs)))
        rel = np.abs(mg_lam - lam * mg_f) / np.maximum(1.0, lam * np.abs(mg_f))
        worst["homog"] = max(worst["homog"], float(np.max(rel)))

    names = {
        "monotone": "max_product_monotonicity",
        "subadd": "max_product_subadditivity",
        "absdiff": "max_product_absolute_difference",
        "homog": "max_product_homogeneity",
    }
    return [
        BoundCheck(
            bound_name=names[key],
            lhs=worst[key],
            rhs=0.0,
            holds=bool(worst[key] <= 1e-12),
            slack=-worst[key],
            details={"kernel": kernel.name, "n_vectors": n_vectors, "seed": seed, "w": config.w},
        )
        for key in names
    ]


class TestLatticeChecks:
    def test_all_properties_hold(self):
        cfg = SamplingConfig(w=8.0, interval=(1.0, math.e))
        checks = max_product_lattice_checks(
            es.get_kernel("bspline3"), cfg, LogGrid(0.0, 1.0, 65), n_vectors=100, seed=42
        )
        assert len(checks) == 4
        assert all(c.holds for c in checks)
        assert all(c.lhs <= 1e-12 for c in checks)

    def test_laws_hold_for_every_positive_kernel_and_rate(self):
        for name in ("bspline3", "bspline4", "bspline5", "gauss1", "gauss05"):
            kernel = es.get_kernel(name)
            assert es.eta_lower_bound(kernel) > 0.0
            for w in (1.0, 3.0, 8.0, 32.0):
                cfg = SamplingConfig(w=w, interval=(1.0, math.e))
                checks = max_product_lattice_checks(kernel, cfg, LogGrid(0.0, 1.0, 65), 20, seed=7)
                assert len(checks) == 4
                for c in checks:
                    assert c.holds and c.lhs <= 1e-12, (name, w, c.bound_name, c.lhs)

    def test_deterministic_given_seed(self):
        cfg = SamplingConfig(w=8.0, interval=(1.0, math.e))
        a = max_product_lattice_checks(es.get_kernel("bspline3"), cfg, LogGrid(0.0, 1.0, 17), 10, seed=3)
        b = max_product_lattice_checks(es.get_kernel("bspline3"), cfg, LogGrid(0.0, 1.0, 17), 10, seed=3)
        assert [c.lhs for c in a] == [c.lhs for c in b]

    def test_interval_mode_required(self):
        with pytest.raises(HypothesisNotMetError):
            max_product_lattice_checks(es.get_kernel("bspline3"), SamplingConfig(w=8.0), GRID)

    @staticmethod
    def per_vector_lhs(kernel, config, grid, n_vectors, seed):
        """The worst violations, with one max-product grid call per sample vector."""
        ks = list(index_set(config))
        rng = np.random.default_rng(seed)
        worst = {"monotone": -math.inf, "subadd": -math.inf, "absdiff": -math.inf, "homog": -math.inf}

        def mg(vec):
            return max_product_series_on_grid(kernel, ExpSamples(config.w, dict(zip(ks, vec.tolist()))), grid, config)

        for _ in range(n_vectors):
            fvec = rng.uniform(0.0, 1.0, len(ks))
            gvec = rng.uniform(0.0, 1.0, len(ks))
            lam = float(rng.uniform(0.1, 10.0))
            mg_f, mg_g, mg_lam = mg(fvec), mg(gvec), mg(lam * fvec)
            worst["monotone"] = max(worst["monotone"], float(np.max(mg_f - mg(np.maximum(fvec, gvec)))))
            worst["subadd"] = max(worst["subadd"], float(np.max(mg(fvec + gvec) - mg_f - mg_g)))
            worst["absdiff"] = max(worst["absdiff"], float(np.max(np.abs(mg_f - mg_g) - mg(np.abs(fvec - gvec)))))
            rel = np.abs(mg_lam - lam * mg_f) / np.maximum(1.0, lam * np.abs(mg_f))
            worst["homog"] = max(worst["homog"], float(np.max(rel)))
        return list(worst.values())

    def test_one_band_matches_per_vector_evaluation(self):
        # grids reaching past the interval put compact bands at the ends of J_w
        cases = [
            ("bspline3", SamplingConfig(w=8.0, interval=(1.0, math.e)), LogGrid(0.0, 1.0, 65)),
            ("gauss1", SamplingConfig(w=8.0, interval=(1.0, math.e)), LogGrid(0.0, 1.0, 65)),
            ("bspline4", SamplingConfig(w=3.0, interval=(0.5, 2.0)), LogGrid(-1.0, 1.0, 33)),
            ("gauss05", SamplingConfig(w=5.0, interval=(0.5, 2.0)), LogGrid(-1.5, 1.5, 33)),
        ]
        for name, cfg, grid in cases:
            kernel = es.get_kernel(name)
            got = [c.lhs for c in max_product_lattice_checks(kernel, cfg, grid, 12, seed=5)]
            assert got == self.per_vector_lhs(kernel, cfg, grid, 12, 5), name

    def test_degenerate_denominator_raised_once(self):
        cfg = SamplingConfig(w=8.0, interval=(1.0, math.e))
        with pytest.raises(DegenerateDenominatorError) as err:
            max_product_lattice_checks(es.get_kernel("bspline3"), cfg, LogGrid(0.0, 3.0, 7), 5)
        assert err.value.x == pytest.approx(math.exp(1.5))
        assert err.value.index_set == list(index_set(cfg))

    def test_no_vectors_is_an_error(self):
        cfg = SamplingConfig(w=8.0, interval=(1.0, math.e))
        for n in (0, -3):
            with pytest.raises(ValueError, match="n_vectors"):
                max_product_lattice_checks(es.get_kernel("bspline3"), cfg, LogGrid(0.0, 1.0, 17), n)

    @pytest.mark.parametrize("kernel", LATTICE_KERNELS, ids=lambda k: k.name)
    def test_batched_vectors_match_vector_loop(self, kernel):
        cfg = SamplingConfig(w=8.0, interval=(1.0, math.e))
        for points in (17, 33, 65):
            grid = LogGrid(0.0, 1.0, points)
            for seed in range(4):
                for n_vectors in (1, 4, 100):
                    got = _outcome(lambda: max_product_lattice_checks(kernel, cfg, grid, n_vectors, seed))
                    want = _outcome(lambda: oracle_lattice_checks(kernel, cfg, grid, n_vectors, seed))
                    assert got == want, (points, seed, n_vectors)


class TestOperatorConsistency:
    def test_all_four_reproduce_constants(self):
        # max-product and the partition-of-unity sums reproduce constants
        # everywhere; the classical series at lattice points only
        one = es.get_function("one")
        b3 = es.get_kernel("bspline3")
        cfg = SamplingConfig(w=4.0)
        x = math.exp(0.5)
        rows = {op: es.evaluate_on_grid(op, one, b3, cfg, [x])[0].value for op in ("S", "I", "MG")}
        for op, v in rows.items():
            assert v == pytest.approx(1.0, rel=1e-12), op
        lattice_x = math.exp(2.0 / 4.0)
        assert es.classical_exponential_formula(one, 0.0, 4.0, lattice_x, 64) == 1.0


class TestSuiteRunner:
    def test_default_suite_clean(self):
        result = run_suite(("bspline3",), seed=0)
        assert not result.violations
        assert result.checks
        assert result.tables and result.tables[0].fitted_order > 0.5

    def test_markdown_and_json_emit(self):
        result = run_suite(("bspline3",), seed=0)
        md = checks_to_markdown(result.checks)
        assert md.startswith("| check |")
        json.dumps(result.to_dict())

    def test_chi2_failing_kernel_reported_not_raised(self):
        result = run_suite(("bspline2",), seed=0)
        assert result.hypothesis_failures
        assert not result.violations
