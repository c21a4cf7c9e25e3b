"""Kernel values and moment scans against independent closed-form oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsampling as es
from expsampling import ConfigurationError, DivergentMomentError
from expsampling.kernels import Kernel, _cardinal_bspline, _moment_outcomes


# --- independent closed forms, derived by hand from the convolution pieces ---


def hat(t):
    return max(0.0, 1.0 - abs(t))


def quad_spline(t):
    t = abs(t)
    if t <= 0.5:
        return 0.75 - t * t
    if t <= 1.5:
        return 0.5 * (1.5 - t) ** 2
    return 0.0


def cubic_spline(t):
    t = abs(t)
    if t <= 1.0:
        return 2.0 / 3.0 - t * t + t**3 / 2.0
    if t <= 2.0:
        return (2.0 - t) ** 3 / 6.0
    return 0.0


CLOSED_FORMS = {2: hat, 3: quad_spline, 4: cubic_spline}


def brute_force_moment(profile, nu, half_width, points):
    """Dense fractional-part scan of the max-product absolute moment."""
    vs = np.arange(points, dtype=float) / points
    best = np.zeros(points)
    for k in range(-half_width, half_width + 2):
        t = vs - k
        np.maximum(best, np.abs(profile(t)) * np.abs(t) ** nu, out=best)
    return float(best.max())


class TestBuiltinKernels:
    def test_bspline_matches_closed_forms(self):
        ts = np.linspace(-3.5, 3.5, 1401)
        for order, ref in CLOSED_FORMS.items():
            k = es.mellin_bspline(order)
            got = k.log_profile(ts)
            want = np.array([ref(t) for t in ts])
            assert np.max(np.abs(got - want)) < 1e-14

    def test_bspline_peak_values(self):
        assert es.mellin_bspline(2).evaluate(1.0) == 1.0
        assert es.mellin_bspline(3).evaluate(1.0) == 0.75
        assert es.mellin_bspline(3).evaluate(math.e) == pytest.approx(0.125, abs=1e-15)

    @given(st.floats(min_value=-4.0, max_value=4.0), st.integers(min_value=1, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_bspline_partition_of_unity(self, t, order):
        k = es.mellin_bspline(order)
        lo = math.floor(t) - 4
        total = sum(float(k.log_profile(np.array([t - j]))[0]) for j in range(lo, lo + 9))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_bspline_compact_support(self):
        for order in range(1, 7):
            k = es.mellin_bspline(order)
            r = k.log_support_radius
            ts = np.linspace(r + 1e-9, r + 10, 100)
            assert np.all(k.log_profile(ts) == 0.0)
            assert np.all(k.log_profile(-ts) == 0.0)

    def test_bspline_order_validation(self):
        for bad in (0, 7, -1, 2.5):
            with pytest.raises(ValueError):
                es.mellin_bspline(bad)

    def test_gaussian_values(self):
        g = es.mellin_gaussian(1.0)
        assert g.evaluate(1.0) == 1.0
        assert g.evaluate(math.e) == pytest.approx(math.exp(-1.0), rel=1e-15)
        g5 = es.mellin_gaussian(0.5)
        assert g5.evaluate(math.e**2) == pytest.approx(math.exp(-2.0), rel=1e-15)

    @pytest.mark.parametrize("shape", [0.5, 0.75, 1.0, 1.5, 2.0])
    def test_gaussian_zero_radius(self, shape):
        g = es.mellin_gaussian(shape)
        z = g.zero_radius
        assert z == math.sqrt(745.2 / shape)
        beyond = np.nextafter(z, math.inf) + np.linspace(0.0, 1e-3, 100_001)
        assert np.all(g.log_profile(beyond) == 0.0) and np.all(g.log_profile(-beyond) == 0.0)
        assert g.log_profile(math.sqrt(744.0 / shape)) > 0.0

    def test_only_gaussians_have_a_zero_radius(self):
        for name, kernel in es.KERNELS.items():
            assert (kernel.zero_radius is not None) == name.startswith("gauss"), name

    def test_gaussian_validation(self):
        with pytest.raises(ValueError):
            es.mellin_gaussian(0.0)
        with pytest.raises(ValueError):
            es.mellin_gaussian(-1.0)

    def test_lin_kernel_values(self):
        l0 = es.lin_kernel(0.0)
        assert l0.evaluate(1.0) == 1.0
        assert l0.evaluate(math.e) == 0.0  # sinc vanishes exactly at integers
        l1 = es.lin_kernel(1.0)
        # oracle: direct arithmetic e^{-1/2} * sin(pi/2)/(pi/2)
        want = math.exp(-0.5) * math.sin(math.pi / 2) / (math.pi / 2)
        assert l1.evaluate(math.exp(0.5)) == pytest.approx(want, rel=1e-14)
        assert l1.evaluate(math.exp(0.5)) == pytest.approx(0.3861294105, rel=1e-9)

    def test_kernel_domain_error(self):
        with pytest.raises(ValueError):
            es.mellin_bspline(3).evaluate(-1.0)

    def test_registry_contents(self):
        for name in ("bspline2", "bspline3", "gauss1", "linc0"):
            assert name in es.KERNELS
        with pytest.raises(ValueError, match="unknown kernel"):
            es.get_kernel("nope")

    def test_registry_kernels_bounded_on_dense_grid(self):
        ts = np.linspace(-30.0, 30.0, 20001)
        for name in ("bspline2", "bspline3", "bspline4", "gauss1", "gauss05", "linc0"):
            vals = es.get_kernel(name).log_profile(ts)
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals)) <= 1.0 + 1e-12


class TestAbsoluteMoments:
    def test_frozen_values(self):
        b2 = es.get_kernel("bspline2")
        b3 = es.get_kernel("bspline3")
        assert es.discrete_absolute_moment(b2, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert es.discrete_absolute_moment(b2, 1.0) == pytest.approx(0.25, abs=1e-12)
        assert es.discrete_absolute_moment(b3, 0.0) == pytest.approx(0.75, abs=1e-12)

    def test_scanner_vs_brute_force(self):
        cases = [
            ("bspline2", hat, 0.0),
            ("bspline2", hat, 1.0),
            ("bspline3", quad_spline, 0.0),
            ("bspline3", quad_spline, 2.0),
        ]
        for name, ref, nu in cases:
            got = es.discrete_absolute_moment(es.get_kernel(name), nu)
            want = brute_force_moment(np.vectorize(ref), nu, 3, 100_000)
            assert got == pytest.approx(want, abs=1e-6)

    def test_order_zero_is_lattice_sup(self):
        # nu = 0 reduces to a supremum of |chi| over the shifted lattice
        for name in ("bspline3", "gauss1", "linc0"):
            k = es.get_kernel(name)
            m0 = es.discrete_absolute_moment(k, 0.0)
            ts = np.linspace(-6, 6, 5001)
            assert m0 <= np.max(np.abs(k.log_profile(ts))) + 1e-12
            assert m0 >= float(np.abs(k.log_profile(np.array([0.0])))[0]) - 1e-12

    def test_gaussian_moments_converge(self):
        g = es.get_kernel("gauss1")
        est = es.discrete_absolute_moment_estimate(g, 2.0)
        assert est.converged
        # sup of t^2 e^{-t^2} is attained at t=1
        assert est.value == pytest.approx(math.exp(-1.0), rel=1e-6)
        assert est.tail_bound < 1e-60

    def test_overflowing_compact_join_is_divergent_not_nan(self):
        b3 = es.get_kernel("bspline3")
        # |t|^500 stays finite on the support: a finite join
        assert es.discrete_absolute_moment(b3, 500.0) == pytest.approx(2.69407499314e82, rel=1e-11)
        # |t|^2000 overflows where the kernel is nonzero, and 0 * inf is NaN where it is zero
        with pytest.raises(DivergentMomentError) as err:
            es.discrete_absolute_moment_estimate(b3, 2000.0)
        assert err.value.order == 2000.0 and err.value.witness_u > 0.0
        report = es.check_kernel_conditions(b3, 2000.0, 0)
        assert not report.chi1_holds and 2000.0 not in report.absolute_moments
        assert report.diagnostics["chi1"].startswith("m_2000 divergent")

    def test_zero_kernel_values_give_zero_terms(self):
        # beyond its zero radius gauss1 is exactly 0 while |t|^200 overflows
        est = es.discrete_absolute_moment_estimate(es.get_kernel("gauss1"), 200.0)
        assert math.isfinite(est.value) and est.tail_bound == 0.0

    def test_lin_kernel_divergence_witness(self):
        l0 = es.get_kernel("linc0")
        with pytest.raises(DivergentMomentError) as err:
            es.discrete_absolute_moment(l0, 2.0)
        assert abs(err.value.witness_k) >= 8
        assert err.value.witness_u > 0
        # order one stays finite: |sinc| |k - log u| == |sin(pi log u)|/pi
        assert es.discrete_absolute_moment(l0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-6)

    def test_moment_dominance(self):
        # every order nu <= mu stays below m0 + m_mu
        for name in ("bspline2", "bspline3", "gauss1"):
            k = es.get_kernel(name)
            m0 = es.discrete_absolute_moment(k, 0.0)
            m2 = es.discrete_absolute_moment(k, 2.0)
            for nu in (0.0, 0.5, 1.0, 1.5, 2.0):
                assert es.discrete_absolute_moment(k, nu) <= m0 + m2 + 1e-12

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            es.discrete_absolute_moment(es.get_kernel("bspline2"), -1.0)


class TestEta:
    def test_frozen_values(self):
        assert es.eta_lower_bound(es.get_kernel("bspline3")) == pytest.approx(0.125, abs=1e-15)
        assert es.eta_lower_bound(es.get_kernel("bspline2")) == 0.0
        assert es.eta_lower_bound(es.get_kernel("gauss1")) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_grid_includes_both_endpoints(self):
        # the minimum over 4097 uniform points of log x in [0, 1]
        for profile in (lambda t: 1.0 + t, lambda t: 2.0 - t, lambda t: 1.0 + np.abs(t - 0.5)):
            kernel = es.Kernel("eta_probe", profile, None, math.inf)
            assert es.eta_lower_bound(kernel) == 1.0


class TestAlgebraicMoments:
    def test_frozen_values(self):
        b3 = es.get_kernel("bspline3")
        b2 = es.get_kernel("bspline2")
        assert es.algebraic_moment(b3, 0, 1.0) == pytest.approx(0.75, abs=1e-14)
        assert es.algebraic_moment(b2, 1, math.exp(0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_order_zero_equals_plain_join(self):
        for name in ("bspline3", "gauss1"):
            k = es.get_kernel(name)
            for u in (1.0, 1.7, 0.3):
                v = math.log(u)
                want = max(float(k.log_profile(np.array([v - j]))[0]) for j in range(-8, 9))
                assert es.algebraic_moment(k, 0, u) == pytest.approx(want, abs=1e-12)

    def test_signed_join_keeps_sign(self):
        # at u=e^{-1/2} the hat's order-1 candidates are -1/4 and +1/4 mirrored
        b2 = es.get_kernel("bspline2")
        assert es.algebraic_moment(b2, 1, math.exp(-0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_variation_bspline1_constant_order0(self):
        lo, hi = es.algebraic_moment_variation(es.get_kernel("bspline1"), 0)
        assert hi - lo <= 1e-12

    def test_variation_bspline3_not_constant(self):
        lo, hi = es.algebraic_moment_variation(es.get_kernel("bspline3"), 0)
        assert hi == pytest.approx(0.75, abs=1e-12)
        assert lo == pytest.approx(0.5, abs=1e-3)  # worst phase halfway between nodes


class TestConditionChecker:
    def test_bspline3_passes(self):
        rep = es.check_kernel_conditions(es.get_kernel("bspline3"), mu=5.0, r=1)
        assert rep.chi1_holds and rep.chi2_holds
        assert rep.eta == pytest.approx(0.125, abs=1e-15)
        assert not rep.chi3_holds  # max-product algebraic moments vary with phase
        assert all(v >= 0 for v in rep.absolute_moments.values())

    def test_bspline2_fails_chi2(self):
        rep = es.check_kernel_conditions(es.get_kernel("bspline2"), mu=2.0, r=0)
        assert rep.chi1_holds
        assert not rep.chi2_holds
        assert rep.eta == 0.0

    def test_linc0_fails_chi1_with_witness(self):
        rep = es.check_kernel_conditions(es.get_kernel("linc0"), mu=2.0, r=0)
        assert not rep.chi1_holds
        assert "divergent" in rep.diagnostics["chi1"]
        assert rep.chi2_holds is False  # inf over [1,e] of sinc is 0

    def test_bspline1_chi3_order0(self):
        rep = es.check_kernel_conditions(es.get_kernel("bspline1"), mu=2.0, r=0)
        assert rep.chi3_holds

    def test_degenerate_kernel_is_verdict_not_error(self):
        zero = es.Kernel("zero", lambda t: np.zeros_like(np.asarray(t, float)), 1.0, 0.0)
        rep = es.check_kernel_conditions(zero, mu=1.0, r=0)
        assert not rep.chi2_holds

    def test_report_chi2_implies_positive_eta(self):
        for name in es.KERNELS:
            rep = es.check_kernel_conditions(es.get_kernel(name), mu=2.0, r=0)
            if rep.chi2_holds:
                assert rep.eta > 0.0

    def test_report_json_roundtrip(self):
        import json

        rep = es.check_kernel_conditions(es.get_kernel("bspline3"), mu=2.0, r=1)
        d = rep.to_dict()
        assert set(d) == {
            "kernel_name",
            "absolute_moments",
            "eta",
            "algebraic_moment_variation",
            "chi1_holds",
            "chi2_holds",
            "chi3_holds",
            "diagnostics",
        }
        json.dumps(d)  # must be serialisable as-is


class TestScanConsistency:
    def test_order0_matches_denominator_join_path(self):
        # two code paths for the same quantity must agree on identical grids
        for name in ("bspline3", "gauss1"):
            k = es.get_kernel(name)
            m0 = es.discrete_absolute_moment(k, 0.0)
            _, profile = es.algebraic_moment_profile(k, 0)
            assert m0 == pytest.approx(float(profile.max()), abs=1e-12)


# array forms of the closed forms above, for dense brute-force scans
ARRAY_FORMS = {
    "bspline2": (hat, lambda t: np.maximum(0.0, 1.0 - np.abs(t))),
    "bspline3": (
        quad_spline,
        lambda t: np.select(
            [np.abs(t) <= 0.5, np.abs(t) <= 1.5], [0.75 - t * t, 0.5 * (1.5 - np.abs(t)) ** 2]
        ),
    ),
    "bspline4": (
        cubic_spline,
        lambda t: np.select(
            [np.abs(t) <= 1.0, np.abs(t) <= 2.0],
            [2.0 / 3.0 - t * t + np.abs(t) ** 3 / 2.0, (2.0 - np.abs(t)) ** 3 / 6.0],
        ),
    ),
    "gauss1": (lambda t: math.exp(-t * t), lambda t: np.exp(-t * t)),
}


def _count_scans(monkeypatch, what=False):
    """Empty the scan memo and record each term of every `_scan` pass as the
    kernel name (with what it scans, if `what`): returns (terms, passes), the
    terms in call order and each pass as its list of terms."""
    from expsampling import kernels

    calls, passes = [], []
    scan = kernels._scan

    def counting(kernel, terms, *args):
        passes.append([(kernel.name, term_what) if what else kernel.name for _, term_what, _ in terms])
        calls.extend(passes[-1])
        return scan(kernel, terms, *args)

    monkeypatch.setattr(kernels, "_scan", counting)
    es.discrete_absolute_moment_estimate.cache_clear()
    es.algebraic_moment_variation.cache_clear()
    return calls, passes


class TestMemoisedScans:
    def test_array_forms_match_closed_forms(self):
        ts = np.linspace(-3.0, 3.0, 1201)
        for name, (scalar, array) in ARRAY_FORMS.items():
            np.testing.assert_allclose(array(ts), [scalar(t) for t in ts], rtol=0, atol=1e-15)

    @given(st.sampled_from(sorted(ARRAY_FORMS)), st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=50, deadline=None)
    def test_scanner_vs_brute_force_random_orders(self, name, nu):
        kernel = es.get_kernel(name)
        profile = ARRAY_FORMS[name][1]
        est = es.discrete_absolute_moment_estimate(kernel, nu)
        # on the scanner's own 4096-point u-grid the joins must agree to rounding
        assert est.value == pytest.approx(brute_force_moment(profile, nu, 8, 4096), rel=1e-12)
        # the hat's peak is a kink: as nu -> 0 the sup is approached at t -> 0+, which
        # the u-grid resolves only to its spacing 1/4096 (the hat has slope 1)
        rel = 1.0 / 4096 if name == "bspline2" and nu < 0.05 else 1e-6
        assert est.value == pytest.approx(brute_force_moment(profile, nu, 8, 100_000), rel=rel)
        assert es.discrete_absolute_moment_estimate(kernel, nu) is est
        es.discrete_absolute_moment_estimate.cache_clear()
        assert es.discrete_absolute_moment_estimate(kernel, nu) == est

    def test_suite_scans_each_kernel_order_once(self, monkeypatch):
        calls, _ = _count_scans(monkeypatch)
        es.run_suite(("bspline3", "gauss1"))
        # nu in {0, 0.5, 1, 1.5, 2} and the order-0 variation, for each kernel
        assert sorted(calls) == ["bspline3"] * 6 + ["gauss1"] * 6
        calls.clear()
        es.run_suite(("bspline3", "gauss1"))
        assert calls == []

    def test_reregistered_kernel_is_scanned_afresh(self, monkeypatch):
        calls, _ = _count_scans(monkeypatch)
        first = dataclasses.replace(es.mellin_bspline(3), name="memo_probe")
        second = dataclasses.replace(first, log_profile=lambda t: 0.5 * first.log_profile(t))
        monkeypatch.setitem(es.KERNELS, "memo_probe", None)  # dropped again after the test
        es.register_kernel(first)
        m_first = es.discrete_absolute_moment(es.get_kernel("memo_probe"), 1.0)
        es.register_kernel(second)
        m_second = es.discrete_absolute_moment(es.get_kernel("memo_probe"), 1.0)
        assert m_second == 0.5 * m_first
        assert calls == ["memo_probe", "memo_probe"]
        assert es.discrete_absolute_moment(first, 1.0) == m_first
        assert len(calls) == 2

    def test_divergent_outcomes_are_memoised(self, monkeypatch):
        calls, _ = _count_scans(monkeypatch)
        l0 = es.get_kernel("linc0")
        errors = []
        for _ in range(3):
            with pytest.raises(DivergentMomentError) as err:
                es.discrete_absolute_moment_estimate(l0, 2.0)
            errors.append(err.value)
        assert calls == ["linc0"]
        assert len({id(e) for e in errors}) == 3  # a fresh error each time
        assert len({(str(e), e.witness_u, e.witness_k, e.order) for e in errors}) == 1
        es.discrete_absolute_moment_estimate.cache_clear()
        with pytest.raises(DivergentMomentError):
            es.discrete_absolute_moment_estimate(l0, 2.0)
        assert calls == ["linc0", "linc0"]

    def test_nine_kernel_suite_makes_each_scan_once(self, monkeypatch):
        calls, _ = _count_scans(monkeypatch, what=True)
        es.run_suite(tuple(f"bspline{n}" for n in range(1, 6)) + ("gauss1", "gauss05", "linc0", "linc1"))
        # 60 before divergent outcomes were cached: linc0's m_2 ran 4 times,
        # linc1's m_0 twice and its m_1 and m_2 three times each; 52 while the
        # dominance check stopped at linc1's divergent m_0, where its one pass
        # of five orders also scans m_0.5 and m_1.5
        assert len(calls) == len(set(calls)) == 54

    def test_condition_check_makes_one_pass(self, monkeypatch):
        calls, passes = _count_scans(monkeypatch, what=True)
        es.check_kernel_conditions(es.mellin_gaussian(1.1), 5.0, 1)
        orders = [f"absolute moment of order {nu:g}" for nu in (0, 1, 2, 5)]
        orders += [f"algebraic moment of order {j}" for j in (0, 1)]
        assert passes == [[("gauss11", what) for what in orders]]

    def test_condition_check_point_count(self):
        # 848,005 points with one scan per order: six 33 x 4096 blocks; one
        # shared block now, plus four tail probes, four witness columns and eta
        points = []
        g = es.mellin_gaussian(1.1)
        g = dataclasses.replace(g, log_profile=lambda t, _p=g.log_profile: points.append(np.size(t)) or _p(t))
        es.check_kernel_conditions(g, 5.0, 1)
        assert sum(points) == 33 * 4096 + 4 * 2 * 4096 + 4 * 33 + 4097 == 172_165


def _scan_outcome(call):
    """A scan's value, or the fields of the DivergentMomentError it raised."""
    try:
        return call()
    except DivergentMomentError as exc:
        return str(exc), exc.witness_u, exc.witness_k, exc.order


# (kernel, absolute orders, algebraic orders): linc0 and linc1 diverge at the
# higher orders; the far bump settles before its mass at log-offset 50
FAR_BUMP = Kernel("far_bump", lambda t: np.exp(-np.square(t)) + np.exp(-4.0 * np.square(t - 50.0)), None, math.inf)
SHARED_PASS_CASES = [
    *((es.get_kernel(n), (0.0, 0.5, 1.0, 1.5, 2.0, 5.0, 6.0), range(4)) for n in sorted(es.KERNELS)),
    (FAR_BUMP, (0.0, 1.0, 5.0), range(3)),
    (es.get_kernel("linc0"), (0.0, 1.0, 2.0, 3.0, 7.0), range(6)),
    (es.get_kernel("linc1"), (0.0, 0.5, 1.0, 2.0, 5.0), range(6)),
]


@pytest.mark.parametrize("kernel, absolute, algebraic", SHARED_PASS_CASES, ids=lambda c: getattr(c, "name", ""))
def test_shared_pass_matches_one_term_passes(kernel, absolute, algebraic):
    es.discrete_absolute_moment_estimate.cache_clear()
    alone = [_scan_outcome(lambda: es.discrete_absolute_moment_estimate(kernel, nu)) for nu in absolute]
    alone += [_scan_outcome(lambda: es.algebraic_moment_variation(kernel, j)) for j in algebraic]
    es.discrete_absolute_moment_estimate.cache_clear()
    _moment_outcomes(kernel, absolute, algebraic)  # one pass fills the memo
    shared = [_scan_outcome(lambda: es.discrete_absolute_moment_estimate(kernel, nu)) for nu in absolute]
    shared += [_scan_outcome(lambda: es.algebraic_moment_variation(kernel, j)) for j in algebraic]
    assert shared == alone
    if kernel.name.startswith("linc"):
        assert any(isinstance(o, tuple) and len(o) == 4 for o in shared)  # a divergence was compared


# --- the level-by-level B-spline against the recursion it replaced, bit for bit ---


def recursive_cardinal_bspline(s, order: int):
    """Cardinal B-spline N_order on [0, order), by the Cox-de Boor recurrence."""
    s = np.asarray(s, dtype=float)
    if order == 1:
        return ((s >= 0.0) & (s < 1.0)).astype(float)
    m = order - 1
    return (s * recursive_cardinal_bspline(s, m) + (order - s) * recursive_cardinal_bspline(s - 1.0, m)) / m


_KNOTS = np.arange(-2.0, 9.0)
BSPLINE_ARGUMENTS = {
    "random": np.random.default_rng(7).uniform(-1.0, 8.0, 4096),
    "linspace": np.linspace(-1.0, 7.0, 2049),  # every knot, on a 1/256 step
    "knots": np.concatenate([_KNOTS, np.nextafter(_KNOTS, -np.inf), np.nextafter(_KNOTS, np.inf)]),
    "special": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]),
    "block": np.random.default_rng(8).uniform(-1.0, 8.0, (4, 4096)),
}


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("order", range(1, 7))
class TestLevelByLevelBspline:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("name", BSPLINE_ARGUMENTS)
    def test_matches_the_recursion_bit_for_bit(self, order, name):
        s = BSPLINE_ARGUMENTS[name]
        assert np.array_equal(_bits(_cardinal_bspline(s, order)), _bits(recursive_cardinal_bspline(s, order)))
        # the profile's form: the offset added as the profile added it
        half = order / 2.0
        want = recursive_cardinal_bspline(np.asarray(s, dtype=float) + half, order)
        assert np.array_equal(_bits(_cardinal_bspline(s, order, half)), _bits(want))
        assert np.array_equal(_bits(es.mellin_bspline(order).log_profile(s)), _bits(want))

    @pytest.mark.parametrize("s", [0.5, -0.0, 2.999, np.float64(1.25), np.array(3.5)])
    def test_zero_dimensional_input(self, order, s):
        got, want = _cardinal_bspline(s, order), recursive_cardinal_bspline(s, order)
        assert type(got) is type(want) is np.float64 and _bits(got) == _bits(want)
        got, want = _cardinal_bspline(s, order, 0.5), recursive_cardinal_bspline(np.asarray(s, dtype=float) + 0.5, order)
        assert type(got) is type(want) is np.float64 and _bits(got) == _bits(want)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_input_is_not_written(self, order):
        for s in BSPLINE_ARGUMENTS.values():
            kept = s.copy()
            _cardinal_bspline(s, order)
            _cardinal_bspline(s, order, order / 2.0)
            assert np.array_equal(_bits(s), _bits(kept))


@pytest.mark.parametrize(
    "field, radius",
    [("log_support_radius", -1.0), ("log_support_radius", math.inf), ("log_support_radius", math.nan),
     ("zero_radius", -5.0), ("zero_radius", math.inf), ("zero_radius", math.nan)],
)
def test_kernel_rejects_a_negative_or_non_finite_radius(field, radius):
    # formerly S = 0 with no note, numpy's "strides is incompatible" error, or OverflowError
    fields = {"log_support_radius": None, "zero_radius": None, field: radius}
    with pytest.raises(ConfigurationError, match=field):
        Kernel("bad", es.get_kernel("gauss1").log_profile, claimed_mu=math.inf, **fields)


def test_kernel_accepts_finite_nonnegative_radii():
    profile = es.get_kernel("gauss1").log_profile
    assert Kernel("zero_radii", profile, 0.0, math.inf, zero_radius=0.0).log_support_radius == 0.0
    assert dataclasses.replace(es.get_kernel("gauss1"), zero_radius=3.0).zero_radius == 3.0
    with pytest.raises(ConfigurationError):
        dataclasses.replace(es.get_kernel("bspline3"), log_support_radius=-0.5)


def _traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "call",
    [
        lambda: es.check_kernel_conditions(es.mellin_bspline(3), 5.0, 1),
        lambda: es.check_kernel_conditions(es.mellin_bspline(5), 5.0, 1),
        lambda: es.lemma_suite(es.mellin_gaussian(1.1)),
    ],
    ids=["check-bspline3", "check-bspline5", "lemma-suite-gauss11"],
)
def test_fresh_kernel_scans_stay_small(call):
    # blocks of 16 rows x 4096 points and the recursive B-spline peaked at 2.3 to 4.7 MB
    assert _traced_peak(call) < 1_500_000
