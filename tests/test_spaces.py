"""Weighted norms, the log-modulus of continuity and Mellin derivatives."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsampling as es
from expsampling import LogGrid, UnsupportedOrderError
from expsampling.errors import EvaluationError
from expsampling.spaces import (
    _BLOCK_POINTS,
    DEFAULT_OMEGA_GRID,
    OmegaEstimate,
    WeightedFunction,
    get_function,
    mellin_derivative,
    mellin_derivative_fd,
    mellin_derivative_function,
    mellin_taylor_remainder,
    psi,
    weight,
    weighted_log_modulus,
    weighted_log_modulus_estimate,
    weighted_norm,
)

GRID = LogGrid(-12.0, 12.0, 1025)


class TestWeight:
    def test_values(self):
        assert weight(1.0) == 1.0
        assert weight(math.e) == pytest.approx(0.5, rel=1e-15)
        assert weight(math.e**2) == pytest.approx(0.2, rel=1e-14)
        assert psi(1.0) == 1.0
        assert psi(math.e) == pytest.approx(2.0, rel=1e-15)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_reciprocal_identity(self, v):
        x = math.exp(v)
        assert weight(x) * psi(x) == pytest.approx(1.0, rel=1e-12)
        assert 0.0 < weight(x) <= 1.0

    def test_domain_errors(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                weight(bad)
            with pytest.raises(ValueError):
                psi(bad)

    def test_array_input(self):
        xs = np.array([1.0, math.e])
        np.testing.assert_allclose(weight(xs), [1.0, 0.5])


class TestLogGrid:
    def test_validation(self):
        with pytest.raises(es.ConfigurationError):
            LogGrid(1.0, 0.0, 10)
        with pytest.raises(es.ConfigurationError):
            LogGrid(0.0, 1.0, 1)

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 0.0), (-1e308, 1e308)])
    def test_non_finite_bounds_or_span_rejected(self, bounds):
        # formerly accepted, and log_values() read nan
        with pytest.raises(es.ConfigurationError, match="finite"):
            LogGrid(*bounds, 3)

    def test_values(self):
        g = LogGrid(-1.0, 1.0, 3)
        np.testing.assert_allclose(g.log_values(), [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(g.values(), [math.exp(-1), 1.0, math.e])
        assert g.spec() == "-1:1:3"


class TestWeightedNorm:
    def test_constant(self):
        assert weighted_norm(get_function("one"), GRID) == 1.0

    def test_psi_exactly_one(self):
        # weight * psi == 1 at every point, so the estimate is exact
        assert weighted_norm(get_function("psi"), GRID) == pytest.approx(1.0, rel=1e-15)

    def test_log_max_at_unit_offset(self):
        # |log x|/(1+log^2 x) peaks at |log x| = 1 with value 1/2
        grid = LogGrid(-10.0, 10.0, 201)  # spacing 0.1, contains +-1 exactly
        assert weighted_norm(get_function("log"), grid) == pytest.approx(0.5, rel=1e-15)

    def test_nonfinite_reported(self):
        bad = es.WeightedFunction("bad", lambda x: np.where(np.asarray(x) > 1.0, np.inf, 1.0))
        with pytest.raises(es.EvaluationError):
            weighted_norm(bad, GRID)

    def test_registry_bound_certificates(self):
        # declared weighted bounds hold on a dense grid
        for name, f in es.FUNCTIONS.items():
            if f.weighted_bound is not None:
                assert weighted_norm(f, GRID) <= f.weighted_bound + 1e-9, name

    def test_registry_nonnegativity(self):
        vs = GRID.log_values()
        for name, f in es.FUNCTIONS.items():
            if f.nonnegative:
                assert np.all(np.asarray(f.evaluate_log(vs)) >= 0.0), name


class TestLogModulus:
    def test_constant_vanishes(self):
        assert weighted_log_modulus(get_function("one"), 0.5, GRID, 65) == 0.0

    def test_log_frozen_value(self):
        # ratio |log t|/((1+log^2 x)(1+log^2 t)) peaks at x=1, log t = +-1/2
        got = weighted_log_modulus(get_function("log"), 0.5, GRID, 129)
        assert got == pytest.approx(0.4, abs=1e-15)

    def test_monotone_in_delta_nested_shifts(self):
        # dyadic deltas with matched odd shift counts give nested feasible sets
        for name in ("log", "weight", "damped_log2", "tent_log", "jump_log"):
            f = get_function(name)
            vals = [
                weighted_log_modulus(f, 2.0 ** (-j), GRID, 2 ** (8 - j) + 1)
                for j in range(0, 6)
            ]
            assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1)), name

    def test_finiteness_bound(self):
        # estimate <= 4 * weighted norm whenever |log t| <= 1
        for name, f in es.FUNCTIONS.items():
            norm = weighted_norm(f, GRID)
            for delta in (0.25, 1.0):
                assert weighted_log_modulus(f, delta, GRID, 65) <= 4.0 * norm + 1e-12, name

    def test_scaling_bound(self):
        # estimate(lambda*delta) <= 2 (1+lambda)^3 (1+delta^2) estimate(delta)
        for name in ("log", "log2", "weight", "psi", "damped_log2", "damped_sin_log", "tent_log"):
            f = get_function(name)
            for delta in (0.1, 0.5):
                base = weighted_log_modulus(f, delta, GRID, 257)
                for lam in (0.5, 1.0, 2.0, 5.0):
                    lhs = weighted_log_modulus(f, lam * delta, GRID, 257)
                    assert lhs <= 2.0 * (1.0 + lam) ** 3 * (1.0 + delta**2) * base + 1e-12

    def test_pointwise_bound(self):
        # |f(h)-f(x)| <= 16 (1+d^2)^2 (1+log^2 x)(1+|log h - log x|^5/d^5) Omega
        delta = 0.5
        vs = np.linspace(-3.0, 3.0, 61)
        for name in ("log", "weight", "damped_log2"):
            f = get_function(name)
            omega = weighted_log_modulus(f, delta, GRID, 513) * 1.05
            fv = np.asarray(f.evaluate_log(vs))
            for i, vx in enumerate(vs):
                gap = np.abs(fv - fv[i])
                bound = (
                    16.0
                    * (1.0 + delta**2) ** 2
                    * (1.0 + vx * vx)
                    * (1.0 + np.abs(vs - vx) ** 5 / delta**5)
                    * omega
                )
                assert np.all(gap <= bound + 1e-12), name

    def test_vanishing_modulus(self):
        for name in ("log", "log2", "weight", "psi", "damped_log2",
                      "damped_sin_log", "damped_log_clip", "tent_log"):
            f = get_function(name)
            omega_1 = weighted_log_modulus(f, 1.0, GRID, 2049)
            vals = [
                weighted_log_modulus(f, 2.0 ** (-j), GRID, 2 ** (11 - j) + 1)
                for j in range(1, 11)
            ]
            assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1)), name
            assert vals[-1] <= 1e-2 * omega_1, name

    def test_jump_modulus_does_not_vanish(self):
        # a grid fine enough to straddle the jump keeps the estimate away from 0
        f = get_function("jump_log")
        fine = LogGrid(0.49, 0.51, 4097)
        assert weighted_log_modulus(f, 2.0 ** (-10), fine, 9) > 0.5

    def test_estimate_witness(self):
        est = weighted_log_modulus_estimate(get_function("log"), 0.5, GRID, 129)
        assert est.witness_log_x == pytest.approx(0.0, abs=1e-12)
        assert abs(est.witness_log_t) == pytest.approx(0.5, abs=1e-12)
        assert est.boundary_ratio <= est.value

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_log_modulus(get_function("log"), 0.0, GRID, 9)
        with pytest.raises(ValueError):
            weighted_log_modulus(get_function("log"), 0.5, GRID, 0)


class TestMellinDerivative:
    def test_log_first_derivative(self):
        f = get_function("log")
        for x in (0.5, 1.0, 7.0):
            assert mellin_derivative(f, 1, x) == pytest.approx(1.0, abs=1e-12)

    def test_log2_at_e(self):
        f = get_function("log2")
        assert mellin_derivative(f, 1, math.e) == pytest.approx(2.0, rel=1e-12)
        assert mellin_derivative_fd(f, 1, math.e) == pytest.approx(2.0, rel=1e-6)

    def test_constant_all_orders(self):
        f = get_function("one")
        for r in (1, 2):
            assert mellin_derivative(f, r, 2.0) == 0.0
        for r in (3, 6):
            assert mellin_derivative_fd(f, r, 2.0) == pytest.approx(0.0, abs=1e-6)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            mellin_derivative_fd(get_function("weight"), 7, 1.0)
        with pytest.raises(UnsupportedOrderError):
            mellin_derivative(get_function("damped_log_clip"), 7, 1.0)

    def test_finite_differences_match_closed_forms(self):
        # order-2 stencils: halving the step divides the error by ~4
        for name in ("weight", "damped_log2", "damped_sin_log"):
            f = get_function(name)
            for r in (1, 2):
                exact = mellin_derivative(f, r, 1.7)
                e1 = abs(mellin_derivative_fd(f, r, 1.7, 1e-2) - exact)
                e2 = abs(mellin_derivative_fd(f, r, 1.7, 5e-3) - exact)
                if e1 > 1e-12:
                    assert math.log2(e1 / e2) >= 1.9, (name, r)

    def test_derivative_function_wrapper(self):
        th = mellin_derivative_function(get_function("damped_log2"), 1)
        assert th.evaluate(math.e) == pytest.approx(2.0 * 1.0 / 4.0, rel=1e-12)
        # fd-backed wrapper for functions without closed forms
        th_fd = mellin_derivative_function(get_function("tent_log"), 1)
        assert th_fd.evaluate(math.exp(0.5)) == pytest.approx(-1.0, abs=1e-6)


class TestMellinTaylorRemainder:
    def test_zero_at_center(self):
        for name in ("log", "weight", "psi"):
            f = get_function(name)
            assert mellin_taylor_remainder(f, 0, 2.0, 2.0) == 0.0

    def test_affine_in_log_is_exact(self):
        f = get_function("log")
        for u, x in ((2.0, 1.0), (0.5, 3.0)):
            assert mellin_taylor_remainder(f, 1, u, x) == pytest.approx(0.0, abs=1e-12)

    def test_log2_frozen_value(self):
        # f(u)=1 at u=e; expansion at x=1 has value 0 and slope 0
        f = get_function("log2")
        assert mellin_taylor_remainder(f, 1, math.e, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_second_order_kills_log2(self):
        f = get_function("log2")
        assert mellin_taylor_remainder(f, 2, math.e, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            mellin_taylor_remainder(get_function("log"), -1, 1.0, 1.0)
        with pytest.raises(ValueError):
            mellin_taylor_remainder(get_function("log"), 0, -1.0, 1.0)


def test_registry_names():
    for name in (
        "one", "log", "log2", "weight", "psi", "damped_log2",
        "damped_sin_log", "damped_log_clip", "jump_log", "tent_log",
    ):
        assert name in es.FUNCTIONS
    with pytest.raises(ValueError, match="unknown function"):
        get_function("missing")


def oracle_log_modulus_estimate(f, delta, grid=DEFAULT_OMEGA_GRID, shift_points=129):
    """The unblocked scan `weighted_log_modulus_estimate` ran before it worked in
    row blocks, kept verbatim below its validation."""
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if shift_points < 1:
        raise ValueError("shift_points must be positive")
    vs = grid.log_values()
    ss = np.linspace(-delta, delta, shift_points) if shift_points > 1 else np.array([delta])
    base = np.asarray(f.evaluate_log(vs), dtype=float)
    shifted = np.asarray(f.evaluate_log(vs[:, None] + ss[None, :]), dtype=float)
    if not (np.all(np.isfinite(base)) and np.all(np.isfinite(shifted))):
        raise EvaluationError(f"'{f.name}' produced non-finite values in the modulus scan")
    ratio = np.abs(shifted - base[:, None]) / ((1.0 + vs * vs)[:, None] * (1.0 + ss * ss)[None, :])
    i = int(np.argmax(ratio))
    row, col = divmod(i, ratio.shape[1])
    boundary = float(max(ratio[0].max(), ratio[-1].max()))
    return OmegaEstimate(float(ratio.flat[i]), float(vs[row]), float(ss[col]), boundary)


def _modulus_functions():
    """The registered functions with their closed-form and finite-difference Mellin derivatives."""
    out = []
    for f in es.FUNCTIONS.values():
        out.append(f)
        closed = len(f.mellin_derivatives or ())
        out += [mellin_derivative_function(f, r) for r in range(1, closed + 1)]
        out.append(mellin_derivative_function(f, closed + 1))  # finite differences
    return out


# grid sizes 2001, 251 and 7 are no multiple of a block; (grid, shift points,
# deltas) cases run the wide scans on fewer deltas, to keep the run short
MODULUS_GRIDS = (LogGrid(-8.0, 8.0, 2001), LogGrid(-6.0, 5.0, 251), LogGrid(-1.0, 2.0, 7))
DELTAS = (1.0 / 16.0, 0.125, 0.5, 1.0)
MODULUS_CASES = [
    *((MODULUS_GRIDS[0], n, DELTAS) for n in (1, 2)),
    (MODULUS_GRIDS[0], 129, (1.0 / 16.0, 1.0)),
    *((MODULUS_GRIDS[1], n, DELTAS) for n in (1, 2, 129)),
    (MODULUS_GRIDS[1], 2049, (0.5,)),
    *((MODULUS_GRIDS[2], n, DELTAS) for n in (1, 2, 129, 2049)),
]


class TestBlockedLogModulus:
    """The row-blocked log-modulus scan against the unblocked oracle."""

    @pytest.mark.parametrize("f", _modulus_functions(), ids=lambda f: f.name)
    def test_matches_unblocked_scan(self, f):
        for grid, shifts, deltas in MODULUS_CASES:
            for delta in deltas:
                got = weighted_log_modulus_estimate(f, delta, grid, shifts)
                assert got == oracle_log_modulus_estimate(f, delta, grid, shifts), (grid, delta, shifts)

    def test_matches_unblocked_scan_with_many_shifts(self):
        grid = MODULUS_GRIDS[0]
        for name in ("weight", "jump_log"):
            f = get_function(name)
            got = weighted_log_modulus_estimate(f, 0.5, grid, 2049)
            assert got == oracle_log_modulus_estimate(f, 0.5, grid, 2049), name

    def test_constant_keeps_first_witness(self):
        f = get_function("one")
        for grid in MODULUS_GRIDS:
            for shifts in (1, 129, 2049):
                got = weighted_log_modulus_estimate(f, 0.5, grid, shifts)
                ss = np.linspace(-0.5, 0.5, shifts) if shifts > 1 else np.array([0.5])
                assert got == OmegaEstimate(0.0, grid.log_min, float(ss[0]), 0.0)
                assert got == oracle_log_modulus_estimate(f, 0.5, grid, shifts)

    def test_tie_across_blocks_keeps_first_row(self):
        # 16 exactly symmetric rows and 2049 exactly symmetric shifts: the even
        # tent gives equal ratios at (v, s) and (-v, -s), and 8-row blocks put
        # the mirrored maximisers at rows 7 and 8 into different blocks
        grid, f = LogGrid(-0.9375, 0.9375, 16), get_function("tent_log")
        got = weighted_log_modulus_estimate(f, 1.0, grid, 2049)
        assert got == oracle_log_modulus_estimate(f, 1.0, grid, 2049)
        assert (got.witness_log_x, got.witness_log_t) == (-0.0625, -0.9375)
        mirrored = weighted_log_modulus_estimate(f, 1.0, LogGrid(0.0625, 0.9375, 8), 2049)
        assert mirrored.value == got.value

    def test_non_finite_in_last_block_raises_same_error(self):
        f = WeightedFunction(
            "blows_up", lambda x: x, log_evaluate=lambda v: np.where(np.asarray(v) > 7.99, np.inf, 1.0)
        )
        # two blocks of _BLOCK_POINTS // 129 rows, the second short by three: with shifts up to 0.5,
        # only rows of the second block reach v > 7.99
        rows = _BLOCK_POINTS // 129
        grid = LogGrid(-8.0, 8.0, 2 * rows - 3)
        assert grid.log_values()[rows - 1] + 0.5 <= 7.99 < grid.log_values()[-1] + 0.5
        with pytest.raises(EvaluationError) as old:
            oracle_log_modulus_estimate(f, 0.5, grid, 129)
        calls = []
        counted = WeightedFunction("blows_up", f.evaluate, log_evaluate=lambda v: calls.append(1) or f.log_evaluate(v))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the check precedes the arithmetic
            with pytest.raises(EvaluationError) as new:
                weighted_log_modulus_estimate(counted, 0.5, grid, 129)
        assert str(new.value) == str(old.value)
        assert len(calls) == 3  # base, then two blocks: the error comes from the last

    def test_wide_scan_memory_stays_small(self):
        f, grid = get_function("weight"), LogGrid(-8.0, 8.0, 2001)
        tracemalloc.start()
        try:
            weighted_log_modulus_estimate(f, 0.5, grid, 2049)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000  # the unblocked scan held about 98.6 MB
