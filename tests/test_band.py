"""The banded lattice core against the dense (n x K) lattice it replaced.

`dense_values` is the former grid evaluation kept as an oracle: every point
sees every index of one shared span, with the active set as a mask.  Joins
must agree exactly; sums only change their summation order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsampling as es
from expsampling import DegenerateDenominatorError, ExpSamples, LogGrid, SamplingConfig
from expsampling.kernels import sinc
from expsampling.operators import (
    default_half_width,
    evaluate_on_grid,
    index_set,
    max_product_series_on_grid,
)

KERNELS = ("bspline1", "bspline2", "bspline3", "bspline4", "bspline5", "gauss1", "gauss05", "linc0", "linc1")
SUM_RTOL = 1e-14


def dense_lattice(kernel, config, vs):
    """Shared index span, kernel values and active-set mask for all points."""
    w = config.w
    if config.interval is not None:
        j = index_set(config)
        ks = np.arange(j.start, j.stop)
        mask = np.ones((len(vs), len(ks)), dtype=bool)
    else:
        half = config.window_half_width or default_half_width(kernel, w)
        ks = np.arange(math.ceil(w * float(np.min(vs)) - half), math.floor(w * float(np.max(vs)) + half) + 1)
        mask = np.abs(ks[None, :] - w * vs[:, None]) <= half
    return ks, kernel.log_profile(w * vs[:, None] - ks[None, :]), mask


def dense_classical(f, c, T, vs, window):
    ks = np.arange(math.ceil(T * float(np.min(vs)) - window), math.floor(T * float(np.max(vs)) + window) + 1)
    s = T * vs[:, None] - ks[None, :]
    n = np.round(s)
    s = np.where(np.abs(s - n) <= 1e-12 * np.maximum(1.0, np.abs(s)), n, s)
    sc = sinc(s)
    lin = np.exp(-(c / T) * np.where(sc == 0.0, 0.0, s)) * sc
    mask = np.abs(ks[None, :] - T * vs[:, None]) <= window
    fv = np.asarray(f.evaluate_log(ks / T), dtype=float)
    return np.where(mask, lin * fv[None, :], 0.0)


def dense_values(operator, f, kernel, config, vs, c=0.0):
    """Values and row notes of `evaluate_on_grid`, on the dense lattice.

    Also returns the sum of |terms| of each row of a sum (None for MG).
    """
    w = config.w
    notes = [""] * len(vs)
    terms = None
    with np.errstate(invalid="ignore", over="ignore"):
        if operator == "E":
            terms = dense_classical(f, c, w, vs, config.window_half_width or 64)
            note = "non-finite term in classical series window"
        elif operator == "I":
            ks, chi, mask = dense_lattice(kernel, config, vs)
            nodes, weights = np.polynomial.legendre.leggauss(config.quadrature_points)
            us = (ks[:, None] + (nodes[None, :] + 1.0) / 2.0) / w
            means = np.asarray(f.evaluate_log(us), dtype=float) @ weights / 2.0
            terms = np.where(mask & (chi != 0.0), chi * means[None, :], 0.0)
            note = "non-finite quadrature cell in active window"
        else:
            ks, chi, mask = dense_lattice(kernel, config, vs)
            fv = np.asarray(f.evaluate_log(ks / w), dtype=float)
            bad = ~np.isfinite(fv)
            fv = np.where(bad, 0.0, fv)
            if operator == "S":
                terms = np.where(mask, chi * fv[None, :], 0.0)
            else:
                # a zero join reads +0, whatever the signs of the zeros it joins
                num = np.where(mask, chi * fv[None, :], -np.inf).max(axis=1) + 0.0
                den = np.where(mask, chi, -np.inf).max(axis=1) + 0.0
                ok = den > 1e-300
                values = np.where(ok, num / np.where(ok, den, 1.0), np.nan)
                for i in np.nonzero(~ok)[0]:
                    notes[i] = f"degenerate denominator {den[i]:.3g}"
            bad_rows = (mask & (chi != 0.0) & bad[None, :]).any(axis=1)
            note = "non-finite sample in active window"
        if terms is not None:
            values = terms.sum(axis=1)
        if operator in ("I", "E"):
            bad_rows = ~np.isfinite(values)
    values = np.where(bad_rows, np.nan, values)
    for i in np.nonzero(bad_rows)[0]:
        notes[i] = note
    for i in np.nonzero(~np.isfinite(values))[0]:
        notes[i] = notes[i] or "non-finite value"
    return values, notes, None if terms is None else np.abs(terms).sum(axis=1)


def signed_function(amplitude, frequency, phase, offset, hole=None, w=1.0):
    """amplitude sin(frequency v + phase) - offset, optionally NaN on (hole, hole + 1.5/w)."""

    def log_form(v):
        v = np.asarray(v, dtype=float)
        out = amplitude * np.sin(frequency * v + phase) - offset
        if hole is not None:
            out = np.where((v > hole) & (v < hole + 1.5 / w), np.nan, out)
        return out

    return es.WeightedFunction(
        "signed", lambda x: log_form(np.log(np.asarray(x, dtype=float))), log_evaluate=log_form
    )


@st.composite
def cases(draw):
    kernel = es.get_kernel(draw(st.sampled_from(KERNELS)))
    w = draw(st.floats(min_value=0.5, max_value=128.0))
    lo = draw(st.floats(min_value=-3.0, max_value=3.0))
    if draw(st.booleans()):  # start the grid on a lattice node
        lo = round(lo * w) / w
    span = draw(st.floats(min_value=0.01, max_value=1.5))
    grid = LogGrid(lo, lo + span, draw(st.integers(min_value=2, max_value=33)))
    mode = draw(st.sampled_from(("window", "pinned", "interval")))
    if mode == "interval":
        a = draw(st.floats(min_value=lo - 0.5, max_value=lo + span))
        length = draw(st.floats(min_value=1.0 / w, max_value=2.0))
        try:
            config = SamplingConfig(w=w, interval=(math.exp(a), math.exp(a + length)))
        except es.ConfigurationError:
            config = SamplingConfig(w=w, interval=(math.exp(a), math.exp(a + length + 1.0 / w)))
    elif mode == "pinned":
        config = SamplingConfig(w=w, window_half_width=draw(st.integers(min_value=1, max_value=6)))
    else:
        config = SamplingConfig(w=w)
    hole = draw(st.none() | st.floats(min_value=lo, max_value=lo + span))
    f = signed_function(
        draw(st.floats(min_value=0.0, max_value=3.0)),
        draw(st.floats(min_value=0.0, max_value=20.0)),
        draw(st.floats(min_value=0.0, max_value=2 * math.pi)),
        draw(st.floats(min_value=-2.0, max_value=2.0)),
        hole,
        w,
    )
    return kernel, config, grid, f, draw(st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_band_matches_dense_lattice(case):
    kernel, config, grid, f, c = case
    vs = grid.log_values()
    for op in ("S", "I", "MG", "E"):
        rows = evaluate_on_grid(op, f, kernel, config, grid, c=c)
        got = np.array([r.value for r in rows])
        want, notes, magnitude = dense_values(op, f, kernel, config, vs, c)
        assert [r.note for r in rows] == notes, op
        if op == "MG":
            np.testing.assert_array_equal(got, want)
        else:
            # summation order moves a sum by rounding errors of its terms:
            # the scale is the largest sum of |terms| over the grid, which is
            # max |value| unless the terms cancel
            np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
            finite = np.isfinite(want)
            scale = float(np.max(magnitude[finite], initial=0.0))
            assert np.all(np.abs(got[finite] - want[finite]) <= SUM_RTOL * scale), op


def test_band_missing_the_interval_joins_zero():
    # far from J_w the compact band holds no index of J_w: the dense join over
    # J_w is one of zero kernel values, a degenerate denominator 0
    b3 = es.get_kernel("bspline3")
    config = SamplingConfig(w=8.0, interval=(1.0, math.e))
    rows = evaluate_on_grid("MG", es.get_function("one"), b3, config, [math.exp(-3.0), math.exp(0.5)])
    assert rows[0].note == "degenerate denominator 0" and math.isnan(rows[0].value)
    assert rows[1].value == pytest.approx(1.0, rel=1e-14) and rows[1].note == ""


def test_degenerate_error_carries_the_whole_active_set():
    b3 = es.get_kernel("bspline3")
    interval = SamplingConfig(w=8.0, interval=(1.0, math.e))
    samples = ExpSamples(8.0, {k: 1.0 for k in index_set(interval)})
    with pytest.raises(DegenerateDenominatorError) as err:
        max_product_series_on_grid(b3, samples, [math.exp(-3.0)], interval)
    assert err.value.index_set == list(range(0, 9))

    zero = es.Kernel("zero", lambda t: np.zeros_like(np.asarray(t, float)), 1.0, 0.0)
    window = SamplingConfig(w=2.0, window_half_width=5)
    samples = ExpSamples(2.0, {k: 1.0 for k in range(-10, 11)})
    with pytest.raises(DegenerateDenominatorError) as err:
        max_product_series_on_grid(zero, samples, [math.exp(0.3)], window)
    assert err.value.index_set == list(range(-4, 6))  # |k - 0.6| <= 5
