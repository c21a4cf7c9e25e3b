"""The banded lattice core against the dense (n x K) lattice it replaced.

`dense_values` is the former grid evaluation kept as an oracle: every point
sees every index of one shared span, with the active set as a mask.  Joins
must agree exactly; sums only change their summation order.  `row_loop` is
the former per-row assembly of `evaluate_on_grid`, the oracle of its columns.
"""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import expsampling as es
from expsampling import DegenerateDenominatorError, ExpSamples, LogGrid, SamplingConfig
from expsampling.kernels import lin_kernel
from expsampling.operators import (
    _DENOMINATOR_FLOOR,
    _NONFINITE_NOTES,
    GridPoint,
    _as_log_values,
    _band,
    _cell_means,
    _damped_sinc,
    _from_samples,
    _geometry,
    _grid_values,
    _require_denominator,
    _series,
    default_half_width,
    evaluate_on_grid,
    index_set,
    max_product_series_on_grid,
)
from expsampling.spaces import _BLOCK_POINTS

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
    """Terms of E on the dense lattice.

    sin(pi s) at s = T v - k comes from the exact reduction of T v: with
    n = round(T v) and r = T v - n, it is (-1)^(n-k) sin(pi r).  A point with
    |r| <= 1e-12 max(1, |T v|) is the lattice node n.
    """
    ks = np.arange(math.ceil(T * float(np.min(vs)) - window), math.floor(T * float(np.max(vs)) + window) + 1)
    tv = T * vs[:, None]
    n = np.round(tv)
    r = tv - n
    s = tv - ks[None, :]
    sine = np.where((n - ks[None, :]) % 2 == 0, 1.0, -1.0) * np.sin(np.pi * r)
    lin = np.exp(-(c / T) * s) * sine / (np.pi * s)
    lin = np.where(np.abs(r) <= 1e-12 * np.maximum(1.0, np.abs(tv)), 1.0 * (ks[None, :] == n), lin)
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

    zero = es.Kernel("zero", lambda t: np.zeros_like(np.asarray(t, float)), 1.0)
    window = SamplingConfig(w=2.0, window_half_width=5)
    samples = ExpSamples(2.0, {k: 1.0 for k in range(-10, 11)})
    with pytest.raises(DegenerateDenominatorError) as err:
        max_product_series_on_grid(zero, samples, [math.exp(0.3)], window)
    assert err.value.index_set == list(range(-4, 6))  # |k - 0.6| <= 5


def row_loop(operator, f, kernel, config, grid, c=0.0):
    """The rows of `evaluate_on_grid`, built one by one with Python floats."""
    vs = _as_log_values(grid)
    values, notes = _grid_values(operator, f, kernel, config, vs, c)
    fx = np.asarray(f.evaluate_log(vs), dtype=float)
    rows = []
    for i, v in enumerate(vs):
        val = float(values[i])
        err = abs(val - float(fx[i])) if math.isfinite(val) and math.isfinite(fx[i]) else math.nan
        werr = err / (1.0 + v * v) if math.isfinite(err) else math.nan
        if not math.isfinite(val) and not notes[i]:
            notes[i] = "non-finite value"
        try:
            x = math.exp(v)
        except OverflowError:
            x = math.inf
        rows.append(GridPoint(x, float(v), val, err, werr, notes[i]))
    return rows


def bit_equal(a, b):
    """Equal bit for bit (so 0.0 and -0.0 differ), any NaN equal to any NaN."""
    if isinstance(a, str):
        return a == b
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def assert_rows_match(result, want):
    n = len(want)
    assert len(result) == n
    for rows in (list(result), [result[i] for i in range(n)], [result[i - n] for i in range(n)]):
        for got, ref in zip(rows, want):
            assert type(got) is GridPoint
            for field in ("x", "log_x", "value", "error_vs_f", "weighted_error", "note"):
                assert bit_equal(getattr(got, field), getattr(ref, field)), (field, got, ref)
    for column in ("x", "log_x", "value", "error_vs_f", "weighted_error"):
        got = getattr(result, column)
        assert got.dtype == np.float64 and not got.flags.writeable
        assert all(bit_equal(float(g), getattr(r, column)) for g, r in zip(got, want)), column
    assert result.notes == tuple(r.note for r in want)


@settings(max_examples=60, deadline=None)
@given(cases())
def test_columns_match_the_row_loop(case):
    kernel, config, grid, f, c = case
    for op in ("S", "I", "MG", "E"):
        assert_rows_match(evaluate_on_grid(op, f, kernel, config, grid, c=c), row_loop(op, f, kernel, config, grid, c))


ZERO_KERNEL = es.Kernel("zero", lambda t: np.zeros_like(np.asarray(t, float)), 1.0)


@pytest.mark.parametrize(
    "kernel, config, grid",
    [
        # degenerate denominators: a kernel that is zero everywhere
        (ZERO_KERNEL, SamplingConfig(w=2.0), LogGrid(-1, 1, 9)),
        # points far from J_w, and points whose x overflows
        (es.get_kernel("bspline3"), SamplingConfig(w=8.0, interval=(1.0, math.e)), LogGrid(-3.0, 1.0, 17)),
        (es.get_kernel("gauss1"), SamplingConfig(w=8.0), LogGrid(708.0, 712.0, 9)),
    ],
)
def test_columns_match_the_row_loop_on_fixed_cases(kernel, config, grid):
    for name in ("one", "log", "weight"):
        f = es.get_function(name)
        for op in ("S", "I", "MG", "E"):
            assert_rows_match(evaluate_on_grid(op, f, kernel, config, grid), row_loop(op, f, kernel, config, grid))


def mg_weight(grid):
    return evaluate_on_grid("MG", es.get_function("weight"), es.get_kernel("bspline3"), SamplingConfig(w=8.0), grid)


def test_rows_are_a_read_only_sequence():
    rows = mg_weight(LogGrid(-1, 1, 5))
    assert rows[-1] == rows[4] and rows[1:3] == [rows[1], rows[2]]
    assert list(reversed(rows)) == list(rows)[::-1]
    with pytest.raises(IndexError):
        rows[5]
    with pytest.raises(ValueError):
        rows.value[0] = 0.0
    with pytest.raises(AttributeError):
        rows.value = np.zeros(5)


def test_rows_are_grid_points_kept_after_the_first_read():
    rows = mg_weight(LogGrid(-1, 1, 5))
    last = rows[-1]
    kept = list(rows)
    assert kept[-1] is last and all(a is b for a, b in zip(rows, kept))
    for row in kept:
        built = GridPoint(row.x, row.log_x, row.value, row.error_vs_f, row.weighted_error, row.note)
        assert type(row) is GridPoint and dataclasses.astuple(row) == dataclasses.astuple(built)
        assert row == built and hash(row) == hash(built) and repr(row) == repr(built)
    moved = dataclasses.replace(last, value=2.0)
    assert type(moved) is GridPoint and (moved.value, moved.x) == (2.0, last.x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        last.value = 1.0


def test_x_overflows_to_inf_and_keeps_log_x_and_value():
    rows = mg_weight(LogGrid(709.0, 711.0, 3))
    assert rows.x[0] == math.exp(709.0) and list(rows.x[1:]) == [math.inf, math.inf]
    assert list(rows.log_x) == [709.0, 710.0, 711.0]
    assert np.all(np.isfinite(rows.value)) and rows.notes == ("", "", "")
    largest = math.log(np.finfo(float).max)  # the largest log x whose x is finite
    rows = mg_weight(LogGrid(largest, math.nextafter(largest, math.inf), 2))
    assert list(rows.x) == [math.exp(largest), math.inf] and math.isfinite(rows.x[0])


@pytest.mark.parametrize(
    "config, width",
    [
        (SamplingConfig(w=128.0), 60),  # h = ceil(27.3 + 1) = 29: 2h + 2 columns, not the window's 130
        (SamplingConfig(w=128.0, window_half_width=3), 8),  # the window is narrower: unchanged
        (SamplingConfig(w=8.0, interval=(1.0, math.e)), 9),  # |J_w| = 9 < 60: all of J_w, unchanged
    ],
)
def test_gaussian_band_follows_its_zero_radius(config, width):
    first, chi, mask, _ = _band(es.get_kernel("gauss1"), config, np.linspace(-0.25, 0.25, 7))
    assert chi.shape == (7, width)
    if width == 60:  # the band ends in zero-kernel columns inside the active set
        assert np.all(chi[:, [0, -1]] == 0.0) and np.all(mask[:, [0, -1]])


# --------------------------------------------------------------------------
# row blocks: the unblocked band of the former `_series` as the oracle
# --------------------------------------------------------------------------


def oracle_band(kernel, config, vs, damping=None):
    """The former `_band`, all rows at once, verbatim."""
    c = config.w * vs[:, None]
    r = kernel.log_support_radius
    if config.interval is not None:
        active, half = index_set(config), None
    else:
        half = config.window_half_width or default_half_width(kernel, config.w)
        active = range(math.ceil(float(c.min()) - half), math.floor(float(c.max()) + half) + 1)
    z = kernel.zero_radius
    if r is None and z is not None:
        h = math.ceil(z + 1)
        if (h + 1 <= half) if half is not None else (2 * h + 2 < len(active)):
            r = z
    if r is None and half is None:
        first, width = np.full(len(vs), active.start), len(active)
    else:
        h = math.ceil(half if r is None else r + 1)
        first, width = np.floor(c[:, 0]).astype(np.int64) - h, 2 * h + 2
        if half is None:  # a band that would miss J_w moves to touch its nearest end
            first = np.minimum(np.maximum(first, active.start - width + 1), active.stop - 1)
    cols = np.arange(width)
    t = c - (first[:, None] + cols)
    if half is None:
        mask = (cols >= active.start - first[:, None]) & (cols < active.stop - first[:, None])
    else:
        mask = np.abs(t) <= half
    chi = kernel.log_profile(t) if damping is None else _damped_sinc(c[:, 0], first, t, damping)
    return first, chi, mask, active


def oracle_series(operator, kernel, config, vs, values_of, damping=None):
    """The former unblocked `_series`, verbatim: (values, den, unseen, first), unseen (n, width)."""
    first, chi, mask, active = oracle_band(kernel, config, vs, damping)
    lo, hi, width = int(first.min()), int(first.max()), chi.shape[1]
    span = np.zeros(hi - lo + width)
    k0, k1 = max(lo, active.start), min(hi + width, active.stop)
    span[k0 - lo : k1 - lo] = values_of(k0, k1)
    windows = np.ndarray((hi - lo + 1, width), float, span, 0, span.strides * 2)  # row i: span[i : i + width]
    fv = windows[first - lo] if hi > lo else span[None, :]
    bad = ~np.isfinite(fv)
    unseen = mask & bad & ((chi != 0.0) | (operator == "E")) if bad.any() else np.zeros_like(mask)
    fv[bad] = 0.0
    if operator == "MG":
        return oracle_join(chi * fv, mask), oracle_join(chi, mask), unseen, first
    terms = chi * fv
    terms[~mask] = 0.0
    return terms.sum(axis=1), None, unseen, first


def oracle_join(vals, mask):
    return np.where(mask, vals, -np.inf).max(axis=-1) + 0.0


def oracle_from_samples(operator, kernel, samples, vs, config):
    """The former `_from_samples` over the unblocked band, verbatim."""
    vals, k_min = samples.value_array, samples.k_min

    def lookup(k0, k1):  # NaN where no sample is given
        out = np.full(k1 - k0, np.nan)
        a = max(k0, k_min)
        b = max(a, min(k1, k_min + len(vals)))
        out[a - k0 : b - k0] = vals[a - k_min : b - k_min]
        return out

    values, den, unseen, first = oracle_series(operator, kernel, config, vs, lookup)
    if unseen.any():
        i, j = np.argwhere(unseen)[0]
        k = int(first[i] + j)
        raise es.EvaluationError(f"samples do not cover required lattice index k={k}", where=k)
    if den is not None:
        _require_denominator(kernel, config, vs, den)
    return values, den


def oracle_grid_values(operator, f, kernel, config, vs, c=0.0):
    """The former `_grid_values` over the unblocked band, verbatim."""
    if not math.isfinite(c):
        raise es.ConfigurationError(f"damping exponent c must be finite, got {c!r}")
    damping = None
    if operator == "E":
        kernel, damping = lin_kernel(c / config.w), c / config.w
        config = config if config.interval is None else dataclasses.replace(config, interval=None)
    w, points = config.w, config.quadrature_points

    def values_of(k0, k1):
        k = np.arange(k0, k1)
        return _cell_means(f, k, w, points) if operator == "I" else f.evaluate_log(k / w)

    values, den, unseen, _ = oracle_series(operator, kernel, config, vs, values_of, damping)
    notes = [""] * len(vs)
    if den is not None:
        ok = den > _DENOMINATOR_FLOOR
        values = np.where(ok, values / np.where(ok, den, 1.0), np.nan)
        for i in np.nonzero(~ok)[0]:
            notes[i] = f"degenerate denominator {den[i]:.3g}"
    failed = unseen.any(axis=1)
    if operator in ("I", "E"):
        failed |= ~np.isfinite(values)
    values[failed] = np.nan
    for i in np.nonzero(failed)[0]:
        notes[i] = _NONFINITE_NOTES.get(operator, "non-finite sample in active window")
    return values, notes


def same_bits(a, b):
    return (a is None and b is None) or (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())


def band_inputs(operator, f, kernel, config, c):
    """(kernel, config, values_of, damping) as `_grid_values` hands them to `_series`."""
    damping = None
    if operator == "E":
        kernel, damping = lin_kernel(c / config.w), c / config.w
        config = config if config.interval is None else dataclasses.replace(config, interval=None)
    w, points = config.w, config.quadrature_points

    def values_of(k0, k1):
        k = np.arange(k0, k1)
        return _cell_means(f, k, w, points) if operator == "I" else f.evaluate_log(k / w)

    return kernel, config, values_of, damping


def rows_per_block(operator, kernel, config, c=0.0):
    kernel, config, _, _ = band_inputs(operator, None, kernel, config, c)
    return max(1, _BLOCK_POINTS // _geometry(kernel, config, np.array([0.0]))[1])


def assert_blocks_match_the_oracle(operator, f, kernel, config, vs, c=0.0):
    kernel_b, config_b, values_of, damping = band_inputs(operator, f, kernel, config, c)
    values, den, unseen = _series(operator, kernel_b, config_b, vs, values_of, damping)
    want_values, want_den, want_unseen, first = oracle_series(operator, kernel_b, config_b, vs, values_of, damping)
    assert same_bits(values, want_values) and same_bits(den, want_den), operator
    hit = want_unseen.any(axis=1)
    assert unseen == {int(i): int(first[i] + want_unseen[i].argmax()) for i in np.nonzero(hit)[0]}, operator
    assert list(unseen) == sorted(unseen)  # row order, so the first entry is the first unseen (row, column)
    got, got_notes = _grid_values(operator, f, kernel, config, vs, c)
    want, want_notes = oracle_grid_values(operator, f, kernel, config, vs, c)
    assert same_bits(got, want) and got_notes == want_notes, operator
    return want_notes


# (kernel, config, log range of the grid, start of a NaN hole in f) in
# window, pinned-window and interval mode; zero-radius and all-of-J_w bands
BLOCK_CASES = [
    ("bspline3", SamplingConfig(w=8.0), (-1.0, 1.0), 0.8),
    ("gauss1", SamplingConfig(w=8.0), (-1.0, 1.0), 0.8),
    ("gauss1", SamplingConfig(w=16.0, window_half_width=5), (-1.0, 1.0), 0.8),
    ("linc0", SamplingConfig(w=8.0, window_half_width=3), (-1.0, 1.0), 0.8),
    ("bspline3", SamplingConfig(w=8.0, interval=(0.5, 2.0)), (-0.3, 1.5), 0.6),
    ("gauss1", SamplingConfig(w=8.0, interval=(0.5, 2.0)), (-0.3, 1.5), 0.6),
    ("bspline3", SamplingConfig(w=8.0, interval=(math.exp(0.25), math.exp(2.0))), (0.65, 1.2), 1.0),  # bands inside J_w
    ("gauss05", SamplingConfig(w=8.0, interval=(math.exp(-10.0), math.exp(10.0))), (-11.0, 12.0), 9.0),
]


@pytest.mark.parametrize("kernel_name, config, span, hole", BLOCK_CASES)
@pytest.mark.parametrize("operator", ("S", "I", "MG", "E"))
def test_row_blocks_match_the_unblocked_band(kernel_name, config, span, hole, operator):
    kernel, c = es.get_kernel(kernel_name), 0.3
    rows = rows_per_block(operator, kernel, config, c)
    f = signed_function(1.5, 7.0, 0.4, 0.2, hole, config.w)
    for n in (rows - 1, rows, rows + 1, 3 * rows):
        assert_blocks_match_the_oracle(operator, f, kernel, config, LogGrid(*span, n).log_values(), c)


@pytest.mark.parametrize("operator", ("S", "I", "MG", "E"))
def test_a_non_finite_sample_seen_only_by_a_later_block(operator):
    # E's window reaches 64 / 8 = 8 in log x: the grid's first sixth, below -9.8, never sees the hole
    kernel, config = es.get_kernel("bspline3"), SamplingConfig(w=8.0)
    rows = rows_per_block(operator, kernel, config)
    f = signed_function(1.5, 7.0, 0.4, 0.2, 0.8, 8.0)
    notes = assert_blocks_match_the_oracle(operator, f, kernel, config, LogGrid(-12.0, 1.0, 3 * rows).log_values())
    assert not any(notes[: rows // 2]) and any(notes[rows:])


@pytest.mark.parametrize("operator", ("S", "I", "MG"))
def test_degenerate_and_interval_end_rows_in_a_later_block(operator):
    # rows past log b = 0.69 by more than the band join zero kernel values only
    kernel, config = es.get_kernel("bspline3"), SamplingConfig(w=8.0, interval=(0.5, 2.0))
    rows = rows_per_block(operator, kernel, config)
    vs = LogGrid(-0.3, 1.5, 3 * rows).log_values()
    notes = assert_blocks_match_the_oracle(operator, es.get_function("weight"), kernel, config, vs)
    assert vs[rows] < math.log(2.0) and not any(notes[:rows])
    if operator == "MG":
        assert notes[-1] == "degenerate denominator 0"


@pytest.mark.parametrize("operator", ("S", "I", "MG", "E"))
def test_a_band_wider_than_a_block_takes_one_row_a_block(operator):
    kernel = es.get_kernel("linc0")
    configs = [SamplingConfig(w=8.0, window_half_width=10000)]  # 20,002 columns a row
    if operator != "E":  # E takes a window in interval mode too
        configs.append(SamplingConfig(w=10000.0, interval=(math.exp(-1.0), math.e)))  # all of J_w, 20,001 columns
    for config in configs:
        assert rows_per_block(operator, kernel, config) == 1
        f = signed_function(1.0, 3.0, 0.1, 0.5, 0.3, config.w)
        assert_blocks_match_the_oracle(operator, f, kernel, config, LogGrid(-0.5, 0.5, 5).log_values())


@pytest.mark.parametrize(
    "kernel_name, config",
    [
        ("bspline3", SamplingConfig(w=8.0)),
        ("gauss1", SamplingConfig(w=8.0, window_half_width=4)),
        ("bspline3", SamplingConfig(w=8.0, interval=(0.5, 2.0))),
    ],
)
@pytest.mark.parametrize("operator", ("S", "MG"))
def test_row_blocks_raise_like_the_unblocked_band(kernel_name, config, operator):
    # samples end at k = 6, and J_w at k = 5: on the 3-block grid the first
    # row that misses a sample, or whose MG join is degenerate, is past the first block
    kernel = es.get_kernel(kernel_name)
    samples = ExpSamples(8.0, {k: math.cos(k) + 1.5 for k in range(-40, 7)})
    rows = rows_per_block(operator, kernel, config)
    for n in (rows - 1, rows, rows + 1, 3 * rows):
        vs = LogGrid(-0.5, 1.2, n).log_values()
        outcomes = []
        for run in (_from_samples, oracle_from_samples):
            try:
                outcomes.append(run(operator, kernel, samples, vs, config))
            except es.ExpSamplingError as exc:
                outcomes.append((type(exc), str(exc), exc.args))
        got, want = outcomes
        if isinstance(want[0], type):
            assert got == want
        else:
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
            assert operator == "S" and config.interval is not None  # every other case raises


@pytest.mark.parametrize(
    "kernel_name, config, grid",
    [
        ("gauss1", SamplingConfig(w=8.0), LogGrid(-2.0, 2.0, 32769)),  # the unblocked band held 69.6 MB
        ("linc0", SamplingConfig(w=4000.0, interval=(0.5, 2.0)), LogGrid(-0.6, 0.6, 257)),  # 82.7 MB
    ],
)
def test_row_blocks_keep_memory_small(kernel_name, config, grid):
    kernel, f = es.get_kernel(kernel_name), es.get_function("weight")
    tracemalloc.start()
    try:
        evaluate_on_grid("MG", f, kernel, config, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
