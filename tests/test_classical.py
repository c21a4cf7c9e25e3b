"""The classical series E: one sine per row, and the per-row lattice-node rule.

`classical_profile` is the former E kernel, kept as an oracle: lin_kernel on
offsets t = c - k, each snapped to an integer on its own within
1e-12 max(1, |t|).  Its reduced argument t - round(t) carries the rounding of
t = c - k, so it agrees with E only to that rounding.  The mpmath reference
sums the series exactly at the float c.
"""

import math

import mpmath
import numpy as np
import pytest

import expsampling as es
from expsampling import SamplingConfig
from expsampling.kernels import lin_kernel
from expsampling.operators import _band, _grid_values, evaluate_on_grid

EPS = np.finfo(float).eps
NONFINITE_NOTE = "non-finite term in classical series window"


def classical_profile(damping):
    """The former E profile: lin_kernel(damping) on offsets snapped to integers one by one."""
    lin = lin_kernel(damping)

    def profile(t):
        n = np.round(t)
        return lin.log_profile(np.where(np.abs(t - n) <= 1e-12 * np.maximum(1.0, np.abs(t)), n, t))

    return profile


def hashed(w):
    """Signed samples f(e^{k/w}) = ((7919 k) mod 13 - 6) / 5, computed exactly alike anywhere.

    w must be a power of two, so that k/w and (k/w) w = k are exact.
    """
    return es.WeightedFunction("hashed", lambda x: math.nan, log_evaluate=lambda v: ((np.asarray(v) * w * 7919) % 13 - 6) / 5)


def e_values(w, window, c, cs):
    """E at the rows cs = w log x, with w a power of two so that w (cs / w) = cs."""
    cs = np.asarray(cs, dtype=float)
    values, notes = _grid_values("E", hashed(w), None, SamplingConfig(w=w, window_half_width=window), cs / w, c)
    return values, notes


def on_node(cv):
    n = round(cv)
    return abs(cv - n) <= 1e-12 * max(1.0, abs(cv))


def mp_reference(w, window, c, cv):
    """(E, sum of |terms|) at the row cv, by a 40-digit sum; a row on a node is its sample."""
    ks = np.arange(math.ceil(cv - window), math.floor(cv + window) + 1)
    ks = ks[np.abs(cv - ks) <= window]
    samples = hashed(w).evaluate_log(ks / w)
    if on_node(cv):
        sample = float(samples[ks == round(cv)][0])
        return sample, abs(sample)
    damping = mpmath.mpf(c / w)
    total = magnitude = mpmath.mpf(0)
    with mpmath.workdps(40):
        for k, fk in zip(ks.tolist(), samples.tolist()):
            t = mpmath.mpf(cv) - k
            term = mpmath.exp(-damping * t) * mpmath.sin(mpmath.pi * t) / (mpmath.pi * t) * fk
            total += term
            magnitude += abs(term)
    return float(total), float(magnitude)


def mp_cases():
    rows = []
    for n in (0.0, 3.0, -17.0, 1000.0, -123456.0):
        tol = 1e-12 * max(1.0, abs(n))
        for r in (1e-3, 1e-6, 0.4999, 0.99 * tol, 1.01 * tol):
            rows += [n + r, n - r]
    return rows


@pytest.mark.parametrize("w, window, c", [(1.0, 64, 0.0), (8.0, 64, 0.3), (128.0, 1, 0.0), (0.5, 1, 1.0), (4.0, 7, -0.7)])
def test_classical_series_matches_mpmath(w, window, c):
    cs = mp_cases()
    got, notes = e_values(w, window, c, cs)
    assert notes == [""] * len(cs)
    for cv, value in zip(cs, got.tolist()):
        ref, magnitude = mp_reference(w, window, c, cv)
        if on_node(cv):
            assert value == ref, cv  # the sample at the node, exactly
        else:
            assert abs(value - ref) <= 1e-14 * magnitude, (cv, value, ref)


def test_snap_tolerance_is_one_rule_per_row():
    # just inside the tolerance the row is the sample at n; just outside it is
    # the full sum, which differs from that sample by about r times the samples
    for n in (2.0, -40.0, 5000.0):
        tol = 1e-12 * max(1.0, abs(n))
        inside, outside = n + 0.99 * tol, n + 1.01 * tol
        (a, b), _ = e_values(1.0, 64, 0.0, [inside, outside])
        assert a == hashed(1.0).evaluate_log(np.array([n]))[0]
        assert a != b and abs(a - b) < 1e-6


def test_band_values_match_the_former_profile():
    rng = np.random.default_rng(3)
    for w, window, c in ((1.0, 64, 0.0), (8.0, 16, 0.4), (128.0, 64, 0.2)):
        vs = np.concatenate([rng.uniform(-3.0, 3.0, 40), np.arange(-4, 5) / w])
        first, chi, mask, _ = _band(lin_kernel(c / w), SamplingConfig(w=w, window_half_width=window), vs, c / w)
        cs = w * vs[:, None]
        t = cs - (first[:, None] + np.arange(chi.shape[1]))
        want = classical_profile(c / w)(t)
        r = np.abs(cs - np.round(cs))
        # the former path reduces t, which carries the rounding of c - k
        tol = 8 * EPS * (1.0 + np.abs(t) + np.abs(cs)) / np.maximum(r, 1e-300) * np.abs(want) + 1e-300
        nodes = (r <= 1e-12 * np.maximum(1.0, np.abs(cs)))[:, 0]
        np.testing.assert_array_equal(chi[nodes], want[nodes])
        assert nodes.sum() == 9
        assert np.all(np.abs(chi[~nodes] - want[~nodes]) <= tol[~nodes])


def test_lattice_points_reproduce_the_samples_exactly():
    # criterion 10 at rates and nodes beyond its own, with damping
    for name in ("damped_log2", "weight", "log"):
        f = es.get_function(name)
        for T in (1.0, 2.0, 8.0, 128.0):
            ms = np.array([-300, -7, -1, 0, 1, 5, 299])
            rows = evaluate_on_grid("E", f, None, SamplingConfig(w=T, window_half_width=50), np.exp(ms / T), c=0.7)
            np.testing.assert_array_equal(rows.value, f.evaluate_log(ms / T))


def former_rows(f, c, w, vs, window):
    """NaN rows and notes of E by the former profile on the dense lattice."""
    ks = np.arange(math.ceil(w * vs.min() - window), math.floor(w * vs.max() + window) + 1)
    t = w * vs[:, None] - ks
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(np.abs(t) <= window, classical_profile(c / w)(t) * f.evaluate_log(ks / w), 0.0)
        bad = ~np.isfinite(terms.sum(axis=1))
    return bad, [NONFINITE_NOTE if b else "" for b in bad]


def test_overflowing_damping_gives_the_former_nan_rows():
    # e^{-c/w t} overflows on the rows whose window reaches t < -709.78 w/c:
    # those with frac(w log x) < 0.5 at this c; rows on nodes take no damping
    w, window, c = 1.0, 64, 709.78 / 63.5
    vs = np.concatenate([np.linspace(-2.0, 2.0, 41), [-1.0, 0.0, 3.0]])
    f = es.get_function("weight")
    rows = evaluate_on_grid("E", f, None, SamplingConfig(w=w, window_half_width=window), np.exp(vs), c=c)
    bad, notes = former_rows(f, c, w, rows.log_x, window)
    assert 0 < bad.sum() < len(vs)
    np.testing.assert_array_equal(np.isnan(rows.value), bad)
    assert list(rows.notes) == notes


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_damping_is_a_configuration_error(c):
    one = es.get_function("one")
    with pytest.raises(es.ConfigurationError, match="c must be finite"):
        es.classical_exponential_formula(one, c, 1.0, 1.5, 10)
    for op in ("S", "E"):
        with pytest.raises(es.ConfigurationError, match="c must be finite"):
            evaluate_on_grid(op, one, es.get_kernel("bspline3"), SamplingConfig(w=4.0), [1.0, 2.0], c=c)
