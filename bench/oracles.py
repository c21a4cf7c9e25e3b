"""Reference computations the benchmark checks the library against.

Nothing here calls the library's operators or kernels: the kernel profiles
are written out in closed form, the series are summed and joined point by
point over the whole kernel support, the Kantorovich cell means use the
benchmark's own Gauss-Legendre rule and interval-mode index sets are worked
out in exact integer arithmetic.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Relative tolerances.  Each is far below the 1e-9 relative nudge that the
# benchmark's tests require every oracle to reject, and far above the
# rounding differences between the library and these closed forms.
SUM_RTOL = 1e-11  # relative to the sum of |terms|: S, I and E
JOIN_RTOL = 1e-12  # relative to |value|: the max-product ratio
LAW_RTOL = 1e-12  # max-plus laws on seeded sample vectors
CONSTANT_RTOL = 1e-12  # eta and m0 against their closed forms

# exp(-x) is exactly 0.0 in double precision for x > ~745.13
_EXP_UNDERFLOW = 745.2


# --------------------------------------------------------------------------
# closed-form kernel profiles chi(e^t)
# --------------------------------------------------------------------------


def bspline3_profile(t):
    """Centered quadratic cardinal B-spline, piecewise in |t|."""
    a = np.abs(np.asarray(t, dtype=float))
    inner = 0.75 - a * a
    outer = 0.5 * np.square(1.5 - a)
    return np.where(a <= 0.5, inner, np.where(a <= 1.5, outer, 0.0))


class Profile:
    """A closed-form log-domain kernel profile with the radius of its support.

    `radius` bounds the set where the profile is nonzero in double
    precision, so a sum over |t| <= radius is a sum over the whole support.
    """

    def __init__(self, name: str, fn, radius: float):
        self.name = name
        self.fn = fn
        self.radius = radius

    def __call__(self, t):
        return self.fn(t)


def bspline3() -> Profile:
    return Profile("bspline3", bspline3_profile, 1.5)


def gaussian(a: float) -> Profile:
    """exp(-a t^2); it underflows to exactly 0 beyond sqrt(745.2 / a)."""
    return Profile(
        f"gaussian({a:g})",
        lambda t, _a=a: np.exp(-_a * np.square(np.asarray(t, dtype=float))),
        math.sqrt(_EXP_UNDERFLOW / a),
    )


# --------------------------------------------------------------------------
# lattice sums and joins at single points
# --------------------------------------------------------------------------


def _support(profile: Profile, w: float, v: float, window=None, index_range=None):
    """Lattice indices k with chi(e^{w v - k}) possibly nonzero.

    `window` intersects with |k - w v| <= window (window-mode truncation);
    `index_range` intersects with an interval-mode index set.
    """
    c = w * v
    lo = math.ceil(c - profile.radius)
    hi = math.floor(c + profile.radius)
    if window is not None:
        lo = max(lo, math.ceil(c - window))
        hi = min(hi, math.floor(c + window))
    if index_range is not None:
        lo = max(lo, index_range.start)
        hi = min(hi, index_range.stop - 1)
    return np.arange(lo, hi + 1)


def series_sum(profile, f_log, w, v, window=None):
    """(S value, sum of |terms|) of sum_k chi(e^{w v - k}) f(e^{k/w})."""
    ks = _support(profile, w, v, window)
    terms = profile(w * v - ks) * f_log(ks / w)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


@functools.lru_cache(maxsize=None)
def gauss_legendre(points):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(points)


def cell_means(f_log, ks, w, points):
    """w * integral of f(e^u) over [k/w, (k+1)/w] by a Gauss-Legendre rule."""
    nodes, weights = gauss_legendre(points)
    us = (ks[:, None] + 0.5 * (nodes[None, :] + 1.0)) / w
    return (f_log(us) * weights[None, :]).sum(axis=1) * 0.5


def kantorovich_sum(profile, f_log, w, v, points, window=None):
    """(I value, sum of |terms|) with cell means in place of point samples."""
    ks = _support(profile, w, v, window)
    terms = profile(w * v - ks) * cell_means(f_log, ks, w, points)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def max_product(profile, sample, w, v, window=None, index_range=None):
    """The max-product ratio of joins at one point.

    `sample(ks)` gives the sample values at lattice indices ks.  Indices
    where the kernel vanishes add a zero to both joins, which changes
    neither join for nonnegative samples, so the support suffices.
    """
    ks = _support(profile, w, v, window, index_range)
    chi = profile(w * v - ks)
    return float(np.max(chi * sample(ks)) / np.max(chi))


def max_product_interval(profile, values, w, vs, index_range):
    """Max-product ratios at the points vs over an interval-mode index set.

    `values[j]` is the sample at index index_range[j]; the joins run over
    the whole index set, so the kernel support is covered at every point.
    """
    ks = np.arange(index_range.start, index_range.stop)
    chi = profile(w * np.asarray(vs, dtype=float)[:, None] - ks[None, :])
    return np.max(chi * np.asarray(values)[None, :], axis=1) / np.max(chi, axis=1)


def classical_sum(f_log, c, T, v, window):
    """(E value, sum of |terms|) for the damped sinc series at rate T."""
    ks = np.arange(math.ceil(T * v - window), math.floor(T * v + window) + 1)
    s = T * v - ks
    terms = np.exp(-(c / T) * s) * np.sinc(s) * f_log(ks / T)
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


# --------------------------------------------------------------------------
# comparisons
# --------------------------------------------------------------------------


def close(value, reference, scale, rtol) -> bool:
    """|value - reference| <= rtol * scale, and both finite."""
    return (
        math.isfinite(value)
        and math.isfinite(reference)
        and abs(value - reference) <= rtol * abs(scale)
    )


def close_array(values, reference, scale, rtol):
    """Elementwise `close`."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    return (
        np.isfinite(values)
        & np.isfinite(reference)
        & (np.abs(values - reference) <= rtol * np.abs(scale))
    )


def interval_index_set(w: int, p_lo: int, p_hi: int, q: int = 1) -> range:
    """{k : p_lo/q <= k/w <= p_hi/q} for the interval [e^{p_lo/q}, e^{p_hi/q}].

    Exact integer arithmetic: ceil(w p_lo / q) .. floor(w p_hi / q).
    """
    return range(-((-w * p_lo) // q), (w * p_hi) // q + 1)
