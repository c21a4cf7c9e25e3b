"""The four exponential sampling operators with explicit truncation policies.

All operators consume samples on the exponential lattice e^{k/w} and evaluate
in the log domain, where the kernel argument chi(e^{-k} x^w) becomes the
lattice offset w log x - k.  Two domain modes exist:

* interval mode: a compact [a, b] fixes the index set J_w = {ceil(w log a),
  ..., floor(w log b)}, the same set at every evaluation point;
* window mode: the index set is a truncation window |k - w log x| <= W around
  the evaluation point, approximating the bi-infinite lattice.

The index set bounds which samples an operator may use; the work per point
scales with the kernel's support, or, for a kernel such as the Gaussian whose
profile is exactly 0.0 beyond a zero radius, with that radius.  Every
operator reduces over one lattice band per point, masked by the index set:
S, I and E by sums, MG by joins.  The bands are built and reduced in blocks
of rows holding about `_BLOCK_POINTS` entries (one row at least), so memory
grows with the block, not with the number of points times the band width;
the samples still span all active sets at once.  E's damped sinc takes one
sine per point, from the exact reduction r = w log x - n, n = round(w log x);
a point with |r| <= 1e-12 max(1, |w log x|) is the lattice node n.  Grid
evaluation returns its results as columns, with the rows built when a caller
first reads them.

In window mode the truncated join/sum of a compactly supported kernel is
exact; for the rest it omits the kernel's tail beyond the window.

Configurations and sample sets are immutable after construction; operator
evaluation is pure, so concurrent use is safe and results are deterministic.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateDenominatorError,
    EvaluationError,
)
from .kernels import Kernel, lin_kernel
from .spaces import _BLOCK_POINTS, LogGrid, WeightedFunction

__all__ = [
    "SamplingConfig",
    "ExpSamples",
    "GridPoint",
    "GridResult",
    "index_set",
    "take_samples",
    "default_half_width",
    "max_product_series",
    "max_product_series_on_grid",
    "generalized_series",
    "kantorovich_series",
    "classical_exponential_formula",
    "evaluate_on_grid",
    "OPERATOR_TAGS",
]

_DENOMINATOR_FLOOR = 1e-300
_NONCOMPACT_HALF_WIDTH = 64
_MAX_QUAD_POINTS = 256  # leggauss builds a points x points matrix
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows beyond it


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling rate, domain mode and truncation/quadrature policy.

    `interval` switches on interval mode; `window_half_width` pins the
    truncation half-width in window mode (None defers to the per-kernel
    default, see `default_half_width`).  `quadrature_points` is the number of
    Gauss-Legendre nodes per lattice cell in the Kantorovich series (1..256).
    """

    w: float
    interval: Optional[tuple[float, float]] = None
    window_half_width: Optional[int] = None
    quadrature_points: int = 8

    def __post_init__(self):
        if not 0.0 < self.w < math.inf:
            raise ConfigurationError(f"sampling rate w must be positive and finite, got {self.w!r}")
        if self.interval is not None:
            a, b = self.interval
            if not 0.0 < a < b < math.inf:
                raise ConfigurationError(f"interval must satisfy 0 < a < b < inf, got {self.interval!r}")
            if not _index_range(self.w, a, b):
                raise ConfigurationError(
                    f"empty index set for interval {self.interval!r} at w={self.w:g}; "
                    "need w >= 1/(log b - log a)"
                )
        if self.window_half_width is not None and self.window_half_width < 1:
            raise ConfigurationError("window_half_width must be a positive integer")
        if not 1 <= self.quadrature_points <= _MAX_QUAD_POINTS:
            raise ConfigurationError(f"quadrature_points must be in 1..{_MAX_QUAD_POINTS}, "
                                     f"got {self.quadrature_points!r}")


def _snap_to_integers(s: np.ndarray) -> np.ndarray:
    n = np.round(s)
    return np.where(np.abs(s - n) <= 1e-12 * np.maximum(1.0, np.abs(s)), n, s)


@lru_cache(maxsize=256)
def _index_range(w: float, a: float, b: float) -> range:
    lo, hi = _snap_to_integers(np.array([w * math.log(a), w * math.log(b)]))
    return range(math.ceil(lo), math.floor(hi) + 1)


def index_set(config: SamplingConfig) -> range:
    """J_w = {ceil(w log a), ..., floor(w log b)} for interval mode.

    w log a and w log b are first snapped to an integer within 1e-12
    relative, so an endpoint e^{m/w} keeps its lattice node m.
    """
    if config.interval is None:
        raise ConfigurationError("index_set requires a config with an interval")
    return _index_range(config.w, *config.interval)


def default_half_width(kernel: Kernel, w: float) -> int:
    """Default truncation half-width: exact for compact supports, 64 otherwise."""
    r = kernel.log_support_radius
    return int(math.ceil(r * w)) + 2 if r is not None else _NONCOMPACT_HALF_WIDTH


@dataclass(frozen=True)
class ExpSamples:
    """Sample values f(e^{k/w}) on a contiguous range of lattice indices."""

    w: float
    entries: Mapping[int, float]

    def __post_init__(self):
        if not 0.0 < self.w < math.inf:
            raise ConfigurationError(f"sample rate w must be positive and finite, got {self.w!r}")
        if not self.entries:
            raise ConfigurationError("ExpSamples requires at least one entry")
        ks = sorted(self.entries)
        if ks != list(range(ks[0], ks[-1] + 1)):
            raise ConfigurationError("sample keys must form a contiguous integer range")
        for k in ks:
            if not math.isfinite(self.entries[k]):
                raise EvaluationError(f"non-finite sample at k={k}", where=k)

    @cached_property
    def k_min(self) -> int:
        return min(self.entries)

    @cached_property
    def value_array(self) -> np.ndarray:
        ks = sorted(self.entries)
        return np.array([self.entries[k] for k in ks], dtype=float)


def take_samples(f: WeightedFunction, config: SamplingConfig, center_log: float = 0.0) -> ExpSamples:
    """Materialise f(e^{k/w}) over J_w or over |k - w center_log| <= half-width."""
    if config.interval is not None:
        j = index_set(config)
        ks = np.arange(j.start, j.stop)
    else:
        if config.window_half_width is None:
            raise ConfigurationError("window-mode sampling requires window_half_width")
        _, lo, hi = _window(None, config, center_log)
        ks = np.arange(lo, hi + 1)
    vals = np.asarray(f.evaluate_log(ks / config.w), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(ks[bad][0])
        raise EvaluationError(f"'{f.name}' non-finite at sample k={k}", where=k)
    return ExpSamples(config.w, dict(zip((int(k) for k in ks), vals.tolist())))


# --------------------------------------------------------------------------
# the banded lattice every operator reduces over
# --------------------------------------------------------------------------


def _geometry(kernel: Kernel, config: SamplingConfig, vs: np.ndarray):
    """(first, width, half, active, full): row i holds k = first[i] + j, j < width.

    The row is floor(w vs[i]) - h ... floor(w vs[i]) + h + 1, h = ceil(R) + 1
    for a kernel vanishing beyond offset R: it ends in zero-kernel columns, so
    a join over it sees a zero wherever the whole active set has one.  A
    kernel's zero radius counts as R where that band is narrower and still
    ends inside the active set: h + 1 <= the window half-width, or
    2h + 2 < |J_w|.  Other kernels take the window, or all of J_w.  `half` is
    the window half-width (None in interval mode), `active` spans all active
    sets, and `full` says that every band column is active.  No band is built.
    """
    c = config.w * vs
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
        return np.full(len(vs), active.start), len(active), half, active, True
    h = math.ceil(half if r is None else r + 1)
    first, width = np.floor(c).astype(np.int64) - h, 2 * h + 2
    if half is not None:  # a window row spans |w vs[i] - k| < h + 1
        return first, width, half, active, h + 1 <= half
    # a band that would miss J_w moves to touch its nearest end
    first = np.minimum(np.maximum(first, active.start - width + 1), active.stop - 1)
    return first, width, half, active, bool(first.min() >= active.start and first.max() + width <= active.stop)


def _values(kernel: Kernel, c: np.ndarray, first: np.ndarray, width, half, active, full, damping=None):
    """chi[i, j] = chi(e^{c[i] - k}), k = first[i] + j, or E's damped sinc at `damping`, and the
    active-set mask (None when `full`) on the band rows at c = w vs; see `_geometry`."""
    t = first.astype(float)[:, None] + np.arange(width, dtype=float)
    np.subtract(c[:, None], t, out=t)
    if full:
        mask = None
    elif half is None:
        cols = np.arange(width)
        mask = (cols >= active.start - first[:, None]) & (cols < active.stop - first[:, None])
    else:
        mask = np.abs(t) <= half
    chi = kernel.log_profile(t) if damping is None else _damped_sinc(c, first, t, damping)
    return chi, mask


def _band(kernel: Kernel, config: SamplingConfig, vs: np.ndarray, damping=None):
    """(first, chi, mask, active) of all rows at vs at once; see `_geometry` and `_values`."""
    first, width, half, active, full = _geometry(kernel, config, vs)
    chi, mask = _values(kernel, config.w * vs, first, width, half, active, full, damping)
    return first, chi, np.ones(chi.shape, bool) if mask is None else mask, active


def _damped_sinc(c: np.ndarray, first: np.ndarray, t: np.ndarray, damping: float) -> np.ndarray:
    """e^{-damping t} sin(pi t)/(pi t) on the rows t = c[i] - k, k = first[i] + j.

    With n = round(c) and r = c - n, both exact, sin(pi t) = (-1)^(n-k) sin(pi r).
    A row with |r| <= 1e-12 max(1, |c|) is on node n: 1 at k = n, where t = r, else 0.
    """
    n = np.round(c)
    r = c - n
    sign = 1.0 - 2.0 * ((n.astype(np.int64) - first) & 1)
    alternate = 1.0 - 2.0 * (np.arange(t.shape[1]) & 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        chi = np.divide((sign * np.sin(np.pi * r))[:, None], np.pi * alternate * t)
        u = -damping * t
        chi *= np.exp(u, out=u)
    on_node = np.abs(r) <= 1e-12 * np.maximum(1.0, np.abs(c))
    chi[on_node] = t[on_node] == r[on_node, None]
    return chi


def _series(operator: str, kernel: Kernel, config: SamplingConfig, vs: np.ndarray, values_of, damping=None):
    """(values, den, unseen) of one operator over the band at vs.

    values_of(k0, k1) gives the samples (cell means for "I") at k0 <= k < k1,
    the active span; entries outside it are never active and read 0.
    `unseen` maps a row to its first active index whose sample is non-finite
    under a nonzero kernel value (any value for "E": sinc zeros do not mask
    them), in row order; such samples reduce as 0.  MG returns its numerator
    and denominator joins.  The rows go in blocks of about `_BLOCK_POINTS`
    band entries, and no row's result depends on its block.
    """
    first, width, half, active, full = _geometry(kernel, config, vs)
    lo, hi = int(first.min()), int(first.max())
    span = np.zeros(hi - lo + width)
    k0, k1 = max(lo, active.start), min(hi + width, active.stop)
    span[k0 - lo : k1 - lo] = values_of(k0, k1)
    finite = bool(np.isfinite(span).all())  # then no block needs its own test
    windows = np.ndarray((hi - lo + 1, width), float, span, 0, span.strides * 2)  # row i: span[i : i + width]
    c, n, step = config.w * vs, len(vs), max(1, _BLOCK_POINTS // width)
    values, den, unseen = np.empty(n), np.empty(n) if operator == "MG" else None, {}
    for b in range(0, n, step):
        rows = slice(b, b + step)
        chi, mask = _values(kernel, c[rows], first[rows], width, half, active, full, damping)
        fv = windows[first[rows] - lo] if hi > lo else span[None, :]
        if not finite and (bad := ~np.isfinite(fv)).any():
            hit = bad & ((chi != 0.0) | (operator == "E")) & (True if mask is None else mask)
            for i in np.nonzero(hit.any(axis=1))[0]:
                unseen[b + i] = int(first[b + i]) + int(hit[i].argmax())
            fv = np.where(bad, 0.0, fv)
        if operator == "MG":
            den[rows] = _join(chi, mask)
        chi *= fv
        if operator != "MG" and mask is not None:
            chi[~mask] = 0.0
        values[rows] = _join(chi, mask) if operator == "MG" else chi.sum(axis=1)
        del chi, mask, fv  # freed before the next block is built
    return values, den, unseen


def _join(vals: np.ndarray, mask: Optional[np.ndarray], axis: int = -1) -> np.ndarray:
    """Max of vals along `axis` over the active set (all of it where mask is None); a zero join reads +0."""
    return (vals if mask is None else np.where(mask, vals, -np.inf)).max(axis=axis) + 0.0


def _as_log_values(grid: Union[LogGrid, Sequence[float]]) -> np.ndarray:
    if isinstance(grid, LogGrid):
        return grid.log_values()
    xs = np.asarray(grid, dtype=float)
    if not np.all(xs > 0.0):
        raise ValueError("evaluation points must be positive")
    return np.log(xs)


@lru_cache(maxsize=32)
def _gauss_rule(points: int):
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return nodes, weights


def _cell_means(f: WeightedFunction, ks: np.ndarray, w: float, points: int):
    """w * integral of f(e^u) over [k/w, (k+1)/w] per k, by Gauss-Legendre.

    A cell where f is not finite gets a non-finite mean.
    """
    nodes, weights = _gauss_rule(points)
    us = (ks[:, None] + (nodes[None, :] + 1.0) / 2.0) / w
    fvals = np.asarray(f.evaluate_log(us), dtype=float)
    with np.errstate(invalid="ignore"):
        return fvals @ weights / 2.0


def _window(kernel: Optional[Kernel], config: SamplingConfig, v: float):
    """(half-width, first index, last index) of the truncation window at log-point v."""
    half = config.window_half_width or default_half_width(kernel, config.w)
    c = config.w * v
    return half, math.ceil(c - half), math.floor(c + half)


# --------------------------------------------------------------------------
# the operators from given samples and at single points
# --------------------------------------------------------------------------


def _from_samples(operator: str, kernel: Kernel, samples: ExpSamples, vs: np.ndarray, config: SamplingConfig):
    """(values, den) of "S" or "MG" from samples at log-points vs.

    Raises on an active index with nonzero kernel value and no sample, and,
    for MG, on the first degenerate denominator.
    """
    vals, k_min = samples.value_array, samples.k_min

    def lookup(k0, k1):  # NaN where no sample is given
        out = np.full(k1 - k0, np.nan)
        a = max(k0, k_min)
        b = max(a, min(k1, k_min + len(vals)))
        out[a - k0 : b - k0] = vals[a - k_min : b - k_min]
        return out

    values, den, unseen = _series(operator, kernel, config, vs, lookup)
    if unseen:
        k = next(iter(unseen.values()))
        raise EvaluationError(f"samples do not cover required lattice index k={k}", where=k)
    if den is not None:
        _require_denominator(kernel, config, vs, den)
    return values, den


def _require_denominator(kernel: Kernel, config: SamplingConfig, vs: np.ndarray, den: np.ndarray):
    """Raise DegenerateDenominatorError at the first point whose join `den` is not above the floor."""
    if not np.all(den > _DENOMINATOR_FLOOR):
        i = int(np.argmin(den > _DENOMINATOR_FLOOR))
        x = math.inf if vs[i] > _LOG_FLOAT_MAX else math.exp(vs[i])
        _, lo, hi = _window(kernel, config, float(vs[i]))
        raise DegenerateDenominatorError(
            f"max-product denominator {den[i]:.3g} at x={x:.6g}",
            x=x,
            w=config.w,
            index_set=list(index_set(config) if config.interval is not None else range(lo, hi + 1)),
        )


def max_product_series_on_grid(
    kernel: Kernel,
    samples: ExpSamples,
    grid: Union[LogGrid, Sequence[float]],
    config: SamplingConfig,
) -> np.ndarray:
    """Max-product values over a whole grid; raises on the first degenerate point."""
    num, den = _from_samples("MG", kernel, samples, _as_log_values(grid), config)
    return num / den


def max_product_series(
    kernel: Kernel, samples: ExpSamples, x: float, config: SamplingConfig
) -> float:
    """The max-product ratio of joins at a single point x.

    Both joins are taken of the signed products over the active index set;
    the denominator must stay positive (guaranteed at the eta lower bound for
    kernels whose infimum over [1, e] is positive).
    """
    return float(max_product_series_on_grid(kernel, samples, [x], config)[0])


def generalized_series(
    kernel: Kernel, samples: ExpSamples, x: float, config: SamplingConfig
) -> float:
    """Truncated sum over k of chi(e^{-k} x^w) f(e^{k/w})."""
    value = float(_from_samples("S", kernel, samples, _as_log_values([x]), config)[0][0])
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite partial sum at x={x:.6g}", where=x)
    return value


def kantorovich_series(
    kernel: Kernel, f: WeightedFunction, x: float, config: SamplingConfig
) -> float:
    """Sampling series with point samples replaced by lattice-cell means of f(e^u)."""
    value = float(_grid_values("I", f, kernel, config, _as_log_values([x]))[0][0])
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite Kantorovich sum at x={x:.6g}", where=x)
    return value


def classical_exponential_formula(
    f: WeightedFunction, c: float, T: float, x: float, window: int
) -> float:
    """Truncated classical series with the damped sinc kernel at rate T.

    Signals whose log-frequency content is band-limited to [-T, T] are
    reproduced by the untruncated series; at lattice points e^{m/T} the sum
    reduces to the single sample f(e^{m/T}) because the sinc factor vanishes
    at every other index.  x is the lattice point e^{m/T}, m = round(T log x),
    when |T log x - m| <= 1e-12 max(1, |T log x|).  A non-finite c raises
    ConfigurationError.
    """
    if not T > 0.0:
        raise ValueError("T must be positive")
    if window < 1:
        raise ValueError("window must be a positive integer")
    config = SamplingConfig(w=T, window_half_width=window)
    value = float(_grid_values("E", f, None, config, _as_log_values([x]), c)[0][0])
    if not math.isfinite(value):
        raise EvaluationError(f"non-finite term in classical series at x={x:.6g}", where=x)
    return value


# --------------------------------------------------------------------------
# grid evaluation
# --------------------------------------------------------------------------

OPERATOR_TAGS = ("S", "I", "MG", "E")
_NONFINITE_NOTES = {
    "I": "non-finite quadrature cell in active window",
    "E": "non-finite term in classical series window",
}


@dataclass(frozen=True, slots=True)
class GridPoint:
    """One grid evaluation row: value, error against f, and weighted error."""

    x: float
    log_x: float
    value: float
    error_vs_f: float
    weighted_error: float
    note: str = ""


@dataclass(frozen=True, eq=False)
class GridResult(Sequence[GridPoint]):
    """The columns of one grid evaluation, also a read-only sequence of its rows.

    x, log_x, value, error_vs_f and weighted_error are read-only float arrays
    and `notes` a tuple of strings, one entry per grid point.  The first read
    by index (an int, negative too, or a slice) or iteration builds all
    `GridPoint` rows, and the result keeps them.
    """

    x: np.ndarray
    log_x: np.ndarray
    value: np.ndarray
    error_vs_f: np.ndarray
    weighted_error: np.ndarray
    notes: tuple[str, ...]

    def _floats(self):
        return self.x, self.log_x, self.value, self.error_vs_f, self.weighted_error

    def __post_init__(self):
        for column in self._floats():
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.notes)

    def __getitem__(self, i):
        return self._rows[i]

    def __iter__(self):
        return iter(self._rows)

    @cached_property
    def _rows(self) -> list:
        # filled slot by slot in C loops, not by the frozen __init__'s six object.__setattr__ calls per row
        rows = list(map(object.__new__, [GridPoint] * len(self)))
        for name, column in zip(GridPoint.__match_args__, [*(c.tolist() for c in self._floats()), self.notes]):
            list(map(getattr(GridPoint, name).__set__, rows, column))
        return rows


def _grid_values(operator: str, f: WeightedFunction, kernel, config: SamplingConfig, vs: np.ndarray, c=0.0):
    """Values and row notes of one operator applied to f at log-points vs.

    Rows with unseen non-finite samples, and non-finite "I" and "E" rows, are
    NaN with a note.  "E" takes the damped sinc kernel at rate T = config.w.
    """
    if not math.isfinite(c):
        raise ConfigurationError(f"damping exponent c must be finite, got {c!r}")
    damping = None
    if operator == "E":
        kernel, damping = lin_kernel(c / config.w), c / config.w
        config = config if config.interval is None else replace(config, interval=None)
    w, points = config.w, config.quadrature_points

    def values_of(k0, k1):
        k = np.arange(k0, k1)
        return _cell_means(f, k, w, points) if operator == "I" else f.evaluate_log(k / w)

    values, den, unseen = _series(operator, kernel, config, vs, values_of, damping)
    notes = [""] * len(vs)
    if den is not None:
        ok = den > _DENOMINATOR_FLOOR
        values = np.where(ok, values / np.where(ok, den, 1.0), np.nan)
        for i in np.nonzero(~ok)[0]:
            notes[i] = f"degenerate denominator {den[i]:.3g}"
    failed = np.zeros(len(vs), bool)
    failed[list(unseen)] = True
    if operator in ("I", "E"):
        failed |= ~np.isfinite(values)
    values[failed] = np.nan
    for i in np.nonzero(failed)[0]:
        notes[i] = _NONFINITE_NOTES.get(operator, "non-finite sample in active window")
    return values, notes


def evaluate_on_grid(
    operator: str,
    f: WeightedFunction,
    kernel: Kernel,
    config: SamplingConfig,
    grid: Union[LogGrid, Sequence[float]],
    c: float = 0.0,
) -> GridResult:
    """Apply one operator ("S", "I", "MG" or "E") to f across a grid.

    Per-point failures (degenerate denominators, non-finite values) are
    recorded in the row note with NaN values rather than raised.  The error
    against f is NaN unless both the value and f are finite, and the weighted
    error NaN unless the error is finite; x reads inf where e^{log x}
    overflows.  For "E" the rate T is config.w and `c` is the damping exponent
    of the sinc kernel; a non-finite c raises ConfigurationError.
    """
    if operator not in OPERATOR_TAGS:
        raise ValueError(f"unknown operator tag {operator!r}; expected one of {OPERATOR_TAGS}")
    vs = _as_log_values(grid)
    values, notes = _grid_values(operator, f, kernel, config, vs, c)
    fx = np.asarray(f.evaluate_log(vs), dtype=float)
    finite = np.isfinite(values)
    with np.errstate(invalid="ignore", over="ignore"):
        err = np.where(finite & np.isfinite(fx), np.abs(values - fx), np.nan)
        werr = np.where(np.isfinite(err), err / (1.0 + vs * vs), np.nan)
    for i in np.nonzero(~finite)[0]:
        notes[i] = notes[i] or "non-finite value"
    x = np.fromiter(map(math.exp, np.minimum(vs, _LOG_FLOAT_MAX).tolist()), float, len(vs))
    x[vs > _LOG_FLOAT_MAX] = math.inf
    return GridResult(x, vs, values, err, werr, tuple(notes))
