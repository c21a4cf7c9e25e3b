"""Weighted function spaces in the log domain.

Everything here lives over the squared-log weight 1/(1 + log^2 x): the
weighted sup norm, the weighted logarithmic modulus of continuity, Mellin
derivatives (the derivative adapted to multiplicative structure) and the
log-Taylor remainder built from them.  Suprema over x > 0 are estimated on
truncated log-grids and refine from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, EvaluationError, UnsupportedOrderError

__all__ = [
    "weight",
    "psi",
    "LogGrid",
    "WeightedFunction",
    "weighted_norm",
    "weighted_log_modulus",
    "weighted_log_modulus_estimate",
    "OmegaEstimate",
    "mellin_derivative",
    "mellin_derivative_fd",
    "mellin_derivative_function",
    "mellin_taylor_remainder",
    "FUNCTIONS",
    "get_function",
    "register_function",
    "DEFAULT_OMEGA_GRID",
]


def _check_positive(x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("argument must be positive")
    return x


def weight(x):
    """The weight 1/(1 + log^2 x), strictly in (0, 1]."""
    x = _check_positive(x)
    out = 1.0 / (1.0 + np.square(np.log(x)))
    return float(out) if np.ndim(out) == 0 else out


def psi(x):
    """The reciprocal weight 1 + log^2 x."""
    x = _check_positive(x)
    out = 1.0 + np.square(np.log(x))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in log x: abscissae are exp(v_i) for v_i in [log_min, log_max]."""

    log_min: float
    log_max: float
    points: int

    def __post_init__(self):
        if not self.log_min < self.log_max:
            raise ConfigurationError("LogGrid requires log_min < log_max")
        if not self.log_max - self.log_min < math.inf:
            raise ConfigurationError("LogGrid requires finite bounds whose difference is finite")
        if self.points < 2:
            raise ConfigurationError("LogGrid requires at least 2 points")

    def log_values(self) -> np.ndarray:
        return np.linspace(self.log_min, self.log_max, self.points)

    def values(self) -> np.ndarray:
        return np.exp(self.log_values())

    def spec(self) -> str:
        return f"{self.log_min:g}:{self.log_max:g}:{self.points}"


DEFAULT_OMEGA_GRID = LogGrid(-12.0, 12.0, 1025)
_BLOCK_POINTS = 8192  # entries per block of every scan and of the operators' lattice band


@dataclass(frozen=True)
class WeightedFunction:
    """A test function on the positive reals with its known analytic facts.

    `evaluate` accepts scalars or arrays of positive reals.  `weighted_bound`
    is a certificate M with weight(x)|f(x)| <= M when membership in the
    weighted bounded space is known; `mellin_derivatives` holds closed-form
    maps for the iterated Mellin derivatives when available, lowest order
    first.  `nonnegative` marks membership in the nonnegative subclass.

    `log_evaluate`, when present, computes f(e^v) directly from v; the
    operators prefer it so that lattice samples far out on the half-line do
    not have to round-trip through overflowing exponentials.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    weighted_bound: Optional[float] = None
    mellin_derivatives: Optional[tuple] = None
    nonnegative: bool = False
    description: str = ""
    log_evaluate: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate_log(self, v):
        """f(e^v) for log-domain abscissae v."""
        if self.log_evaluate is not None:
            return self.log_evaluate(v)
        return self.evaluate(np.exp(np.asarray(v, dtype=float)))


def weighted_norm(f: WeightedFunction, grid: LogGrid) -> float:
    """Grid estimate of the weighted sup norm sup weight(x)|f(x)|.

    A lower bound of the true supremum, converging as the grid refines.
    """
    vs = grid.log_values()
    vals = np.asarray(f.evaluate_log(vs), dtype=float)
    if not np.all(np.isfinite(vals)):
        bad = vs[~np.isfinite(vals)][0]
        raise EvaluationError(
            f"'{f.name}' is non-finite at x={math.exp(bad):.6g}", where=float(math.exp(bad))
        )
    return float(np.max(np.abs(vals) / (1.0 + vs * vs)))


@dataclass(frozen=True)
class OmegaEstimate:
    """A weighted log-modulus estimate with its maximiser and window diagnostic."""

    value: float
    witness_log_x: float
    witness_log_t: float
    boundary_ratio: float


def weighted_log_modulus_estimate(
    f: WeightedFunction,
    delta: float,
    grid: LogGrid = DEFAULT_OMEGA_GRID,
    shift_points: int = 129,
) -> OmegaEstimate:
    """Scan sup |f(tx) - f(x)| / ((1 + log^2 x)(1 + log^2 t)) over |log t| <= delta.

    x runs over `grid` and log t over a uniform grid of `shift_points` in
    [-delta, delta]; the estimate is a refining lower bound of the true sup.
    `boundary_ratio` is the largest ratio attained on the outermost x rows,
    a diagnostic for mass escaping the truncated x-window.  The x rows are
    scanned in blocks of about `_BLOCK_POINTS` shifted points, in two buffers
    allocated once per call; a block raises EvaluationError before its
    arithmetic when its own base or shifted values are not all finite.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if shift_points < 1:
        raise ValueError("shift_points must be positive")
    vs = grid.log_values()
    ss = np.linspace(-delta, delta, shift_points) if shift_points > 1 else np.array([delta])
    base = np.asarray(f.evaluate_log(vs), dtype=float)
    finite = np.isfinite(base)
    first_bad = vs.size if finite.all() else int(finite.argmin())  # the block holding it raises
    rows = max(1, _BLOCK_POINTS // ss.size)
    # per call: the shifted abscissae, which then hold the ratio, and the denominators
    arg, den = np.empty((min(rows, vs.size), ss.size)), np.empty((min(rows, vs.size), ss.size))
    v_den, s_den = 1.0 + vs * vs, 1.0 + ss * ss
    peaks = []  # (first maximum, row, column) per block
    for lo in range(0, vs.size, rows):
        b = base[lo : lo + rows]
        ratio = np.add(vs[lo : lo + rows, None], ss, out=arg[: b.size])
        shifted = np.asarray(f.evaluate_log(ratio), dtype=float)
        if first_bad < lo + b.size or not np.isfinite(shifted).all():
            raise EvaluationError(f"'{f.name}' produced non-finite values in the modulus scan")
        np.subtract(shifted, b[:, None], out=ratio)
        np.abs(ratio, out=ratio)
        np.divide(ratio, np.multiply(v_den[lo : lo + rows, None], s_den, out=den[: b.size]), out=ratio)
        i = int(ratio.argmax())
        peaks.append((float(ratio.flat[i]), lo + i // ss.size, i % ss.size))
        top = ratio[0].max() if lo == 0 else top
    # np.argmax picks the block holding the first flat maximiser, or the first NaN
    value, row, col = peaks[int(np.argmax([p[0] for p in peaks]))]
    return OmegaEstimate(value, float(vs[row]), float(ss[col]), float(max(top, ratio[-1].max())))


def weighted_log_modulus(
    f: WeightedFunction,
    delta: float,
    grid: LogGrid = DEFAULT_OMEGA_GRID,
    shift_points: int = 129,
) -> float:
    return weighted_log_modulus_estimate(f, delta, grid, shift_points).value


# --------------------------------------------------------------------------
# Mellin derivatives
# --------------------------------------------------------------------------

# central stencils of order-2 accuracy for d^r/dv^r, r = 1..6
_STENCILS = {
    1: (np.arange(-1, 2), np.array([-0.5, 0.0, 0.5])),
    2: (np.arange(-1, 2), np.array([1.0, -2.0, 1.0])),
    3: (np.arange(-2, 3), np.array([-0.5, 1.0, 0.0, -1.0, 0.5])),
    4: (np.arange(-2, 3), np.array([1.0, -4.0, 6.0, -4.0, 1.0])),
    5: (np.arange(-3, 4), np.array([-0.5, 2.0, -2.5, 0.0, 2.5, -2.0, 0.5])),
    6: (np.arange(-3, 4), np.array([1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0])),
}


def _default_step(r: int) -> float:
    return 1e-3 if r <= 2 else 1e-2


def mellin_derivative_fd(f: WeightedFunction, r: int, x: float, step: Optional[float] = None) -> float:
    """Central finite-difference estimate of the r-th Mellin derivative at x.

    The Mellin derivative iterates x f'(x), i.e. d^r/dv^r of f(e^v) at
    v = log x; the stencils are order-2 accurate in `step`.
    """
    if r < 1:
        raise ValueError("derivative order must be at least 1")
    if r > 6:
        raise UnsupportedOrderError(f"no stencil for order {r}; table ends at 6")
    if not x > 0.0:
        raise ValueError("x must be positive")
    h = _default_step(r) if step is None else float(step)
    if not h > 0.0:
        raise ValueError("step must be positive")
    offsets, coeffs = _STENCILS[r]
    v = math.log(x)
    vals = np.asarray(f.evaluate_log(v + offsets * h), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise EvaluationError(f"'{f.name}' non-finite in derivative stencil at x={x:.6g}", where=x)
    return float(np.dot(coeffs, vals) / h**r)


def mellin_derivative(f: WeightedFunction, r: int, x: float, step: Optional[float] = None) -> float:
    """The r-th Mellin derivative at x, closed form when the function carries one."""
    if r < 1:
        raise ValueError("derivative order must be at least 1")
    if f.mellin_derivatives is not None and r <= len(f.mellin_derivatives):
        out = f.mellin_derivatives[r - 1](x)
        return float(out) if np.ndim(out) == 0 else out
    return mellin_derivative_fd(f, r, x, step)


def mellin_derivative_function(f: WeightedFunction, r: int, step: Optional[float] = None) -> WeightedFunction:
    """The r-th Mellin derivative of f packaged as a WeightedFunction."""
    if r < 1:
        raise ValueError("derivative order must be at least 1")
    if f.mellin_derivatives is not None and r <= len(f.mellin_derivatives):
        deriv = f.mellin_derivatives[r - 1]
        rest = tuple(f.mellin_derivatives[r:])
        return WeightedFunction(
            name=f"{f.name}_theta{r}",
            evaluate=deriv,
            mellin_derivatives=rest if rest else None,
            description=f"order-{r} Mellin derivative of '{f.name}'",
        )

    if r > 6:
        raise UnsupportedOrderError(f"no stencil for order {r}; table ends at 6")
    offsets, coeffs = _STENCILS[r]
    h = _default_step(r) if step is None else float(step)

    def from_log(v, _f=f, _r=r, _h=h, _o=offsets, _c=coeffs):
        v = np.asarray(v, dtype=float)
        acc = np.zeros_like(v)
        for o, cf in zip(_o, _c):
            if cf != 0.0:
                acc = acc + cf * np.asarray(_f.evaluate_log(v + o * _h), dtype=float)
        return acc / _h**_r

    def evaluate(x, _fn=from_log):
        out = _fn(np.log(np.asarray(x, dtype=float)))
        return float(out) if np.ndim(out) == 0 else out

    return WeightedFunction(
        name=f"{f.name}_theta{r}",
        evaluate=evaluate,
        description=f"order-{r} Mellin derivative of '{f.name}' (finite differences)",
        log_evaluate=lambda v, _fn=from_log: float(_fn(v)) if np.ndim(v) == 0 else _fn(v),
    )


def mellin_taylor_remainder(
    f: WeightedFunction, r: int, u: float, x: float, step: Optional[float] = None
) -> float:
    """f(u) minus the degree-r log-Taylor polynomial of f at x.

    The polynomial expands in powers of (log u - log x) with Mellin-derivative
    coefficients; the remainder is computed by subtraction.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if not (u > 0.0 and x > 0.0):
        raise ValueError("u and x must be positive")
    d = math.log(u) - math.log(x)
    total = float(f.evaluate(x))
    fact = 1.0
    for t in range(1, r + 1):
        fact *= t
        total += mellin_derivative(f, t, x, step) / fact * d**t
    return float(f.evaluate(u)) - total


# --------------------------------------------------------------------------
# test-function registry
# --------------------------------------------------------------------------

FUNCTIONS: dict[str, WeightedFunction] = {}


def register_function(f: WeightedFunction) -> WeightedFunction:
    FUNCTIONS[f.name] = f
    return f


def get_function(name: str) -> WeightedFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown function '{name}'; registered: {', '.join(sorted(FUNCTIONS))}"
        ) from None


def _scalar_ok(fn):
    def wrapped(x):
        out = fn(np.asarray(x, dtype=float))
        return float(out) if np.ndim(out) == 0 else out

    return wrapped


def _register_log_form(name, log_form, *, bound=None, d1=None, d2=None, nonnegative=False, description=""):
    """Register a function given by its log-domain form g(v) = f(e^v).

    d1 and d2 are the log-forms of the first two Mellin derivatives (plain
    derivatives of g), exposed as maps from x per the public contract.
    """
    derivs = None
    if d1 is not None:
        forms = [d1] + ([d2] if d2 is not None else [])
        derivs = tuple(_scalar_ok(lambda x, _g=g: _g(np.log(x))) for g in forms)
    return register_function(
        WeightedFunction(
            name=name,
            evaluate=_scalar_ok(lambda x: log_form(np.log(x))),
            weighted_bound=bound,
            mellin_derivatives=derivs,
            nonnegative=nonnegative,
            description=description,
            log_evaluate=_scalar_ok(log_form),
        )
    )


_register_log_form(
    "one",
    lambda v: np.ones_like(v),
    bound=1.0,
    d1=lambda v: np.zeros_like(v),
    d2=lambda v: np.zeros_like(v),
    nonnegative=True,
    description="constant 1",
)

_register_log_form(
    "log",
    lambda v: v,
    bound=0.5,
    d1=lambda v: np.ones_like(v),
    d2=lambda v: np.zeros_like(v),
    description="log x (signed)",
)

_register_log_form(
    "log2",
    lambda v: v * v,
    bound=1.0,
    d1=lambda v: 2.0 * v,
    d2=lambda v: np.full_like(v, 2.0),
    nonnegative=True,
    description="log^2 x",
)

_register_log_form(
    "weight",
    lambda v: 1.0 / (1.0 + v * v),
    bound=1.0,
    d1=lambda v: -2.0 * v / (1.0 + v * v) ** 2,
    d2=lambda v: (6.0 * v * v - 2.0) / (1.0 + v * v) ** 3,
    nonnegative=True,
    description="the weight 1/(1+log^2 x)",
)

_register_log_form(
    "psi",
    lambda v: 1.0 + v * v,
    bound=1.0,
    d1=lambda v: 2.0 * v,
    d2=lambda v: np.full_like(v, 2.0),
    nonnegative=True,
    description="the reciprocal weight 1+log^2 x",
)

_register_log_form(
    "damped_log2",
    lambda v: v * v / (1.0 + v * v),
    bound=0.25,
    d1=lambda v: 2.0 * v / (1.0 + v * v) ** 2,
    d2=lambda v: (2.0 - 6.0 * v * v) / (1.0 + v * v) ** 3,
    nonnegative=True,
    description="weight-damped squared log: log^2 x / (1+log^2 x)",
)


def _damped_sin_d1(v):
    u = 1.0 / (1.0 + v * v)
    return np.cos(v) * u - 2.0 * v * (1.0 + np.sin(v)) * u * u


def _damped_sin_d2(v):
    u = 1.0 / (1.0 + v * v)
    du = -2.0 * v * u * u
    ddu = -2.0 * u * u + 8.0 * v * v * u**3
    return -np.sin(v) * u + 2.0 * np.cos(v) * du + (1.0 + np.sin(v)) * ddu


_register_log_form(
    "damped_sin_log",
    lambda v: (1.0 + np.sin(v)) / (1.0 + v * v),
    bound=1.2,
    d1=_damped_sin_d1,
    d2=_damped_sin_d2,
    nonnegative=True,
    description="weight-damped sine of log: (1+sin log x)/(1+log^2 x)",
)

_register_log_form(
    "damped_log_clip",
    lambda v: np.maximum(v, 0.0) / (1.0 + v * v),
    bound=0.33,
    nonnegative=True,
    description="weight-damped nonnegative part of log x (kink at x=1)",
)

_register_log_form(
    "jump_log",
    lambda v: np.where(v < 0.5, 1.0, 2.0),
    bound=2.0,
    nonnegative=True,
    description="unit step in the log domain, jumping at log x = 1/2",
)

_register_log_form(
    "tent_log",
    lambda v: np.maximum(0.0, 1.0 - np.abs(v)),
    bound=1.0,
    nonnegative=True,
    description="tent in the log domain, peak 1 at x=1, support e^[-1,1]",
)
