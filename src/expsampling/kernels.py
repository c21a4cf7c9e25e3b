"""Kernels for exponential sampling and their max-product moment diagnostics.

A kernel is a bounded function chi on the positive reals, evaluated on the
exponentially shifted lattice chi(e^{-k} u).  All built-in kernels are defined
through their log-domain profile chi(e^t), which keeps compact supports exact
and avoids exp/log round trips inside the operators.

The moment scanners exploit periodicity: the supremum over u > 0 of any
lattice join collapses to one period of the fractional part of log u, so a
uniform grid on [0, 1) resolves it up to grid spacing.

Kernels are immutable after construction and safe to share across threads;
every scan is a pure function of its arguments with deterministic reductions,
so the absolute-moment estimates and the algebraic-moment variations are
memoised per (kernel object, order) in one bounded memo, divergent outcomes
included.  The orders one check needs are scanned in one pass.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DivergentMomentError
from .spaces import _BLOCK_POINTS

__all__ = [
    "Kernel",
    "MomentEstimate",
    "MomentReport",
    "mellin_bspline",
    "mellin_gaussian",
    "lin_kernel",
    "discrete_absolute_moment",
    "discrete_absolute_moment_estimate",
    "algebraic_moment",
    "algebraic_moment_profile",
    "algebraic_moment_variation",
    "eta_lower_bound",
    "check_kernel_conditions",
    "KERNELS",
    "get_kernel",
    "register_kernel",
]

_U_POINTS = 4096  # resolution of the fractional-part grid for log u
_ROWS = max(1, _BLOCK_POINTS // _U_POINTS)  # lattice rows per block of the moment and tail-decay scans
_CHI3_REL = 1e-9  # chi3 allows a spread of _CHI3_REL (1 + |max|) over the u-scan
_CACHE_SIZE = 2048  # memoised scans, keyed by (kind, kernel object, order)
_PASS_ALGEBRAIC = 8  # highest algebraic order check_kernel_conditions scans in its first pass
# window widening of the moment scans for kernels without compact support
_FIRST_HALF_WIDTH = 8
_MAX_HALF_WIDTH = 2048
_SETTLE_TOL = 1e-12
_DIVERGENCE_GROWTH = 1.5
_DIVERGENCE_STREAK = 3


def sinc(t):
    """sin(pi t)/(pi t) with exact zeros at nonzero integers.

    Evaluates through the reduced argument r = t - round(t) so that lattice
    points come out as exact IEEE zeros, which the interpolation identities
    of the classical series rely on.
    """
    t = np.asarray(t, dtype=float)
    n = np.round(t)
    r = t - n
    sign = np.where(np.mod(n, 2.0) == 0.0, 1.0, -1.0)
    num = np.sin(np.pi * r) * sign
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(t == 0.0, 1.0, num / (np.pi * t))
    return out


@dataclass(frozen=True)
class Kernel:
    """An evaluable kernel with its lattice metadata.

    `log_profile` is chi(e^t) as a function of t; `evaluate` exposes the
    x-domain view chi(x).  `log_support_radius` is R with chi(e^t) = 0 for
    |t| > R (None for kernels without compact log-support).  `zero_radius`
    is the offset beyond which `log_profile` returns exactly 0.0 in floating
    point, for a kernel without compact support whose values underflow (None
    otherwise); only the operators' lattice band reads it, never the moment
    scans.
    """

    name: str
    log_profile: Callable[[np.ndarray], np.ndarray]
    log_support_radius: Optional[float]
    description: str = ""
    zero_radius: Optional[float] = None

    def __post_init__(self):
        for name in ("log_support_radius", "zero_radius"):
            radius = getattr(self, name)
            if radius is not None and not 0.0 <= radius < math.inf:
                raise ConfigurationError(f"{name} must be None or finite and >= 0, got {radius!r}")

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValueError("kernel argument must be positive")
        out = self.log_profile(np.log(x))
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class MomentEstimate:
    """A scanned absolute moment with its witness and truncation diagnostics."""

    order: float
    value: float
    witness_u: float
    witness_k: int
    half_width: int
    tail_bound: float
    converged: bool = True


@dataclass
class MomentReport:
    """Outcome of the kernel condition checks with diagnostics.

    `absolute_moments` maps the scanned orders to their estimates (divergent
    orders are absent and explained in `diagnostics`).  `eta` is the infimum
    of chi over [1, e].  `algebraic_moment_variation` maps each polynomial
    order j to the (min, max) of the signed lattice join over the u-scan.
    """

    kernel_name: str
    absolute_moments: dict = field(default_factory=dict)
    eta: float = 0.0
    algebraic_moment_variation: dict = field(default_factory=dict)
    chi1_holds: bool = False
    chi2_holds: bool = False
    chi3_holds: bool = False
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kernel_name": self.kernel_name,
            "absolute_moments": {f"{k:g}": v for k, v in sorted(self.absolute_moments.items())},
            "eta": self.eta,
            "algebraic_moment_variation": {
                str(j): [lo, hi] for j, (lo, hi) in sorted(self.algebraic_moment_variation.items())
            },
            "chi1_holds": self.chi1_holds,
            "chi2_holds": self.chi2_holds,
            "chi3_holds": self.chi3_holds,
            "diagnostics": dict(sorted(self.diagnostics.items())),
        }


# --------------------------------------------------------------------------
# built-in kernels
# --------------------------------------------------------------------------


def _cardinal_bspline(s, order: int, offset=None):
    """Cardinal B-spline N_order on [0, order) at s + offset (at s if offset is None), by the
    Cox-de Boor recurrence N_o(s) = (s N_{o-1}(s) + (o - s) N_{o-1}(s - 1.0)) / (o - 1), evaluated
    level by level in place with the recursion's float operations: node j holds N_o at the
    argument shifted j times, s + offset - 1.0 - ... - 1.0.  It takes order + 1 arrays the size
    of s besides s, which it never writes."""
    shape, x = np.shape(s), np.asarray(s, dtype=float).reshape(-1)  # a 0-d input as one entry
    shift, right = np.empty_like(x), np.empty_like(x)

    def shifted(count):  # each level recomputes the shifted arguments in one buffer
        sj = x if offset is None else np.add(x, offset, out=shift)
        yield sj
        for _ in range(count - 1):
            yield (sj := np.subtract(sj, 1.0, out=shift))

    # level 1 (0 <= s < 1) as bools, read as exactly 0.0 and 1.0; level 2 allocates the floats
    nodes = [np.equal(np.floor(sj, out=right), 0.0) for sj in shifted(order)]
    for o in map(float, range(2, order + 1)):  # float scalars enter ufuncs faster than ints
        for j, sj in enumerate(shifted(len(nodes) - 1)):
            np.subtract(o, sj, out=right)
            np.multiply(right, nodes[j + 1], out=right)
            nodes[j] = np.multiply(sj, nodes[j], out=nodes[j] if o > 2 else None)
            np.add(nodes[j], right, out=nodes[j])
            np.divide(nodes[j], o - 1.0, out=nodes[j])
        nodes.pop()
    return nodes[0].astype(float, copy=False).reshape(shape)[()]


def mellin_bspline(order: int) -> Kernel:
    """Kernel x -> B_n(log x) for the centered cardinal B-spline of order n.

    Support in the log domain is [-n/2, n/2]; all absolute moments are finite.
    """
    if not isinstance(order, (int, np.integer)) or not 1 <= order <= 6:
        raise ValueError(f"B-spline order must be an integer in 1..6, got {order!r}")
    order = int(order)
    half = order / 2.0

    def profile(t, _n=order, _h=half):
        return _cardinal_bspline(t, _n, _h)

    return Kernel(
        name=f"bspline{order}",
        log_profile=profile,
        log_support_radius=half,
        description=f"centered cardinal B-spline of order {order} in log x",
    )


def _fmt_param(v: float) -> str:
    return f"{v:g}".replace("-", "m").replace(".", "")


def mellin_gaussian(shape: float) -> Kernel:
    """Kernel x -> exp(-shape * log(x)^2); non-compact, all moments finite.

    exp(-s) is exactly 0.0 in floating point for s > 745.2 (the smallest
    subnormal is about e^-744.4), so the zero radius is sqrt(745.2 / shape).
    """
    if not shape > 0.0:
        raise ValueError(f"gaussian shape must be positive, got {shape!r}")
    shape = float(shape)

    def profile(t, _a=shape):
        return np.exp(-_a * np.square(np.asarray(t, dtype=float)))

    return Kernel(
        name=f"gauss{_fmt_param(shape)}",
        log_profile=profile,
        log_support_radius=None,
        description=f"log-domain Gaussian exp(-{shape:g} log^2 x)",
        zero_radius=math.sqrt(745.2 / shape),
    )


def lin_kernel(c: float) -> Kernel:
    """Kernel x -> x^{-c} sinc(log x) with the continuous extension to 1 at x=1.

    Only the order-zero absolute moment is claimed: on the shifted lattice the
    products |chi| * |k - log u|^nu grow without bound for nu > 1.
    """
    c = float(c)

    def profile(t, _c=c):
        t = np.asarray(t, dtype=float)
        sc = sinc(t)
        # skip the exponential where sinc vanished exactly; elsewhere the
        # product may legitimately overflow (the kernel is unbounded for c != 0)
        with np.errstate(over="ignore"):
            damp = np.exp(-_c * np.where(sc == 0.0, 0.0, t))
        return damp * sc

    return Kernel(
        name=f"linc{_fmt_param(c)}",
        log_profile=profile,
        log_support_radius=None,
        description=f"damped sinc kernel x^(-c) sinc(log x) with c={c:g}",
    )


# --------------------------------------------------------------------------
# moments
# --------------------------------------------------------------------------


def _frac_grid() -> np.ndarray:
    return np.arange(_U_POINTS, dtype=float) / _U_POINTS


def _signed_term(chi, t, j: int):
    """chi (-t)^j, built in place."""
    out = -t
    out **= j
    out *= chi
    return out


def _absolute_term(abs_chi, abs_t, zero, nu: float):
    """|chi| |t|^nu from |chi|, |t| and the mask chi == 0: a zero kernel value gives a zero term, not 0 * inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = abs_t ** nu
        out *= abs_chi
    out[zero] = 0.0
    return out


def _fold_terms(chi, t, terms, fold):
    """fold(n, term) for each n-th ("absolute", nu) or ("algebraic", j) in terms, on one block of
    kernel values chi at offsets t.  The signed terms go first; then |chi| and |t| overwrite chi
    and t, and every absolute term shares them and the mask chi == 0."""
    for n, (kind, j) in enumerate(terms):
        if kind == "algebraic":
            fold(n, _signed_term(chi, t, j))
    if any(kind == "absolute" for kind, _ in terms):
        abs_chi, abs_t = np.abs(chi, out=chi), np.abs(t, out=t)
        zero = abs_chi == 0.0
        for n, (kind, nu) in enumerate(terms):
            if kind == "absolute":
                fold(n, _absolute_term(abs_chi, abs_t, zero, nu))


def _tail_probe(kernel: Kernel, nu: float, start: float) -> float:
    """Estimate sup over |t| >= start of |chi(e^t)| |t|^nu on 4096 points of [start, start + 16]."""
    ts = np.linspace(start, start + 16.0, 4096)
    peaks = []
    for chi in (kernel.log_profile(ts), kernel.log_profile(-ts)):
        _fold_terms(chi, ts.copy(), [("absolute", nu)], lambda _, term: peaks.append(term.max()))
    return float(max(peaks))


def _join_k(kernel: Kernel, term, v: float, k0: int, h: int) -> int:
    """The first k in k0 - h ... k0 + h whose term attains the join at v."""
    ks = k0 + np.arange(-h, h + 1)
    t = v - ks
    found = []
    _fold_terms(kernel.log_profile(t), t, [term], lambda _, values: found.append(int(ks[np.argmax(values)])))
    return found[0]


def _scan(kernel: Kernel, terms, vs: np.ndarray, k0: int) -> list:
    """Join each term at t = v - k over k = k0 - h ... k0 + h at each v in vs.

    `terms` holds (term, what, order) triples, a term being ("absolute", nu)
    for |chi(e^t)| |t|^nu or ("algebraic", j) for chi(e^t) (-t)^j; chi is
    evaluated once per block of _ROWS rows (about _BLOCK_POINTS entries) for
    every term still scanning (`_fold_terms`), and each term stops where its
    scan alone would.  Returns per term (joins, h, settled), or its
    DivergentMomentError unraised.  A kernel vanishing beyond offset R takes
    h = ceil(R) + 1.  Otherwise the window widens by rings from h = 8 to
    2048: the joins have settled when none moves by more than
    1e-12 max(1, peak), and they diverge when the peak |join| grows by 1.5x
    on three doublings in a row.  A join that is not finite diverges on
    either branch, witnessed at the peak point.  Zero joins read +0.
    """

    def join(ks, live):
        outs, block = [np.full(vs.shape, -np.inf) for _ in live], [terms[i][0] for i in live]

        def fold(n, term):
            np.maximum(outs[n], term.max(axis=0), out=outs[n])

        for lo in range(0, len(ks), _ROWS):
            t = vs - ks[lo : lo + _ROWS, None]
            _fold_terms(kernel.log_profile(t), t, block, fold)
        return [np.add(out, 0.0, out=out) for out in outs]

    def diverge(i, joins, h):
        term, what, order = terms[i]
        j = int(np.argmax(np.abs(joins)))
        return DivergentMomentError(
            f"{what} for kernel '{kernel.name}' diverges "
            f"(peak join {float(np.max(np.abs(joins))):.6g} at half-width {h})",
            witness_u=math.exp(float(vs[j])),
            witness_k=_join_k(kernel, term, vs[j], k0, h),
            order=order,
        )

    out, live = [None] * len(terms), range(len(terms))
    compact = kernel.log_support_radius is not None
    h = math.ceil(kernel.log_support_radius) + 1 if compact else _FIRST_HALF_WIDTH
    # per term: joins, streak, previous peak, largest move of the last ring (0: settles at once)
    first = join(k0 + np.arange(-h, h + 1), live)
    state = {i: (joins, 0, math.inf, 0.0 if compact else math.inf) for i, joins in zip(live, first)}
    while True:
        for i in live:
            joins, streak, prev_peak, moved = state[i]
            peak = float(np.max(np.abs(joins)))
            growth = peak / prev_peak if prev_peak > 0.0 else 1.0
            streak = streak + 1 if growth >= _DIVERGENCE_GROWTH else 0
            if streak >= _DIVERGENCE_STREAK or not np.all(np.isfinite(joins)):
                out[i] = diverge(i, joins, h)
            elif moved <= _SETTLE_TOL * max(1.0, peak):
                out[i] = (joins, h, True)
            elif h >= _MAX_HALF_WIDTH:
                out[i] = (joins, h, False)
            state[i] = (joins, streak, peak)
        live = [i for i in live if out[i] is None]
        if not live:
            return out
        ring = np.concatenate([np.arange(-2 * h, -h), np.arange(h + 1, 2 * h + 1)])
        for i, ring_joins in zip(live, join(k0 + ring, live)):
            joins, streak, peak = state[i]
            widened = np.maximum(joins, ring_joins)
            state[i] = (widened, streak, peak, float(np.max(np.abs(widened - joins))))
        h = 2 * h


def _spec(kind: str, order):
    """(term, what, order) of the absolute or the signed algebraic moment scan."""
    if kind == "absolute":
        return (kind, order), f"absolute moment of order {order:g}", order
    return (kind, order), f"algebraic moment of order {order}", float(order)


# (kind, kernel object, order) -> a MomentEstimate or (min, max) pair, or the
# unraised DivergentMomentError of the scan; bounded, least recently used first
_MEMO: OrderedDict = OrderedDict()
_MEMO_LOCK = threading.Lock()


def _moment_outcomes(kernel: Kernel, absolute=(), algebraic=()) -> list:
    """The memoised outcomes of the absolute moments of the orders `absolute`,
    then of the algebraic variations of the orders `algebraic`; the orders not
    memoised yet are scanned in one `_scan` pass, each as its own scan would."""
    wanted = [("absolute", kernel, nu) for nu in absolute] + [("algebraic", kernel, j) for j in algebraic]
    with _MEMO_LOCK:
        found = {key: _MEMO[key] for key in wanted if key in _MEMO}
        for key in found:
            _MEMO.move_to_end(key)
    missing = [key for key in dict.fromkeys(wanted) if key not in found]
    vs = _frac_grid()
    specs = [_spec(kind, order) for kind, _, order in missing]
    outs = _scan(kernel, specs, vs, 0) if specs else []
    for (kind, _, order), (term, _, _), out in zip(missing, specs, outs):
        if kind == "algebraic" and not isinstance(out, DivergentMomentError):
            out = (float(out[0].min()), float(out[0].max()))
        elif not isinstance(out, DivergentMomentError):
            joins, h, settled = out
            i = int(np.argmax(joins))
            k_star = _join_k(kernel, term, vs[i], 0, h)
            tail = 0.0 if kernel.log_support_radius is not None else _tail_probe(kernel, order, float(h))
            out = MomentEstimate(order, float(joins[i]), math.exp(vs[i]), k_star, h, tail, settled)
        found[kind, kernel, order] = out
    with _MEMO_LOCK:
        for key in missing:
            _MEMO[key] = found[key]
            if len(_MEMO) > _CACHE_SIZE:
                _MEMO.popitem(last=False)
    return [found[key] for key in wanted]


def _value(e):
    """The outcome e itself, or a fresh copy of its DivergentMomentError raised."""
    if isinstance(e, DivergentMomentError):
        raise DivergentMomentError(*e.args, witness_u=e.witness_u, witness_k=e.witness_k, order=e.order)
    return e


def discrete_absolute_moment_estimate(kernel: Kernel, nu: float) -> MomentEstimate:
    """Scan the discrete absolute moment of order nu in the max-product sense.

    The scanned quantity is sup over u > 0 of the lattice join over k of
    |chi(e^{-k} u)| |k - log u|^nu, where a zero kernel value gives a zero
    term.  For compact kernels a window of ceil(R) + 1 makes the estimate
    exact up to the u-grid spacing; otherwise the window doubles until
    convergence, and the returned `tail_bound` reports the scanned decay of
    the integrand beyond the final window.

    Raises DivergentMomentError (with the witnessing u and k) when the
    running estimate keeps growing under window doublings or a join is not
    finite, and ValueError unless 0 <= nu < inf.  Outcomes, divergence
    included, are memoised per (kernel object, nu); `cache_clear` empties
    the memo of both scan kinds.

    The sup over u is taken on 4096 points of one log-period, so a sup
    attained at a kink of the kernel is resolved only to that spacing:
    bspline2 as nu -> 0 reads 1 - 1/4096, not 1.

    The settle rule sees only the window scanned so far, so mass beyond the
    half-width where one doubling moved no join is missed, with
    `converged=True` and a small `tail_bound`.  exp(-t^2) + exp(-4 (t - 50)^2)
    settles at half-width 16 and its m_5 reads 0.811, while the bump at
    t = 50 alone gives about 50^5.
    """
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"moment order must be finite and nonnegative, got {nu!r}")
    return _value(_moment_outcomes(kernel, absolute=[nu])[0])


def discrete_absolute_moment(kernel: Kernel, nu: float) -> float:
    """The moment estimate alone; see `discrete_absolute_moment_estimate`."""
    return discrete_absolute_moment_estimate(kernel, nu).value


def _algebraic_scan(kernel: Kernel, j: int, vs: np.ndarray, k0: int) -> np.ndarray:
    """Signed join over k of chi(e^{v-k}) (k - v)^j for each v."""
    return _value(_scan(kernel, [_spec("algebraic", j)], vs, k0)[0])[0]


def algebraic_moment(kernel: Kernel, j: int, u: float) -> float:
    """Signed lattice join over k of chi(e^{-k} u) (k - log u)^j.

    The join is taken of the signed products exactly as the operator
    expansion uses them.
    """
    if j < 0 or int(j) != j:
        raise ValueError("polynomial order j must be a nonnegative integer")
    if not u > 0.0:
        raise ValueError("u must be positive")
    v = math.log(u)
    return float(_algebraic_scan(kernel, int(j), np.array([v]), math.floor(v))[0])


def algebraic_moment_profile(kernel: Kernel, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Values of the order-j algebraic moment over one period of log u.

    Returns (log_u_grid, values); the spread of `values` quantifies how far
    the kernel is from having lattice-invariant algebraic moments.
    """
    vs = _frac_grid()
    return vs, _algebraic_scan(kernel, j, vs, 0)


def algebraic_moment_variation(kernel: Kernel, j: int) -> tuple[float, float]:
    """(min, max) of the order-j algebraic moment over the u-scan; outcomes,
    divergence included, are memoised per (kernel object, j), and
    `cache_clear` empties the memo of both scan kinds."""
    return _value(_moment_outcomes(kernel, algebraic=[j])[0])


discrete_absolute_moment_estimate.cache_clear = algebraic_moment_variation.cache_clear = _MEMO.clear


def eta_lower_bound(kernel: Kernel) -> float:
    """Minimum of chi over 4097 uniform log-points on [1, e], endpoints included."""
    return float(np.min(kernel.log_profile(np.linspace(0.0, 1.0, 4097))))


def check_kernel_conditions(kernel: Kernel, mu: float, r: int) -> MomentReport:
    """Run the three kernel condition checks and assemble a MomentReport.

    chi1: the absolute moment of order mu is finite under the divergence test.
    chi2: the infimum of chi over [1, e] is positive.
    chi3: for every j <= r the signed algebraic moment varies over the u-scan
          by at most 1e-9 (1 + |max|).

    Failed conditions are verdicts with diagnostics, never exceptions;
    ValueError is raised unless 0 <= mu < inf and r >= 0.
    """
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and nonnegative, got {mu!r}")
    if r < 0:
        raise ValueError("r must be nonnegative")
    report = MomentReport(kernel_name=kernel.name)

    orders = sorted({0.0, 1.0, 2.0, float(mu)})
    # one pass; the chi3 loop stops at a divergent order, so higher ones wait for it
    _moment_outcomes(kernel, orders, range(min(r, _PASS_ALGEBRAIC) + 1))
    chi1 = True
    for nu in orders:
        try:
            est = discrete_absolute_moment_estimate(kernel, nu)
        except DivergentMomentError as exc:
            if nu == float(mu):
                chi1 = False
                report.diagnostics["chi1"] = (
                    f"m_{mu:g} divergent: witness u={exc.witness_u:.6g}, k={exc.witness_k}"
                )
            report.diagnostics[f"m_{nu:g}"] = (
                f"divergent (witness u={exc.witness_u:.6g}, k={exc.witness_k})"
            )
            continue
        if nu == float(mu) and not est.converged:
            chi1 = False
            report.diagnostics["chi1"] = (
                f"m_{mu:g} did not settle within half-width {est.half_width}"
            )
        report.absolute_moments[nu] = est.value
    if chi1 and "chi1" not in report.diagnostics:
        report.diagnostics["chi1"] = f"m_{mu:g} finite: {report.absolute_moments[float(mu)]:.12g}"
    report.chi1_holds = chi1

    report.eta = eta_lower_bound(kernel)
    report.chi2_holds = report.eta > 0.0
    report.diagnostics["chi2"] = (
        f"inf over [1,e] = {report.eta:.12g} "
        f"({'positive' if report.chi2_holds else 'not above 0'})"
    )

    chi3 = True
    worst = ""
    for j in range(r + 1):
        try:
            lo, hi = algebraic_moment_variation(kernel, j)
        except DivergentMomentError as exc:
            chi3 = False
            worst = f"order {j} divergent at u={exc.witness_u:.6g}"
            break
        report.algebraic_moment_variation[j] = (lo, hi)
        if hi - lo > _CHI3_REL * (1.0 + abs(hi)):
            chi3 = False
            if not worst:
                worst = f"order {j} varies by {hi - lo:.6g} over the u-scan"
    report.chi3_holds = chi3
    report.diagnostics["chi3"] = worst if worst else f"orders 0..{r} lattice-invariant"
    return report


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

KERNELS: dict[str, Kernel] = {}


def register_kernel(kernel: Kernel) -> Kernel:
    KERNELS[kernel.name] = kernel
    return kernel


for _n in (1, 2, 3, 4, 5):
    register_kernel(mellin_bspline(_n))
register_kernel(mellin_gaussian(1.0))
register_kernel(mellin_gaussian(0.5))
register_kernel(lin_kernel(0.0))
register_kernel(lin_kernel(1.0))


def get_kernel(name: str) -> Kernel:
    try:
        return KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel '{name}'; registered: {', '.join(sorted(KERNELS))}"
        ) from None
