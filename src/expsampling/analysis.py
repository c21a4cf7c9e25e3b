"""Experiment harnesses turning the operator estimates into checkable verdicts.

Each verifier runs a numerical experiment and reports a BoundCheck: the two
sides of the inequality at the least favourable grid point, a verdict, and
diagnostics.  Verdicts for bounds whose right side involves the grid-estimated
log-modulus (a lower bound of the true supremum) use the vocabulary
"consistent" / "violated beyond slack" rather than proved/refuted.

Hypothesis failures (a kernel without the required moments or positivity, a
function outside the admissible class) raise HypothesisNotMetError when they
block an experiment, and are reported as unmet-hypothesis verdicts inside the
suite runners.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DivergentMomentError,
    HypothesisNotMetError,
    InsufficientDataError,
)
from .kernels import (
    Kernel,
    MomentReport,
    _ROWS,
    _frac_grid,
    _moment_outcomes,
    algebraic_moment,
    check_kernel_conditions,
    discrete_absolute_moment,
    discrete_absolute_moment_estimate,
    eta_lower_bound,
)
from .operators import (
    _LOG_FLOAT_MAX,
    SamplingConfig,
    evaluate_on_grid,
    _as_log_values,
    _band,
    _geometry,
    _join,
    _require_denominator,
    _values,
)
from .spaces import (
    LogGrid,
    WeightedFunction,
    _BLOCK_POINTS,
    get_function,
    mellin_derivative_function,
    weighted_log_modulus,
)

__all__ = [
    "BoundCheck",
    "ErrorRow",
    "ErrorTable",
    "SuiteResult",
    "verify_weighted_image_bound",
    "verify_operator_norm",
    "convergence_experiment",
    "verify_quantitative_rate",
    "voronovskaja_check",
    "lemma_suite",
    "moment_dominance_check",
    "tail_decay_check",
    "denominator_bound_check",
    "max_product_lattice_checks",
    "rate_fit",
    "run_suite",
    "checks_to_markdown",
]

DEFAULT_RATE_OMEGA_GRID = LogGrid(-8.0, 8.0, 2001)
_BOUND_RTOL = 1e-9  # relative slack of the image and operator-norm verdicts


def _safe(v):
    """JSON-safe scalar: non-finite floats become strings."""
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    return v


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: lhs <= rhs + tolerance at the worst grid point.

    `witness` is the grid point of maximal violation (or tightest slack when
    the bound holds); `hypothesis_met` distinguishes genuine violations from
    experiments whose preconditions already fail.
    """

    bound_name: str
    lhs: float
    rhs: float
    holds: bool
    slack: float
    witness: Optional[float] = None
    hypothesis_met: bool = True
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "lhs": _safe(self.lhs),
            "rhs": _safe(self.rhs),
            "holds": self.holds,
            "slack": _safe(self.slack),
            "witness": _safe(self.witness) if self.witness is not None else None,
            "hypothesis_met": self.hypothesis_met,
            "details": {k: _safe(v) for k, v in sorted(self.details.items())},
        }


@dataclass(frozen=True)
class ErrorRow:
    w: float
    sup_abs_error: float
    weighted_sup_error: float
    grid: str
    note: str = ""


@dataclass
class ErrorTable:
    """Per-rate operator errors with the fitted empirical convergence order."""

    function_name: str
    kernel_name: str
    rows: list = field(default_factory=list)
    fitted_order: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "function_name": self.function_name,
            "kernel_name": self.kernel_name,
            "rows": [
                {
                    "w": r.w,
                    "sup_abs_error": _safe(r.sup_abs_error),
                    "weighted_sup_error": _safe(r.weighted_sup_error),
                    "grid": r.grid,
                    "note": r.note,
                }
                for r in self.rows
            ],
            "fitted_order": self.fitted_order,
        }


def _grid_spec(grid) -> str:
    return grid.spec() if isinstance(grid, LogGrid) else f"points:{len(grid)}"


def _require(condition: bool, message: str):
    if not condition:
        raise HypothesisNotMetError(message)


def _admissible(kernel: Kernel, mu: float, r: int = 0) -> MomentReport:
    """The kernel's condition report; raises unless chi1 (order mu) and chi2 hold."""
    report = check_kernel_conditions(kernel, mu, r)
    _require(report.chi1_holds, f"kernel '{kernel.name}' lacks a finite order-{mu:g} moment")
    _require(report.chi2_holds, f"kernel '{kernel.name}' has nonpositive infimum over [1,e]")
    return report


def _unmet(bound_name: str, lhs: float, rhs: float, **details) -> BoundCheck:
    """A check whose hypotheses fail: reported, neither held nor violated."""
    return BoundCheck(
        bound_name, lhs, rhs, holds=False, slack=math.nan, hypothesis_met=False, details=details
    )


# --------------------------------------------------------------------------
# image bound and operator norm
# --------------------------------------------------------------------------


def verify_weighted_image_bound(
    kernel: Kernel,
    config: SamplingConfig,
    grid: LogGrid,
) -> BoundCheck:
    """Check the max-product image of the reciprocal weight against its bound.

    At every grid x the value |MG(psi, x)| must stay below
    (1 + log^2 x)/eta * [m0 + (2/w) m1 + (1/w^2) m2].
    """
    report = _admissible(kernel, 2.0)
    m0 = report.absolute_moments[0.0]
    m1 = report.absolute_moments[1.0]
    m2 = report.absolute_moments[2.0]
    eta = report.eta
    w = config.w

    rows = evaluate_on_grid("MG", get_function("psi"), kernel, config, grid)
    vs = rows.log_x
    lhs = np.abs(rows.value)
    rhs = (1.0 + vs * vs) / eta * (m0 + 2.0 * m1 / w + m2 / (w * w))
    finite = np.isfinite(lhs)
    margin = np.where(finite, lhs - rhs, np.inf)
    i = int(np.argmax(margin))
    holds = bool(np.all(finite) and np.all(lhs <= rhs + _BOUND_RTOL * np.maximum(1.0, rhs)))
    return BoundCheck(
        bound_name="weighted_image_bound",
        lhs=float(lhs[i]),
        rhs=float(rhs[i]),
        holds=holds,
        slack=float(rhs[i] - lhs[i]),
        witness=float(rows.x[i]),
        details={
            "kernel": kernel.name,
            "w": w,
            "m0": m0,
            "m1": m1,
            "m2": m2,
            "eta": eta,
            "mode": "interval" if config.interval else "window",
            "grid": grid.spec(),
        },
    )


def verify_operator_norm(
    kernel: Kernel,
    config: SamplingConfig,
    grid: LogGrid,
    function_set: Optional[Sequence[WeightedFunction]] = None,
) -> BoundCheck:
    """Check the weighted operator norm bound (1/eta^2)[m0 + (2/w)m1 + (1/w^2)m2].

    The left side is the largest grid-estimated ratio of weighted norms over
    the probe function set.  The tighter variant with a single 1/eta is also
    evaluated and reported in the details.
    """
    report = _admissible(kernel, 2.0)
    m0 = report.absolute_moments[0.0]
    m1 = report.absolute_moments[1.0]
    m2 = report.absolute_moments[2.0]
    eta = report.eta
    w = config.w
    if function_set is None:
        function_set = tuple(
            get_function(n) for n in ("one", "log", "log2", "weight", "psi", "damped_log2")
        )

    vs = grid.log_values()
    wgt = 1.0 / (1.0 + vs * vs)
    ratios = {}
    for f in function_set:
        fvals = np.asarray(f.evaluate_log(vs), dtype=float)
        norm_f = float(np.max(wgt * np.abs(fvals)))
        if norm_f == 0.0:
            continue
        mg = evaluate_on_grid("MG", f, kernel, config, grid).value
        if not np.all(np.isfinite(mg)):
            ratios[f.name] = math.inf
            continue
        ratios[f.name] = float(np.max(wgt * np.abs(mg))) / norm_f

    worst = max(ratios, key=ratios.get)
    lhs = ratios[worst]
    rhs = (m0 + 2.0 * m1 / w + m2 / (w * w)) / (eta * eta)
    rhs_single_eta = rhs * eta
    return BoundCheck(
        bound_name="weighted_operator_norm",
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs + _BOUND_RTOL * max(1.0, rhs)),
        slack=rhs - lhs,
        witness=None,
        details={
            "kernel": kernel.name,
            "w": w,
            "worst_function": worst,
            "ratios": {k: _safe(v) for k, v in sorted(ratios.items())},
            "eta": eta,
            "single_eta_rhs": rhs_single_eta,
            "single_eta_bound_holds": bool(lhs <= rhs_single_eta + _BOUND_RTOL * max(1.0, rhs_single_eta)),
            "grid": grid.spec(),
        },
    )


# --------------------------------------------------------------------------
# convergence and rate experiments
# --------------------------------------------------------------------------


def convergence_experiment(
    f: WeightedFunction,
    kernel: Kernel,
    w_list: Sequence[float],
    grid: LogGrid,
    config: Optional[SamplingConfig] = None,
) -> ErrorTable:
    """Sup and weighted-sup max-product errors against f across increasing rates."""
    _require(f.nonnegative, f"'{f.name}' is not registered nonnegative; the limit statements assume it")
    base = config if config is not None else SamplingConfig(w=1.0)
    table = ErrorTable(function_name=f.name, kernel_name=kernel.name)
    for w in sorted(w_list):
        rows = evaluate_on_grid("MG", f, kernel, replace(base, w=float(w)), grid)
        errs, werrs = rows.error_vs_f, rows.weighted_error
        good = np.isfinite(errs)
        note = "" if good.all() else f"{int((~good).sum())} degenerate points skipped"
        table.rows.append(
            ErrorRow(
                w=float(w),
                sup_abs_error=float(np.max(errs[good])) if good.any() else math.nan,
                weighted_sup_error=float(np.max(werrs[good])) if good.any() else math.nan,
                grid=_grid_spec(grid),
                note=note,
            )
        )
    try:
        table.fitted_order = rate_fit(table)
    except InsufficientDataError:
        table.fitted_order = None
    return table


def rate_fit(table: ErrorTable) -> float:
    """Negated least-squares slope of log(weighted error) against log(w)."""
    pts = [
        (r.w, r.weighted_sup_error)
        for r in table.rows
        if math.isfinite(r.weighted_sup_error) and r.weighted_sup_error > 0.0
    ]
    if len(pts) < 3:
        raise InsufficientDataError(
            f"need at least 3 rows with positive errors, have {len(pts)}"
        )
    ws = np.log([p[0] for p in pts])
    es = np.log([p[1] for p in pts])
    slope = np.polyfit(ws, es, 1)[0]
    return float(-slope)


def verify_quantitative_rate(
    f: WeightedFunction,
    kernel: Kernel,
    w_list: Sequence[float],
    grid: LogGrid,
    slack: float = 0.05,
) -> list[BoundCheck]:
    """Check the modulus-of-continuity rate bound pointwise for each rate.

    For every w >= 1 the pointwise error of the max-product operator must stay
    within 64 (1 + log^2 x) Omega(f, 1/w) (m0 + m5) / eta, with Omega estimated
    on `DEFAULT_RATE_OMEGA_GRID` with 129 shifts (a lower bound of the true
    supremum, hence a "consistent" vocabulary: verdicts allow the relative
    `slack`).  The companion weighted-sup form is evaluated into the details.
    """
    if any(w < 1.0 for w in w_list):
        raise ValueError("rate bound requires w >= 1")
    report = _admissible(kernel, 5.0)
    _require(f.nonnegative, f"'{f.name}' is not registered nonnegative")
    m0 = report.absolute_moments[0.0]
    m5 = report.absolute_moments[5.0]
    eta = report.eta

    checks = []
    vs = grid.log_values()
    config = SamplingConfig(w=1.0)
    for w in sorted(w_list):
        w = float(w)
        omega = weighted_log_modulus(f, 1.0 / w, DEFAULT_RATE_OMEGA_GRID)
        rows = evaluate_on_grid("MG", f, kernel, replace(config, w=w), grid)
        lhs = rows.error_vs_f
        rhs = 64.0 * (1.0 + vs * vs) * omega * (m0 + m5) / eta
        finite = np.isfinite(lhs)
        margin = np.where(finite, lhs - rhs * (1.0 + slack), np.inf)
        i = int(np.argmax(margin))
        holds = bool(finite.all() and np.all(lhs <= rhs * (1.0 + slack)))
        w_lhs = float(np.max(lhs[finite] / (1.0 + vs[finite] ** 2))) if finite.any() else math.inf
        w_rhs = 64.0 * omega * (m0 + m5) / eta
        checks.append(
            BoundCheck(
                bound_name="quantitative_rate",
                lhs=float(lhs[i]),
                rhs=float(rhs[i]),
                holds=holds,
                slack=float(rhs[i] - lhs[i]),
                witness=float(rows.x[i]),
                details={
                    "kernel": kernel.name,
                    "function": f.name,
                    "w": w,
                    "omega": omega,
                    "m0": m0,
                    "m5": m5,
                    "eta": eta,
                    "slack_factor": slack,
                    "weighted_form_lhs": w_lhs,
                    "weighted_form_holds": bool(w_lhs <= w_rhs * (1.0 + slack)),
                    "verdict": "consistent" if holds else "violated beyond slack",
                },
            )
        )
    return checks


# --------------------------------------------------------------------------
# asymptotic expansion check
# --------------------------------------------------------------------------


def voronovskaja_check(
    f: WeightedFunction,
    kernel: Kernel,
    r: int,
    w_list: Sequence[float],
    x_grid: LogGrid,
    slack: float = 0.05,
    require_constant_moments: bool = True,
) -> list[BoundCheck]:
    """Check the quantitative asymptotic expansion of the max-product error.

    The scaled residual w^r |MG(f;x) - (1/M0) sum_t theta^t f(x)/(t! w^t) M_t|
    is compared against (64/(r! M0)) (1+log^2 x) Omega(theta^r f, 1/w)
    (m_r + m_{r+5}) at every grid point, Omega estimated as in
    `verify_quantitative_rate`.

    The primary verdict evaluates the algebraic moments M_t at the lattice
    phase of each evaluation point (the expansion's own normalisation M0 is
    then exactly the denominator join).  Two companion variants go into the
    details: lattice-constant moments taken at u = 1, and the absolute-join
    moment variant.  When the kernel's algebraic moments vary across the
    lattice (the constancy condition fails), the check refuses to run unless
    `require_constant_moments=False`, in which case the measured variation is
    attached to the verdict.

    The Mellin derivatives are evaluated at x = e^{log x}, so an x-grid on
    which x overflows (log x beyond 709.78) or underflows to 0 raises
    ConfigurationError before any work.
    """
    if r < 1:
        raise ValueError("expansion order r must be at least 1")
    if any(w < 1.0 for w in w_list):
        raise ValueError("expansion check requires w >= 1")
    if x_grid.log_max > _LOG_FLOAT_MAX or math.exp(x_grid.log_min) == 0.0:
        raise ConfigurationError(
            f"x-grid {x_grid.spec()} reaches beyond the floats: voronovskaja_check evaluates the "
            f"Mellin derivatives at x = e^(log x), which overflows for log x > {_LOG_FLOAT_MAX:.6g} "
            "and underflows to 0 for log x < -745.13"
        )
    report = _admissible(kernel, float(r + 5), r)
    _require(f.nonnegative, f"'{f.name}' is not registered nonnegative")
    if require_constant_moments and not report.chi3_holds:
        variation = {
            j: hi - lo for j, (lo, hi) in report.algebraic_moment_variation.items()
        }
        raise HypothesisNotMetError(
            f"algebraic moments of '{kernel.name}' vary across the lattice: {variation}; "
            "pass require_constant_moments=False to run with the variation attached"
        )

    theta_r = mellin_derivative_function(f, r)
    theta_fns = [f] + [mellin_derivative_function(f, t) for t in range(1, r + 1)]
    m_r = discrete_absolute_moment(kernel, float(r))
    m_r5 = report.absolute_moments[float(r + 5)]
    factorial_r = math.factorial(r)

    vs = x_grid.log_values()
    xs = np.exp(vs)
    theta_vals = [np.asarray(fn.evaluate(xs), dtype=float) for fn in theta_fns]
    const_m = {t: algebraic_moment(kernel, t, 1.0) for t in range(0, r + 1)}

    checks = []
    for w in sorted(w_list):
        w = float(w)
        config = SamplingConfig(w=w)
        omega = weighted_log_modulus(theta_r, 1.0 / w, DEFAULT_RATE_OMEGA_GRID)
        rows = evaluate_on_grid("MG", f, kernel, config, x_grid)
        mg = rows.value

        first, chi, mask, _ = _band(kernel, config, vs)
        offs = (first[:, None] + np.arange(chi.shape[1])) - w * vs[:, None]  # k - w log x
        m_pt = {}
        m_abs = {}
        for t in range(0, r + 1):
            m_pt[t] = _join(chi * offs**t, mask)
            m_abs[t] = _join(np.abs(chi) * np.abs(offs) ** t, mask)

        def expansion(moments, m0):
            total = np.zeros_like(vs)
            fact = 1.0
            for t in range(0, r + 1):
                if t > 0:
                    fact *= t
                total += theta_vals[t] / (fact * w**t) * moments[t]
            return total / m0

        left_pt = w**r * np.abs(mg - expansion(m_pt, m_pt[0]))
        left_const = w**r * np.abs(
            mg - expansion({t: np.full_like(vs, const_m[t]) for t in const_m}, const_m[0])
        )
        left_abs = w**r * np.abs(mg - expansion(m_abs, m_abs[0]))

        rhs = 64.0 / (factorial_r * m_pt[0]) * (1.0 + vs * vs) * omega * (m_r + m_r5)
        rhs_const = 64.0 / (factorial_r * const_m[0]) * (1.0 + vs * vs) * omega * (m_r + m_r5)

        finite = np.isfinite(left_pt)
        margin = np.where(finite, left_pt - rhs * (1.0 + slack), np.inf)
        i = int(np.argmax(margin))
        holds = bool(finite.all() and np.all(left_pt <= rhs * (1.0 + slack)))
        checks.append(
            BoundCheck(
                bound_name="voronovskaja_expansion",
                lhs=float(left_pt[i]),
                rhs=float(rhs[i]),
                holds=holds,
                slack=float(rhs[i] - left_pt[i]),
                witness=float(rows.x[i]),
                details={
                    "kernel": kernel.name,
                    "function": f.name,
                    "r": r,
                    "w": w,
                    "omega_theta_r": omega,
                    "m_r": m_r,
                    "m_r_plus_5": m_r5,
                    "left_max": float(np.max(left_pt[finite])) if finite.any() else math.inf,
                    "left_max_const": float(np.max(left_const[finite])) if finite.any() else math.inf,
                    "left_max_absolute": float(np.max(left_abs[finite])) if finite.any() else math.inf,
                    "const_holds": bool(np.all(left_const[finite] <= rhs_const[finite] * (1.0 + slack))),
                    "moment_constancy_holds": report.chi3_holds,
                    "moment_variation": {
                        str(j): hi - lo
                        for j, (lo, hi) in report.algebraic_moment_variation.items()
                    },
                    "slack_factor": slack,
                    "verdict": "consistent" if holds else "violated beyond slack",
                },
            )
        )
    return checks


# --------------------------------------------------------------------------
# lemma-level checks
# --------------------------------------------------------------------------


def moment_dominance_check(kernel: Kernel) -> BoundCheck:
    """Every moment of order nu in {0, 0.5, 1, 1.5, 2} must stay below m0 + m2."""
    orders = (0.0, 0.5, 1.0, 1.5, 2.0)
    _moment_outcomes(kernel, orders)  # one pass for the five scans
    try:
        moments = {nu: discrete_absolute_moment(kernel, nu) for nu in orders}
    except DivergentMomentError as exc:
        return _unmet(
            "moment_dominance", math.inf, math.inf, kernel=kernel.name, mu=2.0,
            reason=f"m_{exc.order:g} divergent at u={exc.witness_u:.6g}, k={exc.witness_k}",
        )
    rhs = moments[0.0] + moments[2.0]
    worst_nu = max(moments, key=moments.get)
    lhs = moments[worst_nu]
    return BoundCheck(
        bound_name="moment_dominance",
        lhs=lhs,
        rhs=rhs,
        holds=bool(lhs <= rhs + 1e-12 * max(1.0, rhs)),
        slack=rhs - lhs,
        witness=None,
        details={
            "kernel": kernel.name,
            "mu": 2.0,
            "worst_order": worst_nu,
            "moments": {f"{k:g}": v for k, v in sorted(moments.items())},
        },
    )


def tail_decay_check(
    kernel: Kernel,
    nu: float,
    delta: float,
    w: float,
) -> BoundCheck:
    """The lattice join beyond offset delta*w must fall below m_nu/(delta w)^nu.

    Scans u over one log-period and joins |chi(e^{-k} u)| over the indices
    with |k - log u| > delta w, for k = -reach ... reach + 1.  The reach is
    ceil(delta w) + max(32, h), h the half-width of the m_nu scan, capped at
    ceil(max(delta w, R)) + 2 when the kernel is exactly 0 beyond R, its
    `log_support_radius` or else its `zero_radius`.
    """
    return _tail_decay_checks(kernel, [(nu, delta)], w)[0]


def _tail_decay_checks(kernel: Kernel, pairs: Sequence[tuple], w: float) -> list[BoundCheck]:
    """`tail_decay_check` for each (nu, delta) in pairs, from one |chi| block over
    their largest reach; each check joins over its own rows, as its one-pair call."""
    checks, scans = [], []
    for nu, delta in pairs:
        try:
            est = discrete_absolute_moment_estimate(kernel, nu)
        except DivergentMomentError as exc:
            checks.append(_unmet(
                "tail_decay", math.inf, math.inf, kernel=kernel.name, nu=nu,
                reason=f"m_{nu:g} divergent at u={exc.witness_u:.6g}",
            ))
            continue
        cut = delta * w
        reach = math.ceil(cut) + max(32, est.half_width)
        radius = kernel.log_support_radius if kernel.log_support_radius is not None else kernel.zero_radius
        if radius is not None:
            reach = min(reach, math.ceil(max(cut, radius)) + 2)
        scans.append((len(checks), nu, delta, est.value, cut, reach))
        checks.append(None)
    vs = _frac_grid()
    top = max((s[-1] for s in scans), default=-1)  # -1: no rows when every moment diverges
    per_u = np.full((len(scans), vs.size), -np.inf)
    for lo in range(-top, top + 2, _ROWS):
        ks = np.arange(lo, min(lo + _ROWS, top + 2))
        t = vs[None, :] - ks[:, None]
        chi, abs_t = np.abs(kernel.log_profile(t)), np.abs(t)
        for row, (*_, cut, reach) in zip(per_u, scans):
            own = slice(max(0, -reach - lo), max(0, reach + 2 - lo))  # the rows -reach <= k <= reach + 1
            if chi[own].size:
                np.maximum(row, np.where(abs_t[own] > cut, chi[own], -np.inf).max(axis=0), out=row)
    for row, (j, nu, delta, m_nu, cut, _) in zip(per_u, scans):
        i = int(np.argmax(row))
        lhs = float(row[i])
        rhs = m_nu / cut**nu
        checks[j] = BoundCheck(
            bound_name="tail_decay",
            lhs=lhs,
            rhs=rhs,
            holds=bool(lhs <= rhs + 1e-12 * max(1.0, rhs)),
            slack=rhs - lhs,
            witness=float(math.exp(vs[i])),
            details={"kernel": kernel.name, "nu": nu, "delta": delta, "w": w, "m_nu": m_nu},
        )
    return checks


def denominator_bound_check(kernel: Kernel) -> BoundCheck:
    """The denominator join must stay above the kernel infimum over [1, e].

    At each w in {1, 2, 4, 8} checks the interval-mode join over J_w on
    257 points of [1, e], and the full-window join on 257 points of
    log x in [-2, 2].
    """
    eta = eta_lower_bound(kernel)
    if eta <= 0.0:
        return _unmet(
            "denominator_lower_bound", eta, math.nan, kernel=kernel.name,
            reason=f"kernel infimum over [1,e] is {eta:.6g}, not positive",
        )
    inner, wide = LogGrid(0.0, 1.0, 257).log_values(), LogGrid(-2.0, 2.0, 257).log_values()
    min_join, witness = math.inf, None
    for w in (1.0, 2.0, 4.0, 8.0):
        for config, vs in ((SamplingConfig(w=w, interval=(1.0, math.e)), inner), (SamplingConfig(w=w), wide)):
            _, chi, mask, _ = _band(kernel, config, vs)
            joins = _join(chi, mask)
            j = int(np.argmin(joins))
            if joins[j] < min_join:
                min_join, witness = float(joins[j]), float(math.exp(vs[j]))
    return BoundCheck(
        bound_name="denominator_lower_bound",
        lhs=eta,
        rhs=min_join,
        holds=bool(eta <= min_join + 1e-12),
        slack=min_join - eta,
        witness=witness,
        details={"kernel": kernel.name, "interval": [1.0, math.e], "w_list": [1.0, 2.0, 4.0, 8.0]},
    )


def lemma_suite(kernel: Kernel) -> list[BoundCheck]:
    """Moment dominance, tail decay and denominator bound for one kernel."""
    return [
        moment_dominance_check(kernel),
        *_tail_decay_checks(kernel, [(nu, delta) for nu in (1.0, 2.0) for delta in (0.25, 0.5)], 8.0),
        denominator_bound_check(kernel),
    ]


# --------------------------------------------------------------------------
# lattice (max-plus) structure of the operator
# --------------------------------------------------------------------------


def max_product_lattice_checks(
    kernel: Kernel,
    config: SamplingConfig,
    grid: LogGrid,
    n_vectors: int = 200,
    seed: int = 0,
) -> list[BoundCheck]:
    """Monotonicity, subadditivity, absolute-difference domination and positive
    homogeneity of the max-product operator over seeded random nonnegative
    sample vectors.

    Each check reports the worst signed violation across vectors and grid
    points as lhs (so lhs <= 0 means every inequality held).  ValueError
    unless n_vectors >= 1.
    """
    if n_vectors < 1:
        raise ValueError(f"n_vectors must be at least 1, got {n_vectors!r}")
    if config.interval is None:
        raise HypothesisNotMetError("lattice checks run in interval mode")
    vs = _as_log_values(grid)
    first, width, half, active, full = _geometry(kernel, config, vs)
    chi, mask = _values(kernel, config.w * vs, first, width, half, active, full)  # no mask when full
    den = _join(chi, mask)
    _require_denominator(kernel, config, vs, den)
    # the band as (width, points), so that a join is an elementwise max over its columns;
    # column -> position in J_w, and inactive columns read any sample and are masked
    chi, mask = chi.T.copy(), None if mask is None else mask.T.copy()
    cols = np.clip(first + np.arange(width)[:, None] - active.start, 0, len(active) - 1)
    rng = np.random.default_rng(seed)
    names = {
        "monotone": "max_product_monotonicity",
        "subadd": "max_product_subadditivity",
        "absdiff": "max_product_absolute_difference",
        "homog": "max_product_homogeneity",
    }
    worst = dict.fromkeys(names, -math.inf)

    def mg(vecs):
        return _join(chi * vecs[:, cols], mask, axis=1) / den

    def fold(key, violation):  # vector by vector, as a running max over single vectors
        worst[key] = max(worst[key], *violation.max(axis=1).tolist())

    # f, g and lambda are drawn per vector in turn; the joins run on blocks of vectors x points x width
    draws = [
        (rng.uniform(0.0, 1.0, len(active)), rng.uniform(0.0, 1.0, len(active)), rng.uniform(0.1, 10.0))
        for _ in range(n_vectors)
    ]
    fvecs, gvecs, lams = (np.array(column) for column in zip(*draws))
    step = max(1, _BLOCK_POINTS // chi.size)
    for lo in range(0, n_vectors, step):
        fvec, gvec, lam = fvecs[lo : lo + step], gvecs[lo : lo + step], lams[lo : lo + step, None]
        mg_f = mg(fvec)
        mg_g = mg(gvec)
        fold("monotone", mg_f - mg(np.maximum(fvec, gvec)))
        fold("subadd", mg(fvec + gvec) - mg_f - mg_g)
        fold("absdiff", np.abs(mg_f - mg_g) - mg(np.abs(fvec - gvec)))
        fold("homog", np.abs(mg(lam * fvec) - lam * mg_f) / np.maximum(1.0, lam * np.abs(mg_f)))
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


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------


@dataclass
class SuiteResult:
    checks: list = field(default_factory=list)
    tables: list = field(default_factory=list)

    @property
    def violations(self) -> list:
        return [c for c in self.checks if c.hypothesis_met and not c.holds]

    @property
    def hypothesis_failures(self) -> list:
        return [c for c in self.checks if not c.hypothesis_met]

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "tables": [t.to_dict() for t in self.tables],
            "n_violations": len(self.violations),
            "n_hypothesis_failures": len(self.hypothesis_failures),
        }


def run_suite(kernel_names: Sequence[str], seed: int = 0) -> SuiteResult:
    """The desk-scale verification suite used by the command-line runner."""
    from .kernels import get_kernel

    result = SuiteResult()
    grid = LogGrid(-2.0, 2.0, 129)
    for name in kernel_names:
        kernel = get_kernel(name)
        result.checks.extend(lemma_suite(kernel))
        config = SamplingConfig(w=8.0)
        try:
            result.checks.append(verify_weighted_image_bound(kernel, config, grid))
            result.checks.append(verify_operator_norm(kernel, config, grid))
        except HypothesisNotMetError as exc:
            result.checks.append(
                _unmet("weighted_image_bound", math.nan, math.nan, kernel=name, reason=str(exc))
            )
            continue
        # the image bound required chi2, so the denominator is positive here
        lattice_config = SamplingConfig(w=8.0, interval=(1.0, math.e))
        result.checks.extend(
            max_product_lattice_checks(kernel, lattice_config, LogGrid(0.0, 1.0, 65), 100, seed)
        )
        result.tables.append(
            convergence_experiment(get_function("weight"), kernel, (4.0, 8.0, 16.0, 32.0), grid)
        )
    return result


def checks_to_markdown(checks: Sequence[BoundCheck]) -> str:
    """Render verdicts as a Markdown summary table."""
    lines = [
        "| check | lhs | rhs | holds | hypothesis met | witness |",
        "|---|---|---|---|---|---|",
    ]
    for c in checks:
        wit = f"{c.witness:.6g}" if c.witness is not None else "-"
        lines.append(
            f"| {c.bound_name} | {c.lhs:.6g} | {c.rhs:.6g} | "
            f"{'yes' if c.holds else 'NO'} | {'yes' if c.hypothesis_met else 'no'} | {wit} |"
        )
    return "\n".join(lines) + "\n"
