"""Command-line runner with reproducible CSV/JSON/Markdown artifacts.

Exit codes: 0 success, 1 at least one hypothesis-met check violated,
2 usage error, 3 hypotheses of the requested experiment not met.
Identical invocations produce byte-identical artifacts; every output embeds
the fully resolved run configuration.  Each subcommand accepts only the flags
and formats it uses; any other is a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass
from typing import Optional

from . import analysis
from .analysis import _safe
from .errors import (
    ConfigurationError,
    DivergentMomentError,
    ExpSamplingError,
    HypothesisNotMetError,
)
from .kernels import KERNELS, check_kernel_conditions, discrete_absolute_moment_estimate, get_kernel
from .operators import OPERATOR_TAGS, SamplingConfig, evaluate_on_grid
from .spaces import FUNCTIONS, LogGrid, get_function

__all__ = ["RunConfig", "run", "list_registries", "main", "build_parser"]

_OUTDIR_ENV = "EXPSAMPLING_OUTDIR"
_MOMENT_ORDERS = (0.0, 1.0, 2.0)  # `moments` without --nu, or with an empty one
_SUITE_KERNELS = ("bspline3", "gauss1")  # `suite` without --kernels, or with an empty one


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation; identical configs yield identical artifacts."""

    command: str
    kernel: Optional[str] = None
    kernels: tuple = ()
    function: Optional[str] = None
    w_list: tuple = ()
    interval: Optional[tuple] = None
    window: Optional[int] = None
    grid: Optional[str] = None
    output: Optional[str] = None
    fmt: str = "json"
    seed: int = 0
    mu: float = 2.0
    r: int = 1
    nu_list: tuple = ()
    op: str = "S"
    c: float = 0.0
    quadrature_points: int = 8
    allow_varying_moments: bool = False

    def to_dict(self) -> dict:
        d = asdict(self)
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in sorted(d.items())}


def _parse_grid(spec: str) -> LogGrid:
    try:
        lo, hi, n = spec.split(":")
        return LogGrid(float(lo), float(hi), int(n))
    except (ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"bad grid spec {spec!r}; expected logmin:logmax:points") from exc


def _floats(text: str) -> tuple:
    """A comma-separated list of floats; empty items are skipped."""
    try:
        return tuple(float(t) for t in text.split(",") if t != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _names(text: str) -> tuple:
    return tuple(t for t in text.split(",") if t)


def _interval(text: str) -> Optional[tuple]:
    """'a,b' as a pair of floats; an empty value means no interval."""
    if not text:
        return None
    parts = _floats(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"interval must be 'a,b', got {text!r}")
    return parts


def _f17(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _resolve_output(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    base = os.environ.get(_OUTDIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".expsampling-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(config: RunConfig, text: str) -> None:
    out = _resolve_output(config.output)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)
        print(f"wrote {out}")


def _json_payload(config: RunConfig, results) -> str:
    """Strict JSON: a non-finite float that reaches here raises ValueError (exit 2)."""
    payload = {"config": config.to_dict(), "results": results}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_payload(config: RunConfig, header: list, rows: list) -> str:
    lines = [f"# config: {json.dumps(config.to_dict(), sort_keys=True, allow_nan=False)}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_f17(v) for v in row))
    return "\n".join(lines) + "\n"


def _md_payload(config: RunConfig, body: str) -> str:
    return f"<!-- config: {json.dumps(config.to_dict(), sort_keys=True, allow_nan=False)} -->\n\n{body}"


def list_registries() -> str:
    """Names and one-line descriptions of the built-in kernels and functions."""
    lines = ["kernels:"]
    for name in sorted(KERNELS):
        lines.append(f"  {name:12s} {KERNELS[name].description}")
    lines.append("functions:")
    for name in sorted(FUNCTIONS):
        lines.append(f"  {name:16s} {FUNCTIONS[name].description}")
    return "\n".join(lines) + "\n"


def _sampling_config(config: RunConfig, w: float) -> SamplingConfig:
    return SamplingConfig(
        w=w,
        interval=config.interval,
        window_half_width=config.window,
        quadrature_points=config.quadrature_points,
    )


def _check_lines(checks) -> None:
    for c in checks:
        if not c.hypothesis_met:
            status = "hypothesis-not-met"
        else:
            status = "ok" if c.holds else "VIOLATED"
        wit = f" witness={c.witness:.6g}" if c.witness is not None else ""
        print(f"[{status}] {c.bound_name}: lhs={c.lhs:.6g} rhs={c.rhs:.6g}{wit}")


def _checks_exit(checks) -> int:
    return 1 if any(c.hypothesis_met and not c.holds for c in checks) else 0


def _emit_checks(config: RunConfig, checks) -> None:
    if config.fmt == "csv":
        header = ["bound_name", "lhs", "rhs", "holds", "slack", "witness", "hypothesis_met"]
        rows = [
            [c.bound_name, c.lhs, c.rhs, c.holds, c.slack, c.witness, c.hypothesis_met]
            for c in checks
        ]
        _emit(config, _csv_payload(config, header, rows))
    elif config.fmt == "md":
        _emit(config, _md_payload(config, analysis.checks_to_markdown(checks)))
    else:
        _emit(config, _json_payload(config, [c.to_dict() for c in checks]))


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------


def _cmd_kernel_check(config: RunConfig) -> int:
    kernel = get_kernel(config.kernel)
    report = check_kernel_conditions(kernel, config.mu, config.r)
    print(
        f"kernel-check {kernel.name}: chi1={'yes' if report.chi1_holds else 'no'} "
        f"chi2={'yes' if report.chi2_holds else 'no'} (eta={report.eta:.6g}) "
        f"chi3={'yes' if report.chi3_holds else 'no'}"
    )
    _emit(config, _json_payload(config, report.to_dict()))
    return 0


def _cmd_moments(config: RunConfig) -> int:
    kernel = get_kernel(config.kernel)
    rows = []
    for nu in config.nu_list or _MOMENT_ORDERS:
        try:
            est = discrete_absolute_moment_estimate(kernel, nu)
            rows.append(
                {
                    "nu": nu,
                    "value": est.value,
                    "half_width": est.half_width,
                    "tail_bound": est.tail_bound,
                    "divergent": False,
                }
            )
            print(f"m_{nu:g}({kernel.name}) = {est.value:.12g} (tail bound {est.tail_bound:.3g})")
        except DivergentMomentError as exc:
            rows.append(
                {
                    "nu": nu,
                    "value": None,
                    "divergent": True,
                    "witness_u": exc.witness_u,
                    "witness_k": exc.witness_k,
                }
            )
            print(f"m_{nu:g}({kernel.name}) divergent: witness u={exc.witness_u:.6g} k={exc.witness_k}")
    if config.fmt == "csv":
        header = ["nu", "value", "half_width", "tail_bound", "divergent", "witness_u", "witness_k"]
        _emit(config, _csv_payload(config, header, [[r.get(k) for k in header] for r in rows]))
    else:
        _emit(config, _json_payload(config, rows))
    return 0


def _cmd_reconstruct(config: RunConfig) -> int:
    kernel = get_kernel(config.kernel)
    f = get_function(config.function)
    grid = _parse_grid(config.grid)
    if len(config.w_list) > 1:
        raise ConfigurationError(f"reconstruct takes one sampling rate, got {len(config.w_list)}")
    w = config.w_list[0] if config.w_list else 8.0
    rows = evaluate_on_grid(config.op, f, kernel, _sampling_config(config, w), grid, c=config.c)
    worst = max(filter(math.isfinite, rows.weighted_error.tolist()), default=math.nan)
    print(
        f"reconstruct {config.op} function={f.name} kernel={kernel.name} w={w:g}: "
        f"{len(rows)} points, max weighted error {worst:.6g}"
    )
    header = ["x", "log_x", "value", "error_vs_f", "weighted_error"]
    if config.fmt == "json":
        payload = [dict({k: _safe(getattr(r, k)) for k in header}, note=r.note) for r in rows]
        _emit(config, _json_payload(config, payload))
    else:
        _emit(config, _csv_payload(config, header, [[getattr(r, k) for k in header] for r in rows]))
    return 0


def _cmd_converge(config: RunConfig) -> int:
    kernel = get_kernel(config.kernel)
    f = get_function(config.function)
    grid = _parse_grid(config.grid or "-2:2:257")
    base = _sampling_config(config, config.w_list[0] if config.w_list else 4.0)
    table = analysis.convergence_experiment(f, kernel, config.w_list or (4, 8, 16, 32), grid, base)
    for row in table.rows:
        print(
            f"w={row.w:g}: sup error {row.sup_abs_error:.6g}, "
            f"weighted sup error {row.weighted_sup_error:.6g}"
        )
    if table.fitted_order is not None:
        print(f"fitted order: {table.fitted_order:.3f}")
    if config.fmt == "csv":
        header = ["w", "sup_abs_error", "weighted_sup_error", "grid", "fitted_order"]
        rows = [
            [r.w, r.sup_abs_error, r.weighted_sup_error, r.grid, table.fitted_order]
            for r in table.rows
        ]
        _emit(config, _csv_payload(config, header, rows))
    else:
        _emit(config, _json_payload(config, table.to_dict()))
    return 0


def _cmd_rate(config: RunConfig) -> int:
    kernel = get_kernel(config.kernel)
    f = get_function(config.function)
    grid = _parse_grid(config.grid or "-2:2:257")
    checks = analysis.verify_quantitative_rate(f, kernel, config.w_list or (8, 16, 32), grid)
    _check_lines(checks)
    _emit_checks(config, checks)
    return _checks_exit(checks)


def _cmd_voronovskaja(config: RunConfig) -> int:
    kernel = get_kernel(config.kernel)
    f = get_function(config.function)
    grid = _parse_grid(config.grid or "-2:2:257")
    checks = analysis.voronovskaja_check(
        f,
        kernel,
        config.r,
        config.w_list or (8, 16, 32),
        grid,
        require_constant_moments=not config.allow_varying_moments,
    )
    _check_lines(checks)
    _emit_checks(config, checks)
    return _checks_exit(checks)


def _cmd_suite(config: RunConfig) -> int:
    names = config.kernels or _SUITE_KERNELS
    result = analysis.run_suite(names, seed=config.seed)
    _check_lines(result.checks)
    for table in result.tables:
        order = f"{table.fitted_order:.3f}" if table.fitted_order is not None else "n/a"
        print(f"convergence {table.function_name}/{table.kernel_name}: fitted order {order}")
    if config.fmt == "json":
        _emit(config, _json_payload(config, result.to_dict()))
    else:
        _emit_checks(config, result.checks)
    return 1 if result.violations else 0


_COMMANDS = {
    "kernel-check": _cmd_kernel_check,
    "moments": _cmd_moments,
    "reconstruct": _cmd_reconstruct,
    "converge": _cmd_converge,
    "rate": _cmd_rate,
    "voronovskaja": _cmd_voronovskaja,
    "suite": _cmd_suite,
}


def run(config: RunConfig) -> int:
    """Dispatch one resolved command; returns the process exit code."""
    if config.command == "list":
        sys.stdout.write(list_registries())
        return 0
    handler = _COMMANDS.get(config.command)
    if handler is None:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return 2
    try:
        return handler(config)
    except HypothesisNotMetError as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 3
    except (ConfigurationError, ValueError, ExpSamplingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser; each namespace it returns holds RunConfig fields only.

    A flag left out is left out of the namespace, so RunConfig's default
    applies; only `--nu` and `--kernels` have command-specific defaults.
    """
    parser = argparse.ArgumentParser(
        prog="expsampling",
        description="Exponential sampling operators: kernel checks, reconstructions and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    def common(p, formats, series=False, domain=False):
        p.add_argument("--kernel", required=True, help="kernel registry name")
        if series:
            p.add_argument("--function", required=True, help="function registry name")
            p.add_argument("--w", dest="w_list", metavar="W", type=_floats,
                           help="comma-separated sampling rates (reconstruct: one)")
            p.add_argument("--grid", help="log-grid spec logmin:logmax:points")
        if domain:
            p.add_argument("--interval", type=_interval, help="compact domain a,b (interval mode)")
            p.add_argument("--window", type=int, help="truncation half-width (window mode)")
        p.add_argument("--output", help="artifact path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=formats)

    command("list", "list kernel and function registries")

    p = command("kernel-check", "run the kernel condition checks")
    common(p, ("json",))
    p.add_argument("--mu", type=float, help="absolute-moment order for chi1")
    p.add_argument("--r", type=int, help="highest algebraic-moment order for chi3")

    p = command("moments", "scan discrete absolute moments")
    common(p, ("csv", "json"))
    p.add_argument("--nu", dest="nu_list", metavar="NU", type=_floats, default=_MOMENT_ORDERS,
                   help="comma-separated moment orders")

    p = command("reconstruct", "evaluate one operator over a grid")
    common(p, ("csv", "json"), series=True, domain=True)
    p.add_argument("--op", choices=OPERATOR_TAGS)
    p.add_argument("--c", type=float, help="damping exponent for the classical series")
    p.add_argument("--quad-points", dest="quadrature_points", type=int)

    p = command("converge", "error decay of the max-product operator")
    common(p, ("csv", "json"), series=True, domain=True)

    p = command("rate", "modulus-of-continuity rate bound")
    common(p, ("csv", "json", "md"), series=True)

    p = command("voronovskaja", "asymptotic expansion check")
    common(p, ("csv", "json", "md"), series=True)
    p.add_argument("--r", type=int, help="expansion order")
    p.add_argument(
        "--allow-varying-moments",
        action="store_true",
        help="run even when the kernel's algebraic moments vary across the lattice",
    )

    p = command("suite", "run the verification suite")
    p.add_argument("--kernels", type=_names, default=_SUITE_KERNELS, help="comma-separated kernel names")
    p.add_argument("--output")
    p.add_argument("--format", dest="fmt", choices=("csv", "json", "md"))
    p.add_argument("--seed", type=int)

    return parser


_VALUE_FLAGS = ("--grid", "--interval", "--w", "--nu", "--c")


def _merge_value_flags(argv):
    """Join value-taking flags with their argument so grids like -1:1:101 parse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# main parses with one parser per process; build_parser() stays fresh per call
_shared_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    """Parse and run one command; returns the exit code, argparse's own (2 for
    a usage error, 0 for --help) when parsing stops."""
    try:
        args = _shared_parser().parse_args(_merge_value_flags(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code
    return run(RunConfig(**vars(args)))


if __name__ == "__main__":
    sys.exit(main())
