"""Command-line runner with reproducible CSV/JSON/Markdown artifacts.

Exit codes: 0 success, 1 at least one hypothesis-met check violated,
2 usage error, 3 hypotheses of the requested experiment not met.
Identical invocations produce byte-identical artifacts, and every artifact
embeds the command, the schema and the command's flags as resolved.  Each
subcommand accepts only the flags and formats it uses; any other is a usage
error.  Without --output, stdout is the artifact and summaries go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile
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

__all__ = ["run", "list_registries", "main", "build_parser"]

_OUTDIR_ENV = "EXPSAMPLING_OUTDIR"
_SCHEMA = 2
_GRID = "-2:2:257"
# Each command's flag defaults, typed as the flag's converter types a value.
# An empty list value (--w "") means the default too.  A flag not listed
# defaults to None: --output (stdout), --interval (window mode) and --window
# (the per-kernel default half-width).
_DEFAULTS = {
    "list": {},
    "kernel-check": {"fmt": "json", "mu": 2.0, "r": 1},
    "moments": {"fmt": "json", "nu_list": (0.0, 1.0, 2.0)},
    "reconstruct": {"fmt": "json", "w_list": (8.0,), "grid": _GRID, "op": "S", "c": 0.0,
                    "quadrature_points": 8},
    "converge": {"fmt": "json", "w_list": (4.0, 8.0, 16.0, 32.0), "grid": _GRID},
    "rate": {"fmt": "json", "w_list": (8.0, 16.0, 32.0), "grid": _GRID},
    "voronovskaja": {"fmt": "json", "w_list": (8.0, 16.0, 32.0), "grid": _GRID, "r": 1},
    "suite": {"fmt": "json", "kernels": ("bspline3", "gauss1"), "seed": 0},
}


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


def _output(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {seed}")
    return seed


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


def _config(args: argparse.Namespace) -> dict:
    """The artifact's config: the command, the schema and the command's resolved flags."""
    return {**vars(args), "schema": _SCHEMA}


def _say(args: argparse.Namespace, line: str) -> None:
    """A summary line: on stdout beside --output, else on stderr, as stdout is the artifact."""
    print(line, file=sys.stderr if args.output is None else sys.stdout)


def _emit(args: argparse.Namespace, text: str) -> None:
    out = _resolve_output(args.output)
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)
        print(f"wrote {out}")


def _json_payload(args: argparse.Namespace, results) -> str:
    """Strict JSON: a non-finite float that reaches here raises ValueError (exit 2)."""
    payload = {"config": _config(args), "results": results}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_lines(header: list, rows: list) -> str:
    return "".join(",".join(map(_f17, row)) + "\n" for row in [header, *rows])


def _md_lines(header: list, rows: list) -> str:
    return "".join(f"| {' | '.join(map(_f17, row))} |\n" for row in [header, ["---"] * len(header), *rows])


def _csv_payload(args: argparse.Namespace, header: list, rows: list) -> str:
    config = json.dumps(_config(args), sort_keys=True, allow_nan=False)
    return f"# config: {config}\n" + _csv_lines(header, rows)


def _md_payload(args: argparse.Namespace, body: str) -> str:
    return f"<!-- config: {json.dumps(_config(args), sort_keys=True, allow_nan=False)} -->\n\n{body}"


def list_registries() -> str:
    """Names and one-line descriptions of the built-in kernels and functions."""
    lines = ["kernels:"]
    for name in sorted(KERNELS):
        lines.append(f"  {name:12s} {KERNELS[name].description}")
    lines.append("functions:")
    for name in sorted(FUNCTIONS):
        lines.append(f"  {name:16s} {FUNCTIONS[name].description}")
    return "\n".join(lines) + "\n"


def _check_lines(args: argparse.Namespace, checks) -> None:
    for c in checks:
        if not c.hypothesis_met:
            status = "hypothesis-not-met"
        else:
            status = "ok" if c.holds else "VIOLATED"
        wit = f" witness={c.witness:.6g}" if c.witness is not None else ""
        _say(args, f"[{status}] {c.bound_name}: lhs={c.lhs:.6g} rhs={c.rhs:.6g}{wit}")


def _checks_payload(args: argparse.Namespace, checks) -> str:
    if args.fmt == "csv":
        header = ["bound_name", "lhs", "rhs", "holds", "slack", "witness", "hypothesis_met"]
        rows = [
            [c.bound_name, c.lhs, c.rhs, c.holds, c.slack, c.witness, c.hypothesis_met]
            for c in checks
        ]
        return _csv_payload(args, header, rows)
    if args.fmt == "md":
        return _md_payload(args, analysis.checks_to_markdown(checks))
    return _json_payload(args, [c.to_dict() for c in checks])


def _report(args: argparse.Namespace, checks) -> int:
    """Write the checks' summary lines and artifact; exit 1 if one is violated."""
    _check_lines(args, checks)
    _emit(args, _checks_payload(args, checks))
    return 1 if any(c.hypothesis_met and not c.holds for c in checks) else 0


_TABLE_HEADER = ["w", "sup_abs_error", "weighted_sup_error", "grid", "fitted_order"]


def _table_rows(table) -> list:
    """One row per rate of a convergence table, in `_TABLE_HEADER`'s columns."""
    return [[r.w, r.sup_abs_error, r.weighted_sup_error, r.grid, table.fitted_order] for r in table.rows]


def _series(args: argparse.Namespace) -> tuple:
    """The kernel, function and grid of a command that evaluates a series."""
    return get_kernel(args.kernel), get_function(args.function), _parse_grid(args.grid)


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------


def _cmd_kernel_check(args: argparse.Namespace) -> int:
    kernel = get_kernel(args.kernel)
    report = check_kernel_conditions(kernel, args.mu, args.r)
    _say(
        args,
        f"kernel-check {kernel.name}: chi1={'yes' if report.chi1_holds else 'no'} "
        f"chi2={'yes' if report.chi2_holds else 'no'} (eta={report.eta:.6g}) "
        f"chi3={'yes' if report.chi3_holds else 'no'}",
    )
    _emit(args, _json_payload(args, report.to_dict()))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    kernel = get_kernel(args.kernel)
    rows = []
    for nu in args.nu_list:
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
            _say(args, f"m_{nu:g}({kernel.name}) = {est.value:.12g} (tail bound {est.tail_bound:.3g})")
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
            _say(args, f"m_{nu:g}({kernel.name}) divergent: witness u={exc.witness_u:.6g} k={exc.witness_k}")
    if args.fmt == "csv":
        header = ["nu", "value", "half_width", "tail_bound", "divergent", "witness_u", "witness_k"]
        _emit(args, _csv_payload(args, header, [[r.get(k) for k in header] for r in rows]))
    else:
        _emit(args, _json_payload(args, rows))
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    kernel, f, grid = _series(args)
    if len(args.w_list) > 1:
        raise ConfigurationError(f"reconstruct takes one sampling rate, got {len(args.w_list)}")
    [w] = args.w_list
    config = SamplingConfig(
        w=w, interval=args.interval, window_half_width=args.window, quadrature_points=args.quadrature_points
    )
    rows = evaluate_on_grid(args.op, f, kernel, config, grid, c=args.c)
    worst = max(filter(math.isfinite, rows.weighted_error.tolist()), default=math.nan)
    _say(
        args,
        f"reconstruct {args.op} function={f.name} kernel={kernel.name} w={w:g}: "
        f"{len(rows)} points, max weighted error {worst:.6g}",
    )
    header = ["x", "log_x", "value", "error_vs_f", "weighted_error"]
    if args.fmt == "json":
        payload = [dict({k: _safe(getattr(r, k)) for k in header}, note=r.note) for r in rows]
        _emit(args, _json_payload(args, payload))
    else:
        _emit(args, _csv_payload(args, header, [[getattr(r, k) for k in header] for r in rows]))
    return 0


def _cmd_converge(args: argparse.Namespace) -> int:
    kernel, f, grid = _series(args)
    base = SamplingConfig(w=args.w_list[0], interval=args.interval, window_half_width=args.window)
    table = analysis.convergence_experiment(f, kernel, args.w_list, grid, base)
    for row in table.rows:
        _say(
            args,
            f"w={row.w:g}: sup error {row.sup_abs_error:.6g}, "
            f"weighted sup error {row.weighted_sup_error:.6g}",
        )
    if table.fitted_order is not None:
        _say(args, f"fitted order: {table.fitted_order:.3f}")
    if args.fmt == "csv":
        _emit(args, _csv_payload(args, _TABLE_HEADER, _table_rows(table)))
    else:
        _emit(args, _json_payload(args, table.to_dict()))
    return 0


def _cmd_rate(args: argparse.Namespace) -> int:
    kernel, f, grid = _series(args)
    return _report(args, analysis.verify_quantitative_rate(f, kernel, args.w_list, grid))


def _cmd_voronovskaja(args: argparse.Namespace) -> int:
    kernel, f, grid = _series(args)
    checks = analysis.voronovskaja_check(
        f,
        kernel,
        args.r,
        args.w_list,
        grid,
        require_constant_moments=not args.allow_varying_moments,
    )
    return _report(args, checks)


def _cmd_suite(args: argparse.Namespace) -> int:
    result = analysis.run_suite(args.kernels, seed=args.seed)
    _check_lines(args, result.checks)
    for table in result.tables:
        order = f"{table.fitted_order:.3f}" if table.fitted_order is not None else "n/a"
        _say(args, f"convergence {table.function_name}/{table.kernel_name}: fitted order {order}")
    # csv and md: the checks, a blank line, then the convergence tables
    header = ["function_name", "kernel_name", *_TABLE_HEADER]
    rows = [[t.function_name, t.kernel_name, *row] for t in result.tables for row in _table_rows(t)]
    if args.fmt == "json":
        text = _json_payload(args, result.to_dict())
    elif args.fmt == "csv":
        text = _checks_payload(args, result.checks) + "\n" + _csv_lines(header, rows)
    else:
        counts = f"violations: {len(result.violations)}, hypothesis failures: {len(result.hypothesis_failures)}"
        text = _checks_payload(args, result.checks) + "\n" + _md_lines(header, rows) + f"\n{counts}\n"
    _emit(args, text)
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


def run(args: argparse.Namespace) -> int:
    """Dispatch one `build_parser()` namespace, its empty list values resolved
    as `main` resolves them; returns the process exit code."""
    if args.command == "list":
        sys.stdout.write(list_registries())
        return 0
    try:
        return _COMMANDS[args.command](args)
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
    """The CLI parser; a namespace it returns holds `command` and that
    subcommand's dests, a flag left out taking its `_DEFAULTS` value."""
    parser = argparse.ArgumentParser(
        prog="expsampling",
        description="Exponential sampling operators: kernel checks, reconstructions and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(**_DEFAULTS[name])
        return p

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
        p.add_argument("--output", type=_output, help="artifact path (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=formats)

    command("list", "list kernel and function registries")

    p = command("kernel-check", "run the kernel condition checks")
    common(p, ("json",))
    p.add_argument("--mu", type=float, help="absolute-moment order for chi1")
    p.add_argument("--r", type=int, help="highest algebraic-moment order for chi3")

    p = command("moments", "scan discrete absolute moments")
    common(p, ("csv", "json"))
    p.add_argument("--nu", dest="nu_list", metavar="NU", type=_floats, help="comma-separated moment orders")

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
    p.add_argument("--kernels", type=_names, help="comma-separated kernel names")
    p.add_argument("--output", type=_output)
    p.add_argument("--format", dest="fmt", choices=("csv", "json", "md"))
    p.add_argument("--seed", type=_seed)

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
    empty = {k: _DEFAULTS[args.command][k] for k, v in vars(args).items() if v == ()}
    vars(args).update(empty)  # an empty list value means the command's default
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
