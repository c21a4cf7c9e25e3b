"""End-to-end command-line behaviour: artifacts, determinism, exit codes."""

import argparse
import csv
import json
import math
import os

import pytest

from expsampling import cli
from expsampling.cli import RunConfig, _csv_payload, _md_payload, build_parser, list_registries, main
from expsampling.errors import ConfigurationError
from expsampling.operators import OPERATOR_TAGS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestList:
    def test_registries_listed(self, capsys):
        code, out, _ = run_cli(["list"], capsys)
        assert code == 0
        for name in ("bspline2", "bspline3", "gauss1", "linc0", "weight", "psi"):
            assert name in out

    def test_list_registries_function(self):
        text = list_registries()
        assert "kernels:" in text and "functions:" in text


class TestKernelCheck:
    def test_json_artifact(self, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["kernel-check", "--kernel", "bspline3", "--mu", "5", "--r", "1",
             "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        assert "chi1=yes chi2=yes" in out
        payload = json.loads(out_file.read_text())
        assert payload["results"]["eta"] == pytest.approx(0.125)
        assert payload["config"]["kernel"] == "bspline3"

    def test_verdicts_do_not_fail_the_run(self, capsys):
        code, out, _ = run_cli(["kernel-check", "--kernel", "bspline2"], capsys)
        assert code == 0
        assert "chi2=no" in out


class TestMoments:
    def test_divergent_reported(self, capsys):
        code, out, _ = run_cli(["moments", "--kernel", "linc0", "--nu", "0,2"], capsys)
        assert code == 0
        assert "divergent" in out


    @pytest.mark.parametrize("args", [["--kernel", "bspline3"], ["--kernel", "linc0", "--nu", "0,2"]])
    def test_csv_rows_carry_the_json_fields(self, args, tmp_path, capsys):
        paths = {fmt: tmp_path / f"m.{fmt}" for fmt in ("json", "csv")}
        for fmt, path in paths.items():
            assert run_cli(["moments", *args, "--format", fmt, "--output", str(path)], capsys)[0] == 0
        rows = json.loads(paths["json"].read_text())["results"]
        lines = paths["csv"].read_text().splitlines()
        header = lines[1].split(",")
        assert header == ["nu", "value", "half_width", "tail_bound", "divergent", "witness_u", "witness_k"]
        cells = list(csv.reader(lines[2:]))
        assert len(cells) == len(rows)
        for row, line in zip(rows, cells):
            assert set(row) <= set(header)
            for key, cell in zip(header, line):
                value = row.get(key)
                if value is None:
                    assert cell == "", key
                elif isinstance(value, bool):
                    assert cell == ("true" if value else "false"), key
                else:
                    assert float(cell) == value, key


class TestReconstruct:
    def test_csv_shape_and_header(self, tmp_path, capsys):
        out_file = tmp_path / "rec.csv"
        code, _, _ = run_cli(
            ["reconstruct", "--function", "log", "--kernel", "bspline2", "--op", "S",
             "--w", "8", "--grid", "-1:1:101", "--format", "csv", "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "x,log_x,value,error_vs_f,weighted_error"
        assert len(lines) == 103  # header comment + column row + 101 points

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["reconstruct", "--function", "weight", "--kernel", "bspline3", "--op", "MG",
                "--w", "8", "--grid", "-1:1:33", "--format", "csv"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--output", str(a)], capsys)[0] == 0
        assert run_cli(args + ["--output", str(b)], capsys)[0] == 0
        ra = a.read_bytes().replace(b"a.csv", b"X.csv")
        rb = b.read_bytes().replace(b"b.csv", b"X.csv")
        assert ra == rb

    def test_outdir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EXPSAMPLING_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(
            ["reconstruct", "--function", "one", "--kernel", "bspline2", "--op", "S",
             "--w", "4", "--grid", "-1:1:11", "--format", "csv", "--output", "rel.csv"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "rel.csv").exists()

    def test_usage_error_on_unknown_kernel(self, capsys):
        code, _, err = run_cli(
            ["reconstruct", "--function", "log", "--kernel", "nope", "--op", "S",
             "--w", "8", "--grid", "-1:1:11"],
            capsys,
        )
        assert code == 2
        assert "unknown kernel" in err

    def test_usage_error_on_bad_grid(self, capsys):
        code, _, err = run_cli(
            ["reconstruct", "--function", "log", "--kernel", "bspline2", "--op", "S",
             "--w", "8", "--grid", "oops"],
            capsys,
        )
        assert code == 2
        assert "grid" in err

    def test_more_than_one_rate_is_a_usage_error(self, tmp_path, capsys):
        # formerly the first rate was used, and the artifact recorded both
        out_file = tmp_path / "rec.json"
        code, out, err = run_cli(
            ["reconstruct", "--function", "weight", "--kernel", "bspline3", "--w", "8,16",
             "--grid", "-1:1:5", "--output", str(out_file)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: reconstruct takes one sampling rate, got 2\n"
        assert not out_file.exists()


def assert_parser_rejects(args, out_file, capsys):
    """main returns argparse's 2 with its usage message, before any output."""
    code = main(args + ["--output", str(out_file)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == "" and "usage:" in out.err
    assert not out_file.exists()


class TestParserContract:
    """Each subcommand accepts only the flags and formats its handler uses."""

    @pytest.mark.parametrize(
        "args",
        [
            # flags the command does not read
            ["rate", "--kernel", "bspline3", "--function", "weight", "--w", "8",
             "--grid", "-1:1:33", "--window", "3"],
            ["voronovskaja", "--kernel", "bspline3", "--function", "damped_log2", "--w", "8",
             "--grid", "-1:1:33", "--allow-varying-moments", "--interval", "0.5,2"],
            ["moments", "--kernel", "bspline3", "--seed", "1"],
            ["reconstruct", "--kernel", "bspline3", "--function", "weight", "--grid", "-1:1:5",
             "--seed", "1"],
            # formats the command does not write
            ["kernel-check", "--kernel", "bspline3", "--format", "csv"],
            ["moments", "--kernel", "bspline3", "--format", "md"],
            ["converge", "--kernel", "bspline3", "--function", "weight", "--w", "4,8",
             "--grid", "-1:1:33", "--format", "md"],
        ],
    )
    def test_dropped_choice_is_a_usage_error(self, args, tmp_path, capsys):
        assert_parser_rejects(args, tmp_path / "out", capsys)


class TestParserReuse:
    """`main` parses with one parser per process; `build_parser` builds afresh."""

    SEQUENCE = [
        ["kernel-check", "--kernel", "bspline3", "--format", "csv"],
        ["kernel-check", "--kernel", "bspline3", "--mu", "5", "--r", "1"],
        ["suite", "--kernels", "bspline3", "--format", "md"],
        ["moments", "--kernel", "bspline3", "--seed", "1"],
        ["rate", "--kernel", "bspline3", "--function", "weight", "--w", "8", "--grid", "-1:1:33"],
    ]

    def test_build_parser_is_fresh_per_call(self):
        assert build_parser() is not build_parser()
        assert cli._shared_parser() is cli._shared_parser()

    def _run_sequence(self, outdir, capsys, monkeypatch):
        monkeypatch.setenv("EXPSAMPLING_OUTDIR", str(outdir))
        seen = []
        for i, args in enumerate(self.SEQUENCE):
            code = main(args + ["--output", f"{i}.out"])
            out = capsys.readouterr()
            artifact = outdir / f"{i}.out"
            seen.append((code, out.out.replace(str(outdir), "OUT"), out.err,
                         artifact.read_bytes() if artifact.exists() else None))
        return seen

    def test_shared_parser_leaks_no_state(self, tmp_path, capsys, monkeypatch):
        shared = self._run_sequence(tmp_path / "shared", capsys, monkeypatch)
        monkeypatch.setattr(cli, "_shared_parser", build_parser)
        fresh = self._run_sequence(tmp_path / "fresh", capsys, monkeypatch)
        assert [s[0] for s in shared] == [2, 0, 0, 2, 0]
        assert [s[3] is None for s in shared] == [True, False, False, True, False]
        assert shared == fresh


class TestUsageErrors:
    """main returns argparse's exit code; a bad list value names its flag."""

    @pytest.mark.parametrize("args", [["--help"], ["suite", "--help"], ["reconstruct", "--help"]])
    def test_help_returns_zero(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("usage: expsampling")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["moments", "--kernel", "bspline3", "--nu", "a"],
             "argument --nu: could not convert string to float: 'a'"),
            (["rate", "--kernel", "bspline3", "--function", "weight", "--w", "8,x"],
             "argument --w: could not convert string to float: 'x'"),
            (["converge", "--kernel", "bspline3", "--function", "weight", "--interval", "1,2,3"],
             "argument --interval: interval must be 'a,b', got '1,2,3'"),
        ],
    )
    def test_bad_list_value_names_its_flag(self, args, message, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage:") and err.splitlines()[-1].endswith(f"error: {message}")


class TestNonFiniteDomain:
    """A non-finite interval end or grid bound is one `error:` line, exit 2."""

    @pytest.mark.parametrize(
        "args, message",
        [
            # formerly an OverflowError traceback and exit 1
            (["reconstruct", "--kernel", "bspline3", "--function", "weight", "--w", "8",
              "--grid", "-1:1:5", "--interval", "0.5,inf"],
             "interval must satisfy 0 < a < b < inf, got (0.5, inf)"),
            (["converge", "--kernel", "bspline3", "--function", "weight", "--interval", "0.5,inf"],
             "interval must satisfy 0 < a < b < inf, got (0.5, inf)"),
            # formerly RuntimeWarnings and "cannot convert float NaN to integer"
            (["reconstruct", "--kernel", "bspline3", "--function", "weight", "--grid", "0:inf:3"],
             "bad grid spec '0:inf:3'; expected logmin:logmax:points"),
            (["converge", "--kernel", "bspline3", "--function", "weight", "--grid", "-1e308:1e308:3"],
             "bad grid spec '-1e308:1e308:3'; expected logmin:logmax:points"),
        ],
    )
    def test_one_error_line_and_no_artifact(self, args, message, tmp_path, capsys):
        out_file = tmp_path / "out.json"
        assert run_cli(args + ["--output", str(out_file)], capsys) == (2, "", f"error: {message}\n")
        assert not out_file.exists()


# The former parser and resolver, kept verbatim as the oracle of config
# resolution: argparse filled every default and `_to_runconfig` repeated
# RunConfig's defaults in getattr fallbacks.


def _oracle_parse_floats(text: str) -> tuple:
    return tuple(float(t) for t in text.split(",") if t != "")


def oracle_build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="expsampling")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, series=False, domain=False):
        p.add_argument("--kernel", required=True)
        if series:
            p.add_argument("--function", required=True)
            p.add_argument("--w", default=None)
            p.add_argument("--grid", default=None)
        if domain:
            p.add_argument("--interval", default=None)
            p.add_argument("--window", type=int, default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--format", dest="fmt", choices=formats, default="json")

    sub.add_parser("list")
    p = sub.add_parser("kernel-check")
    common(p, ("json",))
    p.add_argument("--mu", type=float, default=2.0)
    p.add_argument("--r", type=int, default=1)
    p = sub.add_parser("moments")
    common(p, ("csv", "json"))
    p.add_argument("--nu", default="0,1,2")
    p = sub.add_parser("reconstruct")
    common(p, ("csv", "json"), series=True, domain=True)
    p.add_argument("--op", choices=OPERATOR_TAGS, default="S")
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--quad-points", dest="quadrature_points", type=int, default=8)
    p = sub.add_parser("converge")
    common(p, ("csv", "json"), series=True, domain=True)
    p = sub.add_parser("rate")
    common(p, ("csv", "json", "md"), series=True)
    p = sub.add_parser("voronovskaja")
    common(p, ("csv", "json", "md"), series=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--allow-varying-moments", action="store_true")
    p = sub.add_parser("suite")
    p.add_argument("--kernels", default="bspline3,gauss1")
    p.add_argument("--output", default=None)
    p.add_argument("--format", dest="fmt", choices=("csv", "json", "md"), default="json")
    p.add_argument("--seed", type=int, default=0)
    return parser


def oracle_to_runconfig(args: argparse.Namespace) -> RunConfig:
    interval = None
    if getattr(args, "interval", None):
        parts = _oracle_parse_floats(args.interval)
        if len(parts) != 2:
            raise ConfigurationError(f"interval must be 'a,b', got {args.interval!r}")
        interval = parts
    return RunConfig(
        command=args.command,
        kernel=getattr(args, "kernel", None),
        kernels=tuple(t for t in getattr(args, "kernels", "").split(",") if t),
        function=getattr(args, "function", None),
        w_list=_oracle_parse_floats(args.w) if getattr(args, "w", None) else (),
        interval=interval,
        window=getattr(args, "window", None),
        grid=getattr(args, "grid", None),
        output=getattr(args, "output", None),
        fmt=getattr(args, "fmt", "json"),
        seed=getattr(args, "seed", 0),
        mu=getattr(args, "mu", 2.0),
        r=getattr(args, "r", 1),
        nu_list=_oracle_parse_floats(args.nu) if getattr(args, "nu", None) else (),
        op=getattr(args, "op", "S"),
        c=getattr(args, "c", 0.0),
        quadrature_points=getattr(args, "quadrature_points", 8),
        allow_varying_moments=getattr(args, "allow_varying_moments", False),
    )


_SERIES = {"--w": "8,16", "--grid": "-1:1:5"}
_DOMAIN = {"--interval": "0.5,2", "--window": "7"}
# command -> (required arguments, {optional flag: value, None for a switch})
COMMAND_FLAGS = {
    "list": ([], {}),
    "kernel-check": (["--kernel", "bspline3"], {"--mu": "5", "--r": "3"}),
    "moments": (["--kernel", "bspline3"], {"--nu": "0,0.5,2", "--format": "csv"}),
    "reconstruct": (
        ["--kernel", "gauss1", "--function", "weight"],
        {"--w": "16", "--grid": "-1:1:5", **_DOMAIN, "--format": "csv", "--op": "MG", "--c": "0.5",
         "--quad-points": "4"},
    ),
    "converge": (["--kernel", "bspline3", "--function", "weight"], {**_SERIES, **_DOMAIN, "--format": "csv"}),
    "rate": (["--kernel", "bspline3", "--function", "weight"], {**_SERIES, "--format": "md"}),
    "voronovskaja": (
        ["--kernel", "bspline3", "--function", "damped_log2"],
        {**_SERIES, "--format": "csv", "--r": "2", "--allow-varying-moments": None},
    ),
    "suite": ([], {"--kernels": "bspline3,linc0", "--format": "md", "--seed": "7"}),
}


def _resolution_cases():
    for command, (required, optional) in COMMAND_FLAGS.items():
        base = [command, *required]
        if command != "list":
            optional = {**optional, "--output": "out.txt"}
        flags = [[flag] if value is None else [flag, value] for flag, value in optional.items()]
        yield base
        yield from (base + flag for flag in flags)
        yield base + [token for flag in flags for token in flag]
        yield from (base + [flag, ""] for flag in ("--w", "--nu", "--kernels", "--interval") if flag in optional)


class TestConfigResolution:
    """RunConfig's defaults and the parser's --nu and --kernels defaults resolve
    every invocation to the config the former getattr fallbacks built."""

    @pytest.mark.parametrize("argv", list(_resolution_cases()), ids=" ".join)
    def test_config_matches_the_former_resolver(self, argv, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", seen.append)
        main(argv)
        want = oracle_to_runconfig(oracle_build_parser().parse_args(cli._merge_value_flags(argv)))
        assert seen == [want]


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "args",
        [
            ["moments", "--kernel", "bspline3", "--nu", "nan"],
            ["kernel-check", "--kernel", "bspline3", "--mu", "nan", "--r", "0"],
            ["kernel-check", "--kernel", "bspline3", "--mu", "inf", "--r", "0"],
            ["reconstruct", "--kernel", "bspline3", "--function", "weight", "--w", "inf",
             "--grid", "-1:1:5"],
            # a NaN in the artifact would be invalid JSON
            ["reconstruct", "--kernel", "bspline3", "--function", "weight", "--op", "E",
             "--c", "nan", "--grid", "-1:1:5"],
        ],
    )
    def test_usage_error_and_no_artifact(self, args, tmp_path, capsys):
        out_file = tmp_path / "out.json"
        code, _, err = run_cli(args + ["--output", str(out_file)], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert not out_file.exists()


class TestNonFiniteDamping:
    """A non-finite --c stops reconstruct before any output, in each of its formats."""

    @staticmethod
    def reconstruct(fmt, capsys, c="nan"):
        args = ["reconstruct", "--kernel", "bspline3", "--function", "weight", "--op", "E",
                "--c", c, "--grid", "-1:1:5", "--format", fmt]
        return run_cli(args, capsys)

    @staticmethod
    def assert_usage_error(result, c="nan"):
        code, out, err = result
        assert (code, out) == (2, "")
        assert err == f"error: damping exponent c must be finite, got {c}\n"

    def test_csv_rejects_nan_c(self, capsys):
        # formerly exit 0, with "c": NaN in the config line and nan rows
        self.assert_usage_error(self.reconstruct("csv", capsys))

    def test_json_rejects_nan_c_with_one_error_line(self, capsys):
        # formerly exit 2 after the summary line, with json's own message
        self.assert_usage_error(self.reconstruct("json", capsys))

    def test_md_rejects_nan_c(self, tmp_path, capsys):
        # reconstruct has no md format: it formerly wrote CSV for md at a finite c
        for c in ("nan", "0"):
            args = ["reconstruct", "--kernel", "bspline3", "--function", "weight", "--op", "E",
                    "--c", c, "--grid", "-1:1:5", "--format", "md"]
            assert_parser_rejects(args, tmp_path / "rec.md", capsys)

    def test_csv_rejects_infinite_c(self, capsys):
        self.assert_usage_error(self.reconstruct("csv", capsys, "-inf"), "-inf")

    def test_config_lines_are_strict_json(self):
        config = RunConfig(command="rate", mu=math.nan)
        with pytest.raises(ValueError):
            _csv_payload(config, ["a"], [])
        with pytest.raises(ValueError):
            _md_payload(config, "")


def strict_json(text):
    def reject(constant):
        raise AssertionError(f"bare {constant} in JSON")

    return json.loads(text, parse_constant=reject)


class TestFarOutAndOverflow:
    def test_reconstruct_reports_overflowing_x_as_inf(self, tmp_path, capsys):
        args = ["reconstruct", "--kernel", "bspline3", "--function", "weight", "--w", "8",
                "--grid", "709:711:3"]
        assert run_cli(args + ["--output", str(tmp_path / "far.json")], capsys)[0] == 0
        rows = strict_json((tmp_path / "far.json").read_text())["results"]
        assert [r["x"] for r in rows] == [8.218407461554972e307, "inf", "inf"]
        assert [r["log_x"] for r in rows] == [709.0, 710.0, 711.0]
        assert all(isinstance(r["value"], float) and r["note"] == "" for r in rows)
        assert run_cli(args + ["--format", "csv", "--output", str(tmp_path / "far.csv")], capsys)[0] == 0
        lines = (tmp_path / "far.csv").read_text().splitlines()[2:]
        assert [l.split(",")[:2] for l in lines] == [["8.2184074615549724e+307", "709"], ["inf", "710"], ["inf", "711"]]

    def test_rate_far_out_on_the_half_line(self, tmp_path, capsys):
        out_file = tmp_path / "rate.json"
        code, out, _ = run_cli(
            ["rate", "--kernel", "bspline3", "--function", "weight", "--w", "8",
             "--grid", "705:712:5", "--output", str(out_file)],
            capsys,
        )
        assert code == 0 and "[ok]" in out
        strict_json(out_file.read_text())

    def test_overflowing_moment_is_divergent_not_nan(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        code, out, _ = run_cli(["moments", "--kernel", "bspline3", "--nu", "2000", "--output", str(out_file)], capsys)
        assert code == 0 and "m_2000(bspline3) divergent" in out
        [row] = strict_json(out_file.read_text())["results"]
        assert row["divergent"] and row["value"] is None
        code, out, _ = run_cli(
            ["kernel-check", "--kernel", "bspline3", "--mu", "2000", "--r", "0", "--output", str(out_file)], capsys
        )
        assert code == 0 and "chi1=no" in out
        results = strict_json(out_file.read_text())["results"]
        assert "2000" not in results["absolute_moments"] and not results["chi1_holds"]


class TestConverge:
    def test_decreasing_errors_csv(self, tmp_path, capsys):
        out_file = tmp_path / "conv.csv"
        code, out, _ = run_cli(
            ["converge", "--function", "weight", "--kernel", "bspline3",
             "--w", "4,8,16,32,64", "--interval", "0.5,2", "--grid", "-0.6:0.6:65",
             "--format", "csv", "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        rows = [l.split(",") for l in out_file.read_text().splitlines()[2:]]
        errs = [float(r[2]) for r in rows]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


class TestExitCodes:
    def test_rate_ok(self, capsys):
        code, out, _ = run_cli(
            ["rate", "--function", "weight", "--kernel", "bspline3", "--w", "8,16",
             "--grid", "-1:1:65"],
            capsys,
        )
        assert code == 0
        assert "[ok]" in out

    def test_rate_hypothesis_not_met(self, capsys):
        code, _, err = run_cli(
            ["rate", "--function", "weight", "--kernel", "bspline2", "--w", "8"], capsys
        )
        assert code == 3
        assert "hypothesis" in err

    def test_voronovskaja_needs_flag_for_varying_moments(self, capsys):
        code, _, err = run_cli(
            ["voronovskaja", "--function", "damped_log2", "--kernel", "bspline3",
             "--w", "8", "--grid", "-1:1:33"],
            capsys,
        )
        assert code == 3
        code, out, _ = run_cli(
            ["voronovskaja", "--function", "damped_log2", "--kernel", "bspline3",
             "--w", "8", "--grid", "-1:1:33", "--allow-varying-moments"],
            capsys,
        )
        assert code == 0
        assert "[ok]" in out


class TestSuite:
    def test_suite_runs_clean(self, tmp_path, capsys):
        out_file = tmp_path / "suite.md"
        code, out, _ = run_cli(
            ["suite", "--kernels", "bspline3", "--format", "md", "--output", str(out_file)],
            capsys,
        )
        assert code == 0
        assert out_file.read_text().lstrip("<!-- config:").strip()
        assert "fitted order" in out

    def test_suite_json_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["suite", "--kernels", "bspline3", "--seed", "7"]
        assert run_cli(base + ["--output", str(a)], capsys)[0] == 0
        assert run_cli(base + ["--output", str(b)], capsys)[0] == 0
        ra = a.read_bytes().replace(b"a.json", b"X")
        rb = b.read_bytes().replace(b"b.json", b"X")
        assert ra == rb
