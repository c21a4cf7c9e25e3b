"""End-to-end command-line behaviour: artifacts, determinism, exit codes."""

import argparse
import csv
import json
import math
import os

import pytest

from expsampling import cli
from expsampling.cli import _csv_payload, _md_payload, build_parser, list_registries, main
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
        code, _, err = run_cli(["kernel-check", "--kernel", "bspline2"], capsys)
        assert code == 0
        assert "chi2=no" in err


class TestMoments:
    def test_divergent_reported(self, capsys):
        code, _, err = run_cli(["moments", "--kernel", "linc0", "--nu", "0,2"], capsys)
        assert code == 0
        assert "divergent" in err


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

    def test_grid_defaults_like_the_other_series_commands(self, tmp_path, capsys):
        # formerly an AttributeError traceback and exit 1
        out_file = tmp_path / "rec.json"
        args = ["reconstruct", "--function", "weight", "--kernel", "bspline3", "--output", str(out_file)]
        assert run_cli(args, capsys)[0] == 0
        payload = json.loads(out_file.read_text())
        assert (payload["config"]["grid"], payload["config"]["w_list"]) == ("-2:2:257", [8.0])
        assert len(payload["results"]) == 257

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

    @pytest.mark.parametrize(
        "args, message",
        [
            # formerly the summary line, then the rename's "[Errno 2] ... -> ''"
            (["kernel-check", "--kernel", "bspline3", "--output", ""], "argument --output: expected a file path, got ''"),
            (["suite", "--kernels", "bspline3", "--output", ""], "argument --output: expected a file path, got ''"),
            # formerly numpy's bare "expected non-negative integer"
            (["suite", "--kernels", "bspline3", "--seed", "-1"],
             "argument --seed: expected a non-negative integer, got -1"),
            (["suite", "--kernels", "bspline3", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        ],
    )
    def test_bad_scalar_value_names_its_flag(self, args, message, capsys):
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


_OUTPUT = {"--output": ("out.txt", "output", "out.txt")}
_SERIES = {"--w": ("8,16", "w_list", [8.0, 16.0]), "--grid": ("-1:1:5", "grid", "-1:1:5")}
_DOMAIN = {"--interval": ("0.5,2", "interval", [0.5, 2.0]), "--window": ("7", "window", 7)}
_DEFAULT_SERIES = {"grid": "-2:2:257", "output": None, "fmt": "json"}
# command -> (required arguments, recorded config with no optional flag,
#             {optional flag: (its argument, None for a switch; dest; recorded value)})
COMMAND_FLAGS = {
    "list": ([], {}, {}),
    "kernel-check": (
        ["--kernel", "bspline3"],
        {"kernel": "bspline3", "mu": 2.0, "r": 1, "output": None, "fmt": "json"},
        {"--mu": ("5", "mu", 5.0), "--r": ("3", "r", 3)},
    ),
    "moments": (
        ["--kernel", "bspline3"],
        {"kernel": "bspline3", "nu_list": [0.0, 1.0, 2.0], "output": None, "fmt": "json"},
        {"--nu": ("0,0.5,2", "nu_list", [0.0, 0.5, 2.0]), "--format": ("csv", "fmt", "csv")},
    ),
    "reconstruct": (
        ["--kernel", "gauss1", "--function", "weight"],
        {"kernel": "gauss1", "function": "weight", "w_list": [8.0], **_DEFAULT_SERIES, "interval": None,
         "window": None, "op": "S", "c": 0.0, "quadrature_points": 8},
        {"--w": ("16", "w_list", [16.0]), "--grid": ("-1:1:5", "grid", "-1:1:5"), **_DOMAIN,
         "--format": ("csv", "fmt", "csv"), "--op": ("MG", "op", "MG"), "--c": ("0.5", "c", 0.5),
         "--quad-points": ("4", "quadrature_points", 4)},
    ),
    "converge": (
        ["--kernel", "bspline3", "--function", "weight"],
        {"kernel": "bspline3", "function": "weight", "w_list": [4.0, 8.0, 16.0, 32.0], **_DEFAULT_SERIES,
         "interval": None, "window": None},
        {**_SERIES, **_DOMAIN, "--format": ("csv", "fmt", "csv")},
    ),
    "rate": (
        ["--kernel", "bspline3", "--function", "weight"],
        {"kernel": "bspline3", "function": "weight", "w_list": [8.0, 16.0, 32.0], **_DEFAULT_SERIES},
        {**_SERIES, "--format": ("md", "fmt", "md")},
    ),
    "voronovskaja": (
        ["--kernel", "bspline3", "--function", "damped_log2"],
        {"kernel": "bspline3", "function": "damped_log2", "w_list": [8.0, 16.0, 32.0], **_DEFAULT_SERIES,
         "r": 1, "allow_varying_moments": False},
        {**_SERIES, "--format": ("csv", "fmt", "csv"), "--r": ("2", "r", 2),
         "--allow-varying-moments": (None, "allow_varying_moments", True)},
    ),
    "suite": (
        [],
        {"kernels": ["bspline3", "gauss1"], "output": None, "fmt": "json", "seed": 0},
        {"--kernels": ("bspline3,linc0", "kernels", ["bspline3", "linc0"]), "--format": ("md", "fmt", "md"),
         "--seed": ("7", "seed", 7)},
    ),
}


def _resolution_cases():
    """(argv, recorded config): each optional flag absent, present, all present,
    and each list flag (or --interval) given an empty value, which records the default."""
    for command, (required, recorded, optional) in COMMAND_FLAGS.items():
        recorded = {"command": command, "schema": 2, **recorded}
        if command != "list":
            optional = {**optional, **_OUTPUT}

        def case(flags):
            tokens = [t for f in flags for t in ([f] if optional[f][0] is None else [f, optional[f][0]])]
            return [command, *required, *tokens], {**recorded, **{optional[f][1]: optional[f][2] for f in flags}}

        yield case([])
        yield from (case([flag]) for flag in optional)
        yield case(list(optional))
        for flag in ("--w", "--nu", "--kernels", "--interval"):
            if flag in optional:
                yield [command, *required, flag, ""], recorded


# one small JSON run of each command that writes an artifact
JSON_COMMANDS = [
    ["kernel-check", "--kernel", "bspline3"],
    ["moments", "--kernel", "bspline3"],
    ["reconstruct", "--kernel", "bspline3", "--function", "weight", "--grid", "-1:1:5"],
    ["converge", "--kernel", "bspline3", "--function", "weight", "--grid", "-1:1:5"],
    ["rate", "--kernel", "bspline3", "--function", "weight", "--w", "8", "--grid", "-1:1:5"],
    ["voronovskaja", "--kernel", "bspline3", "--function", "damped_log2", "--w", "8", "--grid", "-1:1:5",
     "--allow-varying-moments"],
    ["suite", "--kernels", "bspline3"],
]


def _subcommand_dests(command):
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}


class TestConfigResolution:
    """The config an artifact records is the command, the schema and each of
    the command's flags as resolved, with the command's own defaults."""

    @pytest.mark.parametrize(
        "argv, recorded", [pytest.param(*case, id=" ".join(case[0])) for case in _resolution_cases()]
    )
    def test_recorded_config(self, argv, recorded, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", seen.append)
        main(argv)
        # compared as JSON text, so an int where a float belongs shows
        assert json.dumps(cli._config(*seen), sort_keys=True) == json.dumps(recorded, sort_keys=True)

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: argv[0])
    def test_artifact_config_keys_are_the_parser_dests(self, argv, tmp_path, capsys):
        out_file = tmp_path / "a.json"
        assert run_cli(argv + ["--output", str(out_file)], capsys)[0] == 0
        config = json.loads(out_file.read_text())["config"]
        assert set(config) == {"command", "schema"} | _subcommand_dests(argv[0])
        assert (config["command"], config["schema"]) == (argv[0], 2)


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
        config = argparse.Namespace(command="kernel-check", mu=math.nan)
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


class TestFailedAllocation:
    """A failed allocation is one `error:` line and exit 2, not a traceback and exit 1."""

    @pytest.mark.parametrize(
        "exc, line",
        [
            (MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
                         "and data type float64"),
             "error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000) "
             "and data type float64\n"),
            (MemoryError(), "error: MemoryError\n"),
        ],
    )
    def test_memory_error_exits_2(self, exc, line, monkeypatch, tmp_path, capsys):
        def fail(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "kernel-check", fail)
        out_file = tmp_path / "out.json"
        assert run_cli(["kernel-check", "--kernel", "bspline3", "--output", str(out_file)], capsys) == (2, "", line)
        assert not out_file.exists()

    def test_quadrature_points_above_the_cap_exit_2_before_the_rule(self, monkeypatch, capsys):
        def refuse(points):
            raise AssertionError(f"leggauss asked for {points} points")

        monkeypatch.setattr("numpy.polynomial.legendre.leggauss", refuse)
        code, out, err = run_cli(["reconstruct", "--kernel", "bspline3", "--function", "weight", "--op", "I",
                                  "--quad-points", "100000"], capsys)
        assert (code, out) == (2, "")
        assert err == "error: quadrature_points must be in 1..256, got 100000\n"


class TestExitCodes:
    def test_rate_ok(self, capsys):
        code, _, err = run_cli(
            ["rate", "--function", "weight", "--kernel", "bspline3", "--w", "8,16",
             "--grid", "-1:1:65"],
            capsys,
        )
        assert code == 0
        assert "[ok]" in err

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
        code, _, err = run_cli(
            ["voronovskaja", "--function", "damped_log2", "--kernel", "bspline3",
             "--w", "8", "--grid", "-1:1:33", "--allow-varying-moments"],
            capsys,
        )
        assert code == 0
        assert "[ok]" in err


class TestStdoutIsTheArtifact:
    """Without --output, stdout is the artifact and the summary lines go to stderr."""

    @pytest.mark.parametrize("argv", JSON_COMMANDS, ids=lambda argv: argv[0])
    def test_json_stdout_parses(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and err
        assert strict_json(out)["config"]["output"] is None

    def test_csv_and_md_stdout_start_with_the_config(self, capsys):
        code, out, err = run_cli(["suite", "--kernels", "bspline3", "--format", "md"], capsys)
        assert code == 0 and out.startswith("<!-- config: ") and "[ok]" in err
        code, out, err = run_cli(["moments", "--kernel", "linc0", "--nu", "0,2", "--format", "csv"], capsys)
        assert code == 0 and out.startswith("# config: ") and "divergent" in err


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

    def test_csv_and_md_carry_the_json_tables(self, tmp_path, capsys):
        paths = {fmt: tmp_path / f"suite.{fmt}" for fmt in ("json", "csv", "md")}
        for fmt, path in paths.items():
            args = ["suite", "--kernels", "bspline3,gauss1", "--format", fmt, "--output", str(path)]
            assert run_cli(args, capsys)[0] == 0
        result = json.loads(paths["json"].read_text())["results"]
        columns = ["w", "sup_abs_error", "weighted_sup_error", "grid"]
        want = [
            [t["function_name"], t["kernel_name"], *(row[k] for k in columns), t["fitted_order"]]
            for t in result["tables"]
            for row in t["rows"]
        ]
        assert len(want) == 8

        def parse(cells):
            return [cells[0], cells[1], *(float(c) for c in cells[2:5]), cells[5],
                    float(cells[6]) if cells[6] else None]

        checks, tail = paths["csv"].read_text().split("\n\n")
        assert len(checks.splitlines()) == 2 + len(result["checks"])
        lines = tail.splitlines()
        assert lines[0] == "function_name,kernel_name,w,sup_abs_error,weighted_sup_error,grid,fitted_order"
        assert [parse(line.split(",")) for line in lines[1:]] == want

        md = paths["md"].read_text().split("\n\n")
        assert md[-1] == (
            f"violations: {result['n_violations']}, hypothesis failures: {result['n_hypothesis_failures']}\n"
        )
        rows = [line.strip("| ").split(" | ") for line in md[-2].splitlines()[2:]]
        assert [parse(cells) for cells in rows] == want
