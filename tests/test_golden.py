"""Golden artifact corpus: a fixed list of invocations, run in process through
`cli.main`, must reproduce the exit code, stdout, stderr and artifact digests
recorded in `golden.json`.

The digests pin numpy's summation order, so the table records the numpy
version it was made with.  `regen_golden.py` rewrites the table; a change
that moves artifact bytes on purpose regenerates it and names each moved
invocation in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from expsampling import cli

TABLE_PATH = Path(__file__).with_name("golden.json")
KERNELS = ("bspline1", "bspline2", "bspline3", "bspline4", "bspline5", "gauss05", "gauss1", "linc0", "linc1")


def _cases():
    cases = []

    def add(argv, output=None):
        cases.append(argv + ["--output", output] if output else argv)

    for k in KERNELS:
        for fmt in ("json", "csv", "md"):
            add(["suite", "--kernels", k, "--format", fmt], f"suite-{k}.{fmt}")
        add(["kernel-check", "--kernel", k], f"kernel-check-{k}.json")
        add(["kernel-check", "--kernel", k, "--mu", "5", "--r", "1"], f"kernel-check-{k}-mu5-r1.json")
        add(["moments", "--kernel", k], f"moments-{k}.json")
        add(["moments", "--kernel", k, "--nu", "0,1,2,5", "--format", "csv"], f"moments-{k}-nu0125.csv")
    for k in ("bspline3", "gauss1", "linc0"):
        for op in ("S", "I", "MG", "E"):
            for fmt in ("csv", "json"):
                series = ["reconstruct", "--kernel", k, "--function", "weight", "--op", op, "--w", "8"]
                add(series + ["--grid", "-1:1:33", "--format", fmt], f"reconstruct-{k}-{op}.{fmt}")
                add(series + ["--grid", "-0.6:0.6:33", "--interval", "0.5,2", "--format", fmt],
                    f"reconstruct-{k}-{op}-interval.{fmt}")
    for k in ("bspline3", "gauss1", "gauss05"):
        for fmt in ("json", "csv", "md"):
            add(["rate", "--kernel", k, "--function", "weight", "--format", fmt], f"rate-{k}.{fmt}")
            add(["voronovskaja", "--kernel", k, "--function", "damped_log2", "--w", "8,16",
                 "--allow-varying-moments", "--format", fmt], f"voronovskaja-{k}.{fmt}")
        for fmt in ("json", "csv"):
            add(["converge", "--kernel", k, "--function", "weight", "--format", fmt], f"converge-{k}.{fmt}")
    # flags at other values, defaults typed in, and empty list values
    add(["rate", "--kernel", "bspline3", "--function", "weight", "--w", "8,16,32", "--grid", "-2:2:257"],
        "rate-bspline3-typed.json")
    add(["rate", "--kernel", "bspline3", "--function", "weight", "--w", "", "--grid", "-1:1:65"],
        "rate-bspline3-empty-w.json")
    add(["converge", "--kernel", "bspline3", "--function", "weight", "--w", "4,8,16",
         "--interval", "0.5,2", "--grid", "-0.6:0.6:65"], "converge-interval.json")
    add(["converge", "--kernel", "gauss1", "--function", "weight", "--window", "5", "--format", "csv"],
        "converge-window.csv")
    add(["converge", "--kernel", "bspline3", "--function", "weight", "--w", "", "--interval", ""],
        "converge-empty.json")
    add(["reconstruct", "--kernel", "gauss1", "--function", "weight", "--op", "MG", "--window", "7",
         "--grid", "-1:1:33"], "reconstruct-window.json")
    add(["reconstruct", "--kernel", "bspline3", "--function", "weight", "--op", "E", "--c", "0.5",
         "--grid", "-1:1:33", "--format", "csv"], "reconstruct-E-c.csv")
    add(["reconstruct", "--kernel", "bspline3", "--function", "log", "--op", "I", "--quad-points", "4",
         "--w", "", "--grid", "-1:1:33"], "reconstruct-I-quad.json")
    add(["reconstruct", "--kernel", "bspline3", "--function", "weight"], "reconstruct-defaults.json")
    add(["moments", "--kernel", "linc0", "--nu", ""], "moments-linc0-empty.json")
    add(["kernel-check", "--kernel", "gauss1", "--mu", "6", "--r", "3"], "kernel-check-gauss1-mu6-r3.json")
    add(["suite"], "suite-default.json")
    add(["suite", "--kernels", "bspline3", "--seed", "3", "--format", "csv"], "suite-seed3.csv")
    add(["voronovskaja", "--kernel", "bspline3", "--function", "damped_log2", "--r", "2",
         "--w", "8,64", "--grid", "-1:1:33", "--allow-varying-moments"], "voronovskaja-r2.json")
    # exit 1: a check violated beyond its slack (w = 32 reads lhs 19.97 against rhs 18.51)
    add(["voronovskaja", "--kernel", "gauss1", "--function", "weight", "--r", "2", "--allow-varying-moments"],
        "voronovskaja-exit1.json")
    # exit 3: hypotheses not met
    add(["voronovskaja", "--kernel", "bspline3", "--function", "damped_log2", "--w", "8",
         "--grid", "-1:1:33"], "voronovskaja-exit3.json")
    add(["rate", "--kernel", "bspline2", "--function", "weight", "--w", "8"], "rate-exit3.json")
    # exit 2: usage errors from argparse and from the command
    add(["kernel-check", "--kernel", "bspline3", "--format", "csv"], "usage.csv")
    add(["reconstruct", "--kernel", "nope", "--function", "weight", "--grid", "-1:1:5"], "unknown-kernel.json")
    add(["converge", "--kernel", "bspline3", "--function", "weight", "--interval", "0.5,inf"], "bad-interval.json")
    add(["kernel-check", "--kernel", "bspline3", "--output", ""])
    add(["suite", "--kernels", "bspline3", "--seed", "-1"], "negative-seed.json")
    # refused before leggauss would ask for a 74.5 GiB matrix
    add(["reconstruct", "--kernel", "bspline3", "--function", "weight", "--op", "I", "--quad-points", "100000"],
        "quad-points-cap.json")
    add(["list"])
    # without --output: stdout is the artifact
    add(["kernel-check", "--kernel", "bspline3", "--mu", "5", "--r", "1"])
    add(["moments", "--kernel", "linc0", "--nu", "0,2", "--format", "csv"])
    add(["reconstruct", "--kernel", "bspline2", "--function", "log", "--w", "8", "--grid", "-1:1:9"])
    add(["rate", "--kernel", "bspline3", "--function", "weight", "--w", "8", "--grid", "-1:1:33", "--format", "md"])
    add(["voronovskaja", "--kernel", "bspline3", "--function", "damped_log2", "--w", "8",
         "--grid", "-1:1:33", "--allow-varying-moments", "--format", "csv"])
    add(["converge", "--kernel", "bspline3", "--function", "weight", "--w", "4,8,16", "--grid", "-1:1:33"])
    add(["suite", "--kernels", "bspline3", "--format", "md"])
    return cases


CASES = _cases()


def run_case(argv, outdir):
    """(exit code, stdout, stderr, artifact bytes or None) of one in-process run.

    Relative --output names resolve in `outdir`, which reads `$OUTDIR` in the
    streams; a warning is one more stderr line, as on the command line.
    """
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"EXPSAMPLING_OUTDIR": outdir}), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(list(argv))
    err.writelines(f"warning: {w.message}\n" for w in caught)
    path = Path(outdir, argv[argv.index("--output") + 1]) if "--output" in argv else None
    artifact = path.read_bytes() if path is not None and path.is_file() else None
    return code, out.getvalue().replace(outdir, "$OUTDIR"), err.getvalue().replace(outdir, "$OUTDIR"), artifact


def _sha(data):
    return None if data is None else hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def _row(argv, run):
    code, out, err, artifact = run
    return {"argv": argv, "exit": code, "stdout": _sha(out), "stderr": _sha(err), "artifact": _sha(artifact)}


def record(argv, outdir):
    """One row of the table."""
    return _row(argv, run_case(argv, outdir))


# absent only while regen_golden.py writes the first table
TABLE = json.loads(TABLE_PATH.read_text()) if TABLE_PATH.exists() else {"numpy": None, "cases": []}
ROWS = {tuple(row["argv"]): row for row in TABLE["cases"]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    outdir = str(tmp_path_factory.mktemp("golden"))
    return {tuple(argv): run_case(argv, outdir) for argv in CASES}


def test_table_lists_every_case_and_the_numpy_version():
    assert list(ROWS) == [tuple(argv) for argv in CASES]
    assert TABLE["numpy"] == np.__version__, (
        f"golden.json was recorded with numpy {TABLE['numpy']}, this is numpy {np.__version__}; "
        "check the moved digests and regenerate it with tests/regen_golden.py"
    )


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_invocation_matches_the_table(argv, runs):
    run = runs[tuple(argv)]
    assert _row(argv, run) == ROWS[tuple(argv)], f"stdout:\n{run[1][:2000]}\nstderr:\n{run[2][:2000]}"


def _recorded_config(text):
    if text.startswith("{"):
        return json.loads(text)["config"]
    first = text.split("\n", 1)[0]
    return json.loads(first.removeprefix("# config: ").removeprefix("<!-- config: ").removesuffix(" -->"))


_FLAGS = {"w_list": "--w", "nu_list": "--nu", "fmt": "--format", "quadrature_points": "--quad-points"}


def argv_from_config(config):
    """The invocation a recorded config describes, every flag spelled out."""
    argv = [config["command"]]
    for key, value in sorted(config.items()):
        if key in ("command", "schema") or value is None or value is False:
            continue
        flag = _FLAGS.get(key, "--" + key.replace("_", "-"))
        if value is True:
            argv.append(flag)
        else:
            argv += [flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
    return argv


WITH_ARTIFACT = [argv for argv in CASES if argv[0] != "list" and ROWS.get(tuple(argv), {}).get("exit") in (0, 1)]


@pytest.mark.parametrize("argv", WITH_ARTIFACT, ids=" ".join)
def test_recorded_config_reproduces_the_artifact(argv, runs, tmp_path):
    code, out, _, artifact = runs[tuple(argv)]
    artifact = out.encode() if artifact is None else artifact
    again = argv_from_config(_recorded_config(artifact.decode()))
    code_again, out_again, _, artifact_again = run_case(again, str(tmp_path))
    assert code_again == code
    assert (out_again.encode() if artifact_again is None else artifact_again) == artifact
