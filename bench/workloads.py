"""The benchmark's workloads: seeded inputs, one timed op, and its checks.

Every op of a workload does the same work: the same grid sizes, rates,
kernels and commands.  Only the seeded values change from op to op, and they
are drawn before the op is timed.  `check` compares an op's output with the
reference computations in `oracles` and returns the problems it found.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import expsampling as es
from expsampling import LogGrid, SamplingConfig, WeightedFunction, cli

import oracles


class Hooks:
    """Identity hooks; the traced run substitutes wrapping versions."""

    def kernel(self, kernel):
        return kernel

    def function(self, f):
        return f

    def count(self, name, amount):
        pass

    def clear(self):
        pass

    def new_op(self):
        pass


def seeded_function(rng, name="bench_f"):
    """A nonnegative weighted function (alpha + beta sin(gamma v + phi)) / (1 + v^2).

    Returns the library's WeightedFunction and the log-domain form the
    oracles evaluate.  alpha > beta >= 0 keeps it strictly positive.
    """
    alpha = float(rng.uniform(1.0, 2.0))
    beta = float(rng.uniform(0.0, 0.9 * alpha))
    gamma = float(rng.uniform(0.5, 3.0))
    phi = float(rng.uniform(0.0, 2.0 * math.pi))

    def log_form(v):
        v = np.asarray(v, dtype=float)
        return (alpha + beta * np.sin(gamma * v + phi)) / (1.0 + v * v)

    f = WeightedFunction(
        name=name,
        evaluate=lambda x: log_form(np.log(np.asarray(x, dtype=float))),
        weighted_bound=alpha + beta,
        nonnegative=True,
        description="benchmark input",
        log_evaluate=log_form,
    )
    return f, log_form


def _op_rng(seed: int, i: int):
    return np.random.default_rng([seed & 0xFFFFFFFF, i])


def _grid_rows_ok(rows, n, label, problems):
    """Every row finite and without a note; returns the values as an array."""
    if len(rows) != n:
        problems.append(f"{label}: {len(rows)} rows, expected {n}")
        return None
    bad = [r for r in rows if not math.isfinite(r.value) or r.note]
    if bad:
        problems.append(f"{label}: {len(bad)} non-finite or annotated rows, first {bad[0]}")
        return None
    return np.array([r.value for r in rows])


def check_grid_values(label, op, values, grid, profile, f_log, config, c, points):
    """Compare evaluate_on_grid values at the chosen indices with the oracles."""
    problems = []
    vs = grid.log_values()
    w = config.w
    for i in points:
        v = float(vs[i])
        if op == "MG":
            ref = oracles.max_product(profile, f_log_at(f_log, w), w, v)
            ok = oracles.close(values[i], ref, ref, oracles.JOIN_RTOL)
        else:
            if op == "S":
                ref, scale = oracles.series_sum(profile, f_log, w, v)
            elif op == "I":
                ref, scale = oracles.kantorovich_sum(
                    profile, f_log, w, v, config.quadrature_points
                )
            else:
                ref, scale = oracles.classical_sum(f_log, c, w, v, config.window_half_width)
            ok = oracles.close(values[i], ref, scale, oracles.SUM_RTOL)
        if not ok:
            problems.append(f"{label} at log x={v:.17g}: {values[i]!r} vs oracle {ref!r}")
    return problems


def f_log_at(f_log, w):
    """Samples f(e^{k/w}) as a function of the lattice indices k."""
    return lambda ks: f_log(np.asarray(ks, dtype=float) / w)


# --------------------------------------------------------------------------
# reconstruct_wide
# --------------------------------------------------------------------------


class ReconstructWide:
    """S, I, MG and E over a fine grid at a high rate, window mode."""

    name = "reconstruct_wide"
    W = 128.0
    GRID = LogGrid(-0.25, 0.25, 1537)
    E_WINDOW = 64
    CHECKED_POINTS = 16

    def __init__(self, seed: int, hooks: Hooks, workdir: str):
        self.seed = seed
        self.hooks = hooks
        self.kernels = [
            (hooks.kernel(es.mellin_bspline(3)), oracles.bspline3()),
            (hooks.kernel(es.mellin_gaussian(1.0)), oracles.gaussian(1.0)),
        ]
        self.config = SamplingConfig(w=self.W)
        self.e_config = SamplingConfig(w=self.W, window_half_width=self.E_WINDOW)

    def inputs(self, i: int):
        rng = _op_rng(self.seed, i)
        f, f_log = seeded_function(rng)
        return {
            "f": self.hooks.function(f),
            "f_log": f_log,
            "c": float(rng.uniform(0.0, 0.5)),
            "points": rng.choice(self.GRID.points, self.CHECKED_POINTS, replace=False),
        }

    def run(self, inp):
        out = []
        for kernel, _ in self.kernels:
            for op in ("S", "I", "MG"):
                out.append(es.evaluate_on_grid(op, inp["f"], kernel, self.config, self.GRID))
        out.append(
            es.evaluate_on_grid("E", inp["f"], self.kernels[0][0], self.e_config, self.GRID, c=inp["c"])
        )
        return out

    def calls(self):
        """(label, operator, oracle profile, config) per entry of `run`'s output."""
        out = []
        for kernel, profile in self.kernels:
            for op in ("S", "I", "MG"):
                out.append((f"{op}/{kernel.name}", op, profile, self.config))
        out.append(("E", "E", None, self.e_config))
        return out

    def check(self, inp, result):
        problems = []
        for (label, op, profile, config), rows in zip(self.calls(), result):
            values = _grid_rows_ok(rows, self.GRID.points, label, problems)
            if values is not None:
                problems += check_grid_values(
                    label, op, values, self.GRID, profile, inp["f_log"], config, inp["c"], inp["points"]
                )
        return problems

    def close(self):
        pass


# --------------------------------------------------------------------------
# small_calls
# --------------------------------------------------------------------------


class SmallCalls:
    """A fixed batch of small calls where per-call overhead dominates."""

    name = "small_calls"
    W = 8
    LOG_INTERVAL = (0, 1)  # the interval [1, e] as [e^0, e^1]
    LATTICE_GRID = LogGrid(0.0, 1.0, 33)
    LATTICE_VECTORS = 4
    POINTS = 4
    POINT_WINDOW = 32  # covers the gauss1 support (|t| < 27.3) and bspline3's
    GRID = LogGrid(-2.0, 2.0, 129)
    E_WINDOW = 64
    CHECKED_POINTS = 8

    def __init__(self, seed: int, hooks: Hooks, workdir: str):
        self.seed = seed
        self.hooks = hooks
        self.kernels = [
            (hooks.kernel(es.mellin_bspline(3)), oracles.bspline3()),
            (hooks.kernel(es.mellin_gaussian(1.0)), oracles.gaussian(1.0)),
        ]
        self.index_set = oracles.interval_index_set(self.W, *self.LOG_INTERVAL)
        lo, hi = self.LOG_INTERVAL
        self.interval_config = SamplingConfig(w=self.W, interval=(math.exp(lo), math.exp(hi)))
        self.point_config = SamplingConfig(w=self.W, window_half_width=self.POINT_WINDOW)
        self.grid_config = SamplingConfig(w=self.W)
        self.e_config = SamplingConfig(w=self.W, window_half_width=self.E_WINDOW)

    def inputs(self, i: int):
        rng = _op_rng(self.seed, i)
        f, f_log = seeded_function(rng)
        n = len(self.index_set)
        fvec = rng.uniform(0.0, 1.0, n)
        gvec = rng.uniform(0.0, 1.0, n)
        lam = float(rng.uniform(0.1, 10.0))
        return {
            "f": self.hooks.function(f),
            "f_log": f_log,
            "c": float(rng.uniform(0.0, 0.5)),
            "xs": np.exp(rng.uniform(-1.5, 1.5, self.POINTS)).tolist(),
            "vectors": {
                "f": fvec,
                "g": gvec,
                "max": np.maximum(fvec, gvec),
                "sum": fvec + gvec,
                "scaled": lam * fvec,
            },
            "lam": lam,
            "lattice_seed": int(rng.integers(0, 2**31)),
            "points": rng.choice(self.GRID.points, self.CHECKED_POINTS, replace=False),
        }

    def run(self, inp):
        f = inp["f"]
        ks = list(self.index_set)
        out = {"interval": [], "lattice": [], "point": [], "grid": [], "classical": []}
        for kernel, _ in self.kernels:
            joins = {}
            for key, vec in inp["vectors"].items():
                samples = es.ExpSamples(self.W, dict(zip(ks, vec.tolist())))
                joins[key] = es.max_product_series_on_grid(
                    kernel, samples, self.LATTICE_GRID, self.interval_config
                )
            out["interval"].append(joins)
            out["lattice"].append(
                es.max_product_lattice_checks(
                    kernel, self.interval_config, self.LATTICE_GRID,
                    self.LATTICE_VECTORS, inp["lattice_seed"],
                )
            )
            values = []
            for x in inp["xs"]:
                samples = es.take_samples(f, self.point_config, math.log(x))
                values.append(
                    (
                        es.max_product_series(kernel, samples, x, self.point_config),
                        es.generalized_series(kernel, samples, x, self.point_config),
                        es.kantorovich_series(kernel, f, x, self.point_config),
                    )
                )
            out["point"].append(values)
            for op in ("S", "I", "MG"):
                out["grid"].append(es.evaluate_on_grid(op, f, kernel, self.grid_config, self.GRID))
        out["grid"].append(
            es.evaluate_on_grid("E", f, self.kernels[0][0], self.e_config, self.GRID, c=inp["c"])
        )
        out["classical"] = [
            es.classical_exponential_formula(f, inp["c"], float(self.W), x, self.POINT_WINDOW)
            for x in inp["xs"]
        ]
        return out

    def check(self, inp, result):
        problems = []
        f_log, w = inp["f_log"], float(self.W)
        lattice_vs = self.LATTICE_GRID.log_values()
        for (kernel, profile), joins, lattice, values in zip(
            self.kernels, result["interval"], result["lattice"], result["point"]
        ):
            name = kernel.name
            for key, vec in inp["vectors"].items():
                ref = oracles.max_product_interval(profile, vec, w, lattice_vs, self.index_set)
                for j in np.nonzero(~oracles.close_array(joins[key], ref, ref, oracles.JOIN_RTOL))[0]:
                    problems.append(
                        f"interval MG/{name} [{key}] at log x={lattice_vs[j]!r}: {joins[key][j]!r} vs {ref[j]!r}"
                    )
            problems += max_plus_law_problems(name, joins, inp["lam"])
            for check in lattice:
                if not (check.holds and check.hypothesis_met):
                    problems.append(f"lattice check {check.bound_name}/{name} failed: lhs={check.lhs!r}")
            for x, (mg, s, kv) in zip(inp["xs"], values):
                v = math.log(x)
                ref = oracles.max_product(profile, f_log_at(f_log, w), w, v, window=self.POINT_WINDOW)
                if not oracles.close(mg, ref, ref, oracles.JOIN_RTOL):
                    problems.append(f"max_product_series/{name} at x={x!r}: {mg!r} vs {ref!r}")
                ref, scale = oracles.series_sum(profile, f_log, w, v, window=self.POINT_WINDOW)
                if not oracles.close(s, ref, scale, oracles.SUM_RTOL):
                    problems.append(f"generalized_series/{name} at x={x!r}: {s!r} vs {ref!r}")
                ref, scale = oracles.kantorovich_sum(
                    profile, f_log, w, v, self.point_config.quadrature_points, window=self.POINT_WINDOW
                )
                if not oracles.close(kv, ref, scale, oracles.SUM_RTOL):
                    problems.append(f"kantorovich_series/{name} at x={x!r}: {kv!r} vs {ref!r}")
        for x, value in zip(inp["xs"], result["classical"]):
            ref, scale = oracles.classical_sum(f_log, inp["c"], w, math.log(x), self.POINT_WINDOW)
            if not oracles.close(value, ref, scale, oracles.SUM_RTOL):
                problems.append(f"classical_exponential_formula at x={x!r}: {value!r} vs {ref!r}")
        calls = [(kernel, profile, op) for kernel, profile in self.kernels for op in ("S", "I", "MG")]
        calls.append((self.kernels[0][0], None, "E"))
        for (kernel, profile, op), rows in zip(calls, result["grid"]):
            label = f"grid {op}/{kernel.name}" if op != "E" else "grid E"
            config = self.e_config if op == "E" else self.grid_config
            values = _grid_rows_ok(rows, self.GRID.points, label, problems)
            if values is not None:
                problems += check_grid_values(
                    label, op, values, self.GRID, profile, f_log, config, inp["c"], inp["points"]
                )
        return problems

    def close(self):
        pass


def max_plus_law_problems(name, joins, lam):
    """Monotone, subadditive and positively homogeneous, on the seeded vectors."""
    problems = []
    f, g = joins["f"], joins["g"]
    scale = np.maximum(1.0, np.maximum(np.abs(f), np.abs(g)))
    if np.any(f > joins["max"] + oracles.LAW_RTOL * scale) or np.any(
        g > joins["max"] + oracles.LAW_RTOL * scale
    ):
        problems.append(f"MG/{name} not monotone")
    if np.any(joins["sum"] > f + g + oracles.LAW_RTOL * scale):
        problems.append(f"MG/{name} not subadditive")
    if np.any(np.abs(joins["scaled"] - lam * f) > oracles.LAW_RTOL * lam * np.abs(f)):
        problems.append(f"MG/{name} not positively homogeneous")
    return problems


# --------------------------------------------------------------------------
# theory_checks
# --------------------------------------------------------------------------


class TheoryChecks:
    """One round of CLI commands on freshly constructed kernels."""

    name = "theory_checks"
    SHAPES = np.round(np.arange(0.75, 1.5001, 0.05), 2)
    OUTDIR_ENV = "EXPSAMPLING_OUTDIR"

    def __init__(self, seed: int, hooks: Hooks, workdir: str):
        self.seed = seed
        self.hooks = hooks
        self.outdir = workdir
        self._saved_outdir = os.environ.get(self.OUTDIR_ENV)
        os.environ[self.OUTDIR_ENV] = workdir

    def inputs(self, i: int):
        rng = _op_rng(self.seed, i)
        return {"a": float(rng.choice(self.SHAPES))}

    def commands(self, gauss_name):
        """(artifact, argv) of one round."""
        return [
            ("kernel-check-bspline3.json",
             ["kernel-check", "--kernel", "bspline3", "--mu", "5", "--r", "1"]),
            ("kernel-check-gauss.json",
             ["kernel-check", "--kernel", gauss_name, "--mu", "5", "--r", "1"]),
            ("rate.json", ["rate", "--kernel", gauss_name, "--function", "weight", "--w", "8,16"]),
            ("voronovskaja.json",
             ["voronovskaja", "--kernel", "bspline3", "--function", "damped_log2",
              "--w", "8,16", "--allow-varying-moments"]),
            ("converge.json", ["converge", "--kernel", "bspline3", "--function", "weight"]),
            ("suite.json", ["suite", "--kernels", gauss_name]),
        ]

    def run(self, inp):
        es.register_kernel(self.hooks.kernel(es.mellin_bspline(3)))
        gauss = es.register_kernel(self.hooks.kernel(es.mellin_gaussian(inp["a"])))
        codes = []
        for artifact, argv in self.commands(gauss.name):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv + ["--output", artifact])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            codes.append((artifact, code, err.getvalue()))
        return codes

    def artifacts(self, result):
        """Parsed JSON artifacts by file name, and their total size in bytes."""
        parsed, size = {}, 0
        for artifact, _, _ in result:
            path = os.path.join(self.outdir, artifact)
            with open(path, "rb") as handle:
                data = handle.read()
            size += len(data)
            parsed[artifact] = json.loads(data)["results"]
        return parsed, size

    def check(self, inp, result):
        problems = [
            f"{artifact}: exit code {code}: {err.strip()}" for artifact, code, err in result if code != 0
        ]
        if problems:
            return problems
        parsed, size = self.artifacts(result)
        self.hooks.count("cli.artifact_bytes", size)
        return theory_problems(parsed, inp["a"])

    def close(self):
        if self._saved_outdir is None:
            os.environ.pop(self.OUTDIR_ENV, None)
        else:
            os.environ[self.OUTDIR_ENV] = self._saved_outdir


def theory_problems(parsed, a):
    """Check verdicts and the closed-form eta and m0 in parsed artifacts."""
    problems = []
    eta_g, m0_g = math.exp(-a), 1.0

    def constant(label, value, ref):
        if not (isinstance(value, float) and oracles.close(value, ref, ref, oracles.CONSTANT_RTOL)):
            problems.append(f"{label} = {value!r}, closed form {ref!r}")

    for artifact, eta, m0 in (
        ("kernel-check-bspline3.json", 0.125, 0.75),
        ("kernel-check-gauss.json", eta_g, m0_g),
    ):
        report = parsed[artifact]
        constant(f"{artifact} eta", report["eta"], eta)
        constant(f"{artifact} m0", report["absolute_moments"]["0"], m0)
        if not (report["chi1_holds"] and report["chi2_holds"]):
            problems.append(f"{artifact}: chi1/chi2 do not hold")

    checks = (
        parsed["rate.json"] + parsed["voronovskaja.json"] + parsed["suite.json"]["checks"]
    )
    for c in checks:
        if c["holds"] is not True or c["hypothesis_met"] is not True:
            problems.append(f"check {c['bound_name']} holds={c['holds']} hypothesis_met={c['hypothesis_met']}")
    for c in parsed["rate.json"]:
        constant("rate eta", c["details"]["eta"], eta_g)
        constant("rate m0", c["details"]["m0"], m0_g)
    for c in parsed["suite.json"]["checks"]:
        if c["bound_name"] == "weighted_image_bound":
            constant("suite eta", c["details"]["eta"], eta_g)
            constant("suite m0", c["details"]["m0"], m0_g)
    table = parsed["converge.json"]
    errors = [r["weighted_sup_error"] for r in table["rows"]]
    if len(errors) != 4 or not all(isinstance(e, float) and math.isfinite(e) for e in errors):
        problems.append(f"converge rows {errors!r}")
    return problems


WORKLOADS = {w.name: w for w in (ReconstructWide, SmallCalls, TheoryChecks)}
