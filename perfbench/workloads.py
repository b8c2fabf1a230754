"""Workload inputs, tasks and oracles.

A workload is a list of tasks.  A task is one user-level result (one
correlator table, one entropy curve, one threshold, one CLI invocation):
``run(ctx)`` is the timed call into cyclorb's public functions and
``check(out, outputs)`` is the untimed oracle.  Inputs come only from the
seed.  Tasks of one pass share ``ctx``, so a curve task reuses the states
that the preceding build task of the same pass selected.

A failed check is matched against the defects known at the seed commit,
each at its documented size.  A match is reported as a known defect; any
other miss, or an exception, is a failure.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from cyclorb import catalog, cli, monodromy, rsos, specfun, yanglee_chain as ylc

# Couplings both parametric families accept at the seed commit, in a band
# where a task's cost is nearly the same for every g: continuation steps and
# the invariance fallback vary with g, and across this pool an mm_n3_phi21
# task stays within +-12 % of its median time.  mm_n3_phi21 rejects g = 3/2
# and g = 2 by design.
G_POOL = ("8/7", "15/11", "13/12", "17/12", "9/8", "10/7", "16/13",
          "16/11", "13/8", "11/7", "6/5", "8/5", "17/11")
G_FAMILIES = ("mm_n2_phi21", "mm_n3_phi21")
FIXED_MODELS = ("yl2int_vac", "yl1int_vac", "yl1int_gs", "ising2int_vac")

CLOSED_FORM_TOL = 1e-9        # cmd_correlator --selftest tolerance
REFERENCE_TOL = 1e-4          # expected_A / expected_X, relative
REFLECTION_TOL = 1e-8         # cmd_lattice --selftest tolerance
TWIST_DIM_TOL = 0.03          # criterion 9
CIRCLE_TOL = 1e-9
# x -> 1 truncation of the M = 200 series about 0, as measured at the seed
# commit: 7e-6 relative at x = 0.95 for yl2int_vac and yl1int_vac, 3e-7 for
# ising2int_vac; nothing above 1e-9 at x <= 0.9.
TRUNCATION_DEFECT_MAX = 1e-5
TRUNCATION_DEFECT_FROM = 0.9
DOCUMENTED_EXIT_CODES = (2, 3, 4)
UNCAUGHT_CLI_ERRORS = ("FitError", "SizeError")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str
    defect: str | None = None     # known-defect id when a miss matches one


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable
    check: Callable
    digest: Callable      # output -> value compared across passes


def outcome(checks) -> str:
    """'ok', 'known_defect' or 'failed' for one task's list of checks."""
    misses = [c for c in checks if not c.ok]
    if not misses:
        return "ok"
    if all(c.defect for c in misses):
        return "known_defect"
    return "failed"


def _rel(a, b):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def _linear_grid(rng, n, lo=0.05, hi=0.95):
    """n points over the CLI default range, each end moved inwards by less
    than half a spacing."""
    half = 0.5 * (hi - lo) / (n - 1)
    return (round(lo + rng.uniform(0, half), 6), round(hi - rng.uniform(0, half), 6))


# ---------------------------------------------------------------------------
# cft_catalog


def _truncation_check(name, xs, got, want):
    err = _rel(got, want)
    worst = float(np.max(err))
    ok = worst <= CLOSED_FORM_TOL
    inner = err[xs <= TRUNCATION_DEFECT_FROM]
    known = (not ok and (inner.size == 0 or float(np.max(inner)) <= CLOSED_FORM_TOL)
             and worst <= TRUNCATION_DEFECT_MAX)
    return Check(name, ok, f"max rel err {worst:.2e} (worst at x = {xs[np.argmax(err)]:.4f})",
                 "x1_truncation" if known else None)


def _circle_oracle(model, coeffs, b0, fractions):
    """Sum_ij X_ij conj(I_i) I_j |2 sin(pi s)|^(2 p1) on x = exp(2 i pi s), with
    the cross amplitudes, from blocks continued by monodromy.continue_blocks.
    Returns (full, diagonal_only)."""
    s_eff = np.minimum(fractions, 1.0 - fractions)
    B = monodromy.continue_blocks(model.standard_coeffs(), b0,
                                  [cmath.exp(2j * math.pi * s) for s in s_eff])
    pref = np.abs(2.0 * np.sin(np.pi * s_eff)) ** (2 * float(model.prefactor_exponents[1]))
    diag = pref * (np.abs(B) ** 2 @ coeffs.X)
    cross = np.zeros(len(s_eff))
    for (i, j), t in (coeffs.X_cross or {}).items():
        cross += 2.0 * t * (np.conj(B[:, i]) * B[:, j]).real
    return diag + pref * cross, diag


def _cft_task(model_id, g, grid, fractions):
    label = model_id if g is None else f"{model_id}@{g}"

    def run(ctx):
        model = catalog.get_model(model_id, None if g is None else Fraction(g))
        G = catalog.correlator(model, M=200)
        vals = np.array([G(x) for x in grid])
        circ = catalog.predict_on_circle(model, fractions)
        return model, vals, circ

    def check(out, outputs):
        model, vals, circ = out
        checks = [Check("finite", bool(np.all(np.isfinite(vals)) and np.all(np.isfinite(circ))),
                        "grid and circle values finite")]
        if model.closed_form is not None:
            idx = np.unique(np.r_[np.arange(0, len(grid), 20), len(grid) - 1])
            want = np.array([model.closed_form(float(x)) for x in grid[idx]])
            checks.append(_truncation_check("closed form", grid[idx], vals[idx], want))
        fit, coeffs, b0, _ = catalog.bootstrap(model)
        if model.expected_A is not None:
            dev = float(np.max(_rel(fit.A, model.expected_A)))
            checks.append(Check("expected_A", dev <= REFERENCE_TOL, f"max rel dev {dev:.2e}"))
        if model.expected_X is not None:
            want = [model.expected_X[e] for e in model.block_exponents_0]
            dev = float(np.max(_rel(coeffs.X, want)))
            checks.append(Check("expected_X", dev <= REFERENCE_TOL, f"max rel dev {dev:.2e}"))
        full, diag = _circle_oracle(model, coeffs, b0, fractions)
        dev = float(np.max(_rel(circ, full)))
        dropped = float(np.max(_rel(circ, diag)))
        checks.append(Check("circle with cross terms", dev <= CIRCLE_TOL,
                            f"max rel dev {dev:.2e} (vs diagonal-only {dropped:.2e})",
                            "circle_cross_terms" if dev > CIRCLE_TOL and dropped <= CIRCLE_TOL
                            else None))
        return checks

    return Task(label, run, check, digest=lambda out: np.r_[out[1], out[2]])


def cft_catalog(rng, small=False):
    n_grid, n_g = (50, 1) if small else (2000, 4)
    grid = np.linspace(*_linear_grid(rng, n_grid), n_grid)
    fractions = np.arange(1, 16) / 16
    specs = [(m, None) for m in (FIXED_MODELS[:1] if small else FIXED_MODELS)]
    for family in G_FAMILIES:
        specs += [(family, g) for g in rng.sample(G_POOL, n_g)]
    return [_cft_task(m, g, grid, fractions) for m, g in specs]


# ---------------------------------------------------------------------------
# rsos_curves: RSOS (m, k) = (4, 3)

RSOS_M, RSOS_K = 4, 3
H_TWIST = {(2, 3): -11 / 40, (3, "bare"): -5 / 9}


def _eigenpair_check(label, H, pair, tol=1e-10):
    """EigenPair.check, plus each residual relative to its own vector.

    EigenPair.check scales the left residual by |r|; after w r = 1 the
    covector is 1e4 times longer than r at L >= 12, so the check misses
    there although both residuals are 1e-13 of their own vectors.  That
    miss is a known defect of the seed commit when the self-scaled
    residuals and w r = 1 hold.
    """
    e = max(1.0, abs(pair.energy))
    r, w = pair.right, pair.left
    res_r = np.linalg.norm(H @ r - pair.energy * r) / (np.linalg.norm(r) * e)
    res_w = np.linalg.norm(w @ H - pair.energy * w) / (np.linalg.norm(w) * e)
    biorth = abs(w @ r - 1.0)
    sound = res_r <= tol and res_w <= tol and biorth < 1e-12
    ok = bool(pair.check(H, tol))
    return Check(f"{label} EigenPair.check", ok,
                 f"E = {pair.energy:.10g}; residuals {res_r:.1e} (right), {res_w:.1e} "
                 f"(left), |w r - 1| = {biorth:.1e}",
                 "eigenpair_check_scale" if sound and not ok else None)


def _build_select_task(L):
    def run(ctx):
        H, basis = rsos.build_rsos_hamiltonian(RSOS_M, RSOS_K, L)
        ground = rsos.select_state(H, basis, "ground")
        vacuum = rsos.select_state(H, basis, "vacuum")
        ctx[L] = (basis, vacuum)
        return H, basis, ground, vacuum

    def check(out, outputs):
        H, basis, ground, vacuum = out
        want_dim = rsos.basis_count(RSOS_M, L)
        return [
            Check("basis size = Tr A^L", basis.dim == want_dim, f"{basis.dim} vs {want_dim}"),
            _eigenpair_check("ground", H, ground),
            _eigenpair_check("vacuum", H, vacuum),
            Check("ground below vacuum", ground.energy.real < vacuum.energy.real,
                  f"{ground.energy.real:.10g} < {vacuum.energy.real:.10g}"),
        ]

    return Task(f"L{L}.build_select", run, check,
                digest=lambda out: np.array([out[2].energy, out[3].energy]))


def _curve_task(L, N, insertion, fit_dimension):
    h = H_TWIST[(N, insertion)]

    def run(ctx):
        basis, vacuum = ctx[L]
        return rsos.entropy_curve(RSOS_M, RSOS_K, L, N, "vacuum", insertion,
                                  h_twist=h, pair=vacuum, basis=basis)

    def check(curve, outputs):
        tr = curve["trace"].real
        sym = float(np.max(np.abs(tr - tr[::-1])))
        checks = [Check("interval reflection symmetry", sym < REFLECTION_TOL,
                        f"max dev {sym:.2e}")]
        if fit_dimension:
            fit = rsos.fit_twist_dimension(curve)
            dev = abs(fit - h) / abs(h)
            checks.append(Check("fitted twist dimension", dev < TWIST_DIM_TOL,
                                f"{fit:.5f} vs {h:.5f} ({dev:.2%})"))
        return checks

    return Task(f"L{L}.vacuum_N{N}_{insertion}", run, check,
                digest=lambda curve: curve["trace"])


def rsos_curves(rng, small=False):
    sizes = (6, 8) if small else (12, 14)
    tasks = []
    for L in sizes:
        tasks += [_build_select_task(L),
                  _curve_task(L, 2, 3, fit_dimension=(L == sizes[-1] and not small)),
                  _curve_task(L, 3, "bare", fit_dimension=False)]
    return tasks


# ---------------------------------------------------------------------------
# chain_threshold: imaginary-field Ising chain


def _bracket_checks(lam, L, hc):
    below = ylc.levels_merged(lam, 0.9 * hc, L)
    above = ylc.levels_merged(lam, 1.1 * hc, L)
    return [Check("real below 0.9 h_c", not below, f"h_c = {hc:.8f}"),
            Check("merged at 1.1 h_c", above, f"h_c = {hc:.8f}")]


def _threshold_task(lam, L):
    def run(ctx):
        return ylc.critical_field(lam, L, tol=1e-6)

    return Task(f"h_c.L{L}", run, lambda hc, outputs: _bracket_checks(lam, L, hc),
                digest=lambda hc: np.array([hc]))


def _crossover_task(lam, L):
    def run(ctx):
        return ylc.crossover_study(lam, L, [0.1, 0.99])

    def check(st, outputs):
        d_lo = ylc.midpoint_second_difference(st["profiles"][0.1])
        d_hi = ylc.midpoint_second_difference(st["profiles"][0.99])
        return _bracket_checks(lam, L, st["h_c"]) + [
            Check("concave to convex crossover", d_lo < 0 < d_hi,
                  f"second differences {d_lo:.5f} -> {d_hi:.5f}")]

    return Task(f"crossover.L{L}", run, check,
                digest=lambda st: np.r_[st["h_c"], st["profiles"][0.1], st["profiles"][0.99]])


def _lam(rng):
    return round(0.8 + rng.uniform(-0.02, 0.02), 4)


def chain_threshold(rng, small=False):
    lam = _lam(rng)
    if small:
        return [_threshold_task(lam, 4), _crossover_task(lam, 4)]
    return [_threshold_task(lam, 6), _threshold_task(lam, 8), _crossover_task(lam, 8)]


# ---------------------------------------------------------------------------
# cli_suite: every subcommand through cyclorb.cli.main(argv), in process


@dataclass(frozen=True)
class CliResult:
    code: object          # exit code, or None when cli.main raised
    stdout: str
    error: str | None     # exception type name when cli.main raised
    out_text: str = ""    # contents of --out, when given


def _invoke(argv, out_path=None):
    buf, err = io.StringIO(), io.StringIO()
    code, error = None, None
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:     # an uncaught library error is the measured outcome
            error = type(exc).__name__
    text = Path(out_path).read_text() if out_path and code == 0 else ""
    return CliResult(code, buf.getvalue(), error, text)


def _report_checks(res: CliResult):
    fails = [ln for ln in res.stdout.splitlines() if ln.startswith("FAIL")]
    passes = [ln for ln in res.stdout.splitlines() if ln.startswith("PASS")]
    return [Check("exit code 0", res.code == 0 and res.error is None,
                  f"code {res.code}, error {res.error}"),
            Check("all reports PASS", bool(passes) and not fails,
                  f"{len(passes)} PASS, {len(fails)} FAIL")]


def _csv_rows(text):
    return [ln.split(",") for ln in text.splitlines()[1:]]


def _cli_task(name, argv, check, out_name=None):
    def run(ctx):
        out_path = str(ctx["tmp"] / out_name) if out_name else None
        args = list(argv) + (["--out", out_path] if out_path else [])
        return _invoke([a.replace("{tmp}", str(ctx["tmp"])) for a in args], out_path)

    return Task(name, run, check, digest=lambda res: (res.code, res.error, res.stdout,
                                                      res.out_text))


def _blocks_check(res, outputs):
    checks = [Check("exit code 0", res.code == 0 and res.error is None,
                    f"code {res.code}, error {res.error}")]
    if res.code != 0:
        return checks
    rows = np.array(_csv_rows(res.out_text), dtype=float)
    # yl2int_vac blocks are Gauss functions: I_1 = 2F1(a, b; c; x),
    # I_2 = x^(1-c) 2F1(a-c+1, b-c+1; 2-c; x) with (a, b, c) = (7/10, 11/10, 7/5)
    idx = np.unique(np.r_[np.arange(0, len(rows), 40), len(rows) - 1])
    xs = rows[idx, 0]
    want1 = [specfun.hyp2f1(specfun.HypParams(0.7, 1.1, 1.4), x) for x in xs]
    want2 = [x ** -0.4 * specfun.hyp2f1(specfun.HypParams(0.3, 0.7, 0.6), x) for x in xs]
    got = rows[idx, 1:3]
    checks.append(_truncation_check("blocks vs 2F1", np.r_[xs, xs], got.T.ravel(),
                                    np.r_[want1, want2].real))
    return checks


def _correlator_check(res, outputs):
    checks = [Check("exit code 0", res.code == 0 and res.error is None,
                    f"code {res.code}, error {res.error}")]
    if res.code == 0:
        vals = np.array(_csv_rows(res.out_text), dtype=float)
        checks.append(Check("rows finite and positive",
                            len(vals) > 0 and bool(np.all(np.isfinite(vals)) and np.all(vals[:, 1] > 0)),
                            f"{len(vals)} rows"))
    return checks


def _threads_check(res, outputs):
    base = outputs.get("correlator.threads1")
    same = base is not None and res.code == 0 and res.out_text == base.out_text
    return _correlator_check(res, outputs) + [
        Check("CSV identical to --threads 1", same, "byte comparison")]


def _compare_check(res, outputs):
    return [Check("overlay within 10 % (exit 0)", res.code == 0 and res.error is None,
                  res.stdout.strip().splitlines()[-1] if res.stdout.strip() else "no report")]


def _probe_check(res, outputs):
    ok = res.error is None and res.code in DOCUMENTED_EXIT_CODES
    known = None if ok or res.error not in UNCAUGHT_CLI_ERRORS else "cli_traceback"
    return [Check("documented exit code", ok, f"code {res.code}, error {res.error}", known)]


def cli_suite(rng, small=False):
    n = 200 if small else 4000
    lo, hi = _linear_grid(rng, n)
    grid = f"{lo}:{hi}:{n}"
    L = 6 if small else 12
    chain_L = 4 if small else 8
    lam = _lam(rng)
    x = round(rng.uniform(0.2, 0.4), 4)
    return [
        _cli_task("blocks", ["blocks", "--model", "yl2int_vac", "--grid", grid],
                  _blocks_check, "blocks.csv"),
        _cli_task("correlator.threads1", ["correlator", "--model", "yl1int_gs", "--grid", grid,
                                          "--threads", "1"], _correlator_check, "corr1.csv"),
        _cli_task("correlator.threads2", ["correlator", "--model", "yl1int_gs", "--grid", grid,
                                          "--threads", "2"], _threads_check, "corr2.csv"),
        _cli_task("monodromy.selftest", ["monodromy", "--model", "yl1int_gs", "--selftest"],
                  lambda r, o: _report_checks(r)),
        _cli_task("torus.selftest", ["torus", "--selftest"], lambda r, o: _report_checks(r)),
        _cli_task("ope.selftest", ["ope", "--selftest"], lambda r, o: _report_checks(r)),
        _cli_task("ward.selftest", ["ward", "--x", str(x), "--selftest"],
                  lambda r, o: _report_checks(r)),
        _cli_task("lattice", ["lattice", "--m", "4", "--k", "3", "--L", str(L), "--state",
                              "ground", "--q", "1", "--h-twist", "-0.375", "--selftest"],
                  lambda r, o: _report_checks(r), "lattice.csv"),
        _cli_task("compare", ["compare", "{tmp}/lattice.csv", "--model", "yl1int_gs",
                              "--dressing=-1/20"], _compare_check, "compare.csv"),
        _cli_task("chain", ["chain", "--L", str(chain_L), "--lam", str(lam)],
                  lambda r, o: _report_checks(r)),
        _cli_task("probe.fit_error", ["monodromy", "--model", "yl1int_gs", "--terms", "3"],
                  _probe_check),
        _cli_task("probe.size_error", ["chain", "--L", "30"], _probe_check),
    ]


TASK_LISTS = {"cft_catalog": cft_catalog, "rsos_curves": rsos_curves,
              "chain_threshold": chain_threshold, "cli_suite": cli_suite}


def build(workload: str, seed: int, small: bool = False) -> list:
    """The task list of one workload; the same seed gives the same inputs."""
    return TASK_LISTS[workload](random.Random(f"{workload}:{seed}"), small)
