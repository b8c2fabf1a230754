"""Command-line driver for the correlator pipeline and the lattice checks.

Subcommands emit deterministic CSV (header row, ``.`` decimal separator) or
machine-readable PASS/FAIL reports.  Exit codes: 0 pass, 2 usage error,
3 numerical degeneracy, 4 tolerance failure.  ``main`` turns every library
error into one of these codes with a one-line message on stderr, by the
first class of the exception's MRO that ``EXIT_CODES`` lists.  ``main``
builds the parser of the subcommand it runs, and all nine only for help,
no command or an unknown one.

A plain-text config file with ``key=value`` lines can seed any flags;
explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from fractions import Fraction

import numpy as np

from . import catalog as cat, frobenius as fb, monodromy as mn, rsos
from . import yanglee_chain as ylc

EXIT_OK, EXIT_USAGE, EXIT_DEGENERATE, EXIT_TOLERANCE = 0, 2, 3, 4

# library error -> exit code; a bad argument raises ValueError by the
# library's convention, and an unreadable or unwritable path OSError
EXIT_CODES = {
    ValueError: EXIT_USAGE,
    OSError: EXIT_USAGE,
    fb.LogarithmicCaseError: EXIT_DEGENERATE,
    mn.DegeneracyError: EXIT_DEGENERATE,
    rsos.DefectivePairError: EXIT_DEGENERATE,
    ylc.ComplexGroundStateError: EXIT_DEGENERATE,
    mn.FitError: EXIT_TOLERANCE,
    fb.OutOfDiskError: EXIT_TOLERANCE,
}


def _parse_grid(spec: str):
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError:
        raise ValueError(f"grid {spec!r} is not a:b:n") from None
    if n < 0 or not (0.0 <= a <= b <= 1.0):
        raise ValueError("grid must be a:b:n with 0 <= a <= b <= 1")
    if n == 0:
        return np.array([])
    eps = 1e-9
    return np.clip(np.linspace(a, b, n), eps, 1 - eps)


def fraction(text: str) -> Fraction:
    """A rational flag value such as 11/8; a zero denominator is a usage error."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def finite(text: str) -> float:
    """A float flag value; nan and inf are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _write(args, text: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(lines) -> int:
    ok = True
    for name, passed, detail in lines:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# subcommands


def cmd_blocks(args) -> int:
    model = cat.get_model(args.model, args.g)
    if args.selftest:
        basis = model.basis0(60)
        a0 = fb.evaluate(basis, 1e-8)[0] / 1e-8 ** float(basis.exponents[0])
        return _report([("blocks leading coefficient", abs(a0 - 1) < 1e-6,
                         f"a0 = {a0:.9f}")])
    grid = _parse_grid(args.grid)
    basis = model.basis0(args.terms)
    names = ",".join(f"I_{i+1}" for i in range(model.order))
    rows = [f"x,{names}"]
    # past the channel split, I = A J from the x = 1 basis, whose series converges faster there
    far = grid > mn.CHANNEL_SPLIT
    vals = np.empty((len(grid), model.order))
    vals[~far] = fb.evaluate(basis, grid[~far])
    if np.any(far):
        basis1 = model.basis1(args.terms)
        A = mn.fit_connection(basis, basis1).A
        vals[far] = fb.evaluate(basis1, grid[far]) @ A.T
    rows += [",".join(map(repr, r)) for r in np.column_stack([grid, vals]).tolist()]
    _write(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_monodromy(args) -> int:
    model = cat.get_model(args.model, args.g)
    fit, coeffs, *_ = cat.bootstrap(model, M=args.terms)
    out = []
    out.append(f"# model {model.id}: connection matrix (6 significant digits)")
    for row in fit.A:
        out.append("  " + "  ".join(f"{v:.6g}" for v in row))
    out.append(f"# match residual {fit.residual:.3g}, condition {fit.condition:.3g}")
    out.append("# block coefficients, zero channel (exponent: value)")
    for e, v in zip(model.block_exponents_0, coeffs.X):
        out.append(f"  {e}: {v:.6g}")
    out.append("# block coefficients, one channel (exponent: value)")
    for e, v in zip(model.block_exponents_1, coeffs.Y):
        out.append(f"  {e}: {v:.6g}")
    if coeffs.X_cross:
        out.append(f"# cross amplitudes {coeffs.X_cross}")
    _write(args, "\n".join(out) + "\n")
    if args.selftest:
        lines = []
        if model.expected_A is not None:
            dev = np.max(np.abs(fit.A - model.expected_A) / np.abs(model.expected_A))
            lines.append(("connection matrix vs reference", dev < 1e-4, f"max rel dev {dev:.2e}"))
        if model.expected_X is not None:
            want = np.array([model.expected_X[e] for e in model.block_exponents_0])
            dev = np.max(np.abs(coeffs.X - want) / np.maximum(np.abs(want), 1e-12))
            lines.append(("zero-channel coefficients", dev < 1e-4, f"max rel dev {dev:.2e}"))
        return _report(lines)
    return EXIT_OK


def cmd_correlator(args) -> int:
    model = cat.get_model(args.model, args.g)
    if args.selftest:
        if model.closed_form is None:
            return _report([("closed form available", False, "none for this model")])
        G = cat.correlator(model, M=args.terms)
        dev = max(abs(G(x) - model.closed_form(x)) for x in (0.3, 0.5, 0.7))
        return _report([("assembled vs closed form", dev < 1e-9, f"max dev {dev:.2e}")])
    grid = _parse_grid(args.grid)
    G = cat.correlator(model, M=args.terms)
    rows = ["x,G"]
    rows += [f"{x!r},{v!r}" for x, v in zip(grid.tolist(), G(grid).tolist())]
    _write(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_torus(args) -> int:
    res = cat.torus_check([0.005, 0.01, 0.02])
    idc, phic = cat.torus_block_expansions(4)
    lines = []
    worst = max(max(res["char_id_residual"]), max(res["char_phi_residual"]))
    lines.append(("character/block identities", worst < 1e-9, f"worst residual {worst:.2e}"))
    zworst = max(res["z_residual"])
    lines.append(("partition-sum relation", zworst < 1e-8, f"worst residual {zworst:.2e}"))
    lines.append(("identity-block expansion", idc == [1, 0, 1, 1, 1],
                  f"{[int(c) for c in idc]}"))
    lines.append(("ground-block expansion", phic == [1, 1, 1, 1, 2],
                  f"{[int(c) for c in phic]}"))
    return _report(lines)


def cmd_ope(args) -> int:
    table = cat.ope_table()
    _write(args, cat.ope_table_csv())
    if args.selftest:
        lines = []
        c1 = table["C_Phi_tau1_tau1"].value.real
        lines.append(("identity-dressing constant = 2^(8/5)",
                      abs(c1 - 2 ** 1.6) < 1e-12, f"{c1!r}"))
        c2 = table["C_tauphi_Phi_Lhalf_tauphi"].value.real
        lines.append(("descendant constant = 2^(6/5)/5",
                      abs(c2 - 2 ** 1.2 / 5) < 1e-12, f"{c2!r}"))
        y2 = (table["C_Phi_Phi_Phi"].value * table["C_Phi_tauphi_tauphi"].value).real
        lines.append(("crossed-channel product ~ 20.2276",
                      abs(y2 - 20.2276) < 2e-3, f"{y2:.6f}"))
        return _report(lines)
    return EXIT_OK


def cmd_ward(args) -> int:
    x = args.x
    d = cat.ward_taylor(Fraction(0), Fraction(0), Fraction(-5, 2), x, "d", 4)
    _write(args, "p,d_p\n" + "".join(f"{p},{float(v)!r}\n" for p, v in enumerate(d)))
    if args.selftest:
        want = [x, -(1 + x), 1.0, 0.0, 0.0]
        dev = max(abs(float(a) - b) for a, b in zip(d, want))
        return _report([("weight vector [x, -(1+x), 1]", dev < 1e-12, f"max dev {dev:.2e}")])
    return EXIT_OK


def cmd_lattice(args) -> int:
    insertion = "bare" if args.q is None else args.q
    htw = args.h_twist if args.h_twist is not None else 0.0
    curve = rsos.entropy_curve(args.m, args.k, args.L, args.N, args.state,
                               insertion, h_twist=htw)
    _write(args, rsos.curve_csv(curve, insertion))
    if args.selftest:
        tr = curve["trace"].real
        sym = float(np.max(np.abs(tr - tr[::-1])))
        return _report([("interval reflection symmetry", sym < 1e-8, f"max dev {sym:.2e}")])
    return EXIT_OK


def _lattice_columns(path):
    """The L, ell and trace_re columns of a lattice CSV, as float arrays.

    The header is the first line that is not blank or a ``#`` comment.  A
    row of another length, a missing column or a field that is not a number
    raises ValueError.
    """
    with open(path) as fh:
        lines = [t for t in (ln.split("#", 1)[0].strip() for ln in fh) if t]
    try:
        rows = list(csv.reader(lines))
    except csv.Error as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{path} holds no rows")
    head = [h.strip() for h in rows.pop(0)]
    if any(len(r) != len(head) for r in rows):
        raise ValueError(f"{path}: a row has not the {len(head)} fields of the header")
    cols = [head.index(name) for name in ("L", "ell", "trace_re")]
    # columns of one row-major array, strided as genfromtxt's fields were, so
    # that overlay_fit's dot product takes the same BLAS path
    return np.array([[float(r[c]) for c in cols] for r in rows]).T


def cmd_compare(args) -> int:
    Ls, ell, trace = _lattice_columns(args.lattice_csv)
    s = ell / int(Ls[0])
    model = cat.get_model(args.model, args.g)
    pred = cat.predict_on_circle(model, s, M=args.terms,
                                 dressing_power=float(args.dressing))
    const, rms = rsos.overlay_fit(trace, pred)
    rows = ["ell,lattice,prediction,fitted_constant,rms_rel_dev"]
    for i in range(len(s)):
        rows.append(f"{int(ell[i])},{float(trace[i])!r},"
                    f"{float(const * pred[i])!r},{float(const)!r},{float(rms)!r}")
    _write(args, "\n".join(rows) + "\n")
    print(f"{'PASS' if rms < 0.10 else 'FAIL'} overlay: rms {rms:.4f}, constant {const:.6g}")
    return EXIT_OK if rms < 0.10 else EXIT_TOLERANCE


def cmd_chain(args) -> int:
    st = ylc.crossover_study(args.lam, args.L, [0.1, 0.99])
    d_lo = ylc.midpoint_second_difference(st["profiles"][0.1])
    d_hi = ylc.midpoint_second_difference(st["profiles"][0.99])
    lines = [
        ("threshold found", True, f"h_c = {st['h_c']:.6f}"),
        ("concave to convex crossover", d_lo < 0 < d_hi,
         f"second differences {d_lo:.4f} -> {d_hi:.4f}"),
    ]
    return _report(lines)


# ---------------------------------------------------------------------------


# flags several subcommands share, as (flag, add_argument keywords)
_MODEL = (("--model", dict(required=True, choices=cat.MODEL_IDS)),
          ("--g", dict(type=fraction, default=None,
                       help="coupling of the mm_* families, a fraction such as 11/8")))
_OUT = ("--out", dict(default=None, help="output path (default stdout)"))
_SELFTEST = ("--selftest", dict(action="store_true"))
_TERMS = ("--terms", dict(type=int, default=200, help="series truncation order"))
_GRID = ("--grid", dict(default="0.05:0.95:19", help="a:b:n grid on (0,1)"))

# name -> (help, flags); each subcommand declares only the flags it reads, and
# its handler is cmd_<name>, looked up when its parser is built
_COMMANDS = {
    "blocks": ("conformal-block values on a grid", (*_MODEL, _OUT, _SELFTEST, _TERMS, _GRID)),
    "monodromy": ("connection matrix and block coefficients",
                  (*_MODEL, _OUT, _SELFTEST, _TERMS)),
    "correlator": ("assembled correlator on a grid", (
        *_MODEL, _OUT, _SELFTEST, _TERMS, _GRID,
        ("--threads", dict(type=int, default=1,
                           help="accepted for compatibility; grids are evaluated in one call")))),
    # the checks always run; --selftest is accepted as on the other reports
    "torus": ("character and partition-sum checks", (_SELFTEST,)),
    "ope": ("structure-constant table (CSV)", (_OUT, _SELFTEST)),
    "ward": ("contour-identity weight coefficients",
             (("--x", dict(type=finite, default=0.3)), _OUT, _SELFTEST)),
    "lattice": ("height-chain entropy curve (CSV)", (
        ("--m", dict(type=int, required=True)), ("--k", dict(type=int, required=True)),
        ("--L", dict(type=int, required=True)), ("--N", dict(type=int, default=2)),
        ("--q", dict(type=int, default=None,
                     help="the dressed twist t_q (default: the bare twist)")),
        ("--state", dict(choices=("ground", "vacuum"), default="ground")),
        ("--h-twist", dict(type=finite, default=None)), _OUT, _SELFTEST)),
    "compare": ("overlay a lattice CSV against a model", (
        ("lattice_csv", {}), *_MODEL,
        ("--dressing", dict(type=fraction, default="0", help="extra (1-x) power, rational")),
        _OUT, _TERMS)),
    "chain": ("imaginary-field chain crossover report",
              (("--lam", dict(type=float, default=0.8)), ("--L", dict(type=int, default=8)))),
}


def build_parser(cmd=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``cmd`` alone.

    A one-command parser names all nine in its usage line, so its usage
    errors read as the full parser's.
    """
    ap = argparse.ArgumentParser(
        prog="cyclorb",
        description="Twist-field correlators and lattice entropies for minimal models",
    )
    ap.add_argument("--config", default=None, help="key=value file; flags win")
    sub = ap.add_subparsers(dest="cmd", required=True,
                            metavar=None if cmd is None else "{%s}" % ",".join(_COMMANDS))
    for name in _COMMANDS if cmd is None else (cmd,):
        help_, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_)
        for flag, kw in flags:
            p.add_argument(flag, **kw)
        p.set_defaults(fn=globals()["cmd_" + name])
    return ap


def _config_flags(path):
    """The flags a ``key=value`` config file sets, as argv tokens."""
    inject = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key = "--" + key.strip().replace("_", "-")
            val = val.strip()
            if key != "--selftest":
                inject.extend([key, val])
            elif val.lower() in ("true", "yes", "1"):
                inject.append(key)
            elif val.lower() not in ("false", "no", "0"):
                raise ValueError(f"selftest = {val!r} is not true/yes/1 or false/no/0")
    return inject


def _with_config(argv):
    """(argv, subcommand): argv with its ``--config`` option replaced by the
    file's flags right after the subcommand (explicit flags win), and the
    subcommand it runs, or None where it needs the full parser.

    One scan takes out every spelling argparse accepts for ``--config``,
    before the subcommand or after it: ``--config PATH``, ``--config=PATH``
    and abbreviations such as ``--conf PATH``; the last one wins.  The
    subcommand must come first of the rest; help, an unknown name or any
    other token first builds all nine.
    """
    rest, path, it = [], None, iter(argv)
    for a in it:
        flag, eq, value = a.partition("=")
        if len(flag) > 2 and "--config".startswith(flag):
            path = value if eq else next(it, None)
            if path is None:
                raise ValueError("--config needs a path")
        else:
            rest.append(a)
    cmd = rest[0] if rest and rest[0] in _COMMANDS else None
    if path is not None:
        at = next((j + 1 for j, a in enumerate(rest) if not a.startswith("-")), len(rest))
        rest[at:at] = _config_flags(path)
    return rest, cmd


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, cmd = _with_config(argv)
        args = build_parser(cmd).parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except tuple(EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_CODES[next(c for c in type(exc).__mro__ if c in EXIT_CODES)]


if __name__ == "__main__":
    sys.exit(main())
