"""Command-line driver for the correlator pipeline and the lattice checks.

Subcommands emit deterministic CSV (header row, ``.`` decimal separator) or
machine-readable PASS/FAIL reports.  Exit codes: 0 pass, 2 usage error,
3 numerical degeneracy, 4 tolerance failure.  ``main`` turns every library
error into one of these codes with a one-line message on stderr, by the
first class of the exception's MRO that ``EXIT_CODES`` lists.

A plain-text config file with ``key=value`` lines can seed any flags;
explicit flags win.
"""

from __future__ import annotations

import argparse
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


def cmd_compare(args) -> int:
    # a one-row file reads as a 0-d array
    data = np.atleast_1d(np.genfromtxt(args.lattice_csv, delimiter=",", names=True))
    if not data.size:
        raise ValueError(f"{args.lattice_csv} holds no rows")
    L = int(data["L"][0])
    s = data["ell"] / L
    model = cat.get_model(args.model, args.g)
    pred = cat.predict_on_circle(model, s, M=args.terms,
                                 dressing_power=float(args.dressing))
    const, rms = rsos.overlay_fit(data["trace_re"], pred)
    rows = ["ell,lattice,prediction,fitted_constant,rms_rel_dev"]
    for i in range(len(s)):
        rows.append(f"{int(data['ell'][i])},{float(data['trace_re'][i])!r},"
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
        ("concave to convex crossover", np.sign(d_lo) != np.sign(d_hi),
         f"second differences {d_lo:.4f} -> {d_hi:.4f}"),
    ]
    return _report(lines)


# ---------------------------------------------------------------------------


def _add_model(p):
    p.add_argument("--model", required=True, choices=cat.MODEL_IDS)
    p.add_argument("--g", type=fraction, default=None,
                   help="coupling of the mm_* families, a fraction such as 11/8")


# flags several subcommands share; each subcommand declares only those it reads
_SHARED = {
    "--out": dict(default=None, help="output path (default stdout)"),
    "--selftest": dict(action="store_true"),
    "--terms": dict(type=int, default=200, help="series truncation order"),
    "--grid": dict(default="0.05:0.95:19", help="a:b:n grid on (0,1)"),
}


def _add(p, *flags):
    for f in flags:
        p.add_argument(f, **_SHARED[f])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclorb",
        description="Twist-field correlators and lattice entropies for minimal models",
    )
    ap.add_argument("--config", default=None, help="key=value file; flags win")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("blocks", help="conformal-block values on a grid")
    _add_model(p)
    _add(p, "--out", "--selftest", "--terms", "--grid")
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("monodromy", help="connection matrix and block coefficients")
    _add_model(p)
    _add(p, "--out", "--selftest", "--terms")
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("correlator", help="assembled correlator on a grid")
    _add_model(p)
    _add(p, "--out", "--selftest", "--terms", "--grid")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; grids are evaluated in one call")
    p.set_defaults(fn=cmd_correlator)

    p = sub.add_parser("torus", help="character and partition-sum checks")
    # the checks always run; --selftest is accepted as on the other reports
    _add(p, "--selftest")
    p.set_defaults(fn=cmd_torus)

    p = sub.add_parser("ope", help="structure-constant table (CSV)")
    _add(p, "--out", "--selftest")
    p.set_defaults(fn=cmd_ope)

    p = sub.add_parser("ward", help="contour-identity weight coefficients")
    p.add_argument("--x", type=float, default=0.3)
    _add(p, "--out", "--selftest")
    p.set_defaults(fn=cmd_ward)

    p = sub.add_parser("lattice", help="height-chain entropy curve (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--q", type=int, default=None,
                   help="the dressed twist t_q (default: the bare twist)")
    p.add_argument("--state", choices=("ground", "vacuum"), default="ground")
    p.add_argument("--h-twist", type=float, default=None)
    _add(p, "--out", "--selftest")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("compare", help="overlay a lattice CSV against a model")
    p.add_argument("lattice_csv")
    _add_model(p)
    p.add_argument("--dressing", type=fraction, default="0", help="extra (1-x) power, rational")
    _add(p, "--out", "--terms")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("chain", help="imaginary-field chain crossover report")
    p.add_argument("--lam", type=float, default=0.8)
    p.add_argument("--L", type=int, default=8)
    p.set_defaults(fn=cmd_chain)
    return ap


def _apply_config(argv):
    """Insert config-file values before the explicit flags (flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a path")
    path = argv[i + 1]
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
    head = argv[: i] + argv[i + 2:]
    # place injected options right after the subcommand
    for j, a in enumerate(head):
        if not a.startswith("-"):
            return head[: j + 1] + inject + head[j + 1:]
    return head + inject


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_apply_config(argv))
        return args.fn(args)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except tuple(EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_CODES[next(c for c in type(exc).__mro__ if c in EXIT_CODES)]


if __name__ == "__main__":
    sys.exit(main())
