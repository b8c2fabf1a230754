"""Command-line driver for the correlator pipeline and the lattice checks.

Subcommands emit deterministic CSV (header row, ``.`` decimal separator) or
machine-readable PASS/FAIL reports.  Exit codes: 0 pass, 2 usage error,
3 numerical degeneracy, 4 tolerance failure.  A library error maps to one
of these codes with a one-line message on stderr (see ``EXIT_CODES``).

A plain-text config file with ``key=value`` lines can seed any flags;
explicit flags win.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import catalog as cat, frobenius as fb, monodromy as mn, rsos
from . import specfun as sf, yanglee_chain as ylc

EXIT_OK, EXIT_USAGE, EXIT_DEGENERATE, EXIT_TOLERANCE = 0, 2, 3, 4

# library error -> exit code
EXIT_CODES = {
    rsos.SizeError: EXIT_USAGE,
    sf.DomainError: EXIT_USAGE,
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
        raise SystemExit(EXIT_USAGE)
    if n < 0 or not (0.0 <= a <= b <= 1.0):
        print("grid must be a:b:n with 0 <= a <= b <= 1", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if n == 0:
        return np.array([])
    eps = 1e-9
    return np.clip(np.linspace(a, b, n), eps, 1 - eps)


def _model_from_args(args) -> cat.CorrelatorModel:
    g = Fraction(args.g) if getattr(args, "g", None) else None
    try:
        return cat.get_model(args.model, g)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


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
    model = _model_from_args(args)
    if args.selftest:
        s = model.basis0(60).series[0]
        a0 = s.evaluate(1e-8) / (1e-8) ** float(s.exponent)
        return _report([("blocks leading coefficient", abs(a0 - 1) < 1e-6,
                         f"a0 = {a0:.9f}")])
    grid = _parse_grid(args.grid)
    basis = model.basis0(args.terms)
    names = ",".join(f"I_{i+1}" for i in range(model.order))
    rows = [f"x,{names}"]
    # past x = 1/2, I = A J from the x = 1 basis, whose series converges faster there
    far = grid > 0.5
    vals = np.empty((len(grid), model.order))
    vals[~far] = basis.evaluate(grid[~far]).real
    if np.any(far):
        basis1 = model.basis1(args.terms)
        A = mn.fit_connection(basis, basis1).A
        vals[far] = (basis1.evaluate(grid[far]) @ A.T).real
    for x, v in zip(grid, vals):
        rows.append(",".join([repr(float(x))] + [repr(float(u)) for u in v]))
    _write(args, "\n".join(rows) + "\n")
    return EXIT_OK


def cmd_monodromy(args) -> int:
    model = _model_from_args(args)
    try:
        fit, coeffs, *_ = cat.bootstrap(model, M=args.terms)
    except mn.DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    out = []
    out.append(f"# model {model.id}: connection matrix (6 significant digits)")
    for row in fit.A:
        out.append("  " + "  ".join(f"{v:.6g}" for v in row))
    out.append(f"# fit residual {fit.residual:.3g}, condition {fit.condition:.3g}")
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
    model = _model_from_args(args)
    if args.selftest:
        if model.closed_form is None:
            return _report([("closed form available", False, "none for this model")])
        G = cat.correlator(model, M=args.terms)
        dev = max(abs(G(x) - model.closed_form(x)) for x in (0.3, 0.5, 0.7))
        return _report([("assembled vs closed form", dev < 1e-9, f"max dev {dev:.2e}")])
    grid = _parse_grid(args.grid)
    G = cat.correlator(model, M=args.terms)
    rows = ["x,G"]
    vals = G(grid)
    for x, v in zip(grid, vals):
        rows.append(f"{float(x)!r},{float(v)!r}")
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
    _write(args, "p,d_p\n" + "\n".join(f"{p},{float(v)!r}" for p, v in enumerate(d)))
    sys.stdout.write("\n")
    if args.selftest:
        want = [x, -(1 + x), 1.0, 0.0, 0.0]
        dev = max(abs(float(a) - b) for a, b in zip(d, want))
        return _report([("weight vector [x, -(1+x), 1]", dev < 1e-12, f"max dev {dev:.2e}")])
    return EXIT_OK


def cmd_lattice(args) -> int:
    try:
        H, basis = rsos.build_rsos_hamiltonian(args.m, args.k, args.L)
    except (rsos.BasisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    pair = rsos.select_state(H, basis, args.state)
    insertion = "bare" if args.bare else args.q
    htw = args.h_twist if args.h_twist is not None else 0.0
    curve = rsos.entropy_curve(args.m, args.k, args.L, args.N, args.state,
                               insertion, h_twist=htw, pair=pair, basis=basis)
    _write(args, rsos.curve_csv(curve, "bare" if args.bare else args.q))
    if args.selftest:
        tr = curve["trace"].real
        sym = float(np.max(np.abs(tr - tr[::-1])))
        return _report([("interval reflection symmetry", sym < 1e-8, f"max dev {sym:.2e}")])
    return EXIT_OK


def cmd_compare(args) -> int:
    data = np.genfromtxt(args.lattice_csv, delimiter=",", names=True)
    L = int(data["L"][0])
    s = data["ell"] / L
    model = _model_from_args(args)
    pred = cat.predict_on_circle(model, s, dressing_power=float(Fraction(args.dressing)))
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


def _add_common(p, grid=False):
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; grids are evaluated in one call")
    p.add_argument("--terms", type=int, default=200, help="series truncation order")
    if grid:
        p.add_argument("--grid", default="0.05:0.95:19", help="a:b:n grid on (0,1)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cyclorb",
        description="Twist-field correlators and lattice entropies for minimal models",
    )
    ap.add_argument("--config", default=None, help="key=value file; flags win")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("blocks", help="conformal-block values on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--g", default=None)
    _add_common(p, grid=True)
    p.set_defaults(fn=cmd_blocks)

    p = sub.add_parser("monodromy", help="connection matrix and block coefficients")
    p.add_argument("--model", required=True)
    p.add_argument("--g", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_monodromy)

    p = sub.add_parser("correlator", help="assembled correlator on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--g", default=None)
    _add_common(p, grid=True)
    p.set_defaults(fn=cmd_correlator)

    p = sub.add_parser("torus", help="character and partition-sum checks")
    _add_common(p)
    p.set_defaults(fn=cmd_torus)

    p = sub.add_parser("ope", help="structure-constant table (CSV)")
    _add_common(p)
    p.set_defaults(fn=cmd_ope)

    p = sub.add_parser("ward", help="contour-identity weight coefficients")
    p.add_argument("--x", type=float, default=0.3)
    _add_common(p)
    p.set_defaults(fn=cmd_ward)

    p = sub.add_parser("lattice", help="height-chain entropy curve (CSV)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--bare", action="store_true")
    p.add_argument("--state", choices=("ground", "vacuum"), default="ground")
    p.add_argument("--h-twist", type=float, default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("compare", help="overlay a lattice CSV against a model")
    p.add_argument("lattice_csv")
    p.add_argument("--model", required=True)
    p.add_argument("--g", default=None)
    p.add_argument("--dressing", default="0", help="extra (1-x) power, rational")
    _add_common(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("chain", help="imaginary-field chain crossover report")
    p.add_argument("--lam", type=float, default=0.8)
    p.add_argument("--L", type=int, default=8)
    _add_common(p)
    p.set_defaults(fn=cmd_chain)
    return ap


def _apply_config(argv):
    """Insert config-file values before the explicit flags (flags win)."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
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
            if val.lower() in ("true", "yes", "1") and key in ("--bare", "--selftest"):
                inject.append(key)
            else:
                inject.extend([key, val])
    head = argv[: i] + argv[i + 2:]
    # place injected options right after the subcommand
    for j, a in enumerate(head):
        if not a.startswith("-") and j > 0 or (j == 0 and not a.startswith("-")):
            return head[: j + 1] + inject + head[j + 1:]
    return head + inject


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config(argv)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if getattr(args, "q", None) is None and getattr(args, "bare", False) is False \
            and args.cmd == "lattice":
        args.bare = True
    try:
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except tuple(EXIT_CODES) as exc:
        print(f"error: {type(exc).__name__}: {' '.join(str(exc).split())}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
