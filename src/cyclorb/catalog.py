"""Catalog of twist-field correlator models for minimal-model CFTs.

Each model bundles a Fuchsian ODE for the holomorphic conformal blocks, the
prefactor exponents relating blocks to the physical correlator, the Riemann
scheme, closed forms and reference bootstrap data where available, and the
physics record (central charge, replica number, operator dimensions).

Conventions.  A correlator on the physical slice (xbar = conj x) is

    G(x, xbar) = |x|^(2 p0) |1-x|^(2 p1) sum_ij X_ij conj(I_i(x)) I_j(x)

with I_i the Frobenius basis of ``ode`` about 0 (and Y_j, J_j about 1), and
X diagonal except for cross terms on integer-spaced exponent pairs.
When prefactor_exponents == (0, 0) the ODE annihilates G itself.

Exact data runs on integers, with one division per term: the models' polynomials
(``_mul`` chains, then one ``Fraction`` scale; ``_mm_n3_polys`` homogenised in g = p/q,
each product's last factor over q^4) and ``torus_block_expansions`` (every series
over one denominator, each returned coefficient divided once).
"""

from __future__ import annotations

import cmath
import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import frobenius as fb
from . import monodromy as mn
from . import specfun as sf
from .polyring import (padd, pcompose_trunc, peval, pmul, pmul_trunc, ppow_trunc, ppow_trunc_int,
                       pscale)

F = Fraction


def _mul(*ps):
    out = [1]
    for p in ps:
        out = pmul(out, p)
    return out


# ---------------------------------------------------------------------------
# model record


@dataclass(frozen=True)
class Physics:
    c: Fraction                  # central charge of the mother CFT
    N: int                       # number of replicas
    h_external: Fraction         # dimension of the (per-copy) external primary
    h_twist: Fraction            # dimension of the twist operator in the correlator
    description: str = ""


@dataclass(frozen=True)
class CorrelatorModel:
    id: str
    ode: fb.ThetaOde                         # blocks ODE about 0
    prefactor_exponents: tuple               # (p0, p1), per holomorphic factor
    scheme: fb.RiemannScheme                 # scheme of the physical correlator
    block_exponents_0: tuple                 # basis order about 0
    block_exponents_1: tuple                 # basis order about 1
    norm_channel: int                        # identity channel index in the 1-basis
    physics: Physics
    closed_form: Optional[Callable] = None   # G(x) on (0,1) where known
    expected_X: Optional[dict] = None        # exponent -> coefficient
    expected_Y: Optional[dict] = None
    expected_A: Optional[np.ndarray] = None  # reference connection matrix
    hyp: Optional[sf.HypParams] = None       # when the blocks ODE is hypergeometric
    full_ode: Optional[fb.ThetaOde] = None   # ODE of G itself when distinct
    notes: tuple = ()

    @property
    def order(self) -> int:
        return self.ode.order

    @cached_property
    def ode_at_1(self) -> fb.ThetaOde:
        """The blocks ODE about 1, recentred once per model from the model's
        standard form, so its indicial roots are solved once too."""
        return fb.theta_form_at_one(self.standard_coeffs())

    @cached_property
    def _bootstraps(self) -> dict:
        # bootstrap() results, keyed by M
        return {}

    @cached_property
    def _standard(self) -> tuple:
        return tuple(tuple(c) for c in fb.to_standard_coeffs(self.ode))

    def standard_coeffs(self) -> tuple:
        """The blocks ODE as sum_k c_k(x) d^k, a tuple c_k per k, expanded once."""
        return self._standard

    def basis0(self, M: int = 200) -> fb.FrobeniusBasis:
        return fb.basis_for(self.ode, self.block_exponents_0, M)

    def basis1(self, M: int = 200) -> fb.FrobeniusBasis:
        return fb.basis_for(self.ode_at_1, self.block_exponents_1, M)


_YL_C = F(-22, 5)
_YL_HPHI = F(-1, 5)


def _gamma_X_pair(a, b, c):
    """Bootstrap coefficients (X1, X2) of the 2x2 problem, identity-normalized.

    X1 = g(1-c) g(1-d) g(c-a) g(c-b),  X2 = -g(c)/(1-c)^2 g(1-d) g(1-a) g(1-b),
    with g(x) = Gamma(x)/Gamma(1-x) and d = c - a - b.
    """
    g = sf.gamma_ratio
    d = c - a - b
    X1 = g(1 - c) * g(1 - d) * g(c - a) * g(c - b)
    X2 = -g(c) / (1 - c) ** 2 * g(1 - d) * g(1 - a) * g(1 - b)
    return X1, X2


def _gauss_model(model_id, abc, prefactor, scheme, physics, closed_form, **extra):
    """A model whose blocks ODE is theta(theta + c - 1) - x (theta + a)(theta + b),
    with the Gauss bases (0, 1-c) about 0 and (0, c-a-b) about 1, identity first."""
    a, b, c = abc
    return CorrelatorModel(
        id=model_id, ode=fb.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]]),
        prefactor_exponents=prefactor, scheme=scheme,
        block_exponents_0=(F(0), 1 - c), block_exponents_1=(F(0), c - a - b),
        norm_channel=0, physics=physics, closed_form=closed_form,
        hyp=sf.HypParams(float(a), float(b), float(c)), **extra)


def _gauss_closed_at_0(abc, prefactor, X1, X2):
    """G(x) = |x|^(2 p0) |1-x|^(2 p1) (X1 |I_1|^2 + X2 |I_2|^2) on the Gauss basis
    I_1 = 2F1(a, b; c | x), I_2 = x^(1-c) 2F1(b-c+1, a-c+1; 2-c | x)."""
    a, b, c = abc
    hyp1 = sf.HypParams(float(a), float(b), float(c))
    hyp2 = sf.HypParams(float(b - c + 1), float(a - c + 1), float(2 - c))
    e, q0, q1 = float(1 - c), float(2 * prefactor[0]), float(2 * prefactor[1])

    def closed(x):
        h1, h2 = sf.hyp2f1(hyp1, x), sf.hyp2f1(hyp2, x)
        pref = abs(x) ** q0 * abs(1 - x) ** q1
        return float(pref * (X1 * abs(h1) ** 2 + X2 * abs(complex(x) ** e * h2) ** 2))

    return closed


# ---------------------------------------------------------------------------
# the six models


def _yl2int_vac() -> CorrelatorModel:
    # 400 x^2 (x-1)^2 G'' + 40 x (x-1)(6x-3) G' + 33 G = 0
    xm1 = [-1, 1]
    c2 = pscale(_mul([0, 0, 1], xm1, xm1), 400)
    c1 = pscale(_mul([0, 1], xm1, [-3, 6]), 40)
    c0 = [33]
    abc, p = (F(7, 10), F(11, 10), F(7, 5)), (F(11, 20), F(11, 20))
    X2 = 2 ** (16 / 5)
    return _gauss_model(
        "yl2int_vac", abc, p,
        fb.RiemannScheme((F(3, 20), F(11, 20)), (F(3, 20), F(11, 20)), (F(0), F(-2, 5))),
        Physics(c=_YL_C, N=2, h_external=F(0), h_twist=F(-11, 40),
                description="two-interval vacuum twist four-point, Yang-Lee"),
        _gauss_closed_at_0(abc, p, 1.0, X2),
        expected_X={F(0): 1.0, F(-2, 5): X2},
        expected_Y={F(0): 1.0, F(-2, 5): X2},
        full_ode=fb.theta_form([c0, c1, c2]),
    )


def _yl1int_vac() -> CorrelatorModel:
    # 10 x^2 (1-x)^2 F'' + x (1-x)(3-x) F' + (2/5)(5x^2+3) F = 0
    omx = [1, -1]
    c2 = pscale(_mul([0, 0, 1], omx, omx), 10)
    c1 = _mul([0, 1], omx, [3, -1])
    c0 = pscale([3, 0, 5], F(2, 5))
    abc, p = (F(4, 5), F(7, 10), F(11, 10)), (F(2, 5), F(4, 5))
    X1, X2 = _gamma_X_pair(*abc)
    return _gauss_model(
        "yl1int_vac", abc, p,
        fb.RiemannScheme((F(2, 5), F(3, 10)), (F(4, 5), F(2, 5)), (F(-2, 5), F(-1, 2))),
        Physics(c=_YL_C, N=2, h_external=_YL_HPHI, h_twist=F(-11, 40),
                description="one-interval vacuum-twist four-point in the "
                            "doubled-ground-state background, Yang-Lee"),
        _gauss_closed_at_0(abc, p, X1, X2),
        expected_X={F(0): X1, F(-1, 10): X2},
        full_ode=fb.theta_form([c0, c1, c2]),
    )


def _yl1int_gs() -> CorrelatorModel:
    # (5/3) x^3 (1-x)^3 F''' + 2 x^2 (1-x)^2 (1-2x) F''
    #   + (1/20) x (1-x)(15x^2-14x+7) F' - (1/50)(x^3-3x^2-29x+15) F = 0
    omx = [1, -1]
    c3 = pscale(_mul([0, 0, 0, 1], omx, omx, omx), F(5, 3))
    c2 = pscale(_mul([0, 0, 1], omx, omx, [1, -2]), 2)
    c1 = pscale(_mul([0, 1], omx, [7, -14, 15]), F(1, 20))
    c0 = pscale([15, -29, -3, 1], F(-1, 50))
    ode = fb.theta_form([c0, c1, c2, c3])
    scheme = fb.RiemannScheme((F(1, 2), F(2, 5), F(9, 10)),
                              (F(4, 5), F(2, 5), F(3, 5)),
                              (F(1, 10), F(-3, 10), F(-2, 5)))
    A_ref = np.array([
        [0.46872, 2.98127, -2.61803],
        [0.292217, 2.43298, -1.82483],
        [3.52145, 6.92136, -9.83452],
    ])
    return CorrelatorModel(
        id="yl1int_gs",
        ode=ode,
        prefactor_exponents=(F(0), F(0)),
        scheme=scheme,
        block_exponents_0=(F(1, 2), F(2, 5), F(9, 10)),
        block_exponents_1=(F(4, 5), F(2, 5), F(3, 5)),
        norm_channel=0,
        physics=Physics(c=_YL_C, N=2, h_external=_YL_HPHI, h_twist=F(-3, 8),
                        description="one-interval ground-state dressed-twist "
                                    "four-point, Yang-Lee"),
        expected_X={F(2, 5): 30.6594, F(1, 2): -19.2813, F(9, 10): 0.211121},
        expected_Y={F(4, 5): 1.0, F(2, 5): 20.2276, F(3, 5): -9.64063},
        expected_A=A_ref,
    )


def _ising2int_vac() -> CorrelatorModel:
    # 4096 x^3 (x-1)^3 G''' + 8448 x^2 (x-1)^2 (2x-1) G''
    #   + 48 x (x-1)(192x^2-192x+5) G' + 15 (2x-1) G = 0
    xm1 = [-1, 1]
    c3 = pscale(_mul([0, 0, 0, 1], xm1, xm1, xm1), 4096)
    c2 = pscale(_mul([0, 0, 1], xm1, xm1, [-1, 2]), 8448)
    c1 = pscale(_mul([0, 1], xm1, [5, -192, 192]), 48)
    c0 = pscale([-1, 2], 15)
    ode = fb.theta_form([c0, c1, c2, c3])
    # scheme of this operator; the blocks are torus characters in disguise:
    #   x^(-1/48) (1-x)^(-1/48) chi(q(x)) spans the solution space.
    scheme = fb.RiemannScheme((F(-1, 16), F(1, 16), F(15, 16)),
                              (F(-1, 16), F(1, 16), F(15, 16)),
                              (F(0), F(1, 8), F(1)))

    specs = [sf.CharacterSpec(4, 3, r, s) for r, s in ((1, 1), (1, 2), (2, 1))]   # a table each

    def closed(x):
        # identity-normalized partition-sum form: the three blocks are the
        # dressed characters with weights (1, 1/2, 1/256).
        q = sf.nome_from_x(x)
        z = sum(sf.kac_character(spec, q).real ** 2 for spec in specs)
        return float(2 ** (-1 / 3) * (x * (1 - x)) ** (-1 / 24) * z)

    return CorrelatorModel(
        id="ising2int_vac",
        ode=ode,
        prefactor_exponents=(F(0), F(0)),
        scheme=scheme,
        block_exponents_0=(F(-1, 16), F(1, 16), F(15, 16)),
        block_exponents_1=(F(-1, 16), F(1, 16), F(15, 16)),
        norm_channel=0,
        physics=Physics(c=F(1, 2), N=2, h_external=F(0), h_twist=F(1, 32),
                        description="two-interval vacuum twist four-point, Ising"),
        closed_form=closed,
        expected_X={F(-1, 16): 1.0, F(1, 16): 0.5, F(15, 16): 1.0 / 256},
        expected_Y={F(-1, 16): 1.0, F(1, 16): 0.5, F(15, 16): 1.0 / 256},
        notes=("blocks equal dressed torus characters: "
               "2^(1/6) B(-1/16) = chi_1, 2^(1/6)/16 B(15/16) = chi_eps, "
               "2^(-1/3) B(1/16) = chi_sigma",),
    )


def central_charge(g: Fraction) -> Fraction:
    return 1 - 6 * (1 - g) ** 2 / g


def kac_h21(g: Fraction) -> Fraction:
    return (3 * g - 2) / 4


def _check_columns(g: Fraction, columns):
    notes = []
    for col in columns:
        if len(set(col)) < len(col):
            raise ValueError(f"exponent collision in scheme column {col} at g = {g}")
        notes += [f"integer exponent difference {col[i] - col[j]} within column {col}"
                  for i, j in integer_spaced_pairs(col)]
    return tuple(notes)


def _mm_n2(g) -> CorrelatorModel:
    g = F(g)
    c_charge = central_charge(g)
    h21 = kac_h21(g)
    h_twist = c_charge / 16  # replica 2 twist dimension c/24 (N - 1/N)
    a, b, c = 2 - 3 * g, F(3, 2) - 2 * g, F(3, 2) - g
    d = c - a - b
    col0 = ((2 - 3 * g) / 2, (1 - g) / 2)
    col1 = ((6 * g**2 - 13 * g + 6) / (8 * g), (38 * g**2 - 29 * g + 6) / (8 * g))
    colinf = ((-6 + 17 * g - 10 * g**2) / (8 * g), (-18 * g**2 + 21 * g - 6) / (8 * g))
    notes = _check_columns(g, (col0, col1, colinf))
    p0, p1 = -2 * h21, (6 * g**2 - 13 * g + 6) / (8 * g)  # (-2 h_21, -2 h_twist(orb))
    # crossed-channel coefficient with the identity channel normalized to one:
    # Y2 = -[Gamma(1-d)/Gamma(1+d)]^2 g(1-a) g(1-b) g(c-a) g(c-b)
    gr = sf.gamma_ratio
    try:
        X_cross = (-(sf.gamma(1 - d) / sf.gamma(1 + d)) ** 2
                   * gr(1 - a) * gr(1 - b) * gr(c - a) * gr(c - b))
    except sf.PoleError:
        X_cross = None
        notes = notes + ("crossed-channel coefficient singular at this g",)

    af, bf, cf, df = float(a), float(b), float(c), float(d)

    def closed(x):
        # summed about x = 1: hyp2f1's connection formula degenerates at integer d;
        # near x = 0 the series in 1 - x takes up to 60000 terms (see closed_form_eval)
        if X_cross is None:
            raise sf.DomainError(f"crossed-channel coefficient singular at g = {g}")
        j1 = sf._hyp_series(af, bf, 1 - df, 1 - x, max_terms=60000)
        j2 = sf._hyp_series(cf - af, cf - bf, 1 + df, 1 - x, max_terms=60000)
        pref = abs(x) ** float(2 * p0) * abs(1 - x) ** float(2 * p1)
        return float(pref * (abs(j1) ** 2
                             + X_cross * abs(complex(1 - x) ** df * j2) ** 2))

    return _gauss_model(
        "mm_n2_phi21", (a, b, c), (p0, p1), fb.RiemannScheme(col0, col1, colinf),
        Physics(c=c_charge, N=2, h_external=h21, h_twist=h_twist,
                description=f"level-2-degenerate excited-state twist four-point at g = {g}"),
        closed,
        expected_Y={F(0): 1.0} if X_cross is None else {F(0): 1.0, d: X_cross},
        notes=notes,
    )


def _mm_n3_polys(g):
    """The five theta polynomials of the replica-3 excited-state ODE, each
    coefficient of degree 4 in g.  A rational g = p/q runs on integers, each
    factor of degree d in g times q^d; the last factor of each product (and P2)
    carries the division by q^4, so entries no product reaches stay the int 0
    of ``pmul_trunc``.  A symbolic g (the verification tests) takes q = 1."""
    try:
        p, q = F(g).as_integer_ratio()
    except TypeError:
        p, q = g, 1

    def h(*cs):   # q^d (c_0 + c_1 g + ... + c_d g^d)
        return sum(c * p**i * q**(len(cs) - 1 - i) for i, c in enumerate(cs))

    def lin(a, b, c):   # [a + b g, c g]
        return [h(a, b), h(0, c)]

    def last(cs, k=1):   # k / q^4 times cs
        return [F(k * c, q**4) for c in cs] if isinstance(p, int) else pscale(cs, k)

    P0 = _mul(lin(1, -2, 1), lin(1, -1, 1), lin(6, -5, 3), last(lin(6, -4, 3), 16))
    P1 = _mul(lin(1, -1, 1), last([h(486, -963, 666, -160), h(0, 567, -810, 296),
                                   h(0, 0, 234, -180), h(0, 0, 0, 36)], -16))
    P2 = last([h(28980, -68076, 60344, -24320, 3840), h(0, 46008, -84456, 52272, -10944),
               h(0, 0, 27720, -35280, 11424), h(0, 0, 0, 7776, -5184), h(0, 0, 0, 0, 864)])
    P3 = _mul(lin(7, -4, 2), last([h(1215, -1962, 1008, -160), h(0, 1296, -1404, 376),
                                   h(0, 0, 504, -288), h(0, 0, 0, 72)], -4))
    P4 = _mul(lin(7, -4, 2), lin(7, -2, 2), lin(15, -10, 6), last(lin(15, -8, 6)))
    return [P0, P1, P2, P3, P4]


def mm_n3_scheme_columns(g):
    g = F(g)
    col0 = ((g - 1) / g, (4 * g - 6) / (3 * g), (2 * g - 1) / g, (5 * g - 6) / (3 * g))
    col1 = (F(3) / (2 * g), (6 * g - 9) / (2 * g), (2 * g - 1) / (2 * g), (4 * g - 5) / (2 * g))
    colinf = ((15 - 8 * g) / (6 * g), (7 - 4 * g) / (2 * g),
              (7 - 2 * g) / (2 * g), (15 - 10 * g) / (6 * g))
    return col0, col1, colinf


def _mm_n3(g) -> CorrelatorModel:
    g = F(g)
    c_charge = central_charge(g)
    h21 = kac_h21(g)
    h_twist = c_charge / 9  # replica 3 twist dimension c/24 (N - 1/N)
    col0, col1, colinf = mm_n3_scheme_columns(g)
    notes = _check_columns(g, (col0, col1, colinf))
    polys = _mm_n3_polys(g)
    ode = fb.ThetaOde(order=4, polys=tuple(tuple(p) for p in polys))
    scheme = fb.RiemannScheme(col0, col1, colinf)
    # about x = 1 the internal dimensions are spaced by h13 = (2-g)/g starting
    # from the identity block at exponent (6g-9)/(2g) (index 1 in col1 order)
    return CorrelatorModel(
        id="mm_n3_phi21",
        ode=ode,
        prefactor_exponents=(F(0), F(0)),
        scheme=scheme,
        block_exponents_0=col0,
        block_exponents_1=col1,
        norm_channel=1,
        physics=Physics(c=c_charge, N=3, h_external=h21, h_twist=h_twist,
                        description=f"replica-3 excited-state twist four-point at g = {g}"),
        notes=notes,
    )


# model id -> (builder, whether it is a family parametrised by the coupling g);
# the order is the CLI's --model choices
_MODELS = {
    "yl2int_vac": (_yl2int_vac, False),
    "yl1int_vac": (_yl1int_vac, False),
    "yl1int_gs": (_yl1int_gs, False),
    "ising2int_vac": (_ising2int_vac, False),
    "mm_n2_phi21": (_mm_n2, True),
    "mm_n3_phi21": (_mm_n3, True),
}
MODEL_IDS = tuple(_MODELS)


def get_model(model_id: str, g=None) -> CorrelatorModel:
    """Build a catalog model; parametric families require the coupling g."""
    if model_id not in _MODELS:
        raise KeyError(f"unknown model id {model_id!r}; choose from {MODEL_IDS}")
    build, family = _MODELS[model_id]
    if not family:
        return build()
    if g is None:
        raise ValueError(f"{model_id} requires g")
    g = F(g)
    if not F(1, 2) < g < F(5, 2):   # checked before any division by g
        raise ValueError(f"g = {g} outside the validity window (1/2, 5/2)")
    return build(g)


def validate_scheme(model: CorrelatorModel) -> bool:
    """Exact check: shifted indicial data of the blocks ODE equals the scheme."""
    p0, p1 = model.prefactor_exponents
    at0 = sorted(e + p0 for e in fb.indicial_exponents(model.ode))
    at1 = sorted(e + p1 for e in fb.indicial_exponents(model.ode_at_1))
    atinf = sorted(e - p0 - p1 for e in fb.exponents_at_infinity(model.ode))
    want0, want1, wantinf = model.scheme.column_sets()
    ok = (tuple(at0), tuple(at1), tuple(atinf)) == (want0, want1, wantinf)
    if model.full_ode is not None:
        full = fb.scheme_of(model.full_ode)
        ok = ok and full.column_sets() == model.scheme.column_sets()
    return ok


# ---------------------------------------------------------------------------
# bootstrap pipeline


def integer_spaced_pairs(exponents) -> list:
    """Index pairs whose exponents differ by a nonzero integer."""
    out = []
    for i in range(len(exponents)):
        for j in range(i + 1, len(exponents)):
            diff = F(exponents[i]) - F(exponents[j])
            if diff != 0 and diff.denominator == 1:
                out.append((i, j))
    return out


def bootstrap(model: CorrelatorModel, M: int = 200):
    """Fit the connection matrix and solve for the block coefficients.

    A strictly diagonal invariance ansatz is tried first; if it admits no
    one-dimensional solution, the minimal relaxation with symmetric cross
    terms on integer-spaced exponent pairs is used.  The result is kept on
    the model, one per M, so ``correlator`` and ``predict_on_circle`` on one
    model fit and solve once.
    """
    if M in model._bootstraps:
        return model._bootstraps[M]
    b0 = model.basis0(M)
    b1 = model.basis1(M)
    fit = mn.fit_connection(b0, b1)
    try:
        coeffs = mn.diagonal_invariants(fit, norm_channel=model.norm_channel)
    except mn.DegeneracyError:
        p0 = integer_spaced_pairs(model.block_exponents_0)
        p1 = integer_spaced_pairs(model.block_exponents_1)
        coeffs = mn.diagonal_invariants(fit, norm_channel=model.norm_channel,
                                        pairs0=p0, pairs1=p1)
    model._bootstraps[M] = fit, coeffs, b0, b1
    return fit, coeffs, b0, b1


def correlator(model: CorrelatorModel, M: int = 200):
    """Assembled G(x) on (0, 1), in the channel whose series converges faster:
    ``monodromy.assemble``'s sum of the x = 0 decomposition (X, basis about 0)
    takes x <= ``monodromy.CHANNEL_SPLIT`` = 1/2, that of the x = 1 one (Y, basis
    about 1) the rest, in one G.  A scalar gives a float, a real array a float64
    array of its shape (inf where a power overflows, see ``monodromy.assemble``).
    Complex input or a NaN raises ``ValueError``, a point outside (0, 1) ``OutOfDiskError``."""
    fit, coeffs, b0, b1 = bootstrap(model, M)
    return mn._summed(mn._channel(model.prefactor_exponents, coeffs.X, b0, coeffs.X_cross),
                      mn._channel(model.prefactor_exponents, coeffs.Y, b1, coeffs.Y_cross))


def closed_form_eval(model_id: str, x: float, g=None) -> float:
    """The model's closed form at a real 0 < x < 1.

    mm_n2_phi21 sums its 2F1s about x = 1 in at most 60000 terms; below an x
    between 5e-5 and 3e-4, depending on g, they do not converge and
    ``DomainError`` is raised.
    """
    model = get_model(model_id, g)
    if model.closed_form is None:
        raise ValueError(f"model {model_id} has no closed form")
    if isinstance(x, complex) or not 0 < x < 1:
        raise ValueError("closed forms are evaluated on the physical slice 0 < x < 1")
    return model.closed_form(x)


def unfolded_four_point(g, x: float) -> float:
    """Dual route for the one-interval vacuum-twist correlator F(x).

    Unfolds the two-sheeted surface to a single-copy four-point function at
    u = 4 sqrt(x) / (1 + sqrt(x))^2:

        F(x) = |16 x|^(-2h) |1 + sqrt(x)|^(-8h) < phi phi phi(u) phi >

    with the four-point function assembled from its own hypergeometric
    blocks at (1-g, 2-3g; 2-2g), identity-normalized.  The parameters are
    fixed by the internal dimensions {0, 2g-1} in both channels and by the
    square-root transformation structure (c = 2a).
    """
    g = F(g)
    h = kac_h21(g)
    at, bt, ct = 1 - g, 2 - 3 * g, 2 - 2 * g
    X1, X2 = _gamma_X_pair(at, bt, ct)
    if not 0 < x < 1:
        raise ValueError("0 < x < 1 required (square-root branch)")
    sx = math.sqrt(x)
    u = 4 * sx / (1 + sx) ** 2
    atf, btf, ctf = float(at), float(bt), float(ct)
    # direct series: u < 1 always, and the crossed-channel connection can be
    # degenerate (integer d) for rational g
    h1 = sf._hyp_series(atf, btf, ctf, u, max_terms=60000)
    h2 = sf._hyp_series(btf - ctf + 1, atf - ctf + 1, 2 - ctf, u, max_terms=60000)
    four = (abs(u) ** float(-4 * h) * abs(1 - u) ** float(-4 * h)
            * (X1 * abs(h1) ** 2 + X2 * abs(complex(u) ** (1 - ctf) * h2) ** 2))
    return float(abs(16 * x) ** float(-2 * h) * (1 + sx) ** float(-8 * h) * four)


def predict_on_circle(model: CorrelatorModel, fractions, M: int = 200,
                      dressing_power: float = 0.0) -> np.ndarray:
    """Physical correlator at x = exp(2 i pi s) for the finite-size geometry.

    ``dressing_power`` w adds a global |1-x|^(2w) factor (used to pass from
    the crossed-channel normalization of the stored ODE to the lattice
    two-point normalization).
    """
    fit, coeffs, b0, _ = bootstrap(model, M)
    return mn.correlator_on_circle(model.standard_coeffs(), b0, coeffs.X,
                                   fractions, model.prefactor_exponents,
                                   extra_one_minus_x_power=dressing_power,
                                   cross=coeffs.X_cross)


# ---------------------------------------------------------------------------
# OPE structure constants


@dataclass(frozen=True)
class OpeConstant:
    name: str
    value: complex
    provenance: str
    closed_form_abs: Optional[float] = None


def ope_table() -> dict:
    """Structure constants of the replica-2 Yang-Lee orbifold."""
    h = float(_YL_HPHI)
    c_phi3 = 1j * math.sqrt((3 * math.sqrt(5) - 5) / 2) \
        * sf.gamma(0.2) ** 3 / (10 * math.pi * sf.gamma(0.6))
    big_phi3 = c_phi3 ** 2
    c_tau_id = 2.0 ** (-8 * h)
    c_mixed = math.sqrt(2) * c_phi3 / 2 ** (2 * h)
    # positive closed form; the sign consistent with the bootstrap data is negative
    c_tauphi_abs = ((math.sqrt(5) - 1) * sf.gamma(0.2) ** 6
                    * sf.gamma(0.4) ** 2 / (80 * 2 ** 0.4 * math.pi ** 4))
    c_tauphi = -c_tauphi_abs
    c_tau1_phi = c_phi3 / 2 ** (6 * h)
    c_desc = 2.0 ** (4 * h + 2) / 5
    consts = (
        OpeConstant("C_phi_phi_phi", c_phi3,
                    "gamma closed form for the minimal-model three-point constant"),
        OpeConstant("C_Phi_Phi_Phi", big_phi3,
                    "untwisted three-point factorizes over the two copies"),
        OpeConstant("C_Phi_tau1_tau1", c_tau_id,
                    "two-point function on the unfolded double cover: 2^(-8 h_phi)"),
        OpeConstant("C_phi1_tauphi_tauphi", c_mixed,
                    "unfolded three-point, symmetrized single-copy insertion"),
        OpeConstant("C_Phi_tauphi_tauphi", c_tauphi,
                    "unfolded four-point at the coincident limit; sign fixed by the "
                    "bootstrap data, modulus by the gamma closed form",
                    closed_form_abs=c_tauphi_abs),
        OpeConstant("C_tauphi_Phi_tau1", c_tau1_phi,
                    "unfolded three-point: C_phi_phi_phi / 2^(6 h_phi)"),
        OpeConstant("C_tauphi_Phi_Lhalf_tauphi", c_desc,
                    "normalized descendant three-point: 2^(4 h_phi + 2) / 5"),
    )
    return {const.name: const for const in consts}


def ope_table_csv() -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["name", "re", "im", "provenance"])
    for k, const in ope_table().items():
        w.writerow([k, repr(const.value.real), repr(const.value.imag), const.provenance])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# torus checks for the two-interval Yang-Lee correlator


def torus_check(q_points: Sequence[float]) -> dict:
    """Check the character/block identities and the partition-sum relation.

    For each q: (i) chi_11 and chi_12 against the dressed hypergeometric
    blocks at x(q); (ii) Z = |chi_11|^2 + |chi_12|^2 against the closed-form
    correlator.  Returns the residuals.
    """
    out = {"q": [], "char_id_residual": [], "char_phi_residual": [], "z_residual": []}
    s11 = sf.CharacterSpec(5, 2, 1, 1)
    s12 = sf.CharacterSpec(5, 2, 1, 2)
    model = get_model("yl2int_vac")
    for q in q_points:
        if not 0 < q < 0.2:
            raise ValueError("q must lie in (0, 0.2)")
        x = sf.x_from_nome(q)
        i1 = sf.hyp2f1(model.hyp, x).real
        i2 = (complex(x) ** (-0.4) * sf.hyp2f1(sf.HypParams(0.7, 0.3, 0.6), x)).real
        pref = (x * (1 - x)) ** (11 / 30)
        rhs1 = 2 ** (-22 / 15) * pref * i1
        rhs2 = 2 ** (2 / 15) * pref * i2
        c1 = sf.kac_character(s11, q).real
        c2 = sf.kac_character(s12, q).real
        z = c1 ** 2 + c2 ** 2
        zr = 2 ** (-44 / 15) * (x * (1 - x)) ** (-11 / 30) * model.closed_form(x)
        out["q"].append(q)
        out["char_id_residual"].append(abs(rhs1 - c1) / abs(c1))
        out["char_phi_residual"].append(abs(rhs2 - c2) / abs(c2))
        out["z_residual"].append(abs(zr - z) / abs(z))
    return out


def torus_block_expansions(order: int = 4):
    """Exact integer expansion coefficients of the dressed blocks in the nome.

    Returns (id_coeffs, phi_coeffs): the Fraction coefficients of
    q^(+11/60) * (...) and q^(-1/60) * (...) for the two dressed blocks,
    computed by exact series composition through x = 16 sqrt(q) prod(...),
    up to q^order.  Both must match the character expansions integer by
    integer.  Every series is an integer list over one denominator (the
    powers by ``ppow_trunc_int``), divided once per returned coefficient.
    """
    n = 2 * order + 2  # series order in u = sqrt(q)
    x_over = [1]  # x / (16 u) = prod_k (1 + u^k)^(8 (-1)^k), in integers
    for k in range(1, n + 1):
        # (1 + y)^8 = sum C(8, m) y^m; (1 + y)^-8 = sum (-1)^m C(m + 7, 7) y^m
        factor = [0] * (n + 1)
        for m in range(n // k + 1):
            factor[k * m] = math.comb(8, m) if k % 2 == 0 else (-1) ** m * math.comb(m + 7, 7)
        x_over = pmul_trunc(x_over, factor, n)
    x_series = pmul_trunc([0, 16], x_over, n)
    dressing, d_dressing = ppow_trunc_int(padd([1], pscale(x_series, -1)), F(11, 30), n)

    def dressed(a, b, c, power_x_over):
        # 2F1(a, b; c; x): h_k = h_(k-1) (A + d(k-1)) (B + d(k-1)) / (d k (C + d(k-1))),
        # with A = a d, B = b d, C = c d, times the product of all n denominators
        d = math.lcm(a.denominator, b.denominator, c.denominator)
        A, B, C = (int(v * d) for v in (a, b, c))
        hyp = [math.prod(d * k * (C + d * k - d) for k in range(1, n + 1))]
        for k in range(1, n + 1):
            hyp.append(hyp[-1] * (A + d * k - d) * (B + d * k - d) // (d * k * (C + d * k - d)))
        ser, d_power = ppow_trunc_int(x_over, power_x_over, n)
        ser = pmul_trunc(pmul_trunc(ser, dressing, n), pcompose_trunc(hyp, x_series, n), n)
        return ser, d_power * d_dressing * hyp[0]

    (s_id, d_id), (s_phi, d_phi) = (dressed(F(7, 10), F(11, 10), F(7, 5), F(11, 30)),
                                    dressed(F(7, 10), F(3, 10), F(3, 5), F(-1, 30)))
    if any(s_id[1:2 * order:2] + s_phi[1:2 * order:2]):
        raise AssertionError("odd half-integer powers should cancel")
    return ([F(v, d_id) for v in s_id[:2 * order + 1:2]],
            [F(v, d_phi) for v in s_phi[:2 * order + 1:2]])


# ---------------------------------------------------------------------------
# Taylor coefficients for the contour-deformation identities


def _binomial_pair(e1, c1, e2, c2, P):
    """Coefficients 0..P of (1 + c1 w)^e1 (1 + c2 w)^e2."""
    return pmul_trunc(ppow_trunc([1, c1], e1, P), ppow_trunc([1, c2], e2, P), P)


def _int_like(v) -> bool:
    try:
        return F(v).denominator == 1
    except (TypeError, ValueError):
        return False


def ward_taylor(m2, m3, m4, x, family: str, P: int):
    """First P+1 Taylor coefficients of the contour-identity weight functions.

    family "a": (1-z)^(m2+1) (1-xz)^(m3+1) about z = 0
    family "b": (z-x)^(m3+1) z^(m4+1)     about z = 1
    family "c": (z-1)^(m2+1) z^(m4+1)     about z = x
    family "d": (z-1)^(m2+1) (z-x)^(m3+1) about z = 0

    Each family reads only its own two exponents; the third may be None.
    Exact rationals for integer exponents; for equal fractional exponents in
    family "d" the two factors combine into the single real power
    ((z-1)(z-x))^(m2+1); otherwise principal branches (complex output).
    """
    if family == "a":
        return _binomial_pair(m2 + 1, -1, m3 + 1, -x, P)
    if family == "b":
        p3, p4 = m3 + 1, m4 + 1
        base = 1 - x
        ser = _binomial_pair(p3, 1 / base, p4, 1, P)
        return [_pow_real_or_principal(base, p3) * c for c in ser]
    if family == "c":
        p2, p4 = m2 + 1, m4 + 1
        ser = _binomial_pair(p2, 1 / (x - 1), p4, 1 / x, P)
        v0 = _pow_real_or_principal(x - 1, p2) * _pow_real_or_principal(x, p4)
        return [v0 * c for c in ser]
    if family == "d":
        p2, p3 = m2 + 1, m3 + 1
        if _int_like(p2) and _int_like(p3) and p2 >= 0 and p3 >= 0:
            return pmul_trunc(_mul([F(1)], *[[-1, 1]] * int(p2)), _mul(*[[-x, 1]] * int(p3)), P)
        if p2 == p3:
            # ((z-1)(z-x))^s = x^s (1 - (1+x)/x z + z^2/x)^s
            return [x**p2 * c for c in ppow_trunc([1, -(1 + x) / x, 1 / x], p2, P)]
        # (z-1)^p2 (z-x)^p3 at z = 0 is (-1)^p2 (-x)^p3, principal branches
        v0 = cmath.exp(1j * math.pi * complex(p2)) * complex(-x) ** complex(p3)
        return [v0 * complex(c) for c in _normalized_d_series(p2, p3, x, P)]
    raise ValueError("family must be one of 'a', 'b', 'c', 'd'")


def _normalized_d_series(p2, p3, x, P):
    """Coefficients of (1-z)^p2 (1-z/x)^p3, exact when the inputs are exact."""
    return _binomial_pair(p2, -1, p3, -1 / x, P)


def _pow_real_or_principal(base, expo):
    if _int_like(expo):
        return base ** int(F(expo))
    b = complex(base)
    if b.real > 0 and abs(b.imag) == 0:
        return float(b.real) ** float(expo)
    return cmath.exp(complex(expo) * cmath.log(b))


# reference data for the replica-3 contour identity
N3_WARD_POLYNOMIALS = {m: [F(c) for c in p] for m, p in {
    -2: (0, 0, 0, 0, 243),
    -1: (0, 0, 0, 324, 162),
    0: (0, 0, -54, -216, 27),
    1: (0, -12, 36, -36, 12),
    2: (-5, 8, 6, -16, 7),
}.items()}


def n3_ward_consistency(x: Fraction) -> bool:
    """Cross-check the stored replica-3 polynomials against the d-family.

    Q_(p-2)(x) is proportional to the normalized Taylor coefficients D_p of
    (z-1)^(2/3) (z-x)^(4/3) about z = 0 with the sign pattern (+,-,-,-,-):
    the stored table fixes Q_(-2) = 3^5 x^4.  Exact Fraction arithmetic.
    """
    x = F(x)
    ser = _normalized_d_series(F(2, 3), F(4, 3), x, 4)
    base = 243 * x**4
    for p in range(5):
        q_val = peval(N3_WARD_POLYNOMIALS[p - 2], x)
        ratio = F(ser[p]) / F(ser[0])
        want = base * (ratio if p == 0 else -ratio)
        if q_val != want:
            return False
    return True


# ---------------------------------------------------------------------------
# comparison baseline


def ceff_baseline(N: int, c_eff: Fraction = F(2, 5)):
    """The (disputed) effective-central-charge entropy curve.

    Returns (slope_coefficient, entropy_fn, trace_shape_fn) where

        S_N(s; L) = slope * log((L/pi) sin(pi s)) + const,
        slope = (c_eff / 6) (N + 1) / N,

    and trace_shape(s; L) = [(L/pi) sin(pi s)]^((1-N) * slope).
    """
    slope = float(c_eff) / 6 * (N + 1) / N

    def entropy(s, L, const=0.0):
        return slope * np.log((L / np.pi) * np.sin(np.pi * np.asarray(s))) + const

    def trace_shape(s, L):
        return ((L / np.pi) * np.sin(np.pi * np.asarray(s))) ** ((1 - N) * slope)

    return slope, entropy, trace_shape
