"""Frobenius series and Riemann schemes for the correlator catalog.

Every twist-field correlator in the catalog obeys a Fuchsian ODE with
regular singular points at x = 0, 1, infinity.  This script prints the
local exponents at all three points for each model and expands a few
series solutions, exactly where the input is rational.
"""

from fractions import Fraction as F

import cyclorb as cy

print("Riemann schemes (exponents at 0 | 1 | infinity)")
print("=" * 60)
for mid, g in [("yl2int_vac", None), ("yl1int_vac", None), ("yl1int_gs", None),
               ("ising2int_vac", None), ("mm_n2_phi21", F(7, 5)),
               ("mm_n3_phi21", F(11, 8))]:
    model = cy.get_model(mid, g)
    cols = [" ".join(str(e) for e in col) for col in model.scheme.columns()]
    tag = f"{mid}" + (f" (g={g})" if g else "")
    print(f"{tag:24s} {cols[0]}  |  {cols[1]}  |  {cols[2]}")
    assert cy.validate_scheme(model)

print()
print("Exact series for the exponent-1/2 block of the ground-state model:")
model = cy.get_model("yl1int_gs")
s = cy.frobenius_series(model.ode, F(1, 2), 8)
for n, a in enumerate(s.exact_coeffs[:6]):
    print(f"  a_{n} = {a}")

print()
print("A resonance with a vanishing numerator (free coefficient set to 0):")
ising = cy.get_model("ising2int_vac")
s = cy.frobenius_series(ising.ode, F(-1, 16), 10)
print(f"  exponent -1/16, resonant orders {s.resonant_orders}, "
      f"a_1 = {s.exact_coeffs[1]}")

print()
print("Series evaluation against the hypergeometric closed form:")
a, b, c = F(7, 10), F(11, 10), F(7, 5)
hyp = cy.theta_form([[a * b], [-c, a + b + 1], [F(0), F(-1), F(1)]])
s = cy.frobenius_series(hyp, F(0), 150)
x = 0.37
print(f"  series: {cy.evaluate(cy.FrobeniusBasis(s.center, (s,)), x)[0]:.15f}")
print(f"  2F1   : {cy.hyp2f1(cy.HypParams(0.7, 1.1, 1.4), x).real:.15f}")
