"""Solving the monodromy problem: connection matrices and block weights.

The physical correlator G(x, xbar) = sum_i X_i |I_i(x)|^2 must be
single-valued in both channels.  Matching the change of basis between the
Frobenius solutions about 0 and about 1 at x = 1/2 turns that requirement
into a linear nullspace problem for the weights X (and Y in the crossed
channel).
"""

from fractions import Fraction as F

import numpy as np

import cyclorb as cy

np.set_printoptions(precision=6, suppress=True)

print("One-interval excited-state model (third order):")
model = cy.get_model("yl1int_gs")
fit, bc, b0, b1 = cy.bootstrap(model)
print("connection matrix A (I_i = sum_j A_ij J_j):")
print(fit.A)
print(f"match residual {fit.residual:.2e}, condition {fit.condition:.1f}")
print("weights about 0 (exponent: X):")
for e, v in zip(model.block_exponents_0, bc.X):
    print(f"  {str(e):>5s}: {v:+.6f}")
print("weights about 1 (exponent: Y):")
for e, v in zip(model.block_exponents_1, bc.Y):
    print(f"  {str(e):>5s}: {v:+.6f}")

print()
print("The weights square to structure constants:")
t = cy.ope_table()
print(f"  X(9/10) = {bc.X[2]:.6f}  vs  C_desc^2 = "
      f"{t['C_tauphi_Phi_Lhalf_tauphi'].value.real**2:.6f}")
y2 = (t["C_Phi_Phi_Phi"].value * t["C_Phi_tauphi_tauphi"].value).real
print(f"  Y(2/5)  = {bc.Y[1]:.6f}  vs  C_PhiPhiPhi . C_Phi_tt = {y2:.6f}")

print()
print("Two-interval model: the weights come out in closed form,")
m2 = cy.get_model("yl2int_vac")
_, bc2, _, _ = cy.bootstrap(m2)
print(f"  X = {bc2.X}  (1 and 2^(16/5) = {2**3.2:.6f})")

print()
print("Ising two-interval: blocks are torus characters in disguise,")
mi = cy.get_model("ising2int_vac")
_, bci, _, _ = cy.bootstrap(mi)
print(f"  X = {bci.X}  (1, 1/2, 1/256)")

print()
print("Replica-3 model at g = 11/8: one channel is absent,")
m3 = cy.get_model("mm_n3_phi21", F(11, 8))
_, bc3, _, _ = cy.bootstrap(m3, M=260)
print("  Y =", bc3.Y, " (the fourth block vanishes identically)")
print("  integer-spaced pair carries a cross amplitude:", bc3.X_cross)
