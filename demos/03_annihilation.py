"""Annihilation algebras at finite truncation.

Brackets in W = X (x) d, the filtration and its degree-zero gl(d) symbols,
the Euler element, the inner-derivation map gamma, and the reconstruction of
a pseudoaction from the annihilation action.
"""

from liepseudo import Hopf, WAlgebra, XElement, euler_element, gamma, gr_iso_gl, preset
from liepseudo.annih import AnnElement, ann_bracket, d_act, reconstruct_pseudoaction
from liepseudo.liecore import RepData, omega_rep
from liepseudo.modules import tensor_module

D = 6


def show(m):
    """A matrix of Fractions as rows of plain numbers."""
    return "[" + ", ".join("[" + ", ".join(map(str, row)) + "]" for row in m) + "]"


H = Hopf(preset("solv2"))   # [b1, b2] = b2

print("== brackets lower or keep the filtration ==")
A = AnnElement.term(H, XElement.coord(H, 0, D), 0)   # x^1 (x) b_1
B = AnnElement.term(H, XElement.unit(H, D), 1)       # 1 (x) b_2
print("[x^1 (x) b_1, 1 (x) b_2] =", ann_bracket(A, B))
print()

print("== degree-zero symbols are gl(d) matrices: x^j (x) b_i -> -e_i^j ==")
print("symbol of x^1 (x) b_1:", show(gr_iso_gl(A)))
print()

print("== the Euler element: symbol Id, eigenvalue -|I| on coordinates ==")
E = euler_element(H, D)
print("E =", E)
print("symbol:", show(gr_iso_gl(E)))
print()

print("== gamma realizes the d-derivations as inner ==")
for l in range(2):
    g = gamma(H, l, D)
    shifted = g.add(AnnElement.term(H, XElement.unit(H, g.validity), l))
    cls = None if shifted.order() is None else show(gr_iso_gl(shifted))
    print(f"gamma(b_{l+1}) = {g}")
    print(f"   gamma(b_{l+1}) + 1 (x) b_{l+1} has symbol {cls} (= ad b_{l+1})")
print()

print("== a pseudoaction reconstructs from its annihilation action ==")
walg = WAlgebra(H)
T = tensor_module(H, RepData.trivial(H.lie, 1, "d"), omega_rep(H.lie, 1))
got = reconstruct_pseudoaction(H, walg.gen(0), T.unit(0), T.action_pv, 3, D)
print("stored table value :", T.table[0][0])
print("reconstructed value:", got)
print("equal:", got.eq(T.table[0][0]))
