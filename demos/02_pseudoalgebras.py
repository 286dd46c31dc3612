"""The Lie pseudoalgebras W(d) and Cur g, their axioms, and S(d, chi).

Shows pseudobrackets in normal form, the exact skew/Jacobi checkers, the
rank-one specialization recovering the Virasoro bracket, and the
divergence-free generators of the type-S subalgebra.
"""

from liepseudo import Hopf, ModuleVector, WAlgebra, cur_algebra_bracket, preset
from liepseudo.pseudoalg import check_jacobi, check_skew

print("== the rank-one bracket is the Virasoro *-bracket ==")
H1 = Hopf(preset("abelian1"))
w1 = WAlgebra(H1)
ell = w1.gen(0).scale(-1)
print("[l * l] =", w1.bracket(ell, ell))
print("         (the value (1 (x) d - d (x) 1) (x)_H l in left-normal form)")
print()

print("== exact axiom checks on every preset generator system ==")
for name in ("abelian2", "heis3", "sl2", "solv2"):
    H = Hopf(preset(name))
    walg = WAlgebra(H)
    gens = walg.gens()
    skew = check_skew(walg.bracket, gens)
    jac = check_jacobi(walg.bracket, gens)
    print(f"  {name:8s}: skew ok={skew.ok} ({skew.total} pairs), "
          f"jacobi ok={jac.ok} ({jac.total} triples)")
print()

print("== current algebras: Cur sl2 over a rank-two base ==")
H = Hopf(preset("abelian2"))
bracket = cur_algebra_bracket(H, preset("sl2"))
e = ModuleVector.unit(H, 3, 0)
f = ModuleVector.unit(H, 3, 2)
print("[(1(x)e) * (1(x)f)] =", bracket(e, f))
print()

print("== divergence and the generators of S(d, chi) ==")
H3 = Hopf(preset("heis3"))
walg = WAlgebra(H3)
chi = H3.lie.zero_trace_form()
for (a, b), s in walg.s_generators(chi):
    print(f"  s_{a+1}{b+1} = {s}")
    assert walg.div(s, chi).is_zero()
print("  all divergences vanish exactly")
