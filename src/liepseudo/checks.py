"""The paper's structural checks, shared by `liepseudo verify`, `liepseudo
derham` and the acceptance criteria.

Each check returns a `CheckReport` that counts its cases and labels every
failing one.  `verify_checks(n)` lists the verify checks for dim d = n in
report order, each called as check(hopf, trunc); `derham_checks(multipliers)`
lists the de Rham identities, each called as check(hopf, pi).
`twist_conjugation` checks the twisting functor on H (x) Pi.
"""

from __future__ import annotations

import itertools
import random

from .annih import AnnElement, ann_bracket, euler_element, gamma, gr_iso_gl, reconstruct_pseudoaction
from .derham import dw2_lhs_rhs, pseudo_d
from .dualx import XElement
from .hopf import HElement, Hopf, coproduct_power, mi_below, mi_deg, mi_zero
from .liecore import RepData, identity_matrix, mat_apply, omega_rep, wedge_basis
from .modules import ModuleVector, tensor_module, twist_vector
from .pseudoalg import CheckReport, WAlgebra, check_jacobi, check_skew
from .twosided import module_defect


def hopf_associativity(hopf: Hopf, trunc: int) -> CheckReport:
    """(ab)c = a(bc) on 15 seeded triples of PBW monomials of degree 1..4."""
    report = CheckReport("associativity")
    rng = random.Random(2)
    monos = [I for I in mi_below(hopf.n, 4) if mi_deg(I) > 0]
    for _ in range(15):
        triple = [rng.choice(monos) for _ in range(3)]
        a, b, c = (hopf.mono(I) for I in triple)
        report.case(f"triple {triple}", (a * b) * c == a * (b * c))
    return report


def hopf_antipode(hopf: Hopf, trunc: int) -> CheckReport:
    """Cocommutativity and S(h_(1)) h_(2) = eps(h) 1 on monomials of degree <= 4."""
    report = CheckReport("antipode axiom")
    for I in mi_below(hopf.n, 4):
        h = hopf.mono(I)
        cp = h.coproduct()
        acc = hopf.zero()
        for (J, K), c in cp.items():
            acc = acc + (HElement(hopf, hopf.antipode_mono(J)) * hopf.mono(K)).scale(c)
        report.case(f"monomial {I}", cp == {(K, J): c for (J, K), c in cp.items()}
                    and acc == hopf.one().scale(h.counit()))
    return report


def hopf_cou2(hopf: Hopf, trunc: int) -> CheckReport:
    """S(h_(1)) h_(2) (x) h_(3) = 1 (x) h on monomials of degree <= 4."""
    report = CheckReport("relation cou2")
    products = {}  # (A, B) -> S(b^(A)) b^(B), shared by the monomials
    for I in mi_below(hopf.n, 4):
        acc = {}
        for (A, B, C), c in coproduct_power(hopf.mono(I), 3).items():
            prod = products.get((A, B))
            if prod is None:
                s_a = HElement(hopf, hopf.antipode_mono(A))
                prod = products[A, B] = (s_a * hopf.mono(B)).coeffs
            for K, c2 in prod.items():
                acc[(K, C)] = acc.get((K, C), 0) + c * c2
        report.case(f"monomial {I}", {k: v for k, v in acc.items() if v}
                    == {(mi_zero(hopf.n), I): 1})
    return report


def dual_coordinate_actions(hopf: Hopf, trunc: int) -> CheckReport:
    """b_i . x^j and x^j . b_i to first order, from the structure constants."""
    report = CheckReport("coordinate actions")
    n = hopf.n
    for i, j in itertools.product(range(n), repeat=2):
        xj = XElement.coord(hopf, j, trunc)
        for side, ks, sign in (("left", range(i), -1), ("right", range(i + 1, n), 1)):
            expect = XElement.unit(hopf, trunc).scale(-1 if i == j else 0)
            for k in ks:
                c = hopf.lie.bracket(i, k).get(j)
                if c:
                    expect = expect + XElement.coord(hopf, k, trunc).scale(sign * c)
            got = xj.act_left(hopf.gen(i)) if side == "left" else xj.act_right(hopf.gen(i))
            report.case(f"b_{i+1} on x^{j+1}, {side}", got.eq_upto(expect, degree=1))
    return report


def _on_w_generators(check):
    """Run a pseudoalgebra axiom checker on W(d) and its generators."""

    def run(hopf: Hopf, trunc: int) -> CheckReport:
        walg = WAlgebra(hopf)
        return check(walg.bracket, walg.gens())

    return run


def w_module_h(hopf: Hopf, trunc: int) -> CheckReport:
    """The module axiom of the W(d)-module H at v = 1 on all generator pairs."""
    report = CheckReport("module axiom of H")
    walg = WAlgebra(hopf)
    for (a, u), (b, v) in itertools.product(enumerate(walg.gens()), repeat=2):
        defect = module_defect(u, v, ModuleVector.unit(hopf, 1, 0), walg.bracket, walg.action_on_h)
        report.case(f"pair ({a+1}, {b+1})", not defect)
    return report


def _s_divergence_free(chi_name: str):
    def run(hopf: Hopf, trunc: int) -> CheckReport:
        """Div^chi s_ab = 0 for every a < b."""
        report = CheckReport(f"divergence of s_ab, chi = {chi_name}")
        chi = hopf.lie.zero_trace_form() if chi_name == "zero" else hopf.lie.tr_ad()
        walg = WAlgebra(hopf)
        for (a, b), s in walg.s_generators(chi):
            report.case(f"s_{a+1}{b+1}", walg.div(s, chi).is_zero())
        return report

    return run


def _term(hopf: Hopf, trunc: int, j: int | None, a: int) -> AnnElement:
    """x^j (x) b_a in the annihilation algebra; 1 (x) b_a for j None."""
    x = XElement.unit(hopf, trunc) if j is None else XElement.coord(hopf, j, trunc)
    return AnnElement.term(hopf, x, a)


def ann_line1(hopf: Hopf, trunc: int) -> CheckReport:
    """[x^j (x) b_i, 1 (x) b_k] = -delta_jk 1 (x) b_i mod W_0."""
    report = CheckReport("bracket congruence mod W_0")
    for i, j, k in itertools.product(range(hopf.n), repeat=3):
        br = ann_bracket(_term(hopf, trunc, j, i), _term(hopf, trunc, None, k))
        expect = _term(hopf, trunc, None, i).scale(-1 if j == k else 0).truncate(br.validity)
        order = (br - expect).order()
        report.case(f"(i, j, k) = {(i + 1, j + 1, k + 1)}", order is None or order >= 0)
    return report


def ann_line2(hopf: Hopf, trunc: int) -> CheckReport:
    """[x^j (x) b_i, x^l (x) b_k] = delta_il x^j b_k - delta_jk x^l b_i mod W_1."""
    report = CheckReport("bracket congruence mod W_1")
    for i, j, k, l in itertools.product(range(hopf.n), repeat=4):
        br = ann_bracket(_term(hopf, trunc, j, i), _term(hopf, trunc, l, k))
        expect = AnnElement.zero(hopf, br.validity)
        if i == l:
            expect = expect.add(_term(hopf, trunc, j, k).truncate(br.validity))
        if j == k:
            expect = expect.add(_term(hopf, trunc, l, i).truncate(br.validity).scale(-1))
        order = (br - expect).order()
        report.case(f"(i, j, k, l) = {(i + 1, j + 1, k + 1, l + 1)}", order is None or order >= 1)
    return report


def ann_euler(hopf: Hopf, trunc: int) -> CheckReport:
    E = euler_element(hopf, trunc)
    return CheckReport.one_case("Euler element", gr_iso_gl(E) == identity_matrix(hopf.n))


def ann_gamma(hopf: Hopf, trunc: int) -> CheckReport:
    """gamma(b_l) + 1 (x) b_l lies in W_0 with gl(d) symbol ad b_l."""
    report = CheckReport("gamma symbols")
    ad = hopf.lie.adjoint()
    for l in range(hopf.n):
        g = gamma(hopf, l, trunc)
        shifted = g.add(_term(hopf, g.validity, None, l))
        order = shifted.order()
        if order is None:
            ok = all(v == 0 for row in ad.d_matrix(l) for v in row)
        else:
            ok = order >= 0 and gr_iso_gl(shifted) == ad.d_matrix(l)
        report.case(f"gamma(b_{l+1})", ok)
    return report


def ann_reconstruction(hopf: Hopf, trunc: int) -> CheckReport:
    """The pseudoaction on T(k, U) rebuilt from the annihilation action, for
    U trivial and Omega^1."""
    report = CheckReport("reconstruction round trip")
    lie, walg = hopf.lie, WAlgebra(hopf)
    for label, umod in (("trivial", RepData.trivial(lie, 1, "gl")), ("Omega^1", omega_rep(lie, 1))):
        T = tensor_module(hopf, RepData.trivial(lie, 1, "d"), umod)
        for a, k in itertools.product(range(hopf.n), range(T.dim)):
            got = reconstruct_pseudoaction(hopf, walg.gen(a), T.unit(k), T.action_pv, 3, trunc)
            report.case(f"U = {label}, b_{a+1} on e_{k+1}", got.eq(T.table[a][k]))
    return report


VERIFY = (
    ("hopf.associativity(sampled, deg<=4)", hopf_associativity),
    ("hopf.antipode-axiom(deg<=4)", hopf_antipode),
    ("hopf.relation-cou2(deg<=4)", hopf_cou2),
    ("dual.coordinate-actions", dual_coordinate_actions),
    ("w.skew-symmetry", _on_w_generators(check_skew)),
    ("w.jacobi", _on_w_generators(check_jacobi)),
    ("w.module-H-axiom", w_module_h),
    ("s.divergence-free[chi=zero]", _s_divergence_free("zero")),
    ("s.divergence-free[chi=tr_ad]", _s_divergence_free("tr_ad")),
    ("ann.lwbra-line1", ann_line1),
    ("ann.lwbra-line2", ann_line2),
    ("ann.euler-symbol-is-identity", ann_euler),
    ("ann.gamma-symbol-is-adjoint", ann_gamma),
    ("ann.reconstruction-round-trip", ann_reconstruction),
)


def verify_checks(n: int) -> list:
    """The (name, check) pairs of `verify` for dim d = n, in report order;
    S(d, chi) needs n >= 3."""
    return [(name, check) for name, check in VERIFY if n >= 3 or not name.startswith("s.")]


def d_squared_zero(hopf: Hopf, pi: RepData | None, multipliers) -> CheckReport:
    """d(d(h (x) e_k)) = 0 for each multiplier h and generator e_k of the
    (pi-twisted) forms of each degree n < dim d - 1."""
    report = CheckReport("d^2 = 0")
    for n in range(hopf.n - 1):
        width = (pi.dim if pi is not None else 1) * len(wedge_basis(hopf.n, n))
        for h, k in itertools.product(multipliers, range(width)):
            v = ModuleVector.unit(hopf, width, k).hmul(h)
            dd = pseudo_d(hopf, n + 1, pseudo_d(hopf, n, v, pi), pi)
            report.case(f"degree {n}, h = {h!r}, e_{k+1}", dd.is_zero())
    return report


def contracted_differential(hopf: Hopf, pi: RepData | None) -> CheckReport:
    """Both sides of `derham.dw2_lhs_rhs` agree for every i and wedge x^S."""
    report = CheckReport("contracted differential")
    for n in range(1, hopf.n + 1):
        for S, i in itertools.product(wedge_basis(hopf.n, n), range(hopf.n)):
            for g, (lhs, rhs) in enumerate(dw2_lhs_rhs(hopf, i, S, pi)):
                report.case(f"i = {i+1}, x^{S}, generator {g+1} of Pi", lhs.eq(rhs))
    return report


def derham_checks(multipliers) -> list:
    """The (name, check) pairs of `derham`; d^2 = 0 runs on the generators
    times each of `multipliers`."""
    return [("d-squared-zero", lambda hopf, pi: d_squared_zero(hopf, pi, multipliers)),
            ("contracted-differential-identity", contracted_differential)]


def twist_conjugation(hopf: Hopf, pi: RepData, p_max: int = 3) -> CheckReport:
    """T_Pi(h (x) u) = h_(1) (x) h_(-2) u conjugates the plain d-action
    a.(h (x) u) = -ha (x) u to the twisted one -ha (x) u + h (x) au, on
    b^(I) (x) u_p for |I| <= p_max."""
    report = CheckReport("twist conjugation")

    def plain(v: ModuleVector, a: int) -> ModuleVector:
        out = ModuleVector.zero(hopf, v.width)
        for J, row in v.terms.items():
            for K, c in (hopf.mono(J) * hopf.gen(a)).coeffs.items():
                out = out + ModuleVector(hopf, v.width, {K: tuple(-c * x for x in row)})
        return out

    for I, p, a in itertools.product(mi_below(hopf.n, p_max), range(pi.dim), range(hopf.n)):
        u = ModuleVector.unit(hopf, 1, 0, I)
        image = twist_vector(pi, u, p)
        twisted = plain(image, a) + ModuleVector(
            hopf, pi.dim, {J: mat_apply(pi.d_matrix(a), row) for J, row in image.terms.items()})
        report.case(f"I = {I}, p = {p+1}, b_{a+1}",
                    twist_vector(pi, plain(u, a), p).eq(twisted))
    return report
