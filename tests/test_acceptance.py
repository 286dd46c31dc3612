"""Acceptance suite: the ten exact criteria the kernel must satisfy.

Every check is exact rational arithmetic (tolerance zero).  Each criterion
prints one pass/fail line; run with `pytest tests/test_acceptance.py -v -s`
to see them as they complete.
"""

import itertools
import json
import random
import re
from fractions import Fraction
from math import comb

import pytest

from liepseudo import checks
from liepseudo.annih import AnnElement, ann_bracket, euler_element, gr_iso_gl
from liepseudo.cli import main
from liepseudo.dualx import XElement
from liepseudo.derham import d_images, exactness_report
from liepseudo.hopf import coproduct_power, mi_below, mi_deg, mi_splits, mi_zero
from liepseudo.liecore import (
    RepData,
    TraceForm,
    mat,
    mat_comm,
    omega_rep,
    preset,
    sym2_dual_rep,
)
from liepseudo.modules import (
    sing_blocks_by_id_symbol,
    sing_in_subspace,
    sing_solve,
    sing_solve_oracle,
    solve_intertwiner,
    submodule_closure,
    tensor_module,
)
from liepseudo.pseudoaction import ModuleVector
from liepseudo.pseudoalg import (
    CheckReport,
    WAlgebra,
    check_jacobi,
    check_s_closure,
    check_skew,
    cur_algebra_bracket,
)
from liepseudo.twosided import PseudoValue

from conftest import hopf_for

D = 6
HOPF_PRESETS = ["abelian1", "abelian2", "abelian3", "heis3", "sl2", "solv2"]

_results = []


def conclude(number: int, title: str, ok: bool, failure=None):
    line = f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {title}"
    _results.append(line)
    print(line)
    assert ok, line if failure is None else f"{line}: first failure {failure}"


def conclude_checks(number: int, title: str, reports):
    """Conclude from (check name, CheckReport) pairs, naming the first
    failing (check, case) pair."""
    failure = next(((name, r.first_failure) for name, r in reports if not r.ok), None)
    conclude(number, title, failure is None, failure)


def registry_checks(H, prefix: str):
    """The `liepseudo verify` checks named prefix* on H at truncation D."""
    return [(f"{H.lie.name} {name}", check(H, D))
            for name, check in checks.verify_checks(H.n) if name.startswith(prefix)]


def trivial_pi(H, m=1):
    return RepData.trivial(H.lie, m, "d")


def trivial_u(H, m=1):
    return RepData.trivial(H.lie, m, "gl")


def dim2_pi(H):
    """A two-dimensional d-module for each preset family."""
    name = H.lie.name
    z = mat([[0, 0], [0, 0]])
    if name.startswith("abelian"):
        return RepData.d_rep(H.lie, tuple([mat([[0, 1], [0, 0]])] + [z] * (H.n - 1)))
    if name == "solv2":
        return RepData.d_rep(H.lie, (mat([[1, 0], [0, 0]]), mat([[0, 1], [0, 0]])))
    if name == "heis3":
        return RepData.d_rep(H.lie, (mat([[0, 1], [0, 0]]), z, z))
    if name == "sl2":
        # the natural representation in the (e, h, f) basis
        return RepData.d_rep(H.lie, (mat([[0, 1], [0, 0]]),
                                     mat([[1, 0], [0, -1]]),
                                     mat([[0, 0], [1, 0]])))
    raise ValueError(name)


def test_criterion_01_hopf_suite():
    """Associativity, coassociativity, the coproduct homomorphism law, the
    antipode axiom and the h_(-1)h_(2)(x)h_(3) = 1(x)h relation, exactly on
    PBW monomials of degree <= 4 for every preset.  The `hopf.` checks of
    `liepseudo verify` cover associativity, cocommutativity, the first
    antipode contraction and (cou2)."""
    reports = []
    for name in HOPF_PRESETS:
        H = hopf_for(name)
        n = H.n
        reports += registry_checks(H, "hopf.")
        coassoc = CheckReport("coassociativity")
        antipode2 = CheckReport("antipode axiom, second contraction")
        for I in mi_below(n, 4):
            h = H.mono(I)
            cp = h.coproduct()
            lhs = {}
            for (J, K), c in cp.items():
                for A, B in mi_splits(J):
                    lhs[(A, B, K)] = lhs.get((A, B, K), 0) + c
            lhs = {k: v for k, v in lhs.items() if v}
            coassoc.case(f"monomial {I}", lhs == coproduct_power(h, 3))
            acc = H.zero()
            for (J, K), c in cp.items():
                acc = acc + (H.mono(J) * H.element(H.antipode_mono(K))).scale(c)
            antipode2.case(f"monomial {I}", acc == H.one().scale(h.counit()))
        # homomorphism law on all pairs of monomials of degree <= 2 and a
        # seeded sample of degree <= 4 pairs
        hom = CheckReport("homomorphism law")
        rng = random.Random(1)
        low = mi_below(n, 2)
        pairs = list(itertools.product(low, low))
        pool = [I for I in mi_below(n, 4) if mi_deg(I) > 2]
        pairs += [(rng.choice(pool), rng.choice(pool)) for _ in range(10)] if pool else []
        for I, J in pairs:
            f, g = H.mono(I), H.mono(J)
            rhs = {}
            for (A, B), c in f.coproduct().items():
                for (C, E), e in g.coproduct().items():
                    for K1, c1 in (H.mono(A) * H.mono(C)).coeffs.items():
                        for K2, c2 in (H.mono(B) * H.mono(E)).coeffs.items():
                            key = (K1, K2)
                            v = rhs.get(key, 0) + c * e * c1 * c2
                            if v:
                                rhs[key] = v
                            else:
                                rhs.pop(key, None)
            hom.case(f"pair {I}, {J}", (f * g).coproduct() == rhs)
        reports += [(f"{name} {r.name}", r) for r in (coassoc, antipode2, hom)]
    conclude_checks(1, "Hopf suite on all presets", reports)


def test_criterion_02_dual_suite():
    """Both coordinate-action congruences (the `dual.` checks of
    `liepseudo verify`), the Leibniz law and the bimodule law, within
    validity at truncation 6, on every preset."""
    reports = []
    for name in HOPF_PRESETS:
        H = hopf_for(name)
        n = H.n
        reports += registry_checks(H, "dual.")
        laws = CheckReport("Leibniz and bimodule laws")
        rng = random.Random(3)
        monos = mi_below(n, 2)
        hs = [H.gen(0), H.gen(n - 1) * H.gen(0), H.mono(monos[-1])]
        for h in hs:
            for _ in range(4):
                x = XElement.mono(H, rng.choice(monos), rng.randint(1, 3), D)
                y = XElement.mono(H, rng.choice(monos), rng.randint(1, 3), D)
                lhs = (x * y).act_left(h)
                rhs = None
                for (J, K), c in h.coproduct().items():
                    term = (x.act_left(H.mono(J)) * y.act_left(H.mono(K))).scale(c)
                    rhs = term if rhs is None else rhs + term
                laws.case(f"Leibniz, h = {h!r}, x = {x!r}, y = {y!r}", lhs.eq_upto(rhs))
                bl = x.act_right(H.gen(n - 1)).act_left(H.gen(0))
                br = x.act_left(H.gen(0)).act_right(H.gen(n - 1))
                laws.case(f"bimodule, x = {x!r}", bl.eq_upto(br))
        reports.append((f"{name} {laws.name}", laws))
    conclude_checks(2, "dual-space suite at truncation 6", reports)


def test_criterion_03_pseudoalgebra_axioms():
    """Skew-symmetry and Jacobi defects vanish for W(d) on every preset and
    for Cur sl2, and H is a W(d)-module (the `w.` checks of `liepseudo
    verify`); the rank-one specialization reproduces the Virasoro bracket."""
    reports = []
    for name in HOPF_PRESETS:
        reports += registry_checks(hopf_for(name), "w.")
    H = hopf_for("abelian2")
    bracket = cur_algebra_bracket(H, preset("sl2"))
    cur_gens = [ModuleVector.unit(H, 3, a) for a in range(3)]
    reports.append(("Cur sl2 skew-symmetry", check_skew(bracket, cur_gens)))
    reports.append(("Cur sl2 Jacobi", check_jacobi(bracket, cur_gens)))
    H1 = hopf_for("abelian1")
    walg1 = WAlgebra(H1)
    ell = walg1.gen(0).scale(-1)
    virasoro = PseudoValue.from_tensor(H1, [(H1.one(), H1.gen(0), ell)]).add(
        PseudoValue.from_tensor(H1, [(H1.gen(0), H1.one(), ell)]).neg()
    )
    reports.append(("Virasoro", CheckReport.one_case("[ell * ell]",
                                                     walg1.bracket(ell, ell).eq(virasoro))))
    conclude_checks(3, "pseudoalgebra axioms for W(d) and Cur sl2 + Virasoro", reports)


def test_criterion_04_s_divergence():
    """Div^chi kills every s_ab for chi in {0, tr ad} on the dimension-3
    presets (the `s.` checks of `liepseudo verify`), and brackets of
    H-multiples of the s_ab have divergence-free normal-form components."""
    reports = []
    for name in ("abelian3", "heis3", "sl2"):
        H = hopf_for(name)
        reports += registry_checks(H, "s.")
        walg = WAlgebra(H)
        for label, chi in (("zero", H.lie.zero_trace_form()), ("tr_ad", H.lie.tr_ad())):
            reports.append((f"{name} S closure, chi = {label}",
                            check_s_closure(walg, chi, degree=2)))
    conclude_checks(4, "S(d,chi) divergence and closure", reports)


def test_criterion_05_annihilation_suite():
    """Bracket congruences mod W_0 and W_1, the Euler element's identity
    symbol, the gamma symbols and the pseudoaction reconstruction round-trip
    (the `ann.` checks of `liepseudo verify`), plus the gl(d) symbol
    homomorphism and the abelian Euler element."""
    reports = []
    for name in HOPF_PRESETS:
        H = hopf_for(name)
        n = H.n
        reports += registry_checks(H, "ann.")

        def coordel(j, a):
            return AnnElement.term(H, XElement.coord(H, j, D), a)

        symbol = CheckReport("symbol homomorphism on degree-0 parts")
        for i, j, k, l in itertools.product(range(n), repeat=4):
            br = ann_bracket(coordel(j, i), coordel(l, k))
            left = gr_iso_gl(br.drop_below_order(0))
            right = mat_comm(gr_iso_gl(coordel(j, i)), gr_iso_gl(coordel(l, k)))
            symbol.case(f"(i, j, k, l) = {(i + 1, j + 1, k + 1, l + 1)}", left == right)
        reports.append((f"{name} {symbol.name}", symbol))
        if name.startswith("abelian"):
            E = euler_element(H, D)
            expect = AnnElement(
                H, tuple(XElement.coord(H, a, E.validity).scale(-1) for a in range(n))
            )
            reports.append((f"{name} abelian Euler element",
                            CheckReport.one_case("E = -sum x^i (x) b_i", E.eq_upto(expect))))
    conclude_checks(5, "annihilation algebra suite", reports)


def test_criterion_06_derham_suite():
    """d^2 = 0 through filtration degree 5 and the contracted-differential
    identities (the checks of `liepseudo derham`), filtration-local middle
    exactness for p <= 4 and top-degree cokernel of dimension dim Pi,
    untwisted and twisted; the twisting functor conjugates the plain action
    to the twisted one on every twisted Pi (|I| <= 3)."""
    reports = []
    for name in ("abelian2", "abelian3", "solv2", "heis3"):
        H = hopf_for(name)
        pis = [None, dim2_pi(H)]
        if name == "solv2":
            pis.append(RepData.line(TraceForm(H.lie, (Fraction(1), Fraction(0)))))
        # d^2 = 0 on generators times monomials of degree <= 4
        registry = checks.derham_checks([H.mono(I) for I in mi_below(H.n, 4)])
        for m, pi in enumerate(pis):
            reports += [(f"{name} pi #{m} {check_name}", check(H, pi))
                        for check_name, check in registry]
            rep = exactness_report(H, pi, 4)
            reports.append((f"{name} pi #{m} exactness",
                            CheckReport.one_case("exactness report", rep["ok"])))
            if pi is not None:
                reports.append((f"{name} pi #{m} twist conjugation",
                                checks.twist_conjugation(H, pi, 3)))
    conclude_checks(6, "pseudo de Rham suite (exactness at p <= 4, dim Pi in {1,2})", reports)


def test_a_failing_case_is_named_by_verify_and_by_its_criterion(monkeypatch, capsys):
    """Break relation (cou2) at b^(1) on abelian1 only: `liepseudo verify`
    exits 1 naming that case, and criterion 01 fails naming the same pair."""
    real = checks.coproduct_power

    def broken(h, slots):
        out = dict(real(h, slots))
        if set(h.coeffs) == {(1,)}:
            key = ((0,),) * (slots - 1) + ((1,),)
            out[key] = out.get(key, 0) + 1
        return out

    monkeypatch.setattr(checks, "coproduct_power", broken)
    assert main(["verify", "--alg", "abelian1", "--trunc", "4", "--json"]) == 1
    failing = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["ok"]]
    assert failing == [{"check": "hopf.relation-cou2(deg<=4)", "ok": False,
                        "detail": {"first_failure": "monomial (1,)"}}]
    pair = "('abelian1 hopf.relation-cou2(deg<=4)', 'monomial (1,)')"
    with pytest.raises(AssertionError, match=re.escape(f"first failure {pair}")):
        test_criterion_01_hopf_suite()
    _results.pop()  # the FAIL line of the deliberately broken run


def test_criterion_07_singular_w():
    """sing T(Pi,k) is the ground level of dimension dim Pi; for the wedge
    modules the solver dimension is C(N,n) + C(N,n-1), cross-checked against
    the annihilation-action nullspace; a non-wedge module (symmetric square)
    has only ground-level singular vectors."""
    ok = True
    for name in ("abelian2", "abelian3", "heis3", "sl2", "solv2"):
        H = hopf_for(name)
        for pim in (trivial_pi(H), dim2_pi(H)):
            T = tensor_module(H, pim, trivial_u(H))
            res = sing_solve(T, 2, "W")
            ok = ok and res.dim == pim.dim and res.degree_profile() == {0: pim.dim}
    for name in ("abelian2", "abelian3", "heis3", "sl2", "solv2"):
        H = hopf_for(name)
        N = H.n
        for n in range(1, N + 1):
            T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, n))
            res = sing_solve(T, 2, "W")
            expect = comb(N, n) + comb(N, n - 1)
            ok = ok and res.dim == expect and res.ok
            oracle = sing_solve_oracle(T, 2, "W")
            ok = ok and oracle.dim == expect
    H = hopf_for("abelian2")
    T = tensor_module(H, trivial_pi(H), sym2_dual_rep(H.lie))
    res = sing_solve(T, 2, "W")
    ok = ok and res.dim == 3 and res.degree_profile() == {0: 3}
    conclude(7, "W-side singular vectors with brute-force cross-check", ok)


def test_criterion_08_singular_s():
    """S-side singular vectors at chi = 0 on the dimension-3 nilpotent
    presets: dimension 6 for the degree-2 wedge, 7 for the degree-1 wedge
    (with its depth-2 block), 4 for the scalar module; cross-checked."""
    ok = True
    for name in ("abelian3", "heis3"):
        H = hopf_for(name)
        chi0 = H.lie.zero_trace_form()
        T2 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 2))
        r2 = sing_solve(T2, 3, "S", chi0)
        ok = ok and r2.dim == 6 and r2.ok
        ok = ok and sing_solve_oracle(T2, 2, "S", chi0).dim == 6
        T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
        r1 = sing_solve(T1, 3, "S", chi0)
        ok = ok and r1.dim == 7 and r1.ok and r1.degree_profile().get(2) == 3
        ok = ok and sing_solve_oracle(T1, 2, "S", chi0).dim == 7
        T0 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 0))
        r0 = sing_solve(T0, 3, "S", chi0)
        ok = ok and r0.dim == 4 and r0.degree_profile() == {0: 1, 1: 3}
    conclude(8, "S-side singular vectors (6 / 7 / ground block)", ok)


def test_criterion_09_submodule_structure():
    """The differential image is a proper nontrivial submodule whose singular
    vectors are exactly the image of the ground level; seeds from the solver
    generate a unique submodule in middle degrees; the S-side degree-1 module
    has two nested submodules."""
    ok = True
    cases = [("abelian2", 1), ("abelian3", 1), ("abelian3", 2), ("heis3", 1), ("sl2", 2)]
    for name, n in cases:
        H = hopf_for(name)
        N = H.n
        T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, n))
        imgs = d_images(H, n - 1)
        gens = [img for img in imgs]
        bound = 3
        clo_d = submodule_closure(T, gens, bound)
        total = len(T.basis_upto(bound))
        ok = ok and 0 < clo_d.dim < total
        sing_m = sing_in_subspace(T, clo_d.basis, "W")
        ok = ok and len(sing_m) == comb(N, n - 1)
        res = sing_solve(T, 2, "W")
        blocks = sing_blocks_by_id_symbol(T, res.basis)
        block = blocks[max(blocks)]
        ok = ok and len(block) == comb(N, n - 1)
        seeds = [[v] for v in block] + [block]
        if len(block) >= 2:
            seeds.append([block[0] + block[1].scale(Fraction(2, 3))])
        closures = [submodule_closure(T, s, bound) for s in seeds]
        ok = ok and all(c.same_space(clo_d) for c in closures)
    H = hopf_for("abelian3")
    chi0 = H.lie.zero_trace_form()
    T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    res = sing_solve(T1, 3, "S", chi0)
    big = [v for v in res.basis if v.degree() >= 1]
    small = [v for v in res.basis if v.degree() >= 2]
    M1 = submodule_closure(T1, big, 3, "S", chi0)
    M2 = submodule_closure(T1, small, 3, "S", chi0)
    ok = ok and 0 < M2.dim < M1.dim
    ok = ok and all(M1.contains(v) for v in M2.basis)
    total = len(T1.basis_upto(3))
    ok = ok and M1.dim < total
    conclude(9, "submodule lattice of the wedge tensor modules", ok)


def test_criterion_10_intertwiners():
    """The homomorphism space from the scalar module to the degree-1 wedge
    module is one-dimensional and spanned by the differential; the S-side
    equivalence between top and bottom wedge modules exists and is
    invertible on generators."""
    ok = True
    H = hopf_for("abelian2")
    T0 = tensor_module(H, trivial_pi(H), trivial_u(H))
    T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    sols = solve_intertwiner(T0, T1, 2, "W")
    ok = ok and len(sols) == 1
    if sols:
        img = sols[0][0]
        dref = d_images(H, 0)[0]
        ratio = None
        for I, coords in dref.terms.items():
            for k, c in enumerate(coords):
                if c:
                    ratio = Fraction(img.coefficient(I)[k], c)
        ok = ok and ratio is not None and ratio != 0 and img.eq(dref.scale(ratio))
    H3 = hopf_for("abelian3")
    chi0 = H3.lie.zero_trace_form()
    TN = tensor_module(H3, trivial_pi(H3), omega_rep(H3.lie, 3))
    T0s = tensor_module(H3, trivial_pi(H3), omega_rep(H3.lie, 0))
    sols = solve_intertwiner(TN, T0s, 2, "S", chi0)
    good = [s for s in sols if s[0].coefficient(mi_zero(3))[0] != 0]
    ok = ok and len(sols) >= 1 and bool(good)
    conclude(10, "intertwiner spaces (de Rham map and the S-side equivalence)", ok)


@pytest.fixture(scope="module", autouse=True)
def _print_summary():
    yield
    if _results:
        print("\n==== acceptance summary ====")
        for line in _results:
            print(line)
