import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from liepseudo import checks
from liepseudo._linalg import span_coords
from liepseudo.errors import DimensionMismatch, DimensionTooSmall
from liepseudo.hopf import Hopf, mi_below, mi_unit
from liepseudo.liecore import PRESET_NAMES, LieData, RepData, TraceForm, omega_rep, preset
from liepseudo.modules import tensor_module
from liepseudo.pseudoaction import ModuleSpec, ModuleVector
from liepseudo.pseudoalg import (
    WAlgebra,
    check_jacobi,
    check_s_closure,
    check_skew,
    cur_algebra_bracket,
    w_modules,
)
from liepseudo.twosided import PseudoValue, module_defect

from conftest import canonical, hopf_for, module_defect_by_terms


def test_virasoro_specialization():
    # with l = -(1 (x) d), [l * l] = (1 (x) d - d (x) 1) (x)_H l
    H = hopf_for("abelian1")
    walg = WAlgebra(H)
    ell = walg.gen(0).scale(-1)
    lhs = walg.bracket(ell, ell)
    one, d = H.one(), H.gen(0)
    rhs = PseudoValue.from_tensor(H, [(one, d, ell), (d, one, ell.scale(-1))])
    assert lhs.eq(rhs)


def test_w_bracket_abelian2_example():
    # [(1 (x) b1) * (1 (x) b2)] = (b2 (x) 1) (x)_H (1 (x) b1) - (1 (x) b1) (x)_H (1 (x) b2)
    H = hopf_for("abelian2")
    walg = WAlgebra(H)
    lhs = walg.bracket(walg.gen(0), walg.gen(1))
    b1, b2 = ModuleVector.unit(H, 2, 0), ModuleVector.unit(H, 2, 1)
    rhs = PseudoValue.from_tensor(H, [(H.gen(1), H.one(), b1), (H.one(), H.gen(0), b2.scale(-1))])
    assert lhs.eq(rhs)


def test_w_bracket_self_abelian():
    H = hopf_for("abelian2")
    walg = WAlgebra(H)
    a = walg.gen(0)
    lhs = walg.bracket(a, a)
    b1 = ModuleVector.unit(H, 2, 0)
    rhs = PseudoValue.from_tensor(H, [(H.gen(0), H.one(), b1), (H.one(), H.gen(0), b1.scale(-1))])
    assert lhs.eq(rhs)


def test_w_axioms_all_presets(any_preset):
    walg = WAlgebra(any_preset)
    gens = walg.gens()
    assert check_skew(walg.bracket, gens).ok
    assert check_jacobi(walg.bracket, gens).ok


def test_cur_sl2_bracket_and_axioms():
    H = hopf_for("abelian2")  # coefficient Hopf algebra independent of g
    g = preset("sl2")
    bracket = cur_algebra_bracket(H, g)
    e = ModuleVector.unit(H, 3, 0)
    f = ModuleVector.unit(H, 3, 2)
    h = ModuleVector.unit(H, 3, 1)
    val = bracket(e, f)
    assert val.eq(PseudoValue.from_tensor(H, [(H.one(), H.one(), h)]))
    assert bracket(e, e).is_zero()
    de = ModuleVector.unit(H, 3, 0, mi_unit(H.n, 0))
    assert bracket(de, f).eq(PseudoValue.from_tensor(H, [(H.gen(0), H.one(), h)]))
    gens = [e, h, f]
    assert check_skew(bracket, gens).ok
    assert check_jacobi(bracket, gens).ok


def test_corrupted_constants_fail_jacobi():
    # solv3-like table with an extra non-Jacobi bracket entered directly
    bad = LieData.from_entries(3, [(0, 1, 1, 1), (0, 2, 2, 1), (1, 2, 0, 1)])
    with pytest.raises(Exception):
        Hopf(bad)
    # bypass validation to exercise the defect report
    H = hopf_for("heis3")
    walg = WAlgebra(H)

    def corrupted(u, v):
        val = walg.bracket(u, v)
        # corrupt: add a non-H-bilinear junk term to one bracket
        if not u.comps[0].is_zero() and not v.comps[1].is_zero():
            junk = ModuleVector.unit(H, H.n, 0)
            val = val.add(PseudoValue.from_tensor(H, [(H.one(), H.one(), junk)]))
        return val

    assert not check_skew(corrupted, walg.gens()).ok or not check_jacobi(corrupted, walg.gens()).ok


def test_div_chi_examples():
    H = hopf_for("abelian1")
    walg = WAlgebra(H)
    chi0 = H.lie.zero_trace_form()
    assert walg.div(walg.gen(0), chi0) == H.gen(0)

    Hs = hopf_for("solv2")
    walg_s = WAlgebra(Hs)
    tr = Hs.lie.tr_ad()
    assert walg_s.div(walg_s.gen(0), tr) == Hs.gen(0) + Hs.one()


def test_s_generator_examples():
    H = hopf_for("abelian3")
    walg = WAlgebra(H)
    chi0 = H.lie.zero_trace_form()
    s12 = walg.s_generator(0, 1, chi0)
    assert s12.comps[1] == H.gen(0)
    assert s12.comps[0] == -H.gen(1)
    assert s12.comps[2].is_zero()
    assert walg.s_generator(0, 0, chi0).is_zero()

    Hh = hopf_for("heis3")
    walg_h = WAlgebra(Hh)
    s13 = walg_h.s_generator(0, 2, Hh.lie.zero_trace_form())
    assert s13.comps[2] == Hh.gen(0)
    assert s13.comps[0] == -Hh.gen(2)


def _s_generator_by_sums(H, a, b, chi):
    """The H coefficients of s_ab as sums of H elements, in the order of the
    formula: each h_k keeps the key order that adding gives it."""
    comps = [H.zero() for _ in range(H.n)]
    comps[b] = comps[b] + H.gen(a) + H.one().scale(chi(a))
    comps[a] = comps[a] - H.gen(b) - H.one().scale(chi(b))
    for k, c in H.lie.bracket(a, b).items():
        comps[k] = comps[k] - H.one().scale(c)
    return comps


@pytest.mark.parametrize("name,chi_kind", [("sl2", "zero"), ("solv3", "tr_ad"), ("abelian3", "1,2,3")])
def test_s_generator_key_order_per_component(name, chi_kind):
    # w_star reads each h_a of an actor in its key order, and the key order
    # of a value reaches the truncated basis of submodule_closure
    H = hopf_for(name)
    walg = WAlgebra(H)
    if chi_kind == "zero":
        chi = H.lie.zero_trace_form()
    elif chi_kind == "tr_ad":
        chi = H.lie.tr_ad()
    else:
        chi = TraceForm(H.lie, tuple(Fraction(c) for c in chi_kind.split(",")))
    assert chi_kind == "zero" or any(chi.values)
    for (a, b), s in walg.s_generators(chi):
        want = _s_generator_by_sums(H, a, b, chi)
        assert [list(h.coeffs.items()) for h in s.comps] == \
            [list(h.coeffs.items()) for h in want], (a, b)


def test_from_comps_inverts_comps():
    H = hopf_for("heis3")
    comps = [H.gen(1) + H.one().scale(2), H.zero(), H.gen(0) * H.gen(2)]
    v = ModuleVector.from_comps(H, comps)
    assert v.width == 3 and v.comps == tuple(comps)
    assert ModuleVector.from_comps(H, v.comps).eq(v)
    assert ModuleVector.from_comps(H, [H.zero()] * 2).is_zero()


def test_s_mode_needs_three_dimensions():
    walg = WAlgebra(hopf_for("solv2"))
    with pytest.raises(DimensionTooSmall):
        walg.s_generator(0, 1, walg.hopf.lie.zero_trace_form())


@pytest.mark.parametrize("name,chi_kind", [
    ("abelian3", "zero"),
    ("abelian3", "tr_ad"),
    ("heis3", "zero"),
    ("heis3", "tr_ad"),
    ("sl2", "zero"),
    ("sl2", "tr_ad"),
])
def test_div_of_s_generators_vanishes(name, chi_kind):
    H = hopf_for(name)
    walg = WAlgebra(H)
    chi = H.lie.zero_trace_form() if chi_kind == "zero" else H.lie.tr_ad()
    for (a, b), s in walg.s_generators(chi):
        assert walg.div(s, chi).is_zero(), (a, b)


def test_s_closure_divergence_free(any_preset2):
    H = any_preset2
    if H.n <= 2:
        return
    walg = WAlgebra(H)
    report = check_s_closure(walg, H.lie.zero_trace_form(), degree=2)
    assert report.ok, report.failures[:2]


def test_action_on_h_satisfies_module_axiom(any_preset):
    H = any_preset
    walg = WAlgebra(H)
    vectors = [ModuleVector.unit(H, 1, 0), ModuleVector.from_comps(H, [H.gen(0)])]
    for a, b in itertools.product(walg.gens(), repeat=2):
        for v in vectors:
            defect = module_defect(a, b, v, walg.bracket, walg.action_on_h)
            assert not defect


def test_skew_report_counts(any_preset):
    walg = WAlgebra(any_preset)
    rep = check_skew(walg.bracket, walg.gens())
    assert rep.total == walg.n ** 2
    assert rep.as_dict()["ok"]


def test_a_check_without_cases_fails():
    walg = WAlgebra(hopf_for("abelian2"))
    rep = check_skew(walg.bracket, [])
    assert rep.total == 0
    assert not rep.ok and not rep.as_dict()["ok"]
    assert rep.first_failure == "no cases"


# ---------------------------------------------------------------------------
# The explicit bracket formula as an oracle for the adjoint module
# ---------------------------------------------------------------------------

def _bracket_oracle(H, u, v):
    """[(f (x) a) * (g (x) b)] = (f (x) g) (x)_H (1 (x) [a,b])
    - (f (x) g a) (x)_H (1 (x) b) + (f b (x) g) (x)_H (1 (x) a), term by term."""
    out = PseudoValue.zero(H)
    unit = [ModuleVector.unit(H, H.n, k) for k in range(H.n)]
    for a, f in enumerate(u.comps):
        for b, g in enumerate(v.comps):
            if f.is_zero() or g.is_zero():
                continue
            for k, c in H.lie.bracket(a, b).items():
                out = out.add(PseudoValue.from_tensor(H, [(f, g, unit[k].scale(c))]))
            out = out.add(PseudoValue.from_tensor(H, [(f, g * H.gen(a), unit[b])]).neg())
            out = out.add(PseudoValue.from_tensor(H, [(f * H.gen(b), g, unit[a])]))
    return out


def _action_on_h_oracle(H, w, g):
    """(f (x) a) * g = -(f (x) g a) (x)_H 1 for g in H, term by term, on
    the width-1 carrier 1 = 1 (x) 1 of H = H (x) k."""
    out = PseudoValue.zero(H)
    one = ModuleVector.unit(H, 1, 0)
    for a, f in enumerate(w.comps):
        if not f.is_zero():
            out = out.add(PseudoValue.from_tensor(H, [(f, g * H.gen(a), one)]).neg())
    return out


def _coefficients(pv) -> dict:
    """The left normal form as {(I, J, k): c}: b^(I) in the normal-form slot
    and c b^(J) (x) u_k in the carrier."""
    return {(I, J, k): c for I, w in pv.to_left().terms.items()
            for J, row in w.terms.items() for k, c in enumerate(row) if c}


_SEMIDIRECT = Hopf(LieData.from_entries(
    3, [(0, 1, 1, Fraction(1, 2)), (0, 1, 2, Fraction(-2, 3)), (0, 2, 2, Fraction(3))],
    name="k|x k^2"))
_ORACLE_ALGEBRAS = [hopf_for(name) for name in PRESET_NAMES] + [_SEMIDIRECT]
_COEFFS = st.sampled_from([Fraction(c) for c in ("-2", "-1", "-1/2", "1/3", "2", "3/2")])


def _h_elements(H):
    """Elements of H of degree <= 2 with one to three terms."""
    return st.dictionaries(st.sampled_from(mi_below(H.n, 2)), _COEFFS,
                           min_size=1, max_size=3).map(H.element)


def _w_elements(H):
    return st.lists(_h_elements(H) | st.just(H.zero()), min_size=H.n,
                    max_size=H.n).map(lambda comps: ModuleVector.from_comps(H, comps))


# no shrinking: a failing example names its algebra and elements
@settings(max_examples=30, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from(_ORACLE_ALGEBRAS), st.data())
def test_bracket_matches_the_explicit_formula(H, data):
    walg = WAlgebra(H)
    u, v = data.draw(_w_elements(H)), data.draw(_w_elements(H))
    got = walg.bracket(u, v)
    assert all(isinstance(w, ModuleVector) and w.width == H.n for w in got.terms.values())
    assert _coefficients(got) == _coefficients(_bracket_oracle(H, u, v)), (H.lie.name, u, v)


@settings(max_examples=30, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from(_ORACLE_ALGEBRAS), st.data())
def test_action_on_h_matches_the_explicit_formula(H, data):
    walg = WAlgebra(H)
    w, g = data.draw(_w_elements(H)), data.draw(_h_elements(H))
    got = walg.action_on_h(w, ModuleVector.from_comps(H, [g]))
    assert all(isinstance(c, ModuleVector) and c.width == 1 for c in got.terms.values())
    assert _coefficients(got) == _coefficients(_action_on_h_oracle(H, w, g)), (H.lie.name, w, g)


def test_a_vector_of_the_wrong_width_is_refused():
    H = hopf_for("heis3")
    walg = WAlgebra(H)
    with pytest.raises(DimensionMismatch):
        walg.bracket(walg.gen(0), H.one())
    with pytest.raises(DimensionMismatch):
        walg.bracket(ModuleVector.zero(H, H.n), H.one())
    with pytest.raises(DimensionMismatch):
        walg.action_on_h(walg.gen(0), walg.gen(1))


# ---------------------------------------------------------------------------
# Negative controls: a corrupted table fails the W(d) checks
# ---------------------------------------------------------------------------

def _corrupted(V: ModuleSpec, i: int, k: int, K) -> ModuleSpec:
    """V with one coordinate of table[i][k] off by 1/2: the first one of the
    carrier beside b^(K) in left normal form, at b^(0)."""
    H = V.hopf
    val = V.table[i][k]
    bump = ModuleVector(H, V.dim, {(0,) * H.n: (Fraction(1, 2),) + (Fraction(0),) * (V.dim - 1)})
    bad = val.add(PseudoValue(H, val.orient, {K: bump}))
    table = [list(row) for row in V.table]
    table[i][k] = bad
    return ModuleSpec(H, V.dim, tuple(map(tuple, table)), name=V.name)


@pytest.mark.parametrize("name", ["abelian2", "heis3", "sl2"])
def test_a_corrupted_adjoint_table_fails_skew_and_jacobi(name):
    H = Hopf(preset(name))  # a fresh algebra: its W(d) memo is replaced below
    adjoint, _on_h = w_modules(H)
    H._w_modules_memo["W(d)"] = _corrupted(adjoint, 0, 1, (0,) * H.n)
    walg = WAlgebra(H)
    skew = check_skew(walg.bracket, walg.gens())
    jacobi = check_jacobi(walg.bracket, walg.gens())
    assert not skew.ok and skew.first_failure == "pair (1, 2)"
    assert not jacobi.ok and jacobi.first_failure == "triple (1, 1, 2)"


@pytest.mark.parametrize("name", ["abelian2", "heis3", "sl2"])
def test_a_corrupted_h_module_table_fails_the_module_axiom(name):
    H = Hopf(preset(name))
    _adjoint, on_h = w_modules(H)
    # at b^(0) the bump would be k_chi, a twist that is a module again where
    # chi kills [d, d]; beside b_2 (x) 1 it is not
    H._w_modules_memo["H"] = _corrupted(on_h, 1, 0, mi_unit(H.n, 1))
    report = checks.w_module_h(H, 4)
    assert not report.ok and report.first_failure == "pair (1, 2)"


# ---------------------------------------------------------------------------
# module_defect against the term-by-term reference
# ---------------------------------------------------------------------------

def _support(defect) -> list:
    """The (I, J) of a flat defect, as `CheckReport` records them."""
    return [[list(I), list(J)] for I, J in sorted({key[:2] for key in defect})]


def test_module_defect_matches_the_term_by_term_reference(any_preset):
    # the W(d) Jacobi triples and the module axiom of H and of T(k, Omega^1)
    H = any_preset
    walg = WAlgebra(H)
    gens = walg.gens()
    T = tensor_module(H, RepData.trivial(H.lie, 1, "d"), omega_rep(H.lie, 1))
    cases = [(a, b, c, walg.bracket, walg.bracket) for a, b, c in itertools.product(gens, repeat=3)]
    cases += [(a, b, ModuleVector.unit(H, 1, 0), walg.bracket, walg.action_on_h)
              for a, b in itertools.product(gens, repeat=2)]
    cases += [(a, b, T.unit(k), walg.bracket, T.w_star)
              for a, b in itertools.product(gens, repeat=2) for k in range(T.dim)]
    for case in cases:
        assert module_defect(*case) == module_defect_by_terms(*case) == {}


@pytest.mark.parametrize("name", ["abelian2", "heis3", "sl2"])
def test_corrupted_defects_match_the_reference_and_the_reported_support(name):
    H = Hopf(preset(name))
    adjoint, _on_h = w_modules(H)
    H._w_modules_memo["W(d)"] = _corrupted(adjoint, 0, 1, (0,) * H.n)
    walg = WAlgebra(H)
    gens = walg.gens()
    expected = []
    for (i, a), (j, b), (k, c) in itertools.product(enumerate(gens), repeat=3):
        got = module_defect(a, b, c, walg.bracket, walg.bracket)
        want = module_defect_by_terms(a, b, c, walg.bracket, walg.bracket)
        assert got == want and all(canonical(x) for x in got.values()), (i, j, k)
        if want:
            expected.append({"case": f"triple ({i+1}, {j+1}, {k+1})",
                             "defect_support": _support(want)})
    assert expected
    assert check_jacobi(walg.bracket, gens).failures == expected

    H = Hopf(preset(name))
    _adjoint, on_h = w_modules(H)
    H._w_modules_memo["H"] = _corrupted(on_h, 1, 0, mi_unit(H.n, 1))
    walg = WAlgebra(H)
    one = ModuleVector.unit(H, 1, 0)
    failing = 0
    for a, b in itertools.product(walg.gens(), repeat=2):
        got = module_defect(a, b, one, walg.bracket, walg.action_on_h)
        assert got == module_defect_by_terms(a, b, one, walg.bracket, walg.action_on_h)
        failing += bool(got)
    assert failing


def _skew_support_by_coefficients(a, b, bracket) -> list:
    """The I at which [b*a] + (sigma (x)_H id)[a*b] has a nonzero
    coefficient, from the summed coefficients (I, N, k) of the two
    left-normal values, sorted: the reference for the support `check_skew`
    records."""
    coeffs: dict = {}
    for value in (bracket(b, a), bracket(a, b).flip()):
        for I, w in value.to_left().terms.items():
            for N, row in w.terms.items():
                for k, x in enumerate(row):
                    coeffs[I, N, k] = coeffs.get((I, N, k), 0) + x
    return [[list(I)] for I in sorted({key[0] for key, x in coeffs.items() if x})]


@pytest.mark.parametrize("name", ["abelian2", "heis3", "sl2"])
@pytest.mark.parametrize("K", [(0, 0), (1, 2)], ids=["b0", "b12"])
def test_corrupted_skew_failures_match_the_reference_support(name, K):
    # beside b^(1,2,...) the defect meets b^(1,0,...) and b^(0,2,...), which
    # the order by (|I|, I) would swap
    H = Hopf(preset(name))
    adjoint, _on_h = w_modules(H)
    H._w_modules_memo["W(d)"] = _corrupted(adjoint, 0, 1, K + (0,) * (H.n - 2))
    walg = WAlgebra(H)
    gens = walg.gens()
    expected = []
    for (i, a), (j, b) in itertools.product(enumerate(gens), repeat=2):
        support = _skew_support_by_coefficients(a, b, walg.bracket)
        if support:
            expected.append({"case": f"pair ({i+1}, {j+1})", "defect_support": support})
    assert expected
    assert check_skew(walg.bracket, gens).failures == expected


_ENTRIES = st.sampled_from([Fraction(c) for c in ("0", "1", "-1", "2", "1/2", "-2/3")])


def _in_basis(lie: LieData, P) -> LieData | None:
    """lie in the basis b'_a = sum_j P[j][a] b_j; None if P is singular."""
    n = lie.dim
    columns = [{j: P[j][a] for j in range(n) if P[j][a]} for a in range(n)]
    # b_m = sum_l Q[m][l] b'_l: the coordinates of b_m in the columns of P
    Q = span_coords(columns, [{m: Fraction(1)} for m in range(n)])
    if None in Q:
        return None
    entries: dict = {}  # (a, b, l) -> the coefficient of b'_l in [b'_a, b'_b]
    for a, b in itertools.combinations(range(n), 2):
        for j, k in itertools.product(range(n), repeat=2):
            for m, c in lie.bracket(j, k).items():
                for l in range(n):
                    entries[a, b, l] = entries.get((a, b, l), 0) + P[j][a] * P[k][b] * c * Q[m][l]
    return LieData.from_entries(n, [(*key, c) for key, c in entries.items() if c],
                                name=f"{lie.name}'")


# no shrinking: a failing example names its algebra and matrix
@settings(max_examples=6, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from(["sl2", "heis3", "solv3"]),
       st.lists(st.lists(_ENTRIES, min_size=3, max_size=3), min_size=3, max_size=3))
@example("sl2", [[Fraction(1, 2), Fraction(1), Fraction(0)], [Fraction(0), Fraction(-2, 3), Fraction(1)],
                 [Fraction(1), Fraction(0), Fraction(2)]])
def test_checks_pass_after_a_rational_change_of_basis(name, P):
    lie = _in_basis(preset(name), P)
    assume(lie is not None)
    H = Hopf(lie)
    walg = WAlgebra(H)
    assert check_skew(walg.bracket, walg.gens()).ok, (name, P)
    assert check_jacobi(walg.bracket, walg.gens()).ok, (name, P)
    assert checks.w_module_h(H, 4).ok, (name, P)
