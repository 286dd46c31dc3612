import itertools

import pytest

from liepseudo.errors import DimensionTooSmall
from liepseudo.hopf import Hopf
from liepseudo.liecore import LieData, preset
from liepseudo.pseudoalg import (
    WAlgebra,
    WElement,
    check_jacobi,
    check_s_closure,
    check_skew,
    cur_algebra_bracket,
)
from liepseudo.twosided import PseudoValue, module_defect

from conftest import hopf_for


def test_virasoro_specialization():
    # with l = -(1 (x) d), [l * l] = (1 (x) d - d (x) 1) (x)_H l
    H = hopf_for("abelian1")
    walg = WAlgebra(H)
    ell = walg.gen(0).scale(-1)
    lhs = walg.bracket(ell, ell)
    one, d = H.one(), H.gen(0)
    rhs = PseudoValue.from_tensor(one, d, ell).add(PseudoValue.from_tensor(d, one, ell).neg())
    assert lhs.eq(rhs)


def test_w_bracket_abelian2_example():
    # [(1 (x) b1) * (1 (x) b2)] = (b2 (x) 1) (x)_H (1 (x) b1) - (1 (x) b1) (x)_H (1 (x) b2)
    H = hopf_for("abelian2")
    walg = WAlgebra(H)
    lhs = walg.bracket(walg.gen(0), walg.gen(1))
    rhs = PseudoValue.from_tensor(H.gen(1), H.one(), walg.gen(0)).add(
        PseudoValue.from_tensor(H.one(), H.gen(0), walg.gen(1)).neg()
    )
    assert lhs.eq(rhs)


def test_w_bracket_self_abelian():
    H = hopf_for("abelian2")
    walg = WAlgebra(H)
    a = walg.gen(0)
    lhs = walg.bracket(a, a)
    rhs = PseudoValue.from_tensor(H.gen(0), H.one(), a).add(
        PseudoValue.from_tensor(H.one(), H.gen(0), a).neg()
    )
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
    e = WElement.unit(H, 3, 0)
    f = WElement.unit(H, 3, 2)
    h = WElement.unit(H, 3, 1)
    val = bracket(e, f)
    assert val.eq(PseudoValue.from_tensor(H.one(), H.one(), h))
    assert bracket(e, e).is_zero()
    de = WElement.unit(H, 3, 0, H.gen(0))
    assert bracket(de, f).eq(PseudoValue.from_tensor(H.gen(0), H.one(), h))
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
            val = val.add(PseudoValue.from_tensor(H.one(), H.one(), walg.gen(0)))
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
    vectors = [H.one(), H.gen(0)]
    for a, b in itertools.product(walg.gens(), repeat=2):
        for v in vectors:
            defect = module_defect(a, b, v, walg.bracket, walg.action_on_h)
            assert defect.is_zero()


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
