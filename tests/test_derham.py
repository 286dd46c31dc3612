import itertools
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest

from liepseudo import checks, cli, derham, modules
from liepseudo.cli import load_algebra
from liepseudo.derham import (
    _contraction,
    _d0_columns,
    classify_report,
    d_images,
    dw2_lhs_rhs,
    exactness_report,
    filtration_ranks,
    pseudo_d,
    sing_fingerprint,
)
from liepseudo._linalg import RowReducer
from liepseudo.hopf import Hopf, mi_below
from liepseudo.liecore import (
    LieData,
    RepData,
    TraceForm,
    mat,
    omega_rep,
    preset,
    sym2_dual_rep,
    wedge_basis,
)
from liepseudo.modules import (
    PAPER_BOUND,
    ModuleVector,
    sing_blocks_by_id_symbol,
    sing_in_subspace,
    sing_solve,
    solve_intertwiner,
    submodule_closure,
    tensor_module,
)
from liepseudo.pseudoalg import WAlgebra
from liepseudo.twosided import LEFT, PseudoValue

from conftest import count_kernel_runs, hopf_for, submodule_closure_by_pushes

GOLDEN = Path(__file__).resolve().parent / "golden"


def trivial_pi(H, m=1):
    return RepData.trivial(H.lie, m, "d")


def pi_for(H):
    """A nontrivial d-module for twist tests, matched to the preset."""
    name = H.lie.name
    if name == "solv2":
        return RepData.line(TraceForm(H.lie, (Fraction(1), Fraction(0))))
    if name == "heis3":
        return RepData.d_rep(H.lie, (mat([[0, 1], [0, 0]]), mat([[0, 0], [0, 0]]),
                                     mat([[0, 0], [0, 0]])))
    if name == "sl2":
        # the standard representation on the basis (e, h, f): e -> E_12,
        # h -> diag(1, -1), f -> E_21
        return RepData.d_rep(H.lie, (mat([[0, 1], [0, 0]]), mat([[1, 0], [0, -1]]),
                                     mat([[0, 0], [1, 0]])))
    if name.startswith("abelian"):
        n = H.n
        mats = [mat([[0, 1], [0, 0]])] + [mat([[0, 0], [0, 0]])] * (n - 1)
        return RepData.d_rep(H.lie, tuple(mats))
    return None


# ---------------------------------------------------------------------------
# Constant forms
# ---------------------------------------------------------------------------

def basis_form_value(S, vectors) -> int:
    """x^S(b_{v_1} ^ ... ^ b_{v_n}) for the basis vectors v = `vectors`: the
    sign of the permutation that sorts them into S, 0 unless they are one."""
    if sorted(vectors) != list(S):
        return 0
    return (-1) ** sum(1 for a, b in itertools.combinations(vectors, 2) if a > b)


def apply_d0(lie, n, form: dict) -> dict:
    """d0 of the degree-n form {S: c}, through `_d0_columns`."""
    out = {}
    cols = _d0_columns(lie, n) if form else {}
    for S, c in form.items():
        for T, v in cols[S].items():
            out[T] = out.get(T, 0) + c * v
    return {T: v for T, v in out.items() if v}


def contract(a, form: dict) -> dict:
    """iota_{b_a} of the form {S: c}, through `_contraction`."""
    out = {}
    for S, c in form.items():
        hit = _contraction(a, S)
        if hit is not None:
            out[hit[1]] = out.get(hit[1], 0) + hit[0] * c
    return out


def test_d0_vanishes_for_abelian():
    lie = preset("abelian3")
    for n in range(4):
        assert not any(_d0_columns(lie, n).values())


def test_d0_sl2_example():
    lie = preset("sl2")
    # (d0 x^h)(e ^ f) = -x^h([e, f]) = -1, and [e, h], [h, f] have no h part
    assert _d0_columns(lie, 1)[(1,)] == {(0, 2): -1}


def test_iota_example():
    assert _contraction(0, (0, 1)) == (1, (1,))
    assert _contraction(1, (0, 1)) == (-1, (0,))
    assert _contraction(2, (0, 1)) is None


def test_d0_squared_zero(any_preset):
    lie = any_preset.lie
    for n in range(lie.dim + 1):
        for S, col in _d0_columns(lie, n).items():
            assert apply_d0(lie, n + 1, col) == {}, (n, S)


def test_cartan_formula(any_preset):
    # (ad a). = d0 iota_a + iota_a d0 as matrices on each Omega^n, with the
    # left side from omega_rep
    lie = any_preset.lie
    ad = lie.adjoint()
    for n in range(lie.dim + 1):
        basis = wedge_basis(lie.dim, n)
        omega = omega_rep(lie, n)
        for a in range(lie.dim):
            M = omega.gl_of(ad.d_matrix(a))
            for s, S in enumerate(basis):
                lhs = {T: M[t][s] for t, T in enumerate(basis) if M[t][s]}
                rhs = apply_d0(lie, n - 1, contract(a, {S: 1}))
                for T, c in contract(a, apply_d0(lie, n, {S: 1})).items():
                    rhs[T] = rhs.get(T, 0) + c
                assert lhs == {T: c for T, c in rhs.items() if c}, (n, a, S)


def test_gl_action_matches_omega_rep(any_preset):
    # omega_rep is the gl(d) action by its defining formula
    # (A.al)(a_1 ^ ... ^ a_n) = sum_r (-1)^r al(A a_r ^ ...hat r...),
    # evaluated here on basis wedges: e_i^j maps b_j to b_i
    lie = any_preset.lie
    for n in range(lie.dim + 1):
        rep = omega_rep(lie, n)
        basis = wedge_basis(lie.dim, n)
        for i, j in itertools.product(range(lie.dim), repeat=2):
            for (t, T), (s, S) in itertools.product(enumerate(basis), repeat=2):
                value = sum((-1) ** (r + 1) * basis_form_value(S, (i,) + T[:r] + T[r + 1:])
                            for r in range(n) if T[r] == j)
                assert rep.gl_matrix(i, j)[t][s] == value, (n, i, j, T, S)


# ---------------------------------------------------------------------------
# Pseudo de Rham differential
# ---------------------------------------------------------------------------

def test_d_of_unit_abelian2():
    H = hopf_for("abelian2")
    img = d_images(H, 0)[0]
    expect = ModuleVector(H, 2, {
        (1, 0): (Fraction(-1), Fraction(0)),
        (0, 1): (Fraction(0), Fraction(-1)),
    })
    assert img.eq(expect)


def test_d_squared_zero(any_preset):
    H = any_preset
    N = H.n
    h = H.gen(0) * H.gen(N - 1) * H.gen(0) * H.gen(N - 1)  # degree 4
    for n in range(N - 1):
        width = len(wedge_basis(N, n))
        for k in range(width):
            v = ModuleVector.unit(H, width, k).hmul(h)
            assert pseudo_d(H, n + 1, pseudo_d(H, n, v)).is_zero()


def test_d_squared_zero_twisted(any_preset2):
    H = any_preset2
    pi = pi_for(H)
    if pi is None:
        pytest.skip("no preset twist for this algebra")
    N = H.n
    for n in range(N - 1):
        width = pi.dim * len(wedge_basis(N, n))
        for k in range(width):
            v = ModuleVector.unit(H, width, k).hmul(H.gen(0))
            assert pseudo_d(H, n + 1, pseudo_d(H, n, v, pi), pi).is_zero()


def test_dw2_identity_all_presets(any_preset):
    H = any_preset
    for n in range(1, H.n + 1):
        for S in wedge_basis(H.n, n):
            for i in range(H.n):
                for lhs, rhs in dw2_lhs_rhs(H, i, S):
                    assert lhs.eq(rhs), (H.lie.name, i, S)


def test_dw3_identity_twisted(any_preset2):
    H = any_preset2
    pi = pi_for(H)
    if pi is None:
        pytest.skip("no preset twist")
    for n in range(1, H.n + 1):
        for S in wedge_basis(H.n, n):
            for i in range(H.n):
                for lhs, rhs in dw2_lhs_rhs(H, i, S, pi):
                    assert lhs.eq(rhs), (H.lie.name, i, S)


def test_dw2_correction_terms_active():
    # solv2, alpha = x^2, i = 2: nontrivial two-sided identity
    H = hopf_for("solv2")
    for lhs, rhs in dw2_lhs_rhs(H, 1, (1,)):
        assert lhs.eq(rhs)
        assert not rhs.is_zero()
    # sl2, alpha = x^h, i = 2 exercises the c^k_{kl} correction sum:
    # dropping it breaks the identity
    Hs = hopf_for("sl2")
    lie = Hs.lie
    for lhs, rhs in dw2_lhs_rhs(Hs, 1, (1,)):
        assert lhs.eq(rhs)
    correction = Fraction(0)
    for k in range(3):
        for l in range(k + 1, 3):
            c = lie.bracket(k, l).get(k)
            if c:
                correction += c
    assert correction != 0


# ---------------------------------------------------------------------------
# The Cartan-style module action
# ---------------------------------------------------------------------------

def star_action(hopf, w, n, gammav):
    """The oracle of the pseudoaction of W(d) on the tensor module of
    Omega^n: (w * gamma) for gamma in Omega^n(d) by the Cartan-type formula:

    (w * gamma)(a_1 ^...^ a_n) = -(f (x) g a) al(a_1 ^...^ a_n)
      + sum_i (-1)^i (f a_i (x) g) al(a ^ ...hat i...)
      + sum_i (-1)^i (f (x) g) al([a, a_i] ^ ...hat i...).
    """
    lie = hopf.lie
    N = lie.dim
    basis = wedge_basis(N, n)
    index = {S: t for t, S in enumerate(basis)}
    out = PseudoValue.zero(hopf, LEFT)
    # collect the H coefficient of each wedge-basis column of gamma
    g_of = {}
    for I, coords in gammav.terms.items():
        for t, c in enumerate(coords):
            if c:
                S = basis[t]
                g_of[S] = g_of.get(S, hopf.zero()) + hopf.mono(I, c)
    for a in range(N):
        f = w.comps[a]
        if f.is_zero():
            continue
        for S, g in g_of.items():
            if n == 0:
                vec = ModuleVector.unit(hopf, 1, 0)
                out = out.add(PseudoValue.from_tensor(hopf, [(f, g * hopf.gen(a), vec)]).neg())
                continue
            for T in basis:
                vec = ModuleVector.unit(hopf, len(basis), index[T])
                val = basis_form_value(S, T)
                if val:
                    out = out.add(
                        PseudoValue.from_tensor(hopf, [(f, g * hopf.gen(a), vec.scale(val))]).neg()
                    )
                for r in range(len(T)):
                    rest = T[:r] + T[r + 1:]
                    sgn = (-1) ** (r + 1)
                    v1 = basis_form_value(S, (a,) + rest)
                    if v1:
                        out = out.add(PseudoValue.from_tensor(
                            hopf, [(f * hopf.gen(T[r]), g, vec.scale(sgn * v1))]))
                    for k, c in lie.bracket(a, T[r]).items():
                        v2 = basis_form_value(S, (k,) + rest)
                        if v2:
                            out = out.add(
                                PseudoValue.from_tensor(hopf, [(f, g, vec.scale(sgn * c * v2))])
                            )
    return out


def test_star_action_degree_zero_reduces_to_module_h(any_preset):
    H = any_preset
    walg = WAlgebra(H)
    for i in range(H.n):
        got = star_action(H, walg.gen(i), 0, ModuleVector.unit(H, 1, 0))
        expect_pv = walg.action_on_h(walg.gen(i), ModuleVector.unit(H, 1, 0))
        expect = {I: dict(v.terms) for I, v in expect_pv.to_left().terms.items()}
        got_terms = {I: dict(v.terms) for I, v in got.to_left().terms.items()}
        assert got_terms == expect


def test_star_action_matches_tensor_table(any_preset):
    H = any_preset
    walg = WAlgebra(H)
    for n in range(H.n + 1):
        T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, n))
        for i in range(H.n):
            for k in range(T.dim):
                got = star_action(H, walg.gen(i), n, T.unit(k))
                assert got.eq(T.table[i][k]), (H.lie.name, n, i, k)


def test_d_intertwines_the_action(any_preset):
    # ((id (x) id) (x)_H d)(w * gamma) = w * (d gamma) on generators
    H = any_preset
    walg = WAlgebra(H)
    omega = [tensor_module(H, trivial_pi(H), omega_rep(H.lie, n)) for n in range(H.n + 1)]
    for n in range(H.n):
        w_n = len(wedge_basis(H.n, n))
        for i in range(H.n):
            for k in range(w_n):
                gammav = ModuleVector.unit(H, w_n, k)
                lhs = omega[n].w_star(walg.gen(i), gammav).map_vectors(
                    lambda v: pseudo_d(H, n, v)
                )
                rhs = omega[n + 1].w_star(walg.gen(i), pseudo_d(H, n, gammav))
                assert lhs.eq(rhs), (H.lie.name, n, i, k)


def test_d_intertwines_twisted(any_preset2):
    H = any_preset2
    pi = pi_for(H)
    if pi is None:
        pytest.skip("no preset twist")
    walg = WAlgebra(H)
    for n in range(H.n):
        Tn = tensor_module(H, pi, omega_rep(H.lie, n))
        for i in range(H.n):
            for k in range(Tn.dim):
                gammav = Tn.unit(k)
                lhs = Tn.w_star(walg.gen(i), gammav).map_vectors(
                    lambda v: pseudo_d(H, n, v, pi)
                )
                rhs_mod = tensor_module(H, pi, omega_rep(H.lie, n + 1))
                rhs = rhs_mod.w_star(walg.gen(i), pseudo_d(H, n, gammav, pi))
                assert lhs.eq(rhs), (H.lie.name, n, i, k)


# ---------------------------------------------------------------------------
# Exactness
# ---------------------------------------------------------------------------

def koszul_expected(N, n, p, mp):
    """Oracle for the abelian case: ranks of the Koszul differential."""

    # dim fil^p of degree n
    def dim_fil(n_, p_):
        if p_ < 0:
            return 0
        return comb(N + p_, N) * comb(N, n_) * mp

    # rank by exactness of the Koszul complex: rank(d^n|fil^p) =
    # dim fil^p - ker, with ker = image one degree down + (n = 0: 0)
    ranks = {}
    for nn in range(N):
        for pp in range(p + 2):
            ker = 0 if nn == 0 else ranks.get((nn - 1, pp - 1), 0)
            ranks[(nn, pp)] = dim_fil(nn, pp) - ker
    return ranks


def test_exactness_koszul_oracle_abelian():
    # independent combinatorial oracle for abelian d
    H = hopf_for("abelian2")
    oracle = koszul_expected(2, None, 4, 1)
    for n in range(2):
        ranks = filtration_ranks(H, n, None, 3)
        for p in range(4):
            dom, rk = ranks[p]
            assert rk == oracle[(n, p)], (n, p)


def _line_100(H):
    """Pi = line:1,0,0, which vanishes on [d, d] of each algebra it meets below."""
    return RepData.line(TraceForm(H.lie, (Fraction(1), Fraction(0), Fraction(0))))


def _golden_pi2(H):
    """The dim-2 Pi of the heis3 golden and benchmark commands."""
    return cli.load_pi(H.lie, str(GOLDEN / "pi_heis3_dim2.json"), {})[1]()


def _untwisted(H):
    return None


# algebra -> (Pi, p_max) pairs: untwisted, line:1,0,0 and dim-2 twists;
# abelian3 up to p = 6, as `derham abelian3 --trunc 8 --fil 6` reads
_FILTRATION_CASES = {
    "heis3": [(pi_for, 3), (_golden_pi2, 3), (_line_100, 2)],
    "solv2": [(pi_for, 3)],
    "abelian3": [(_untwisted, 6), (_line_100, 6), (pi_for, 3)],
    "sl2": [(pi_for, 3)],
    "solv3": [(_untwisted, 3), (_line_100, 3)],
    "k|x k^2": [(_line_100, 3)],
}


@pytest.mark.parametrize("name", list(_FILTRATION_CASES))
def test_filtration_ranks_match_fresh_matrices(name):
    # the one-pass ranks read at each degree boundary equal the ranks of
    # fil^p matrices built from scratch, keyed by the slots (J, r) of
    # `hmul`: fil^p rows are a prefix of fil^{p+1}
    H = _semidirect_k_k2() if name == "k|x k^2" else hopf_for(name)
    for make_pi, p_max in _FILTRATION_CASES[name]:
        pi = make_pi(H)
        for n in range(H.n):
            imgs = d_images(H, n, pi)
            for p, pair in enumerate(filtration_ranks(H, n, pi, p_max)):
                rows = [{(J, r): c for J, coords in imgs[k].hmul(H.mono(I)).terms.items()
                         for r, c in enumerate(coords) if c}
                        for I in mi_below(H.n, p) for k in range(len(imgs))]
                red = RowReducer()
                for row in rows:
                    red.add(row)
                assert pair == (len(rows), red.rank), (make_pi.__name__, n, p)


def test_filtration_ranks_read_each_row_straight_from_the_products(monkeypatch):
    # once d_images is memoized, a rank row is b^(I) times an image, built by
    # `twosided._times` alone: no unit vector, no apply_map fold
    H = hopf_for("heis3")
    pi = _golden_pi2(H)
    want = [filtration_ranks(H, n, pi, 3) for n in range(H.n)]

    def refuse(*args, **kwargs):
        raise AssertionError("filtration_ranks left the direct route")

    monkeypatch.setattr(derham, "apply_map", refuse)
    monkeypatch.setattr(modules, "apply_map", refuse)
    monkeypatch.setattr(ModuleVector, "unit", refuse)
    assert [filtration_ranks(H, n, pi, 3) for n in range(H.n)] == want


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "solv2", "heis3"])
def test_exactness_untwisted(name):
    H = hopf_for(name)
    rep = exactness_report(H, None, 4 if H.n == 2 else 3)
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]]


@pytest.mark.parametrize("name", ["abelian2", "solv2", "heis3"])
def test_exactness_twisted(name):
    H = hopf_for(name)
    pi = pi_for(H)
    rep = exactness_report(H, pi, 3)
    assert rep["pi_dim"] in (1, 2)
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]]


def test_twist_conjugation(any_preset2):
    H = any_preset2
    pi = pi_for(H)
    if pi is None:
        pytest.skip("no preset twist")
    report = checks.twist_conjugation(H, pi, 3)
    assert report.ok, report.first_failure


def test_twist_conjugation_counts_and_names_its_cases(monkeypatch):
    H = Hopf(preset("solv2"))
    pi = pi_for(H)
    assert checks.twist_conjugation(H, pi, 2).total == 6 * pi.dim * H.n
    assert checks.twist_conjugation(H, pi, -1).first_failure == "no cases"
    # a twist that drops the antipode (S(b^(B)) read as b^(B)) already fails
    # at I = 0, where b_1 acts on the line Pi by 1
    monkeypatch.setattr(H, "antipode_mono", lambda B: {B: Fraction(1)})
    report = checks.twist_conjugation(H, pi, 2)
    assert not report.ok
    assert report.first_failure == "I = (0, 0), p = 1, b_1"


# ---------------------------------------------------------------------------
# Submodule structure and classification
# ---------------------------------------------------------------------------

def test_image_submodule_and_its_singular_vectors():
    # I^1 in T(k, Omega^1) over abelian2: closure of d(fil^0 T^0), with
    # sing I^1 = d(fil^0) and I^1 recovered from the solver's sing block
    H = hopf_for("abelian2")
    T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    d_img = [d_images(H, 0)[0]]
    clo_from_d = submodule_closure(T1, d_img, 3)
    res = sing_solve(T1, 2, "W")
    block = [v for v in res.basis if v.degree() >= 1]
    clo_from_sing = submodule_closure(T1, block, 3)
    assert clo_from_d.same_space(clo_from_sing)
    total = len(T1.basis_upto(3))
    assert 0 < clo_from_d.dim < total
    sing_m = sing_in_subspace(T1, clo_from_d.basis, "W")
    assert len(sing_m) == 1
    # ... and the singular vector of the submodule is the d-image line
    cols = {}
    red = RowReducer()
    for v in d_img:
        row = {}
        for I, coords in v.terms.items():
            for k, c in enumerate(coords):
                cols.setdefault((I, k), len(cols))
                row[cols[(I, k)]] = c
        red.add(row)
    row = {}
    for I, coords in sing_m[0].terms.items():
        for k, c in enumerate(coords):
            if (I, k) not in cols:
                assert c == 0
                continue
            row[cols[(I, k)]] = c
    assert red.contains(row)


def test_unique_submodule_search_w_mode():
    # every seed inside the sing block generates the same submodule
    H = hopf_for("abelian2")
    T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    res = sing_solve(T1, 2, "W")
    block = [v for v in res.basis if v.degree() >= 1]
    closures = [submodule_closure(T1, [v], 3) for v in block]
    closures.append(submodule_closure(T1, [block[0].scale(Fraction(3, 2))], 3))
    assert all(c.same_space(closures[0]) for c in closures)


def test_classify_w_irreducible_sym2():
    H = hopf_for("abelian2")
    rep = classify_report(H, trivial_pi(H), sym2_dual_rep(H.lie), "W")
    assert rep["verdict"] == "irreducible tensor module"
    assert rep["evidence"]["quadratic_test"] is False
    assert rep["evidence"]["sing_dim"] == 3
    assert rep["ok"]


def test_classify_w_reducible_omega1():
    H = hopf_for("abelian2")
    rep = classify_report(H, trivial_pi(H), omega_rep(H.lie, 1), "W")
    assert rep["verdict"] == "reducible with unique submodule I^n"
    assert rep["evidence"]["wedge_degree"] == 1
    assert rep["evidence"]["submodule_sing_dim"] == 1
    assert rep["ok"]


def test_classify_w_top_degree():
    H = hopf_for("abelian2")
    rep = classify_report(H, trivial_pi(H), omega_rep(H.lie, 2), "W")
    assert rep["verdict"] == "top-degree case"


def test_classify_s_two_nested_submodules():
    H = hopf_for("abelian3")
    chi0 = H.lie.zero_trace_form()
    rep = classify_report(H, trivial_pi(H), omega_rep(H.lie, 1), "S", chi0)
    assert rep["verdict"] == "reducible with two nested submodules"
    dims = [s["dim"] for s in rep["submodules"]]
    assert len(dims) == 2 and dims[0] > dims[1] > 0


def _terms(clo) -> list:
    return [list(v.terms.items()) for v in clo.basis]


def _record_closures(monkeypatch, runs=()) -> list:
    """Record every closure classify_report builds: its module, generators,
    further arguments and result, the basis and window rows as built, and
    the slice of `runs` (see `count_kernel_runs`) made while building it."""
    built, real = [], derham.submodule_closure

    def closure(V, gens, *args):
        start = len(runs)
        clo = real(V, gens, *args)
        built.append(SimpleNamespace(
            V=V, gens=gens, args=args, clo=clo, terms=_terms(clo),
            window={j: list(row.items()) for j, row in clo.window.items()},
            runs=runs[start:]))
        return clo

    monkeypatch.setattr(derham, "submodule_closure", closure)
    return built


def _golden_algebra(name):
    return lambda: Hopf(load_algebra(str(GOLDEN / f"alg_{name}.json"))[0])


@pytest.mark.parametrize("make, omega, mode", [
    (lambda: hopf_for("heis3"), 1, "W"),
    (lambda: hopf_for("abelian3"), 2, "W"),
    (lambda: hopf_for("sl2"), 2, "W"),
    (lambda: hopf_for("abelian3"), 1, "S"),
    (lambda: hopf_for("heis3"), 1, "S"),
    (_golden_algebra("frac3"), 1, "W"),
    (_golden_algebra("n4"), 2, "W"),
], ids=["heis3-W-1", "abelian3-W-2", "sl2-W-2", "abelian3-S-1", "heis3-S-1", "frac3-W-1",
        "n4-W-2"])
def test_closures_from_the_kernel_store_match_the_pushed_components(monkeypatch, make, omega,
                                                                    mode):
    # every closure classify_report builds, the nested S ones from an inner
    # closure's rows among them, equals the loop that pushes the component
    # vectors of each w_star value: basis terms and their key order, and the
    # window rows with theirs
    H = make()
    built = _record_closures(monkeypatch)
    chi = H.lie.zero_trace_form() if mode == "S" else None
    classify_report(H, trivial_pi(H), omega_rep(H.lie, omega), mode, chi)
    assert built and (mode == "W" or built[-1].args[3] is not None)
    for b in built:
        want = submodule_closure_by_pushes(b.V, b.gens, *b.args)
        assert b.clo.dim == want.dim > 0
        assert b.terms == _terms(want)
        assert b.window == {j: list(row.items()) for j, row in want.window.items()}


@pytest.mark.parametrize("name, omega, mode, closures",
                         [("heis3", 1, "W", 1), ("abelian3", 2, "W", 4), ("abelian3", 1, "S", 2)],
                         ids=["heis3-1-1", "abelian3-2-4", "abelian3-1-S-2"])
def test_classify_builds_each_closure_once(monkeypatch, name, omega, mode, closures):
    # W: a top block of one seed has one closure; with three seeds, the
    # block's closure and each seed's are built.  S: the degree >= 2 closure,
    # then the degree >= 1 one from its rows, acting on no vector again
    H = hopf_for(name)
    runs = count_kernel_runs(monkeypatch)
    built = _record_closures(monkeypatch, runs)
    chi = H.lie.zero_trace_form() if mode == "S" else None
    rep = classify_report(H, trivial_pi(H), omega_rep(H.lie, omega), mode, chi)
    assert len(built) == closures
    if mode == "W":
        assert rep["verdict"] == "reducible with unique submodule I^n"
        assert rep["evidence"]["seed_closures_agree"] is True
        assert all(len(b.gens) == 1 for b in built[1:])
        return
    assert rep["verdict"] == "reducible with two nested submodules"
    inner, outer = built
    assert outer.args[3] is inner.clo and inner.runs and outer.runs
    acted = [{(tuple(v.terms.items()), i, orient) for v, i, orient in b.runs} for b in built]
    assert not acted[0] & acted[1]
    # the outer build worked on a copy of the inner rows, which `add` may
    # edit in place, and left the inner closure as it was built
    assert not any(outer.clo.window.get(j) is row for j, row in inner.clo.window.items())
    assert _terms(inner.clo) == inner.terms
    assert {j: list(row.items()) for j, row in inner.clo.window.items()} == inner.window


@pytest.mark.parametrize("name, pi, chi, fil", [
    ("abelian3", None, (0, 0, 0), None),
    ("heis3", None, (0, 0, 0), None),
    ("solv3", None, (0, 0, 0), None),
    ("abelian3", None, (1, 2, 3), None),
    ("solv3", (1, 0, 0), (0, 0, 0), None),
    ("abelian3", None, (0, 0, 0), 4),
], ids=["abelian3", "heis3", "solv3", "abelian3-chi123", "solv3-pi-line", "abelian3-fil4"])
def test_nested_s_closures_equal_the_from_scratch_ones(monkeypatch, name, pi, chi, fil):
    # a truncated closure basis may depend on queue order, so each closure
    # classify_report builds from the rows of an inner one must equal the one
    # built from scratch from its whole seed list, term order included
    H = hopf_for(name)
    pi = RepData.line(TraceForm(H.lie, tuple(map(Fraction, pi)))) if pi else trivial_pi(H)
    chi = TraceForm(H.lie, tuple(map(Fraction, chi)))
    built = _record_closures(monkeypatch)
    rep = classify_report(H, pi, omega_rep(H.lie, 1), "S", chi, fil)
    assert [s["dim"] for s in rep["submodules"]] == [b.clo.dim for b in built[::-1]]
    # the innermost closure is built from scratch, each other one from the
    # rows of the one built before it
    assert len(built) >= 2 and built[0].args[3] is None
    assert all(b.args[3] is a.clo for a, b in zip(built, built[1:]))
    for b in built[1:]:
        fresh = submodule_closure(b.V, b.gens, *b.args[:3])
        assert fresh.dim > 0 and fresh.same_space(b.clo)
        assert _terms(fresh) == b.terms


def _semidirect_k_k2():
    brackets = [(0, 1, 1, Fraction(2)), (0, 1, 2, Fraction(-1)), (0, 2, 1, Fraction(1, 2)),
                (0, 2, 2, Fraction(-2))]
    return Hopf(LieData.from_entries(3, brackets, name="k|x k^2"))


@pytest.mark.parametrize("make", [lambda: hopf_for("heis3"), _semidirect_k_k2],
                         ids=["heis3", "k|x k^2"])
def test_the_closure_of_a_one_seed_block_is_the_seed_closure(make):
    # the closure classify_report reuses for seed_closures_agree is the one a
    # fresh module builds from the seed alone, basis and order alike
    H = make()
    fil = PAPER_BOUND["W"] + 1
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    blocks = sing_blocks_by_id_symbol(T, sing_solve(T, fil, "W").basis)
    seeds = blocks[max(blocks)]
    assert len(seeds) == 1
    clo = submodule_closure(T, seeds, fil + 1)
    fresh = submodule_closure(tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1)),
                              [seeds[0]], fil + 1)
    assert clo.dim > 0 and fresh.same_space(clo)
    assert [list(v.terms.items()) for v in fresh.basis] == \
        [list(v.terms.items()) for v in clo.basis]
    rep = classify_report(H, trivial_pi(H), omega_rep(H.lie, 1), "W")
    assert rep["submodules"] == [{"dim": clo.dim, "seed": "sing block"}]


def test_nested_containment_s_mode():
    H = hopf_for("abelian3")
    chi0 = H.lie.zero_trace_form()
    T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    res = sing_solve(T1, 3, "S", chi0)
    big = [v for v in res.basis if v.degree() >= 1]
    small = [v for v in res.basis if v.degree() >= 2]
    M1 = submodule_closure(T1, big, 3, "S", chi0)
    M2 = submodule_closure(T1, small, 3, "S", chi0)
    assert M2.dim < M1.dim
    assert all(M1.contains(v) for v in M2.basis)


def test_sing_of_image_matches_ground_image(any_preset2):
    # sing(d_Pi T(Pi, Omega^0)) = d_Pi(fil^0): evidence for the fingerprint
    H = any_preset2
    T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    img = d_images(H, 0)
    clo = submodule_closure(T1, img, 3)
    sing_m = sing_in_subspace(T1, clo.basis, "W")
    assert len(sing_m) == 1


def test_fingerprints_distinguish_modules():
    H = hopf_for("abelian2")
    T_sym = tensor_module(H, trivial_pi(H), sym2_dual_rep(H.lie))
    T_om = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    f1 = sing_fingerprint(T_sym, sing_solve(T_sym, 2, "W"))
    f2 = sing_fingerprint(T_om, sing_solve(T_om, 2, "W"))
    assert f1 != f2


def test_sing_fingerprint_acts_once_per_vector(monkeypatch):
    # the n^2 symbols x^j (x) b_i share each (1 (x) b_i) * v: n * |basis| actions
    H = hopf_for("heis3")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    res = sing_solve(T, 2, "W")
    runs = count_kernel_runs(monkeypatch)
    assert sing_fingerprint(T, res) == {
        "dim": 4,
        "gl_symbol_traces": [["3", "0", "0"], ["0", "3", "0"], ["0", "0", "3"]],
        "id_trace": "9",
    }
    assert len(runs) == H.n * len(res.basis) == 12


def test_sing_fingerprint_reduces_its_span_once(monkeypatch):
    # all n^2 symbols on all singular vectors are read off one reduced span
    H = hopf_for("heis3")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    res = sing_solve(T, 2, "W")
    calls = []
    real = modules.span_coords

    def counting(vectors, targets):
        calls.append((len(vectors), len(targets)))
        return real(vectors, targets)

    monkeypatch.setattr(modules, "span_coords", counting)
    assert sing_fingerprint(T, res)["id_trace"] == "9"
    assert calls == [(4, H.n ** 2 * 4)]


def test_d_images_build_each_omega_module_once(monkeypatch):
    # a fresh Hopf, so no generator images are memoized yet
    H = Hopf(preset("heis3"))
    # x -> E_12, y -> identity, z -> 0 represents [x, y] = z
    pi = RepData.d_rep(H.lie, [
        mat([[0, 1], [0, 0]]), mat([[1, 0], [0, 1]]), mat([[0, 0], [0, 0]]),
    ])
    built = []
    real = derham.tensor_module

    def counting(*args, **kwargs):
        built.append(kwargs.get("name"))
        return real(*args, **kwargs)

    monkeypatch.setattr(derham, "tensor_module", counting)
    assert exactness_report(H, pi, 2)["ok"]
    for k in range(pi.dim):
        v = ModuleVector.unit(H, pi.dim, k).hmul(H.gen(0) * H.gen(1))
        assert pseudo_d(H, 1, pseudo_d(H, 0, v, pi), pi).is_zero()
    # the untwisted Omega modules of degrees 0..N-1, the sources of the
    # twisted differentials, each once, independent of p_max and of the
    # number of pseudo_d calls
    assert len(built) == H.n


def test_derham_builds_each_omega_rep_once(monkeypatch, capsys):
    # one twisted derham command: the checks, dw2_lhs_rhs and the Omega
    # modules ask for Omega^n many times, and all get one RepData per degree
    returned = []
    real = derham.omega_rep

    def recording(lie, n):
        rep = real(lie, n)
        returned.append((n, rep))
        return rep

    for module in (cli, checks, derham):
        monkeypatch.setattr(module, "omega_rep", recording)
    assert cli.main(["derham", "--alg", "heis3", "--pi", str(GOLDEN / "pi_heis3_dim2.json")]) == 0
    capsys.readouterr()
    built = {id(rep): n for n, rep in returned}
    assert len(returned) > len(built)
    assert len(built) <= preset("heis3").dim + 1
    # every caller of degree n got the same object
    assert sorted(built.values()) == sorted({n for n, _ in returned})


@pytest.mark.parametrize("name", ["heis3", "solv3", "sl2", "abelian3"])
def test_de_rham_map_spans_the_intertwiners_from_omega1_to_omega2(name):
    # Hom_W(T(Omega^1), T(Omega^2)) inside fil^1 is the line of the pseudo de
    # Rham differential, on a non-abelian d too
    H = hopf_for(name)
    sols = solve_intertwiner(derham.omega_module(H, 1), derham.omega_module(H, 2), 1, "W")
    assert len(sols) == 1
    d = d_images(H, 1)
    g, I, k = next((g, I, k) for g, v in enumerate(d) for I, coords in v.terms.items()
                   for k, c in enumerate(coords) if c)
    ratio = Fraction(sols[0][g].coefficient(I)[k], d[g].coefficient(I)[k])
    assert ratio
    assert len(sols[0]) == len(d)
    assert all(s.eq(v.scale(ratio)) for s, v in zip(sols[0], d))
