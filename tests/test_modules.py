import functools
import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from liepseudo import checks, cli, liecore, modules, pseudoaction
from liepseudo.annih import AnnElement, ann_action
from liepseudo.dualx import XElement
from liepseudo.errors import DimensionMismatch, RepInvalid, TruncationExceeded
from liepseudo.hopf import Hopf, mi_below, mi_deg, mi_factorial, mi_splits, mi_unit, mi_zero
from liepseudo.liecore import (
    LieData, RepData, TraceForm, mat, omega_rep, sym2_dual_rep,
)
from liepseudo._linalg import RowReducer
from liepseudo.modules import (
    PAPER_BOUND,
    ModuleSpec,
    ModuleVector,
    apply_map,
    dual_module,
    dual_map,
    r0_test,
    s_of,
    s_tensor_module,
    shifted_module,
    sing_in_subspace,
    sing_solve,
    sing_solve_oracle,
    solve_intertwiner,
    submodule_closure,
    tensor_module,
    twist_map,
    twist_module,
    unshift_module,
)
from liepseudo.pseudoalg import WAlgebra
from liepseudo.twosided import LEFT, RIGHT, PseudoValue, module_defect

from conftest import (ann_action_element_by_element, apply_map_by_terms, canonical,
                      count_kernel_runs, from_tensor_by_terms, hmul_by_terms, hopf_for,
                      module_defect_by_terms, mul_first, mul_second, semidirect_k_k2,
                      w_star_right_by_vector)

D = 6


def trivial_pi(H, m=1):
    return RepData.trivial(H.lie, m, "d")


def trivial_u(H, m=1):
    return RepData.trivial(H.lie, m, "gl")


def line_pi(H, values):
    return RepData.line(TraceForm(H.lie, tuple(Fraction(v) for v in values)))


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def test_tensor_kk_reduces_to_module_h():
    # with trivial Pi and U the table collapses to (1 (x) b_i)*1 = -(1 (x) b_i) (x)_H 1
    H = hopf_for("abelian2")
    walg = WAlgebra(H)
    T = tensor_module(H, trivial_pi(H), trivial_u(H))
    for i in range(H.n):
        got = {I: dict(v.terms) for I, v in T.table[i][0].to_left().terms.items()}
        expect_pv = walg.action_on_h(walg.gen(i), T.unit(0)).to_left()
        expect = {I: dict(v.terms) for I, v in expect_pv.terms.items()}
        assert got == expect


def test_a_passed_validation_is_remembered_and_a_failure_never(monkeypatch):
    H = hopf_for("heis3")
    calls = []
    real_comm = liecore.mat_comm
    monkeypatch.setattr(liecore, "mat_comm", lambda a, b: calls.append(1) or real_comm(a, b))
    pi, u = line_pi(H, (1, 0, 0)), omega_rep(H.lie, 1).gl_shift_id(1)
    tensor_module(H, pi, u)
    assert calls  # the first build checks both representations
    checked = len(calls)
    tensor_module(H, pi, u)
    assert len(calls) == checked  # the second build on the same instances does not
    # x -> 0, y -> 0, z -> 1 breaks [rho(x), rho(y)] = rho(z)
    bad = RepData.d_rep(H.lie, (mat([[0]]), mat([[0]]), mat([[1]])))
    messages = []
    for _ in range(3):
        before = len(calls)
        with pytest.raises(RepInvalid) as err:
            tensor_module(H, bad, u)
        assert len(calls) > before  # a failed check runs again on every build
        messages.append(str(err.value))
    assert messages == ["[rho(b_1), rho(b_2)] != rho([b_1, b_2])"] * 3


def _h_matrix_by_fractions(rep, coeffs, dim):
    """The matrix of sum_I c_I b^(I) on `rep`, in Fractions: c_I / I! times
    the ordered product of the generator matrices."""
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for I, c in coeffs.items():
        m = [[Fraction(int(r == s)) for s in range(dim)] for r in range(dim)]
        for a, power in enumerate(I):
            for _ in range(power):
                g = rep.d_matrix(a)
                m = [[sum(m[r][t] * g[t][s] for t in range(dim)) for s in range(dim)]
                     for r in range(dim)]
        for r in range(dim):
            for s in range(dim):
                out[r][s] += Fraction(c) * m[r][s] / mi_factorial(I)
    return out


def test_rep_h_matrix_is_canonical_and_matches_the_fraction_loop():
    # heis3 on the 2-dimensional Pi of the twisted de Rham golden (x -> E_12,
    # y -> 1, z -> 0): antipodes of every monomial of degree < 4, and a sum
    # with non-integral coefficients
    H = hopf_for("heis3")
    pi = RepData.d_rep(H.lie, (mat([[0, 1], [0, 0]]), mat([[1, 0], [0, 1]]), mat([[0, 0], [0, 0]])))
    cases = [H.antipode_mono(I) for I in mi_below(H.n, 4)]
    cases.append({(1, 1, 0): Fraction(1, 2), (0, 2, 0): Fraction(-2, 3), (0, 0, 0): 3})
    for coeffs in cases:
        got = modules._rep_h_matrix(pi, coeffs, 2)
        assert [list(row) for row in got] == _h_matrix_by_fractions(pi, coeffs, 2), coeffs
        assert all(canonical(x) for row in got for x in row), (coeffs, got)


def test_twisted_h_matches_direct_formula():
    # T_Pi(H) for solv2, Pi one-dimensional with b_1 -> alpha:
    # (1 (x) a)*(1 (x) u) = (1 (x) 1) (x)_H (1 (x) a u) - (1 (x) a) (x)_H (1 (x) u)
    H = hopf_for("solv2")
    alpha = Fraction(3, 2)
    pi = line_pi(H, (alpha, 0))
    T = tensor_module(H, pi, trivial_u(H), name="T_Pi(H)")
    one = H.one()
    for i, aval in ((0, alpha), (1, Fraction(0))):
        got = T.table[i][0]
        vec = T.unit(0)
        expect = PseudoValue.from_tensor(H, [(one, one, vec.scale(aval))]).add(
            PseudoValue.from_tensor(H, [(one, H.gen(i), vec)]).neg()
        )
        assert got.eq(expect)


def test_module_axiom_tensor_modules(any_preset):
    H = any_preset
    walg = WAlgebra(H)
    mods = [
        tensor_module(H, trivial_pi(H), trivial_u(H)),
        tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1)),
    ]
    if H.lie.name == "solv2":
        mods.append(tensor_module(H, H.lie.adjoint(), omega_rep(H.lie, 1)))
    for T in mods:
        for i, j in itertools.product(range(H.n), repeat=2):
            for k in range(T.dim):
                defect = module_defect(
                    walg.gen(i), walg.gen(j), T.unit(k), walg.bracket, T.w_star
                )
                assert not defect, (T.name, i, j, k)


def test_module_axiom_negative_control():
    H = hopf_for("abelian2")
    walg = WAlgebra(H)
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    # corrupt one table entry
    bad_table = [list(row) for row in T.table]
    bad_table[0][0] = bad_table[0][0].add(
        PseudoValue.from_tensor(H, [(H.one(), H.one(), T.unit(1))])
    )
    bad = ModuleSpec(H, T.dim, tuple(tuple(r) for r in bad_table))
    defects = []
    for i, j in itertools.product(range(H.n), repeat=2):
        for k in range(bad.dim):
            case = (walg.gen(i), walg.gen(j), bad.unit(k), walg.bracket, bad.w_star)
            d = module_defect(*case)
            assert d == module_defect_by_terms(*case), (i, j, k)
            if d:
                defects.append((i, j, k))
    assert defects


def test_shifted_module_solv2_generator_action():
    # V(k boxtimes k) for solv2: in the tensor realization the d-action on the
    # generator line is shifted to +1 (tr ad b_1 = 1), and the pseudoaction
    # collapses to (1 (x) b_1)*(1 (x) u) = -(1 (x) 1) (x)_H (b_1 (x) u)
    H = hopf_for("solv2")
    V = shifted_module(H, trivial_pi(H), trivial_u(H))
    assert V.rep_d.d_matrix(0) == ((Fraction(1),),)
    assert V.rep_d.d_matrix(1) == ((Fraction(0),),)
    val = V.table[0][0].to_left()
    assert set(val.terms) == {mi_zero(H.n)}
    assert val.terms[mi_zero(H.n)].eq(V.unit(0, mi_unit(H.n, 0)).scale(-1))


def test_double_shift_identity(any_preset):
    # unshifting the shifted module returns the tensor-module table
    H = any_preset
    pi, u = trivial_pi(H), omega_rep(H.lie, 1)
    T = tensor_module(H, pi, u)
    TT = unshift_module(H, pi, u)
    for i in range(H.n):
        for k in range(T.dim):
            assert T.table[i][k].eq(TT.table[i][k])


def test_twist_of_tensor_is_tensor(any_preset2):
    # T_Pi(T(k, U)) has the same table as T(Pi, U)
    H = any_preset2
    if H.lie.name == "solv2":
        pi = line_pi(H, (1, 0))
    elif H.lie.name in ("abelian2", "abelian3"):
        pi = line_pi(H, [1] + [0] * (H.n - 1))
    else:
        pi = trivial_pi(H)
    u = omega_rep(H.lie, 1)
    direct = tensor_module(H, pi, u)
    twisted = twist_module(pi, tensor_module(H, trivial_pi(H), u))
    assert direct.dim == twisted.dim
    for i in range(H.n):
        for k in range(direct.dim):
            assert direct.table[i][k].eq(twisted.table[i][k]), (i, k)


def test_dual_of_module_h():
    # D(H): from (1 (x) b_i)*1 = -(1 (x) b_i) (x)_H 1 the dual action is
    # a*(1 (x) psi) = (b_i (x) 1) (x)_H psi + (1 (x) 1) (x)_H b_i psi ... computed
    # through the general formula; check the module axiom instead of hand signs
    H = hopf_for("solv2")
    walg = WAlgebra(H)
    T = tensor_module(H, trivial_pi(H), trivial_u(H))
    Dm = dual_module(T)
    for i, j in itertools.product(range(H.n), repeat=2):
        d = module_defect(walg.gen(i), walg.gen(j), Dm.unit(0), walg.bracket, Dm.w_star)
        assert not d


def test_dual_module_axiom_omega(any_preset2):
    H = any_preset2
    walg = WAlgebra(H)
    Dm = dual_module(tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1)))
    for i, j in itertools.product(range(H.n), repeat=2):
        for k in range(Dm.dim):
            d = module_defect(walg.gen(i), walg.gen(j), Dm.unit(k), walg.bracket, Dm.w_star)
            assert not d


def test_twist_map_primitive_case():
    # T_Pi(beta) for beta(1 (x) v) = h (x) Bv equals h_(1) (x) h_(-2) u (x) Bv
    H = hopf_for("solv2")
    pi = H.lie.adjoint()
    V = tensor_module(H, trivial_pi(H), trivial_u(H))
    h = H.gen(0)
    images = [ModuleVector(H, 1, {mi_unit(H.n, 0): (Fraction(1),)})]  # beta(1(x)v) = b_1 (x) v
    out = twist_map(pi, V, images)
    # expected: b_1 (x) u (x) v - 1 (x) b_1 u (x) v, with b_1 acting through ad
    for p in range(pi.dim):
        expect = ModuleVector.unit(H, pi.dim, p, mi_unit(H.n, 0))
        ad1 = pi.d_matrix(0)
        correction = ModuleVector(
            H, pi.dim, {mi_zero(H.n): tuple(-ad1[r][p] for r in range(pi.dim))}
        )
        assert out[p].eq(expect + correction)


def test_dual_functoriality_roundtrip():
    # D(beta compose beta') = D(beta') compose D(beta) on a random H-linear map
    H = hopf_for("abelian2")
    V = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    b1 = [V.unit(1).hmul(H.gen(0)), V.unit(0)]           # beta: V -> V
    b2 = [V.unit(0).hmul(H.gen(1)), V.unit(1).scale(2)]  # beta': V -> V
    composed = [apply_map(b1, v) for v in b2]            # beta after beta'
    lhs = dual_map(V, V, composed)
    rhs_inner = dual_map(V, V, b1)
    rhs = [apply_map(rhs_inner, v) for v in dual_map(V, V, b2)]
    # D reverses composition: D(beta beta') = D(beta') D(beta)
    lhs2 = [apply_map(dual_map(V, V, b2), v) for v in dual_map(V, V, b1)]
    for a, b in zip(lhs, lhs2):
        assert a.eq(b)


# ---------------------------------------------------------------------------
# s(b, u) and the quadratic test
# ---------------------------------------------------------------------------

def test_s_of_trivial_u_vanishes(any_preset):
    H = any_preset
    T = tensor_module(H, trivial_pi(H), trivial_u(H))
    for l in range(H.n):
        assert s_of(T, l, (1,)).is_zero()


def test_s_of_omega1_abelian2():
    # s(b_l, x^k) = -delta^k_l sum_j b_j (x) x^j
    H = hopf_for("abelian2")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    expect = ModuleVector(H, 2, {
        mi_unit(2, 0): (Fraction(-1), Fraction(0)),
        mi_unit(2, 1): (Fraction(0), Fraction(-1)),
    })
    for l in range(2):
        for k in range(2):
            got = s_of(T, l, tuple(1 if c == k else 0 for c in range(2)))
            if k == l:
                assert got.eq(expect)
            else:
                assert got.is_zero()
    # the span of all s(b_l, u) is one-dimensional
    red = RowReducer()
    cols = {(I, k): c for c, (I, k) in enumerate(T.basis_upto(1))}
    for l in range(2):
        for k in range(2):
            v = s_of(T, l, tuple(1 if c == k else 0 for c in range(2)))
            row = {}
            for I, coords in v.terms.items():
                for kk, val in enumerate(coords):
                    if val:
                        row[cols[(I, kk)]] = val
            red.add(row)
    assert red.rank == 1


def test_r0_omega_modules(any_preset):
    H = any_preset
    for n in range(0, H.n + 1):
        assert r0_test(omega_rep(H.lie, n)), n


def test_r0_fails_for_sym2_and_adjoint_gl2():
    H = hopf_for("abelian2")
    assert not r0_test(sym2_dual_rep(H.lie))
    # adjoint of sl2 extended to gl2 with Id acting as 0
    E, Hm, F = 0, 1, 2
    z = Fraction(0)
    mats = {
        (0, 0): mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]]),
        (1, 1): mat([[-1, 0, 0], [0, 0, 0], [0, 0, 1]]),
        (0, 1): mat([[0, -2, 0], [0, 0, 1], [0, 0, 0]]),
        (1, 0): mat([[0, 0, 0], [-1, 0, 0], [0, 2, 0]]),
    }
    rep = RepData.gl_rep(H.lie, mats)
    rep.validate()
    assert rep.id_scalar() == 0
    assert not r0_test(rep)


# ---------------------------------------------------------------------------
# Singular vectors, W side
# ---------------------------------------------------------------------------

def test_sing_trivial_u_is_ground_level(any_preset):
    H = any_preset
    for pi in (trivial_pi(H), trivial_pi(H, 2)):
        T = tensor_module(H, pi, trivial_u(H))
        res = sing_solve(T, 2, "W")
        assert res.dim == pi.dim
        assert res.degree_profile() == {0: pi.dim}
        assert res.ok


def test_sing_omega1_abelian2_with_oracle():
    H = hopf_for("abelian2")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    res = sing_solve(T, 2, "W")
    assert res.dim == 3 and res.degree_profile() == {0: 2, 1: 1}
    oracle = sing_solve_oracle(T, 2, "W")
    assert oracle.dim == res.dim
    got = next(v for v in res.basis if v.degree() == 1)
    expect = ModuleVector(H, 2, {
        mi_unit(2, 0): (Fraction(1), Fraction(0)),
        mi_unit(2, 1): (Fraction(0), Fraction(1)),
    })
    assert got.eq(expect) or got.eq(expect.scale(-1))


def test_sing_rank_one_scalar_family():
    # N=1, U = k_c: singular beyond fil^0 iff c = -1 (the omega case)
    H = hopf_for("abelian1")
    for c, extra in ((Fraction(1), 0), (Fraction(-1), 1), (Fraction(-3, 2), 0), (Fraction(0), 0)):
        u = trivial_u(H).with_id_scalar(c)
        T = tensor_module(H, trivial_pi(H), u)
        res = sing_solve(T, 2, "W")
        assert res.dim == 1 + extra, c
        assert res.ok


@pytest.mark.parametrize("name", ["abelian2", "solv2", "heis3", "sl2"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sing_omega_dimensions(name, n):
    H = hopf_for(name)
    if n > H.n:
        pytest.skip("degree exceeds dimension")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, n))
    res = sing_solve(T, 2, "W")
    assert res.dim == comb(H.n, n) + comb(H.n, n - 1)
    assert res.ok
    oracle = sing_solve_oracle(T, 2, "W")
    assert oracle.dim == res.dim


def test_sing_sym2_is_ground_level():
    H = hopf_for("abelian2")
    T = tensor_module(H, trivial_pi(H), sym2_dual_rep(H.lie))
    res = sing_solve(T, 2, "W")
    assert res.dim == 3 and res.degree_profile() == {0: 3}


def test_shifted_module_generators_singular(any_preset):
    # k (x) R lies in sing V(R) and rho_sing matches the input action
    H = any_preset
    pi = trivial_pi(H, 1)
    u = omega_rep(H.lie, 1)
    V = shifted_module(H, pi, u)
    res = sing_solve(V, 2, "W")
    ground = [v for v in res.basis if v.degree() == 0]
    assert len(ground) == V.dim
    # rho_sing(e_i^j) v = -(x^j (x) b_i) . v reproduces the unshifted gl action
    pairs = list(itertools.product(range(H.n), repeat=2))
    els = [AnnElement.term(H, XElement.coord(H, j, D), i) for i, j in pairs]
    outs = ann_action(els, [V.unit(k) for k in range(V.dim)], V.action_pv)
    for m, (i, j) in enumerate(pairs):
        for k in range(V.dim):
            out = outs[k][m]
            expect_col = tuple(u.gl_matrix(i, j)[r][k] for r in range(V.dim))
            expect = ModuleVector(H, V.dim, {mi_zero(H.n): expect_col}).scale(-1)
            if out is None:
                assert expect.is_zero()
            else:
                assert out.scale(-1).eq(expect.scale(-1))


def test_filtration_action_bounds(any_preset):
    # W_0-spanning elements preserve fil^p, W_1 lowers it (annihilation action)
    H = any_preset
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    probes = [T.unit(0), T.unit(T.dim - 1, tuple([1] + [0] * (H.n - 1))),
              T.unit(0, tuple([2] + [0] * (H.n - 1)))]
    Ks = [(K, a) for K in mi_below(H.n, 3) if mi_deg(K) != 0 for a in range(H.n)]
    els = [AnnElement.term(H, XElement.mono(H, K, 1, D), a) for K, a in Ks]
    for v, outs in zip(probes, ann_action(els, probes, T.action_pv)):
        p = v.degree()
        for (K, _a), out in zip(Ks, outs):
            if out is None or out.is_zero():
                continue
            if mi_deg(K) == 1:
                assert out.degree() <= p
            else:
                assert out.degree() <= p - 1


def test_graded_gl_action_on_filtration(any_preset):
    # on gr^p, -(x^j (x) b_i) acts as A f (x) u + f (x) rho(A) u
    H = any_preset
    n = H.n
    u = omega_rep(H.lie, 1)
    V = shifted_module(H, trivial_pi(H), u)
    pairs = list(itertools.product(range(n), repeat=2))
    els = [AnnElement.term(H, XElement.coord(H, j, D), i) for i, j in pairs]
    for p in (1, 2):
        slots = [(I, k) for I in mi_below(n, p) if mi_deg(I) == p for k in range(V.dim)]
        outs = ann_action(els, [V.unit(k, I) for I, k in slots], V.action_pv)
        for m, (i, j) in enumerate(pairs):
            for s, (I, k) in enumerate(slots):
                out = outs[s][m]
                out = out if out is not None else V.zero_vector()
                # symbol action on the divided-power monomial
                sym = {}
                if I[j] > 0:
                    J = tuple(x - (1 if t == j else 0) + (1 if t == i else 0)
                              for t, x in enumerate(I))
                    factor = Fraction(J[i]) if i != j else Fraction(I[i])
                    sym[J] = factor
                expect = V.zero_vector()
                for J, c in sym.items():
                    expect = expect + V.unit(k, J).scale(c)
                col = tuple(u.gl_matrix(i, j)[r][k] for r in range(V.dim))
                expect = expect + ModuleVector(H, V.dim, {I: col})
                diff = out.scale(-1) - expect
                assert diff.degree() < p, (i, j, I, k)


# ---------------------------------------------------------------------------
# Singular vectors, S side
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["abelian3", "heis3"])
def test_sing_s_omega2_and_omega1(name):
    H = hopf_for(name)
    chi0 = H.lie.zero_trace_form()
    T2 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 2))
    r2 = sing_solve(T2, 3, "S", chi0)
    assert r2.dim == 6 and r2.ok
    assert sing_solve_oracle(T2, 2, "S", chi0).dim == 6

    T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    r1 = sing_solve(T1, 3, "S", chi0)
    assert r1.dim == 7 and r1.ok
    assert r1.degree_profile()[2] == 3
    assert sing_solve_oracle(T1, 2, "S", chi0).dim == 7


def test_sing_s_trivial_block():
    # V_S(Pi, k): ground level plus the block of size dim Omega^{N-1}
    H = hopf_for("abelian3")
    chi0 = H.lie.zero_trace_form()
    V = s_tensor_module(H, trivial_pi(H), trivial_u(H), chi0)
    res = sing_solve(V, 3, "S", chi0)
    assert res.dim == 4
    assert res.degree_profile() == {0: 1, 1: 3}
    assert res.ok


def test_s_action_independent_of_lift_scalar():
    # with chi = tr ad, the s_ij action on T(Pi (x) k_chi, U, c) is c-independent
    for name in ("abelian3", "heis3"):
        H = hopf_for(name)
        chi = H.lie.tr_ad()
        walg = WAlgebra(H)
        u = omega_rep(H.lie, 1)
        mods = []
        for c in (0, 1):
            uc = u.with_id_scalar(c)
            mods.append(shifted_module(H, trivial_pi(H).twist_by(chi), uc))
        for (a, b), s in walg.s_generators(chi):
            for k in range(mods[0].dim):
                v0 = mods[0].w_star(s, mods[0].unit(k))
                v1 = mods[1].w_star(s, mods[1].unit(k))
                assert v0.to_left().terms.keys() == v1.to_left().terms.keys()
                for I in v0.to_left().terms:
                    assert v0.to_left().terms[I].eq(v1.to_left().terms[I])


# ---------------------------------------------------------------------------
# Submodules and intertwiners
# ---------------------------------------------------------------------------

def test_closure_of_ground_level_is_everything(any_preset):
    H = any_preset
    T = tensor_module(H, trivial_pi(H), trivial_u(H))
    clo = submodule_closure(T, [T.unit(0)], 2)
    assert clo.dim == len(T.basis_upto(2))
    assert clo.coef_rank == 1


def test_closure_of_zero_is_zero():
    H = hopf_for("abelian2")
    T = tensor_module(H, trivial_pi(H), trivial_u(H))
    clo = submodule_closure(T, [T.zero_vector()], 2)
    assert clo.dim == 0


def test_closure_of_degree_one_singular_vector():
    # the singular vector of T(k, Omega^1) generates a proper nontrivial
    # submodule meeting fil^0 trivially, with coef M = R
    H = hopf_for("abelian2")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    res = sing_solve(T, 2, "W")
    v = next(v for v in res.basis if v.degree() == 1)
    clo = submodule_closure(T, [v], 3)
    total = len(T.basis_upto(3))
    assert 0 < clo.dim < total
    assert clo.coef_rank == T.dim
    assert all(b.degree() >= 1 for b in clo.basis)
    # sing M = the line spanned by v (theorem: sing M = M n fil^1)
    sings = sing_in_subspace(T, clo.basis, "W")
    assert len(sings) == 1


def test_intertwiner_hom_om0_om1_is_one_dimensional():
    H = hopf_for("abelian2")
    T0 = tensor_module(H, trivial_pi(H), trivial_u(H))
    T1 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    sols = solve_intertwiner(T0, T1, 2, "W")
    assert len(sols) == 1
    img = sols[0][0]
    # spanned by the de Rham map 1 -> -(b_1 (x) x^1 + b_2 (x) x^2) up to scale
    expect = ModuleVector(H, 2, {
        mi_unit(2, 0): (Fraction(-1), Fraction(0)),
        mi_unit(2, 1): (Fraction(0), Fraction(-1)),
    })
    got = img
    # proportionality
    ratio = None
    for I, coords in expect.terms.items():
        for k, c in enumerate(coords):
            if c:
                ratio = Fraction(got.coefficient(I)[k], c)
    assert ratio and got.eq(expect.scale(ratio))


def test_intertwiner_schur_endomorphisms():
    H = hopf_for("abelian2")
    T = tensor_module(H, trivial_pi(H), sym2_dual_rep(H.lie))
    sols = solve_intertwiner(T, T, 3, "W")
    assert len(sols) == 1
    images = sols[0]
    # identity up to scalar
    scale = images[0].coefficient(mi_zero(2))[0]
    for k in range(T.dim):
        assert images[k].eq(T.unit(k).scale(scale))


def test_s_mode_psi_exists_and_is_invertible():
    # T_S(Pi', Omega^N) ~ T_S(Pi, Omega^0) over S(d, chi): abelian3, chi = 0
    H = hopf_for("abelian3")
    chi0 = H.lie.zero_trace_form()
    TN = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 3))
    T0 = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 0))
    sols = solve_intertwiner(TN, T0, 2, "S", chi0)
    assert len(sols) >= 1
    # pick a solution with invertible generator image (degree-0 coefficient)
    good = [s for s in sols if s[0].coefficient(mi_zero(3))[0] != 0]
    assert good, "no invertible intertwiner found"


@pytest.mark.parametrize("name, mode, fil", [("abelian2", "W", 2), ("heis3", "S", 2)])
def test_oracle_applies_each_pseudoaction_once_per_column(monkeypatch, name, mode, fil):
    H = hopf_for(name)
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    chi = H.lie.zero_trace_form() if mode == "S" else None
    expect = sing_solve(T, fil, mode, chi).basis
    runs = count_kernel_runs(monkeypatch)
    res = sing_solve_oracle(T, fil, mode, chi)
    assert 0 < len(runs) <= H.n * len(T.basis_upto(fil))
    assert [v.serialize() for v in res.basis] == [v.serialize() for v in expect]


@pytest.mark.parametrize("mode", ["W", "S"])
def test_oracle_refuses_a_validity_below_its_largest_x_k(mode):
    # the oracle pairs with x_K up to |K| = fil + PAPER_BOUND + 1, the least
    # --trunc the CLI accepts; below it those x_K would vanish
    H = hopf_for("heis3")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    chi = H.lie.zero_trace_form() if mode == "S" else None
    least = 2 + PAPER_BOUND[mode] + 1
    at_bound = sing_solve_oracle(T, 2, mode, chi, validity=least)
    assert [v.serialize() for v in at_bound.basis] == [
        v.serialize() for v in sing_solve(T, 2, mode, chi).basis if v.degree() <= 2]
    with pytest.raises(TruncationExceeded, match=f"up to degree {least} but validity is {least - 1}"):
        sing_solve_oracle(T, 2, mode, chi, validity=least - 1)


@pytest.mark.parametrize("name", ["abelian3", "heis3", "sl2", "solv3"])
def test_oracle_matches_the_element_by_element_loop(monkeypatch, name):
    # W on Omega^0..Omega^3 and S on Omega^1, Omega^2, trivial Pi: the batched
    # annihilation action gives the oracle's basis, key order included
    H = hopf_for(name)
    chi0 = H.lie.zero_trace_form()
    cases = [(n, "W", None) for n in range(4)] + [(n, "S", chi0) for n in (1, 2)]
    Ts = [tensor_module(H, trivial_pi(H), omega_rep(H.lie, n)) for n, _m, _c in cases]

    def bases():
        return [[list(v.terms.items()) for v in sing_solve_oracle(T, 2, mode, chi).basis]
                for T, (_n, mode, chi) in zip(Ts, cases)]

    got = bases()
    monkeypatch.setattr(modules, "ann_action", ann_action_element_by_element)
    assert got == bases()


_SMALL_RATIONALS = st.fractions(min_value=-2, max_value=2, max_denominator=3)


# no shrinking: each example takes a fraction of a second, and a failing one
# names its matrix and U already
@settings(max_examples=6, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.lists(_SMALL_RATIONALS, min_size=4, max_size=4), st.integers(0, 2))
def test_solver_matches_oracle_on_semidirect_k_k2(entries, omega):
    H = semidirect_k_k2(entries)
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, omega))
    res = sing_solve(T, 2, "W")
    oracle = sing_solve_oracle(T, 2, "W")
    assert res.degree_profile()[0] == T.dim  # the ground level is always singular
    assert [v.serialize() for v in oracle.basis] == [v.serialize() for v in res.basis]


@settings(max_examples=6, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.lists(_SMALL_RATIONALS, min_size=8, max_size=8))
def test_twist_identities_on_semidirect_k_k2(entries):
    # b1 -> any 2x2 matrix A, b2, b3 -> 0 is a d-representation of
    # k b1 (semidirect) k^2, since [d, d] lies in span(b2, b3)
    H = semidirect_k_k2(entries[:4])
    zero = mat([[0, 0], [0, 0]])
    pi = RepData.d_rep(H.lie, (mat([entries[4:6], entries[6:8]]), zero, zero))
    u = omega_rep(H.lie, 1)
    direct = tensor_module(H, pi, u)
    twisted = twist_module(pi, tensor_module(H, trivial_pi(H), u))
    assert all(direct.table[i][k].eq(twisted.table[i][k])
               for i in range(H.n) for k in range(direct.dim))
    report = checks.twist_conjugation(H, pi, 2)
    assert report.ok, report.first_failure


def _action_by_mul_second(V, i, v, orient):
    """The reference formula sum c * mul_second(table[i][k], b^(I)) over the
    terms c b^(I) (x) u_k of v, on the table converted to `orient`, with the
    terms of one b^(I) summed first."""
    out = PseudoValue.zero(V.hopf, orient)
    for I, row in v.terms.items():
        at_I = PseudoValue.zero(V.hopf, orient)
        for k, c in enumerate(row):
            at_I = at_I.add(V.table[i][k].convert(orient).scale(c))
        out = out.add(mul_second(at_I, V.hopf.mono(I)))
    return out


@functools.lru_cache(maxsize=None)
def _kernel_module(name, kind):
    H = hopf_for(name)
    if kind == "tensor":
        return tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    if kind == "dual":
        return dual_module(tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1)))
    if kind == "twist":
        return twist_module(H.lie.adjoint(), tensor_module(H, trivial_pi(H), trivial_u(H)))
    return shifted_module(H, trivial_pi(H), omega_rep(H.lie, 1))


_NONZERO_COEFFS = st.sampled_from([Fraction(c) for c in ("-2", "-1", "-1/2", "1/3", "1", "3/2")])


# no shrinking: a failing example names its algebra, module, actor and vector
@settings(max_examples=10, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from(list(itertools.product(["abelian3", "heis3", "sl2", "solv3"],
                                              ["tensor", "dual", "twist", "shifted"]))),
       st.integers(0, 2), st.integers(0, 2), st.integers(1, 3), st.data())
def test_action_kernel_matches_the_mul_second_formula(module, i, s_index, deg, data):
    V = _kernel_module(*module)
    H = V.hopf
    slots = mi_below(H.n, deg)
    coeffs = data.draw(st.lists(_NONZERO_COEFFS, min_size=V.dim * len(slots),
                                max_size=V.dim * len(slots)))
    v = ModuleVector(H, V.dim, {I: tuple(coeffs[V.dim * m:V.dim * (m + 1)])
                                for m, I in enumerate(slots)})
    for orient in (LEFT, RIGHT):
        got = V.action_pv(i, v, orient)
        assert got.orient == orient, orient
        assert got.eq(_action_by_mul_second(V, i, v, orient)), (module, i, orient)
    # w_star in either form is sum_a ((h_a (x) 1) (x)_H 1)((1 (x) b_a) * v)
    _ab, s = WAlgebra(H).s_generators(H.lie.zero_trace_form())[s_index]
    expect = PseudoValue.zero(H)
    for a, h in enumerate(s.comps):
        expect = expect.add(mul_first(V.action_pv(a, v, LEFT), h))
    for orient in (LEFT, RIGHT):
        got = V.w_star(s, v, orient)
        assert got.orient == orient and got.eq(expect), (module, s_index, orient)


# a nonzero trace form on each algebra that has one (sl2 = [sl2, sl2] has none)
_NONZERO_CHI = {"abelian3": (1, -2, Fraction(1, 2)), "heis3": (1, -2, 0), "solv3": (1, 0, -2)}


def _w_star_by_mul_first(V, w, v):
    """sum_a mul_first((1 (x) b_a) * v, h_a), one PseudoValue add per term:
    the composition the left form of w_star folds, key order included."""
    out = PseudoValue.zero(V.hopf, LEFT)
    for a, h in enumerate(w.comps):
        if not h.is_zero():
            out = out.add(mul_first(V.action_pv(a, v, LEFT), h))
    return out


def test_w_star_fold_matches_the_mul_first_composition():
    # values and key order at both levels (M, then N within each vector);
    # a zero fold or an actor 1 (x) b_a would check nothing here
    rng = random.Random(13)
    coeffs = [Fraction(c) for c in ("1", "-1", "2", "-3", "1/2", "-2/3")]
    checked = 0
    for module in itertools.product(["abelian3", "heis3", "sl2", "solv3"],
                                    ["tensor", "dual", "twist", "shifted"]):
        V = _kernel_module(*module)
        H = V.hopf
        walg = WAlgebra(H)
        actors = [s for _ab, s in walg.s_generators(H.lie.zero_trace_form())]
        if H.lie.name in _NONZERO_CHI:
            chi = TraceForm(H.lie, tuple(map(Fraction, _NONZERO_CHI[H.lie.name])))
            with_chi = [s for _ab, s in walg.s_generators(chi)]
            # chi(b_a) puts a constant term into some h_a
            assert any(mi_zero(H.n) in h.coeffs for s in with_chi for h in s.comps)
            actors += with_chi
        for _ in range(3):
            v = V.zero_vector()
            for I, k in rng.sample(V.basis_upto(3), 5):
                v = v.add(V.unit(k, I).scale(rng.choice(coeffs)))
            # a width-n actor with non-unit coefficients, as module_defect feeds
            # the carriers of a bracket back in
            carrier = ModuleVector(H, H.n, {I: tuple(rng.choice(coeffs) for _ in range(H.n))
                                           for I in rng.sample(mi_below(H.n, 2), 3)})
            for w in actors + [carrier]:
                got, want = V.w_star(w, v, LEFT), _w_star_by_mul_first(V, w, v)
                assert got.orient == LEFT and list(got.terms) == list(want.terms), module
                for M, mv in want.terms.items():
                    assert list(got.terms[M].terms.items()) == list(mv.terms.items()), module
                assert _all_canonical(got), module
                checked += not want.is_zero()
    assert checked >= 300


@functools.lru_cache(maxsize=None)
def _omega_module(name, n):
    H = hopf_for(name)
    return tensor_module(H, trivial_pi(H), omega_rep(H.lie, n))


def _as_dict(pv):
    return {M: dict(mv.terms) for M, mv in pv.terms.items()}


# no shrinking: a failing example names its algebra, degree, trace form and actor
@pytest.mark.parametrize("name, n, chi_name", itertools.product(
    ["abelian3", "heis3", "sl2", "solv3"], range(4), ["zero", "tr_ad"]))
@settings(max_examples=3, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.data())
def test_right_form_w_star_matches_the_per_vector_fold(name, n, chi_name, data):
    # the actor rows w * u_k applied to v give the fold of v's own actions
    case = (name, n, chi_name)
    V = _omega_module(name, n)
    H = V.hopf
    chi = H.lie.zero_trace_form() if chi_name == "zero" else H.lie.tr_ad()
    actors = [(f"s_{a + 1}{b + 1}", s) for (a, b), s in WAlgebra(H).s_generators(chi)]
    # a width-n actor whose h_a all reach degree 2, with lower terms besides
    slots = mi_below(H.n, 2)
    top = data.draw(st.sampled_from([J for J in slots if mi_deg(J) == 2]))
    lower = data.draw(st.lists(st.sampled_from([J for J in slots if mi_deg(J) < 2]),
                               max_size=3, unique=True))
    rows = [st.lists(_NONZERO_COEFFS, min_size=H.n, max_size=H.n)] + \
        [st.lists(_NONZERO_COEFFS | st.just(0), min_size=H.n, max_size=H.n)] * len(lower)
    carrier = ModuleVector(H, H.n, {J: tuple(data.draw(row))
                                   for J, row in zip([top] + lower, rows)})
    actors.append(("carrier", carrier))
    units = V.basis_upto(2)
    terms = data.draw(st.lists(st.tuples(st.sampled_from(units), _NONZERO_COEFFS), min_size=1,
                               max_size=5))
    v = V.zero_vector()
    for (I, k), c in terms:
        v = v.add(V.unit(k, I).scale(c))
    for label, w in actors:
        got, want = V.w_star(w, v, RIGHT), w_star_right_by_vector(V, w, v)
        assert got.orient == RIGHT and _as_dict(got) == _as_dict(want), (case, label)
        assert _all_canonical(got), (case, label)


def test_s_mode_singular_folds_once_per_actor_row(monkeypatch, capsys):
    # singular heis3 S omega:1: three actors s_ab, each with one row per
    # generator of Omega^1, and the right-form solve expands no unit
    counts = {"convert": 0, "from_tensor": 0}
    _count_calls(monkeypatch, counts)
    expanded_after_solve = []
    real_solve = cli.sing_solve

    def sing_solve(T, *args):
        res = real_solve(T, *args)
        expanded_after_solve.append(dict(T._expanded))
        return res

    monkeypatch.setattr(cli, "sing_solve", sing_solve)
    assert cli.main(["singular", "--alg", "heis3", "--mode", "S", "--u", "omega:1"]) == 0
    capsys.readouterr()
    assert counts["from_tensor"] == 3 * 3
    assert expanded_after_solve == [{}]


def test_a_vector_or_actor_of_the_wrong_width_is_refused():
    H = hopf_for("heis3")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    walg = WAlgebra(H)
    with pytest.raises(DimensionMismatch, match="width 3, not 1"):
        T.action_pv(0, ModuleVector.unit(H, 1, 0))
    with pytest.raises(DimensionMismatch, match="width 3, not 1"):
        T.w_star(walg.gen(0), ModuleVector.unit(H, 1, 0), RIGHT)
    with pytest.raises(DimensionMismatch, match="actor of width 3, not 2"):
        T.w_star(ModuleVector.unit(H, 2, 1), T.unit(0))
    # a refused vector is not kept, and the right widths still act
    assert not T.action_pv(0, T.unit(1)).is_zero()
    assert not T.w_star(walg.gen(0).add(walg.gen(1)), T.unit(1)).is_zero()


def _count_calls(monkeypatch, counts):
    real_convert, real_from_tensor = PseudoValue.convert, PseudoValue.from_tensor

    def convert(self, orient):
        counts["convert"] += 1
        return real_convert(self, orient)

    def from_tensor(cls, *args, **kwargs):
        counts["from_tensor"] += 1
        return real_from_tensor(*args, **kwargs)

    monkeypatch.setattr(PseudoValue, "convert", convert)
    monkeypatch.setattr(PseudoValue, "from_tensor", classmethod(from_tensor))


def test_w_mode_solve_reads_the_right_normal_table(monkeypatch):
    # the right-normal table is converted once, one convert per entry; after
    # that a W-mode solve does no renormalisation at all
    H = hopf_for("heis3")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    counts = {"convert": 0, "from_tensor": 0}
    _count_calls(monkeypatch, counts)
    first = sing_solve(T, 2, "W")
    assert counts == {"convert": H.n * T.dim, "from_tensor": 0}
    counts.update(convert=0)
    second = sing_solve(T, 2, "W")
    assert counts == {"convert": 0, "from_tensor": 0}
    assert [v.serialize() for v in first.basis] == [v.serialize() for v in second.basis]
    assert first.degree_profile() == {0: 3, 1: 1}


@pytest.mark.parametrize("name, mode", [("heis3", "W"), ("abelian3", "S")])
def test_closure_converts_at_most_once_per_action(monkeypatch, name, mode):
    H = hopf_for(name)
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    chi = H.lie.zero_trace_form() if mode == "S" else None
    gens = [v for v in sing_solve(T, 2, mode, chi).basis if v.degree() > 0]
    counts = {"convert": 0, "from_tensor": 0}
    _count_calls(monkeypatch, counts)
    # the closure reads the left-form store of each action; a call of
    # w_star, in either form, counts as an action too
    acts = []
    real_w_star, real_store = ModuleSpec.w_star, ModuleSpec.w_star_store

    def w_star(self, w, v, orient=LEFT):
        acts.append(orient)
        return real_w_star(self, w, v, orient)

    def w_star_store(self, w, v):
        acts.append(LEFT)
        return real_store(self, w, v)

    monkeypatch.setattr(ModuleSpec, "w_star", w_star)
    monkeypatch.setattr(ModuleSpec, "w_star_store", w_star_store)
    clo = submodule_closure(T, gens, 2, mode, chi)
    assert gens and clo.dim > 0
    assert set(acts) == {LEFT} and 0 < counts["convert"] <= len(acts)


@pytest.mark.parametrize("name, mode", [("heis3", "W"), ("abelian3", "S")])
def test_closure_ignores_cancelled_entries_of_the_store(monkeypatch, name, mode):
    # the kernel store keeps an (M, N) whose coordinates cancel, above the
    # closure's working degree too; such an entry, put first under every M,
    # changes neither which components are pushed nor the closure
    H = hopf_for(name)
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    chi = H.lie.zero_trace_form() if mode == "S" else None
    gens = [T.unit(0, mi_unit(H.n, 1))]
    want = submodule_closure(T, gens, 2, mode, chi)
    above = tuple(4 * x for x in mi_unit(H.n, 0))  # degree 4 > fil_bound + 1
    real_store = ModuleSpec.w_star_store

    def w_star_store(self, w, v):
        return {M: {above: [0] * self.dim, **at_m} for M, at_m in real_store(self, w, v).items()}

    monkeypatch.setattr(ModuleSpec, "w_star_store", w_star_store)
    got = submodule_closure(T, gens, 2, mode, chi)
    assert got.dim == want.dim > 0
    assert [list(v.terms.items()) for v in got.basis] == \
        [list(v.terms.items()) for v in want.basis]


def test_closure_acts_once_per_queued_vector_and_generator(monkeypatch):
    # the three s_ab of one queued vector share its actions (1 (x) b_c) * v
    H = hopf_for("abelian3")
    T = tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
    chi = H.lie.zero_trace_form()
    gens = [v for v in sing_solve(T, 2, "S", chi).basis if v.degree() > 0]
    runs = count_kernel_runs(monkeypatch)
    clo = submodule_closure(T, gens, 2, "S", chi)
    assert gens and clo.dim > 0 and runs
    keys = [(id(v), i, orient) for v, i, orient in runs]
    assert len(set(keys)) == len(keys)
    assert {orient for _v, _i, orient in runs} == {LEFT}


def test_kept_actions_never_serve_another_vector_or_form():
    # two vectors and both forms interleaved on one module, each value
    # computed fresh or served from the kept ones
    V = _kernel_module("heis3", "tensor")
    H = V.hopf
    v1 = V.unit(0, mi_unit(H.n, 1)).add(V.unit(2).scale(Fraction(-1, 2)))
    v2 = V.unit(1, mi_unit(H.n, 0)).add(V.unit(1, mi_unit(H.n, 2)).scale(3))
    order = [(i, v, orient) for i in range(H.n) for v in (v1, v2) for orient in (LEFT, RIGHT)]
    for i, v, orient in order + order[::-1] + order[::3] + order[1::2]:
        got = V.action_pv(i, v, orient)
        assert got.orient == orient
        assert got.eq(_action_by_mul_second(V, i, v, orient)), (i, v, orient)


def _unmemoized_action_pv(V, i, v, orient):
    """(1 (x) b_i) * v by the loop that expanded every term b^(I) (x) u_k
    afresh on every call, in Fraction arithmetic: the oracle for the unit
    memo, values and key order alike."""
    return _unmemoized_kernel(V, V._flat_table(orient)[i], v, orient)


def _unmemoized_w_star_right(V, w, v):
    """w * v in right normal form by the loop of `_unmemoized_action_pv` over
    the rows w * u_k, each renormalized one term at a time from the
    right-form table (`from_tensor_by_terms`): the oracle for the actor rows
    of the kernel, values and key order alike."""
    hopf, rows = V.hopf, []
    for k in range(V.dim):
        tensors = [(h, hopf.mono(K), u) for a, h in enumerate(w.comps) if not h.is_zero()
                   for K, u in V.table[a][k].to_right().terms.items()]
        row = from_tensor_by_terms(hopf, tensors, RIGHT)
        rows.append([(K, J, [(r, c) for r, c in enumerate(coords) if c])
                     for K, u in row.terms.items() for J, coords in u.terms.items()])
    return _unmemoized_kernel(V, rows, v, RIGHT)


def _unmemoized_kernel(V, table, v, orient):
    """sum c (1 (x) b^(I))-moved rows table[k] over the terms c b^(I) (x) u_k
    of v, each term expanded afresh in Fraction arithmetic."""
    hopf, dim = V.hopf, V.dim
    acc = {}
    for I, row in v.terms.items():
        splits = [(hopf.antipode_mono(A), B) for A, B in mi_splits(I)] if orient == LEFT else ()
        for k, c in enumerate(row):
            for K, J, coords in table[k] if c else ():
                if orient == RIGHT:
                    terms = [(M, J, x) for M, x in hopf.mono_mul(I, K).items()]
                else:
                    terms = [(M, N, s * x * y) for SA, B in splits for A, s in SA.items()
                             for M, x in hopf.mono_mul(K, A).items()
                             for N, y in hopf.mono_mul(B, J).items()]
                for M, N, x in terms:
                    cur = acc.setdefault(M, {}).setdefault(N, [Fraction(0)] * dim)
                    for r, y in coords:
                        cur[r] += c * x * y
    return PseudoValue(hopf, orient, {
        M: ModuleVector(hopf, dim, {N: tuple(cur) for N, cur in at_m.items()})
        for M, at_m in acc.items()})


def _unit_by_terms(V, i, I, k):
    """(1 (x) b_i) * (b^(I) (x) u_k) in left normal form as the flat terms
    (M, N, r, x) of `ModuleSpec._expand_unit`, from every product of the
    expansion in Fraction arithmetic, one at a time: the oracle for the unit
    memo and the carry table, a cancelled (M, N) kept as (M, N, 0, 0) in its
    place."""
    hopf = V.hopf
    out = {}
    for K, J, coords in V._flat_table(LEFT)[i][k]:
        terms = [(M, N, s * x * y) for A, B in mi_splits(I)
                 for A2, s in hopf.antipode_mono(A).items()
                 for M, x in hopf.mono_mul(K, A2).items()
                 for N, y in hopf.mono_mul(B, J).items()]
        for M, N, x in terms:
            at = out.setdefault((M, N), {})
            for r, y in coords:
                at[r] = at.get(r, Fraction(0)) + x * y
    flat = []
    for (M, N), at in out.items():
        flat.extend([(M, N, r, x) for r, x in at.items() if x] or [(M, N, 0, 0)])
    return tuple(flat)


def _memo_modules():
    """A tensor and a shifted module on each preset, on the filiform n4
    ([b1, b2] = b3, [b1, b3] = b4), and on k b1 (semidirect) k^2 with
    non-integral brackets, whose expanded units hold Fractions.  The two
    modules of an algebra share its carry table (`pseudoaction._carry`)."""
    algebras = [hopf_for(name) for name in ("abelian2", "solv2", "abelian3", "heis3", "sl2", "solv3")]
    algebras.append(Hopf(LieData.from_entries(4, [(0, 1, 2, 1), (0, 2, 3, 1)], name="n4")))
    brackets = [(0, 1, 1, Fraction(1, 2)), (0, 1, 2, Fraction(-2, 3)), (0, 2, 2, Fraction(3))]
    algebras.append(Hopf(LieData.from_entries(3, brackets, name="k|x k^2")))
    for H in algebras:
        yield H.lie.name, tensor_module(H, trivial_pi(H), omega_rep(H.lie, 1))
        yield H.lie.name, shifted_module(H, trivial_pi(H), omega_rep(H.lie, 2))


def _all_canonical(pv):
    return all(canonical(x) for mv in pv.terms.values() for row in mv.terms.values() for x in row)


def test_action_pv_matches_the_unmemoized_loop(monkeypatch):
    rng = random.Random(10)
    coeffs = [Fraction(c) for c in ("1", "-1", "2", "-3", "1/2", "-2/3")]
    carried: dict = {}  # algebra -> per module, the carry keys its unit expansions read
    real_carry = pseudoaction._carry

    def carry(hopf, *key):
        carried[hopf.lie.name][-1].add(key)
        return real_carry(hopf, *key)

    monkeypatch.setattr(pseudoaction, "_carry", carry)
    checked = 0  # nonzero right-form actor values
    for name, V in _memo_modules():
        carried.setdefault(name, []).append(set())
        H = V.hopf
        slots = V.basis_upto(2)
        actors = [w for _ab, w in WAlgebra(H).s_generators(H.lie.zero_trace_form())] \
            if H.n >= 3 else []
        for _ in range(6):
            picked = rng.sample(slots, rng.randint(2, 4))
            v = V.zero_vector()
            for I, k in picked:
                v = v.add(V.unit(k, I).scale(rng.choice(coeffs)))
            # the second copy is a new object, so every unit comes from the memo
            for vec in (v, v.add(V.zero_vector())):
                for orient in (LEFT, RIGHT):
                    for i in range(H.n):
                        got = V.action_pv(i, vec, orient)
                        want = _unmemoized_action_pv(V, i, vec, orient)
                        assert list(got.terms) == list(want.terms), (name, i, orient)
                        assert all(list(got.terms[M].terms) == list(want.terms[M].terms)
                                   and got.terms[M].terms == want.terms[M].terms
                                   for M in want.terms), (name, i, orient)
                        assert _all_canonical(got), (name, i, orient)
                    for w in actors:
                        got = V.w_star(w, vec, orient)
                        assert _all_canonical(got), (name, orient)
                        if orient == RIGHT:
                            want = _unmemoized_w_star_right(V, w, vec)
                            assert list(got.terms) == list(want.terms), name
                            assert all(list(got.terms[M].terms.items())
                                       == list(want.terms[M].terms.items())
                                       for M in want.terms), name
                            checked += not want.is_zero()
        # the right form expands no unit: it reads b^(I) b^(K) off mono_mul
        for i, units in V._expanded.items():
            for (I, k), terms in units.items():
                assert terms == _unit_by_terms(V, i, I, k), (name, i, I, k)
        if H.lie.name == "k|x k^2":
            assert any(type(x) is Fraction for units in V._expanded.values()
                       for terms in units.values() for _M, _N, _r, x in terms), name
    # the two modules of each algebra read carry entries in common
    assert all(len(keys) == 2 and keys[0] & keys[1] for keys in carried.values())
    assert checked >= 400


# ---------------------------------------------------------------------------
# H-multiplication and module maps against the Fraction loops
# ---------------------------------------------------------------------------

_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_MOD_COEFFS = st.sampled_from([Fraction(c) for c in ("1", "-1", "2", "-3", "1/2", "-2/3")])


def _same_vector(got: ModuleVector, want: ModuleVector) -> bool:
    """Equal coordinates in the same key order, every coordinate canonical."""
    return (list(got.terms.items()) == list(want.terms.items())
            and all(canonical(x) for row in got.terms.values() for x in row))


def _draw_vector(data, H, width, min_terms=0):
    rows = data.draw(st.dictionaries(st.sampled_from(mi_below(H.n, 2)),
                                     st.lists(_MOD_COEFFS | st.just(Fraction(0)),
                                              min_size=width, max_size=width),
                                     min_size=min_terms, max_size=3))
    return ModuleVector(H, width, {I: tuple(row) for I, row in rows.items()})


def _matches_the_fraction_module_loops(H, data) -> None:
    """hmul and apply_map of drawn vectors, elements and images agree with
    the Fraction loops, values, key order and Fraction coordinates alike.
    The images end with -images[0] and images[0], met with the same
    coefficients at degree 0, so the keys of images[0] cancel and return."""
    width = data.draw(st.integers(1, 3))
    v = _draw_vector(data, H, width, min_terms=2)
    h = H.element(data.draw(st.dictionaries(st.sampled_from(mi_below(H.n, 2)),
                                            _RATIONALS.filter(bool), min_size=2, max_size=3)))
    assert _same_vector(v.hmul(h), hmul_by_terms(v, h))
    images = [_draw_vector(data, H, width) for _ in range(data.draw(st.integers(1, 3)))]
    images += [images[0].scale(-1), images[0]]
    u = _draw_vector(data, H, len(images))
    c = data.draw(_MOD_COEFFS)
    zero = mi_zero(H.n)
    terms = dict(u.terms)
    row = list(terms.pop(zero, (Fraction(0),) * len(images)))
    row[0] = row[-2] = row[-1] = c
    u = ModuleVector(H, len(images), {zero: tuple(row), **terms})
    assert _same_vector(apply_map(images, u), apply_map_by_terms(images, u))


@settings(max_examples=40, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from(["abelian2", "abelian3", "heis3", "sl2", "solv2", "solv3"]), st.data())
def test_hmul_and_apply_map_match_the_fraction_loops_on_the_presets(name, data):
    _matches_the_fraction_module_loops(hopf_for(name), data)


@settings(max_examples=25, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.lists(_RATIONALS, min_size=4, max_size=4), st.data())
def test_hmul_and_apply_map_match_the_fraction_loops_on_semidirect_k_k2(entries, data):
    _matches_the_fraction_module_loops(semidirect_k_k2(entries), data)


def test_apply_map_appends_a_key_that_cancels_and_returns():
    # b^(0) cancels at the second image and returns with the third, so it
    # goes after b^(1) and b^(2), as when the images are added one at a time
    H = hopf_for("abelian1")
    one, half = (Fraction(1),), (Fraction(1, 2),)
    images = [ModuleVector(H, 1, {(0,): one, (1,): half}),
              ModuleVector(H, 1, {(0,): (Fraction(-1),), (2,): one}),
              ModuleVector(H, 1, {(0,): (Fraction(3),)})]
    v = ModuleVector(H, 3, {(0,): (Fraction(2), Fraction(2), Fraction(1))})
    got = apply_map(images, v)
    assert list(got.terms) == [(1,), (2,), (0,)]
    assert _same_vector(got, apply_map_by_terms(images, v))
    assert got.terms == {(1,): one, (2,): (Fraction(2),), (0,): (Fraction(3),)}


def test_hmul_keeps_the_order_of_its_loops():
    # b^(I) for I of v outermost, then the terms J of h: b^(0,1) comes from
    # the first term of v times the second of h, before b^(1,0)
    H = hopf_for("abelian2")
    v = ModuleVector(H, 1, {(0, 0): (Fraction(1),), (1, 0): (Fraction(2),)})
    h = H.element({(0, 0): 1, (0, 1): Fraction(1, 2)})
    got = v.hmul(h)
    assert list(got.terms) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert _same_vector(got, hmul_by_terms(v, h))
