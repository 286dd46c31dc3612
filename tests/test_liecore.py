import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from liepseudo.cli import load_algebra, load_pi
from liepseudo.errors import AntisymmetryViolation, JacobiViolation, RepInvalid
from liepseudo.liecore import (
    PRESET_NAMES,
    LieData,
    RepData,
    TraceForm,
    box_tensor,
    mat,
    mat_add,
    mat_apply,
    mat_comm,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_trace,
    omega_rep,
    preset,
    sym2_dual_rep,
    wedge_basis,
    zero_matrix,
)

from conftest import canonical

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_abelian_validates():
    preset("abelian2").validate()


def test_sl2_validates():
    preset("sl2").validate()


def test_heis3_solv2_validate():
    preset("heis3").validate()
    preset("solv2").validate()


def test_antisymmetry_conflict_rejected():
    # [b1, b2] = b1 entered together with c_21^1 = +1 contradicts antisymmetry
    with pytest.raises(AntisymmetryViolation):
        LieData.from_entries(2, [(0, 1, 0, 1), (1, 0, 0, 1)])


def test_a_bracket_entry_out_of_range_is_named_1_based():
    with pytest.raises(AntisymmetryViolation) as exc:
        LieData.from_entries(2, [(0, 2, 0, 1)])
    assert str(exc.value) == "[b_1, b_3] -> b_1 out of range 1..2"


def test_jacobi_violation_names_triple():
    bad = LieData.from_entries(3, [(0, 1, 0, 1), (0, 2, 2, 1)])
    with pytest.raises(JacobiViolation) as exc:
        bad.validate()
    assert exc.value.triple == (0, 1, 2)
    assert any(exc.value.defect)
    # the defect reads as reports print numbers: -1/2, not Fraction(-1, 2)
    frac = LieData.from_entries(3, [(0, 1, 0, 1), (0, 2, 2, Fraction(1, 2))])
    with pytest.raises(JacobiViolation) as exc:
        frac.validate()
    assert str(exc.value) == "Jacobi identity fails on basis triple (1, 2, 3): defect (0, 0, -1/2)"


def test_adjoint_and_trace_form():
    solv2 = preset("solv2")
    ad = solv2.adjoint()
    ad.validate()
    tr = solv2.tr_ad()
    assert tr.values == (Fraction(1), Fraction(0))
    assert preset("sl2").tr_ad().values == (0, 0, 0)
    assert preset("abelian3").tr_ad().values == (0, 0, 0)


def test_omega0_is_trivial():
    rep = omega_rep(preset("abelian2"), 0)
    assert all(mat_is_zero(rep.gl_matrix(i, j)) for i in range(2) for j in range(2))


def test_omega1_matches_hand_expansion():
    rep = omega_rep(preset("abelian2"), 1)
    # e_1^1 acts on (x^1, x^2) as diag(-1, 0)
    assert rep.gl_matrix(0, 0) == ((Fraction(-1), 0), (0, Fraction(0)))
    # e_2^1 maps x^2 to -x^1 and kills x^1 (e_i^j . x^k = -delta_i^k x^j)
    assert rep.gl_matrix(1, 0) == ((Fraction(0), Fraction(-1)), (Fraction(0), Fraction(0)))


@pytest.mark.parametrize("name", ["abelian2", "abelian3", "heis3", "sl2"])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_omega_rep_identity_scalar_and_relations(name, n):
    lie = preset(name)
    if n > lie.dim:
        pytest.skip("degree exceeds dimension")
    rep = omega_rep(lie, n)
    rep.validate()
    assert rep.id_scalar() == -n


def test_sym2_dual_rep_relations_and_scalar():
    for name in ("abelian2", "sl2"):
        rep = sym2_dual_rep(preset(name))
        rep.validate()
        assert rep.id_scalar() == -2


def test_box_tensor_dimensions_and_relations():
    lie = preset("solv2")
    pi = lie.adjoint()
    u = omega_rep(lie, 1)
    d_part, gl_part = box_tensor(pi, u)
    d_part.validate()
    gl_part.validate()
    assert d_part.dim == gl_part.dim == 4


def test_with_id_scalar_shifts_only_trace():
    rep = omega_rep(preset("abelian3"), 1)
    shifted = rep.with_id_scalar(0)
    assert shifted.id_scalar() == 0
    # off-diagonal generators untouched
    assert shifted.gl_matrix(0, 1) == rep.gl_matrix(0, 1)


def test_rep_validation_catches_errors():
    lie = preset("sl2")
    bad = RepData.d_rep(lie, tuple(((Fraction(i + 1),),) for i in range(3)))
    with pytest.raises(RepInvalid):
        bad.validate()


def _first_gl_failure_on_all_pairs(rep):
    """The gl relations checked on all n^4 ordered pairs, in lexicographic
    order: the message of the first failing pair, or None."""
    n = rep.lie.dim
    for i, j, k, l in itertools.product(range(n), repeat=4):
        got = mat_comm(rep.gl_matrix(i, j), rep.gl_matrix(k, l))
        expect = zero_matrix(rep.dim)
        if j == k:
            expect = mat_add(expect, rep.gl_matrix(i, l))
        if i == l:
            expect = mat_add(expect, mat_scale(Fraction(-1), rep.gl_matrix(k, j)))
        if got != expect:
            return f"gl commutation fails on (e_{i+1}^{j+1}, e_{k+1}^{l+1})"
    return None


@pytest.mark.parametrize("name", ["abelian2", "heis3", "sl2"])
def test_gl_validation_names_the_first_failing_pair_of_all_ordered_pairs(name):
    lie = preset(name)
    rep = omega_rep(lie, 1)
    units = list(itertools.product(range(lie.dim), repeat=2))
    m = rep.dim
    for unit, (r, c) in itertools.product(units, [(0, 0), (0, m - 1), (m - 1, 0)]):
        bump = mat([[Fraction(1, 2) if (p, q) == (r, c) else 0 for q in range(m)]
                    for p in range(m)])
        mats = {u: rep.gl_matrix(*u) for u in units}
        mats[unit] = mat_add(mats[unit], bump)
        bad = RepData.gl_rep(lie, mats)
        expect = _first_gl_failure_on_all_pairs(bad)
        assert expect is not None, (unit, r, c)
        with pytest.raises(RepInvalid) as exc:
            bad.validate()
        assert str(exc.value) == expect, (unit, r, c)


def test_wedge_basis_sizes():
    assert len(wedge_basis(3, 2)) == 3
    assert wedge_basis(2, 1) == [(0,), (1,)]


# -- the coefficient rule, against Fraction references -------------------------

# the bracket entries of each algebra as written, 1-based as in algebra JSON
BRACKETS = {
    "abelian1": [], "abelian2": [], "abelian3": [],
    "heis3": [[1, 2, 3, "1"]],
    "sl2": [[1, 2, 1, "-2"], [1, 3, 2, "1"], [2, 3, 3, "-2"]],
    "solv2": [[1, 2, 2, "1"]],
    "solv3": [[1, 2, 2, "1"]],
    "alg_frac3.json": json.loads((GOLDEN / "alg_frac3.json").read_text())["brackets"],
}
# a trace form of each algebra with a 1/2 where [d, d] leaves room (sl2 = [sl2, sl2])
CHI = {
    "abelian1": ["1/2"], "abelian2": ["1/2", "1"], "abelian3": ["1/2", "1", "0"],
    "heis3": ["1/2", "1", "0"], "sl2": ["0", "0", "0"], "solv2": ["1/2", "0"],
    "solv3": ["1/2", "0", "1"], "alg_frac3.json": ["1/2", "0", "0"],
}
# sl2's standard representation on (e, h, f), conjugated so that e -> E_12 / 2
SL2_PI = [[["0", "1/2"], ["0", "0"]], [["1", "0"], ["0", "-1"]], [["0", "0"], ["2", "0"]]]


def _fraction_brackets(name: str, dim: int) -> dict:
    """[b_i, b_j] as {k: Fraction} for every ordered pair, from BRACKETS."""
    out = {(i, j): {} for i in range(dim) for j in range(dim)}
    for i, j, k, c in BRACKETS[name]:
        out[i - 1, j - 1][k - 1] = Fraction(c)
        out[j - 1, i - 1][k - 1] = -Fraction(c)
    return out


def _eye(m: int) -> list:
    return [[Fraction(int(r == c)) for c in range(m)] for r in range(m)]


def _combination(terms, m: int) -> list:
    """sum c * M over the (c, M) of `terms`, in Fractions."""
    return [[sum((Fraction(c) * M[r][s] for c, M in terms), Fraction(0)) for s in range(m)]
            for r in range(m)]


def _product(a, b) -> list:
    return [[sum((Fraction(a[r][k]) * b[k][c] for k in range(len(b))), Fraction(0))
             for c in range(len(b[0]))] for r in range(len(a))]


def _kron(a, b) -> list:
    m = len(b)
    return [[Fraction(a[r // m][c // m]) * b[r % m][c % m] for c in range(len(a) * m)]
            for r in range(len(a) * m)]


def _fraction_omega(N: int, n: int, i: int, j: int) -> list:
    """e_i^j on Lambda^n d* by its definition: e_i^j x^k = -delta_ik x^j,
    extended as a derivation; column S is the image of x^S."""
    basis = wedge_basis(N, n)
    out = [[Fraction(0)] * len(basis) for _ in basis]
    for col, S in enumerate(basis):
        for r, s in enumerate(S):
            word = S[:r] + (j,) + S[r + 1:]
            if s == i and len(set(word)) == n:
                inversions = sum(1 for a, b in itertools.combinations(word, 2) if a > b)
                out[basis.index(tuple(sorted(word)))][col] -= (-1) ** inversions
    return out


def _fraction_sym2(N: int, i: int, j: int) -> list:
    """e_i^j on S^2 d*: e_i^j (x^a x^b) = -delta_ia x^j x^b - delta_ib x^a x^j."""
    basis = [(a, b) for a in range(N) for b in range(a, N)]
    out = [[Fraction(0)] * len(basis) for _ in basis]
    for col, (a, b) in enumerate(basis):
        for pos, other in ((a, b), (b, a)):
            if pos == i:
                out[basis.index(tuple(sorted((j, other))))][col] -= 1
    return out


def _same(got, want) -> None:
    """got has canonical entries, equal to the Fraction matrix `want`."""
    assert all(canonical(x) for row in got for x in row), got
    assert [list(row) for row in got] == want


@pytest.mark.parametrize("name", PRESET_NAMES + ("alg_frac3.json",))
def test_liecore_values_are_canonical(name, tmp_path):
    # each value is canonical and equal to its Fraction value: the algebra is
    # built here, so no memo of a shared LieData answers for it
    lie = preset(name) if name in PRESET_NAMES else load_algebra(str(GOLDEN / name))[0]
    N = lie.dim
    units = list(itertools.product(range(N), repeat=2))
    brackets = _fraction_brackets(name, N)
    for (i, j), want in brackets.items():
        got = lie.bracket(i, j)
        assert all(canonical(c) for c in got.values()) and got == want, (i, j)
    # the constructor keeps a table built with Fractions canonical too
    again = LieData(N, tuple((i, j, tuple((k, Fraction(c)) for k, c in terms))
                             for i, j, terms in lie.table))
    assert again.table == lie.table
    assert all(canonical(c) for _i, _j, terms in again.table for _k, c in terms)
    ad = lie.adjoint()
    for i in range(N):
        _same(ad.d_matrix(i), [[brackets[i, j].get(k, Fraction(0)) for j in range(N)]
                               for k in range(N)])
    A = [[Fraction(r + 1, c + 1) for c in range(N)] for r in range(N)]  # 1/2 and 2 among them
    for n in range(N + 1):
        rep, m = omega_rep(lie, n), len(wedge_basis(N, n))
        want = {u: _fraction_omega(N, n, *u) for u in units}
        for u in units:
            _same(rep.gl_matrix(*u), want[u])
        _same(rep.gl_of(A), _combination([(A[i][j], want[i, j]) for i, j in units], m))
        for s in (0, Fraction(1, 2)):
            shifted = rep.with_id_scalar(s)
            for i, j in units:
                extra = Fraction(s + n) / N if i == j else 0
                _same(shifted.gl_matrix(i, j), _combination([(1, want[i, j]), (extra, _eye(m))], m))
            for u, w in itertools.product(units[:3], repeat=2):
                a, b = shifted.gl_matrix(*u), shifted.gl_matrix(*w)
                _same(mat_mul(a, b), _product(a, b))
                _same(mat_comm(a, b), _combination([(1, _product(a, b)), (-1, _product(b, a))], m))
    sym2 = sym2_dual_rep(lie)
    for u in units:
        _same(sym2.gl_matrix(*u), _fraction_sym2(N, *u))
    # Pi parsed by the CLI: every entry reaches RepData as a Fraction
    mats = SL2_PI if name == "sl2" else [[[c]] for c in CHI[name]]
    (tmp_path / "pi.json").write_text(json.dumps({"dim": len(mats[0]), "mats": mats}))
    rank, build_pi = load_pi(lie, str(tmp_path / "pi.json"), {})
    pi = build_pi()
    assert rank == pi.dim
    pi_want = [[[Fraction(x) for x in row] for row in mat_] for mat_ in mats]
    for i in range(N):
        _same(pi.d_matrix(i), pi_want[i])
    u1 = omega_rep(lie, 1)
    d_part, gl_part = box_tensor(pi, u1)
    for i in range(N):
        _same(d_part.d_matrix(i), _kron(pi_want[i], _eye(N)))
    for u in units:
        _same(gl_part.gl_matrix(*u), _kron(_eye(pi.dim), _fraction_omega(N, 1, *u)))
    form = TraceForm(lie, tuple(Fraction(c) for c in CHI[name]))
    assert all(canonical(c) for c in form.values)
    assert list(form.values) == [Fraction(c) for c in CHI[name]]
    twisted = pi.twist_by(form)
    for i in range(N):
        _same(twisted.d_matrix(i), _combination([(1, pi_want[i]), (CHI[name][i], _eye(pi.dim))],
                                                pi.dim))
    v = tuple(Fraction(r + 1, 2) for r in range(d_part.dim))
    for i in range(N):
        a = d_part.d_matrix(i)
        got = mat_apply(a, v)
        assert all(map(canonical, got))
        assert list(got) == [row[0] for row in _product(a, [[x] for x in v])]
        trace = mat_trace(a)
        assert canonical(trace)
        assert trace == sum((Fraction(a[r][r]) for r in range(len(a))), Fraction(0))
        for b in map(d_part.d_matrix, range(N)):
            _same(mat_mul(a, b), _product(a, b))
            _same(mat_comm(a, b), _combination([(1, _product(a, b)), (-1, _product(b, a))], len(a)))
