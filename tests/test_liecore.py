import itertools
from fractions import Fraction

import pytest

from liepseudo.errors import AntisymmetryViolation, JacobiViolation, RepInvalid
from liepseudo.liecore import (
    LieData,
    RepData,
    box_tensor,
    mat,
    mat_add,
    mat_comm,
    mat_is_zero,
    mat_scale,
    omega_rep,
    preset,
    sym2_dual_rep,
    wedge_basis,
    zero_matrix,
)


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


def test_jacobi_violation_names_triple():
    bad = LieData.from_entries(3, [(0, 1, 0, 1), (0, 2, 2, 1)])
    with pytest.raises(JacobiViolation) as exc:
        bad.validate()
    assert exc.value.triple == (0, 1, 2)
    assert any(exc.value.defect)


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
