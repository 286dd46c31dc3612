import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liepseudo.dualx import XElement
from liepseudo.errors import TruncationExceeded
from liepseudo.hopf import mi_below
from liepseudo.liecore import PRESET_NAMES

from conftest import hopf_for

D = 6


def test_defining_pairing():
    H = hopf_for("abelian2")
    x1 = XElement.coord(H, 0, D)
    assert x1.pair(H.gen(0)) == 1
    assert x1.pair(H.gen(1)) == 0
    x11 = XElement.mono(H, (1, 1), validity=D)
    assert x11.pair(H.mono((1, 1))) == 1


def test_pairing_with_divided_powers():
    # x^1 x^1 = x_(2,0) pairs to 2 against b_1 b_1 = 2 b^(2,0)
    H = hopf_for("abelian2")
    x1 = XElement.coord(H, 0, D)
    h = H.gen(0) * H.gen(0)
    assert (x1 * x1).pair(h) == 2


def test_product_is_index_addition():
    H = hopf_for("abelian3")
    x1, x2 = XElement.coord(H, 0, D), XElement.coord(H, 1, D)
    prod = x1 * x2
    assert prod.coeffs == {(1, 1, 0): Fraction(1)}
    cube = x1 * x1 * x1
    assert cube.coeffs == {(3, 0, 0): Fraction(1)}
    assert cube.validity == D


def test_unit_functional_is_ring_unit(any_preset):
    H = any_preset
    one = XElement.unit(H, D)
    y = XElement.mono(H, tuple([1] * min(2, H.n) + [0] * (H.n - min(2, H.n))), "2/3", D)
    assert (one * y).coeffs == y.coeffs


def test_truncation_exceeded():
    H = hopf_for("abelian1")
    x = XElement.coord(H, 0, 2)
    with pytest.raises(TruncationExceeded):
        x.pair(H.mono((3,)))


def test_abelian_left_action_is_derivative():
    # b_1 acts as -d/dt^1 and x_(2,0) = (t^1)^2, so the image is -2 x_(1,0)
    H = hopf_for("abelian2")
    x20 = XElement.mono(H, (2, 0), validity=D)
    acted = x20.act_left(H.gen(0))
    assert acted.coeffs == {(1, 0): Fraction(-2)}
    assert acted.validity == D - 1
    x1 = XElement.coord(H, 0, D)
    assert x1.act_left(H.gen(0)).coeffs == {(0, 0): Fraction(-1)}


def test_ldacton_left_and_right(any_preset):
    # b_i x^j = -delta - sum_{k<i} c_ik^j x^k and
    # x^j b_i = -delta + sum_{k>i} c_ik^j x^k, both mod fil_1 X
    H = any_preset
    lie = H.lie
    one = XElement.unit(H, D)
    for i in range(H.n):
        for j in range(H.n):
            xj = XElement.coord(H, j, D)
            left = xj.act_left(H.gen(i))
            expect = one.scale(-1 if i == j else 0)
            for k in range(i):
                c = lie.bracket(i, k).get(j)
                if c:
                    expect = expect - XElement.coord(H, k, D).scale(c)
            assert left.eq_upto(expect, degree=1)
            right = xj.act_right(H.gen(i))
            expect_r = one.scale(-1 if i == j else 0)
            for k in range(i + 1, H.n):
                c = lie.bracket(i, k).get(j)
                if c:
                    expect_r = expect_r + XElement.coord(H, k, D).scale(c)
            assert right.eq_upto(expect_r, degree=1)


def test_coadjoint_difference(any_preset):
    # b_i x^j - x^j b_i = -sum_k c_ik^j x^k mod fil_1
    H = any_preset
    for i in range(H.n):
        for j in range(H.n):
            xj = XElement.coord(H, j, D)
            diff = xj.act_left(H.gen(i)) - xj.act_right(H.gen(i))
            expect = XElement(H, {}, D)
            for k in range(H.n):
                c = H.lie.bracket(i, k).get(j)
                if c:
                    expect = expect - XElement.coord(H, k, D).scale(c)
            assert diff.eq_upto(expect, degree=1)


def _random_x(H, rng, deg=2):
    coeffs = {}
    for I in mi_below(H.n, deg):
        if rng.random() < 0.5:
            coeffs[I] = Fraction(rng.randint(-3, 3))
    return XElement(H, coeffs, D)


def test_leibniz_law(any_preset):
    # h(xy) = (h_(1) x)(h_(2) y) within validity for deg h <= 2
    H = any_preset
    rng = random.Random(5)
    hs = [H.gen(0), H.gen(H.n - 1) * H.gen(0)]
    for h in hs:
        for _ in range(4):
            x, y = _random_x(H, rng), _random_x(H, rng)
            lhs = (x * y).act_left(h)
            rhs = None
            for (J, K), c in h.coproduct().items():
                term = x.act_left(H.mono(J)) * y.act_left(H.mono(K))
                term = term.scale(c)
                rhs = term if rhs is None else rhs + term
            assert lhs.eq_upto(rhs)


def test_bimodule_law(any_preset):
    # f(xg) = (fx)g exactly within validity
    H = any_preset
    rng = random.Random(9)
    f = H.gen(0)
    g = H.gen(H.n - 1)
    for _ in range(6):
        x = _random_x(H, rng)
        lhs = x.act_right(g).act_left(f)
        rhs = x.act_left(f).act_right(g)
        assert lhs.eq_upto(rhs)


def test_filtration_properties(any_preset):
    # product: fil_n fil_p c fil_{n+p+1}; actions lower the order by one
    H = any_preset
    a = XElement.coord(H, 0, D)          # order 0
    b = XElement.mono(H, tuple([2] + [0] * (H.n - 1)), validity=D)  # order 1
    prod = a * b
    if not prod.is_zero():
        assert prod.order() >= 2
    acted = b.act_left(H.gen(0))
    if not acted.is_zero():
        assert acted.order() >= 0


def test_action_degree_accounting(any_preset):
    H = any_preset
    x = XElement.mono(H, tuple([3] + [0] * (H.n - 1)), validity=D)
    h = H.gen(0) * H.gen(0)
    assert x.act_left(h).validity == D - 2
    assert x.act_right(h).validity == D - 2


def test_serialize_roundtrip_fields():
    H = hopf_for("abelian2")
    x = XElement.mono(H, (1, 1), "3/7", validity=4)
    blob = x.serialize()
    assert blob["validity"] == 4
    assert blob["terms"] == [[[1, 1], "3/7"]]


# -- the table-driven actions against the defining products ------------------


def _reference_action(x, h, side):
    """The defining formula: the coefficient at x_J is <x, S(h) b^(J)> (left)
    or <x, b^(J) S(h)> (right), through the generic product of H."""
    H = x.hopf
    validity = x.validity - h.degree()
    sh = h.antipode()
    out = {}
    for J in mi_below(H.n, validity):
        prod = sh * H.mono(J) if side == "left" else H.mono(J) * sh
        val = sum((c * x.coeffs.get(K, 0) for K, c in prod.coeffs.items()), Fraction(0))
        if val:
            out[J] = val
    return out, validity


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _action_case(draw):
    H = hopf_for(draw(st.sampled_from(sorted(PRESET_NAMES))))
    validity = draw(st.integers(0, 4))
    x_support = draw(st.lists(st.sampled_from(mi_below(H.n, validity)), max_size=4))
    x = XElement(H, {K: draw(_SMALL) for K in x_support}, validity)
    h_support = draw(st.lists(st.sampled_from(mi_below(H.n, 2)), min_size=1, max_size=3))
    h = H.element({M: draw(_SMALL) for M in h_support})
    return x, h


@settings(max_examples=60, deadline=None)
@given(_action_case(), st.sampled_from(["left", "right"]))
def test_actions_match_defining_products(case, side):
    x, h = case
    if h.degree() > x.validity + 1:
        with pytest.raises(TruncationExceeded):
            getattr(x, f"act_{side}")(h)
        return
    got = getattr(x, f"act_{side}")(h)
    if h.is_zero():
        assert not got.coeffs and got.validity == x.validity
        return
    expect, validity = _reference_action(x, h, side)
    assert got.validity == validity
    assert got.coeffs == expect
    assert list(got.coeffs) == list(expect)  # same (|J|, J) key order
