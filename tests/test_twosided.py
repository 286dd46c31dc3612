import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liepseudo.errors import DimensionMismatch
from liepseudo.hopf import HElement, mi_below
from liepseudo.pseudoaction import ModuleVector
from liepseudo.pseudoalg import WAlgebra
from liepseudo.twosided import LEFT, RIGHT, PseudoValue

from conftest import (add_by_terms, canonical, convert_by_terms, from_tensor_by_terms, hopf_for,
                      mul_first, mul_second)


def test_trivial_tensor_roundtrip():
    H = hopf_for("abelian2")
    walg = WAlgebra(H)
    v = walg.gen(0)
    p = PseudoValue.from_tensor(H, [(H.one(), H.one(), v)])
    assert p.orient == LEFT
    assert list(p.terms) == [(0, 0)]
    assert p.to_right().to_left().eq(p)


def test_primitive_conversion_formula():
    # (d (x) 1) (x)_H v -> (1 (x) (-d)) (x)_H v + (1 (x) 1) (x)_H d v
    H = hopf_for("sl2")
    walg = WAlgebra(H)
    v = walg.gen(2)
    p = PseudoValue.from_tensor(H, [(H.gen(0), H.one(), v)])
    r = p.to_right()
    e0 = (1, 0, 0)
    z = (0, 0, 0)
    assert set(r.terms) == {e0, z}
    assert r.terms[e0].eq(v.scale(-1))
    assert r.terms[z].eq(v.hmul(H.gen(0)))


def test_roundtrip_on_random_degree_two_values(any_preset):
    H = any_preset
    walg = WAlgebra(H)
    rng = random.Random(13)
    monos = mi_below(H.n, 2)
    for _ in range(6):
        terms = {}
        for I in monos:
            if rng.random() < 0.4:
                vec = walg.gen(rng.randrange(H.n)).scale(Fraction(rng.randint(-2, 2)))
                if not vec.is_zero():
                    terms[I] = vec.add(terms[I]) if I in terms else vec
        p = PseudoValue(H, LEFT, terms)
        assert p.to_right().to_left().eq(p)
        assert p.flip().flip().eq(p)


def test_flip_swaps_slots():
    H = hopf_for("abelian2")
    walg = WAlgebra(H)
    v = walg.gen(1)
    p = PseudoValue.from_tensor(H, [(H.gen(0), H.one(), v)])
    f = p.flip()
    assert f.orient == RIGHT
    assert f.terms.keys() == p.terms.keys()


def test_filtration_compatibility(any_preset):
    # converting a value supported in fil^n keeps support in fil^n
    H = any_preset
    walg = WAlgebra(H)
    rng = random.Random(21)
    for bound in (1, 2, 3):
        terms = {}
        for I in mi_below(H.n, bound):
            if rng.random() < 0.5:
                terms[I] = walg.gen(rng.randrange(H.n))
        p = PseudoValue(H, LEFT, terms)
        assert p.to_right().degree() <= bound
        assert p.to_right().to_left().degree() <= bound


def test_normal_form_uniqueness(any_preset):
    H = any_preset
    walg = WAlgebra(H)
    a = PseudoValue.from_tensor(H, [(H.gen(0), H.one(), walg.gen(0))])
    b = PseudoValue.from_tensor(H, [(H.gen(0), H.one(), walg.gen(0))])
    assert a.eq(b)
    c = b.scale("1/2")
    assert not a.eq(c)


def test_mul_slots_against_tensor_builder(any_preset):
    # multiplying slot 2 of (f (x) 1) (x)_H v must agree with building
    # (f (x) h) (x)_H v directly
    H = any_preset
    walg = WAlgebra(H)
    f, h = H.gen(0), H.gen(H.n - 1)
    v = walg.gen(0)
    built = PseudoValue.from_tensor(H, [(f, h, v)])
    stepped = mul_second(PseudoValue.from_tensor(H, [(f, H.one(), v)]), h)
    assert built.eq(stepped)
    built_l = PseudoValue.from_tensor(H, [(f * h, H.one(), v)])
    stepped_l = mul_first(PseudoValue.from_tensor(H, [(h, H.one(), v)]), f)
    assert built_l.eq(stepped_l)


def test_from_tensor_normal_forms_agree(any_preset):
    # (f (x) g) (x)_H v = (1 (x) g S(f_(1))) (x)_H f_(2) v: the right-normal
    # form must multiply g by S(f_(1)) on the right, which matters once f and
    # g do not commute (sl2, heis3, solv2)
    H = any_preset
    v = WAlgebra(H).gen(0)
    for I in mi_below(H.n, 2):
        for J in mi_below(H.n, 2):
            f, g = H.mono(I), H.mono(J)
            right = PseudoValue.from_tensor(H, [(f, g, v)], RIGHT)
            assert right.orient == RIGHT
            assert right.eq(PseudoValue.from_tensor(H, [(f, g, v)], LEFT)), (H.lie.name, I, J)


# fractional and non-unit coefficients; coordinates may also be zero
_COEFFS = st.sampled_from([Fraction(c) for c in ("1", "-1", "2", "-3", "1/2", "-2/3")])
_COORDS = st.sampled_from([Fraction(c) for c in ("0", "1", "-1", "2", "1/2", "-3/2")])


def layout(p: PseudoValue) -> list:
    """The terms of p with their key order at both levels: I, then N."""
    return [(I, list(v.terms.items())) for I, v in p.terms.items()]


def all_canonical(p: PseudoValue) -> bool:
    return all(canonical(x) for v in p.terms.values() for row in v.terms.values() for x in row)


_MONOS = st.sampled_from(mi_below(3, 2))  # every algebra drawn below has dim 3
_H_TERMS = st.dictionaries(_MONOS, _COEFFS, min_size=1, max_size=3)
_ROWS = st.dictionaries(_MONOS, st.lists(_COORDS, min_size=3, max_size=3), max_size=3)
F = Fraction


# the examples cancel inside the fold: a vector at one I drops out and comes
# back (sl2), a coefficient of outer * S(b^(A)) cancels (heis3), and a row of
# b^(B) vec cancels (solv3)
@example("sl2", {(1, 0, 0): F(2), (0, 2, 0): F(2)},
         {(0, 1, 0): F(2), (1, 0, 0): F(-1), (2, 0, 0): F(-2, 3)},
         1, {(0, 1, 0): [F(-3, 2)], (1, 0, 0): [F(1, 2)]}, LEFT)
@example("heis3", {(1, 1, 0): F(1, 2)}, {(0, 0, 1): F(-2, 3), (2, 0, 0): F(1, 2), (1, 1, 0): F(-2, 3)},
         1, {(1, 0, 1): [F(1, 2)], (0, 0, 1): [F(0)], (0, 1, 1): [F(1, 2)]}, RIGHT)
@example("solv3", {(1, 1, 0): F(1), (1, 0, 0): F(1, 2)}, {(0, 2, 0): F(2), (1, 1, 0): F(-3), (0, 1, 0): F(1, 2)},
         1, {(1, 0, 0): [F(-1)], (0, 0, 0): [F(-1)], (0, 0, 2): [F(-1)]}, LEFT)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["abelian3", "heis3", "sl2", "solv3"]), _H_TERMS, _H_TERMS,
       st.sampled_from([1, 3]), _ROWS, st.sampled_from([LEFT, RIGHT]))
def test_from_tensor_matches_the_term_by_term_build(name, f, g, width, rows, orient):
    H = hopf_for(name)
    f, g = HElement(H, f), HElement(H, g)
    vec = ModuleVector(H, width, {I: tuple(row[:width]) for I, row in rows.items()})
    got = PseudoValue.from_tensor(H, [(f, g, vec)], orient)
    want = from_tensor_by_terms(H, [(f, g, vec)], orient)
    assert got.orient == orient
    assert layout(got) == layout(want)
    assert all_canonical(got)


# b is a with rows replaced, added or (a zero row) dropped, its keys in
# either order; the example differs from a in its last row alone
@example("heis3", 3, {(0, 0, 0): [F(1), F(0), F(0)], (1, 0, 0): [F(0), F(1), F(0)]},
         {(1, 0, 0): [F(0), F(2), F(0)]}, False)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["abelian3", "heis3", "sl2", "solv3"]), st.sampled_from([1, 3]),
       _ROWS, _ROWS, st.booleans())
def test_eq_compares_as_the_difference_does(name, width, rows, edits, reverse):
    H = hopf_for(name)
    b_rows = {**rows, **edits}
    a = ModuleVector(H, width, {I: tuple(row[:width]) for I, row in rows.items()})
    b = ModuleVector(H, width, {I: tuple(b_rows[I][:width]) for I in sorted(b_rows, reverse=reverse)})
    assert a.eq(b) == b.eq(a) == (a - b).is_zero()
    with pytest.raises(DimensionMismatch):
        a.eq(ModuleVector.zero(H, width + 1))


_TENSORS = st.lists(st.tuples(_H_TERMS, _H_TERMS, _ROWS), max_size=3)
_ONE, _B1, _B2 = (0, 0, 0), (1, 0, 0), (0, 1, 0)


# an empty sum; and on abelian3, where (1 + b2 (x) 1) (x)_H u has keys 1 and
# b2, the term -1 of (1 (x) -1 + b1) (x)_H u cancels key 1, and the split
# A = 0, B = b1 of its term b1 brings it back after b2
@example("heis3", [], 3, RIGHT)
@example("abelian3", [({_ONE: F(1), _B2: F(1)}, {_ONE: F(1)}, {_ONE: [F(1)]}),
                      ({_ONE: F(1)}, {_ONE: F(-1), _B1: F(1)}, {_ONE: [F(1)]})], 1, LEFT)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(["abelian3", "heis3", "sl2", "solv3"]), _TENSORS,
       st.sampled_from([1, 3]), st.sampled_from([LEFT, RIGHT]))
def test_from_tensor_folds_a_sum_as_the_term_by_term_build(name, tensors, width, orient):
    H = hopf_for(name)
    tensors = [(HElement(H, f), HElement(H, g),
                ModuleVector(H, width, {I: tuple(row[:width]) for I, row in rows.items()}))
               for f, g, rows in tensors]
    got, want = PseudoValue.from_tensor(H, tensors, orient), from_tensor_by_terms(H, tensors, orient)
    assert got.orient == orient
    assert layout(got) == layout(want)
    assert all_canonical(got)


_VALUES = st.dictionaries(_MONOS, _ROWS, max_size=3)  # I -> the rows of v_I


def _value(H, orient, width, terms) -> PseudoValue:
    return PseudoValue(H, orient, {I: ModuleVector(H, width, {N: tuple(row[:width])
                                                              for N, row in rows.items()})
                                   for I, rows in terms.items()})


# on sl2 a row of the converted value cancels and comes back, so it goes
# last; on heis3 the sum cancels the key b1 of p
@example("sl2", {(1, 1, 0): {(1, 0, 1): [F(1)]}, (2, 0, 0): {(0, 1, 0): [F(1)], (0, 0, 1): [F(1)]}},
         {}, 1, LEFT, LEFT)
@example("heis3", {_B1: {_ONE: [F(1)]}}, {_B1: {_ONE: [F(-1)]}, _B2: {_ONE: [F(1, 2)]}}, 1, LEFT, LEFT)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(["abelian3", "heis3", "sl2", "solv3"]), _VALUES, _VALUES,
       st.sampled_from([1, 3]), st.sampled_from([LEFT, RIGHT]), st.sampled_from([LEFT, RIGHT]))
def test_convert_and_add_keep_the_term_by_term_layout(name, p, q, width, p_orient, q_orient):
    H = hopf_for(name)
    p, q = _value(H, p_orient, width, p), _value(H, q_orient, width, q)
    other = RIGHT if p_orient == LEFT else LEFT
    got = p.convert(other)
    assert got.orient == other
    assert layout(got) == layout(convert_by_terms(p, other))
    assert all_canonical(got)
    got = p.add(q)
    assert got.orient == p_orient
    assert layout(got) == layout(add_by_terms(p, q))
    assert all_canonical(got)
