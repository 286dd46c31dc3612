from fractions import Fraction

import sympy
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from liepseudo._linalg import RowReducer, kernel, nullspace, row_addmul, span_coords

from conftest import FractionReducer, canonical, row_addmul_by_fractions

ZERO = Fraction(0)

_COEFFS = st.fractions(min_value=-2, max_value=2, max_denominator=3)
_SPARSE = st.dictionaries(st.sampled_from("abcde"), _COEFFS.filter(bool), max_size=4)


def _span_coords_one_solve(vectors, target):
    """The reference: one reduced augmented system per target, the equations
    sum_m x_m vectors[m][j] = target[j] for each coordinate j of the span,
    with every free unknown set to zero."""
    eqs: dict = {}
    for m, vec in enumerate(vectors):
        for j, c in vec.items():
            eqs.setdefault(j, {})[m] = c
    if any(j not in eqs for j in target):
        return None
    aug = len(vectors)
    red = RowReducer()
    for j, row in eqs.items():
        red.add({**row, aug: -target[j]} if target.get(j) else row)
    if aug in red.pivots:
        return None  # a pivot in the augmented column: inconsistent
    return [-red.pivots[m].get(aug, ZERO) if m in red.pivots else ZERO for m in range(aug)]


def _combine(vectors, coeffs):
    out: dict = {}
    for vec, c in zip(vectors, coeffs):
        for j, x in vec.items():
            out[j] = out.get(j, ZERO) + c * x
    return {j: x for j, x in out.items() if x}


@settings(max_examples=60, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.lists(_SPARSE, max_size=5), st.lists(st.lists(_COEFFS, min_size=6, max_size=6), max_size=3),
       st.lists(_SPARSE, max_size=2))
def test_span_coords_matches_one_solve_per_target(vectors, combos, strays):
    # a combination of the first two vectors makes the span dependent, so the
    # representative of a target in the span is not unique
    vectors = vectors + [_combine(vectors[:2], [Fraction(1), Fraction(-2)])]
    targets = [_combine(vectors, c) for c in combos] + strays + [{}]
    got = span_coords(vectors, targets)
    assert got == [_span_coords_one_solve(vectors, t) for t in targets]
    assert all(canonical(x) for coords in got if coords is not None for x in coords)
    for t, coords in zip(targets, got):
        if coords is not None:
            assert _combine(vectors, coords) == t


def _sympy_kernel(vectors):
    """The reference: sympy's nullspace of the matrix whose column m is
    vectors[m], one row per coordinate, as sparse Fraction rows."""
    keys = sorted({j for vec in vectors for j in vec})
    matrix = sympy.Matrix(len(keys), len(vectors),
                          [sympy.Rational(vec.get(j, 0)) for j in keys for vec in vectors])
    return [{m: Fraction(int(x.p), int(x.q)) for m, x in enumerate(col) if x}
            for col in matrix.nullspace()]


@settings(max_examples=60, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.lists(_SPARSE, max_size=5), st.permutations("abcde"))
def test_kernel_matches_sympy_nullspace(vectors, renaming):
    # a combination of the first two vectors makes the kernel nonzero
    vectors = vectors + [_combine(vectors[:2], [Fraction(1), Fraction(-2)])]
    got = kernel(vectors)
    assert got == _sympy_kernel(vectors)
    assert all(canonical(x) for c in got for x in c.values())
    for c in got:
        assert _combine(vectors, [c.get(m, ZERO) for m in range(len(vectors))]) == {}
    # renamed coordinates, entered in a different order, give the same basis
    rename = dict(zip("abcde", renaming))
    renamed = [dict(sorted((rename[j], c) for j, c in vec.items())) for vec in vectors]
    assert kernel(renamed) == got



_ROWS = st.lists(st.dictionaries(st.integers(0, 5), _COEFFS.filter(bool), max_size=4), max_size=6)


def _matrix(rows, width=6):
    return sympy.Matrix(len(rows), width,
                        [sympy.Rational(row.get(j, 0)) for row in rows for j in range(width)])


# the first pivot of each example: 1 and -1, normalized without a division,
# and a value that takes an inverse; each meets the explicit rows once
_LEADS = [Fraction(1), Fraction(-1), Fraction(-2, 3)]
_EXAMPLE_ROWS = [{1: Fraction(1, 2), 3: Fraction(-1)}, {0: Fraction(2), 1: Fraction(1, 3)}]


def _led_rows(lead, rows, combo, col):
    """rows after a first row with pivot `lead` at column col (the entries of
    rows[0] right of col), and a combination of them that makes them dependent."""
    head = {j: c for j, c in (rows[0] if rows else {}).items() if j > col}
    rows = [{col: lead, **head}] + rows
    return rows + [_combine(rows, combo)]


@settings(max_examples=60, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from(_LEADS), _ROWS, st.lists(_COEFFS, min_size=6, max_size=6),
       st.integers(0, 5))
@example(_LEADS[0], _EXAMPLE_ROWS, [Fraction(1)] * 6, 0)
@example(_LEADS[1], _EXAMPLE_ROWS, [Fraction(1)] * 6, 1)
@example(_LEADS[2], _EXAMPLE_ROWS, [Fraction(1)] * 6, 2)
def test_row_reducer_matches_sympy_rref(lead, rows, combo, col):
    rows = _led_rows(lead, rows, combo, col)
    red = RowReducer()
    grew = [red.add(row) for row in rows]
    rref, pivot_cols = _matrix(rows).rref()
    assert red.rank == len(pivot_cols)
    assert sorted(red.pivots) == list(pivot_cols)
    assert [red.pivots[j] for j in pivot_cols] == [
        {j: Fraction(int(x.p), int(x.q)) for j, x in enumerate(rref.row(i)) if x}
        for i in range(len(pivot_cols))]
    # `add` reports growth exactly when the rank of the rows so far grows
    ranks = [_matrix(rows[:k]).rank() for k in range(len(rows) + 1)]
    assert grew == [after > before for before, after in zip(ranks, ranks[1:])]
    assert all(red.contains(row) for row in rows)


def _same_row(got: dict, want: dict) -> bool:
    """Equal entries in the same key order, each canonical."""
    return list(got.items()) == list(want.items()) and all(canonical(x) for x in got.values())


@settings(max_examples=80, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(st.sampled_from(_LEADS + [Fraction(2)]), _ROWS, st.lists(_COEFFS, min_size=6, max_size=6),
       st.integers(0, 5), _COEFFS)
def test_row_reducer_matches_the_fraction_loop(lead, rows, combo, col, c):
    # pivot order, row values and key order of every stored row, after every
    # add, against the reducer that runs in Fraction
    rows = _led_rows(lead, rows, combo, col)
    red, ref = RowReducer(), FractionReducer()
    for row in rows:
        assert _same_row(red.reduce(row), ref.reduce(row))
        assert red.add(row) == ref.add(row)
        assert list(red.pivots) == list(ref.pivots)
        assert all(_same_row(red.pivots[j], ref.pivots[j]) for j in ref.pivots)
    # row_addmul on a stored row and an input row, ints kept where integral
    for j in list(ref.pivots)[:2]:
        acc = {k: x.numerator if x.denominator == 1 else x for k, x in rows[-1].items()}
        want = dict(rows[-1])
        row_addmul(acc, red.pivots[j], c)
        row_addmul_by_fractions(want, ref.pivots[j], c)
        assert _same_row(acc, want)
    # the solves hand out canonical values only
    basis = nullspace(rows, 6)
    assert basis == nullspace(list(ref.pivots.values()), 6)
    assert all(canonical(x) for vec in basis for x in vec.values())
