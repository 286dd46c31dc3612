from fractions import Fraction

import sympy
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from liepseudo._linalg import RowReducer, kernel, span_coords

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


@settings(max_examples=60, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
@given(_ROWS, st.lists(_COEFFS, min_size=6, max_size=6))
def test_row_reducer_matches_sympy_rref(rows, combo):
    # a combination of the rows makes them dependent
    rows = rows + [_combine(rows, combo)]
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
