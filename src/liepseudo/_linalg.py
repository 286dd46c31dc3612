"""Exact sparse linear algebra over the rationals.

Rows are dicts mapping column index -> nonzero coefficient.  All routines are
deterministic: pivots are chosen by increasing column index, so results
depend only on the input order, never on hashing or timing.

Coefficients follow one rule in every layer: a coefficient that an
operation returns or memoizes is canonical exact, an int when it is
integral and else a Fraction (`_exact`).  The arithmetic mixes the two
exactly, so a layer multiplies and adds its inputs as they come, and makes
each output canonical once, where it stores or hands out a sum or a
product.  Here that is `add_entry`, `row_addmul` and the pivot normalization
of `RowReducer.add`, which takes one Fraction inverse per row.  A row that a
caller builds may hold integral Fractions, so `RowReducer.reduce` makes its
entries canonical on the way in; the stored rows and the results of
`nullspace`, `kernel` and `span_coords` are then canonical.

A linear system is posed one way: one sparse image per unknown, a map from
any hashable equation key to a nonzero coefficient.  Two solves take such a
list: `kernel` (the homogeneous system) and `span_coords` (membership of
targets in the span of the images).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Row = dict[int, int | Fraction]

ONE = Fraction(1)


def _exact(x):
    """x canonical: an int when it is integral, else x itself."""
    return x.numerator if x.denominator == 1 else x


def add_entry(store: dict, key, c: int | Fraction) -> None:
    """In-place store[key] += c, dropping a cancellation; the sum is kept
    canonical (`_exact`)."""
    v = store.get(key, 0) + c
    if v:
        store[key] = _exact(v)
    else:
        store.pop(key, None)


def row_addmul(acc: Row, row: Row, c: int | Fraction) -> None:
    """In-place acc += c * row, dropping cancellations; each changed entry
    is kept canonical."""
    for j, v in row.items():
        w = acc.get(j, 0) + c * v
        if w:
            acc[j] = _exact(w)
        else:
            acc.pop(j, None)


class RowReducer:
    """Incremental reduced row-echelon accumulator.

    Maintains a set of pivot rows in reduced form; `add` returns True when
    the row enlarged the span.  Pivot of each stored row is its smallest
    column index, normalized to 1, and eliminated from all other rows.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, Row] = {}

    def reduce(self, row: Row) -> Row:
        row = {j: _exact(c) for j, c in row.items()}
        for j in sorted(row):
            piv = self.pivots.get(j)
            if piv is not None and j in row:
                row_addmul(row, piv, -row[j])
        return row

    def add(self, row: Row) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        j0 = min(row)
        p = row[j0]
        if p == -1:
            row = {j: -v for j, v in row.items()}
        elif p != 1:
            inv = ONE / p
            row = {j: _exact(inv * v) for j, v in row.items()}
        for piv in self.pivots.values():
            if j0 in piv:
                row_addmul(piv, row, -piv[j0])
        self.pivots[j0] = row
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)


def nullspace(rows: Iterable[Row], ncols: int) -> list[Row]:
    """Canonical basis of {x : A x = 0}.

    Unknown j of each basis vector is its coordinate at column j; the basis
    is in reduced column-echelon form with respect to the column order, one
    vector per free column (free coordinate set to 1).
    """
    red = RowReducer()
    for r in rows:
        red.add(r)
    return [{f: 1, **{j: -piv[f] for j, piv in red.pivots.items() if f in piv}}
            for f in range(ncols) if f not in red.pivots]


def kernel(vectors: list[dict]) -> list[Row]:
    """Canonical basis of the c with sum_m c[m] * vectors[m] == 0 (see
    `nullspace`), for sparse vectors as in `span_coords`.  The rows, one per
    coordinate, need no order: the reduced echelon form is unique."""
    rows: dict = {}
    for m, vec in enumerate(vectors):
        for j, c in vec.items():
            rows.setdefault(j, {})[m] = c
    return nullspace(list(rows.values()), len(vectors))


def span_coords(vectors: list[dict], targets: list[dict]) -> list[list[int | Fraction] | None]:
    """For each target, the coefficients c with sum_m c[m] * vectors[m] == target,
    or None if the target lies outside the span.

    Vectors are sparse maps from any hashable coordinate to a nonzero
    coefficient.  The span is reduced once, each vector tagged by a column of
    its own.  A vector in the span of the earlier ones is left out, so it gets
    coefficient 0: with vectors ordered by preference this is the
    deterministic minimal-support representative (free unknowns zero).
    """
    index: dict = {}
    for vec in vectors:
        for j in vec:
            index.setdefault(j, len(index))
    tag = len(index)
    red = RowReducer()
    for m, vec in enumerate(vectors):
        row = red.reduce({**{index[j]: c for j, c in vec.items()}, tag + m: 1})
        if min(row) < tag:
            red.add(row)
    out: list[list[int | Fraction] | None] = []
    for target in targets:
        row = red.reduce({index[j]: c for j, c in target.items()}) \
            if target.keys() <= index.keys() else None
        out.append(None if row is None or (row and min(row) < tag)
                   else [-row.get(tag + m, 0) for m in range(len(vectors))])
    return out
