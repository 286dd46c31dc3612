"""Canonical forms for elements of (H (x) H) (x)_H V, and the defects of
the pseudoalgebra axioms.

A PseudoValue stores one of the two normal forms
    left:   sum_I (b^(I) (x) 1) (x)_H v_I
    right:  sum_I (1 (x) b^(I)) (x)_H v_I
as a sparse map I -> v_I.  The carriers v_I are module vectors
(`pseudoaction.ModuleVector`), H itself being H (x) k.  Conversions move
factors across (x)_H with the antipode, e.g.
    (f (x) g) (x)_H v = sum (f S(g_(1)) (x) 1) (x)_H g_(2) v.

The fold shared with the pseudoaction kernel lives here: a value is summed
into one store M -> N -> coordinates, with the key order of adding
PseudoValues one term at a time (`_fold`), and each output vector is built
once (`_pseudo_value`); the ModuleVector constructor makes its coordinates
canonical, an int when integral and else a Fraction.  The inputs are summed
as they come: the layers below hand out canonical coefficients, so the folds
run in int wherever the arithmetic is integral.  Every sum of PseudoValues
is such a fold: `add`, `convert`, `from_tensor` (a whole sum of tensors
(f (x) g) (x)_H v), `modules.apply_map` and `pseudoalg.w_modules`.  `_times`
is the one loop of H times a module vector, and H's product of term lists
`_product` comes from `hopf`.

`skew_defect` is a PseudoValue; `module_defect`, which lives in
H^(x)3 (x)_H V, is a flat map of its nonzero coefficients.
"""

from __future__ import annotations

from ._linalg import add_entry
from .hopf import Hopf, MultiIndex, _product, mi_deg, mi_splits
from .liecore import rat

LEFT = "L"
RIGHT = "R"


class PseudoValue:
    __slots__ = ("hopf", "orient", "terms")

    def __init__(self, hopf: Hopf, orient: str, terms: dict[MultiIndex, object]):
        self.hopf = hopf
        self.orient = orient
        self.terms = {I: v for I, v in terms.items() if not v.is_zero()}

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, hopf: Hopf, orient: str = LEFT) -> "PseudoValue":
        return cls(hopf, orient, {})

    @classmethod
    def from_tensor(cls, hopf: Hopf, tensors, orient: str = LEFT) -> "PseudoValue":
        """Normal form of sum (f (x) g) (x)_H vec over the triples of
        `tensors`, the vectors all of one width (an empty sum is zero), each
        as sum (f S(g_(1)) (x) 1) (x)_H g_(2) vec or sum (1 (x) g S(f_(1)))
        (x)_H f_(2) vec, the outer factor on the left.

        For each term c b^(J) of an inner factor and each split A + B = J,
        outer * S(b^(A)) (in the key order of `HElement.__mul__`) times
        c * b^(B) vec (in the key order of `ModuleVector.hmul`) is folded into
        one store for the whole sum, so the value and the key order at both
        levels are those of adding the terms one at a time."""
        store: dict[MultiIndex, dict[MultiIndex, list]] = {}  # I -> N -> coordinates
        for f, g, vec in tensors:
            outer, inner = (f, g) if orient == LEFT else (g, f)
            factors: dict[MultiIndex, dict] = {}  # A -> outer * S(b^(A))
            moved: dict[MultiIndex, list] = {}  # B -> b^(B) vec as (N, coordinates)
            for J, c in inner.coeffs.items():
                for A, B in mi_splits(J):
                    rows_b = moved.get(B)
                    if rows_b is None:
                        rows_b = moved[B] = _times(hopf, ((B, 1),), vec.terms.items(), vec.width)
                    if not rows_b:
                        continue
                    factor = factors.get(A)
                    if factor is None:
                        factor = factors[A] = _product(hopf, outer.coeffs.items(),
                                                       hopf.antipode_mono(A).items())
                    for I, x in factor.items():
                        _fold(store, I, rows_b, c * x)
        if not store:
            return cls(hopf, orient, {})
        return _pseudo_value(hopf, orient, store, type(vec), vec.width)

    # -- linear structure ----------------------------------------------------
    def add(self, other: "PseudoValue") -> "PseudoValue":
        """The terms of self, then those of other in the same form, folded."""
        store: dict[MultiIndex, dict[MultiIndex, list]] = {}  # I -> N -> coordinates
        for value in (self, other.convert(self.orient)):
            for I, v in value.terms.items():
                _fold(store, I, v.terms.items(), 1)
        if not store:
            return PseudoValue(self.hopf, self.orient, {})
        return _pseudo_value(self.hopf, self.orient, store, type(v), v.width)

    def scale(self, c) -> "PseudoValue":
        c = rat(c)
        if not c:
            return PseudoValue(self.hopf, self.orient, {})
        return PseudoValue(self.hopf, self.orient, {I: v.scale(c) for I, v in self.terms.items()})

    def neg(self) -> "PseudoValue":
        return self.scale(-1)

    def sub(self, other: "PseudoValue") -> "PseudoValue":
        return self.add(other.scale(-1))

    # -- conversions -----------------------------------------------------------
    def convert(self, orient: str) -> "PseudoValue":
        if orient == self.orient:
            return self
        hopf = self.hopf
        store: dict[MultiIndex, dict[MultiIndex, list]] = {}  # K -> N -> coordinates
        # (b^(I) (x) 1) (x)_H v = sum_{A+B=I} (1 (x) S(b^(A))) (x)_H b^(B) v
        # and symmetrically for the opposite direction.
        for I, v in self.terms.items():
            for A, B in mi_splits(I):
                rows = v.hmul(hopf.mono(B)).terms.items()
                if not rows:
                    continue
                for K, c in hopf.antipode_mono(A).items():
                    _fold(store, K, rows, c)
        if not store:
            return PseudoValue(hopf, orient, {})
        return _pseudo_value(hopf, orient, store, type(v), v.width)

    def to_left(self) -> "PseudoValue":
        return self.convert(LEFT)

    def to_right(self) -> "PseudoValue":
        return self.convert(RIGHT)

    def flip(self) -> "PseudoValue":
        """(sigma (x)_H id): swap the two H-slots (well defined by
        cocommutativity); in normal form this just toggles the orientation."""
        return PseudoValue(self.hopf, RIGHT if self.orient == LEFT else LEFT, dict(self.terms))

    # -- inspection ---------------------------------------------------------------
    def map_vectors(self, fn) -> "PseudoValue":
        return PseudoValue(self.hopf, self.orient, {I: fn(v) for I, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def eq(self, other: "PseudoValue") -> bool:
        return self.sub(other).is_zero()

    def degree(self) -> int:
        """Max |I| over the normal-form support (-1 for zero)."""
        return max((mi_deg(I) for I in self.terms), default=-1)

    def __repr__(self) -> str:
        side = "left" if self.orient == LEFT else "right"
        if not self.terms:
            return f"0 [{side}-normal]"
        bits = [f"b^{I} : {v!r}" for I, v in sorted(self.terms.items())]
        return f"[{side}-normal] " + "; ".join(bits)


def _fold(store: dict, M: MultiIndex, rows, x) -> None:
    """store[M] += x * rows, rows being (N, coordinates) pairs, with the key
    order of adding the vectors one at a time by `ModuleVector.add`: a new
    key goes last, and an N or an M whose coordinates cancel is dropped, so
    that it goes last if it comes back."""
    at = store.get(M)
    if at is None:
        store[M] = {N: [x * c for c in coords] for N, coords in rows}
        return
    for N, coords in rows:
        cur = at.get(N)
        if cur is None:
            at[N] = [x * c for c in coords]
            continue
        for r, c in enumerate(coords):
            if c:
                cur[r] += x * c
        if not any(cur):
            del at[N]
    if not at:
        del store[M]


def _times(hopf: Hopf, h_terms, rows, width: int) -> list:
    """h sum_N b^(N) (x) coordinates for h = sum c b^(J) over `h_terms` (J, c),
    as its nonzero (K, coordinates) summed as they come, the rows outermost:
    `ModuleVector.hmul` and the folds of `from_tensor` and `modules.apply_map`."""
    out: dict[MultiIndex, list] = {}
    for N, coords in rows:
        for J, c in h_terms:
            for K, c2 in hopf.mono_mul(J, N).items():
                cur = out.get(K) or out.setdefault(K, [0] * width)
                cc = c * c2
                for r, x in enumerate(coords):
                    if x:
                        cur[r] += cc * x
    return [(K, cur) for K, cur in out.items() if any(cur)]


def _pseudo_value(hopf: Hopf, orient: str, store: dict, vector_type, width: int) -> PseudoValue:
    """A store M -> N -> coordinates as a PseudoValue in normal form
    `orient`, each vector built once by `vector_type`; an (M, N) whose
    coordinates cancel is dropped."""
    return PseudoValue(hopf, orient, {M: vector_type(hopf, width, at_m)
                                      for M, at_m in store.items()})


def skew_defect(a, b, product) -> PseudoValue:
    """[b*a] + (sigma (x)_H id)[a*b]; zero iff the bracket is skew."""
    lhs = product(b, a)
    return lhs.add(product(a, b).flip().convert(lhs.orient))


def module_defect(a, b, v, bracket, action) -> dict:
    """[a*b]*v - a*(b*v) + ((sigma (x) id) (x)_H id)(b*(a*v)) as its nonzero
    coefficients (I, J, N, k) -> int | Fraction, canonical, at
    (b^(I) (x) b^(J) (x) 1) (x)_H (b^(N) (x) u_k): empty exactly when the
    module axiom holds at (a, b, v), and with action = bracket the Jacobi
    identity.

    With each value in left normal form, [a*b] = sum (b^(I) (x) 1) (x)_H e_I
    and e_I * v = sum (b^(J) (x) 1) (x)_H w give
    sum_{A+B=J} (b^(I) b^(A) (x) b^(B) (x) 1) (x)_H w; b*v = sum (b^(I) (x) 1) (x)_H e_I
    and a*e_I = sum (b^(J) (x) 1) (x)_H w give a*(b*v) at (J, I), and the
    swap puts b*(a*v) at (I, J).  The three terms are summed into one store
    with `add_entry`."""
    terms = []  # (I, J, w, c): c (b^(I) (x) b^(J) (x) 1) (x)_H w
    for I, e in bracket(a, b).to_left().terms.items():
        for J, w in action(e, v).to_left().terms.items():
            for A, B in mi_splits(J):
                for K, c in v.hopf.mono_mul(I, A).items():
                    terms.append((K, B, w, c))
    for I, e in action(b, v).to_left().terms.items():
        for J, w in action(a, e).to_left().terms.items():
            terms.append((J, I, w, -1))
    for I, e in action(a, v).to_left().terms.items():
        for J, w in action(b, e).to_left().terms.items():
            terms.append((I, J, w, 1))
    store: dict = {}
    for I, J, w, c in terms:
        for N, row in w.terms.items():
            for k, x in enumerate(row):
                if x:
                    add_entry(store, (I, J, N, k), c * x)
    return store
