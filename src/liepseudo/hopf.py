"""Exact arithmetic in H = U(d) in the divided-power PBW basis.

Basis monomials are b^(I) = b_1^{i_1} ... b_N^{i_N} / i_1! ... i_N! indexed by
multi-indices I.  Products are straightened recursively through the
commutation relations.  An HElement is a coefficient: elements of free
H-modules, H = H (x) k among them, are module vectors
(`pseudoaction.ModuleVector`).  Every coefficient this layer returns or
memoizes is canonical, an int when it is integral and else a Fraction
(`_linalg._exact`); the HElement constructor holds the rule for elements.
So the inner loops above it, H's product `_product` among them, run in int
wherever the arithmetic is integral.  The bracket enters once, in
`Hopf._swaps`.  The caches, all scheduling-independent, are:
- the per-instance memos here (straightened words, products and antipodes of
  basis monomials, the tables dualx, derham, annih and pseudoalg key on the
  algebra, and the carry table of `pseudoaction._carry`: b^(I) carried across
  (x)_H past a left-normal action table term, per (I, K, J), shared by every
  module over the algebra), all in canonical coefficients;
- per ModuleSpec: its action table in each normal form, its left-form unit
  expansions (1 (x) b_i) * (b^(I) (x) u_k) in canonical terms, the
  values of the last (vector, form) its pseudoaction was applied to, and the
  terms and right-form rows w * u_k of up to n^2 actors `w_star` has read.
The pairings <x_a, S(b^(I))> are kept only for one call of
`annih.ann_action`, indexed by (a, I) for all the elements it applies.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._linalg import _exact, add_entry
from .errors import DimensionMismatch
from .liecore import LieData, rat

MultiIndex = tuple[int, ...]


def mi_zero(n: int) -> MultiIndex:
    return (0,) * n


def mi_unit(n: int, i: int) -> MultiIndex:
    return tuple(1 if k == i else 0 for k in range(n))


def mi_add(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def mi_deg(a: MultiIndex) -> int:
    return sum(a)


def mi_factorial(a: MultiIndex) -> int:
    out = 1
    for x in a:
        out *= math.factorial(x)
    return out


def mi_splits(I: MultiIndex):
    """All (J, K) with J + K = I, the coproduct support of b^(I)."""
    ranges = [range(x + 1) for x in I]
    for J in itertools.product(*ranges):
        yield tuple(J), tuple(x - y for x, y in zip(I, J))


def mi_below(n: int, deg: int) -> list[MultiIndex]:
    """All multi-indices of length n with |I| <= deg, sorted by (|I|, I)."""
    out = []
    for d in range(deg + 1):
        out.extend(sorted(_compositions(n, d)))
    return out


def _compositions(n: int, total: int):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(n - 1, total - first):
            yield (first,) + rest


def _word_of(I: MultiIndex) -> tuple[int, ...]:
    w = ()
    for k, x in enumerate(I):
        w += (k,) * x
    return w


def _index_of_word(w: tuple[int, ...], n: int) -> MultiIndex:
    out = [0] * n
    for k in w:
        out[k] += 1
    return tuple(out)


class Hopf:
    """The Hopf algebra U(d) over an exact LieData."""

    def __init__(self, lie: LieData):
        lie.validate()
        self.lie = lie
        self.n = lie.dim
        # [b_i, b_j] for i > j, the swaps straightening makes (canonical in LieData)
        self._swaps = {(i, j): list(lie.bracket(i, j).items())
                       for i in range(self.n) for j in range(i)}
        self._word_memo: dict[tuple[int, ...], dict[tuple[int, ...], int | Fraction]] = {}
        self._mul_memo: dict[tuple[MultiIndex, MultiIndex], dict[MultiIndex, int | Fraction]] = {}
        self._antipode_memo: dict[MultiIndex, dict[MultiIndex, int | Fraction]] = {}
        # de Rham generator images and Omega modules per (degree, twist), filled by
        # derham.d_images and omega_module; RepData hashes by identity, so a key
        # keeps its twist alive
        self._d_images_memo: dict = {}
        self._omega_memo: dict = {}
        # sparse tables of the dual H-actions, filled by dualx._action_table
        self._x_action_memo: dict = {}
        # Euler element and gamma(b_l) per truncation, filled by annih
        self._ann_memo: dict = {}
        # W(d) as its adjoint module and the W(d)-module H, filled by pseudoalg.w_modules
        self._w_modules_memo: dict = {}
        # b^(I) carried across (x)_H past a left-normal action table term, per
        # (I, K, J), filled by pseudoaction._carry for every module over this algebra
        self._carry_memo: dict = {}

    # -- element constructors ------------------------------------------
    def zero(self) -> "HElement":
        return HElement(self, {})

    def one(self) -> "HElement":
        return HElement(self, {mi_zero(self.n): 1})

    def gen(self, i: int) -> "HElement":
        return HElement(self, {mi_unit(self.n, i): 1})

    def mono(self, I: MultiIndex, c=1) -> "HElement":
        return self.element({I: c})

    def element(self, coeffs: dict) -> "HElement":
        """The element sum c b^(I) from ints, 'p/q' strings or Fractions."""
        return HElement(self, {tuple(I): rat(c) for I, c in coeffs.items()})

    # -- straightening --------------------------------------------------
    def _straighten(self, word: tuple[int, ...]) -> dict[tuple[int, ...], int | Fraction]:
        """The word as a sum of sorted words, in int wherever it is integral."""
        memo = self._word_memo
        got = memo.get(word)
        if got is not None:
            return got
        descent = None
        for p in range(len(word) - 1):
            if word[p] > word[p + 1]:
                descent = p
                break
        if descent is None:
            out = {word: 1}
        else:
            p = descent
            b, a = word[p], word[p + 1]
            swapped = word[:p] + (a, b) + word[p + 2:]
            out = dict(self._straighten(swapped))
            for k, c in self._swaps[b, a]:
                contracted = word[:p] + (k,) + word[p + 2:]
                for w2, c2 in self._straighten(contracted).items():
                    add_entry(out, w2, c * c2)
        memo[word] = out
        return out

    def _divided(self, word: tuple[int, ...], denom: int) -> dict[MultiIndex, int | Fraction]:
        """The word over denom in the divided-power basis: the coefficients
        c of each b^(K) summed, and c |K|! / denom made canonical once per
        key."""
        sums: dict[MultiIndex, int | Fraction] = {}
        for w, c in self._straighten(word).items():
            add_entry(sums, _index_of_word(w, self.n), c)
        return {K: _exact(Fraction(v * mi_factorial(K), denom)) for K, v in sums.items()}

    def mono_mul(self, I: MultiIndex, J: MultiIndex) -> dict[MultiIndex, int | Fraction]:
        """b^(I) b^(J) expanded in the divided-power basis."""
        key = (I, J)
        got = self._mul_memo.get(key)
        if got is None:
            got = self._mul_memo[key] = self._divided(
                _word_of(I) + _word_of(J), mi_factorial(I) * mi_factorial(J))
        return got

    def antipode_mono(self, I: MultiIndex) -> dict[MultiIndex, int | Fraction]:
        """S(b^(I)): sign-reversed straightening of the reversed word."""
        got = self._antipode_memo.get(I)
        if got is None:
            sign = -1 if mi_deg(I) % 2 else 1
            got = self._antipode_memo[I] = self._divided(
                tuple(reversed(_word_of(I))), sign * mi_factorial(I))
        return got


class HElement:
    """A finite rational combination of PBW divided-power monomials; the
    constructor keeps each nonzero coefficient canonical (`_exact`)."""

    __slots__ = ("hopf", "coeffs")

    def __init__(self, hopf: Hopf, coeffs: dict[MultiIndex, int | Fraction]):
        self.hopf = hopf
        self.coeffs = {I: _exact(c) for I, c in coeffs.items() if c}

    # -- ring structure --------------------------------------------------
    def __add__(self, other: "HElement") -> "HElement":
        self._check(other)
        out = dict(self.coeffs)
        for I, c in other.coeffs.items():
            out[I] = out.get(I, 0) + c
        return HElement(self.hopf, out)

    def __sub__(self, other: "HElement") -> "HElement":
        return self + other.scale(-1)

    def __neg__(self) -> "HElement":
        return self.scale(-1)

    def scale(self, c) -> "HElement":
        c = rat(c)
        return HElement(self.hopf, {I: c * v for I, v in self.coeffs.items()})

    def __mul__(self, other: "HElement") -> "HElement":
        self._check(other)
        out = _product(self.hopf, self.coeffs.items(), other.coeffs.items())
        return HElement(self.hopf, out)

    def _check(self, other: "HElement") -> None:
        if other.hopf is not self.hopf:
            raise DimensionMismatch("elements of different enveloping algebras")

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- structure maps ----------------------------------------------------
    def counit(self) -> int | Fraction:
        return self.coeffs.get(mi_zero(self.hopf.n), 0)

    def antipode(self) -> "HElement":
        out: dict[MultiIndex, int | Fraction] = {}
        for I, c in self.coeffs.items():
            for K, v in self.hopf.antipode_mono(I).items():
                add_entry(out, K, c * v)
        return HElement(self.hopf, out)

    def coproduct(self) -> dict[tuple[MultiIndex, MultiIndex], int | Fraction]:
        """Delta as a sparse map (J, K) -> coefficient; Delta(b^(I)) is the
        multiplicity-free sum over J + K = I."""
        out: dict[tuple[MultiIndex, MultiIndex], int | Fraction] = {}
        for I, c in self.coeffs.items():
            for J, K in mi_splits(I):
                add_entry(out, (J, K), c)
        return out

    # -- inspection ----------------------------------------------------------
    def degree(self) -> int:
        """Filtration degree: max |I| over the support, -1 for zero."""
        return max((mi_deg(I) for I in self.coeffs), default=-1)

    def __eq__(self, other) -> bool:
        return isinstance(other, HElement) and self.hopf is other.hopf and self.coeffs == other.coeffs

    def __hash__(self):
        raise TypeError("HElement is not hashable")

    def __repr__(self) -> str:
        order = sorted(self.coeffs, key=lambda J: (mi_deg(J), J))
        return " + ".join(f"{self.coeffs[I]}*b^{I}" for I in order) or "0"

    def serialize(self) -> list:
        return [[list(I), str(c)] for I, c in sorted(self.coeffs.items())]


def _product(hopf: Hopf, f, g) -> dict[MultiIndex, int | Fraction]:
    """f g for two iterables of terms (I, c) of H, in int wherever the terms
    are, with the key order of adding the products of the terms one at a
    time; a key whose sum cancels is dropped and goes last if it returns.
    The sums are not made canonical: that is the caller's output step."""
    out: dict[MultiIndex, int | Fraction] = {}
    for I, a in f:
        for J, b in g:
            ab = a * b
            for K, c in hopf.mono_mul(I, J).items():
                s = out.get(K, 0) + ab * c
                if s:
                    out[K] = s
                else:
                    out.pop(K, None)
    return out


def coproduct_power(h: HElement, slots: int) -> dict[tuple[MultiIndex, ...], int | Fraction]:
    """Iterated coproduct of h spread over `slots` tensor factors."""
    out: dict[tuple[MultiIndex, ...], int | Fraction] = {}
    for I, c in h.coeffs.items():
        for split in _multi_splits(I, slots):
            add_entry(out, split, c)
    return out


def _multi_splits(I: MultiIndex, slots: int):
    if slots == 1:
        yield (I,)
        return
    for J, K in mi_splits(I):
        for rest in _multi_splits(K, slots - 1):
            yield (J,) + rest
