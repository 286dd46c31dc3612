"""The truncated dual X = H* with basis x_I dual to the divided powers.

X is pro-finite; computations happen modulo fil_D X for an explicit validity
degree D carried by every element.  Operations compute the tightest correct
validity of their result, and equality is only meaningful up to the common
validity, so callers compare through `eq_upto`.

Conventions: <x_I, b^(J)> = delta_I^J; x_J x_K = x_{J+K}; the left action is
<h x, f> = <x, S(h) f> and the right action <x h, f> = <x, f S(h)>.
Coefficients are canonical, an int when integral and else a Fraction
(`_linalg._exact`), as the XElement constructor keeps them.
"""

from __future__ import annotations

from fractions import Fraction

from ._linalg import _exact, add_entry
from .errors import DimensionMismatch, TruncationExceeded
from .hopf import HElement, Hopf, MultiIndex, mi_add, mi_deg, mi_below, mi_unit, mi_zero
from .liecore import rat

DEFAULT_TRUNCATION = 6


class XElement:
    """A functional sum c x_I modulo fil_validity X; the constructor keeps
    each nonzero coefficient of degree at most the validity, canonical
    (`_exact`)."""

    __slots__ = ("hopf", "coeffs", "validity")

    def __init__(self, hopf: Hopf, coeffs: dict[MultiIndex, int | Fraction], validity: int):
        self.hopf = hopf
        self.coeffs = {I: _exact(c) for I, c in coeffs.items() if c and mi_deg(I) <= validity}
        self.validity = validity

    # -- constructors ----------------------------------------------------
    @classmethod
    def unit(cls, hopf: Hopf, validity: int = DEFAULT_TRUNCATION) -> "XElement":
        """The counit functional x_0, the unit of the ring X."""
        return cls(hopf, {mi_zero(hopf.n): 1}, validity)

    @classmethod
    def coord(cls, hopf: Hopf, i: int, validity: int = DEFAULT_TRUNCATION) -> "XElement":
        """The degree-one coordinate x^i."""
        return cls(hopf, {mi_unit(hopf.n, i): 1}, validity)

    @classmethod
    def mono(cls, hopf: Hopf, I, c=1, validity: int = DEFAULT_TRUNCATION) -> "XElement":
        return cls(hopf, {tuple(I): rat(c)}, validity)

    # -- linear structure -------------------------------------------------
    def __add__(self, other: "XElement") -> "XElement":
        self._check(other)
        validity = min(self.validity, other.validity)
        out = dict(self.coeffs)
        for I, c in other.coeffs.items():
            out[I] = out.get(I, 0) + c
        return XElement(self.hopf, out, validity)

    def __sub__(self, other: "XElement") -> "XElement":
        return self + other.scale(-1)

    def __neg__(self) -> "XElement":
        return self.scale(-1)

    def scale(self, c) -> "XElement":
        c = rat(c)
        return XElement(self.hopf, {I: c * v for I, v in self.coeffs.items()}, self.validity)

    def _check(self, other: "XElement") -> None:
        if other.hopf is not self.hopf:
            raise DimensionMismatch("dual elements over different algebras")

    # -- ring structure --------------------------------------------------
    def __mul__(self, other: "XElement") -> "XElement":
        """x_J x_K = x_{J+K}, truncated to the common validity."""
        self._check(other)
        validity = min(self.validity, other.validity)
        out: dict[MultiIndex, int | Fraction] = {}
        for I, a in self.coeffs.items():
            for J, b in other.coeffs.items():
                K = mi_add(I, J)
                if mi_deg(K) <= validity:
                    add_entry(out, K, a * b)
        return XElement(self.hopf, out, validity)

    # -- pairing and H-actions ---------------------------------------------
    def pair(self, h: HElement) -> int | Fraction:
        if h.degree() > self.validity:
            raise TruncationExceeded(
                f"pairing needs degree {h.degree()} but validity is {self.validity}"
            )
        return _exact(sum(c * self.coeffs[I] for I, c in h.coeffs.items() if I in self.coeffs))

    def act_left(self, h: HElement) -> "XElement":
        """h . x with <h x, f> = <x, S(h) f>; validity drops by deg h."""
        return self._act(h, "left")

    def act_right(self, h: HElement) -> "XElement":
        """x . h with <x h, f> = <x, f S(h)>; validity drops by deg h."""
        return self._act(h, "right")

    def _act(self, h: HElement, side: str) -> "XElement":
        """Both H-actions as a sparse matvec over the support of x: the
        coefficient at x_J is sum_M S(h)_M sum_K c^K_{M,J} x_K, where c^K_{M,J}
        is the coefficient of b^(K) in b^(M) b^(J) (left) or b^(J) b^(M) (right),
        summed in int wherever it is integral."""
        d = h.degree()
        if d < 0:
            return XElement(self.hopf, {}, self.validity)
        validity = self.validity - d
        if validity < -1:
            raise TruncationExceeded(f"{side} action exhausts validity")
        acc: dict[MultiIndex, int | Fraction] = {}
        for M, s in h.antipode().coeffs.items():
            table = _action_table(self.hopf, M, validity, side)
            for K, v in self.coeffs.items():
                entries = table.get(K)
                if not entries:
                    continue
                sv = s * v
                for J, c in entries:
                    acc[J] = acc.get(J, 0) + sv * c
        # emit in the (|J|, J) order of mi_below
        out = {J: acc[J] for J in sorted(acc, key=lambda J: (mi_deg(J), J))}
        return XElement(self.hopf, out, validity)

    # -- filtration ----------------------------------------------------------
    def order(self) -> int | None:
        """Filtration order: the largest p with x in fil_p X, i.e. min |I| - 1
        over the support; None for (truncation-)zero elements."""
        if not self.coeffs:
            return None
        return min(mi_deg(I) for I in self.coeffs) - 1

    def truncate(self, validity: int) -> "XElement":
        return XElement(self.hopf, self.coeffs, min(self.validity, validity))

    def drop_below_order(self, p: int) -> "XElement":
        """The component in fil_p X (support degrees >= p + 1)."""
        return XElement(
            self.hopf, {I: c for I, c in self.coeffs.items() if mi_deg(I) >= p + 1}, self.validity
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def eq_upto(self, other: "XElement", degree: int | None = None) -> bool:
        """Equality of coefficients up to min validity (or a given degree)."""
        self._check(other)
        bound = min(self.validity, other.validity)
        if degree is not None:
            bound = min(bound, degree)
        keys = set(self.coeffs) | set(other.coeffs)
        for I in keys:
            if mi_deg(I) > bound:
                continue
            if self.coeffs.get(I, 0) != other.coeffs.get(I, 0):
                return False
        return True

    def __repr__(self) -> str:
        if not self.coeffs:
            return f"0 (mod fil_{self.validity})"
        bits = []
        for I in sorted(self.coeffs, key=lambda J: (mi_deg(J), J)):
            bits.append(f"{self.coeffs[I]}*x_{I}")
        return " + ".join(bits) + f" (mod fil_{self.validity})"

    def serialize(self) -> dict:
        return {
            "terms": [[list(I), str(c)] for I, c in sorted(self.coeffs.items())],
            "validity": self.validity,
        }


def _action_table(hopf: Hopf, M: MultiIndex, validity: int, side: str):
    """K -> [(J, c)] over |J| <= validity, where c is the coefficient of b^(K)
    in b^(M) b^(J) (side "left") or b^(J) b^(M) (side "right"), canonical
    as `Hopf.mono_mul` gives it.  Memoized on the Hopf instance per (M,
    validity, side)."""
    key = (M, validity, side)
    table = hopf._x_action_memo.get(key)
    if table is None:
        table = {}
        for J in mi_below(hopf.n, validity):
            prod = hopf.mono_mul(M, J) if side == "left" else hopf.mono_mul(J, M)
            for K, c in prod.items():
                table.setdefault(K, []).append((J, c))
        hopf._x_action_memo[key] = table
    return table
