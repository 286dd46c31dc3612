"""Concrete Lie pseudoalgebras: W(d), current algebras, the divergence, and
the generators of S(d, chi), together with exact axiom checkers.

W(d) is the free H-module H (x) d; its elements are stored as one H
coefficient per basis vector of d.  The same container doubles as an element
of Cur g = H (x) g.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionMismatch, DimensionTooSmall
from .hopf import HElement, Hopf, mi_below
from .liecore import LieData, TraceForm, rat
from .twosided import PseudoValue, jacobi_defect, skew_defect

ZERO = Fraction(0)


class WElement:
    """An element of a free module H (x) k^m: one HElement per fiber index.

    For W(d) the fiber is d itself (m = N); for Cur g it is g.
    """

    __slots__ = ("hopf", "comps")

    def __init__(self, hopf: Hopf, comps):
        self.hopf = hopf
        self.comps = tuple(comps)

    @classmethod
    def zero(cls, hopf: Hopf, m: int) -> "WElement":
        return cls(hopf, tuple(hopf.zero() for _ in range(m)))

    @classmethod
    def unit(cls, hopf: Hopf, m: int, a: int, h: HElement | None = None) -> "WElement":
        """h (x) b_a (default h = 1)."""
        comps = [hopf.zero() for _ in range(m)]
        comps[a] = h if h is not None else hopf.one()
        return cls(hopf, comps)

    @property
    def rank(self) -> int:
        return len(self.comps)

    def add(self, other: "WElement") -> "WElement":
        if other.rank != self.rank:
            raise DimensionMismatch("free-module ranks differ")
        return WElement(self.hopf, (a + b for a, b in zip(self.comps, other.comps)))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "WElement":
        c = rat(c)
        return WElement(self.hopf, (h.scale(c) for h in self.comps))

    def hmul(self, h: HElement) -> "WElement":
        return WElement(self.hopf, (h * comp for comp in self.comps))

    def is_zero(self) -> bool:
        return all(h.is_zero() for h in self.comps)

    def degree(self) -> int:
        return max((h.degree() for h in self.comps), default=-1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WElement)
            and self.rank == other.rank
            and all(a == b for a, b in zip(self.comps, other.comps))
        )

    def __hash__(self):
        raise TypeError("WElement is not hashable")

    def __repr__(self) -> str:
        bits = [f"({h!r})(x)b_{a+1}" for a, h in enumerate(self.comps) if not h.is_zero()]
        return " + ".join(bits) if bits else "0"

    def serialize(self) -> list:
        return [h.serialize() for h in self.comps]


# ---------------------------------------------------------------------------
# W(d)
# ---------------------------------------------------------------------------

class WAlgebra:
    """The Lie pseudoalgebra W(d) = H (x) d with its pseudobracket."""

    def __init__(self, hopf: Hopf):
        self.hopf = hopf
        self.n = hopf.n

    def gen(self, a: int) -> WElement:
        return WElement.unit(self.hopf, self.n, a)

    def gens(self) -> list[WElement]:
        return [self.gen(a) for a in range(self.n)]

    def element(self, comps) -> WElement:
        comps = tuple(comps)
        if len(comps) != self.n:
            raise DimensionMismatch("need one H coefficient per basis vector of d")
        return WElement(self.hopf, comps)

    def bracket(self, u: WElement, v: WElement) -> PseudoValue:
        """[(f (x) a) * (g (x) b)] = (f (x) g) (x)_H (1 (x) [a,b])
        - (f (x) g a) (x)_H (1 (x) b) + (f b (x) g) (x)_H (1 (x) a)."""
        hopf = self.hopf
        out = PseudoValue.zero(hopf)
        for a, f in enumerate(u.comps):
            if f.is_zero():
                continue
            for b, g in enumerate(v.comps):
                if g.is_zero():
                    continue
                for k, c in hopf.lie.bracket(a, b).items():
                    out = out.add(PseudoValue.from_tensor(f, g, self.gen(k).scale(c)))
                out = out.add(PseudoValue.from_tensor(f, g * hopf.gen(a), self.gen(b)).neg())
                out = out.add(PseudoValue.from_tensor(f * hopf.gen(b), g, self.gen(a)))
        return out

    def action_on_h(self, w: WElement, g: HElement) -> PseudoValue:
        """(f (x) a) * g = -(f (x) g a) (x)_H 1: the W(d)-module H."""
        hopf = self.hopf
        out = PseudoValue.zero(hopf)
        for a, f in enumerate(w.comps):
            if f.is_zero():
                continue
            out = out.add(PseudoValue.from_tensor(f, g * hopf.gen(a), hopf.one()).neg())
        return out

    def div(self, w: WElement, chi: TraceForm) -> HElement:
        """Div^chi(sum h_a (x) b_a) = sum h_a (b_a + chi(b_a))."""
        out = self.hopf.zero()
        for a, h in enumerate(w.comps):
            if h.is_zero():
                continue
            out = out + h * self.hopf.gen(a) + h.scale(chi(a))
        return out

    def s_generator(self, a: int, b: int, chi: TraceForm) -> WElement:
        """s_ab = (a + chi(a)) (x) b - (b + chi(b)) (x) a - 1 (x) [a, b]."""
        if self.n <= 2:
            raise DimensionTooSmall("S(d, chi) requires dim d >= 3")
        hopf = self.hopf
        comps = [hopf.zero() for _ in range(self.n)]
        comps[b] = comps[b] + hopf.gen(a) + hopf.one().scale(chi(a))
        comps[a] = comps[a] - hopf.gen(b) - hopf.one().scale(chi(b))
        for k, c in hopf.lie.bracket(a, b).items():
            comps[k] = comps[k] - hopf.one().scale(c)
        return WElement(hopf, comps)

    def s_generators(self, chi: TraceForm) -> list[tuple[tuple[int, int], WElement]]:
        out = []
        for a in range(self.n):
            for b in range(a + 1, self.n):
                out.append(((a, b), self.s_generator(a, b, chi)))
        return out


def cur_algebra_bracket(hopf: Hopf, g: LieData):
    """Pseudobracket of Cur g: (f (x) a) * (h (x) b) = (f (x) h) (x)_H (1 (x) [a,b])."""

    def bracket(u: WElement, v: WElement) -> PseudoValue:
        out = PseudoValue.zero(hopf)
        for a, f in enumerate(u.comps):
            if f.is_zero():
                continue
            for b, h in enumerate(v.comps):
                if h.is_zero():
                    continue
                for k, c in g.bracket(a, b).items():
                    out = out.add(
                        PseudoValue.from_tensor(f, h, WElement.unit(hopf, g.dim, k).scale(c))
                    )
        return out

    return bracket


# ---------------------------------------------------------------------------
# Axiom check reports
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    name: str
    total: int = 0
    failures: list = field(default_factory=list)

    @classmethod
    def one_case(cls, label: str, ok: bool) -> "CheckReport":
        report = cls(label)
        report.case(label, ok)
        return report

    @property
    def ok(self) -> bool:
        """True when at least one case ran and none failed."""
        return self.total > 0 and not self.failures

    @property
    def first_failure(self) -> str | None:
        """The label of the first failing case ("no cases" when none ran)."""
        if self.failures:
            return self.failures[0]["case"]
        return None if self.total else "no cases"

    def case(self, label: str, ok: bool, defect_support=None) -> None:
        """Count one case and record it when it fails."""
        self.total += 1
        if not ok:
            self.failures.append({"case": label, "defect_support": defect_support})

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "cases": self.total,
            "ok": self.ok,
            "failures": self.failures,
        }


def check_skew(bracket, elems, name: str = "skew-symmetry") -> CheckReport:
    """Zero defect of [b*a] = -(sigma (x)_H id)[a*b] on all ordered pairs."""
    report = CheckReport(name)
    for (i, a), (j, b) in itertools.product(enumerate(elems), repeat=2):
        d = skew_defect(a, b, bracket)
        report.case(f"pair ({i+1}, {j+1})", d.is_zero(), [[list(I)] for I in d.support()])
    return report


def check_jacobi(bracket, elems, name: str = "Jacobi") -> CheckReport:
    report = CheckReport(name)
    for (i, a), (j, b), (k, c) in itertools.product(enumerate(elems), repeat=3):
        d = jacobi_defect(a, b, c, bracket)
        report.case(f"triple ({i+1}, {j+1}, {k+1})", d.is_zero(),
                    [[list(I), list(J)] for I, J in d.support()])
    return report


def check_s_closure(walg: WAlgebra, chi: TraceForm, degree: int = 2) -> CheckReport:
    """Div^chi vanishes on every normal-form coefficient of brackets of
    H-multiples of the s_ab, exercising closure of S(d, chi) inside W(d)."""
    report = CheckReport("S(d,chi) closure under the pseudobracket")
    gens = walg.s_generators(chi)
    monos = mi_below(walg.n, degree)
    for (pa, u), (pb, v) in itertools.product(gens, gens):
        for I in monos:
            val = walg.bracket(u.hmul(walg.hopf.mono(I)), v)
            bad = [list(K) for K, w in val.to_left().terms.items()
                   if not walg.div(w, chi).is_zero()]
            report.case(f"s_{pa} (deg {sum(I)}) with s_{pb}", not bad, bad)
    return report
