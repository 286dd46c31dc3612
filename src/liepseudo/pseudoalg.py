"""Concrete Lie pseudoalgebras: W(d), current algebras, the divergence, and
the generators of S(d, chi), together with exact axiom checkers.

W(d) is the free H-module H (x) d; a WElement stores one H coefficient per
basis vector of d, and doubles as an element of Cur g = H (x) g.  The
bracket of W(d) and its action on H are the pseudoactions of two ModuleSpecs
(`w_modules`), so both run on the one kernel `ModuleSpec.w_star`; arguments
are WElements or module vectors, and the carriers of values module vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import DimensionMismatch, DimensionTooSmall
from .hopf import HElement, Hopf, mi_below, mi_unit, mi_zero
from .liecore import LieData, TraceForm, rat
from .pseudoaction import ONE, ZERO, ModuleSpec, ModuleVector
from .twosided import LEFT, PseudoValue, jacobi_defect, skew_defect


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
    """The Lie pseudoalgebra W(d) = H (x) d with its pseudobracket and its
    action on H, both through `w_modules`."""

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

    def bracket(self, u, v) -> PseudoValue:
        """[u * v], the pseudoaction of W(d) on itself (`w_modules`): by
        H-bilinearity [(f (x) a) * (g (x) b)] = (f (x) g) (x)_H (1 (x) [a,b])
        - (f (x) g a) (x)_H (1 (x) b) + (f b (x) g) (x)_H (1 (x) a)."""
        return w_modules(self.hopf)[0].w_star(u, _as_vector(v, self.n))

    def action_on_h(self, w, g) -> PseudoValue:
        """(f (x) a) * g = -(f (x) g a) (x)_H 1: the W(d)-module H (`w_modules`),
        for g in H or a width-1 vector."""
        return w_modules(self.hopf)[1].w_star(w, _as_vector(g, 1))

    def div(self, w, chi: TraceForm) -> HElement:
        """Div^chi(sum h_a (x) b_a) = sum h_a (b_a + chi(b_a)), for a WElement
        or a width-n vector."""
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


def _as_vector(x, width: int) -> ModuleVector:
    """x as a module vector of the given width: a WElement sum_a h_a (x) b_a,
    an h in H as h (x) 1 in H (x) k, a module vector as itself."""
    if not isinstance(x, ModuleVector):
        comps = x.comps if isinstance(x, WElement) else (x,)
        keys = dict.fromkeys(I for h in comps for I in h.coeffs)
        x = ModuleVector(x.hopf, len(comps), {I: tuple(h.coeffs.get(I, ZERO) for h in comps)
                                              for I in keys})
    if x.width != width:
        raise DimensionMismatch(f"need a vector of width {width}, not {x.width}")
    return x


def w_modules(hopf: Hopf) -> tuple[ModuleSpec, ModuleSpec]:
    """W(d) as its own adjoint module H (x) d and the W(d)-module H = H (x) k,
    built once per Hopf from the paper's formulas
    [(1 (x) b_i) * (1 (x) b_k)] = (1 (x) 1) (x)_H (1 (x) [b_i, b_k])
      - (1 (x) b_i) (x)_H (1 (x) b_k) + (b_k (x) 1) (x)_H (1 (x) b_i),
    (1 (x) b_i) * 1 = -(1 (x) b_i) (x)_H 1,

    in left normal form: -(1 (x) b_i) (x)_H w = (b_i (x) 1) (x)_H w - (1 (x) 1) (x)_H b_i w.
    """
    memo = hopf._w_modules_memo
    if not memo:
        n, z = hopf.n, mi_zero(hopf.n)
        b = [mi_unit(n, i) for i in range(n)]

        def value(width: int, terms) -> PseudoValue:
            """sum (b^(K) (x) 1) (x)_H (c b^(J) (x) u_r) over the terms (K, J, r, c)."""
            out = PseudoValue.zero(hopf)
            for K, J, r, c in terms:
                out = out.add(PseudoValue(hopf, LEFT, {K: ModuleVector.unit(hopf, width, r, J).scale(c)}))
            return out

        memo["W(d)"] = ModuleSpec(hopf, n, tuple(tuple(
            value(n, [(z, z, r, c) for r, c in hopf.lie.bracket(i, k).items()]
                  + [(b[i], z, k, ONE), (z, b[i], k, -ONE), (b[k], z, i, ONE)])
            for k in range(n)) for i in range(n)), name="W(d)")
        memo["H"] = ModuleSpec(hopf, 1, tuple((value(1, [(b[i], z, 0, ONE), (z, b[i], 0, -ONE)]),)
                                              for i in range(n)), name="H")
    return memo["W(d)"], memo["H"]


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
