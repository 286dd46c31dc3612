"""Concrete Lie pseudoalgebras: W(d), current algebras, the divergence, and
the generators of S(d, chi), together with exact axiom checkers.

W(d) = H (x) d and Cur g = H (x) g are free H-modules, so their elements are
module vectors (`pseudoaction.ModuleVector`) of width dim d and dim g.  The
bracket of W(d) and its action on H are the pseudoactions of two ModuleSpecs
(`w_modules`), so both run on the one kernel `ModuleSpec.w_star`; arguments
and the carriers of values are module vectors.
"""

from __future__ import annotations

import itertools

from .errors import DimensionTooSmall
from .hopf import HElement, Hopf, mi_below, mi_unit, mi_zero
from .liecore import LieData, TraceForm
from .pseudoaction import ModuleSpec, ModuleVector
from .twosided import LEFT, PseudoValue, _fold, _pseudo_value, module_defect, skew_defect


# ---------------------------------------------------------------------------
# W(d)
# ---------------------------------------------------------------------------

class WAlgebra:
    """The Lie pseudoalgebra W(d) = H (x) d with its pseudobracket and its
    action on H, both through `w_modules`.  Elements are width-n module
    vectors sum_a h_a (x) b_a."""

    def __init__(self, hopf: Hopf):
        self.hopf = hopf
        self.n = hopf.n

    def gen(self, a: int) -> ModuleVector:
        return ModuleVector.unit(self.hopf, self.n, a)

    def gens(self) -> list[ModuleVector]:
        return [self.gen(a) for a in range(self.n)]

    def bracket(self, u: ModuleVector, v: ModuleVector) -> PseudoValue:
        """[u * v], the pseudoaction of W(d) on itself (`w_modules`): by
        H-bilinearity [(f (x) a) * (g (x) b)] = (f (x) g) (x)_H (1 (x) [a,b])
        - (f (x) g a) (x)_H (1 (x) b) + (f b (x) g) (x)_H (1 (x) a)."""
        return w_modules(self.hopf)[0].w_star(u, v)

    def action_on_h(self, w: ModuleVector, g: ModuleVector) -> PseudoValue:
        """(f (x) a) * g = -(f (x) g a) (x)_H 1: the W(d)-module H = H (x) k
        (`w_modules`), for g a width-1 vector."""
        return w_modules(self.hopf)[1].w_star(w, g)

    def div(self, w: ModuleVector, chi: TraceForm) -> HElement:
        """Div^chi(sum h_a (x) b_a) = sum h_a (b_a + chi(b_a))."""
        out = self.hopf.zero()
        for a, h in enumerate(w.comps):
            if h.is_zero():
                continue
            out = out + h * self.hopf.gen(a) + h.scale(chi(a))
        return out

    def s_generator(self, a: int, b: int, chi: TraceForm) -> ModuleVector:
        """s_ab = (a + chi(a)) (x) b - (b + chi(b)) (x) a - 1 (x) [a, b].

        Each h_k lists its linear key before the constant one: `w_star`
        reads h_k in key order, and the key order of its values follows."""
        if self.n <= 2:
            raise DimensionTooSmall("S(d, chi) requires dim d >= 3")
        n = self.n
        ea, eb, z = mi_unit(n, a), mi_unit(n, b), mi_zero(n)
        rows = {ea: [0] * n, eb: [0] * n, z: [0] * n}
        rows[ea][b] += 1
        rows[eb][a] -= 1
        rows[z][b] += chi(a)
        rows[z][a] -= chi(b)
        for k, c in self.hopf.lie.bracket(a, b).items():
            rows[z][k] -= c
        return ModuleVector(self.hopf, n, rows)

    def s_generators(self, chi: TraceForm) -> list[tuple[tuple[int, int], ModuleVector]]:
        out = []
        for a in range(self.n):
            for b in range(a + 1, self.n):
                out.append(((a, b), self.s_generator(a, b, chi)))
        return out


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
            """sum (b^(K) (x) 1) (x)_H (c b^(J) (x) u_r) over the terms (K, J, r, c), folded."""
            store: dict = {}  # K -> J -> coordinates
            for K, J, r, c in terms:
                _fold(store, K, [(J, [1 if s == r else 0 for s in range(width)])], c)
            return _pseudo_value(hopf, LEFT, store, ModuleVector, width)

        memo["W(d)"] = ModuleSpec(hopf, n, tuple(tuple(
            value(n, [(z, z, r, c) for r, c in hopf.lie.bracket(i, k).items()]
                  + [(b[i], z, k, 1), (z, b[i], k, -1), (b[k], z, i, 1)])
            for k in range(n)) for i in range(n)), name="W(d)")
        memo["H"] = ModuleSpec(hopf, 1, tuple((value(1, [(b[i], z, 0, 1), (z, b[i], 0, -1)]),)
                                              for i in range(n)), name="H")
    return memo["W(d)"], memo["H"]


def cur_algebra_bracket(hopf: Hopf, g: LieData):
    """Pseudobracket of Cur g = H (x) g on width-dim g vectors:
    (f (x) a) * (h (x) b) = (f (x) h) (x)_H (1 (x) [a,b])."""

    def bracket(u: ModuleVector, v: ModuleVector) -> PseudoValue:
        v_comps = [(b, h) for b, h in enumerate(v.comps) if not h.is_zero()]
        return PseudoValue.from_tensor(hopf, [
            (f, h, ModuleVector.unit(hopf, g.dim, k).scale(c))
            for a, f in enumerate(u.comps) if not f.is_zero()
            for b, h in v_comps for k, c in g.bracket(a, b).items()])

    return bracket


# ---------------------------------------------------------------------------
# Axiom check reports
# ---------------------------------------------------------------------------

class CheckReport:
    """The cases of one named check and its failing ones."""

    def __init__(self, name: str):
        self.name = name
        self.total = 0
        self.failures = []

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


def check_skew(bracket, elems) -> CheckReport:
    """Zero defect of [b*a] = -(sigma (x)_H id)[a*b] on all ordered pairs; a
    failing pair records the sorted I of its normal-form defect, as
    `check_jacobi` records its sorted (I, J)."""
    report = CheckReport("skew-symmetry")
    for (i, a), (j, b) in itertools.product(enumerate(elems), repeat=2):
        d = skew_defect(a, b, bracket)
        report.case(f"pair ({i+1}, {j+1})", d.is_zero(), [[list(I)] for I in sorted(d.terms)])
    return report


def check_jacobi(bracket, elems) -> CheckReport:
    """Zero defect of [[a*b]*c] - [a*[b*c]] + ((sigma (x) id) (x)_H id)[b*[a*c]],
    the module axiom of the adjoint action, on all ordered triples."""
    report = CheckReport("Jacobi")
    for (i, a), (j, b), (k, c) in itertools.product(enumerate(elems), repeat=3):
        d = module_defect(a, b, c, bracket, bracket)
        report.case(f"triple ({i+1}, {j+1}, {k+1})", not d,
                    [[list(I), list(J)] for I, J in sorted({(I, J) for I, J, _N, _k in d})])
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
