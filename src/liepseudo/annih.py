"""Annihilation algebras at finite truncation.

W = X (x) d carries the bracket
    [x (x) a, y (x) b] = xy (x) [a,b] - x(ya) (x) b + (xb)y (x) a
(right H-actions on X), the decreasing filtration W_p = fil_p X (x) d, and a
gl(d) identification of W_0/W_1 sending x^j (x) b_i to -e_i^j.  The extended
algebra d |x W acts through [b, x (x) a] = bx (x) a.

Annihilation action on pseudo-module vectors: for a value
a * v = sum (f_i (x) g_i) (x)_H v_i, the element x (x)_H a acts by
    (x (x)_H a) . v = sum <x, S(f_i g_i(-1))> g_i(2) v_i,
which for left-normal values reduces to sum_I <x, S(b^(I))> v_I.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._linalg import add_entry, span_coords
from .dualx import XElement
from .errors import DimensionMismatch, NotInW0, SolveFailed, TruncationExceeded
from .hopf import HElement, Hopf, MultiIndex, mi_add, mi_below, mi_deg, mi_unit
from .liecore import Matrix, TraceForm, mat
from .pseudoaction import ModuleVector
from .twosided import PseudoValue, _fold


class AnnElement:
    """An element of W = X (x) d: one truncated dual coefficient per basis
    vector of d.  Validity is the minimum of the component validities.  It
    keeps no cache: `ann_action` pairs its coefficients per call."""

    __slots__ = ("hopf", "comps")

    def __init__(self, hopf: Hopf, comps):
        self.hopf = hopf
        self.comps = tuple(comps)
        if len(self.comps) != hopf.n:
            raise DimensionMismatch("need one X coefficient per basis vector of d")

    @classmethod
    def zero(cls, hopf: Hopf, validity: int) -> "AnnElement":
        return cls(hopf, tuple(XElement(hopf, {}, validity) for _ in range(hopf.n)))

    @classmethod
    def term(cls, hopf: Hopf, x: XElement, a: int) -> "AnnElement":
        comps = [XElement(hopf, {}, x.validity) for _ in range(hopf.n)]
        comps[a] = x
        return cls(hopf, comps)

    @property
    def validity(self) -> int:
        return min(c.validity for c in self.comps)

    def add(self, other: "AnnElement") -> "AnnElement":
        return AnnElement(self.hopf, (a + b for a, b in zip(self.comps, other.comps)))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, c) -> "AnnElement":
        return AnnElement(self.hopf, (x.scale(c) for x in self.comps))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.comps)

    def order(self) -> int | None:
        """Largest p with the element in W_p (None for zero)."""
        return min((x.order() for x in self.comps if not x.is_zero()), default=None)

    def truncate(self, validity: int) -> "AnnElement":
        return AnnElement(self.hopf, (x.truncate(validity) for x in self.comps))

    def drop_below_order(self, p: int) -> "AnnElement":
        return AnnElement(self.hopf, (x.drop_below_order(p) for x in self.comps))

    def eq_upto(self, other: "AnnElement", degree: int | None = None) -> bool:
        return all(a.eq_upto(b, degree) for a, b in zip(self.comps, other.comps))

    def __repr__(self) -> str:
        bits = [f"({x!r})(x)b_{a+1}" for a, x in enumerate(self.comps) if not x.is_zero()]
        return " + ".join(bits) if bits else f"0 (validity {self.validity})"


# ---------------------------------------------------------------------------
# Brackets and basic maps
# ---------------------------------------------------------------------------

def ann_bracket(A: AnnElement, B: AnnElement) -> AnnElement:
    """[x (x) a, y (x) b] = xy (x) [a,b] - x(ya) (x) b + (xb)y (x) a."""
    hopf = A.hopf
    validity = min(A.validity, B.validity) - 1
    comps: list[dict] = [{} for _ in range(hopf.n)]
    for a, x in enumerate(A.comps):
        if x.is_zero():
            continue
        for b, y in enumerate(B.comps):
            if y.is_zero():
                continue
            _add_term_bracket(comps, hopf, x.coeffs, a, y.coeffs, b,
                              y.act_right(hopf.gen(a)).coeffs,
                              x.act_right(hopf.gen(b)).coeffs, validity)
    return AnnElement(hopf, (XElement(hopf, comp, validity) for comp in comps))


def _add_term_bracket(comps: list[dict], hopf: Hopf, x: dict, a: int, y: dict, b: int,
                      ya: dict, xb: dict, cap: int) -> None:
    """Add [x (x) b_a, y (x) b_b] up to degree cap into comps, one coefficient
    dict per basis vector of d; ya and xb are the coefficients of y b_a and x b_b."""
    terms = [(k, x, y, c) for k, c in hopf.lie.bracket(a, b).items()]
    for k, left, right, c in terms + [(b, x, ya, -1), (a, xb, y, 1)]:
        for I, u in left.items():
            for J, v in right.items():
                K = mi_add(I, J)
                if mi_deg(K) <= cap:
                    add_entry(comps[k], K, c * u * v)


def d_act(hopf: Hopf, i: int, A: AnnElement) -> AnnElement:
    """[b_i, x (x) a] = b_i x (x) a, the derivation action of d on W."""
    return AnnElement(hopf, (x.act_left(hopf.gen(i)) for x in A.comps))


def act_on_x(A: AnnElement, y: XElement) -> XElement:
    """(x (x) a) y = -x(ya): the W-action on its module X."""
    hopf = A.hopf
    out = None
    for a in range(hopf.n):
        x = A.comps[a]
        if x.is_zero():
            continue
        term = (x * y.act_right(hopf.gen(a))).scale(-1)
        out = term if out is None else out + term
    if out is None:
        return XElement(hopf, {}, min(A.validity, y.validity) - 1)
    return out


def ann_div(A: AnnElement, chi: TraceForm) -> XElement:
    """Div^chi(sum y_a (x) b_a) = sum y_a (b_a + chi(b_a))."""
    hopf = A.hopf
    out = XElement(hopf, {}, A.validity - 1)
    for a in range(hopf.n):
        x = A.comps[a]
        if x.is_zero():
            continue
        out = out + x.act_right(hopf.gen(a)) + x.scale(chi(a)).truncate(A.validity - 1)
    return out


def iota(x: XElement, w: ModuleVector) -> AnnElement:
    """iota(x (x)_H sum h_a (x) b_a) = sum (x h_a) (x) b_a: S -> W."""
    return _iota(x, w.comps)


def _iota(x: XElement, hs) -> AnnElement:
    """iota(x (x)_H w) from the coefficients h_a of w, `w.comps`."""
    hopf = x.hopf
    comps = []
    for h in hs:
        if h.is_zero():
            comps.append(XElement(hopf, {}, x.validity))
        else:
            comps.append(x.act_right(h))
    validity = min(c.validity for c in comps)
    return AnnElement(hopf, (c.truncate(validity) for c in comps))


def gr_iso_gl(A: AnnElement) -> Matrix:
    """The class of A in W_0/W_1 as a gl(d) matrix: x^j (x) b_i -> -e_i^j."""
    hopf = A.hopf
    n = hopf.n
    order = A.order()
    if order is not None and order < 0:
        raise NotInW0(f"element has filtration order {order}")
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for j in range(n):
            c = A.comps[a].coeffs.get(mi_unit(n, j))
            if c:
                rows[a][j] -= c
    return mat(rows)


@dataclass
class ExtAnnElement:
    """Formal pair in the extended algebra d |x W."""

    d_part: tuple[int | Fraction, ...]
    w_part: AnnElement

    @classmethod
    def from_d(cls, hopf: Hopf, i: int, validity: int) -> "ExtAnnElement":
        vec = tuple(int(k == i) for k in range(hopf.n))
        return cls(vec, AnnElement.zero(hopf, validity))

    def bracket(self, other: "ExtAnnElement") -> "ExtAnnElement":
        hopf = self.w_part.hopf
        lie = hopf.lie
        d_out = lie.bracket_vec(self.d_part, other.d_part)
        w_out = ann_bracket(self.w_part, other.w_part)
        for i, c in enumerate(self.d_part):
            if c:
                w_out = w_out.add(d_act(hopf, i, other.w_part).scale(c))
        for i, c in enumerate(other.d_part):
            if c:
                w_out = w_out.add(d_act(hopf, i, self.w_part).scale(-c))
        return ExtAnnElement(d_out, w_out)


# ---------------------------------------------------------------------------
# Annihilation action on pseudo-module vectors
# ---------------------------------------------------------------------------

def ann_action(els: list[AnnElement], vectors, action_pv) -> list[list]:
    """out[j][m] = sum_a sum_I <x_a, S(b^(I))> v_I for A = els[m] = sum x_a (x) b_a
    and v = vectors[j], over the left-normal terms b^(I) (x) v_I of
    (1 (x) b_a) * v.  `action_pv(i, v)` must return (1 (x) b_i) * v as a
    PseudoValue; it is read once per vector and a, for all the elements.

    The nonzero pairings are indexed a -> I -> [(m, pairing)] as they are
    met, each (a, I) paired once per call.  Each term is folded only into the
    elements listed under its (a, I), in (a, term) order, so each element's
    store has the key order of adding its terms one at a time.  out[j][m] is
    None when every pairing of els[m] met on v is zero.  TruncationExceeded is
    raised at the first (vector, element, a, I) whose degree exceeds x_a's
    validity.
    """
    if not els:
        return [[] for _ in vectors]
    hopf = els[0].hopf
    # a -> the (m, x_a) with x_a nonzero, and the lowest validity among them
    active = [[(m, el.comps[a]) for m, el in enumerate(els) if not el.comps[a].is_zero()]
              for a in range(hopf.n)]
    lows = [min((x.validity for _m, x in act), default=None) for act in active]
    index: list[dict] = [{} for _ in range(hopf.n)]
    out = []
    for v in vectors:
        values = [action_pv(a, v).to_left().terms if act else {} for a, act in enumerate(active)]
        if any(low is not None and max(map(mi_deg, terms), default=0) > low
               for low, terms in zip(lows, values)):
            _raise_first_exceeded(els, values)
        stores: list[dict] = [{} for _ in els]  # `_fold` stores with the one key ()
        widths: list = [None] * len(els)
        for a, terms in enumerate(values):
            for I, w in terms.items():
                listed = index[a].get(I)
                if listed is None:
                    S_I = hopf.antipode_mono(I)
                    pairs = ((m, sum(c * S_I[K] for K, c in x.coeffs.items() if K in S_I))
                             for m, x in active[a])
                    listed = index[a][I] = [(m, p) for m, p in pairs if p]
                for m, coeff in listed:
                    widths[m] = w.width
                    _fold(stores[m], (), w.terms.items(), coeff)
        out.append([None if width is None else
                    ModuleVector(hopf, width, store.get((), {}))
                    for store, width in zip(stores, widths)])
    return out


def _raise_first_exceeded(els: list[AnnElement], values: list[dict]) -> None:
    """Raise TruncationExceeded at the first (element, a, I) whose degree
    exceeds x_a's validity, values[a] being the terms of (1 (x) b_a) * v."""
    for el in els:
        for x, terms in zip(el.comps, values):
            for I in terms if x.coeffs else ():
                if mi_deg(I) > x.validity:
                    raise TruncationExceeded(f"annihilation action needs pairing at degree "
                                             f"{mi_deg(I)} but validity is {x.validity}")


def reconstruct_pseudoaction(hopf: Hopf, w_on: ModuleVector, v, action_pv, degree_bound: int,
                             validity: int) -> PseudoValue:
    """a * v = sum_I (S(b^(I)) (x) 1) (x)_H ((x_I (x)_H a) . v).  One
    `ann_action` call applies every x_I (x)_H a, reading each (1 (x) b_a) * v
    once for all of them; one `PseudoValue.from_tensor` call folds the sum."""
    Is = mi_below(hopf.n, degree_bound)
    els = [iota(XElement.mono(hopf, I, 1, validity), w_on) for I in Is]
    one = hopf.one()
    return PseudoValue.from_tensor(hopf, [
        (HElement(hopf, hopf.antipode_mono(I)), one, acted)
        for I, acted in zip(Is, ann_action(els, [v], action_pv)[0])
        if acted is not None])


# ---------------------------------------------------------------------------
# Euler element and the inner-derivation map gamma
# ---------------------------------------------------------------------------

def _unknown_slots(hopf: Hopf, deg_lo: int, deg_hi: int) -> list[tuple[MultiIndex, int]]:
    return [(J, a) for J in mi_below(hopf.n, deg_hi) if mi_deg(J) >= deg_lo for a in range(hopf.n)]


def _solve(hopf: Hopf, memo_keys: list[tuple], slots, cols: list[dict], rhss: list[dict],
           validity: int) -> None:
    """Solve sum_col c[col] * cols[col] = rhs for the slot coefficients, for
    every rhs in rhss in one reduction, and memoize the element solving
    rhss[m] on the Hopf instance under memo_keys[m] = (name, ...).

    cols[col] is the sparse image of slot col, a map from equation key to a
    nonzero coefficient; every rhs must lie in the span of the columns."""
    for key, coeffs in zip(memo_keys, span_coords(cols, rhss)):
        if coeffs is None:
            raise SolveFailed(f"{key[0]} system inconsistent at this truncation")
        comps: list[dict] = [{} for _ in range(hopf.n)]
        for (J, a), c in zip(slots, coeffs):
            if c:
                comps[a][J] = c
        hopf._ann_memo[key] = AnnElement(hopf, (XElement(hopf, comp, validity) for comp in comps))


def euler_element(hopf: Hopf, truncation: int) -> AnnElement:
    """The canonical degree-grading element of W_0, modulo W_{D-2}.

    It is pinned by its action on the module X: on every x_I it acts as
    -|I| x_I (up to the truncation order), which makes its symbol in
    W_0/W_1 the identity matrix of gl(d).  For an abelian d it equals
    -sum_i x^i (x) b_i exactly.  Solved once per truncation and memoized on
    the Hopf instance.
    """
    if truncation < 2:
        raise SolveFailed("truncation too small for the Euler element")
    memo_key = ("Euler", truncation)
    if memo_key in hopf._ann_memo:
        return hopf._ann_memo[memo_key]
    cap = truncation - 2
    slots = _unknown_slots(hopf, 1, cap)
    cols: list[dict] = [{} for _ in slots]
    rhs: dict[tuple[MultiIndex, MultiIndex], int] = {}
    probes = [I for I in mi_below(hopf.n, cap) if mi_deg(I) >= 1]
    for I in probes:
        xI = XElement.mono(hopf, I, 1, truncation)
        xI_b = [xI.act_right(hopf.gen(a)).coeffs for a in range(hopf.n)]
        # (x_J (x) b_a) x_I = -x_J (x_I b_a)
        for (J, a), col in zip(slots, cols):
            for K, c in xI_b[a].items():
                K = mi_add(J, K)
                if mi_deg(K) <= cap:
                    add_entry(col, (I, K), -c)
        rhs[(I, I)] = -mi_deg(I)
    _solve(hopf, [memo_key], slots, cols, [rhs], cap)
    return hopf._ann_memo[memo_key]


def gamma(hopf: Hopf, l: int, truncation: int) -> AnnElement:
    """The inner-derivation preimage of b_l: [gamma(b_l), A] = [b_l, A].

    Solved modulo the truncation on the probes x_K (x) b_b with |K| <= 2;
    the returned representative has support degree <= D - 2 and
    gamma(b_l) + 1 (x) b_l lies in W_0 with gl(d) symbol ad b_l.  The
    columns [x_J (x) b_a, probe] do not depend on l, so all n of
    gamma(b_1), ..., gamma(b_n) are solved together, once per truncation,
    and memoized on the Hopf instance.
    """
    if truncation < 3:
        raise SolveFailed("truncation too small for gamma")
    memo_key = ("gamma", l, truncation)
    if memo_key in hopf._ann_memo:
        return hopf._ann_memo[memo_key]
    n = hopf.n
    cap = truncation - 2
    eq_cap = cap - 1
    slots = _unknown_slots(hopf, 0, cap)
    # (J, a) -> the coefficients of x_J b_a, for every slot and probe
    right = {(J, a): XElement.mono(hopf, J, 1, truncation).act_right(hopf.gen(a)).coeffs
             for J in mi_below(n, max(cap, 2)) for a in range(n)}
    cols: list[dict] = [{} for _ in slots]
    rhss: list[dict] = [{} for _ in range(n)]
    for K in mi_below(n, 2):
        xK = XElement.mono(hopf, K, 1, truncation)
        # d_act(l, x_K (x) b_b) = (b_l x_K) (x) b_b
        for l2, rhs in enumerate(rhss):
            bl_xK = xK.act_left(hopf.gen(l2)).truncate(eq_cap).coeffs
            rhs.update({(K, b, b, Kc): c for b in range(n) for Kc, c in bl_xK.items()})
        for b in range(n):
            for (J, a), col in zip(slots, cols):
                comps: list[dict] = [{} for _ in range(n)]
                _add_term_bracket(comps, hopf, {J: 1}, a, xK.coeffs, b, right[K, a],
                                  right[J, b], eq_cap)
                col.update({(K, b, k, Kc): c for k, comp in enumerate(comps)
                            for Kc, c in comp.items()})
    _solve(hopf, [("gamma", l2, truncation) for l2 in range(n)], slots, cols, rhss, cap)
    return hopf._ann_memo[memo_key]
