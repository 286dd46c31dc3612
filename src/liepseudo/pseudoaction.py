"""Free H-modules H (x) R and the one pseudoaction kernel.

A ModuleVector is sum_I b^(I) (x) v_I, a sparse map multi-index ->
coordinate tuple over the generator basis of R.  A ModuleSpec is H (x) R
with its pseudoaction stored as one left-normal PseudoValue per (basis
vector of d, generator), extended H-bilinearly: the tensor modules of
`modules`, and W(d) acting on itself and on H (`pseudoalg.w_modules`).

`ModuleSpec.action_pv(i, v, orient)` computes (1 (x) b_i) * v directly in
the normal form its consumer reads, from the table stored once in that form,
and keeps the at most n kernel stores of the last (vector, form) for all
readers of that vector.  By H-bilinearity a term b^(I) (x) u_k of v
contributes row k of the table with b^(I) in its second slot.  The kernel
(`ModuleSpec._kernel`) is one loop for both normal forms: for each table
term b^(K) / b^(J) it reads the placements (M, N, x) of b^(I) off the carry
table of the Hopf algebra (`_carry`), which every (i, k), every actor and
every module over the algebra share.  In right normal form the slot of b^(I)
is the normal-form one, and b^(I) b^(K) lands there beside b^(J); in left
normal form b^(I) crosses (x)_H.  Each x is canonical (an int when integral,
else a Fraction), a kernel run only accumulates c * x times the coordinates,
and the ModuleVector constructor makes each output coordinate canonical
once.  The kernel keeps every (M, N) it meets, also one whose coordinates
cancel, in order of first appearance, so that each fold matches its
term-by-term reference; the closures of `classify` do not depend on that
order or on the order of their seeds
(`test_modules.test_closures_do_not_depend_on_seed_or_store_order`).

`w_star` applies a W(d) element w = sum_a h_a (x) b_a, a width-n vector,
as sum_a (h_a (x) 1)((1 (x) b_a) * v), through the one store of
`w_star_store`; it reads each h_a off the terms of w, in the key order of w,
once per actor.  A basis actor 1 (x) b_a is the kernel store of b_a.  In
right normal form every other actor is a row of the one kernel: its rows
w * u_k are built once per actor, each by one `PseudoValue.from_tensor` fold
over the tensors (h_a (x) b^(K)) (x)_H w_K of the right-form table, and by
H-bilinearity the kernel applies them to v as it applies the table of a
basis vector (`_actor_rows`).  In left normal form `w_star_store` folds the
kept kernel coordinates of each (1 (x) b_a) * v, multiplied by h_a in the
normal-form slot, into one store M -> N -> coordinates; the key order is
that of adding the PseudoValues one term at a time.  The fold is the one
`twosided` keeps for `PseudoValue.from_tensor` too.  `w_star` builds each
output vector of a store once; `modules.submodule_closure` reads the
left-form store itself and turns each M into a row of its reducer, building
a vector only for a row that enlarges the span.
"""

from __future__ import annotations

from fractions import Fraction

from ._linalg import _exact, add_entry
from .errors import DimensionMismatch, RepInvalid
from .hopf import HElement, Hopf, MultiIndex, _product, mi_below, mi_deg, mi_splits, mi_zero
from .liecore import RepData, rat
from .twosided import LEFT, RIGHT, PseudoValue, _fold, _pseudo_value, _times


class ModuleVector:
    """v = sum_I b^(I) (x) v_I with coordinates v_I over the generator basis;
    the constructor keeps each row with a nonzero coordinate, as a tuple of
    canonical coordinates (`_exact`)."""

    __slots__ = ("hopf", "width", "terms")

    def __init__(self, hopf: Hopf, width: int, terms: dict[MultiIndex, tuple | list]):
        self.hopf = hopf
        self.width = width
        self.terms = {I: tuple(map(_exact, row)) for I, row in terms.items() if any(row)}

    @classmethod
    def zero(cls, hopf: Hopf, width: int) -> "ModuleVector":
        return cls(hopf, width, {})

    @classmethod
    def unit(cls, hopf: Hopf, width: int, k: int, I: MultiIndex | None = None) -> "ModuleVector":
        I = I if I is not None else mi_zero(hopf.n)
        row = tuple(1 if c == k else 0 for c in range(width))
        return cls(hopf, width, {I: row})

    @classmethod
    def from_comps(cls, hopf: Hopf, comps) -> "ModuleVector":
        """sum_k h_k (x) u_k from the H coefficient h_k of each generator:
        the inverse of `comps`."""
        comps = tuple(comps)
        keys = dict.fromkeys(I for h in comps for I in h.coeffs)
        return cls(hopf, len(comps), {I: tuple(h.coeffs.get(I, 0) for h in comps) for I in keys})

    def add(self, other: "ModuleVector") -> "ModuleVector":
        if other.width != self.width:
            raise DimensionMismatch("module widths differ")
        out = dict(self.terms)
        for I, row in other.terms.items():
            cur = out.get(I)
            out[I] = row if cur is None else [a + b for a, b in zip(cur, row)]
        return ModuleVector(self.hopf, self.width, out)

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def scale(self, c) -> "ModuleVector":
        c = rat(c)
        if c == 1:
            return self  # module vectors are never mutated
        return ModuleVector(self.hopf, self.width,
                            {I: [c * v for v in row] for I, row in self.terms.items()})

    def hmul(self, h: HElement) -> "ModuleVector":
        """h v, by the one loop of H times a vector (`twosided._times`)."""
        rows = _times(self.hopf, h.coeffs.items(), self.terms.items(), self.width)
        return ModuleVector(self.hopf, self.width, dict(rows))

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        return max((mi_deg(I) for I in self.terms), default=-1)

    def coefficient(self, I: MultiIndex) -> tuple[int | Fraction, ...]:
        return self.terms.get(tuple(I), (0,) * self.width)

    def eq(self, other: "ModuleVector") -> bool:
        if other.width != self.width:
            raise DimensionMismatch("module widths differ")
        return self.terms == other.terms

    @property
    def comps(self) -> tuple[HElement, ...]:
        """The H coefficient h_k of each generator, v = sum_k h_k (x) u_k;
        for a W(d) element sum_k h_k (x) b_k these are the h_k."""
        return tuple(HElement(self.hopf, {I: row[k] for I, row in self.terms.items() if row[k]})
                     for k in range(self.width))

    def __repr__(self) -> str:
        order = sorted(self.terms, key=lambda J: (mi_deg(J), J))
        return " + ".join(f"b^{I}(x)({', '.join(map(str, self.terms[I]))})" for I in order) or "0"

    def serialize(self) -> list:
        return [
            [list(I), [str(v) for v in row]]
            for I, row in sorted(self.terms.items(), key=lambda kv: (mi_deg(kv[0]), kv[0]))
        ]


class ModuleSpec:
    """A free H-module H (x) R with a pseudoaction table.

    table[i][k] is the left-normal value of (1 (x) b_i) * (1 (x) u_k).
    Optional representation data records how R was constructed.
    """

    def __init__(self, hopf: Hopf, dim: int, table: tuple, name: str = "",
                 rep_d: RepData | None = None, rep_gl: RepData | None = None):
        if len(table) != hopf.n:
            raise RepInvalid("need one table row per basis vector of d")
        if any(len(row) != dim for row in table):
            raise RepInvalid("table width disagrees with the generator count")
        self.hopf = hopf
        self.dim = dim
        self.table = table
        self.name = name
        self.rep_d = rep_d
        self.rep_gl = rep_gl
        self._flat = {}
        self._last = (None, None, None)
        self._actors = {}

    # -- vectors ---------------------------------------------------------
    def zero_vector(self) -> ModuleVector:
        return ModuleVector.zero(self.hopf, self.dim)

    def unit(self, k: int, I: MultiIndex | None = None) -> ModuleVector:
        return ModuleVector.unit(self.hopf, self.dim, k, I)

    def basis_upto(self, p: int) -> list[tuple[MultiIndex, int]]:
        return [(I, k) for I in mi_below(self.hopf.n, p) for k in range(self.dim)]

    # -- the pseudoaction --------------------------------------------------
    def action_pv(self, i: int, v: ModuleVector, orient: str = LEFT) -> PseudoValue:
        """(1 (x) b_i) * v in normal form `orient`.

        By H-bilinearity b^(I) (x) u_k contributes table[i][k] with b^(I) in
        its second slot.  On a right-normal table term (1 (x) b^(K)) (x)_H w
        that is (1 (x) b^(I) b^(K)) (x)_H w; on a left-normal one
        (b^(K) (x) 1) (x)_H w it is sum_{A+B=I} (b^(K) S(b^(A)) (x) 1) (x)_H b^(B) w.
        """
        return _pseudo_value(self.hopf, orient, self._kernel(i, v, orient), ModuleVector,
                             self.dim)

    def _kernel(self, key, v: ModuleVector, orient: str) -> dict:
        """(1 (x) b_i) * v for a basis index `key` = i, in normal form
        `orient`, or w * v for an actor `key` = w in right normal form, as
        M -> N -> coordinates, summed as they come (in int wherever the terms
        are), kept for the last (vector, form); a reader makes them canonical
        (the ModuleVector constructor, `RowReducer.reduce`).  An (M, N) whose
        coordinates cancel stays, with zero coordinates.

        Each term c b^(I) (x) u_k of v meets each table term b^(K) / b^(J) of
        row k, of the flat table or of the actor's rows (`_actor_rows`), and
        adds c x times its coordinates at each placement (M, N, x) of the
        carry table (`_carry`).  Module vectors are never mutated after
        construction (nothing assigns to .terms), so the kept stores stay
        right while `v` is that object; holding it keeps its id from being
        reused."""
        last, last_orient, kept = self._last
        if last is not v or last_orient != orient:
            self._check_vector(v)
            kept = {}
            self._last = (v, orient, kept)
        if key in kept:
            return kept[key]
        table = self._flat_table(orient)[key] if isinstance(key, int) else self._actor_rows(key)
        hopf, dim = self.hopf, self.dim
        memo = hopf._carry_memo
        acc: dict[MultiIndex, dict[MultiIndex, list]] = {}  # M -> N -> coordinates
        for I, row in v.terms.items():
            for k, c in enumerate(row):
                for K, J, coords in table[k] if c else ():
                    placed = memo.get((orient, I, K, J))
                    if placed is None:
                        placed = _carry(hopf, orient, I, K, J)
                    for M, N, x in placed:
                        at_m = acc.get(M) or acc.setdefault(M, {})
                        cur = at_m.get(N) or at_m.setdefault(N, [0] * dim)
                        cx = c * x
                        for r, y in coords:
                            cur[r] += cx * y
        kept[key] = acc
        return acc

    def _check_vector(self, v) -> None:
        width = v.width if isinstance(v, ModuleVector) else type(v).__name__
        if width != self.dim:
            raise DimensionMismatch(f"need a vector of width {self.dim}, not {width}")

    def _flat_table(self, orient: str) -> list:
        """table[i][k] in normal form `orient` as flat terms (K, J, [(r, c)])
        (`_flat_terms`).  Built once per form; n * dim entries."""
        flat = self._flat.get(orient)
        if flat is None:
            flat = self._flat[orient] = [[_flat_terms(val.convert(orient)) for val in row]
                                         for row in self.table]
        return flat

    def w_star(self, w: ModuleVector, v: ModuleVector, orient: str = LEFT) -> PseudoValue:
        """(sum_a h_a (x) b_a) * v = sum_a ((h_a (x) 1) (x)_H 1)((1 (x) b_a) * v),
        each (1 (x) b_a) * v taken in normal form `orient`: the store of
        `w_star_store` with each vector built once.  The actor w is a
        width-n vector."""
        return _pseudo_value(self.hopf, orient, self.w_star_store(w, v, orient), ModuleVector,
                             self.dim)

    def w_star_store(self, w: ModuleVector, v: ModuleVector, orient: str) -> dict:
        """w * v in normal form `orient` as M -> N -> coordinates, summed as
        they come (see `_kernel`); each h_a is read off the terms of w once
        per actor (`_actor`).  For w = 1 (x) b_a it is the kept kernel store
        of (1 (x) b_a) * v, cancelled (M, N) included, which the caller must
        not change.  Otherwise the right form is the kernel store of w, which
        reads the actor's rows w * u_k (`_actor_rows`) the way it reads the
        table of a basis vector; in the left form each term b^(M) (x) w of
        each (1 (x) b_a) * v adds (h_a b^(M)) (x) w to one store, with the
        key order of adding the PseudoValues term by term (see `_fold`)."""
        hopf = self.hopf
        terms = self._actor(w, v)[0]
        if len(terms) == 1 and terms[0][1] == [(mi_zero(hopf.n), 1)]:
            return self._kernel(terms[0][0], v, orient)
        if orient == RIGHT:
            return self._kernel(w, v, RIGHT)
        acc: dict[MultiIndex, dict[MultiIndex, list]] = {}  # M -> N -> coordinates
        for a, h in terms:
            # (h_a (x) 1)((1 (x) b_a) * v) is summed on its own and then
            # added; summed straight into an empty store it is the same
            part = {} if acc else acc
            for M, at_m in self._kernel(a, v, LEFT).items():
                rows = [(N, cur) for N, cur in at_m.items() if any(cur)]
                if not rows:
                    continue
                # h_a b^(M), as HElement.__mul__ orders it
                for K, x in _product(hopf, h, ((M, 1),)).items():
                    _fold(part, K, rows, x)
            if part is not acc:
                for K, at in part.items():
                    _fold(acc, K, at.items(), 1)
        return acc

    def _actor(self, w: ModuleVector, v: ModuleVector) -> list:
        """The memo entry [terms, rows] of an actor w = sum_a h_a (x) b_a,
        once w and the vector v it acts on have the right widths: the terms
        (a, [(J, c)]) of each nonzero h_a, in the key order of w, and its
        right-form rows (`_actor_rows`), None until first read.  The few
        actors of a solve meet every vector, so each is read once: up to n^2
        actors are kept, keyed by identity (module vectors are never
        mutated), and the memo starts over when it is full."""
        if w.width != self.hopf.n:
            raise DimensionMismatch(f"need an actor of width {self.hopf.n}, not {w.width}")
        self._check_vector(v)
        got = self._actors.get(w)
        if got is None:
            coeffs: list[list] = [[] for _ in range(self.hopf.n)]
            for J, row in w.terms.items():
                for a, c in enumerate(row):
                    if c:
                        coeffs[a].append((J, c))
            if len(self._actors) >= self.hopf.n ** 2:
                self._actors.clear()
            got = self._actors[w] = [[(a, h) for a, h in enumerate(coeffs) if h], None]
        return got

    def _actor_rows(self, w: ModuleVector) -> list:
        """Row k is w * u_k in right normal form as flat terms
        (K, J, [(r, c)]) (`_flat_terms`), so the kernel reads an actor as it
        reads a basis vector of d: by H-bilinearity
        w * (b^(I) (x) u_k) = (1 (x) b^(I))(w * u_k).  One
        `PseudoValue.from_tensor` call per row folds the tensors
        (h_a (x) b^(K)) (x)_H w_K of the right-form table[a][k] over every
        actor term; built once per actor and kept in its memo entry
        (`_actor`), which the caller has read for w."""
        entry = self._actors[w]
        if entry[1] is None:
            hopf = self.hopf
            terms = [(a, HElement(hopf, dict(h))) for a, h in entry[0]]
            entry[1] = [_flat_terms(PseudoValue.from_tensor(
                hopf, [(h, hopf.mono(K), u) for a, h in terms
                       for K, u in self.table[a][k].convert(RIGHT).terms.items()], RIGHT))
                for k in range(self.dim)]
        return entry[1]

    def full_tensor(self, p: PseudoValue) -> list[tuple[MultiIndex, MultiIndex, int,
                                                         int | Fraction]]:
        """Expand a value over this module into pure tensors
        (b^(F) (x) b^(G)) (x)_H (1 (x) u_k)."""
        out: dict[tuple[MultiIndex, MultiIndex, int], int | Fraction] = {}
        for I, vec in p.to_left().terms.items():
            for J, row in vec.terms.items():
                for A, B in mi_splits(J):
                    for F, c in self.hopf.mono_mul(I, A).items():
                        for k, v in enumerate(row):
                            if v:
                                add_entry(out, (F, B, k), c * v)
        return [(F, G, k, c) for (F, G, k), c in sorted(out.items())]

    def __repr__(self) -> str:
        return f"ModuleSpec({self.name or 'H(x)R'}, rank {self.dim})"


def _flat_terms(value: PseudoValue) -> list:
    """A value sum_K b^(K) / w_K as flat terms (K, J, [(r, c)]): b^(K) in the
    normal-form slot and w = b^(J) (x) sum c u_r over the nonzero c, in the
    key order of the value."""
    return [(K, J, [(r, c) for r, c in enumerate(coords) if c])
            for K, w in value.terms.items() for J, coords in w.terms.items()]


def _carry(hopf: Hopf, orient: str, I: MultiIndex, K: MultiIndex, J: MultiIndex) -> tuple:
    """The placements (M, N, x) of b^(I) on a table term b^(K) / b^(J) in
    normal form `orient`: x b^(M) in the normal-form slot and b^(N) beside
    it.  In right normal form b^(I) lands next to b^(K): (M, J, x) over
    b^(I) b^(K).  In left normal form b^(I) is carried across (x)_H:
    sum_{A+B=I} (b^(K) S(b^(A)) (x) 1) with b^(N) from b^(B) b^(J); an
    (M, N) whose x cancels stays, with x 0, in its place of first
    appearance.  Each x is canonical.  Stored under (orient, I, K, J) in the
    carry table of the Hopf algebra, which the kernel reads first, for every
    (i, k), actor and module over it; flat triples take about half the
    memory of ((M, N), x) pairs."""
    if orient == RIGHT:
        got = tuple((M, J, x) for M, x in hopf.mono_mul(I, K).items())
    else:
        out: dict[tuple[MultiIndex, MultiIndex], int | Fraction] = {}
        for A, B in mi_splits(I):
            right = hopf.mono_mul(B, J).items()
            for A2, s in hopf.antipode_mono(A).items():
                for M, x in hopf.mono_mul(K, A2).items():
                    sx = s * x
                    for N, y in right:
                        out[M, N] = out.get((M, N), 0) + sx * y
        got = tuple((M, N, _exact(x)) for (M, N), x in out.items())
    hopf._carry_memo[orient, I, K, J] = got
    return got
