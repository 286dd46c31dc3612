from fractions import Fraction

import pytest

from liepseudo.errors import TruncationExceeded
from liepseudo.hopf import Hopf, _index_of_word, _word_of, mi_below, mi_deg, mi_factorial, mi_splits
from liepseudo.liecore import LieData, preset
from liepseudo._linalg import RowReducer
from liepseudo.modules import (Closure, ModuleSpec, ModuleVector, _coords, _sing_actors, _units,
                               _vector_from_row)
from liepseudo.twosided import LEFT, RIGHT, PseudoValue, _acc

_CACHE: dict[str, Hopf] = {}


def canonical(x) -> bool:
    """x is a canonical exact coefficient: an int, or a Fraction that is not
    integral.  Each value passes as exactly one type; floats fail."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def hopf_for(name: str) -> Hopf:
    # one Hopf instance per algebra per worker, so its memos (straightening,
    # dual actions, Euler element, gamma) are shared
    if name not in _CACHE:
        _CACHE[name] = Hopf(preset(name))
    return _CACHE[name]


def semidirect_k_k2(entries) -> Hopf:
    """k b1 (semidirect) k^2 with [b1, b_{j+2}] = sum_i M[i][j] b_{i+2} and
    [b2, b3] = 0, M = [entries[0:2], entries[2:4]]: the Jacobi identity
    holds for every 2x2 matrix M."""
    M = [entries[0:2], entries[2:4]]
    brackets = [(0, j + 1, i + 1, M[i][j]) for j in range(2) for i in range(2) if M[i][j]]
    return Hopf(LieData.from_entries(3, brackets, name="k|x k^2"))


@pytest.fixture(params=["abelian1", "abelian2", "abelian3", "heis3", "sl2", "solv2"])
def any_preset(request) -> Hopf:
    return hopf_for(request.param)


@pytest.fixture(params=["abelian2", "abelian3", "heis3", "sl2", "solv2"])
def any_preset2(request) -> Hopf:
    """Presets of dimension >= 2."""
    return hopf_for(request.param)


def count_kernel_runs(monkeypatch) -> list:
    """Record (vector, i, orient) for every run of the pseudoaction kernel:
    each `ModuleSpec._kernel` call that reads the flat action table, and
    not one served from the values it keeps.  The list holds the vectors, so
    their ids stay unique for the test."""
    runs, open_calls = [], []
    real_kernel, real_flat = ModuleSpec._kernel, ModuleSpec._flat_table

    def kernel(self, i, v, orient):
        open_calls.append((v, i, orient))
        try:
            return real_kernel(self, i, v, orient)
        finally:
            open_calls.pop()

    def flat_table(self, orient):
        runs.append(open_calls[-1])
        return real_flat(self, orient)

    monkeypatch.setattr(ModuleSpec, "_kernel", kernel)
    monkeypatch.setattr(ModuleSpec, "_flat_table", flat_table)
    return runs


def mul_outer(p: PseudoValue, h) -> PseudoValue:
    """Left-multiply by h the slot of p that carries the normal-form
    monomials, one PseudoValue add per term: the reference for the left
    form of `ModuleSpec.w_star`, key order included."""
    out: dict = {}
    for I, v in p.terms.items():
        for K, c in (h * p.hopf.mono(I)).coeffs.items():
            _acc(out, K, v.scale(c))
    return PseudoValue(p.hopf, p.orient, out)


def mul_inner(p: PseudoValue, h) -> PseudoValue:
    """Left-multiply by h the slot of p pinned to 1, renormalizing one
    tensor (b^(I) (x) h) (x)_H v, or (h (x) b^(I)) (x)_H v, per term and
    adding the values one at a time."""
    out = PseudoValue.zero(p.hopf, p.orient)
    for I, v in p.terms.items():
        mono = p.hopf.mono(I)
        tensor = (mono, h, v) if p.orient == LEFT else (h, mono, v)
        out = out.add(from_tensor_by_terms(p.hopf, [tensor], p.orient))
    return out


def mul_first(p: PseudoValue, h) -> PseudoValue:
    """Left-multiply the first H-slot of p by h."""
    return mul_outer(p, h) if p.orient == LEFT else mul_inner(p, h)


def mul_second(p: PseudoValue, h) -> PseudoValue:
    """Left-multiply the second H-slot of p by h."""
    return mul_inner(p, h) if p.orient == LEFT else mul_outer(p, h)


def from_tensor_by_terms(hopf, tensors, orient: str = LEFT) -> PseudoValue:
    """The normal form of the sum of (f (x) g) (x)_H vec over the triples of
    `tensors`, one `ModuleVector` product, scale and add per term, tensor
    after tensor: the reference for `PseudoValue.from_tensor`, key order at
    both levels included."""
    terms: dict = {}
    for f, g, vec in tensors:
        outer, inner = (f, g) if orient == LEFT else (g, f)
        for J, c in inner.coeffs.items():
            for A, B in mi_splits(J):
                factor = outer * hopf.element(hopf.antipode_mono(A))
                moved = vec.hmul(hopf.mono(B)).scale(c)
                if moved.is_zero():
                    continue
                for I, c2 in factor.coeffs.items():
                    _acc(terms, I, moved.scale(c2))
    return PseudoValue(hopf, orient, terms)


def w_star_right_by_vector(V, w, v) -> PseudoValue:
    """w * v in right normal form for w = sum_a h_a (x) b_a, by the route that
    renormalizes each vector's actions: one `PseudoValue.from_tensor` fold
    over the tensors (h_a (x) b^(K)) (x)_H u of the terms (1 (x) b^(K)) (x)_H u
    of every (1 (x) b_a) * v.  The reference for the actor rows of
    `ModuleSpec.w_star`, in value."""
    hopf = V.hopf
    tensors = [(h, hopf.mono(K), u) for a, h in enumerate(w.comps) if not h.is_zero()
               for K, u in V.action_pv(a, v, RIGHT).terms.items()]
    return PseudoValue.from_tensor(hopf, tensors, RIGHT)


def _compose_left(p: PseudoValue, b, product) -> dict:
    """((h (x)_H e) * b) in H^(x)3 (x)_H V as (I, J) -> vector, for
    p = sum (h_I (x)_H e_I): (h (x) 1)(Delta (x) id)(g_i) (x)_H c_i, one
    `HElement` product, scale and add per term."""
    hopf = p.hopf
    out: dict = {}
    for I, e in p.to_left().terms.items():
        for J, w in product(e, b).to_left().terms.items():
            for A, B in mi_splits(J):
                for K, c in (hopf.mono(I) * hopf.mono(A)).coeffs.items():
                    _acc(out, (K, B), w.scale(c))
    return out


def _compose_right(a, p: PseudoValue, product) -> dict:
    """a * (h (x)_H e) in H^(x)3 (x)_H V as (I, J) -> vector:
    (1 (x) b^(I) (x) 1)(b^(J) (x) 1 (x) 1) = b^(J) (x) b^(I) (x) 1."""
    out: dict = {}
    for I, e in p.to_left().terms.items():
        for J, w in product(a, e).to_left().terms.items():
            _acc(out, (J, I), w)
    return out


def module_defect_by_terms(a, b, v, bracket, action) -> dict:
    """[a*b]*v - a*(b*v) + ((sigma (x) id) (x)_H id)(b*(a*v)) built as three
    (I, J) -> vector values, the last with its keys swapped, and added one
    vector at a time, then flattened to (I, J, N, k) -> Fraction: the
    reference for `twosided.module_defect`."""
    out = _compose_left(bracket(a, b), v, action)
    for key, w in _compose_right(a, action(b, v), action).items():
        _acc(out, key, w.scale(-1))
    for (I, J), w in _compose_right(b, action(a, v), action).items():
        _acc(out, (J, I), w)
    return {(I, J, N, k): x for (I, J), w in out.items()
            for N, row in w.terms.items() for k, x in enumerate(row) if x}


def ann_action_by_terms(A, v, action_pv):
    """A = sum x_a (x) b_a applied to v one term at a time, each pairing
    computed where it is met: the reference for `annih.ann_action`, key order
    included."""
    hopf = A.hopf
    out = None
    for a, x in enumerate(A.comps):
        if x.is_zero():
            continue
        for I, w in action_pv(a, v).to_left().terms.items():
            if mi_deg(I) > x.validity:
                raise TruncationExceeded(f"annihilation action needs pairing at degree "
                                         f"{mi_deg(I)} but validity is {x.validity}")
            coeff = sum((c * x.coeffs.get(K, 0) for K, c in hopf.antipode_mono(I).items()),
                        Fraction(0))
            if coeff:
                term = w.scale(coeff)
                out = term if out is None else out.add(term)
    return out


def ann_action_element_by_element(els, vectors, action_pv):
    """`annih.ann_action` as a loop over the vectors, then the elements, of
    `ann_action_by_terms`: out[j][m] is els[m] applied to vectors[j], and the
    first (vector, element) that raises raises."""
    return [[ann_action_by_terms(A, v, action_pv) for A in els] for v in vectors]


def _add_fraction(store: dict, key, c: Fraction) -> None:
    v = store.get(key, Fraction(0)) + c
    if v:
        store[key] = v
    else:
        store.pop(key, None)


class FractionPBW:
    """The PBW layer with every step in Fraction, one term at a time, and
    memos of its own: the reference for `Hopf._straighten`, `mono_mul`,
    `antipode_mono`, `HElement.__mul__` and `XElement._act`, key order
    included.  Elements are coefficient dicts."""

    def __init__(self, lie):
        self.lie, self.n = lie, lie.dim
        self.words, self.products, self.antipodes = {}, {}, {}

    def straighten(self, word: tuple) -> dict:
        if word in self.words:
            return self.words[word]
        descent = next((p for p in range(len(word) - 1) if word[p] > word[p + 1]), None)
        if descent is None:
            out = {word: Fraction(1)}
        else:
            p = descent
            b, a = word[p], word[p + 1]
            out = dict(self.straighten(word[:p] + (a, b) + word[p + 2:]))
            for k, c in self.lie.bracket(b, a).items():
                for w2, c2 in self.straighten(word[:p] + (k,) + word[p + 2:]).items():
                    _add_fraction(out, w2, c * c2)
        self.words[word] = out
        return out

    def _divided(self, word: tuple, denom: int, sign: int = 1) -> dict:
        out: dict = {}
        for w, c in self.straighten(word).items():
            K = _index_of_word(w, self.n)
            _add_fraction(out, K, sign * c * Fraction(mi_factorial(K), denom))
        return out

    def mono_mul(self, I, J) -> dict:
        if (I, J) not in self.products:
            self.products[I, J] = self._divided(_word_of(I) + _word_of(J),
                                                mi_factorial(I) * mi_factorial(J))
        return self.products[I, J]

    def antipode_mono(self, I) -> dict:
        if I not in self.antipodes:
            self.antipodes[I] = self._divided(tuple(reversed(_word_of(I))), mi_factorial(I),
                                              -1 if mi_deg(I) % 2 else 1)
        return self.antipodes[I]

    def mul(self, f: dict, g: dict) -> dict:
        out: dict = {}
        for I, a in f.items():
            for J, b in g.items():
                for K, c in self.mono_mul(I, J).items():
                    _add_fraction(out, K, a * b * c)
        return out

    def act(self, x: dict, validity: int, h: dict, side: str) -> dict:
        """The coefficients of h . x (side "left") or x . h ("right"), x of
        the given validity, h nonzero, emitted in (|J|, J) order."""
        validity -= max(mi_deg(I) for I in h)
        antipode: dict = {}
        for I, c in h.items():
            for K, v in self.antipode_mono(I).items():
                _add_fraction(antipode, K, c * v)
        acc: dict = {}
        for M, s in antipode.items():
            table: dict = {}
            for J in mi_below(self.n, validity):
                prod = self.mono_mul(M, J) if side == "left" else self.mono_mul(J, M)
                for K, c in prod.items():
                    table.setdefault(K, []).append((J, c))
            for K, v in x.items():
                for J, c in table.get(K, ()):
                    acc[J] = acc.get(J, Fraction(0)) + s * v * c
        return {J: acc[J] for J in sorted(acc, key=lambda J: (mi_deg(J), J)) if acc[J]}


def hmul_by_terms(v: ModuleVector, h) -> ModuleVector:
    """h v with every step in Fraction, loops I, then J, then K: the
    reference for `ModuleVector.hmul`, key order included."""
    out: dict = {}
    for I, row in v.terms.items():
        for J, c in h.coeffs.items():
            for K, c2 in v.hopf.mono_mul(J, I).items():
                cur = out.setdefault(K, [Fraction(0)] * v.width)
                cc = c * c2
                for k, x in enumerate(row):
                    if x:
                        cur[k] += cc * x
    return ModuleVector(v.hopf, v.width, {K: tuple(r) for K, r in out.items()})


def apply_map_by_terms(images: list, v: ModuleVector) -> ModuleVector:
    """The H-linear extension of generator images, one `hmul_by_terms`,
    scale and add per term of v: the reference for `modules.apply_map`, key
    order included."""
    out = ModuleVector.zero(v.hopf, images[0].width)
    for I, coords in v.terms.items():
        for k, c in enumerate(coords):
            if c:
                out = out + hmul_by_terms(images[k], v.hopf.mono(I)).scale(c)
    return out


def row_addmul_by_fractions(acc: dict, row: dict, c: Fraction) -> None:
    """In-place acc += c * row in Fraction: the reference for
    `_linalg.row_addmul`, key order included."""
    if c == 0:
        return
    for j, v in row.items():
        w = acc.get(j, Fraction(0)) + c * v
        if w:
            acc[j] = w
        else:
            acc.pop(j, None)


class FractionReducer:
    """The incremental reduced row-echelon accumulator with every step in
    Fraction, each pivot row scaled by the inverse of its pivot: the
    reference for `_linalg.RowReducer`, pivot and key order included."""

    def __init__(self):
        self.pivots: dict = {}

    def reduce(self, row: dict) -> dict:
        row = dict(row)
        for j in sorted(row):
            if j in row and j in self.pivots:
                row_addmul_by_fractions(row, self.pivots[j], -row[j])
        return row

    def add(self, row: dict) -> bool:
        row = self.reduce(row)
        if not row:
            return False
        j0 = min(row)
        inv = Fraction(1) / row[j0]
        row = {j: inv * v for j, v in row.items()}
        for piv in self.pivots.values():
            if j0 in piv:
                row_addmul_by_fractions(piv, row, -piv[j0])
        self.pivots[j0] = row
        return True


def submodule_closure_by_pushes(V, gens, fil_bound, mode="W", chi=None, inner=None):
    """The closure loop that pushes every component vector of each
    `ModuleSpec.w_star` value in left normal form, one `_coords` row each:
    the reference for `modules.submodule_closure`, basis key order and
    window rows included."""
    work = fil_bound + 1
    actors, _threshold = _sing_actors(V, mode, chi)
    cols = sorted(V.basis_upto(work), key=lambda slot: (-mi_deg(slot[0]), slot[0], slot[1]))
    index = {slot: c for c, slot in enumerate(cols)}
    red = RowReducer()
    if inner is not None:
        red.pivots = {j: dict(row) for j, row in inner.window.items()}
    queue = []

    def push(v):
        if v.is_zero() or v.degree() > work:
            return
        if red.add({index[slot]: c for slot, c in _coords(v).items()}):
            queue.append(v)

    for g in gens:
        push(g)
    while queue:
        v = queue.pop()
        for i in range(V.hopf.n):
            if v.degree() + 1 <= work:
                push(v.hmul(V.hopf.gen(i)))
        for _label, w in actors:
            for comp in V.w_star(w, v, LEFT).terms.values():
                push(comp)
    units = _units(V, cols)
    basis = [_vector_from_row(V, units, red.pivots[j]) for j in sorted(red.pivots)
             if mi_deg(cols[j][0]) <= fil_bound]
    return Closure(V, fil_bound, basis, red.pivots)
