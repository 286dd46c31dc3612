"""Tensor modules, their duals and twists, and the solvers over them.

Builders cover the tensor modules attached to a (d + gl d)-module, their
duals and twists, and the shifted modules whose generator line consists of
singular vectors.  Each is a `pseudoaction.ModuleSpec`; its one
pseudoaction operator `action_pv` and its actor map `w_star` serve every
solver here, and the W(d) bracket too (`pseudoalg.w_modules`).

Every solver loops over vectors outermost and poses its system one way:
`_sing_actors` gives the actors (label, w); `_add_image` adds the
coefficients of w * v to the image of one unknown; `_linalg.kernel` solves
the images; `_vector_from_row` reads a solution back.  `sing_solve` is
`sing_in_subspace` over the unit vectors; the oracle spans its annihilation
elements as iota(x_K, w) over the same actors.  Span coordinates go through
`_linalg.span_coords`, which reduces each span once.

Module maps have one kernel each: `twist_vector` is the twisting functor
T_Pi on a vector (behind `twist_module`, `twist_map` and the twist
conjugation check), `apply_map` the H-linear extension of generator images
(behind `pseudo_d` and the exactness ranks), and `symbol_matrix` the
matrices of a list of annihilation elements on a span (behind
`id_symbol_matrix`, one element, and `sing_fingerprint`, all x^j (x) b_i).
The oracle and `symbol_matrix` apply all their annihilation elements in one
`annih.ann_action` call, which reads each (1 (x) b_a) * v once per vector.
"""

from __future__ import annotations

from fractions import Fraction

from ._linalg import Row, RowReducer, add_entry, kernel, span_coords
from .annih import AnnElement, _iota, ann_action
from .dualx import XElement
from .errors import DimensionMismatch, DimensionTooSmall, RepInvalid, TruncationExceeded
from .hopf import (HElement, Hopf, MultiIndex, mi_below, mi_deg, mi_factorial, mi_splits, mi_unit,
                   mi_zero)
from .liecore import (Matrix, RepData, TraceForm, box_tensor, identity_matrix, mat_add, mat_apply,
                      mat_mul, mat_scale, rat, zero_matrix)
from .pseudoaction import ModuleSpec, ModuleVector
from .pseudoalg import WAlgebra
from .twosided import LEFT, RIGHT, PseudoValue, _fold, _times


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def tensor_module(hopf: Hopf, pi: RepData, u: RepData, name: str = "") -> ModuleSpec:
    """Tensor module for the (d + gl d)-module R = Pi (x) U:

    (1 (x) b_i) * (1 (x) w) = (1 (x) 1) (x)_H (1 (x) (ad b_i) w)
      + sum_j (b_j (x) 1) (x)_H (1 (x) e_i^j w)
      - (1 (x) b_i) (x)_H (1 (x) w) + (1 (x) 1) (x)_H (1 (x) b_i w).

    pi is a d-representation, u a gl(d)-representation (enter an sl(d)-module
    as gl(d) data with its declared identity scalar).
    """
    pi.validate()
    u.validate()
    d_part, gl_part = box_tensor(pi, u)
    n, dim, zero = hopf.n, d_part.dim, mi_zero(hopf.n)
    ad = hopf.lie.adjoint()
    table = []
    for i in range(n):
        ad_on_R = gl_part.gl_of(ad.d_matrix(i))
        row = []
        for k in range(dim):
            # left-normal, with -(1 (x) b_i) (x)_H w = (b_i (x) 1) (x)_H w - (1 (x) 1) (x)_H b_i w
            unit = [1 if r == k else 0 for r in range(dim)]
            head = tuple(ad_on_R[r][k] + d_part.d_matrix(i)[r][k] for r in range(dim))
            terms = {zero: ModuleVector(hopf, dim, {zero: head,
                                                     mi_unit(n, i): tuple(-x for x in unit)})}
            for j in range(n):
                col = [gl_part.gl_matrix(i, j)[r][k] + (unit[r] if j == i else 0)
                       for r in range(dim)]
                terms[mi_unit(n, j)] = ModuleVector(hopf, dim, {zero: tuple(col)})
            row.append(PseudoValue(hopf, LEFT, terms))
        table.append(tuple(row))
    return ModuleSpec(hopf, dim, tuple(table), name=name, rep_d=d_part, rep_gl=gl_part)


def shifted_module(hopf: Hopf, pi: RepData, u: RepData, name: str = "") -> ModuleSpec:
    """The module whose generator line is singular: the tensor module of
    (Pi (x) k_{tr ad}) (x) (U (x) k_{-tr})."""
    return tensor_module(hopf, pi.twist_by(hopf.lie.tr_ad()), u.gl_shift_id(-1),
                         name=name or "V(R)")


def unshift_module(hopf: Hopf, pi: RepData, u: RepData) -> ModuleSpec:
    """Inverse shift: tensor module T(R) realized as a shifted module of
    (Pi (x) k_{-tr ad}) (x) (U (x) k_{tr})."""
    minus = TraceForm(hopf.lie, tuple(-v for v in hopf.lie.tr_ad().values))
    return shifted_module(hopf, pi.twist_by(minus), u.gl_shift_id(1))


def s_tensor_module(hopf: Hopf, pi: RepData, u: RepData, chi: TraceForm) -> ModuleSpec:
    """Tensor module for S(d, chi) at the canonical lift (identity scalar 0):
    the restriction of the shifted module of (Pi (x) k_chi) (x) U."""
    if hopf.n <= 2:
        raise DimensionTooSmall("S(d, chi) requires dim d >= 3")
    return shifted_module(hopf, pi.twist_by(chi), u.with_id_scalar(0), name="V_S(R)")


def dual_module(V: ModuleSpec) -> ModuleSpec:
    """D(V) on H (x) V0* from the action table of V."""
    hopf = V.hopf
    n, m = hopf.n, V.dim
    table = []
    for i in range(n):
        expanded = [V.full_tensor(V.table[i][k]) for k in range(m)]
        table.append(tuple(
            PseudoValue.from_tensor(hopf, [
                (hopf.mono(F) * HElement(hopf, hopf.antipode_mono(G1)),
                 HElement(hopf, hopf.antipode_mono(G2)), ModuleVector.unit(hopf, m, j).scale(-c))
                for j in range(m) for (F, G, tgt, c) in expanded[j] if tgt == k
                for G1, G2 in mi_splits(G)])
            for k in range(m)))
    return ModuleSpec(hopf, m, tuple(table), name=f"D({V.name})")


def _rep_h_matrix(rep: RepData, coeffs: dict[MultiIndex, int | Fraction], dim: int) -> Matrix:
    """Matrix of an H element on a d-representation (PBW monomials as ordered
    products of the generator matrices over the divided-power factorials)."""
    out = zero_matrix(dim)
    for I, c in coeffs.items():
        m = identity_matrix(dim)
        for gen_idx, power in enumerate(I):
            for _ in range(power):
                m = mat_mul(m, rep.d_matrix(gen_idx))
        out = mat_add(out, mat_scale(Fraction(c, mi_factorial(I)), m))
    return out


def twist_vector(pi: RepData, v: ModuleVector, p: int) -> ModuleVector:
    """T_Pi on one vector: sum_J b^(J) (x) w_J goes to
    sum_{A+B=J} b^(A) (x) S(b^(B)) pi_p (x) w_J, with the Pi index outermost
    (coordinate r * width + j)."""
    hopf, m, mp = v.hopf, v.width, pi.dim
    out: dict[MultiIndex, list] = {}
    for J, row in v.terms.items():
        for A, B in mi_splits(J):
            act = _rep_h_matrix(pi, hopf.antipode_mono(B), mp)
            for r in range(mp):
                if act[r][p]:
                    cur = out.setdefault(A, [0] * (mp * m))
                    for j, c in enumerate(row):
                        cur[r * m + j] += act[r][p] * c
    return ModuleVector(hopf, mp * m, out)


def twist_module(pi: RepData, V: ModuleSpec) -> ModuleSpec:
    """T_Pi(V) on H (x) (Pi (x) V0): each pure tensor
    (b^(F) (x) b^(G)) (x)_H (1 (x) u_k) of the table of V goes to the sum of
    (b^(F) (x) b^(A)) (x)_H (1 (x) x) over the terms b^(A) (x) x of
    T_Pi(b^(G) (x) u_k)."""
    hopf = V.hopf
    if not pi.is_d_rep:
        raise RepInvalid("twist needs a d-representation")
    n, m, mp = hopf.n, V.dim, pi.dim
    table = []
    for i in range(n):
        expanded = [V.full_tensor(V.table[i][k]) for k in range(m)]
        row = []
        for p in range(mp):
            for k in range(m):
                tensors = []
                for (F, G, tgt, c) in expanded[k]:
                    image = twist_vector(pi, ModuleVector.unit(hopf, m, tgt, G).scale(c), p)
                    tensors += [(hopf.mono(F), hopf.mono(G1),
                                 ModuleVector(hopf, mp * m, {mi_zero(n): coords}))
                                for G1, coords in image.terms.items()]
                row.append(PseudoValue.from_tensor(hopf, tensors))
        table.append(tuple(row))
    return ModuleSpec(hopf, mp * m, tuple(table), name=f"T_Pi({V.name})")


def dual_map(V: ModuleSpec, W: ModuleSpec, images: list[ModuleVector]) -> list[ModuleVector]:
    """D(beta) for beta: V -> W given by generator images; returns the images
    of the generators of D(W) inside D(V)."""
    hopf = V.hopf
    out = []
    for k in range(W.dim):
        acc = ModuleVector.zero(hopf, V.dim)
        for j in range(V.dim):
            img = images[j]
            for J, row in img.terms.items():
                c = row[k]
                if not c:
                    continue
                s = HElement(hopf, hopf.antipode_mono(J)).scale(c)
                acc = acc + ModuleVector.unit(hopf, V.dim, j).hmul(s)
        out.append(acc)
    return out


def twist_map(pi: RepData, V: ModuleSpec, images: list[ModuleVector]) -> list[ModuleVector]:
    """T_Pi(beta): generator images of T_Pi(V) -> T_Pi(W) for beta: V -> W
    given by generator images, generator u_p (x) v_i going to
    T_Pi(beta(v_i)) at u_p; the images carry the width of W."""
    return [twist_vector(pi, images[i], p) for p in range(pi.dim) for i in range(V.dim)]


# ---------------------------------------------------------------------------
# Singular vectors
# ---------------------------------------------------------------------------

# filtration degree that contains every singular vector, by mode (the paper's bound)
PAPER_BOUND = {"W": 1, "S": 2}


class SingResult:
    """The singular vectors of a solve in fil^fil_bound and the paper's degree bound."""

    def __init__(self, basis: list[ModuleVector], fil_bound: int, paper_bound: int):
        self.basis = basis
        self.fil_bound = fil_bound
        self.paper_bound = paper_bound

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def excess(self) -> list[int]:
        """Indices of basis vectors above the expected filtration bound."""
        return [i for i, v in enumerate(self.basis) if v.degree() > self.paper_bound]

    @property
    def ok(self) -> bool:
        return not self.excess

    def degree_profile(self) -> dict[int, int]:
        prof: dict[int, int] = {}
        for v in self.basis:
            prof[v.degree()] = prof.get(v.degree(), 0) + 1
        return dict(sorted(prof.items()))


def _sing_actors(V: ModuleSpec, mode: str, chi: TraceForm | None):
    """The actors (label, w), 1 (x) b_i or s_ab, and the least degree |K| of
    the coefficients of w * v that vanish on a singular v."""
    walg = WAlgebra(V.hopf)
    if mode == "W":
        return [(f"b_{i+1}", walg.gen(i)) for i in range(V.hopf.n)], 2
    if mode == "S":
        if V.hopf.n <= 2:
            raise DimensionTooSmall("S mode requires dim d >= 3")
        if chi is None:
            raise RepInvalid("S mode needs the trace form chi")
        return [(f"s_{a+1}{b+1}", s) for (a, b), s in walg.s_generators(chi)], 3
    raise ValueError(f"unknown mode {mode!r}")


def _columns(hopf: Hopf, width: int, p: int) -> tuple[list, dict]:
    """The slots (I, k), |I| <= p, by decreasing degree, then (I, k), and the column of each."""
    cols = sorted(((I, k) for I in mi_below(hopf.n, p) for k in range(width)),
                  key=lambda slot: (-mi_deg(slot[0]), slot))
    return cols, {slot: c for c, slot in enumerate(cols)}


def _coords(v: ModuleVector) -> Row:
    """The nonzero coordinates of v keyed by slot (I, k)."""
    return {(I, k): c for I, coords in v.terms.items() for k, c in enumerate(coords) if c}


def _add_image(image: dict, prefix: tuple, v: ModuleVector, c: int | Fraction = 1) -> None:
    """The image of one unknown gains c * v: c * v_I[k] at equation prefix + (I, k)."""
    for slot, x in _coords(v).items():
        add_entry(image, prefix + slot, c * x)


def _vector_from_row(V: ModuleSpec, vectors: list[ModuleVector], row: Row) -> ModuleVector:
    """sum_m row[m] * vectors[m]: a solution row read back as a module vector."""
    terms: dict[MultiIndex, list] = {}
    for m, c in row.items():
        for I, coords in vectors[m].terms.items():
            cur = terms.setdefault(I, [0] * V.dim)
            for k, x in enumerate(coords):
                if x:
                    cur[k] += c * x
    return ModuleVector(V.hopf, V.dim, terms)


def _units(V: ModuleSpec, slots) -> list[ModuleVector]:
    return [V.unit(k, I) for I, k in slots]


def sing_solve(V: ModuleSpec, fil_bound: int, mode: str = "W",
               chi: TraceForm | None = None) -> SingResult:
    """Exact basis of the singular vectors inside fil^bound: `sing_in_subspace`
    over the unit vectors b^(I) (x) u_k, so the basis is the canonical reduced
    one for the unknown order (|I|, I, k).
    """
    basis = sing_in_subspace(V, _units(V, V.basis_upto(fil_bound)), mode, chi)
    return SingResult(basis, fil_bound, PAPER_BOUND[mode])


def sing_solve_oracle(V: ModuleSpec, fil_bound: int, mode: str = "W",
                      chi: TraceForm | None = None,
                      validity: int | None = None) -> SingResult:
    """Independent route: v is singular iff the annihilation elements
    iota(x_K (x)_H w) over the actors w, threshold <= |K| <= fil + threshold,
    which span W_1 (resp. S_1), kill it under the contraction action.  The
    x_K are truncated at `validity`, which must reach the largest |K|."""
    hopf = V.hopf
    validity = validity if validity is not None else fil_bound + 4
    actors, threshold = _sing_actors(V, mode, chi)
    if validity < fil_bound + threshold:
        raise TruncationExceeded(f"the oracle needs x_K up to degree {fil_bound + threshold} "
                                 f"but validity is {validity}")
    units = _units(V, V.basis_upto(fil_bound))
    actors = [(label, w.comps) for label, w in actors]
    spanning: list[tuple[str, AnnElement]] = []
    for K in mi_below(hopf.n, fil_bound + threshold):
        if mi_deg(K) < threshold:
            continue
        x = XElement.mono(hopf, K, 1, validity)
        for label, hs in actors:
            el = _iota(x, hs)
            if not el.is_zero():
                spanning.append((f"x_{K}.{label}", el))
    images = []
    for outs in ann_action([el for _label, el in spanning], units, V.action_pv):
        images.append({})
        for (label, _el), out in zip(spanning, outs):
            if out is not None:
                _add_image(images[-1], (label,), out)
    basis = [_vector_from_row(V, units, vec) for vec in kernel(images)]
    return SingResult(basis, fil_bound, PAPER_BOUND[mode])


def s_of(V: ModuleSpec, l: int, coords) -> ModuleVector:
    """s(b_l, u) = sum_j b_j (x) e_l^j u for u given by generator coordinates."""
    if V.rep_gl is None:
        raise RepInvalid("module carries no gl(d) data")
    hopf = V.hopf
    out = ModuleVector.zero(hopf, V.dim)
    coords = tuple(map(rat, coords))
    for j in range(hopf.n):
        img = mat_apply(V.rep_gl.gl_matrix(l, j), coords)
        if any(img):
            out = out + ModuleVector(hopf, V.dim, {mi_unit(hopf.n, j): img})
    return out


def r0_test(u: RepData) -> bool:
    """(e_i^j + delta) e_l^k u + (e_i^k + delta) e_l^j u = 0 for all i,j,k,l, u."""
    n = u.lie.dim
    m = u.dim
    delta = identity_matrix(m)
    # shifted[i][j] = e_i^j + delta_ij
    shifted = [[tuple(tuple(u.gl_matrix(i, j)[r][c] + (delta[r][c] if i == j else 0)
                            for c in range(m)) for r in range(m))
                for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    a = mat_mul(shifted[i][j], u.gl_matrix(l, k))
                    b = mat_mul(shifted[i][k], u.gl_matrix(l, j))
                    if any(a[r][c] + b[r][c] for r in range(m) for c in range(m)):
                        return False
    return True


# ---------------------------------------------------------------------------
# Submodules and intertwiners
# ---------------------------------------------------------------------------

class Closure:
    """A submodule closure of `module` in fil^fil_bound: its basis and the
    reduced rows of the whole span in fil^{bound+1}, by pivot column."""

    def __init__(self, module: ModuleSpec, fil_bound: int, basis: list[ModuleVector],
                 window: dict[int, Row]):
        self.module = module
        self.fil_bound = fil_bound
        self.basis = basis
        self.window = window

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def coef_rank(self) -> int:
        """Rank of the generator coordinates of all basis terms."""
        coef = RowReducer()
        for coords in (row for v in self.basis for row in v.terms.values()):
            coef.add({k: x for k, x in enumerate(coords) if x})
        return coef.rank

    def contains(self, v: ModuleVector) -> bool:
        return span_coords([_coords(b) for b in self.basis], [_coords(v)])[0] is not None

    def same_space(self, other: "Closure") -> bool:
        # a closure basis is the reduced-echelon basis of its span in the
        # closure order, so equal spans have equal bases
        return (self.fil_bound == other.fil_bound
                and [v.terms for v in self.basis] == [v.terms for v in other.basis])


def submodule_closure(V: ModuleSpec, gens: list[ModuleVector], fil_bound: int,
                      mode: str = "W", chi: TraceForm | None = None,
                      inner: Closure | None = None) -> Closure:
    """H-submodule generated by `gens`, intersected with fil^bound.

    Iterates normal-form coefficient extraction of the acting generators
    (each coefficient of a * v lies in the submodule) together with
    H-multiplication, inside fil^{bound+1}; the returned basis spans the
    intersection with fil^bound exactly when the submodule is generated in
    degrees <= bound - 1.  Each coefficient of a * v goes from the left-form
    kernel store (`ModuleSpec.w_star_store`) straight into the reducer; only
    a row that enlarges the span becomes a vector, the one `w_star` would
    give.  The basis and window of the closures of `classify` do not depend
    on the order of the seeds or of the stores
    (`test_modules.test_closures_do_not_depend_on_seed_or_store_order`).

    With `inner`, a closure of V at the same bound, mode and chi whose
    generators lie in the span of `gens`, the span starts from a copy of
    inner's window rows.  They count as done and are not queued: inner drained
    its queue, so only vectors outside its span are acted on.  The key order
    of the basis terms follows the rows' history, so it can differ from a
    build from scratch.
    """
    work = fil_bound + 1
    actors, _threshold = _sing_actors(V, mode, chi)
    cols, index = _columns(V.hopf, V.dim, work)
    red = RowReducer()
    if inner is not None:
        if inner.module is not V or inner.fil_bound != fil_bound:
            raise DimensionMismatch("inner closure of another module or bound")
        # a copy: `add` edits the stored rows in place
        red.pivots = {j: dict(row) for j, row in inner.window.items()}
    queue: list[ModuleVector] = []

    def push(v: ModuleVector) -> None:
        if v.is_zero() or v.degree() > work:
            return
        if red.add({index[slot]: c for slot, c in _coords(v).items()}):
            queue.append(v)

    hopf, dim = V.hopf, V.dim
    for g in gens:
        push(g)
    while queue:
        v = queue.pop()
        for i in range(hopf.n):
            if v.degree() + 1 <= work:
                push(v.hmul(hopf.gen(i)))
        for _label, w in actors:
            for at_m in V.w_star_store(w, v, LEFT).values():
                rows = [(N, cur) for N, cur in at_m.items() if any(cur)]
                if not rows or max(mi_deg(N) for N, _cur in rows) > work:
                    continue
                if red.add({index[N, k]: c for N, cur in rows for k, c in enumerate(cur) if c}):
                    queue.append(ModuleVector(hopf, dim, at_m))
    # restrict to fil^bound: echelon rows whose pivot (highest-degree
    # coordinate) already lies inside fil^bound have all coordinates there
    units = _units(V, cols)
    basis = [_vector_from_row(V, units, red.pivots[j]) for j in sorted(red.pivots)
             if mi_deg(cols[j][0]) <= fil_bound]
    return Closure(V, fil_bound, basis, red.pivots)


def symbol_matrix(V: ModuleSpec, vectors: list[ModuleVector], els: list[AnnElement]):
    """For each annihilation element el of `els`, the coordinate columns of
    -el . v in span(vectors) for each v of `vectors` (None for an el under
    which the span is not invariant).  One `ann_action` call reads each
    (1 (x) b_a) * v once per vector for all the elements, and the span is
    reduced once."""
    images: list[list[Row]] = [[] for _ in els]
    for outs in ann_action(els, vectors, V.action_pv):
        for m, out in enumerate(outs):
            images[m].append(_coords(out.scale(-1)) if out is not None else {})
    cols = span_coords([_coords(v) for v in vectors], [t for ts in images for t in ts])
    per_el = [cols[m * len(vectors):(m + 1) * len(vectors)] for m in range(len(els))]
    return [None if None in c else c for c in per_el]


def id_symbol_matrix(V: ModuleSpec, vectors: list[ModuleVector]):
    """Columns of the matrix of the identity gl(d) symbol sum_i x^i (x) b_i
    (coordinates valid to degree 8) on the span of `vectors`, one per vector
    (None if the span is not invariant)."""
    hopf = V.hopf
    el = AnnElement(hopf, (XElement.coord(hopf, i, 8) for i in range(hopf.n)))
    return symbol_matrix(V, vectors, [el])[0]


def sing_blocks_by_id_symbol(V: ModuleSpec, basis: list[ModuleVector]):
    """Split a singular-vector basis into eigenspaces of the identity symbol.

    Returns {eigenvalue: vectors}; the ground level and each submodule block
    live in distinct eigenspaces (the symbol eigenvalue grows by one per
    filtration degree)."""
    if not basis:
        return {}
    cols = id_symbol_matrix(V, basis)
    if cols is None:
        raise RepInvalid("singular span is not invariant under the identity symbol")
    ground = [v for v in basis if v.degree() == 0]
    if not ground:
        raise RepInvalid("no ground-level singular vectors")
    # the symbol acts by a scalar on the ground level and the eigenvalue
    # grows by one per filtration degree of the block
    idx0 = basis.index(ground[0])
    mu = cols[idx0][idx0]
    out: dict[int | Fraction, list[ModuleVector]] = {}
    for d in sorted({v.degree() for v in basis}):
        lam = mu + d
        # unknown c has image column c of (symbol - lam)
        images = [{r: x for r, y in enumerate(col) if (x := y - (lam if r == c else 0))}
                  for c, col in enumerate(cols)]
        vecs = [v for v in (_vector_from_row(V, basis, coeff) for coeff in kernel(images))
                if not v.is_zero()]
        if vecs:
            out[lam] = vecs
    return out


def sing_in_subspace(V: ModuleSpec, vectors: list[ModuleVector], mode: str = "W",
                     chi: TraceForm | None = None) -> list[ModuleVector]:
    """Singular vectors inside the span of `vectors`, solved in coefficients.

    W mode: the right-normal coefficients of (1 (x) b_i) * v at |K| >= 2 must
    vanish.  S mode: the coefficients of s_ij * v at |K| >= 3 must vanish.
    The kernel basis is the canonical reduced one for the order of `vectors`.
    """
    actors, threshold = _sing_actors(V, mode, chi)
    images = []
    for v in vectors:
        images.append({})
        for label, w in actors:
            for K, mv in V.w_star(w, v, RIGHT).terms.items():
                if mi_deg(K) >= threshold:
                    _add_image(images[-1], (label, K), mv)
    return [v for v in (_vector_from_row(V, vectors, vec) for vec in kernel(images))
            if not v.is_zero()]


def solve_intertwiner(V: ModuleSpec, W: ModuleSpec, fil_bound: int,
                      mode: str = "W", chi: TraceForm | None = None) -> list[list[ModuleVector]]:
    """Basis of H-linear module maps V -> W determined on generators.

    Unknown (g, J, r) is the map beta sending u_g to b^(J) (x) w_r and every
    other generator to 0, with b^(J) inside fil^bound.  The intertwining
    condition ((id (x) id) (x)_H beta)(a * u) = a * beta(u) is imposed for
    every acting generator a and every generator u of V.
    """
    if V.hopf is not W.hopf:
        raise DimensionMismatch("modules over different algebras")
    actors, _ = _sing_actors(V, mode, chi)
    slots = [(g, J, r) for g in range(V.dim) for J in mi_below(V.hopf.n, fil_bound)
             for r in range(W.dim)]
    acted = [[V.w_star(w, u, LEFT) for _label, w in actors]
             for u in (V.unit(g0) for g0 in range(V.dim))]
    images = []
    for g, J, r in slots:
        unit = W.unit(r, J)
        beta = [unit if g0 == g else W.zero_vector() for g0 in range(V.dim)]
        images.append({})
        for a, (label, w) in enumerate(actors):
            for g0 in range(V.dim):
                for I, mv in acted[g0][a].terms.items():
                    _add_image(images[-1], (label, g0, I), apply_map(beta, mv))
            for I, mv in W.w_star(w, unit, LEFT).terms.items():
                _add_image(images[-1], (label, g, I), mv, -1)
    units = [W.unit(r, J) for _g, J, r in slots]
    return [[_vector_from_row(W, units, {col: c for col, c in vec.items() if slots[col][0] == g})
             for g in range(V.dim)] for vec in kernel(images)]


def apply_map(images: list[ModuleVector], v: ModuleVector) -> ModuleVector:
    """The H-linear map sending generator k to images[k], applied to v: each c b^(I)
    images[k] folded into one store, with the key order of adding them in turn."""
    hopf, width = v.hopf, images[0].width
    store: dict = {}  # () -> N -> coordinates: `_fold` with one outer key
    for I, coords in v.terms.items():
        for k, c in enumerate(coords):
            if c:
                _fold(store, (), _times(hopf, ((I, 1),), images[k].terms.items(), width), c)
    return ModuleVector(hopf, width, store.get((), {}))
