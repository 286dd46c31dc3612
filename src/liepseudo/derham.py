"""The pseudo de Rham complex and its twists, plus the exactness and
classification reports built on top of it.

A constant-coefficient n-form is a coordinate row over `wedge_basis(N, n)`.
gl(d) acts on Omega^n only through `liecore.omega_rep`, whose column S is
the image of x^S; the Lie-algebra differential d0 and the contraction
iota_{b_i} read their signs from `insert_sign`.  Forms reach reports only
inside module vectors, whose constructor keeps each coefficient canonical.

Pseudoforms of degree n are module vectors over the tensor module attached
to Omega^n (or Pi (x) Omega^n); a pseudoform gamma = sum h_T (x) x^T is the
map sending the wedge b_T to h_T.  The differential evaluates
    (d al)(a_1 ^ ... ^ a_{n+1}) =
        sum_{i<j} (-1)^{i+j} al([a_i,a_j] ^ ...hat i...hat j...)
      + sum_i (-1)^i al(...hat i...) a_i
with right multiplication in H, and the twisted differential is its image
under the twisting functor.
"""

from __future__ import annotations

import itertools
from math import comb

from ._linalg import RowReducer, add_entry
from .annih import AnnElement
from .dualx import XElement
from .errors import DegreeOutOfRange
from .hopf import Hopf, mi_below, mi_deg, mi_unit, mi_zero
from .liecore import LieData, RepData, TraceForm, insert_sign, mat_apply, omega_rep, wedge_basis
from .modules import (
    PAPER_BOUND,
    ModuleSpec,
    ModuleVector,
    _columns,
    apply_map,
    sing_blocks_by_id_symbol,
    sing_in_subspace,
    sing_solve,
    submodule_closure,
    symbol_matrix,
    tensor_module,
    twist_map,
    r0_test,
)
from .twosided import _times


# ---------------------------------------------------------------------------
# Pseudo de Rham differential
# ---------------------------------------------------------------------------

def _d0_columns(lie: LieData, n: int) -> dict[tuple[int, ...], dict]:
    """d0 x^S as {T: coefficient} for each S of `wedge_basis(N, n)`, where d0
    is the Lie-algebra differential with trivial coefficients:
    (d0 al)(a_1 ^ ... ^ a_{n+1}) = sum_{i<j} (-1)^{i+j} al([a_i,a_j] ^ ...hat i...hat j...)."""
    cols: dict = {S: {} for S in wedge_basis(lie.dim, n)}
    for T in wedge_basis(lie.dim, n + 1):
        for r, s in itertools.combinations(range(n + 1), 2):
            rest = T[:r] + T[r + 1:s] + T[s + 1:]
            for k, c in lie.bracket(T[r], T[s]).items():
                ins = insert_sign(k, rest)
                if ins is not None:
                    # (-1)^{i+j} with 1-based positions i = r+1, j = s+1
                    add_entry(cols[ins[1]], T, (-1) ** (r + s) * ins[0] * c)
    return cols


def _contraction(i: int, S: tuple[int, ...]):
    """iota_{b_i} x^S as (sign, T) with x^S(b_i ^ b_T) = sign; None when i
    is not in S."""
    T = tuple(s for s in S if s != i)
    return (insert_sign(i, T)[0], T) if i in S else None


def omega_module(hopf: Hopf, n: int) -> ModuleSpec:
    """The tensor module Omega^n carrying pseudoforms of degree n, built once
    per (hopf, n) and memoized on the Hopf (`_omega_memo`)."""
    module = hopf._omega_memo.get(n)
    if module is None:
        module = hopf._omega_memo[n] = tensor_module(
            hopf, RepData.trivial(hopf.lie, 1, "d"), omega_rep(hopf.lie, n),
            name=f"T(Pi,Omega^{n})")
    return module


def _d_generator_images(hopf: Hopf, n: int) -> list[ModuleVector]:
    """d(1 (x) x^S) in Omega^{n+1}(d) for each wedge-basis S of degree n: the
    scalar part d0 x^S, then for each T = S with b_j inserted at position r
    the coefficient (-1)^{r+1} at b_j = b_{T_r}."""
    N = hopf.n
    if n >= N:
        raise DegreeOutOfRange("top degree has no differential")
    tgt = wedge_basis(N, n + 1)
    tgt_index = {T: t for t, T in enumerate(tgt)}
    out = []
    for S, scalar in _d0_columns(hopf.lie, n).items():
        terms = {mi_zero(N): [scalar.get(T, 0) for T in tgt]}
        for j in range(N):
            ins = insert_sign(j, S)  # its sign is (-1)^r
            if ins is not None:
                row = terms[mi_unit(N, j)] = [0] * len(tgt)
                row[tgt_index[ins[1]]] = -ins[0]
        out.append(ModuleVector(hopf, len(tgt), terms))
    return out


def d_images(hopf: Hopf, n: int, pi: RepData | None = None) -> list[ModuleVector]:
    """Generator images of the (twisted) differential T(Pi,Omega^n) -> T(Pi,Omega^{n+1}).

    Built once per (hopf, n, pi) and memoized on the Hopf (`_d_images_memo`);
    a twist reads the untwisted source module Omega^n from `omega_module`'s
    memo.
    """
    key = (n, pi)
    imgs = hopf._d_images_memo.get(key)
    if imgs is None:
        imgs = _d_generator_images(hopf, n)
        if pi is not None:
            imgs = twist_map(pi, omega_module(hopf, n), imgs)
        hopf._d_images_memo[key] = imgs
    return list(imgs)


def pseudo_d(hopf: Hopf, n: int, gammav: ModuleVector, pi: RepData | None = None) -> ModuleVector:
    """Apply the (twisted) de Rham differential to a degree-n pseudoform."""
    return apply_map(d_images(hopf, n, pi), gammav)


def _image(omega: RepData, a: int, b: int, s: int) -> list:
    """e^b_a x^S: column s, the index of S, of `omega`'s e_a^b."""
    return [row[s] for row in omega.gl_matrix(a, b)]


def _structure_terms(lie: LieData, omega: RepData, i: int, s: int) -> list:
    """(c, form) for c^j_kl e^k_i e^l_j al and c^k_kl e^l_i al, k < l, with
    al = x^S for S of index s: the terms that 1 (x) u carries with a minus
    sign in `dw2_lhs_rhs`; e^k_i is `omega`'s e_i^k."""
    terms = []
    for k, l in itertools.combinations(range(lie.dim), 2):
        bracket = lie.bracket(k, l)
        # composition order pinned by the delta^k_j contraction in the
        # identity's expansion: e^k_i acts first
        terms += [(c, mat_apply(omega.gl_matrix(j, l), _image(omega, i, k, s)))
                  for j, c in bracket.items()]
        if bracket.get(k):
            terms.append((bracket[k], _image(omega, i, l, s)))
    return terms


def dw2_lhs_rhs(hopf: Hopf, i: int, S, pi: RepData | None = None):
    """Both sides of the contraction identity for the differential:
    d(1 (x) u (x) iota_{b_i} x^S) against the explicit right side
    sum_k b_k (x) u (x) e^k_i al - sum_k 1 (x) b_k u (x) e^k_i al
      - sum_{k<l,j} 1 (x) u (x) c^j_kl e^k_i e^l_j al
      - sum_{k<l} 1 (x) u (x) c^k_kl e^l_i al
    (the second sum is absent in the untwisted case).  Returns one
    (lhs, rhs) pair of module vectors per generator of Pi; None at n = 0.
    A form is its coordinate row over the wedge basis, and e^k_i al is
    column S of `omega_rep`'s e_i^k.
    """
    lie = hopf.lie
    N = lie.dim
    S = tuple(S)
    n = len(S)
    if n == 0:
        return None
    omega = omega_rep(lie, n)
    nb = omega.dim
    s = wedge_basis(N, n).index(S)
    first = [_image(omega, i, k, s) for k in range(N)]  # e^k_i al
    structure = _structure_terms(lie, omega, i, s)
    src_index = {T: t for t, T in enumerate(wedge_basis(N, n - 1))}
    contracted = _contraction(i, S)
    mp = pi.dim if pi is not None else 1
    zero_I = mi_zero(N)
    pairs = []
    for p in range(mp):
        src = [0] * (mp * len(src_index))
        if contracted is not None:
            src[p * len(src_index) + src_index[contracted[1]]] = contracted[0]
        lhs = pseudo_d(hopf, n - 1, ModuleVector(hopf, len(src), {zero_I: src}), pi)

        terms: dict = {}

        def put(I, q: int, form, c) -> None:
            """c times `form` in the Omega^n block of generator q of Pi, at b^(I)."""
            row = terms.setdefault(I, [0] * (mp * nb))
            for t, v in enumerate(form):
                if v:
                    row[q * nb + t] += c * v

        for k in range(N):
            if any(first[k]):
                put(mi_unit(N, k), p, first[k], 1)
                if pi is not None:
                    for r in range(mp):
                        put(zero_I, r, first[k], -pi.d_matrix(k)[r][p])
        for c, form in structure:
            put(zero_I, p, form, -c)
        pairs.append((lhs, ModuleVector(hopf, mp * nb, terms)))
    return pairs


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def filtration_ranks(hopf: Hopf, n: int, pi: RepData | None, p_max: int) -> list[tuple[int, int]]:
    """(dim fil^p, rank of d on fil^p) of degree n for p = 0..p_max.

    The domain basis b^(I) (x) e_k in `mi_below` order lists fil^p before
    fil^{p+1}, so one RowReducer fed each image b^(I) d(e_k), read at every
    degree boundary, ranks all filtration steps in one pass; a row comes
    straight from `twosided._times`, over the columns of `modules._columns`.
    """
    imgs = d_images(hopf, n, pi)
    index = _columns(hopf, imgs[0].width, p_max + 1)[1]
    red = RowReducer()
    out = []
    for p, level in itertools.groupby(mi_below(hopf.n, p_max), key=mi_deg):
        for I, img in itertools.product(level, imgs):
            rows = _times(hopf, ((I, 1),), img.terms.items(), img.width)
            red.add({index[K, r]: x for K, cur in rows for r, x in enumerate(cur) if x})
        out.append((comb(hopf.n + p, hopf.n) * len(imgs), red.rank))
    return out


def exactness_report(hopf: Hopf, pi: RepData | None, p_max: int) -> dict:
    """Filtration-local exactness of the (twisted) pseudo de Rham complex.

    For 0 < n < N and p <= p_max: dim ker(d|fil^p) must equal
    rank(d|fil^{p-1}) one degree down; at n = 0 the kernel is zero; at n = N
    the cokernel of d(fil^{p-1}) inside fil^p has dimension dim Pi.
    """
    N = hopf.n
    mp = pi.dim if pi is not None else 1
    checks = []
    ranks = [filtration_ranks(hopf, n, pi, p_max) for n in range(N)]
    for p in range(p_max + 1):
        dom0, rank0 = ranks[0][p]
        checks.append({
            "degree": 0, "fil": p, "kind": "injective",
            "kernel": dom0 - rank0, "ok": dom0 == rank0,
        })
    for n in range(1, N):
        for p in range(p_max + 1):
            dom, rk = ranks[n][p]
            image_below = ranks[n - 1][p - 1][1] if p >= 1 else 0
            kernel = dom - rk
            checks.append({
                "degree": n, "fil": p, "kind": "exact",
                "kernel": kernel, "image": image_below, "ok": kernel == image_below,
            })
    for p in range(1, p_max + 1):
        total = comb(N + p, N) * mp * comb(N, N)
        image = ranks[N - 1][p - 1][1]
        checks.append({
            "degree": N, "fil": p, "kind": "cokernel",
            "cokernel": total - image, "expected": mp,
            "ok": total - image == mp,
        })
    return {
        "report": "pseudo-de-rham-exactness",
        "algebra": hopf.lie.name,
        "pi_dim": mp,
        "p_max": p_max,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


def classify_report(hopf: Hopf, pi: RepData, u: RepData, mode: str = "W",
                    chi: TraceForm | None = None, fil_bound: int | None = None) -> dict:
    """Irreducibility verdict for the tensor module of (pi, u) with evidence.

    Runs the quadratic coefficient test, the singular-vector solver, and the
    submodule closures seeded from the singular blocks above degree 0: the
    top identity-symbol block in W mode, each degree and above in S mode.
    The S closures are nested and built innermost first, each from the rows
    of the one inside it; `submodules` lists them from degree >= 1 up.
    In W mode below the top degree, `seed_closures_agree` compares the
    closure of each seed with that of the whole block; a block of one seed
    has one closure, built once.
    """
    N = hopf.n
    mode = mode.upper()
    if mode == "S" and chi is None:
        chi = hopf.lie.zero_trace_form()
    fil_bound = fil_bound if fil_bound is not None else PAPER_BOUND[mode] + 1
    T = tensor_module(hopf, pi, u)
    res = sing_solve(T, fil_bound, mode, chi)
    r0 = r0_test(u)
    ground = [v for v in res.basis if v.degree() == 0]
    higher = [v for v in res.basis if v.degree() >= 1]
    evidence = {
        "sing_dim": res.dim,
        "sing_profile": {str(k): v for k, v in res.degree_profile().items()},
        "ground_dim": len(ground),
        "quadratic_test": r0,
        "solver_within_bound": res.ok,
    }
    # recognize U as a wedge power through its identity scalar and dimension
    id_scalar = u.id_scalar()
    n_candidate = -id_scalar
    is_wedge = (
        n_candidate.denominator == 1
        and 0 <= int(n_candidate) <= N
        and u.dim == comb(N, int(n_candidate))
        and r0
    )
    submodules = []
    if not higher:
        verdict = "irreducible tensor module"
    elif mode == "W":
        n = int(n_candidate)
        evidence["wedge_degree"] = n
        # separate the submodule block from the ground level through the
        # identity-symbol eigenvalue (the echelon basis may mix them)
        blocks = sing_blocks_by_id_symbol(T, res.basis)
        seeds = blocks[max(blocks)]
        clo = submodule_closure(T, seeds, fil_bound + 1, mode, chi)
        submodules.append({"dim": clo.dim, "seed": "sing block"})
        if n >= N:
            verdict = "top-degree case"
        else:
            verdict = "reducible with unique submodule I^n"
            # one seed generates exactly what clo was built from
            evidence["seed_closures_agree"] = len(seeds) == 1 or all(
                submodule_closure(T, [s], fil_bound + 1, mode, chi).same_space(clo)
                for s in seeds
            )
            evidence["submodule_sing_dim"] = len(sing_in_subspace(T, clo.basis, mode, chi))
    else:
        n = int(n_candidate) if is_wedge else None
        evidence["wedge_degree"] = n
        if n == N:
            verdict = "top-degree case"
        elif n == 1:
            verdict = "reducible with two nested submodules"
        else:
            verdict = "reducible with unique submodule I^n"
        by_degree: dict[int, list[ModuleVector]] = {}
        for v in higher:
            by_degree.setdefault(v.degree(), []).append(v)
        clo = None
        for degv in sorted(by_degree, reverse=True):
            seed = [w for dd in sorted(by_degree) if dd >= degv for w in by_degree[dd]]
            clo = submodule_closure(T, seed, fil_bound + 1, mode, chi, clo)
            submodules.insert(0, {"dim": clo.dim, "seed": f"sing blocks at degree >= {degv}"})
    fingerprint = sing_fingerprint(T, res)
    return {
        "report": "classification",
        "algebra": hopf.lie.name,
        "mode": mode,
        "verdict": verdict,
        "evidence": evidence,
        "submodules": submodules,
        "sing_fingerprint": fingerprint,
        "ok": res.ok,
    }


def sing_fingerprint(V: ModuleSpec, res) -> dict:
    """Isomorphism-type data of the singular-vector module: dimension and the
    traces of the gl(d) symbols x^j (x) b_i acting through the annihilation
    algebra."""
    hopf = V.hopf
    n = hopf.n
    basis = res.basis
    if not basis:
        return {"dim": 0}
    validity = max(6, res.fil_bound + 3)
    mats = symbol_matrix(V, basis, [AnnElement.term(hopf, XElement.coord(hopf, j, validity), i)
                                    for i in range(n) for j in range(n)])
    gl_traces = []
    id_trace = 0
    for i in range(n):
        row_tr = []
        for j in range(n):
            cols = mats[i * n + j]
            if cols is None:
                row_tr.append("outside")
                continue
            tr = sum(cols[m][m] for m in range(len(basis)))
            row_tr.append(str(tr))
            if i == j:
                id_trace += tr
        gl_traces.append(row_tr)
    return {
        "dim": len(basis),
        "gl_symbol_traces": gl_traces,
        "id_trace": str(id_trace),
    }
