"""Finite-dimensional Lie algebras by structure constants, trace forms, and
representations of d and gl(d).

A Lie algebra on basis b_1,...,b_N is stored through its structure constants
c_ij^k for i < j only; the antisymmetric completion is implicit.  All
coefficients are exact rationals.  gl(d)-representations are keyed by the N^2
elementary matrices e_i^j (with e_i^j b_k = delta_jk b_i), so an sl(d)-module
enters as gl(d) data together with the scalar by which the identity acts.
Every coefficient is canonical, an int when integral and else a Fraction
(`_linalg._exact`), as the LieData, TraceForm and RepData constructors and the
matrix helpers keep it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence

from ._linalg import _exact
from .errors import (
    AntisymmetryViolation,
    DegreeOutOfRange,
    InvalidTraceForm,
    JacobiViolation,
    RepInvalid,
)

Matrix = tuple[tuple[int | Fraction, ...], ...]


def rat(x) -> Fraction:
    """Coerce ints, 'p/q' strings and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(x if type(x) is int else _exact(rat(x)) for x in row) for row in rows)


def zero_matrix(m: int) -> Matrix:
    return tuple((0,) * m for _ in range(m))


def identity_matrix(m: int) -> Matrix:
    return tuple(tuple(int(r == c) for c in range(m)) for r in range(m))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(_exact(x + y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: int | Fraction, a: Matrix) -> Matrix:
    return tuple(tuple(_exact(c * x) for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, skipping the zero entries of both factors."""
    m = len(b[0])
    out = []
    for row in a:
        acc = [0] * m
        for k, x in enumerate(row):
            if x:
                for c, y in enumerate(b[k]):
                    if y:
                        acc[c] += x * y
        out.append(tuple(map(_exact, acc)))
    return tuple(out)


def mat_comm(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(_exact(x - y) for x, y in zip(ra, rb))
                 for ra, rb in zip(mat_mul(a, b), mat_mul(b, a)))


def mat_apply(a: Matrix, v: Sequence[int | Fraction]) -> tuple[int | Fraction, ...]:
    """a v, skipping the zero entries of v."""
    return tuple(_exact(sum(row[c] * x for c, x in enumerate(v) if x)) for row in a)


def mat_trace(a: Matrix) -> int | Fraction:
    return _exact(sum(a[i][i] for i in range(len(a))))


def mat_is_zero(a: Matrix) -> bool:
    return all(v == 0 for row in a for v in row)


class LieData:
    """Structure constants of an N-dimensional Lie algebra, stored for i < j;
    set once, the table and its index are never reassigned."""

    def __init__(self, dim: int, table: Iterable, name: str = ""):
        self.dim = dim
        self.table: tuple[tuple[int, int, tuple[tuple[int, int | Fraction], ...]], ...] = tuple(
            (i, j, tuple((k, _exact(rat(c))) for k, c in terms)) for i, j, terms in table)
        self.name = name
        self._index = {(i, j): dict(terms) for i, j, terms in self.table}
        self._omega_reps = {}

    @classmethod
    def from_entries(cls, dim: int, entries: Iterable[tuple[int, int, int, object]], name: str = "") -> "LieData":
        """Build from (i, j, k, coeff) 0-based entries; i > j entries must be
        consistent with antisymmetry and are folded into i < j storage."""
        acc: dict[tuple[int, int], dict[int, int | Fraction]] = {}
        seen: dict[tuple[int, int, int], int | Fraction] = {}
        for i, j, k, c in entries:
            c = rat(c)
            if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
                raise AntisymmetryViolation(f"[b_{i+1}, b_{j+1}] -> b_{k+1} out of range 1..{dim}")
            if i == j:
                if c != 0:
                    raise AntisymmetryViolation(f"nonzero [b_{i+1}, b_{i+1}]")
                continue
            key, val = ((i, j), c) if i < j else ((j, i), -c)
            prev = seen.get((key[0], key[1], k))
            if prev is not None and prev != val:
                raise AntisymmetryViolation(
                    f"inconsistent entries for [b_{key[0]+1}, b_{key[1]+1}] -> b_{k+1}"
                )
            seen[(key[0], key[1], k)] = val
            acc.setdefault(key, {})[k] = val
        table = tuple(
            (i, j, tuple(sorted((k, c) for k, c in acc[(i, j)].items() if c != 0)))
            for (i, j) in sorted(acc)
        )
        table = tuple((i, j, terms) for i, j, terms in table if terms)
        return cls(dim=dim, table=table, name=name)

    def bracket(self, i: int, j: int) -> dict[int, int | Fraction]:
        """[b_i, b_j] as {k: coefficient}."""
        if i == j:
            return {}
        if i < j:
            return dict(self._index.get((i, j), {}))
        return {k: -c for k, c in self._index.get((j, i), {}).items()}

    def bracket_vec(self, u: Sequence, v: Sequence) -> tuple[int | Fraction, ...]:
        out = [0] * self.dim
        for i, ci in enumerate(u):
            if ci == 0:
                continue
            for j, cj in enumerate(v):
                if cj == 0:
                    continue
                for k, c in self.bracket(i, j).items():
                    out[k] += ci * cj * c
        return tuple(map(_exact, out))

    def validate(self) -> None:
        """Check the Jacobi identity exactly on all basis triples."""
        n = self.dim
        for i, j, k in itertools.combinations(range(n), 3):
            defect = [0] * n
            for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
                inner = self.bracket(b, c)
                for m, cm in inner.items():
                    for l, cl in self.bracket(a, m).items():
                        defect[l] += cm * cl
            if any(defect):
                raise JacobiViolation(i, j, k, tuple(map(_exact, defect)))

    def adjoint(self) -> "RepData":
        """The adjoint representation: (ad b_i)_{kj} = c_ij^k."""
        mats = []
        for i in range(self.dim):
            m = [[0] * self.dim for _ in range(self.dim)]
            for j in range(self.dim):
                for k, c in self.bracket(i, j).items():
                    m[k][j] += c
            mats.append(m)
        return RepData.d_rep(self, tuple(mats))

    def tr_ad(self) -> "TraceForm":
        ad = self.adjoint()
        return TraceForm(self, tuple(mat_trace(ad.d_matrix(i)) for i in range(self.dim)))

    def zero_trace_form(self) -> "TraceForm":
        return TraceForm(self, (0,) * self.dim)


class TraceForm:
    """A linear functional chi on d vanishing on [d, d]; the values are
    never reassigned."""

    def __init__(self, lie: LieData, values: Sequence):
        if len(values) != lie.dim:
            raise InvalidTraceForm("wrong length")
        self.lie = lie
        self.values: tuple[int | Fraction, ...] = tuple(_exact(rat(v)) for v in values)
        for i in range(lie.dim):
            for j in range(i + 1, lie.dim):
                s = sum(c * self.values[k] for k, c in lie.bracket(i, j).items())
                if s != 0:
                    raise InvalidTraceForm(f"chi([b_{i+1}, b_{j+1}]) = {s} != 0")

    def __call__(self, i: int) -> int | Fraction:
        return self.values[i]


class RepData:
    """Matrices of a finite-dimensional representation.

    Two flavours share this container: a d-representation holds one matrix
    per basis element of d; a gl(d)-representation holds one matrix per
    elementary e_i^j.  Matrices act on column vectors, with canonical entries.
    """

    def __init__(self, lie: LieData, dim: int, d_mats=None, gl_mats=None):
        self.lie = lie
        self.dim = dim
        self._d = None if d_mats is None else tuple(map(mat, d_mats))
        self._gl = None if gl_mats is None else {key: mat(m) for key, m in gl_mats.items()}
        self._valid = False  # set once validate() passes; the matrices are never reassigned

    # -- constructors -------------------------------------------------
    @classmethod
    def d_rep(cls, lie: LieData, mats: Sequence[Matrix]) -> "RepData":
        mats = tuple(mats)
        if len(mats) != lie.dim:
            raise RepInvalid("need one matrix per basis element of d")
        m = len(mats[0]) if mats else 0
        return cls(lie, m, d_mats=mats)

    @classmethod
    def gl_rep(cls, lie: LieData, mats: dict[tuple[int, int], Matrix]) -> "RepData":
        n = lie.dim
        if set(mats) != {(i, j) for i in range(n) for j in range(n)}:
            raise RepInvalid("need one matrix per e_i^j")
        m = len(mats[(0, 0)])
        return cls(lie, m, gl_mats=mats)

    @classmethod
    def trivial(cls, lie: LieData, m: int = 1, kind: str = "d") -> "RepData":
        if kind == "d":
            return cls.d_rep(lie, tuple(zero_matrix(m) for _ in range(lie.dim)))
        return cls.gl_rep(
            lie, {(i, j): zero_matrix(m) for i in range(lie.dim) for j in range(lie.dim)}
        )

    @classmethod
    def line(cls, form: TraceForm) -> "RepData":
        """One-dimensional d-module where b_i acts as chi(b_i)."""
        return cls.d_rep(form.lie, tuple(((form.values[i],),) for i in range(form.lie.dim)))

    # -- access -------------------------------------------------------
    @property
    def is_d_rep(self) -> bool:
        return self._d is not None

    def d_matrix(self, i: int) -> Matrix:
        return self._d[i]

    def gl_matrix(self, i: int, j: int) -> Matrix:
        return self._gl[(i, j)]

    def gl_of(self, A: Matrix) -> Matrix:
        """Image of a gl(d) element given by its matrix sum A = sum A_ij e_i^j."""
        out = zero_matrix(self.dim)
        n = self.lie.dim
        for i in range(n):
            for j in range(n):
                if A[i][j]:
                    out = mat_add(out, mat_scale(A[i][j], self.gl_matrix(i, j)))
        return out

    def id_scalar(self) -> int | Fraction:
        """Scalar by which Id = sum e_i^i acts; RepInvalid if not scalar."""
        total = zero_matrix(self.dim)
        for i in range(self.lie.dim):
            total = mat_add(total, self.gl_matrix(i, i))
        c = total[0][0]
        if not mat_is_zero(mat_add(total, mat_scale(-c, identity_matrix(self.dim)))):
            raise RepInvalid("Id does not act as a scalar")
        return c

    def with_id_scalar(self, c) -> "RepData":
        """Same traceless action, with Id shifted to act as the scalar c."""
        return self.gl_shift_id((rat(c) - self.id_scalar()) / self.lie.dim)

    def twist_by(self, form: TraceForm) -> "RepData":
        """Tensor a d-representation with the one-dimensional module k_chi."""
        if not self.is_d_rep:
            raise RepInvalid("twist_by applies to d-representations")
        mats = tuple(
            mat_add(self.d_matrix(i), mat_scale(form.values[i], identity_matrix(self.dim)))
            for i in range(self.lie.dim)
        )
        return RepData.d_rep(self.lie, mats)

    def gl_shift_id(self, s) -> "RepData":
        """Add the scalar s*delta_ij to every diagonal e_i^i (tensoring with k_{s.tr})."""
        s = rat(s)
        n = self.lie.dim
        mats = {}
        for i in range(n):
            for j in range(n):
                m = self.gl_matrix(i, j)
                if i == j and s:
                    m = mat_add(m, mat_scale(s, identity_matrix(self.dim)))
                mats[(i, j)] = m
        return RepData.gl_rep(self.lie, mats)

    # -- validation ---------------------------------------------------
    def validate(self) -> None:
        """Raise RepInvalid unless the relations hold; only a pass is remembered."""
        if self._valid:
            return
        if self.is_d_rep:
            for i in range(self.lie.dim):
                for j in range(i + 1, self.lie.dim):
                    expect = zero_matrix(self.dim)
                    for k, c in self.lie.bracket(i, j).items():
                        expect = mat_add(expect, mat_scale(c, self.d_matrix(k)))
                    got = mat_comm(self.d_matrix(i), self.d_matrix(j))
                    if got != expect:
                        raise RepInvalid(f"[rho(b_{i+1}), rho(b_{j+1})] != rho([b_{i+1}, b_{j+1}])")
        else:
            # both sides are antisymmetric in the two pairs and vanish on equal
            # pairs, so (i, j) < (k, l) suffices and the first failure is the same
            units = list(itertools.product(range(self.lie.dim), repeat=2))
            for (i, j), (k, l) in itertools.combinations(units, 2):
                got = mat_comm(self.gl_matrix(i, j), self.gl_matrix(k, l))
                expect = zero_matrix(self.dim)
                if j == k:
                    expect = mat_add(expect, self.gl_matrix(i, l))
                if i == l:
                    expect = mat_add(expect, mat_scale(-1, self.gl_matrix(k, j)))
                if got != expect:
                    raise RepInvalid(f"gl commutation fails on (e_{i+1}^{j+1}, e_{k+1}^{l+1})")
        self._valid = True


def box_tensor(pi: RepData, u: RepData) -> tuple[RepData, RepData]:
    """The (d + gl d)-module Pi (x) U: returns (d-part, gl-part) acting on the
    tensor product, basis ordered (p, u) row-major in the Pi index."""
    if not pi.is_d_rep or u.is_d_rep:
        raise RepInvalid("box_tensor expects (d-rep, gl-rep)")
    lie = pi.lie
    mp, mu = pi.dim, u.dim
    m = mp * mu

    def embed(a: Matrix, index) -> Matrix:
        """a acting on one factor; index(r, s) is the tensor-basis position of
        the factor's vector r next to vector s of the other factor."""
        out = [[0] * m for _ in range(m)]
        for r, c in itertools.product(range(len(a)), repeat=2):
            if a[r][c]:
                for s in range(m // len(a)):
                    out[index(r, s)][index(c, s)] += a[r][c]
        return out

    d_part = RepData.d_rep(lie, tuple(embed(pi.d_matrix(i), lambda r, s: r * mu + s)
                                      for i in range(lie.dim)))
    gl_part = RepData.gl_rep(lie, {(i, j): embed(u.gl_matrix(i, j), lambda r, s: s * mu + r)
                                   for i in range(lie.dim) for j in range(lie.dim)})
    return d_part, gl_part


# ---------------------------------------------------------------------------
# Wedge powers of d* as gl(d)-modules
# ---------------------------------------------------------------------------

def wedge_basis(n_dim: int, deg: int) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(n_dim), deg))


def insert_sign(i: int, rest: tuple[int, ...]):
    """Sort (i, *rest) with rest strictly increasing; None on a repeat."""
    if i in rest:
        return None
    pos = sum(1 for r in rest if r < i)
    return ((-1) ** pos, rest[:pos] + (i,) + rest[pos:])


def omega_rep(data: LieData, n: int) -> RepData:
    """gl(d) acting on Omega^n = Lambda^n d* in the wedge-monomial basis.

    The action of A on an n-form alpha is
    (A.alpha)(a_1 ^ ... ^ a_n) = sum_r (-1)^r alpha(A a_r ^ a_1 ^ ...hat a_r...).
    Built once per (data, n): every caller shares one RepData.
    """
    N = data.dim
    if not 0 <= n <= N:
        raise DegreeOutOfRange(f"wedge degree {n} outside 0..{N}")
    if n in data._omega_reps:
        return data._omega_reps[n]
    basis = wedge_basis(N, n)
    index = {b: t for t, b in enumerate(basis)}
    m = len(basis)
    mats = {}
    for i in range(N):
        for j in range(N):
            out = [[0] * m for _ in range(m)]
            # column: value of A.x^S on each basis wedge T computed from the
            # defining formula; e_i^j a_r = delta_{j, a_r} b_i
            for t, T in enumerate(basis):
                for r, tr in enumerate(T):
                    if tr != j:
                        continue
                    rest = T[:r] + T[r + 1:]
                    ins = insert_sign(i, rest)
                    if ins is None:
                        continue
                    sgn, S = ins
                    # (-1)^(r+1): the formula's sign at 1-based position r+1
                    out[t][index[S]] += (-1) ** (r + 1) * sgn
            mats[(i, j)] = out
    data._omega_reps[n] = RepData.gl_rep(data, mats)
    return data._omega_reps[n]


def sym2_dual_rep(data: LieData) -> RepData:
    """gl(d) acting on the symmetric square of d*; Id acts as -2."""
    N = data.dim
    basis = [(a, b) for a in range(N) for b in range(a, N)]
    index = {b: t for t, b in enumerate(basis)}
    m = len(basis)
    mats = {}
    for i in range(N):
        for j in range(N):
            out = [[0] * m for _ in range(m)]
            # derivation action induced from e_i^j . x^k = -delta_ik x^j
            for t, (a, b) in enumerate(basis):
                for pos, other in ((a, b), (b, a)):
                    if pos != i:
                        continue
                    pair = tuple(sorted((j, other)))
                    out[index[pair]][t] -= 1
            mats[(i, j)] = out
    return RepData.gl_rep(data, mats)


# ---------------------------------------------------------------------------
# Preset catalog
# ---------------------------------------------------------------------------

def preset(name: str) -> LieData:
    """Named small Lie algebras: abelian1..abelianN, heis3, sl2, solv2, solv3."""
    if name.startswith("abelian"):
        n = int(name[len("abelian"):])
        if n < 1:
            raise ValueError("abelian dimension must be >= 1")
        return LieData.from_entries(n, [], name=name)
    if name == "heis3":
        return LieData.from_entries(3, [(0, 1, 2, 1)], name=name)
    if name == "sl2":
        # basis order (e, h, f): [e,h] = -2e, [e,f] = h, [h,f] = -2f
        return LieData.from_entries(
            3, [(0, 1, 0, -2), (0, 2, 1, 1), (1, 2, 2, -2)], name=name
        )
    if name == "solv2":
        return LieData.from_entries(2, [(0, 1, 1, 1)], name=name)
    if name == "solv3":
        return LieData.from_entries(3, [(0, 1, 1, 1)], name=name)
    raise ValueError(f"unknown preset {name!r}")


PRESET_NAMES = ("abelian1", "abelian2", "abelian3", "heis3", "sl2", "solv2", "solv3")
