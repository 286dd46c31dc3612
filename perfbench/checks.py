"""Checks of CLI reports, with expected values taken from the paper and the
benchmark's own inputs, never from a stored copy of an earlier report.

`check(expect, report)` returns the list of problems (empty when the report
is right).  `MUTATIONS` breaks a good report in one known way per workload
kind; run.py feeds every mutated report back to `check` and requires it to
be rejected, so a check that stopped looking shows up at once.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from itertools import product
from math import comb

VERIFY_CHECKS = (
    "hopf.associativity(sampled, deg<=4)",
    "hopf.antipode-axiom(deg<=4)",
    "hopf.relation-cou2(deg<=4)",
    "dual.coordinate-actions",
    "w.skew-symmetry",
    "w.jacobi",
    "w.module-H-axiom",
    "ann.lwbra-line1",
    "ann.lwbra-line2",
    "ann.euler-symbol-is-identity",
    "ann.gamma-symbol-is-adjoint",
    "ann.reconstruction-round-trip",
)
# only checked when dim d >= 3, where S(d, chi) exists
VERIFY_S_CHECKS = ("s.divergence-free[chi=zero]", "s.divergence-free[chi=tr_ad]")

# S(d, 0) singular-vector dimensions of Omega^n for dim d = 3 (abelian3, heis3)
S_SING_DIM_N3 = {1: 7, 2: 6}

IRREDUCIBLE = "irreducible tensor module"
UNIQUE = "reducible with unique submodule I^n"
NESTED = "reducible with two nested submodules"
TOP = "top-degree case"


def paper_sing_dim(mode: str, N: int, n: int) -> int:
    """Dimension of the singular vectors of T(k, Omega^n) in the paper."""
    if mode == "W":
        return comb(N, n) + comb(N, n - 1)
    if N == 3 and n in S_SING_DIM_N3:
        return S_SING_DIM_N3[n]
    raise ValueError(f"no paper value for S mode, dim {N}, Omega^{n}")


def paper_verdict(mode: str, N: int, u: str) -> str:
    """The paper's classification of T(k, U): reducible exactly for U = Omega^n, n >= 1."""
    if not u.startswith("omega:") or int(u.split(":")[1]) == 0:
        return IRREDUCIBLE
    n = int(u.split(":")[1])
    if n == N:
        return TOP
    if mode == "S" and n == 1:
        return NESTED
    return UNIQUE


def _report_ok(report: dict, command: str) -> list[str]:
    out = []
    if report.get("command") != command:
        out.append(f"command is {report.get('command')!r}, not {command!r}")
    failing = [c.get("check") for c in report.get("checks", []) if not c.get("ok")]
    if failing:
        out.append(f"failing checks {failing}")
    if report.get("ok") is not True:
        out.append("report ok is not true")
    return out


def check_verify(expect: dict, report: dict) -> list[str]:
    out = _report_ok(report, "verify")
    names = [c.get("check") for c in report.get("checks", [])]
    want = set(VERIFY_CHECKS) | (set(VERIFY_S_CHECKS) if expect["N"] >= 3 else set())
    if len(names) != len(set(names)):
        out.append("duplicate check names")
    if set(names) != want:
        out.append(f"missing checks {sorted(want - set(names))}, "
                   f"unexpected {sorted(set(names) - want)}")
    if report.get("config", {}).get("trunc") != expect["trunc"]:
        out.append("truncation in the report differs from the command's")
    return out


def _unknown_columns(N: int, fil: int, width: int) -> dict:
    """Column of each unknown (I, k) in the documented order (|I|, I, k)."""
    indices = sorted((I for I in product(range(fil + 1), repeat=N) if sum(I) <= fil),
                     key=lambda I: (sum(I), I))
    return {(I, k): c for c, (I, k) in enumerate((I, k) for I in indices for k in range(width))}


def _basis_rows(basis: list, cols: dict) -> list[dict]:
    rows = []
    for vec in basis:
        row = {}
        for I, coords in vec:
            for k, c in enumerate(coords):
                if Fraction(c):
                    row[cols[(tuple(I), k)]] = Fraction(c)
        rows.append(row)
    return rows


def echelon_problems(rows: list[dict]) -> list[str]:
    """Reduced echelon form in which each vector leads at its last column:
    lead coefficient 1, leads strictly increasing, and every other vector
    zero at each lead (the nullspace convention of the solver)."""
    leads = []
    for m, row in enumerate(rows):
        if not row:
            return [f"basis vector {m} is zero"]
        lead = max(row)
        if row[lead] != 1:
            return [f"basis vector {m} leads with {row[lead]}, not 1"]
        leads.append(lead)
    if leads != sorted(set(leads)):
        return ["lead columns are not strictly increasing"]
    for m, lead in enumerate(leads):
        if any(row.get(lead) for r, row in enumerate(rows) if r != m):
            return [f"lead column of basis vector {m} is not cleared in the others"]
    return []


def sympy_rank(rows: list[dict], ncols: int) -> int:
    import sympy

    if not rows:
        return 0
    zero = Fraction(0)
    return sympy.Matrix([
        [sympy.Rational(c.numerator, c.denominator) for c in (row.get(j, zero) for j in range(ncols))]
        for row in rows
    ]).rank()


def check_singular(expect: dict, report: dict) -> list[str]:
    out = _report_ok(report, "singular")
    N, mode, n = expect["N"], expect["mode"], expect["omega"]
    want = paper_sing_dim(mode, N, n)
    if report.get("sing_dim") != want:
        out.append(f"sing_dim {report.get('sing_dim')}, paper value {want}")
    config = report.get("config", {})
    width = config.get("pi_dim", 0) * config.get("u_dim", 0)
    if width != comb(N, n):
        out.append(f"module width {width}, expected {comb(N, n)}")
    basis = report.get("basis", [])
    try:
        cols = _unknown_columns(N, config["fil"], width)
        rows = _basis_rows(basis, cols)
    except (KeyError, TypeError, ValueError) as exc:
        return out + [f"basis does not fit the unknown order: {exc!r}"]
    rank = sympy_rank(rows, len(cols))
    if len(rows) != want or rank != want:
        out.append(f"basis has {len(rows)} vectors of rank {rank}, expected {want}")
    out += echelon_problems(rows)
    bound = 1 if mode == "W" else 2
    degrees = [max((sum(I) for I, _ in vec), default=0) for vec in basis]
    if any(d > bound for d in degrees):
        out.append(f"basis degrees {degrees} exceed the paper bound {bound}")
    return out


def check_derham(expect: dict, report: dict) -> list[str]:
    out = _report_ok(report, "derham")
    names = {c.get("check"): c.get("ok") for c in report.get("checks", [])}
    if names.get("d-squared-zero") is not True:
        out.append("d-squared-zero is missing or not ok")
    N, p_max, mp = expect["N"], expect["p_max"], expect["pi_dim"]
    rows = report.get("exactness", {}).get("checks", [])
    if len(rows) != N * (p_max + 1) + p_max:
        out.append(f"{len(rows)} exactness rows, expected {N * (p_max + 1) + p_max}")
    want = ({(0, p, "injective") for p in range(p_max + 1)}
            | {(n, p, "exact") for n in range(1, N) for p in range(p_max + 1)}
            | {(N, p, "cokernel") for p in range(1, p_max + 1)})
    got = {(r.get("degree"), r.get("fil"), r.get("kind")) for r in rows}
    if got != want:
        out.append("exactness rows do not cover each degree and filtration once")
    for r in rows:
        kind = r.get("kind")
        if kind == "injective" and r.get("kernel") != 0:
            out.append(f"degree 0 kernel {r.get('kernel')} at fil {r.get('fil')}")
        elif kind == "exact" and r.get("kernel") != r.get("image"):
            out.append(f"degree {r.get('degree')} fil {r.get('fil')}: kernel {r.get('kernel')} "
                       f"!= image {r.get('image')}")
        elif kind == "cokernel" and r.get("cokernel") != mp:
            out.append(f"top cokernel {r.get('cokernel')} at fil {r.get('fil')}, dim Pi is {mp}")
    return out


def check_classify(expect: dict, report: dict) -> list[str]:
    out = _report_ok(report, "classify")
    N, mode, u = expect["N"], expect["mode"], expect["u"]
    verdict = paper_verdict(mode, N, u)
    if report.get("verdict") != verdict:
        out.append(f"verdict {report.get('verdict')!r}, paper says {verdict!r}")
    if verdict in (UNIQUE, NESTED):
        n = int(u.split(":")[1])
        sing = report.get("evidence", {}).get("sing_dim")
        if sing != paper_sing_dim(mode, N, n):
            out.append(f"sing_dim {sing}, paper value {paper_sing_dim(mode, N, n)}")
    dims = [s.get("dim") for s in report.get("submodules", [])]
    count = {IRREDUCIBLE: 0, UNIQUE: 1, NESTED: 2}.get(verdict)
    if count is not None and len(dims) != count:
        out.append(f"{len(dims)} submodules reported, verdict needs {count}")
    fil = (2 if mode == "W" else 3) + 1  # closures live in fil^(bound + 1)
    total = expect["width"] * comb(N + fil, N)
    if not all(isinstance(d, int) and 0 < d < total for d in dims):
        out.append(f"submodule dimensions {dims} are not proper (total {total})")
    elif mode == "S" and any(a <= b for a, b in zip(dims, dims[1:])):
        out.append(f"submodule dimensions {dims} are not nested")
    return out


CHECKERS = {
    "verify": check_verify,
    "singular": check_singular,
    "derham": check_derham,
    "classify": check_classify,
}


def check(expect: dict, report: dict) -> list[str]:
    return CHECKERS[expect["kind"]](expect, report)


# -- self-test mutations -------------------------------------------------------

def _drop_check(report):
    report["checks"].pop()
    report["passed"] -= 1


def _sing_dim_off(report):
    report["sing_dim"] += 1


def _non_echelon(report):
    # add basis vector 0 into vector 1: same span, no longer reduced
    a, b = report["basis"][0], report["basis"][1]
    terms = {tuple(I): [Fraction(c) for c in coords] for I, coords in b}
    for I, coords in a:
        cur = terms.setdefault(tuple(I), [Fraction(0)] * len(coords))
        for k, c in enumerate(coords):
            cur[k] += Fraction(c)
    report["basis"][1] = [[list(I), [str(c) for c in coords]] for I, coords in terms.items()]


def _empty_exactness(report):
    report["exactness"]["checks"] = []


def _wrong_verdict(report):
    report["verdict"] = UNIQUE if report["verdict"] == IRREDUCIBLE else IRREDUCIBLE


MUTATIONS = {
    "verify": (("missing verify check", _drop_check),),
    "singular": (("sing_dim off by one", _sing_dim_off), ("non-echelon basis", _non_echelon)),
    "derham": (("empty exactness list", _empty_exactness),),
    "classify": (("wrong verdict", _wrong_verdict),),
}


def self_test(expect: dict, report: dict) -> list[str]:
    """Names of the mutations of `report` that `check` failed to reject."""
    missed = []
    for name, mutate in MUTATIONS[expect["kind"]]:
        bad = copy.deepcopy(report)
        mutate(bad)
        if not check(expect, bad):
            missed.append(name)
    return missed
