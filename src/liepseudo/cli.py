"""Command-line verification front end.

Subcommands: verify, singular, derham, classify, report-merge.  Algebras and
representations load from presets or JSON files; all reports are JSON-able
dictionaries rendered deterministically (sorted keys, fixed list orders), so
identical configurations produce byte-identical reports.

JSON algebra schema (rationals are "p/q" strings, indices 1-based):
    {"dim": N,
     "brackets": [[i, j, k, "p/q"], ...],
     "chi": "zero" | "tr_ad" | ["p/q", ...],
     "pi":  {"dim": m, "mats": [N matrices]},
     "u":   {"dim": m, "mats": [N*N matrices row-major by (i, j)],
             "id_scalar": "p/q"}}
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import derham as drh
from .annih import ann_div, euler_element, gamma, gr_iso_gl, iota, reconstruct_pseudoaction
from .dualx import DEFAULT_TRUNCATION, XElement
from .errors import ConfigError, LiePseudoError
from .hopf import Hopf, mi_below, mi_deg
from .liecore import (
    LieData,
    RepData,
    TraceForm,
    identity_matrix,
    omega_rep,
    preset,
    PRESET_NAMES,
    rat,
    sym2_dual_rep,
)
from .modules import PAPER_BOUND, sing_solve, sing_solve_oracle, tensor_module
from .pseudoalg import WAlgebra, check_jacobi, check_s_closure, check_skew
from .twosided import module_defect

ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}")


def _spec_int(spec: str, least: int) -> int:
    """The integer m of a `kind:m` spec; it must be at least `least`."""
    tail = spec.split(":", 1)[1]
    try:
        m = int(tail)
    except ValueError:
        raise ConfigError(f"{spec!r}: {tail!r} is not an integer") from None
    if m < least:
        raise ConfigError(f"{spec!r}: needs an integer >= {least}")
    return m


def _spec_rats(values, what: str) -> tuple[Fraction, ...]:
    try:
        return tuple(rat(str(v).strip()) for v in values)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    except ZeroDivisionError:
        raise ConfigError(f"{what}: zero denominator") from None


def load_algebra(source: str) -> tuple[LieData, dict]:
    """Preset name or JSON path; returns (algebra, raw blob for rep defaults)."""
    if source in PRESET_NAMES or re.fullmatch(r"abelian\d+", source):
        try:
            return preset(source), {}
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    blob = _load_json(source)
    try:
        dim = int(blob["dim"])
        entries = [(i - 1, j - 1, k - 1, rat(c)) for i, j, k, c in blob.get("brackets", [])]
        lie = LieData.from_entries(dim, entries, name=os.path.basename(source))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad algebra schema in {source}: {exc}")
    return lie, blob


def load_chi(lie: LieData, spec: str | None, blob: dict) -> TraceForm:
    if spec is None:
        spec = blob.get("chi", "zero")
    if isinstance(spec, str) and spec == "zero":
        return lie.zero_trace_form()
    if isinstance(spec, str) and spec == "tr_ad":
        return lie.tr_ad()
    values = spec.split(",") if isinstance(spec, str) else spec
    if len(values) != lie.dim:
        raise ConfigError(f"chi needs {lie.dim} entries")
    try:
        return TraceForm(lie, _spec_rats(values, "chi"))
    except LiePseudoError as exc:
        raise ConfigError(str(exc))


def _mats_from_blob(blob: dict, count: int, what: str) -> list:
    mats = blob.get("mats")
    if not isinstance(mats, list) or len(mats) != count:
        raise ConfigError(f"{what}: need {count} matrices")
    dim = int(blob["dim"])
    out = []
    for m in mats:
        if len(m) != dim or any(len(row) != dim for row in m):
            raise ConfigError(f"{what}: matrices must be {dim}x{dim}")
        out.append(tuple(tuple(rat(str(v)) for v in row) for row in m))
    return out


def load_pi(lie: LieData, spec: str | None, blob: dict) -> RepData:
    if spec is None and "pi" in blob:
        sub = blob["pi"]
        rep = RepData.d_rep(lie, _mats_from_blob(sub, lie.dim, "pi"))
        rep.validate()
        return rep
    if spec is None or spec == "trivial" or spec == "trivial:1":
        return RepData.trivial(lie, 1, "d")
    if spec.startswith("trivial:"):
        return RepData.trivial(lie, _spec_int(spec, 1), "d")
    if spec.startswith("line:"):
        values = _spec_rats(spec.split(":", 1)[1].split(","), "pi")
        if len(values) != lie.dim:
            raise ConfigError(f"pi line needs {lie.dim} entries")
        try:
            return RepData.line(TraceForm(lie, values))
        except LiePseudoError as exc:
            raise ConfigError(str(exc))
    sub = _load_json(spec)
    rep = RepData.d_rep(lie, _mats_from_blob(sub, lie.dim, "pi"))
    try:
        rep.validate()
    except LiePseudoError as exc:
        raise ConfigError(f"pi: {exc}")
    return rep


def load_u(lie: LieData, spec: str | None, blob: dict) -> RepData:
    if spec is None and "u" in blob:
        spec_blob = blob["u"]
    elif spec is None or spec in ("trivial", "trivial:1"):
        return RepData.trivial(lie, 1, "gl")
    elif spec.startswith("trivial:"):
        return RepData.trivial(lie, _spec_int(spec, 1), "gl")
    elif spec.startswith("omega:"):
        return omega_rep(lie, _spec_int(spec, 0))
    elif spec == "sym2":
        return sym2_dual_rep(lie)
    else:
        spec_blob = _load_json(spec)
    mats = _mats_from_blob(spec_blob, lie.dim * lie.dim, "u")
    keyed = {}
    for idx, m in enumerate(mats):
        keyed[(idx // lie.dim, idx % lie.dim)] = m
    rep = RepData.gl_rep(lie, keyed)
    try:
        rep.validate()
    except LiePseudoError as exc:
        raise ConfigError(f"u: {exc}")
    if "id_scalar" in spec_blob:
        rep = rep.with_id_scalar(rat(str(spec_blob["id_scalar"])))
    return rep


# ---------------------------------------------------------------------------
# Check plumbing
# ---------------------------------------------------------------------------

class Suite:
    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config
        self.checks: list[dict] = []

    def record(self, name: str, ok: bool, detail=None) -> None:
        entry = {"check": name, "ok": bool(ok)}
        if detail is not None:
            entry["detail"] = detail
        self.checks.append(entry)

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def report(self) -> dict:
        return {
            "command": self.name,
            "config": self.config,
            "checks": self.checks,
            "passed": sum(1 for c in self.checks if c["ok"]),
            "failed": sum(1 for c in self.checks if not c["ok"]),
            "ok": self.ok,
        }


def _emit(report: dict, args) -> int:
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.json or not args.out:
        print(text if args.json else _summary(report))
    return 0 if report.get("ok") else 1


def _summary(report: dict) -> str:
    lines = [f"[{report.get('command', 'report')}] ok={report.get('ok')}"]
    for c in report.get("checks", []):
        status = "pass" if c.get("ok") else "FAIL"
        lines.append(f"  {status}  {c.get('check')}")
        if not c.get("ok") and "detail" in c:
            lines.append(f"        {c['detail']}")
    if "verdict" in report:
        lines.append(f"  verdict: {report['verdict']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    lie, blob = load_algebra(args.alg)
    trunc = args.trunc
    suite = Suite("verify", {"alg": lie.name, "trunc": trunc})
    hopf = Hopf(lie)
    n = lie.dim
    rng = random.Random(0)
    monos = [I for I in mi_below(n, 4) if mi_deg(I) > 0]

    # Hopf suite
    ok = True
    for _ in range(10):
        a, b, c = (hopf.mono(rng.choice(monos)) for _ in range(3))
        ok = ok and (a * b) * c == a * (b * c)
    suite.record("hopf.associativity(sampled, deg<=4)", ok)
    ok = True
    for I in mi_below(n, 4):
        h = hopf.mono(I)
        cp = h.coproduct()
        ok = ok and cp == {(K, J): v for (J, K), v in cp.items()}
        acc = hopf.zero()
        for (J, K), v in cp.items():
            acc = acc + (hopf.element(hopf.antipode_mono(J)) * hopf.mono(K)).scale(v)
        ok = ok and acc == hopf.one().scale(h.counit())
    suite.record("hopf.antipode-axiom(deg<=4)", ok)
    from .hopf import coproduct_power

    ok = True
    z = (0,) * n
    for I in mi_below(n, 4):
        acc = {}
        for (A, B, C), v in coproduct_power(hopf.mono(I), 3).items():
            prod = hopf.element(hopf.antipode_mono(A)) * hopf.mono(B)
            for K, v2 in prod.coeffs.items():
                key = (K, C)
                s = acc.get(key, ZERO) + v * v2
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        ok = ok and acc == {(z, I): Fraction(1)}
    suite.record("hopf.relation-cou2(deg<=4)", ok)

    # dual suite
    ok = True
    one_x = XElement.unit(hopf, trunc)
    for i in range(n):
        for j in range(n):
            xj = XElement.coord(hopf, j, trunc)
            left = xj.act_left(hopf.gen(i))
            expect = one_x.scale(-1 if i == j else 0)
            for k in range(i):
                c = lie.bracket(i, k).get(j)
                if c:
                    expect = expect - XElement.coord(hopf, k, trunc).scale(c)
            ok = ok and left.eq_upto(expect, degree=1)
            right = xj.act_right(hopf.gen(i))
            expect_r = one_x.scale(-1 if i == j else 0)
            for k in range(i + 1, n):
                c = lie.bracket(i, k).get(j)
                if c:
                    expect_r = expect_r + XElement.coord(hopf, k, trunc).scale(c)
            ok = ok and right.eq_upto(expect_r, degree=1)
    suite.record("dual.coordinate-actions", ok)

    # pseudoalgebra axioms
    walg = WAlgebra(hopf)
    gens = walg.gens()
    suite.record("w.skew-symmetry", check_skew(walg.bracket, gens).ok)
    suite.record("w.jacobi", check_jacobi(walg.bracket, gens).ok)
    ok = True
    for a, b in itertools.product(gens, repeat=2):
        ok = ok and module_defect(a, b, hopf.one(), walg.bracket, walg.action_on_h).is_zero()
    suite.record("w.module-H-axiom", ok)
    for label, chi in (("zero", lie.zero_trace_form()), ("tr_ad", lie.tr_ad())):
        if n >= 3:
            ok = all(walg.div(s, chi).is_zero() for _, s in walg.s_generators(chi))
            suite.record(f"s.divergence-free[chi={label}]", ok)

    # annihilation suite
    from .annih import AnnElement, ann_bracket, d_act

    def coordel(j, a):
        return AnnElement.term(hopf, XElement.coord(hopf, j, trunc), a)

    def unitel(a):
        return AnnElement.term(hopf, XElement.unit(hopf, trunc), a)

    ok = True
    for i, j, k in itertools.product(range(n), repeat=3):
        br = ann_bracket(coordel(j, i), unitel(k))
        expect = unitel(i).scale(-1 if j == k else 0)
        diff = br - expect.truncate(br.validity)
        order = diff.order()
        ok = ok and (order is None or order >= 0)
    suite.record("ann.lwbra-line1", ok)
    ok = True
    for i, j, k, l in itertools.product(range(n), repeat=4):
        br = ann_bracket(coordel(j, i), coordel(l, k))
        expect = AnnElement.zero(hopf, br.validity)
        if i == l:
            expect = expect.add(coordel(j, k).truncate(br.validity))
        if j == k:
            expect = expect.add(coordel(l, i).truncate(br.validity).scale(-1))
        order = (br - expect).order()
        ok = ok and (order is None or order >= 1)
    suite.record("ann.lwbra-line2", ok)
    E = euler_element(hopf, trunc)
    suite.record("ann.euler-symbol-is-identity", gr_iso_gl(E) == identity_matrix(n))
    ad = lie.adjoint()
    ok = True
    for l in range(n):
        g = gamma(hopf, l, trunc)
        shifted = g.add(AnnElement.term(hopf, XElement.unit(hopf, g.validity), l))
        order = shifted.order()
        if order is None:
            ok = ok and all(v == 0 for row in ad.d_matrix(l) for v in row)
        else:
            ok = ok and order >= 0 and gr_iso_gl(shifted) == ad.d_matrix(l)
    suite.record("ann.gamma-symbol-is-adjoint", ok)
    # reconstruction round-trip on T(Pi, k) and Omega^1(d)
    ok = True
    for umod in (RepData.trivial(lie, 1, "gl"), omega_rep(lie, 1)):
        T = tensor_module(hopf, RepData.trivial(lie, 1, "d"), umod)
        for a in range(n):
            for k in range(T.dim):
                got = reconstruct_pseudoaction(
                    hopf, walg.gen(a), T.unit(k), T.action_pv, 3, trunc
                )
                ok = ok and got.eq(T.table[a][k])
    suite.record("ann.reconstruction-round-trip", ok)

    return _emit(suite.report(), args)


def cmd_singular(args) -> int:
    lie, blob = load_algebra(args.alg)
    hopf = Hopf(lie)
    chi = load_chi(lie, args.chi, blob)
    pi = load_pi(lie, args.pi, blob)
    u = load_u(lie, args.u, blob)
    mode = args.mode.upper()
    fil = args.fil if args.fil is not None else (2 if mode == "W" else 3)
    if fil < 0:
        raise ConfigError(f"filtration bound --fil {fil} is negative")
    suite = Suite("singular", {
        "alg": lie.name, "mode": mode, "fil": fil, "trunc": args.trunc,
        "pi_dim": pi.dim, "u_dim": u.dim,
    })
    T = tensor_module(hopf, pi, u)
    res = sing_solve(T, fil, mode, chi)
    low = min(fil, 2)
    oracle = sing_solve_oracle(T, low, mode, chi, validity=args.trunc)
    suite.record("solver-within-paper-bound", res.ok,
                 {"profile": {str(k): v for k, v in res.degree_profile().items()}})
    # both bases are reduced column-echelon over the same column order (|I|,
    # I, k), so the solver's vectors of degree <= low are the canonical basis
    # at the oracle's bound
    agrees = [v.serialize() for v in oracle.basis] == [
        v.serialize() for v in res.basis if v.degree() <= low]
    suite.record("oracle-dimension-agrees", agrees, {"solver": res.dim, "oracle": oracle.dim})
    report = suite.report()
    report["sing_dim"] = res.dim
    report["basis"] = [v.serialize() for v in res.basis]
    return _emit(report, args)


def cmd_derham(args) -> int:
    lie, blob = load_algebra(args.alg)
    hopf = Hopf(lie)
    pi = load_pi(lie, args.pi, blob)
    trivial = all(
        pi.d_matrix(i) == tuple((ZERO,) * pi.dim for _ in range(pi.dim))
        for i in range(lie.dim)
    )
    pi_arg = None if (pi.dim == 1 and trivial) else pi
    p_max = args.fil if args.fil is not None else min(4, args.trunc - 2)
    if p_max < 0:
        raise ConfigError(
            f"filtration bound p_max = {p_max} leaves the exactness check without "
            "cases; pass --fil >= 0 or --trunc >= 2"
        )
    suite = Suite("derham", {"alg": lie.name, "pi_dim": pi.dim, "p_max": p_max,
                             "trunc": args.trunc})
    from .liecore import wedge_basis
    from .modules import ModuleVector

    n_dim = lie.dim
    ok = True
    h = hopf.one()
    for i in range(min(4, args.trunc - 2)):
        h = h * hopf.gen(i % n_dim)
    for n in range(n_dim - 1):
        width = (pi_arg.dim if pi_arg else 1) * len(wedge_basis(n_dim, n))
        for k in range(width):
            v = ModuleVector.unit(hopf, width, k).hmul(h)
            dd = drh.pseudo_d(hopf, n + 1, drh.pseudo_d(hopf, n, v, pi_arg), pi_arg)
            ok = ok and dd.is_zero()
    suite.record("d-squared-zero", ok)
    ok = True
    for n in range(1, n_dim + 1):
        for S in wedge_basis(n_dim, n):
            for i in range(n_dim):
                for lhs, rhs in drh.dw2_lhs_rhs(hopf, i, S, pi_arg):
                    ok = ok and lhs.eq(rhs)
    suite.record("contracted-differential-identity", ok)
    rep = drh.exactness_report(hopf, pi_arg, p_max)
    suite.record("exactness", rep["ok"],
                 {"failures": [c for c in rep["checks"] if not c["ok"]]})
    report = suite.report()
    report["exactness"] = rep
    return _emit(report, args)


def cmd_classify(args) -> int:
    lie, blob = load_algebra(args.alg)
    hopf = Hopf(lie)
    chi = load_chi(lie, args.chi, blob)
    pi = load_pi(lie, args.pi, blob)
    u = load_u(lie, args.u, blob)
    mode = args.mode.upper()
    if args.fil is not None and args.fil < PAPER_BOUND[mode]:
        raise ConfigError(
            f"filtration bound --fil {args.fil} is below the paper bound {PAPER_BOUND[mode]} "
            f"of mode {mode}, where singular vectors would be missed"
        )
    report = drh.classify_report(hopf, pi, u, mode, chi, args.fil)
    report["command"] = "classify"
    report["config"] = {"alg": lie.name, "mode": mode, "pi_dim": pi.dim, "u_dim": u.dim}
    return _emit(report, args)


def cmd_report_merge(args) -> int:
    merged = {"command": "report-merge", "reports": [], "ok": True}
    for path in args.inputs:
        blob = _load_json(path)
        merged["reports"].append({"source": os.path.basename(path), "report": blob})
        merged["ok"] = merged["ok"] and bool(blob.get("ok"))
    return _emit(merged, args)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _env_truncation() -> int:
    raw = os.environ.get("PSA_TRUNC")
    if raw is None:
        return DEFAULT_TRUNCATION
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"PSA_TRUNC must be an integer, got {raw!r}") from None


def _add_common(p: argparse.ArgumentParser, reps: bool = True, trunc: bool = True) -> None:
    p.add_argument("--alg", required=True, help="preset name or algebra JSON path")
    if trunc:
        p.add_argument("--trunc", type=int, default=_env_truncation(),
                       help="dual truncation degree (default 6, env PSA_TRUNC)")
    p.add_argument("--fil", type=int, default=None, help="filtration bound")
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--json", action="store_true", help="print the JSON report")
    if reps:
        p.add_argument("--chi", default=None, help="zero | tr_ad | comma-separated rationals")
        p.add_argument("--pi", default=None,
                       help="trivial[:m] | line:<csv> | JSON path (d-representation)")
        p.add_argument("--u", default=None,
                       help="trivial[:m] | omega:n | sym2 | JSON path (gl-representation)")
        p.add_argument("--mode", default="W", choices=["W", "S", "w", "s"])


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LiePseudoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liepseudo",
        description="exact verification suites for Lie pseudoalgebras of type W and S",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify", help="Hopf/dual/pseudoalgebra/annihilation invariants")
    _add_common(p, reps=False)
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("singular", help="singular-vector solver with oracle cross-check")
    _add_common(p)
    p.set_defaults(func=cmd_singular)
    p = sub.add_parser("derham", help="de Rham complex identities and exactness")
    _add_common(p)
    p.set_defaults(func=cmd_derham)
    p = sub.add_parser("classify", help="irreducibility verdict for a tensor module")
    _add_common(p, trunc=False)
    p.set_defaults(func=cmd_classify)
    p = sub.add_parser("report-merge", help="merge JSON reports")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", help="write the merged report to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report_merge)
    return parser


if __name__ == "__main__":
    sys.exit(main())
