"""Command-line verification front end.

Subcommands: verify, singular, derham, classify, report-merge.  Algebras and
representations load from presets or JSON files; all reports are JSON-able
dictionaries rendered deterministically (sorted keys, fixed list orders), so
identical configurations produce byte-identical reports.

JSON algebra schema (rationals are "p/q" strings, indices 1-based, each
"dim" a JSON integer >= 1; no "brackets" key means an abelian algebra):
    {"dim": N,
     "brackets": [[i, j, k, "p/q"], ...],
     "chi": "zero" | "tr_ad" | ["p/q", ...],
     "pi":  {"dim": m, "mats": [N matrices]},
     "u":   {"dim": m, "mats": [N*N matrices row-major by (i, j)],
             "id_scalar": "p/q"}}

Before it builds a module or a dual table, a command estimates the size of
its problem and refuses one above SIZE_LIMIT (`_check_size`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from fractions import Fraction

from . import checks
from . import derham as drh
from .dualx import DEFAULT_TRUNCATION
from .errors import ConfigError, LiePseudoError
from .hopf import Hopf
from .liecore import (
    LieData,
    RepData,
    TraceForm,
    mat_is_zero,
    omega_rep,
    preset,
    PRESET_NAMES,
    rat,
    sym2_dual_rep,
)
from .modules import PAPER_BOUND, sing_solve, sing_solve_oracle, tensor_module
from .pseudoalg import CheckReport


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read JSON from {path}: {exc}")
    if not isinstance(blob, dict):
        raise ConfigError(f"{path} holds a JSON {type(blob).__name__}, not an object")
    return blob


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


def _json_dim(value, what: str) -> int:
    """A dimension read from JSON: an integer, not a bool, a float or a
    string."""
    if type(value) is not int:
        raise ConfigError(f"{what}: dimension must be a JSON integer, got {json.dumps(value)}")
    return value


# The largest problem a command accepts: C(N + p, N) x rank, the number of
# basis vectors b^(I) (x) u with |I| <= p of a module of that rank over
# H = U(d), dim d = N, at the highest degree p the command reads (its --fil
# or --trunc, or the working degree of a closure).  Every golden and
# benchmark command, and the dim-4 and dim-5 commands timed in ROADMAP.md,
# stay below 1,500 (tests/test_cli.py).  The limit bounds the size of a
# problem, not its running time.
SIZE_LIMIT = 10 ** 5


def _check_size(lie: LieData, p: int, rank: int) -> None:
    """Refuse a problem above SIZE_LIMIT before any module or dual table is built."""
    n = lie.dim
    size = math.comb(n + p, n) * rank
    if size > SIZE_LIMIT:
        # the first three digits of size, which may have more than str() allows
        k = math.floor(math.log10(size))
        lead = size // 10 ** (k - 2)
        raise ConfigError(f"problem size C(N + p, N) x rank = C({n} + {p}, {n}) x {rank} "
                          f"~ {lead // 100}.{lead % 100:02d}e{k} exceeds the limit {SIZE_LIMIT}")


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
        dim = _json_dim(blob["dim"], f"bad algebra schema in {source}")
        if dim < 1:
            raise ConfigError(f"algebra dimension must be >= 1 in {source}, got {dim}")
        entries = [(i - 1, j - 1, k - 1, rat(c)) for i, j, k, c in blob.get("brackets", [])]
        lie = LieData.from_entries(dim, entries, name=os.path.basename(source))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
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
    if not isinstance(values, list) or len(values) != lie.dim:
        raise ConfigError(f"chi needs {lie.dim} entries")
    try:
        return TraceForm(lie, _spec_rats(values, "chi"))
    except LiePseudoError as exc:
        raise ConfigError(str(exc))


def _mats_from_blob(blob: dict, count: int, what: str) -> list:
    mats = blob.get("mats") if isinstance(blob, dict) else None
    if not isinstance(mats, list) or len(mats) != count:
        raise ConfigError(f"{what}: need {count} matrices")
    try:
        dim = _json_dim(blob["dim"], f"{what}: bad matrix data")
        if dim < 1:
            raise ConfigError(f"{what}: dimension must be >= 1, got {dim}")
        out = []
        for m in mats:
            if len(m) != dim or any(len(row) != dim for row in m):
                raise ConfigError(f"{what}: matrices must be {dim}x{dim}")
            out.append(tuple(tuple(rat(str(v)) for v in row) for row in m))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: bad matrix data: {exc}") from None
    return out


def load_pi(lie: LieData, spec: str | None, blob: dict) -> RepData:
    if spec is None and "pi" in blob:
        sub = blob["pi"]
    elif spec is None or spec in ("trivial", "trivial:1"):
        return RepData.trivial(lie, 1, "d")
    elif spec.startswith("trivial:"):
        return RepData.trivial(lie, _spec_int(spec, 1), "d")
    elif spec.startswith("line:"):
        values = _spec_rats(spec.split(":", 1)[1].split(","), "pi")
        if len(values) != lie.dim:
            raise ConfigError(f"pi line needs {lie.dim} entries")
        try:
            return RepData.line(TraceForm(lie, values))
        except LiePseudoError as exc:
            raise ConfigError(str(exc))
    else:
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
        rep = rep.with_id_scalar(_spec_rats([spec_blob["id_scalar"]], "u id_scalar")[0])
    return rep


# ---------------------------------------------------------------------------
# Check plumbing
# ---------------------------------------------------------------------------

class Suite:
    def __init__(self, name: str, config: dict):
        self.name = name
        self.config = config
        self.checks: list[dict] = []

    def record(self, name: str, report: CheckReport, detail=None) -> None:
        """Add a report entry; a failing one without `detail` names its first
        failing case."""
        entry = {"check": name, "ok": report.ok}
        if detail is None and not report.ok:
            detail = {"first_failure": report.first_failure}
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
    lie, _ = load_algebra(args.alg)
    if args.trunc < 3:
        raise ConfigError(f"truncation --trunc {args.trunc} is below 3, the least that gamma needs")
    _check_size(lie, args.trunc, 1)
    suite = Suite("verify", {"alg": lie.name, "trunc": args.trunc})
    hopf = Hopf(lie)
    for name, check in checks.verify_checks(lie.dim):
        suite.record(name, check(hopf, args.trunc))
    return _emit(suite.report(), args)


def cmd_singular(args) -> int:
    lie, blob = load_algebra(args.alg)
    hopf = Hopf(lie)
    chi = load_chi(lie, args.chi, blob)
    pi = load_pi(lie, args.pi, blob)
    u = load_u(lie, args.u, blob)
    mode = args.mode.upper()
    fil = args.fil if args.fil is not None else PAPER_BOUND[mode] + 1
    if fil < 0:
        raise ConfigError(f"filtration bound --fil {fil} is negative")
    # the oracle pairs with x_K up to |K| = low + PAPER_BOUND + 1; an x_K
    # above the truncation would vanish and drop its equations
    low = min(fil, 2)
    least = low + PAPER_BOUND[mode] + 1
    if args.trunc < least:
        raise ConfigError(f"truncation --trunc {args.trunc} is below {least}, "
                          f"the degree of the oracle's largest x_K at --fil {fil}")
    _check_size(lie, max(fil, args.trunc), pi.dim * u.dim)
    suite = Suite("singular", {
        "alg": lie.name, "mode": mode, "fil": fil, "trunc": args.trunc,
        "pi_dim": pi.dim, "u_dim": u.dim,
    })
    T = tensor_module(hopf, pi, u)
    res = sing_solve(T, fil, mode, chi)
    oracle = sing_solve_oracle(T, low, mode, chi, validity=args.trunc)
    suite.record("solver-within-paper-bound",
                 CheckReport.one_case("solver basis", res.ok),
                 {"profile": {str(k): v for k, v in res.degree_profile().items()}})
    # both bases are reduced column-echelon over the same column order (|I|,
    # I, k), so the solver's vectors of degree <= low are the canonical basis
    # at the oracle's bound
    agrees = [v.serialize() for v in oracle.basis] == [
        v.serialize() for v in res.basis if v.degree() <= low]
    suite.record("oracle-dimension-agrees",
                 CheckReport.one_case("oracle basis", agrees),
                 {"solver": res.dim, "oracle": oracle.dim})
    report = suite.report()
    report["sing_dim"] = res.dim
    report["basis"] = [v.serialize() for v in res.basis]
    return _emit(report, args)


def cmd_derham(args) -> int:
    lie, blob = load_algebra(args.alg)
    if lie.dim < 2:
        raise ConfigError(f"derham needs dim d >= 2, got {lie.dim}: d-squared-zero has no cases")
    hopf = Hopf(lie)
    pi = load_pi(lie, args.pi, blob)
    trivial = all(mat_is_zero(pi.d_matrix(i)) for i in range(lie.dim))
    pi_arg = None if (pi.dim == 1 and trivial) else pi
    p_max = args.fil if args.fil is not None else min(4, args.trunc - 2)
    if p_max < 0:
        raise ConfigError(
            f"filtration bound p_max = {p_max} leaves the exactness check without "
            "cases; pass --fil >= 0 or --trunc >= 2"
        )
    # the complex: every degree n of T(Pi, Omega^n), of rank dim Pi * C(N, n)
    _check_size(lie, p_max, pi.dim * 2 ** lie.dim)
    suite = Suite("derham", {"alg": lie.name, "pi_dim": pi.dim, "p_max": p_max,
                             "trunc": args.trunc})
    h = hopf.one()
    for i in range(min(4, args.trunc - 2)):
        h = h * hopf.gen(i % lie.dim)
    for name, check in checks.derham_checks([h]):
        suite.record(name, check(hopf, pi_arg))
    rep = drh.exactness_report(hopf, pi_arg, p_max)
    suite.record("exactness", CheckReport.one_case("exactness report", rep["ok"]),
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
    # a closure works one degree above its bound
    fil = args.fil if args.fil is not None else PAPER_BOUND[mode] + 1
    _check_size(lie, fil + 1, pi.dim * u.dim)
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

# a subcommand registers only the optional flags it reads, so argparse
# refuses the others instead of ignoring them
_FLAGS = {
    "fil": {"type": int, "help": "filtration bound"},
    "chi": {"help": "zero | tr_ad | comma-separated rationals"},
    "pi": {"help": "trivial[:m] | line:<csv> | JSON path (d-representation)"},
    "u": {"help": "trivial[:m] | omega:n | sym2 | JSON path (gl-representation)"},
    "mode": {"default": "W", "choices": ["W", "S", "w", "s"]},
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    """--alg, --out, --json and `flags`: "trunc" or keys of _FLAGS."""
    p.add_argument("--alg", required=True, help="preset name or algebra JSON path")
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--json", action="store_true", help="print the JSON report")
    for flag in flags:
        if flag == "trunc":
            p.add_argument("--trunc", type=int, default=DEFAULT_TRUNCATION,
                           help=f"dual truncation degree (default {DEFAULT_TRUNCATION})")
        else:
            p.add_argument(f"--{flag}", **_FLAGS[flag])


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
    _add_common(p, "trunc")
    p.set_defaults(func=cmd_verify)
    p = sub.add_parser("singular", help="singular-vector solver with oracle cross-check")
    _add_common(p, "trunc", "fil", "chi", "pi", "u", "mode")
    p.set_defaults(func=cmd_singular)
    p = sub.add_parser("derham", help="de Rham complex identities and exactness")
    _add_common(p, "trunc", "fil", "pi")
    p.set_defaults(func=cmd_derham)
    p = sub.add_parser("classify", help="irreducibility verdict for a tensor module")
    _add_common(p, "fil", "chi", "pi", "u", "mode")
    p.set_defaults(func=cmd_classify)
    p = sub.add_parser("report-merge", help="merge JSON reports")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--out", help="write the merged report to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report_merge)
    return parser


if __name__ == "__main__":
    sys.exit(main())
