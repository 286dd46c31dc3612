"""The benchmark's workloads: seeded inputs and the CLI commands of one round.

Every workload is a fixed list of `liepseudo` commands.  Only the algebra
"gen" depends on the seed; every other input is a preset or a fixed file the
benchmark writes itself.  Each command carries the facts its output checker
needs (see checks.py), taken from the input and the paper, never from a
stored report.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# Entries of the seeded 2x2 matrix M of "gen".  All are nonzero and of equal
# size, so every seed gives the same bracket sparsity and nearly equal cost.
GEN_ENTRIES = ("1", "-1", "2", "-2")

# A 2-dimensional representation of heis3 = span(x, y, z), [x, y] = z:
# x -> E_12, y -> identity, z -> 0.
HEIS3_PI2 = {
    "dim": 2,
    "mats": [
        [["0", "1"], ["0", "0"]],
        [["1", "0"], ["0", "1"]],
        [["0", "0"], ["0", "0"]],
    ],
}


@dataclass
class Command:
    label: str
    argv: list[str]
    expect: dict


def gen_matrix(seed: int) -> list[list[str]]:
    """The seeded matrix M: [b1, b_{j+2}] = sum_i M[i][j] b_{i+2}."""
    rng = random.Random(seed)
    return [[rng.choice(GEN_ENTRIES) for _ in range(2)] for _ in range(2)]


def gen_algebra(seed: int) -> dict:
    """The algebra "gen" = k b1 (semidirect) k^2 as algebra JSON (1-based).

    [b1, b2] and [b1, b3] are the columns of M and [b2, b3] = 0, so the
    Jacobi identity holds for every M, and any trace form vanishing on b2
    and b3 (such as line:1,0,0) vanishes on [d, d].
    """
    M = gen_matrix(seed)
    brackets = [[1, j + 2, i + 2, M[i][j]] for j in range(2) for i in range(2)
                if Fraction(M[i][j])]
    return {"dim": 3, "brackets": brackets}


def _verify(label, alg, N, trunc):
    return Command(label, ["verify", "--alg", alg, "--trunc", str(trunc)],
                   {"kind": "verify", "N": N, "trunc": trunc})


def _singular(label, alg, N, mode, omega):
    return Command(label, ["singular", "--alg", alg, "--mode", mode, "--u", f"omega:{omega}"],
                   {"kind": "singular", "N": N, "mode": mode, "omega": omega})


def _derham(label, alg, N, pi, pi_dim, trunc=None, fil=None):
    argv = ["derham", "--alg", alg]
    if pi is not None:
        argv += ["--pi", pi]
    if trunc is not None:
        argv += ["--trunc", str(trunc)]
    if fil is not None:
        argv += ["--fil", str(fil)]
    # the CLI's documented default: p_max = min(4, trunc - 2)
    p_max = fil if fil is not None else min(4, (trunc or 6) - 2)
    return Command(label, argv, {"kind": "derham", "N": N, "pi_dim": pi_dim, "p_max": p_max})


def _classify(label, alg, N, mode, u, width):
    return Command(label, ["classify", "--alg", alg, "--mode", mode, "--u", u],
                   {"kind": "classify", "N": N, "mode": mode, "u": u, "width": width})


def build(workload: str, seed: int, work: Path) -> list[Command]:
    """Write the workload's input files into `work`; return one round of commands."""
    gen = str(work / "gen.json")
    (work / "gen.json").write_text(json.dumps(gen_algebra(seed)))
    heis_pi = str(work / "heis3_pi2.json")
    (work / "heis3_pi2.json").write_text(json.dumps(HEIS3_PI2))
    if workload == "verify":
        return [
            _verify("verify sl2 trunc4", "sl2", 3, 4),
            _verify("verify gen trunc3", gen, 3, 3),
        ]
    if workload == "singular":
        return [
            _singular("singular heis3 S omega:1", "heis3", 3, "S", 1),
            _singular("singular gen W omega:1", gen, 3, "W", 1),
        ]
    if workload == "derham":
        return [
            _derham("derham heis3 pi2", "heis3", 3, heis_pi, 2),
            _derham("derham gen line", gen, 3, "line:1,0,0", 1),
            _derham("derham abelian3 untwisted trunc8 fil6", "abelian3", 3, None, 1, 8, 6),
        ]
    if workload == "classify":
        return [
            _classify("classify abelian3 S omega:1", "abelian3", 3, "S", "omega:1", 3),
            _classify("classify heis3 W omega:1", "heis3", 3, "W", "omega:1", 3),
            _classify("classify gen W omega:1", gen, 3, "W", "omega:1", 3),
            _classify("classify abelian2 W sym2", "abelian2", 2, "W", "sym2", 3),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify", "singular", "derham", "classify")

# Functions that must be called at least once in a traced round of each
# workload: the layers that do the work there.  A zero count means a wrapper
# missed its target, and the traced run fails.
REQUIRED_CALLS = {
    "verify": ("dualx.act_right", "dualx.act_left", "annih.ann_bracket", "annih.gamma",
               "annih.euler_element", "hopf.mul", "hopf.mono_mul", "pseudoalg.bracket",
               "cli.emit"),
    "singular": ("annih.ann_action", "modules.action_pv", "modules.sing_solve",
                 "modules.sing_solve_oracle", "modules.hmul", "twosided.from_tensor",
                 "twosided.convert", "linalg.reducer_add", "linalg.nullspace", "cli.emit"),
    "derham": ("liecore.validate", "derham.pseudo_d", "derham.d_images",
               "derham.exactness_report", "derham.dw2_lhs_rhs", "modules.tensor_module",
               "modules.twist_map", "modules.hmul", "cli.emit"),
    "classify": ("derham.classify_report", "derham.sing_fingerprint", "modules.w_star",
                 "modules.submodule_closure", "modules.action_pv", "twosided.from_tensor",
                 "twosided.convert", "linalg.reducer_add", "linalg.nullspace", "cli.emit"),
}
