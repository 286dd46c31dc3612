"""The JSON reports of twenty-one commands, byte for byte, against tests/golden.

The files were written by the CLI itself (`--out`).  To record them again
after an intended change of a report, run from the repo root:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

from liepseudo.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    "verify_sl2_trunc4": ["verify", "--alg", "sl2", "--trunc", "4"],
    "singular_heis3_S_omega1": ["singular", "--alg", "heis3", "--mode", "S", "--u", "omega:1"],
    "singular_abelian3_S_omega1_chi123": ["singular", "--alg", "abelian3", "--mode", "S",
                                          "--u", "omega:1", "--chi", "1,2,3"],
    "classify_abelian3_S_omega1": ["classify", "--alg", "abelian3", "--mode", "S", "--u", "omega:1"],
    "classify_solv3_S_omega1_tr_ad": ["classify", "--alg", "solv3", "--mode", "S", "--u", "omega:1",
                                      "--chi", "tr_ad"],
    "classify_heis3_S_omega1": ["classify", "--alg", "heis3", "--mode", "S", "--u", "omega:1"],
    "classify_heis3_W_omega1": ["classify", "--alg", "heis3", "--mode", "W", "--u", "omega:1"],
    "classify_abelian3_W_omega2": ["classify", "--alg", "abelian3", "--mode", "W", "--u", "omega:2"],
    "derham_abelian3_trunc8_fil6": ["derham", "--alg", "abelian3", "--trunc", "8", "--fil", "6"],
    "singular_sl2_W_omega1": ["singular", "--alg", "sl2", "--mode", "W", "--u", "omega:1"],
    "singular_abelian3_S_omega2": ["singular", "--alg", "abelian3", "--mode", "S", "--u", "omega:2"],
    # sl2 + k at dim 4, and a dim-3 algebra with the non-integral constants 1/2, -3/2, 2/3
    "verify_gl2_trunc4": ["verify", "--alg", str(GOLDEN / "alg_gl2.json"), "--trunc", "4"],
    "verify_frac3_trunc4": ["verify", "--alg", str(GOLDEN / "alg_frac3.json"), "--trunc", "4"],
    # twisted de Rham complexes: the 2-dimensional Pi of heis3 (x -> E_12,
    # y -> 1, z -> 0) and lines, one over the non-integral algebra
    "derham_heis3_pi2": ["derham", "--alg", "heis3", "--pi", str(GOLDEN / "pi_heis3_dim2.json")],
    "derham_solv3_line100": ["derham", "--alg", "solv3", "--pi", "line:1,0,0"],
    "derham_frac3_line100": ["derham", "--alg", str(GOLDEN / "alg_frac3.json"),
                             "--pi", "line:1,0,0"],
    "classify_frac3_W_omega1": ["classify", "--alg", str(GOLDEN / "alg_frac3.json"),
                                "--mode", "W", "--u", "omega:1"],
    # dimension 4: the filiform algebra n4 and the abelian one
    "classify_n4_W_omega2": ["classify", "--alg", str(GOLDEN / "alg_n4.json"),
                             "--mode", "W", "--u", "omega:2"],
    "classify_abelian4_S_omega1": ["classify", "--alg", "abelian4", "--mode", "S", "--u", "omega:1"],
    "verify_n4_trunc4": ["verify", "--alg", str(GOLDEN / "alg_n4.json"), "--trunc", "4"],
    # S-mode singular vectors over the non-integral algebra: the right form of
    # w_star, one from_tensor fold, on coordinates such as 3/2, -2/3 and 1/2
    "singular_frac3_S_omega1": ["singular", "--alg", str(GOLDEN / "alg_frac3.json"),
                                "--mode", "S", "--u", "omega:1"],
}


@pytest.mark.cli
@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_bytes_match_golden(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(COMMANDS[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        if main(argv + ["--out", str(GOLDEN / f"{name}.json")]) != 0:
            sys.exit(f"{name}: the command did not exit 0")
