import contextlib
import io
import json
import math
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liepseudo.cli as cli
from liepseudo.checks import verify_checks
from liepseudo.cli import main
from liepseudo.dualx import DEFAULT_TRUNCATION

import test_golden

pytestmark = pytest.mark.cli


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_verify_sl2_passes(capsys):
    code, out = run_cli(["verify", "--alg", "sl2", "--trunc", "5"], capsys)
    assert code == 0
    assert "ok=True" in out


def test_verify_json_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--alg", "solv2", "--trunc", "5", "--out", str(out1)]) == 0
    assert main(["verify", "--alg", "solv2", "--trunc", "5", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_singular_s_mode_dimension(tmp_path, capsys):
    out = tmp_path / "sing.json"
    code = main(["singular", "--alg", "abelian3", "--mode", "S", "--u", "omega:2",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["sing_dim"] == 6
    assert blob["ok"]


def test_singular_w_mode_basis_serialized(tmp_path, capsys):
    out = tmp_path / "sing.json"
    code = main(["singular", "--alg", "abelian2", "--u", "omega:1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    blob = json.loads(out.read_text())
    assert blob["sing_dim"] == 3
    assert len(blob["basis"]) == 3


def test_singular_cross_check_compares_bases(monkeypatch, capsys):
    # an oracle basis of the solver's dimension but not canonical must fail
    real = cli.sing_solve_oracle

    def rescaled(*args, **kwargs):
        res = real(*args, **kwargs)
        res.basis[-1] = res.basis[-1].scale(2)
        return res

    monkeypatch.setattr(cli, "sing_solve_oracle", rescaled)
    code, out = run_cli(["singular", "--alg", "abelian2", "--u", "omega:1", "--json"], capsys)
    assert code == 1
    check = next(c for c in json.loads(out)["checks"] if c["check"] == "oracle-dimension-agrees")
    assert not check["ok"]
    assert check["detail"] == {"solver": 3, "oracle": 3}


def test_classify_reducible(capsys):
    code, out = run_cli(
        ["classify", "--alg", "abelian2", "--u", "omega:1", "--mode", "W", "--json"], capsys
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "reducible with unique submodule I^n"


def test_classify_accepts_the_paper_bound(capsys):
    # --fil 1 is the paper bound of mode W, the lowest bound classify accepts
    code, out = run_cli(
        ["classify", "--alg", "abelian2", "--u", "omega:1", "--mode", "W", "--fil", "1",
         "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "reducible with unique submodule I^n"


def test_derham_solv2_twisted(capsys):
    code, out = run_cli(
        ["derham", "--alg", "solv2", "--pi", "line:1,0", "--fil", "3"], capsys
    )
    assert code == 0
    assert "ok=True" in out


def test_custom_algebra_json_with_chi(tmp_path, capsys):
    blob = {
        "dim": 3,
        "brackets": [[1, 2, 2, "1"]],
        "chi": "tr_ad",
    }
    path = tmp_path / "solv3.json"
    path.write_text(json.dumps(blob))
    code, out = run_cli(["verify", "--alg", str(path), "--trunc", "5"], capsys)
    assert code == 0
    code, out = run_cli(
        ["singular", "--alg", str(path), "--mode", "S", "--u", "omega:2",
         "--chi", "tr_ad", "--json"], capsys
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["ok"]


def test_config_error_exit_code(capsys, tmp_path):
    code = main(["verify", "--alg", str(tmp_path / "missing.json")])
    assert code == 2
    # invalid chi (not a trace form on solv2: chi(b_2) != 0 fails chi([d,d]) = 0)
    code = main(["singular", "--alg", "solv2", "--chi", "0,1", "--u", "trivial"])
    assert code == 2
    capsys.readouterr()


def test_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "liepseudo.cli", "verify", "--alg", "abelian1",
         "--trunc", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0


class JsonFile:
    """An argv slot that the test fills with the path of a file holding `blob`."""

    def __init__(self, blob):
        self.blob = blob


_ZERO_MATS_1 = [[["0"]]] * 4  # the four 1x1 gl(2) matrices of a trivial U


@pytest.mark.parametrize("argv, env, message", [
    # p_max = trunc - 2 < 0 would leave the exactness check with zero cases
    (["derham", "--alg", "abelian2", "--trunc", "1"], None, "config error: filtration bound p_max = -1"),
    (["derham", "--alg", "abelian2", "--fil", "-1"], None, "config error: filtration bound p_max = -1"),
    # classify reads no truncation, so the flag is refused, not ignored
    (["classify", "--alg", "abelian2", "--mode", "W", "--u", "sym2", "--trunc", "1"], None,
     "error: unrecognized arguments: --trunc 1"),
    # no command reads PSA_TRUNC, so a junk value leaves each command's own error
    (["classify", "--alg", "abelian2", "--u", "sym2", "--fil", "0"], "x",
     "config error: filtration bound --fil 0 is below the paper bound 1 of mode W"),
    (["verify", "--alg", "no-such-dir/a.json"], "4.5",
     "config error: cannot read JSON from no-such-dir/a.json"),
    # malformed specs are configuration errors, never tracebacks
    (["verify", "--alg", "abelianx"], None, "config error: cannot read JSON from abelianx"),
    (["verify", "--alg", "abelian0"], None, "config error: abelian dimension must be >= 1"),
    (["singular", "--alg", "abelian2", "--u", "trivial:0"], None,
     "config error: 'trivial:0': needs an integer >= 1"),
    (["derham", "--alg", "abelian2", "--pi", "trivial:0"], None,
     "config error: 'trivial:0': needs an integer >= 1"),
    (["singular", "--alg", "abelian2", "--u", "omega:x"], None,
     "config error: 'omega:x': 'x' is not an integer"),
    (["singular", "--alg", "abelian2", "--pi", "line:1,x"], None, "config error: pi: "),
    (["singular", "--alg", "abelian2", "--chi", "1/0,0"], None, "config error: chi: zero denominator"),
    # below the paper's filtration bound (1 for W, 2 for S) the verdict would
    # read missing singular vectors as irreducibility
    (["classify", "--alg", "abelian2", "--u", "omega:1", "--fil", "0"], None,
     "config error: filtration bound --fil 0 is below the paper bound 1 of mode W"),
    (["classify", "--alg", "abelian2", "--u", "omega:1", "--fil", "-1"], None,
     "config error: filtration bound --fil -1 is below the paper bound 1 of mode W"),
    (["classify", "--alg", "abelian3", "--mode", "S", "--u", "omega:1", "--fil", "1"], None,
     "config error: filtration bound --fil 1 is below the paper bound 2 of mode S"),
    (["singular", "--alg", "abelian2", "--fil", "-1"], None,
     "config error: filtration bound --fil -1 is negative"),
    # on a 1-dimensional algebra d-squared-zero would pass with zero cases
    (["derham", "--alg", "abelian1"], None, "config error: derham needs dim d >= 2, got 1"),
    # gamma and the Euler element need truncation >= 3: refused before any check runs
    (["verify", "--alg", "abelian2", "--trunc", "2"], None,
     "config error: truncation --trunc 2 is below 3"),
    (["verify", "--alg", "abelian2", "--trunc", "0"], None,
     "config error: truncation --trunc 0 is below 3"),
    # flags a command never reads are refused, not ignored
    (["verify", "--alg", "abelian2", "--trunc", "3", "--fil", "99"], None,
     "error: unrecognized arguments: --fil 99"),
    (["derham", "--alg", "heis3", "--chi", "1,2,3"], None,
     "error: unrecognized arguments: --chi 1,2,3"),
    (["derham", "--alg", "abelian2", "--u", "omega:1"], None,
     "error: unrecognized arguments: --u omega:1"),
    (["derham", "--alg", "abelian2", "--mode", "S"], None,
     "error: unrecognized arguments: --mode S"),
    # malformed JSON input is a configuration error too, never a traceback
    (["verify", "--alg", JsonFile([1, 2])], None, "holds a JSON list, not an object"),
    (["derham", "--alg", "abelian3", "--pi", JsonFile({"dim": 1, "mats": [1, 2, 3]})], None,
     "config error: pi: bad matrix data: object of type 'int' has no len()"),
    (["derham", "--alg", "abelian3", "--pi", JsonFile({"dim": "x", "mats": [[["0"]]] * 3})],
     None, 'config error: pi: bad matrix data: dimension must be a JSON integer, got "x"'),
    (["derham", "--alg", "abelian3", "--pi",
      JsonFile({"dim": 1, "mats": [[["a"]], [["0"]], [["0"]]]})], None,
     "config error: pi: bad matrix data: Invalid literal for Fraction: 'a'"),
    (["singular", "--alg", "abelian2", "--u",
      JsonFile({"dim": 1, "mats": _ZERO_MATS_1, "id_scalar": "1/0"})], None,
     "config error: u id_scalar: zero denominator"),
    (["singular", "--alg", "abelian2", "--u",
      JsonFile({"dim": 1, "mats": _ZERO_MATS_1, "id_scalar": "a"})], None,
     "config error: u id_scalar: Invalid literal for Fraction: 'a'"),
    (["singular", "--alg", JsonFile({"dim": 2, "u": {"mats": _ZERO_MATS_1}})], None,
     "config error: u: bad matrix data: 'dim'"),
    (["singular", "--alg", JsonFile({"dim": 2, "pi": [1]})], None,
     "config error: pi: need 2 matrices"),
    (["singular", "--alg", JsonFile({"dim": 3, "chi": 5}), "--mode", "S"], None,
     "config error: chi needs 3 entries"),
    (["verify", "--alg", JsonFile({"dim": 2, "brackets": [[1, 2, 1, "1/0"]]})], None,
     "config error: bad algebra schema in"),
    # a dimension below 1 is refused before any algebra or representation is built
    (["verify", "--alg", JsonFile({"dim": -1})], None, "config error: algebra dimension must be >= 1"),
    (["verify", "--alg", JsonFile({"dim": 0})], None, "config error: algebra dimension must be >= 1"),
    (["singular", "--alg", JsonFile({"dim": 2, "brackets": [], "pi": {"dim": 0, "mats": [[], []]}})],
     None, "config error: pi: dimension must be >= 1, got 0"),
    (["singular", "--alg", JsonFile({"dim": 2, "brackets": [], "u": {"dim": 0, "mats": [[]] * 4}})],
     None, "config error: u: dimension must be >= 1, got 0"),
    # the singular oracle pairs with x_K up to |K| = min(fil, 2) + paper bound + 1;
    # below that an x_K would vanish and its equations with it
    (["singular", "--alg", "heis3", "--u", "omega:1", "--trunc", "3"], None,
     "config error: truncation --trunc 3 is below 4, the degree of the oracle's largest x_K"),
    (["singular", "--alg", "heis3", "--u", "omega:1", "--trunc", "0"], None,
     "config error: truncation --trunc 0 is below 4"),
    (["singular", "--alg", "heis3", "--mode", "S", "--u", "omega:1", "--trunc", "4"], None,
     "config error: truncation --trunc 4 is below 5"),
    (["singular", "--alg", "heis3", "--mode", "S", "--u", "omega:1", "--trunc", "2"], None,
     "config error: truncation --trunc 2 is below 5"),
    (["singular", "--alg", "abelian2", "--u", "omega:1", "--fil", "0", "--trunc", "1"], None,
     "config error: truncation --trunc 1 is below 2, the degree of the oracle's largest x_K at --fil 0"),
    # a dimension is a JSON integer: not a float, a bool or a string
    (["singular", "--alg", "abelian2", "--pi", JsonFile({"dim": 1.0, "mats": [[["0"]]] * 2})], None,
     "config error: pi: bad matrix data: dimension must be a JSON integer, got 1.0"),
    (["singular", "--alg", "abelian2", "--u", JsonFile({"dim": True, "mats": _ZERO_MATS_1})], None,
     "config error: u: bad matrix data: dimension must be a JSON integer, got true"),
    (["singular", "--alg", "abelian2", "--u", JsonFile({"dim": "1", "mats": _ZERO_MATS_1})], None,
     'config error: u: bad matrix data: dimension must be a JSON integer, got "1"'),
])
def test_bad_input_exits_2_with_a_message(monkeypatch, capsys, tmp_path, argv, env, message):
    files = {m: tmp_path / f"input{m}.json" for m, arg in enumerate(argv) if isinstance(arg, JsonFile)}
    for m, path in files.items():
        path.write_text(json.dumps(argv[m].blob))
    argv = [str(files[m]) if m in files else arg for m, arg in enumerate(argv)]
    if env is None:
        monkeypatch.delenv("PSA_TRUNC", raising=False)
    else:
        monkeypatch.setenv("PSA_TRUNC", env)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err.splitlines()[-1]
    if message.startswith("config error"):
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("dim, shown", [(2.7, "2.7"), (True, "true"), ("2", '"2"')])
def test_an_algebra_dimension_must_be_a_json_integer(tmp_path, capsys, dim, shown):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": dim, "brackets": []}))
    assert main(["verify", "--alg", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: bad algebra schema in {path}: "
                            f"dimension must be a JSON integer, got {shown}\n")


@pytest.mark.parametrize("entry, shown", [
    ([True, 2, 1, "1"], "true"), ([1.0, 2, 1, "1"], "1.0"), ([1, 2, "1", "1"], '"1"'),
])
def test_a_bracket_index_must_be_a_json_integer(tmp_path, capsys, entry, shown):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [entry]}))
    assert main(["verify", "--alg", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: bad algebra schema in {path}: "
                            f"bracket index must be a JSON integer, got {shown}\n")


@pytest.mark.parametrize("entry, shown", [([1, 3, 1, "1"], 3), ([1, 2, 0, "1"], 0), ([-1, 2, 1, "1"], -1)])
def test_a_bracket_index_out_of_range_is_named_as_the_file_writes_it(tmp_path, capsys, entry, shown):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 2, "brackets": [entry]}))
    assert main(["verify", "--alg", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: bad algebra schema in {path}: "
                            f"bracket index {shown} out of range 1..2\n")


@pytest.mark.parametrize("brackets, shown", [
    ([[1, 2, 1, "1", 5]], 'bracket entry 1 must be [i, j, k, "p/q"], got [1, 2, 1, "1", 5]'),
    ([[1, 2]], 'bracket entry 1 must be [i, j, k, "p/q"], got [1, 2]'),
    ([5], 'bracket entry 1 must be [i, j, k, "p/q"], got 5'),
    (5, "brackets must be a JSON list, got 5"),
    (["ab12"], 'bracket entry 1 must be [i, j, k, "p/q"], got "ab12"'),
    ([[1, 2, 1, "1"], [2, 1]], 'bracket entry 2 must be [i, j, k, "p/q"], got [2, 1]'),
], ids=["five-items", "two-items", "an-int", "not-a-list", "a-string", "the-second-entry"])
def test_a_bracket_entry_of_the_wrong_shape_is_named_as_the_file_writes_it(tmp_path, capsys,
                                                                           brackets, shown):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 2, "brackets": brackets}))
    assert main(["verify", "--alg", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: bad algebra schema in {path}: {shown}\n"


@pytest.mark.parametrize("argv", [
    ["singular", "--alg", "heis3", "--mode", "S", "--u", "omega:1", "--chi", "0,0,1"],
    ["derham", "--alg", "heis3", "--pi", "line:0,0,1"],
])
def test_a_trace_form_not_vanishing_on_d_d_is_a_config_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "config error: chi([b_1, b_2]) = 1 != 0\n")


def test_an_algebra_without_brackets_is_abelian(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"dim": 3}))
    reports = []
    for alg in (str(path), "abelian3"):
        code, out = run_cli(["singular", "--alg", alg, "--mode", "S", "--u", "omega:1", "--json"],
                            capsys)
        assert code == 0
        reports.append(json.loads(out))
    assert reports[0]["basis"] == reports[1]["basis"] and reports[0]["sing_dim"] == 7


@pytest.mark.parametrize("argv, size", [
    (["singular", "--alg", "abelian3", "--fil", "100000000000000000000"],
     "C(3 + 100000000000000000000, 3) x 1 ~ 1.66e59"),
    (["verify", "--alg", "sl2", "--trunc", "100000000000"], "C(3 + 100000000000, 3) x 1 ~ 1.66e32"),
    # refused before the Hopf algebra (a cubic Jacobi check) and U are built
    pytest.param(["singular", "--alg", "abelian400"], "C(400 + 6, 400) x 1 ~ 5.99e12",
                 id="singular-abelian400"),
    pytest.param(["singular", "--alg", "abelian30", "--u", "omega:15"],
                 "C(30 + 6, 30) x 155117520 ~ 3.02e14", id="singular-abelian30-omega15"),
    pytest.param(["classify", "--alg", "abelian30", "--u", "omega:15"],
                 "C(30 + 3, 30) x 155117520 ~ 8.46e11", id="classify-abelian30-omega15"),
    # a rank of more than 15 digits is abbreviated as the size is
    pytest.param(["derham", "--alg", "abelian400"], "C(400 + 4, 400) x 2.58e120 ~ 2.82e129",
                 id="derham-abelian400"),
    # refused before Pi is built
    pytest.param(["singular", "--alg", "abelian3", "--pi", "trivial:100000"],
                 "C(3 + 6, 3) x 100000 ~ 8.40e6", id="singular-abelian3-pi-trivial100000"),
    pytest.param(["classify", "--alg", "abelian3", "--pi", "trivial:30000", "--u", "omega:1"],
                 "C(3 + 3, 3) x 90000 ~ 1.80e6", id="classify-abelian3-pi-trivial30000"),
    # a size of 10^18 - 1, whose float logarithm reads 18
    pytest.param(["singular", "--alg", "abelian1", "--pi", "trivial:333333333333333333",
                  "--fil", "0", "--trunc", "2"], "C(1 + 2, 1) x 3.33e17 ~ 9.99e17",
                 id="singular-abelian1-size-below-a-power-of-ten"),
])
def test_a_problem_above_the_size_limit_exits_2_at_once(argv, size):
    # in a child capped at 1.5 GB and 20 s, so that a missing refusal fails
    # with a MemoryError or a timeout instead of filling the machine
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    proc = subprocess.run([sys.executable, "-m", "liepseudo.cli"] + argv, capture_output=True,
                          text=True, timeout=20, preexec_fn=cap)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"config error: problem size C(N + p, N) x rank = {size} "
                           f"exceeds the limit {cli.SIZE_LIMIT}\n")


class _SizeChecked(Exception):
    """Stops a command right after its size check."""


# the dim-4 and dim-5 commands timed in ROADMAP.md that no golden runs
_LARGE_COMMANDS = [
    ["verify", "--alg", "sl2"],
    ["classify", "--alg", "abelian4", "--mode", "W", "--u", "omega:2"],
    ["classify", "--alg", "abelian5", "--mode", "W", "--u", "omega:2"],
    ["classify", "--alg", str(test_golden.GOLDEN / "alg_gl2.json"), "--mode", "S", "--u", "omega:2"],
]


def test_every_golden_and_large_command_is_far_below_the_size_limit(monkeypatch):
    sizes = []

    def check_size(lie, p, rank):
        sizes.append(math.comb(lie.dim + p, lie.dim) * rank)
        raise _SizeChecked

    monkeypatch.setattr(cli, "_check_size", check_size)
    commands = list(test_golden.COMMANDS.values()) + _LARGE_COMMANDS
    for argv in commands:
        with pytest.raises(_SizeChecked):
            main(argv)
    assert len(sizes) == len(commands)
    assert max(sizes) < 1500 and 50 * 1500 < cli.SIZE_LIMIT


def test_the_truncation_default_is_not_read_from_the_environment(monkeypatch):
    monkeypatch.setenv("PSA_TRUNC", "3")
    assert cli._parser().parse_args(["derham", "--alg", "abelian2"]).trunc == DEFAULT_TRUNCATION


def test_singular_at_the_least_truncation_matches_the_default(tmp_path, capsys):
    out = tmp_path / "sing.json"
    code = main(["singular", "--alg", "heis3", "--mode", "S", "--u", "omega:1", "--trunc", "5",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    blob = json.loads(out.read_text())
    default = json.loads((Path(__file__).parent / "golden" / "singular_heis3_S_omega1.json").read_text())
    assert blob["config"]["trunc"] == 5 and default["config"]["trunc"] == 6
    blob["config"]["trunc"] = 6
    assert blob == default


def test_derham_smallest_valid_truncation_checks_filtration_zero(capsys):
    code, out = run_cli(["derham", "--alg", "abelian2", "--trunc", "2", "--json"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["exactness"]["p_max"] == 0
    assert blob["exactness"]["checks"]


def test_verify_registry_order():
    names = [name for name, _ in verify_checks(2)]
    assert len(names) == 12 and not any(name.startswith("s.") for name in names)
    names3 = [name for name, _ in verify_checks(3)]
    at = names.index("w.module-H-axiom") + 1
    assert names3 == names[:at] + ["s.divergence-free[chi=zero]",
                                   "s.divergence-free[chi=tr_ad]"] + names[at:]


# -- fuzzing the command line ------------------------------------------------------

# JSON values where a number, an index or a "p/q" string belongs
_ODD_VALUES = ["x", "1/0", "", 1.5, True, None, [1], {"a": 1}]


def _mostly(good, bad):
    """`good` about three times in four, else `bad`."""
    return st.sampled_from([True, True, True, False]).flatmap(lambda ok: good if ok else bad)


_SMALL_OR_HUGE = _mostly(st.integers(-2, 3), st.integers(10 ** 6, 10 ** 30))


@st.composite
def _matrices(draw, count: int):
    """A Pi or U blob of rank 1-3: `count` square matrices, zero ones (a
    representation) or of drawn entries, at times of the wrong shape, count,
    entry or dim, or with an identity scalar."""
    m = draw(st.integers(1, 3))
    entry = _mostly(st.sampled_from(["0", "1", "-1/2", 2]), st.sampled_from(_ODD_VALUES))
    zero = draw(st.booleans())
    side = _mostly(st.just(m), st.integers(0, 4))
    mats = [[["0" if zero else draw(entry) for _ in range(draw(side))] for _ in range(draw(side))]
            for _ in range(draw(_mostly(st.just(count), st.sampled_from([0, count - 1, count + 1]))))]
    blob = {"dim": draw(_mostly(st.just(m), st.sampled_from([0, -1, "1", 1.0, True]))), "mats": mats}
    if draw(st.sampled_from([False, False, False, True])):
        blob["id_scalar"] = draw(st.sampled_from(["1/2", "0"] + _ODD_VALUES))
    return blob


@st.composite
def _command_lines(draw):
    """(argv, {file name: JSON blob}): a command over a JSON algebra of dim
    1-4, Pi and U of rank at most 3 as specs or JSON files, --fil and
    --trunc at most 3 or at least 10^6, and now and then a bracket, matrix,
    spec or flag that is wrong: an index out of range or not an integer, a
    value that is no rational, a broken antisymmetry or Jacobi identity, a
    flag the command does not read."""
    N = draw(st.integers(1, 4))
    index = _mostly(st.integers(1, N), st.sampled_from([0, N + 1, -1] + _ODD_VALUES))
    coeff = _mostly(st.sampled_from(["1", "-1", "1/2", 2]), st.sampled_from(_ODD_VALUES))
    valid = [[]] + ([[[1, 2, 2, "1"]]] if N >= 2 else []) + ([[[1, 2, 3, "1"]]] if N >= 3 else [])
    brackets = draw(_mostly(st.sampled_from(valid),
                            st.lists(st.tuples(index, index, index, coeff).map(list), max_size=3)))
    dim = draw(_mostly(st.just(N), st.sampled_from([0, -1, "2", 2.0])))
    files = {"alg.json": {"dim": dim, "brackets": brackets}}
    command = draw(st.sampled_from(["verify", "singular", "derham", "classify"]))
    argv = [command, "--alg", "alg.json"]
    if command != "classify":
        argv += ["--trunc", str(draw(_SMALL_OR_HUGE))]
    if command != "verify" and draw(st.booleans()):
        argv += ["--fil", str(draw(_SMALL_OR_HUGE))]
    if command != "verify" and draw(st.booleans()):
        line = ",".join(draw(st.lists(st.sampled_from(["0", "1", "-1/2", "x"]), min_size=N - 1,
                                      max_size=N + 1)))
        pi = draw(st.sampled_from(["trivial", "trivial:2", "trivial:3", "trivial:0", "trivial:x",
                                   "line:" + line, "pi.json"]))
        if pi == "pi.json":
            files[pi] = draw(_matrices(N))
        argv += ["--pi", pi]
    if command in ("singular", "classify"):
        if draw(st.booleans()):
            u = draw(st.sampled_from(["trivial", "trivial:3", "omega:0", f"omega:{N}", "omega:-1",
                                      "omega:x", "u.json"] + (["omega:1"] if N <= 3 else [])
                                     + (["sym2"] if N <= 2 else [])))
            if u == "u.json":
                files[u] = draw(_matrices(N * N))
            argv += ["--u", u]
        argv += ["--mode", draw(st.sampled_from(["W", "S", "w", "s"]))]
        if draw(st.booleans()):
            argv += ["--chi", draw(st.sampled_from(["zero", "tr_ad", ",".join(["1"] * N),
                                                    ",".join(["0"] * N), "1,x", "1/0"]))]
    if draw(st.sampled_from([False] * 9 + [True])):
        argv += draw(st.sampled_from([["--u", "omega:1"], ["--chi", "zero"], ["--mode", "X"],
                                      ["--fil", "x"]]))
    return argv, files


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_command_lines())
def test_the_cli_on_fuzzed_inputs_exits_0_1_or_2_and_refuses_in_one_line(command_line):
    # in-process; a Pi or U of rank above 3 is left to the capped child of
    # test_a_problem_above_the_size_limit_exits_2_at_once
    argv, files = command_line
    with tempfile.TemporaryDirectory() as tmp:
        for name, blob in files.items():
            Path(tmp, name).write_text(json.dumps(blob))
        argv = [str(Path(tmp, a)) if a in files else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    assert code in (0, 1, 2), (argv, files, err.getvalue())
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1, err.getvalue()
