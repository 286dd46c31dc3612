"""Benchmark of the liepseudo CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 28 --trace 0

Runs whole rounds of the workload's CLI commands (see workloads.py), at
least two, and more while the next round should end within --seconds.  Every command runs in a fresh
interpreter, one at a time, as a CLI user runs it, so no cache carries over
from one command to the next.  Every report is checked against the paper
(checks.py), must be byte-identical across rounds, and must be rejected by
its checker once mutated.

--trace 0 prints the end-to-end metrics:
  wall_s       sum over the round's commands of each command's median time
               from the call into the CLI entry point until its report is
               written (interpreter start and import excluded);
  setup_s      median time of a fresh interpreter's `import liepseudo.cli`;
  peak_rss_mb  largest peak RSS of any command process.
Both times are given at the reference host speed: each measured time is
multiplied by SAMPLE_REF_S over the mean of the host-speed samples that
child.SpeedProbe took next to it (during and after a command, after an
import).  A shared host can change speed by up to 2x for seconds to minutes
at a time (README, "Reference host speed"), and this keeps those swings out
of the figures; the measured times go to standard error.
--trace 1 reruns the same rounds with tracer.py installed in every command
process and prints the per-layer metrics, each the median over rounds of
its value summed over one round's commands.

The last line of standard output is one JSON object: correct, attempted
(commands run), failed (commands that exited nonzero) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_PROBES = 5
# A child.SpeedProbe sample on the reference host (README) at full speed.
# Times are reported as that host at full speed would take them.
SAMPLE_REF_S = 0.0015
MIN_ROUNDS = 2
DEADLINE_S = 165  # no command may still run this long after start

PER_LAYER = (
    "dualx.act_right.calls", "dualx.act_right.self_s",
    "dualx.act_left.calls", "dualx.act_left.self_s",
    "annih.ann_bracket.calls", "annih.ann_bracket.self_s",
    "annih.gamma.self_s", "annih.euler_element.self_s",
    "annih.ann_action.calls", "annih.ann_action.self_s",
    "hopf.mul.calls", "hopf.mul.self_s",
    "hopf.mono_mul.calls", "hopf.mono_mul.hit_ratio", "hopf.memo_entries",
    "liecore.validate.calls", "liecore.validate.self_s",
    "derham.pseudo_d.calls", "derham.d_images.calls", "derham.d_images.self_s",
    "derham.exactness_report.self_s", "derham.dw2_lhs_rhs.self_s",
    "derham.classify_report.self_s", "derham.sing_fingerprint.self_s",
    "modules.tensor_module.calls", "modules.tensor_module.self_s",
    "modules.twist_map.self_s",
    "modules.action_pv.calls", "modules.action_pv.self_s",
    "modules.sing_solve.self_s", "modules.sing_solve_oracle.self_s",
    "modules.w_star.calls", "modules.w_star.self_s", "modules.submodule_closure.self_s",
    "modules.hmul.calls", "modules.hmul.self_s",
    "twosided.from_tensor.calls", "twosided.from_tensor.self_s",
    "twosided.convert.calls", "twosided.convert.self_s",
    "pseudoalg.bracket.calls", "pseudoalg.bracket.self_s",
    "linalg.reducer_add.calls", "linalg.reducer_add.self_s",
    "linalg.reducer_add.useful_ratio",
    "linalg.nullspace.rows", "linalg.nullspace.cols", "linalg.nullspace.self_s",
    "cli.emit.self_s",
)
UNITS = {"self_s": "s", "hit_ratio": "ratio", "useful_ratio": "ratio"}


def unit_of(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "count")


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def run_child(mode: str, result: Path, cli_args: list[str], started: float,
              spans: Path | None = None) -> dict:
    """Run child.py in a fresh interpreter; its result, or rc None if it died."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PSA_TRUNC", None)  # would override the commands' --trunc default
    argv = [sys.executable, str(HERE / "child.py"), str(result), mode]
    argv += [str(spans)] if spans else []
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    try:
        proc = subprocess.run(argv + ["--"] + cli_args, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": f"timed out after {timeout:.0f} s"}
    if not result.is_file():
        return {"rc": None, "error": proc.stderr.strip()[-2000:]}
    out = json.loads(result.read_text())
    if not Path(out["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"liepseudo was imported from {out['module']}, not from {SRC}")
    if out.get("rc"):
        out["error"] = proc.stderr.strip()[-2000:]
    return out


def at_ref_speed(seconds: float, samples: list[float]) -> float:
    """`seconds` measured while the host's speed samples took `samples`, at reference speed."""
    return seconds * SAMPLE_REF_S / statistics.fmean(samples)


def round_totals(round_results: list[dict]) -> dict:
    """Per-target stats summed over one round's commands (memo entries: max)."""
    total: dict[str, dict] = {}
    for res in round_results:
        for target, stats in res["layers"].items():
            acc = total.setdefault(target, {})
            for stat, v in stats.items():
                acc[stat] = max(acc.get(stat, 0), v) if target == "hopf.memo" else acc.get(stat, 0) + v
    return total


def layer_metrics(total: dict) -> dict:
    """The PER_LAYER values of one round's totals."""
    values = {}
    for name in PER_LAYER:
        target, stat = name.rsplit(".", 1)
        if name == "hopf.memo_entries":
            values[name] = total["hopf.memo"]["entries"]
        elif stat == "hit_ratio":
            values[name] = total[target]["hits"] / max(1, total[target]["calls"])
        elif stat == "useful_ratio":
            values[name] = total[target]["useful"] / max(1, total[target]["calls"])
        else:
            values[name] = total[target][stat]
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not (SRC / "liepseudo" / "cli.py").is_file():
        raise BenchError(f"no liepseudo sources under {SRC}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    commands = workloads.build(args.workload, args.seed, WORK)
    mode = "trace" if args.trace else "plain"

    imports = []
    for p in range(SETUP_PROBES):
        probe = run_child("import", WORK / f"probe{p}.json", [], started)
        if "import_s" not in probe:
            raise BenchError(f"import of liepseudo.cli failed: {probe.get('error')}")
        imports.append(probe)

    # Whole rounds only: another round starts if it should end within
    # --seconds by the mean round time so far.
    rounds: list[list[dict]] = []
    t0 = time.perf_counter()
    while (len(rounds) < MIN_ROUNDS or (time.perf_counter() - t0) * (len(rounds) + 1)
           / len(rounds) <= args.seconds):
        results = []
        for i, cmd in enumerate(commands):
            report = WORK / f"report_r{len(rounds)}_c{i}.json"
            spans = WORK / f"spans_r{len(rounds)}_c{i}.jsonl" if args.trace else None
            res = run_child(mode, WORK / f"result_r{len(rounds)}_c{i}.json",
                            cmd.argv + ["--out", str(report)], started, spans)
            res["report"] = report
            results.append(res)
        rounds.append(results)

    attempted = failed = 0
    problems = []
    for i, cmd in enumerate(commands):
        runs = [r[i] for r in rounds]
        ok_runs = [res for res in runs if res.get("rc") == 0]
        attempted += len(runs)
        failed += len(runs) - len(ok_runs)
        for res in runs:
            if res.get("rc") != 0:
                print(f"FAILED {cmd.label}: exit {res.get('rc')}: {res.get('error')}",
                      file=sys.stderr)
        if not ok_runs:
            continue
        texts = [res["report"].read_bytes() for res in ok_runs]
        if any(t != texts[0] for t in texts):
            problems.append(f"{cmd.label}: reports differ between rounds")
        report = json.loads(texts[0])
        problems += [f"{cmd.label}: {p}" for p in checks.check(cmd.expect, report)]
        problems += [f"{cmd.label}: self-test mutation not rejected: {m}"
                     for m in checks.self_test(cmd.expect, report)]
        imports += [res for res in runs if "import_s" in res]
    for p in problems:
        print(f"CHECK {p}", file=sys.stderr)

    ok_rounds = [r for r in rounds if all(res.get("rc") == 0 for res in r)]
    per_command = [[res for res in col if res.get("rc") == 0] for col in zip(*rounds)]
    raw_s = sum(statistics.median(r["wall_s"] for r in col) for col in per_command if col)
    wall_s = sum(statistics.median(at_ref_speed(r["wall_s"], r["samples"]) for r in col)
                 for col in per_command if col)
    speed = [SAMPLE_REF_S / statistics.fmean(res["samples"]) for col in per_command for res in col]
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{'traced' if args.trace else 'untraced'} wall_s {wall_s:.4f} "
          f"(measured {raw_s:.4f})", file=sys.stderr)
    if speed:
        print(f"  host speed per command process: min {min(speed):.2f}, "
              f"median {statistics.median(speed):.2f}, max {max(speed):.2f}", file=sys.stderr)
    for cmd, col in zip(commands, per_command):
        if col:
            w = [r["wall_s"] for r in col]
            print(f"  {statistics.median(w):8.4f} s  (min {min(w):.4f}, max {max(w):.4f})  "
                  f"{cmd.label}", file=sys.stderr)

    if args.trace:
        if not ok_rounds:
            raise BenchError("no round completed without a failed command")
        totals = [round_totals(r) for r in ok_rounds]
        per_round = [layer_metrics(t) for t in totals]
        values = {}
        for name in PER_LAYER:
            # a count stays a count: take a measured value, not a mean of two
            median = statistics.median_low if unit_of(name) == "count" else statistics.median
            values[name] = median(v[name] for v in per_round)
        for target in workloads.REQUIRED_CALLS[args.workload]:
            if not totals[0][target]["calls"]:
                raise BenchError(f"traced layer {target} has no calls on {args.workload}; "
                                 f"its wrapper missed")
        for name in PER_LAYER:
            if name.endswith(".self_s") and raw_s:
                print(f"  {100 * values[name] / raw_s:5.1f}%  {values[name]:9.4f} s  {name}",
                      file=sys.stderr)
        metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}
    else:
        rss = [res["rss_kb"] for r in rounds for res in r if "rss_kb" in res]
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(
                at_ref_speed(p["import_s"], p["import_samples"]) for p in imports), "unit": "s"},
            "peak_rss_mb": {"value": max(rss, default=0) / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
