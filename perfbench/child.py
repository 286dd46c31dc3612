"""Run one liepseudo CLI command in this fresh interpreter and record its cost.

    python3 perfbench/child.py RESULT_JSON MODE [SPANS_JSONL] -- CLI ARGS...

MODE is `import` (time the import of liepseudo.cli and stop), `plain` (run
the command) or `trace` (run it with the per-layer tracer installed, and
write the kept spans to SPANS_JSONL).  The result file records the import
time, the time from the call into the CLI entry point until it returns
(after the report is written), the exit code, the peak RSS of this process,
and the times of the host-speed samples taken around the import and during
the command (`SpeedProbe`).  run.py sets PYTHONPATH so that `liepseudo`
comes from the checkout's src/.
"""

import json
import resource
import signal
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext

SAMPLE_EVERY_S = 0.05  # wall time between host-speed samples during a command
BRACKET_SAMPLES = 5  # host-speed samples right after the import and after the command


class SpeedProbe:
    """Samples how fast the host runs pure Python at this moment.

    A sample times one unit of fixed work: it multiplies two small sparse
    polynomials with `Fraction` coefficients held in dicts, as `hopf.mul`
    does, and fills a dict of tuple keys, as the module and linear-algebra
    layers do.  It uses none of liepseudo's code, so a change to the program
    does not change the work.
    """

    def __init__(self) -> None:
        from fractions import Fraction  # already loaded by the timed import

        self.a = {(i, j): Fraction(7 * i + 1, 3 * j + 2) for i in range(5) for j in range(4)}
        self.b = {(i, j): Fraction(j - 3, i + 5) for i in range(4) for j in range(5)}
        self.samples: list[float] = []

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        prod = {}
        for (a1, a2), x in self.a.items():
            for (b1, b2), y in self.b.items():
                key = (a1 + b1, a2 + b2)
                prod[key] = prod.get(key, 0) + x * y
        table = {}
        for i in range(800):
            table[(i % 97, i // 97)] = [i, str(i)]
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def during(self):
        """Take a sample every SAMPLE_EVERY_S of wall time, from SIGALRM."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def peak_rss_kb() -> int:
    """Peak RSS of this process since it started running child.py.

    `ru_maxrss` is no use here: Linux carries it over from the process that
    forked this one, so it would report the parent runner's RSS whenever
    that is larger.  VmHWM belongs to the address space made by exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    sep = sys.argv.index("--")
    result_path, mode, *extra = sys.argv[1:sep]
    cli_args = sys.argv[sep + 1:]

    t0 = time.perf_counter()
    import liepseudo.cli as cli
    result = {"import_s": time.perf_counter() - t0, "module": cli.__file__}
    probe = SpeedProbe()
    for _ in range(BRACKET_SAMPLES):
        probe.sample()
    result["import_samples"] = list(probe.samples)

    if mode != "import":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        # traced spans must not contain samples, so the traced run takes none
        sampling = probe.during() if tracer is None else nullcontext()
        before = len(probe.samples)
        t0 = time.perf_counter()
        try:
            with sampling:
                rc = cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error exits 1, as the installed CLI would
            traceback.print_exc()
            rc = 1
        result["wall_s"] = time.perf_counter() - t0 - sum(probe.samples[before:])
        result["rc"] = rc
        result["rss_kb"] = peak_rss_kb()
        for _ in range(BRACKET_SAMPLES):
            probe.sample()
        result["samples"] = probe.samples
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.write_spans(extra[0])

    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
