"""One fresh interpreter of the benchmark: a set-up probe, a CLI run, or a sweep worker.

    python3 perfbench/child.py probe --record OUT
    python3 perfbench/child.py cli --record OUT [--trace] -- VERIFY-ARGS...
    python3 perfbench/child.py worker --record OUT --workload W --seed N [--quick]

Times are CPU times of this process (user + system), so that other
processes on the machine do not show in them. The record's
`setup_cpu` is the CPU time from process start until `import cf_lattice` and
`cf_lattice.cli` complete. While it works, the child also times a fixed
reference loop: around the import, and (`Speedometer`) around each check
and every 0.2 s of CPU time in between. Each measurement carries the mean
reference time over its stretch, so that the parent can take out the
machine's speed of the moment; the reference loop's own CPU time is left out
of every measurement. cf_lattice is always imported from the `src` directory
next to this benchmark.

The sweep worker is a closed loop driven by its parent: it reads one JSON
command per line on stdin (`{"pass": K, "trace": false}`), runs the calls of
that pass, pickles their results to a file for the parent to judge, and
answers with one JSON line on stdout, with its peak RSS so far. It never
imports the oracles' sympy, so that RSS is cf_lattice's doing the work. An
empty line or end of input ends it; it then writes its record.
"""
import sys
import time
from fractions import Fraction     # imported by cf_lattice too
from pathlib import Path

REFERENCE_REPS = 5
# The CPU clock of measurements: the thread's, because an armed ITIMER_PROF
# makes the process CPU clock advance in scheduler ticks (4 ms). The
# benchmark's children run one thread.
cpu_clock = time.thread_time
SAMPLE_EVERY_S = 0.2       # CPU time between two reference samples (SIGPROF)


def _reference_work() -> int:
    """Fixed pure-Python work of the kinds cf_lattice does: Fraction and small-int rows."""
    acc = Fraction(0)
    rows = [[(3 * i + 5 * j) % 11 - 5 for j in range(8)] for i in range(8)]
    for k in range(600):
        acc += Fraction(k % 13 - 6, k % 17 + 1)
        a, b = rows[k % 8], rows[(k + 3) % 8]
        rows[(k + 1) % 8] = [(x * 3 - y) % 101 - 50 for x, y in zip(a, b)]
    table = {tuple(r): sum(r) for r in rows}
    return acc.numerator % 97 + len(sorted(table.items()))


def reference_cpu() -> float:
    """Median CPU time of one run of the reference loop, just now."""
    _reference_work()
    times = []
    for _ in range(REFERENCE_REPS):
        start = cpu_clock()
        _reference_work()
        times.append(cpu_clock() - start)
    return sorted(times)[REFERENCE_REPS // 2]


# A set-up probe brackets the import with reference samples and leaves
# their CPU time out of the set-up time.
SETUP_REFS, SETUP_REF_CPU = [], 0.0
if __name__ == "__main__" and sys.argv[1:2] == ["probe"]:
    SETUP_REF_CPU = time.process_time()
    SETUP_REFS.append(reference_cpu())
    SETUP_REF_CPU = time.process_time() - SETUP_REF_CPU

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cf_lattice  # noqa: E402
import cf_lattice.cli  # noqa: E402

SETUP_CPU = time.process_time() - SETUP_REF_CPU   # no timer armed yet

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

# Per-call budget of a timed sweep call: far above the slowest input of the
# timed set, so that only a call that runs away is stopped (and counted as a
# failure). Probes (see sweeps.py) get a short budget instead: at this
# commit a Smith normal form of those inputs either ends within tens of
# milliseconds or runs without bound.
CALL_BUDGET_S = 5.0
PROBE_BUDGET_S = 0.25


class Speedometer:
    """Reference-loop samples taken on demand and every SAMPLE_EVERY_S of CPU time.

    Times are read on the work clock: process CPU time minus the CPU time
    spent in the reference loop, so a measurement leaves the samples out.
    """

    def __init__(self):
        self.spent = 0.0
        self._busy = False
        self.samples: list[tuple[float, float]] = []    # (work clock, reference time)

    def clock(self) -> float:
        return cpu_clock() - self.spent

    def sample(self, *_signal_args) -> None:
        if self._busy:           # SIGPROF during a sample
            return
        self._busy = True
        start = cpu_clock()
        at = start - self.spent
        try:
            ref = reference_cpu()
        finally:
            self.spent += cpu_clock() - start
            self._busy = False
        self.samples.append((at, ref))

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.sample()

    def reference(self, start: float, end: float) -> float:
        """Mean reference time over [start, end] of the work clock, with the samples around it."""
        inside = [r for t, r in self.samples if start <= t <= end]
        before = [r for t, r in self.samples if t < start][-1:]
        after = [r for t, r in self.samples if t > end][:1]
        return statistics.mean(before + inside + after)


class OverBudget(BaseException):
    """Raised from SIGALRM when a sweep call runs past its budget.

    A BaseException, so that no `except Exception` in the code under test
    can swallow it.
    """


def _alarm(signum, frame):
    raise OverBudget()


def timed_call(fn, args, budget: float):
    """(status, value): status is "ok", "over_budget" or "error" (value = exception)."""
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            value = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        return "over_budget", None
    except Exception as exc:   # judged by the case's oracle
        return "error", exc
    return "ok", value


def resolve(kind: str):
    module, _, name = kind.partition(".")
    return getattr(importlib.import_module(f"cf_lattice.{module}"), name)


def time_cases(cases, budget: float = CALL_BUDGET_S, probes: bool = True):
    """Run every case under its budget; one (cpu_s, status, value, ref_s) per case.

    `ref_s` is the mean reference time over the call (see Speedometer).
    Probes run only when `probes` is true; otherwise they read "skipped".
    """
    from sweeps import From

    previous = signal.signal(signal.SIGALRM, _alarm)
    fns = [resolve(case.kind) for case in cases]
    outcomes, spans = [], []
    try:
        with Speedometer() as speed:
            for case, fn in zip(cases, fns):
                deps = [a.index for a in case.args if isinstance(a, From)]
                if (case.probe and not probes) or any(outcomes[i][1] != "ok" for i in deps):
                    outcomes.append((0.0, "skipped", None))
                    spans.append(None)
                    continue
                args = tuple(outcomes[a.index][2] if isinstance(a, From) else a
                             for a in case.args)
                start = speed.clock()
                status, value = timed_call(fn, args, PROBE_BUDGET_S if case.probe else budget)
                spans.append((start, speed.clock()))
                outcomes.append((spans[-1][1] - start, status, value))
    finally:
        signal.signal(signal.SIGALRM, previous)
    return [o + (speed.reference(*span) if span else 0.0,) for o, span in zip(outcomes, spans)]


def judge(cases, outcomes):
    """[kind, cpu_s, status, reason, probe, ref_s] per case.

    status: ok, wrong, error, over_budget or skipped. Runs in the parent, so
    the oracles' sympy never enters the worker.
    """
    from sweeps import Mismatch

    calls = []
    for case, (cpu, status, value, ref) in zip(cases, outcomes):
        reason = ""
        try:
            if status == "ok":
                case.check(value)
            elif status == "error":
                if case.check_error is None:
                    raise Mismatch(f"{type(value).__name__}: {value}")
                case.check_error(value)
                status = "ok"
        except Exception as exc:   # a wrong answer, or an answer the oracle cannot read
            status = "wrong" if status == "ok" else "error"
            reason = f"{case.meta}: {type(exc).__name__}: {exc}"[:300]
        calls.append([case.kind, cpu, status, reason, case.probe, ref])
    return calls


def portable(outcomes):
    """Outcomes that pickle: a value that does not is replaced by an error."""
    out = []
    for cpu, status, value, ref in outcomes:
        try:
            pickle.dumps(value)
        except Exception as exc:
            status, value = "error", RuntimeError(f"result does not pickle: {exc}")
        out.append((cpu, status, value, ref))
    return out


def worker(args, record) -> int:
    import sweeps
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    out_dir = Path(args.record).parent
    for line in sys.stdin:
        if not line.strip():
            break
        cmd = json.loads(line)
        cases = sweeps.SWEEPS[args.workload](args.seed, cmd["pass"], args.quick)
        traced = bool(cmd.get("trace"))
        if traced:
            tracer.install()
        try:
            outcomes = time_cases(cases, probes=traced)
        finally:
            if traced:
                tracer.uninstall()
        path = out_dir / f"pass-{args.seed}-{cmd['pass']}-{int(traced)}.pickle"
        with open(path, "wb") as fh:
            pickle.dump(portable(outcomes), fh)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"file": str(path), "rss_kb": rss_kb}), flush=True)
    if tracer is not None:
        record.update(totals=tracer.totals(), missing=tracer.missing, spans=tracer.spans)
    return 0


def cli(args, cli_args, record) -> int:
    """`cf-lattice VERIFY-ARGS` in this process, with each check's CPU time recorded.

    The reference loop is sampled after every check and every SAMPLE_EVERY_S
    of CPU time; its CPU time is left out of the record's `cpu`.
    """
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()     # first, so that spans leave the reference loop out
    checks = importlib.import_module("cf_lattice.checks")
    run_check = checks.run_check
    spans = []                 # (check id, start, end) on the work clock
    speed = Speedometer()

    def timed_run_check(check_id, *rest, **kwargs):
        start = speed.clock()
        try:
            return run_check(check_id, *rest, **kwargs)
        finally:
            spans.append((check_id, start, speed.clock()))
            speed.sample()

    checks.run_check = timed_run_check
    try:
        with speed:
            start = speed.clock()
            try:
                code = cf_lattice.cli.main(cli_args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            end = speed.clock()
    finally:
        checks.run_check = run_check
        if tracer is not None:
            tracer.uninstall()
    sys.stdout.flush()
    record.update(cpu=end - start, exit_code=code, ref=speed.reference(start, end),
                  check_cpu=[[cid, b - a, speed.reference(a, b)] for cid, a, b in spans],
                  rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        record.update(totals=tracer.totals(), missing=tracer.missing, spans=tracer.spans)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "cli", "worker"))
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--quick", action="store_true")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    src = (ROOT / "src").resolve()
    if src not in Path(cf_lattice.__file__).resolve().parents:
        print(f"cf_lattice was imported from {cf_lattice.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    record = {"setup_cpu": SETUP_CPU}
    code = 0
    if args.mode == "probe":
        record["ref"] = statistics.mean(SETUP_REFS + [reference_cpu()])
    elif args.mode == "cli":
        code = cli(args, cli_args, record)
    elif args.mode == "worker":
        code = worker(args, record)
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
