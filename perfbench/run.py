"""cf-lattice benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds as a closed loop with one client: one
child process at a time, no threads. cf_lattice is imported from the `src`
directory of this checkout. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 its
per-layer metrics. A human summary goes to standard error.

Times are CPU times (user + system) of the child doing the work, so that
other processes on a shared machine do not show in them, scaled by a fixed
reference loop timed next to them (REFERENCE_NOMINAL_S). The unscaled CPU
times and the wall times are printed on standard error.

Workloads (see README.md for why each exists):
  verify-cold    `cf-lattice verify --output json`, each pass in a fresh interpreter
  lattice-sweep  lattice and integer-matrix kernels on seeded inputs, in one worker
  rep-sweep      plethysm and spectra on seeded inputs, in one worker
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import select
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("verify-cold", "lattice-sweep", "rep-sweep")
DEADLINE_S = 150.0        # a run stops starting work after this, well inside 180 s
PROCESS_BUDGET_S = 90.0   # one verify process, or one sweep pass of the worker
SETUP_SAMPLES = 9
# The sweep worker's peak RSS is read after this many passes: it grows with
# every pass (cf_lattice caches short vectors per Gram matrix), so a reading
# at the end of the run would depend on how many passes fitted in it.
RSS_AFTER_PASSES = 3
# CPU time of one run of child.reference_cpu's loop that the reported times
# are scaled to: a time t measured next to a reference time r is reported as
# t * REFERENCE_NOMINAL_S / r, which takes out the machine's speed of the
# moment (it drifts by a quarter over tens of seconds on a shared host).
REFERENCE_NOMINAL_S = 0.002
QUICK_CHECKS = ("boundary-matching", "plethysm-omega", "spectra-catalog")


class Run:
    """Everything one benchmark run measures; one instance per run."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, quick: bool):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.quick = trace, quick
        self.start = time.monotonic()
        self.attempted = 0
        self.failures: Counter = Counter()     # (kind, status) -> count
        self.incorrect: list[str] = []
        self.setup_cpu: list[float] = []       # scaled, as every *_cpu below
        self.raw_setup_cpu: list[float] = []
        self.raw_pass_cpu: list[float] = []    # untraced, not scaled
        self.setup_wall: list[float] = []
        self.rss_kb: list[int] = []
        self.pass_cpu = {False: [], True: []}  # CPU time of one pass, by traced
        self.pass_wall: list[float] = []       # untraced passes
        self.call_cpu: list[float] = []        # untraced operations
        self.check_cpu: dict[str, list[float]] = {}
        self.cycles: list[float] = []          # wall time of one loop iteration
        self.totals: Counter = Counter()
        self.traced_passes = 0
        self.probes_over_budget = 0
        self.missing: set[str] = set()
        self.spans: list[list] = []
        self.digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self._serial = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def more(self) -> bool:
        """Start another loop iteration only if it should end within --seconds."""
        if not self.cycles:
            return True
        end = self.elapsed() + statistics.median(self.cycles)
        return end <= min(self.seconds, DEADLINE_S)

    def fail(self, kind: str, status: str, n: int = 1) -> None:
        self.failures[(kind, status)] += n

    def absorb_record(self, record: dict, process: int) -> None:
        if "rss_kb" in record:
            self.rss_kb.append(record["rss_kb"])
        self.totals.update(record.get("totals", {}))
        self.missing.update(record.get("missing", []))
        self.spans += [[process] + s for s in record.get("spans", [])]

    def record_path(self) -> Path:
        self._serial += 1
        return OUT / f"record-{os.getpid()}-{self._serial}.json"

    # -- short-lived children -------------------------------------------------------

    def spawn(self, mode: str, *args: str, traced: bool = False) -> "Proc":
        """Start one child and wait for it, killing it when it runs past its budget."""
        record_path = self.record_path()
        cmd = [sys.executable, str(CHILD), mode, "--record", str(record_path)]
        if traced:
            cmd.append("--trace")
        cmd += args
        budget = min(PROCESS_BUDGET_S, max(1.0, DEADLINE_S - self.elapsed()))
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=budget)
            over_budget = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            over_budget = True
        done = Proc(seconds=time.monotonic() - t0, stdout=out, code=proc.returncode,
                    over_budget=over_budget)
        if record_path.exists():
            done.record = json.loads(record_path.read_text(encoding="utf-8"))
            record_path.unlink()
        elif err:
            print(err.decode(errors="replace")[-2000:], file=sys.stderr)
        return done

    def probe(self, measured: bool = True) -> None:
        """One fresh interpreter that only imports cf_lattice: a set-up sample."""
        done = self.spawn("probe")
        if done.record is None:
            raise SystemExit(f"set-up probe exited with {done.code}")
        if measured:
            scale = REFERENCE_NOMINAL_S / done.record["ref"]
            self.setup_cpu.append(done.record["setup_cpu"] * scale)
            self.raw_setup_cpu.append(done.record["setup_cpu"])
            self.setup_wall.append(done.seconds)

    # -- verify-cold ----------------------------------------------------------------

    def cli_pass(self, traced: bool) -> None:
        ids = list(QUICK_CHECKS if self.quick else self.digests)
        selected = ids if self.quick else []
        done = self.spawn("cli", "--", "verify", *selected, "--output", "json", traced=traced)
        self.judge_reports(ids, done)
        record = done.record
        if record is None:
            return
        self.absorb_record(record, self._serial)
        # each check scaled by the reference samples around it, the rest by their mean
        checks = [(cid, cpu * REFERENCE_NOMINAL_S / ref) for cid, cpu, ref in record["check_cpu"]]
        rest = record["cpu"] - sum(c[1] for c in record["check_cpu"])
        self.pass_cpu[traced].append(sum(c[1] for c in checks)
                                     + rest * REFERENCE_NOMINAL_S / record["ref"])
        if not traced:
            self.raw_pass_cpu.append(record["cpu"])
            self.pass_wall.append(done.seconds)
            for cid, cpu in checks:
                self.call_cpu.append(cpu)
                self.check_cpu.setdefault(cid, []).append(cpu)

    def judge_reports(self, ids, done: "Proc") -> None:
        """Each report must pass and match its stored digest (elapsed_ms removed)."""
        self.attempted += len(ids)
        if done.over_budget:
            self.fail("verify", "over_budget", len(ids))
            return
        if done.record is None:
            self.fail("verify", "error", len(ids))
            self.incorrect.append(f"verify {ids} exited with {done.code} and no record")
            return
        try:
            reports = {r["check"]: r for r in json.loads(done.stdout)}
        except (ValueError, TypeError, KeyError) as exc:
            self.fail("verify", "wrong", len(ids))
            self.incorrect.append(f"unreadable verify output: {exc}")
            return
        for cid in ids:
            rep = reports.get(cid)
            if rep is None:
                problem = "missing report"
            elif rep.get("status") != "pass":
                problem = f"status {rep.get('status')}"
            elif report_digest(rep) != self.digests.get(cid):
                problem = "report differs from the stored digest"
            else:
                continue
            self.fail(f"checks.{cid}", "wrong")
            self.incorrect.append(f"{cid}: {problem}")
        if done.record.get("exit_code") != 0 or set(reports) != set(ids):
            self.incorrect.append(f"verify exit code {done.record.get('exit_code')}, "
                                  f"reports for {sorted(reports)}")

    # -- sweeps ---------------------------------------------------------------------

    def sweep(self) -> None:
        """One worker process for the whole run; this process judges every pass."""
        record_path = self.record_path()
        cmd = [sys.executable, str(CHILD), "worker", "--record", str(record_path),
               "--workload", self.workload, "--seed", str(self.seed)]
        if self.trace:
            cmd.append("--trace")
        if self.quick:
            cmd.append("--quick")
        err_path = OUT / f"worker-{os.getpid()}.err"
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE, stderr=err)
        try:
            # every pass gets its own inputs, traced ones too: the worker lives on,
            # and a repeated input would hit cf_lattice's caches
            index = 0
            while self.more():
                t0 = time.monotonic()
                for traced in (False, True) if self.trace else (False,):
                    if not self.sweep_pass(proc, index, traced):
                        return
                    index += 1
                self.cycles.append(time.monotonic() - t0)
            proc.stdin.close()
            proc.wait(timeout=max(5.0, DEADLINE_S - self.elapsed()))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            if record_path.exists():
                self.absorb_record(json.loads(record_path.read_text(encoding="utf-8")), 0)
                record_path.unlink()
            text = err_path.read_text(errors="replace")
            if proc.returncode:
                print(text[-2000:], file=sys.stderr)
            err_path.unlink()

    def sweep_pass(self, proc, index: int, traced: bool) -> bool:
        """Run pass `index` in the worker and judge it; False when the worker is lost."""
        import sweeps
        from child import judge

        proc.stdin.write((json.dumps({"pass": index, "trace": traced}) + "\n").encode())
        proc.stdin.flush()
        t0 = time.monotonic()
        budget = min(PROCESS_BUDGET_S, max(1.0, DEADLINE_S - self.elapsed()))
        ready, _, _ = select.select([proc.stdout], [], [], budget)
        line = proc.stdout.readline() if ready else b""
        if not line:
            self.attempted += 1
            status = "over_budget" if not ready else "error"
            self.fail(self.workload, status)
            if ready:
                self.incorrect.append(f"sweep worker died in pass {index}")
            return False
        wall = time.monotonic() - t0
        reply = json.loads(line)
        if index < RSS_AFTER_PASSES:
            self.rss_kb[:] = [reply["rss_kb"]]
        path = Path(reply["file"])
        with open(path, "rb") as fh:
            outcomes = pickle.load(fh)
        path.unlink()
        cases = sweeps.SWEEPS[self.workload](self.seed, index, self.quick)
        work = raw = 0.0
        for kind, cpu, status, reason, probe, ref in judge(cases, outcomes):
            if status == "skipped":
                continue
            if probe and status == "over_budget":
                self.probes_over_budget += 1
                continue
            self.attempted += 1
            if status != "ok":
                self.fail(kind, status)
            if status in ("wrong", "error"):
                self.incorrect.append(f"{kind}: {reason}")
            if not probe:
                raw += cpu
                work += cpu * REFERENCE_NOMINAL_S / ref
                if not traced and status == "ok":
                    self.call_cpu.append(cpu * REFERENCE_NOMINAL_S / ref)
        self.pass_cpu[traced].append(work)
        if traced:
            self.traced_passes += 1
        else:
            self.raw_pass_cpu.append(raw)
            self.pass_wall.append(wall)
        return True

    # -- run loop -------------------------------------------------------------------

    def execute(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.probe(measured=False)       # writes bytecode caches
        for _ in range(SETUP_SAMPLES):
            self.probe()
        if self.workload != "verify-cold":
            self.sweep()
            return
        while self.more():
            t0 = time.monotonic()
            for traced in (False, True) if self.trace else (False,):
                self.cli_pass(traced)
                self.traced_passes += traced
            self.cycles.append(time.monotonic() - t0)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.setup_cpu),
            "cpu_s": statistics.median(self.pass_cpu[False]),
            "peak_rss_mb": max(self.rss_kb) / 1024,
            "call_p50_ms": 1000 * percentile(self.call_cpu, 50),
            "call_p90_ms": 1000 * percentile(self.call_cpu, 90),
        }

    def per_layer(self) -> dict[str, float]:
        from tracer import derive
        out = derive(self.totals, max(1, self.traced_passes))
        for cid in self.digests:
            cpu = self.check_cpu.get(cid)
            out[f"checks.{cid}.cpu_s"] = statistics.median(cpu) if cpu else 0.0
        untraced, traced = self.pass_cpu[False], self.pass_cpu[True]
        out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(untraced)
                                       if traced and untraced else 0.0)
        return out

    def write_spans(self) -> Path:
        path = OUT / f"spans-{self.workload}-seed{self.seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["process", "name", "start", "end", "parent", "error"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return path


@dataclass
class Proc:
    """One finished child process."""

    seconds: float
    stdout: bytes
    code: int
    over_budget: bool
    record: dict | None = None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def result(run: Run) -> dict:
    group = "per_layer" if run.trace else "end_to_end"
    values = run.per_layer() if run.trace else run.end_to_end()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec()[group]}
    return {"correct": not run.incorrect, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def summary(run: Run) -> str:
    def med(values):
        return statistics.median(values) if values else float("nan")

    lines = [f"workload {run.workload}, seed {run.seed}, {run.elapsed():.1f} s; "
             f"nproc {os.cpu_count()}, Python {platform.python_version()}; "
             "per-process timing only (CPU time of the child doing the work), "
             "no system-wide tracing; cold = fresh interpreter over a warm OS page cache",
             f"fail_ratio {run.failed / max(1, run.attempted):.4f} "
             f"({run.failed} failed of {run.attempted} attempted)",
             f"samples: {len(run.pass_cpu[False])} untraced passes, {run.traced_passes} traced, "
             f"{len(run.call_cpu)} timed operations, {len(run.setup_cpu)} set-ups",
             f"as measured, before scaling to the reference loop (medians): set-up "
             f"{med(run.raw_setup_cpu):.4f} s CPU, {med(run.setup_wall):.4f} s wall; pass "
             f"{med(run.raw_pass_cpu):.4f} s CPU, {med(run.pass_wall):.4f} s wall"]
    if run.probes_over_budget:
        lines.append(f"  {run.probes_over_budget} Smith normal form probes ran out of budget "
                     "(not failures; see README.md)")
    lines += [f"  failed {n} x {kind} ({status})" for (kind, status), n in sorted(run.failures.items())]
    lines += [f"  incorrect: {text}" for text in run.incorrect[:20]]
    if run.missing:
        lines.append(f"  traced names missing from cf_lattice: {', '.join(sorted(run.missing))}")
    return "\n".join(lines)


def write_digests() -> None:
    """Store the report digests of a fresh `cf-lattice verify` (after an intended change)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-m", "cf_lattice.cli", "verify", "--output", "json"],
                         cwd=ROOT, env=env, capture_output=True, check=True).stdout
    reports = json.loads(out)
    bad = [r["check"] for r in reports if r["status"] != "pass"]
    if bad:
        raise SystemExit(f"refusing to store digests of failing checks: {bad}")
    DIGESTS.write_text(json.dumps({r["check"]: report_digest(r) for r in reports},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cf-lattice benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="harness self-check: three fast checks and small sweep passes")
    parser.add_argument("--write-digests", action="store_true",
                        help="store the verify report digests and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cf_lattice" / "__init__.py").is_file():
        print(f"no cf_lattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    if args.write_digests:
        write_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    run.execute()
    doc = result(run)
    if run.trace:
        print(f"spans written to {run.write_spans()}", file=sys.stderr)
    print(summary(run), file=sys.stderr)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
