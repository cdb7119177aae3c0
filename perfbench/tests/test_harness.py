"""Self-check of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Runs every workload at minimal size and checks the printed result against
BENCHMARK.json, then shows that a stubbed wrong answer and a stubbed
over-budget call are each counted as failures, that a Smith normal form
probe is judged apart from the timed calls, and that the reference loop's
CPU time stays out of the measurements.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import child  # noqa: E402  (imports cf_lattice from ROOT/src)
import run  # noqa: E402
import sweeps  # noqa: E402
import tracer  # noqa: E402

import cf_lattice  # noqa: E402
from cf_lattice import intlinalg  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def failures(calls) -> int:
    return sum(1 for c in calls if c[2] != "ok")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stderr
    assert doc["attempted"] >= 1 and doc["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in group]
    for m in group:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_stubbed_wrong_answer_is_a_failure(monkeypatch):
    cases = sweeps.lattice_sweep(7, 0, quick=True)
    clean = child.judge(cases, child.time_cases(cases))
    real_det = intlinalg.det
    monkeypatch.setattr(intlinalg, "det", lambda a: real_det(a) + 1)
    stubbed = child.judge(cases, child.time_cases(cases))
    assert failures(clean) == 0
    assert failures(stubbed) > failures(clean)
    assert {c[2] for c in stubbed if c[0] == "intlinalg.det"} == {"wrong"}


def test_stubbed_over_budget_call_is_a_failure(monkeypatch):
    import random
    m = sweeps.dense(4, 4, random.Random(7))
    cases = sweeps.matrix_cases(m, square=True, tag="dense 4x4")
    clean = child.judge(cases, child.time_cases(cases))

    def spin(rows):
        while True:
            pass

    monkeypatch.setattr(intlinalg, "det", spin)
    stubbed = child.judge(cases, child.time_cases(cases, budget=0.05))
    assert failures(clean) == 0
    assert [c[2] for c in stubbed if c[2] != "ok"] == ["over_budget"]
    assert [c[0] for c in stubbed if c[2] != "ok"] == ["intlinalg.det"]


def test_verify_gate_counts_tampered_and_over_budget_reports(monkeypatch):
    bench = run.Run("verify-cold", seed=1, seconds=1, trace=False, quick=True)
    run.OUT.mkdir(exist_ok=True)
    done = bench.spawn("cli", "--", "verify", "plethysm-omega", "--output", "json")
    bench.judge_reports(["plethysm-omega"], done)
    assert bench.failed == 0 and not bench.incorrect

    reports = json.loads(done.stdout)
    reports[0]["actual"]["slice_dim"] = 29
    done.stdout = json.dumps(reports).encode()
    bench.judge_reports(["plethysm-omega"], done)
    assert bench.failed == 1 and bench.incorrect

    monkeypatch.setattr(run, "PROCESS_BUDGET_S", 0.01)
    slow = bench.spawn("cli", "--", "verify", "plethysm-omega", "--output", "json")
    bench.judge_reports(["plethysm-omega"], slow)
    assert slow.over_budget and bench.failures[("verify", "over_budget")] == 1


def test_probe_over_budget_is_judged_apart_from_timed_calls(monkeypatch):
    import random
    m = sweeps.dense(4, 4, random.Random(7))
    cases = sweeps.matrix_cases(m, square=True, tag="dense 4x4", snf_probe=True)

    def spin(rows):
        while True:
            pass

    monkeypatch.setattr(intlinalg, "smith_normal_form", spin)
    monkeypatch.setattr(child, "PROBE_BUDGET_S", 0.05)
    assert [c[2] for c in child.judge(cases, child.time_cases(cases, probes=False))
            if c[4]] == ["skipped"]
    probed = child.judge(cases, child.time_cases(cases))
    assert [(c[0], c[2]) for c in probed if c[4]] == [("intlinalg.smith_normal_form",
                                                       "over_budget")]
    assert failures(c for c in probed if not c[4]) == 0


def test_speedometer_leaves_the_reference_loop_out():
    with child.Speedometer() as speed:
        start = speed.clock()
        speed.sample()
        speed.sample()
        end = speed.clock()
    refs = [r for _, r in speed.samples]
    assert len(refs) == 4 and all(r > 0 for r in refs)
    assert speed.spent >= sum(refs)
    assert end - start < min(refs)
    assert min(refs) <= speed.reference(start, end) <= max(refs)


def test_tracer_patches_every_binding_and_reports_missing_names(monkeypatch):
    import importlib
    roots_module = importlib.import_module("cf_lattice.roots")   # cf_lattice.roots is a function
    lattices_module = importlib.import_module("cf_lattice.lattices")
    period = importlib.import_module("cf_lattice.period")
    original = roots_module.short_vectors
    monkeypatch.setitem(tracer.TARGETS, "roots", tracer.TARGETS["roots"] + ("no_such_function",))
    t = tracer.Tracer().install()
    try:
        assert roots_module.short_vectors is not original
        assert cf_lattice.short_vectors is roots_module.short_vectors
        # bindings made by `from .x import y` are patched too
        assert period.identify_root_system is roots_module.identify_root_system
        assert lattices_module.hnf is intlinalg.hnf
        assert "roots.no_such_function" in t.missing
        e8 = cf_lattice.standard_lattice("E8")
        assert len(period.roots(e8)) == 240
    finally:
        t.uninstall()
    assert roots_module.short_vectors is original
    totals = t.totals()
    assert totals["roots.short_vectors.calls"] == 1
    assert totals["roots.short_vectors.vectors"] == 240
    assert all(s[2] >= s[1] for s in t.spans)


@pytest.mark.parametrize("label", [g[0] for g in sweeps.LATTICE_GRID])
def test_oracle_root_data_matches_the_census(label):
    for family, n in sweeps.parse_label(label):
        assert 2 * len(sweeps.positive_roots(sweeps.cartan(family, n))) == sweeps.root_count(family, n)
