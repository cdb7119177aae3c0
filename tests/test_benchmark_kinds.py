"""The benchmark's sweep operations name functions that exist in cf_lattice.

A sweep case names its call as `<module>.<function>`, and the sweep worker
resolves it with `getattr` on the imported module. Deleting or renaming such a
function would make those operations fail in the benchmark only; this test
makes it fail here. It only reads `perfbench/`.
"""
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_sweep_case_kind_resolves_in_cf_lattice(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sweeps = importlib.import_module("sweeps")
    for workload, build in sweeps.SWEEPS.items():
        cases = build(0, 0, quick=True)
        assert cases, workload
        for case in cases:
            module, _, name = case.kind.partition(".")
            target = getattr(importlib.import_module(f"cf_lattice.{module}"), name, None)
            assert callable(target), f"{workload}: {case.kind} is not in cf_lattice"
