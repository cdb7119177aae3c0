"""Where verification reports are built, found by an AST scan of src/cf_lattice.

Every `make_report` call sits in checks.py, and period.py, which holds the
mathematics of the period model, imports nothing from `report`. Each
registered check is a function of checks.py that takes the run's
`checks.Stages` as its one argument and whose report carries its own id,
and `run_suite` reaches every check through the module attribute
`checks.run_check`, handing each the one holder it made for the call, so a
caller that replaces `run_check` (to time each check, say) sees all of them.
"""
import ast
import inspect
from pathlib import Path

from cf_lattice import checks, period
from cf_lattice.report import make_report

SRC = Path(__file__).resolve().parents[1] / "src" / "cf_lattice"


def report_uses(source: str) -> tuple[int, list[str]]:
    """(number of `make_report` calls, names imported from the report module)."""
    tree = ast.parse(source)
    calls, imports = 0, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            calls += name == "make_report"
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "report":
                imports += [a.name for a in node.names]
            else:
                imports += [a.name for a in node.names if a.name == "report"]
        elif isinstance(node, ast.Import):
            imports += [a.name for a in node.names if a.name.split(".")[-1] == "report"]
    return calls, imports


def test_scan_finds_every_report_use():
    sample = ("from .report import make_report, jsonable\n"
              "from . import report, roots\n"
              "import cf_lattice.report\n"
              "from .roots import reflection\n"
              "a = make_report('x', 1, 1)\n"
              "b = report.make_report('y', 1, 2)\n"
              "c = make_reports()\n")
    assert report_uses(sample) == (2, ["make_report", "jsonable", "report",
                                       "cf_lattice.report"])


def test_reports_are_built_in_checks_only():
    uses = {path.name: report_uses(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}
    assert {name for name, (calls, _) in uses.items() if calls} == {"checks.py"}
    assert uses["period.py"][1] == []


def test_registry_runners_take_the_run_stages_and_report_their_id():
    assert len(checks.REGISTRY) == 12
    stages = checks.Stages()
    for check_id, runner in checks.REGISTRY.items():
        assert runner.__module__ == "cf_lattice.checks", check_id
        assert list(inspect.signature(runner).parameters) == ["stages"], check_id
        assert runner(stages).check == check_id


def test_run_suite_calls_the_module_run_check_once_per_check(monkeypatch):
    called, holders = [], []

    def recording_run_check(check_id, stages):
        called.append(check_id)
        holders.append(stages)
        return make_report(check_id, expected=1, actual=1)

    monkeypatch.setattr(checks, "run_check", recording_run_check)
    reports = checks.run_suite()
    assert called == sorted(checks.REGISTRY)
    assert [r.check for r in reports] == called
    checks.run_suite(("plethysm-chi", "model-build"))
    assert called[12:] == ["model-build", "plethysm-chi"]
    # one holder per call, the same for every check of that call
    assert all(isinstance(h, checks.Stages) for h in holders)
    assert len({id(h) for h in holders[:12]}) == len({id(h) for h in holders[12:]}) == 1
    assert holders[0] is not holders[12]


def test_each_run_builds_each_stage_once_inside_the_first_check_to_read_it(monkeypatch):
    """Two `run_suite` calls in one process build each stage once per call, each in
    the first check that reads it; `run_check` alone builds only what it reads."""
    built, current = [], []

    def counting(name, build):
        def counted(*args):
            built.append((name, *[a for a in args if isinstance(a, int)], current[-1]))
            return build(*args)
        return counted

    for name in ("build_period_model", "e_split", "e8_dictionary", "niemeier_e6_stage"):
        monkeypatch.setattr(period, name, counting(name, getattr(period, name)))
    run_check = checks.run_check

    def tracking_run_check(check_id, *rest):
        current.append(check_id)
        return run_check(check_id, *rest)

    monkeypatch.setattr(checks, "run_check", tracking_run_check)
    for _ in range(2):
        built.clear()
        assert {r.status for r in checks.run_suite()} == {"pass"}
        # E6 and E7 are split for automorphic-weight-orders, the first check; E8 (the
        # E8 dictionary, through `e_split(8)`) for the Niemeier stage that reads it
        assert built == [("e_split", 6, "automorphic-weight-orders"),
                         ("e_split", 7, "automorphic-weight-orders"),
                         ("e8_dictionary", "boundary-components"),
                         ("e_split", 8, "boundary-components"),
                         ("niemeier_e6_stage", "boundary-components"),
                         ("build_period_model", "hyperplane-dets")]
    built.clear()
    assert checks.run_check("model-build").status == "pass"
    assert built == [("build_period_model", "model-build")]
    built.clear()
    assert checks.run_check("automorphic-weight-orders").status == "pass"
    assert built == [("e_split", 6, "automorphic-weight-orders"),
                     ("e_split", 7, "automorphic-weight-orders")]
