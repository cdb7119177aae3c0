import json
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from cf_lattice import direct_sum, intlinalg, lattice_to_json, standard_lattice
from cf_lattice.lattices import hadamard_bits
from cf_lattice.cli import MAX_DET_DIGITS, main
from cf_lattice.intlinalg import det, identity, mat_mul, transpose
from cf_lattice.plethysm import MAX_CHARACTER_WORK, MAX_DIGITS, ROW_STEPS


def write_lattice(tmp_path, label, name=None):
    lat = standard_lattice(label)
    path = tmp_path / f"{name or label}.json"
    path.write_text(lattice_to_json(lat))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_exit(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    out = capsys.readouterr()
    return err.value.code, out.out, out.err


def test_lattice_info_e8(tmp_path, capsys):
    path = write_lattice(tmp_path, "E8")
    code, out, _ = run(capsys, ["--output", "json", "lattice", "info", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 8
    assert doc["signature"] == [8, 0]
    assert doc["parity"] == "even"
    assert doc["disc"]["order"] == 1


def test_lattice_disc_a2(tmp_path, capsys):
    path = write_lattice(tmp_path, "A2")
    code, out, _ = run(capsys, ["--output", "json", "lattice", "disc", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "Z/3"
    assert doc["q"] == ["2/3"]


@pytest.mark.parametrize("labels, steps, det, factors", [
    (("A3", "D5", "E7"), 30, 32, [2, 4, 4]),
    (("A20", "D12", "E8"), 100, 84, [2, 42]),
])
def test_lattice_info_on_a_skewed_basis(tmp_path, capsys, time_budget, labels, steps, det,
                                        factors):
    """Root lattice with Gram U*G*U^T, U from seeded row_i += +-row_j steps."""
    lat = direct_sum(*(standard_lattice(x) for x in labels))
    rng = random.Random(0)
    u = identity(lat.rank)
    for _ in range(steps):
        i, j = rng.sample(range(lat.rank), 2)
        sign = rng.choice((1, -1))
        u[i] = [x + sign * y for x, y in zip(u[i], u[j])]
    path = tmp_path / "skewed.json"
    path.write_text(json.dumps({"gram": mat_mul(mat_mul(u, lat.gram), transpose(u))}))
    code, out, _ = run(capsys, ["--output", "json", "lattice", "info", str(path)])
    assert code == 0
    doc = json.loads(out)
    assert doc["det"] == det
    assert doc["disc"]["invariant_factors"] == factors


def test_lattice_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{\"gram\": [[1, ]]}")
    code, _, err = run_exit(capsys, ["lattice", "info", str(path)])
    assert code == 2
    assert "line 1" in err and "column" in err


def test_lattice_name_not_a_string_exits_2(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text('{"name": 5, "gram": [[2]]}')
    code, out, err = run_exit(capsys, ["lattice", "info", str(path)])
    assert code == 2
    assert not out
    assert "'name' must be a string" in err


def test_lattice_degenerate_exits_3(tmp_path, capsys):
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps({"gram": [[0]]}))
    code, _, _ = run_exit(capsys, ["lattice", "info", str(path)])
    assert code == 3


def test_lattice_complement_and_saturate(tmp_path, capsys):
    path = write_lattice(tmp_path, "U")
    code, out, _ = run(capsys, ["--output", "json", "lattice", "complement", path,
                                "--rows", "[[1, 0]]"])
    assert code == 0
    doc = json.loads(out)
    assert doc["gram"] == [[0]]
    assert doc["degenerate"] is True
    code, out, _ = run(capsys, ["--output", "json", "lattice", "saturate", path,
                                "--rows", "[[2, 0]]"])
    assert code == 0
    assert json.loads(out)["basis"] == [[1, 0]]


@pytest.mark.parametrize("action, products", [("complement", 3), ("saturate", 2)])
def test_lattice_complement_and_saturate_build_the_induced_gram_once(
        tmp_path, capsys, monkeypatch, action, products):
    """The result's B G B^T (two products) gives both its Gram and its degeneracy;
    `complement` adds one product, the pairings of the rows whose kernel it takes."""
    shapes = []

    def counted(a, b):
        shapes.append((len(a), len(b)))
        return mat_mul(a, b)

    monkeypatch.setattr(intlinalg, "mat_mul", counted)
    path = write_lattice(tmp_path, "E7")
    code, out, _ = run(capsys, ["--output", "json", "lattice", action, path,
                                "--rows", "[[1, 0, 0, 0, 0, 0, 0]]"])
    assert code == 0 and json.loads(out)["degenerate"] is False
    assert len(shapes) == products, shapes


def test_lattice_zero_rows(tmp_path, capsys):
    path = write_lattice(tmp_path, "A2")
    code, out, _ = run(capsys, ["--output", "json", "lattice", "saturate", path,
                                "--rows", "[[0, 0]]"])
    assert code == 0
    assert json.loads(out)["basis"] == []
    code, out, _ = run(capsys, ["--output", "json", "lattice", "complement", path,
                                "--rows", "[[0, 0]]"])
    assert code == 0
    assert json.loads(out)["basis"] == [[1, 0], [0, 1]]


@pytest.mark.parametrize("action", ["complement", "saturate"])
@pytest.mark.parametrize("rows", ["[[1, 0, 0]]", "[[1]]", "[[1, 0], [1]]"])
def test_lattice_rows_of_wrong_length_exit_2(tmp_path, capsys, action, rows):
    path = write_lattice(tmp_path, "A2")
    code, out, err = run_exit(capsys, ["lattice", action, path, "--rows", rows])
    assert code == 2
    assert out == ""
    assert "length 2" in err


@pytest.mark.parametrize("rows", ["[[true, false]]", "[[1, 1.5]]", "[]", "{}", '[[1, "2"]]'])
def test_lattice_rows_not_an_array_of_integer_arrays_exit_2(tmp_path, capsys, rows):
    path = write_lattice(tmp_path, "A2")
    code, out, err = run_exit(capsys, ["lattice", "saturate", path, "--rows", rows])
    assert code == 2
    assert out == ""
    assert "--rows must be a non-empty JSON array of integer arrays" in err


def test_lattice_rows_required(tmp_path, capsys):
    path = write_lattice(tmp_path, "U")
    code, _, _ = run_exit(capsys, ["lattice", "saturate", path])
    assert code == 2


def test_roots_e8(tmp_path, capsys):
    path = write_lattice(tmp_path, "E8")
    code, out, _ = run(capsys, ["--output", "json", "roots", path, "--norm", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 240
    assert doc["root_system"] == "E8"


def test_roots_indefinite_exits_3(tmp_path, capsys):
    path = write_lattice(tmp_path, "U")
    code, _, _ = run_exit(capsys, ["roots", path])
    assert code == 3


# Runs its arguments as a child and prints the child's result and peak RSS
# (kilobytes): the wrapper is fresh, so RUSAGE_CHILDREN sees that child only.
_PEAK_RSS_WRAPPER = """
import json, resource, subprocess, sys
r = subprocess.run(sys.argv[1:], capture_output=True, text=True)
print(json.dumps({"code": r.returncode, "stdout": r.stdout, "stderr": r.stderr,
                  "peak_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}))
"""


def child_env():
    """This environment with the checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_env = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path_env if path_env else "")}


def run_fresh(*argv):
    """Run the CLI in a fresh interpreter; return its exit code, output and peak RSS."""
    result = subprocess.run([sys.executable, "-c", _PEAK_RSS_WRAPPER, sys.executable,
                             "-m", "cf_lattice.cli", *argv], env=child_env(),
                            capture_output=True, text=True, timeout=30, check=True)
    return json.loads(result.stdout)


def test_roots_past_the_enumeration_cap_exits_3(tmp_path, time_budget):
    """About 10^8 vectors of norm 400 in diag(2^8): the node cap ends the walk, in bounded
    time and memory, in a fresh process."""
    path = tmp_path / "diag.json"
    path.write_text(json.dumps({"gram": [[2 * (i == j) for j in range(8)] for i in range(8)]}))
    result = run_fresh("roots", str(path), "--norm", "400")
    assert result["code"] == 3
    assert not result["stdout"]
    assert "search nodes" in result["stderr"]


@pytest.mark.parametrize("norm", ["0", "-2"])
def test_roots_non_positive_norm_exits_2(tmp_path, norm):
    """A norm below 1 is a usage error, like a negative --suspend: exit 2 from argparse
    in a fresh process, with the flag named and nothing printed."""
    path = write_lattice(tmp_path, "E8")
    result = run_fresh("roots", path, "--norm", norm)
    assert result["code"] == 2
    assert not result["stdout"]
    assert "--norm" in result["stderr"] and f"got {norm}" in result["stderr"]


@pytest.mark.parametrize("name, code", [("", 2), ("  ", 2), ("-", 3)])
def test_niemeier_build_blank_label_exits_2(name, code):
    """An empty or blank label is a missing label, exit 2 in a fresh process; "-"
    names the rootless entry, which has no E summand to glue, so it exits 3."""
    result = run_fresh("niemeier", "build", name)
    assert result["code"] == code
    assert not result["stdout"]
    assert ("root-system label" in result["stderr"]) == (code == 2)
    assert ("E-containing" in result["stderr"]) == (code == 3)


def test_enumeration_cap_bounds_memory_on_a_rank_24_walk(tmp_path, time_budget):
    """Norm 6 on E8^3: stored 24-tuples are charged against the cap, so the walk
    exits 3 before its vectors fill memory."""
    e8 = standard_lattice("E8")
    path = tmp_path / "e8cubed.json"
    path.write_text(lattice_to_json(direct_sum(e8, e8, e8)))
    result = run_fresh("roots", str(path), "--norm", "6")
    assert result["code"] == 3
    assert "search nodes" in result["stderr"]
    assert result["peak_kb"] < 200 * 1024


def test_roots_text_output_is_one_line_per_vector(tmp_path, capsys):
    """E8^3 in text mode: `norm`, `count`, `vectors:`, one line per 24-entry vector,
    then `root_system`."""
    e8 = standard_lattice("E8")
    path = tmp_path / "e8cubed.json"
    path.write_text(lattice_to_json(direct_sum(e8, e8, e8)))
    code, out, _ = run(capsys, ["roots", str(path), "--norm", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[:3] == ["norm: 2", "count: 720", "vectors:"]
    assert len(lines) == 720 + 4
    assert lines[-1] == 'root_system: "E8^3"'
    vectors = [json.loads(line.removeprefix("  - ")) for line in lines[3:-1]]
    assert all(line.startswith("  - [") for line in lines[3:-1])
    assert all(len(v) == 24 for v in vectors)
    code, out, _ = run(capsys, ["--output", "json", "roots", str(path), "--norm", "2"])
    assert json.loads(out)["vectors"] == vectors


def test_text_output_prints_one_line_per_gram_row(tmp_path, capsys):
    code, out, _ = run(capsys, ["niemeier", "build", "E8^3"])
    assert code == 0
    lines = out.splitlines()
    at = lines.index("gram:")
    rows = [json.loads(line.removeprefix("  - ")) for line in lines[at + 1:at + 25]]
    assert all(len(r) == 24 for r in rows)
    assert not lines[at + 25].startswith("  ")
    code, out, _ = run(capsys, ["--output", "json", "niemeier", "build", "E8^3"])
    assert json.loads(out)["gram"] == rows
    path = write_lattice(tmp_path, "E8")
    code, out, _ = run(capsys, ["lattice", "saturate", path, "--rows",
                                json.dumps(identity(8))])
    assert code == 0
    assert out.splitlines()[:3] == [
        "gram:", *["  - " + json.dumps(list(r)) for r in standard_lattice("E8").gram[:2]]]


def test_text_output_marks_each_long_list_item(capsys):
    """Each catalog entry is a dict too long for one line: it gets a `-` line and its
    keys one level deeper, so entries stay apart."""
    code, out, _ = run(capsys, ["spectra", "list"])
    assert code == 0
    _, json_out, _ = run(capsys, ["--output", "json", "spectra", "list"])
    entries = json.loads(json_out)
    lines = out.splitlines()
    assert lines.count("-") == len(entries)
    assert sum(line.startswith("  name: ") for line in lines) == len(entries)


def test_inline_text_agrees_with_json_width():
    """The leaf-by-leaf width test gives json.dumps(v) exactly when that is shorter
    than the width, on seeded nested values."""
    from cf_lattice.cli import _TEXT_WIDTH, _inline

    rng = random.Random(70)

    def value(depth):
        kind = rng.randrange(4 if depth < 3 else 2)
        if kind == 0:
            return rng.choice([0, -7, 123456, True, None])
        if kind == 1:
            return rng.choice(["", "a", "1/30", "x" * rng.randrange(80)])
        if kind == 2:
            return [value(depth + 1) for _ in range(rng.randrange(6))]
        return {f"k{i}": value(depth + 1) for i in range(rng.randrange(5))}

    for _ in range(2000):
        v = value(0)
        text = json.dumps(v)
        assert _inline(v, _TEXT_WIDTH) == (text if len(text) < _TEXT_WIDTH else None)


def test_niemeier_list(capsys):
    code, out, _ = run(capsys, ["--output", "json", "niemeier", "list"])
    assert code == 0
    table = json.loads(out)
    assert len(table) == 24
    assert {"roots": "E8^3", "h": 30, "count": 720} in table
    assert {"roots": "-", "h": 0, "count": 0} in table


def test_niemeier_build(capsys):
    code, out, _ = run(capsys, ["--output", "json", "niemeier", "build", "E6^4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["glue_order"] == 9
    assert abs(doc["det"]) == 1


def test_niemeier_build_unsupported_exits_3(capsys):
    code, _, _ = run_exit(capsys, ["niemeier", "build", "D24"])
    assert code == 3


def test_plethysm_sl3(capsys):
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "--sl3",
                                "Sym^3(Sym^2(V))"])
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "SL3"
    assert doc["dim"] == 56
    assert {"weight": [6, 0], "mult": 1} in doc["summands"]
    assert {"weight": [2, 2], "mult": 1} in doc["summands"]
    assert {"weight": [0, 0], "mult": 1} in doc["summands"]


def test_plethysm_sl2(capsys):
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "--sl2",
                                "Sym^3(Sym^4(V)+C)"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 56
    assert {"weight": 12, "mult": 1} in doc["summands"]
    assert {"weight": 8, "mult": 2} in doc["summands"]
    assert {"weight": 0, "mult": 3} in doc["summands"]


def test_plethysm_gamma_needs_sl3(capsys):
    code, _, err = run_exit(capsys, ["plethysm", "--sl2", "Gamma_{1,1}"])
    assert code == 2
    assert "SL3-only" in err


def test_plethysm_parse_error_position(capsys):
    code, _, err = run_exit(capsys, ["plethysm", "--sl2", "Sym^2("])
    assert code == 2
    assert "position 7" in err


def test_spectra_list_show_cusp(capsys):
    code, out, _ = run(capsys, ["--output", "json", "spectra", "list"])
    assert code == 0
    entries = json.loads(out)
    assert any(e["name"] == "E8_surface" for e in entries)

    code, out, _ = run(capsys, ["--output", "json", "spectra", "show", "A1_surface"])
    assert code == 0
    assert json.loads(out)["entries"] == ["1/2"]

    code, out, _ = run(capsys, ["--output", "json", "spectra", "show", "A1_surface",
                                "--suspend", "2"])
    assert code == 0
    assert json.loads(out)["entries"] == ["3/2"]

    code, out, _ = run(capsys, ["--output", "json", "spectra", "cusp", "2", "3", "7"])
    assert code == 0
    assert json.loads(out)["milnor_number"] == 11


def test_spectra_cusp_out_of_range_exits_3(capsys):
    code, _, _ = run_exit(capsys, ["spectra", "cusp", "2", "3", "5"])
    assert code == 3
    code, _, err = run_exit(capsys, ["spectra", "cusp", "1", "5", "9"])
    assert code == 3
    assert "at least 2" in err


def test_spectra_cusp_milnor_cap_exits_3(capsys):
    code, out, err = run_exit(capsys, ["spectra", "cusp", "2", "3", "1000000000"])
    assert code == 3
    assert out == ""
    assert "Milnor number" in err


@pytest.mark.parametrize("argv", [
    ["spectra", "cusp", "2", "3", "7", "--suspend", "-1"],
    ["spectra", "show", "E8_surface", "--suspend", "-1"],
])
def test_spectra_negative_suspend_exits_2(capsys, argv):
    code, _, err = run_exit(capsys, argv)
    assert code == 2
    assert "--suspend" in err


@pytest.mark.parametrize("argv", [
    ["--search-bound=6", "verify", "hyperplane-dets"],
    ["verify", "hyperplane-dets", "--search-bound", "0"],
])
def test_search_bound_flag_exits_2(capsys, argv):
    # the witness search of hyperplane-dets runs at one fixed bound
    code, _, err = run_exit(capsys, argv)
    assert code == 2
    assert "--search-bound" in err


def test_plethysm_deep_nesting_exits_2(capsys):
    expression = "Sym^2(" * 400 + "V" + ")" * 400
    code, _, err = run_exit(capsys, ["plethysm", "--sl2", expression])
    assert code == 2
    assert "parse error" in err


def test_spectra_unknown_name_exits_2(capsys):
    code, _, _ = run_exit(capsys, ["spectra", "show", "Z9_surface"])
    assert code == 2


def test_verify_unknown_check_exits_2(capsys):
    code, _, err = run_exit(capsys, ["verify", "no-such-check"])
    assert code == 2
    assert "no-such-check" in err


def test_verify_list(capsys):
    code, out, _ = run(capsys, ["verify", "--list"])
    assert code == 0
    ids = out.split()
    assert len(ids) == 12
    assert ids == sorted(ids)
    assert "monodromy-lemma" in ids


FAST_CHECKS = ["automorphic-weight-orders", "boundary-matching", "model-build",
               "plethysm-chi", "plethysm-omega", "spectra-catalog"]


def _strip_elapsed(reports):
    return [{k: v for k, v in r.items() if k != "elapsed_ms"} for r in reports]


def test_verify_subset_passes_and_exit_code(capsys):
    code, out, _ = run(capsys, ["--output", "json", "verify"] + FAST_CHECKS)
    assert code == 0
    reports = json.loads(out)
    assert [r["check"] for r in reports] == sorted(FAST_CHECKS)
    assert all(r["status"] == "pass" for r in reports)
    assert all(r["paper_ref"] for r in reports)


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, ["--output", "json", "verify"] + FAST_CHECKS)
    _, out2, _ = run(capsys, ["--output", "json", "verify"] + FAST_CHECKS)
    assert _strip_elapsed(json.loads(out1)) == _strip_elapsed(json.loads(out2))
    # the suite has one mode: checks run one after another
    code, _, err = run_exit(capsys, ["verify", "--parallel"])
    assert code == 2
    assert "--parallel" in err


def test_verify_text_output(capsys):
    code, out, _ = run(capsys, ["verify", "model-build"])
    assert code == 0
    assert "[PASS] model-build" in out
    assert "claim:" in out
    assert "1 checks, 0 failures" in out


def test_verify_exit_code_counts_failures(capsys, monkeypatch):
    from cf_lattice import checks
    from cf_lattice.report import make_report

    def failing(stages):
        return make_report("always-fails", expected=1, actual=2, citation="synthetic")

    monkeypatch.setitem(checks.REGISTRY, "always-fails", failing)
    code, out, _ = run(capsys, ["verify", "always-fails", "model-build"])
    assert code == 1
    assert "[FAIL] always-fails" in out
    assert "expected:" in out and "actual:" in out


@pytest.mark.parametrize("argv", [
    ["niemeier", "build", "E6^x"],
    ["niemeier", "build", "Q6"],
    ["niemeier", "build", "E6^4+"],
    ["niemeier", "build", "E9"],
    ["niemeier", "build"],
])
def test_niemeier_build_bad_label_exits_2(capsys, argv):
    code, _, err = run_exit(capsys, argv)
    assert code == 2
    assert "root-system label" in err


def test_plethysm_past_the_work_cap_exits_3(capsys):
    for group, expression in (("--sl2", "Sym^100000000(V)"), ("--sl3", "Gamma_{2000,0}"),
                              ("--sl2", "Sym^10000000(C)")):
        code, _, err = run_exit(capsys, ["plethysm", group, expression])
        assert code == 3
        assert "work cap" in err


def test_plethysm_large_multiplicities_answer(capsys):
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "Sym^2(V^1000000)"])
    assert code == 0
    assert json.loads(out)["dim"] == comb(2 * 10 ** 6 + 1, 2)
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "Sym^1000000000(V^0)"])
    assert code == 0
    assert json.loads(out)["dim"] == 0


def test_plethysm_large_sym_power_answers(capsys):
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "Sym^40(Sym^40(V))"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == comb(80, 40)
    assert len(doc["summands"]) == 800
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "--sl3", "Gamma_{60,60}"])
    assert code == 0
    assert json.loads(out)["summands"] == [{"weight": [60, 60], "mult": 1}]


def test_plethysm_cap_counts_the_weights_on_their_coset(capsys):
    """The weights of Sym^k(V) for SL(2) share the parity of k, so the cap counts
    every other point of the weight box: both answer instead of exiting 3."""
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "Sym^1500(V)"])
    assert code == 0
    assert json.loads(out)["dim"] == 1501
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "Sym^2(Sym^1500(V))"])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == comb(1502, 2) == 1_127_251
    assert len(doc["summands"]) == 751


def test_plethysm_row_charge_bounds_memory(capsys, time_budget):
    """Each table row is charged ROW_STEPS steps besides its slots, so Sym^k(C) is
    charged 2k(1 + ROW_STEPS): the largest k the cap admits answers in a fresh
    process under 40 MB (one 8-byte slot per row on top of the interpreter's
    ~18 MB), and the next one, or Sym^4999999(C), exits 3 before any table is
    made."""
    largest = MAX_CHARACTER_WORK // (2 * (1 + ROW_STEPS))
    assert largest >= 500_000
    result = run_fresh("--output", "json", "plethysm", f"Sym^{largest}(C)")
    assert result["code"] == 0
    assert json.loads(result["stdout"])["dim"] == 1
    assert result["peak_kb"] < 40 * 1024
    for k in (largest + 1, 4_999_999):
        code, _, err = run_exit(capsys, ["plethysm", f"Sym^{k}(C)"])
        assert code == 3
        assert "work cap" in err


def test_plethysm_integer_past_the_digit_limit_exits_2(capsys):
    code, _, err = run_exit(capsys, ["plethysm", "Sym^" + "9" * 5000 + "(V)"])
    assert code == 2
    assert "integer too long" in err


_N = 10 ** 1000
# labelled so that the test ids stay short
_PLETHYSM_PAST_DIGITS = {
    "Sym5": f"Sym^5(V^{_N})",  # coefficients of about 5,000 digits
    "Sym40": f"Sym^40(V^{_N})",  # 40,000 digits: without the bound, 14 s, then a traceback
    "multiple": f"Sym^1(V^{_N ** 3})^{_N ** 3}",  # a 6,000-digit multiple, no Sym^k past it
}


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("label", list(_PLETHYSM_PAST_DIGITS))
def test_plethysm_past_the_digit_cap_exits_3(label, output, time_budget):
    """A result whose multiplicities or dimension may pass MAX_DIGITS digits, past what
    Python's str() takes, stops with one line in a fresh process: Sym^k before its
    table is allocated, from the bound C(D + k - 1, k), D = sum |c|."""
    result = run_fresh("--output", output, "plethysm", "--sl2", _PLETHYSM_PAST_DIGITS[label])
    assert result["code"] == 3
    assert not result["stdout"]
    assert result["stderr"].count("\n") == 1
    assert f"more than {MAX_DIGITS} digits" in result["stderr"]
    assert "Traceback" not in result["stderr"]


def test_plethysm_sym4_of_a_1001_digit_multiple_answers(capsys):
    """Sym^4(V^N), N = 10^1000: the bound C(2N + 3, 4) has 4,000 digits, under the cap,
    and the multiplicities and the dimension print in full, in text and in JSON."""
    expression = f"Sym^4(V^{_N})"
    code, out, _ = run(capsys, ["--output", "json", "plethysm", "--sl2", expression])
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == comb(2 * _N + 3, 4)
    assert [s["weight"] for s in doc["summands"]] == [4, 2, 0]
    code, out, _ = run(capsys, ["plethysm", "--sl2", expression])
    assert code == 0
    assert out.endswith(f"(dim {comb(2 * _N + 3, 4)})\n")


def _near_limit_expression(rng, atoms, depth=0):
    """Sums, multiples and Sym^0..6 of `atoms`, multiplicities of up to 4,291 digits."""
    if depth < 2 and rng.random() < 0.4:
        return f"Sym^{rng.randint(0, 6)}({_near_limit_expression(rng, atoms, depth + 1)})"
    term = rng.choice(atoms)
    if rng.random() < 0.5:
        term += f"^{rng.choice((1, 9)) * 10 ** rng.choice((0, 3, 500, 1000, 2000, 4290))}"
    if rng.random() < 0.3:
        term += "+" + _near_limit_expression(rng, atoms, depth + 1)
    return term


def test_plethysm_near_the_parse_limit_answers_or_exits_3(capsys):
    """Seeded fuzz over both groups and both outputs: every expression either prints
    (every integer under Python's str() limit) or exits 3 with one stderr line."""
    rng = random.Random(11)
    codes = []
    for _ in range(300):
        group, atoms = rng.choice([("--sl2", ["V", "C"]),
                                   ("--sl3", ["V", "C", "Gamma_{1,0}", "Gamma_{1,1}"])])
        argv = ["--output", rng.choice(["text", "json"]), "plethysm", group,
                _near_limit_expression(rng, atoms)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert code in (0, 3), argv
        assert out.err.count("\n") == (code == 3) and bool(out.out) == (code == 0)
        codes.append(code)
    assert codes.count(0) > 100 and codes.count(3) > 20


def test_a_reader_closing_stdout_early_exits_141_without_a_traceback(tmp_path, time_budget):
    """`roots --norm 6` on E8 prints about 200 kB, far past a pipe's buffer, so the
    child is still writing when the reader closes after the first line."""
    path = write_lattice(tmp_path, "E8")
    child = subprocess.Popen([sys.executable, "-m", "cf_lattice.cli", "roots", path,
                              "--norm", "6"], env=child_env(), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    assert child.stdout.readline() == "norm: 6\n"
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait() == 141
    assert "Traceback" not in stderr
    assert not stderr


def _wide_gram(tmp_path, digits):
    """[[2m, m], [m, 4m]] with m = 77...7 of `digits` digits: det 7 m^2, twice as long."""
    m = int("7" * digits)
    gram = [[2 * m, m], [m, 4 * m]]
    path = tmp_path / f"wide{digits}.json"
    path.write_text(json.dumps({"gram": [[str(x) for x in row] for row in gram]}))
    return str(path), 7 * m * m


@pytest.mark.parametrize("action", ["info", "disc"])
@pytest.mark.parametrize("output", ["text", "json"])
def test_lattice_determinant_past_the_digit_cap_exits_3(tmp_path, action, output):
    """3,001-digit entries give a determinant of about 6,000 digits, past Python's
    4,300-digit str() limit: the Hadamard bound stops the command with one line, in a
    fresh process, before any elimination."""
    path, _ = _wide_gram(tmp_path, 3001)
    result = run_fresh("--output", output, "lattice", action, path)
    assert result["code"] == 3
    assert not result["stdout"]
    assert result["stderr"].count("\n") == 1
    assert f"more than {MAX_DET_DIGITS} digits" in result["stderr"]
    assert "Traceback" not in result["stderr"]


def test_lattice_determinant_under_the_digit_cap_answers(tmp_path, capsys):
    """1,990-digit entries: the bound stays under 10^4000, and the 3,980-digit
    determinant and group order print in full."""
    path, det = _wide_gram(tmp_path, 1990)
    gram = [[int(x) for x in row] for row in json.loads(Path(path).read_text())["gram"]]
    assert 2 ** hadamard_bits(gram) < 10 ** MAX_DET_DIGITS
    code, out, _ = run(capsys, ["--output", "json", "lattice", "info", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["det"] == det
    assert doc["disc"]["order"] == det


@pytest.mark.parametrize("output", ["text", "json"])
def test_lattice_complement_past_the_digit_cap_exits_3(tmp_path, output):
    """On [[2B, 1], [1, 2B + 2]] with B = 10^3000 + 7 the complement of e1 is spanned
    by (1, -2B), whose norm has about 9,000 digits: the command stops with one line,
    in a fresh process, before the result is formatted."""
    b = 10 ** 3000 + 7
    path = tmp_path / "wide_complement.json"
    path.write_text(json.dumps({"gram": [[str(2 * b), 1], [1, str(2 * b + 2)]]}))
    result = run_fresh("--output", output, "lattice", "complement", str(path),
                       "--rows", "[[1, 0]]")
    assert result["code"] == 3
    assert not result["stdout"]
    assert result["stderr"].count("\n") == 1
    assert f"{MAX_DET_DIGITS} digits or more" in result["stderr"]
    assert "Traceback" not in result["stderr"]


def _near_limit_entry(rng):
    """A decimal string of 1 to 4,301 digits: the 4,301-digit ones pass the parse limit."""
    digits = rng.choice((1, 2, 3, 1000, 2000, 3000, 4290, 4301))
    if digits == 1:
        return str(rng.randint(-4, 4))
    return (rng.choice(("", "-")) + str(rng.randint(1, 9)) + "0" * (digits - 2)
            + str(rng.randint(0, 9)))


def test_lattice_and_roots_near_the_parse_limit_answer_or_exit_2_or_3(tmp_path, capsys):
    """Seeded fuzz over `lattice info|disc|complement|saturate` and `roots`, both
    outputs, symmetric Grams of rank 1-3 with entries of up to 4,301 digits, as
    decimal strings or bare JSON numbers, and `--rows` entries of up to 4,301 digits:
    every input prints, or exits 2 or 3 with one stderr line, which never asks the
    user to lift the interpreter's digit limit. The code before the guard in
    `cli._emit` raised ValueError on about 4% of such inputs, and a 4,301-digit
    `--rows` entry was a ValueError traceback."""
    rng = random.Random(19)
    path = tmp_path / "near_limit.json"
    codes = []
    for _ in range(200):
        n = rng.randint(1, 3)
        gram = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = _near_limit_entry(rng)
        text = json.dumps(gram)
        if rng.random() < 0.5:  # bare JSON numbers instead of decimal strings
            text = text.replace('"', "")
        path.write_text(f'{{"gram": {text}}}')
        action = rng.choice(["info", "disc", "complement", "saturate", "roots"])
        argv = ["--output", rng.choice(["text", "json"])]
        if action == "roots":
            argv += ["roots", str(path), "--norm", str(rng.randint(1, 6))]
        else:
            argv += ["lattice", action, str(path)]
        if action in ("complement", "saturate"):
            draw = (_near_limit_entry if rng.random() < 0.3
                    else lambda rng: str(rng.randint(-2, 2)))
            rows = [[draw(rng) for _ in range(n)] for _ in range(rng.randint(1, n))]
            argv += ["--rows", json.dumps(rows).replace('"', "")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert code in (0, 2, 3), (argv, gram)
        assert out.err.count("\n") == (code != 0) and bool(out.out) == (code == 0)
        assert "set_int_max_str_digits" not in out.err
        codes.append(code)
    assert min(codes.count(0), codes.count(2), codes.count(3)) > 40


def test_hadamard_bits_bounds_the_determinant():
    """|det G| <= 2^b on seeded Grams of rank 1-6 with entries of up to 40 digits, and
    b is at most one bit per row past the exact Hadamard bound: 4^b <= 4^n prod |g_i|^2."""
    rng = random.Random(61)
    for _ in range(200):
        n = rng.randint(1, 6)
        scale = 10 ** rng.randint(0, 40)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-scale, scale)
        b = hadamard_bits(g)
        assert abs(det(g)) <= 2 ** b
        norms = 1
        for row in g:
            norms *= sum(x * x for x in row)
        assert 2 ** (2 * b) <= norms * 4 ** n or not norms
