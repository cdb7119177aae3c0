"""Which standard-library modules `import cf_lattice.cli` loads.

A cold `cf-lattice verify` spends about as long importing as checking, so the
import is held to a fixed set of standard-library modules. Each run is a fresh
interpreter that diffs `sys.modules` around the import. With `-S` the
interpreter starts with only its bootstrap modules, so the diff is everything
the CLI needs; without it, `site` may have loaded some of them already.
"""
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = (
    "import sys\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "before = set(sys.modules)\n"
    "import cf_lattice.cli\n"
    "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
)

# The diff under -S on CPython 3.11, cf_lattice's own modules left out.
ALLOWED = {
    "__future__", "_collections", "_collections_abc", "_decimal", "_functools", "_json",
    "_operator", "_sre", "_stat", "argparse", "collections", "collections.abc", "copyreg",
    "decimal", "enum", "fractions", "functools", "genericpath", "gettext", "itertools", "json",
    "json.decoder", "json.encoder", "json.scanner", "keyword", "math", "numbers", "operator",
    "os", "os.path", "posixpath", "re", "re._casefix", "re._compiler", "re._constants",
    "re._parser", "reprlib", "stat", "types", "warnings",
}
# What a `dataclasses` import brings in; none of it may come back.
FORBIDDEN = {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy"}


def loaded_by_cli_import(*flags: str) -> set[str]:
    out = subprocess.run([sys.executable, "-B", *flags, "-c", PROBE], capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


@pytest.mark.parametrize("flags", [("-S",), ()], ids=["no-site", "site"])
def test_cli_import_loads_only_the_pinned_standard_library(flags):
    loaded = loaded_by_cli_import(*flags)
    ours = {m for m in loaded if m == "cf_lattice" or m.startswith("cf_lattice.")}
    assert {"cf_lattice", "cf_lattice._record", "cf_lattice.cli", "cf_lattice.checks"} <= ours
    assert not loaded & FORBIDDEN
    assert loaded - ours <= ALLOWED
