"""tools/api_census.py prints the package's line, export and default counts."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

import bipexp

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "api_census.py"


def run_tool() -> dict[str, int]:
    out = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, check=True
    ).stdout
    return {key: int(value) for key, value in (line.split() for line in out.splitlines())}


def test_census_counts_exports_lines_and_defaults():
    got = run_tool()
    assert list(got) == ["src_lines", "exports", "defaulted_params"]
    assert got["exports"] == len(bipexp.__all__)
    files = sorted((ROOT / "src" / "bipexp").glob("*.py"))
    assert got["src_lines"] == sum(f.read_bytes().count(b"\n") for f in files)
    assert got["defaulted_params"] > 0


def test_defaulted_params_rule():
    spec = importlib.util.spec_from_file_location("api_census", TOOL)
    api_census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(api_census)
    tree = ast.parse(
        "def f(a, b=1, *, c=2, d): pass\n"
        "def _hidden(a=1): pass\n"
        "class Public:\n"
        "    x: int = 0\n"
        "    y: int\n"
        "    z = 3\n"
        "    def m(self, k=1): pass\n"
        "    def _p(self, k=1): pass\n"
        "class _Private:\n"
        "    x: int = 0\n"
    )
    # b and c; the field x; the method's k
    assert api_census.defaulted_params(tree) == 4
