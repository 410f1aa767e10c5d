"""tools/preset_digests.py prints stable digests of a preset's output files."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "preset_digests", ROOT / "tools" / "preset_digests.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_simple_example_digests_are_stable(capsys):
    tool = load_tool()
    runs = []
    for _ in range(2):
        assert tool.main(["--presets", "simple-example"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    lines = runs[0]
    assert [line.split("  ")[1] for line in lines] == [
        "simple-example/estimates.csv",
        "simple-example/provenance.json",
    ]
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+", line) for line in lines)
    assert runs[1] == lines


def test_check_prints_the_lines_that_differ(tmp_path, capsys):
    tool = load_tool()
    checked = tmp_path / "digests.sha256"
    checked.write_text((ROOT / "tools" / "preset_digests.sha256").read_text())
    assert tool.main(["--presets", "simple-example", "--check", str(checked)]) == 0
    assert capsys.readouterr().out == f"2 digests match {checked}\n"
    lines = checked.read_text().splitlines()
    wrong = next(i for i, line in enumerate(lines) if line.endswith("simple-example/estimates.csv"))
    right = lines[wrong]
    lines[wrong] = "0" * 64 + "  simple-example/estimates.csv"
    checked.write_text("\n".join(lines) + "\n")
    assert tool.main(["--presets", "simple-example", "--check", str(checked)]) == 1
    assert capsys.readouterr().out.splitlines() == [f"- {lines[wrong]}", f"+ {right}"]
