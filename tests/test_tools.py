"""The scripts under ``tools/`` each run once, in a subprocess, and print
what their docstrings say they print."""

import collections
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"


def run_tool(name: str, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS / name), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def stdout_of(name: str, *args: str, cwd: Path = ROOT) -> str:
    done = run_tool(name, *args, cwd=cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_readme_holds_the_law_table_verbatim():
    table = stdout_of("law_tables.py").rstrip("\n")
    assert table.count("\n") == 6  # header, rule and one row per cell
    assert table in (ROOT / "README.md").read_text()


def digest_kind(line: str) -> str:
    """The kind of one ``artifact_digests.py`` line, as its docstring counts them."""
    name = line.split(" ", 1)[0]
    kind, _, rest = name.partition(":")
    if not rest:
        return "file"
    if kind == "receiver":
        return "cut" if rest.count("/") == 2 else "receiver"
    return kind


def test_artifact_digests_prints_sorted_lines_of_each_kind():
    lines = stdout_of("artifact_digests.py").splitlines()
    assert lines == sorted(lines)
    assert len(set(lines)) == len(lines) == 303
    counts = collections.Counter(map(digest_kind, lines))
    assert counts == {
        "file": 186, "stdout": 12, "readout": 30, "receiver": 24, "cut": 48, "serialize": 3,
    }


def test_src_lines_reads_the_package_from_any_directory(tmp_path):
    here, there = stdout_of("src_lines.py"), stdout_of("src_lines.py", cwd=tmp_path)
    assert here == there
    *modules, total = [line.split() for line in here.splitlines()]
    modules_on_disk = sorted(path.name for path in (ROOT / "src" / "ctfm_lab").glob("*.py"))
    assert [row[0] for row in modules] == modules_on_disk
    assert total[0] == "total"
    sums = [sum(int(row[i]) for row in modules) for i in (1, 2)]
    assert [int(total[1]), int(total[2])] == sums
    assert 0 < sums[1] < sums[0]


@pytest.mark.parametrize("where", ["missing", "empty"])
def test_src_lines_refuses_a_directory_with_no_module(tmp_path, where):
    directory = tmp_path / where
    if where == "empty":
        directory.mkdir()
    done = run_tool("src_lines.py", str(directory))
    assert done.returncode != 0
    assert done.stdout == "" and "no module" in done.stderr
