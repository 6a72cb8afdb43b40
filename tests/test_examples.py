"""Smoke tests: every shipped example runs end to end."""

import ast
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_quickstart():
    result = run_example("quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "defect coverage: 100.0%" in result.stdout


def test_fig11_example():
    result = run_example("fig11_address_bus.py", "60")
    assert result.returncode == 0, result.stderr
    assert "lines with zero individual coverage: [1, 2, 11, 12]" in result.stdout


def test_bist_vs_sbst_example():
    result = run_example("bist_vs_sbst.py")
    assert result.returncode == 0, result.stderr
    assert "over-test" in result.stdout


def test_mmio_core_example():
    result = run_example("mmio_core_test.py")
    assert result.returncode == 0, result.stderr
    assert "detected by test(s)" in result.stdout


def test_waveform_explorer_example():
    result = run_example("waveform_explorer.py")
    assert result.returncode == 0, result.stderr
    assert "glitch peak" in result.stdout
    assert "50% crossing" in result.stdout


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "fig11_address_bus.py",
        "bist_vs_sbst.py",
        "mmio_core_test.py",
        "waveform_explorer.py",
    ],
)
def test_examples_exist(name):
    assert (EXAMPLES / name).is_file()


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_imports_resolve(path):
    # Only the top-level imports, in this process: a name dropped from
    # the module an example imports it from fails here without running
    # the example.
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [
        node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(path), "exec"), {})
