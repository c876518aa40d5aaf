"""Tests for the package's import surface and the README's examples."""

import ast
import hashlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import steprates
import steprates.cli as cli
from steprates.domains import DOMAINS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
CLI_USAGE = README.split("\n## Command-line usage\n", 1)[1].split("\n## ", 1)[0]
SHELL_BLOCKS = re.findall(r"^```sh\n(.*?)^```", CLI_USAGE, re.S | re.M)
# sha256 of the tables the README's commands write, as the cell-by-cell
# csv.writer wrote them before the block writer replaced it
README_TABLES = {
    "recursion.csv": "fe7f559e39110467b4fb82aead2187979370873df430aceacaa31916f52c962b",
    "trajectories.csv": "03fc33e73698de0d5e4395a22ff84f88839e744b0d731c79bfad921a2f954bea",
    "mean.csv": "e53357f375c9ce6b5e88cfe7ddc3c4c0711188a6bedcc50eb1fde2933a37a2ca",
    "heatmap.csv": "1163906f8c9e3882a94348c0eb2ca6caa3d9a7ff2b9c84564cde2a369720284a",
}


@pytest.mark.parametrize("block", EXAMPLES, ids=[f"block{i}" for i in range(len(EXAMPLES))])
def test_readme_python_example_runs(block):
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})


def run_shell_block(block, call):
    """Run a README shell block in the working directory.

    A `cat > F <<'EOF'` line writes the lines up to `EOF` to F, and each
    `python -m steprates ARGS` line must return 0 from call(ARGS); any
    other line fails.
    """
    lines = iter(block.splitlines())
    for line in lines:
        if heredoc := re.fullmatch(r"cat > (\S+) <<'EOF'", line):
            body = []
            for text in lines:
                if text == "EOF":
                    break
                body.append(text + "\n")
            else:
                pytest.fail(f"README heredoc {line!r} has no EOF line")
            Path(heredoc[1]).write_text("".join(body), encoding="utf-8")
        elif line.startswith("python -m steprates "):
            assert call(shlex.split(line)[3:]) == 0, line
        else:
            pytest.fail(f"README shell line not handled: {line!r}")


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_readme_shell_examples_run(tmp_path, monkeypatch):
    """Every command under "Command-line usage" exits 0 as written, and the
    tables they write keep their bytes."""
    assert SHELL_BLOCKS
    monkeypatch.chdir(tmp_path)
    for block in SHELL_BLOCKS:
        run_shell_block(block, cli.main)
    for name, expected in README_TABLES.items():
        assert digest(Path("out", name)) == expected, name


def test_readme_commands_run_through_the_entry_point(tmp_path, monkeypatch):
    """`python -m steprates`, in a process of its own, runs the README's
    first block and writes its table."""
    monkeypatch.chdir(tmp_path)
    # the package this process imported, whatever the working directory
    path = [str(Path(steprates.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def module(argv):
        return subprocess.run([sys.executable, "-m", "steprates", *argv], env=env).returncode

    run_shell_block(SHELL_BLOCKS[0], module)
    assert digest("out/recursion.csv") == README_TABLES["recursion.csv"]


def test_package_binds_no_public_name_but_its_submodules():
    public = {name for name in vars(steprates) if not name.startswith("_")}
    assert public <= {module.name for module in pkgutil.iter_modules(steprates.__path__)}


def test_every_check_lives_in_verify_and_cli_imports_no_private_name():
    """No module but verify defines a check (WorstMargin, CheckResult,
    SuiteReport, a *_suite or verify_* function) or imports one from
    elsewhere, and cli imports no private name of the library."""
    def is_check(name):
        return name in {"WorstMargin", "CheckResult", "SuiteReport"} or (
            name.endswith("_suite") or name.startswith("verify_")
        )

    found = []
    for path in sorted(Path(steprates.__file__).parent.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            defined = isinstance(node, (ast.FunctionDef, ast.ClassDef)) and is_check(node.name)
            if defined and module != "verify":
                found.append(f"{module} defines {node.name}")
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = (node.module or "").removeprefix("steprates.")
            library = node.level > 0 or (node.module or "").startswith("steprates")
            for name in (alias.name for alias in node.names):
                if is_check(name) and source != "verify":
                    found.append(f"{module} imports {name} from {source}")
                private = name.startswith("_") and not name.endswith("__")
                if module == "cli" and library and private:
                    found.append(f"cli imports the private name {name} from {source}")
    assert found == []


def raised_messages(tree):
    """(line, text) of each raise whose exception takes a string or f-string
    first, with "{}" in place of each formatted value."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        first = node.exc.args[0] if node.exc.args else None
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield node.lineno, first.value
        elif isinstance(first, ast.JoinedStr):
            parts = (v.value if isinstance(v, ast.Constant) else "{}" for v in first.values)
            yield node.lineno, "".join(parts)


def test_each_domain_is_stated_once_in_the_domain_table():
    """No module but domains raises "<name> must ..." for a name that the
    table declares, and none but cli, which parses config types, raises
    "{name} must ..." for a name it is handed: each domain is stated once,
    and steprates.domains.check raises it."""
    names = "|".join(re.escape(name) for name in DOMAINS)
    stated = re.compile(rf"^(?:{names}|\{{\}}) must\b")
    found = []
    for path in sorted(Path(steprates.__file__).parent.glob("*.py")):
        if path.stem == "domains":
            continue
        for line, text in raised_messages(ast.parse(path.read_text(encoding="utf-8"))):
            if stated.match(text) and not (path.stem == "cli" and text.startswith("{}")):
                found.append(f"{path.name}:{line}: {text}")
    assert found == []
