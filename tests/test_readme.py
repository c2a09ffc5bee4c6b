"""README.md's examples and names, checked against the package."""

import ast
import inspect
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import railcheck

ROOT = Path(__file__).parent.parent
M0 = ROOT / "tests" / "fixtures" / "m0.json"


def _section(title):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## %s\n" % title)
    end = text.find("\n## ", start + 1)
    return text[start : end if end >= 0 else len(text)]


def _blocks(section):
    """The fenced code blocks of a section, as (language, body)."""
    return re.findall(r"```(\w*)\n(.*?)```", section, re.S)


def test_exports_are_the_names_readme_documents():
    section = _section("Library")
    (code,) = [body for lang, body in _blocks(section) if lang == "python"]
    imported = {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "railcheck"
        for alias in node.names
    }
    prose = re.sub(r"```.*?```", "", section, flags=re.S)
    named = set(re.findall(r"`([A-Za-z_]\w*)`", prose))
    exports = {
        name
        for name, value in vars(railcheck).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exports == imported | named
    assert len(exports) == 10


def test_model_block_is_the_m0_fixture():
    ((lang, body),) = [b for b in _blocks(_section("Model format")) if b[0] == "json"]
    assert body == M0.read_text(encoding="utf-8")


def test_command_line_example_is_what_the_cli_prints():
    (command, output) = [body for _, body in _blocks(_section("Command line"))]
    argv = shlex.split(command)
    assert argv == ["railcheck", "MODEL.json", "--prop", "P<=0.5 [ F psi ]"]
    src = str(Path(railcheck.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "railcheck", str(M0)] + argv[2:],
        capture_output=True, text=True, env=env, check=False,
    )
    assert run.returncode == 1
    assert run.stdout == output
    assert run.stderr == ""


def test_library_example_runs_on_m0(tmp_path, monkeypatch, capsys):
    (code,) = [body for lang, body in _blocks(_section("Library")) if lang == "python"]
    shutil.copy(M0, tmp_path / "model.json")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("(0, 2, 4) 0.6 (0, 2, 4) 0.006")
