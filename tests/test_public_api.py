"""The documented public surface: the README's Python example runs, and
every exported name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import corcomp

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_every_exported_name_resolves():
    modules = [corcomp] + [
        importlib.import_module(f"corcomp.{info.name}")
        for info in pkgutil.iter_modules(corcomp.__path__)
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > len(corcomp.__all__)
